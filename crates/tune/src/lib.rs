//! The cost-based tuning framework of §5 ("Case Study: Tuning Pregel+").
//!
//! Given a workload `W`, the framework learns an optimized batch
//! execution strategy `S* = {W₁, …, Wₜ}` with `Σ Wᵢ = W`:
//!
//! 1. **Training** ([`training`]): run light probe workloads `2^r`
//!    (`2^r ≪ W`) and record the maximum per-machine memory `M*(2^r)`
//!    and maximum residual memory `M_r*(2^r)`.
//! 2. **Fitting** ([`lma`]): model both as exponential functions
//!    `a·W^b + c` and estimate `(a, b, c)` with the standard
//!    Levenberg–Marquardt algorithm, exactly as §5 prescribes.
//! 3. **Scheduling** ([`schedule`]): solve Equations 1–6 iteratively —
//!    each batch takes the largest workload whose predicted peak
//!    memory fits under `p·M` after subtracting the residual of all
//!    earlier batches; later batches shrink monotonically.
//! 4. **End-to-end** ([`tuner`]): train, fit, schedule, and execute,
//!    for the Figure 12 comparison against Full-Parallelism.
//!
//! The §4.10 "practical guidelines" alternative — a model-free binary
//! search for the largest workload that does not strain the cluster —
//! lives in [`gauge`].
//!
//! Serving deployments extend the offline fits with two online models:
//! [`online`] refreshes the memory curves from observed batch peaks,
//! and [`latency`] learns batch wall latency vs workload from the
//! scheduler's completed-batch measurements so deadline-aware batch
//! sizing can invert "how much fits in this slack?".

pub mod gauge;
pub mod latency;
pub mod lma;
pub mod online;
pub mod schedule;
pub mod training;
pub mod tuner;

pub use gauge::{gauge_max_workload, GaugeResult, TrialVerdict};
pub use latency::OnlineLatencyModel;
pub use lma::{fit_exponential, ExpFit, FitError};
pub use online::OnlineMemoryModel;
pub use schedule::{compute_schedule, MemoryModel, ScheduleError};
pub use training::{train, train_on, TrainingData};
pub use tuner::{tune, TunedSchedule, TunerConfig};
