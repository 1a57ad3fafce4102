//! Shared measurement harness for the perf-snapshot bins
//! (`bench_pr5`, `bench_pr7`, `bench_pr8`).
//!
//! Consolidates the two pieces every snapshot bin used to carry its
//! own copy of:
//!
//! * **[`CountingAlloc`]** — a system-allocator wrapper counting every
//!   allocated byte. Each bin still declares its own
//!   `#[global_allocator]` static (the attribute must live in the
//!   binary), but the type, the counter, and the steady-state
//!   per-round math live here.
//! * **best-of-reps timing** — warm-up run, one instrumented run
//!   profiling per-round allocation, then `reps` timed runs keeping
//!   the *minimum* wall time (which filters scheduler noise on shared
//!   runners), asserting driver determinism throughout. When several
//!   cells are measured together the timed reps are interleaved
//!   round-robin so each cell samples the same background-load
//!   windows — back-to-back reps would let a load spike hit one
//!   cell's entire sample and skew every cross-cell ratio.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// System allocator wrapper counting every allocated byte (allocations
/// only — frees are not subtracted, so deltas measure allocation
/// *churn*, which is exactly what buffer recycling removes). Bins
/// activate it with `#[global_allocator] static GLOBAL: CountingAlloc
/// = CountingAlloc;`.
pub struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count only the growth; shrinks are free.
        let grown = new_size.saturating_sub(layout.size());
        ALLOCATED.fetch_add(grown as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total bytes allocated so far (monotone; see [`CountingAlloc`]).
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Rounds skipped before the steady-state allocation window opens
/// (buffers are still growing toward their high-water marks).
pub const WARMUP_ROUNDS: usize = 3;

/// Smallest per-round allocation delta after the warm-up window: what
/// a round costs once every recycled buffer has reached its high-water
/// capacity. `marks` are counter snapshots taken at round boundaries.
pub fn steady_bytes(marks: &[u64]) -> u64 {
    let deltas: Vec<u64> = marks.windows(2).map(|w| w[1] - w[0]).collect();
    deltas
        .iter()
        .skip(WARMUP_ROUNDS.min(deltas.len().saturating_sub(1)))
        .copied()
        .min()
        .unwrap_or(0)
}

/// One measured benchmark cell.
pub struct Measurement<R> {
    /// The driver's (determinism-checked) report.
    pub report: R,
    /// Best wall time of the timed reps, seconds.
    pub best_secs: f64,
    /// Mean bytes allocated per timed rep.
    pub total_bytes_per_rep: u64,
    /// Smallest post-warm-up per-round allocation delta.
    pub steady_bytes_per_round: u64,
}

/// A round-loop driver as the harness sees it: runs one full loop,
/// calling the round-end hook after each round, and returns a report.
pub type RoundDriver<'a, R> = &'a dyn Fn(&mut dyn FnMut(usize)) -> R;

/// Measure several round-loop drivers together. Every driver takes the
/// round-end hook the allocation profile snapshots through. Sequence
/// per driver: one warm-up run (so timed runs start from warmed
/// buffers — for recycled-slab drivers that means pooled slabs, the
/// production steady state), one instrumented run, then `reps` timed
/// runs interleaved round-robin across all drivers, keeping the best
/// time. Every run is asserted identical to the first.
pub fn measure_all_rounds<R: PartialEq + std::fmt::Debug>(
    reps: usize,
    drivers: &[RoundDriver<'_, R>],
) -> Vec<Measurement<R>> {
    let profiled: Vec<(R, u64)> = drivers
        .iter()
        .map(|d| {
            let warm = d(&mut |_| {});
            let mut marks: Vec<u64> = Vec::with_capacity(64);
            let report = d(&mut |_| marks.push(allocated_bytes()));
            assert_eq!(warm, report, "driver must be deterministic");
            (report, steady_bytes(&marks))
        })
        .collect();

    let mut best = vec![f64::INFINITY; drivers.len()];
    let mut total = vec![0u64; drivers.len()];
    for _ in 0..reps {
        for (i, d) in drivers.iter().enumerate() {
            let before = allocated_bytes();
            let start = Instant::now();
            let r = d(&mut |_| {});
            best[i] = best[i].min(start.elapsed().as_secs_f64());
            total[i] += allocated_bytes() - before;
            assert_eq!(r, profiled[i].0, "driver must be deterministic");
        }
    }
    profiled
        .into_iter()
        .zip(best)
        .zip(total)
        .map(|(((report, steady), best_secs), total)| Measurement {
            report,
            best_secs,
            total_bytes_per_rep: total / reps.max(1) as u64,
            steady_bytes_per_round: steady,
        })
        .collect()
}

/// [`measure_all_rounds`] for a single driver.
pub fn measure_rounds<R: PartialEq + std::fmt::Debug>(
    reps: usize,
    driver: impl Fn(&mut dyn FnMut(usize)) -> R,
) -> Measurement<R> {
    measure_all_rounds(reps, &[&|hook: &mut dyn FnMut(usize)| driver(hook)])
        .pop()
        .expect("one driver")
}

/// Interleaved best-of-reps timing for hook-less drivers (no
/// allocation profile): one warm-up run each, then `reps` timed runs
/// round-robin. Returns each driver's report and best seconds.
pub fn measure_interleaved<R: PartialEq + std::fmt::Debug>(
    reps: usize,
    drivers: &[&dyn Fn() -> R],
) -> Vec<(R, f64)> {
    let reports: Vec<R> = drivers.iter().map(|d| d()).collect();
    let mut best = vec![f64::INFINITY; drivers.len()];
    for _ in 0..reps {
        for (i, driver) in drivers.iter().enumerate() {
            let start = Instant::now();
            let r = driver();
            best[i] = best[i].min(start.elapsed().as_secs_f64());
            assert_eq!(r, reports[i], "driver must be deterministic");
        }
    }
    reports.into_iter().zip(best).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_bytes_takes_post_warmup_minimum() {
        // Deltas: 100, 50, 10, 5, 7 — warm-up skips the first 3.
        let marks = [0u64, 100, 150, 160, 165, 172];
        assert_eq!(steady_bytes(&marks), 5);
        assert_eq!(steady_bytes(&[]), 0);
        assert_eq!(steady_bytes(&[42]), 0);
    }

    #[test]
    fn measure_rounds_reports_best_of_reps() {
        let m = measure_rounds(3, |hook| {
            for r in 0..5 {
                hook(r);
            }
            5usize
        });
        assert_eq!(m.report, 5);
        assert!(m.best_secs.is_finite() && m.best_secs >= 0.0);
        assert_eq!(m.steady_bytes_per_round, 0, "loop allocates nothing");
    }

    #[test]
    fn measure_interleaved_checks_determinism() {
        let a = || 1u64;
        let b = || 2u64;
        let out = measure_interleaved(2, &[&a, &b]);
        assert_eq!(out[0].0, 1);
        assert_eq!(out[1].0, 2);
    }
}
