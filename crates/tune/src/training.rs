//! The light-weight training phase (§5 "Training").
//!
//! "We conduct training on the task with workload 2^r (1 ≤ r ≤ h)
//! where W ≫ 2^h … Through the training we collect h sets of runtime
//! statistics, including the maximum memory {y_r} and the maximum
//! residual memory {y'_r}."

use mtvc_cluster::ClusterSpec;
use mtvc_core::{run_job, BatchRunner, BatchSchedule, JobResult, JobSpec, Task};
use mtvc_graph::Graph;
use mtvc_metrics::SimTime;
use mtvc_systems::SystemKind;

/// Probe measurements collected by the training phase.
#[derive(Debug, Clone, Default)]
pub struct TrainingData {
    /// Probe workloads `2^r`.
    pub workloads: Vec<f64>,
    /// Max per-machine memory observed for each probe (bytes).
    pub peak_memory: Vec<f64>,
    /// Max per-machine residual after each probe (bytes).
    pub residual: Vec<f64>,
    /// Total simulated time spent training (must stay ≪ evaluation).
    pub training_time: SimTime,
}

impl TrainingData {
    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }
}

/// The probe levels `2^1 … 2^h` with `2^h ≤ max(8, W/4)` (the paper's
/// "the condition ensures the training cost is minor"), always at
/// least 3 levels so the 3-parameter fit is constrained.
pub fn probe_workloads(total: u64, task_cap: u64) -> Vec<u64> {
    let cap = (total / 4).max(8).min(task_cap);
    let mut probes = Vec::new();
    let mut w = 2u64;
    while w <= cap {
        probes.push(w);
        w *= 2;
    }
    while probes.len() < 3 {
        // Degenerate tiny workloads: pad with the next powers anyway.
        let next = probes.last().map(|&x| x * 2).unwrap_or(2);
        probes.push(next.min(task_cap.max(2)));
    }
    probes.dedup();
    probes
}

/// Run the probes and collect the §5 statistics.
pub fn train(
    graph: &Graph,
    task: Task,
    system: SystemKind,
    cluster: &ClusterSpec,
    seed: u64,
) -> TrainingData {
    collect(graph, task, system, cluster, seed, |spec| {
        run_job(graph, spec)
    })
}

/// [`train`] on `runner`'s graph, system and cluster, executing the
/// probes on the runner itself: its engine runner and slab pools are
/// built once for all probes, and stay warm for the batches it serves
/// afterwards. The statistics equal [`train`]'s.
pub fn train_on(runner: &BatchRunner, task: Task, seed: u64) -> TrainingData {
    collect(
        runner.graph(),
        task,
        runner.system(),
        runner.cluster(),
        seed,
        |spec| runner.run_job(spec),
    )
}

/// Run each probe job through `run` and collect its statistics.
fn collect(
    graph: &Graph,
    task: Task,
    system: SystemKind,
    cluster: &ClusterSpec,
    seed: u64,
    run: impl Fn(&JobSpec) -> JobResult,
) -> TrainingData {
    let probes = probe_workloads(task.workload(), task.max_workload(graph));
    let mut data = TrainingData::default();
    for &w in &probes {
        let probe_task = task.with_workload(w);
        let spec = JobSpec::new(
            probe_task,
            system,
            cluster.clone(),
            BatchSchedule::full_parallelism(w),
        )
        .with_seed(seed ^ w);
        let result = run(&spec);
        // Probes are light by construction; a failed probe would mean
        // even 2^r overloads the cluster, in which case its statistics
        // are still the best available signal.
        data.workloads.push(w as f64);
        data.peak_memory.push(result.stats.peak_memory.as_f64());
        data.residual.push(
            result
                .per_batch
                .first()
                .map(|b| b.residual_max_worker as f64)
                .unwrap_or(0.0),
        );
        data.training_time += result.plot_time();
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvc_graph::generators;

    #[test]
    fn probe_levels_are_doubling_and_small() {
        let p = probe_workloads(4096, u64::MAX);
        assert_eq!(p.first(), Some(&2));
        assert!(p.len() >= 3);
        assert!(*p.last().unwrap() <= 1024);
        for w in p.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn probe_levels_respect_task_cap() {
        // MSSP on a 100-vertex graph cannot probe more than 100 sources.
        let p = probe_workloads(4096, 100);
        assert!(p.iter().all(|&w| w <= 100));
    }

    #[test]
    fn tiny_workload_still_three_probes() {
        let p = probe_workloads(8, u64::MAX);
        assert!(p.len() >= 3, "{p:?}");
    }

    #[test]
    fn training_on_a_batch_runner_equals_training() {
        let g = std::sync::Arc::new(generators::power_law(200, 900, 2.4, 53));
        let cluster = ClusterSpec::galaxy(4);
        for task in [Task::bppr(256), Task::mssp(64)] {
            let fresh = train(&g, task, SystemKind::PregelPlus, &cluster, 3);
            let runner = BatchRunner::new(g.clone(), task, SystemKind::PregelPlus, cluster.clone());
            // Twice on one runner: the second pass reuses its buffers.
            for _ in 0..2 {
                let on = train_on(&runner, task, 3);
                assert_eq!(on.workloads, fresh.workloads);
                assert_eq!(on.peak_memory, fresh.peak_memory);
                assert_eq!(on.residual, fresh.residual);
                assert_eq!(on.training_time, fresh.training_time);
            }
        }
    }

    #[test]
    fn training_collects_monotone_memory_curve() {
        let g = generators::power_law(200, 900, 2.4, 53);
        let data = train(
            &g,
            Task::bppr(256),
            SystemKind::PregelPlus,
            &ClusterSpec::galaxy(4),
            3,
        );
        assert!(data.len() >= 3);
        assert!(data.training_time > SimTime::ZERO);
        // Peak memory grows with workload.
        for w in data.peak_memory.windows(2) {
            assert!(
                w[1] >= w[0] * 0.9,
                "memory curve not growing: {:?}",
                data.peak_memory
            );
        }
        // Residual grows with workload too (more walks stored).
        assert!(data.residual.last().unwrap() > data.residual.first().unwrap());
    }
}
