//! `offline-paged`: offline `run_job` jobs on GraphD, whose adjacency is
//! paged through a cache far smaller than the graph, with no serve layer.
//! One job set is an MSSP job (32 sources) and a BKHS job (64 sources,
//! k = 2), each split into 32 equal batches; job sets repeat until the
//! measuring time is spent, in whole summary windows.

use crate::stats::{mean, median, quantile, spread};
use crate::trace::Tracer;
use crate::{Report, SETUP_MIN_REPS};
use mtvc_cluster::ClusterSpec;
use mtvc_core::{run_job, select_sources, BatchSchedule, JobResult, JobSpec, Task};
use mtvc_engine::{EngineConfig, Runner};
use mtvc_graph::hash::mix64;
use mtvc_graph::{reference, Dataset, Graph};
use mtvc_metrics::SimTime;
use mtvc_systems::SystemKind;
use mtvc_tasks::bkhs::BkhsCounts;
use mtvc_tasks::mssp::MsspDistances;
use mtvc_tasks::{BkhsSlabProgram, MsspSlabProgram};
use std::time::Instant;

/// Dataset scale divisor σ, applied to the graph and the cluster alike.
/// At 65536 the graph (1024 vertices) is still about 25× its page cache,
/// and a job's working set is small enough that its times swing less
/// with what other tenants of a shared host do to the memory caches than
/// at σ = 16384 (4096 vertices).
const SIGMA: u64 = 65536;
/// Batches per job: narrow batches make per-round fixed costs dominate.
const BATCHES: usize = 32;
/// Job-set variants per run, each with its own source draw from the
/// seed, taken in turn: one run averages over several draws, so the
/// figures depend less on which sources one draw happened to pick.
const VARIANTS: usize = 4;
/// Job sets per summary window: every variant twice, so that each window
/// holds the same work, and at least one window always runs, even past
/// the measuring time, so that determinism across repetitions is checked.
const WINDOW_SETS: usize = 2 * VARIANTS;
/// Unit tasks (sources) in one job set.
const UNITS_PER_SET: u64 = 32 + 64;
/// Sources per task whose answers are checked against the references.
const CHECKED_SOURCES: u64 = 4;

fn cluster() -> ClusterSpec {
    ClusterSpec::docker32().scaled(SIGMA as f64)
}

/// The jobs of variant `v`: MSSP then BKHS, sources drawn from `seed`.
fn job_set(seed: u64, v: usize) -> [(&'static str, JobSpec); 2] {
    let job = |task: Task, salt: u64| {
        let schedule = BatchSchedule::equal(task.workload(), BATCHES);
        JobSpec::new(task, SystemKind::GraphD, cluster(), schedule)
            .with_seed(mix64(seed ^ (salt << 8) ^ v as u64))
    };
    [
        ("mssp", job(Task::mssp(32), 1)),
        ("bkhs", job(Task::bkhs(64), 2)),
    ]
}

/// The counts that must repeat exactly across repetitions of a job.
fn signature(r: &JobResult) -> (usize, u64, u64, u64) {
    (
        r.stats.rounds,
        r.stats.total_messages_sent,
        r.stats.total_loaded_bytes.get(),
        r.outcome.plot_time().as_secs().to_bits(),
    )
}

pub fn paged(seed: u64, seconds: u64, tracer: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let root = tracer.open("run", None);
    let run_start = Instant::now();

    // Set-up: graph generation plus job preparation. It runs a few times
    // here and once more before every later summary window, so that its
    // samples spread over the whole run as the job times do; `setup_s` is
    // the median of all of them.
    let (mut gen_s, mut total_s) = (Vec::new(), Vec::new());
    let mut set_up = |tracer: &mut Tracer| {
        let t0 = Instant::now();
        let graph = Dataset::Friendster.generate(SIGMA);
        let t1 = Instant::now();
        let sets: Vec<_> = (0..VARIANTS).map(|v| job_set(seed, v)).collect();
        let t2 = Instant::now();
        tracer.span("graph.generate", root, None, t0, t1);
        tracer.span("core.prepare", root, None, t1, t2);
        gen_s.push((t1 - t0).as_secs_f64());
        total_s.push((t2 - t0).as_secs_f64());
        (graph, sets)
    };
    for _ in 1..SETUP_MIN_REPS {
        set_up(tracer);
    }
    let (graph, sets) = set_up(tracer);

    let budget = SystemKind::GraphD
        .profile(&cluster().machine)
        .out_of_core
        .and_then(|o| o.paging)
        .map(|p| p.budget.get())
        .expect("GraphD pages its adjacency");
    println!(
        "graph: {} vertices, {} B adjacency, {budget} B page cache per worker",
        graph.num_vertices(),
        graph.adjacency_bytes()
    );
    rep.check(graph.adjacency_bytes() > budget, || {
        format!(
            "graph ({} B) fits the {budget} B cache",
            graph.adjacency_bytes()
        )
    });

    // Timed: whole job sets, variants in turn, until the time is spent.
    let start = Instant::now();
    let mut set_s = Vec::new();
    let mut job_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    // First result of each (variant, job), which later repetitions must
    // match exactly.
    let mut first: Vec<Option<JobResult>> = vec![None; 2 * VARIANTS];
    let mut completed = 0u64;
    while !set_s.len().is_multiple_of(WINDOW_SETS) || start.elapsed().as_secs() < seconds {
        if !set_s.is_empty() && set_s.len().is_multiple_of(WINDOW_SETS) {
            set_up(tracer);
        }
        let v = set_s.len() % VARIANTS;
        let set_start = Instant::now();
        for (j, (name, spec)) in sets[v].iter().enumerate() {
            let t0 = Instant::now();
            let result = run_job(&graph, spec);
            let t1 = Instant::now();
            job_ms[j].push((t1 - t0).as_secs_f64() * 1e3);
            let span = tracer.span("core.run_job", root, None, t0, t1);
            let s = &result.stats;
            for (key, value) in [
                ("variant", v as f64),
                ("rounds", s.rounds as f64),
                ("messages_sent", s.total_messages_sent as f64),
                ("messages_delivered", s.total_messages_delivered as f64),
                ("loaded_bytes", s.total_loaded_bytes.get() as f64),
                ("partition_loads", s.total_partition_loads as f64),
                ("partitions_skipped", s.total_partitions_skipped as f64),
                ("sim_s", result.outcome.plot_time().as_secs()),
            ] {
                tracer.attr(span, key, value);
            }
            completed += u64::from(result.outcome.is_completed());
            rep.check(result.outcome.is_completed(), || {
                format!("{name} job did not complete: {:?}", result.outcome)
            });
            let peak = s.peak_paged_resident_bytes.get();
            rep.check(peak <= budget, || {
                format!("{name}: paged resident peak {peak} B over the {budget} B budget")
            });
            match &first[2 * v + j] {
                None => first[2 * v + j] = Some(result),
                Some(f) => rep.check(signature(f) == signature(&result), || {
                    format!("{name} (variant {v}): counts differ between repetitions")
                }),
            }
        }
        set_s.push(set_start.elapsed().as_secs_f64());
    }
    tracer.close(root);
    rep.wall_s = run_start.elapsed().as_secs_f64();
    rep.set("setup_s", median(&total_s));
    rep.set("graph.generate_s", median(&gen_s));

    let jobs_run = 2 * set_s.len() as u64;
    // Means over the windows, not medians: the host's speed switches
    // between levels for stretches of seconds, and a median would jump to
    // whichever level held most of the run, where a mean moves with the
    // share of the run each level held.
    let window_s: Vec<f64> = set_s
        .chunks(WINDOW_SETS)
        .map(|w| w.iter().sum::<f64>())
        .collect();
    let window_quantile_ms = |q: f64| -> Vec<f64> {
        (0..window_s.len())
            .map(|w| {
                let jobs = w * WINDOW_SETS..(w + 1) * WINDOW_SETS;
                quantile(&[&job_ms[0][jobs.clone()], &job_ms[1][jobs]].concat(), q)
            })
            .collect()
    };
    let set_mean = mean(&window_s) / WINDOW_SETS as f64;
    rep.attempted = jobs_run;
    rep.failed = jobs_run - completed;
    rep.set("job_s", set_mean);
    rep.set("p50_ms", mean(&window_quantile_ms(0.50)));
    rep.set("p99_ms", mean(&window_quantile_ms(0.99)));
    rep.set("served_rps", 2.0 / set_mean);
    rep.set("units_per_s", UNITS_PER_SET as f64 / set_mean);
    rep.set("goodput_frac", completed as f64 / jobs_run as f64);
    rep.set("failed_frac", rep.failed as f64 / jobs_run as f64);
    rep.set("core.job_ms.mssp", median(&job_ms[0]));
    rep.set("core.job_ms.bkhs", median(&job_ms[1]));
    rep.reps = window_s.len();
    rep.rep_spread = spread(&window_s);

    // Engine and pager counts per job set, averaged over the variants.
    let results: Vec<&JobResult> = first.iter().flatten().collect();
    let per_set =
        |f: fn(&JobResult) -> f64| results.iter().map(|r| f(r)).sum::<f64>() / VARIANTS as f64;
    let rounds = per_set(|r| r.stats.rounds as f64);
    let sent = per_set(|r| r.stats.total_messages_sent as f64);
    let loads = per_set(|r| r.stats.total_partition_loads as f64);
    let skipped = per_set(|r| r.stats.total_partitions_skipped as f64);
    rep.set("engine.rounds", rounds);
    rep.set("engine.us_per_round", set_mean * 1e6 / rounds.max(1.0));
    rep.set("engine.messages_sent", sent);
    rep.set(
        "engine.messages_delivered",
        per_set(|r| r.stats.total_messages_delivered as f64),
    );
    rep.set("engine.ns_per_message", set_mean * 1e9 / sent.max(1.0));
    rep.set(
        "engine.shard_copy_bytes",
        per_set(|r| r.stats.total_shard_copy_bytes.get() as f64),
    );
    rep.set(
        "engine.network_bytes",
        per_set(|r| r.stats.total_network_bytes.get() as f64),
    );
    rep.set(
        "pager.loaded_bytes",
        per_set(|r| r.stats.total_loaded_bytes.get() as f64),
    );
    rep.set("pager.partition_loads", loads);
    rep.set("pager.partitions_skipped", skipped);
    rep.set("pager.skip_frac", skipped / (loads + skipped).max(1.0));
    rep.set(
        "pager.peak_resident_bytes",
        results
            .iter()
            .map(|r| r.stats.peak_paged_resident_bytes.get() as f64)
            .fold(0.0, f64::max),
    );
    // Simulated cluster seconds, not wall time.
    rep.set(
        "cluster.sim_s",
        per_set(|r| r.outcome.plot_time().as_secs()),
    );
    rep.unobserved(
        &[
            "loadgen.lag_p99_ms",
            "tune.start_s",
            "self_s.loadgen",
            "self_s.tune",
            "self_s.serve",
        ],
        "offline jobs have no load generator, tuner or serve layer",
    );
    rep.unobserved(
        &[
            "serve.queue_wait_p50_ms",
            "serve.queue_wait_p99_ms",
            "serve.queue_depth_twa",
            "serve.controller.narrowed",
            "serve.controller.widened",
            "serve.controller.deadline_capped",
            "serve.after_dispatch_p50_ms",
            "serve.after_dispatch_p99_ms",
            "serve.batches",
            "serve.batch_units_mean",
        ],
        "offline jobs bypass the serve layer",
    );

    check_answers(&graph, seed, &mut rep);
    rep
}

/// Untimed: answers for a sample of sources, computed by the same slab
/// programs under the GraphD profile (paging on), must match Dijkstra and
/// the k-hop reference at every vertex.
fn check_answers(graph: &Graph, seed: u64, rep: &mut Report) {
    let cluster = cluster();
    let config = || {
        let profile = SystemKind::GraphD.profile(&cluster.machine);
        let mut cfg = EngineConfig::new(cluster.clone(), profile);
        cfg.seed = seed;
        cfg.cutoff = SimTime::secs(1.0e12);
        cfg
    };
    let partitioner = SystemKind::GraphD.partitioner();
    let sources = select_sources(graph, CHECKED_SOURCES, seed ^ 0xC4EC);

    let runner = Runner::new(graph, partitioner.as_ref(), config());
    rep.check(runner.paged_layout().is_some(), || {
        "GraphD did not page".into()
    });
    let mssp = runner.run_slab(&MsspSlabProgram::new(sources.clone()));
    rep.check(mssp.outcome.is_completed(), || {
        "MSSP check run did not complete".into()
    });
    let dist = MsspDistances::new(mssp.states);
    for (q, &s) in sources.iter().enumerate() {
        let want = reference::dijkstra(graph, s);
        let bad = graph
            .vertices()
            .filter(|&v| {
                let w = want[v as usize];
                dist.dist(q as u32, v) != (w != u64::MAX).then_some(w)
            })
            .count();
        rep.check(bad == 0, || {
            format!("MSSP from {s}: {bad} distances differ from Dijkstra")
        });
    }

    let runner = Runner::new(graph, partitioner.as_ref(), config());
    let bkhs = runner.run_slab(&BkhsSlabProgram::new(sources.clone(), 2));
    rep.check(bkhs.outcome.is_completed(), || {
        "BKHS check run did not complete".into()
    });
    for (q, &s) in sources.iter().enumerate() {
        let mut want = reference::k_hop_set(graph, s, 2);
        want.sort_unstable();
        let got = BkhsCounts::members(&bkhs.states, q as u32);
        rep.check(got == want, || {
            format!(
                "BKHS from {s}: {} members, reference {}",
                got.len(),
                want.len()
            )
        });
    }
}
