//! `mtvc-perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <serve-open|serve-closed|offline-paged>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Replays a seeded workload through the production paths
//! (`TaskService` for serving, `run_job` for offline jobs), checks every
//! output, and prints one metric per line followed, as the last line, by
//! a JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, measured untraced;
//! with `--trace 1` they are the per-layer set, taken from a traced run,
//! and the spans are written under `.perfbench_out/`. A failed output
//! check exits with code 1. See `perfbench/README.md`.

mod offline;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("served_rps", "1/s"),
    ("units_per_s", "1/s"),
    ("goodput_frac", "frac"),
    ("job_s", "s"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// metric a workload cannot observe through the public API prints as 0
/// and is named in a `not measured` line above the result.
const PER_LAYER: [(&str, &str); 49] = [
    ("failed_frac", "frac"),
    ("loadgen.lag_p99_ms", "ms"),
    ("graph.generate_s", "s"),
    ("tune.start_s", "s"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.queue_depth_twa", "requests"),
    ("serve.controller.narrowed", "count"),
    ("serve.controller.widened", "count"),
    ("serve.controller.deadline_capped", "count"),
    ("serve.after_dispatch_p50_ms", "ms"),
    ("serve.after_dispatch_p99_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_units_mean", "units"),
    ("serve.shed.interactive", "count"),
    ("serve.shed.standard", "count"),
    ("serve.shed.batch", "count"),
    ("serve.deadline.interactive", "count"),
    ("serve.deadline.standard", "count"),
    ("serve.deadline.batch", "count"),
    ("serve.rejected.interactive", "count"),
    ("serve.rejected.standard", "count"),
    ("serve.rejected.batch", "count"),
    ("serve.failed.interactive", "count"),
    ("serve.failed.standard", "count"),
    ("serve.failed.batch", "count"),
    ("core.job_ms.mssp", "ms"),
    ("core.job_ms.bkhs", "ms"),
    ("engine.rounds", "count"),
    ("engine.us_per_round", "us"),
    ("engine.messages_sent", "count"),
    ("engine.messages_delivered", "count"),
    ("engine.ns_per_message", "ns"),
    ("engine.shard_copy_bytes", "bytes"),
    ("engine.network_bytes", "bytes"),
    ("pager.loaded_bytes", "bytes"),
    ("pager.partition_loads", "count"),
    ("pager.partitions_skipped", "count"),
    ("pager.skip_frac", "frac"),
    ("pager.peak_resident_bytes", "bytes"),
    ("cluster.sim_s", "sim_s"),
    ("self_s.loadgen", "s"),
    ("self_s.graph", "s"),
    ("self_s.tune", "s"),
    ("self_s.serve", "s"),
    ("self_s.core", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name (units come from the tables above).
    pub values: BTreeMap<&'static str, f64>,
    /// Requests or jobs offered.
    pub attempted: u64,
    /// Offered requests or jobs that did not complete successfully.
    pub failed: u64,
    /// Output-check violations; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Per-layer metrics this workload cannot observe, with the reason.
    pub unobserved: Vec<(&'static str, &'static str)>,
    /// Summary windows the run's figures are averaged over.
    pub reps: usize,
    /// Interquartile spread of those repetitions, as a share of the median.
    pub rep_spread: f64,
    /// Wall time of the measured work, seconds (root span length).
    pub wall_s: f64,
}

impl Report {
    /// Set a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record an output-check violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Mark per-layer metrics as not observable on this workload.
    pub fn unobserved(&mut self, names: &[&'static str], why: &'static str) {
        self.unobserved.extend(names.iter().map(|&n| (n, why)));
    }
}

/// Set-ups per run: at least [`SETUP_MIN_REPS`], then more until
/// [`SETUP_BUDGET_S`] is spent; `setup_s` is their median.
pub const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 100;
const SETUP_BUDGET_S: f64 = 3.0;

/// Whether another set-up should run, given the set-up times so far.
pub fn more_setups(times_s: &[f64]) -> bool {
    times_s.len() < SETUP_MIN_REPS
        || (times_s.len() < SETUP_MAX_REPS && times_s.iter().sum::<f64>() < SETUP_BUDGET_S)
}

/// Workload names. `serve-open` is run by hand: it is not in
/// `BENCHMARK.json` (see `perfbench/README.md`).
const WORKLOADS: [&str; 3] = ["serve-open", "serve-closed", "offline-paged"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match trace.ok_or("missing --trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

fn run_workload(args: &Args, tracer: &mut Tracer) -> Report {
    match args.workload.as_str() {
        "serve-open" => serve::open(args.seed, args.seconds, tracer),
        "serve-closed" => serve::closed(args.seed, args.seconds, tracer),
        _ => offline::paged(args.seed, args.seconds, tracer),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (mut report, table): (Report, &[(&str, &str)]) = if args.trace {
        // Two passes of half the measuring time each: the untraced one is
        // the baseline the tracing overhead is measured against, and its
        // outputs are checked too.
        let half = Args {
            seconds: args.seconds.div_ceil(2),
            workload: args.workload.clone(),
            ..args
        };
        let base = run_workload(&half, &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let mut traced = run_workload(&half, &mut tracer);
        traced.violations.extend(base.violations);
        // Every workload opens its root span first.
        let analysis = tracer.analyse(Some(0));
        for (layer, key) in [
            ("loadgen", "self_s.loadgen"),
            ("graph", "self_s.graph"),
            ("tune", "self_s.tune"),
            ("serve", "self_s.serve"),
            ("core", "self_s.core"),
        ] {
            traced.set(key, analysis.self_s.get(layer).copied().unwrap_or(0.0));
        }
        traced.set("trace.unattributed_s", analysis.unattributed_s);
        let (b, t) = (base.values["p50_ms"], traced.values["p50_ms"]);
        traced.set("trace.overhead_p50_ms", t - b);
        traced.set(
            "trace.overhead_frac",
            if b > 0.0 { (t - b) / b } else { 0.0 },
        );
        let path = PathBuf::from(".perfbench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", analysis.spans, path.display()),
            Err(e) => traced
                .violations
                .push(format!("writing {}: {e}", path.display())),
        }
        (traced, &PER_LAYER)
    } else {
        (run_workload(&args, &mut Tracer::new(false)), &END_TO_END)
    };

    println!(
        "host: nproc={nproc} workload={} seed={} seconds={} trace={} reps={} rep_spread={:.4} \
         wall_s={:.3}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.reps,
        report.rep_spread,
        report.wall_s
    );
    let mut metrics = Vec::new();
    let mut correct = report.violations.is_empty();
    for &(name, unit) in table {
        let value = report.values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            correct = false;
            report.violations.push(format!("{name} is not finite"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<36} {value:>18.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if args.trace {
        for (name, why) in &report.unobserved {
            println!("not measured: {name} ({why}); printed as 0");
        }
    }
    for v in &report.violations {
        println!("CHECK FAILED: {v}");
        eprintln!("perfbench: check failed: {v}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
