//! The two serving workloads: `serve-open` (open-loop Poisson arrivals
//! below the knee) and `serve-closed` (a closed loop holding a fixed
//! window of requests outstanding). Both replay a seeded `mtvc-loadgen`
//! trace through `TaskService`, keep every `Ticket`, and close the books
//! per SLO class.

use crate::stats::{mean, median, quantile, spread};
use crate::trace::{SpanId, Tracer};
use crate::{more_setups, Report};
use mtvc_cluster::ClusterSpec;
use mtvc_core::Task;
use mtvc_graph::{generators, Dataset, Graph};
use mtvc_loadgen::{generate, ClassMix, Scenario, Trace};
use mtvc_serve::{
    Completion, RequestOutcome, SchedulerPolicy, ServiceConfig, ServiceReport, SloClass,
    SubmitError, TaskService, Ticket,
};
use mtvc_systems::SystemKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the service's own training probes (configuration, not input).
const SERVICE_SEED: u64 = 0x6E55;
/// `serve-open` arrival rate, requests per second.
const OPEN_RATE: f64 = 800.0;
/// Served requests per summary window: 10 of them lie beyond its p99.
const WINDOW: usize = 1000;
/// `serve-closed` requests kept outstanding.
const CLOSED_WINDOW: usize = 32;
/// `serve-closed` completion poll interval.
const CLOSED_POLL: Duration = Duration::from_micros(200);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// MSSP/BPPR/BKHS requests of 1–8 units over Zipf tenants.
fn task_mix(scenario: Scenario) -> Scenario {
    scenario
        .with_zipf_exponent(1.1)
        .with_shape(Task::mssp(1), 2.0, 1..=4)
        .with_shape(Task::bppr(1), 1.5, 2..=8)
        .with_shape(Task::bkhs(1), 0.5, 1..=2)
}

fn service_config(cluster: ClusterSpec) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(SystemKind::PregelPlus, cluster)
        .with_workers(1)
        .with_quantum(16)
        .with_queue_capacity(512)
        .with_seed(SERVICE_SEED)
        .with_scheduler(SchedulerPolicy::SloAware)
        .with_shape(Task::mssp(1))
        .with_shape(Task::bppr(1))
        .with_shape(Task::bkhs(1));
    cfg.training_workload = 64;
    cfg
}

/// Generate the graph and start the service repeatedly (see
/// [`more_setups`]), keeping the last service; records `setup_s` and its
/// two parts.
fn set_up(
    rep: &mut Report,
    tracer: &mut Tracer,
    root: Option<SpanId>,
    graph: fn() -> Graph,
    cluster: ClusterSpec,
) -> TaskService {
    let (mut gen_s, mut start_s, mut total_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    while more_setups(&total_s) {
        let t0 = Instant::now();
        let g = Arc::new(graph());
        let t1 = Instant::now();
        let svc = TaskService::start(g, service_config(cluster.clone()))
            .expect("the benchmark's service configuration starts");
        let t2 = Instant::now();
        tracer.span("graph.generate", root, None, t0, t1);
        tracer.span("serve.start", root, None, t1, t2);
        gen_s.push((t1 - t0).as_secs_f64());
        start_s.push((t2 - t1).as_secs_f64());
        total_s.push((t2 - t0).as_secs_f64());
        if let Some(old) = kept.replace(svc) {
            shut_down(old, tracer, root);
        }
    }
    rep.set("setup_s", median(&total_s));
    rep.set("graph.generate_s", median(&gen_s));
    rep.set("tune.start_s", median(&start_s));
    kept.expect("at least one set-up")
}

fn shut_down(svc: TaskService, tracer: &mut Tracer, root: Option<SpanId>) -> ServiceReport {
    let t = Instant::now();
    let report = svc.shutdown();
    tracer.span("serve.shutdown", root, None, t, Instant::now());
    report
}

/// One submitted request awaiting its completion.
struct Pending {
    /// Event index in the trace.
    event: usize,
    /// When the request was due (open loop) or submitted (closed loop).
    due: Instant,
    /// When the benchmark called `try_submit`.
    submit: Instant,
    ticket: Ticket,
}

/// One served request, times in milliseconds.
struct Served {
    /// Due time (open loop) or the instant the driver saw the completion
    /// (closed loop): what summary windows group by.
    key: Instant,
    latency: f64,
    queue_wait: f64,
    after_dispatch: f64,
    units: u64,
}

/// Submitter-side and completion-side counts per SLO class, and the
/// served requests.
#[derive(Default)]
struct Tally {
    /// The run's root span.
    root: Option<SpanId>,
    offered: [u64; 3],
    shed: [u64; 3],
    refused: [u64; 3],
    served: [u64; 3],
    deadline: [u64; 3],
    rejected: [u64; 3],
    failed: [u64; 3],
    unresolved: u64,
    /// Served within the request's deadline (or with none).
    good: u64,
    done: Vec<Served>,
    last_done: Option<Instant>,
}

impl Tally {
    /// Submit trace event `event`; returns the pending request when the
    /// service accepts it.
    fn offer(
        &mut self,
        svc: &TaskService,
        trace: &Trace,
        event: usize,
        due: Instant,
        tracer: &mut Tracer,
    ) -> Option<Pending> {
        let e = &trace.events[event];
        let k = e.class.index();
        self.offered[k] += 1;
        let submit = Instant::now();
        let res = svc.try_submit(e.request());
        let id = res.as_ref().ok().map(|t| t.id().0);
        tracer.span("loadgen.submit", self.root, id, submit, Instant::now());
        match res {
            Ok(ticket) => Some(Pending {
                event,
                due,
                submit,
                ticket,
            }),
            Err(SubmitError::Full) => {
                self.shed[k] += 1;
                None
            }
            Err(_) => {
                self.refused[k] += 1;
                None
            }
        }
    }

    /// Fold one completion in, and trace it.
    fn settle(
        &mut self,
        p: &Pending,
        c: &Completion,
        key: Instant,
        trace: &Trace,
        rep: &mut Report,
        tracer: &mut Tracer,
    ) {
        let event = &trace.events[p.event];
        let k = event.class.index();
        rep.check(c.id == p.ticket.id() && c.class == event.class, || {
            format!(
                "ticket {} ({}) resolved as {} ({})",
                p.ticket.id(),
                event.class,
                c.id,
                c.class
            )
        });
        // Execution wall time comes from the completion (latency minus
        // queue wait), never from `ServiceReport::service_time`, which
        // holds simulated milliseconds.
        let dispatched = p.submit + c.queue_wait;
        let done = p.submit + c.latency;
        let latency = done.saturating_duration_since(p.due);
        match c.outcome {
            RequestOutcome::Served { .. } => {
                self.served[k] += 1;
                self.good += u64::from(event.deadline.is_none_or(|d| latency <= d));
                self.done.push(Served {
                    key,
                    latency: ms(latency),
                    queue_wait: ms(c.queue_wait),
                    after_dispatch: ms(done - dispatched),
                    units: event.task.workload(),
                });
            }
            RequestOutcome::Deadline => self.deadline[k] += 1,
            RequestOutcome::Rejected => self.rejected[k] += 1,
            RequestOutcome::Failed { .. } => self.failed[k] += 1,
        }
        self.last_done = self.last_done.max(Some(done));
        if tracer.is_on() {
            let id = Some(c.id.0);
            let req = tracer.span("serve.request", self.root, id, p.submit, done);
            tracer.span("serve.queue", req, id, p.submit, dispatched);
            tracer.span("serve.after_dispatch", req, id, dispatched, done);
        }
    }

    /// Check the books against the service's report and the trace, then
    /// record the metrics both serving workloads share.
    fn close(
        &self,
        report: &ServiceReport,
        trace: &Trace,
        scenario: &Scenario,
        seed: u64,
        rep: &mut Report,
    ) {
        rep.check(
            generate(scenario, seed).fingerprint() == trace.fingerprint(),
            || format!("trace fingerprint does not regenerate from seed {seed}"),
        );
        rep.check(self.unresolved == 0, || {
            format!("{} tickets never resolved", self.unresolved)
        });
        println!("books: class offered = shed + served + deadline + rejected + failed; refused");
        let names = [
            [
                "serve.shed.interactive",
                "serve.shed.standard",
                "serve.shed.batch",
            ],
            [
                "serve.deadline.interactive",
                "serve.deadline.standard",
                "serve.deadline.batch",
            ],
            [
                "serve.rejected.interactive",
                "serve.rejected.standard",
                "serve.rejected.batch",
            ],
            [
                "serve.failed.interactive",
                "serve.failed.standard",
                "serve.failed.batch",
            ],
        ];
        for class in SloClass::ALL {
            let k = class.index();
            let row = [
                self.offered[k],
                self.shed[k],
                self.served[k],
                self.deadline[k],
                self.rejected[k],
                self.failed[k],
                self.refused[k],
            ];
            let line = format!(
                "{:<11} {} = {} + {} + {} + {} + {}; {}",
                class.label(),
                row[0],
                row[1],
                row[2],
                row[3],
                row[4],
                row[5],
                row[6]
            );
            println!("books: {line}");
            rep.check(
                row[0] == row[1..6].iter().sum::<u64>() && row[6] == 0,
                || format!("books do not close: {line}"),
            );
            let cr = report.class(class);
            rep.check(
                [cr.served, cr.deadline, cr.rejected, cr.failed] == row[2..6],
                || format!("{class}: service report disagrees with the tickets"),
            );
            for (names, value) in names.iter().zip([row[1], row[3], row[4], row[5]]) {
                rep.set(names[k], value as f64);
            }
        }
        let offered: u64 = self.offered.iter().sum();
        rep.check(offered > 0, || "nothing offered".into());
        rep.check(report.total_loaded_bytes.get() == 0, || {
            format!(
                "the serve path paged {} on Pregel+",
                report.total_loaded_bytes
            )
        });
        rep.attempted = offered;
        rep.failed = offered - self.served.iter().sum::<u64>();
        rep.set("goodput_frac", self.good as f64 / offered.max(1) as f64);
        rep.set("failed_frac", rep.failed as f64 / offered.max(1) as f64);
        let column = |f: fn(&Served) -> f64| self.done.iter().map(f).collect::<Vec<f64>>();
        let queue = column(|s| s.queue_wait);
        let after = column(|s| s.after_dispatch);
        rep.set("serve.queue_wait_p50_ms", quantile(&queue, 0.50));
        rep.set("serve.queue_wait_p99_ms", quantile(&queue, 0.99));
        rep.set("serve.after_dispatch_p50_ms", quantile(&after, 0.50));
        rep.set("serve.after_dispatch_p99_ms", quantile(&after, 0.99));
        rep.set(
            "serve.queue_depth_twa",
            report.queue_depth_series.time_weighted_mean(),
        );
        rep.set(
            "serve.controller.narrowed",
            report.controller.narrowed as f64,
        );
        rep.set("serve.controller.widened", report.controller.widened as f64);
        rep.set(
            "serve.controller.deadline_capped",
            report.controller.deadline_capped as f64,
        );
        rep.set("serve.batches", report.batches as f64);
        rep.set("serve.batch_units_mean", report.batch_workload.mean());
        rep.set("pager.loaded_bytes", report.total_loaded_bytes.get() as f64);
        // Simulated cluster seconds, not wall time.
        rep.set("cluster.sim_s", report.total_sim_time.as_secs());
        rep.unobserved(
            &[
                "engine.rounds",
                "engine.us_per_round",
                "engine.messages_sent",
                "engine.messages_delivered",
                "engine.ns_per_message",
                "engine.shard_copy_bytes",
                "engine.network_bytes",
            ],
            "engine counters are not visible through TaskService's public API",
        );
        rep.unobserved(
            &["core.job_ms.mssp", "core.job_ms.bkhs", "self_s.core"],
            "the serve path runs no run_job",
        );
        rep.unobserved(
            &[
                "pager.partition_loads",
                "pager.partitions_skipped",
                "pager.skip_frac",
                "pager.peak_resident_bytes",
            ],
            "Pregel+ does not page; of the pager counters only loaded bytes is visible",
        );
    }
}

/// Latency and throughput as means over summary windows of [`WINDOW`]
/// served requests, in key order: each window's quantile or rate, then
/// the mean across windows. The host's speed switches between levels for
/// stretches of seconds; a median across windows would jump to whichever
/// level held most of the run, where a mean moves with the share of the
/// run each level held. A window lasts from the
/// previous window's last key (or `start`) to its own. Returns each
/// window's time per [`WINDOW`] requests (windows hold at least
/// [`WINDOW`] and fewer than twice as many).
fn summarise(done: &[Served], start: Instant, rep: &mut Report) -> Vec<f64> {
    let n = (done.len() / WINDOW).max(1);
    let size = done.len() / n;
    let mut windows: Vec<(&[Served], f64)> = Vec::new();
    let mut from = start;
    for w in 0..n {
        let chunk = if w + 1 == n {
            &done[w * size..]
        } else {
            &done[w * size..(w + 1) * size]
        };
        let to = chunk.last().map_or(from, |s| s.key);
        windows.push((chunk, (to - from).as_secs_f64().max(f64::MIN_POSITIVE)));
        from = to;
    }
    let per = |f: &dyn Fn(&[Served], f64) -> f64| -> Vec<f64> {
        windows.iter().map(|&(w, secs)| f(w, secs)).collect()
    };
    let latency =
        |w: &[Served], q: f64| quantile(&w.iter().map(|s| s.latency).collect::<Vec<f64>>(), q);
    let p50s = per(&|w, _| latency(w, 0.50));
    rep.set("p50_ms", mean(&p50s));
    rep.set("p99_ms", mean(&per(&|w, _| latency(w, 0.99))));
    rep.set("served_rps", mean(&per(&|w, secs| w.len() as f64 / secs)));
    rep.set(
        "units_per_s",
        mean(&per(&|w, secs| {
            w.iter().map(|s| s.units).sum::<u64>() as f64 / secs
        })),
    );
    rep.reps = windows.len();
    rep.rep_spread = spread(&p50s);
    per(&|w, secs| secs * WINDOW as f64 / w.len().max(1) as f64)
}

/// `serve-open`: Poisson arrivals at [`OPEN_RATE`], three SLO classes,
/// on the 300-vertex power-law graph. Each request is timed from the
/// instant it was due, so a stalled generator shows as latency.
pub fn open(seed: u64, seconds: u64, tracer: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let root = tracer.open("run", None);
    let run_start = Instant::now();
    let svc = set_up(
        &mut rep,
        tracer,
        root,
        || generators::power_law(300, 1400, 2.4, 11),
        ClusterSpec::galaxy(4),
    );
    let scenario = task_mix(Scenario::new(
        "serve-open",
        400,
        OPEN_RATE,
        Duration::from_secs(seconds),
    ))
    .with_classes(ClassMix {
        weights: [0.15, 0.55, 0.3],
        deadlines: [
            Some(Duration::from_millis(100)),
            Some(Duration::from_secs(1)),
            None,
        ],
    });
    let trace = generate(&scenario, seed);
    rep.check(!trace.is_empty(), || "empty trace".into());

    let mut tally = Tally {
        root,
        ..Tally::default()
    };
    let mut pending = Vec::with_capacity(trace.len());
    let mut lags = Vec::with_capacity(trace.len());
    let start = Instant::now();
    for (event, e) in trace.events.iter().enumerate() {
        let due = start + e.at;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lags.push(ms(Instant::now().saturating_duration_since(due)));
        pending.extend(tally.offer(&svc, &trace, event, due, tracer));
    }
    let report = shut_down(svc, tracer, root);
    for p in &pending {
        match p.ticket.try_get() {
            Some(c) => tally.settle(p, &c, p.due, &trace, &mut rep, tracer),
            None => tally.unresolved += 1,
        }
    }
    tally.close(&report, &trace, &scenario, seed, &mut rep);
    rep.set("loadgen.lag_p99_ms", quantile(&lags, 0.99));
    rep.set(
        "job_s",
        tally
            .last_done
            .map_or(0.0, |t| t.saturating_duration_since(start).as_secs_f64()),
    );

    summarise(&tally.done, start, &mut rep);
    tracer.close(root);
    rep.wall_s = run_start.elapsed().as_secs_f64();
    rep
}

/// `serve-closed`: one driver thread keeps [`CLOSED_WINDOW`] Batch-class
/// requests outstanding on the DBLP preset; capacity, not latency.
pub fn closed(seed: u64, seconds: u64, tracer: &mut Tracer) -> Report {
    const SIGMA: u64 = 256;
    let mut rep = Report::default();
    let root = tracer.open("run", None);
    let run_start = Instant::now();
    let svc = set_up(
        &mut rep,
        tracer,
        root,
        || Dataset::Dblp.generate(SIGMA),
        ClusterSpec::galaxy8().scaled(SIGMA as f64),
    );
    // Arrival times are ignored: the trace is a seeded request stream,
    // several times longer than today's capacity needs, cycled if spent.
    let scenario = task_mix(Scenario::new(
        "serve-closed",
        400,
        2000.0,
        Duration::from_secs(seconds),
    ))
    .with_classes(ClassMix {
        weights: [0.0, 0.0, 1.0],
        deadlines: [None, None, None],
    });
    let trace = generate(&scenario, seed);
    rep.check(!trace.is_empty(), || "empty request stream".into());

    let mut tally = Tally {
        root,
        ..Tally::default()
    };
    let mut outstanding: Vec<Pending> = Vec::with_capacity(CLOSED_WINDOW);
    let mut offered = 0usize;
    let start = Instant::now();
    let stop = start + Duration::from_secs(seconds);
    loop {
        if Instant::now() < stop {
            while outstanding.len() < CLOSED_WINDOW {
                let event = offered % trace.len();
                offered += 1;
                let now = Instant::now();
                outstanding.extend(tally.offer(&svc, &trace, event, now, tracer));
            }
        }
        if outstanding.is_empty() {
            break;
        }
        // Ticket offers no wait-for-any, so the driver polls: every
        // completion is replaced within one poll interval, keeping the
        // window full whatever order requests finish in.
        let before = outstanding.len();
        outstanding.retain(|p| match p.ticket.try_get() {
            Some(c) => {
                tally.settle(p, &c, Instant::now(), &trace, &mut rep, tracer);
                false
            }
            None => true,
        });
        if outstanding.len() == before {
            std::thread::sleep(CLOSED_POLL);
        }
    }
    let report = shut_down(svc, tracer, root);
    tally.close(&report, &trace, &scenario, seed, &mut rep);

    let per_window = summarise(&tally.done, start, &mut rep);
    rep.set("job_s", mean(&per_window));
    rep.unobserved(&["loadgen.lag_p99_ms"], "a closed loop has no due times");
    tracer.close(root);
    rep.wall_s = run_start.elapsed().as_secs_f64();
    rep
}
