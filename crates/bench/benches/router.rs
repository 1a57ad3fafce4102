//! Routing-pipeline microbenchmark: serial reference `route` vs the
//! presharded [`RouteGrid`] on a persistent [`WorkerPool`], with and
//! without combining.
//!
//! Traffic is one synthetic "congestion round" over a 100k-vertex
//! power-law graph on 4 workers: every vertex sends to each of its
//! out-neighbors (keyed by source, so combining has real work to do).
//! The grid variant replays the traffic through its emit sinks
//! (`begin_round` → `emit_sinks` → `route_presharded`, as the compute
//! phase would emit it) and reuses its shard/scratch buffers across
//! iterations, exactly as `Runner::run` does across rounds, so the
//! numbers include the zero-churn benefit.
//!
//! The ≥2× shard/merge speedup needs ≥4 hardware cores; on fewer cores
//! the pooled variant measures pipeline overhead instead (lanes time-
//! slice a single core). `--test` runs every routine once for CI smoke.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mtvc_engine::{
    route, Envelope, Inbox, LocalIndex, Message, Outbox, RouteGrid, WireFormat, WorkerPool,
};
use mtvc_graph::partition::{HashPartitioner, Partition, Partitioner};
use mtvc_graph::{generators, Graph};
use std::hint::black_box;

const VERTICES: usize = 100_000;
const EDGES: usize = 400_000;
const WORKERS: usize = 4;
const MSG_BYTES: u64 = 16;

/// Distance-style payload: combines per source vertex.
#[derive(Clone, Debug)]
struct Hop {
    source: u32,
    dist: u32,
}

impl Message for Hop {
    fn combine_key(&self) -> Option<u64> {
        Some(self.source as u64)
    }
    fn merge(&mut self, other: &Self) {
        self.dist = self.dist.min(other.dist);
    }
}

/// One full congestion round of traffic: every vertex messages all its
/// out-neighbors, bucketed into its owner's outbox. Deterministic, so
/// every iteration routes identical traffic.
fn build_outboxes(g: &Graph, part: &Partition) -> Vec<Outbox<Hop>> {
    let mut outboxes: Vec<Outbox<Hop>> = (0..part.num_workers()).map(|_| Outbox::new()).collect();
    for v in g.vertices() {
        let ob = &mut outboxes[part.owner_of(v) as usize];
        for &t in g.neighbors(v) {
            ob.sends.push(Envelope::new(
                t,
                Hop {
                    source: v % 64, // 64 distinct keys per dest: combining collapses most envelopes
                    dist: v.wrapping_add(t),
                },
                1,
            ));
        }
    }
    outboxes
}

fn bench_router(c: &mut Criterion) {
    let g = generators::power_law(VERTICES, EDGES, 2.3, 42);
    let part = HashPartitioner::default().partition(&g, WORKERS);
    let locals = LocalIndex::build(&part);
    let outboxes = build_outboxes(&g, &part);
    let envelopes: usize = outboxes.iter().map(|o| o.sends.len()).sum();
    println!(
        "routing {envelopes} envelopes over {VERTICES} vertices, {WORKERS} workers \
         ({} hardware threads)",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    for combine in [false, true] {
        let tag = if combine { "combine" } else { "nocombine" };

        c.bench_function(&format!("route_serial_{tag}"), |b| {
            b.iter_batched(
                || outboxes.clone(),
                |obs| {
                    black_box(
                        route(
                            obs,
                            &g,
                            &part,
                            &locals,
                            None,
                            combine,
                            MSG_BYTES,
                            WireFormat::Tuples,
                        )
                        .1
                        .sent_wire,
                    )
                },
                BatchSize::LargeInput,
            )
        });

        let pool = WorkerPool::new(WORKERS);
        let mut grid: RouteGrid<Hop> = RouteGrid::new(WORKERS);
        let mut inboxes: Vec<Inbox<Hop>> = (0..WORKERS).map(|_| Inbox::new()).collect();
        c.bench_function(&format!("route_grid_pooled_{tag}"), |b| {
            b.iter_batched(
                || outboxes.clone(),
                |obs| {
                    inboxes.iter_mut().for_each(|i| i.clear());
                    grid.begin_round(combine, WireFormat::Tuples, &locals);
                    for (mut sink, mut ob) in grid
                        .emit_sinks(&g, &part, &locals, None, MSG_BYTES)
                        .zip(obs)
                    {
                        ob.drain_into(&mut sink);
                    }
                    let stats =
                        grid.route_presharded(Some(&pool), &mut inboxes, &locals, MSG_BYTES);
                    black_box(stats.sent_wire)
                },
                BatchSize::LargeInput,
            )
        });
    }
}

criterion_group!(benches, bench_router);
criterion_main!(benches);
