//! End-to-end round-loop microbenchmark: compute + route per round on
//! the engine's routing pipeline (fold-at-send combining + grouped
//! delivery), on MSSP and BPPR with combining on and off.
//!
//! Single-threaded by design — the numbers measure the envelope path,
//! not thread scaling. `--test` runs every routine once for CI smoke.

use criterion::{criterion_group, criterion_main, Criterion};
use mtvc_bench::round_loop::{drive_current, drive_slab_recycled};
use mtvc_engine::{LocalIndex, SlabRecycler};
use mtvc_graph::partition::{HashPartitioner, Partitioner};
use mtvc_graph::{generators, VertexId};
use mtvc_tasks::bppr::{BpprProgram, SourceSet};
use mtvc_tasks::mssp::{MsspProgram, MsspSlabProgram};
use std::hint::black_box;

const VERTICES: usize = 20_000;
const EDGES: usize = 80_000;
const WORKERS: usize = 4;
const SEED: u64 = 0x9E3;

fn bench_round_loop(c: &mut Criterion) {
    let g = generators::power_law(VERTICES, EDGES, 2.3, 42);
    let part = HashPartitioner::default().partition(&g, WORKERS);
    let locals = LocalIndex::build(&part);

    let mssp = MsspProgram::new(
        (0..16u32)
            .map(|q| (q * 997) % VERTICES as VertexId)
            .collect(),
    );
    let bppr_sources: Vec<VertexId> = (0..256u32)
        .map(|s| (s * 613) % VERTICES as VertexId)
        .collect();
    let bppr = BpprProgram::new(8, 0.2).with_sources(SourceSet::subset(bppr_sources));

    for combine in [false, true] {
        let tag = if combine { "combine" } else { "nocombine" };
        c.bench_function(&format!("round_loop_mssp_{tag}"), |b| {
            b.iter(|| {
                black_box(drive_current(
                    &mssp,
                    &g,
                    &part,
                    &locals,
                    combine,
                    SEED,
                    |_| {},
                ))
            })
        });
        c.bench_function(&format!("round_loop_bppr_{tag}"), |b| {
            b.iter(|| {
                black_box(drive_current(
                    &bppr,
                    &g,
                    &part,
                    &locals,
                    combine,
                    SEED,
                    |_| {},
                ))
            })
        });
    }
}

/// State-layout cells (PR 5): dense slab rows vs hash-map state on the
/// same hot path, swept over the batch width. Combiner off so the
/// receiver's state phase — the thing the layouts differ in — is the
/// bottleneck; `bench_pr5` (a bin in this crate) runs the same cells
/// under a counting allocator and emits `BENCH_pr5.json`.
fn bench_state_slab(c: &mut Criterion) {
    let g = generators::power_law(VERTICES, EDGES, 2.3, 42);
    let part = HashPartitioner::default().partition(&g, WORKERS);
    let locals = LocalIndex::build(&part);

    for width in [1usize, 8, 64] {
        let sources: Vec<VertexId> = (0..width as u32)
            .map(|q| (q * 997) % VERTICES as VertexId)
            .collect();
        let hashmap = MsspProgram::new(sources.clone());
        let slab = MsspSlabProgram::new(sources);
        let recycler: SlabRecycler<u64> = SlabRecycler::new();
        c.bench_function(&format!("state_slab_mssp_slab_w{width}"), |b| {
            b.iter(|| {
                black_box(drive_slab_recycled(
                    &slab,
                    &recycler,
                    &g,
                    &part,
                    &locals,
                    false,
                    SEED,
                    |_| {},
                ))
            })
        });
        c.bench_function(&format!("state_slab_mssp_hashmap_w{width}"), |b| {
            b.iter(|| {
                black_box(drive_current(
                    &hashmap,
                    &g,
                    &part,
                    &locals,
                    false,
                    SEED,
                    |_| {},
                ))
            })
        });
    }
}

criterion_group!(benches, bench_round_loop, bench_state_slab);
criterion_main!(benches);
