//! Perf snapshot of the lane-batched BKHS/BPPR kernels on the
//! fold-at-send routing pipeline. Emits `BENCH_pr8.json` in the working
//! directory.
//!
//! Three cell families, same graph/partition setup as `bench_pr5`/`pr7`:
//!
//! * `bkhs_{scalar,lane}_w{W}` — [`BkhsSlabProgram`] vs
//!   [`BkhsLaneSlabProgram`] (one envelope absorbs eight query lanes'
//!   hop sets), W ∈ {8, 64}, combiner on. Same wire format both sides,
//!   so the timing delta isolates lane batching; rounds and
//!   `sent_wire` are pinned equal.
//! * `bppr_push_{scalar,lane}_w64` — [`BpprPushSlabProgram`] vs
//!   [`BpprPushLaneSlabProgram`] (one broadcast forwards eight query
//!   lanes' residues), combiner on, pinned the same way.
//! * `mssp_presharded_combine_w16` — the recycled-slab MSSP combining
//!   workload. Its steady-state allocation must stay at the 0 B/round
//!   the slab + recycled-buffer stack established.
//!
//! Timing/allocation mechanics are the shared [`mtvc_bench::measure`]
//! harness (interleaved best-of-reps, counting global allocator).
//!
//! `PR8_SMOKE=1` shrinks the graph and rep count for CI: all asserts
//! still run end to end, the timings are not meaningful.

use mtvc_bench::measure::{measure_interleaved, measure_rounds, CountingAlloc};
use mtvc_bench::round_loop::{drive_core, RouteReport};
use mtvc_engine::{LocalIndex, PerSlab, SlabProgram, SlabRecycler, WireFormat};
use mtvc_graph::partition::Partition;
use mtvc_graph::partition::{HashPartitioner, Partitioner};
use mtvc_graph::{generators, Graph, VertexId};
use mtvc_tasks::bppr::SourceSet;
use mtvc_tasks::{
    BkhsLaneSlabProgram, BkhsSlabProgram, BpprPushLaneSlabProgram, BpprPushSlabProgram,
    MsspSlabProgram,
};
use std::io::Write;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WORKERS: usize = 4;
const SEED: u64 = 0x9E3;
/// Hop bound for the BKHS cells.
const BKHS_K: u32 = 8;
/// Batch widths swept on BKHS (queries per batch).
const BKHS_WIDTHS: [usize; 2] = [8, 64];

struct Params {
    vertices: usize,
    edges: usize,
    /// Timed repetitions per cell (single-threaded full runs).
    reps: usize,
}

impl Params {
    fn from_env() -> Params {
        if std::env::var("PR8_SMOKE").is_ok_and(|v| v == "1") {
            Params {
                vertices: 4_000,
                edges: 16_000,
                reps: 1,
            }
        } else {
            Params {
                vertices: 20_000,
                edges: 80_000,
                reps: 5,
            }
        }
    }
}

struct CellResult {
    report: RouteReport,
    rounds_per_sec: f64,
}

fn measure_all(reps: usize, drivers: &[&dyn Fn() -> RouteReport]) -> Vec<CellResult> {
    measure_interleaved(reps, drivers)
        .into_iter()
        .map(|(report, best)| CellResult {
            report,
            rounds_per_sec: report.report.rounds as f64 / best,
        })
        .collect()
}

fn run_slab<P: SlabProgram>(
    program: &P,
    g: &Graph,
    part: &Partition,
    locals: &LocalIndex,
    combine: bool,
) -> RouteReport {
    drive_core(
        &PerSlab::new(program),
        g,
        part,
        locals,
        combine,
        WireFormat::Tuples,
        SEED,
        |_| {},
    )
}

fn json_cell(name: &str, r: &RouteReport, rounds_per_sec: f64) -> String {
    format!(
        "    \"{name}\": {{\"rounds\": {}, \"sent_wire\": {}, \"delivered_tuples\": {}, \
         \"rounds_per_sec\": {rounds_per_sec:.2}, \"shard_copy_bytes\": {}}}",
        r.report.rounds, r.report.sent_wire, r.report.delivered_tuples, r.shard_copy_bytes,
    )
}

/// Pin a lane cell to its scalar sibling: lane batching conserves
/// rounds and pre-fold wire units exactly.
fn assert_lane_parity(name: &str, scalar: &CellResult, lane: &CellResult) {
    assert_eq!(
        lane.report.report.rounds, scalar.report.report.rounds,
        "{name} round parity"
    );
    assert_eq!(
        lane.report.report.sent_wire, scalar.report.report.sent_wire,
        "{name} wire parity"
    );
}

fn main() {
    let params = Params::from_env();
    let g = generators::power_law(params.vertices, params.edges, 2.3, 42);
    let part = HashPartitioner::default().partition(&g, WORKERS);
    let locals = LocalIndex::build(&part);

    let mut cells: Vec<String> = Vec::new();
    let mut summary: Vec<String> = Vec::new();

    // BKHS: scalar vs lane hop-set absorption.
    for width in BKHS_WIDTHS {
        let sources: Vec<VertexId> = (0..width as u32)
            .map(|q| (q * 997) % params.vertices as VertexId)
            .collect();
        let scalar_prog = BkhsSlabProgram::new(sources.clone(), BKHS_K);
        let lane_prog = BkhsLaneSlabProgram::new(sources, BKHS_K);
        let scalar_d = || run_slab(&scalar_prog, &g, &part, &locals, true);
        let lane_d = || run_slab(&lane_prog, &g, &part, &locals, true);
        let mut results = measure_all(params.reps, &[&scalar_d, &lane_d]);
        let lane = results.pop().expect("lane");
        let scalar = results.pop().expect("scalar");
        assert_lane_parity(&format!("bkhs w{width}"), &scalar, &lane);
        let speedup = lane.rounds_per_sec / scalar.rounds_per_sec;
        println!(
            "bkhs_w{width}: lane {:.1} rounds/s vs scalar {:.1} rounds/s ({speedup:.2}x)",
            lane.rounds_per_sec, scalar.rounds_per_sec
        );
        cells.push(json_cell(
            &format!("bkhs_scalar_w{width}"),
            &scalar.report,
            scalar.rounds_per_sec,
        ));
        cells.push(json_cell(
            &format!("bkhs_lane_w{width}"),
            &lane.report,
            lane.rounds_per_sec,
        ));
        summary.push(format!("  \"lane_bkhs_speedup_w{width}\": {speedup:.3}"));
    }

    // BPPR forward push: scalar vs lane residue forwarding, W=64.
    {
        let sources: Vec<VertexId> = (0..64u32)
            .map(|s| (s * 613) % params.vertices as VertexId)
            .collect();
        let scalar_prog = BpprPushSlabProgram::new(64, 0.2, g.num_vertices())
            .with_sources(SourceSet::subset(sources.clone()));
        let lane_prog = BpprPushLaneSlabProgram::new(64, 0.2, g.num_vertices())
            .with_sources(SourceSet::subset(sources));
        let scalar_d = || run_slab(&scalar_prog, &g, &part, &locals, true);
        let lane_d = || run_slab(&lane_prog, &g, &part, &locals, true);
        let mut results = measure_all(params.reps, &[&scalar_d, &lane_d]);
        let lane = results.pop().expect("lane");
        let scalar = results.pop().expect("scalar");
        assert_lane_parity("bppr push w64", &scalar, &lane);
        let speedup = lane.rounds_per_sec / scalar.rounds_per_sec;
        println!(
            "bppr_push_w64: lane {:.1} rounds/s vs scalar {:.1} rounds/s ({speedup:.2}x)",
            lane.rounds_per_sec, scalar.rounds_per_sec
        );
        cells.push(json_cell(
            "bppr_push_scalar_w64",
            &scalar.report,
            scalar.rounds_per_sec,
        ));
        cells.push(json_cell(
            "bppr_push_lane_w64",
            &lane.report,
            lane.rounds_per_sec,
        ));
        summary.push(format!("  \"lane_bppr_speedup_w64\": {speedup:.3}"));
    }

    // MSSP combining on recycled slabs: the production steady state,
    // which must allocate nothing per round.
    {
        let sources: Vec<VertexId> = (0..16u32)
            .map(|q| (q * 997) % params.vertices as VertexId)
            .collect();
        let prog = MsspSlabProgram::new(sources);
        let recycler: SlabRecycler<u64> = SlabRecycler::new();
        let core = PerSlab::with_recycler(&prog, &recycler);
        let pre = measure_rounds(params.reps, |hook| {
            drive_core(
                &core,
                &g,
                &part,
                &locals,
                true,
                WireFormat::Tuples,
                SEED,
                hook,
            )
        });
        assert_eq!(
            pre.steady_bytes_per_round, 0,
            "presharded path must preserve 0 B steady-state rounds"
        );
        let pre_rps = pre.report.report.rounds as f64 / pre.best_secs;
        println!(
            "mssp_combine_w16: presharded {pre_rps:.1} rounds/s, shard copies {}B, \
             steady alloc/round {} bytes",
            pre.report.shard_copy_bytes, pre.steady_bytes_per_round,
        );
        cells.push(json_cell(
            "mssp_presharded_combine_w16",
            &pre.report,
            pre_rps,
        ));
        summary.push(format!(
            "  \"presharded_steady_bytes_per_round\": {}",
            pre.steady_bytes_per_round
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"pr8_presharded_lanes\",\n  \"graph\": {{\"vertices\": {}, \
         \"edges\": {}, \"workers\": {WORKERS}}},\n  \"reps\": {},\n{},\n  \
         \"cells\": {{\n{}\n  }}\n}}\n",
        params.vertices,
        params.edges,
        params.reps,
        summary.join(",\n"),
        cells.join(",\n")
    );
    let mut f = std::fs::File::create("BENCH_pr8.json").expect("create BENCH_pr8.json");
    f.write_all(json.as_bytes()).expect("write BENCH_pr8.json");
    println!("-> BENCH_pr8.json");
}
