//! PR 7 perf snapshot: lane-batched SIMD relax kernels + the compact
//! wire format on the multi-task hot path. Sweeps the batch width
//! W ∈ {1, 8, 64} on MSSP over the same graph/partition setup as
//! `bench_pr5`, and emits `BENCH_pr7.json` in the working directory.
//!
//! Cells per width:
//!
//! * `mssp_scalar_nocombine_w{W}` / `mssp_scalar_combine_w{W}` — the
//!   PR 5 baseline configurations ([`MsspSlabProgram`], tuple wire)
//!   re-measured on the running host.
//! * `mssp_lane_combine_w{W}` — the headline cell:
//!   [`MsspLaneSlabProgram`] (one envelope relaxes eight query lanes),
//!   static sender-side combining (chunk keys fold ~3x better than
//!   scalar keys), and [`WireFormat::Compact`] (the router charges
//!   real post-codec bucket bytes).
//! * `mssp_lane_compact_w{W}` — lane kernels + compact wire with the
//!   combiner off, isolating the kernel/codec contribution.
//!
//! Every cell is pinned to its siblings on rounds and `sent_wire`
//! (lane batching and combining both conserve pre-fold payload units),
//! and every compact cell must measure strictly fewer encoded bytes
//! than the `payload_units * msg_bytes` estimate.
//!
//! `PR7_SMOKE=1` shrinks the graph and rep count for CI: all asserts
//! still run end to end, the timings are not meaningful.

use mtvc_bench::measure::measure_interleaved;
use mtvc_bench::round_loop::{drive_core, RouteReport};
use mtvc_engine::{LocalIndex, PerSlab, SlabProgram, WireFormat};
use mtvc_graph::partition::Partition;
use mtvc_graph::partition::{HashPartitioner, Partitioner};
use mtvc_graph::{generators, Graph, VertexId};
use mtvc_tasks::{MsspLaneSlabProgram, MsspSlabProgram};
use std::io::Write;

const WORKERS: usize = 4;
const SEED: u64 = 0x9E3;
/// Batch widths swept (queries per batch).
const WIDTHS: [usize; 3] = [1, 8, 64];
/// `BENCH_pr5.json` reference rounds/sec for the same 20k/80k W=64
/// workload (`mssp_slab_combine_w64` / `mssp_slab_nocombine_w64`),
/// recorded so the JSON carries the cross-PR speedup explicitly.
/// Host-load drift between the two recordings is not corrected for;
/// the same-run `simd_speedup_*` ratios are the noise-robust numbers.
const PR5_COMBINE_W64_RPS: f64 = 12.08;
const PR5_NOCOMBINE_W64_RPS: f64 = 19.65;

struct Params {
    vertices: usize,
    edges: usize,
    /// Timed repetitions per cell (single-threaded full runs).
    reps: usize,
}

impl Params {
    fn from_env() -> Params {
        if std::env::var("PR7_SMOKE").is_ok_and(|v| v == "1") {
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

/// Interleaved best-of-reps timing (see
/// [`mtvc_bench::measure::measure_interleaved`] for the sampling
/// rationale), mapped into rounds/sec cells.
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
    wire_format: WireFormat,
) -> RouteReport {
    drive_core(
        &PerSlab::new(program),
        g,
        part,
        locals,
        combine,
        wire_format,
        SEED,
        |_| {},
    )
}

fn json_cell(name: &str, r: &CellResult) -> String {
    format!(
        "    \"{name}\": {{\"rounds\": {}, \"sent_wire\": {}, \"delivered_tuples\": {}, \
         \"rounds_per_sec\": {:.2}, \"encoded_wire_bytes\": {}, \
         \"estimated_wire_bytes\": {}}}",
        r.report.report.rounds,
        r.report.report.sent_wire,
        r.report.report.delivered_tuples,
        r.rounds_per_sec,
        r.report.encoded_wire_bytes,
        r.report.estimated_wire_bytes,
    )
}

fn main() {
    let params = Params::from_env();
    let g = generators::power_law(params.vertices, params.edges, 2.3, 42);
    let part = HashPartitioner::default().partition(&g, WORKERS);
    let locals = LocalIndex::build(&part);

    let (tuples, compact) = (WireFormat::Tuples, WireFormat::Compact);

    let mut cells: Vec<String> = Vec::new();
    let mut summary: Vec<String> = Vec::new();
    for width in WIDTHS {
        let sources: Vec<VertexId> = (0..width as u32)
            .map(|q| (q * 997) % params.vertices as VertexId)
            .collect();
        let scalar_prog = MsspSlabProgram::new(sources.clone());
        let lane_prog = MsspLaneSlabProgram::new(sources);

        let scalar_d = || run_slab(&scalar_prog, &g, &part, &locals, false, tuples);
        let combine_d = || run_slab(&scalar_prog, &g, &part, &locals, true, tuples);
        let lane_combine_d = || run_slab(&lane_prog, &g, &part, &locals, true, compact);
        let lane_nc_d = || run_slab(&lane_prog, &g, &part, &locals, false, compact);
        let mut results = measure_all(
            params.reps,
            &[&scalar_d, &combine_d, &lane_combine_d, &lane_nc_d],
        );
        let lane_nc = results.pop().expect("lane_nc");
        let lane_combine = results.pop().expect("lane_combine");
        let combine_cell = results.pop().expect("combine");
        let scalar = results.pop().expect("scalar");

        // Lane batching and combining both conserve rounds and
        // pre-fold payload units exactly.
        for (name, cell) in [
            ("scalar_combine", &combine_cell),
            ("lane_combine", &lane_combine),
            ("lane_nocombine", &lane_nc),
        ] {
            assert_eq!(
                cell.report.report.rounds, scalar.report.report.rounds,
                "{name} round parity (W={width})"
            );
            assert_eq!(
                cell.report.report.sent_wire, scalar.report.report.sent_wire,
                "{name} wire parity (W={width})"
            );
        }
        // The codec must strictly undercut the size_of-style estimate.
        for (name, cell) in [
            ("lane_combine", &lane_combine),
            ("lane_nocombine", &lane_nc),
        ] {
            assert!(
                cell.report.encoded_wire_bytes < cell.report.estimated_wire_bytes,
                "compact encoding must shrink bytes ({name}, W={width}): {} vs {}",
                cell.report.encoded_wire_bytes,
                cell.report.estimated_wire_bytes
            );
        }

        let simd_speedup = lane_combine.rounds_per_sec / combine_cell.rounds_per_sec;
        let reduction = 1.0
            - lane_combine.report.encoded_wire_bytes as f64
                / lane_combine.report.estimated_wire_bytes as f64;
        println!(
            "w{width}: lane+combine+compact {:.1} r/s vs scalar combine {:.1} r/s \
             ({simd_speedup:.2}x; scalar nocombine {:.1}, lane nocombine {:.1}), \
             encoded {}B vs estimated {}B (-{:.0}%)",
            lane_combine.rounds_per_sec,
            combine_cell.rounds_per_sec,
            scalar.rounds_per_sec,
            lane_nc.rounds_per_sec,
            lane_combine.report.encoded_wire_bytes,
            lane_combine.report.estimated_wire_bytes,
            reduction * 100.0,
        );
        cells.push(json_cell(
            &format!("mssp_scalar_nocombine_w{width}"),
            &scalar,
        ));
        cells.push(json_cell(
            &format!("mssp_scalar_combine_w{width}"),
            &combine_cell,
        ));
        cells.push(json_cell(
            &format!("mssp_lane_combine_w{width}"),
            &lane_combine,
        ));
        cells.push(json_cell(&format!("mssp_lane_compact_w{width}"), &lane_nc));
        summary.push(format!("  \"simd_speedup_w{width}\": {simd_speedup:.3}"));
        summary.push(format!("  \"encoded_reduction_w{width}\": {reduction:.3}"));
        // The smoke graph is a different workload; the pr5 reference
        // only applies to the full 20k/80k sweep.
        if width == 64 && params.vertices == 20_000 {
            summary.push(format!(
                "  \"lane_combine_vs_pr5_combine_w64\": {:.3}",
                lane_combine.rounds_per_sec / PR5_COMBINE_W64_RPS
            ));
            summary.push(format!(
                "  \"lane_combine_vs_pr5_nocombine_w64\": {:.3}",
                lane_combine.rounds_per_sec / PR5_NOCOMBINE_W64_RPS
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"pr7_simd_wire\",\n  \"graph\": {{\"vertices\": {}, \
         \"edges\": {}, \"workers\": {WORKERS}}},\n  \"reps\": {},\n{},\n  \
         \"cells\": {{\n{}\n  }}\n}}\n",
        params.vertices,
        params.edges,
        params.reps,
        summary.join(",\n"),
        cells.join(",\n")
    );
    let mut f = std::fs::File::create("BENCH_pr7.json").expect("create BENCH_pr7.json");
    f.write_all(json.as_bytes()).expect("write BENCH_pr7.json");
    println!("-> BENCH_pr7.json");
}
