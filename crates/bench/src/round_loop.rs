//! End-to-end round-loop drivers for the envelope-path benchmarks.
//!
//! [`drive_core`] is a serial (single-threaded) implementation of the
//! BSP round loop — compute phase + routing phase, no cost pricing —
//! on the engine's routing pipeline: compute emits through the
//! [`RouteGrid`]'s sinks (`begin_round` → `emit_sinks` →
//! `route_presharded`), folding at send when combining, and each
//! vertex receives its grouped [`Inbox`] run as a borrowed slice (zero
//! clones, recycled buffers). It runs the *same* programs the engine
//! runs:
//!
//! * [`drive_current`] — a [`VertexProgram`] (hash-map state);
//! * [`drive_slab`] / [`drive_slab_recycled`] — a dense-slab kernel
//!   ([`SlabProgram`]): per-vertex state is a
//!   [`StateSlab`](mtvc_engine::StateSlab) row, compute is
//!   frontier-driven, and the recycled variant draws worker slabs from
//!   a [`SlabRecycler`] so back-to-back runs allocate no state.
//!
//! All drivers execute real task code via the public [`Context`] and
//! the engine's [`vertex_rng`], so for order-insensitive programs
//! (MSSP: receiver-side min-aggregation) different state layouts and
//! kernels produce identical round counts and wire totals — making the
//! timing delta a pure measurement of the layout or kernel.

use mtvc_engine::{
    vertex_rng, Context, Inbox, LocalIndex, PerSlab, PerVertex, ProgramCore, RouteGrid,
    SlabProgram, SlabRecycler, VertexProgram, WireFormat,
};
use mtvc_graph::partition::Partition;
use mtvc_graph::Graph;

/// What one full run of a driver did (for parity checks and rate math).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundLoopReport {
    /// Rounds executed (including the init round).
    pub rounds: usize,
    /// Total wire messages produced across the run.
    pub sent_wire: u64,
    /// Total envelopes delivered (post-combining tuples).
    pub delivered_tuples: u64,
}

/// [`RoundLoopReport`] plus the wire accounting of a [`drive_core`]
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteReport {
    pub report: RoundLoopReport,
    /// Post-codec cross-worker bucket bytes across the run (local
    /// flows deliver by pointer and never serialize); zero under
    /// [`WireFormat::Tuples`].
    pub encoded_wire_bytes: u64,
    /// What the same cross-worker traffic costs under the
    /// `size_of`-style estimate (`payload_units * msg_bytes`), for
    /// shrinkage ratios.
    pub estimated_wire_bytes: u64,
    /// Envelope bytes written into shard buckets across the run (see
    /// [`RoutingStats::shard_copy_bytes`]).
    ///
    /// [`RoutingStats::shard_copy_bytes`]: mtvc_engine::RoutingStats
    pub shard_copy_bytes: u64,
}

/// Ceiling on rounds for runaway protection.
const ROUND_CAP: usize = 10_000;

/// Run any [`ProgramCore`] to quiescence on the engine's routing
/// pipeline, single-threaded, under `wire_format`'s accounting.
/// `on_round_end(round)` fires after each round's routing completes —
/// the allocation benches snapshot their byte counter there. Stores
/// are handed back through [`ProgramCore::recycle`] when the run
/// finishes.
#[allow(clippy::too_many_arguments)]
pub fn drive_core<P: ProgramCore>(
    core: &P,
    graph: &Graph,
    part: &Partition,
    locals: &LocalIndex,
    combine: bool,
    wire_format: WireFormat,
    seed: u64,
    mut on_round_end: impl FnMut(usize),
) -> RouteReport {
    let workers = part.num_workers();
    let msg_bytes = core.message_bytes();
    let mut stores: Vec<P::Store> = locals
        .worker_vertices()
        .iter()
        .map(|list| core.make_store(list))
        .collect();
    let mut inboxes: Vec<Inbox<P::Message>> = (0..workers).map(|_| Inbox::new()).collect();
    let mut grid: RouteGrid<P::Message> = RouteGrid::new(workers);
    let mut report = RouteReport {
        report: RoundLoopReport {
            rounds: 0,
            sent_wire: 0,
            delivered_tuples: 0,
        },
        encoded_wire_bytes: 0,
        estimated_wire_bytes: 0,
        shard_copy_bytes: 0,
    };

    for round in 0..ROUND_CAP {
        if round > 0 {
            if inboxes.iter().all(|i| i.is_empty()) {
                break;
            }
            if core.max_rounds().is_some_and(|max| round > max) {
                break;
            }
        }
        grid.begin_round(combine, wire_format, locals);
        for (((w, vertices), mut sink), inbox) in locals
            .worker_vertices()
            .iter()
            .enumerate()
            .zip(grid.emit_sinks(graph, part, locals, None, msg_bytes))
            .zip(inboxes.iter_mut())
        {
            if round == 0 {
                for (li, &v) in vertices.iter().enumerate() {
                    let mut rng = vertex_rng(seed, round, v);
                    let mut ctx = Context::new(v, round, graph, &mut rng, &mut sink);
                    core.init_vertex(v, li as u32, &mut stores[w], &mut ctx);
                }
            } else {
                let mut start = 0usize;
                for run in inbox.runs() {
                    let msgs = &inbox.deliveries()[start..run.end as usize];
                    start = run.end as usize;
                    let mut rng = vertex_rng(seed, round, run.dest);
                    let mut ctx = Context::new(run.dest, round, graph, &mut rng, &mut sink);
                    core.compute_vertex(run.dest, run.local, &mut stores[w], msgs, &mut ctx);
                }
                inbox.clear();
            }
        }
        let stats = grid.route_presharded(None, &mut inboxes, locals, msg_bytes);
        report.report.sent_wire += stats.sent_wire;
        report.report.delivered_tuples += stats.delivered_tuples;
        report.report.rounds = round + 1;
        report.encoded_wire_bytes += stats.encoded_wire_bytes;
        report.estimated_wire_bytes += stats.net_out_bytes.iter().sum::<u64>();
        report.shard_copy_bytes += stats.shard_copy_bytes;
        on_round_end(round);
    }
    core.recycle(stores);
    report
}

/// Run a [`VertexProgram`] (hash-map state).
pub fn drive_current<P: VertexProgram>(
    program: &P,
    graph: &Graph,
    part: &Partition,
    locals: &LocalIndex,
    combine: bool,
    seed: u64,
    on_round_end: impl FnMut(usize),
) -> RoundLoopReport {
    drive_core(
        &PerVertex(program),
        graph,
        part,
        locals,
        combine,
        WireFormat::Tuples,
        seed,
        on_round_end,
    )
    .report
}

/// Run a [`SlabProgram`] (dense slab state), allocating fresh worker
/// slabs.
pub fn drive_slab<P: SlabProgram>(
    program: &P,
    graph: &Graph,
    part: &Partition,
    locals: &LocalIndex,
    combine: bool,
    seed: u64,
    on_round_end: impl FnMut(usize),
) -> RoundLoopReport {
    drive_core(
        &PerSlab::new(program),
        graph,
        part,
        locals,
        combine,
        WireFormat::Tuples,
        seed,
        on_round_end,
    )
    .report
}

/// Run a [`SlabProgram`] drawing worker slabs from (and retiring them
/// to) `recycler` — after a warm-up run the state phase performs no
/// allocation at all.
#[allow(clippy::too_many_arguments)]
pub fn drive_slab_recycled<P: SlabProgram>(
    program: &P,
    recycler: &SlabRecycler<P::Cell>,
    graph: &Graph,
    part: &Partition,
    locals: &LocalIndex,
    combine: bool,
    seed: u64,
    on_round_end: impl FnMut(usize),
) -> RoundLoopReport {
    drive_core(
        &PerSlab::with_recycler(program, recycler),
        graph,
        part,
        locals,
        combine,
        WireFormat::Tuples,
        seed,
        on_round_end,
    )
    .report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvc_graph::generators;
    use mtvc_graph::partition::{HashPartitioner, Partitioner};
    use mtvc_tasks::mssp::MsspProgram;

    /// The slab MSSP kernel must be traffic-identical to the hash-map
    /// kernel, fresh or recycled — and recycling must return every
    /// worker slab to the pool.
    #[test]
    fn slab_and_hashmap_paths_agree_on_mssp() {
        let g = generators::power_law(400, 1600, 2.3, 7);
        let part = HashPartitioner::default().partition(&g, 4);
        let locals = LocalIndex::build(&part);
        let sources = vec![0, 13, 200];
        let hashmap = MsspProgram::new(sources.clone());
        let slab = mtvc_tasks::MsspSlabProgram::new(sources);
        let recycler = SlabRecycler::new();
        for combine in [false, true] {
            let base = drive_current(&hashmap, &g, &part, &locals, combine, 42, |_| {});
            let dense = drive_slab(&slab, &g, &part, &locals, combine, 42, |_| {});
            let pooled =
                drive_slab_recycled(&slab, &recycler, &g, &part, &locals, combine, 42, |_| {});
            assert_eq!(base, dense, "combine={combine}");
            assert_eq!(base, pooled, "combine={combine}");
            assert_eq!(recycler.pooled(), 4, "all worker slabs retired");
        }
    }

    /// Combining must shrink delivered tuples but never wire totals.
    #[test]
    fn combining_shrinks_tuples_not_wire() {
        let g = generators::power_law(400, 1600, 2.3, 7);
        let part = HashPartitioner::default().partition(&g, 4);
        let locals = LocalIndex::build(&part);
        let program = MsspProgram::new(vec![0, 0, 5]);
        let plain = drive_current(&program, &g, &part, &locals, false, 1, |_| {});
        let combined = drive_current(&program, &g, &part, &locals, true, 1, |_| {});
        assert_eq!(plain.sent_wire, combined.sent_wire);
        assert!(combined.delivered_tuples < plain.delivered_tuples);
    }
}
