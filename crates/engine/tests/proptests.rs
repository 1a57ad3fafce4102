//! Property-based tests for the engine: message conservation, sampler
//! distribution laws, and scheduling-independence of results.

use mtvc_cluster::{ChaosMix, ClusterSpec, FaultPlan};
use mtvc_engine::sampling::{binomial, multinomial_uniform};
use mtvc_engine::{
    route, wire, Context, Delivery, EngineConfig, Envelope, ExecutionMode, Inbox, LocalIndex,
    Message, MirrorIndex, OocConfig, Outbox, PagingConfig, PartitionSchedule, PayloadCodec,
    RouteGrid, Runner, SlabProgram, SlabRecycler, SlabRowMut, StateSlab, StoreKind, SystemProfile,
    VertexProgram, WireFormat, WorkerPool, LANES,
};
use mtvc_graph::partition::{HashPartitioner, Partitioner};
use mtvc_graph::{generators, VertexId};
use mtvc_metrics::{Bytes, SimTime};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binomial_stays_in_range(n in 0u64..200_000, p in 0.0f64..=1.0, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let x = binomial(&mut rng, n, p);
        prop_assert!(x <= n);
    }

    #[test]
    fn multinomial_conserves_count(n in 0u64..50_000, k in 1usize..500, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut total = 0u64;
        multinomial_uniform(&mut rng, n, k, |bin, c| {
            assert!(bin < k);
            total += c;
        });
        prop_assert_eq!(total, n);
    }

    #[test]
    fn binomial_mean_is_np(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let trials = 3000;
        let (n, p) = (30u64, 0.25);
        let sum: u64 = (0..trials).map(|_| binomial(&mut rng, n, p)).sum();
        let mean = sum as f64 / trials as f64;
        // 4-sigma band: sd of the mean = sqrt(np(1-p)/trials) ≈ 0.043
        prop_assert!((mean - 7.5).abs() < 0.2, "mean {mean}");
    }
}

/// Token-passing program: every vertex sends `tokens` unit messages to
/// each neighbor for `rounds` rounds; receivers count. Used to check
/// message conservation through the router.
struct TokenFlood {
    rounds: usize,
}

#[derive(Clone, Debug)]
struct Token;
impl Message for Token {
    fn combine_key(&self) -> Option<u64> {
        Some(0)
    }
    fn merge(&mut self, _o: &Self) {}
}

#[derive(Clone, Default)]
struct Received(u64);

impl VertexProgram for TokenFlood {
    type Message = Token;
    type State = Received;

    fn message_bytes(&self) -> u64 {
        8
    }

    fn init(&self, _v: VertexId, _state: &mut Received, ctx: &mut Context<'_, Token>) {
        for &t in ctx.neighbors() {
            ctx.send(t, Token, 3);
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        state: &mut Received,
        inbox: &[Delivery<Token>],
        ctx: &mut Context<'_, Token>,
    ) {
        for d in inbox {
            state.0 += d.mult;
        }
        if ctx.round() < self.rounds {
            for &t in ctx.neighbors() {
                ctx.send(t, Token, 3);
            }
        }
    }

    fn max_rounds(&self) -> Option<usize> {
        Some(self.rounds + 1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn messages_are_conserved_through_routing(
        n in 8usize..120,
        workers in 1usize..9,
        rounds in 1usize..4,
        seed in any::<u64>(),
    ) {
        let g = generators::erdos_renyi(n, n * 2, seed);
        let mut cfg = EngineConfig::new(ClusterSpec::galaxy(workers), SystemProfile::base("t"));
        cfg.cutoff = SimTime::secs(1e12);
        cfg.seed = seed;
        let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
        let result = runner.run(&TokenFlood { rounds });
        prop_assert!(result.outcome.is_completed());
        // Sending rounds are 0..rounds, each emitting 3 tokens per
        // directed edge; every one is delivered within the horizon.
        let expected = 3 * g.num_edges() as u64 * rounds as u64;
        prop_assert_eq!(result.stats.total_messages_sent, expected);
        let received: u64 = result.states.iter().map(|s| s.0).sum();
        prop_assert_eq!(received, expected);
    }

    #[test]
    fn partitioning_does_not_change_task_results(
        n in 10usize..80,
        seed in any::<u64>(),
        workers_a in 1usize..8,
        workers_b in 1usize..8,
    ) {
        // MSSP is deterministic: results must be identical regardless
        // of how vertices are partitioned (scheduling independence).
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = vec![0 as VertexId, (n / 2) as VertexId];
        let run = |workers: usize| {
            let mut cfg = EngineConfig::new(ClusterSpec::galaxy(workers), SystemProfile::base("t"));
            cfg.cutoff = SimTime::secs(1e12);
            let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
            runner.run(&mtvc_tasks_free_mssp(sources.clone()))
        };
        let a = run(workers_a);
        let b = run(workers_b);
        prop_assert!(a.outcome.is_completed() && b.outcome.is_completed());
        for v in 0..n {
            prop_assert_eq!(&a.states[v].dist, &b.states[v].dist, "vertex {}", v);
        }
    }
}

/// Payload for the routing-equivalence property: an optional combine
/// key (including the adversarial `u64::MAX`) plus a value merged by
/// summing, so combining order mistakes change observable state.
#[derive(Clone, Debug, PartialEq)]
struct Keyed {
    key: Option<u64>,
    val: u64,
}
impl Message for Keyed {
    fn combine_key(&self) -> Option<u64> {
        self.key
    }
    fn merge(&mut self, o: &Self) {
        self.val += o.val;
    }
    fn wire_query(&self) -> Option<u64> {
        self.key
    }
    fn encoded_payload_bytes(&self) -> u64 {
        wire::varint_len(self.val)
    }
}
impl PayloadCodec for Keyed {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        wire::write_varint(out, self.val);
    }
    fn decode_payload(wire_query: Option<u64>, buf: &[u8], pos: &mut usize) -> Self {
        Keyed {
            key: wire_query,
            val: wire::read_varint(buf, pos),
        }
    }
}

/// Build one synthetic outbox per worker from the RNG: point-to-point
/// sends with mixed keys plus broadcasts from vertices the worker owns.
fn synthetic_outboxes(
    g: &mtvc_graph::Graph,
    part: &mtvc_graph::partition::Partition,
    seed: u64,
    sends_per_worker: usize,
    broadcasts_per_worker: usize,
) -> Vec<Outbox<Keyed>> {
    use rand::Rng;
    let n = g.num_vertices() as u64;
    let workers = part.num_workers();
    let owned = part.worker_vertices();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..workers)
        .map(|w| {
            let mut ob = Outbox::new();
            for _ in 0..sends_per_worker {
                let dest = (rng.gen::<u64>() % n) as VertexId;
                let key = match rng.gen::<u64>() % 5 {
                    0 => None,
                    1 => Some(u64::MAX),
                    k => Some(k % 3),
                };
                let val = rng.gen::<u64>() % 100;
                let mult = 1 + rng.gen::<u64>() % 4;
                ob.sends.push(Envelope::new(dest, Keyed { key, val }, mult));
            }
            for _ in 0..broadcasts_per_worker {
                if owned[w].is_empty() {
                    break;
                }
                let origin = owned[w][rng.gen::<u64>() as usize % owned[w].len()];
                let key = (rng.gen::<u64>() % 2 == 0).then(|| rng.gen::<u64>() % 3);
                let val = rng.gen::<u64>() % 100;
                ob.broadcasts.push((origin, Keyed { key, val }, 1));
            }
            ob
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole invariant: the presharded grid (`begin_round` →
    /// `emit_sinks` → `route_presharded`: fold-at-send combining +
    /// histogram scatter) produces grouped inboxes and statistics
    /// **identical** to the serial reference `route` (plain-HashMap
    /// combining + stable comparison sort), across random graphs,
    /// worker counts, combining, mirroring, wire formats, and pool
    /// shapes: inline, one thread, and up to four threads.
    #[test]
    fn presharded_route_equals_serial_route(
        n in 8usize..150,
        workers in 1usize..9,
        combine in any::<bool>(),
        mirrored in any::<bool>(),
        compact in any::<bool>(),
        threads in 0usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::erdos_renyi(n, n * 3, seed);
        let part = HashPartitioner { salt: seed }.partition(&g, workers);
        let locals = LocalIndex::build(&part);
        let mirrors = mirrored.then(|| MirrorIndex::build(&g, &part, 4));
        let outboxes = synthetic_outboxes(&g, &part, seed ^ 0xD1CE, 40, 6);
        let msg_bytes = 16;
        let wire_format = if compact { WireFormat::Compact } else { WireFormat::Tuples };

        // Total wire messages entering the router, counted from the raw
        // traffic — conservation baseline for the accounting checks.
        let raw_wire: u64 = outboxes.iter().map(|ob| {
            ob.sends.iter().map(|e| e.mult).sum::<u64>()
                + ob.broadcasts.iter()
                    .map(|(o, _, m)| g.degree(*o) as u64 * m)
                    .sum::<u64>()
        }).sum();

        let (serial_inboxes, serial_stats) = route(
            outboxes.clone(), &g, &part, &locals, mirrors.as_ref(), combine, msg_bytes, wire_format,
        );

        // Wire accounting must be invariant under combining: combiners
        // fold tuples, never wire messages.
        prop_assert_eq!(serial_stats.sent_wire, raw_wire);
        prop_assert_eq!(serial_stats.delivered_wire(), raw_wire);
        let tuples: u64 = serial_inboxes.iter().map(|i| i.len() as u64).sum();
        prop_assert_eq!(serial_stats.delivered_tuples, tuples);
        let delivered_mult: u64 = serial_inboxes
            .iter()
            .flat_map(|i| i.deliveries())
            .map(|d| d.mult)
            .sum();
        prop_assert_eq!(delivered_mult, raw_wire);
        // Only surviving envelopes are written, each exactly once.
        let env_bytes = std::mem::size_of::<Envelope<Keyed>>() as u64;
        prop_assert_eq!(serial_stats.shard_copy_bytes, tuples * env_bytes);

        // Encoded-byte conservation: every post-codec byte sent to
        // another worker is received by exactly one worker, and without
        // mirroring (whose prepaid mirror transfers shift bytes between
        // the two views) the per-worker totals are exactly the summed
        // cross-worker bucket encodings.
        let enc_out: u64 = serial_stats.encoded_out_bytes.iter().sum();
        let enc_in: u64 = serial_stats.encoded_in_bytes.iter().sum();
        prop_assert_eq!(enc_out, enc_in);
        if !mirrored {
            prop_assert_eq!(enc_out, serial_stats.encoded_wire_bytes);
        }
        if !compact {
            prop_assert_eq!(serial_stats.encoded_wire_bytes, 0);
            prop_assert_eq!(enc_out, 0);
        }

        // Grouped-delivery invariants: runs ascend by local index, end
        // offsets are strictly monotone and partition the buffer, and
        // every delivery sits inside the run of its own vertex.
        for (w, inbox) in serial_inboxes.iter().enumerate() {
            let mut prev_local = None;
            let mut start = 0usize;
            for run in inbox.runs() {
                prop_assert!(prev_local.is_none_or(|p| run.local > p));
                prev_local = Some(run.local);
                prop_assert!((run.end as usize) > start, "empty run");
                prop_assert_eq!(part.owner_of(run.dest) as usize, w);
                prop_assert_eq!(locals.local_of(run.dest), run.local);
                prop_assert_eq!(locals.vertex_at(w, run.local), run.dest);
                start = run.end as usize;
            }
            prop_assert_eq!(start, inbox.len(), "runs must cover the buffer");
        }

        // The grid, fed the identical traffic through its emit sinks,
        // twice over to also exercise buffer reuse across rounds.
        let pool = match threads {
            0 => None,
            1 => Some(WorkerPool::new(1)),
            _ => Some(WorkerPool::new(workers.min(4))),
        };
        let mut grid: RouteGrid<Keyed> = RouteGrid::new(workers);
        let mut grid_inboxes: Vec<Inbox<Keyed>> =
            (0..workers).map(|_| Inbox::new()).collect();
        for _ in 0..2 {
            grid_inboxes.iter_mut().for_each(|i| i.clear());
            grid.begin_round(combine, wire_format, &locals);
            for (mut sink, mut ob) in grid
                .emit_sinks(&g, &part, &locals, mirrors.as_ref(), msg_bytes)
                .zip(outboxes.clone())
            {
                ob.drain_into(&mut sink);
            }
            let stats = grid.route_presharded(pool.as_ref(), &mut grid_inboxes, &locals, msg_bytes);
            prop_assert_eq!(stats, &serial_stats);
        }
        prop_assert_eq!(&grid_inboxes, &serial_inboxes);
    }

    /// The compact codec is lossless and exactly self-measuring: for
    /// any envelope bucket, `measure_bucket` equals the real encoded
    /// byte length and decoding restores the bucket in the canonical
    /// (local-index-sorted, stable) order with every field intact.
    #[test]
    fn codec_roundtrip_and_measure_parity(
        len in 0usize..60,
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let envs: Vec<Envelope<Keyed>> = (0..len)
            .map(|_| {
                let dest = (rng.gen::<u64>() % 32) as VertexId;
                let key = match rng.gen::<u64>() % 5 {
                    0 => None,
                    1 => Some(u64::MAX),
                    k => Some(k % 3),
                };
                // Shifted values hit every varint length class.
                let val = rng.gen::<u64>() >> (rng.gen::<u64>() % 64);
                let mult = 1 + rng.gen::<u64>() % 4;
                Envelope::new(dest, Keyed { key, val }, mult)
            })
            .collect();
        let li_of = |v: VertexId| v;

        let buf = wire::encode_bucket(&envs, li_of);
        prop_assert_eq!(wire::measure_bucket(&envs, li_of), buf.len() as u64);

        let decoded: Vec<Envelope<Keyed>> = wire::decode_bucket(&buf, |li| li);
        let mut order: Vec<usize> = (0..envs.len()).collect();
        order.sort_by_key(|&i| envs[i].dest);
        prop_assert_eq!(decoded.len(), envs.len());
        for (d, &i) in decoded.iter().zip(&order) {
            prop_assert_eq!(d.dest, envs[i].dest);
            prop_assert_eq!(d.mult, envs[i].mult);
            prop_assert_eq!(&d.msg, &envs[i].msg);
        }
    }

    /// Lane-chunked slab kernels are bit-identical to the scalar
    /// operations they batch: `relax_min_lanes` against per-lane
    /// `relax_min`, then `drain_chunks` against `drain`, across batch
    /// widths on and off the [`LANES`] boundary.
    #[test]
    fn lane_relax_and_drain_match_scalar_oracle(
        width_sel in 0usize..4,
        rows in 1usize..12,
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        // On and off the LANES boundary, plus a multi-word frontier.
        let width = [1usize, 7, 8, 64][width_sel];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut lane: StateSlab<u64> = StateSlab::new(rows, width, u64::MAX);
        let mut scalar: StateSlab<u64> = StateSlab::new(rows, width, u64::MAX);
        let chunks = width.div_ceil(LANES);

        for _ in 0..200 {
            let li = rng.gen::<u32>() % rows as u32;
            let chunk = rng.gen::<u64>() as usize % chunks;
            let mut cand = [u64::MAX; LANES];
            for c in cand.iter_mut() {
                if rng.gen::<u64>() % 3 != 0 {
                    *c = rng.gen::<u64>() % 1000;
                }
            }
            lane.row_mut(li).relax_min_lanes(chunk * LANES, &cand);
            let mut row = scalar.row_mut(li);
            for (l, &c) in cand.iter().enumerate() {
                let q = chunk * LANES + l;
                if q < width {
                    row.relax_min(q, c);
                }
            }
        }
        for li in 0..rows as u32 {
            prop_assert_eq!(lane.row(li), scalar.row(li));
        }

        // Same dirty sets, visited in the same ascending order, and
        // both drains leave the frontier clear.
        for li in 0..rows as u32 {
            let mut via_chunks: Vec<(usize, u64)> = Vec::new();
            lane.row_mut(li).drain_chunks(|chunk, mask, cells| {
                for (l, &cell) in cells.iter().enumerate() {
                    if mask & (1 << l) != 0 {
                        via_chunks.push((chunk * LANES + l, cell));
                    }
                }
            });
            let mut via_scalar: Vec<(usize, u64)> = Vec::new();
            scalar.row_mut(li).drain(|q, cell| via_scalar.push((q, *cell)));
            prop_assert_eq!(&via_chunks, &via_scalar, "row {}", li);

            let mut leftover = 0usize;
            lane.row_mut(li).drain(|_, _| leftover += 1);
            scalar.row_mut(li).drain(|_, _| leftover += 1);
            prop_assert_eq!(leftover, 0, "drain must clear the frontier");
        }
    }

    /// Full-run scheduling independence across the combiner axis: the
    /// pooled pipeline and the serial pipeline must produce identical
    /// outcomes, statistics, and per-vertex states, with the combiner
    /// on or off — end-to-end over the sender-combining grouped path.
    #[test]
    fn pooled_run_equals_serial_run(
        n in 16usize..120,
        workers in 2usize..6,
        combine in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = vec![0 as VertexId, (n / 2) as VertexId];
        let run = |threshold: usize| {
            let mut cfg = EngineConfig::new(
                ClusterSpec::galaxy(workers),
                SystemProfile::base("t"),
            );
            cfg.cutoff = SimTime::secs(1e12);
            cfg.profile.combiner = combine;
            cfg.parallel_vertex_threshold = threshold;
            let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
            runner.run(&mtvc_tasks_free_mssp(sources.clone()))
        };
        let serial = run(usize::MAX);
        let pooled = run(0);
        prop_assert!(serial.outcome.is_completed());
        prop_assert_eq!(&serial.outcome, &pooled.outcome);
        prop_assert_eq!(&serial.stats, &pooled.stats);
        for v in 0..n {
            prop_assert_eq!(&serial.states[v].dist, &pooled.states[v].dist, "vertex {}", v);
        }
    }

    /// Chaos property: a run with injected machine crashes and
    /// transient delivery failures, recovered via superstep checkpoints
    /// (rollback + deterministic replay), is indistinguishable from a
    /// fault-free run — identical outcome, identical per-vertex states,
    /// and identical non-replay statistics. Replay wire traffic and
    /// recovery time are segregated into `stats.faults`, which is
    /// zeroed before the comparison.
    #[test]
    fn chaos_run_equals_fault_free_run(
        n in 16usize..100,
        workers in 2usize..6,
        pooled in any::<bool>(),
        checkpoint_every in 1usize..6,
        crashes in 0usize..3,
        losses in 0usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = vec![0 as VertexId, (n / 2) as VertexId];
        let run = |faults: Option<FaultPlan>| {
            let mut cfg = EngineConfig::new(
                ClusterSpec::galaxy(workers),
                SystemProfile::base("t"),
            );
            cfg.cutoff = SimTime::secs(1e12);
            cfg.parallel_vertex_threshold = if pooled { 0 } else { usize::MAX };
            cfg.checkpoint_every = checkpoint_every;
            cfg.faults = faults;
            let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
            runner.run(&mtvc_tasks_free_mssp(sources.clone()))
        };
        let clean = run(None);
        let chaos = run(Some(FaultPlan::random(
            seed ^ 0xFA11,
            workers,
            8,
            crashes,
            losses,
        )));
        prop_assert!(clean.outcome.is_completed());
        prop_assert_eq!(&clean.outcome, &chaos.outcome);
        let scrub = |stats: &mtvc_metrics::RunStats| {
            let mut s = stats.clone();
            s.faults = Default::default();
            s
        };
        prop_assert_eq!(scrub(&clean.stats), scrub(&chaos.stats));
        for v in 0..n {
            prop_assert_eq!(&clean.states[v].dist, &chaos.states[v].dist, "vertex {}", v);
        }
    }
}

/// A minimal MSSP used here so this crate's tests do not depend on
/// `mtvc-tasks` (which depends on this crate).
fn mtvc_tasks_free_mssp(sources: Vec<VertexId>) -> MiniMssp {
    MiniMssp { sources }
}

struct MiniMssp {
    sources: Vec<VertexId>,
}

#[derive(Clone, Debug)]
struct Dist {
    q: u32,
    d: u64,
}
impl Message for Dist {
    fn combine_key(&self) -> Option<u64> {
        Some(self.q as u64)
    }
    fn merge(&mut self, o: &Self) {
        self.d = self.d.min(o.d);
    }
}

#[derive(Clone, Default, Debug, PartialEq)]
struct DistMap {
    dist: std::collections::BTreeMap<u32, u64>,
}

impl VertexProgram for MiniMssp {
    type Message = Dist;
    type State = DistMap;

    fn message_bytes(&self) -> u64 {
        16
    }

    fn init(&self, v: VertexId, state: &mut DistMap, ctx: &mut Context<'_, Dist>) {
        for (q, &s) in self.sources.iter().enumerate() {
            if s == v {
                state.dist.insert(q as u32, 0);
                for &t in ctx.neighbors() {
                    ctx.send(t, Dist { q: q as u32, d: 1 }, 1);
                }
            }
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        state: &mut DistMap,
        inbox: &[Delivery<Dist>],
        ctx: &mut Context<'_, Dist>,
    ) {
        let mut improved = Vec::new();
        for d in inbox {
            let m = &d.msg;
            let cur = state.dist.get(&m.q).copied().unwrap_or(u64::MAX);
            if m.d < cur {
                state.dist.insert(m.q, m.d);
                improved.push((m.q, m.d));
            }
        }
        improved.sort_unstable();
        improved.dedup();
        for (q, d) in improved {
            for &t in ctx.neighbors() {
                ctx.send(t, Dist { q, d: d + 1 }, 1);
            }
        }
    }
}

/// The same MSSP on the dense slab layout: one `u64` distance cell per
/// (vertex, query), branchless min-relax, frontier-driven drain. Must
/// emit byte-identical traffic to [`MiniMssp`].
struct MiniSlabMssp {
    sources: Vec<VertexId>,
}

impl SlabProgram for MiniSlabMssp {
    type Message = Dist;
    type Cell = u64;
    type Out = DistMap;

    fn width(&self) -> usize {
        self.sources.len()
    }

    fn empty_cell(&self) -> u64 {
        u64::MAX
    }

    fn message_bytes(&self) -> u64 {
        16
    }

    fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u64>, ctx: &mut Context<'_, Dist>) {
        for (q, &s) in self.sources.iter().enumerate() {
            if s == v {
                row.set(q, 0);
                for &t in ctx.neighbors() {
                    ctx.send(t, Dist { q: q as u32, d: 1 }, 1);
                }
            }
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u64>,
        inbox: &[Delivery<Dist>],
        ctx: &mut Context<'_, Dist>,
    ) {
        for d in inbox {
            row.relax_min(d.msg.q as usize, d.msg.d);
        }
        row.drain(|q, d| {
            let d = *d;
            for &t in ctx.neighbors() {
                ctx.send(
                    t,
                    Dist {
                        q: q as u32,
                        d: d + 1,
                    },
                    1,
                );
            }
        });
    }

    fn extract(&self, _v: VertexId, row: &[u64]) -> DistMap {
        let mut out = DistMap::default();
        for (q, &d) in row.iter().enumerate() {
            if d != u64::MAX {
                out.dist.insert(q as u32, d);
            }
        }
        out
    }
}

/// Scrub the state-accounting fields that legitimately differ between
/// the ledger-tracked hashmap layout and the exactly-accounted slab
/// layout; everything else (traffic, rounds, timing) must match.
fn scrub_state_accounting(stats: &mtvc_metrics::RunStats) -> mtvc_metrics::RunStats {
    let mut s = stats.clone();
    s.peak_state_bytes = Default::default();
    s.peak_memory = Default::default();
    for r in &mut s.per_round {
        r.state_bytes = Default::default();
        r.peak_machine_memory = Default::default();
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Slab-state tentpole: the dense-slab MSSP produces identical
    /// outcomes, per-vertex results, and identical traffic/round
    /// statistics to the hash-map program across random graphs, batch
    /// widths, combining on/off, and the serial/pooled axis. Only the
    /// state-byte accounting differs (exact slab capacity vs ledger).
    #[test]
    fn slab_run_equals_hashmap_run(
        n in 16usize..120,
        workers in 1usize..6,
        width in 1usize..9,
        combine in any::<bool>(),
        pooled in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources: Vec<VertexId> =
            (0..width).map(|q| ((q * 7 + 3) % n) as VertexId).collect();
        let mut cfg = EngineConfig::new(
            ClusterSpec::galaxy(workers),
            SystemProfile::base("t"),
        );
        cfg.cutoff = SimTime::secs(1e12);
        cfg.profile.combiner = combine;
        cfg.parallel_vertex_threshold = if pooled { 0 } else { usize::MAX };

        let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
        let map = runner.run(&mtvc_tasks_free_mssp(sources.clone()));
        let slab = runner.run_slab(&MiniSlabMssp { sources });

        prop_assert!(map.outcome.is_completed());
        prop_assert_eq!(&map.outcome, &slab.outcome);
        prop_assert_eq!(
            scrub_state_accounting(&map.stats),
            scrub_state_accounting(&slab.stats)
        );
        for v in 0..n {
            prop_assert_eq!(&map.states[v].dist, &slab.states[v].dist, "vertex {}", v);
        }
        // Exact accounting: the slab's resident bytes are reported
        // every round and never shrink below one row per vertex.
        prop_assert!(slab.stats.peak_state_bytes.get() > 0);
    }

    /// Slab runs are recyclable: executing the same batch through a
    /// shared `SlabRecycler` re-fills pooled slabs in place and yields
    /// results identical to fresh allocation.
    #[test]
    fn recycled_slab_run_equals_fresh_run(
        n in 16usize..80,
        workers in 1usize..5,
        width in 1usize..7,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources: Vec<VertexId> =
            (0..width).map(|q| ((q * 5 + 1) % n) as VertexId).collect();
        let mut cfg = EngineConfig::new(ClusterSpec::galaxy(workers), SystemProfile::base("t"));
        cfg.cutoff = SimTime::secs(1e12);
        let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
        let prog = MiniSlabMssp { sources };

        let fresh = runner.run_slab(&prog);
        let recycler: SlabRecycler<u64> = SlabRecycler::new();
        let first = runner.run_slab_recycled(&prog, &recycler, runner.config());
        prop_assert_eq!(recycler.pooled(), workers, "all slabs returned");
        let second = runner.run_slab_recycled(&prog, &recycler, runner.config());
        prop_assert_eq!(recycler.pooled(), workers, "pool is stable");

        prop_assert_eq!(&fresh.stats, &first.stats);
        prop_assert_eq!(&fresh.stats, &second.stats);
        for v in 0..n {
            prop_assert_eq!(&fresh.states[v].dist, &second.states[v].dist, "vertex {}", v);
        }
    }

    /// Chaos regression for slab state: superstep checkpoints snapshot
    /// whole slabs, rollback restores them via the buffer-reusing
    /// `clone_from`, and a crashed-and-replayed slab run is
    /// indistinguishable from a fault-free one.
    #[test]
    fn chaos_slab_run_equals_fault_free_run(
        n in 16usize..100,
        workers in 2usize..6,
        pooled in any::<bool>(),
        checkpoint_every in 1usize..6,
        crashes in 0usize..3,
        losses in 0usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = vec![0 as VertexId, (n / 2) as VertexId];
        let run = |faults: Option<FaultPlan>| {
            let mut cfg = EngineConfig::new(
                ClusterSpec::galaxy(workers),
                SystemProfile::base("t"),
            );
            cfg.cutoff = SimTime::secs(1e12);
            cfg.parallel_vertex_threshold = if pooled { 0 } else { usize::MAX };
            cfg.checkpoint_every = checkpoint_every;
            cfg.faults = faults;
            let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
            runner.run_slab(&MiniSlabMssp { sources: sources.clone() })
        };
        let clean = run(None);
        let chaos = run(Some(FaultPlan::random(
            seed ^ 0x51AB,
            workers,
            8,
            crashes,
            losses,
        )));
        prop_assert!(clean.outcome.is_completed());
        prop_assert_eq!(&clean.outcome, &chaos.outcome);
        let scrub = |stats: &mtvc_metrics::RunStats| {
            let mut s = stats.clone();
            s.faults = Default::default();
            s
        };
        prop_assert_eq!(scrub(&clean.stats), scrub(&chaos.stats));
        for v in 0..n {
            prop_assert_eq!(&clean.states[v].dist, &chaos.states[v].dist, "vertex {}", v);
        }
    }
}

fn scrub_faults(stats: &mtvc_metrics::RunStats) -> mtvc_metrics::RunStats {
    let mut s = stats.clone();
    s.faults = Default::default();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PR 9 tentpole property: a run under the full fault taxonomy —
    /// crashes, delivery failures, stragglers, network partitions, and
    /// payload corruption, several of which may land on the same round
    /// — recovers task outputs bit-identical to the fault-free run on
    /// both checkpoint paths (full snapshots and incremental deltas).
    /// Every cost of recovering — replay, stalls, slow rounds,
    /// retransmissions — lives in `stats.faults` and nowhere else.
    #[test]
    fn chaos_under_load_recovers_bit_identical(
        n in 16usize..100,
        workers in 2usize..6,
        pooled in any::<bool>(),
        checkpoint_every in 1usize..6,
        incremental in any::<bool>(),
        crashes in 0usize..2,
        losses in 0usize..2,
        stragglers in 0usize..3,
        partitions in 0usize..2,
        corruptions in 0usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = vec![0 as VertexId, (n / 2) as VertexId];
        let run = |faults: Option<FaultPlan>| {
            let mut cfg = EngineConfig::new(
                ClusterSpec::galaxy(workers),
                SystemProfile::base("t"),
            );
            cfg.cutoff = SimTime::secs(1e12);
            cfg.parallel_vertex_threshold = if pooled { 0 } else { usize::MAX };
            cfg.checkpoint_every = checkpoint_every;
            if incremental {
                cfg.incremental_checkpoints = Some(3);
            }
            cfg.faults = faults;
            let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
            runner.run_slab(&MiniSlabMssp { sources: sources.clone() })
        };
        let mix = ChaosMix { crashes, losses, stragglers, partitions, corruptions };
        let clean = run(None);
        let chaos = run(Some(FaultPlan::chaos(seed ^ 0xC405, workers, 8, mix)));
        prop_assert!(clean.outcome.is_completed());
        prop_assert_eq!(&clean.outcome, &chaos.outcome);
        prop_assert_eq!(scrub_faults(&clean.stats), scrub_faults(&chaos.stats));
        for v in 0..n {
            prop_assert_eq!(&clean.states[v].dist, &chaos.states[v].dist, "vertex {}", v);
        }
    }

    /// Chaos × out-of-core cell: under the real paging path (partition
    /// cache with a budget small enough to force eviction, message
    /// budget small enough to spill), rollback-and-replay after
    /// crashes/losses/stragglers/partitions/corruption must restore
    /// the pager's cache state and reload evicted partitions so the
    /// run stays bit-identical to the fault-free paged run — outcomes,
    /// per-vertex states, and every non-fault statistic including the
    /// measured spill/load/skip counters.
    #[test]
    fn chaos_paged_run_equals_fault_free_paged_run(
        n in 16usize..100,
        workers in 2usize..6,
        pooled in any::<bool>(),
        checkpoint_every in 1usize..6,
        incremental in any::<bool>(),
        frontier_density in any::<bool>(),
        crashes in 0usize..2,
        losses in 0usize..2,
        stragglers in 0usize..3,
        partitions in 0usize..2,
        corruptions in 0usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = vec![0 as VertexId, (n / 2) as VertexId];
        let schedule = if frontier_density {
            PartitionSchedule::FrontierDensity
        } else {
            PartitionSchedule::RoundRobin
        };
        let run = |faults: Option<FaultPlan>| {
            let mut cfg = EngineConfig::new(
                ClusterSpec::galaxy(workers),
                SystemProfile::base("t"),
            );
            cfg.cutoff = SimTime::secs(1e12);
            cfg.parallel_vertex_threshold = if pooled { 0 } else { usize::MAX };
            cfg.checkpoint_every = checkpoint_every;
            if incremental {
                cfg.incremental_checkpoints = Some(3);
            }
            cfg.faults = faults;
            cfg.profile.out_of_core = Some(OocConfig {
                message_budget: Bytes::new(512),
                stream_edges: true,
                paging: Some(PagingConfig {
                    budget: Bytes::new(1024),
                    partition_bytes: Bytes::new(256),
                    schedule,
                    page_state: false,
                    store: StoreKind::Memory,
                }),
            });
            let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
            runner.run_slab(&MiniSlabMssp { sources: sources.clone() })
        };
        let mix = ChaosMix { crashes, losses, stragglers, partitions, corruptions };
        let clean = run(None);
        let chaos = run(Some(FaultPlan::chaos(seed ^ 0x00C0, workers, 8, mix)));
        prop_assert!(clean.outcome.is_completed());
        prop_assert!(
            clean.stats.total_partition_loads > 0,
            "paging path must engage"
        );
        prop_assert_eq!(&clean.outcome, &chaos.outcome);
        prop_assert_eq!(scrub_faults(&clean.stats), scrub_faults(&chaos.stats));
        for v in 0..n {
            prop_assert_eq!(&clean.states[v].dist, &chaos.states[v].dist, "vertex {}", v);
        }
    }

    /// Incremental checkpoints are an exact drop-in for full snapshots:
    /// under the same chaos plan both modes produce identical outcomes,
    /// identical non-fault statistics, and identical per-vertex states —
    /// while never storing more full-snapshot bytes than the full mode.
    #[test]
    fn incremental_checkpoints_equal_full_checkpoints(
        n in 16usize..100,
        workers in 2usize..6,
        checkpoint_every in 1usize..5,
        full_every in 2usize..6,
        crashes in 0usize..3,
        losses in 0usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = vec![0 as VertexId, (n / 2) as VertexId];
        let plan = FaultPlan::random(seed ^ 0xDE17A, workers, 8, crashes, losses);
        let run = |incremental: Option<usize>| {
            let mut cfg = EngineConfig::new(
                ClusterSpec::galaxy(workers),
                SystemProfile::base("t"),
            );
            cfg.cutoff = SimTime::secs(1e12);
            cfg.checkpoint_every = checkpoint_every;
            cfg.incremental_checkpoints = incremental;
            cfg.faults = Some(plan.clone());
            let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
            runner.run_slab(&MiniSlabMssp { sources: sources.clone() })
        };
        let full = run(None);
        let incr = run(Some(full_every));
        prop_assert_eq!(&full.outcome, &incr.outcome);
        prop_assert_eq!(scrub_faults(&full.stats), scrub_faults(&incr.stats));
        for v in 0..n {
            prop_assert_eq!(&full.states[v].dist, &incr.states[v].dist, "vertex {}", v);
        }
        // Deltas displace full snapshots at the same cadence.
        let ff = &full.stats.faults;
        let fi = &incr.stats.faults;
        prop_assert_eq!(fi.checkpoints, ff.checkpoints);
        prop_assert_eq!(ff.delta_checkpoints, 0);
        prop_assert!(fi.checkpoint_full_bytes <= ff.checkpoint_full_bytes);
    }

    /// Checkpoint-cadence edges: `0` (the documented alias for "every
    /// round"), `1`, and a cadence far beyond the run length must all
    /// recover bit-identically — and `0` must behave exactly like `1`.
    #[test]
    fn checkpoint_cadence_edges_recover(
        n in 16usize..80,
        workers in 2usize..5,
        crashes in 1usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = vec![0 as VertexId, (n / 2) as VertexId];
        let run = |every: usize, faults: Option<FaultPlan>| {
            let mut cfg = EngineConfig::new(
                ClusterSpec::galaxy(workers),
                SystemProfile::base("t"),
            );
            cfg.cutoff = SimTime::secs(1e12);
            cfg.checkpoint_every = every;
            cfg.faults = faults;
            let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
            runner.run(&mtvc_tasks_free_mssp(sources.clone()))
        };
        let clean = run(8, None);
        let plan = FaultPlan::random(seed ^ 0xCADE, workers, 6, crashes, 0);
        let zero = run(0, Some(plan.clone()));
        let one = run(1, Some(plan.clone()));
        let huge = run(usize::MAX, Some(plan));
        prop_assert_eq!(&zero.stats, &one.stats, "0 must alias 1");
        for r in [&zero, &one, &huge] {
            prop_assert_eq!(&clean.outcome, &r.outcome);
            prop_assert_eq!(scrub_faults(&clean.stats), scrub_faults(&r.stats));
            for v in 0..n {
                prop_assert_eq!(&clean.states[v].dist, &r.states[v].dist, "vertex {}", v);
            }
        }
        // Beyond-run cadence keeps exactly the round-0 snapshot.
        prop_assert_eq!(huge.stats.faults.checkpoints, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Wire-integrity fuzz: framing a bucket round-trips losslessly; a
    /// random bit flip anywhere in the frame is always detected as a
    /// typed error (never a panic, never a silent wrong decode); and
    /// the checked bucket decoder is total on corrupted bodies.
    #[test]
    fn frames_detect_every_random_bit_flip(
        len in 0usize..40,
        flip in any::<u64>(),
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let envs: Vec<Envelope<Keyed>> = (0..len)
            .map(|_| {
                let dest = (rng.gen::<u64>() % 32) as VertexId;
                let key = match rng.gen::<u64>() % 5 {
                    0 => None,
                    1 => Some(u64::MAX),
                    k => Some(k % 3),
                };
                let val = rng.gen::<u64>() >> (rng.gen::<u64>() % 64);
                let mult = 1 + rng.gen::<u64>() % 4;
                Envelope::new(dest, Keyed { key, val }, mult)
            })
            .collect();
        let li_of = |v: VertexId| v;

        let frame = wire::encode_frame(&envs, li_of);
        let decoded = wire::decode_frame::<Keyed>(&frame, |li| li);
        prop_assert!(decoded.is_ok(), "intact frame must decode");
        prop_assert_eq!(decoded.unwrap().len(), envs.len());

        let mut bad = frame.clone();
        let bit = (flip as usize) % (bad.len() * 8);
        bad[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            wire::decode_frame::<Keyed>(&bad, |li| li).is_err(),
            "bit {} flip must be detected", bit
        );

        // The checked (unframed) decoder may accept or reject a
        // corrupted body — but it must never panic.
        let mut body = wire::encode_bucket(&envs, li_of);
        if !body.is_empty() {
            let bit = (flip as usize) % (body.len() * 8);
            body[bit / 8] ^= 1 << (bit % 8);
            let _ = wire::try_decode_bucket::<Keyed>(&body, |li| li);
        }
    }

    /// `try_decode_bucket` is total on arbitrary byte soup: any input
    /// yields `Ok` or a typed `WireError`, never a panic.
    #[test]
    fn try_decode_is_total_on_random_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = wire::try_decode_bucket::<Keyed>(&bytes, |li| li);
    }
}

/// A fixed-horizon slab program with a second message type: every
/// vertex broadcasts one keyed token per lane every round, and the run
/// stops at the horizon with its last deliveries still in the inboxes —
/// the exit BKHS takes.
struct SlabTokens {
    width: usize,
    rounds: usize,
}

impl SlabTokens {
    fn emit(&self, v: VertexId, ctx: &mut Context<'_, Keyed>) {
        for q in 0..self.width {
            let val = (v as u64 + q as u64) % 7 + 1;
            ctx.broadcast(
                Keyed {
                    key: Some(q as u64),
                    val,
                },
                1,
            );
        }
    }
}

impl SlabProgram for SlabTokens {
    type Message = Keyed;
    type Cell = u64;
    type Out = Vec<u64>;

    fn width(&self) -> usize {
        self.width
    }

    fn empty_cell(&self) -> u64 {
        0
    }

    fn message_bytes(&self) -> u64 {
        12
    }

    fn init(&self, v: VertexId, _row: SlabRowMut<'_, u64>, ctx: &mut Context<'_, Keyed>) {
        self.emit(v, ctx);
    }

    fn compute(
        &self,
        v: VertexId,
        mut row: SlabRowMut<'_, u64>,
        inbox: &[Delivery<Keyed>],
        ctx: &mut Context<'_, Keyed>,
    ) {
        for d in inbox {
            let q = d.msg.key.expect("tokens are keyed") as usize;
            *row.cell_mut(q) += d.msg.val * d.mult;
        }
        self.emit(v, ctx);
    }

    fn extract(&self, _v: VertexId, row: &[u64]) -> Vec<u64> {
        row.to_vec()
    }

    fn max_rounds(&self) -> Option<usize> {
        Some(self.rounds)
    }
}

/// A result from a reused runner must equal the fresh runner's in
/// outcome, every statistic and every final state.
fn same_run<S: PartialEq + std::fmt::Debug>(
    batch: usize,
    reused: &mtvc_engine::RunResult<S>,
    fresh: &mtvc_engine::RunResult<S>,
) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(&reused.outcome, &fresh.outcome, "batch {}", batch);
    prop_assert_eq!(&reused.stats, &fresh.stats, "batch {}", batch);
    prop_assert_eq!(&reused.states, &fresh.states, "batch {}", batch);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One runner executes a sequence of batches, as a job or a batch
    /// executor does: its layout, pool and round buffers (routing grid,
    /// inboxes) are reused from batch to batch, and its slabs
    /// come from one recycler. Every batch must equal the same batch on
    /// a fresh runner — across programs, widths and message types;
    /// paged, resident and mirrored layouts; combining and wire format;
    /// pooled and serial runs; armed fault plans (rollback-replay); and
    /// the early exits that leave messages in the buffers: a fixed
    /// round horizon, an overflow and an overload.
    #[test]
    fn recycled_context_run_equals_fresh_run(
        n in 16usize..80,
        workers in 2usize..5,
        layout in 0u8..3,
        batches in prop::collection::vec(
            (0u8..6, 1usize..6, any::<u8>(), any::<u64>()),
            2..6,
        ),
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let partitioner = HashPartitioner { salt: seed };
        let mut base = EngineConfig::new(ClusterSpec::galaxy(workers), SystemProfile::base("t"));
        base.cutoff = SimTime::secs(1e12);
        match layout {
            0 => {}
            1 => {
                base.profile.out_of_core = Some(OocConfig {
                    message_budget: Bytes::new(512),
                    stream_edges: true,
                    paging: Some(PagingConfig {
                        budget: Bytes::new(1024),
                        partition_bytes: Bytes::new(256),
                        schedule: PartitionSchedule::FrontierDensity,
                        page_state: false,
                        store: StoreKind::Memory,
                    }),
                })
            }
            _ => {
                base.profile.mode = ExecutionMode::Broadcast { mirror_threshold: 4 };
            }
        }
        let runner = Runner::new(&g, &partitioner, base.clone());
        let slabs: SlabRecycler<u64> = SlabRecycler::new();

        for (b, &(kind, width, flags, bseed)) in batches.iter().enumerate() {
            let mut cfg = base.clone();
            cfg.seed = bseed;
            cfg.profile.combiner = flags & 1 != 0;
            if flags & 2 != 0 {
                cfg.profile.wire_format = WireFormat::Compact;
            }
            cfg.parallel_vertex_threshold = if flags & 4 != 0 { 0 } else { usize::MAX };
            cfg.residual_bytes = (0..workers as u64).map(|w| (bseed >> w) % 4096).collect();
            let sources: Vec<VertexId> =
                (0..width).map(|q| ((q * 7 + b + 1) % n) as VertexId).collect();
            let mssp = MiniSlabMssp { sources: sources.clone() };
            let tokens = SlabTokens { width, rounds: 1 + (bseed % 4) as usize };
            match kind {
                2 => {
                    let mix = ChaosMix {
                        crashes: 1,
                        losses: 1,
                        stragglers: 1,
                        partitions: 1,
                        corruptions: 1,
                    };
                    cfg.faults = Some(FaultPlan::chaos(bseed, workers, 6, mix));
                    cfg.checkpoint_every = 2;
                }
                3 => cfg.cluster.machine.memory = Bytes::new(1),
                4 => cfg.cutoff = SimTime::secs(1e-9),
                _ => {}
            }
            match kind {
                1 | 3 => {
                    let reused = runner.run_slab_recycled(&tokens, &slabs, &cfg);
                    if kind == 3 {
                        prop_assert!(reused.outcome.is_overflow(), "batch {}", b);
                    }
                    let fresh = Runner::new(&g, &partitioner, cfg).run_slab(&tokens);
                    same_run(b, &reused, &fresh)?
                }
                5 => {
                    // A per-vertex program runs under the runner's own
                    // config, between the slab batches.
                    let program = mtvc_tasks_free_mssp(sources);
                    let fresh = Runner::new(&g, &partitioner, base.clone()).run(&program);
                    same_run(b, &runner.run(&program), &fresh)?
                }
                _ => {
                    let reused = runner.run_slab_recycled(&mssp, &slabs, &cfg);
                    if kind == 2 {
                        prop_assert!(reused.stats.faults.injected > 0, "batch {}", b);
                    }
                    if kind == 4 {
                        prop_assert!(reused.outcome.is_overload(), "batch {}", b);
                    }
                    let fresh = Runner::new(&g, &partitioner, cfg).run_slab(&mssp);
                    same_run(b, &reused, &fresh)?
                }
            }
        }
    }
}
