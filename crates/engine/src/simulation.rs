//! The synchronous round executor and its fluent builder.
//!
//! # Hot-loop design: `RoundBuffers` + intra-round pieces
//!
//! A round is executed entirely inside scratch space that is sized once at build time
//! and reused for the whole run ([`RoundBuffers`], owned by [`Simulation`]): the flat
//! slot-major request buffer phase 1 writes into, the per-request rank buffer the
//! three-pass counting sort produces, the per-server request counts, accept counts and
//! closed census the observers read, the per-piece settle scratch, the per-server
//! tally that departures and releases drain through, and the double-buffered
//! alive-ball list. After the buffers are warm (i.e. after construction), a batch
//! [`Simulation::step`] performs **no heap allocation** — pinned by the
//! counting-allocator harness in `crates/engine/tests/alloc_free.rs`.
//!
//! Every phase of a round is split into contiguous **pieces** (request ranges, server
//! ranges, ball-slot ranges) that run in parallel and merge in piece-index order, so a
//! single simulation scales across cores while staying bit-identical at every thread
//! count. Each round derives its piece plan ([`PiecePlan`]) from its own live request
//! and ball counts — never from the thread count — so a small round of an open system
//! pays for a small plan, and the plan (and therefore every intermediate) is a pure
//! function of `(graph, protocol, seed)`. The buffers are sized once for the largest
//! plan the run can need.
//!
//! Server-major grouping is rank-based rather than materialized: a three-pass
//! `O(R + P·S)` computation assigns each request its rank within its destination
//! server's segment (ascending request index within a server — the same canonical
//! order the former explicit counting-sort permutation produced), and phase 3 tests
//! `rank < accept_count[server]` instead of reading a permuted index array. Every
//! parallel write lands in one chunk of a zipped drive, which is why the whole engine
//! stays `#![forbid(unsafe_code)]`.

use crate::{
    config::SimConfig,
    demand::Demand,
    erased::{DecidePhase, ErasedProtocol, ServerStates},
    observe::{AnyObserver, Observer, RoundView},
    protocol::{ServerCtx, SettleRule},
    workload::OnlineWorkload,
};
use clb_graph::{BipartiteGraph, ClientId};
use clb_rng::domains::{ARRIVAL_DOMAIN, PROTOCOL_DOMAIN};
use clb_rng::{RandomSource, StreamFactory};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Sentinel for "ball not yet assigned to any server".
const UNASSIGNED: u32 = u32::MAX;

/// Upper bound on the number of pieces any phase is split into. It bounds the sort's
/// histogram rows in [`RoundBuffers`] and the settle's per-piece counts, which live on
/// the stack (`[SettleCounts; MAX_INTRA_PIECES]`), so `step()` stays allocation-free
/// no matter the plan.
const MAX_INTRA_PIECES: usize = 32;

/// Minimum requests per sort piece; below this the histogram passes run serially.
const MIN_SORT_PIECE: usize = 1 << 14;

/// Minimum servers per phase-2/census piece.
const MIN_SERVER_PIECE: usize = 1 << 12;

/// Minimum servers per phase-2 piece when a [`DecideHook`] wraps the rule: a hooked
/// decision derives its own random streams, so it costs enough to split finer.
///
/// [`DecideHook`]: crate::DecideHook
const MIN_HOOKED_SERVER_PIECE: usize = 1 << 9;

/// Minimum ball slots per phase-3 piece.
const MIN_SLOT_PIECE: usize = 1 << 14;

/// The chunk length that tiles `len` items into at most `pieces` contiguous chunks.
/// Never 0, so an empty round yields no chunks at all.
fn chunk_len(len: usize, pieces: usize) -> usize {
    len.div_ceil(pieces.max(1)).max(1)
}

/// How many pieces each phase of a round is split into.
///
/// Derived per round from that round's live sizes only — **never** the thread count —
/// so the piece boundaries (and every per-piece intermediate) are identical whether
/// the pieces run on one core or sixteen. Different plans also produce bit-identical
/// results (the merges are in piece-index order and the per-(ball, round) RNG streams
/// make work order irrelevant); `intra_step_pieces_do_not_change_results` pins that,
/// on inputs whose plan changes between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PiecePlan {
    /// Pieces for the three-pass request sort (contiguous request ranges).
    sort: usize,
    /// Pieces for the sort combine and the census (server ranges). Phase 2 sizes its
    /// own server ranges, since only it can see whether a hook is attached (see
    /// [`decide_pieces`]).
    server: usize,
    /// Pieces for phase 3 settling (contiguous ball-slot ranges).
    slot: usize,
}

impl PiecePlan {
    /// The plan for a round carrying `requests` requests from `balls` alive balls, or
    /// `over` pieces for every phase when the builder forced a count. Every count is
    /// monotone in the sizes, so the plan for a run's largest possible round bounds
    /// every round's plan.
    fn for_sizes(requests: usize, num_servers: usize, balls: usize, over: Option<usize>) -> Self {
        if let Some(pieces) = over {
            let pieces = pieces.clamp(1, MAX_INTRA_PIECES);
            return Self {
                sort: pieces,
                server: pieces,
                slot: pieces,
            };
        }
        // The parallel sort costs an extra O(sort · S) combine; capping the piece
        // count by R / 4S keeps that overhead under a quarter of the O(R) pass, and
        // drops to a single piece (the fused serial sort) when servers rival requests.
        let sort = (requests / MIN_SORT_PIECE)
            .min(requests / (4 * num_servers.max(1)))
            .clamp(1, MAX_INTRA_PIECES);
        let server = (num_servers / MIN_SERVER_PIECE).clamp(1, MAX_INTRA_PIECES);
        let slot = (balls / MIN_SLOT_PIECE).clamp(1, MAX_INTRA_PIECES);
        Self { sort, server, slot }
    }
}

/// Checks that a round's request count (`alive × choices`) fits the engine's 32-bit
/// request indexing and returns it.
///
/// Request indices are stored as `u32` in the sort buffers (and were packed into the
/// low 32 bits of the sort keys before the counting-sort rewrite), so a round may
/// carry at most `u32::MAX` requests. The guard panics with a diagnosable message
/// instead of silently corrupting indices.
fn checked_request_count(alive: usize, choices: u32) -> usize {
    match alive.checked_mul(choices as usize) {
        Some(total) if total <= u32::MAX as usize => total,
        _ => panic!(
            "request count overflow: {alive} alive balls x {choices} choices per round \
             exceeds the engine's 2^32 - 1 requests-per-round limit; reduce the demand, \
             the ball count or the protocol's choices_per_round()"
        ),
    }
}

/// Reusable per-round scratch space, hoisted out of the hot loop.
///
/// Everything a round touches lives here, sized once in [`SimulationBuilder::build`]
/// for the run's largest round, so a batch round never touches the allocator. An
/// online round rarely does: its departure calendar recycles each drained slot's
/// buffer into the next slot it grows, so it allocates only when its horizon outgrows
/// the calendar's capacity or a slot outgrows its recycled buffer. The
/// request-indexed buffers are built at full capacity and *sliced* to the live
/// request count each round — no `clear()`/`resize()` zero-fill, because the
/// covering passes overwrite every slot they later read (the invariants are stated
/// at each use site).
struct RoundBuffers {
    /// Phase-1 picks in a flat slot-major layout: entry `slot * choices + k` is the
    /// destination server of the k-th pick of the ball at `alive_balls[slot]`.
    request_server: Vec<u32>,
    /// Rank of each request within its destination server's segment, counting requests
    /// in ascending request-index order — the position the former explicit counting
    /// sort would have scattered it to, minus the segment base. A request is accepted
    /// iff `request_rank < accept_count[server]`.
    request_rank: Vec<u32>,
    /// Requests each server received this round (read by observers via [`RoundView`]).
    requests_per_server: Vec<u32>,
    /// Requests each server accepted this round. Entries for servers with zero
    /// incoming requests are stale from earlier rounds; phase 3 only consults servers
    /// that received at least one request this round.
    accept_count: Vec<u32>,
    /// Per-server closed census at the end of the round (read by observers).
    closed: Vec<bool>,
    /// Double-buffer swapped with `Simulation::alive_balls` at the end of phase 3.
    alive_next: Vec<u32>,
    /// Per-piece settle scratch (phase 3), `choices` entries per ball slot: each
    /// piece's chunk holds its survivors first, then its released servers. Survivors
    /// are concatenated into `alive_next` in piece-index order after the join; online,
    /// each piece's prefix then holds its settled balls' service times.
    alive_scratch: Vec<u32>,
    /// Per-piece settled balls (phase 3), packed `(ball << 32) | server`, applied to
    /// `ball_assigned` after the join.
    assigned_scratch: Vec<u64>,
    /// Per-server tally that a round's departures and surplus releases each count
    /// into and [`drain_server_tally`] empties again, so it is all-zero between uses.
    /// Empty unless `choices > 1` or an online workload is attached.
    server_tally: Vec<u32>,
    /// Ascending `(server, total)` pairs drained from `server_tally`: the one shape
    /// `erased_depart` and `erased_release` take. Holds at most one entry per server,
    /// so its build-time capacity is never exceeded.
    server_totals: Vec<(u32, u32)>,
    /// Per-piece server histograms for the parallel sort, piece-major
    /// (`piece_hist[k * S + s]`); a round with `sort` pieces uses the first
    /// `sort * S` entries. Empty when no round can have more than one sort piece.
    piece_hist: Vec<u32>,
    /// Exclusive prefix offsets for the parallel sort, server-major
    /// (`piece_off[s * sort + k]` = requests for server `s` in pieces `< k`), in the
    /// same first `sort * S` entries. Empty when `piece_hist` is.
    piece_off: Vec<u32>,
    /// The builder's `intra_step_pieces` override. Without one, every round takes
    /// [`PiecePlan::for_sizes`] of its own request and alive-ball counts.
    forced_pieces: Option<usize>,
}

impl RoundBuffers {
    /// Sizes every buffer for the run's largest round: all `total_balls` alive at
    /// once, each sending `choices` requests. `tallies` asks for the server tally.
    fn new(
        num_servers: usize,
        total_balls: usize,
        choices: u32,
        tallies: bool,
        forced_pieces: Option<usize>,
    ) -> Self {
        let request_capacity = checked_request_count(total_balls, choices);
        let largest =
            PiecePlan::for_sizes(request_capacity, num_servers, total_balls, forced_pieces);
        let sort_cells = if largest.sort > 1 {
            largest.sort * num_servers
        } else {
            0
        };
        Self {
            request_server: vec![0; request_capacity],
            request_rank: vec![0; request_capacity],
            requests_per_server: vec![0; num_servers],
            accept_count: vec![0; num_servers],
            closed: vec![false; num_servers],
            alive_next: Vec::with_capacity(total_balls),
            alive_scratch: vec![0; request_capacity],
            assigned_scratch: vec![0; total_balls],
            server_tally: if tallies {
                vec![0; num_servers]
            } else {
                Vec::new()
            },
            server_totals: Vec::with_capacity(if tallies { num_servers } else { 0 }),
            piece_hist: vec![0; sort_cells],
            piece_off: vec![0; sort_cells],
            forced_pieces,
        }
    }
}

/// Drains a per-server tally into ascending `(server, count)` totals in one pass over
/// the servers, subtracting each count from its server's load and leaving the tally
/// all-zero. Departures and surplus releases both reach the protocol through it, one
/// entry per server in ascending order, whatever order they were counted in.
fn drain_server_tally(tally: &mut [u32], loads: &mut [u32], totals: &mut Vec<(u32, u32)>) {
    totals.clear();
    for (server, (count, load)) in tally.iter_mut().zip(loads).enumerate() {
        if *count != 0 {
            *load -= *count;
            totals.push((server as u32, std::mem::take(count)));
        }
    }
}

/// Per-round summary statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round number (starting at 1).
    pub round: u32,
    /// Requests submitted by clients in this round.
    pub requests_sent: u64,
    /// Balls that settled (were accepted and kept) in this round.
    pub balls_assigned: u64,
    /// Balls still alive after this round.
    pub alive_after: u64,
    /// Messages exchanged in this round (requests + accept/reject answers).
    pub messages: u64,
    /// Servers that are closed (burned / saturated) at the end of this round.
    pub closed_servers: u64,
    /// Maximum server load at the end of this round.
    pub max_load: u32,
    /// Balls injected by the online workload at the start of this round (0 in batch
    /// mode, where every ball is present from round 1).
    pub arrivals: u64,
    /// Balls whose service time elapsed at the start of this round (0 in batch mode,
    /// where settled balls occupy their server forever).
    pub departures: u64,
    /// Balls occupying a server at the end of this round. In batch mode this is the
    /// cumulative number of settled balls; online it is the in-system service load.
    pub in_service_after: u64,
}

/// Final outcome of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunResult {
    /// True if every ball was assigned within the round cap (online: and no arrivals
    /// remain to be injected).
    pub completed: bool,
    /// True if the run stopped because it reached the round cap with work left —
    /// the complement of `completed` *for a finished run*. Distinguishing "drained"
    /// from "truncated at the horizon" matters for online workloads, which routinely
    /// run to the cap by design: a stability verdict read off a truncated run is
    /// only meaningful because this flag says the truncation happened.
    pub hit_round_cap: bool,
    /// Rounds executed.
    pub rounds: u32,
    /// Total messages exchanged (the paper's work complexity).
    ///
    /// **Accounting convention:** every submitted request counts two messages — the
    /// request itself and the server's accept/reject answer — so this is always
    /// `2 · Σ_t (requests sent in round t)`. Phase-3 surplus releases (a ball that had
    /// several accepted choices telling the losing servers it settled elsewhere, only
    /// possible when `choices_per_round() > 1`) are **excluded**: the paper's model M
    /// protocols are single-choice, its work complexity counts request/answer pairs
    /// (Section 2.1), and keeping the k-choice baselines on the same ledger keeps
    /// their work figures comparable. `exp_work_complexity` asserts this identity on a
    /// real k-choice run.
    pub total_messages: u64,
    /// Maximum server load at the end of the run.
    pub max_load: u32,
    /// Balls left unassigned (0 when `completed`).
    pub unassigned_balls: u64,
    /// Total number of balls in the system.
    pub total_balls: u64,
    /// Servers that are closed (burned / saturated) at the end of the run — the
    /// absolute counterpart of the paper's `S_t` fraction.
    pub closed_servers: u64,
}

impl RunResult {
    /// Work normalised by the number of balls: `total_messages / total_balls`.
    /// Theorem 1 predicts this stays `O(1)` for SAER on admissible graphs.
    pub fn work_per_ball(&self) -> f64 {
        if self.total_balls == 0 {
            return 0.0;
        }
        self.total_messages as f64 / self.total_balls as f64
    }
}

// ---------------------------------------------------------------------------
// The three-pass parallel counting sort (rank form).
//
// Pass A (per request piece): count requests per server into the piece's own
// histogram row and record each request's rank *within its piece*.
// Pass B (per server range): turn the piece-major histogram matrix into server-major
// exclusive prefix offsets and per-server totals.
// Pass C (per request piece): rebase each piece-local rank by its piece's offset for
// the request's server, yielding the global within-segment rank.
//
// Ranks count requests in (piece index, within-piece index) order = ascending global
// request index, so `segment_base[s] + rank` reproduces the former stable counting
// sort's scatter positions exactly (`parallel_rank_sort_matches_serial_permutation`
// pins this against the reference permutation).
// ---------------------------------------------------------------------------

/// Pass A over one request range; also the whole serial sort when called with the
/// full range and `requests_per_server` as the histogram row.
fn sort_pass_histogram(request_server: &[u32], rank: &mut [u32], hist_row: &mut [u32]) {
    hist_row.fill(0);
    for (rank_slot, &server) in rank.iter_mut().zip(request_server) {
        let count = &mut hist_row[server as usize];
        *rank_slot = *count;
        *count += 1;
    }
}

/// Pass B over one server range: exclusive prefix over pieces per server, plus the
/// per-server totals phase 2 and the observers read.
fn sort_pass_combine(
    hist: &[u32],
    num_servers: usize,
    server_lo: usize,
    off: &mut [u32],
    totals: &mut [u32],
) {
    let pieces = hist.len() / num_servers;
    for (i, total) in totals.iter_mut().enumerate() {
        let server = server_lo + i;
        let mut acc = 0u32;
        for k in 0..pieces {
            off[i * pieces + k] = acc;
            acc += hist[k * num_servers + server];
        }
        *total = acc;
    }
}

/// Pass C over one request range: piece-local rank → global within-segment rank.
fn sort_pass_rebase(
    request_server: &[u32],
    rank: &mut [u32],
    off: &[u32],
    piece: usize,
    pieces: usize,
) {
    for (rank_slot, &server) in rank.iter_mut().zip(request_server) {
        *rank_slot += off[server as usize * pieces + piece];
    }
}

/// Phase-3 per-piece output tallies.
#[derive(Debug, Clone, Copy, Default)]
struct SettleCounts {
    alive: u32,
    assigned: u32,
    released: u32,
}

/// Phase-3 piece: one contiguous ball-slot range writing into its own scratch.
struct SettlePiece<'a> {
    slots: &'a [u32],
    alive_out: &'a mut [u32],
    assigned_out: &'a mut [u64],
    release_out: &'a mut [u32],
}

impl SettlePiece<'_> {
    /// Settles every ball in this piece's slot range, whose requests are the
    /// `choices · slots` entries of `request_server` / `request_rank`; surplus accepts
    /// are recorded for the post-join release aggregation, survivors go to `alive_out`
    /// in slot order.
    ///
    /// Under [`SettleRule::FirstAccepted`] the first accepted choice wins
    /// (`rank < accept_count`). Under [`SettleRule::LeastLoaded`] the accepted choice
    /// with the smallest `(post-decision load, server index)` wins; `loads` is the
    /// phase-2 output snapshot, identical for every piece, so the pick is a pure
    /// function of the round's decisions — never of piece or thread scheduling.
    fn run(
        &mut self,
        choices: usize,
        rule: SettleRule,
        request_server: &[u32],
        request_rank: &[u32],
        accept_count: &[u32],
        loads: &[u32],
    ) -> SettleCounts {
        let mut alive = 0usize;
        let mut assigned = 0usize;
        let mut released = 0usize;
        for (i, &ball) in self.slots.iter().enumerate() {
            let base = i * choices;
            // Pick the winning accepted request, if any. `accept_count[server]` is
            // fresh for every request's server: that server received at least one
            // request this round (this one), so phase 2 visited it.
            let mut winner: Option<usize> = None;
            for idx in base..base + choices {
                let server = request_server[idx];
                if request_rank[idx] >= accept_count[server as usize] {
                    continue;
                }
                winner = Some(match (winner, rule) {
                    (None, _) => idx,
                    (Some(best), SettleRule::FirstAccepted) => best,
                    (Some(best), SettleRule::LeastLoaded) => {
                        let best_server = request_server[best];
                        let key = (loads[server as usize], server);
                        if key < (loads[best_server as usize], best_server) {
                            idx
                        } else {
                            best
                        }
                    }
                });
            }
            // Every accepted request except the winner is a surplus accept: the
            // server bumped its load for it in phase 2, so it must be released.
            if let Some(winner) = winner {
                for idx in base..base + choices {
                    if idx == winner {
                        continue;
                    }
                    let server = request_server[idx];
                    if request_rank[idx] < accept_count[server as usize] {
                        self.release_out[released] = server;
                        released += 1;
                    }
                }
                let server = request_server[winner];
                self.assigned_out[assigned] = (u64::from(ball) << 32) | u64::from(server);
                assigned += 1;
            } else {
                self.alive_out[alive] = ball;
                alive += 1;
            }
        }
        SettleCounts {
            alive: alive as u32,
            assigned: assigned as u32,
            released: released as u32,
        }
    }
}

/// Phase 2 over contiguous server chunks, the kernel behind
/// [`ErasedProtocol::erased_decide`]: `rule` decides for every server with incoming
/// requests, in ascending order within a chunk. Each decision touches only its own
/// server's state, load and accept count, so the chunks are disjoint.
///
/// The chunks are the forced piece count if the builder set one, else one per
/// [`MIN_SERVER_PIECE`] servers, or per [`MIN_HOOKED_SERVER_PIECE`] when a hook is
/// attached: a function of the server count and the hook alone, never of the thread
/// count. A hook keys its draws by `(server, round)`, so no chunking changes a result.
pub(crate) fn decide_pieces<S: Send>(
    states: &mut [S],
    phase: DecidePhase<'_>,
    rule: impl Fn(&mut S, &ServerCtx) -> u32 + Sync,
) {
    let round = phase.round;
    let min_piece = if phase.hook.is_some() {
        MIN_HOOKED_SERVER_PIECE
    } else {
        MIN_SERVER_PIECE
    };
    let pieces = phase
        .pieces
        .unwrap_or(phase.incoming.len() / min_piece)
        .clamp(1, MAX_INTRA_PIECES);
    let chunk = chunk_len(phase.incoming.len(), pieces);
    states
        .par_chunks_mut(chunk)
        .zip(phase.loads.par_chunks_mut(chunk))
        .zip(phase.accept.par_chunks_mut(chunk))
        .zip(phase.incoming.par_chunks(chunk))
        .enumerate()
        .for_each(|(k, (((states, loads), accept), incoming))| {
            for (i, &incoming) in incoming.iter().enumerate() {
                if incoming == 0 {
                    continue;
                }
                let ctx = ServerCtx {
                    server: (k * chunk + i) as u32,
                    round,
                    current_load: loads[i],
                    incoming,
                };
                let accepted = rule(&mut states[i], &ctx).min(incoming);
                loads[i] += accepted;
                accept[i] = accepted;
            }
        });
}

/// The census over contiguous server chunks, the kernel behind
/// [`ErasedProtocol::erased_census`]: closed flags, closed count and max load in one
/// pass. Each chunk folds its count and maximum into two atomics; integer sum and max
/// commute, so the totals do not depend on which chunk finishes first.
pub(crate) fn census_pieces<S: Sync>(
    states: &[S],
    loads: &[u32],
    closed: &mut [bool],
    pieces: usize,
    is_closed: impl Fn(&S, u32) -> bool + Sync,
) -> (u64, u32) {
    let chunk = chunk_len(loads.len(), pieces);
    let closed_count = AtomicU64::new(0);
    let max_load = AtomicU32::new(0);
    states
        .par_chunks(chunk)
        .zip(loads.par_chunks(chunk))
        .zip(closed.par_chunks_mut(chunk))
        .for_each(|((states, loads), closed)| {
            let mut count = 0u64;
            let mut max = 0u32;
            for ((flag, state), &load) in closed.iter_mut().zip(states).zip(loads) {
                let closed = is_closed(state, load);
                *flag = closed;
                count += u64::from(closed);
                max = max.max(load);
            }
            // Relaxed suffices: the totals are read only after the drive has joined.
            closed_count.fetch_add(count, Ordering::Relaxed);
            max_load.fetch_max(max, Ordering::Relaxed);
        });
    (closed_count.into_inner(), max_load.into_inner())
}

/// Fluent constructor for [`Simulation`], obtained from [`Simulation::builder`].
///
/// The graph and the protocol are required; demand defaults to `Constant(1)`, the seed
/// to 0 and the round cap to [`SimConfig::DEFAULT_MAX_ROUNDS`]. Observers attached here
/// are owned by the simulation, invoked after every round, and can be read back with
/// [`Simulation::observer`] once the run is over.
///
/// ```
/// use clb_engine::{Demand, MaxLoadObserver, Simulation};
/// # use clb_engine::protocol::{Protocol, ServerCtx};
/// # struct AcceptAll;
/// # impl Protocol for AcceptAll {
/// #     type ServerState = ();
/// #     fn init_server(&self) {}
/// #     fn server_decide(&self, _: &mut (), ctx: &ServerCtx) -> u32 { ctx.incoming }
/// #     fn server_is_closed(&self, _: &(), _: u32) -> bool { false }
/// # }
/// let graph = clb_graph::generators::regular_random(32, 8, 1).unwrap();
/// let mut sim = Simulation::builder(&graph)
///     .protocol(AcceptAll)
///     .demand(Demand::Constant(2))
///     .seed(42)
///     .max_rounds(600)
///     .observer(MaxLoadObserver::new())
///     .build();
/// let result = sim.run();
/// assert_eq!(sim.observer::<MaxLoadObserver>().unwrap().max_load, result.max_load);
/// ```
pub struct SimulationBuilder<'g> {
    graph: &'g BipartiteGraph,
    protocol: Option<Box<dyn ErasedProtocol>>,
    demand: Demand,
    config: SimConfig,
    observers: Vec<Box<dyn AnyObserver + Send>>,
    intra_pieces: Option<usize>,
    workload: Option<OnlineWorkload>,
}

impl<'g> SimulationBuilder<'g> {
    fn new(graph: &'g BipartiteGraph) -> Self {
        Self {
            graph,
            protocol: None,
            demand: Demand::Constant(1),
            config: SimConfig::default(),
            observers: Vec::new(),
            intra_pieces: None,
            workload: None,
        }
    }

    /// Sets the protocol (required): a concrete [`Protocol`](crate::Protocol), or a
    /// `Box<dyn ErasedProtocol>` chosen at runtime.
    pub fn protocol(mut self, protocol: impl Into<Box<dyn ErasedProtocol>>) -> Self {
        self.protocol = Some(protocol.into());
        self
    }

    /// Sets the per-client demand (default: one ball per client).
    pub fn demand(mut self, demand: Demand) -> Self {
        self.demand = demand;
        self
    }

    /// Sets the experiment seed (default: 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the round cap (default: [`SimConfig::DEFAULT_MAX_ROUNDS`]).
    pub fn max_rounds(mut self, max_rounds: u32) -> Self {
        self.config.max_rounds = max_rounds;
        self
    }

    /// Replaces the whole simulation config (seed + round cap) at once.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the intra-round piece plan (clamped to `1..=32` pieces for every
    /// phase, in every round). Each round normally derives its plan from its own live
    /// request and ball counts, so small rounds run the fused serial path; this
    /// override forces the parallel code paths regardless of size. Results are
    /// **bit-identical for every setting** —
    /// the override exists so tests and benchmarks can exercise the parallel path on
    /// instances small enough to check exhaustively.
    pub fn intra_step_pieces(mut self, pieces: usize) -> Self {
        self.intra_pieces = Some(pieces);
        self
    }

    /// Attaches an owned observer, invoked after every round; read it back after the
    /// run with [`Simulation::observer`]. Observers are `Send` so a built simulation
    /// can move onto a pool worker whole (the scenario grid runs trials that way).
    pub fn observer(mut self, observer: impl Observer + Any + Send) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Attaches an online workload: balls arrive at round boundaries per the arrival
    /// process and depart after their sampled service time (see [`OnlineWorkload`]).
    /// The demand still seeds the system with an initial batch (use
    /// `Demand::Constant(0)` for a pure open system). Without a workload, the
    /// simulation runs the paper's batch semantics, bit-for-bit unchanged.
    pub fn workload(mut self, workload: OnlineWorkload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Builds the simulation.
    ///
    /// # Panics
    /// Panics if no protocol was set, if a client with a non-empty demand has an empty
    /// neighbourhood (its balls could never be placed, so the run would trivially never
    /// complete), if the demand is inconsistent with the graph (see
    /// [`Demand::materialize`]), if the demand or the online workload exceeds the
    /// engine's 2^32 - 1 ball ids, or if the system is vacuous — zero demand and no
    /// online workload supplying arrivals.
    pub fn build(self) -> Simulation<'g> {
        let protocol = self
            .protocol
            .expect("SimulationBuilder: a protocol is required");
        let graph = self.graph;
        let config = self.config;
        let n = graph.num_clients();
        let per_client = self.demand.materialize(n, config.seed);
        let mut ball_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        ball_offsets.push(0);
        for (c, &balls) in per_client.iter().enumerate() {
            if balls > 0 {
                assert!(
                    graph.client_degree(ClientId::new(c)) > 0,
                    "client {c} has {balls} balls but no admissible server"
                );
            }
            acc = acc.checked_add(balls).unwrap_or_else(|| {
                panic!("demand overflows the engine's 2^32 - 1 ball-id limit at client {c}")
            });
            ball_offsets.push(acc);
        }
        let initial_balls = acc as usize;

        // Online workload: materialize the whole arrival schedule and every arriving
        // ball's owner up front. Ball ids, owners and per-round counts become pure
        // functions of `(seed, workload)` fixed before the first round runs, and the
        // per-ball arrays can be sized once for the system's lifetime total.
        let online = self.workload.map(|workload| {
            if let Err(msg) = workload.validate() {
                panic!("SimulationBuilder: invalid online workload: {msg}");
            }
            let arrivals_per_round = workload.arrivals_per_round(config.seed);
            let total_arrivals: u64 = arrivals_per_round.iter().map(|&c| u64::from(c)).sum();
            let capacity = (initial_balls as u64).checked_add(total_arrivals);
            let capacity = match capacity {
                Some(c) if c <= u64::from(u32::MAX) => c as usize,
                _ => panic!(
                    "online workload overflows the engine's 2^32 - 1 ball-id limit: \
                     {initial_balls} initial balls + {total_arrivals} arrivals"
                ),
            };
            let mut birth_round = vec![1u32; initial_balls];
            birth_round.resize(capacity, 0);
            OnlineState {
                workload,
                arrivals_per_round,
                total_arrivals,
                injected: 0,
                next_ball: initial_balls as u32,
                birth_round,
                settle_round: vec![0; capacity],
                depart_calendar: Vec::new(),
                spare_slots: Vec::new(),
            }
        });
        let total_balls = online
            .as_ref()
            .map_or(initial_balls, |online| online.settle_round.len());
        let mut ball_owner = vec![0u32; total_balls];
        for c in 0..n {
            for b in ball_offsets[c]..ball_offsets[c + 1] {
                ball_owner[b as usize] = c as u32;
            }
        }
        if let Some(online) = &online {
            let eligible: Vec<u32> = (0..n)
                .filter(|&c| graph.client_degree(ClientId::new(c)) > 0)
                .map(|c| c as u32)
                .collect();
            assert!(
                online.total_arrivals == 0 || !eligible.is_empty(),
                "online workload has arrivals but no client has an admissible server"
            );
            // One `ARRIVAL_DOMAIN` stream per arriving ball, keyed `(ball, 1)`, so the
            // owners are the same whichever worker draws them.
            let owners = StreamFactory::new(config.seed).domain(ARRIVAL_DOMAIN);
            ball_owner[initial_balls..]
                .par_iter_mut()
                .enumerate()
                .for_each(|(i, owner)| {
                    let mut rng = owners.stream((initial_balls + i) as u64, 1);
                    *owner = eligible[rng.gen_index(eligible.len())];
                });
        }

        assert!(
            total_balls > 0,
            "simulation has no balls: the demand is zero and no online workload supplies arrivals"
        );
        let server_states = protocol.erased_init_states(graph.num_servers());
        let choices = protocol.erased_choices_per_round().max(1);
        let mut buffers = RoundBuffers::new(
            graph.num_servers(),
            total_balls,
            choices,
            choices > 1 || online.is_some(),
            self.intra_pieces,
        );
        let server_load = vec![0; graph.num_servers()];
        // The census of the fresh states is what `result()` reports before round 1.
        let (last_closed_servers, last_max_load) = protocol.erased_census(
            &*server_states,
            &server_load,
            &mut buffers.closed,
            PiecePlan::for_sizes(0, graph.num_servers(), 0, self.intra_pieces).server,
        );
        Simulation {
            graph,
            choices,
            settle_rule: protocol.erased_settle_rule(),
            protocol,
            config,
            factory: StreamFactory::new(config.seed).domain(PROTOCOL_DOMAIN),
            ball_offsets,
            ball_owner,
            ball_assigned: vec![UNASSIGNED; total_balls],
            server_load,
            server_states,
            round: 0,
            alive_balls: (0..initial_balls as u32).collect(),
            total_messages: 0,
            last_closed_servers,
            last_max_load,
            in_service: 0,
            online,
            buffers,
            observers: self.observers,
        }
    }
}

/// Mutable bookkeeping for an online workload (present iff one was attached).
///
/// The arrival schedule and every arriving ball's owner are drawn at build, and each
/// ball's service time when it settles, from a stream keyed by its id: all are pure
/// functions of `(seed, workload)`. This struct only tracks *progress* through that
/// script plus the per-ball birth/settle rounds the latency accounting needs.
struct OnlineState {
    workload: OnlineWorkload,
    /// Balls arriving at the start of round `t` (index `t - 1`); fixed at build.
    arrivals_per_round: Vec<u32>,
    /// Sum of `arrivals_per_round`, cached.
    total_arrivals: u64,
    /// Arrivals injected so far; the run is over when this reaches `total_arrivals`
    /// and the alive list is drained.
    injected: u64,
    /// First not-yet-injected ball id (arriving balls get ids after the initial batch).
    next_ball: u32,
    /// Round each ball entered the system (1 for the initial batch, the arrival round
    /// for online balls, 0 = not yet arrived).
    birth_round: Vec<u32>,
    /// Round each ball settled (0 = not yet settled). Latency of a settled ball is
    /// `settle_round - birth_round + 1`.
    settle_round: Vec<u32>,
    /// `depart_calendar[t]` holds the server of every ball departing at the start of
    /// round `t`, one entry per ball. The entries are counted into the per-server
    /// tally and drained into ascending per-server totals, so their push order never
    /// matters.
    depart_calendar: Vec<Vec<u32>>,
    /// Buffers of drained calendar slots, cleared, each waiting to become the next
    /// slot the calendar grows, so a steady run stops reallocating its slots.
    spare_slots: Vec<Vec<u32>>,
}

/// A protocol run on a fixed graph: owns all mutable state of the process.
///
/// Constructed with [`Simulation::builder`]. The protocol is held as a
/// `Box<dyn ErasedProtocol>` and driven through its per-phase core (see
/// [`crate::erased`]), whether the builder was given a concrete [`Protocol`] or a
/// runtime-chosen box.
///
/// [`Protocol`]: crate::Protocol
pub struct Simulation<'g> {
    graph: &'g BipartiteGraph,
    protocol: Box<dyn ErasedProtocol>,
    // The protocol's choices per round (at least 1) and settle rule, fixed at build:
    // the round buffers are sized for this choice count.
    choices: u32,
    settle_rule: SettleRule,
    config: SimConfig,
    factory: StreamFactory,

    // Ball layout: balls of client `c` occupy indices `ball_offsets[c]..ball_offsets[c+1]`.
    ball_offsets: Vec<u32>,
    ball_owner: Vec<u32>,
    ball_assigned: Vec<u32>,

    server_load: Vec<u32>,
    server_states: ServerStates,

    round: u32,
    alive_balls: Vec<u32>,
    total_messages: u64,

    // The last census (closed count, max load): the round's, or the build's before
    // round 1, so `result()` never re-scans the servers.
    last_closed_servers: u64,
    last_max_load: u32,

    // Balls currently occupying a server (settled, not yet departed). In batch mode
    // departures never happen, so this is the cumulative settled count.
    in_service: u64,
    online: Option<OnlineState>,

    buffers: RoundBuffers,
    observers: Vec<Box<dyn AnyObserver + Send>>,
}

impl<'g> Simulation<'g> {
    /// Starts building a simulation on `graph`.
    pub fn builder(graph: &'g BipartiteGraph) -> SimulationBuilder<'g> {
        SimulationBuilder::new(graph)
    }

    /// The graph the simulation runs on.
    pub fn graph(&self) -> &BipartiteGraph {
        self.graph
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &dyn ErasedProtocol {
        &*self.protocol
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Number of balls not yet assigned.
    pub fn alive_count(&self) -> u64 {
        self.alive_balls.len() as u64
    }

    /// Total number of balls in the system.
    pub fn total_balls(&self) -> u64 {
        self.ball_owner.len() as u64
    }

    /// True if every ball has been assigned and (online) no arrivals remain.
    pub fn is_complete(&self) -> bool {
        self.alive_balls.is_empty() && self.pending_arrivals() == 0
    }

    /// Balls the online workload has not injected yet (0 in batch mode).
    pub fn pending_arrivals(&self) -> u64 {
        self.online
            .as_ref()
            .map_or(0, |o| o.total_arrivals - o.injected)
    }

    /// Balls currently occupying a server (settled and not yet departed). In batch
    /// mode this is the cumulative settled count.
    pub fn in_service(&self) -> u64 {
        self.in_service
    }

    /// Per-ball settle latencies (`settle_round - birth_round + 1`) for every ball
    /// settled so far, in ball-id order. `None` unless an online workload is attached
    /// (batch mode does not track per-ball birth/settle rounds).
    pub fn settle_latencies(&self) -> Option<Vec<u32>> {
        let online = self.online.as_ref()?;
        Some(
            online
                .settle_round
                .iter()
                .zip(&online.birth_round)
                .filter(|&(&settle, _)| settle != 0)
                .map(|(&settle, &birth)| settle - birth + 1)
                .collect(),
        )
    }

    /// Current load of every server.
    pub fn server_loads(&self) -> &[u32] {
        &self.server_load
    }

    /// Per-server protocol states (e.g. to inspect burned flags after a run), or
    /// `None` if the protocol's `ServerState` type is not `S`. A fault-wrapped run
    /// exposes its inner protocol's states.
    pub fn server_states<S: Any>(&self) -> Option<&[S]> {
        self.server_states
            .downcast_ref::<Vec<S>>()
            .map(Vec::as_slice)
    }

    /// Borrows the first builder-attached observer of concrete type `T`, if any.
    pub fn observer<T: Observer + Any>(&self) -> Option<&T> {
        self.observers
            .iter()
            .find_map(|o| (**o).as_any().downcast_ref::<T>())
    }

    /// The servers assigned to the balls of `client`, one entry per ball;
    /// `None` for balls still alive.
    pub fn client_assignment(&self, client: ClientId) -> Vec<Option<u32>> {
        let lo = self.ball_offsets[client.index()] as usize;
        let hi = self.ball_offsets[client.index() + 1] as usize;
        self.ball_assigned[lo..hi]
            .iter()
            .map(|&s| if s == UNASSIGNED { None } else { Some(s) })
            .collect()
    }

    /// Executes one round and returns its summary record. Builder-attached observers
    /// see the round exactly as they would under [`Simulation::run`].
    pub fn step(&mut self) -> RoundRecord {
        let record = self.step_internal();
        self.notify_observers(&record, &mut []);
        record
    }

    /// Executes rounds until completion or the round cap, notifying builder-attached
    /// observers after each round.
    pub fn run(&mut self) -> RunResult {
        self.run_observed(&mut [])
    }

    /// Executes rounds until completion or the round cap, invoking builder-attached
    /// observers and then every borrowed observer after each round.
    pub fn run_observed(&mut self, observers: &mut [&mut dyn Observer]) -> RunResult {
        while !self.is_complete() && self.round < self.config.max_rounds {
            let record = self.step_internal();
            self.notify_observers(&record, observers);
        }
        self.result()
    }

    fn notify_observers(&mut self, record: &RoundRecord, external: &mut [&mut dyn Observer]) {
        if self.observers.is_empty() && external.is_empty() {
            return;
        }
        // The view borrows the simulation's state while the owned observers need a
        // mutable borrow; detach them for the duration of the dispatch.
        let mut owned = std::mem::take(&mut self.observers);
        let view = RoundView {
            record,
            graph: self.graph,
            server_loads: &self.server_load,
            requests_per_server: &self.buffers.requests_per_server,
            closed: &self.buffers.closed,
        };
        for obs in owned.iter_mut() {
            obs.as_observer_mut().on_round(&view);
        }
        for obs in external.iter_mut() {
            obs.on_round(&view);
        }
        self.observers = owned;
    }

    /// The outcome so far (callable at any point; `completed` reflects the current
    /// alive-ball count).
    ///
    /// The closed count and max load come from the last census — the one the last
    /// round folded, or before round 1 the one `build` took of the fresh states — so
    /// this never re-scans the servers.
    pub fn result(&self) -> RunResult {
        let completed = self.is_complete();
        RunResult {
            completed,
            hit_round_cap: !completed && self.round >= self.config.max_rounds,
            rounds: self.round,
            total_messages: self.total_messages,
            max_load: self.last_max_load,
            unassigned_balls: self.alive_balls.len() as u64 + self.pending_arrivals(),
            total_balls: self.ball_owner.len() as u64,
            closed_servers: self.last_closed_servers,
        }
    }

    /// One round: phase 1 (clients submit), phase 2 (servers decide), phase 3 (balls
    /// settle), census. Every phase runs over contiguous pieces per the round's
    /// [`PiecePlan`] and merges in piece-index order; a batch round allocates nothing.
    fn step_internal(&mut self) -> RoundRecord {
        self.round += 1;
        let round = self.round;
        let num_servers = self.graph.num_servers();

        // Online round prologue — departures, then arrivals, both before any request
        // of the round is routed. Departures drain through the per-server tally into
        // ascending `(server, count)` totals, so the protocol sees at most one
        // `server_on_depart` per server, in ascending server order (the same
        // discipline as phase-3 releases); arrivals append to the alive list in
        // ascending ball-id order. Both orders are pure functions of the schedule, so
        // the prologue is trivially thread- and piece-independent.
        let mut departures = 0u64;
        let mut arrivals = 0u64;
        if let Some(online) = self.online.as_mut() {
            if let Some(slot) = online.depart_calendar.get_mut(round as usize) {
                let mut due = std::mem::take(slot);
                departures = due.len() as u64;
                let tally = &mut self.buffers.server_tally;
                for &server in &due {
                    tally[server as usize] += 1;
                }
                let totals = &mut self.buffers.server_totals;
                drain_server_tally(tally, &mut self.server_load, totals);
                self.protocol
                    .erased_depart(&mut *self.server_states, totals);
                self.in_service -= departures;
                due.clear();
                online.spare_slots.push(due);
            }
            if let Some(&count) = online.arrivals_per_round.get(round as usize - 1) {
                for _ in 0..count {
                    let ball = online.next_ball;
                    online.next_ball += 1;
                    online.birth_round[ball as usize] = round;
                    self.alive_balls.push(ball);
                }
                online.injected += u64::from(count);
                arrivals = u64::from(count);
            }
        }

        let choices = self.choices;
        let per_ball = choices as usize;
        let rule = self.settle_rule;
        let graph = self.graph;
        let factory = self.factory;
        let ball_owner = &self.ball_owner;
        let alive = self.alive_balls.len();
        let total_requests = checked_request_count(alive, choices);

        let RoundBuffers {
            request_server,
            request_rank,
            requests_per_server,
            accept_count,
            closed,
            alive_next,
            alive_scratch,
            assigned_scratch,
            server_tally,
            server_totals,
            piece_hist,
            piece_off,
            forced_pieces,
        } = &mut self.buffers;
        let plan = PiecePlan::for_sizes(total_requests, num_servers, alive, *forced_pieces);

        // Phase 1 — every alive ball picks `choices` destinations independently and
        // uniformly at random (with replacement) from its owner's neighbourhood,
        // written straight into the flat slot-major request buffer. Parallel over
        // balls; the per-(ball, round) stream keeps it deterministic.
        //
        // Covering invariant: the buffer is sliced, never zeroed — the slice holds
        // exactly `alive` chunks of `choices` slots, the zip pairs every chunk with an
        // alive ball, and the inner loop writes every slot of its chunk. Stale tail
        // entries beyond `total_requests` are never read.
        request_server[..total_requests]
            .par_chunks_mut(per_ball)
            .zip(self.alive_balls.par_iter())
            .for_each(|(picks, &ball)| {
                let client = ball_owner[ball as usize];
                let neigh = graph.client_neighbors(ClientId::new(client as usize));
                let mut rng = factory.stream3(client as u64, ball as u64, round as u64);
                for pick in picks {
                    *pick = neigh[rng.gen_index(neigh.len())].0;
                }
            });

        let num_requests = total_requests as u64;
        self.total_messages += 2 * num_requests;

        // Canonical server-major grouping, rank form: `request_rank[j]` becomes the
        // position of request `j` within its server's segment, counting in ascending
        // request index — the order the former explicit counting sort produced. The
        // rank buffer is sliced, never zeroed: pass A writes every slot in the slice.
        let requests = &request_server[..total_requests];
        let ranks = &mut request_rank[..total_requests];
        let chunk = chunk_len(total_requests, plan.sort);
        let rows = total_requests.div_ceil(chunk);
        if rows <= 1 {
            // Fused serial sort: one pass fills both ranks and per-server totals.
            sort_pass_histogram(requests, ranks, requests_per_server);
        } else {
            // The round's histogram rows and offsets, one row per request chunk: the
            // buffers hold enough for the largest plan, and pass B reads the row count
            // off the slice length.
            let piece_hist = &mut piece_hist[..rows * num_servers];
            let piece_off = &mut piece_off[..rows * num_servers];
            // Pass A — per-chunk histograms + chunk-local ranks.
            requests
                .par_chunks(chunk)
                .zip(ranks.par_chunks_mut(chunk))
                .zip(piece_hist.par_chunks_mut(num_servers))
                .for_each(|((requests, ranks), row)| sort_pass_histogram(requests, ranks, row));
            // Pass B — exclusive prefix across rows, by server chunk.
            let hist: &[u32] = piece_hist;
            let server_chunk = chunk_len(num_servers, plan.server);
            piece_off
                .par_chunks_mut(server_chunk * rows)
                .zip(requests_per_server.par_chunks_mut(server_chunk))
                .enumerate()
                .for_each(|(k, (off, totals))| {
                    sort_pass_combine(hist, num_servers, k * server_chunk, off, totals)
                });
            // Pass C — rebase chunk-local ranks to global within-segment ranks.
            let off: &[u32] = piece_off;
            requests
                .par_chunks(chunk)
                .zip(ranks.par_chunks_mut(chunk))
                .enumerate()
                .for_each(|(row, (requests, ranks))| {
                    sort_pass_rebase(requests, ranks, off, row, rows)
                });
        }
        let ranks: &[u32] = ranks;

        // Phase 2 — per-server threshold decisions over server chunks, one call into
        // the protocol (see `decide_pieces`).
        //
        // Covering invariant for `accept_count`: entries for servers with zero
        // incoming requests stay stale, and phase 3 only reads `accept_count[s]` for
        // `s = request_server[idx]` — a server that received at least one request.
        self.protocol.erased_decide(
            &mut *self.server_states,
            DecidePhase {
                round,
                incoming: requests_per_server,
                loads: &mut self.server_load,
                accept: accept_count,
                pieces: *forced_pieces,
                hook: None,
            },
        );

        // Phase 3 — balls settle over ball-slot chunks, each with its own `choices`
        // requests per slot and `choices` scratch entries per slot. With a single
        // choice per round each ball has exactly one request; with k choices a ball
        // keeps the first accepted destination and surplus accepts are *recorded* per
        // piece, then aggregated into one `server_on_release` call per server, applied
        // in ascending server order after the join. Both the single-piece and the
        // many-piece plan use this exact aggregation, so the piece count can never
        // change what a protocol observes.
        let slot_chunk = chunk_len(alive, plan.slot);
        let request_chunk = slot_chunk * per_ball;
        let scratch = &mut alive_scratch[..total_requests];
        let assigned = &mut assigned_scratch[..alive];
        let mut counts = [SettleCounts::default(); MAX_INTRA_PIECES];
        // Post-decision load snapshot for the least-loaded settle rule; the same slice
        // is visible to every piece, so the pick is scheduling-independent.
        let loads_snapshot: &[u32] = &self.server_load;
        let accept_all: &[u32] = accept_count;
        self.alive_balls
            .par_chunks(slot_chunk)
            .zip(requests.par_chunks(request_chunk))
            .zip(ranks.par_chunks(request_chunk))
            .zip(scratch.par_chunks_mut(request_chunk))
            .zip(assigned.par_chunks_mut(slot_chunk))
            .zip(counts.par_iter_mut())
            .for_each(
                |(((((slots, requests), ranks), scratch), assigned_out), counts)| {
                    let (alive_out, release_out) = scratch.split_at_mut(slots.len());
                    let mut piece = SettlePiece {
                        slots,
                        alive_out,
                        assigned_out,
                        release_out,
                    };
                    *counts =
                        piece.run(per_ball, rule, requests, ranks, accept_all, loads_snapshot);
                },
            );

        // Merge in piece-index order: survivors concatenate piece-by-piece (so
        // `alive_next` is in ascending slot order, exactly the serial order).
        let mut balls_assigned = 0u64;
        alive_next.clear();
        for (scratch, counts) in scratch.chunks(request_chunk).zip(&counts) {
            alive_next.extend_from_slice(&scratch[..counts.alive as usize]);
            balls_assigned += u64::from(counts.assigned);
        }

        // Online: draw every settled ball's service time on the pool. Each draw is
        // keyed by ball id alone and lands index-addressed in the prefix of its piece's
        // scratch, dead now that the survivors are merged (a piece's slots hold its
        // survivors plus its settled balls, so the prefix is long enough and stops
        // short of the piece's releases).
        if let Some(online) = self.online.as_ref() {
            let sampler = online.workload.service_sampler(self.config.seed);
            scratch
                .par_chunks_mut(request_chunk)
                .zip(assigned.par_chunks(slot_chunk))
                .zip(counts.par_iter())
                .for_each(|((scratch, assigned), counts)| {
                    let settled = counts.assigned as usize;
                    scratch[..settled]
                        .par_iter_mut()
                        .zip(assigned[..settled].par_iter())
                        .for_each(|(service, &packed)| {
                            *service = sampler.rounds(packed >> 32);
                        });
                });
        }

        // The two remaining applications touch disjoint state (ball assignments plus
        // online settle bookkeeping vs server loads/states), so they run as the two
        // arms of a join; both walk the pieces' chunks in index order.
        let scratch: &[u32] = scratch;
        let assigned: &[u64] = assigned;
        let ball_assigned = &mut self.ball_assigned;
        let online = self.online.as_mut();
        let max_rounds = self.config.max_rounds;
        let server_load = &mut self.server_load;
        let server_states = &mut self.server_states;
        let protocol = &*self.protocol;
        let pieces = || {
            scratch
                .chunks(request_chunk)
                .zip(assigned.chunks(slot_chunk))
                .zip(&counts)
        };
        rayon::join(
            || match online {
                None => {
                    for ((_, assigned), counts) in pieces() {
                        for &packed in &assigned[..counts.assigned as usize] {
                            ball_assigned[(packed >> 32) as usize] = packed as u32;
                        }
                    }
                }
                Some(online) => {
                    // Settled balls record their latency and schedule their departure
                    // with the service time drawn above. Calendar entries are
                    // re-aggregated per server when applied, so piece order cannot
                    // leak into anything observable. A departure falling beyond the
                    // round cap is not scheduled: it could never be applied within
                    // the run, and skipping it keeps the calendar bounded by
                    // `max_rounds`.
                    for ((scratch, assigned), counts) in pieces() {
                        let settled = counts.assigned as usize;
                        for (&packed, &service) in assigned[..settled].iter().zip(scratch) {
                            let ball = (packed >> 32) as usize;
                            ball_assigned[ball] = packed as u32;
                            online.settle_round[ball] = round;
                            if let Some(due) = round.checked_add(service) {
                                if due <= max_rounds {
                                    let due = due as usize;
                                    if online.depart_calendar.len() <= due {
                                        let spare = &mut online.spare_slots;
                                        online.depart_calendar.resize_with(due + 1, || {
                                            spare.pop().unwrap_or_default()
                                        });
                                    }
                                    online.depart_calendar[due].push(packed as u32);
                                }
                            }
                        }
                    }
                }
            },
            || {
                // Count surplus releases per server (piece-index order in), drain them
                // into ascending totals and hand those to the protocol: one
                // `server_on_release` per server. A one-choice round has none.
                server_totals.clear();
                if per_ball > 1 {
                    for ((scratch, _), counts) in pieces() {
                        let releases = &scratch[scratch.len() / per_ball..];
                        for &server in &releases[..counts.released as usize] {
                            server_tally[server as usize] += 1;
                        }
                    }
                    drain_server_tally(server_tally, server_load, server_totals);
                }
                protocol.erased_release(&mut **server_states, server_totals);
            },
        );
        std::mem::swap(&mut self.alive_balls, alive_next);
        self.in_service += balls_assigned;

        // Census — closed flags, closed count and max load folded in one pass over
        // server chunks (see `census_pieces`). The fold is cached so
        // `result()` never re-scans the servers.
        let (closed_servers, max_load) = self.protocol.erased_census(
            &*self.server_states,
            &self.server_load,
            closed,
            plan.server,
        );
        self.last_closed_servers = closed_servers;
        self.last_max_load = max_load;

        RoundRecord {
            round,
            requests_sent: num_requests,
            balls_assigned,
            alive_after: self.alive_balls.len() as u64,
            messages: 2 * num_requests,
            closed_servers,
            max_load,
            arrivals,
            departures,
            in_service_after: self.in_service,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erased::erase;
    use crate::observe::MaxLoadObserver;
    use crate::protocol::Protocol;
    use clb_graph::generators;

    /// Servers accept everything: classic one-choice.
    struct AcceptAll;
    impl Protocol for AcceptAll {
        type ServerState = ();
        fn init_server(&self) {}
        fn server_decide(&self, _state: &mut (), ctx: &ServerCtx) -> u32 {
            ctx.incoming
        }
        fn server_is_closed(&self, _state: &(), _load: u32) -> bool {
            false
        }
    }

    /// Servers reject everything before `open_round`, then accept everything.
    struct OpensAt(u32);
    impl Protocol for OpensAt {
        type ServerState = ();
        fn init_server(&self) {}
        fn server_decide(&self, _state: &mut (), ctx: &ServerCtx) -> u32 {
            if ctx.round >= self.0 {
                ctx.incoming
            } else {
                0
            }
        }
        fn server_is_closed(&self, _state: &(), _load: u32) -> bool {
            false
        }
    }

    /// Capacity-1 servers contacted with two choices per ball: exercises the release path.
    struct TwoChoiceCapacityOne;
    impl Protocol for TwoChoiceCapacityOne {
        type ServerState = u32; // accepted so far (net of releases)
        fn init_server(&self) -> u32 {
            0
        }
        fn choices_per_round(&self) -> u32 {
            2
        }
        fn server_decide(&self, state: &mut u32, ctx: &ServerCtx) -> u32 {
            let take = 1u32.saturating_sub(*state).min(ctx.incoming);
            *state += take;
            take
        }
        fn server_is_closed(&self, state: &u32, _load: u32) -> bool {
            *state >= 1
        }
        fn server_on_release(&self, state: &mut u32, count: u32) {
            *state -= count;
        }
    }

    #[test]
    fn accept_all_finishes_in_one_round() {
        let g = generators::regular_random(32, 8, 1).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(3))
            .seed(5)
            .build();
        assert_eq!(sim.total_balls(), 96);
        let result = sim.run();
        assert!(result.completed);
        assert_eq!(result.rounds, 1);
        assert_eq!(result.unassigned_balls, 0);
        assert_eq!(result.total_messages, 2 * 96);
        assert_eq!(result.closed_servers, 0);
        // Every ball landed on a neighbour of its owner.
        for c in g.clients() {
            for server in sim.client_assignment(c) {
                let server = server.expect("all balls assigned");
                assert!(g.client_neighbors(c).iter().any(|s| s.0 == server));
            }
        }
        // Load conservation: total load equals total balls.
        let total_load: u32 = sim.server_loads().iter().sum();
        assert_eq!(total_load as u64, sim.total_balls());
    }

    #[test]
    fn rejections_delay_completion_and_cost_work() {
        let g = generators::regular_random(16, 4, 2).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(OpensAt(4))
            .demand(Demand::Constant(1))
            .seed(1)
            .build();
        let result = sim.run();
        assert!(result.completed);
        assert_eq!(result.rounds, 4);
        // Every ball was re-submitted in rounds 1..4: work = 2 * balls * 4.
        assert_eq!(result.total_messages, 2 * 16 * 4);
    }

    #[test]
    fn round_cap_stops_non_terminating_runs() {
        let g = generators::regular_random(8, 2, 3).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(OpensAt(u32::MAX))
            .demand(Demand::Constant(1))
            .seed(1)
            .max_rounds(7)
            .build();
        let result = sim.run();
        assert!(!result.completed);
        assert!(
            result.hit_round_cap,
            "an incomplete run that reached max_rounds must report the cap"
        );
        assert_eq!(result.rounds, 7);
        assert_eq!(result.unassigned_balls, 8);
        assert_eq!(result.max_load, 0);
    }

    #[test]
    fn completed_runs_do_not_report_the_round_cap() {
        let g = generators::regular_random(8, 2, 3).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(1))
            .seed(1)
            .max_rounds(1)
            .build();
        let result = sim.run();
        assert!(result.completed);
        assert_eq!(result.rounds, 1);
        assert!(
            !result.hit_round_cap,
            "finishing exactly at the cap is not a truncation"
        );
    }

    #[test]
    fn result_before_the_first_round_reports_the_build_census() {
        /// Servers that are closed before they see a single request.
        struct ClosedFromStart;
        impl Protocol for ClosedFromStart {
            type ServerState = ();
            fn init_server(&self) {}
            fn server_decide(&self, _state: &mut (), _ctx: &ServerCtx) -> u32 {
                0
            }
            fn server_is_closed(&self, _state: &(), _load: u32) -> bool {
                true
            }
        }
        let g = generators::regular_random(16, 4, 2).unwrap();
        let sim = Simulation::builder(&g)
            .protocol(ClosedFromStart)
            .seed(1)
            .build();
        let result = sim.result();
        assert_eq!(
            (result.rounds, result.closed_servers, result.max_load),
            (0, 16, 0)
        );
        assert!(!result.completed && !result.hit_round_cap);
    }

    #[test]
    fn step_by_step_matches_run() {
        let g = generators::regular_random(16, 4, 9).unwrap();
        let build = || {
            Simulation::builder(&g)
                .protocol(OpensAt(3))
                .demand(Demand::Constant(2))
                .seed(11)
                .build()
        };
        let mut a = build();
        let mut b = build();
        let result_a = a.run();
        let mut rounds = 0;
        while !b.is_complete() && rounds < 100 {
            let record = b.step();
            rounds += 1;
            assert_eq!(record.round, rounds);
        }
        assert_eq!(result_a, b.result());
    }

    #[test]
    fn two_choice_release_keeps_loads_consistent() {
        // 8 clients, 8 servers, capacity 1, one ball each: a perfect matching must
        // eventually emerge and no server may end with load > 1.
        let g = generators::complete(8, 8).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(TwoChoiceCapacityOne)
            .demand(Demand::Constant(1))
            .seed(3)
            .max_rounds(500)
            .build();
        let result = sim.run();
        assert!(result.completed, "matching should complete: {result:?}");
        assert!(result.max_load <= 1);
        // Every server holds exactly one ball, and holding a ball is what closes a
        // server under this protocol.
        assert_eq!(result.closed_servers, 8);
        let total_load: u32 = sim.server_loads().iter().sum();
        assert_eq!(total_load, 8);
        // Protocol state (net accepted) must agree with the engine's load accounting.
        let states = sim.server_states::<u32>().expect("u32 states");
        for (state, load) in states.iter().zip(sim.server_loads()) {
            assert_eq!(state, load);
        }
    }

    // Since PR 3 the vendored rayon stub is a real work-distributing thread pool, so
    // this genuinely exercises scheduling; `.intra_step_pieces(8)` additionally forces
    // the intra-round parallel path on this deliberately small instance.
    #[test]
    fn deterministic_across_thread_counts() {
        let g = generators::regular_random(64, 16, 21).unwrap();
        let run_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut sim = Simulation::builder(&g)
                    .protocol(OpensAt(2))
                    .demand(Demand::Constant(2))
                    .seed(77)
                    .intra_step_pieces(8)
                    .build();
                let result = sim.run();
                (result, sim.server_loads().to_vec())
            })
        };
        let (r1, loads1) = run_with(1);
        let (r4, loads4) = run_with(4);
        assert_eq!(r1, r4);
        assert_eq!(loads1, loads4);
    }

    /// Builds the within-segment ranks with a given sort-piece count via the same
    /// three passes `step_internal` drives, serially, over the same chunks.
    fn rank_with_pieces(
        request_server: &[u32],
        num_servers: usize,
        pieces: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let len = request_server.len();
        let mut rank = vec![0u32; len];
        let mut totals = vec![0u32; num_servers];
        let chunk = chunk_len(len, pieces);
        let rows = len.div_ceil(chunk);
        if rows <= 1 {
            sort_pass_histogram(request_server, &mut rank, &mut totals);
            return (rank, totals);
        }
        let mut hist = vec![0u32; rows * num_servers];
        for ((requests, ranks), row) in request_server
            .chunks(chunk)
            .zip(rank.chunks_mut(chunk))
            .zip(hist.chunks_mut(num_servers))
        {
            sort_pass_histogram(requests, ranks, row);
        }
        let mut off = vec![0u32; rows * num_servers];
        sort_pass_combine(&hist, num_servers, 0, &mut off, &mut totals);
        for (k, (requests, ranks)) in request_server
            .chunks(chunk)
            .zip(rank.chunks_mut(chunk))
            .enumerate()
        {
            sort_pass_rebase(requests, ranks, &off, k, rows);
        }
        (rank, totals)
    }

    #[test]
    fn parallel_rank_sort_matches_serial_permutation() {
        // A skewed request pattern over 7 servers (server 5 gets nothing, server 0 is
        // hot) with a length that does not divide evenly into any piece count.
        let num_servers = 7;
        let request_server: Vec<u32> = (0..203u32)
            .map(
                |i| match i.wrapping_mul(2654435761).wrapping_mul(i + 1) % 10 {
                    0..=3 => 0,
                    4..=5 => 3,
                    6 => 1,
                    7 => 2,
                    8 => 4,
                    _ => 6,
                },
            )
            .collect();

        // Reference: the former explicit stable counting sort's permutation.
        let mut counts = vec![0u32; num_servers];
        for &s in &request_server {
            counts[s as usize] += 1;
        }
        let mut base = vec![0u32; num_servers];
        let mut acc = 0u32;
        for (b, &c) in base.iter_mut().zip(&counts) {
            *b = acc;
            acc += c;
        }
        let mut cursor = base.clone();
        let mut reference = vec![0u32; request_server.len()];
        for (i, &s) in request_server.iter().enumerate() {
            reference[cursor[s as usize] as usize] = i as u32;
            cursor[s as usize] += 1;
        }

        for pieces in [1, 2, 3, 8] {
            let (rank, totals) = rank_with_pieces(&request_server, num_servers, pieces);
            assert_eq!(totals, counts, "pieces={pieces}");
            // `base[s] + rank[i]` must be exactly where the reference scattered `i`.
            let mut sorted = vec![u32::MAX; request_server.len()];
            for (i, &s) in request_server.iter().enumerate() {
                let position = (base[s as usize] + rank[i]) as usize;
                assert_eq!(
                    sorted[position],
                    u32::MAX,
                    "pieces={pieces}: rank collision"
                );
                sorted[position] = i as u32;
            }
            assert_eq!(sorted, reference, "pieces={pieces}");
        }
    }

    /// Everything a caller can observe of a run: the per-round records, the result,
    /// the final loads and (online) the settle latencies.
    type Observed = (Vec<RoundRecord>, RunResult, Vec<u32>, Option<Vec<u32>>);

    /// Runs step-by-step under a forced piece plan (or the size-derived default for
    /// `None`) and returns everything a caller could observe.
    fn run_with_pieces(
        g: &clb_graph::BipartiteGraph,
        protocol: impl Into<Box<dyn ErasedProtocol>>,
        demand: Demand,
        workload: Option<OnlineWorkload>,
        pieces: Option<usize>,
    ) -> Observed {
        let mut builder = Simulation::builder(g)
            .protocol(protocol)
            .demand(demand)
            .seed(9)
            .max_rounds(200);
        if let Some(workload) = workload {
            builder = builder.workload(workload);
        }
        if let Some(p) = pieces {
            builder = builder.intra_step_pieces(p);
        }
        let mut sim = builder.build();
        let mut records = Vec::new();
        while !sim.is_complete() && sim.round() < 200 {
            records.push(sim.step());
        }
        (
            records,
            sim.result(),
            sim.server_loads().to_vec(),
            sim.settle_latencies(),
        )
    }

    /// Accepts at most `self.0` requests per server per round and never closes: a
    /// threshold rule that leaves survivors whenever a server is oversubscribed.
    struct PerRoundCap(u32);
    impl Protocol for PerRoundCap {
        type ServerState = ();
        fn init_server(&self) {}
        fn server_decide(&self, _state: &mut (), ctx: &ServerCtx) -> u32 {
            ctx.incoming.min(self.0)
        }
        fn server_is_closed(&self, _state: &(), _load: u32) -> bool {
            false
        }
    }

    /// Two choices per ball on servers that accept up to a load cap, freed again by
    /// departures: an online run drives departures and releases through one tally.
    struct TwoChoiceLoadCap(u32);
    impl Protocol for TwoChoiceLoadCap {
        type ServerState = ();
        fn init_server(&self) {}
        fn choices_per_round(&self) -> u32 {
            2
        }
        fn server_decide(&self, _state: &mut (), ctx: &ServerCtx) -> u32 {
            self.0.saturating_sub(ctx.current_load).min(ctx.incoming)
        }
        fn server_is_closed(&self, _state: &(), load: u32) -> bool {
            load >= self.0
        }
    }

    /// The plan the default (size-derived) path gives a round with this record's
    /// requests.
    fn default_plan(record: &RoundRecord, num_servers: usize, choices: u64) -> PiecePlan {
        let requests = record.requests_sent as usize;
        let balls = (record.requests_sent / choices) as usize;
        PiecePlan::for_sizes(requests, num_servers, balls, None)
    }

    #[test]
    fn intra_step_pieces_do_not_change_results() {
        let g = generators::regular_random(96, 12, 33).unwrap();
        let piece_grid = [Some(2), Some(5), Some(32), None];
        let run = |protocol: Box<dyn ErasedProtocol>, pieces| {
            run_with_pieces(&g, protocol, Demand::Constant(2), None, pieces)
        };
        // One-choice (no releases) and two-choice (release aggregation) protocols.
        let baseline = run(erase(OpensAt(3)), Some(1));
        for pieces in piece_grid {
            assert_eq!(
                run(erase(OpensAt(3)), pieces),
                baseline,
                "pieces={pieces:?}"
            );
        }
        let baseline = run(erase(TwoChoiceCapacityOne), Some(1));
        for pieces in piece_grid {
            assert_eq!(
                run(erase(TwoChoiceCapacityOne), pieces),
                baseline,
                "pieces={pieces:?}"
            );
        }

        // A default plan that changes mid-run: 65,536 round-1 requests on 1,024
        // servers get four sort and four slot pieces; the survivors of the per-round
        // cap shrink through fewer pieces (pass B then reads only the round's
        // histogram rows) down to one.
        let g = generators::regular_random(1024, 16, 33).unwrap();
        let run = |pieces| run_with_pieces(&g, PerRoundCap(16), Demand::Constant(64), None, pieces);
        let default = run(None);
        let records = &default.0;
        assert!(default.1.completed, "{:?}", default.1);
        let plans: Vec<PiecePlan> = records.iter().map(|r| default_plan(r, 1024, 1)).collect();
        let (first, last) = (plans[0], plans[plans.len() - 1]);
        assert!(
            first.sort > 2 && first.slot > 2,
            "round 1 must split: {first:?}"
        );
        assert!(
            plans.iter().any(|p| 1 < p.sort && p.sort < first.sort),
            "some round must use fewer sort pieces than the buffers hold: {plans:?}"
        );
        assert_eq!(
            (last.sort, last.slot),
            (1, 1),
            "the last round is one piece"
        );
        assert_eq!(run(Some(1)), default, "batch: pieces=1");
        assert_eq!(run(Some(8)), default, "batch: pieces=8");

        // An open system whose lifetime ball count would give a multi-piece plan while
        // every live round fits one piece; departures and releases share the tally.
        let g = generators::regular_random(256, 16, 33).unwrap();
        let workload = OnlineWorkload {
            arrivals: crate::workload::ArrivalProcess::Batch {
                per_round: 2048,
                rounds: 40,
            },
            service: crate::workload::ServiceDistribution::Geometric { p: 0.5 },
        };
        let run = |pieces| {
            let protocol = TwoChoiceLoadCap(32);
            run_with_pieces(
                &g,
                protocol,
                Demand::Constant(0),
                Some(workload.clone()),
                pieces,
            )
        };
        let default = run(None);
        let records = &default.0;
        assert!(default.1.completed, "{:?}", default.1);
        assert!(records.iter().any(|r| r.departures > 0));
        let lifetime = 2048 * 40;
        let built = PiecePlan::for_sizes(2 * lifetime, 256, lifetime, None);
        assert!(built.sort > 1 && built.slot > 1, "lifetime plan: {built:?}");
        for record in records {
            let plan = default_plan(record, 256, 2);
            assert_eq!((plan.sort, plan.slot), (1, 1), "round {}", record.round);
        }
        assert_eq!(run(Some(1)), default, "online: pieces=1");
        assert_eq!(run(Some(8)), default, "online: pieces=8");
    }

    #[test]
    fn explicit_demand_with_zero_ball_clients() {
        let g = generators::regular_random(4, 2, 5).unwrap();
        let demand = Demand::Explicit(vec![0, 3, 0, 1]);
        let mut sim = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(demand)
            .seed(2)
            .build();
        assert_eq!(sim.total_balls(), 4);
        let result = sim.run();
        assert!(result.completed);
        assert_eq!(sim.client_assignment(ClientId::new(0)).len(), 0);
        assert_eq!(sim.client_assignment(ClientId::new(1)).len(), 3);
    }

    #[test]
    #[should_panic(expected = "demand overflows the engine's 2^32 - 1 ball-id limit at client 1")]
    fn demand_beyond_the_ball_id_limit_is_diagnosed() {
        // u32::MAX + 1 balls wrap the running total; the guard must fire before any
        // ball array is sized from it.
        let g = clb_graph::BipartiteGraph::from_edges(2, 1, &[(0, 0), (1, 0)]).unwrap();
        let _ = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Explicit(vec![u32::MAX, 1]))
            .build();
    }

    #[test]
    #[should_panic(expected = "no admissible server")]
    fn isolated_client_with_demand_panics() {
        let g = clb_graph::BipartiteGraph::from_edges(2, 2, &[(0, 0)]).unwrap();
        let _ = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "protocol is required")]
    fn builder_requires_a_protocol() {
        let g = generators::regular_random(4, 2, 5).unwrap();
        let _ = Simulation::builder(&g).demand(Demand::Constant(1)).build();
    }

    #[test]
    fn builder_attached_observers_see_every_round() {
        let g = generators::regular_random(16, 4, 9).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(OpensAt(3))
            .demand(Demand::Constant(2))
            .seed(11)
            .observer(MaxLoadObserver::new())
            .build();
        let result = sim.run();
        let obs = sim
            .observer::<MaxLoadObserver>()
            .expect("observer attached");
        assert_eq!(obs.max_load, result.max_load);
        // Stepping drives the same observers, too.
        let mut stepped = Simulation::builder(&g)
            .protocol(OpensAt(3))
            .demand(Demand::Constant(2))
            .seed(11)
            .observer(MaxLoadObserver::new())
            .build();
        while !stepped.is_complete() {
            stepped.step();
        }
        assert_eq!(
            stepped.observer::<MaxLoadObserver>().unwrap().max_load,
            result.max_load
        );
    }

    /// A protocol whose per-round choice count is absurdly large, to hit the request
    /// overflow guard without allocating anything first.
    struct ManyChoices(u32);
    impl Protocol for ManyChoices {
        type ServerState = ();
        fn init_server(&self) {}
        fn choices_per_round(&self) -> u32 {
            self.0
        }
        fn server_decide(&self, _state: &mut (), ctx: &ServerCtx) -> u32 {
            ctx.incoming
        }
        fn server_is_closed(&self, _state: &(), _load: u32) -> bool {
            false
        }
    }

    #[test]
    fn request_count_guard_accepts_the_limit() {
        assert_eq!(checked_request_count(0, u32::MAX), 0);
        assert_eq!(checked_request_count(1, u32::MAX), u32::MAX as usize);
        assert_eq!(checked_request_count(6, 7), 42);
    }

    #[test]
    #[should_panic(expected = "request count overflow")]
    fn request_count_guard_rejects_overflow() {
        let _ = checked_request_count(2, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "request count overflow")]
    fn oversized_choice_count_is_diagnosed_at_build() {
        // 8 balls x u32::MAX choices per round can never be indexed by the engine's
        // 32-bit request ids; the guard must fire before any buffer is sized.
        let g = generators::regular_random(8, 2, 3).unwrap();
        let _ = Simulation::builder(&g)
            .protocol(ManyChoices(u32::MAX))
            .demand(Demand::Constant(1))
            .build();
    }

    #[test]
    fn surplus_releases_are_excluded_from_total_messages() {
        // Two choices per ball on capacity-1 servers: surplus accepts (both choices
        // accepted) are released in phase 3. The documented convention is that those
        // release notifications do NOT count as messages: the total stays exactly
        // 2 x (requests submitted), matching the sum of the per-round records.
        let g = generators::complete(8, 8).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(TwoChoiceCapacityOne)
            .demand(Demand::Constant(1))
            .seed(3)
            .max_rounds(500)
            .build();
        let mut request_messages = 0u64;
        while !sim.is_complete() && sim.round() < 500 {
            let record = sim.step();
            assert_eq!(record.messages, 2 * record.requests_sent);
            request_messages += record.messages;
        }
        let result = sim.result();
        assert!(result.completed);
        assert_eq!(result.total_messages, request_messages);
    }

    #[test]
    fn least_loaded_settle_prefers_light_servers() {
        // One ball, two accepted choices: server 0 carries load 5, server 1 load 2.
        let slots = [0u32];
        let request_server = [0u32, 1];
        let request_rank = [0u32, 0];
        let accept_count = [1u32, 1];
        let loads = [5u32, 2];
        let run_rule = |rule: SettleRule| {
            let mut alive_out = [0u32; 1];
            let mut assigned_out = [0u64; 1];
            let mut release_out = [0u32; 1];
            let mut piece = SettlePiece {
                slots: &slots,
                alive_out: &mut alive_out,
                assigned_out: &mut assigned_out,
                release_out: &mut release_out,
            };
            let counts = piece.run(
                2,
                rule,
                &request_server,
                &request_rank,
                &accept_count,
                &loads,
            );
            assert_eq!(counts.assigned, 1);
            assert_eq!(counts.released, 1);
            (assigned_out[0] as u32, release_out[0])
        };
        // First-accepted keeps the slot-order winner (server 0), releasing server 1.
        assert_eq!(run_rule(SettleRule::FirstAccepted), (0, 1));
        // Least-loaded settles on the lighter server 1, releasing server 0.
        assert_eq!(run_rule(SettleRule::LeastLoaded), (1, 0));
    }

    #[test]
    fn least_loaded_ties_break_to_smallest_server_index() {
        let slots = [0u32];
        let request_server = [3u32, 1];
        let request_rank = [0u32, 0];
        let accept_count = [0u32, 1, 0, 1];
        let loads = [0u32, 4, 0, 4];
        let mut alive_out = [0u32; 1];
        let mut assigned_out = [0u64; 1];
        let mut release_out = [0u32; 1];
        let mut piece = SettlePiece {
            slots: &slots,
            alive_out: &mut alive_out,
            assigned_out: &mut assigned_out,
            release_out: &mut release_out,
        };
        piece.run(
            2,
            SettleRule::LeastLoaded,
            &request_server,
            &request_rank,
            &accept_count,
            &loads,
        );
        assert_eq!(
            assigned_out[0] as u32, 1,
            "equal loads: smallest index wins"
        );
        assert_eq!(release_out[0], 3);
    }

    /// One slot per server, freed again when the occupant departs: the shape of an
    /// online queueing server (contrast with `TwoChoiceCapacityOne`, whose private
    /// counter never forgets — that is the SAER-style churn-incompatible shape).
    struct LoadCapOne;
    impl Protocol for LoadCapOne {
        type ServerState = ();
        fn init_server(&self) {}
        fn server_decide(&self, _state: &mut (), ctx: &ServerCtx) -> u32 {
            1u32.saturating_sub(ctx.current_load).min(ctx.incoming)
        }
        fn server_is_closed(&self, _state: &(), load: u32) -> bool {
            load >= 1
        }
    }

    fn trace_workload(arrivals: Vec<u32>, service_rounds: u32) -> OnlineWorkload {
        OnlineWorkload {
            arrivals: crate::workload::ArrivalProcess::Trace { arrivals },
            service: crate::workload::ServiceDistribution::Deterministic {
                rounds: service_rounds,
            },
        }
    }

    #[test]
    fn departures_free_capacity_for_later_arrivals() {
        // One client, one capacity-1 server, one arrival per round for three rounds
        // with one-round service: each ball must settle in its arrival round because
        // the previous occupant departed at the round boundary. Without the departure
        // path, balls 2 and 3 could never settle.
        let g = clb_graph::BipartiteGraph::from_edges(1, 1, &[(0, 0)]).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(LoadCapOne)
            .demand(Demand::Explicit(vec![0]))
            .workload(trace_workload(vec![1, 1, 1], 1))
            .seed(5)
            .max_rounds(10)
            .build();
        assert_eq!(sim.total_balls(), 3);
        let mut records = Vec::new();
        while !sim.is_complete() && sim.round() < 10 {
            records.push(sim.step());
        }
        let result = sim.result();
        assert!(result.completed, "all arrivals settled: {result:?}");
        assert!(!result.hit_round_cap);
        assert_eq!(result.rounds, 3);
        assert_eq!(result.unassigned_balls, 0);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.arrivals, 1);
            assert_eq!(r.balls_assigned, 1, "round {} settles its arrival", i + 1);
            assert_eq!(r.departures, u64::from(i > 0), "prior occupant departs");
            assert_eq!(r.in_service_after, 1);
            assert_eq!(r.max_load, 1);
        }
        // Every settled ball spent exactly one round alive.
        assert_eq!(sim.settle_latencies().unwrap(), vec![1, 1, 1]);
    }

    #[test]
    fn zero_demand_open_system_runs_on_arrivals_alone() {
        // `Demand::Constant(0)` plus a workload is the pure open system: every ball
        // in the run is an arrival.
        let g = clb_graph::BipartiteGraph::from_edges(1, 1, &[(0, 0)]).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(0))
            .workload(trace_workload(vec![2, 0, 1], 1))
            .seed(5)
            .max_rounds(10)
            .build();
        assert_eq!(sim.total_balls(), 3);
        let result = sim.run();
        assert!(result.completed);
        assert_eq!(result.total_balls, 3);
    }

    #[test]
    #[should_panic(expected = "no balls")]
    fn zero_demand_without_a_workload_is_vacuous() {
        let g = clb_graph::BipartiteGraph::from_edges(1, 1, &[(0, 0)]).unwrap();
        let _ = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(0))
            .seed(5)
            .build();
    }

    #[test]
    fn online_run_conserves_balls_and_loads() {
        let g = generators::regular_random(24, 6, 3).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(1))
            .workload(OnlineWorkload {
                arrivals: crate::workload::ArrivalProcess::Poisson {
                    rate: 3.0,
                    rounds: 12,
                },
                service: crate::workload::ServiceDistribution::Uniform { min: 1, max: 4 },
            })
            .seed(31)
            .max_rounds(100)
            .build();
        let mut records = Vec::new();
        while !sim.is_complete() && sim.round() < 100 {
            records.push(sim.step());
        }
        let result = sim.result();
        assert!(
            result.completed,
            "accept-all drains every arrival: {result:?}"
        );
        let total_arrivals: u64 = records.iter().map(|r| r.arrivals).sum();
        let total_assigned: u64 = records.iter().map(|r| r.balls_assigned).sum();
        assert_eq!(
            total_assigned,
            24 + total_arrivals,
            "initial batch + arrivals"
        );
        assert_eq!(result.total_balls, 24 + total_arrivals);
        // In-service accounting: load on the servers equals settled minus departed.
        let total_departed: u64 = records.iter().map(|r| r.departures).sum();
        let load_sum: u64 = sim.server_loads().iter().map(|&l| u64::from(l)).sum();
        assert_eq!(load_sum, total_assigned - total_departed);
        assert_eq!(sim.in_service(), load_sum);
        let last = records.last().unwrap();
        assert_eq!(last.in_service_after, sim.in_service());
        // Latencies cover every settled ball and are at least one round.
        let latencies = sim.settle_latencies().unwrap();
        assert_eq!(latencies.len() as u64, total_assigned);
        assert!(latencies.iter().all(|&l| l >= 1));
    }

    #[test]
    fn online_runs_are_identical_across_piece_counts() {
        let g = generators::regular_random(32, 8, 17).unwrap();
        let run = |pieces: Option<usize>| {
            let workload = OnlineWorkload {
                arrivals: crate::workload::ArrivalProcess::Bursty {
                    on_rate: 4.0,
                    on_rounds: 3,
                    off_rounds: 2,
                    rounds: 15,
                },
                service: crate::workload::ServiceDistribution::Geometric { p: 0.4 },
            };
            let mut builder = Simulation::builder(&g)
                .protocol(TwoChoiceCapacityOne)
                .demand(Demand::Constant(1))
                .workload(workload)
                .seed(13)
                .max_rounds(150);
            if let Some(p) = pieces {
                builder = builder.intra_step_pieces(p);
            }
            let mut sim = builder.build();
            let mut records = Vec::new();
            while !sim.is_complete() && sim.round() < 150 {
                records.push(sim.step());
            }
            (
                records,
                sim.result(),
                sim.server_loads().to_vec(),
                sim.settle_latencies().unwrap(),
            )
        };
        let baseline = run(Some(1));
        for pieces in [Some(2), Some(7), Some(32), None] {
            assert_eq!(run(pieces), baseline, "pieces={pieces:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid online workload")]
    fn invalid_workload_is_rejected_at_build() {
        let g = generators::regular_random(4, 2, 5).unwrap();
        let _ = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(1))
            .workload(OnlineWorkload {
                arrivals: crate::workload::ArrivalProcess::Poisson {
                    rate: f64::NAN,
                    rounds: 4,
                },
                service: crate::workload::ServiceDistribution::Deterministic { rounds: 1 },
            })
            .build();
    }

    #[test]
    fn work_per_ball_helper() {
        let r = RunResult {
            completed: true,
            hit_round_cap: false,
            rounds: 3,
            total_messages: 600,
            max_load: 4,
            unassigned_balls: 0,
            total_balls: 100,
            closed_servers: 0,
        };
        assert!((r.work_per_ball() - 6.0).abs() < 1e-12);
        let empty = RunResult {
            total_balls: 0,
            ..r
        };
        assert_eq!(empty.work_per_ball(), 0.0);
    }
}
