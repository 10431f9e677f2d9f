//! Optimistic (Time Warp-style) parallel execution of the engine.
//!
//! [`Engine::run_optimistic`] partitions the rank mesh exactly like the
//! conservative engine in [`crate::par`], but lets a partition advance
//! *past* its safe frontier by predicting boundary messages it has not
//! yet received. The execution is a **risk-free** Time Warp variant —
//! nothing speculative ever escapes a partition until it is proven
//! correct, so no anti-messages are needed:
//!
//! * **Checkpoint before speculating.** A partition about to speculate
//!   clones its entire state ([`Part`] owns every mutable word a later
//!   event can read, including noise-stream positions and outbox mail).
//!   Rollback is `*part = checkpoint`.
//! * **Withheld sends.** Mail produced while speculating stays in the
//!   outbox past the checkpointed prefix; the coordinator ships the safe
//!   prefix unconditionally and releases the speculative suffix only
//!   after the speculation commits. A rolled-back partition's
//!   speculative mail is dropped with the rest of its state.
//! * **Buffered spans.** Speculative telemetry goes to a private
//!   [`Recorder`] and is replayed into the caller's recorder on commit,
//!   so traces of an optimistic run are byte-identical to sequential
//!   traces no matter how many rollbacks happened along the way.
//! * **Exact-match commit gate.** Boundary sends are *statically
//!   scripted*: a channel has one sending rank, its `(tag, bytes)`
//!   sequence is fixed by the program, and the eager-vs-rendezvous
//!   protocol is static per op. Only the arrival timestamp is dynamic.
//!   The predictor extrapolates it from the last four real arrivals,
//!   and only when they show a *verified* cadence (three equal deltas,
//!   or the alternating pair bidirectional exchanges settle into). A
//!   speculation commits **iff** every injected [`Msg`] equals the real
//!   boundary mail field-by-field — exact picoseconds — which by the
//!   Kahn-confluence argument of [`crate::par`] makes the committed
//!   state bit-identical to the state the conservative engine would
//!   have reached.
//! * **Cross-round attempts.** The sender of a predicted message is
//!   typically a full barrier behind the receiver's frontier, so an
//!   attempt stays *pending* across rounds — its partition keeps
//!   running on speculative state (spans buffered, sends withheld) —
//!   until real mail confirms every injection (commit) or contradicts
//!   one (rollback). Real deliveries absorbed while pending are logged
//!   and redelivered after a rollback, so no message is ever lost to a
//!   misprediction; the run-ending verdicts (collective completion,
//!   finish, deadlock) force pending attempts back to their checkpoints
//!   first, so nothing speculative ever escapes.
//! * **Bounded optimism window.** The coordinator delivers at most
//!   [`OptConfig::chan_window`] messages per channel per round, parking
//!   the rest in a backlog. This models the bounded lookahead a
//!   concurrently-executing sender would give — without it the
//!   sequential round driver ships entire octant bursts and receivers
//!   only ever block where the *sender* stalled, exactly the
//!   cadence-break positions no predictor can get right. Channels with
//!   queued backlog never speculate (their script position is already
//!   ahead of the receiver).
//!
//! Mispredicted channels back off (no speculation) until their next real
//! delivery, so a quiescent mesh stops speculating after one round and
//! the deadlock detection of the conservative engine carries over
//! unchanged. Unlike [`Engine::run_parallel`] there is **no
//! zero-lookahead fallback**: optimism never relies on a conservative
//! window, so free (zero-latency) interconnects run partitioned too.
//!
//! Rounds are driven single-threaded in a deterministic partition order
//! ([`ExecOrder`]); because partitions only interact through the
//! barrier-drained mailboxes, any visit order yields the same digests —
//! an invariant the differential fuzz suite exercises with
//! [`ExecOrder::Shuffled`] and [`Engine::run_parallel_ordered`] (the
//! conservative engine under a fuzzed per-round schedule, i.e. a zero
//! speculation budget).
//!
//! Wall-clock telemetry lands under [`OPT_PID`] (`sim.opt`): a track per
//! partition showing `commit` / `rollback` decisions and a coordinator
//! track with per-round drain spans.

use std::collections::VecDeque;
use std::time::Instant;

use obs::{Cat, EdgeKind, EdgeRecord, Recorder};

use crate::engine::{
    build_channels, collective_cost, debug_check_span_totals, Engine, Msg, NoiseBank, St,
};
use crate::error::{SimError, SimResult};
use crate::par::{Bound, Ctx, Part};
use crate::pricer::OpPricer;
use crate::progset::SharedOp;
use crate::stats::{RankStats, RunReport};
use crate::time::SimTime;

/// Track group for the optimistic engine's wall-clock telemetry (the
/// `sim.opt` pid convention). Sim-domain spans keep the caller's pid,
/// exactly as in a sequential run.
pub const OPT_PID: u32 = obs::pids::OPT;

/// Per-round partition visit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOrder {
    /// Partitions run `0..p` every round.
    RoundRobin,
    /// A deterministic pseudo-random permutation per round, keyed on the
    /// seed and the round number. Results never depend on the choice —
    /// the fuzz suite asserts exactly that.
    Shuffled(u64),
}

/// Configuration for [`Engine::run_optimistic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Contiguous rank partitions (clamped to the rank count).
    pub partitions: usize,
    /// Maximum speculative message injections per attempt (at most one
    /// per boundary channel per attempt). `0` disables speculation
    /// entirely, leaving a conservative round-based engine.
    pub spec_budget: usize,
    /// Bounded-optimism window: real boundary messages delivered per
    /// channel per round. Mail beyond the window waits in the
    /// coordinator's backlog, modelling the bounded lookahead a
    /// concurrently-executing sender would give — which is exactly the
    /// horizon speculation runs ahead of. Ignored (unbounded) when
    /// `spec_budget` is `0`: the conservative schedule gains nothing
    /// from extra rounds.
    pub chan_window: usize,
    /// Partition visit order within a round.
    pub order: ExecOrder,
}

impl OptConfig {
    /// Defaults: the given partition count, a budget of 4 injections per
    /// attempt, an 8-message channel window, round-robin order.
    pub fn new(partitions: usize) -> Self {
        OptConfig { partitions, spec_budget: 4, chan_window: 8, order: ExecOrder::RoundRobin }
    }

    /// Replace the per-attempt speculation budget.
    pub fn with_budget(mut self, spec_budget: usize) -> Self {
        self.spec_budget = spec_budget;
        self
    }

    /// Replace the per-channel per-round delivery window.
    pub fn with_chan_window(mut self, chan_window: usize) -> Self {
        self.chan_window = chan_window;
        self
    }

    /// Replace the partition visit order.
    pub fn with_order(mut self, order: ExecOrder) -> Self {
        self.order = order;
        self
    }
}

/// Counters describing how an optimistic run executed. The *results*
/// never depend on any of this — only wall-clock behaviour does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Partitions actually used (1 means the sequential fast path ran).
    pub partitions: usize,
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Boundary mail shipped through the coordinator pool (real and
    /// committed-speculative alike).
    pub boundary_messages: u64,
    /// Messages injected speculatively.
    pub speculated: u64,
    /// Speculative attempts fully validated against real mail and
    /// committed (an attempt can carry several injected messages).
    pub commits: u64,
    /// Speculative attempts rolled back to their checkpoint — from a
    /// contradicted prediction or a run-ending verdict forcing pending
    /// optimism to resolve conservatively.
    pub rollbacks: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The partition visit order for one round.
fn round_order(p: usize, order: ExecOrder, round: u64) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..p).collect();
    if let ExecOrder::Shuffled(seed) = order {
        let mut s = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for i in (1..p).rev() {
            let j = (splitmix64(&mut s) % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
    }
    ids
}

/// Arrival predictor for one boundary channel. Lives *outside* the
/// partition state so it is never rolled back — mispredictions teach it.
struct ChanPred {
    /// Last four real arrival timestamps observed on the channel.
    hist: [SimTime; 4],
    /// Real arrivals observed (saturating at 4 — three deltas, enough to
    /// *verify* a constant or period-two cadence before trusting it).
    count: u8,
    /// The sender's statically-derived `(tag, bytes)` send sequence.
    script: Vec<(u32, usize)>,
    /// Script entries that have crossed the boundary (entered the pool).
    consumed: usize,
    /// Backoff: set on a misprediction, cleared by the next real mail.
    disabled: bool,
}

/// Record one pool-bound mail item into the channel predictors.
fn observe(preds: &mut [ChanPred], bound: &Bound) {
    match *bound {
        Bound::Eager { chan, msg } => {
            let p = &mut preds[chan as usize];
            p.hist = [p.hist[1], p.hist[2], p.hist[3], msg.arrival];
            p.count = (p.count + 1).min(4);
            p.consumed += 1;
            p.disabled = false;
        }
        Bound::Pend { chan, .. } => {
            // A rendezvous crossed: its arrival is negotiated later, so
            // the cadence history restarts (rendezvous is never
            // speculated — the handshake needs the receiver).
            let p = &mut preds[chan as usize];
            p.count = 0;
            p.consumed += 1;
            p.disabled = false;
        }
        Bound::Done { .. } => {}
    }
}

/// One coordinator-backlog mail item awaiting validation or delivery.
struct Mail {
    dst: usize,
    bound: Bound,
    /// Consumed by a matched prediction (delivered virtually at
    /// injection time) — removed without a second delivery.
    consumed: bool,
}

/// Admit one real boundary mail item into the coordinator backlog:
/// teach the channel predictor, bump the per-channel backlog count
/// (which gates further speculation on the channel), and queue it.
fn enqueue(
    backlog: &mut Vec<Mail>,
    chan_backlog: &mut [u32],
    preds: &mut [ChanPred],
    st: &mut OptStats,
    dst: usize,
    b: Bound,
) {
    observe(preds, &b);
    if let Bound::Eager { chan, .. } | Bound::Pend { chan, .. } = b {
        chan_backlog[chan as usize] += 1;
    }
    st.boundary_messages += 1;
    backlog.push(Mail { dst, bound: b, consumed: false });
}

/// A partition's in-flight speculation. Attempts persist across rounds:
/// a prediction can only be confirmed when the sender's real message
/// crosses a *later* barrier (the sender is typically a full round
/// behind the receiver's frontier), so the attempt stays pending until
/// every injection is matched (commit) or one is contradicted
/// (rollback).
struct SpecAttempt {
    /// Pre-speculation state; restoring it is the rollback.
    checkpoint: Part,
    /// Injected predicted messages, in injection order.
    injected: Vec<(u32, Msg)>,
    /// Which injected messages have been matched by real mail so far.
    confirmed: Vec<bool>,
    /// Buffered speculative spans (only when the caller traces).
    buf: Option<Recorder>,
    /// Withheld mail produced while speculating, per destination.
    spec_mail: Vec<(usize, Bound)>,
    /// Real mail delivered to the partition since the checkpoint, in
    /// delivery order — redelivered after a rollback so no real message
    /// is ever lost to a misprediction.
    replay: Vec<Bound>,
    /// Whether the attempt was created this round (its creation-round
    /// outbox still has a safe, pre-checkpoint prefix to ship).
    fresh: bool,
}

/// The outcome of advancing an attempt's validation against one
/// barrier's pool.
enum Verdict {
    /// Every injection is now confirmed: `(injected idx, pool idx)`
    /// pairs matched this round.
    Commit(Vec<(usize, usize)>),
    /// No contradiction, but unconfirmed injections remain (their mail
    /// has not crossed yet).
    Pending(Vec<(usize, usize)>),
    /// A real message contradicted a prediction (wrong value, or a
    /// rendezvous where an eager send was predicted).
    Mismatch,
}

/// Match the attempt's unconfirmed injections, in per-channel order,
/// against unconsumed real pool mail. Returns the newly matched pairs
/// without applying them, so a `Mismatch` stays side-effect free.
fn advance_validation(injected: &[(u32, Msg)], confirmed: &[bool], pool: &[Mail]) -> Verdict {
    let mut newly: Vec<(usize, usize)> = Vec::new();
    let mut chans: Vec<u32> =
        injected.iter().zip(confirmed).filter(|&(_, &done)| !done).map(|(&(c, _), _)| c).collect();
    chans.sort_unstable();
    chans.dedup();
    for chan in chans {
        let want: Vec<(usize, Msg)> = injected
            .iter()
            .enumerate()
            .zip(confirmed)
            .filter(|&((_, &(c, _)), &done)| c == chan && !done)
            .map(|((k, &(_, m)), _)| (k, m))
            .collect();
        let mut need = want.iter();
        let mut cur = need.next();
        for (idx, m) in pool.iter().enumerate() {
            let Some(&(inj, expect)) = cur else { break };
            if m.consumed {
                continue;
            }
            match m.bound {
                Bound::Eager { chan: c, msg } if c == chan => {
                    if msg == expect {
                        newly.push((inj, idx));
                        cur = need.next();
                    } else {
                        return Verdict::Mismatch; // value misprediction
                    }
                }
                Bound::Pend { chan: c, .. } if c == chan => return Verdict::Mismatch,
                _ => {}
            }
        }
        // Remaining predictions' mail has not crossed yet: keep pending.
    }
    let unconfirmed = confirmed.iter().filter(|&&done| !done).count();
    if newly.len() == unconfirmed {
        Verdict::Commit(newly)
    } else {
        Verdict::Pending(newly)
    }
}

/// Restore a mispredicted partition to its checkpoint, back off the
/// injected channels, and redeliver every real message the speculative
/// state had absorbed since the checkpoint. `reason` labels the
/// structured `spec.rollback` event (`mismatch`, `collective`, `finish`,
/// `quiescence`).
#[allow(clippy::too_many_arguments)]
fn roll_back(
    i: usize,
    s: SpecAttempt,
    parts: &mut [Part],
    preds: &mut [ChanPred],
    st: &mut OptStats,
    rec: Option<&Recorder>,
    ctx: &Ctx<'_>,
    t0: Instant,
    reason: &'static str,
) {
    for &(chan, _) in &s.injected {
        preds[chan as usize].disabled = true;
    }
    if let Some(rec) = rec {
        rec.wall_span(
            OPT_PID,
            i as u32,
            "rollback",
            Cat::Phase,
            t0,
            vec![("injected", s.injected.len().into())],
        );
        // The sim-domain rollback timeline: one event per discarded
        // attempt, at the latest predicted arrival it rested on.
        let horizon = s.injected.iter().map(|&(_, m)| m.arrival.picos()).max().unwrap_or(0);
        rec.sim_event(
            OPT_PID,
            i as u32,
            "spec.rollback",
            horizon,
            vec![
                ("injected", s.injected.len().into()),
                ("replayed", s.replay.len().into()),
                ("reason", reason.into()),
            ],
        );
    }
    parts[i] = s.checkpoint;
    for b in s.replay {
        parts[i].deliver(b, ctx);
    }
    st.rollbacks += 1;
}

impl<'m> Engine<'m> {
    /// Execute the programs with the optimistic partition scheduler,
    /// returning the same [`RunReport`] — bit for bit — as
    /// [`Engine::run`].
    pub fn run_optimistic(self, cfg: OptConfig) -> SimResult<RunReport> {
        self.run_optimistic_stats(cfg).map(|(report, _)| report)
    }

    /// The conservative windowed engine under an explicit, fuzzable
    /// per-round partition visit order (a zero speculation budget): the
    /// differential surface for the scheduling-order invariant of
    /// [`Engine::run_parallel`].
    pub fn run_parallel_ordered(self, partitions: usize, order_seed: u64) -> SimResult<RunReport> {
        let cfg = OptConfig {
            partitions,
            spec_budget: 0,
            chan_window: usize::MAX,
            order: ExecOrder::Shuffled(order_seed),
        };
        self.run_optimistic_stats(cfg).map(|(report, _)| report)
    }

    /// [`Engine::run_optimistic`] plus the round/speculation counters,
    /// for tests and the bench harness.
    pub fn run_optimistic_stats(self, cfg: OptConfig) -> SimResult<(RunReport, OptStats)> {
        if !self.skip_validation {
            self.set.validate().map_err(|detail| SimError::InvalidPrograms { detail })?;
        }
        let mut eng = self;
        eng.skip_validation = true; // validated above (or deliberately skipped)
        let n = eng.set.num_ranks();
        let p = cfg.partitions.min(n);
        if p <= 1 {
            let report = eng.run_impl()?.0;
            return Ok((report, OptStats { partitions: 1, ..OptStats::default() }));
        }

        // Partitioning, channel ownership: identical to the conservative
        // engine so the two schedulers agree on every boundary.
        let bounds: Vec<usize> = (0..=p).map(|i| i * n / p).collect();
        let mut part_of = vec![0u32; n];
        for i in 0..p {
            part_of[bounds[i]..bounds[i + 1]].fill(i as u32);
        }

        let set = eng.set.clone();
        let machine = eng.machine;
        let channels = build_channels(&set);
        let mut chan_starts = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        for r in 0..n {
            chan_starts.push(acc);
            acc += set.partners(r).len() as u32;
        }
        chan_starts.push(acc);
        let dangling_base = acc;
        let mut chan_owner = vec![(0u32, 0u32); dangling_base as usize];
        for r in 0..n {
            for (s, &q) in set.partners(r).iter().enumerate() {
                chan_owner[chan_starts[r] as usize + s] = (r as u32, q);
            }
        }

        // Static send scripts: per boundary channel, the (tag, bytes)
        // sequence its single sending rank will emit, in program order.
        let mut preds: Vec<ChanPred> = (0..dangling_base as usize)
            .map(|_| ChanPred {
                hist: [SimTime::ZERO; 4],
                count: 0,
                script: Vec::new(),
                consumed: 0,
                disabled: false,
            })
            .collect();
        for r in 0..n {
            let partners = set.partners(r);
            for op in set.ops(r) {
                if let SharedOp::Send { slot, bytes, tag } = *op {
                    let to = partners[slot as usize] as usize;
                    let chan = channels.send_chan[r][slot as usize];
                    if chan < dangling_base && to < n && part_of[to] != part_of[r] {
                        preds[chan as usize].script.push((tag, bytes));
                    }
                }
            }
        }

        let rec: Option<&Recorder> = eng.recorder.filter(|r| r.is_enabled());
        let pid = eng.trace_pid;
        if let Some(rec) = rec {
            for r in 0..n {
                rec.set_thread_name(pid, r as u32, format!("rank {r}"));
            }
            rec.set_process_name(OPT_PID, "sim.opt");
            for i in 0..p {
                rec.set_thread_name(OPT_PID, i as u32, format!("partition {i}"));
            }
            rec.set_thread_name(OPT_PID, p as u32, "coordinator");
        }

        let eager_limit = machine.rendezvous_bytes.unwrap_or(usize::MAX);
        let run_factor = machine.noise.run_factor(machine.seed);
        let sharers = machine.sharers(n);
        let ctx = Ctx {
            set: &set,
            machine,
            channels: &channels,
            part_of: &part_of,
            chan_owner: &chan_owner,
            dangling_base,
            eager_limit,
            run_factor,
            sharers,
            rec,
            pid,
        };
        // One memo serves every partition: this scheduler runs them all
        // on one thread, over one machine.
        let mut pricer = OpPricer::new(machine, sharers);

        let mut parts: Vec<Part> = (0..p)
            .map(|i| {
                let (lo, hi) = (bounds[i], bounds[i + 1]);
                let (chan_lo, chan_hi) = (chan_starts[lo] as usize, chan_starts[hi] as usize);
                Part {
                    id: i,
                    lo,
                    hi,
                    chan_lo,
                    clock: vec![SimTime::ZERO; hi - lo],
                    pc: vec![0u32; hi - lo],
                    status: vec![St::Ready; hi - lo],
                    park_clock: vec![SimTime::ZERO; hi - lo],
                    stats: vec![RankStats::default(); hi - lo],
                    nic_busy: vec![SimTime::ZERO; hi - lo],
                    noise: NoiseBank::for_range(machine, lo, hi),
                    inflight: (chan_lo..chan_hi).map(|_| VecDeque::new()).collect(),
                    pending: (chan_lo..chan_hi).map(|_| VecDeque::new()).collect(),
                    ready: (lo..hi).collect(),
                    parked: Vec::new(),
                    finished: 0,
                    outbox: (0..p).map(|_| Vec::new()).collect(),
                }
            })
            .collect();

        let mut st = OptStats { partitions: p, ..OptStats::default() };
        let mut specs: Vec<Option<SpecAttempt>> = (0..p).map(|_| None).collect();
        let chan_window = if cfg.spec_budget == 0 { usize::MAX } else { cfg.chan_window.max(1) };
        // Real boundary mail awaiting delivery, in per-channel send
        // order; `chan_window` items per channel drain each round.
        let mut backlog: Vec<Mail> = Vec::new();
        let mut chan_backlog: Vec<u32> = vec![0; dangling_base as usize];
        let mut quota: Vec<usize> = vec![0; dangling_base as usize];

        let result = loop {
            st.rounds += 1;
            let t0 = Instant::now();
            let order = round_order(p, cfg.order, st.rounds);

            for &i in &order {
                let part = &mut parts[i];
                // Phase A: progress to the frontier. A partition with a
                // pending attempt runs atop speculative state, so its
                // spans are buffered (replayed on commit, discarded and
                // regenerated conservatively on rollback).
                if let Some(s) = specs[i].as_ref() {
                    let spec_ctx = Ctx {
                        set: &set,
                        machine,
                        channels: &channels,
                        part_of: &part_of,
                        chan_owner: &chan_owner,
                        dangling_base,
                        eager_limit,
                        run_factor,
                        sharers,
                        rec: s.buf.as_ref(),
                        pid,
                    };
                    part.run_window(&spec_ctx, &mut pricer);
                } else {
                    part.run_window(&ctx, &mut pricer);
                }
                if cfg.spec_budget == 0 {
                    continue;
                }
                // Phase B: optimistic progress past the frontier. At
                // most one injection per channel per attempt (the next
                // unarrived script entry is the only position the
                // predictor can price), up to `spec_budget` injections
                // total. The attempt then stays pending across rounds
                // until real mail confirms or contradicts it.
                loop {
                    let used = specs[i].as_ref().map_or(0, |s| s.injected.len());
                    if used >= cfg.spec_budget {
                        break;
                    }
                    let mut pick: Option<(usize, u32, Msg)> = None;
                    for r in part.lo..part.hi {
                        let li = r - part.lo;
                        let St::BlockedRecv { from, tag } = part.status[li] else { continue };
                        if part_of[from as usize] as usize == i {
                            continue;
                        }
                        let SharedOp::Recv { slot, .. } = set.ops(r)[part.pc[li] as usize] else {
                            continue;
                        };
                        let chan = channels.recv_chan[r][slot as usize];
                        if chan >= dangling_base
                            // Real mail for this channel is already
                            // queued (window-throttled): the script
                            // position is past what the rank awaits, so
                            // a prediction would inject the wrong entry.
                            || chan_backlog[chan as usize] > 0
                            || specs[i]
                                .as_ref()
                                .is_some_and(|s| s.injected.iter().any(|&(c, _)| c == chan))
                        {
                            continue;
                        }
                        let pred = &preds[chan as usize];
                        if pred.disabled || pred.count < 4 {
                            continue;
                        }
                        let Some(&(stag, sbytes)) = pred.script.get(pred.consumed) else {
                            continue;
                        };
                        if stag != tag || sbytes >= eager_limit {
                            continue;
                        }
                        // Predict only from a *verified* cadence: three
                        // observed deltas that are all equal (steady
                        // pipeline) or alternating (the period-two
                        // rhythm bidirectional exchanges settle into).
                        // Anything else — pipeline fill, an octant turn,
                        // a collective boundary — is a cadence break the
                        // extrapolation would mispredict, wasting a
                        // rollback.
                        let d1 = pred.hist[1].saturating_sub(pred.hist[0]);
                        let d2 = pred.hist[2].saturating_sub(pred.hist[1]);
                        let d3 = pred.hist[3].saturating_sub(pred.hist[2]);
                        let next = if d1 == d2 && d2 == d3 {
                            d3
                        } else if d1 == d3 && d1 != d2 {
                            d2
                        } else {
                            continue;
                        };
                        let arrival = pred.hist[3] + next;
                        pick = Some((r, chan, Msg { tag, bytes: sbytes, arrival }));
                        break;
                    }
                    let Some((r, chan, msg)) = pick else { break };
                    if specs[i].is_none() {
                        specs[i] = Some(SpecAttempt {
                            checkpoint: part.clone(),
                            injected: Vec::new(),
                            confirmed: Vec::new(),
                            buf: rec.map(|_| Recorder::enabled()),
                            spec_mail: Vec::new(),
                            replay: Vec::new(),
                            fresh: true,
                        });
                    }
                    let s = specs[i].as_mut().expect("attempt just ensured");
                    let li = r - part.lo;
                    part.inflight[chan as usize - part.chan_lo].push_back(msg);
                    part.status[li] = St::Ready;
                    part.ready.push_back(r);
                    s.injected.push((chan, msg));
                    s.confirmed.push(false);
                    st.speculated += 1;
                    if let Some(rec) = rec {
                        // Straight to the real recorder (not the attempt
                        // buffer): the prediction timeline must survive a
                        // rollback to be worth anything.
                        rec.sim_event(
                            OPT_PID,
                            i as u32,
                            "spec.predict",
                            msg.arrival.picos(),
                            vec![
                                ("chan", (chan as u64).into()),
                                ("rank", r.into()),
                                ("bytes", msg.bytes.into()),
                                ("round", st.rounds.into()),
                            ],
                        );
                    }
                    let spec_ctx = Ctx {
                        set: &set,
                        machine,
                        channels: &channels,
                        part_of: &part_of,
                        chan_owner: &chan_owner,
                        dangling_base,
                        eager_limit,
                        run_factor,
                        sharers,
                        rec: s.buf.as_ref(),
                        pid,
                    };
                    part.run_window(&spec_ctx, &mut pricer);
                }
            }

            // Barrier: pool the *safe* outboxes, withholding anything
            // that rests on speculative state. A fresh attempt's
            // creation-round outbox still has a pre-checkpoint prefix to
            // ship; once an attempt carries over a round, everything its
            // partition produces is speculative until the attempt
            // resolves.
            for src in 0..p {
                let speculating = specs[src].is_some();
                let safe_len: Option<Vec<usize>> = specs[src]
                    .as_ref()
                    .filter(|s| s.fresh)
                    .map(|s| s.checkpoint.outbox.iter().map(Vec::len).collect());
                let mut extra: Vec<(usize, Bound)> = Vec::new();
                for dst in 0..p {
                    if src == dst {
                        continue;
                    }
                    let mail = std::mem::take(&mut parts[src].outbox[dst]);
                    if !speculating {
                        for b in mail {
                            enqueue(&mut backlog, &mut chan_backlog, &mut preds, &mut st, dst, b);
                        }
                    } else if let Some(safe_len) = safe_len.as_ref() {
                        for (k, b) in mail.into_iter().enumerate() {
                            if k < safe_len[dst] {
                                enqueue(
                                    &mut backlog,
                                    &mut chan_backlog,
                                    &mut preds,
                                    &mut st,
                                    dst,
                                    b,
                                );
                            } else {
                                extra.push((dst, b));
                            }
                        }
                    } else {
                        extra.extend(mail.into_iter().map(|b| (dst, b)));
                    }
                }
                if let Some(s) = specs[src].as_mut() {
                    s.spec_mail.extend(extra);
                    if s.fresh {
                        // The safe mail just shipped; a restored
                        // checkpoint must not ship it again.
                        s.checkpoint.outbox.iter_mut().for_each(Vec::clear);
                        s.fresh = false;
                    }
                }
            }

            // Fixpoint: advance every attempt's validation against the
            // undelivered real mail. A full match commits the attempt
            // and releases its withheld mail, which can in turn validate
            // a downstream attempt — iterate until a pass commits
            // nothing. Partial matches consume their backlog mail (the
            // injection already delivered it virtually) and log it for
            // replay; a contradiction defers the rollback until after
            // the fixpoint so the remaining mail lands on the restored
            // checkpoint.
            let mut dead: Vec<(usize, SpecAttempt)> = Vec::new();
            loop {
                let mut progressed = false;
                for (i, slot) in specs.iter_mut().enumerate() {
                    let verdict = match slot.as_ref() {
                        Some(s) => advance_validation(&s.injected, &s.confirmed, &backlog),
                        None => continue,
                    };
                    match verdict {
                        Verdict::Commit(pairs) => {
                            let s = slot.take().expect("present");
                            for &(_, pi) in &pairs {
                                backlog[pi].consumed = true;
                                if let Bound::Eager { chan, .. } = backlog[pi].bound {
                                    chan_backlog[chan as usize] -= 1;
                                }
                            }
                            if let (Some(rec), Some(buf)) = (rec, s.buf.as_ref()) {
                                // Replay withheld speculative spans and
                                // causality edges: they are now real,
                                // with exactly the sequential values.
                                for sp in buf.sim_spans() {
                                    rec.sim_span(
                                        sp.pid, sp.tid, sp.name, sp.cat, sp.start, sp.dur, sp.args,
                                    );
                                }
                                for e in buf.sim_edges() {
                                    rec.sim_edge(e);
                                }
                            }
                            for (dst, b) in s.spec_mail {
                                enqueue(
                                    &mut backlog,
                                    &mut chan_backlog,
                                    &mut preds,
                                    &mut st,
                                    dst,
                                    b,
                                );
                            }
                            st.commits += 1;
                            if let Some(rec) = rec {
                                rec.wall_span(
                                    OPT_PID,
                                    i as u32,
                                    "commit",
                                    Cat::Phase,
                                    t0,
                                    vec![("injected", s.injected.len().into())],
                                );
                                // Predictor hit: every injected arrival
                                // matched real mail to the picosecond.
                                let horizon = s
                                    .injected
                                    .iter()
                                    .map(|&(_, m)| m.arrival.picos())
                                    .max()
                                    .unwrap_or(0);
                                rec.sim_event(
                                    OPT_PID,
                                    i as u32,
                                    "spec.commit",
                                    horizon,
                                    vec![
                                        ("injected", s.injected.len().into()),
                                        ("round", st.rounds.into()),
                                    ],
                                );
                            }
                            progressed = true;
                        }
                        Verdict::Pending(pairs) => {
                            if !pairs.is_empty() {
                                let s = slot.as_mut().expect("present");
                                for (inj, pi) in pairs {
                                    backlog[pi].consumed = true;
                                    if let Bound::Eager { chan, .. } = backlog[pi].bound {
                                        chan_backlog[chan as usize] -= 1;
                                    }
                                    s.confirmed[inj] = true;
                                    s.replay.push(backlog[pi].bound);
                                }
                            }
                        }
                        Verdict::Mismatch => {
                            dead.push((i, slot.take().expect("present")));
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }

            // Roll back the contradicted attempts before delivery: the
            // restored checkpoints absorb their replay logs first, then
            // this round's mail, preserving per-channel order.
            for (i, s) in dead {
                roll_back(i, s, &mut parts, &mut preds, &mut st, rec, &ctx, t0, "mismatch");
            }

            // Deliver the backlog in per-channel send order, at most
            // `chan_window` messages per channel this round. Consumed
            // entries were already delivered virtually by a matched
            // injection and just drop out. A delivery into a
            // still-pending attempt mutates speculative state: its spans
            // buffer with the attempt and the mail is logged for replay.
            quota.fill(0);
            let mut retained: Vec<Mail> = Vec::new();
            let mut delivered = 0u64;
            for m in backlog.drain(..) {
                if m.consumed {
                    continue;
                }
                if let Bound::Eager { chan, .. } | Bound::Pend { chan, .. } = m.bound {
                    let c = chan as usize;
                    if quota[c] >= chan_window {
                        retained.push(m);
                        continue;
                    }
                    quota[c] += 1;
                    chan_backlog[c] -= 1;
                }
                if let Some(s) = specs[m.dst].as_mut() {
                    s.replay.push(m.bound);
                    let spec_ctx = Ctx {
                        set: &set,
                        machine,
                        channels: &channels,
                        part_of: &part_of,
                        chan_owner: &chan_owner,
                        dangling_base,
                        eager_limit,
                        run_factor,
                        sharers,
                        rec: s.buf.as_ref(),
                        pid,
                    };
                    parts[m.dst].deliver(m.bound, &spec_ctx);
                } else {
                    parts[m.dst].deliver(m.bound, &ctx);
                }
                delivered += 1;
            }
            backlog = retained;

            // Collectives complete once every rank everywhere has parked
            // — identical to the conservative coordinator. A rank parked
            // on *speculative* state must not contribute an unvalidated
            // entry time, so any pending attempt is forced back to its
            // checkpoint first; the collective then completes in a
            // later, fully-validated round.
            let mut total_parked: usize = parts.iter().map(|pt| pt.parked.len()).sum();
            if total_parked == n && specs.iter().any(Option::is_some) {
                for (i, slot) in specs.iter_mut().enumerate() {
                    if let Some(s) = slot.take() {
                        roll_back(
                            i,
                            s,
                            &mut parts,
                            &mut preds,
                            &mut st,
                            rec,
                            &ctx,
                            t0,
                            "collective",
                        );
                    }
                }
                total_parked = parts.iter().map(|pt| pt.parked.len()).sum();
            }
            if total_parked == n {
                let mut bytes = 0usize;
                let mut entry = SimTime::ZERO;
                for pt in parts.iter() {
                    for &x in &pt.parked {
                        let lx = x - pt.lo;
                        if let SharedOp::AllReduce { bytes: b } = set.ops(x)[pt.pc[lx] as usize] {
                            bytes = bytes.max(b);
                        }
                        entry = entry.max(pt.park_clock[lx]);
                    }
                }
                let completion = entry + collective_cost(machine, bytes, n);
                if let Some(rec) = rec {
                    // Same tie rule as the sequential engine: the
                    // smallest global rank that arrived last.
                    let entry_rank = parts
                        .iter()
                        .flat_map(|pt| (pt.lo..pt.hi).map(move |x| (x, pt.park_clock[x - pt.lo])))
                        .find(|&(_, pc)| pc == entry)
                        .map(|(x, _)| x as u32)
                        .unwrap_or(0);
                    rec.sim_edge(EdgeRecord {
                        pid,
                        kind: EdgeKind::Collective,
                        chan: u32::MAX,
                        src: entry_rank,
                        dst: entry_rank,
                        tag: 0,
                        bytes: bytes as u64,
                        send_post: entry.picos(),
                        recv_post: entry.picos(),
                        wire_start: entry.picos(),
                        recv: completion.picos(),
                        resume: entry.picos(),
                    });
                }
                for pt in parts.iter_mut() {
                    let parked = std::mem::take(&mut pt.parked);
                    for x in parked {
                        let lx = x - pt.lo;
                        let waited = completion.saturating_sub(pt.park_clock[lx]);
                        if let Some(rec) = rec {
                            let name = match set.ops(x)[pt.pc[lx] as usize] {
                                SharedOp::AllReduce { .. } => "allreduce",
                                _ => "barrier",
                            };
                            if waited > SimTime::ZERO {
                                rec.sim_span(
                                    pid,
                                    x as u32,
                                    name,
                                    Cat::Collective,
                                    pt.park_clock[lx].picos(),
                                    waited.picos(),
                                    vec![("bytes", bytes.into())],
                                );
                            }
                        }
                        pt.stats[lx].collective += waited;
                        pt.clock[lx] = completion;
                        pt.status[lx] = St::Ready;
                        pt.pc[lx] += 1;
                    }
                    for rank in pt.lo..pt.hi {
                        pt.ready.push_back(rank);
                    }
                }
            }

            if let Some(rec) = rec {
                rec.wall_span(
                    OPT_PID,
                    p as u32,
                    format!("round {}", st.rounds),
                    Cat::Task,
                    t0,
                    vec![("delivered", delivered.into()), ("backlog", backlog.len().into())],
                );
            }

            // A partition can *finish* on speculative state; the run
            // only ends once every attempt has resolved, so force the
            // stragglers back to their checkpoints and keep rounding.
            let mut total_finished: usize = parts.iter().map(|pt| pt.finished).sum();
            if total_finished == n && specs.iter().any(Option::is_some) {
                for (i, slot) in specs.iter_mut().enumerate() {
                    if let Some(s) = slot.take() {
                        roll_back(i, s, &mut parts, &mut preds, &mut st, rec, &ctx, t0, "finish");
                    }
                }
                total_finished = parts.iter().map(|pt| pt.finished).sum();
            }
            if total_finished == n {
                let mut ranks = Vec::with_capacity(n);
                for pt in parts.iter_mut() {
                    ranks.append(&mut pt.stats);
                }
                break Ok(RunReport { ranks });
            }
            if !backlog.is_empty() {
                // Undelivered window-throttled mail is pending progress:
                // the next round's delivery pass wakes its receivers.
                continue;
            }
            if parts.iter().all(|pt| pt.ready.is_empty()) && specs.iter().any(Option::is_some) {
                // Quiescence on speculative state proves nothing: the
                // checkpoints may still have conservative work to do.
                for (i, slot) in specs.iter_mut().enumerate() {
                    if let Some(s) = slot.take() {
                        roll_back(
                            i,
                            s,
                            &mut parts,
                            &mut preds,
                            &mut st,
                            rec,
                            &ctx,
                            t0,
                            "quiescence",
                        );
                    }
                }
            }
            if parts.iter().all(|pt| pt.ready.is_empty()) {
                // Global quiescence: speculation cannot help (no rank
                // anywhere will produce the mail a prediction needs), so
                // this is the sequential engine's least-fixpoint state.
                let mut blocked = Vec::new();
                let mut parked_out = Vec::new();
                for pt in parts.iter() {
                    for li in 0..(pt.hi - pt.lo) {
                        let idx = pt.lo + li;
                        match pt.status[li] {
                            St::BlockedRecv { from, tag } => {
                                blocked.push((idx, from as usize, tag))
                            }
                            St::BlockedSend { to, tag } => blocked.push((idx, to as usize, tag)),
                            St::Parked => parked_out.push(idx),
                            _ => {}
                        }
                    }
                }
                break Err(SimError::Deadlock { blocked, parked: parked_out });
            }
        };

        let report = result?;
        if let Some(rec) = rec {
            debug_check_span_totals(rec, pid, &report);
        }
        Ok((report, st))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;
    use crate::network::NetworkModel;
    use crate::noise::NoiseModel;
    use crate::program::{Op, Program};

    fn prog(ops: &[Op]) -> Program {
        let mut p = Program::new();
        for &op in ops {
            p.push(op);
        }
        p
    }

    fn linked(mflops: f64) -> MachineSpec {
        let mut m = MachineSpec::ideal(mflops);
        m.network = NetworkModel::from_link(10.0, 250.0, 2.0, 16384.0);
        m
    }

    /// One-directional pipeline ending in an AllReduce (the par.rs
    /// fixture): partitions drain in one giant burst each, so it checks
    /// correctness around big mail batches rather than speculation.
    fn pipeline(ranks: usize, blocks: usize, bytes: usize) -> Vec<Program> {
        let mut programs = Vec::new();
        for r in 0..ranks {
            let mut p = Program::new();
            for b in 0..blocks {
                if r > 0 {
                    p.push(Op::Recv { from: r - 1, tag: b as u32 });
                }
                p.push(Op::Compute { flops: 1e6, working_set: 2048 });
                if r + 1 < ranks {
                    p.push(Op::Send { to: r + 1, bytes, tag: b as u32 });
                }
            }
            p.push(Op::AllReduce { bytes: 8 });
            programs.push(p);
        }
        programs
    }

    /// Bidirectional neighbour exchange: every rank swaps with both
    /// neighbours every block, so partitions advance in lock-step and
    /// speculation has a steady cadence to predict.
    fn halo(ranks: usize, blocks: usize, bytes: usize) -> Vec<Program> {
        let mut programs = Vec::new();
        for r in 0..ranks {
            let mut p = Program::new();
            for b in 0..blocks {
                let b = b as u32;
                p.push(Op::Compute { flops: 1e6, working_set: 2048 });
                if r + 1 < ranks {
                    p.push(Op::Send { to: r + 1, bytes, tag: 2 * b });
                }
                if r > 0 {
                    p.push(Op::Send { to: r - 1, bytes, tag: 2 * b + 1 });
                }
                if r > 0 {
                    p.push(Op::Recv { from: r - 1, tag: 2 * b });
                }
                if r + 1 < ranks {
                    p.push(Op::Recv { from: r + 1, tag: 2 * b + 1 });
                }
            }
            programs.push(p);
        }
        programs
    }

    #[test]
    fn optimistic_matches_sequential_on_halo_exchange() {
        let m = linked(100.0);
        let programs = halo(6, 8, 512);
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        for partitions in [2, 3, 6] {
            for budget in [1, 4] {
                let cfg = OptConfig::new(partitions).with_budget(budget);
                let (got, st) =
                    Engine::new(&m, programs.clone()).run_optimistic_stats(cfg).unwrap();
                assert_eq!(got, want, "p={partitions} budget={budget} diverged");
                assert_eq!(st.partitions, partitions);
            }
        }
    }

    #[test]
    fn optimistic_commits_on_steady_cadence() {
        // Silent machine → exactly periodic arrivals → the linear
        // extrapolation is exact and speculation must commit.
        let m = linked(100.0);
        let programs = halo(4, 10, 512);
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        let (got, st) = Engine::new(&m, programs).run_optimistic_stats(OptConfig::new(2)).unwrap();
        assert_eq!(got, want);
        assert!(st.speculated > 0, "no speculation attempted: {st:?}");
        assert!(st.commits > 0, "steady cadence must commit: {st:?}");
    }

    /// A halo exchange whose compute cost jumps midway: the first phase
    /// settles into a verified constant cadence, then the transition
    /// breaks it — the one shape the predictor is *designed* to get
    /// wrong (and recover from via rollback).
    fn two_phase_halo(ranks: usize, blocks: usize, bytes: usize) -> Vec<Program> {
        let mut programs = halo(ranks, blocks, bytes);
        for p in programs.iter_mut() {
            let ops: Vec<Op> = p.ops().to_vec();
            let mut q = Program::new();
            let mut seen = 0usize;
            for op in ops {
                if let Op::Compute { working_set, .. } = op {
                    seen += 1;
                    let flops = if seen > blocks / 2 { 5e6 } else { 1e6 };
                    q.push(Op::Compute { flops, working_set });
                } else {
                    q.push(op);
                }
            }
            *p = q;
        }
        programs
    }

    #[test]
    fn noisy_cadence_never_speculates_but_results_match() {
        // OS noise jitters every arrival, so no channel ever shows a
        // verified cadence: the gate keeps optimism idle rather than
        // feeding it guaranteed mispredictions.
        let mut m = linked(100.0);
        m.noise = NoiseModel::commodity();
        let programs = halo(6, 8, 512);
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        let (got, st) = Engine::new(&m, programs).run_optimistic_stats(OptConfig::new(3)).unwrap();
        assert_eq!(got, want);
        assert_eq!(st.speculated, 0, "jittered cadence must not pass the gate: {st:?}");
        assert_eq!(st.rollbacks, 0, "{st:?}");
    }

    #[test]
    fn cadence_break_forces_rollbacks_but_results_match() {
        let m = linked(100.0);
        let programs = two_phase_halo(6, 12, 512);
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        let (got, st) = Engine::new(&m, programs).run_optimistic_stats(OptConfig::new(3)).unwrap();
        assert_eq!(got, want);
        assert!(st.speculated > 0, "no speculation attempted: {st:?}");
        assert!(st.rollbacks > 0, "the phase change must mispredict: {st:?}");
        assert!(st.commits > 0, "both steady phases must commit: {st:?}");
    }

    #[test]
    fn rendezvous_is_never_speculated() {
        let mut m = linked(100.0);
        m.noise = NoiseModel::commodity();
        m.rendezvous_bytes = Some(1024);
        let programs = pipeline(9, 4, 50_000);
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        let (got, st) = Engine::new(&m, programs).run_optimistic_stats(OptConfig::new(3)).unwrap();
        assert_eq!(got, want);
        assert_eq!(st.speculated, 0, "rendezvous channels must not speculate");
        assert!(st.boundary_messages > 0);
    }

    #[test]
    fn shuffled_orders_are_digest_invariant() {
        let mut m = linked(100.0);
        m.noise = NoiseModel::commodity();
        let programs = halo(8, 6, 512);
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        for seed in [1u64, 2, 0xFEED] {
            let got = Engine::new(&m, programs.clone()).run_parallel_ordered(4, seed).unwrap();
            assert_eq!(got, want, "order seed {seed} diverged");
            let cfg = OptConfig::new(4).with_order(ExecOrder::Shuffled(seed));
            let got = Engine::new(&m, programs.clone()).run_optimistic(cfg).unwrap();
            assert_eq!(got, want, "optimistic order seed {seed} diverged");
        }
    }

    #[test]
    fn zero_latency_network_needs_no_fallback() {
        // The conservative engine must fall back on a free network (no
        // lookahead); the optimistic engine keeps its partitions.
        let m = MachineSpec::ideal(100.0);
        let programs = halo(6, 5, 512);
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        let (got, st) = Engine::new(&m, programs).run_optimistic_stats(OptConfig::new(4)).unwrap();
        assert_eq!(got, want);
        assert_eq!(st.partitions, 4, "optimism must not fall back on zero lookahead");
    }

    #[test]
    fn tracing_optimistic_matches_tracing_sequential() {
        // Committed path: silent cadence, so buffered spans are replayed.
        let m = linked(100.0);
        let programs = halo(4, 10, 512);
        let rec_seq = Recorder::enabled();
        let want = Engine::new(&m, programs.clone()).with_recorder(&rec_seq, 3).run().unwrap();
        let rec_opt = Recorder::enabled();
        let (got, st) = Engine::new(&m, programs.clone())
            .with_recorder(&rec_opt, 3)
            .run_optimistic_stats(OptConfig::new(2))
            .unwrap();
        assert_eq!(got, want);
        assert_eq!(rec_seq.sim_spans(), rec_opt.sim_spans());
        assert!(!rec_seq.sim_edges().is_empty());
        assert_eq!(rec_seq.sim_edges(), rec_opt.sim_edges());
        assert!(st.commits > 0);
        // Committed predictions leave a structured hit timeline.
        assert!(rec_opt
            .events()
            .iter()
            .any(|e| e.pid == OPT_PID && e.sim_time && e.name == "spec.commit"));
        assert!(rec_opt
            .wall_spans()
            .iter()
            .any(|s| s.pid == OPT_PID && s.name.starts_with("commit")));
        assert!(rec_opt
            .wall_spans()
            .iter()
            .any(|s| s.pid == OPT_PID && s.name.starts_with("round")));

        // Rollback path: a mid-run cadence break, so buffered spans are
        // discarded and regenerated conservatively.
        let m = linked(100.0);
        let programs = two_phase_halo(6, 12, 512);
        let rec_seq = Recorder::enabled();
        let want = Engine::new(&m, programs.clone()).with_recorder(&rec_seq, 3).run().unwrap();
        let rec_opt = Recorder::enabled();
        let (got, st) = Engine::new(&m, programs)
            .with_recorder(&rec_opt, 3)
            .run_optimistic_stats(OptConfig::new(3))
            .unwrap();
        assert_eq!(got, want);
        assert_eq!(rec_seq.sim_spans(), rec_opt.sim_spans());
        assert_eq!(rec_seq.sim_edges(), rec_opt.sim_edges());
        assert!(st.rollbacks > 0);
        // Each rollback leaves a structured event with its reason.
        let rollbacks: Vec<_> = rec_opt
            .events()
            .into_iter()
            .filter(|e| e.pid == OPT_PID && e.sim_time && e.name == "spec.rollback")
            .collect();
        assert_eq!(rollbacks.len() as u64, st.rollbacks);
        assert!(rollbacks.iter().all(|e| e.args.iter().any(|(k, _)| *k == "reason")));
    }

    #[test]
    fn collectives_synchronise_across_partitions() {
        let mut m = linked(100.0);
        m.noise = NoiseModel::commodity();
        let programs = pipeline(13, 5, 512);
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        for partitions in [2, 5, 13] {
            let got = Engine::new(&m, programs.clone())
                .run_optimistic(OptConfig::new(partitions))
                .unwrap();
            assert_eq!(got, want, "{partitions} partitions diverged");
        }
    }

    #[test]
    fn deadlock_reported_identically() {
        let m = linked(100.0);
        let p0 = prog(&[Op::Recv { from: 1, tag: 0 }, Op::Send { to: 1, bytes: 8, tag: 0 }]);
        let p1 = prog(&[Op::Recv { from: 0, tag: 0 }, Op::Send { to: 0, bytes: 8, tag: 0 }]);
        let want = Engine::new(&m, vec![p0.clone(), p1.clone()]).run().unwrap_err();
        let got = Engine::new(&m, vec![p0, p1]).run_optimistic(OptConfig::new(2)).unwrap_err();
        assert_eq!(format!("{want:?}"), format!("{got:?}"));
    }

    #[test]
    fn one_partition_runs_sequentially() {
        let m = linked(100.0);
        let programs = halo(3, 4, 64);
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        let (got, st) = Engine::new(&m, programs).run_optimistic_stats(OptConfig::new(1)).unwrap();
        assert_eq!(got, want);
        assert_eq!(st.partitions, 1);
        assert_eq!(st.rounds, 0);
    }

    #[test]
    fn validation_still_applies() {
        let m = linked(100.0);
        let p0 = prog(&[Op::Send { to: 1, bytes: 8, tag: 0 }]);
        let p1 = prog(&[]);
        let err = Engine::new(&m, vec![p0, p1]).run_optimistic(OptConfig::new(2)).unwrap_err();
        assert!(matches!(err, SimError::InvalidPrograms { .. }));
    }
}
