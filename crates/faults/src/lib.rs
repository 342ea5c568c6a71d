//! Deterministic fault injection for the `constrained-lb` stack.
//!
//! Every node in the base reproduction is honest and immortal. This crate asks the
//! follow-up question the paper's guarantees invite — *which of them survive which
//! misbehaviors?* — by wrapping any [`ErasedProtocol`] in a [`FaultAdapter`] that
//! perturbs what the server-side decision rule sees and returns, **without touching the
//! engine**. The fault menu follows the failure modes studied in the related work
//! (servers departing as in bounded-load consistent hashing, degraded load information
//! as in asymptotically-optimal load-balancing topologies):
//!
//! * **Crash-stop** ([`CrashFault`]) — a random fraction of servers accept nothing from
//!   a given round onward, as if they had left the system.
//! * **Lying load reports** ([`LoadLieFault`]) — a random fraction of servers run their
//!   decision rule against a distorted `current_load` (under- or over-reporting by a
//!   multiplicative factor), modelling stale or adversarial load information.
//! * **Message loss** ([`MessageLossFault`]) — each incoming request is independently
//!   dropped with probability `request_p` before the server sees it, and each
//!   acceptance is independently lost with probability `accept_p` on the way back.
//! * **Stragglers** ([`StragglerFault`]) — a random fraction of servers independently
//!   skip the phase-2 decision of a round (accept nothing) with probability `skip_p`
//!   per round, modelling slow nodes that miss the synchronous deadline.
//!
//! # Determinism
//!
//! The adapter extends the repository's determinism contract instead of breaking it:
//! every fault draw comes from a dedicated [`StreamFactory`] stream keyed by
//! `(server, fault kind, round)` under the reserved [`FAULT_DOMAIN`], so it is a pure
//! function of the trial seed. No draw depends on execution order, and the adapter
//! keeps no mutable state of its own — faulted runs are therefore bit-identical across
//! thread counts, shard counts and retention modes, exactly like fault-free runs.
//! Membership draws ("is server *s* a crasher / liar / straggler?") use round `0`,
//! which the engine never reaches (rounds start at 1), so they can never collide with
//! the per-round draws.
//!
//! # Quick example
//!
//! ```
//! use clb_faults::FaultPlan;
//!
//! let plan = FaultPlan::none()
//!     .crash(5, 0.25)            // 25% of servers crash at round 5
//!     .message_loss(0.10, 0.0);  // and 10% of requests are dropped
//! assert!(!plan.is_empty());
//! assert_eq!(plan.label(), "crash(r5,25%)+loss(req10%,acc0%)");
//! // `plan.wrap(protocol, seed)` produces the faulted protocol for one trial.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use clb_engine::{DecideHook, DecidePhase, ErasedProtocol, ServerCtx, ServerStates, SettleRule};
use clb_rng::{Binomial, RandomSource, StreamFactory};
use serde::{Deserialize, Serialize};
use std::any::Any;

/// The [`StreamFactory`] domain tag reserved for fault draws (`b"flts"`), distinct from
/// the engine's protocol-execution domain so faults never correlate with ball routing.
/// Registered in — and re-exported from — the central `clb_rng::domains` registry.
pub use clb_rng::domains::FAULT_DOMAIN;

/// Sub-entity tags separating the per-kind fault streams of one server.
const CRASH: u64 = 1;
const LIE: u64 = 2;
const REQ_LOSS: u64 = 3;
const ACC_LOSS: u64 = 4;
const STRAGGLE: u64 = 5;

/// The round index used for per-server membership draws. Engine rounds start at 1, so
/// round 0 is free and membership can never collide with a per-round draw.
const MEMBERSHIP_ROUND: u64 = 0;

/// Is `server` a member of the faulty set for `kind`? Pure function of the factory
/// seed, so every consumer (the adapter, the surviving-server census) agrees.
fn is_member(faults: &StreamFactory, server: u64, kind: u64, fraction: f64) -> bool {
    faults
        .stream3(server, kind, MEMBERSHIP_ROUND)
        .gen_bool(fraction)
}

fn check_probability(name: &str, p: f64) -> Result<(), String> {
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(format!("{name} must be a probability in [0, 1], got {p}"));
    }
    Ok(())
}

/// Crash-stop: a `fraction` of servers accept nothing from round `at_round` onward.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashFault {
    /// First round (1-based, inclusive) in which the crashed servers stop accepting.
    pub at_round: u32,
    /// Expected fraction of servers that crash; membership is an independent Bernoulli
    /// draw per server.
    pub fraction: f64,
}

impl CrashFault {
    fn validate(&self) -> Result<(), String> {
        if self.at_round == 0 {
            return Err("crash at_round must be >= 1 (rounds are 1-based)".to_string());
        }
        check_probability("crash fraction", self.fraction)
    }

    fn applies(&self, faults: &StreamFactory, server: u64, round: u32) -> bool {
        round >= self.at_round && is_member(faults, server, CRASH, self.fraction)
    }
}

/// Lying load reports: a `fraction` of servers see `current_load × factor` (rounded)
/// instead of the truth when running their decision rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadLieFault {
    /// Expected fraction of servers that misreport; independent Bernoulli per server.
    pub fraction: f64,
    /// Multiplicative distortion: `< 1` under-reports (servers look emptier than they
    /// are and over-accept), `> 1` over-reports (servers look fuller and under-accept).
    pub factor: f64,
}

impl LoadLieFault {
    fn validate(&self) -> Result<(), String> {
        check_probability("load-lie fraction", self.fraction)?;
        if !self.factor.is_finite() || self.factor < 0.0 {
            return Err(format!(
                "load-lie factor must be finite and >= 0, got {}",
                self.factor
            ));
        }
        Ok(())
    }

    fn distorted(&self, load: u32) -> u32 {
        (load as f64 * self.factor).round().min(u32::MAX as f64) as u32
    }
}

/// Message loss: requests and acceptances are independently dropped in transit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MessageLossFault {
    /// Probability that an incoming request is lost before the server sees it.
    pub request_p: f64,
    /// Probability that an acceptance is lost on the way back (the ball stays alive).
    pub accept_p: f64,
}

impl MessageLossFault {
    fn validate(&self) -> Result<(), String> {
        check_probability("message-loss request_p", self.request_p)?;
        check_probability("message-loss accept_p", self.accept_p)
    }
}

/// Stragglers: a `fraction` of servers independently miss (skip) a round's phase-2
/// decision with probability `skip_p` per round, accepting nothing that round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerFault {
    /// Expected fraction of servers that are stragglers; independent Bernoulli per
    /// server.
    pub fraction: f64,
    /// Per-round probability that a straggler misses the round entirely.
    pub skip_p: f64,
}

impl StragglerFault {
    fn validate(&self) -> Result<(), String> {
        check_probability("straggler fraction", self.fraction)?;
        check_probability("straggler skip_p", self.skip_p)
    }

    fn applies(&self, faults: &StreamFactory, server: u64, round: u32) -> bool {
        is_member(faults, server, STRAGGLE, self.fraction)
            && faults
                .stream3(server, STRAGGLE, round as u64)
                .gen_bool(self.skip_p)
    }
}

/// A declarative, serializable schedule of faults to inject into one protocol run.
///
/// Every kind is optional; [`FaultPlan::none`] is the empty plan, and wrapping a
/// protocol with the empty plan is bit-identical to not wrapping it at all (the
/// adapter's fault paths are all conditional on plan entries, pinned by the erased
/// equivalence suite). Plans are `Copy` and travel inside `ExperimentConfig` across
/// the shard wire format, so a faulted sweep shards exactly like a fault-free one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Crash-stop schedule, if any.
    pub crash: Option<CrashFault>,
    /// Lying-load schedule, if any.
    pub load_lie: Option<LoadLieFault>,
    /// Message-loss schedule, if any.
    pub message_loss: Option<MessageLossFault>,
    /// Straggler schedule, if any.
    pub straggler: Option<StragglerFault>,
}

impl FaultPlan {
    /// The empty plan: no faults. Wrapping with it changes nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a crash-stop fault: `fraction` of servers accept nothing from `at_round`
    /// (1-based) onward.
    ///
    /// # Panics
    /// If `at_round == 0` or `fraction` is not a probability.
    pub fn crash(mut self, at_round: u32, fraction: f64) -> Self {
        self.crash = Some(CrashFault { at_round, fraction });
        self.assert_valid()
    }

    /// Adds a lying-load fault: `fraction` of servers see their load scaled by
    /// `factor` when deciding.
    ///
    /// # Panics
    /// If `fraction` is not a probability or `factor` is negative/non-finite.
    pub fn lying_load(mut self, fraction: f64, factor: f64) -> Self {
        self.load_lie = Some(LoadLieFault { fraction, factor });
        self.assert_valid()
    }

    /// Adds message loss: requests dropped with `request_p`, acceptances with
    /// `accept_p`.
    ///
    /// # Panics
    /// If either argument is not a probability.
    pub fn message_loss(mut self, request_p: f64, accept_p: f64) -> Self {
        self.message_loss = Some(MessageLossFault {
            request_p,
            accept_p,
        });
        self.assert_valid()
    }

    /// Adds stragglers: `fraction` of servers skip each round with `skip_p`.
    ///
    /// # Panics
    /// If either argument is not a probability.
    pub fn stragglers(mut self, fraction: f64, skip_p: f64) -> Self {
        self.straggler = Some(StragglerFault { fraction, skip_p });
        self.assert_valid()
    }

    fn assert_valid(self) -> Self {
        if let Err(reason) = self.validate() {
            panic!("invalid FaultPlan: {reason}");
        }
        self
    }

    /// Checks every scheduled fault's parameters (probabilities in `[0, 1]`, finite
    /// factors, 1-based crash round). The fluent builders assert this at construction;
    /// the shard wire decoder re-checks it when a plan arrives from another process.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(crash) = &self.crash {
            crash.validate()?;
        }
        if let Some(lie) = &self.load_lie {
            lie.validate()?;
        }
        if let Some(loss) = &self.message_loss {
            loss.validate()?;
        }
        if let Some(straggler) = &self.straggler {
            straggler.validate()?;
        }
        Ok(())
    }

    /// True if no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.crash.is_none()
            && self.load_lie.is_none()
            && self.message_loss.is_none()
            && self.straggler.is_none()
    }

    /// A compact human-readable tag for tables and protocol names, e.g.
    /// `"crash(r5,25%)+loss(req10%,acc0%)"`; `"none"` for the empty plan.
    pub fn label(&self) -> String {
        let pct = |p: f64| format!("{:.0}%", p * 100.0);
        let mut parts = Vec::new();
        if let Some(c) = &self.crash {
            parts.push(format!("crash(r{},{})", c.at_round, pct(c.fraction)));
        }
        if let Some(l) = &self.load_lie {
            parts.push(format!("lie({},x{})", pct(l.fraction), l.factor));
        }
        if let Some(m) = &self.message_loss {
            parts.push(format!(
                "loss(req{},acc{})",
                pct(m.request_p),
                pct(m.accept_p)
            ));
        }
        if let Some(s) = &self.straggler {
            parts.push(format!("straggle({},{})", pct(s.fraction), pct(s.skip_p)));
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }

    /// Compiles the plan into a [`FaultAdapter`] around `inner` for the trial with the
    /// given seed, returning it re-erased so it slots in wherever a
    /// `Box<dyn ErasedProtocol>` does.
    ///
    /// The adapter is constructed even for the empty plan — its pass-through is
    /// bit-identical to the unwrapped protocol, and always wrapping keeps that identity
    /// continuously under test.
    pub fn wrap(&self, inner: Box<dyn ErasedProtocol>, seed: u64) -> Box<dyn ErasedProtocol> {
        Box::new(FaultAdapter::new(inner, *self, seed))
    }

    /// How many of `num_servers` servers survive (did not crash) a run of `rounds_run`
    /// rounds under this plan and seed.
    ///
    /// Uses the same membership stream as the adapter, so the census matches what the
    /// run actually did: if the run finished before `at_round`, nobody crashed.
    pub fn surviving_servers(&self, seed: u64, num_servers: u64, rounds_run: u32) -> u64 {
        let Some(crash) = &self.crash else {
            return num_servers;
        };
        if rounds_run < crash.at_round {
            return num_servers;
        }
        let faults = StreamFactory::new(seed).domain(FAULT_DOMAIN);
        (0..num_servers)
            .filter(|&s| !is_member(&faults, s, CRASH, crash.fraction))
            .count() as u64
    }
}

/// An [`ErasedProtocol`] that injects the faults of a [`FaultPlan`] around an inner
/// erased protocol. Built by [`FaultPlan::wrap`]; runs through the engine unchanged.
///
/// Every phase is forwarded to the inner protocol, which owns the server states; the
/// adapter joins the inner decide loop as its [`DecideHook`]. Adapters do not nest.
///
/// Per decision, the fault pipeline is (in order): crash-stop → straggler skip →
/// request loss (binomial thinning of `incoming`) → load lie (distorted
/// `current_load`) → inner decision (clamped to the thinned batch) → acceptance loss
/// (binomial thinning of the accepted count). If request loss empties the batch the
/// inner rule is not consulted at all, mirroring the engine's own "decide only when
/// `incoming > 0`" contract.
pub struct FaultAdapter {
    inner: Box<dyn ErasedProtocol>,
    plan: FaultPlan,
    faults: StreamFactory,
}

impl FaultAdapter {
    /// Wraps `inner` with the plan's faults, drawing from the trial seed's
    /// [`FAULT_DOMAIN`] streams.
    ///
    /// # Panics
    /// If the plan fails [`FaultPlan::validate`] (unreachable for plans built through
    /// the fluent constructors, which validate eagerly).
    pub fn new(inner: Box<dyn ErasedProtocol>, plan: FaultPlan, seed: u64) -> Self {
        if let Err(reason) = plan.validate() {
            panic!("invalid FaultPlan: {reason}");
        }
        Self {
            inner,
            plan,
            faults: StreamFactory::new(seed).domain(FAULT_DOMAIN),
        }
    }
}

impl ErasedProtocol for FaultAdapter {
    fn erased_init_states(&self, num_servers: usize) -> ServerStates {
        self.inner.erased_init_states(num_servers)
    }

    fn erased_choices_per_round(&self) -> u32 {
        self.inner.erased_choices_per_round()
    }

    fn erased_settle_rule(&self) -> SettleRule {
        self.inner.erased_settle_rule()
    }

    fn erased_name(&self) -> String {
        format!("{}+faults[{}]", self.inner.erased_name(), self.plan.label())
    }

    fn erased_depart(&self, states: &mut dyn Any, totals: &[(u32, u32)]) {
        // Departures are ground truth (the ball really left), not a message a fault
        // could drop, so the adapter forwards them untouched.
        self.inner.erased_depart(states, totals);
    }

    fn erased_decide(&self, states: &mut dyn Any, phase: DecidePhase<'_>) {
        assert!(phase.hook.is_none(), "fault adapters do not nest");
        let hook = Some(self as &dyn DecideHook);
        self.inner
            .erased_decide(states, DecidePhase { hook, ..phase });
    }

    fn erased_release(&self, states: &mut dyn Any, totals: &[(u32, u32)]) {
        self.inner.erased_release(states, totals);
    }

    fn erased_census(
        &self,
        states: &dyn Any,
        loads: &[u32],
        closed: &mut [bool],
        pieces: usize,
    ) -> (u64, u32) {
        self.inner.erased_census(states, loads, closed, pieces)
    }
}

/// The fault pipeline, run per server around the inner protocol's rule.
impl DecideHook for FaultAdapter {
    fn decide(&self, ctx: &ServerCtx, rule: &mut dyn FnMut(&ServerCtx) -> u32) -> u32 {
        let server = ctx.server as u64;
        if let Some(crash) = &self.plan.crash {
            if crash.applies(&self.faults, server, ctx.round) {
                return 0;
            }
        }
        if let Some(straggler) = &self.plan.straggler {
            if straggler.applies(&self.faults, server, ctx.round) {
                return 0;
            }
        }
        let mut incoming = ctx.incoming;
        if let Some(loss) = &self.plan.message_loss {
            if loss.request_p > 0.0 {
                let mut stream = self.faults.stream3(server, REQ_LOSS, ctx.round as u64);
                let dropped = Binomial::new(incoming as u64, loss.request_p).sample(&mut stream);
                incoming -= dropped as u32;
                if incoming == 0 {
                    // The whole batch was lost in transit; the server never learns the
                    // round happened, so the inner rule is not consulted.
                    return 0;
                }
            }
        }
        let mut current_load = ctx.current_load;
        if let Some(lie) = &self.plan.load_lie {
            if is_member(&self.faults, server, LIE, lie.fraction) {
                current_load = lie.distorted(current_load);
            }
        }
        let inner_ctx = ServerCtx {
            server: ctx.server,
            round: ctx.round,
            current_load,
            incoming,
        };
        let mut accepted = rule(&inner_ctx).min(incoming);
        if let Some(loss) = &self.plan.message_loss {
            if loss.accept_p > 0.0 && accepted > 0 {
                let mut stream = self.faults.stream3(server, ACC_LOSS, ctx.round as u64);
                let lost = Binomial::new(accepted as u64, loss.accept_p).sample(&mut stream);
                accepted -= lost as u32;
            }
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clb_engine::{Demand, RunResult, Simulation};
    use clb_graph::{generators, log2_squared, BipartiteGraph};
    use clb_protocols::ProtocolSpec;

    fn graph() -> BipartiteGraph {
        generators::regular_random(64, log2_squared(64), 9).unwrap()
    }

    fn run(graph: &BipartiteGraph, protocol: Box<dyn ErasedProtocol>, seed: u64) -> RunResult {
        Simulation::builder(graph)
            .protocol(protocol)
            .demand(Demand::Constant(2))
            .seed(seed)
            .max_rounds(500)
            .build()
            .run()
    }

    #[test]
    fn empty_plan_is_a_pass_through() {
        let g = graph();
        let spec = ProtocolSpec::Saer { c: 8, d: 2 };
        for seed in [3u64, 77] {
            let bare = run(&g, spec.build(), seed);
            let wrapped = run(&g, FaultPlan::none().wrap(spec.build(), seed), seed);
            assert_eq!(bare, wrapped);
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let g = graph();
        let plan = FaultPlan::none()
            .crash(4, 0.3)
            .lying_load(0.25, 0.5)
            .message_loss(0.1, 0.05)
            .stragglers(0.2, 0.5);
        let spec = ProtocolSpec::Raes { c: 8, d: 2 };
        let a = run(&g, plan.wrap(spec.build(), 11), 11);
        let b = run(&g, plan.wrap(spec.build(), 11), 11);
        assert_eq!(a, b);
        // A different seed redraws memberships and losses.
        let c = run(&g, plan.wrap(spec.build(), 12), 12);
        assert_ne!(a, c);
    }

    #[test]
    fn full_crash_from_round_one_accepts_nothing() {
        let g = graph();
        let plan = FaultPlan::none().crash(1, 1.0);
        let result = run(
            &g,
            plan.wrap(ProtocolSpec::Saer { c: 8, d: 2 }.build(), 5),
            5,
        );
        assert!(!result.completed);
        assert_eq!(result.max_load, 0);
        assert_eq!(plan.surviving_servers(5, 64, result.rounds), 0);
    }

    #[test]
    fn crash_only_bites_after_its_round() {
        // rounds_run below at_round means nobody had crashed yet when the run ended.
        let plan = FaultPlan::none().crash(10, 1.0);
        assert_eq!(plan.surviving_servers(7, 64, 9), 64);
        assert_eq!(plan.surviving_servers(7, 64, 10), 0);
    }

    #[test]
    fn membership_extremes_are_exact() {
        let plan = FaultPlan::none().crash(1, 0.0);
        assert_eq!(plan.surviving_servers(1, 100, 50), 100);
        let plan = FaultPlan::none().crash(1, 1.0);
        assert_eq!(plan.surviving_servers(1, 100, 50), 0);
    }

    #[test]
    fn survivor_census_matches_adapter_membership() {
        // The census and the adapter must agree on who crashed, server by server.
        let plan = FaultPlan::none().crash(1, 0.4);
        let seed = 21;
        let faults = StreamFactory::new(seed).domain(FAULT_DOMAIN);
        let crash = plan.crash.unwrap();
        let survivors = (0..200u64)
            .filter(|&s| !crash.applies(&faults, s, 1))
            .count() as u64;
        assert_eq!(plan.surviving_servers(seed, 200, 1), survivors);
        assert!(
            survivors > 0 && survivors < 200,
            "40% crash should be partial"
        );
    }

    #[test]
    fn total_request_loss_blocks_all_assignment() {
        let g = graph();
        let plan = FaultPlan::none().message_loss(1.0, 0.0);
        let result = run(
            &g,
            plan.wrap(ProtocolSpec::Saer { c: 8, d: 2 }.build(), 5),
            5,
        );
        assert!(!result.completed);
        assert_eq!(result.max_load, 0);
    }

    #[test]
    fn universal_stragglers_block_all_assignment() {
        let g = graph();
        let plan = FaultPlan::none().stragglers(1.0, 1.0);
        let result = run(
            &g,
            plan.wrap(ProtocolSpec::Saer { c: 8, d: 2 }.build(), 5),
            5,
        );
        assert!(!result.completed);
        assert_eq!(result.max_load, 0);
    }

    #[test]
    fn lying_under_reporting_weakens_the_load_guarantee() {
        // SAER burns on cumulative requests, but the k-choice baseline caps on
        // current_load; halving the reported load lets it exceed its capacity.
        let g = graph();
        let spec = ProtocolSpec::KChoice { k: 2, capacity: 4 };
        let honest = run(&g, spec.build(), 17);
        assert!(honest.max_load <= 4);
        let plan = FaultPlan::none().lying_load(1.0, 0.0);
        let lied = run(&g, plan.wrap(spec.build(), 17), 17);
        assert!(
            lied.max_load > 4,
            "a server that always reports load 0 must overshoot its capacity (got {})",
            lied.max_load
        );
    }

    #[test]
    fn label_is_compact_and_complete() {
        assert_eq!(FaultPlan::none().label(), "none");
        let plan = FaultPlan::none()
            .crash(5, 0.25)
            .lying_load(0.5, 1.5)
            .message_loss(0.1, 0.0)
            .stragglers(0.2, 0.5);
        assert_eq!(
            plan.label(),
            "crash(r5,25%)+lie(50%,x1.5)+loss(req10%,acc0%)+straggle(20%,50%)"
        );
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(FaultPlan {
            crash: Some(CrashFault {
                at_round: 0,
                fraction: 0.5
            }),
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            message_loss: Some(MessageLossFault {
                request_p: 1.5,
                accept_p: 0.0
            }),
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            load_lie: Some(LoadLieFault {
                fraction: 0.5,
                factor: f64::NAN
            }),
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            straggler: Some(StragglerFault {
                fraction: -0.1,
                skip_p: 0.5
            }),
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn validate_rejects_non_finite_probabilities() {
        // NaN compares false against both range bounds, so a plain
        // `(0.0..=1.0).contains(&p)` check happens to reject it — but these tests pin
        // the behaviour explicitly so a refactor to clamp-style handling (the bug this
        // guards against: `f64::clamp` passes NaN through) cannot slip in silently.
        assert!(FaultPlan {
            crash: Some(CrashFault {
                at_round: 1,
                fraction: f64::NAN
            }),
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            message_loss: Some(MessageLossFault {
                request_p: f64::NAN,
                accept_p: 0.0
            }),
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            straggler: Some(StragglerFault {
                fraction: 0.5,
                skip_p: f64::INFINITY
            }),
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            load_lie: Some(LoadLieFault {
                fraction: f64::NEG_INFINITY,
                factor: 1.0
            }),
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid FaultPlan")]
    fn builder_panics_on_bad_probability() {
        let _ = FaultPlan::none().crash(1, 2.0);
    }

    #[test]
    #[should_panic(expected = "fault adapters do not nest")]
    fn nested_adapters_are_rejected() {
        let plan = FaultPlan::none().crash(5, 0.25);
        let inner = plan.wrap(ProtocolSpec::Saer { c: 8, d: 2 }.build(), 1);
        let _ = run(&graph(), plan.wrap(inner, 1), 1);
    }

    #[test]
    fn adapter_name_carries_the_plan() {
        let plan = FaultPlan::none().crash(5, 0.25);
        let adapter = FaultAdapter::new(ProtocolSpec::OneShot.build(), plan, 1);
        assert_eq!(adapter.erased_name(), "one-shot+faults[crash(r5,25%)]");
    }
}
