//! The object-safe protocol core: the one interface the engine calls protocols through.
//!
//! [`Protocol`] is the per-server trait SAER, RAES and the baselines implement; its
//! associated `ServerState` type keeps it out of `dyn`. Experiment harnesses still pick
//! protocols at runtime (from a config file, a CLI flag or a sweep grid), so
//! [`Simulation`] always holds a `Box<dyn ErasedProtocol>` and calls it once per phase
//! per round: departures, decisions, releases and the closed census.
//!
//! A blanket impl lifts every [`Protocol`] into this core. The states of all servers
//! live in one `Vec<P::ServerState>` behind a single `Box<dyn Any>` ([`ServerStates`]);
//! each phase downcasts it once, then runs the per-server loop as monomorphic code over
//! the round's server pieces. An adapter around another protocol (fault injection)
//! forwards each phase to it and wraps the inner rule per server through a
//! [`DecideHook`]; unwrapped protocols pass no hook, so their decide loop makes no
//! dynamic call.
//!
//! ```
//! use clb_engine::{erase, Demand, ErasedProtocol, Simulation};
//! use clb_engine::protocol::{Protocol, ServerCtx};
//!
//! struct AcceptAll;
//! impl Protocol for AcceptAll {
//!     type ServerState = ();
//!     fn init_server(&self) {}
//!     fn server_decide(&self, _: &mut (), ctx: &ServerCtx) -> u32 { ctx.incoming }
//!     fn server_is_closed(&self, _: &(), _: u32) -> bool { false }
//! }
//!
//! let graph = clb_graph::generators::regular_random(32, 8, 1).unwrap();
//! // Chosen "at runtime": the concrete type is gone, the behaviour is not.
//! let protocol: Box<dyn ErasedProtocol> = erase(AcceptAll);
//! let result = Simulation::builder(&graph)
//!     .protocol(protocol)
//!     .demand(Demand::Constant(2))
//!     .seed(7)
//!     .build()
//!     .run();
//! assert!(result.completed);
//! ```
//!
//! [`Simulation`]: crate::Simulation

use crate::protocol::{Protocol, ServerCtx, SettleRule};
use crate::simulation::{census_pieces, decide_pieces};
use std::any::Any;

/// The per-server states of one simulation: a `Vec<S>` of the protocol's
/// `ServerState` type, made by [`ErasedProtocol::erased_init_states`].
pub type ServerStates = Box<dyn Any + Send + Sync>;

/// What one round's decide phase reads and writes; every slice covers all servers.
pub struct DecidePhase<'a> {
    /// Current round, starting at 1.
    pub round: u32,
    /// Requests each server received this round; servers with none are skipped.
    pub incoming: &'a [u32],
    /// Each server's load; the accepted count is added in place.
    pub loads: &'a mut [u32],
    /// Requests each server accepts, written only for servers with incoming requests.
    pub accept: &'a mut [u32],
    /// The builder's forced piece count, which fixes the contiguous server ranges the
    /// loop splits into; `None` sizes them from the server count and from whether a
    /// hook is attached.
    pub pieces: Option<usize>,
    /// The per-server wrapper an adapter installed around the rule, if any.
    pub hook: Option<&'a dyn DecideHook>,
}

/// A per-server wrapper around a protocol's decision rule (see the module docs).
pub trait DecideHook: Sync {
    /// Decides for the server in `ctx`. `rule` runs the wrapped protocol's own rule on
    /// that server's state, under whatever context the hook passes it. The engine
    /// clamps the result to `ctx.incoming`.
    fn decide(&self, ctx: &ServerCtx, rule: &mut dyn FnMut(&ServerCtx) -> u32) -> u32;
}

/// The object-safe protocol core: one call per phase per round.
///
/// Every [`Protocol`] implements it through the blanket impl; [`erase`] (or `.into()`)
/// boxes one. The `erased_` prefix keeps this vocabulary apart from [`Protocol`]'s, so
/// a concrete type never has two applicable methods of one name.
///
/// The `states` of every phase must be the box [`ErasedProtocol::erased_init_states`]
/// made; the blanket impl panics on states of another type. Per-server calls follow
/// the engine's order: ascending servers within a piece, pieces in index order.
pub trait ErasedProtocol: Send + Sync {
    /// Creates the initial states of `num_servers` servers.
    fn erased_init_states(&self, num_servers: usize) -> ServerStates;

    /// [`Protocol::choices_per_round`].
    fn erased_choices_per_round(&self) -> u32;

    /// [`Protocol::settle_rule`].
    fn erased_settle_rule(&self) -> SettleRule;

    /// [`Protocol::name`].
    fn erased_name(&self) -> String;

    /// [`Protocol::server_on_depart`] for each `(server, count)` of `totals`, which
    /// lists a round's departures in ascending server order, one entry per server.
    fn erased_depart(&self, states: &mut dyn Any, totals: &[(u32, u32)]);

    /// [`Protocol::server_decide`] for every server with incoming requests, adding
    /// the accepted count (clamped to the incoming count) to its load.
    fn erased_decide(&self, states: &mut dyn Any, phase: DecidePhase<'_>);

    /// [`Protocol::server_on_release`] for each `(server, count)` of `totals`, shaped
    /// like [`ErasedProtocol::erased_depart`]'s.
    fn erased_release(&self, states: &mut dyn Any, totals: &[(u32, u32)]);

    /// Fills `closed` with [`Protocol::server_is_closed`] of every server and returns
    /// the closed count and the maximum load.
    fn erased_census(
        &self,
        states: &dyn Any,
        loads: &[u32],
        closed: &mut [bool],
        pieces: usize,
    ) -> (u64, u32);
}

/// Boxes a protocol behind the object-safe [`ErasedProtocol`] core; the same as
/// `Box::new(protocol)` or `protocol.into()`.
pub fn erase<P>(protocol: P) -> Box<dyn ErasedProtocol>
where
    P: Protocol + Send + 'static,
    P::ServerState: 'static,
{
    Box::new(protocol)
}

/// Lets the simulation builder take a concrete protocol wherever a boxed one goes.
impl<P> From<P> for Box<dyn ErasedProtocol>
where
    P: Protocol + Send + 'static,
    P::ServerState: 'static,
{
    fn from(protocol: P) -> Self {
        Box::new(protocol)
    }
}

fn states_mut<S: Any>(states: &mut dyn Any) -> &mut [S] {
    states
        .downcast_mut::<Vec<S>>()
        .expect("server states do not belong to this protocol")
}

/// Blanket lift: one downcast per phase, then monomorphic per-server loops.
impl<P> ErasedProtocol for P
where
    P: Protocol + Send + 'static,
    P::ServerState: 'static,
{
    fn erased_init_states(&self, num_servers: usize) -> ServerStates {
        let states: Vec<P::ServerState> = (0..num_servers).map(|_| self.init_server()).collect();
        Box::new(states)
    }

    fn erased_choices_per_round(&self) -> u32 {
        self.choices_per_round()
    }

    fn erased_settle_rule(&self) -> SettleRule {
        self.settle_rule()
    }

    fn erased_name(&self) -> String {
        self.name()
    }

    fn erased_depart(&self, states: &mut dyn Any, totals: &[(u32, u32)]) {
        let states = states_mut::<P::ServerState>(states);
        for &(server, count) in totals {
            self.server_on_depart(&mut states[server as usize], count);
        }
    }

    fn erased_decide(&self, states: &mut dyn Any, phase: DecidePhase<'_>) {
        let states = states_mut::<P::ServerState>(states);
        match phase.hook {
            None => decide_pieces(states, phase, |state, ctx| self.server_decide(state, ctx)),
            Some(hook) => decide_pieces(states, phase, |state, ctx| {
                hook.decide(ctx, &mut |ctx| self.server_decide(state, ctx))
            }),
        }
    }

    fn erased_release(&self, states: &mut dyn Any, totals: &[(u32, u32)]) {
        let states = states_mut::<P::ServerState>(states);
        for &(server, count) in totals {
            self.server_on_release(&mut states[server as usize], count);
        }
    }

    fn erased_census(
        &self,
        states: &dyn Any,
        loads: &[u32],
        closed: &mut [bool],
        pieces: usize,
    ) -> (u64, u32) {
        let states = states
            .downcast_ref::<Vec<P::ServerState>>()
            .expect("server states do not belong to this protocol");
        census_pieces(states, loads, closed, pieces, |state, load| {
            self.server_is_closed(state, load)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accept up to a fixed total, then close (same shape as the protocol.rs test type).
    struct UpTo(u32);

    impl Protocol for UpTo {
        type ServerState = u32;
        fn init_server(&self) -> u32 {
            0
        }
        fn server_decide(&self, state: &mut u32, ctx: &ServerCtx) -> u32 {
            let take = self.0.saturating_sub(*state).min(ctx.incoming);
            *state += take;
            take
        }
        fn server_is_closed(&self, state: &u32, _load: u32) -> bool {
            *state >= self.0
        }
        fn server_on_release(&self, state: &mut u32, count: u32) {
            *state -= count;
        }
        fn name(&self) -> String {
            format!("up-to({})", self.0)
        }
    }

    /// Runs one decide phase over `incoming` with every server at load 0.
    fn decide(
        protocol: &dyn ErasedProtocol,
        states: &mut ServerStates,
        round: u32,
        incoming: &[u32],
        hook: Option<&dyn DecideHook>,
    ) -> Vec<u32> {
        let mut loads = vec![0; incoming.len()];
        let mut accept = vec![0; incoming.len()];
        protocol.erased_decide(
            &mut **states,
            DecidePhase {
                round,
                incoming,
                loads: &mut loads,
                accept: &mut accept,
                pieces: Some(2),
                hook,
            },
        );
        assert_eq!(
            loads, accept,
            "loads start at 0, so they end at the accepts"
        );
        accept
    }

    #[test]
    fn phases_match_per_server_calls() {
        let concrete = UpTo(3);
        let erased = erase(UpTo(3));
        let mut concrete_states = [concrete.init_server(); 3];
        let mut states = erased.erased_init_states(3);
        let incoming = [2, 0, 5];
        for round in 1..=4u32 {
            let accept = decide(&*erased, &mut states, round, &incoming, None);
            for (s, state) in concrete_states.iter_mut().enumerate() {
                let ctx = ServerCtx {
                    server: s as u32,
                    round,
                    current_load: 0,
                    incoming: incoming[s],
                };
                let expected = if incoming[s] == 0 {
                    0
                } else {
                    concrete.server_decide(state, &ctx)
                };
                assert_eq!(accept[s], expected, "round {round}, server {s}");
            }
            let mut closed = [false; 3];
            let (count, max) = erased.erased_census(&*states, &[4, 1, 0], &mut closed, 2);
            let expected: Vec<bool> = concrete_states
                .iter()
                .map(|state| concrete.server_is_closed(state, 0))
                .collect();
            assert_eq!(closed.to_vec(), expected);
            assert_eq!(count, expected.iter().filter(|&&c| c).count() as u64);
            assert_eq!(max, 4);
        }
        erased.erased_release(&mut *states, &[(0, 1), (2, 3)]);
        let states = states.downcast_ref::<Vec<u32>>().unwrap();
        assert_eq!(states, &vec![2, 0, 0]);
    }

    #[test]
    fn metadata_forwards() {
        let erased: Box<dyn ErasedProtocol> = UpTo(5).into();
        assert_eq!(erased.erased_name(), "up-to(5)");
        assert_eq!(erased.erased_choices_per_round(), 1);
        assert_eq!(erased.erased_settle_rule(), SettleRule::FirstAccepted);
    }

    /// Halves every batch before the rule sees it, then accepts one fewer.
    struct Halve;
    impl DecideHook for Halve {
        fn decide(&self, ctx: &ServerCtx, rule: &mut dyn FnMut(&ServerCtx) -> u32) -> u32 {
            let inner = ServerCtx {
                incoming: ctx.incoming / 2,
                ..*ctx
            };
            rule(&inner).saturating_sub(1)
        }
    }

    #[test]
    fn hook_wraps_the_rule_on_each_servers_state() {
        let erased = erase(UpTo(10));
        let mut states = erased.erased_init_states(2);
        let accept = decide(&*erased, &mut states, 1, &[8, 3], Some(&Halve));
        assert_eq!(accept, vec![3, 0]);
        // The rule ran on each server's own state with the halved batch.
        assert_eq!(states.downcast_ref::<Vec<u32>>().unwrap(), &vec![4, 1]);
    }

    #[test]
    #[should_panic(expected = "do not belong")]
    fn foreign_states_are_rejected() {
        let erased = erase(UpTo(2));
        let mut foreign: ServerStates = Box::new(vec!["not a counter"]);
        let _ = decide(&*erased, &mut foreign, 1, &[1], None);
    }
}
