//! RAES — Request a link, then Accept if Enough Space (Becchetti et al., SODA 2020).
//!
//! The original protocol SAER is derived from. The only difference is the server rule:
//! a RAES server looks at its *accepted* load, not at the cumulative number of received
//! requests. If accepting the current round's batch would push the load above `c·d`, it
//! rejects the whole batch (it is *saturated* for that round) but may accept again in a
//! later round when a smaller batch arrives. A SAER server in the same situation burns
//! permanently.
//!
//! Corollary 2 of the paper transfers the SAER bounds to RAES because the set of
//! requests RAES accepts per round stochastically dominates SAER's.

use clb_engine::{Protocol, ServerCtx};
use serde::{Deserialize, Serialize};

/// The RAES protocol with threshold constant `c` and request number `d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Raes {
    c: u32,
    d: u32,
}

impl Raes {
    /// Creates RAES(c, d). Panics if `c` or `d` is zero.
    pub fn new(c: u32, d: u32) -> Self {
        assert!(c > 0, "threshold constant c must be positive");
        assert!(d > 0, "request number d must be positive");
        Self { c, d }
    }

    /// The threshold constant `c`.
    pub fn c(&self) -> u32 {
        self.c
    }

    /// The request number `d`.
    pub fn d(&self) -> u32 {
        self.d
    }

    /// The capacity `c·d`.
    pub fn threshold(&self) -> u32 {
        self.c * self.d
    }
}

/// Per-server bookkeeping of RAES (statistics only; the acceptance rule needs nothing
/// beyond the engine-provided current load).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaesServerState {
    /// Number of rounds in which this server rejected a batch (was saturated).
    pub saturated_rounds: u32,
    /// Balls received since the start of the process.
    pub received_total: u64,
}

impl Protocol for Raes {
    type ServerState = RaesServerState;

    fn init_server(&self) -> RaesServerState {
        RaesServerState::default()
    }

    fn server_decide(&self, state: &mut RaesServerState, ctx: &ServerCtx) -> u32 {
        state.received_total += ctx.incoming as u64;
        if ctx.current_load + ctx.incoming > self.threshold() {
            state.saturated_rounds += 1;
            0
        } else {
            ctx.incoming
        }
    }

    fn server_is_closed(&self, _state: &RaesServerState, current_load: u32) -> bool {
        // A server with load c·d cannot accept anything ever again, which is the notion
        // of "saturated forever" the S_t observer needs.
        current_load >= self.threshold()
    }

    fn name(&self) -> String {
        format!("raes(c={}, d={})", self.c, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Saer, SaerServerState};
    use clb_engine::{Demand, SimConfig, Simulation, TrajectoryObserver};
    use clb_graph::{generators, log2_squared};

    fn ctx(round: u32, load: u32, incoming: u32) -> ServerCtx {
        ServerCtx {
            server: 0,
            round,
            current_load: load,
            incoming,
        }
    }

    #[test]
    fn accepts_while_space_is_left() {
        let p = Raes::new(2, 2); // capacity 4
        let mut s = p.init_server();
        assert_eq!(p.server_decide(&mut s, &ctx(1, 0, 3)), 3);
        assert_eq!(s.saturated_rounds, 0);
        // Load 3 + 2 incoming would exceed 4: saturated this round.
        assert_eq!(p.server_decide(&mut s, &ctx(2, 3, 2)), 0);
        assert_eq!(s.saturated_rounds, 1);
        // But unlike SAER it can accept again when the batch fits.
        assert_eq!(p.server_decide(&mut s, &ctx(3, 3, 1)), 1);
        assert_eq!(s.received_total, 6);
        assert!(p.server_is_closed(&s, 4));
        assert!(!p.server_is_closed(&s, 3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_parameters_rejected() {
        let _ = Raes::new(1, 0);
    }

    #[test]
    fn full_run_respects_capacity_and_terminates() {
        let n = 512;
        let delta = log2_squared(n);
        let d = 2;
        let c = 8;
        let graph = generators::regular_random(n, delta, 7).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(Raes::new(c, d))
            .demand(Demand::Constant(d))
            .seed(11)
            .build();
        let result = sim.run();
        assert!(result.completed);
        assert!(result.max_load <= c * d);
        assert!((result.rounds as f64) <= 3.0 * (n as f64).log2());
    }

    #[test]
    fn raes_survives_tight_capacity_where_saer_cannot() {
        // K_{16,16}, one ball per client, capacity c·d = 1: the system needs a perfect
        // matching. RAES only rejects per-round, so every free server stays reachable
        // and the uniform retry eventually places every ball. Under SAER a server that
        // receives two requests in the same round burns with load 0, which wastes
        // capacity the pigeonhole principle cannot spare — the run must get stuck.
        // The seed is fixed, so both outcomes are deterministic.
        let n = 16;
        let graph = generators::complete(n, n).unwrap();
        let cfg = SimConfig::new(3).with_max_rounds(5_000);
        let mut raes_sim = Simulation::builder(&graph)
            .protocol(Raes::new(1, 1))
            .demand(Demand::Constant(1))
            .config(cfg)
            .build();
        let raes_result = raes_sim.run();
        assert!(
            raes_result.completed,
            "RAES with c=1,d=1 should find the matching"
        );
        assert!(raes_result.max_load <= 1);

        let mut saer_sim = Simulation::builder(&graph)
            .protocol(Saer::new(1, 1))
            .demand(Demand::Constant(1))
            .config(cfg)
            .build();
        let saer_result = saer_sim.run();
        let burned_empty = saer_sim
            .server_states::<SaerServerState>()
            .unwrap()
            .iter()
            .zip(saer_sim.server_loads())
            .filter(|(state, &load)| state.burned && load == 0)
            .count();
        assert!(
            burned_empty > 0,
            "with 16 balls thrown uniformly at 16 servers some server should burn empty"
        );
        assert!(
            !saer_result.completed,
            "SAER cannot complete once a capacity-1 server burns with load 0"
        );
    }

    #[test]
    fn paired_run_raes_is_no_slower_than_saer() {
        // Same graph, same seed, same parameters: the per-round accepted requests of
        // RAES stochastically dominate SAER's (Corollary 2), so on identical randomness
        // RAES should never need more rounds.
        let n = 512;
        let d = 2;
        let c = 4;
        let graph = generators::regular_random(n, log2_squared(n), 37).unwrap();
        for seed in 0..5 {
            let cfg = SimConfig::new(seed);
            let mut saer = Simulation::builder(&graph)
                .protocol(Saer::new(c, d))
                .demand(Demand::Constant(d))
                .config(cfg)
                .build();
            let mut raes = Simulation::builder(&graph)
                .protocol(Raes::new(c, d))
                .demand(Demand::Constant(d))
                .config(cfg)
                .build();
            let mut saer_tr = TrajectoryObserver::new();
            let mut raes_tr = TrajectoryObserver::new();
            let rs = saer.run_observed(&mut [&mut saer_tr]);
            let rr = raes.run_observed(&mut [&mut raes_tr]);
            assert!(rs.completed && rr.completed);
            assert!(
                rr.rounds <= rs.rounds,
                "seed {seed}: RAES took {} rounds, SAER {}",
                rr.rounds,
                rs.rounds
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let graph = generators::regular_random(128, 49, 3).unwrap();
        let run = |seed| {
            let mut sim = Simulation::builder(&graph)
                .protocol(Raes::new(4, 2))
                .demand(Demand::Constant(2))
                .seed(seed)
                .build();
            sim.run()
        };
        assert_eq!(run(5), run(5));
    }
}
