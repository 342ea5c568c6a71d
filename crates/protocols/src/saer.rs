//! SAER — Stop Accepting if Exceeding Requests (Algorithm 1 of the paper).
//!
//! Every round, each client re-submits its still-alive balls to servers chosen
//! independently and uniformly at random from its neighbourhood (the client side is
//! handled by the engine). On the server side:
//!
//! * a **burned** server rejects every request it receives, forever;
//! * a non-burned server that has received more than `c·d` balls *since the start of the
//!   process* (including the current round's batch) rejects the whole batch and becomes
//!   burned;
//! * otherwise the server accepts the whole batch.
//!
//! Because a server only ever accepts while its cumulative received count is at most
//! `c·d`, the final load of every server is at most `c·d` — the protocol's hard maximum
//! load guarantee. Theorem 1 shows that on almost-regular graphs with
//! `Δ_min(C) = Ω(log²n)` there is a constant `c` for which the protocol also terminates
//! in `O(log n)` rounds with `Θ(n)` work, w.h.p.

use clb_engine::{Protocol, ServerCtx};
use serde::{Deserialize, Serialize};

/// The SAER protocol with threshold constant `c` and request number `d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Saer {
    c: u32,
    d: u32,
}

impl Saer {
    /// Creates SAER(c, d). Panics if `c` or `d` is zero.
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

    /// The acceptance threshold `c·d`.
    pub fn threshold(&self) -> u64 {
        self.c as u64 * self.d as u64
    }
}

/// Per-server state of SAER.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SaerServerState {
    /// Balls received since the start of the process (accepted or not).
    pub received_total: u64,
    /// Whether the server is burned.
    pub burned: bool,
    /// Round in which the server became burned (0 if it never did).
    pub burned_at_round: u32,
}

impl Protocol for Saer {
    type ServerState = SaerServerState;

    fn init_server(&self) -> SaerServerState {
        SaerServerState::default()
    }

    fn server_decide(&self, state: &mut SaerServerState, ctx: &ServerCtx) -> u32 {
        state.received_total += ctx.incoming as u64;
        if state.burned {
            return 0;
        }
        if state.received_total > self.threshold() {
            state.burned = true;
            state.burned_at_round = ctx.round;
            return 0;
        }
        ctx.incoming
    }

    fn server_is_closed(&self, state: &SaerServerState, _current_load: u32) -> bool {
        state.burned
    }

    fn name(&self) -> String {
        format!("saer(c={}, d={})", self.c, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clb_engine::{Demand, Simulation};
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
    fn parameters_and_threshold() {
        let p = Saer::new(8, 3);
        assert_eq!(p.c(), 8);
        assert_eq!(p.d(), 3);
        assert_eq!(p.threshold(), 24);
        assert_eq!(p.name(), "saer(c=8, d=3)");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_c_rejected() {
        let _ = Saer::new(0, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_d_rejected() {
        let _ = Saer::new(2, 0);
    }

    #[test]
    fn accepts_until_cumulative_threshold() {
        let p = Saer::new(2, 3); // threshold 6
        let mut s = p.init_server();
        // Round 1: 4 balls, cumulative 4 <= 6 -> accept all.
        assert_eq!(p.server_decide(&mut s, &ctx(1, 0, 4)), 4);
        assert!(!s.burned);
        // Round 2: 3 more, cumulative 7 > 6 -> reject all and burn.
        assert_eq!(p.server_decide(&mut s, &ctx(2, 4, 3)), 0);
        assert!(s.burned);
        assert_eq!(s.burned_at_round, 2);
        // Round 3: burned servers keep rejecting and keep counting received balls.
        assert_eq!(p.server_decide(&mut s, &ctx(3, 4, 1)), 0);
        assert_eq!(s.received_total, 8);
        assert!(p.server_is_closed(&s, 4));
    }

    #[test]
    fn exact_threshold_is_still_accepted() {
        // The rule is "received MORE THAN cd", so a batch landing exactly on cd passes.
        let p = Saer::new(2, 2); // threshold 4
        let mut s = p.init_server();
        assert_eq!(p.server_decide(&mut s, &ctx(1, 0, 4)), 4);
        assert!(!s.burned);
        assert_eq!(p.server_decide(&mut s, &ctx(2, 4, 1)), 0);
        assert!(s.burned);
    }

    #[test]
    fn burning_depends_on_received_not_accepted() {
        // A single huge batch burns the server even though nothing was ever accepted:
        // this is exactly what distinguishes SAER from RAES.
        let p = Saer::new(4, 1); // threshold 4
        let mut s = p.init_server();
        assert_eq!(p.server_decide(&mut s, &ctx(1, 0, 10)), 0);
        assert!(s.burned);
        assert!(p.server_is_closed(&s, 0));
    }

    #[test]
    fn full_run_respects_max_load_and_terminates_fast() {
        let n = 512;
        let delta = log2_squared(n);
        let d = 2;
        let c = 8;
        let graph = generators::regular_random(n, delta, 7).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(Saer::new(c, d))
            .demand(Demand::Constant(d))
            .seed(11)
            .build();
        let result = sim.run();
        assert!(result.completed, "SAER should complete: {result:?}");
        assert!(
            result.max_load <= c * d,
            "load {} exceeds cd = {}",
            result.max_load,
            c * d
        );
        // Theorem 1: O(log n) rounds. 3·log2(n) = 27 is the constant the proof uses.
        let bound = 3.0 * (n as f64).log2();
        assert!(
            (result.rounds as f64) <= bound,
            "rounds {} exceed 3 log2 n = {bound}",
            result.rounds
        );
        // Work is Θ(n·d): with the paper's accounting each ball costs ≥ 2 messages.
        assert!(result.total_messages >= 2 * (n as u64) * d as u64);
        assert!(
            result.work_per_ball() < 20.0,
            "work per ball {} too large",
            result.work_per_ball()
        );
    }

    #[test]
    fn burned_servers_never_gain_load_afterwards() {
        let n = 256;
        let d = 2;
        let c = 2; // small c so some servers actually burn
        let delta = log2_squared(n);
        let graph = generators::regular_random(n, delta, 13).unwrap();
        let protocol = Saer::new(c, d);
        let mut sim = Simulation::builder(&graph)
            .protocol(protocol)
            .demand(Demand::Constant(d))
            .seed(29)
            .build();
        let result = sim.run();
        // Whether or not the run completed, no load may exceed cd and every burned
        // server's load must be at most what it had accepted before burning (≤ cd).
        assert!(result.max_load <= c * d);
        let loads = sim.server_loads();
        let states = sim.server_states::<SaerServerState>().unwrap();
        let burned_count = states.iter().filter(|s| s.burned).count();
        for (state, &load) in states.iter().zip(loads) {
            assert!(load as u64 <= protocol.threshold());
            if state.burned {
                assert!(state.received_total > protocol.threshold());
            } else {
                assert!(state.received_total <= protocol.threshold());
            }
        }
        // With c = 2 and d·n balls over n servers, some servers should have burned;
        // this keeps the test meaningful (if not, the workload is too easy).
        assert!(
            burned_count > 0,
            "expected at least one burned server with c = 2"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let graph = generators::regular_random(128, 49, 3).unwrap();
        let run = |seed| {
            let mut sim = Simulation::builder(&graph)
                .protocol(Saer::new(4, 2))
                .demand(Demand::Constant(2))
                .seed(seed)
                .build();
            let r = sim.run();
            (r, sim.server_loads().to_vec())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).1, run(6).1);
    }

    #[test]
    fn works_on_the_dense_complete_graph_too() {
        // The dense regime of Becchetti et al.: Δ = n.
        let n = 128;
        let d = 3;
        let graph = generators::complete(n, n).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(Saer::new(4, d))
            .demand(Demand::Constant(d))
            .seed(17)
            .build();
        let result = sim.run();
        assert!(result.completed);
        assert!(result.max_load <= 4 * d);
    }

    #[test]
    fn uniform_at_most_demand_is_supported() {
        let n = 128;
        let graph = generators::regular_random(n, log2_squared(n), 23).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(Saer::new(8, 4))
            .demand(Demand::UniformAtMost(4))
            .seed(31)
            .build();
        let result = sim.run();
        assert!(result.completed);
        assert!(result.max_load <= 32);
        assert!(result.total_balls < 4 * n as u64);
        assert!(result.total_balls >= n as u64);
    }
}
