//! Property-based tests of the system-wide invariants: whatever the topology, demand,
//! threshold and seed, the protocol and engine must never violate the structural
//! guarantees the paper's model takes for granted.

use clb::prelude::*;
use clb::protocols::SaerServerState;
use proptest::prelude::*;

/// A small but varied space of admissible random-regular instances.
fn instance_strategy() -> impl Strategy<Value = (usize, usize, u32, u32, u64)> {
    // (n, delta, c, d, seed) with delta <= n.
    (16usize..=128, 2usize..=16, 1u32..=8, 1u32..=4, any::<u64>())
        .prop_map(|(n, delta, c, d, seed)| (n, delta.min(n), c, d, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SAER never exceeds the c·d load bound, never loses or duplicates balls, and its
    /// work accounting matches 2 messages per submitted request — on any instance.
    #[test]
    fn saer_structural_invariants((n, delta, c, d, seed) in instance_strategy()) {
        let graph = generators::regular_random(n, delta, seed).unwrap();
        let mut sim = Simulation::builder(&graph).protocol(Saer::new(c, d)).demand(Demand::Constant(d)).seed(seed).max_rounds(200).build();
        let result = sim.run();

        // Hard load bound, independent of completion.
        prop_assert!(result.max_load <= c * d);

        // Ball conservation: assigned + alive == total, and server loads sum to the
        // number of assigned balls.
        let assigned: u64 = sim.server_loads().iter().map(|&l| l as u64).sum();
        prop_assert_eq!(assigned + result.unassigned_balls, result.total_balls);

        // Every assigned ball sits on a neighbour of its owner.
        for client in graph.clients() {
            for server in sim.client_assignment(client).into_iter().flatten() {
                prop_assert!(graph
                    .client_neighbors(client)
                    .iter()
                    .any(|s| s.0 == server));
            }
        }

        // Work parity: every message count is even (request + answer).
        prop_assert_eq!(result.total_messages % 2, 0);

        // Burned servers really received more than c·d requests.
        for state in sim.server_states::<SaerServerState>().unwrap() {
            if state.burned {
                prop_assert!(state.received_total > (c * d) as u64);
            } else {
                prop_assert!(state.received_total <= (c * d) as u64);
            }
        }
    }

    /// RAES shares the load bound and conservation invariants.
    #[test]
    fn raes_structural_invariants((n, delta, c, d, seed) in instance_strategy()) {
        let graph = generators::regular_random(n, delta, seed).unwrap();
        let mut sim = Simulation::builder(&graph).protocol(Raes::new(c, d)).demand(Demand::Constant(d)).seed(seed).max_rounds(200).build();
        let result = sim.run();
        prop_assert!(result.max_load <= c * d);
        let assigned: u64 = sim.server_loads().iter().map(|&l| l as u64).sum();
        prop_assert_eq!(assigned + result.unassigned_balls, result.total_balls);
    }

    /// The sequential allocators put every ball on an admissible server and report
    /// consistent loads, on any topology from the generator family.
    #[test]
    fn sequential_allocators_are_consistent(
        n in 16usize..=96,
        delta in 2usize..=12,
        d in 1u32..=3,
        k in 2u32..=4,
        seed in any::<u64>(),
    ) {
        let delta = delta.min(n);
        let graph = generators::regular_random(n, delta, seed).unwrap();
        for outcome in [
            one_choice(&graph, d, seed),
            best_of_k(&graph, d, k, seed),
            godfrey_greedy(&graph, d, seed),
        ] {
            prop_assert!(outcome.is_consistent());
            prop_assert_eq!(outcome.balls(), n * d as usize);
            prop_assert!(outcome.max_load() >= d); // pigeonhole: n·d balls on n servers
        }
    }

    /// Graph snapshots survive a round trip for any generated topology.
    #[test]
    fn graph_snapshot_round_trip(
        n in 8usize..=128,
        delta in 1usize..=10,
        seed in any::<u64>(),
    ) {
        let delta = delta.min(n);
        let graph = generators::regular_random(n, delta, seed).unwrap();
        let bytes = clb::graph::snapshot::encode(&graph);
        let back = clb::graph::snapshot::decode(&bytes).unwrap();
        prop_assert_eq!(graph, back);
    }

    /// The experiment runner is deterministic in its seed for arbitrary configurations.
    #[test]
    fn experiments_replay_identically(c in 2u32..=8, d in 1u32..=3, seed in any::<u64>()) {
        let config = ExperimentConfig::new(
            GraphSpec::Regular { n: 64, delta: 16 },
            ProtocolSpec::Saer { c, d },
        )
        .trials(2)
        .seed(seed)
        .max_rounds(200);
        let a = config.clone().run().unwrap();
        let b = config.run().unwrap();
        prop_assert_eq!(a.trials, b.trials);
    }
}
