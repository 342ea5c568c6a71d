//! Corollary 2 and the SAER/RAES relationship, exercised end-to-end.

use clb::prelude::*;
use clb::protocols::SaerServerState;

/// RAES inherits every Theorem 1 guarantee (Corollary 2).
#[test]
fn raes_satisfies_the_same_bounds() {
    let n = 1024;
    let c = 8;
    let d = 2;
    let report = ExperimentConfig::new(
        GraphSpec::RegularLogSquared { n, eta: 1.0 },
        ProtocolSpec::Raes { c, d },
    )
    .trials(5)
    .seed(3)
    .run()
    .unwrap();
    assert_eq!(report.completion_rate(), 1.0);
    assert!(report.max_load.max <= (c * d) as f64);
    assert!(report.rounds.max <= completion_horizon_rounds(n));
}

/// On identical topologies and identical randomness streams, RAES never needs more
/// rounds than SAER and never rejects more per-round than SAER does — the executable
/// face of the stochastic domination behind Corollary 2.
#[test]
fn paired_runs_raes_never_slower() {
    let n = 1024;
    let c = 4;
    let d = 2;
    for seed in 0..8u64 {
        let graph = GraphSpec::RegularLogSquared { n, eta: 1.0 }
            .build(seed)
            .unwrap();
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
        let rs = saer.run();
        let rr = raes.run();
        assert!(rs.completed && rr.completed, "seed {seed}");
        assert!(
            rr.rounds <= rs.rounds,
            "seed {seed}: RAES used {} rounds, SAER {}",
            rr.rounds,
            rs.rounds
        );
        assert!(rr.total_messages <= rs.total_messages, "seed {seed}");
    }
}

/// The burned notion is strictly stronger than saturation: a SAER server can close with
/// *unused* capacity (it received a burst it rejected), whereas a RAES server is only
/// ever closed because its load reached exactly c·d. In a tight-threshold regime this
/// wasted capacity is what makes SAER strictly worse off than RAES on identical
/// randomness.
#[test]
fn saer_wastes_capacity_where_raes_does_not() {
    let n = 512;
    let c = 2; // tight so that the threshold actually bites
    let d = 2;
    for seed in 0..5u64 {
        let graph = GraphSpec::RegularLogSquared { n, eta: 1.0 }
            .build(seed)
            .unwrap();
        let cfg = SimConfig::new(seed).with_max_rounds(500);
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
        let saer_result = saer.run();
        let raes_result = raes.run();

        // RAES closed servers are exactly the full ones; it never wastes capacity.
        for &load in raes.server_loads() {
            assert!(
                load <= c * d,
                "seed {seed}: RAES load {load} above capacity"
            );
        }

        // SAER, in this tight regime, burns at least one server below capacity.
        let wasted = saer
            .server_states::<SaerServerState>()
            .unwrap()
            .iter()
            .zip(saer.server_loads())
            .filter(|(state, &load)| state.burned && load < c * d)
            .count();
        assert!(
            wasted > 0,
            "seed {seed}: expected at least one burned-below-capacity SAER server"
        );

        // And that waste shows up as SAER leaving at least as many balls unplaced.
        assert!(
            saer_result.unassigned_balls >= raes_result.unassigned_balls,
            "seed {seed}: SAER left {} balls, RAES {}",
            saer_result.unassigned_balls,
            raes_result.unassigned_balls
        );
    }
}

/// SAER's work and completion signature is indistinguishable from RAES's in the easy
/// regime (large c): with no server ever reaching the threshold the two protocols make
/// identical decisions on identical randomness.
#[test]
fn protocols_coincide_when_the_threshold_never_bites() {
    let n = 512;
    let c = 64;
    let d = 2;
    let graph = GraphSpec::RegularLogSquared { n, eta: 1.0 }
        .build(9)
        .unwrap();
    let cfg = SimConfig::new(9);
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
    let rs = saer.run();
    let rr = raes.run();
    assert_eq!(rs, rr);
    assert_eq!(saer.server_loads(), raes.server_loads());
}
