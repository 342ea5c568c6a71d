//! Runtime protocol selection must be a zero-cost *semantic* choice: the engine drives
//! every protocol through its object-safe core, and a protocol built from a
//! `ProtocolSpec` must produce bit-identical results to the directly constructed one —
//! same `RunResult`, same per-server loads, same per-client assignments — for every
//! `ProtocolSpec` variant. An empty `FaultPlan` wrap must change nothing either.

use clb::prelude::*;

/// Runs one simulation and captures everything observable about the outcome.
fn run(
    graph: &BipartiteGraph,
    protocol: impl Into<Box<dyn ErasedProtocol>>,
    d: u32,
    seed: u64,
) -> Observations {
    let mut sim = Simulation::builder(graph)
        .protocol(protocol)
        .demand(Demand::Constant(d))
        .seed(seed)
        .max_rounds(2_000)
        .build();
    let result = sim.run();
    Observations {
        result,
        loads: sim.server_loads().to_vec(),
        assignments: graph.clients().map(|c| sim.client_assignment(c)).collect(),
    }
}

#[derive(Debug, PartialEq)]
struct Observations {
    result: RunResult,
    loads: Vec<u32>,
    assignments: Vec<Vec<Option<u32>>>,
}

/// The directly constructed run for a spec: the enumeration `ProtocolSpec::build`
/// exists to replace, kept here (and only here) as the ground truth for the
/// equivalence check.
fn run_concrete(spec: &ProtocolSpec, graph: &BipartiteGraph, d: u32, seed: u64) -> Observations {
    match *spec {
        ProtocolSpec::Saer { c, d: pd } => run(graph, Saer::new(c, pd), d, seed),
        ProtocolSpec::Raes { c, d: pd } => run(graph, Raes::new(c, pd), d, seed),
        ProtocolSpec::Threshold { per_round } => run(graph, Threshold::new(per_round), d, seed),
        ProtocolSpec::KChoice { k, capacity } => run(graph, KChoice::new(k, capacity), d, seed),
        ProtocolSpec::OneShot => run(graph, OneShot::new(), d, seed),
        ProtocolSpec::Jsq { d: pd } => run(graph, Jsq::new(pd), d, seed),
    }
}

fn specs_under_test() -> Vec<ProtocolSpec> {
    let mut specs = Vec::new();
    // Generous and tight parameterisations of every variant, so both the completing
    // and the non-completing (round-capped) paths are compared.
    for (c, d) in [(8, 2), (2, 1), (1, 3)] {
        specs.extend(ProtocolSpec::all_variants(c, d));
    }
    specs
}

#[test]
fn dyn_dispatch_is_bit_identical_to_concrete_dispatch_for_every_spec() {
    let d = 2;
    let graph = generators::regular_random(128, log2_squared(128), 11).unwrap();
    for spec in specs_under_test() {
        for seed in [1u64, 99, 2024] {
            let concrete = run_concrete(&spec, &graph, d, seed);
            let erased = run(&graph, spec.build(), d, seed);
            assert_eq!(
                concrete,
                erased,
                "{} diverged between concrete and erased dispatch (seed {seed})",
                spec.label()
            );
        }
    }
}

#[test]
fn double_erasure_changes_nothing() {
    // A box is not a `Protocol`, so the builder's conversion of an already-erased
    // protocol is the identity, never a second layer: the concrete protocol (erased
    // once, by the builder) and its boxes (erased by the caller, then passed through
    // that conversion again) run identically.
    let d = 2;
    let graph = generators::regular_random(64, 16, 5).unwrap();
    let once = run(&graph, Saer::new(4, d), d, 7);
    assert_eq!(once, run(&graph, erase(Saer::new(4, d)), d, 7));
    assert_eq!(
        once,
        run(&graph, ProtocolSpec::Saer { c: 4, d }.build(), d, 7)
    );
}

#[test]
fn erased_equivalence_holds_across_topology_families() {
    let d = 2;
    let spec = ProtocolSpec::Raes { c: 4, d };
    for graph_spec in [
        GraphSpec::Regular { n: 64, delta: 16 },
        GraphSpec::Complete { n: 32 },
        GraphSpec::SkewedExample { n: 64 },
        GraphSpec::Clusters {
            n: 64,
            clusters: 4,
            intra_degree: 12,
            inter_degree: 3,
        },
    ] {
        let graph = graph_spec.build(3).unwrap();
        let concrete = run_concrete(&spec, &graph, d, 42);
        let erased = run(&graph, spec.build(), d, 42);
        assert_eq!(concrete, erased, "{} diverged", graph_spec.label());
    }
}

#[test]
fn empty_fault_plan_wrap_is_bit_identical_to_no_adapter() {
    // The fault adapter sits between the engine and the protocol on every decide
    // call, so an *empty* plan is the sharpest identity check the wrapper admits: if
    // the pass-through perturbs a single RNG draw or decision, some spec diverges.
    let d = 2;
    let graph = generators::regular_random(128, log2_squared(128), 11).unwrap();
    for spec in specs_under_test() {
        for seed in [1u64, 99, 2024] {
            let bare = run(&graph, spec.build(), d, seed);
            let wrapped = run(&graph, FaultPlan::none().wrap(spec.build(), seed), d, seed);
            assert_eq!(
                bare,
                wrapped,
                "{} diverged under an empty FaultPlan wrap (seed {seed})",
                spec.label()
            );
        }
    }
}

#[test]
fn erased_states_expose_concrete_state_for_inspection() {
    // The burned census of a runtime-chosen SAER run — bare or fault-wrapped — is
    // reachable through the typed state accessor and matches the closed-server count
    // the engine reports; asking for the wrong state type yields nothing.
    let graph = generators::regular_random(128, log2_squared(128), 2).unwrap();
    let spec = ProtocolSpec::Saer { c: 2, d: 2 };
    let plan = FaultPlan::none()
        .stragglers(0.2, 0.5)
        .message_loss(0.1, 0.1);
    for protocol in [spec.build(), plan.wrap(spec.build(), 13)] {
        let mut sim = Simulation::builder(&graph)
            .protocol(protocol)
            .demand(Demand::Constant(2))
            .seed(13)
            .build();
        let result = sim.run();
        assert!(sim.server_states::<u32>().is_none());
        let states = sim
            .server_states::<clb::protocols::SaerServerState>()
            .expect("SAER states");
        assert_eq!(states.len(), graph.num_servers());
        let burned = states.iter().filter(|state| state.burned).count() as u64;
        assert!(burned > 0, "c = 2 burns some servers");
        assert_eq!(burned, result.closed_servers);
    }
}
