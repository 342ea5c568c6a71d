//! Data-driven protocol selection.
//!
//! Experiments are configured from serializable specs: [`ProtocolSpec`] names a protocol
//! and its parameters, and [`ProtocolSpec::build`] materialises it as a
//! `Box<dyn ErasedProtocol>` — the object-safe core `clb-engine` drives every protocol
//! through. The simulation builder boxes a concrete protocol the same way, so a built
//! spec and its directly constructed protocol produce bit-identical results (the
//! `erased_equivalence` integration test pins this down for every variant).
//!
//! This replaces the old hand-maintained `AnyProtocol`/`AnyServerState` enum pair:
//! adding a protocol no longer means threading a new variant through five dispatch
//! methods — implement `Protocol`, add a constructor arm here, done.

use crate::{Jsq, KChoice, OneShot, Raes, Saer, Threshold};
use clb_engine::{erase, ErasedProtocol};
use serde::{Deserialize, Serialize};

/// A serializable description of a protocol and its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolSpec {
    /// SAER(c, d).
    Saer {
        /// Threshold constant `c`.
        c: u32,
        /// Request number `d`.
        d: u32,
    },
    /// RAES(c, d).
    Raes {
        /// Threshold constant `c`.
        c: u32,
        /// Request number `d`.
        d: u32,
    },
    /// Per-round threshold protocol.
    Threshold {
        /// Per-round acceptance cap.
        per_round: u32,
    },
    /// Parallel k-choice with per-server capacity.
    KChoice {
        /// Choices per ball per round.
        k: u32,
        /// Per-server capacity.
        capacity: u32,
    },
    /// Accept-everything single-round baseline.
    OneShot,
    /// Join-shortest-queue among `d` sampled choices (online stability baseline).
    Jsq {
        /// Choices per ball per round.
        d: u32,
    },
}

impl ProtocolSpec {
    /// Materialises the spec as a runtime-dispatched protocol.
    pub fn build(&self) -> Box<dyn ErasedProtocol> {
        match *self {
            ProtocolSpec::Saer { c, d } => erase(Saer::new(c, d)),
            ProtocolSpec::Raes { c, d } => erase(Raes::new(c, d)),
            ProtocolSpec::Threshold { per_round } => erase(Threshold::new(per_round)),
            ProtocolSpec::KChoice { k, capacity } => erase(KChoice::new(k, capacity)),
            ProtocolSpec::OneShot => erase(OneShot::new()),
            ProtocolSpec::Jsq { d } => erase(Jsq::new(d)),
        }
    }

    /// Every spec variant with the given parameters, for exhaustive sweeps and tests.
    pub fn all_variants(c: u32, d: u32) -> Vec<ProtocolSpec> {
        vec![
            ProtocolSpec::Saer { c, d },
            ProtocolSpec::Raes { c, d },
            ProtocolSpec::Threshold {
                per_round: d.max(1),
            },
            ProtocolSpec::KChoice {
                k: 2,
                capacity: c * d,
            },
            ProtocolSpec::OneShot,
            ProtocolSpec::Jsq { d: d.max(1) },
        ]
    }

    /// A short label for experiment tables (matches the built protocol's `name()`,
    /// without materialising one).
    pub fn label(&self) -> String {
        match *self {
            ProtocolSpec::Saer { c, d } => format!("saer(c={c}, d={d})"),
            ProtocolSpec::Raes { c, d } => format!("raes(c={c}, d={d})"),
            ProtocolSpec::Threshold { per_round } => format!("threshold(T={per_round})"),
            ProtocolSpec::KChoice { k, capacity } => format!("kchoice(k={k}, cap={capacity})"),
            ProtocolSpec::OneShot => "one-shot".to_string(),
            ProtocolSpec::Jsq { d } => format!("jsq(d={d})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clb_engine::{DecidePhase, Demand, Simulation};
    use clb_graph::{generators, log2_squared};

    #[test]
    fn every_spec_builds_and_has_a_label() {
        for spec in ProtocolSpec::all_variants(8, 2) {
            let protocol = spec.build();
            assert!(!spec.label().is_empty());
            assert_eq!(spec.label(), protocol.erased_name());
        }
    }

    #[test]
    fn erased_runs_match_concrete_protocol_runs() {
        let n = 128;
        let d = 2;
        let graph = generators::regular_random(n, log2_squared(n), 3).unwrap();

        let mut concrete = Simulation::builder(&graph)
            .protocol(Saer::new(4, d))
            .demand(Demand::Constant(d))
            .seed(99)
            .build();
        let concrete_result = concrete.run();

        let mut erased = Simulation::builder(&graph)
            .protocol(ProtocolSpec::Saer { c: 4, d }.build())
            .demand(Demand::Constant(d))
            .seed(99)
            .build();
        let erased_result = erased.run();

        assert_eq!(concrete_result, erased_result);
        assert_eq!(concrete.server_loads(), erased.server_loads());
    }

    #[test]
    fn choices_per_round_is_forwarded() {
        assert_eq!(
            ProtocolSpec::KChoice { k: 3, capacity: 4 }
                .build()
                .erased_choices_per_round(),
            3
        );
        assert_eq!(
            ProtocolSpec::Saer { c: 2, d: 2 }
                .build()
                .erased_choices_per_round(),
            1
        );
    }

    #[test]
    fn all_specs_complete_on_an_easy_instance() {
        let n = 128;
        let graph = generators::regular_random(n, log2_squared(n), 5).unwrap();
        for spec in [
            ProtocolSpec::Saer { c: 8, d: 2 },
            ProtocolSpec::Raes { c: 8, d: 2 },
            ProtocolSpec::Threshold { per_round: 4 },
            ProtocolSpec::KChoice { k: 2, capacity: 16 },
            ProtocolSpec::OneShot,
            ProtocolSpec::Jsq { d: 2 },
        ] {
            let mut sim = Simulation::builder(&graph)
                .protocol(spec.build())
                .demand(Demand::Constant(2))
                .seed(1)
                .max_rounds(2_000)
                .build();
            let result = sim.run();
            assert!(result.completed, "{} did not complete", spec.label());
        }
    }

    /// One round of `incoming` requests at a single server with load 0: the accepted
    /// count, the closed flag afterwards, and the states.
    fn one_server_round(
        protocol: &dyn ErasedProtocol,
        incoming: u32,
    ) -> (u32, bool, clb_engine::ServerStates) {
        let mut states = protocol.erased_init_states(1);
        let (mut loads, mut accept, mut closed) = ([0], [0], [false]);
        protocol.erased_decide(
            &mut *states,
            DecidePhase {
                round: 1,
                incoming: &[incoming],
                loads: &mut loads,
                accept: &mut accept,
                pieces: Some(1),
                hook: None,
            },
        );
        protocol.erased_census(&*states, &loads, &mut closed, 1);
        (accept[0], closed[0], states)
    }

    #[test]
    fn closed_semantics_dispatch_correctly() {
        let (accepted, closed, states) =
            one_server_round(&*ProtocolSpec::Saer { c: 1, d: 1 }.build(), 5);
        assert_eq!(accepted, 0);
        assert!(closed);
        // The concrete states are reachable through the opaque box.
        let states = states
            .downcast_ref::<Vec<crate::SaerServerState>>()
            .unwrap();
        assert!(states[0].burned);

        let (accepted, closed, _) = one_server_round(&*ProtocolSpec::OneShot.build(), 5);
        assert_eq!(accepted, 5);
        assert!(!closed);
    }
}
