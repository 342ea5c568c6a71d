//! # constrained-lb
//!
//! A faithful, executable reproduction of *"Parallel Load Balancing on Constrained
//! Client-Server Topologies"* (Clementi, Natale, Ziccardi — SPAA 2020): the **SAER**
//! protocol, the **RAES** protocol it derives from, the synchronous distributed model
//! they run in, the topology families the theorems cover, the sequential and parallel
//! baselines of the related work, and an experiment harness that regenerates every
//! quantitative claim of the paper.
//!
//! This crate is the facade: it re-exports the whole stack plus the experiment and
//! scenario-runner layer of `clb-core`, and provides the [`prelude`].
//!
//! ## The stack
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`rng`] (`clb-rng`) | splittable deterministic random streams and sampling utilities |
//! | [`graph`] (`clb-graph`) | bipartite client-server graphs, degree statistics, topology generators |
//! | [`engine`] (`clb-engine`) | the synchronous round engine (model M), the fluent simulation builder, the object-safe per-phase `ErasedProtocol` core every protocol runs through, work accounting, observers |
//! | [`protocols`] (`clb-protocols`) | SAER, RAES, threshold, k-choice and JSQ(d) baselines; `ProtocolSpec` for runtime selection |
//! | [`sequential`] (`clb-sequential`) | sequential one-choice / best-of-k / Godfrey greedy baselines |
//! | [`analysis`] (`clb-analysis`) | the paper's recurrences, bounds and concentration inequalities; statistics |
//! | [`faults`] (`clb-faults`) | deterministic fault injection: crash-stop, lying load reports, message loss, stragglers, as an adapter that hooks any protocol's decide loop |
//! | [`experiment`]/[`scenario`] (`clb-core`) | declarative, parallel, seed-reproducible experiments and parameter sweeps |
//!
//! ## Quick start: one simulation
//!
//! ```
//! use clb::prelude::*;
//!
//! let graph = generators::regular_random(512, log2_squared(512), 7).unwrap();
//! let result = Simulation::builder(&graph)
//!     .protocol(Saer::new(8, 2))
//!     .demand(Demand::Constant(2))
//!     .seed(42)
//!     .build()
//!     .run();
//! assert!(result.completed);
//! assert!(result.max_load <= 16); // hard c·d guarantee
//! ```
//!
//! ## Quick start: a parameter sweep
//!
//! ```
//! use clb::prelude::*;
//!
//! // SAER across threshold constants on a Δ = ⌈log²n⌉ regular random graph. Base
//! // seeds stride by 1000 per sweep point so the per-point trial seed ranges stay
//! // disjoint (the runner asserts this — see `clb::scenario`).
//! let scenario = Scenario::new("demo", "c sweep", "rounds shrink as c grows").trials(4);
//! let report = scenario
//!     .run(Sweep::over("c", [4u32, 8]), |idx, &c| {
//!         ExperimentConfig::new(
//!             GraphSpec::RegularLogSquared { n: 512, eta: 1.0 },
//!             ProtocolSpec::Saer { c, d: 2 },
//!         )
//!         .seed(7 + 1000 * idx as u64)
//!     })
//!     .unwrap();
//! for (&c, point) in report.iter() {
//!     assert_eq!(point.completion_rate(), 1.0, "c = {c}");
//!     assert!(point.max_load.max <= (c * 2) as f64);
//!     println!("c = {c}: {:.1} rounds", point.rounds.mean);
//! }
//! ```
//!
//! ## Quick start: a memory-bounded sweep
//!
//! For grids too large to hold every trial outcome in memory, switch the scenario to
//! [`Retention::Summary`]: each outcome folds into mergeable, O(1)-memory
//! accumulators (exact count/mean/std-dev/min/max, histogram-approximate medians)
//! the moment it is produced, in-process and across shard worker processes alike —
//! and the result stays bit-identical at every thread and shard count.
//!
//! ```
//! use clb::prelude::*;
//!
//! let scenario = Scenario::new("demo-s", "summary retention", "flat memory")
//!     .trials(64)
//!     .retention(Retention::Summary);
//! let report = scenario
//!     .run(Sweep::over("c", [4u32]), |idx, &c| {
//!         ExperimentConfig::new(
//!             GraphSpec::Regular { n: 64, delta: 16 },
//!             ProtocolSpec::Saer { c, d: 2 },
//!         )
//!         .seed(7 + 1000 * idx as u64)
//!     })
//!     .unwrap();
//! let point = report.report(0);
//! assert!(point.trials.is_empty());        // outcomes were folded, not collected
//! assert_eq!(point.trial_count, 64);       // ... but fully accounted for
//! assert!(point.completion_rate().is_finite());
//! assert!(point.retained_bytes < 150_000); // flat, however many trials run
//! ```
//!
//! ## Quick start: fault injection
//!
//! Any protocol can be wrapped in a [`FaultPlan`] — crash-stop, lying load reports,
//! message loss, stragglers — without touching the engine. Fault draws come from a
//! dedicated RNG domain keyed by `(server, fault kind, round)`, so a faulted run is
//! exactly as reproducible as a fault-free one: bit-identical across thread counts,
//! shard counts and retention modes. With `paired_seeds`, every sweep point reruns
//! the *same* instances, so the degradation against the fault-free row measures the
//! fault plan and nothing else.
//!
//! ```
//! use clb::prelude::*;
//!
//! let scenario = Scenario::new("demo-f", "crash sweep", "completion degrades gracefully")
//!     .trials(4)
//!     .paired_seeds();
//! let report = scenario
//!     .run(Sweep::over("crash %", [0u32, 40]), |_, &pct| {
//!         let config = ExperimentConfig::new(
//!             GraphSpec::Regular { n: 64, delta: 16 },
//!             ProtocolSpec::Saer { c: 8, d: 2 },
//!         )
//!         .seed(7);
//!         match pct {
//!             0 => config, // genuinely unwrapped baseline
//!             _ => config.faults(FaultPlan::none().crash(1, pct as f64 / 100.0)),
//!         }
//!     })
//!     .unwrap();
//! let (baseline, faulted) = (report.report(0), report.report(1));
//! let degradation = faulted.degradation_vs(baseline);
//! assert!(faulted.surviving_servers.mean < baseline.surviving_servers.mean);
//! assert!(degradation.lost_servers > 0.0);
//! assert!(faulted.max_load.max <= 16.0); // SAER's hard c·d bound survives crashes
//! ```
//!
//! ## The determinism contract
//!
//! Every result above is a pure function of `(seed, config)`: bit-identical across
//! thread counts, shard counts, retention modes and fault plans. The contract is
//! documented in `docs/DETERMINISM.md` and enforced twice — dynamically by the
//! determinism test suites and CI matrix diffs, and statically by `clb-audit`
//! (`cargo run -p clb-audit -- --deny-warnings`), which checks that every RNG
//! domain tag comes from the central `clb_rng::domains` registry, that no
//! result-path code depends on hash-iteration order, wall clocks, or racy relaxed
//! loads, that the shard wire module never panics on malformed frames, and that
//! the wire layout cannot drift without a `WIRE_VERSION` bump.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Re-export of `clb-rng`.
pub use clb_rng as rng;

/// Re-export of `clb-graph`.
pub use clb_graph as graph;

/// Re-export of `clb-engine`.
pub use clb_engine as engine;

/// Re-export of `clb-protocols`.
pub use clb_protocols as protocols;

/// Re-export of `clb-sequential`.
pub use clb_sequential as sequential;

/// Re-export of `clb-analysis`.
pub use clb_analysis as analysis;

/// Re-export of `clb-faults`.
pub use clb_faults as faults;

pub use clb_core::{accumulate, experiment, report, scenario, shard};
pub use clb_core::{
    CacheStats, Degradation, ExperimentConfig, ExperimentReport, Measurements, OnlineReport,
    OnlineStats, OutcomeAccumulator, Retention, Scenario, ShardError, ShardPlan, Sweep,
    SweepReport, SweepRow, Table, TrialOutcome,
};
pub use clb_faults::{FaultAdapter, FaultPlan};

/// The most commonly used items, importable with `use clb::prelude::*`.
pub mod prelude {
    pub use clb_analysis::{
        completion_horizon_rounds, linear_fit, min_admissible_degree, required_c_general,
        required_c_regular, Histogram, RunningSummary, StreamingHistogram, Summary,
    };
    pub use clb_core::accumulate::{OutcomeAccumulator, Retention};
    pub use clb_core::experiment::{
        Degradation, ExperimentConfig, ExperimentReport, Measurements, OnlineReport, OnlineStats,
        TrialOutcome,
    };
    pub use clb_core::report::Table;
    pub use clb_core::scenario::{
        default_trials, n_sweep, quick_mode, CacheStats, Scenario, Sweep, SweepReport, SweepRow,
    };
    pub use clb_core::shard::{ShardError, ShardPlan};
    pub use clb_engine::{
        erase, ArrivalProcess, Demand, ErasedProtocol, OnlineWorkload, Protocol, RoundRecord,
        RunResult, ServiceDistribution, SettleRule, SimConfig, Simulation, SimulationBuilder,
    };
    pub use clb_faults::{
        CrashFault, FaultAdapter, FaultPlan, LoadLieFault, MessageLossFault, StragglerFault,
    };
    pub use clb_graph::{generators, log2_squared, BipartiteGraph, DegreeStats, GraphSpec};
    pub use clb_protocols::{Jsq, KChoice, OneShot, ProtocolSpec, Raes, Saer, Threshold};
    pub use clb_sequential::{best_of_k, godfrey_greedy, one_choice, SequentialOutcome};
}
