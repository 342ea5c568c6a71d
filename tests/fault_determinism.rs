//! The determinism contract extended to fault injection: a scenario running under a
//! *composite* fault plan — crash-stop, lying loads, message loss and stragglers all
//! active at once — must be **bit-identical** (`SweepReport ==`) across thread counts
//! 1, 2 and 4, across shard counts 1, 2 and 3 (real worker subprocesses, plans
//! shipped over the v3 wire format), and in both retention modes. Fault draws come
//! from dedicated per-`(server, kind, round)` RNG streams in their own domain, so
//! they are pure functions of the trial seed: no execution schedule can perturb them.
//!
//! This is the faulted sibling of `tests/parallel_determinism.rs` (threads) and
//! `tests/shard_determinism.rs` (processes); the empty-plan identity at the *engine*
//! level lives in `tests/erased_equivalence.rs`.

use clb::prelude::*;

/// Name of the worker-hook test below; the driver passes it as a libtest filter so a
/// spawned child runs exactly this test, which immediately becomes the shard worker.
const WORKER_TEST: &str = "shard_worker_entry";

/// Worker hook: a no-op pass in a normal test run; the whole worker when this binary
/// is re-executed with `CLB_SHARD_ROLE=worker` in the environment.
#[test]
fn shard_worker_entry() {
    clb::shard::maybe_run_worker();
}

fn shard_plan(shards: usize) -> ShardPlan {
    ShardPlan::new(shards).worker_args([WORKER_TEST, "--exact"])
}

/// Every fault kind at once, at intensities low enough that runs still make
/// progress — the worst case for determinism, since all five stream families
/// (membership, crash, lie, loss, straggle) are drawn from in every trial.
fn composite_plan() -> FaultPlan {
    FaultPlan::none()
        .crash(4, 0.3)
        .lying_load(0.25, 0.5)
        .message_loss(0.1, 0.05)
        .stragglers(0.2, 0.5)
}

fn scenario(retention: Retention) -> Scenario {
    Scenario::new(
        "FAULT-DET",
        "faulted cross-thread and cross-process determinism",
        "bit-identical at every thread count, shard count and retention mode",
    )
    .trials(4)
    .max_rounds(300)
    .retention(retention)
    .faults(composite_plan())
}

fn sweep() -> Sweep<u32> {
    Sweep::over("c", [2u32, 4, 8])
}

fn config(idx: usize, &c: &u32) -> ExperimentConfig {
    ExperimentConfig::new(
        GraphSpec::RegularLogSquared { n: 256, eta: 1.0 },
        ProtocolSpec::Saer { c, d: 2 },
    )
    .seed(100 + 1000 * idx as u64)
}

fn run_with_threads(threads: usize, retention: Retention) -> SweepReport<u32> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(|| scenario(retention).run(sweep(), config).unwrap())
}

#[test]
fn faulted_runs_are_bit_identical_across_thread_counts_in_both_retention_modes() {
    for retention in [Retention::Full, Retention::Summary] {
        let baseline = run_with_threads(1, retention);
        // The plan must actually bite, or the equality assertions test nothing.
        let survivors: f64 = baseline
            .iter()
            .map(|(_, point)| point.surviving_servers.mean)
            .sum();
        let full_census = 256.0 * baseline.iter().count() as f64;
        assert!(
            survivors < full_census,
            "the composite plan crashed no servers — fault injection is inert"
        );
        for threads in [2usize, 4] {
            assert_eq!(
                baseline,
                run_with_threads(threads, retention),
                "faulted SweepReport diverged between 1 and {threads} threads \
                 under {retention:?} retention"
            );
        }
    }
}

#[test]
fn faulted_runs_are_bit_identical_across_shard_counts_in_both_retention_modes() {
    // Fault plans travel driver→worker inside the v3 wire-format configs; the merged
    // report must match the in-process run bit-for-bit at every shard count, in both
    // retention modes (raw outcomes and accumulator states both carry the new
    // surviving-server data over the wire).
    for retention in [Retention::Full, Retention::Summary] {
        let baseline = scenario(retention).run(sweep(), config).unwrap();
        for shards in [1usize, 2, 3] {
            let sharded = scenario(retention)
                .run_sharded(sweep(), config, &shard_plan(shards))
                .unwrap_or_else(|e| panic!("faulted sharded run with {shards} shards failed: {e}"));
            assert_eq!(
                baseline, sharded,
                "faulted SweepReport diverged between in-process and {shards}-shard \
                 execution under {retention:?} retention"
            );
        }
    }
}

#[test]
fn empty_plan_scenario_is_bit_identical_to_no_plan_scenario() {
    // Experiment-level identity: threading an empty plan through the scenario axis
    // (which wraps every protocol in a pass-through adapter) must not move a single
    // bit of the report relative to never mentioning faults at all.
    let bare = Scenario::new("FAULT-ID", "no plan", "identical")
        .trials(3)
        .max_rounds(300)
        .run(sweep(), config)
        .unwrap();
    let mut wrapped = Scenario::new("FAULT-ID", "empty plan", "identical")
        .trials(3)
        .max_rounds(300)
        .faults(FaultPlan::none())
        .run(sweep(), config)
        .unwrap();
    // The embedded config echo legitimately records that a (vacuous) plan was set;
    // normalize it so the equality below compares only the *outcomes*.
    for row in &mut wrapped.rows {
        assert_eq!(row.report.config.faults, Some(FaultPlan::none()));
        row.report.config.faults = None;
    }
    assert_eq!(bare, wrapped);
}

#[test]
fn crashing_every_server_up_front_serves_nothing() {
    // Sanity anchor for the fault semantics under the scenario runner: a plan that
    // crashes the whole fleet at round 1 leaves every ball unserved and no survivors.
    let report = Scenario::new("FAULT-ALL", "total crash", "nothing completes")
        .trials(2)
        .max_rounds(50)
        .faults(FaultPlan::none().crash(1, 1.0))
        .run(Sweep::over("c", [4u32]), config)
        .unwrap();
    let point = report.report(0);
    assert_eq!(point.completion_rate(), 0.0);
    assert_eq!(point.surviving_servers.max, 0.0);
    assert!(point.unassigned_balls.min > 0.0);
}

/// One faulted RAES run on 2,048 servers under `threads` pool threads and an optional
/// forced piece count: every round's record, the final loads and the survivors. With
/// the fault hook attached, the default plan splits the decide into 4 server pieces
/// (one per 512 servers), so the hook's draws must be keyed by the global server id.
fn hooked_decide_run(threads: usize, pieces: Option<usize>) -> (Vec<RoundRecord>, Vec<u32>, u64) {
    let servers = 2048;
    let seed = 2026;
    let graph = generators::regular_random(servers, log2_squared(servers), seed).unwrap();
    let plan = FaultPlan::none()
        .crash(3, 0.2)
        .message_loss(0.1, 0.05)
        .stragglers(0.25, 0.5);
    let mut builder = Simulation::builder(&graph)
        .protocol(plan.wrap(ProtocolSpec::Raes { c: 4, d: 2 }.build(), seed))
        .demand(Demand::Constant(2))
        .seed(seed)
        .max_rounds(200)
        .observer(clb::engine::TrajectoryObserver::default());
    if let Some(pieces) = pieces {
        builder = builder.intra_step_pieces(pieces);
    }
    let mut sim = builder.build();
    let result = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(|| sim.run());
    let records = sim
        .observer::<clb::engine::TrajectoryObserver>()
        .unwrap()
        .records
        .clone();
    let survivors = plan.surviving_servers(seed, servers as u64, result.rounds);
    (records, sim.server_loads().to_vec(), survivors)
}

#[test]
fn hooked_decide_is_bit_identical_across_threads_and_piece_plans() {
    let baseline = hooked_decide_run(1, None);
    assert!(
        baseline.2 < 2048,
        "the plan crashed no servers — fault injection is inert"
    );
    assert!(baseline.0.len() > 3, "the run ended before the crash round");
    assert_eq!(baseline, hooked_decide_run(4, None), "1 vs 4 threads");
    for pieces in [1, 8] {
        assert_eq!(
            baseline,
            hooked_decide_run(4, Some(pieces)),
            "default plan vs {pieces} forced pieces"
        );
    }
}
