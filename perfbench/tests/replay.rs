//! The benchmark's replays must reproduce the runners they stand in for: the
//! in-process replay gives `Scenario::run`'s report bit for bit, and the sharded
//! replay builds exactly the manifests `Scenario::run_sharded` ships.

use clb::prelude::*;
use clb::shard::decode_manifest;
use clb_perfbench::grid::{self, GridPlan, GridShape, SHARDS};
use clb_perfbench::huge::HugeBench;
use clb_perfbench::online::{OnlineBench, OnlineShape};
use clb_perfbench::trace::{SpanId, Tracer};
use clb_perfbench::{layers, Bench};
use std::path::PathBuf;

const SMALL: GridShape = GridShape { n: 256, trials: 3 };

#[test]
fn replay_reproduces_scenario_run_bit_for_bit() {
    for seed in [5, 6] {
        let runner = SMALL.run(seed).unwrap();
        let untraced = grid::replay(&SMALL, seed, &Tracer::off(), SpanId::ROOT).unwrap();
        assert_eq!(untraced.report, runner, "seed {seed}");
        let tracer = Tracer::on();
        let traced = grid::replay(&SMALL, seed, &tracer, SpanId::ROOT).unwrap();
        assert_eq!(traced.report, runner, "tracing must not change results");
        assert_eq!(grid::digest(&traced.report), grid::digest(&runner));
        let (spans, counts) = tracer.finish();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(
            count("graph.generate"),
            SMALL.trials,
            "one graph per shared seed"
        );
        assert_eq!(count("graph.snapshot_encode"), SMALL.trials);
        assert_eq!(count("graph.snapshot_decode"), SMALL.cells());
        assert_eq!(count("core.trial"), SMALL.cells());
        assert_eq!(counts["core.cells"], SMALL.cells() as u64);
    }
}

#[test]
fn sharded_replay_reproduces_run_sharded_and_run() {
    let seed = 9;
    let sharded = SMALL.run_sharded(seed, &worker_plan(None)).unwrap();
    let replay = grid::replay_sharded(&SMALL, seed, &Tracer::off(), SpanId::ROOT).unwrap();
    assert_eq!(replay.report, sharded);
    assert_eq!(sharded, SMALL.run(seed).unwrap());
}

#[test]
fn replayed_manifests_match_what_run_sharded_ships() {
    let seed = 11;
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("shipped-manifests");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    SMALL.run_sharded(seed, &worker_plan(Some(&dir))).unwrap();

    let mut shipped: Vec<(u32, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
            let shard = stem.rsplit('-').next().unwrap().parse().unwrap();
            (shard, std::fs::read(&path).unwrap())
        })
        .collect();
    shipped.sort();
    assert_eq!(shipped.len(), SHARDS);

    let configs = SMALL.configs(seed);
    let plan = GridPlan::new(&configs);
    let snapshots = grid::materialise(&configs, &plan, &Tracer::off(), SpanId::ROOT).unwrap();
    let ranges = clb::shard::partition_cells(plan.cells.len(), SHARDS);
    for ((shard, bytes), range) in shipped.into_iter().zip(ranges) {
        let replayed = grid::manifest(&configs, &plan, &snapshots, shard as usize, range);
        assert_eq!(decode_manifest(&bytes).unwrap(), replayed, "shard {shard}");
        assert_eq!(
            replayed.snapshots.len(),
            SMALL.trials,
            "every shard needs every graph"
        );
    }
}

#[test]
fn grid_plan_shares_each_seed_across_the_three_arms() {
    let configs = SMALL.configs(1);
    let plan = GridPlan::new(&configs);
    assert_eq!(plan.cells.len(), 9);
    assert_eq!(plan.identities.len(), 3);
    assert_eq!(plan.cells_per_identity, vec![3, 3, 3]);
    assert_eq!(plan.identity_of_cell, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    assert_eq!(plan.snapshot_cells(), 9);
}

#[test]
fn huge_and_online_passes_check_their_outputs_and_trace_the_same_run() {
    let mut benches: Vec<Box<dyn Bench>> = vec![
        Box::new(HugeBench::new(1 << 14)),
        Box::new(OnlineBench::new(OnlineShape {
            n: 256,
            horizon: 60,
        })),
    ];
    for bench in &mut benches {
        let pass = bench.pass(3);
        assert!(pass.problems.is_empty(), "{:?}", pass.problems);
        assert_eq!(pass.failed, 0);
        assert!(pass.cells >= 1 && pass.wall_ns >= pass.setup_ns + pass.solve_ns);
        let untraced = layers::Untraced {
            wall_ns: pass.wall_ns as f64,
            work_ns: bench.traced_work_ns(&pass) as f64,
        };
        let traced = layers::traced_run(bench.as_mut(), 3, 2, untraced, pass.digest);
        assert!(
            traced.pass.problems.is_empty(),
            "{:?}",
            traced.pass.problems
        );
        assert_eq!(traced.metrics.len(), layers::PER_LAYER.len());
        let value = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert!(value("engine.step_s") > 0.0 && value("engine.requests") > 0.0);
        assert!(value("trace.coverage") > 0.5 && value("trace.coverage") <= 1.0);
        assert_ne!(
            bench.pass(4).digest,
            pass.digest,
            "each pass gets new inputs"
        );
    }
}

/// A plan whose workers are this package's binary; with `capture`, each worker
/// first copies the manifest it was sent into that directory.
fn worker_plan(capture: Option<&PathBuf>) -> ShardPlan {
    let bin = env!("CARGO_BIN_EXE_clb-perfbench");
    match capture {
        None => ShardPlan::new(SHARDS).worker(bin),
        Some(dir) => ShardPlan::new(SHARDS).worker("/bin/sh").worker_args([
            "-c".to_string(),
            format!(
                "cp \"$CLB_SHARD_MANIFEST\" '{}/' && exec '{bin}'",
                dir.display()
            ),
        ]),
    }
}
