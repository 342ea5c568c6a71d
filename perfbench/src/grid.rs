//! `grid_log2`: a paired SAER(4,2) / RAES(4,2) / JSQ(2) sweep, 16 trials each, on
//! `RegularLogSquared { n: 4096, eta: 1.0 }` graphs (Δ = 144): 48 cells on 16
//! shared graphs, through `Scenario::run` on the pool. `Scenario::run_sharded`
//! over two worker processes runs once per run, untimed, and must give the same
//! report.
//!
//! Each pass is checked against a replay that does the same work phase by phase
//! through public calls: generate and encode each shared graph, then decode, run
//! and fold each cell in process. The replay's report must equal the runner's.
//! The traced pass also ships the cells through the same shard manifests and
//! reports `run_sharded` uses (`replay_sharded`), in process. `Scenario::run`
//! interleaves set-up and trials inside one call, so the replay is also where
//! set-up (graph materialisation) is timed apart from the cells, and where the
//! traced run puts a span around each call.

use crate::layers::count_trial;
use crate::output::Digest;
use crate::trace::{SpanId, Tracer};
use crate::{clock, Bench, Pass};
use bytes::Bytes;
use clb::graph::snapshot;
use clb::prelude::*;
use clb::shard::{
    self, partition_cells, GraphSource, ShardCell, ShardManifest, ShardPayload, ShardReport,
};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;

/// The three protocol arms; all share each trial's graph and seed.
pub const PROTOCOLS: [ProtocolSpec; 3] = [
    ProtocolSpec::Saer { c: 4, d: 2 },
    ProtocolSpec::Raes { c: 4, d: 2 },
    ProtocolSpec::Jsq { d: 2 },
];

/// Worker processes of the sharded grid.
pub const SHARDS: usize = 2;

/// Span tag of a protocol arm.
pub fn protocol_tag(protocol: &ProtocolSpec) -> &'static str {
    match protocol {
        ProtocolSpec::Saer { .. } => "saer",
        ProtocolSpec::Raes { .. } => "raes",
        ProtocolSpec::Jsq { .. } => "jsq",
        _ => "other",
    }
}

/// Size of one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridShape {
    /// Clients (= servers) per graph.
    pub n: usize,
    /// Trials per protocol arm.
    pub trials: usize,
}

impl GridShape {
    /// The benchmark's grid.
    pub const BENCH: GridShape = GridShape {
        n: 4096,
        trials: 16,
    };

    /// Cells per pass.
    pub fn cells(&self) -> usize {
        PROTOCOLS.len() * self.trials
    }

    fn scenario(&self) -> Scenario {
        Scenario::new(
            "perfbench",
            "paired SAER / RAES / JSQ sweep on log²-regular graphs",
            "Theorem 1: O(log n) rounds and O(n) work",
        )
        .trials(self.trials)
        .paired_seeds()
    }

    fn sweep() -> Sweep<ProtocolSpec> {
        Sweep::over("protocol", PROTOCOLS)
    }

    fn config(&self, base_seed: u64) -> impl Fn(usize, &ProtocolSpec) -> ExperimentConfig + Sync {
        let GridShape { n, trials } = *self;
        move |_, &protocol| {
            ExperimentConfig::new(GraphSpec::RegularLogSquared { n, eta: 1.0 }, protocol)
                .trials(trials)
                .seed(base_seed)
        }
    }

    /// The per-point configs exactly as the scenario runner applies them.
    pub fn configs(&self, base_seed: u64) -> Vec<ExperimentConfig> {
        let config = self.config(base_seed);
        PROTOCOLS
            .iter()
            .enumerate()
            .map(|(index, protocol)| config(index, protocol))
            .collect()
    }

    /// The sweep through `Scenario::run`.
    pub fn run(&self, base_seed: u64) -> Result<SweepReport<ProtocolSpec>, String> {
        self.scenario()
            .run(Self::sweep(), self.config(base_seed))
            .map_err(|e| e.to_string())
    }

    /// The sweep through `Scenario::run_sharded`.
    pub fn run_sharded(
        &self,
        base_seed: u64,
        plan: &ShardPlan,
    ) -> Result<SweepReport<ProtocolSpec>, String> {
        self.scenario()
            .run_sharded(Self::sweep(), self.config(base_seed), plan)
            .map_err(|e| e.to_string())
    }
}

/// The flat point-major (point × trial) grid and its `GraphSpec × seed` graph
/// identities, numbered in first-appearance order as the scenario runner does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridPlan {
    /// `(point, trial)` per cell.
    pub cells: Vec<(usize, u64)>,
    /// Graph identity of each cell.
    pub identity_of_cell: Vec<usize>,
    /// `(config index of first appearance, seed)` per identity.
    pub identities: Vec<(usize, u64)>,
    /// Cells per identity; identities with more than one travel as snapshots.
    pub cells_per_identity: Vec<usize>,
}

impl GridPlan {
    /// Plans the grid of `configs`.
    pub fn new(configs: &[ExperimentConfig]) -> Self {
        let cells: Vec<(usize, u64)> = configs
            .iter()
            .enumerate()
            .flat_map(|(point, config)| (0..config.trials as u64).map(move |t| (point, t)))
            .collect();
        let mut index: BTreeMap<(String, u64), usize> = BTreeMap::new();
        let mut identities = Vec::new();
        let mut cells_per_identity: Vec<usize> = Vec::new();
        let identity_of_cell = cells
            .iter()
            .map(|&(point, trial)| {
                let seed = configs[point].base_seed + trial;
                let identity = *index
                    .entry((configs[point].graph.cache_key(), seed))
                    .or_insert_with(|| {
                        identities.push((point, seed));
                        cells_per_identity.push(0);
                        identities.len() - 1
                    });
                cells_per_identity[identity] += 1;
                identity
            })
            .collect();
        Self {
            cells,
            identity_of_cell,
            identities,
            cells_per_identity,
        }
    }

    /// Cells whose graph comes from a shared snapshot.
    pub fn snapshot_cells(&self) -> usize {
        self.identity_of_cell
            .iter()
            .filter(|&&identity| self.cells_per_identity[identity] > 1)
            .count()
    }
}

/// Generates and encodes every graph identity shared by several cells, on the
/// pool; single-cell identities (`None`) are built inside their cell.
pub fn materialise(
    configs: &[ExperimentConfig],
    plan: &GridPlan,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Vec<Option<Bytes>>, String> {
    (0..plan.identities.len())
        .into_par_iter()
        .map(|identity| {
            if plan.cells_per_identity[identity] < 2 {
                return Ok(None);
            }
            let (point, seed) = plan.identities[identity];
            let unit = identity as u64;
            let graph = tracer
                .span("graph.generate", parent, "", unit, |_| {
                    configs[point].graph.build(seed)
                })
                .map_err(|e| e.to_string())?;
            tracer.add("graph.edges", graph.num_edges() as u64);
            let bytes = tracer.span("graph.snapshot_encode", parent, "", unit, |_| {
                snapshot::encode(&graph)
            });
            tracer.add("graph.snapshot_bytes", bytes.len() as u64);
            Ok(Some(bytes))
        })
        .collect()
}

/// Runs every cell on the pool: decode its shared graph (or build its own),
/// then run the trial. Outcomes come back in grid order.
pub fn run_cells(
    configs: &[ExperimentConfig],
    plan: &GridPlan,
    snapshots: &[Option<Bytes>],
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Vec<TrialOutcome>, String> {
    (0..plan.cells.len())
        .into_par_iter()
        .map(|cell| {
            let (point, trial) = plan.cells[cell];
            let config = &configs[point];
            let seed = config.base_seed + trial;
            let tag = protocol_tag(&config.protocol);
            let unit = cell as u64;
            tracer.span("cell", parent, tag, unit, |cell_span| {
                let graph = match &snapshots[plan.identity_of_cell[cell]] {
                    Some(bytes) => {
                        tracer.span("graph.snapshot_decode", cell_span, "", unit, |_| {
                            snapshot::decode(bytes)
                        })
                    }
                    None => tracer
                        .span("graph.generate", cell_span, "", unit, |_| {
                            config.graph.build(seed)
                        })
                        .inspect(|graph| tracer.add("graph.edges", graph.num_edges() as u64)),
                }
                .map_err(|e| e.to_string())?;
                let outcome = tracer.span("core.trial", cell_span, tag, unit, |_| {
                    config.run_trial_on(&graph, seed)
                });
                count_trial(tracer, tag, &outcome);
                Ok(outcome)
            })
        })
        .collect()
}

/// Folds outcomes, given in grid order, into one report per sweep point.
pub fn fold(
    configs: &[ExperimentConfig],
    plan: &GridPlan,
    outcomes: impl IntoIterator<Item = (usize, TrialOutcome)>,
    cache: CacheStats,
) -> SweepReport<ProtocolSpec> {
    let mut accumulators: Vec<OutcomeAccumulator> = configs
        .iter()
        .map(|config| OutcomeAccumulator::new(config.retention))
        .collect();
    for (cell, outcome) in outcomes {
        accumulators[plan.cells[cell].0].push(outcome);
    }
    let sweep = GridShape::sweep();
    SweepReport {
        label: sweep.label().to_string(),
        rows: sweep
            .points()
            .iter()
            .zip(accumulators.into_iter().zip(configs))
            .map(|(&point, (accumulator, config))| SweepRow {
                point,
                report: accumulator.into_report(config.clone()),
            })
            .collect(),
        cache,
    }
}

/// The manifest `run_sharded` ships to the worker of `shard`, which owns `range`:
/// its configs, its cells, and the snapshots of the shared graphs they use,
/// renumbered densely in cell order.
pub fn manifest(
    configs: &[ExperimentConfig],
    plan: &GridPlan,
    snapshots: &[Option<Bytes>],
    shard: usize,
    range: Range<usize>,
) -> ShardManifest {
    let mut local_of_identity: BTreeMap<usize, u32> = BTreeMap::new();
    let mut local_snapshots: Vec<Vec<u8>> = Vec::new();
    let cells = range
        .clone()
        .map(|cell| {
            let (point, trial) = plan.cells[cell];
            let identity = plan.identity_of_cell[cell];
            let source = match &snapshots[identity] {
                Some(bytes) => {
                    GraphSource::Snapshot(*local_of_identity.entry(identity).or_insert_with(|| {
                        local_snapshots.push(bytes.to_vec());
                        (local_snapshots.len() - 1) as u32
                    }))
                }
                None => GraphSource::Direct,
            };
            ShardCell {
                point: point as u32,
                trial,
                source,
            }
        })
        .collect();
    ShardManifest {
        shard_index: shard as u32,
        shard_count: SHARDS as u32,
        first_cell: range.start as u64,
        configs: configs.to_vec(),
        snapshots: local_snapshots,
        cells,
    }
}

/// A replayed pass: its report and phase times.
#[derive(Debug)]
pub struct Replay {
    /// Must equal the runner's report for the same seed.
    pub report: SweepReport<ProtocolSpec>,
    /// Clock reading at the first call.
    pub start_ns: u64,
    /// Clock reading when set-up ended: graph materialisation (plus, sharded,
    /// building and encoding the manifests).
    pub setup_end_ns: u64,
    /// Clock reading at the last result; the cells (sharded: decode, execute and
    /// report round trip) and the fold run after set-up.
    pub end_ns: u64,
}

impl Replay {
    fn phases(&self, pass: &mut Pass) {
        pass.setup_ns = self.setup_end_ns - self.start_ns;
        pass.solve_ns = self.end_ns - self.setup_end_ns;
    }
}

/// Replays the in-process grid phase by phase; spans go under `parent`.
pub fn replay(
    shape: &GridShape,
    base_seed: u64,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Replay, String> {
    let configs = shape.configs(base_seed);
    let plan = GridPlan::new(&configs);
    let start = clock::now_ns();
    let snapshots = materialise(&configs, &plan, tracer, parent)?;
    let materialised = clock::now_ns();
    let outcomes = run_cells(&configs, &plan, &snapshots, tracer, parent)?;
    let cache = CacheStats {
        graphs_built: plan.identities.len(),
        cells_run: plan.cells.len(),
        snapshot_hits: plan.snapshot_cells(),
        direct_builds: plan.cells.len() - plan.snapshot_cells(),
    };
    let report = tracer.span("core.fold", parent, "", 0, |_| {
        fold(&configs, &plan, outcomes.into_iter().enumerate(), cache)
    });
    Ok(Replay {
        report,
        start_ns: start,
        setup_end_ns: materialised,
        end_ns: clock::now_ns(),
    })
}

/// Replays the sharded grid in process: the same manifests `run_sharded` writes,
/// encoded, decoded and executed shard by shard, and the reports round-tripped
/// through the wire codec and merged in shard order.
pub fn replay_sharded(
    shape: &GridShape,
    base_seed: u64,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Replay, String> {
    let configs = shape.configs(base_seed);
    let plan = GridPlan::new(&configs);
    let start = clock::now_ns();
    let snapshots = materialise(&configs, &plan, tracer, parent)?;
    let wires: Vec<Bytes> = partition_cells(plan.cells.len(), SHARDS)
        .into_iter()
        .enumerate()
        .filter(|(_, range)| !range.is_empty())
        .map(|(shard, range)| {
            let manifest = manifest(&configs, &plan, &snapshots, shard, range);
            let wire = tracer.span("shard.encode_manifest", parent, "", shard as u64, |_| {
                shard::encode_manifest(&manifest)
            });
            tracer.add("shard.manifest_bytes", wire.len() as u64);
            wire
        })
        .collect();
    drop(snapshots);
    let encoded = clock::now_ns();

    let mut reports: Vec<ShardReport> = Vec::with_capacity(wires.len());
    for (shard, wire) in wires.iter().enumerate() {
        let unit = shard as u64;
        let manifest = tracer
            .span("shard.decode_manifest", parent, "", unit, |_| {
                shard::decode_manifest(wire)
            })
            .map_err(|e| e.to_string())?;
        let report = tracer
            .span("shard.execute", parent, "", unit, |_| {
                shard::execute_manifest(&manifest)
            })
            .map_err(|e| e.to_string())?;
        drop(manifest);
        let report_wire = tracer
            .span("shard.encode_report", parent, "", unit, |_| {
                shard::encode_report(&report)
            })
            .map_err(|e| e.to_string())?;
        tracer.add("shard.report_bytes", report_wire.len() as u64);
        let report = tracer
            .span("shard.decode_report", parent, "", unit, |_| {
                shard::decode_report(&report_wire)
            })
            .map_err(|e| e.to_string())?;
        reports.push(report);
    }

    let report = tracer.span("core.fold", parent, "", 0, |_| {
        merge(&configs, &plan, reports, tracer)
    })?;
    Ok(Replay {
        report,
        start_ns: start,
        setup_end_ns: encoded,
        end_ns: clock::now_ns(),
    })
}

/// Merges shard reports in shard order, as `Scenario::run_sharded` does, and counts
/// the work of the trials the workers ran.
fn merge(
    configs: &[ExperimentConfig],
    plan: &GridPlan,
    reports: Vec<ShardReport>,
    tracer: &Tracer,
) -> Result<SweepReport<ProtocolSpec>, String> {
    let mut outcomes: Vec<(usize, TrialOutcome)> = Vec::with_capacity(plan.cells.len());
    let (mut snapshot_hits, mut direct_builds) = (0, 0);
    for report in reports {
        snapshot_hits += report.snapshot_hits as usize;
        direct_builds += report.direct_builds as usize;
        let ShardPayload::Outcomes(shard_outcomes) = report.payload else {
            return Err(format!(
                "shard {} returned accumulators for a full-retention grid",
                report.shard_index
            ));
        };
        outcomes.extend((report.first_cell as usize..).zip(shard_outcomes));
    }
    for (cell, outcome) in &outcomes {
        count_trial(
            tracer,
            protocol_tag(&configs[plan.cells[*cell].0].protocol),
            outcome,
        );
    }
    let cache = CacheStats {
        graphs_built: plan.identities.len(),
        cells_run: plan.cells.len(),
        snapshot_hits,
        direct_builds,
    };
    Ok(fold(configs, plan, outcomes, cache))
}

/// Digest of a sweep's per-point reports (every outcome included).
pub fn digest(report: &SweepReport<ProtocolSpec>) -> u64 {
    Digest::default().debug(&report.rows).value()
}

/// Checks every cell: it completed, and SAER/RAES kept the max load within c·d.
pub fn check_cells(report: &SweepReport<ProtocolSpec>, expected_cells: usize, pass: &mut Pass) {
    let cells: usize = report.rows.iter().map(|row| row.report.trials.len()).sum();
    if cells != expected_cells {
        pass.fail_all(format!(
            "the report holds {cells} cells, expected {expected_cells}"
        ));
        return;
    }
    for (protocol, point) in report.iter() {
        let bound = match *protocol {
            ProtocolSpec::Saer { c, d } | ProtocolSpec::Raes { c, d } => Some(c * d),
            _ => None,
        };
        for trial in &point.trials {
            let result = &trial.result;
            if !result.completed {
                pass.fail_unit(format!(
                    "{} seed {}: {} balls unassigned after {} rounds",
                    protocol.label(),
                    trial.seed,
                    result.unassigned_balls,
                    result.rounds
                ));
            } else if bound.is_some_and(|bound| result.max_load > bound) {
                pass.fail_unit(format!(
                    "{} seed {}: max load {} exceeds c·d",
                    protocol.label(),
                    trial.seed,
                    result.max_load
                ));
            }
        }
    }
}

/// The grid workload's passes.
#[derive(Debug)]
pub struct GridBench {
    shape: GridShape,
    /// `Scenario::run_sharded`'s report for the first pass's seed, made during
    /// the warm-up, which the first pass's `Scenario::run` report must equal.
    reference: Option<Result<SweepReport<ProtocolSpec>, String>>,
    /// Untraced time of the sharded replay the traced pass adds, measured once
    /// during the warm-up on the first pass's seed.
    sharded_replay_ns: u64,
}

impl GridBench {
    /// Passes over `shape` through `Scenario::run`.
    pub fn new(shape: GridShape) -> Self {
        Self {
            shape,
            reference: None,
            sharded_replay_ns: 0,
        }
    }
}

impl Bench for GridBench {
    fn warm_up(&mut self, first_pass_seed: u64) {
        let small = GridShape { n: 256, trials: 2 };
        let _ = replay(&small, 1, &Tracer::off(), SpanId::ROOT);
        let _ = small.run(1);
        // The sharded runner is checked once per run, untimed: a timed pass that
        // waits on statically split worker processes was too noisy to gate (see
        // README.md).
        self.reference = Some(
            self.shape
                .run_sharded(first_pass_seed, &ShardPlan::new(SHARDS)),
        );
        let ((), ns) = clock::timed(|| {
            let _ = replay_sharded(&self.shape, first_pass_seed, &Tracer::off(), SpanId::ROOT);
        });
        self.sharded_replay_ns = ns;
    }

    fn pass(&mut self, base_seed: u64) -> Pass {
        let reference = self.reference.take();
        let shard_workers = if reference.is_some() { SHARDS } else { 0 };
        let mut pass = Pass::attempting((self.shape.cells() + shard_workers) as u64);
        pass.cells = self.shape.cells() as u64;
        let (report, wall_ns) = clock::timed(|| self.shape.run(base_seed));
        pass.wall_ns = wall_ns;
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                pass.fail_all(format!("the grid failed: {e}"));
                return pass;
            }
        };
        check_cells(&report, self.shape.cells(), &mut pass);
        pass.digest = digest(&report);
        match replay(&self.shape, base_seed, &Tracer::off(), SpanId::ROOT) {
            Ok(replay) => {
                replay.phases(&mut pass);
                if replay.report != report {
                    pass.fail_all(
                        "the phase-by-phase replay's report differs from the runner's".into(),
                    );
                }
            }
            Err(e) => pass.fail_all(format!("the replay failed: {e}")),
        }
        match reference {
            None => {}
            Some(Ok(sharded)) if sharded == report => {}
            Some(Ok(_)) => pass.fail_all("the sharded report differs from Scenario::run's".into()),
            Some(Err(e)) => pass.fail_all(format!("the sharded grid failed: {e}")),
        }
        pass
    }

    fn traced_work_ns(&self, pass: &Pass) -> u64 {
        // The traced pass is the in-process replay, whose phases are set-up and
        // solve, followed by the sharded replay.
        pass.setup_ns + pass.solve_ns + self.sharded_replay_ns
    }

    fn traced_pass(&mut self, base_seed: u64, tracer: &Tracer) -> Pass {
        let mut pass = Pass::attempting(self.shape.cells() as u64);
        pass.cells = self.shape.cells() as u64;
        let root = tracer.reserve();
        let replays = replay(&self.shape, base_seed, tracer, root).and_then(|in_process| {
            replay_sharded(&self.shape, base_seed, tracer, root)
                .map(|sharded| (in_process, sharded))
        });
        match replays {
            Ok((in_process, sharded)) => {
                tracer.record(
                    root,
                    "pass",
                    SpanId::ROOT,
                    "",
                    0,
                    (in_process.start_ns, sharded.end_ns),
                );
                pass.wall_ns = sharded.end_ns - in_process.start_ns;
                in_process.phases(&mut pass);
                check_cells(&in_process.report, self.shape.cells(), &mut pass);
                pass.digest = digest(&in_process.report);
                if sharded.report != in_process.report {
                    pass.fail_all(
                        "the sharded replay's report differs from the in-process one's".into(),
                    );
                }
            }
            Err(e) => pass.fail_all(format!("the traced replay failed: {e}")),
        }
        pass
    }
}
