//! The scenario runner: declarative parameter sweeps over the experiment layer.
//!
//! Every experiment binary used to hand-roll the same loop — iterate a parameter list,
//! build an [`ExperimentConfig`] per value, run its trials, format a table row — with
//! the trial count, quick-mode handling and header printing copy-pasted thirteen times.
//! This module is that loop, once:
//!
//! * [`Scenario`] — names an experiment (id, claim, paper prediction) and carries the
//!   execution policy: trial count (quick-mode aware), round cap, optional
//!   measurements.
//! * [`Sweep`] — an ordered list of sweep points with a label; [`Sweep::cross`] builds
//!   cartesian grids for multi-parameter sweeps (e.g. `c × protocol`).
//! * [`Scenario::run`] — expands the *(sweep point × trial)* grid, runs **all** cells in
//!   one flat rayon-parallel pass (so a sweep with a few slow points doesn't serialise
//!   behind them), and aggregates each point's trials into an [`ExperimentReport`].
//!
//! # Seed discipline across sweep points
//!
//! Trial `i` of a sweep point runs with seed `base_seed + i`, and the **seed-striding
//! convention** is that distinct sweep points stride their base seeds far enough apart
//! that the per-point seed ranges `[base_seed, base_seed + trials)` never overlap —
//! the `exp_*` binaries use `base + 1000 · point_index`. Overlapping ranges on the
//! same topology silently correlate measurements that the report presents as
//! independent: with `.seed(600 + c)` and 15 trials, the `c = 1` and `c = 2` points
//! share 14 of 15 seeds, i.e. 14 identical graphs and identical request streams.
//! To make the stride impossible to forget, the config closure receives the
//! sweep-point index as its first argument — `.seed(base + 1000 * idx as u64)` needs
//! no `.enumerate()` contortions on the sweep itself, and scalar sweep points keep
//! their `Display` impl for the generic [`SweepReport::to_markdown`].
//! [`Scenario::run`] additionally asserts the convention for any two points whose
//! [`GraphSpec`]s are equal. Designs that *want* shared randomness across points — the
//! paired RAES-vs-SAER comparison of `exp_raes_vs_saer`, where both protocols must see
//! identical graphs and request streams — opt out explicitly with
//! [`Scenario::paired_seeds`].
//!
//! # Graph cache
//!
//! Materialising a topology is typically far more expensive than running a protocol on
//! it, and cross sweeps (e.g. `c × protocol`) revisit the same `GraphSpec × seed`
//! graph identity once per protocol arm. [`Scenario::run`] therefore builds each
//! distinct `GraphSpec × seed` graph exactly once: identities shared by several grid
//! cells are built up front, on the pool, and every cell that lands on one borrows the
//! same in-memory graph, while single-cell identities build their graph directly inside
//! the cell's trial, so resident graphs are the shared identities only. (Terminology: a
//! *cell* is one (sweep point × trial) grid entry; several cells can map to one graph
//! identity.) Graphs are encoded as `clb_graph::snapshot` bytes only when they must
//! cross a process boundary, in [`Scenario::run_sharded`]. The resulting
//! [`CacheStats`] are reported on the [`SweepReport`] and printed as the
//! `graph cache:` line CI greps.
//!
//! A complete experiment binary is now a scenario declaration plus a table render:
//!
//! ```no_run
//! use clb_core::{Scenario, Sweep, ExperimentConfig};
//! use clb_graph::GraphSpec;
//! use clb_protocols::ProtocolSpec;
//!
//! let scenario = Scenario::new("E6", "sensitivity to c", "completion degrades only for tiny c")
//!     .max_rounds(600);
//! let report = scenario
//!     .announce()
//!     .run(Sweep::over("c", [1u32, 2, 4, 8]), |idx, &c| {
//!         ExperimentConfig::new(
//!             GraphSpec::RegularLogSquared { n: 1 << 12, eta: 1.0 },
//!             ProtocolSpec::Saer { c, d: 2 },
//!         )
//!         // Seed-striding convention: disjoint trial seed ranges per point.
//!         .seed(600 + 1000 * idx as u64)
//!     })
//!     .unwrap();
//! for (&c, point) in report.iter() {
//!     println!("c = {c}: {:.1} rounds", point.rounds.mean);
//! }
//! ```

use crate::accumulate::{merge_grid_fold, GridFold, Retention};
use crate::experiment::{ExperimentConfig, ExperimentReport, Measurements};
use clb_engine::Demand;
use clb_faults::FaultPlan;
use clb_graph::{BipartiteGraph, GraphError};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// True if `CLB_QUICK=1` is set: scenarios shrink their trial counts (and binaries
/// their sweeps) so every experiment finishes in a couple of seconds, e.g. in CI.
pub fn quick_mode() -> bool {
    std::env::var("CLB_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Default number of trials per sweep point (quick-mode aware).
pub fn default_trials() -> usize {
    if quick_mode() {
        5
    } else {
        15
    }
}

/// The default `n` sweep for scaling experiments (E1/E2): powers of two from 2^10 to
/// 2^14 (2^10..2^12 in quick mode).
pub fn n_sweep() -> Vec<usize> {
    if quick_mode() {
        vec![1 << 10, 1 << 11, 1 << 12]
    } else {
        vec![1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14]
    }
}

/// A named experiment plus its execution policy.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short identifier, e.g. `"E6"`.
    pub id: String,
    /// One-line statement of what the experiment shows.
    pub claim: String,
    /// The machine-independent prediction of the paper being tested.
    pub prediction: String,
    pub(crate) trials: usize,
    max_rounds: Option<u32>,
    measurements: Option<Measurements>,
    demand: Option<Demand>,
    retention: Option<Retention>,
    faults: Option<FaultPlan>,
    pub(crate) paired_seeds: bool,
}

impl Scenario {
    /// Creates a scenario with the default (quick-mode aware) trial count.
    pub fn new(
        id: impl Into<String>,
        claim: impl Into<String>,
        prediction: impl Into<String>,
    ) -> Self {
        Self {
            id: id.into(),
            claim: claim.into(),
            prediction: prediction.into(),
            trials: default_trials(),
            max_rounds: None,
            measurements: None,
            demand: None,
            retention: None,
            faults: None,
            paired_seeds: false,
        }
    }

    /// True when running in quick mode (`CLB_QUICK=1`).
    pub fn quick(&self) -> bool {
        quick_mode()
    }

    /// Overrides the number of trials per sweep point.
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// The number of trials each sweep point will run.
    pub fn trials_per_point(&self) -> usize {
        self.trials
    }

    /// Applies a round cap to every sweep point.
    pub fn max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Enables optional per-round measurements for every sweep point.
    pub fn measurements(mut self, measurements: Measurements) -> Self {
        self.measurements = Some(measurements);
        self
    }

    /// Overrides the demand for every sweep point.
    pub fn demand(mut self, demand: Demand) -> Self {
        self.demand = Some(demand);
        self
    }

    /// Applies a retention policy to every sweep point. [`Retention::Summary`] folds
    /// trial outcomes into O(1)-memory accumulators as the grid runs (per-trial
    /// outcomes and measurement series are dropped after folding), so grids far too
    /// large to hold every outcome in memory stay runnable — see
    /// [`crate::accumulate`].
    pub fn retention(mut self, retention: Retention) -> Self {
        self.retention = Some(retention);
        self
    }

    /// Injects a [`FaultPlan`] into every sweep point (see [`clb_faults`]). For
    /// sweeps where the fault intensity is itself an axis, set
    /// [`ExperimentConfig::faults`] per point in the config closure instead.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Declares that sweep points *deliberately* share base seeds, disabling the
    /// seed-disjointness assertion of [`Scenario::run`].
    ///
    /// Use this only for paired designs where points must see identical randomness —
    /// e.g. `exp_raes_vs_saer` runs SAER and RAES on the same `GraphSpec × seed`
    /// graphs so trial `i` sees the same topology and the same request streams under either
    /// acceptance rule (the stochastic-domination comparison of Corollary 2). For
    /// ordinary sweeps, stride base seeds by sweep-point index instead (see the module
    /// docs).
    pub fn paired_seeds(mut self) -> Self {
        self.paired_seeds = true;
        self
    }

    /// Prints the standard experiment header (id, claim, prediction) and returns
    /// `self` so a binary can chain straight into [`Scenario::run`].
    pub fn announce(&self) -> &Self {
        println!("## {} — {}", self.id, self.claim);
        println!();
        println!("paper prediction: {}", self.prediction);
        println!();
        self
    }

    /// Applies the scenario's execution policy to a per-point config.
    pub(crate) fn apply(&self, mut config: ExperimentConfig) -> ExperimentConfig {
        config.trials = self.trials;
        if let Some(max_rounds) = self.max_rounds {
            config.max_rounds = max_rounds;
        }
        if let Some(measurements) = self.measurements {
            config.measurements = measurements;
        }
        if let Some(demand) = &self.demand {
            config.demand = demand.clone();
        }
        if let Some(retention) = self.retention {
            config.retention = retention;
        }
        if let Some(faults) = self.faults {
            config.faults = Some(faults);
        }
        config
    }

    /// Runs the whole *(sweep point × trial)* grid in one flat rayon-parallel pass and
    /// aggregates each point's trials into an [`ExperimentReport`].
    ///
    /// `config` maps `(point_index, sweep point)` to its experiment; the scenario's
    /// trial count, round cap, measurements and demand overrides are applied on top.
    /// The index is the point's position in the sweep (0-based) — use it for the
    /// seed-striding convention (`.seed(base + 1000 * idx as u64)`, see the module
    /// docs) without threading `.enumerate()` through the sweep's point type. Trial
    /// `i` of a point uses seed `base_seed + i`, exactly like
    /// [`ExperimentConfig::run`].
    ///
    /// Each distinct `GraphSpec × seed` graph identity is materialised exactly once
    /// and shared by every grid cell that lands on it — see the module docs.
    /// Distinct points with equal `GraphSpec`s must have disjoint
    /// `[base_seed, base_seed + trials)` ranges unless [`Scenario::paired_seeds`] was
    /// called; violating this panics (in release builds too).
    pub fn run<T, F>(&self, sweep: Sweep<T>, config: F) -> Result<SweepReport<T>, GraphError>
    where
        T: Send + Sync,
        F: Fn(usize, &T) -> ExperimentConfig + Sync,
    {
        assert!(
            self.trials > 0,
            "a scenario needs at least one trial per point"
        );
        let Sweep { label, points } = sweep;
        let configs: Vec<ExperimentConfig> = points
            .iter()
            .enumerate()
            .map(|(index, point)| self.apply(config(index, point)))
            .collect();

        if !self.paired_seeds {
            assert_disjoint_seed_ranges(&self.id, &configs);
        }

        let plan = plan_grid(&configs);
        let shared = build_shared_graphs(&configs, &plan, |graph| graph)?;

        // Per-cell cache accounting. The grid pass below runs on pool workers, so the
        // tallies are relaxed atomics merged into plain `CacheStats` fields after the
        // pass — the totals are exact at any thread count because every cell
        // increments exactly one counter exactly once, and the final loads happen
        // after the parallel collect's completion barrier.
        let snapshot_hits = AtomicUsize::new(0);
        let direct_builds = AtomicUsize::new(0);

        // Streaming fold: each cell's outcome lands in a per-point accumulator on
        // the worker that ran it, and piece results merge in index order (the grid
        // is point-major, so merges only ever join *adjacent* trial chunks of one
        // point). Under Retention::Summary the outcome is dropped right here, so
        // resident outcome memory is bounded by the piece count — not the grid size.
        //
        // Two-level parallelism: since the pool's work-stealing rewrite, a trial's
        // own intra-step drives fan out from the worker running its cell, so this
        // reduce-merge overlaps with intra-cell work — workers idling at the grid's
        // uneven tail steal nested pieces from cells still in flight. Results are
        // unaffected either way: merges happen at fixed piece indices regardless of
        // who executed what (`tests/nested_parallel_determinism.rs` pins this).
        let accumulators: Result<GridFold<usize>, GraphError> = plan
            .grid
            .par_iter()
            .zip(plan.identity_of_cell.par_iter())
            .map(|(&(index, trial), &identity)| {
                let config = &configs[index];
                let seed = config.base_seed + trial;
                let built;
                let graph = match &shared[identity] {
                    Some(graph) => {
                        snapshot_hits.fetch_add(1, Ordering::Relaxed);
                        graph
                    }
                    None => {
                        direct_builds.fetch_add(1, Ordering::Relaxed);
                        built = config.graph.build(seed)?;
                        &built
                    }
                };
                Ok(GridFold::cell(
                    index,
                    config.retention,
                    config.run_trial_on(graph, seed),
                ))
            })
            .reduce(|| Ok(GridFold::empty()), merge_grid_fold);

        let cache = CacheStats {
            graphs_built: plan.identities.len(),
            cells_run: plan.grid.len(),
            // Loaded after the parallel fold has joined, so every increment is
            // visible and the totals are exact counts.
            // clb-audit: allow(relaxed-load) -- read-after-join, exact total
            snapshot_hits: snapshot_hits.load(Ordering::Relaxed),
            // clb-audit: allow(relaxed-load) -- read-after-join, exact total
            direct_builds: direct_builds.load(Ordering::Relaxed),
        };

        let accumulators = accumulators?.into_merged();
        debug_assert!(
            accumulators
                .iter()
                .map(|(index, _)| *index)
                .eq(0..configs.len()),
            "grid fold must produce exactly one accumulator per sweep point, in order"
        );
        let rows = points
            .into_iter()
            .zip(configs)
            .zip(accumulators)
            .map(|((point, config), (_, accumulator))| SweepRow {
                point,
                report: accumulator.into_report(config),
            })
            .collect();
        print_cache_line(&cache);
        Ok(SweepReport { label, rows, cache })
    }

    /// Runs a single configuration under the scenario's policy — the degenerate
    /// one-point sweep, for experiments that dissect one run in depth.
    pub fn run_single(&self, config: ExperimentConfig) -> Result<ExperimentReport, GraphError> {
        let report = self.run(Sweep::over("-", [()]), |_, _| config.clone())?;
        Ok(report
            .rows
            .into_iter()
            .next()
            .expect("one-point sweep")
            .report)
    }
}

/// The expanded *(sweep point × trial)* grid of one scenario run plus its graph
/// identity analysis — the unit of work both [`Scenario::run`] (in-process) and
/// [`Scenario::run_sharded`] (child processes) execute. Sharing the planning code is
/// what makes the two paths bit-identical by construction: both see the same cell
/// order, the same identity numbering and the same shared-vs-direct split.
pub(crate) struct GridPlan {
    /// Flat point-major grid: one `(point index, trial index)` entry per cell.
    pub(crate) grid: Vec<(usize, u64)>,
    /// For each grid cell, the index of its graph identity in `identities`.
    pub(crate) identity_of_cell: Vec<usize>,
    /// Distinct `GraphSpec × seed` identities in first-appearance (grid) order, each
    /// recorded as `(config index of first appearance, seed)`.
    pub(crate) identities: Vec<(usize, u64)>,
    /// Number of grid cells mapping to each identity.
    pub(crate) cells_per_identity: Vec<usize>,
}

/// Expands the configs into the flat grid and groups cells by `GraphSpec × seed`
/// graph identity (keyed by [`GraphSpec::cache_key`], like the graph cache).
pub(crate) fn plan_grid(configs: &[ExperimentConfig]) -> GridPlan {
    // One flat grid: a slow sweep point never serialises the rest of the sweep.
    let grid: Vec<(usize, u64)> = configs
        .iter()
        .enumerate()
        .flat_map(|(index, config)| (0..config.trials as u64).map(move |t| (index, t)))
        .collect();

    let mut identity_of_cell: Vec<usize> = Vec::with_capacity(grid.len());
    // Membership-only dedup index: the Vec push order below, not map order,
    // determines identity numbering.
    // clb-audit: allow(unordered-collection) -- membership-only dedup index
    let mut identity_index: HashMap<(String, u64), usize> = HashMap::new();
    let mut identities: Vec<(usize, u64)> = Vec::new();
    let mut cells_per_identity: Vec<usize> = Vec::new();
    for &(index, trial) in &grid {
        let config = &configs[index];
        let seed = config.base_seed + trial;
        let key = (config.graph.cache_key(), seed);
        let identity = *identity_index.entry(key).or_insert_with(|| {
            identities.push((index, seed));
            cells_per_identity.push(0);
            identities.len() - 1
        });
        cells_per_identity[identity] += 1;
        identity_of_cell.push(identity);
    }
    GridPlan {
        grid,
        identity_of_cell,
        identities,
        cells_per_identity,
    }
}

/// Graph cache: generate each distinct `GraphSpec × seed` graph identity once.
/// Identities shared by more than one grid cell (cross sweeps, paired designs) are
/// generated in parallel up front and passed through `keep`, which returns the form
/// the cells will read: the graph itself in process, its snapshot encoding for the
/// sharded runner's workers (so a graph shared across shards is still generated
/// exactly once, and dropped as soon as it is encoded). Identities with exactly one
/// cell gain nothing from a resident copy, so theirs is built directly inside the
/// cell's trial (`None`) and resident memory stays proportional to the *shared*
/// identities only.
pub(crate) fn build_shared_graphs<G: Send>(
    configs: &[ExperimentConfig],
    plan: &GridPlan,
    keep: impl Fn(BipartiteGraph) -> G + Sync,
) -> Result<Vec<Option<G>>, GraphError> {
    plan.identities
        .par_iter()
        .zip(plan.cells_per_identity.par_iter())
        .map(|(&(config_index, seed), &cells)| {
            if cells > 1 {
                configs[config_index]
                    .graph
                    .build(seed)
                    .map(|g| Some(keep(g)))
            } else {
                Ok(None)
            }
        })
        .collect()
}

/// Prints the `graph cache:` line CI greps. One function for both the in-process and
/// the sharded runner, so the formats cannot drift apart (the shard-matrix CI job
/// diffs their whole stdout).
pub(crate) fn print_cache_line(cache: &CacheStats) {
    println!(
        "graph cache: built {} graphs for {} cells",
        cache.graphs_built, cache.cells_run
    );
}

/// Panics if two distinct sweep points with equal `GraphSpec`s have overlapping
/// `[base_seed, base_seed + trials)` seed ranges — overlapping ranges on the same
/// topology silently correlate points that the report presents as independent
/// measurements. Paired designs opt out via [`Scenario::paired_seeds`].
///
/// Runs in release builds too: the `exp_*` binaries only ever run in release (CI
/// smoke-runs them with `cargo run --release`), and an O(points²) integer comparison
/// is negligible next to a single graph generation.
pub(crate) fn assert_disjoint_seed_ranges(scenario_id: &str, configs: &[ExperimentConfig]) {
    for (i, a) in configs.iter().enumerate() {
        for (j, b) in configs.iter().enumerate().skip(i + 1) {
            if a.graph != b.graph {
                continue;
            }
            let (a_lo, a_hi) = (a.base_seed, a.base_seed + a.trials as u64);
            let (b_lo, b_hi) = (b.base_seed, b.base_seed + b.trials as u64);
            assert!(
                a_hi <= b_lo || b_hi <= a_lo,
                "scenario {scenario_id}: sweep points {i} and {j} share the topology \
                 {} but overlap their trial seed ranges [{a_lo}, {a_hi}) and \
                 [{b_lo}, {b_hi}); overlapping seeds correlate points that are \
                 reported as independent. Stride base seeds by sweep-point index \
                 (e.g. base + 1000 * point_idx), or call Scenario::paired_seeds() if \
                 the sharing is a deliberate paired design.",
                a.graph.label(),
            );
        }
    }
}

/// How much graph generation the graph cache saved in one [`Scenario::run`]: the
/// runner materialised `graphs_built` distinct `GraphSpec × seed` cells to serve
/// `cells_run` (point × trial) grid cells.
///
/// The per-cell tallies are counted with relaxed atomics while the grid runs on the
/// thread pool and are exact at any thread count: every successful run satisfies
/// `snapshot_hits + direct_builds == cells_run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct `GraphSpec × seed` graphs actually generated.
    pub graphs_built: usize,
    /// Total (sweep point × trial) cells executed.
    pub cells_run: usize,
    /// Cells whose graph identity is shared with other cells and was served from the
    /// shared cache: in process the resident graph, in a shard worker the shipped
    /// snapshot (the cache's savings).
    pub snapshot_hits: usize,
    /// Cells with a single-use graph identity that built their graph directly inside
    /// the cell (a resident graph would save nothing).
    pub direct_builds: usize,
}

/// An ordered, labelled list of sweep points.
#[derive(Debug, Clone)]
pub struct Sweep<T> {
    label: String,
    points: Vec<T>,
}

impl<T> Sweep<T> {
    /// A sweep over the given points.
    pub fn over(label: impl Into<String>, points: impl IntoIterator<Item = T>) -> Self {
        Self {
            label: label.into(),
            points: points.into_iter().collect(),
        }
    }

    /// Cartesian product with a second parameter: every existing point is paired with
    /// every new value, in point-major order.
    pub fn cross<U>(
        self,
        label: impl AsRef<str>,
        values: impl IntoIterator<Item = U>,
    ) -> Sweep<(T, U)>
    where
        T: Clone,
        U: Clone,
    {
        let values: Vec<U> = values.into_iter().collect();
        let points = self
            .points
            .into_iter()
            .flat_map(|point| {
                values
                    .clone()
                    .into_iter()
                    .map(move |value| (point.clone(), value))
            })
            .collect();
        Sweep {
            label: format!("{} × {}", self.label, label.as_ref()),
            points,
        }
    }

    /// The sweep's label (used in report headers).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The sweep points, in order.
    pub fn points(&self) -> &[T] {
        &self.points
    }

    /// Decomposes the sweep into its label and points (for the sharded runner, which
    /// lives in a sibling module).
    pub(crate) fn into_parts(self) -> (String, Vec<T>) {
        (self.label, self.points)
    }
}

/// One aggregated sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow<T> {
    /// The sweep point.
    pub point: T,
    /// The aggregated trials of this point.
    pub report: ExperimentReport,
}

/// Results of a full sweep, in sweep-point order. `PartialEq` compares every
/// per-point statistic (all trials included), which is what the cross-thread-count
/// determinism tests assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport<T> {
    /// The sweep's label.
    pub label: String,
    /// One row per sweep point.
    pub rows: Vec<SweepRow<T>>,
    /// Graph-cache statistics for this run.
    pub cache: CacheStats,
}

impl<T> SweepReport<T> {
    /// Iterates `(point, report)` pairs in sweep order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, &ExperimentReport)> {
        self.rows.iter().map(|row| (&row.point, &row.report))
    }

    /// The report of the `index`-th sweep point.
    pub fn report(&self, index: usize) -> &ExperimentReport {
        &self.rows[index].report
    }
}

impl<T: std::fmt::Display> SweepReport<T> {
    /// The standard sweep table: one row per point with completion, rounds, work and
    /// max load. Binaries with bespoke columns build their own [`crate::report::Table`].
    pub fn to_markdown(&self) -> String {
        let mut table = crate::report::Table::new([
            self.label.as_str(),
            "completed",
            "rounds (mean)",
            "work/ball (mean)",
            "max load (max)",
        ]);
        for row in &self.rows {
            table.row([
                row.point.to_string(),
                format!("{:.0}%", 100.0 * row.report.completion_rate()),
                format!("{:.2}", row.report.rounds.mean),
                format!("{:.2}", row.report.work_per_ball.mean),
                format!("{:.0}", row.report.max_load.max),
            ]);
        }
        table.to_markdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clb_graph::GraphSpec;
    use clb_protocols::ProtocolSpec;

    fn scenario() -> Scenario {
        Scenario::new("T1", "test scenario", "no prediction").trials(3)
    }

    fn config_for(c: u32) -> ExperimentConfig {
        // Base seeds follow the striding convention: far enough apart that the
        // per-point trial ranges stay disjoint (see the module docs).
        ExperimentConfig::new(
            GraphSpec::Regular { n: 64, delta: 16 },
            ProtocolSpec::Saer { c, d: 2 },
        )
        .seed(100 + 1000 * c as u64)
    }

    #[test]
    fn sweep_runs_every_point_with_the_scenario_policy() {
        let report = scenario()
            .max_rounds(300)
            .run(Sweep::over("c", [2u32, 4, 8]), |_, &c| config_for(c))
            .unwrap();
        assert_eq!(report.rows.len(), 3);
        for (c, point) in report.iter() {
            assert_eq!(point.trials.len(), 3, "c = {c}");
            assert_eq!(point.config.trials, 3);
            assert_eq!(point.config.max_rounds, 300);
            // Per-point seeds are base_seed + trial index, in order.
            let seeds: Vec<u64> = point.trials.iter().map(|t| t.seed).collect();
            let base = 100 + 1000 * *c as u64;
            assert_eq!(seeds, vec![base, base + 1, base + 2]);
        }
        // Every cell is a distinct GraphSpec × seed here, so the cache built them all.
        assert_eq!(report.cache.cells_run, 9);
        assert_eq!(report.cache.graphs_built, 9);
        assert_eq!(report.cache.snapshot_hits, 0);
        assert_eq!(report.cache.direct_builds, 9);
    }

    #[test]
    fn config_closure_receives_the_point_index() {
        let report = scenario()
            .run(Sweep::over("c", [2u32, 4, 8]), |idx, &c| {
                // Stride by index, not by the point value.
                config_for(c).seed(100 + 1000 * idx as u64)
            })
            .unwrap();
        for (idx, row) in report.rows.iter().enumerate() {
            assert_eq!(row.report.config.base_seed, 100 + 1000 * idx as u64);
        }
    }

    #[test]
    #[should_panic(expected = "overlap their trial seed ranges")]
    fn overlapping_seed_ranges_on_the_same_topology_are_rejected() {
        // The pre-fix exp_c_sweep pattern: seed(base + c) with 3 trials means c = 2
        // and c = 4 share seed 104 — the bug this assertion exists to catch.
        let _ = scenario().run(Sweep::over("c", [2u32, 4]), |_, &c| {
            ExperimentConfig::new(
                GraphSpec::Regular { n: 64, delta: 16 },
                ProtocolSpec::Saer { c, d: 2 },
            )
            .seed(100 + c as u64)
        });
    }

    #[test]
    fn paired_seeds_allows_identical_ranges_and_shares_graphs() {
        // The exp_raes_vs_saer design: both protocol arms deliberately run on the
        // same GraphSpec × seed cells. The cache must build each graph once.
        let report = scenario()
            .paired_seeds()
            .run(Sweep::over("protocol", ["SAER", "RAES"]), |_, name| {
                let protocol = match *name {
                    "SAER" => ProtocolSpec::Saer { c: 4, d: 2 },
                    _ => ProtocolSpec::Raes { c: 4, d: 2 },
                };
                ExperimentConfig::new(GraphSpec::Regular { n: 64, delta: 16 }, protocol).seed(500)
            })
            .unwrap();
        assert_eq!(report.cache.cells_run, 6);
        assert_eq!(report.cache.graphs_built, 3, "3 seeds shared by 2 arms");
        assert_eq!(
            report.cache.snapshot_hits, 6,
            "every cell borrowed a shared graph"
        );
        assert_eq!(report.cache.direct_builds, 0);
        // Pairing is real: both arms saw identical topologies per trial.
        for (a, b) in report.report(0).trials.iter().zip(&report.report(1).trials) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.degree_stats, b.degree_stats);
        }
    }

    #[test]
    fn cache_stats_totals_are_exact_at_any_thread_count() {
        // Mixed workload: the paired arms share graph identities (hits) while a
        // third point runs on its own seeds (direct builds). The relaxed-atomic
        // tallies must account for every cell exactly, however many pool workers
        // executed the grid, and the whole report must not depend on the thread
        // count either.
        let run_with_threads = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    scenario()
                        .paired_seeds()
                        .run(Sweep::over("arm", ["SAER", "RAES", "SOLO"]), |_, name| {
                            let (protocol, seed) = match *name {
                                "SAER" => (ProtocolSpec::Saer { c: 4, d: 2 }, 500),
                                "RAES" => (ProtocolSpec::Raes { c: 4, d: 2 }, 500),
                                _ => (ProtocolSpec::Saer { c: 8, d: 2 }, 9_000),
                            };
                            ExperimentConfig::new(GraphSpec::Regular { n: 64, delta: 16 }, protocol)
                                .seed(seed)
                        })
                        .unwrap()
                })
        };
        let sequential = run_with_threads(1);
        assert_eq!(sequential.cache.cells_run, 9);
        assert_eq!(sequential.cache.snapshot_hits, 6);
        assert_eq!(sequential.cache.direct_builds, 3);
        for threads in [2, 4, 8] {
            let parallel = run_with_threads(threads);
            assert_eq!(
                parallel.cache.snapshot_hits + parallel.cache.direct_builds,
                parallel.cache.cells_run,
                "threads = {threads}"
            );
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn cached_graphs_match_fresh_generation() {
        // A Scenario::run trial borrows the cache's shared graph; the direct
        // ExperimentConfig::run path regenerates per trial. Outcomes must be
        // bit-identical, proving the cache changes nothing.
        let direct = config_for(4).trials(3).run().unwrap();
        let cached = scenario()
            .run(Sweep::over("c", [4u32]), |_, &c| config_for(c))
            .unwrap();
        assert_eq!(cached.report(0).trials, direct.trials);
    }

    #[test]
    fn sweep_matches_experiment_config_run() {
        // The grid path must produce exactly what ExperimentConfig::run produces.
        let direct = config_for(4).trials(3).run().unwrap();
        let swept = scenario()
            .run(Sweep::over("c", [4u32]), |_, &c| config_for(c))
            .unwrap();
        assert_eq!(swept.report(0).trials, direct.trials);
        assert_eq!(swept.report(0).rounds, direct.rounds);
    }

    #[test]
    fn cross_builds_the_cartesian_grid_in_point_major_order() {
        let sweep = Sweep::over("c", [1, 2]).cross("p", ["a", "b"]);
        assert_eq!(sweep.label(), "c × p");
        assert_eq!(sweep.points(), &[(1, "a"), (1, "b"), (2, "a"), (2, "b")]);
        assert_eq!(sweep.len(), 4);
        assert!(!sweep.is_empty());
    }

    #[test]
    fn run_single_is_the_one_point_sweep() {
        let report = scenario().run_single(config_for(8)).unwrap();
        assert_eq!(report.trials.len(), 3);
        assert_eq!(report.completion_rate(), 1.0);
    }

    #[test]
    fn default_markdown_has_one_row_per_point() {
        let report = scenario()
            .run(Sweep::over("c", [2u32, 8]), |_, &c| config_for(c))
            .unwrap();
        let md = report.to_markdown();
        assert!(md.lines().count() >= 4);
        assert!(md.contains("| c"));
        assert!(md.contains("100%"));
    }

    #[test]
    fn demand_override_applies_to_every_point() {
        let report = scenario()
            .demand(clb_engine::Demand::Constant(1))
            .run(Sweep::over("c", [4u32]), |_, &c| config_for(c))
            .unwrap();
        // d = 2 would give 128 balls; the override gives one ball per client.
        assert_eq!(report.report(0).trials[0].result.total_balls, 64);
    }

    #[test]
    fn invalid_configs_surface_the_error() {
        let result = scenario().run(Sweep::over("delta", [200usize]), |_, &delta| {
            ExperimentConfig::new(GraphSpec::Regular { n: 8, delta }, ProtocolSpec::OneShot)
        });
        assert!(result.is_err());
    }

    #[test]
    fn summary_retention_applies_to_every_point_and_matches_full_statistics() {
        let full = scenario()
            .run(Sweep::over("c", [2u32, 4, 8]), |_, &c| config_for(c))
            .unwrap();
        let summary = scenario()
            .retention(Retention::Summary)
            .run(Sweep::over("c", [2u32, 4, 8]), |_, &c| config_for(c))
            .unwrap();
        assert_eq!(summary.rows.len(), 3);
        assert_eq!(summary.cache, full.cache);
        for (f, s) in full.iter().zip(summary.iter()) {
            let (f, s) = (f.1, s.1);
            assert_eq!(s.config.retention, Retention::Summary);
            assert!(s.trials.is_empty());
            assert_eq!(s.trial_count, f.trial_count);
            assert_eq!(s.completed_trials, f.completed_trials);
            assert_eq!(s.rounds.count, f.rounds.count);
            assert_eq!(s.rounds.min, f.rounds.min);
            assert_eq!(s.rounds.max, f.rounds.max);
            assert!((s.rounds.mean - f.rounds.mean).abs() <= 1e-9 * f.rounds.mean.max(1.0));
            assert!((s.work_per_ball.mean - f.work_per_ball.mean).abs() <= 1e-9);
        }
    }

    #[test]
    fn summary_retention_is_bit_identical_across_thread_counts() {
        // The exact accumulator merges make the summary-mode grid fold independent
        // of where the pool splits pieces — the whole report must match bitwise.
        let run_with_threads = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    scenario()
                        .retention(Retention::Summary)
                        .measurements(Measurements::all())
                        .run(Sweep::over("c", [2u32, 4, 8]), |_, &c| config_for(c))
                        .unwrap()
                })
        };
        let sequential = run_with_threads(1);
        for threads in [2, 4, 8] {
            assert_eq!(run_with_threads(threads), sequential, "threads = {threads}");
        }
    }

    #[test]
    fn quick_mode_helpers_are_consistent() {
        // The env var is not set in tests, so the full-size defaults apply.
        if !quick_mode() {
            assert_eq!(default_trials(), 15);
            assert_eq!(n_sweep().len(), 5);
        }
        for w in n_sweep().windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }
}
