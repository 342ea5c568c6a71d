//! Declarative, reproducible, parallel experiments.
//!
//! An [`ExperimentConfig`] pairs a [`GraphSpec`] with a [`ProtocolSpec`], a demand, a
//! number of independent trials and a base seed. [`ExperimentConfig::run`] materialises
//! a fresh graph *and* a fresh protocol execution per trial (trial `i` uses seed
//! `base_seed + i` for both), runs the trials in parallel with rayon, and aggregates the
//! per-trial outcomes into an [`ExperimentReport`] with the summary statistics the
//! tables of the `exp_*` binaries in `crates/bench` report.
//!
//! Aggregation streams: each trial's outcome is folded into an
//! [`OutcomeAccumulator`](crate::accumulate::OutcomeAccumulator) as soon as it is
//! produced, and per-piece accumulators merge in trial-index order. Under the default
//! [`Retention::Full`] policy the fold keeps every [`TrialOutcome`] (the historical
//! behaviour, bit-for-bit); under [`Retention::Summary`] outcomes and their
//! measurement series are dropped immediately after folding, so an experiment's
//! retained memory is O(1) in the trial count — see [`crate::accumulate`].

use crate::accumulate::{merge_grid_fold, GridFold, Retention};
use clb_analysis::streaming::StreamingHistogram;
use clb_analysis::{Histogram, Summary};
use clb_engine::{
    BurnedFractionObserver, Demand, NeighborhoodMassObserver, Observer, OnlineWorkload,
    RoundRecord, RunResult, SimConfig, Simulation, TrajectoryObserver,
};
use clb_faults::FaultPlan;
use clb_graph::{DegreeStats, GraphSpec};
use clb_protocols::ProtocolSpec;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Which optional (and more expensive) per-round measurements to record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Measurements {
    /// Record the burned/saturated fraction `S_t` per round (O(|E|) per round).
    pub burned_fraction: bool,
    /// Record the per-neighbourhood request mass `r_t` per round (O(|E|) per round).
    pub neighborhood_mass: bool,
    /// Record the full per-round trajectory (alive balls, requests, messages, ...).
    pub trajectory: bool,
}

impl Measurements {
    /// Everything on.
    pub fn all() -> Self {
        Self {
            burned_fraction: true,
            neighborhood_mass: true,
            trajectory: true,
        }
    }
}

/// A fully specified experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Topology family and size.
    pub graph: GraphSpec,
    /// Protocol and parameters.
    pub protocol: ProtocolSpec,
    /// Demand per client; defaults to `Constant(d)` for SAER/RAES and `Constant(1)`
    /// otherwise.
    pub demand: Demand,
    /// Number of independent trials (graph and execution re-randomised per trial).
    pub trials: usize,
    /// Base seed; trial `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Round cap per trial.
    pub max_rounds: u32,
    /// Optional measurements.
    pub measurements: Measurements,
    /// How much per-trial data the aggregated report retains (defaults to
    /// [`Retention::Full`], the historical collect-everything behaviour).
    pub retention: Retention,
    /// Faults to inject into every trial, if any. `None` runs the protocol bare;
    /// `Some(plan)` wraps each trial's protocol in a
    /// [`FaultAdapter`](clb_faults::FaultAdapter) drawing from that trial's seed, so
    /// the faulted run inherits the full determinism contract.
    pub faults: Option<FaultPlan>,
    /// Online workload, if any. `None` runs the historical batch semantics (all
    /// balls present from round 1, settled balls stay forever). `Some(workload)`
    /// attaches the engine's arrival/departure machinery to every trial and makes
    /// the trial report [`OnlineStats`] alongside the batch statistics.
    pub workload: Option<OnlineWorkload>,
    /// Intra-round piece plan override applied to every trial's simulation (see
    /// `SimulationBuilder::intra_step_pieces`); `None` uses the engine's size-derived
    /// plan. A scheduling knob, not a semantic one: piece plans are pure functions
    /// of problem size and never change results (pinned by
    /// `intra_step_pieces_do_not_change_results` in `clb-engine`), which is why this
    /// field is deliberately **not** shard-wire-encoded — a remote shard may run a
    /// different plan and still produce bit-identical outcomes, so shipping it would
    /// buy nothing and cost a `WIRE_VERSION` bump.
    pub intra_step_pieces: Option<usize>,
}

impl ExperimentConfig {
    /// Creates a config with sensible defaults: 10 trials, seed 0, the engine's default
    /// round cap, no optional measurements, demand derived from the protocol.
    pub fn new(graph: GraphSpec, protocol: ProtocolSpec) -> Self {
        let demand = match protocol {
            ProtocolSpec::Saer { d, .. } | ProtocolSpec::Raes { d, .. } => Demand::Constant(d),
            _ => Demand::Constant(1),
        };
        Self {
            graph,
            protocol,
            demand,
            trials: 10,
            base_seed: 0,
            max_rounds: SimConfig::DEFAULT_MAX_ROUNDS,
            measurements: Measurements::default(),
            retention: Retention::default(),
            faults: None,
            workload: None,
            intra_step_pieces: None,
        }
    }

    /// Sets the number of trials.
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Overrides the demand.
    pub fn demand(mut self, demand: Demand) -> Self {
        self.demand = demand;
        self
    }

    /// Sets the round cap.
    pub fn max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Enables optional measurements.
    pub fn measurements(mut self, measurements: Measurements) -> Self {
        self.measurements = measurements;
        self
    }

    /// Sets the retention policy (see [`Retention`]).
    pub fn retention(mut self, retention: Retention) -> Self {
        self.retention = retention;
        self
    }

    /// Injects the given [`FaultPlan`] into every trial (see [`clb_faults`]).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches an online workload to every trial (see [`clb_engine::workload`]).
    /// Combine with `demand(Demand::Constant(0))` for a purely open system.
    pub fn workload(mut self, workload: OnlineWorkload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Forces the engine's intra-round piece plan for every trial (see the field
    /// docs on [`ExperimentConfig::intra_step_pieces`]). Used by the two-level
    /// parallelism tests to guarantee nested drives fire while the scenario grid is
    /// itself running on pool workers.
    pub fn intra_step_pieces(mut self, pieces: usize) -> Self {
        self.intra_step_pieces = Some(pieces);
        self
    }

    /// Runs one trial with an explicit seed, building the graph from the spec.
    pub fn run_trial(&self, seed: u64) -> Result<TrialOutcome, clb_graph::GraphError> {
        let graph = self.graph.build(seed)?;
        Ok(self.run_trial_on(&graph, seed))
    }

    /// Runs one trial on an already-materialised graph.
    ///
    /// `graph` must be what `self.graph.build(seed)` would return — the scenario
    /// runner uses this to share one generated graph across every protocol that sweeps
    /// over the same `GraphSpec × seed` cell (via its graph cache) instead of
    /// regenerating it per trial. Passing any other graph silently breaks
    /// the config/outcome correspondence recorded in [`TrialOutcome`].
    pub fn run_trial_on(&self, graph: &clb_graph::BipartiteGraph, seed: u64) -> TrialOutcome {
        let protocol = match &self.faults {
            Some(plan) => plan.wrap(self.protocol.build(), seed),
            None => self.protocol.build(),
        };
        let config = SimConfig {
            seed,
            max_rounds: self.max_rounds,
        };
        let mut builder = Simulation::builder(graph)
            .protocol(protocol)
            .demand(self.demand.clone())
            .config(config);
        if let Some(workload) = &self.workload {
            builder = builder.workload(workload.clone());
        }
        if let Some(pieces) = self.intra_step_pieces {
            builder = builder.intra_step_pieces(pieces);
        }
        let mut sim = builder.build();

        let mut burned = BurnedFractionObserver::new();
        let mut mass = NeighborhoodMassObserver::new();
        // An online trial's statistics are computed from every round's record, so
        // the trajectory is recorded for it whether or not it is reported.
        let mut trajectory = TrajectoryObserver::new();
        let result = {
            let mut observers: Vec<&mut dyn Observer> = Vec::new();
            if self.measurements.burned_fraction {
                observers.push(&mut burned);
            }
            if self.measurements.neighborhood_mass {
                observers.push(&mut mass);
            }
            if self.measurements.trajectory || self.workload.is_some() {
                observers.push(&mut trajectory);
            }
            sim.run_observed(&mut observers)
        };

        let degree_stats = DegreeStats::of(graph);
        let surviving_servers = match &self.faults {
            Some(plan) => {
                plan.surviving_servers(seed, degree_stats.num_servers as u64, result.rounds)
            }
            None => degree_stats.num_servers as u64,
        };
        let online = self.workload.as_ref().map(|_| {
            let latencies = sim
                .settle_latencies()
                .expect("a workload-attached simulation reports settle latencies");
            OnlineStats::compute(&trajectory.records, &latencies)
        });
        TrialOutcome {
            seed,
            degree_stats,
            surviving_servers,
            load_histogram: Histogram::of(sim.server_loads().iter().copied()),
            result,
            online,
            burned_fraction_series: self
                .measurements
                .burned_fraction
                .then(|| burned.max_fraction_per_round.clone()),
            neighborhood_mass_series: self
                .measurements
                .neighborhood_mass
                .then(|| mass.max_mass_per_round.clone()),
            alive_series: self
                .measurements
                .trajectory
                .then(|| trajectory.alive_series()),
        }
    }

    /// Runs all trials (in parallel) and aggregates them.
    ///
    /// Each trial's outcome streams into an accumulator on the worker that produced
    /// it; per-piece accumulators then merge in trial-index order, so the result is
    /// bit-identical at every thread count (see [`crate::accumulate`]) and — under
    /// [`Retention::Summary`] — no more than a bounded number of outcomes is ever
    /// resident at once.
    pub fn run(&self) -> Result<ExperimentReport, clb_graph::GraphError> {
        assert!(self.trials > 0, "an experiment needs at least one trial");
        let folded = (0..self.trials as u64)
            .into_par_iter()
            .map(|i| -> Result<GridFold<()>, clb_graph::GraphError> {
                Ok(GridFold::cell(
                    (),
                    self.retention,
                    self.run_trial(self.base_seed + i)?,
                ))
            })
            .reduce(|| Ok(GridFold::empty()), merge_grid_fold)?;
        let (_, accumulator) = folded
            .into_merged()
            .pop()
            .expect("at least one trial folded");
        Ok(accumulator.into_report(self.clone()))
    }
}

/// Steady-state statistics of one online (arrival/departure) trial.
///
/// The backlog is the number of in-system unsettled balls after each round
/// (`RoundRecord::alive_after`). The stability verdict compares the mean backlog
/// over the first and last quarter of the run: a stable system's backlog plateaus,
/// an overloaded one's grows without bound, so `late ≤ 2·early + 8` separates the
/// two far away from the boundary (the slack absorbs empty-start transients and
/// integer noise on tiny runs). Latency quantiles are read off a
/// [`StreamingHistogram`] of per-ball settle latencies, so they are deterministic
/// and mergeable like every other statistic in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    /// Balls injected by the arrival process over the run.
    pub total_arrivals: u64,
    /// Balls whose service completed (their server slot was released).
    pub total_departures: u64,
    /// Balls that settled at least once — the population the latency fields cover.
    pub settled_balls: u64,
    /// Maximum end-of-round backlog (unsettled in-system balls).
    pub peak_backlog: u64,
    /// Maximum end-of-round server load over the whole run. `RunResult::max_load`
    /// reports the *final* loads, which an online run has largely drained by the
    /// time it ends — this is the in-flight peak the `c·d` bound is judged against.
    pub peak_load: u32,
    /// Mean backlog over the first `max(1, rounds/4)` rounds.
    pub early_backlog_mean: f64,
    /// Mean backlog over the last `max(1, rounds/4)` rounds.
    pub late_backlog_mean: f64,
    /// Stability verdict: `late_backlog_mean <= 2 * early_backlog_mean + 8`.
    pub stable: bool,
    /// Mean settle latency in rounds (arrival round through settle round, ≥ 1).
    pub latency_mean: f64,
    /// Median settle latency (histogram-approximate).
    pub latency_p50: f64,
    /// 99th-percentile settle latency (histogram-approximate).
    pub latency_p99: f64,
    /// Maximum settle latency (exact).
    pub latency_max: u32,
}

impl OnlineStats {
    /// Computes the statistics from a run's per-round records and its per-ball
    /// settle latencies (see `Simulation::settle_latencies`).
    pub fn compute(records: &[RoundRecord], latencies: &[u32]) -> Self {
        let total_arrivals = records.iter().map(|r| r.arrivals).sum();
        let total_departures = records.iter().map(|r| r.departures).sum();
        let peak_backlog = records.iter().map(|r| r.alive_after).max().unwrap_or(0);
        let peak_load = records.iter().map(|r| r.max_load).max().unwrap_or(0);
        let backlog_mean = |window: &[RoundRecord]| {
            if window.is_empty() {
                return 0.0;
            }
            window.iter().map(|r| r.alive_after).sum::<u64>() as f64 / window.len() as f64
        };
        let window = (records.len() / 4).max(1).min(records.len());
        let early_backlog_mean = backlog_mean(&records[..window.min(records.len())]);
        let late_backlog_mean = backlog_mean(&records[records.len() - window.min(records.len())..]);
        let stable = late_backlog_mean <= 2.0 * early_backlog_mean + 8.0;

        let mut histogram = StreamingHistogram::new();
        let mut sum = 0u64;
        let mut latency_max = 0u32;
        for &latency in latencies {
            histogram.record(f64::from(latency));
            sum += u64::from(latency);
            latency_max = latency_max.max(latency);
        }
        let settled_balls = latencies.len() as u64;
        let (latency_mean, latency_p50, latency_p99) = if settled_balls == 0 {
            (0.0, 0.0, 0.0)
        } else {
            (
                sum as f64 / settled_balls as f64,
                histogram.median().expect("non-empty histogram"),
                histogram.value_at_rank((settled_balls - 1).saturating_mul(99) / 100),
            )
        };
        Self {
            total_arrivals,
            total_departures,
            settled_balls,
            peak_backlog,
            peak_load,
            early_backlog_mean,
            late_backlog_mean,
            stable,
            latency_mean,
            latency_p50,
            latency_p99,
            latency_max,
        }
    }
}

/// Outcome of one trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialOutcome {
    /// Seed used for the graph and the execution.
    pub seed: u64,
    /// Degree statistics of the generated graph.
    pub degree_stats: DegreeStats,
    /// Servers that did not crash during this trial: the graph's server count minus
    /// the fault plan's crash census (the full server count when no faults are
    /// configured or the run ended before the crash round).
    pub surviving_servers: u64,
    /// Engine-level outcome (rounds, work, max load, completion).
    pub result: RunResult,
    /// Steady-state online statistics; present iff the config carries a workload.
    pub online: Option<OnlineStats>,
    /// Histogram of final server loads.
    pub load_histogram: Histogram,
    /// `S_t` per round, when requested.
    pub burned_fraction_series: Option<Vec<f64>>,
    /// `max_v r_t(N(v))` per round, when requested.
    pub neighborhood_mass_series: Option<Vec<u64>>,
    /// Alive balls per round, when requested.
    pub alive_series: Option<Vec<u64>>,
}

impl TrialOutcome {
    /// Peak burned fraction over the run, if it was measured.
    pub fn peak_burned_fraction(&self) -> Option<f64> {
        self.burned_fraction_series
            .as_ref()
            .map(|s| s.iter().copied().fold(0.0, f64::max))
    }

    /// Approximate memory footprint of this outcome: the struct itself plus its
    /// heap-resident histogram buckets and measurement series. The unit of the
    /// retained-memory accounting in [`ExperimentReport::retained_bytes`];
    /// deterministic, so it is safe inside bit-identity comparisons.
    pub fn retained_bytes(&self) -> u64 {
        let series = |len: usize| 8 * len as u64;
        std::mem::size_of::<Self>() as u64
            + series(self.load_histogram.buckets().len())
            + self
                .burned_fraction_series
                .as_ref()
                .map_or(0, |s| series(s.len()))
            + self
                .neighborhood_mass_series
                .as_ref()
                .map_or(0, |s| series(s.len()))
            + self.alive_series.as_ref().map_or(0, |s| series(s.len()))
    }
}

/// Aggregated experiment results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// The configuration the report was produced from.
    pub config: ExperimentConfig,
    /// Per-trial outcomes, in seed order — empty under [`Retention::Summary`]
    /// (use [`ExperimentReport::trial_count`] for the number of trials run).
    pub trials: Vec<TrialOutcome>,
    /// Number of trials this report aggregates. Valid in every retention mode —
    /// never derive it from `trials.len()`.
    pub trial_count: usize,
    /// Summary of completion rounds (over all trials, completed or not).
    pub rounds: Summary,
    /// Summary of work per ball (messages / balls).
    pub work_per_ball: Summary,
    /// Summary of the maximum server load.
    pub max_load: Summary,
    /// Summary of the closed-server count at the end of each trial (burned for SAER,
    /// saturated for RAES).
    pub closed_servers: Summary,
    /// Summary of the surviving-server count per trial (see
    /// [`TrialOutcome::surviving_servers`]): constant at the graph's server count
    /// unless a crash fault is configured.
    pub surviving_servers: Summary,
    /// Summary of the unserved-ball count per trial (0 for completed trials).
    pub unassigned_balls: Summary,
    /// Number of trials that terminated within the round cap.
    pub completed_trials: usize,
    /// Number of trials that stopped *because* they hit the round cap with work
    /// left (`RunResult::hit_round_cap`). Online sweeps routinely run to the cap
    /// by design; batch sweeps use this to tell "drained" from "truncated".
    pub capped_trials: usize,
    /// Aggregated online statistics, when the config carried a workload.
    pub online: Option<OnlineReport>,
    /// Summary of the per-trial peak burned fraction, when the burned-fraction
    /// measurement was recorded.
    pub peak_burned: Option<Summary>,
    /// Bytes of per-trial data retained by this report: the summed
    /// [`TrialOutcome::retained_bytes`] under [`Retention::Full`], the fixed
    /// accumulator-state size under [`Retention::Summary`].
    pub retained_bytes: u64,
}

impl ExperimentReport {
    pub(crate) fn aggregate(config: ExperimentConfig, trials: Vec<TrialOutcome>) -> Self {
        let rounds: Vec<f64> = trials.iter().map(|t| t.result.rounds as f64).collect();
        let work: Vec<f64> = trials.iter().map(|t| t.result.work_per_ball()).collect();
        let max_load: Vec<f64> = trials.iter().map(|t| t.result.max_load as f64).collect();
        let closed: Vec<f64> = trials
            .iter()
            .map(|t| t.result.closed_servers as f64)
            .collect();
        let surviving: Vec<f64> = trials.iter().map(|t| t.surviving_servers as f64).collect();
        let unassigned: Vec<f64> = trials
            .iter()
            .map(|t| t.result.unassigned_balls as f64)
            .collect();
        let completed_trials = trials.iter().filter(|t| t.result.completed).count();
        let capped_trials = trials.iter().filter(|t| t.result.hit_round_cap).count();
        let online_stats: Vec<&OnlineStats> =
            trials.iter().filter_map(|t| t.online.as_ref()).collect();
        let online = (!online_stats.is_empty()).then(|| OnlineReport {
            stable_trials: online_stats.iter().filter(|o| o.stable).count(),
            peak_backlog: Summary::of(
                &online_stats
                    .iter()
                    .map(|o| o.peak_backlog as f64)
                    .collect::<Vec<f64>>(),
            ),
            peak_load: Summary::of(
                &online_stats
                    .iter()
                    .map(|o| f64::from(o.peak_load))
                    .collect::<Vec<f64>>(),
            ),
            latency_p99: Summary::of(
                &online_stats
                    .iter()
                    .map(|o| o.latency_p99)
                    .collect::<Vec<f64>>(),
            ),
        });
        let peaks: Vec<f64> = trials
            .iter()
            .filter_map(|t| t.peak_burned_fraction())
            .collect();
        Self {
            config,
            trial_count: trials.len(),
            rounds: Summary::of(&rounds),
            work_per_ball: Summary::of(&work),
            max_load: Summary::of(&max_load),
            closed_servers: Summary::of(&closed),
            surviving_servers: Summary::of(&surviving),
            unassigned_balls: Summary::of(&unassigned),
            completed_trials,
            capped_trials,
            online,
            peak_burned: (!peaks.is_empty()).then(|| Summary::of(&peaks)),
            retained_bytes: trials.iter().map(TrialOutcome::retained_bytes).sum(),
            trials,
        }
    }

    /// Fraction of trials that terminated within the round cap. Divides by the
    /// explicit [`ExperimentReport::trial_count`], so it stays well-defined under
    /// [`Retention::Summary`], where `trials` is empty.
    pub fn completion_rate(&self) -> f64 {
        self.completed_trials as f64 / self.trial_count as f64
    }

    /// Summary of the peak burned fraction across trials, if it was measured.
    pub fn peak_burned_fraction(&self) -> Option<Summary> {
        self.peak_burned
    }

    /// Robustness of this (typically faulted) report relative to a fault-free
    /// `baseline` of the same experiment.
    ///
    /// Meaningful when both reports ran the same sweep under `paired_seeds` — same
    /// graphs, same trial seeds — so every difference is attributable to the fault
    /// plan alone rather than to seed variance.
    pub fn degradation_vs(&self, baseline: &ExperimentReport) -> Degradation {
        Degradation {
            completion_drop: baseline.completion_rate() - self.completion_rate(),
            rounds_ratio: self.rounds.mean / baseline.rounds.mean,
            extra_unassigned: self.unassigned_balls.mean - baseline.unassigned_balls.mean,
            lost_servers: baseline.surviving_servers.mean - self.surviving_servers.mean,
        }
    }

    /// One-paragraph markdown rendering of the aggregate results. Under
    /// [`Retention::Summary`] a footnote marks the medians as approximate
    /// (histogram-derived).
    pub fn to_markdown(&self) -> String {
        let mut table = crate::report::Table::new([
            "graph",
            "protocol",
            "trials",
            "completed",
            "rounds (mean ± sd)",
            "work/ball (mean)",
            "max load (max)",
        ]);
        table.row([
            self.config.graph.label(),
            self.config.protocol.label(),
            self.trial_count.to_string(),
            format!("{:.0}%", 100.0 * self.completion_rate()),
            format!("{:.1} ± {:.1}", self.rounds.mean, self.rounds.std_dev),
            format!("{:.2}", self.work_per_ball.mean),
            format!("{:.0}", self.max_load.max),
        ]);
        let mut rendered = table.to_markdown();
        if self.config.retention == Retention::Summary {
            rendered.push_str(
                "\n*medians are approximate (histogram-derived) under `Retention::Summary`*\n",
            );
        }
        rendered
    }
}

/// Aggregated online statistics of an [`ExperimentReport`] whose config carried a
/// workload: how many trials the stability verdict passed, and summaries of the
/// per-trial peak backlog, peak in-flight load and p99 settle latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineReport {
    /// Trials whose [`OnlineStats::stable`] verdict was true.
    pub stable_trials: usize,
    /// Summary of the per-trial peak backlog.
    pub peak_backlog: Summary,
    /// Summary of the per-trial peak end-of-round server load (the in-flight peak
    /// the `c·d` bound is judged against — `max_load` summarises *final* loads).
    pub peak_load: Summary,
    /// Summary of the per-trial p99 settle latency.
    pub latency_p99: Summary,
}

/// How much worse a (faulted) experiment did than a paired fault-free baseline.
///
/// Produced by [`ExperimentReport::degradation_vs`]; all fields compare per-trial
/// means. A fault-free report compared against itself is all-zero (ratio 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Degradation {
    /// Drop in completion rate: `baseline − self`, in `[-1, 1]` (positive = worse).
    pub completion_drop: f64,
    /// Mean rounds relative to the baseline: `self / baseline` (> 1 = slower).
    pub rounds_ratio: f64,
    /// Extra unserved balls per trial: `self − baseline` (positive = worse).
    pub extra_unassigned: f64,
    /// Servers lost to crashes per trial: `baseline − self` surviving-server means.
    pub lost_servers: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig::new(
            GraphSpec::RegularLogSquared { n: 128, eta: 1.0 },
            ProtocolSpec::Saer { c: 8, d: 2 },
        )
        .trials(4)
        .seed(100)
    }

    #[test]
    fn default_demand_follows_protocol() {
        let saer = ExperimentConfig::new(
            GraphSpec::Regular { n: 16, delta: 4 },
            ProtocolSpec::Saer { c: 4, d: 3 },
        );
        assert_eq!(saer.demand, Demand::Constant(3));
        let oneshot = ExperimentConfig::new(
            GraphSpec::Regular { n: 16, delta: 4 },
            ProtocolSpec::OneShot,
        );
        assert_eq!(oneshot.demand, Demand::Constant(1));
    }

    #[test]
    fn report_aggregates_all_trials() {
        let report = quick_config().run().unwrap();
        assert_eq!(report.trials.len(), 4);
        assert_eq!(report.completion_rate(), 1.0);
        assert_eq!(report.rounds.count, 4);
        assert!(report.max_load.max <= 16.0);
        // Seeds are base_seed + i.
        let seeds: Vec<u64> = report.trials.iter().map(|t| t.seed).collect();
        assert_eq!(seeds, vec![100, 101, 102, 103]);
        // Load histograms account for every ball.
        for t in &report.trials {
            let balls: u64 = t
                .load_histogram
                .buckets()
                .iter()
                .enumerate()
                .map(|(load, &count)| load as u64 * count)
                .sum();
            assert_eq!(balls, t.result.total_balls);
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let a = quick_config().run().unwrap();
        let b = quick_config().run().unwrap();
        assert_eq!(a.trials, b.trials);
        let c = quick_config().seed(999).run().unwrap();
        assert_ne!(a.trials, c.trials);
    }

    #[test]
    fn optional_measurements_are_recorded_when_requested() {
        let report = quick_config()
            .trials(2)
            .measurements(Measurements::all())
            .run()
            .unwrap();
        for t in &report.trials {
            let burned = t
                .burned_fraction_series
                .as_ref()
                .expect("burned fraction recorded");
            let mass = t.neighborhood_mass_series.as_ref().expect("mass recorded");
            let alive = t.alive_series.as_ref().expect("trajectory recorded");
            assert_eq!(burned.len(), t.result.rounds as usize);
            assert_eq!(mass.len(), t.result.rounds as usize);
            assert_eq!(alive.len(), t.result.rounds as usize);
            assert!(t.peak_burned_fraction().unwrap() <= 1.0);
        }
        assert!(report.peak_burned_fraction().is_some());

        let bare = quick_config().trials(1).run().unwrap();
        assert!(bare.trials[0].burned_fraction_series.is_none());
        assert!(bare.peak_burned_fraction().is_none());
    }

    #[test]
    fn markdown_report_mentions_labels() {
        let report = quick_config().trials(2).run().unwrap();
        let md = report.to_markdown();
        assert!(md.contains("saer(c=8, d=2)"));
        assert!(md.contains("regular-log2"));
        assert!(md.contains("100%"));
    }

    #[test]
    fn invalid_graph_spec_surfaces_the_error() {
        let config = ExperimentConfig::new(
            GraphSpec::Regular { n: 8, delta: 20 },
            ProtocolSpec::OneShot,
        )
        .trials(1);
        assert!(config.run().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ = quick_config().trials(0).run();
    }

    #[test]
    fn summary_retention_drops_outcomes_but_keeps_exact_statistics() {
        let full = quick_config().run().unwrap();
        let summary = quick_config().retention(Retention::Summary).run().unwrap();
        assert!(summary.trials.is_empty());
        assert_eq!(summary.trial_count, 4);
        assert_eq!(summary.completed_trials, full.completed_trials);
        // completion_rate must stay well-defined with an empty trials vec — the
        // historical trials.len() division would return NaN here.
        assert_eq!(summary.completion_rate(), full.completion_rate());
        assert!(summary.completion_rate().is_finite());
        // Count/min/max are exact; means agree to fp noise; medians to the
        // histogram's bucket resolution.
        for (s, f) in [
            (&summary.rounds, &full.rounds),
            (&summary.work_per_ball, &full.work_per_ball),
            (&summary.max_load, &full.max_load),
            (&summary.closed_servers, &full.closed_servers),
            (&summary.surviving_servers, &full.surviving_servers),
            (&summary.unassigned_balls, &full.unassigned_balls),
        ] {
            assert_eq!(s.count, f.count);
            assert_eq!(s.min, f.min);
            assert_eq!(s.max, f.max);
            assert!((s.mean - f.mean).abs() <= 1e-9 * f.mean.abs().max(1.0));
            assert!((s.std_dev - f.std_dev).abs() <= 1e-9 * f.max.abs().max(1.0));
            assert!((s.median - f.median).abs() <= f.median.abs() / 16.0 + 1e-9);
        }
        // The retained footprint is the flat accumulator state, far below even a
        // four-trial outcome vector once series are recorded.
        assert!(summary.retained_bytes > 0);
        assert_eq!(
            summary.retained_bytes,
            quick_config()
                .retention(Retention::Summary)
                .trials(2)
                .run()
                .unwrap()
                .retained_bytes,
            "summary-mode retained bytes must not depend on the trial count"
        );
    }

    #[test]
    fn summary_retention_markdown_footnotes_approximate_medians() {
        let summary = quick_config().retention(Retention::Summary).run().unwrap();
        assert!(summary.to_markdown().contains("approximate"));
        let full = quick_config().run().unwrap();
        assert!(!full.to_markdown().contains("approximate"));
    }

    #[test]
    fn fault_free_reports_count_every_server_as_surviving() {
        let report = quick_config().run().unwrap();
        let n = report.trials[0].degree_stats.num_servers as f64;
        assert_eq!(report.surviving_servers.mean, n);
        assert_eq!(report.surviving_servers.min, n);
        assert_eq!(report.unassigned_balls.max, 0.0);
    }

    #[test]
    fn faulted_experiment_reports_degradation_against_paired_baseline() {
        let baseline = quick_config().max_rounds(60).run().unwrap();
        // Crash 40% of servers from round 1 — same seeds, so every difference is the
        // plan's doing. (The generous quick_config completes in one round, so a later
        // crash round would never bite and the census would rightly report no losses.)
        let faulted = quick_config()
            .max_rounds(60)
            .faults(FaultPlan::none().crash(1, 0.4))
            .run()
            .unwrap();
        assert!(faulted.surviving_servers.mean < baseline.surviving_servers.mean);
        let degradation = faulted.degradation_vs(&baseline);
        assert!(degradation.lost_servers > 0.0);
        assert!(degradation.completion_drop >= 0.0);
        assert!(degradation.extra_unassigned >= 0.0);
        // Self-comparison is the all-zero degradation.
        let none = baseline.degradation_vs(&baseline);
        assert_eq!(none.completion_drop, 0.0);
        assert_eq!(none.rounds_ratio, 1.0);
        assert_eq!(none.extra_unassigned, 0.0);
        assert_eq!(none.lost_servers, 0.0);
    }

    #[test]
    fn empty_fault_plan_runs_bit_identical_to_no_plan() {
        let bare = quick_config().run().unwrap();
        let wrapped = quick_config().faults(FaultPlan::none()).run().unwrap();
        // The configs differ (`faults` field) but everything observable must match.
        assert_eq!(bare.trials, wrapped.trials);
        assert_eq!(bare.rounds, wrapped.rounds);
        assert_eq!(bare.surviving_servers, wrapped.surviving_servers);
        assert_eq!(bare.unassigned_balls, wrapped.unassigned_balls);
    }

    #[test]
    fn summary_retention_is_deterministic_across_thread_counts() {
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    quick_config()
                        .retention(Retention::Summary)
                        .measurements(Measurements::all())
                        .run()
                        .unwrap()
                })
        };
        let sequential = run(1);
        assert!(sequential.peak_burned.is_some());
        for threads in [2, 4] {
            assert_eq!(run(threads), sequential, "threads = {threads}");
        }
    }
}
