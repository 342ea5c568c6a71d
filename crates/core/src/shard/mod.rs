//! Sharded scenario execution: split one sweep grid across worker processes.
//!
//! [`Scenario::run`] already executes the flat *(sweep point × trial)* grid on every
//! core of one process. This module scales the same grid across **processes**:
//! [`Scenario::run_sharded`] partitions the grid into contiguous cell ranges
//! ([`partition_cells`]), ships each range to a child worker as a [`ShardManifest`],
//! and merges the per-shard [`ShardReport`]s — in shard-index order — into a
//! [`SweepReport`](crate::SweepReport) that is **bit-identical** to what
//! [`Scenario::run`] produces, at every shard count. The contract extends PR 3's
//! thread-count determinism one level up: thread count changes nothing, and now
//! neither does the shard count.
//!
//! Three properties make the guarantee hold by construction:
//!
//! * **One planner.** Driver and in-process runner share the same grid expansion and
//!   `GraphSpec × seed` identity analysis (`scenario::plan_grid`), so cell order,
//!   identity numbering and the shared-vs-direct split are decided once, in the
//!   driver, never re-derived by a worker.
//! * **Graphs travel, generation doesn't.** Identities shared by several cells are
//!   generated once in the driver and shipped as `clb_graph::snapshot` encodings
//!   (the only place snapshots are used). A worker decodes each shipped snapshot
//!   once, on its pool, before any cell runs, and its cells borrow the result as
//!   in-process cells borrow the shared cache: the very same graph, since the
//!   snapshot round trip is pinned `==` by clb-graph's tests. Single-use identities
//!   are built directly in the worker from `GraphSpec × seed`, exactly as the
//!   in-process path builds them in the cell.
//! * **Exact result transport.** Trial outcomes return over a versioned little-endian
//!   format in which floats travel as IEEE-754 bit patterns, so a merged
//!   `TrialOutcome` is byte-for-byte the worker's original.
//!
//! # Worker processes
//!
//! The driver spawns one `std::process::Command` child per non-empty shard
//! (concurrently — that is the point), resolving the worker executable in order:
//! [`ShardPlan::worker`] if set, else the `CLB_SHARD_WORKER` environment variable,
//! else re-executing the current binary. Re-execution is the common case: a binary
//! (or test) that calls [`maybe_run_worker`] **first thing in `main`** doubles as its
//! own worker — the child sees `CLB_SHARD_ROLE=worker` plus the manifest/report paths
//! in its environment, executes its shard on its own rayon pool (child processes
//! inherit `RAYON_NUM_THREADS`) and exits before any driver code runs. `CLB_SHARDS`
//! is stripped from child environments so a forgotten hook degrades into a
//! diagnosable "worker wrote no report" error instead of recursive sharding.
//!
//! # Wire format
//!
//! Both messages open with a `u32` magic and a `u32` version (`VERSION = 4`); all
//! integers are little-endian, `f64` fields are `to_bits()` patterns, `Option`/`bool`
//! are `u32` flags restricted to 0/1, and every variable-length field is
//! length-prefixed and validated against the remaining buffer before allocation.
//!
//! `ShardManifest` (driver → worker, magic `"CLBM"`):
//!
//! | field | encoding |
//! |-------|----------|
//! | magic, version | `u32`, `u32` |
//! | shard_index, shard_count | `u32`, `u32` (index < count) |
//! | first_cell | `u64` — global grid index of the first cell |
//! | configs | `u32` count, then per config: graph spec (`u32` tag + params), protocol spec (`u32` tag + params), demand (`u32` tag + params), trials `u64`, base_seed `u64`, max_rounds `u32`, measurements bitmask `u32`, retention tag `u32`, fault plan (`u32` flag; when set, four per-kind `u32` flags each followed by its parameters — crash `u32` round + fraction bits, lie/loss/straggler two `f64`-bits each), workload (`u32` flag; when set, arrival process `u32` tag + params and service distribution `u32` tag + params) |
//! | snapshots | `u32` count, then per snapshot: `u64` length + raw `clb_graph::snapshot` bytes (opaque here; snapshot version 2 takes 4 B per node and per edge) |
//! | cells | `u64` count, then per cell: point `u32` (index into configs), trial `u64`, source tag `u32` (0 = build direct, 1 = decode snapshot + `u32` snapshot index) |
//!
//! `ShardReport` (worker → driver, magic `"CLBR"`, version 4):
//!
//! | field | encoding |
//! |-------|----------|
//! | magic, version | `u32`, `u32` |
//! | shard_index | `u32` — echo of the manifest |
//! | first_cell | `u64` — echo of the manifest |
//! | snapshot_hits, direct_builds | `u64`, `u64` — this shard's cache tallies |
//! | payload tag | `u32` — 0 = per-cell outcomes (`Retention::Full`), 1 = per-point accumulators (`Retention::Summary`) |
//! | payload 0: outcomes | `u64` count, then per outcome: seed `u64`, degree stats (9 × `u64`/bits), surviving servers `u64`, run result (`u32` completed flag, `u32` hit-round-cap flag, `u32` rounds, `u64` messages, `u32` max load, `u64` unassigned, `u64` balls, `u64` closed), optional online stats (`u32` flag; when set, four `u64` counts, `u32` peak load, two `f64`-bits backlog means, `u32` stable flag, three `f64`-bits latency stats, `u32` latency max), load histogram (`u64` length + `u64` buckets), and three optional series (`u32` flag + `u64` length + items) |
//! | payload 1: accumulators | `u32` state count, then per state: point `u32` (strictly increasing), trial count `u64`, completed `u64`, capped `u64`, six stat blocks (rounds, work/ball, max load, closed servers, surviving servers, unassigned balls), an optional peak-burned block (`u32` flag) and an optional online block (`u32` flag; when set, stable count `u64` + peak-backlog, peak-load and latency-p99 stat blocks), each block = running summary (count `u64`, min/max bits, 34 + 67 exact-sum limbs) + sparse histogram (`u32` entries, then strictly-increasing `u32` bucket + non-zero `u64` count pairs) |
//!
//! Decoding rejects bad magic, unknown versions, truncation, trailing bytes,
//! out-of-range flags/tags, dangling config/snapshot references and inconsistent
//! accumulator states (counts that disagree across a state's stats, non-monotone
//! point/bucket indices) with a [`ShardError::Corrupt`] naming the offending field —
//! pinned by the property tests in `crates/core/tests/proptest_shard_wire.rs`.
//!
//! # Streaming driver merge
//!
//! The driver consumes shard reports **one at a time, in shard-index order**,
//! folding each into per-point [`OutcomeAccumulator`]s and dropping it before
//! touching the next. Under `Retention::Summary` the whole merge therefore holds
//! O(points) accumulator state — never all outcomes — so grids far larger than RAM's
//! outcome capacity stay runnable; and because the accumulator merges are exact
//! (see `clb_analysis::streaming`), the merged report is bit-identical to
//! [`Scenario::run`] at every shard count, in both retention modes.

mod wire;

pub use wire::{
    decode_manifest, decode_report, encode_manifest, encode_report, GraphSource, ShardCell,
    ShardManifest, ShardPayload, ShardReport,
};

use crate::accumulate::{merge_grid_fold, GridFold, OutcomeAccumulator, Retention};
use crate::experiment::ExperimentConfig;
use crate::scenario::{
    build_shared_graphs, plan_grid, print_cache_line, CacheStats, Scenario, Sweep, SweepReport,
    SweepRow,
};
use clb_graph::{snapshot, BipartiteGraph, GraphError};
use rayon::prelude::*;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Environment variable that marks a process as a shard worker.
pub const ROLE_ENV: &str = "CLB_SHARD_ROLE";
/// Environment variable holding the manifest path for a shard worker.
pub const MANIFEST_ENV: &str = "CLB_SHARD_MANIFEST";
/// Environment variable holding the report path for a shard worker.
pub const REPORT_ENV: &str = "CLB_SHARD_REPORT";
/// Environment variable the experiment binaries read to opt into sharded execution
/// (see [`ShardPlan::from_env`]).
pub const SHARDS_ENV: &str = "CLB_SHARDS";
/// Environment variable naming an explicit worker executable (middle priority
/// between [`ShardPlan::worker`] and re-executing the current binary).
pub const WORKER_ENV: &str = "CLB_SHARD_WORKER";

/// Errors of the sharded runner: everything [`Scenario::run`] can fail with, plus
/// process, transport and codec failures.
#[derive(Debug)]
pub enum ShardError {
    /// A graph failed to generate or decode (also the in-process failure mode).
    Graph(GraphError),
    /// A filesystem or process operation failed; the string says which.
    Io(String, std::io::Error),
    /// A wire buffer failed to decode; the string names the offending field.
    Corrupt(String),
    /// A worker process failed or returned an inconsistent report.
    Worker {
        /// The shard whose worker failed.
        shard: u32,
        /// What went wrong (exit status, stderr, or the consistency violation).
        detail: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Graph(e) => write!(f, "graph error: {e}"),
            ShardError::Io(context, e) => write!(f, "{context}: {e}"),
            ShardError::Corrupt(detail) => write!(f, "corrupt shard wire data: {detail}"),
            ShardError::Worker { shard, detail } => write!(f, "shard {shard} worker: {detail}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<GraphError> for ShardError {
    fn from(e: GraphError) -> Self {
        ShardError::Graph(e)
    }
}

/// How to split a scenario grid across worker processes.
///
/// The plan carries the shard count and how to launch workers. By default workers are
/// the current executable re-run with `CLB_SHARD_ROLE=worker` in the environment —
/// any binary that calls [`maybe_run_worker`] at the top of `main` (all `exp_*`
/// binaries do) is its own worker. Tests and external drivers can point at a
/// dedicated executable ([`ShardPlan::worker`], or the `CLB_SHARD_WORKER` variable)
/// and append extra arguments ([`ShardPlan::worker_args`] — e.g. a libtest filter
/// that routes a test binary into its worker hook).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: usize,
    worker: Option<PathBuf>,
    worker_args: Vec<String>,
}

impl ShardPlan {
    /// A plan with `shards` workers (≥ 1) and the default self-exec worker command.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a shard plan needs at least one shard");
        Self {
            shards,
            worker: None,
            worker_args: Vec::new(),
        }
    }

    /// Reads the plan from the `CLB_SHARDS` environment variable: `None` when unset,
    /// empty or `0` (callers fall back to in-process [`Scenario::run`]), otherwise a
    /// plan with that many shards and the default worker command.
    ///
    /// # Panics
    /// Panics on any other value. Silently ignoring a typo (`CLB_SHARDS=four`) would
    /// make a sharded-vs-in-process determinism check pass vacuously — both legs
    /// would run in-process — so misconfiguration must be loud.
    pub fn from_env() -> Option<Self> {
        std::env::var(SHARDS_ENV)
            .ok()
            .and_then(|v| Self::parse_shards(&v))
            .map(Self::new)
    }

    /// The `CLB_SHARDS` parse rule: empty (after trimming) or `0` means "not
    /// sharded"; a positive integer is the shard count; anything else panics.
    fn parse_shards(value: &str) -> Option<usize> {
        let trimmed = value.trim();
        if trimmed.is_empty() {
            return None;
        }
        match trimmed.parse::<usize>() {
            Ok(0) => None,
            Ok(shards) => Some(shards),
            Err(_) => panic!(
                "{SHARDS_ENV}={value:?} is not a shard count; set a positive integer, \
                 or 0/empty/unset for in-process execution"
            ),
        }
    }

    /// Uses an explicit worker executable instead of re-running the current binary.
    pub fn worker(mut self, path: impl Into<PathBuf>) -> Self {
        self.worker = Some(path.into());
        self
    }

    /// Appends arguments to the worker command line (the worker protocol itself is
    /// carried in environment variables, so arguments are free for routing — e.g.
    /// `["shard_worker_entry", "--exact"]` steers a libtest binary into the one test
    /// that calls [`maybe_run_worker`]).
    pub fn worker_args<I, S>(mut self, args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.worker_args.extend(args.into_iter().map(Into::into));
        self
    }

    /// Number of shards the grid will be partitioned into.
    pub fn shards(&self) -> usize {
        self.shards
    }

    fn resolve_worker(&self) -> Result<PathBuf, ShardError> {
        if let Some(path) = &self.worker {
            return Ok(path.clone());
        }
        if let Some(path) = std::env::var_os(WORKER_ENV) {
            return Ok(PathBuf::from(path));
        }
        std::env::current_exe()
            .map_err(|e| ShardError::Io("resolving current executable as shard worker".into(), e))
    }
}

/// Splits `cells` grid cells into exactly `shards` contiguous ranges that cover
/// `0..cells` once, in order, with sizes differing by at most one (the first
/// `cells % shards` ranges take the extra cell). Shards beyond `cells` come out
/// empty — the driver simply spawns no worker for them.
///
/// # Panics
/// Panics if `shards` is zero.
pub fn partition_cells(cells: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    assert!(shards > 0, "cannot partition into zero shards");
    let base = cells / shards;
    let extra = cells % shards;
    let mut start = 0;
    (0..shards)
        .map(|shard| {
            let len = base + usize::from(shard < extra);
            let range = start..start + len;
            start += len;
            range
        })
        .collect()
}

/// Monotone counter distinguishing concurrent `run_sharded` calls in one process, so
/// their temp files never collide (the process id alone covers concurrent processes).
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Temp-file pair for one shard, removed on drop (success and error paths alike).
struct ShardFiles {
    manifest: PathBuf,
    report: PathBuf,
}

impl ShardFiles {
    fn new(run: u64, shard: usize) -> Self {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        Self {
            manifest: dir.join(format!("clb-shard-{pid}-{run}-{shard}.manifest")),
            report: dir.join(format!("clb-shard-{pid}-{run}-{shard}.report")),
        }
    }
}

impl Drop for ShardFiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.manifest);
        let _ = std::fs::remove_file(&self.report);
    }
}

/// One spawned shard worker; `child` is `Some` until its report has been collected.
struct Worker {
    shard: u32,
    range: std::ops::Range<usize>,
    files: ShardFiles,
    child: Option<std::process::Child>,
}

/// All spawned workers of one `run_sharded` call. Dropping the set kills and reaps
/// every child whose report was never collected, so an error on any shard (or on a
/// later manifest write) aborts the remaining workers instead of leaking detached
/// processes — and each killed child is gone *before* its `ShardFiles` removes the
/// temp files, so it cannot re-create them.
#[derive(Default)]
struct WorkerSet {
    spawned: Vec<Worker>,
}

impl Drop for WorkerSet {
    fn drop(&mut self) {
        for worker in &mut self.spawned {
            if let Some(mut child) = worker.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        // Each worker's ShardFiles drops after this, removing the temp files.
    }
}

impl Scenario {
    /// Runs the *(sweep point × trial)* grid across `plan.shards()` worker processes
    /// and merges their results into a [`SweepReport`] **bit-identical** (`==`) to
    /// what [`Scenario::run`] returns — at every shard count, including counts that
    /// do not divide the grid evenly and the degenerate 1-shard plan (which still
    /// round-trips all work and results through the wire format).
    ///
    /// The driver evaluates the config closure, asserts the seed-striding convention
    /// (exactly like [`Scenario::run`]; [`Scenario::paired_seeds`] opts out), builds
    /// each *shared* `GraphSpec × seed` identity once and ships it to the shards that
    /// need it, spawns the workers concurrently, and merges shard reports in
    /// shard-index order. See the [module docs](self) for the worker-resolution and
    /// wire-format details.
    pub fn run_sharded<T, F>(
        &self,
        sweep: Sweep<T>,
        config: F,
        plan: &ShardPlan,
    ) -> Result<SweepReport<T>, ShardError>
    where
        T: Send + Sync,
        F: Fn(usize, &T) -> ExperimentConfig + Sync,
    {
        assert!(
            self.trials > 0,
            "a scenario needs at least one trial per point"
        );
        let (label, points) = sweep.into_parts();
        let configs: Vec<ExperimentConfig> = points
            .iter()
            .enumerate()
            .map(|(index, point)| self.apply(config(index, point)))
            .collect();
        if !self.paired_seeds {
            crate::scenario::assert_disjoint_seed_ranges(&self.id, &configs);
        }
        // One report payload shape per shard: a sharded sweep needs one retention
        // policy for all its points (Scenario::retention sets it uniformly; only a
        // config closure that hand-assigns per-point policies can violate this).
        let retention = configs.first().map_or(Retention::Full, |c| c.retention);
        assert!(
            configs.iter().all(|c| c.retention == retention),
            "scenario {}: sharded execution requires a uniform retention policy \
             across sweep points",
            self.id,
        );

        let grid_plan = plan_grid(&configs);
        let snapshots =
            build_shared_graphs(&configs, &grid_plan, |graph| snapshot::encode(&graph))?;
        let run = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
        let worker_exe = plan.resolve_worker()?;
        let ranges = partition_cells(grid_plan.grid.len(), plan.shards());

        // Write every manifest, then launch every worker before waiting on any of
        // them: cross-process parallelism is the point of sharding. The WorkerSet
        // guard kills and reaps every not-yet-collected child if any shard errors
        // out, so a failed run never leaks processes or lets a still-running worker
        // re-create a temp file after cleanup.
        let mut workers = WorkerSet::default();
        for (shard_index, range) in ranges.iter().enumerate() {
            if range.is_empty() {
                continue;
            }
            let files = ShardFiles::new(run, shard_index);
            let manifest = build_manifest(
                shard_index as u32,
                plan.shards() as u32,
                range.clone(),
                &configs,
                &grid_plan.grid,
                &grid_plan.identity_of_cell,
                &snapshots,
            );
            std::fs::write(&files.manifest, encode_manifest(&manifest)).map_err(|e| {
                ShardError::Io(format!("writing manifest for shard {shard_index}"), e)
            })?;
            let child = Command::new(&worker_exe)
                .args(&plan.worker_args)
                .env(ROLE_ENV, "worker")
                .env(MANIFEST_ENV, &files.manifest)
                .env(REPORT_ENV, &files.report)
                // A worker must never re-shard, even if its binary forgets the
                // maybe_run_worker hook and runs its own driver code.
                .env_remove(SHARDS_ENV)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| {
                    ShardError::Io(
                        format!(
                            "spawning shard {shard_index} worker {}",
                            worker_exe.display()
                        ),
                        e,
                    )
                })?;
            workers.spawned.push(Worker {
                shard: shard_index as u32,
                range: range.clone(),
                files,
                child: Some(child),
            });
        }

        // Stream-merge in shard-index order; workers were pushed in that order.
        // Each report folds into the per-point accumulators and is dropped before
        // the next is read, so the driver never materialises all outcomes at once —
        // under Retention::Summary its resident result state is O(points), not
        // O(cells). The exact accumulator merges make the fold bit-identical to
        // Scenario::run's (the grid is point-major, so a shard's cells are adjacent
        // trial chunks of consecutive points).
        let mut point_accumulators: Vec<OutcomeAccumulator> = configs
            .iter()
            .map(|config| OutcomeAccumulator::new(config.retention))
            .collect();
        let mut snapshot_hits = 0u64;
        let mut direct_builds = 0u64;
        for worker in &mut workers.spawned {
            let shard = worker.shard;
            let range = worker.range.clone();
            let child = worker.child.take().expect("collected exactly once");
            let output = child
                .wait_with_output()
                .map_err(|e| ShardError::Io(format!("waiting for shard {shard} worker"), e))?;
            if !output.status.success() {
                return Err(ShardError::Worker {
                    shard,
                    detail: format!(
                        "exited with {} while running cells [{}, {}): {}",
                        output.status,
                        range.start,
                        range.end,
                        String::from_utf8_lossy(&output.stderr).trim()
                    ),
                });
            }
            let data = std::fs::read(&worker.files.report).map_err(|e| {
                ShardError::Io(
                    format!(
                        "reading shard {shard} report for cells [{}, {}) (did the worker \
                         binary call shard::maybe_run_worker() at the top of main?)",
                        range.start, range.end
                    ),
                    e,
                )
            })?;
            let report = decode_report(&data)?;
            if report.shard_index != shard {
                return Err(ShardError::Worker {
                    shard,
                    detail: format!("report claims shard index {}", report.shard_index),
                });
            }
            if report.first_cell != range.start as u64
                || report.payload.cell_count() != range.len() as u64
            {
                return Err(ShardError::Worker {
                    shard,
                    detail: format!(
                        "report covers cells [{}, {}) but the shard owns [{}, {})",
                        report.first_cell,
                        report.first_cell + report.payload.cell_count(),
                        range.start,
                        range.end
                    ),
                });
            }
            snapshot_hits += report.snapshot_hits;
            direct_builds += report.direct_builds;
            match report.payload {
                ShardPayload::Outcomes(outcomes) => {
                    if retention != Retention::Full {
                        return Err(ShardError::Worker {
                            shard,
                            detail: "summary-mode driver received an outcome payload".into(),
                        });
                    }
                    // Outcomes arrive in global grid order for the shard's range;
                    // the grid tells each one its sweep point.
                    for (&(index, _trial), outcome) in
                        grid_plan.grid[range.clone()].iter().zip(outcomes)
                    {
                        point_accumulators[index].push(outcome);
                    }
                }
                ShardPayload::Accumulators(states) => {
                    if retention != Retention::Summary {
                        return Err(ShardError::Worker {
                            shard,
                            detail: "full-mode driver received an accumulator payload".into(),
                        });
                    }
                    for (point, accumulator) in states {
                        let Some(target) = point_accumulators.get_mut(point as usize) else {
                            return Err(ShardError::Worker {
                                shard,
                                detail: format!(
                                    "report references sweep point {point} but the sweep has {}",
                                    configs.len()
                                ),
                            });
                        };
                        target.merge(accumulator);
                    }
                }
            }
        }

        let cache = CacheStats {
            graphs_built: grid_plan.identities.len(),
            cells_run: grid_plan.grid.len(),
            snapshot_hits: snapshot_hits as usize,
            direct_builds: direct_builds as usize,
        };
        let rows = points
            .into_iter()
            .zip(configs)
            .zip(point_accumulators)
            .map(|((point, config), accumulator)| SweepRow {
                point,
                report: accumulator.into_report(config),
            })
            .collect();
        print_cache_line(&cache);
        Ok(SweepReport { label, rows, cache })
    }
}

/// Builds the manifest for one contiguous cell range, remapping the globally-indexed
/// shared snapshots to a dense per-shard snapshot table (a shard only ships the
/// graphs its own cells decode).
#[allow(clippy::too_many_arguments)]
fn build_manifest(
    shard_index: u32,
    shard_count: u32,
    range: std::ops::Range<usize>,
    configs: &[ExperimentConfig],
    grid_cells: &[(usize, u64)],
    identity_of_cell: &[usize],
    snapshots: &[Option<bytes::Bytes>],
) -> ShardManifest {
    // Membership-only lookup (entry API); snapshot numbering follows the sorted
    // cell range, never map iteration.
    // clb-audit: allow(unordered-collection) -- membership-only lookup
    let mut local_of_identity: HashMap<usize, u32> = HashMap::new();
    let mut local_snapshots: Vec<Vec<u8>> = Vec::new();
    let cells: Vec<ShardCell> = range
        .clone()
        .map(|cell| {
            let (point, trial) = grid_cells[cell];
            let identity = identity_of_cell[cell];
            let source = match &snapshots[identity] {
                Some(bytes) => {
                    let local = *local_of_identity.entry(identity).or_insert_with(|| {
                        local_snapshots.push(bytes.to_vec());
                        (local_snapshots.len() - 1) as u32
                    });
                    GraphSource::Snapshot(local)
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
        shard_index,
        shard_count,
        first_cell: range.start as u64,
        configs: configs.to_vec(),
        snapshots: local_snapshots,
        cells,
    }
}

/// Executes one shard's cells on this process's rayon pool and returns its report.
///
/// This is the worker half of the determinism contract: the per-cell work is exactly
/// the in-process grid pass of [`Scenario::run`] — borrow the shared graph, decoded
/// once from its shipped snapshot before the cells run, or build `GraphSpec × seed`
/// directly, then run the trial — folded into per-point accumulators in manifest
/// cell order at every thread count. Under `Retention::Full` the report carries every
/// outcome (in cell order); under `Retention::Summary` it carries one O(1)-sized
/// accumulator state per sweep point the shard touched, and the outcomes never
/// outlive the worker.
pub fn execute_manifest(manifest: &ShardManifest) -> Result<ShardReport, ShardError> {
    let retention = manifest
        .configs
        .first()
        .map_or(Retention::Full, |c| c.retention);
    if manifest.configs.iter().any(|c| c.retention != retention) {
        return Err(ShardError::Corrupt(
            "manifest mixes retention policies across configs".into(),
        ));
    }
    // Each shipped graph is decoded once, on the pool, and borrowed by every cell
    // that uses it, as Scenario::run's cells borrow its shared cache.
    let shared: Vec<BipartiteGraph> = manifest
        .snapshots
        .par_iter()
        .map(|bytes| snapshot::decode(bytes))
        .collect::<Result<_, _>>()?;
    let snapshot_hits = AtomicUsize::new(0);
    let direct_builds = AtomicUsize::new(0);
    // The same streaming fold as Scenario::run — literally the same operator
    // (`accumulate::merge_grid_fold`), so the two cannot drift apart: manifest
    // cells are contiguous grid cells, so merges join adjacent trial chunks of
    // consecutive points.
    let folded: Result<GridFold<u32>, GraphError> = manifest
        .cells
        .par_iter()
        .map(|cell| {
            let config = &manifest.configs[cell.point as usize];
            let seed = config.base_seed + cell.trial;
            let built;
            let graph = match cell.source {
                GraphSource::Snapshot(index) => {
                    snapshot_hits.fetch_add(1, Ordering::Relaxed);
                    &shared[index as usize]
                }
                GraphSource::Direct => {
                    direct_builds.fetch_add(1, Ordering::Relaxed);
                    built = config.graph.build(seed)?;
                    &built
                }
            };
            Ok(GridFold::cell(
                cell.point,
                config.retention,
                config.run_trial_on(graph, seed),
            ))
        })
        .reduce(|| Ok(GridFold::empty()), merge_grid_fold);
    let accumulators = folded?.into_merged();
    let payload = match retention {
        Retention::Full => ShardPayload::Outcomes(
            accumulators
                .into_iter()
                .flat_map(|(_, accumulator)| accumulator.into_trials())
                .collect(),
        ),
        Retention::Summary => ShardPayload::Accumulators(accumulators),
    };
    Ok(ShardReport {
        shard_index: manifest.shard_index,
        first_cell: manifest.first_cell,
        // Loaded after the parallel cell loop has joined, so the counts are exact.
        // clb-audit: allow(relaxed-load) -- read-after-join, exact total
        snapshot_hits: snapshot_hits.load(Ordering::Relaxed) as u64,
        // clb-audit: allow(relaxed-load) -- read-after-join, exact total
        direct_builds: direct_builds.load(Ordering::Relaxed) as u64,
        payload,
    })
}

/// Runs one worker job: read and decode the manifest at `manifest_path`, execute it,
/// encode the report to `report_path`.
pub fn run_worker(manifest_path: &Path, report_path: &Path) -> Result<(), ShardError> {
    let data = std::fs::read(manifest_path)
        .map_err(|e| ShardError::Io(format!("reading manifest {}", manifest_path.display()), e))?;
    let manifest = decode_manifest(&data)?;
    let report = execute_manifest(&manifest)?;
    std::fs::write(report_path, encode_report(&report)?)
        .map_err(|e| ShardError::Io(format!("writing report {}", report_path.display()), e))
}

/// The worker hook: call this **first thing in `main`** of any binary that drives
/// [`Scenario::run_sharded`] with the default self-exec worker (all `exp_*` binaries
/// do). When the process was spawned as a shard worker (`CLB_SHARD_ROLE=worker` in
/// the environment) it executes the shard and **exits** — successfully after writing
/// the report, with status 2 and a diagnostic on stderr otherwise. In an ordinary
/// invocation it returns immediately and `main` proceeds as the driver.
pub fn maybe_run_worker() {
    if std::env::var(ROLE_ENV).as_deref() != Ok("worker") {
        return;
    }
    let manifest = std::env::var(MANIFEST_ENV)
        .unwrap_or_else(|_| panic!("{ROLE_ENV}=worker but {MANIFEST_ENV} is unset"));
    let report = std::env::var(REPORT_ENV)
        .unwrap_or_else(|_| panic!("{ROLE_ENV}=worker but {REPORT_ENV} is unset"));
    match run_worker(Path::new(&manifest), Path::new(&report)) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("clb shard worker: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clb_graph::GraphSpec;
    use clb_protocols::ProtocolSpec;

    #[test]
    fn partition_is_contiguous_balanced_and_complete() {
        for (cells, shards) in [(12, 5), (12, 1), (0, 3), (7, 7), (3, 8), (100, 3)] {
            let ranges = partition_cells(cells, shards);
            assert_eq!(ranges.len(), shards);
            let mut next = 0;
            for range in &ranges {
                assert_eq!(range.start, next, "cells={cells} shards={shards}");
                assert!(range.len() <= cells / shards + 1);
                next = range.end;
            }
            assert_eq!(next, cells, "cells={cells} shards={shards}");
        }
    }

    #[test]
    #[should_panic(expected = "zero shards")]
    fn zero_shards_rejected() {
        let _ = partition_cells(4, 0);
    }

    #[test]
    fn execute_manifest_matches_direct_trials() {
        // A worker executing a manifest must produce exactly what run_trial_on
        // produces in-process, for both graph sources.
        let config = ExperimentConfig::new(
            GraphSpec::Regular { n: 64, delta: 16 },
            ProtocolSpec::Saer { c: 4, d: 2 },
        )
        .seed(300)
        .trials(2);
        let shared = config.graph.build(301).unwrap();
        let manifest = ShardManifest {
            shard_index: 0,
            shard_count: 1,
            first_cell: 0,
            configs: vec![config.clone()],
            snapshots: vec![snapshot::encode(&shared).to_vec()],
            cells: vec![
                ShardCell {
                    point: 0,
                    trial: 0,
                    source: GraphSource::Direct,
                },
                ShardCell {
                    point: 0,
                    trial: 1,
                    source: GraphSource::Snapshot(0),
                },
            ],
        };
        let report = execute_manifest(&manifest).unwrap();
        assert_eq!(report.snapshot_hits, 1);
        assert_eq!(report.direct_builds, 1);
        let ShardPayload::Outcomes(outcomes) = &report.payload else {
            panic!("full-retention manifests produce outcome payloads");
        };
        assert_eq!(outcomes.len(), 2);
        assert_eq!(report.payload.cell_count(), 2);
        assert_eq!(outcomes[0], config.run_trial(300).unwrap());
        assert_eq!(outcomes[1], config.run_trial_on(&shared, 301));
    }

    #[test]
    fn summary_manifest_produces_accumulator_payload() {
        // A summary-retention manifest must come back as per-point accumulator
        // states whose fold matches pushing the same outcomes in-process.
        let config = ExperimentConfig::new(
            GraphSpec::Regular { n: 64, delta: 16 },
            ProtocolSpec::Saer { c: 4, d: 2 },
        )
        .seed(300)
        .trials(3)
        .retention(crate::accumulate::Retention::Summary);
        let manifest = ShardManifest {
            shard_index: 0,
            shard_count: 1,
            first_cell: 0,
            configs: vec![config.clone()],
            snapshots: vec![],
            cells: (0..3)
                .map(|trial| ShardCell {
                    point: 0,
                    trial,
                    source: GraphSource::Direct,
                })
                .collect(),
        };
        let report = execute_manifest(&manifest).unwrap();
        assert_eq!(report.payload.cell_count(), 3);
        let ShardPayload::Accumulators(states) = report.payload else {
            panic!("summary-retention manifests produce accumulator payloads");
        };
        assert_eq!(states.len(), 1);
        let mut expected = OutcomeAccumulator::new(crate::accumulate::Retention::Summary);
        for trial in 0..3 {
            expected.push(config.run_trial(300 + trial).unwrap());
        }
        assert_eq!(states[0].0, 0);
        assert_eq!(states[0].1, expected);
    }

    #[test]
    fn shards_env_parse_rule() {
        // Reads of the real environment are covered by the CI shard matrix; the
        // parse rule itself is pinned here (env mutation would race parallel tests).
        assert_eq!(ShardPlan::parse_shards("4"), Some(4));
        assert_eq!(ShardPlan::parse_shards(" 2\n"), Some(2));
        assert_eq!(ShardPlan::parse_shards("0"), None, "0 means not sharded");
        assert_eq!(ShardPlan::parse_shards(""), None);
        assert_eq!(ShardPlan::parse_shards("  "), None);
        assert_eq!(ShardPlan::new(3).shards(), 3);
    }

    #[test]
    #[should_panic(expected = "not a shard count")]
    fn malformed_shards_env_is_rejected_loudly() {
        // A typo must not silently disable sharding — a sharded-vs-in-process diff
        // would then pass without exercising any sharded code.
        let _ = ShardPlan::parse_shards("four");
    }

    #[test]
    fn manifest_wire_round_trip_smoke() {
        let config = ExperimentConfig::new(
            GraphSpec::RegularLogSquared { n: 128, eta: 1.0 },
            ProtocolSpec::Raes { c: 3, d: 2 },
        );
        let manifest = ShardManifest {
            shard_index: 1,
            shard_count: 3,
            first_cell: 7,
            configs: vec![config],
            snapshots: vec![vec![1, 2, 3]],
            cells: vec![ShardCell {
                point: 0,
                trial: 4,
                source: GraphSource::Snapshot(0),
            }],
        };
        let decoded = decode_manifest(&encode_manifest(&manifest)).unwrap();
        assert_eq!(decoded, manifest);
    }
}
