//! `clb-perfbench`: the end-to-end and per-layer benchmark of constrained-lb.
//!
//! One process runs one workload with one seed: repeated passes for a fixed time
//! budget on a pool of `nproc` threads, every output checked, one JSON result
//! line printed last. The end-to-end metrics are medians over the passes. With
//! tracing on, one more pass runs with a span around every call into a layer's
//! public functions, and the per-layer metrics are derived from those spans.
//! `README.md` in this directory defines every workload and metric.

pub mod clock;
pub mod grid;
pub mod host;
pub mod huge;
pub mod layers;
pub mod online;
pub mod output;
pub mod trace;

use output::{median, ratio, Metric};
use trace::Tracer;

/// The benchmark's workloads (`BENCHMARK.json` says why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paired SAER/RAES/JSQ sweep through `Scenario::run`.
    GridLog2,
    /// One SAER simulation with 10⁷ balls on a striped graph.
    HugeInstance,
    /// Three open-system simulations with arrivals, departures and faults.
    OnlineChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GridLog2,
        Workload::HugeInstance,
        Workload::OnlineChurn,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridLog2 => "grid_log2",
            Workload::HugeInstance => "huge_instance",
            Workload::OnlineChurn => "online_churn",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one pass of a workload measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// From the pass's first call into the program to its last result.
    pub wall_ns: u64,
    /// Graph materialisation and simulation set-up (see `README.md`).
    pub setup_ns: u64,
    /// The rounds or cells after set-up (see `README.md`).
    pub solve_ns: u64,
    /// Simulations the pass ran to completion or to their round cap.
    pub cells: u64,
    /// Units attempted: grid cells, simulations and shard workers.
    pub attempted: u64,
    /// Units whose output failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Digest of the pass's outputs.
    pub digest: u64,
}

impl Pass {
    /// A pass about to attempt `attempted` units.
    pub fn attempting(attempted: u64) -> Self {
        Self {
            attempted,
            ..Self::default()
        }
    }

    /// Records that one unit failed its checks.
    pub fn fail_unit(&mut self, problem: String) {
        self.failed = (self.failed + 1).min(self.attempted);
        self.problems.push(problem);
    }

    /// Records a failure that invalidates every unit of the pass.
    pub fn fail_all(&mut self, problem: String) {
        self.failed = self.attempted;
        self.problems.push(problem);
    }
}

/// One workload's passes.
pub trait Bench {
    /// Untimed preparation: spawns the pool's workers, warms code and allocator
    /// paths on a small instance, and computes any reference the first pass (seed
    /// `first_pass_seed`) is checked against.
    fn warm_up(&mut self, first_pass_seed: u64);
    /// One measured pass on inputs derived from `pass_seed`.
    fn pass(&mut self, pass_seed: u64) -> Pass;
    /// One pass on the same inputs as [`Bench::pass`], with spans and counts
    /// recorded into `tracer`.
    fn traced_pass(&mut self, pass_seed: u64, tracer: &Tracer) -> Pass;
    /// The untraced time of the work [`Bench::traced_pass`] repeats, the base of
    /// the tracing overhead: by default the whole pass.
    fn traced_work_ns(&self, pass: &Pass) -> u64 {
        pass.wall_ns
    }
}

/// Derives stream `stream` of a seed (SplitMix64 finaliser), masked to 48 bits so
/// `base seed + trial` never overflows. Every seed of a run comes from here.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & ((1 << 48) - 1)
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The seed every input derives from.
    pub seed: u64,
    /// Measurement budget: a pass starts only while one of median length still
    /// ends inside it (the first pass always runs).
    pub seconds: u64,
    /// Run one traced pass and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What a run measured.
#[derive(Debug)]
pub struct RunOutcome {
    /// Every check passed.
    pub correct: bool,
    /// Units attempted over all passes.
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Digest, failed checks and host context, printed before the result line.
    pub log: Vec<String>,
    /// The traced pass's spans and counts as JSON lines.
    pub trace_lines: Option<String>,
}

impl RunOutcome {
    /// The result line (see [`output::result_line`]).
    pub fn result_line(&self) -> String {
        output::result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// A workload's passes, on a fresh instance.
pub fn bench(workload: Workload) -> Box<dyn Bench> {
    match workload {
        Workload::GridLog2 => Box::new(grid::GridBench::new(grid::GridShape::BENCH)),
        Workload::HugeInstance => Box::new(huge::HugeBench::new(huge::CLIENTS)),
        Workload::OnlineChurn => Box::new(online::OnlineBench::new(online::OnlineShape::BENCH)),
    }
}

/// Runs `config` on a pool of `nproc` threads.
pub fn run(config: &RunConfig) -> RunOutcome {
    let threads = host::nproc();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the pool stub always builds");
    pool.install(|| run_on_pool(config, threads))
}

fn run_on_pool(config: &RunConfig, threads: usize) -> RunOutcome {
    let calibration_before_ms = host::calibrate_ms();
    let mut bench = bench(config.workload);
    bench.warm_up(derive(config.seed, 0));

    let ticks_before = host::CpuTicks::read();
    let pool_before = rayon::pool_stats();
    let start = clock::now_ns();
    let budget_ns = config.seconds.saturating_mul(1_000_000_000);
    let mut passes: Vec<Pass> = Vec::new();
    let mut pass_ns: Vec<f64> = Vec::new();
    loop {
        let (pass, ns) = clock::timed(|| bench.pass(derive(config.seed, passes.len() as u64)));
        passes.push(pass);
        pass_ns.push(ns as f64);
        // Start another pass only if one of median length still ends inside the
        // budget, so a run lasts about `seconds` whatever one pass costs.
        if (clock::now_ns() - start) as f64 + median(&pass_ns) > budget_ns as f64 {
            break;
        }
    }
    let pool = host::PoolDelta::between(&pool_before, &rayon::pool_stats());
    let steal_share = ticks_before.steal_share_until(host::CpuTicks::read());
    let traced = config.trace.then(|| {
        let untraced = layers::Untraced {
            wall_ns: median(&passes.iter().map(|p| p.wall_ns as f64).collect::<Vec<_>>()),
            work_ns: median(
                &passes
                    .iter()
                    .map(|p| bench.traced_work_ns(p) as f64)
                    .collect::<Vec<_>>(),
            ),
        };
        layers::traced_run(
            bench.as_mut(),
            derive(config.seed, 0),
            threads,
            untraced,
            passes[0].digest,
        )
    });
    let calibration_after_ms = host::calibrate_ms();

    let all: Vec<&Pass> = passes
        .iter()
        .chain(traced.as_ref().map(|t| &t.pass))
        .collect();
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    let mut log = vec![format!(
        "perfbench digest: workload={} seed={} digest={:016x}",
        config.workload.name(),
        config.seed,
        passes[0].digest
    )];
    log.extend(
        all.iter()
            .flat_map(|p| &p.problems)
            .map(|problem| format!("perfbench check failed: {problem}")),
    );
    let seconds = |f: fn(&Pass) -> u64| {
        passes
            .iter()
            .map(|p| format!("{:.4}", f(p) as f64 / 1e9))
            .collect::<Vec<_>>()
            .join(", ")
    };
    log.push(format!(
        "perfbench context: {{\"workload\": \"{}\", \"seed\": {}, \"passes\": {}, \"wall_s\": [{}], \
         \"setup_s\": [{}], \"solve_s\": [{}], \"nproc\": {}, \"pool_threads\": {}, \"git_rev\": \"{}\", \
         \"steal_share\": {:.4}, \"calibration_ms\": [{:.2}, {:.2}], \"pool\": {}}}",
        config.workload.name(),
        config.seed,
        passes.len(),
        seconds(|p| p.wall_ns),
        seconds(|p| p.setup_ns),
        seconds(|p| p.solve_ns),
        host::nproc(),
        threads,
        host::git_rev(),
        steal_share,
        calibration_before_ms,
        calibration_after_ms,
        pool.to_json(),
    ));

    let metrics = match &traced {
        Some(traced) => traced.metrics.clone(),
        None => end_to_end(&passes),
    };
    RunOutcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        log,
        trace_lines: traced.map(|t| t.lines),
    }
}

/// The end-to-end metrics: medians over the passes, plus the process's peak memory.
pub fn end_to_end(passes: &[Pass]) -> Vec<Metric> {
    let seconds =
        |f: fn(&Pass) -> u64| median(&passes.iter().map(|p| f(p) as f64 / 1e9).collect::<Vec<_>>());
    let wall = seconds(|p| p.wall_ns);
    vec![
        Metric::new("wall_s", wall, "s"),
        Metric::new("setup_s", seconds(|p| p.setup_ns), "s"),
        Metric::new("solve_s", seconds(|p| p.solve_ns), "s"),
        Metric::new("cells_per_s", ratio(passes[0].cells as f64, wall), "1/s"),
        Metric::new("peak_rss_mb", host::peak_rss_mib(), "MiB"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn derived_seeds_are_distinct_and_fit_48_bits() {
        let seeds: Vec<u64> = (0..64).map(|s| derive(7, s)).collect();
        for (i, a) in seeds.iter().enumerate() {
            assert!(*a < 1 << 48);
            assert!(seeds[i + 1..].iter().all(|b| b != a));
        }
        assert_ne!(derive(7, 0), derive(8, 0));
        assert_eq!(derive(7, 3), derive(7, 3));
    }

    #[test]
    fn failures_never_exceed_attempts() {
        let mut pass = Pass::attempting(2);
        pass.fail_unit("a".into());
        pass.fail_unit("b".into());
        pass.fail_unit("c".into());
        assert_eq!(pass.failed, 2);
        pass.fail_all("d".into());
        assert_eq!((pass.failed, pass.problems.len()), (2, 4));
    }
}
