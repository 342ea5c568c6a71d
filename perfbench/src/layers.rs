//! The traced run and the per-layer metrics derived from its spans and counts.
//!
//! Every per-layer metric is reported on every workload. A layer the workload's
//! traced pass never calls into directly reports 0 time: the grids reach the
//! engine only through `ExperimentConfig::run_trial_on`, so their engine time is
//! inside `core.trial_s`, and only the grid's traced pass calls the shard codecs,
//! when it replays the sharded manifests in process.

use crate::output::{ratio, Metric};
use crate::trace::{self, Span, Tracer};
use crate::{host, Bench, Pass};
use clb::prelude::{RoundRecord, TrialOutcome};
use std::collections::BTreeMap;

/// Every per-layer metric: name, unit and which direction is better, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str, &str); 40] = [
    ("graph.generate_s", "s", "lower"),
    ("graph.edges", "count", "lower"),
    ("graph.generate_ns_per_edge", "ns", "lower"),
    ("graph.from_edges_s", "s", "lower"),
    ("graph.snapshot_encode_s", "s", "lower"),
    ("graph.snapshot_decode_s", "s", "lower"),
    ("graph.snapshot_bytes", "B", "lower"),
    ("engine.sim_build_s", "s", "lower"),
    ("engine.step_s", "s", "lower"),
    ("engine.first_step_s", "s", "lower"),
    ("engine.rounds", "count", "lower"),
    ("engine.requests", "count", "lower"),
    ("engine.ns_per_request", "ns", "lower"),
    ("engine.settle_ratio", "ratio", "higher"),
    ("engine.arrivals", "count", "higher"),
    ("engine.departures", "count", "higher"),
    ("protocols.raes.ns_per_request", "ns", "lower"),
    ("protocols.jsq.ns_per_request", "ns", "lower"),
    ("faults.ns_per_request", "ns", "lower"),
    ("faults.overhead_ratio", "ratio", "lower"),
    ("core.trial_s", "s", "lower"),
    ("core.fold_s", "s", "lower"),
    ("core.cells", "count", "higher"),
    ("core.capped_cells", "count", "lower"),
    ("shard.manifest_bytes", "B", "lower"),
    ("shard.report_bytes", "B", "lower"),
    ("shard.encode_manifest_s", "s", "lower"),
    ("shard.decode_manifest_s", "s", "lower"),
    ("shard.execute_s", "s", "lower"),
    ("shard.encode_report_s", "s", "lower"),
    ("shard.decode_report_s", "s", "lower"),
    ("pool.cpu_util", "ratio", "higher"),
    ("pool.tasks", "count", "lower"),
    ("pool.steals", "count", "lower"),
    ("pool.steal_success", "ratio", "higher"),
    ("pool.parks", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
];

/// Medians over the untraced passes of the same run.
#[derive(Debug, Clone, Copy)]
pub struct Untraced {
    /// Wall time of a pass (the end-to-end `wall_s`).
    pub wall_ns: f64,
    /// Time of the work a traced pass repeats (see [`Bench::traced_work_ns`]):
    /// the grids trace their replay, not the runner.
    pub work_ns: f64,
}

/// What the traced pass recorded, plus the untraced passes' medians.
#[derive(Debug)]
pub struct TracedPass {
    /// The pass's spans, in start order.
    pub spans: Vec<Span>,
    /// Work counts recorded beside the spans.
    pub counts: BTreeMap<&'static str, u64>,
    /// The traced pass's wall time.
    pub wall_ns: u64,
    /// The untraced passes of the same run.
    pub untraced: Untraced,
    /// Process CPU time during the traced pass.
    pub cpu_ns: u64,
    /// Pool threads.
    pub threads: usize,
    /// Pool counters during the traced pass.
    pub pool: host::PoolDelta,
}

/// A finished traced run.
#[derive(Debug)]
pub struct TracedRun {
    /// The traced pass's checks and digest.
    pub pass: Pass,
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Spans, per-name summaries and counts as JSON lines.
    pub lines: String,
}

/// Runs one traced pass of `bench` and derives the per-layer metrics. The pass
/// runs on the inputs of the measured pass whose outputs hashed to `digest`, and
/// fails if tracing changed them.
pub fn traced_run(
    bench: &mut dyn Bench,
    pass_seed: u64,
    threads: usize,
    untraced: Untraced,
    digest: u64,
) -> TracedRun {
    let tracer = Tracer::on();
    let pool_before = rayon::pool_stats();
    let cpu_before = host::process_cpu_ns();
    let mut pass = bench.traced_pass(pass_seed, &tracer);
    let cpu_ns = host::process_cpu_ns() - cpu_before;
    let pool = host::PoolDelta::between(&pool_before, &rayon::pool_stats());
    if pass.digest != digest {
        pass.fail_all(format!(
            "the traced pass's outputs (digest {:016x}) differ from the measured pass's ({digest:016x})",
            pass.digest
        ));
    }
    let (spans, counts) = tracer.finish();
    let traced = TracedPass {
        spans,
        counts,
        wall_ns: pass.wall_ns,
        untraced,
        cpu_ns,
        threads,
        pool,
    };
    TracedRun {
        metrics: metrics(&traced),
        lines: trace::to_json_lines(&traced.spans, &traced.counts),
        pass,
    }
}

/// Work-count key of the requests sent under a span tag.
pub fn requests_key(tag: &str) -> &'static str {
    match tag {
        "saer" => "requests.saer",
        "raes" => "requests.raes",
        "jsq" => "requests.jsq",
        "raes+faults" => "requests.raes+faults",
        _ => "requests.other",
    }
}

/// Records the engine work of one finished trial.
pub fn count_trial(tracer: &Tracer, tag: &'static str, outcome: &TrialOutcome) {
    let result = &outcome.result;
    tracer.add("core.cells", 1);
    tracer.add("core.capped_cells", u64::from(result.hit_round_cap));
    tracer.add("engine.rounds", u64::from(result.rounds));
    tracer.add("engine.requests", result.total_messages / 2);
    tracer.add(requests_key(tag), result.total_messages / 2);
    tracer.add(
        "engine.settled",
        result.total_balls - result.unassigned_balls,
    );
}

/// Records the engine work of one simulation's rounds under `tag`.
pub fn count_rounds(tracer: &Tracer, tag: &'static str, records: &[RoundRecord]) {
    let requests: u64 = records.iter().map(|r| r.requests_sent).sum();
    tracer.add("engine.rounds", records.len() as u64);
    tracer.add("engine.requests", requests);
    tracer.add(requests_key(tag), requests);
    tracer.add(
        "engine.settled",
        records.iter().map(|r| r.balls_assigned).sum(),
    );
    tracer.add("engine.arrivals", records.iter().map(|r| r.arrivals).sum());
    tracer.add(
        "engine.departures",
        records.iter().map(|r| r.departures).sum(),
    );
}

/// Derives every metric of [`PER_LAYER`] from a traced pass.
pub fn metrics(t: &TracedPass) -> Vec<Metric> {
    let busy = |name: &str| trace::busy_ns(&t.spans, |s| s.name == name) as f64;
    let busy_tagged = |names: &[&str], tag: &str| {
        trace::busy_ns(&t.spans, |s| s.tag == tag && names.contains(&s.name)) as f64
    };
    let count = |key: &str| t.counts.get(key).copied().unwrap_or(0) as f64;
    let s = |ns: f64| ns / 1e9;

    // The first round of each simulation, keyed by the unit its steps carry.
    let mut first_steps: BTreeMap<u64, &Span> = BTreeMap::new();
    for span in t.spans.iter().filter(|s| s.name == "engine.step") {
        first_steps
            .entry(span.unit)
            .and_modify(|first| {
                if span.start_ns < first.start_ns {
                    *first = span;
                }
            })
            .or_insert(span);
    }
    let first_step: u64 = first_steps.values().map(|s| s.duration_ns()).sum();

    // Share of the pass covered by at least one span around a call into the
    // program, on any thread.
    let coverage = t
        .spans
        .iter()
        .find(|s| s.name == "pass")
        .map_or(0.0, |pass| {
            let own = trace::self_ns(
                (pass.start_ns, pass.end_ns),
                t.spans
                    .iter()
                    .filter(|s| s.is_layer())
                    .map(|s| (s.start_ns, s.end_ns)),
            );
            1.0 - ratio(own as f64, pass.duration_ns() as f64)
        });

    // Time each protocol arm spent in its own calls: the step loop where the
    // benchmark drives the engine, the whole trial where the runner does.
    let arm_ns = |tag: &str| busy_tagged(&["engine.step", "core.trial"], tag);
    let generate = busy("graph.generate");
    let step = busy("engine.step");
    let wall = t.wall_ns as f64;
    let values: [f64; 40] = [
        s(generate),
        count("graph.edges"),
        ratio(generate, count("graph.edges")),
        s(busy("graph.from_edges")),
        s(busy("graph.snapshot_encode")),
        s(busy("graph.snapshot_decode")),
        count("graph.snapshot_bytes"),
        s(busy("engine.sim_build")),
        s(step),
        s(first_step as f64),
        count("engine.rounds"),
        count("engine.requests"),
        ratio(step, count("engine.requests")),
        ratio(count("engine.settled"), count("engine.requests")),
        count("engine.arrivals"),
        count("engine.departures"),
        ratio(arm_ns("raes"), count("requests.raes")),
        ratio(arm_ns("jsq"), count("requests.jsq")),
        ratio(arm_ns("raes+faults"), count("requests.raes+faults")),
        ratio(
            busy_tagged(&["engine.step"], "raes+faults"),
            busy_tagged(&["engine.step"], "raes"),
        ),
        s(busy("core.trial")),
        s(busy("core.fold")),
        count("core.cells"),
        count("core.capped_cells"),
        count("shard.manifest_bytes"),
        count("shard.report_bytes"),
        s(busy("shard.encode_manifest")),
        s(busy("shard.decode_manifest")),
        s(busy("shard.execute")),
        s(busy("shard.encode_report")),
        s(busy("shard.decode_report")),
        ratio(t.cpu_ns as f64, wall * t.threads as f64),
        t.pool.tasks as f64,
        t.pool.steals_succeeded as f64,
        ratio(
            t.pool.steals_succeeded as f64,
            t.pool.steals_attempted as f64,
        ),
        t.pool.parks as f64,
        coverage,
        ratio(wall, t.untraced.work_ns) - 1.0,
        s(wall),
        s(t.untraced.wall_ns),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric::new(name, value, unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanId;

    fn span(
        id: u32,
        parent: u32,
        name: &'static str,
        tag: &'static str,
        unit: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id: SpanId(id),
            parent: SpanId(parent),
            name,
            tag,
            unit,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn metrics_follow_from_spans_and_counts() {
        let spans = vec![
            span(1, 0, "pass", "", 0, 0, 1000),
            span(2, 1, "engine.sim_build", "raes", 0, 0, 100),
            span(3, 1, "engine.step", "raes", 0, 100, 300),
            span(4, 1, "engine.step", "raes", 0, 300, 400),
            span(5, 1, "engine.sim_build", "raes+faults", 1, 500, 600),
            span(6, 1, "engine.step", "raes+faults", 1, 600, 900),
        ];
        let counts = BTreeMap::from([
            ("engine.requests", 40),
            ("engine.settled", 30),
            ("requests.raes", 20),
            ("requests.raes+faults", 20),
        ]);
        let traced = TracedPass {
            spans,
            counts,
            wall_ns: 1000,
            untraced: Untraced {
                wall_ns: 900.0,
                work_ns: 800.0,
            },
            cpu_ns: 1000,
            threads: 2,
            pool: host::PoolDelta::default(),
        };
        let metrics = metrics(&traced);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(get("engine.step_s"), 600e-9);
        assert_eq!(
            get("engine.first_step_s"),
            500e-9,
            "one first step per simulation"
        );
        assert_eq!(get("engine.ns_per_request"), 15.0);
        assert_eq!(get("engine.settle_ratio"), 0.75);
        assert_eq!(get("protocols.raes.ns_per_request"), 15.0);
        assert_eq!(get("faults.ns_per_request"), 15.0);
        assert_eq!(get("faults.overhead_ratio"), 1.0);
        assert_eq!(get("protocols.jsq.ns_per_request"), 0.0, "no JSQ arm");
        assert_eq!(
            get("trace.coverage"),
            0.8,
            "400..500 and 900..1000 are uncovered"
        );
        assert_eq!(
            get("trace.overhead_frac"),
            0.25,
            "against the work the traced pass repeats"
        );
        assert_eq!(get("trace.untraced_wall_s"), 900e-9);
        assert_eq!(get("pool.cpu_util"), 0.5);
    }

    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let mut entries: Vec<(&str, &str, &str)> = PER_LAYER.to_vec();
        entries.extend([
            ("wall_s", "s", "lower"),
            ("setup_s", "s", "lower"),
            ("solve_s", "s", "lower"),
            ("cells_per_s", "1/s", "higher"),
            ("peak_rss_mb", "MiB", "lower"),
        ]);
        for (name, unit, better) in entries {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in crate::Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
        }
    }
}
