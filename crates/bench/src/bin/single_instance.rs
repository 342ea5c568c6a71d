//! Single-instance throughput benchmark for the intra-round parallel `step()`:
//! ONE simulation with up to 10^7 balls, stepped round by round under a 1-thread
//! and a 4-thread pool, recorded to `BENCH_single_instance.json` in the working
//! directory.
//!
//! This is the axis `perf_smoke` cannot see: that benchmark parallelises *across*
//! grid cells, so a lone huge instance gains nothing from it. Here the piece plan
//! derived from the instance sizes (see `clb_engine::Simulation`) splits the
//! counting sort, the server decisions, the ball settling and the census inside
//! every round, and the per-point `deterministic` flag is the hard gate: the
//! per-round `RoundRecord`s, the final `RunResult` and the server loads must be
//! bit-identical at every thread count. Each point also builds its striped graph
//! inside its own pool, where `BipartiteGraph::from_edges` splits the edge list into
//! chunks, and the flag requires that graph to equal the 1-thread point's. Only the
//! round loop is timed. Timings are context; on a contended container
//! (`"contended": true`) only the determinism verdicts are meaningful.
//!
//! Quick mode (`--quick` or `CLB_QUICK=1`) caps n at 10^6; the full run adds 10^7.
//!
//! Since the pool's work-stealing rewrite this binary also runs a **two-level leg**:
//! several mid-size sims stepped *inside* an outer parallel drive (the scenario
//! runner's shape) with the intra-step plan forced, so nested drives genuinely fan
//! out from pool workers — diffed bit-for-bit against the 1-thread baseline and
//! reported as the greppable `nested two-level` verdict. The `pool:` line and the
//! `tasks`/`steals` JSON keys expose the scheduler counters behind it.

use clb::prelude::*;
use rayon::prelude::*;
use std::time::Instant;

const THREAD_COUNTS: [usize; 2] = [1, 4];
const MAX_ROUNDS: usize = 200;

/// Deterministic degree-8 "striped" graph: client `c` is wired to the eight
/// servers `(7c + i) mod S`, `S = n/32`. No RNG, O(E) to materialise, and the
/// stride-7 offset spreads consecutive clients over distinct server runs so the
/// per-server fan-in (~256 clients, ~32 requests/round) is near-uniform — the
/// round cost stays flat while balls drain, which is what a per-round throughput
/// number wants. `S ≥ 8` keeps the eight neighbours distinct (simple graph).
fn striped_graph(n: usize) -> BipartiteGraph {
    let servers = (n / 32).max(8);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * 8);
    for c in 0..n {
        for i in 0..8 {
            edges.push((c as u32, ((c * 7 + i) % servers) as u32));
        }
    }
    BipartiteGraph::from_edges(n, servers, &edges).expect("striped edges are simple and in range")
}

/// Everything observable from one (n, threads) run: the timing plus the full
/// determinism evidence diffed across thread counts.
struct PointRun {
    rounds: usize,
    total_ms: f64,
    /// What the install scope actually granted (`rayon::current_num_threads()`
    /// inside the pool), as opposed to the requested count or the env var —
    /// recorded so multi-core CI JSONs are attributable.
    effective_threads: usize,
    records: Vec<RoundRecord>,
    result: RunResult,
    loads: Vec<u32>,
    graph: BipartiteGraph,
}

/// Builds the `n`-client striped graph and steps one simulation on it to completion
/// (or the round cap) inside a dedicated `threads`-wide pool, timing only the round
/// loop. The untimed warm-up instance spawns the pool's workers and faults in the
/// allocator paths first.
fn run_point(n: usize, warm: &BipartiteGraph, threads: usize) -> PointRun {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("stub pools always build");
    pool.install(|| {
        let mut warm_sim = build_sim(warm);
        let _ = warm_sim.run();

        let graph = striped_graph(n);
        let mut sim = build_sim(&graph);
        let mut records: Vec<RoundRecord> = Vec::with_capacity(MAX_ROUNDS);
        let start = Instant::now();
        while !sim.is_complete() && sim.round() < MAX_ROUNDS as u32 {
            records.push(sim.step());
        }
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        PointRun {
            rounds: records.len(),
            total_ms,
            effective_threads: rayon::current_num_threads(),
            records,
            result: sim.result(),
            loads: sim.server_loads().to_vec(),
            graph,
        }
    })
}

/// One ball per client against SAER with c·d = 48: total capacity 1.5n, so the
/// instance drains in a handful of rounds with every phase of `step()` loaded.
fn build_sim(graph: &BipartiteGraph) -> Simulation<'_> {
    Simulation::builder(graph)
        .protocol(ProtocolSpec::Saer { c: 24, d: 2 }.build())
        .demand(Demand::Constant(1))
        .seed(88)
        .max_rounds(MAX_ROUNDS as u32)
        .build()
}

fn main() {
    let quick = quick_mode() || std::env::args().any(|a| a == "--quick");
    let hardware_threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    // On a single hardware thread the thread-count ratio is contention noise, not
    // speedup — flag the run so JSON consumers trust only the determinism column.
    let contended = hardware_threads == 1;
    let sizes: &[usize] = if quick {
        &[100_000, 1_000_000]
    } else {
        &[100_000, 1_000_000, 10_000_000]
    };

    println!(
        "single_instance: one simulation per point, intra-round parallel step() \
         (hardware threads: {hardware_threads}, quick: {quick})"
    );
    println!();
    println!("| n | servers | threads | rounds | total (ms) | ms/round | rounds/sec |");
    println!("|---|---|---|---|---|---|---|");

    let warm = striped_graph(1 << 12);
    let mut points = String::new();
    let mut all_deterministic = true;
    for &n in sizes {
        let mut runs: Vec<(usize, PointRun)> = Vec::new();
        for &threads in &THREAD_COUNTS {
            let run = run_point(n, &warm, threads);
            let servers = run.graph.num_servers();
            let ms_per_round = run.total_ms / run.rounds.max(1) as f64;
            let rounds_per_sec = run.rounds as f64 / (run.total_ms / 1e3);
            println!(
                "| {n} | {servers} | {threads} | {} | {:.1} | {ms_per_round:.3} | {rounds_per_sec:.1} |",
                run.rounds, run.total_ms
            );
            runs.push((threads, run));
        }
        let base = &runs[0].1;
        let deterministic = runs.iter().all(|(_, r)| {
            r.graph == base.graph
                && r.records == base.records
                && r.result == base.result
                && r.loads == base.loads
        });
        all_deterministic &= deterministic;
        println!("| {n} |  |  |  |  |  | bit-identical: {deterministic} |");
        for (threads, run) in &runs {
            let servers = run.graph.num_servers();
            let ms_per_round = run.total_ms / run.rounds.max(1) as f64;
            let rounds_per_sec = run.rounds as f64 / (run.total_ms / 1e3);
            points.push_str(&format!(
                "    {{ \"n\": {n}, \"servers\": {servers}, \"threads\": {threads}, \
                 \"effective_threads\": {}, \"rounds\": {}, \
                 \"total_ms\": {:.1}, \"ms_per_round\": {ms_per_round:.3}, \
                 \"rounds_per_sec\": {rounds_per_sec:.1}, \"deterministic\": {deterministic} }},\n",
                run.effective_threads, run.rounds, run.total_ms
            ));
        }
    }
    let points = points.trim_end_matches(",\n").to_string();

    assert!(
        all_deterministic,
        "a single instance diverged across thread counts — intra-round determinism contract broken"
    );

    // Two-level leg: grid-level parallelism (an outer drive over several sims, the
    // scenario runner's shape) combined with forced intra-step piece parallelism in
    // every round. Under the work-stealing pool the inner drives push tokens onto
    // the worker stepping that sim, and idle workers steal them — both levels run
    // at once. The verdict diffs every record, result and load vector against the
    // 1-thread baseline.
    let nested_deterministic = {
        let graph = striped_graph(1 << 14);
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("stub pools always build")
                .install(|| {
                    (0..4u64)
                        .into_par_iter()
                        .map(|seed| {
                            let mut sim = Simulation::builder(&graph)
                                .protocol(ProtocolSpec::Saer { c: 24, d: 2 }.build())
                                .demand(Demand::Constant(1))
                                .seed(88 + seed)
                                .max_rounds(MAX_ROUNDS as u32)
                                .intra_step_pieces(8)
                                .build();
                            let mut records: Vec<RoundRecord> = Vec::new();
                            while !sim.is_complete() && sim.round() < MAX_ROUNDS as u32 {
                                records.push(sim.step());
                            }
                            (records, sim.result(), sim.server_loads().to_vec())
                        })
                        .collect::<Vec<_>>()
                })
        };
        run(1) == run(4)
    };
    println!();
    println!("nested two-level (grid x intra-step): bit-identical: {nested_deterministic}");
    assert!(
        nested_deterministic,
        "two-level runs diverged from the sequential baseline — work-stealing broke determinism"
    );

    // Scheduler diagnostics, cumulative over every leg above (greppable by CI).
    let stats = rayon::pool_stats();
    println!(
        "pool: workers={} tasks={} steals={}/{} parks={}",
        stats.workers,
        stats.tasks_executed,
        stats.steals_succeeded,
        stats.steals_attempted,
        stats.parks
    );

    let json = format!(
        "{{\n  \"bench\": \"single_instance\",\n  \"graph\": \"striped degree-8, servers = n/32\",\n  \"protocol\": \"SAER c=24 d=2, demand 1\",\n  \"hardware_threads\": {hardware_threads},\n  \"contended\": {contended},\n  \"quick\": {quick},\n  \"nested_two_level_deterministic\": {nested_deterministic},\n  \"pool_workers\": {},\n  \"tasks\": {},\n  \"steals\": {},\n  \"steals_attempted\": {},\n  \"parks\": {},\n  \"points\": [\n{points}\n  ]\n}}\n",
        stats.workers,
        stats.tasks_executed,
        stats.steals_succeeded,
        stats.steals_attempted,
        stats.parks
    );
    std::fs::write("BENCH_single_instance.json", &json).expect("write BENCH_single_instance.json");
    println!("\nwrote BENCH_single_instance.json:\n{json}");
    println!("single_instance: deterministic: true at every (n, threads) point");
}
