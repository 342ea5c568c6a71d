//! Quickstart: run SAER on a sparse admissible topology and check the paper's claims.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a Δ = ⌈log²n⌉ regular random bipartite graph (the sparsest regime Theorem 1
//! covers), runs SAER(c = 8, d = 2) on it, and prints the three quantities the theorem
//! bounds — completion time, work, and maximum load — next to the theoretical horizons.

use clb::prelude::*;
use clb::protocols::SaerServerState;

fn main() {
    let n = 4096;
    let d = 2;
    let c = 3;

    println!("== constrained-lb quickstart ==");
    println!(
        "n = {n} clients and servers, d = {d} balls per client, SAER threshold c·d = {}",
        c * d
    );

    // 1. The topology: Δ-regular with Δ = ⌈log²n⌉ (the minimum Theorem 1 admits with η = 1).
    let delta = log2_squared(n);
    let graph = generators::regular_random(n, delta, 0xC0FFEE).expect("valid parameters");
    let stats = DegreeStats::of(&graph);
    println!("\ntopology: {stats}");
    println!(
        "theorem 1 preconditions: min degree {} >= log2(n)^2 = {} and rho = {:.2} -> {}",
        stats.min_client_degree,
        delta,
        stats.regularity_ratio(),
        if stats.satisfies_theorem1(1.0, 1.0) {
            "satisfied"
        } else {
            "NOT satisfied"
        }
    );

    // 2. Run the protocol.
    let mut sim = Simulation::builder(&graph)
        .protocol(Saer::new(c, d))
        .demand(Demand::Constant(d))
        .seed(42)
        .build();
    let result = sim.run();

    // 3. Compare with the paper's bounds.
    let horizon = completion_horizon_rounds(n);
    println!("\nrun outcome:");
    println!("  completed      : {}", result.completed);
    println!(
        "  rounds         : {} (3·log2 n = {horizon:.1})",
        result.rounds
    );
    println!(
        "  total messages : {} ({:.2} per ball; Theorem 1 predicts O(1))",
        result.total_messages,
        result.work_per_ball()
    );
    println!(
        "  max server load: {} (hard bound c·d = {})",
        result.max_load,
        c * d
    );

    let states: &[SaerServerState] = sim.server_states().expect("SAER states");
    let burned = states.iter().filter(|s| s.burned).count();
    println!("  burned servers : {burned} of {n}");

    // 4. Contrast with the one-shot baseline (servers accept everything).
    let mut baseline = Simulation::builder(&graph)
        .protocol(OneShot::new())
        .demand(Demand::Constant(d))
        .seed(42)
        .build();
    let baseline_result = baseline.run();
    println!(
        "\none-shot baseline (no threshold): max load {} vs SAER's {}",
        baseline_result.max_load, result.max_load
    );

    assert!(
        result.completed,
        "SAER must terminate on an admissible topology"
    );
    assert!(result.max_load <= c * d);
}
