//! Geometric proximity graphs: clients and servers on a metric space.
//!
//! The paper motivates constrained topologies by "clients and servers placed over a
//! metric space so that only non-random client-server interactions turn out to be
//! feasible because of proximity constraints" (Section 1.1, motivation ii). This
//! generator realises that scenario: both sides are scattered uniformly on the unit
//! torus `[0,1)²` and a client may contact exactly the servers within distance `radius`.

use crate::{bipartite::BipartiteGraph, GraphBuilder, GraphError, Result};
use clb_rng::domains::GEO_DOMAIN;
use clb_rng::{RandomSource, StreamFactory, Xoshiro256PlusPlus};

/// Returns the radius for which the *expected* client degree on the unit torus is
/// `expected_degree` when `n` servers are placed uniformly at random:
/// `π·r²·n = expected_degree`.
pub fn radius_for_expected_degree(n: usize, expected_degree: usize) -> f64 {
    assert!(n > 0, "need at least one server");
    (expected_degree as f64 / (std::f64::consts::PI * n as f64)).sqrt()
}

/// Generates a geometric proximity bipartite graph on the unit torus.
///
/// `num_clients` clients and `num_servers` servers are placed independently and
/// uniformly at random on `[0,1)²` with wrap-around distance; client `v` is connected to
/// every server within Euclidean (torus) distance `radius`.
///
/// The generated degrees concentrate around `π·radius²·num_servers`, so choosing
/// `radius = radius_for_expected_degree(num_servers, ⌈log²n⌉·k)` for a modest constant
/// `k ≥ 2` yields graphs that satisfy the Theorem 1 hypotheses with high probability.
pub fn geometric_proximity(num_clients: usize, radius: f64, seed: u64) -> Result<BipartiteGraph> {
    geometric_proximity_rect(num_clients, num_clients, radius, seed)
}

/// As [`geometric_proximity`] but with an independent number of servers.
pub fn geometric_proximity_rect(
    num_clients: usize,
    num_servers: usize,
    radius: f64,
    seed: u64,
) -> Result<BipartiteGraph> {
    if num_clients == 0 || num_servers == 0 {
        return Err(GraphError::InvalidParameters(
            "geometric graph needs at least one client and one server".into(),
        ));
    }
    if radius <= 0.0 || radius.is_nan() {
        return Err(GraphError::InvalidParameters(format!(
            "radius {radius} must be positive"
        )));
    }
    let radius = radius.min(0.5); // beyond 0.5 the torus ball covers everything anyway

    // One stream places every node, so it runs eagerly.
    let mut rng =
        Xoshiro256PlusPlus::from(StreamFactory::new(seed).domain(GEO_DOMAIN).stream(0, 0));
    let clients: Vec<(f64, f64)> = (0..num_clients)
        .map(|_| (rng.next_f64(), rng.next_f64()))
        .collect();
    let servers: Vec<(f64, f64)> = (0..num_servers)
        .map(|_| (rng.next_f64(), rng.next_f64()))
        .collect();

    // Bucket servers on a grid with cell size >= radius so only the 3x3 neighbourhood
    // of a client's cell needs to be scanned.
    let cells = ((1.0 / radius).floor() as usize).clamp(1, 1 << 12);
    let cell_of = |x: f64, y: f64| -> (usize, usize) {
        let cx = ((x * cells as f64) as usize).min(cells - 1);
        let cy = ((y * cells as f64) as usize).min(cells - 1);
        (cx, cy)
    };
    let mut grid: Vec<Vec<u32>> = vec![Vec::new(); cells * cells];
    for (i, &(x, y)) in servers.iter().enumerate() {
        let (cx, cy) = cell_of(x, y);
        grid[cy * cells + cx].push(i as u32);
    }

    let torus_dist2 = |a: (f64, f64), b: (f64, f64)| -> f64 {
        let dx = (a.0 - b.0).abs();
        let dy = (a.1 - b.1).abs();
        let dx = dx.min(1.0 - dx);
        let dy = dy.min(1.0 - dy);
        dx * dx + dy * dy
    };

    let r2 = radius * radius;
    let mut builder = GraphBuilder::deduplicating(num_clients, num_servers);
    for (c, &pos) in clients.iter().enumerate() {
        let (cx, cy) = cell_of(pos.0, pos.1);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let gx = (cx as i64 + dx).rem_euclid(cells as i64) as usize;
                let gy = (cy as i64 + dy).rem_euclid(cells as i64) as usize;
                for &s in &grid[gy * cells + gx] {
                    if torus_dist2(pos, servers[s as usize]) <= r2 {
                        builder.add_edge(c, s as usize)?;
                    }
                }
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn radius_formula_inverts_area() {
        let r = radius_for_expected_degree(1000, 50);
        let expected = std::f64::consts::PI * r * r * 1000.0;
        assert!((expected - 50.0).abs() < 1e-9);
    }

    #[test]
    fn degrees_concentrate_around_expectation() {
        let n = 2000;
        let target = 60;
        let r = radius_for_expected_degree(n, target);
        let g = geometric_proximity(n, r, 11).unwrap();
        let s = DegreeStats::of(&g);
        assert!(
            (s.mean_client_degree - target as f64).abs() < 0.2 * target as f64,
            "mean degree {} too far from {}",
            s.mean_client_degree,
            target
        );
    }

    #[test]
    fn small_radius_gives_sparse_graph_large_radius_gives_dense() {
        let n = 300;
        let sparse = geometric_proximity(n, 0.01, 5).unwrap();
        let dense = geometric_proximity(n, 0.45, 5).unwrap();
        assert!(sparse.num_edges() < dense.num_edges());
        // radius 0.45 on the torus covers ~64% of the area, so most pairs are edges.
        assert!(dense.num_edges() > (n * n) / 2);
    }

    #[test]
    fn parameter_validation() {
        assert!(geometric_proximity(0, 0.1, 1).is_err());
        assert!(geometric_proximity(10, 0.0, 1).is_err());
        assert!(geometric_proximity(10, -0.5, 1).is_err());
        assert!(geometric_proximity(10, f64::NAN, 1).is_err());
    }

    #[test]
    fn deterministic_in_seed() {
        let a = geometric_proximity(200, 0.08, 9).unwrap();
        let b = geometric_proximity(200, 0.08, 9).unwrap();
        let c = geometric_proximity(200, 0.08, 10).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rect_variant_supports_unequal_sides() {
        let g = geometric_proximity_rect(100, 400, 0.1, 3).unwrap();
        assert_eq!(g.num_clients(), 100);
        assert_eq!(g.num_servers(), 400);
    }

    #[test]
    fn wraparound_edges_exist() {
        // With a radius of 0.3 and many points, some neighbourhoods must cross the
        // torus boundary; the graph must still be symmetric and valid (checked by the
        // builder), and every client should have at least one neighbour.
        let g = geometric_proximity(500, 0.3, 21).unwrap();
        assert!(!g.has_isolated_client());
    }
}
