//! Regular, almost-regular and the paper's skewed example topologies.

use super::configuration::configuration_model;
use crate::{bipartite::BipartiteGraph, log2_squared, GraphError, Result};
use clb_rng::domains::DEGREE_DOMAIN;
use clb_rng::{RandomSource, StreamFactory, Xoshiro256PlusPlus};

/// Generates a Δ-regular random bipartite graph with `n` clients and `n` servers.
///
/// This is the topology of Theorem 1's regular case (Section 3): every client and every
/// server has degree exactly `delta`. Requires `1 ≤ delta ≤ n`.
pub fn regular_random(n: usize, delta: usize, seed: u64) -> Result<BipartiteGraph> {
    if n == 0 {
        return Err(GraphError::InvalidParameters("n must be positive".into()));
    }
    if delta == 0 || delta > n {
        return Err(GraphError::InvalidParameters(format!(
            "regular degree {delta} must be in 1..={n}"
        )));
    }
    let degrees = vec![delta; n];
    configuration_model(&degrees, &degrees, seed)
}

/// Generates an almost-regular bipartite graph with `n` clients and `n` servers.
///
/// Client degrees are drawn independently and uniformly from
/// `[client_min_degree, client_max_degree]`; server degrees are then chosen as evenly as
/// possible so the stub counts match, which keeps
/// `Δ_max(S) ≤ ⌈(mean client degree)⌉ + 1` and therefore
/// `ρ = Δ_max(S)/Δ_min(C) ≲ client_max_degree / client_min_degree`.
pub fn almost_regular(
    n: usize,
    client_min_degree: usize,
    client_max_degree: usize,
    seed: u64,
) -> Result<BipartiteGraph> {
    if n == 0 {
        return Err(GraphError::InvalidParameters("n must be positive".into()));
    }
    if client_min_degree == 0 || client_min_degree > client_max_degree || client_max_degree > n {
        return Err(GraphError::InvalidParameters(format!(
            "client degree range [{client_min_degree}, {client_max_degree}] must satisfy 1 <= min <= max <= n = {n}"
        )));
    }
    // One stream draws every degree, so it runs eagerly.
    let mut rng =
        Xoshiro256PlusPlus::from(StreamFactory::new(seed).domain(DEGREE_DOMAIN).stream(0, 0));
    let span = client_max_degree - client_min_degree + 1;
    let client_degrees: Vec<usize> = (0..n)
        .map(|_| client_min_degree + rng.gen_index(span))
        .collect();
    let total: usize = client_degrees.iter().sum();
    let server_degrees = balanced_degrees(total, n);
    configuration_model(&client_degrees, &server_degrees, seed)
}

/// Generates the paper's "non-extremal" almost-regular example (Section 1.2 / 2.3):
///
/// * most clients have the minimal admissible degree `⌈log²₂ n⌉`;
/// * `⌈√n⌉` "heavy" clients have degree `⌈√n⌉` (i.e. `Θ(√n)`);
/// * `⌈√n⌉` "light" servers have constant degree 2 (i.e. `o(log n)`);
/// * the remaining servers share the remaining stubs as evenly as possible, so
///   `Δ_max(S)` stays `Θ(log²n)` and the almost-regularity ratio ρ stays `O(1)`.
pub fn skewed_paper_example(n: usize, seed: u64) -> Result<BipartiteGraph> {
    if n < 64 {
        return Err(GraphError::InvalidParameters(
            "skewed example needs n >= 64 so the balanced server degrees stay feasible".into(),
        ));
    }
    let base_degree = log2_squared(n).min(n);
    let sqrt_n = (n as f64).sqrt().ceil() as usize;
    let heavy_clients = sqrt_n.min(n / 4).max(1);
    let heavy_degree = sqrt_n.clamp(base_degree, n);

    let mut client_degrees = vec![base_degree; n];
    for deg in client_degrees.iter_mut().take(heavy_clients) {
        *deg = heavy_degree;
    }

    let total: usize = client_degrees.iter().sum();
    let light_servers = sqrt_n.min(n / 4).max(1);
    let light_degree = 2usize.min(n);
    let light_total = light_servers * light_degree;
    if light_total >= total {
        return Err(GraphError::InvalidParameters(
            "degenerate parameters: light servers would absorb all stubs".into(),
        ));
    }
    let mut server_degrees = vec![0usize; n];
    for deg in server_degrees.iter_mut().take(light_servers) {
        *deg = light_degree;
    }
    let heavy_server_degrees = balanced_degrees(total - light_total, n - light_servers);
    for (slot, deg) in server_degrees
        .iter_mut()
        .skip(light_servers)
        .zip(heavy_server_degrees)
    {
        *slot = deg;
    }
    if let Some(&max_s) = server_degrees.iter().max() {
        if max_s > n {
            return Err(GraphError::InvalidParameters(format!(
                "server degree {max_s} exceeds number of clients {n}"
            )));
        }
    }
    configuration_model(&client_degrees, &server_degrees, seed)
}

/// Splits `total` stubs over `parts` slots as evenly as possible (difference ≤ 1).
fn balanced_degrees(total: usize, parts: usize) -> Vec<usize> {
    if parts == 0 {
        return Vec::new();
    }
    let base = total / parts;
    let extra = total % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn regular_graph_is_regular() {
        let g = regular_random(64, 9, 5).unwrap();
        let s = DegreeStats::of(&g);
        assert!(s.is_regular());
        assert_eq!(s.min_client_degree, 9);
        assert_eq!(s.num_edges, 64 * 9);
        assert_eq!(s.regularity_ratio(), 1.0);
    }

    #[test]
    fn regular_graph_rejects_bad_parameters() {
        assert!(regular_random(0, 1, 1).is_err());
        assert!(regular_random(8, 0, 1).is_err());
        assert!(regular_random(8, 9, 1).is_err());
    }

    #[test]
    fn regular_graph_full_degree_is_complete() {
        let g = regular_random(6, 6, 11).unwrap();
        assert_eq!(g.num_edges(), 36);
        for c in g.clients() {
            assert_eq!(g.client_degree(c), 6);
        }
    }

    #[test]
    fn almost_regular_degrees_within_range() {
        let g = almost_regular(100, 8, 16, 3).unwrap();
        let s = DegreeStats::of(&g);
        assert!(s.min_client_degree >= 8);
        assert!(s.max_client_degree <= 16);
        // Servers are balanced: spread of at most 1.
        assert!(s.max_server_degree - s.min_server_degree <= 1);
        // ρ stays close to max/min of the client range.
        assert!(s.regularity_ratio() <= 16.0 / 8.0 + 0.5);
    }

    #[test]
    fn almost_regular_parameter_validation() {
        assert!(almost_regular(0, 1, 2, 1).is_err());
        assert!(almost_regular(10, 0, 2, 1).is_err());
        assert!(almost_regular(10, 5, 3, 1).is_err());
        assert!(almost_regular(10, 5, 11, 1).is_err());
    }

    #[test]
    fn almost_regular_with_equal_bounds_is_client_regular() {
        let g = almost_regular(50, 7, 7, 9).unwrap();
        let s = DegreeStats::of(&g);
        assert_eq!(s.min_client_degree, 7);
        assert_eq!(s.max_client_degree, 7);
    }

    #[test]
    fn skewed_example_matches_paper_shape() {
        let n = 1024;
        let g = skewed_paper_example(n, 17).unwrap();
        let s = DegreeStats::of(&g);
        let base = log2_squared(n);
        // Minimum client degree is the log²n base (heavy clients only go up).
        assert_eq!(s.min_client_degree, base);
        // Heavy clients reach Θ(√n).
        assert!(s.max_client_degree >= (n as f64).sqrt() as usize);
        // Light servers have o(log n) (constant) degree.
        assert_eq!(s.min_server_degree, 2);
        // The bulk of the servers stay near log²n, so ρ is a small constant.
        assert!(
            s.regularity_ratio() <= 3.0,
            "rho = {} too large for the skewed example",
            s.regularity_ratio()
        );
        // Theorem 1 pre-conditions hold with η = 1 and ρ = 3.
        assert!(s.satisfies_theorem1(1.0, 3.0));
    }

    #[test]
    fn skewed_example_needs_minimum_size() {
        assert!(skewed_paper_example(8, 1).is_err());
        assert!(skewed_paper_example(32, 1).is_err());
        assert!(skewed_paper_example(64, 1).is_ok());
    }

    #[test]
    fn balanced_degrees_sums_and_spread() {
        let d = balanced_degrees(10, 4);
        assert_eq!(d.iter().sum::<usize>(), 10);
        assert!(d.iter().max().unwrap() - d.iter().min().unwrap() <= 1);
        assert!(balanced_degrees(5, 0).is_empty());
        assert_eq!(balanced_degrees(0, 3), vec![0, 0, 0]);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            regular_random(32, 5, 2).unwrap(),
            regular_random(32, 5, 2).unwrap()
        );
        assert_eq!(
            almost_regular(32, 4, 8, 2).unwrap(),
            almost_regular(32, 4, 8, 2).unwrap()
        );
        assert_eq!(
            skewed_paper_example(64, 2).unwrap(),
            skewed_paper_example(64, 2).unwrap()
        );
        assert_ne!(
            regular_random(32, 5, 2).unwrap(),
            regular_random(32, 5, 3).unwrap()
        );
    }
}
