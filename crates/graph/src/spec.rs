//! Declarative topology specifications.
//!
//! Experiments are configured from data (serde-serializable structs); a [`GraphSpec`]
//! names a topology family and its parameters and can be materialised into a concrete
//! [`BipartiteGraph`] with [`GraphSpec::build`]. The experiment harness stores the spec
//! alongside the results so every measurement is reproducible from its config.

use crate::{generators, log2_squared, BipartiteGraph, Result};
use serde::{Deserialize, Serialize};

/// A serializable description of a bipartite topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GraphSpec {
    /// Δ-regular random graph with `n` clients and `n` servers (Theorem 1, regular case).
    Regular {
        /// Number of clients and servers.
        n: usize,
        /// Common degree Δ.
        delta: usize,
    },
    /// Δ-regular random graph whose degree is the canonical sparse value `⌈η·log²₂ n⌉`.
    RegularLogSquared {
        /// Number of clients and servers.
        n: usize,
        /// Degree multiplier η (Theorem 1 requires η > 0 constant; 1.0 is the default).
        eta: f64,
    },
    /// Almost-regular graph with client degrees uniform in `[min_degree, max_degree]`.
    AlmostRegular {
        /// Number of clients and servers.
        n: usize,
        /// Minimum client degree.
        min_degree: usize,
        /// Maximum client degree.
        max_degree: usize,
    },
    /// The paper's "non-extremal" skewed example (few √n-degree clients, few o(log n)
    /// degree servers).
    SkewedExample {
        /// Number of clients and servers (must be ≥ 16).
        n: usize,
    },
    /// Complete bipartite graph (the unconstrained dense setting).
    Complete {
        /// Number of clients and servers.
        n: usize,
    },
    /// Bipartite Erdős–Rényi graph with edge probability `p`.
    ErdosRenyi {
        /// Number of clients and servers.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Geometric proximity graph on the unit torus with the radius chosen so the
    /// expected degree is `expected_degree`.
    Geometric {
        /// Number of clients and servers.
        n: usize,
        /// Target expected degree.
        expected_degree: usize,
    },
    /// Trust-cluster graph: `clusters` communities, `intra_degree` in-cluster and
    /// `inter_degree` out-of-cluster edges per client.
    Clusters {
        /// Number of clients and servers.
        n: usize,
        /// Number of clusters.
        clusters: usize,
        /// In-cluster degree.
        intra_degree: usize,
        /// Out-of-cluster degree.
        inter_degree: usize,
    },
}

impl GraphSpec {
    /// Materialises the spec into a graph using `seed` for all random choices.
    pub fn build(&self, seed: u64) -> Result<BipartiteGraph> {
        match *self {
            GraphSpec::Regular { n, delta } => generators::regular_random(n, delta, seed),
            GraphSpec::RegularLogSquared { n, eta } => {
                let delta = ((log2_squared(n) as f64 * eta).ceil() as usize).clamp(1, n);
                generators::regular_random(n, delta, seed)
            }
            GraphSpec::AlmostRegular {
                n,
                min_degree,
                max_degree,
            } => generators::almost_regular(n, min_degree, max_degree, seed),
            GraphSpec::SkewedExample { n } => generators::skewed_paper_example(n, seed),
            GraphSpec::Complete { n } => generators::complete(n, n),
            GraphSpec::ErdosRenyi { n, p } => generators::erdos_renyi(n, n, p, seed),
            GraphSpec::Geometric { n, expected_degree } => {
                let radius = generators::radius_for_expected_degree(n, expected_degree);
                generators::geometric_proximity(n, radius, seed)
            }
            GraphSpec::Clusters {
                n,
                clusters,
                intra_degree,
                inter_degree,
            } => generators::trust_clusters(n, clusters, intra_degree, inter_degree, seed),
        }
    }

    /// A string that identifies this spec (variant plus every parameter), for use as a
    /// cache key: for the finite, non-signed-zero parameters experiments actually use,
    /// two specs produce the same key exactly when they compare equal, so
    /// `(cache_key, seed)` identifies the graph [`GraphSpec::build`] returns.
    ///
    /// The experiment runner keys its graph cache on this (`GraphSpec`
    /// deliberately does not implement `Hash`/`Eq` because of its `f64` parameters;
    /// the derived `Debug` rendering round-trips finite floats exactly). The only
    /// divergences from `PartialEq` are the f64 edge cases `-0.0` (equal to `0.0` but
    /// a distinct key — a harmless extra cache entry) and `NaN` (unequal to itself but
    /// one key — never a valid edge probability or degree multiplier).
    pub fn cache_key(&self) -> String {
        format!("{self:?}")
    }

    /// Number of clients (= number of servers) the spec will produce.
    pub fn n(&self) -> usize {
        match *self {
            GraphSpec::Regular { n, .. }
            | GraphSpec::RegularLogSquared { n, .. }
            | GraphSpec::AlmostRegular { n, .. }
            | GraphSpec::SkewedExample { n }
            | GraphSpec::Complete { n }
            | GraphSpec::ErdosRenyi { n, .. }
            | GraphSpec::Geometric { n, .. }
            | GraphSpec::Clusters { n, .. } => n,
        }
    }

    /// A short human-readable label used in experiment tables.
    pub fn label(&self) -> String {
        match *self {
            GraphSpec::Regular { n, delta } => format!("regular(n={n}, d={delta})"),
            GraphSpec::RegularLogSquared { n, eta } => format!("regular-log2(n={n}, eta={eta})"),
            GraphSpec::AlmostRegular {
                n,
                min_degree,
                max_degree,
            } => {
                format!("almost-regular(n={n}, deg=[{min_degree},{max_degree}])")
            }
            GraphSpec::SkewedExample { n } => format!("skewed(n={n})"),
            GraphSpec::Complete { n } => format!("complete(n={n})"),
            GraphSpec::ErdosRenyi { n, p } => format!("erdos-renyi(n={n}, p={p})"),
            GraphSpec::Geometric { n, expected_degree } => {
                format!("geometric(n={n}, deg~{expected_degree})")
            }
            GraphSpec::Clusters {
                n,
                clusters,
                intra_degree,
                inter_degree,
            } => {
                format!("clusters(n={n}, k={clusters}, intra={intra_degree}, inter={inter_degree})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn every_spec_variant_builds() {
        let specs = vec![
            GraphSpec::Regular { n: 64, delta: 8 },
            GraphSpec::RegularLogSquared { n: 64, eta: 1.0 },
            GraphSpec::AlmostRegular {
                n: 64,
                min_degree: 8,
                max_degree: 16,
            },
            GraphSpec::SkewedExample { n: 64 },
            GraphSpec::Complete { n: 32 },
            GraphSpec::ErdosRenyi { n: 64, p: 0.25 },
            GraphSpec::Geometric {
                n: 64,
                expected_degree: 12,
            },
            GraphSpec::Clusters {
                n: 64,
                clusters: 4,
                intra_degree: 8,
                inter_degree: 2,
            },
        ];
        for spec in specs {
            let g = spec.build(1).unwrap();
            assert_eq!(g.num_clients(), spec.n(), "{}", spec.label());
            assert!(!spec.label().is_empty());
        }
    }

    #[test]
    fn regular_log_squared_uses_eta() {
        let g1 = GraphSpec::RegularLogSquared { n: 256, eta: 1.0 }
            .build(3)
            .unwrap();
        let g2 = GraphSpec::RegularLogSquared { n: 256, eta: 2.0 }
            .build(3)
            .unwrap();
        let d1 = DegreeStats::of(&g1).min_client_degree;
        let d2 = DegreeStats::of(&g2).min_client_degree;
        assert_eq!(d1, 64); // log2(256)^2 = 64
        assert_eq!(d2, 128);
    }

    #[test]
    fn labels_mention_key_parameters() {
        assert!(GraphSpec::Regular { n: 10, delta: 3 }
            .label()
            .contains("d=3"));
        assert!(GraphSpec::ErdosRenyi { n: 10, p: 0.5 }
            .label()
            .contains("0.5"));
    }

    #[test]
    fn cache_key_is_injective_over_parameters() {
        let specs = [
            GraphSpec::Regular { n: 64, delta: 8 },
            GraphSpec::Regular { n: 64, delta: 9 },
            GraphSpec::RegularLogSquared { n: 64, eta: 1.0 },
            GraphSpec::RegularLogSquared { n: 64, eta: 1.5 },
            GraphSpec::Complete { n: 64 },
            GraphSpec::ErdosRenyi { n: 64, p: 0.25 },
        ];
        for (i, a) in specs.iter().enumerate() {
            for (j, b) in specs.iter().enumerate() {
                assert_eq!(
                    a.cache_key() == b.cache_key(),
                    i == j,
                    "{} vs {}",
                    a.cache_key(),
                    b.cache_key()
                );
            }
        }
        // Equal specs share the key.
        assert_eq!(
            GraphSpec::Regular { n: 64, delta: 8 }.cache_key(),
            GraphSpec::Regular { n: 64, delta: 8 }.cache_key()
        );
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let spec = GraphSpec::AlmostRegular {
            n: 64,
            min_degree: 6,
            max_degree: 12,
        };
        assert_eq!(spec.build(9).unwrap(), spec.build(9).unwrap());
        assert_ne!(spec.build(9).unwrap(), spec.build(10).unwrap());
    }
}
