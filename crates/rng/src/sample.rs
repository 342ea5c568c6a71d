//! Sampling utilities built on [`RandomSource`].
//!
//! Everything the graph generators and protocols need: uniform index selection (already
//! on the trait), Fisher-Yates shuffles, Floyd's distinct-subset sampling, reservoir
//! sampling, Bernoulli/geometric/binomial draws, and an alias table for arbitrary
//! discrete distributions (used by the skewed-degree graph generators).

use crate::RandomSource;

/// Shuffles `slice` in place with the Fisher-Yates algorithm.
pub fn shuffle<T, R: RandomSource>(slice: &mut [T], rng: &mut R) {
    let n = slice.len();
    if n < 2 {
        return;
    }
    for i in (1..n).rev() {
        let j = rng.gen_index(i + 1);
        slice.swap(i, j);
    }
}

/// Samples `k` distinct values from `0..n` using Floyd's algorithm.
///
/// Runs in `O(k)` expected time and `O(k)` space regardless of `n`. The returned vector
/// is in insertion order (not sorted, not uniform-random order). Panics if `k > n`.
pub fn floyd_sample<R: RandomSource>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    assert!(
        k <= n,
        "cannot sample {k} distinct values from a universe of {n}"
    );
    // For small universes a partial Fisher-Yates is cheaper and avoids the hash set.
    if k * 4 >= n {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + rng.gen_index(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        return all;
    }
    // Membership-only collision check; `out` preserves the draw order.
    // clb-audit: allow(unordered-collection) -- membership-only collision check
    let mut chosen = std::collections::HashSet::with_capacity(k * 2);
    let mut out = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_index(j + 1);
        let pick = if chosen.contains(&t) { j } else { t };
        chosen.insert(pick);
        out.push(pick);
    }
    out
}

/// Samples two *distinct* indices uniformly from `0..n`. Panics if `n < 2`.
///
/// This is the "choose a pair of servers" primitive of the sequential Greedy baseline
/// (Kenthapadi–Panigrahy).
pub fn sample_distinct_pair<R: RandomSource>(n: usize, rng: &mut R) -> (usize, usize) {
    assert!(
        n >= 2,
        "need at least two elements to sample a distinct pair"
    );
    let a = rng.gen_index(n);
    let mut b = rng.gen_index(n - 1);
    if b >= a {
        b += 1;
    }
    (a, b)
}

/// Reservoir-samples `k` items from an iterator of unknown length (Algorithm R).
///
/// Returns fewer than `k` items if the iterator is shorter than `k`.
pub fn reservoir_sample<T, I, R>(iter: I, k: usize, rng: &mut R) -> Vec<T>
where
    I: IntoIterator<Item = T>,
    R: RandomSource,
{
    let mut reservoir: Vec<T> = Vec::with_capacity(k);
    if k == 0 {
        return reservoir;
    }
    for (i, item) in iter.into_iter().enumerate() {
        if i < k {
            reservoir.push(item);
        } else {
            let j = rng.gen_index(i + 1);
            if j < k {
                reservoir[j] = item;
            }
        }
    }
    reservoir
}

/// A Bernoulli draw with fixed success probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli distribution; finite `p` is clamped into `[0, 1]`.
    ///
    /// # Panics
    /// Panics on a non-finite `p`: `f64::clamp` passes NaN straight through, so a
    /// NaN probability would silently skew every draw instead of erroring.
    pub fn new(p: f64) -> Self {
        assert!(
            p.is_finite(),
            "bernoulli success probability must be finite, got {p}"
        );
        Self {
            p: p.clamp(0.0, 1.0),
        }
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Draws one sample.
    pub fn sample<R: RandomSource>(&self, rng: &mut R) -> bool {
        rng.gen_bool(self.p)
    }
}

/// A geometric distribution counting the number of failures before the first success.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
    /// `(1 - p).ln()`, the denominator of every sample.
    ln_q: f64,
}

impl Geometric {
    /// Creates a geometric distribution with success probability `p` in `(0, 1]`.
    ///
    /// # Panics
    /// Panics on `p` outside `(0, 1]` — including NaN, which fails the range check
    /// but deserves its own message so the caller sees *what* was wrong.
    pub fn new(p: f64) -> Self {
        assert!(
            p.is_finite(),
            "geometric success probability must be finite, got {p}"
        );
        assert!(
            p > 0.0 && p <= 1.0,
            "geometric success probability must be in (0,1]"
        );
        Self {
            p,
            ln_q: (1.0 - p).ln(),
        }
    }

    /// Draws one sample via inversion: `floor(ln U / ln(1-p))`.
    pub fn sample<R: RandomSource>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 0;
        }
        let u = loop {
            let u = rng.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        (u.ln() / self.ln_q).floor() as u64
    }
}

/// A binomial distribution `Bin(n, p)`.
///
/// Sampling is exact. With `q = min(p, 1-p)`, it counts the geometric waiting times
/// between successes while `n·q < 64`, `n·q + 1` draws expected; above that it sums
/// `n` Bernoulli draws directly, `O(n)` — fine for the simulator's workload sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates a binomial distribution; finite `p` is clamped into `[0, 1]`.
    ///
    /// # Panics
    /// Panics on a non-finite `p`: `f64::clamp` passes NaN straight through, so a
    /// NaN probability would silently skew sampling instead of erroring.
    pub fn new(n: u64, p: f64) -> Self {
        assert!(
            p.is_finite(),
            "binomial success probability must be finite, got {p}"
        );
        Self {
            n,
            p: p.clamp(0.0, 1.0),
        }
    }

    /// Draws one sample.
    pub fn sample<R: RandomSource>(&self, rng: &mut R) -> u64 {
        if self.p <= 0.0 || self.n == 0 {
            return 0;
        }
        if self.p >= 1.0 {
            return self.n;
        }
        // Work with q = min(p, 1-p) and mirror at the end.
        let flipped = self.p > 0.5;
        let q = if flipped { 1.0 - self.p } else { self.p };
        let count = if (self.n as f64) * q < 64.0 {
            // Geometric-gaps method: expected number of iterations is n*q + 1.
            let geo = Geometric::new(q);
            let mut successes = 0u64;
            let mut position = 0u64;
            loop {
                let gap = geo.sample(rng);
                position = position.saturating_add(gap).saturating_add(1);
                if position > self.n {
                    break;
                }
                successes += 1;
            }
            successes
        } else {
            // Direct summation: one Bernoulli draw per trial, O(n).
            let mut successes = 0u64;
            for _ in 0..self.n {
                if rng.gen_bool(q) {
                    successes += 1;
                }
            }
            successes
        };
        if flipped {
            self.n - count
        } else {
            count
        }
    }
}

/// A Poisson distribution with rate `lambda`.
///
/// Sampling uses Knuth's multiplication method (expected `O(lambda)` uniforms per
/// draw, in chunks of 16 so `e^-lambda` never underflows), exact and allocation-free.
/// Online workloads draw one count per round, so even a rate of thousands of balls
/// per round costs far less than routing those balls does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with rate `lambda >= 0`.
    ///
    /// # Panics
    /// Panics on a non-finite or negative rate.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "poisson rate must be finite and non-negative, got {lambda}"
        );
        Self { lambda }
    }

    /// Rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Draws one sample.
    pub fn sample<R: RandomSource>(&self, rng: &mut R) -> u64 {
        if self.lambda <= 0.0 {
            return 0;
        }
        // Knuth: multiply uniforms until the product drops below e^-lambda. For
        // large rates, split into chunks of 16 so e^-lambda never underflows.
        let mut remaining = self.lambda;
        let mut count = 0u64;
        while remaining > 0.0 {
            let chunk = remaining.min(16.0);
            remaining -= chunk;
            let threshold = (-chunk).exp();
            let mut product = 1.0f64;
            loop {
                product *= rng.next_f64();
                if product <= threshold {
                    break;
                }
                count += 1;
            }
        }
        count
    }
}

/// Walker's alias method for sampling from an arbitrary discrete distribution in O(1).
pub mod alias {
    use crate::RandomSource;

    /// A pre-built alias table over `weights.len()` outcomes.
    #[derive(Debug, Clone)]
    pub struct AliasTable {
        prob: Vec<f64>,
        alias: Vec<usize>,
    }

    impl AliasTable {
        /// Builds the table from non-negative weights (not necessarily normalised).
        ///
        /// Panics if the weights are empty, contain a negative/NaN entry, or all weights
        /// are zero.
        pub fn new(weights: &[f64]) -> Self {
            assert!(
                !weights.is_empty(),
                "alias table needs at least one outcome"
            );
            assert!(
                weights.iter().all(|w| w.is_finite() && *w >= 0.0),
                "alias table weights must be finite and non-negative"
            );
            let total: f64 = weights.iter().sum();
            assert!(
                total > 0.0,
                "alias table needs at least one positive weight"
            );
            let n = weights.len();
            let scale = n as f64 / total;
            let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
            let mut alias = vec![0usize; n];
            let mut small: Vec<usize> = Vec::new();
            let mut large: Vec<usize> = Vec::new();
            for (i, &p) in prob.iter().enumerate() {
                if p < 1.0 {
                    small.push(i);
                } else {
                    large.push(i);
                }
            }
            while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
                small.pop();
                alias[s] = l;
                prob[l] = (prob[l] + prob[s]) - 1.0;
                if prob[l] < 1.0 {
                    large.pop();
                    small.push(l);
                }
            }
            // Remaining entries are 1 up to floating point error.
            for &i in small.iter().chain(large.iter()) {
                prob[i] = 1.0;
            }
            Self { prob, alias }
        }

        /// Number of outcomes.
        pub fn len(&self) -> usize {
            self.prob.len()
        }

        /// True if the table has no outcomes (never true for a constructed table).
        pub fn is_empty(&self) -> bool {
            self.prob.is_empty()
        }

        /// Draws one outcome index.
        pub fn sample<R: RandomSource>(&self, rng: &mut R) -> usize {
            let i = rng.gen_index(self.prob.len());
            if rng.next_f64() < self.prob[i] {
                i
            } else {
                self.alias[i]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn rng() -> SplitMix64 {
        SplitMix64::new(0xDEADBEEF)
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = rng();
        let mut v: Vec<u32> = (0..100).collect();
        shuffle(&mut v, &mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffle_handles_tiny_slices() {
        let mut r = rng();
        let mut empty: Vec<u8> = vec![];
        shuffle(&mut empty, &mut r);
        let mut single = vec![42];
        shuffle(&mut single, &mut r);
        assert_eq!(single, vec![42]);
    }

    #[test]
    fn shuffle_actually_permutes_most_of_the_time() {
        let mut r = rng();
        let original: Vec<u32> = (0..64).collect();
        let mut unchanged = 0;
        for _ in 0..50 {
            let mut v = original.clone();
            shuffle(&mut v, &mut r);
            if v == original {
                unchanged += 1;
            }
        }
        assert!(
            unchanged <= 1,
            "shuffle left the slice untouched {unchanged}/50 times"
        );
    }

    #[test]
    fn floyd_sample_is_distinct_and_in_range() {
        let mut r = rng();
        for (n, k) in [(10, 10), (100, 5), (1000, 999), (1, 0), (50, 25)] {
            let s = floyd_sample(n, k, &mut r);
            assert_eq!(s.len(), k);
            assert!(s.iter().all(|&x| x < n));
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "duplicates in sample of {k} from {n}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn floyd_sample_rejects_oversized_k() {
        let mut r = rng();
        let _ = floyd_sample(3, 4, &mut r);
    }

    #[test]
    fn floyd_sample_covers_the_universe() {
        // Every element should appear in some sample over many repetitions.
        let mut r = rng();
        let n = 20;
        let mut seen = vec![false; n];
        for _ in 0..500 {
            for x in floyd_sample(n, 3, &mut r) {
                seen[x] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn distinct_pair_is_distinct() {
        let mut r = rng();
        for _ in 0..10_000 {
            let (a, b) = sample_distinct_pair(7, &mut r);
            assert_ne!(a, b);
            assert!(a < 7 && b < 7);
        }
        let (a, b) = sample_distinct_pair(2, &mut r);
        assert_ne!(a, b);
    }

    #[test]
    fn reservoir_sample_sizes() {
        let mut r = rng();
        assert_eq!(reservoir_sample(0..100, 10, &mut r).len(), 10);
        assert_eq!(reservoir_sample(0..5, 10, &mut r).len(), 5);
        assert!(reservoir_sample(0..100, 0, &mut r).is_empty());
    }

    #[test]
    fn reservoir_sample_is_roughly_uniform() {
        let mut r = rng();
        let n = 20usize;
        let k = 5usize;
        let reps = 20_000;
        let mut counts = vec![0u32; n];
        for _ in 0..reps {
            for x in reservoir_sample(0..n, k, &mut r) {
                counts[x] += 1;
            }
        }
        let expected = (reps * k) as f64 / n as f64;
        for &c in &counts {
            assert!(((c as f64 - expected) / expected).abs() < 0.08);
        }
    }

    #[test]
    fn bernoulli_mean_matches() {
        let mut r = rng();
        let b = Bernoulli::new(0.3);
        let n = 100_000;
        let hits = (0..n).filter(|_| b.sample(&mut r)).count();
        let mean = hits as f64 / n as f64;
        assert!((mean - 0.3).abs() < 0.01);
        assert_eq!(Bernoulli::new(1.5).p(), 1.0);
    }

    #[test]
    fn geometric_mean_matches() {
        let mut r = rng();
        let p = 0.25;
        let g = Geometric::new(p);
        let n = 100_000;
        let total: u64 = (0..n).map(|_| g.sample(&mut r)).sum();
        let mean = total as f64 / n as f64;
        let expected = (1.0 - p) / p; // failures before first success
        assert!(
            (mean - expected).abs() < 0.1,
            "mean {mean} vs expected {expected}"
        );
        assert_eq!(Geometric::new(1.0).sample(&mut r), 0);
    }

    #[test]
    fn geometric_cached_log_matches_the_formula() {
        // The reference: `ln(1 - p)` recomputed on every draw.
        fn uncached<R: RandomSource>(p: f64, rng: &mut R) -> u64 {
            if p >= 1.0 {
                return 0;
            }
            let u = loop {
                let u = rng.next_f64();
                if u > 0.0 {
                    break u;
                }
            };
            (u.ln() / (1.0 - p).ln()).floor() as u64
        }
        for p in [0.05, 0.25, 0.9, 1.0] {
            let g = Geometric::new(p);
            let mut a = rng();
            let mut b = rng();
            for draw in 0..1 << 18 {
                assert_eq!(g.sample(&mut a), uncached(p, &mut b), "p {p}, draw {draw}");
            }
        }
    }

    #[test]
    fn binomial_mean_and_bounds() {
        let mut r = rng();
        for (n, p) in [(50u64, 0.1), (200, 0.5), (1000, 0.9), (10, 0.0), (10, 1.0)] {
            let b = Binomial::new(n, p);
            let reps = 20_000;
            let mut total = 0u64;
            for _ in 0..reps {
                let x = b.sample(&mut r);
                assert!(x <= n);
                total += x;
            }
            let mean = total as f64 / reps as f64;
            let expected = n as f64 * p;
            let sigma = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (mean - expected).abs() <= 4.0 * sigma.max(0.02),
                "Bin({n},{p}): mean {mean} vs {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bernoulli success probability must be finite")]
    fn bernoulli_rejects_nan() {
        let _ = Bernoulli::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "bernoulli success probability must be finite")]
    fn bernoulli_rejects_infinity() {
        let _ = Bernoulli::new(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "geometric success probability must be finite")]
    fn geometric_rejects_nan() {
        let _ = Geometric::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "binomial success probability must be finite")]
    fn binomial_rejects_nan() {
        let _ = Binomial::new(10, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "binomial success probability must be finite")]
    fn binomial_rejects_negative_infinity() {
        let _ = Binomial::new(10, f64::NEG_INFINITY);
    }

    #[test]
    fn finite_out_of_range_p_still_clamps() {
        // The finite-clamping contract predates the NaN fix and must survive it.
        assert_eq!(Bernoulli::new(-0.5).p(), 0.0);
        assert_eq!(Bernoulli::new(1.5).p(), 1.0);
        let mut r = rng();
        assert_eq!(Binomial::new(5, 2.0).sample(&mut r), 5);
        assert_eq!(Binomial::new(5, -1.0).sample(&mut r), 0);
    }

    #[test]
    fn poisson_mean_matches() {
        let mut r = rng();
        for lambda in [0.5f64, 3.0, 40.0] {
            let p = Poisson::new(lambda);
            let reps = 20_000;
            let total: u64 = (0..reps).map(|_| p.sample(&mut r)).sum();
            let mean = total as f64 / reps as f64;
            let sigma = lambda.sqrt();
            assert!(
                (mean - lambda).abs() <= 4.0 * sigma / (reps as f64).sqrt() + 0.05,
                "Poisson({lambda}): mean {mean}"
            );
        }
        assert_eq!(Poisson::new(0.0).sample(&mut r), 0);
        assert_eq!(Poisson::new(0.0).lambda(), 0.0);
    }

    #[test]
    #[should_panic(expected = "poisson rate must be finite and non-negative")]
    fn poisson_rejects_nan() {
        let _ = Poisson::new(f64::NAN);
    }

    #[test]
    fn alias_table_matches_weights() {
        let mut r = rng();
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = alias::AliasTable::new(&weights);
        assert_eq!(table.len(), 4);
        assert!(!table.is_empty());
        let reps = 200_000;
        let mut counts = [0u32; 4];
        for _ in 0..reps {
            counts[table.sample(&mut r)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = reps as f64 * w / total;
            let rel = (counts[i] as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "outcome {i}: {counts:?} vs expected {expected}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one positive weight")]
    fn alias_table_rejects_all_zero() {
        let _ = alias::AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn alias_table_rejects_empty() {
        let _ = alias::AliasTable::new(&[]);
    }

    #[test]
    fn cross_check_uniformity_against_independent_lcg_chisquare() {
        // Independent sanity check of gen_index uniformity. The bucket count is picked
        // by a plain LCG (Knuth's MMIX constants) that shares no state or structure
        // with the generators under test, keeping the test honest without depending on
        // this crate for the bucket choice.
        let lcg = 0x5851_F42D_4C95_7F2Du64
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0x1442_6952_1FD3_AAAD);
        let bound = 16 + (lcg >> 33) as usize % 16;
        let mut r = rng();
        let draws = 64_000;
        let mut counts = vec![0u32; bound];
        for _ in 0..draws {
            counts[r.gen_index(bound)] += 1;
        }
        let expected = draws as f64 / bound as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // dof = bound-1 ≤ 31; chi2 above 80 would be a catastrophic non-uniformity.
        assert!(
            chi2 < 80.0,
            "chi-square {chi2} too large for {bound} buckets"
        );
    }
}
