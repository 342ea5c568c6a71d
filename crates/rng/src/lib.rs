//! Splittable, deterministic random number streams for the `constrained-lb` simulator.
//!
//! The protocols studied in the paper (SAER, RAES and their baselines) are *symmetric*
//! and *non-adaptive*: every client picks destination servers independently and
//! uniformly at random in every round. When the simulator executes a round in parallel
//! (one rayon task per client, or per ball), the results must not depend on which thread
//! happened to run first. We achieve this by deriving an **independent random stream per
//! logical entity and round** from a single experiment seed:
//!
//! ```text
//! stream(seed, entity_id, round) = Xoshiro256++ seeded by SplitMix64(mix(seed, entity_id, round))
//! ```
//!
//! Two executions with the same seed produce bit-identical traces regardless of the
//! number of rayon worker threads, and two distinct `(entity, round)` pairs get streams
//! that are statistically independent for all practical purposes.
//!
//! The crate deliberately implements its own small generators (SplitMix64 and
//! Xoshiro256++) instead of relying on `rand`'s: the generators are part of the
//! reproducibility contract of the simulator and must never change behaviour when a
//! dependency is upgraded. No crate in the workspace depends on `rand`; the generators'
//! tests check them against the reference vectors of the public-domain C
//! implementations instead.
//!
//! # Quick example
//!
//! ```
//! use clb_rng::{RandomSource, Stream, StreamFactory};
//!
//! let factory = StreamFactory::new(0xC0FFEE);
//! // Client 42 choosing a uniform neighbour index among 100 in round 3:
//! let mut stream: Stream = factory.stream(42, 3);
//! let idx = stream.gen_index(100);
//! assert!(idx < 100);
//! // The same (seed, entity, round) triple always yields the same draw.
//! let mut replay = StreamFactory::new(0xC0FFEE).stream(42, 3);
//! assert_eq!(replay.gen_index(100), idx);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domains;
pub mod mix;
pub mod sample;
pub mod splitmix;
pub mod stream;
pub mod xoshiro;

pub use mix::mix3;
pub use sample::{
    alias::AliasTable, floyd_sample, reservoir_sample, sample_distinct_pair, shuffle, Bernoulli,
    Binomial, Geometric, Poisson,
};
pub use splitmix::SplitMix64;
pub use stream::{Stream, StreamFactory};
pub use xoshiro::Xoshiro256PlusPlus;

/// A trait for anything that can produce uniformly distributed 64-bit words.
///
/// This is the minimal interface the sampling utilities in [`sample`] build on.
/// Both [`SplitMix64`] and [`Xoshiro256PlusPlus`] implement it.
pub trait RandomSource {
    /// Returns the next 64 bits of the stream.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    ///
    /// Uses the upper 53 bits of the next word, which yields every representable
    /// multiple of 2^-53 in the unit interval with equal probability.
    fn next_f64(&mut self) -> f64 {
        // 53 bits of mantissa precision.
        const SCALE: f64 = 1.0 / ((1u64 << 53) as f64);
        ((self.next_u64() >> 11) as f64) * SCALE
    }

    /// Returns a uniformly distributed index in `[0, bound)` using Lemire's
    /// nearly-divisionless method. `bound` must be non-zero.
    fn gen_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "gen_index bound must be positive");
        let bound = bound as u64;
        // Lemire, "Fast Random Integer Generation in an Interval" (2019).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }

    /// Returns a uniform `u64` in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "gen_range_u64: lo must not exceed hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_index((span + 1) as usize) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RandomSource for Counter {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            self.0
        }
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut c = Counter(0);
        for _ in 0..10_000 {
            let x = c.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_index_respects_bound() {
        let mut c = Counter(123);
        for bound in [1usize, 2, 3, 7, 100, 1 << 20] {
            for _ in 0..1000 {
                assert!(c.gen_index(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_index_zero_bound_panics() {
        let mut c = Counter(1);
        let _ = c.gen_index(0);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut c = Counter(7);
        assert!(c.gen_bool(1.0));
        assert!(!c.gen_bool(0.0));
        assert!(c.gen_bool(2.0));
        assert!(!c.gen_bool(-1.0));
    }

    #[test]
    fn gen_range_inclusive_bounds() {
        let mut c = Counter(99);
        for _ in 0..1000 {
            let v = c.gen_range_u64(10, 20);
            assert!((10..=20).contains(&v));
        }
        assert_eq!(c.gen_range_u64(5, 5), 5);
    }

    #[test]
    fn gen_index_is_roughly_uniform() {
        let mut c = SplitMix64::new(42);
        let bound = 10usize;
        let mut counts = vec![0u32; bound];
        let draws = 100_000;
        for _ in 0..draws {
            counts[c.gen_index(bound)] += 1;
        }
        let expected = draws as f64 / bound as f64;
        for &count in &counts {
            let rel = (count as f64 - expected).abs() / expected;
            assert!(
                rel < 0.05,
                "bucket deviates more than 5%: {count} vs {expected}"
            );
        }
    }
}
