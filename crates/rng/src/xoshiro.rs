//! Xoshiro256++: the workhorse generator behind every per-entity stream.
//!
//! Xoshiro256++ (Blackman & Vigna, 2019) has 256 bits of state, passes BigCrush, and is
//! extremely fast — a handful of ALU operations per output word. We seed its four state
//! words from [`SplitMix64`], as recommended by the authors, so a single 64-bit key is
//! enough to start a stream.

use crate::{splitmix::SplitMix64, RandomSource};
use serde::{Deserialize, Serialize};

/// A Xoshiro256++ generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Creates a generator from a 64-bit seed by expanding it with SplitMix64.
    ///
    /// The state is guaranteed to be non-zero (an all-zero state is a fixed point of
    /// the xoshiro transition and must never be used).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        loop {
            for word in &mut s {
                *word = sm.next_u64();
            }
            if s.iter().any(|&w| w != 0) {
                break;
            }
        }
        Self { s }
    }

    /// Creates a generator directly from four state words. Panics if all are zero.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro state must not be all-zero"
        );
        Self { s }
    }

    /// Returns the current state words.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// The `jump` function: advances the stream by 2^128 steps.
    ///
    /// Calling `jump` on copies of the same generator yields 2^128 non-overlapping
    /// subsequences, which is an alternative way to create parallel streams when a
    /// hash-derived key (the default in this crate) is not desirable.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180EC6D33CFD0ABA,
            0xD5A61266F0C9392C,
            0xA9582618E03FC9AA,
            0x39ABDC4529B1661C,
        ];
        let mut acc = [0u64; 4];
        for &word in &JUMP {
            for bit in 0..64 {
                if (word & (1u64 << bit)) != 0 {
                    for (a, s) in acc.iter_mut().zip(self.s.iter()) {
                        *a ^= s;
                    }
                }
                let _ = self.next_u64();
            }
        }
        self.s = acc;
    }
}

/// The output function: the next word, read from state words 0 and 3 alone.
#[inline]
pub(crate) fn output(s: &[u64; 4]) -> u64 {
    s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0])
}

/// The state transition that follows every output.
#[inline]
pub(crate) fn advance(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

impl RandomSource for Xoshiro256PlusPlus {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = output(&self.s);
        advance(&mut self.s);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector from the public-domain reference implementation, with the state
    /// initialised to [1, 2, 3, 4].
    #[test]
    fn matches_reference_vector() {
        let mut g = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]);
        let expected: [u64; 6] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        for &e in &expected {
            assert_eq!(g.next_u64(), e);
        }
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn all_zero_state_rejected() {
        let _ = Xoshiro256PlusPlus::from_state([0; 4]);
    }

    #[test]
    fn seeding_never_produces_zero_state() {
        for seed in 0..256 {
            let g = Xoshiro256PlusPlus::new(seed);
            assert!(g.state().iter().any(|&w| w != 0));
        }
    }

    #[test]
    fn jump_produces_disjoint_prefixes() {
        let base = Xoshiro256PlusPlus::new(2024);
        let mut a = base;
        let mut b = base;
        b.jump();
        let a_out: Vec<u64> = (0..512).map(|_| a.next_u64()).collect();
        let b_out: Vec<u64> = (0..512).map(|_| b.next_u64()).collect();
        // The jumped stream must not share a long prefix with the original.
        assert_ne!(a_out, b_out);
        let common = a_out.iter().zip(&b_out).filter(|(x, y)| x == y).count();
        assert!(common < 8, "suspiciously many identical outputs: {common}");
    }

    #[test]
    fn deterministic_replay() {
        let mut a = Xoshiro256PlusPlus::new(5);
        let mut b = Xoshiro256PlusPlus::new(5);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn mean_of_unit_draws_is_near_half() {
        let mut g = Xoshiro256PlusPlus::new(31337);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| g.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }
}
