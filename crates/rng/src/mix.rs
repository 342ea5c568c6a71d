//! Key-mixing: derive independent stream keys from (seed, entity, round) triples.
//!
//! The simulator identifies every random decision point by a small tuple — typically
//! `(experiment seed, client id, round)` or `(experiment seed, client id, ball index,
//! round)`. [`mix3`] and [`mix4`] hash such tuples into a single 64-bit key with good
//! avalanche behaviour so that "adjacent" tuples (same client, consecutive rounds) yield
//! unrelated streams.
//!
//! A [`StreamFactory`](crate::StreamFactory) fixes the first two words of every key it
//! derives, so it computes [`mix4`]'s first two scrambles once (`mix4_prefix`) and each
//! stream's key from that prefix (`mix4_with_prefix`); [`mix4`] itself is the reference
//! the split is tested against.

use crate::splitmix::SplitMix64;

/// Distinct odd constants used to separate the tuple positions before scrambling.
const C1: u64 = 0x9E3779B97F4A7C15;
const C2: u64 = 0xC2B2AE3D27D4EB4F;
const C3: u64 = 0x165667B19E3779F9;

/// Offset xored into the first word, so an all-zero tuple does not start from 0.
const SALT: u64 = 0x517C_C1B7_2722_0A95;

/// Mixes three 64-bit words into one well-scrambled 64-bit key.
///
/// The construction is three rounds of SplitMix64's finalizer interleaved with
/// position-dependent multiplications; it is *not* cryptographic, but collisions between
/// the tuples that occur in a single experiment (at most a few billion) are vanishingly
/// unlikely and, more importantly, nearby tuples produce statistically unrelated keys.
#[inline]
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut h = SplitMix64::scramble(a.wrapping_mul(C1) ^ SALT);
    h = SplitMix64::scramble(h ^ b.wrapping_mul(C2));
    h = SplitMix64::scramble(h ^ c.wrapping_mul(C3));
    h
}

/// Mixes four 64-bit words into one key. See [`mix3`].
#[inline]
pub fn mix4(a: u64, b: u64, c: u64, d: u64) -> u64 {
    SplitMix64::scramble(mix3(a, b, c) ^ d.wrapping_mul(C1))
}

/// The first two of [`mix4`]'s four scrambles, which read only `a` and `b`.
#[inline]
pub(crate) fn mix4_prefix(a: u64, b: u64) -> u64 {
    let h = SplitMix64::scramble(a.wrapping_mul(C1) ^ SALT);
    SplitMix64::scramble(h ^ b.wrapping_mul(C2))
}

/// `mix4(a, b, c, d)` given `prefix = mix4_prefix(a, b)`: the last two scrambles.
#[inline]
pub(crate) fn mix4_with_prefix(prefix: u64, c: u64, d: u64) -> u64 {
    let h = SplitMix64::scramble(prefix ^ c.wrapping_mul(C3));
    SplitMix64::scramble(h ^ d.wrapping_mul(C1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn order_matters() {
        assert_ne!(mix3(1, 2, 3), mix3(3, 2, 1));
        assert_ne!(mix3(1, 2, 3), mix3(2, 1, 3));
        assert_ne!(mix4(1, 2, 3, 4), mix4(4, 3, 2, 1));
    }

    #[test]
    fn no_collisions_on_dense_grid() {
        // All (entity, round) pairs for a small experiment must map to distinct keys.
        let mut seen = HashSet::new();
        for entity in 0..2000u64 {
            for round in 0..50u64 {
                assert!(
                    seen.insert(mix3(0xABCD, entity, round)),
                    "collision at ({entity},{round})"
                );
            }
        }
    }

    #[test]
    fn single_bit_input_change_avalanches() {
        let base = mix3(7, 11, 13);
        for bit in 0..64 {
            let flipped = mix3(7 ^ (1 << bit), 11, 13);
            let dist = (base ^ flipped).count_ones();
            assert!(dist >= 12, "weak avalanche on bit {bit}: {dist}");
        }
    }

    #[test]
    fn mix4_differs_from_mix3_extension() {
        // Appending a zero word must still change the key (domain separation).
        assert_ne!(mix4(1, 2, 3, 0), mix3(1, 2, 3));
    }
}
