//! Per-entity, per-round random streams.
//!
//! A [`StreamFactory`] holds the experiment seed; [`StreamFactory::stream`] derives an
//! independent [`Stream`] for any `(entity, round)` pair, and
//! [`StreamFactory::stream3`] for `(entity, sub_entity, round)` triples (e.g. one stream
//! per ball of a client). The engine re-derives streams on demand inside parallel loops
//! instead of storing them, so deriving one is kept cheap: the factory holds the half of
//! the key that reads only `(seed, domain)`, leaving 2 SplitMix scrambles per key, and a
//! stream seeds lazily, 2 more scrambles for its first word and 2 more on its second.
//! A stream that feeds a long loop converts once into the eager
//! [`Xoshiro256PlusPlus`] at the same position, which reads each word without the
//! lazy stream's state check.

use crate::mix::{mix4_prefix, mix4_with_prefix};
use crate::splitmix::{SplitMix64, GOLDEN_GAMMA};
use crate::xoshiro::{advance, output, Xoshiro256PlusPlus};
use crate::RandomSource;
use serde::{Deserialize, Serialize};

/// SplitMix64 output `i` (1-based) for `key`: xoshiro seeding word `i - 1`.
#[inline]
fn seed_word(key: u64, i: u64) -> u64 {
    SplitMix64::scramble(key.wrapping_add(GOLDEN_GAMMA.wrapping_mul(i)))
}

/// How far a [`Stream`]'s lazy seeding has got.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Seeding {
    /// No word read; state words 0 and 3 are seeded.
    Fresh,
    /// One word read; the transition after it is deferred.
    Deferred,
    /// The full state is seeded and current, as in the eager generator.
    Full,
}

/// A single deterministic random stream: Xoshiro256++ seeded from a 64-bit key, lazily.
///
/// Xoshiro256++'s first output reads only state words 0 and 3, which are SplitMix64
/// outputs 1 and 4 of the key. A fresh stream computes just those two. Its first word
/// defers the state transition; the second derives words 1 and 2, applies the deferred
/// transition and steps on as the eager generator does. Every word equals
/// [`Xoshiro256PlusPlus::new`]'s for the same key: that constructor's all-zero retry
/// never fires, because SplitMix64's finaliser is a bijection that maps only 0 to 0 and
/// the four counters it scrambles are distinct, so at most one seeded word is 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stream {
    /// Xoshiro256++ state; words 1 and 2 are 0 until the seeding is [`Seeding::Full`].
    s: [u64; 4],
    key: u64,
    seeding: Seeding,
}

impl Stream {
    /// Creates a stream directly from a 64-bit key.
    #[inline]
    pub fn from_key(key: u64) -> Self {
        Self {
            s: [seed_word(key, 1), 0, 0, seed_word(key, 4)],
            key,
            seeding: Seeding::Fresh,
        }
    }

    /// Completes the seeding: derives state words 1 and 2 and applies a deferred
    /// transition, leaving the full state at the stream's position.
    fn seed_fully(&mut self) {
        if self.seeding == Seeding::Full {
            return;
        }
        self.s[1] = seed_word(self.key, 2);
        self.s[2] = seed_word(self.key, 3);
        if self.seeding == Seeding::Deferred {
            advance(&mut self.s);
        }
        self.seeding = Seeding::Full;
    }

    /// The second word: the only read that completes the seeding.
    #[cold]
    #[inline(never)]
    fn second_word(&mut self) -> u64 {
        self.seed_fully();
        self.next_u64()
    }
}

impl RandomSource for Stream {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        match self.seeding {
            Seeding::Fresh => {
                self.seeding = Seeding::Deferred;
                output(&self.s)
            }
            Seeding::Deferred => self.second_word(),
            Seeding::Full => {
                let word = output(&self.s);
                advance(&mut self.s);
                word
            }
        }
    }
}

impl From<Stream> for Xoshiro256PlusPlus {
    /// The eager generator at the stream's position: it yields the words the stream
    /// would yield next. Convert a stream that feeds a long loop.
    fn from(mut stream: Stream) -> Self {
        stream.seed_fully();
        Xoshiro256PlusPlus::from_state(stream.s)
    }
}

/// Derives independent [`Stream`]s from a single experiment seed.
///
/// The factory is `Copy` and trivially shareable across rayon tasks; deriving a stream
/// does not mutate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamFactory {
    seed: u64,
    /// Domain tag separating different *uses* of the same seed (e.g. graph generation
    /// vs. protocol execution) so they never share streams.
    domain: u64,
    /// `mix4_prefix(seed, domain)`: the half of every key this factory derives that
    /// does not depend on the stream.
    prefix: u64,
}

impl StreamFactory {
    /// Creates a factory for the given experiment seed in the default domain.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            domain: 0,
            prefix: mix4_prefix(seed, 0),
        }
    }

    /// Returns a factory with the same seed but a different domain tag.
    ///
    /// Use one domain per independent subsystem (graph generator, each protocol run,
    /// workload generator, ...) so that reusing the experiment seed across subsystems
    /// never correlates their choices.
    pub fn domain(&self, domain: u64) -> Self {
        Self {
            seed: self.seed,
            domain,
            prefix: mix4_prefix(self.seed, domain),
        }
    }

    /// The experiment seed this factory was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives the stream for `(entity, round)`: key `mix4(seed, domain, entity, round)`.
    #[inline]
    pub fn stream(&self, entity: u64, round: u64) -> Stream {
        Stream::from_key(mix4_with_prefix(self.prefix, entity, round))
    }

    /// Derives the stream for `(entity, sub_entity, round)`; e.g. one stream per ball.
    #[inline]
    pub fn stream3(&self, entity: u64, sub_entity: u64, round: u64) -> Stream {
        let folded = entity.rotate_left(32) ^ sub_entity.wrapping_mul(0xA24BAED4963EE407);
        Stream::from_key(mix4_with_prefix(self.prefix, folded, round))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::mix4;

    /// Reads `words` words from `lazy` and from the eager generator seeded with `key`.
    fn assert_same_words(mut lazy: Stream, key: u64, words: usize) {
        let mut eager = Xoshiro256PlusPlus::new(key);
        for word in 0..words {
            assert_eq!(
                lazy.next_u64(),
                eager.next_u64(),
                "key {key:#x}, word {word}"
            );
        }
    }

    #[test]
    fn lazy_streams_equal_the_eager_generator() {
        let (seed, domain) = (0x5EED, 0x666C_7473);
        let f = StreamFactory::new(seed).domain(domain);
        // 2^20 keys from each of `stream` and `stream3`, a quarter each read for 1, 2,
        // 3 and 8 words.
        for entity in 0..1u64 << 18 {
            for (round, words) in [1, 2, 3, 8].into_iter().enumerate() {
                let round = round as u64;
                let key = mix4(seed, domain, entity, round);
                assert_same_words(f.stream(entity, round), key, words);
                let (client, ball) = (entity >> 2, entity & 3);
                let folded = client.rotate_left(32) ^ ball.wrapping_mul(0xA24BAED4963EE407);
                let key = mix4(seed, domain, folded, round);
                assert_same_words(f.stream3(client, ball, round), key, words);
            }
        }
    }

    #[test]
    fn rejected_first_words_match_the_eager_generator() {
        /// Counts the words a draw reads.
        struct Counted(Xoshiro256PlusPlus, usize);
        impl RandomSource for Counted {
            fn next_u64(&mut self) -> u64 {
                self.1 += 1;
                self.0.next_u64()
            }
        }
        // Lemire's check rejects about half of all words at this bound, so about half
        // of these draws read a second word, from the lazy stream's cold path.
        let bound = (1usize << 63) + 1;
        let f = StreamFactory::new(3);
        let draws = 1u64 << 16;
        let mut rejected = 0;
        for entity in 0..draws {
            let mut lazy = f.stream(entity, 1);
            let mut eager = Counted(Xoshiro256PlusPlus::new(mix4(3, 0, entity, 1)), 0);
            assert_eq!(
                lazy.gen_index(bound),
                eager.gen_index(bound),
                "entity {entity}"
            );
            assert_eq!(lazy.next_u64(), eager.next_u64(), "entity {entity}");
            rejected += u64::from(eager.1 > 2);
        }
        assert!(
            (draws * 2 / 5..draws * 3 / 5).contains(&rejected),
            "{rejected} of {draws} draws rejected their first word"
        );
    }

    #[test]
    fn conversion_continues_at_the_streams_position() {
        let f = StreamFactory::new(99).domain(5);
        for entity in 0..1024 {
            for reads in 0..3 {
                let mut lazy = f.stream(entity, 7);
                let mut eager = Xoshiro256PlusPlus::new(mix4(99, 5, entity, 7));
                for _ in 0..reads {
                    assert_eq!(lazy.next_u64(), eager.next_u64());
                }
                assert_eq!(Xoshiro256PlusPlus::from(lazy), eager, "after {reads} reads");
            }
        }
    }

    #[test]
    fn every_factory_keys_streams_like_mix4() {
        let seed = 0xC0FFEE;
        let f = StreamFactory::new(seed);
        for domain in [0, 0x6772_6170, 0x7072_6F74] {
            let g = if domain == 0 { f } else { f.domain(domain) };
            for (entity, round) in [(0, 0), (3, 9), (u64::MAX, 1)] {
                let key = mix4(seed, domain, entity, round);
                assert_eq!(g.stream(entity, round), Stream::from_key(key));
            }
        }
        assert_eq!(f.domain(1).domain(2), f.domain(2));
    }

    #[test]
    fn same_triple_same_stream() {
        let f = StreamFactory::new(11);
        let mut a = f.stream(3, 9);
        let mut b = f.stream(3, 9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_round_different_stream() {
        let f = StreamFactory::new(11);
        let mut a = f.stream(3, 9);
        let mut b = f.stream(3, 10);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_entity_different_stream() {
        let f = StreamFactory::new(11);
        let mut a = f.stream(3, 9);
        let mut b = f.stream(4, 9);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn domains_are_isolated() {
        let f = StreamFactory::new(11);
        let mut a = f.domain(1).stream(3, 9);
        let mut b = f.domain(2).stream(3, 9);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn stream3_separates_sub_entities() {
        let f = StreamFactory::new(77);
        let mut a = f.stream3(5, 0, 1);
        let mut b = f.stream3(5, 1, 1);
        assert_ne!(a.next_u64(), b.next_u64());
        // And is distinct from the 2-argument variant for the same entity/round.
        let mut c = f.stream(5, 1);
        let mut d = f.stream3(5, 0, 1);
        assert_ne!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn factory_is_copy_and_stateless() {
        let f = StreamFactory::new(42);
        let g = f; // Copy
        let mut a = f.stream(1, 1);
        let mut b = g.stream(1, 1);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn streams_from_adjacent_entities_are_uncorrelated() {
        // Crude correlation check: average XOR popcount between the two streams should
        // be close to 32 (the expectation for independent uniform words).
        let f = StreamFactory::new(2020);
        let mut a = f.stream(100, 0);
        let mut b = f.stream(101, 0);
        let n = 4096;
        let total: u32 = (0..n)
            .map(|_| (a.next_u64() ^ b.next_u64()).count_ones())
            .sum();
        let avg = total as f64 / n as f64;
        assert!(
            (avg - 32.0).abs() < 1.0,
            "popcount average {avg} too far from 32"
        );
    }
}
