//! Sparse guest memory.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A sparse, word-addressed (8-byte) memory.
///
/// Addresses are byte addresses; every access reads or writes the whole
/// 8-byte word containing its address, aligned or not (the fuzz generator
/// folds 4-byte-strided addresses onto one word on purpose). Unwritten
/// memory reads as zero. Word indices are hashed with a folded multiply,
/// not SipHash: keys are guest addresses, so DoS resistance buys nothing,
/// and the fold keeps keys that differ only in high bits spread out.
///
/// ```
/// use smarq_guest::Memory;
/// let mut m = Memory::new();
/// m.write(0x1000, 42);
/// assert_eq!(m.read(0x1000), 42);
/// assert_eq!(m.read(0x2000), 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Memory {
    words: HashMap<u64, u64, BuildHasherDefault<WordHasher>>,
}

/// Folded multiply: the high half of the 128-bit product is xored into the
/// low half, so every key bit reaches the low (bucket-picking) bits.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ (p >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the 8-byte word containing `addr`.
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        self.words.get(&(addr >> 3)).copied().unwrap_or(0)
    }

    /// Writes the 8-byte word containing `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        if value == 0 {
            self.words.remove(&(addr >> 3));
        } else {
            self.words.insert(addr >> 3, value);
        }
    }

    /// Reads an `f64` stored at `addr`.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read(addr))
    }

    /// Writes an `f64` at `addr`.
    #[inline]
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write(addr, value.to_bits());
    }

    /// Number of non-zero words (for tests and statistics).
    pub fn footprint_words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(0xffff_ffff_fff8), 0);
        assert_eq!(m.footprint_words(), 0);
    }

    #[test]
    fn word_aliasing_within_8_bytes() {
        let mut m = Memory::new();
        m.write(0x100, 7);
        // Any byte address within the word maps to the same cell.
        assert_eq!(m.read(0x101), 7);
        assert_eq!(m.read(0x107), 7);
        assert_eq!(m.read(0x108), 0);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = Memory::new();
        m.write_f64(0x200, -3.75);
        assert_eq!(m.read_f64(0x200), -3.75);
    }

    #[test]
    fn writing_zero_frees_the_word() {
        let mut m = Memory::new();
        m.write(0x300, 9);
        assert_eq!(m.footprint_words(), 1);
        m.write(0x300, 0);
        assert_eq!(m.footprint_words(), 0);
        assert_eq!(m.read(0x300), 0);
    }

    #[test]
    fn equality_ignores_zero_writes() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write(8, 1);
        b.write(8, 1);
        b.write(16, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn high_bit_keys_spread_over_buckets() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<WordHasher>::default();
        let mut load: HashMap<u64, usize> = HashMap::new();
        for i in 1..=4096u64 {
            *load.entry(build.hash_one(i << 37) & 0xfff).or_default() += 1;
        }
        // A plain (unfolded) multiply maps all 4096 keys to one value; a
        // random function would reach about 2589 distinct values.
        assert!(load.len() >= 2048, "{} distinct", load.len());
        let worst = load.values().max().copied().unwrap_or(0);
        assert!(worst <= 4, "{worst} keys share one bucket");
    }

    #[test]
    fn hashing_bytes_is_total() {
        let mut h = WordHasher::default();
        h.write(&[]);
        h.write(&[1, 2, 3]);
        h.write(&[0xff; 17]);
        let mut g = WordHasher::default();
        g.write(&[1, 2, 3]);
        assert_ne!(h.finish(), g.finish());
    }

    #[test]
    fn matches_a_btreemap_model() {
        use smarq::prng::Prng;
        use std::collections::BTreeMap;

        let mut rng = Prng::new(0x5eed_0a11);
        let mut mem = Memory::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut writes = Vec::new();
        for _ in 0..20_000 {
            let addr = match rng.bounded(3) {
                // Dense, word-aligned.
                0 => rng.range_u64(0x1000, 0x3000) & !7,
                // Unaligned 4-byte stride: two addresses per word.
                1 => 0x8_0004 + 4 * rng.bounded(512),
                // Byte addresses spread by 2^40.
                _ => (rng.bounded(64) << 40) | rng.bounded(8),
            };
            if rng.chance(1, 2) {
                let value = if rng.chance(1, 4) { 0 } else { rng.next_u64() };
                mem.write(addr, value);
                model.insert(addr >> 3, value);
                writes.push(addr);
            }
            let expect = model.get(&(addr >> 3)).copied().unwrap_or(0);
            assert_eq!(mem.read(addr), expect, "addr {addr:#x}");
        }
        let live = model.values().filter(|&&v| v != 0).count();
        assert_eq!(mem.footprint_words(), live);

        // Same final contents built in the opposite order (last write to a
        // word wins, so replay only each word's final value), plus a zero
        // write that equality must not see.
        let mut rev = Memory::new();
        rev.write(0xdead_0000, 0);
        for &addr in writes.iter().rev() {
            rev.write(addr, model[&(addr >> 3)]);
        }
        assert_eq!(mem, rev);
    }
}
