//! Instruction working-set signatures (Dhodapkar & Smith), a related-work
//! baseline (paper §V).
//!
//! A working-set signature is a lossy bit-vector (here `bits` bits) into
//! which every executed basic block is hashed; two intervals are in the same
//! phase when the *relative signature distance*
//! `|A Δ B| / |A ∪ B|` is below a threshold. Signatures capture *which*
//! code executed but not *how much*, so they yield longer, coarser phases
//! than BBVs — the comparison the harness's `baselines` experiment runs.

use serde::{Deserialize, Serialize};

/// A fixed-size working-set signature.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WsSignature {
    words: Vec<u64>,
}

impl WsSignature {
    /// `bits` must be a multiple of 64 (1024 in Dhodapkar & Smith's design).
    pub fn new(bits: usize) -> Self {
        assert!(bits > 0 && bits.is_multiple_of(64));
        Self { words: vec![0; bits / 64] }
    }

    pub fn bits(&self) -> usize {
        self.words.len() * 64
    }

    /// Hash a basic block into the signature.
    #[inline]
    pub fn insert(&mut self, bb: u32) {
        let h = dsm_sim::util::splitmix64(bb as u64 ^ 0xabcd_ef01);
        let bit = (h % (self.bits() as u64)) as usize;
        self.words[bit / 64] |= 1 << (bit % 64);
    }

    /// Number of set bits.
    pub fn popcount(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Relative signature distance: `|A Δ B| / |A ∪ B|` in [0, 1]
    /// (0 for two empty signatures).
    pub fn rel_distance(&self, other: &Self) -> f64 {
        assert_eq!(self.words.len(), other.words.len());
        let mut sym = 0u32;
        let mut uni = 0u32;
        for (a, b) in self.words.iter().zip(&other.words) {
            sym += (a ^ b).count_ones();
            uni += (a | b).count_ones();
        }
        if uni == 0 {
            0.0
        } else {
            sym as f64 / uni as f64
        }
    }

    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Raw signature words (recorded into interval traces).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    pub fn from_words(words: Vec<u64>) -> Self {
        assert!(!words.is_empty());
        Self { words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_sets_bits() {
        let mut s = WsSignature::new(128);
        assert!(s.is_empty());
        s.insert(42);
        assert_eq!(s.popcount(), 1);
        s.insert(42); // idempotent
        assert_eq!(s.popcount(), 1);
        s.insert(43);
        assert!(s.popcount() >= 1); // could collide, usually 2
    }

    #[test]
    fn distance_zero_for_identical_sets() {
        let mut a = WsSignature::new(128);
        let mut b = WsSignature::new(128);
        for bb in 0..10 {
            a.insert(bb);
            b.insert(bb);
        }
        assert_eq!(a.rel_distance(&b), 0.0);
    }

    #[test]
    fn distance_one_for_disjoint_sets() {
        let mut a = WsSignature::new(1024);
        let mut b = WsSignature::new(1024);
        a.insert(1);
        b.insert(2);
        // Unless they collide in the 1024-bit space (they don't for 1,2).
        assert_eq!(a.rel_distance(&b), 1.0);
    }

    #[test]
    fn distance_empty_signatures_is_zero() {
        let a = WsSignature::new(64);
        let b = WsSignature::new(64);
        assert_eq!(a.rel_distance(&b), 0.0);
    }

    #[test]
    fn partial_overlap_is_intermediate() {
        let mut a = WsSignature::new(1024);
        let mut b = WsSignature::new(1024);
        for bb in 0..8 {
            a.insert(bb);
        }
        for bb in 4..12 {
            b.insert(bb);
        }
        let d = a.rel_distance(&b);
        assert!(d > 0.0 && d < 1.0, "got {d}");
    }

    #[test]
    fn roundtrip_words() {
        let mut s = WsSignature::new(128);
        s.insert(7);
        s.insert(700);
        let r = WsSignature::from_words(s.words().to_vec());
        assert_eq!(s, r);
    }
}
