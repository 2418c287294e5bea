//! Bounded contraction cache keyed on `(constraint-id, quantized box)`.
//!
//! Branch-and-prune revisits near-identical sub-boxes constantly: sibling
//! subtrees differ only in the split dimension, so a constraint that does
//! not mention that dimension sees the *same* projected box again and
//! again. Caching the HC4 fixpoint of a constraint over its own variables
//! collapses those repeats into hash lookups.
//!
//! The constraint id the cascade passes in is the *interned*
//! [`crate::term::ConstraintId`] — stable for the process lifetime, not a
//! positional index — so entries stay valid across solves: a persistent
//! session can carry one cache through many `check` calls and keep
//! hitting on resubmitted boxes.
//!
//! Soundness rests on outward quantization
//! ([`Interval::quantize_outward`]): the cache key is the quantized
//! superset `Q(B) ⊇ B` of the live box `B`, and the cached value is a
//! sound contraction `C` of `Q(B)`. Every real solution inside `B` is
//! inside `Q(B)` and therefore inside `C`, so *intersecting* `B` with `C`
//! never discards a solution — and an `Empty` verdict for `Q(B)` is a
//! fortiori a proof of emptiness for `B`.
//!
//! The lookup path allocates nothing: the map is keyed on a 64-bit mix of
//! the quantized bit patterns (with an identity re-hash), and each entry
//! stores the exact quantized projection so a probe verifies equality
//! before trusting the hash — a collision is treated as a miss, never as
//! a wrong answer.

use absolver_num::Interval;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Mantissa bits cleared by the cache's outward quantization. Coarser
/// grids (more bits) raise the hit rate but weaken cached contractions;
/// 20 bits keeps ~32 significant mantissa bits, far below the solver's
/// `min_width` resolution.
pub const QUANTIZE_BITS: u32 = 20;

/// Entry cap. At ~100 bytes per entry this bounds the cache near
/// 16 MiB; on overflow the whole map is cleared (the workloads that
/// benefit re-warm in a few hundred boxes).
const MAX_ENTRIES: usize = 131_072;

/// A cached contraction outcome for one constraint over one quantized
/// projected box.
#[derive(Debug, Clone)]
pub enum CachedContraction {
    /// The constraint is infeasible over the quantized box.
    Empty,
    /// Sound narrowed intervals for the constraint's variables, in the
    /// same order as the projection, plus whether the constraint was
    /// *entailed* (certainly true over the whole quantized box — and so
    /// over every live box mapping to this key).
    Narrowed {
        /// Narrowed projection intervals.
        ivs: Vec<Interval>,
        /// Constraint certainly true over the quantized box.
        entailed: bool,
    },
}

/// One stored contraction: the exact quantized projection (for collision
/// verification) plus the outcome.
#[derive(Debug)]
struct Entry {
    constraint: usize,
    bits: Vec<(u64, u64)>,
    value: CachedContraction,
}

/// The map key is already a high-quality 64-bit mix, so the map re-hashes
/// it with the identity function.
#[derive(Debug, Default, Clone)]
struct IdentityState;

struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached if the key type ever changes; fold bytes anyway.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

impl BuildHasher for IdentityState {
    type Hasher = IdentityHasher;

    fn build_hasher(&self) -> IdentityHasher {
        IdentityHasher(0)
    }
}

/// splitmix64 finalizer: a fast, well-distributed 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Bounded memo of per-constraint HC4 fixpoints.
#[derive(Debug, Default)]
pub struct ContractionCache {
    map: HashMap<u64, Entry, IdentityState>,
    hits: u64,
    misses: u64,
}

impl ContractionCache {
    /// Creates an empty cache.
    pub fn new() -> ContractionCache {
        ContractionCache::default()
    }

    /// Hashes a quantized projection (the caller quantizes each interval
    /// with [`Interval::quantize_outward`] at [`QUANTIZE_BITS`]).
    pub fn hash(constraint: usize, quantized: &[Interval]) -> u64 {
        let mut h = mix(constraint as u64 ^ 0x9e37_79b9_7f4a_7c15);
        for q in quantized {
            h = mix(h ^ q.lo().to_bits());
            h = mix(h ^ q.hi().to_bits());
        }
        h
    }

    /// Looks up the contraction stored for this exact `(constraint,
    /// quantized projection)` pair. Counts a hit or a miss; a hash
    /// collision with a different key verifies unequal and counts as a
    /// miss.
    pub fn find(
        &mut self,
        hash: u64,
        constraint: usize,
        quantized: &[Interval],
    ) -> Option<&CachedContraction> {
        match self.map.get(&hash) {
            Some(e)
                if e.constraint == constraint
                    && e.bits.len() == quantized.len()
                    && e.bits
                        .iter()
                        .zip(quantized)
                        .all(|(&(lo, hi), q)| lo == q.lo().to_bits() && hi == q.hi().to_bits()) =>
            {
                self.hits += 1;
                Some(&self.map[&hash].value)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a contraction (replacing any colliding entry), clearing the
    /// map first if it is full.
    pub fn put(
        &mut self,
        hash: u64,
        constraint: usize,
        quantized: &[Interval],
        value: CachedContraction,
    ) {
        if self.map.len() >= MAX_ENTRIES {
            self.map.clear();
        }
        let bits = quantized
            .iter()
            .map(|q| (q.lo().to_bits(), q.hi().to_bits()))
            .collect();
        self.map.insert(
            hash,
            Entry {
                constraint,
                bits,
                value,
            },
        );
    }

    /// Lookups answered from the map.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to a real contraction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantize(boxes: &[Interval]) -> Vec<Interval> {
        boxes
            .iter()
            .map(|b| b.quantize_outward(QUANTIZE_BITS))
            .collect()
    }

    #[test]
    fn quantization_encloses() {
        let boxes = [Interval::new(-1.000001, 2.000001), Interval::new(0.1, 0.2)];
        for (q, b) in quantize(&boxes).iter().zip(boxes.iter()) {
            assert!(q.encloses(*b), "{q} must enclose {b}");
        }
    }

    #[test]
    fn nearby_boxes_share_a_key() {
        let a = quantize(&[Interval::new(0.5, 1.5)]);
        // Perturb well below the quantization grid spacing.
        let b = quantize(&[Interval::new(0.5 + 1e-12, 1.5 - 1e-12)]);
        assert_eq!(
            ContractionCache::hash(0, &a),
            ContractionCache::hash(0, &b),
            "sub-grid perturbations must collide"
        );
        assert_eq!(a, b, "and verify equal");
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut cache = ContractionCache::new();
        let q = quantize(&[Interval::new(0.0, 1.0)]);
        let h = ContractionCache::hash(0, &q);
        assert!(cache.find(h, 0, &q).is_none());
        cache.put(h, 0, &q, CachedContraction::Empty);
        assert!(matches!(
            cache.find(h, 0, &q),
            Some(CachedContraction::Empty)
        ));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn collisions_verify_and_miss() {
        let mut cache = ContractionCache::new();
        let q = quantize(&[Interval::new(0.0, 1.0)]);
        let h = ContractionCache::hash(0, &q);
        cache.put(h, 0, &q, CachedContraction::Empty);
        // Same hash slot, different constraint id: must verify unequal.
        assert!(cache.find(h, 1, &q).is_none());
        // Same constraint, different projection under the same forced hash.
        let other = quantize(&[Interval::new(5.0, 6.0)]);
        assert!(cache.find(h, 0, &other).is_none());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
    }
}
