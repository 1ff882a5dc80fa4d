//! Signature keys: hashable encodings of signature rows for the
//! prediction cache (§4.2.3).
//!
//! "The cache module stores the node signature of already evaluated
//! nodes. […] nodes having the same neighborhood signature are deemed
//! similar since they have similar graph structures around them."
//!
//! The one encoding, [`SignatureKey::exact`], is bit-exact: only nodes
//! with *identical* signature rows share a key (the paper's semantics).

use std::hash::{Hash, Hasher};

use psi_graph::hash::FxHasher;

/// Hashable encoding of one signature row. The row is hashed once, when
/// the key is built: a key is probed, deduplicated and inserted into
/// sharded maps several times per candidate, and rows run to a hundred
/// words, so each later hash writes the stored `u64` instead.
#[derive(Debug, Clone)]
pub struct SignatureKey {
    hash: u64,
    bits: Vec<u32>,
}

impl SignatureKey {
    /// Bit-exact key: equal iff the rows are identical `f32`-wise.
    pub fn exact(row: &[f32]) -> Self {
        let bits: Vec<u32> = row.iter().map(|f| f.to_bits()).collect();
        let mut h = FxHasher::default();
        bits.hash(&mut h);
        Self { hash: h.finish(), bits }
    }

    /// Length of the encoded row.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the key is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

impl PartialEq for SignatureKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.bits == other.bits
    }
}

impl Eq for SignatureKey {}

impl Hash for SignatureKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_distinguishes_bit_level() {
        let a = SignatureKey::exact(&[1.0, 0.5]);
        let b = SignatureKey::exact(&[1.0, 0.5]);
        let c = SignatureKey::exact(&[1.0, 0.5000001]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn handles_extremes() {
        let k = SignatureKey::exact(&[f32::MAX, 0.0, -1.0]);
        assert_eq!(k.len(), 3);
        assert!(!k.is_empty());
        let empty = SignatureKey::exact(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn usable_as_hashmap_key() {
        let mut m = std::collections::HashMap::new();
        m.insert(SignatureKey::exact(&[1.0, 2.0]), "x");
        assert_eq!(m.get(&SignatureKey::exact(&[1.0, 2.0])), Some(&"x"));
        assert_eq!(m.get(&SignatureKey::exact(&[2.0, 1.0])), None);
    }
}
