//! Signature keys: hashable encodings of signature rows for the
//! prediction cache (§4.2.3).
//!
//! "The cache module stores the node signature of already evaluated
//! nodes. […] nodes having the same neighborhood signature are deemed
//! similar since they have similar graph structures around them."
//!
//! The one encoding, [`SignatureKey::exact`], is bit-exact: only nodes
//! with *identical* signature rows share a key (the paper's semantics).

/// Hashable encoding of one signature row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignatureKey(Vec<u32>);

impl SignatureKey {
    /// Bit-exact key: equal iff the rows are identical `f32`-wise.
    pub fn exact(row: &[f32]) -> Self {
        Self(row.iter().map(|f| f.to_bits()).collect())
    }

    /// Length of the encoded row.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the key is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
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
