//! Structural fingerprints: deterministic 64-bit digests of evaluation
//! inputs, used as cache keys.
//!
//! A fingerprint must change whenever anything that could change the
//! *bytes* of the cached result changes — relation contents (via the
//! content version fed in by the caller), graph structure, predicate
//! text, algorithm choice. Collisions are possible in principle with a
//! 64-bit digest but need ~2³² live entries to become likely; the cache
//! holds a few hundred.
//!
//! The digest is FNV-1a 64. Unlike `DefaultHasher` (whose stream is only
//! specified within a single process and may change between Rust
//! releases), FNV-1a is a fixed public algorithm, so fingerprints are
//! stable across processes, platforms, and toolchain upgrades — a
//! prerequisite for ever persisting cache state. The
//! `golden_fingerprints_are_stable` test pins exact digests to catch
//! accidental drift.

use clio_relational::{fnv1a, FNV_OFFSET_BASIS};

/// A 64-bit structural digest identifying one cached computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

/// Incremental builder for a [`Fingerprint`].
///
/// Every ingredient is length-prefixed (strings) or fixed-width
/// (numbers), so distinct ingredient sequences cannot collide by
/// concatenation (`"ab" + "c"` vs `"a" + "bc"`). The underlying digest
/// is FNV-1a 64 over the ingredient byte stream; numbers are folded in
/// as little-endian 8-byte words.
#[derive(Debug)]
pub struct FingerprintBuilder {
    state: u64,
}

impl FingerprintBuilder {
    /// Start a fingerprint in a named domain (`"F(J)"`, `"D(G).tree"`,
    /// …). The domain keeps structurally similar computations from
    /// sharing keys.
    #[must_use]
    pub fn new(domain: &str) -> FingerprintBuilder {
        let mut b = FingerprintBuilder {
            state: FNV_OFFSET_BASIS,
        };
        b.text(domain);
        b
    }

    fn write(&mut self, bytes: &[u8]) {
        self.state = fnv1a(self.state, bytes);
    }

    /// Mix in a string ingredient.
    pub fn text(&mut self, s: &str) -> &mut FingerprintBuilder {
        self.number(s.len() as u64);
        self.write(s.as_bytes());
        self
    }

    /// Mix in a numeric ingredient (content versions, epochs, node ids).
    pub fn number(&mut self, n: u64) -> &mut FingerprintBuilder {
        self.write(&n.to_le_bytes());
        self
    }

    /// Finish and produce the fingerprint.
    #[must_use]
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_ingredients_identical_fingerprint() {
        let mut a = FingerprintBuilder::new("F(J)");
        a.text("Children").number(3);
        let mut b = FingerprintBuilder::new("F(J)");
        b.text("Children").number(3);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn domain_and_order_matter() {
        let mut a = FingerprintBuilder::new("F(J)");
        a.text("x").text("y");
        let mut b = FingerprintBuilder::new("D(G).tree");
        b.text("x").text("y");
        let mut c = FingerprintBuilder::new("F(J)");
        c.text("y").text("x");
        assert_ne!(a.finish(), b.finish());
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn length_prefix_blocks_concatenation_collisions() {
        let mut a = FingerprintBuilder::new("t");
        a.text("ab").text("c");
        let mut b = FingerprintBuilder::new("t");
        b.text("a").text("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn versions_change_the_fingerprint() {
        let mut a = FingerprintBuilder::new("F(J)");
        a.text("Children").number(1);
        let mut b = FingerprintBuilder::new("F(J)");
        b.text("Children").number(2);
        assert_ne!(a.finish(), b.finish());
    }

    /// Pins exact FNV-1a 64 digests. These values are part of the cache
    /// key format: if this test ever fails, the hasher drifted and any
    /// persisted fingerprints would be silently invalidated.
    #[test]
    fn golden_fingerprints_are_stable() {
        assert_eq!(
            FingerprintBuilder::new("F(J)").finish().0,
            0x6fe6_2b74_b343_b3ea
        );
        let mut a = FingerprintBuilder::new("F(J)");
        a.text("Children").number(3);
        assert_eq!(a.finish().0, 0xcd96_4730_aa9b_eace);
        let mut b = FingerprintBuilder::new("Q(M)");
        b.text("Children.ID").number(0);
        assert_eq!(b.finish().0, 0xf4dc_1475_3873_90b5);
        assert_eq!(
            FingerprintBuilder::new("D(G).tree").finish().0,
            0x1d45_6285_fef9_4432
        );
    }
}
