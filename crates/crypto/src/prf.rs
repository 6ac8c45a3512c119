//! A keyed pseudo-random function used by the stateless IP scheme.
//!
//! Xu et al.'s Crypto-PAn derives each flipped address bit from a
//! cryptographic function of the address's prefix, so "very little state
//! must be shared to consistently map addresses" (paper §4.3). We build the
//! same shape from HMAC-SHA1: `bit(input) = lsb(HMAC(key, input))` and a
//! general `bytes(domain, input)` expansion for callers that need more
//! than one bit.

use crate::hmac::HmacSha1;

/// Keyed PRF with domain separation.
#[derive(Clone)]
pub struct Prf {
    mac: HmacSha1,
}

impl Prf {
    /// Creates a PRF keyed by `key`.
    pub fn new(key: &[u8]) -> Prf {
        Prf {
            mac: HmacSha1::new(key),
        }
    }

    /// 20 pseudo-random bytes for `(domain, input)`.
    ///
    /// `domain` separates independent uses of one key (e.g. the IP scheme
    /// vs. the ASN permutation) so outputs never correlate across uses.
    pub fn bytes(&self, domain: &str, input: &[u8]) -> [u8; 20] {
        // NUL separator keeps the concatenation unambiguous (domains are
        // ASCII, no NULs); `mac_parts` feeds the pieces straight into the
        // hash so no message buffer is allocated. Up to 55 bytes in all
        // is one inner block: a trie bit hashes 11 (`iptrie`, NUL, a
        // 4-byte v4 path) or 24 (`ip6trie`, NUL, 16 bytes).
        self.mac.mac_parts(&[domain.as_bytes(), &[0], input])
    }

    /// A single pseudo-random bit for `(domain, input)`.
    pub fn bit(&self, domain: &str, input: &[u8]) -> bool {
        self.bytes(domain, input)[19] & 1 == 1
    }

    /// A pseudo-random `u64` for `(domain, input)`.
    pub fn u64(&self, domain: &str, input: &[u8]) -> u64 {
        let b = self.bytes(domain, input);
        u64::from_be_bytes(b[..8].try_into().expect("8 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let p = Prf::new(b"k");
        assert_eq!(p.bytes("d", b"x"), p.bytes("d", b"x"));
        assert_eq!(p.bit("d", b"x"), p.bit("d", b"x"));
    }

    #[test]
    fn domain_separation() {
        let p = Prf::new(b"k");
        assert_ne!(p.bytes("ip", b"x"), p.bytes("asn", b"x"));
        // The length-ambiguous concatenations must differ too.
        assert_ne!(p.bytes("ab", b"c"), p.bytes("a", b"bc"));
    }

    #[test]
    fn key_separation() {
        assert_ne!(
            Prf::new(b"k1").bytes("d", b"x"),
            Prf::new(b"k2").bytes("d", b"x")
        );
    }

    #[test]
    fn bits_are_roughly_balanced() {
        // Sanity, not a statistical test: over 4096 inputs the ones-count
        // should land well inside (1000, 3100).
        let p = Prf::new(b"balance");
        let ones = (0u32..4096)
            .filter(|i| p.bit("b", &i.to_be_bytes()))
            .count();
        assert!((1000..3100).contains(&ones), "ones = {ones}");
    }
}
