//! HMAC-SHA1 (RFC 2104), the keyed function underneath salting and PRFs.
//!
//! The paper salts digests "with a secret chosen by the network owner";
//! we realize the salt as an HMAC key, which is the standard construction
//! for turning a hash into a keyed function and strictly stronger than
//! prefixing the salt.

use crate::sha1::{compress, pad_and_compress, state_bytes, Sha1, IV};

const BLOCK: usize = 64;

/// Bytes the inner hash has absorbed before the message: the key block.
const KEY_BLOCK_LEN: u64 = BLOCK as u64;

/// One-shot HMAC-SHA1 with cached key midstates.
///
/// The ipad/opad blocks depend only on the key, so their SHA-1
/// compressions are run once at construction and every [`HmacSha1::mac`]
/// call starts from the stored midstates. The outer hash then always
/// absorbs exactly one block (the 20-byte inner digest and its padding),
/// and a message of up to 55 bytes — every trie PRF input — is one inner
/// block too: two compressions per call, assembled on the stack. The
/// digests are bit-identical to the naive construction.
#[derive(Clone)]
pub struct HmacSha1 {
    /// SHA-1 state after absorbing `key ^ ipad`.
    inner_mid: [u32; 5],
    /// SHA-1 state after absorbing `key ^ opad`.
    outer_mid: [u32; 5],
}

impl HmacSha1 {
    /// Creates an HMAC instance for `key` (any length).
    pub fn new(key: &[u8]) -> HmacSha1 {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..20].copy_from_slice(&Sha1::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut state = IV;
            compress(&mut state, &key_block.map(|b| b ^ pad));
            state
        };
        HmacSha1 {
            inner_mid: midstate(0x36),
            outer_mid: midstate(0x5C),
        }
    }

    /// Computes `HMAC(key, msg)`.
    pub fn mac(&self, msg: &[u8]) -> [u8; 20] {
        self.mac_parts(&[msg])
    }

    /// Computes `HMAC(key, parts[0] || parts[1] || …)` without the caller
    /// having to concatenate into a temporary buffer. Equivalent to
    /// [`HmacSha1::mac`] on the concatenation.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; 20] {
        let mut inner = self.inner_mid;
        let mut block = [0u8; BLOCK];
        let mut fill = 0;
        let mut len = KEY_BLOCK_LEN;
        for part in parts {
            len += part.len() as u64;
            let mut data = *part;
            while !data.is_empty() {
                let take = (BLOCK - fill).min(data.len());
                block[fill..fill + take].copy_from_slice(&data[..take]);
                fill += take;
                data = &data[take..];
                if fill == BLOCK {
                    compress(&mut inner, &block);
                    fill = 0;
                }
            }
        }
        pad_and_compress(&mut inner, &mut block, fill, len);

        let digest = state_bytes(&inner);
        let mut outer_block = [0u8; BLOCK];
        outer_block[..20].copy_from_slice(&digest);
        let mut outer = self.outer_mid;
        pad_and_compress(&mut outer, &mut outer_block, 20, KEY_BLOCK_LEN + 20);
        state_bytes(&outer)
    }

    /// Convenience: `HMAC(key, msg)` without keeping the instance.
    pub fn mac_once(key: &[u8], msg: &[u8]) -> [u8; 20] {
        HmacSha1::new(key).mac(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8; 20]) -> String {
        Sha1::to_hex(d)
    }

    #[test]
    fn rfc2202_case1() {
        let key = [0x0bu8; 20];
        let d = HmacSha1::mac_once(&key, b"Hi There");
        assert_eq!(hex(&d), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn rfc2202_case2() {
        let d = HmacSha1::mac_once(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&d), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn rfc2202_case3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let d = HmacSha1::mac_once(&key, &msg);
        assert_eq!(hex(&d), "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
    }

    #[test]
    fn rfc2202_case6_long_key() {
        // Key longer than block size exercises the hash-the-key path.
        let key = [0xaau8; 80];
        let d = HmacSha1::mac_once(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(hex(&d), "aa4ae5e15272d00e95705637ce8a3b55ed402112");
    }

    #[test]
    fn different_keys_different_macs() {
        let m1 = HmacSha1::mac_once(b"owner-secret-1", b"route-map-name");
        let m2 = HmacSha1::mac_once(b"owner-secret-2", b"route-map-name");
        assert_ne!(m1, m2);
    }

    #[test]
    fn instance_reuse_is_consistent() {
        let h = HmacSha1::new(b"salt");
        assert_eq!(h.mac(b"x"), h.mac(b"x"));
        assert_ne!(h.mac(b"x"), h.mac(b"y"));
    }

    /// HMAC straight from RFC 2104 over the streaming hasher: no
    /// midstates, no hand-built blocks.
    fn streaming_hmac(key: &[u8], msg: &[u8]) -> [u8; 20] {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..20].copy_from_slice(&Sha1::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha1::new();
        inner.update(&k.map(|b| b ^ 0x36));
        inner.update(msg);
        let mut outer = Sha1::new();
        outer.update(&k.map(|b| b ^ 0x5C));
        outer.update(&inner.finalize());
        outer.finalize()
    }

    #[test]
    fn mac_parts_matches_streaming_hmac_at_every_length() {
        // Every length across the 55/56 padding edge and the 64 and 128
        // block edges: whole, split in two at every cut, and split in
        // three at every first cut with every fifth second cut, so part
        // boundaries meet every block offset.
        let h = HmacSha1::new(b"owner-secret");
        let msg: Vec<u8> = (0..130u32).map(|i| (i * 7 + 3) as u8).collect();
        for n in 0..=130 {
            let m = &msg[..n];
            let want = streaming_hmac(b"owner-secret", m);
            assert_eq!(h.mac(m), want, "len {n}");
            for i in 0..=n {
                assert_eq!(h.mac_parts(&[&m[..i], &m[i..]]), want, "len {n} cut {i}");
                for j in (i..=n).step_by(5) {
                    let three = [&m[..i], &m[i..j], &m[j..]];
                    assert_eq!(h.mac_parts(&three), want, "len {n} cuts {i},{j}");
                }
            }
        }
        let long_key = [0x5Au8; 100];
        assert_eq!(
            HmacSha1::mac_once(&long_key, &msg),
            streaming_hmac(&long_key, &msg)
        );
    }

    #[test]
    fn mac_parts_matches_concatenation() {
        let h = HmacSha1::new(b"salt");
        assert_eq!(h.mac_parts(&[b"ab", b"", b"cd"]), h.mac(b"abcd"));
        assert_eq!(h.mac_parts(&[]), h.mac(b""));
        // Across the 64-byte block boundary too.
        let long = [0x41u8; 100];
        assert_eq!(h.mac_parts(&[&long[..37], &long[37..]]), h.mac(&long));
    }
}
