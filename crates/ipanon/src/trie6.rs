//! IPv6 prefix-preserving anonymization — the 128-bit generalization of
//! the paper's extended `-a50` scheme.
//!
//! Identical construction to [`crate::IpAnonymizer`], minus classful
//! addressing (IPv6 has none) and plus the IPv6 special regions: the
//! global-unicast `2000::/3` leading bits are pinned (so anonymized
//! addresses remain plausibly global unicast), link-local `fe80::/10`
//! and multicast `ff00::/8` regions map to themselves, and trailing
//! zeros are preserved at first sight (subnet-address readability, §3.2).

use confanon_crypto::Prf;
use confanon_netprim::{special6_kind, Ip6};

/// Sentinel for "no child".
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Node {
    flip: bool,
    child: [u32; 2],
}

/// The IPv6 trie anonymizer.
#[derive(Clone)]
pub struct Ip6Anonymizer {
    prf: Prf,
    nodes: Vec<Node>,
    /// Per-depth PRF salt, precomputed once (pure function of the secret
    /// and depth — see [`crate::IpAnonymizer`]'s identical cache).
    depth_salts: [bool; 129],
}

/// Protected prefix regions: (leading bits left-aligned in u128, length).
/// Inputs inside them are special (passthrough); the pinning guarantees
/// ordinary inputs can never map *into* them.
const REGIONS6: [(u128, u8); 2] = [
    (0xfe80u128 << 112, 10), // fe80::/10 link-local
    (0xffu128 << 120, 8),    // ff00::/8 multicast
];

impl Ip6Anonymizer {
    /// Creates an anonymizer keyed by the owner secret.
    pub fn new(owner_secret: &[u8]) -> Ip6Anonymizer {
        let prf = Prf::new(owner_secret);
        let mut depth_salts = [false; 129];
        for (depth, salt) in depth_salts.iter_mut().enumerate() {
            *salt = prf.bit("ip6trie-depth", &[depth as u8]);
        }
        let mut a = Ip6Anonymizer {
            prf,
            nodes: Vec::with_capacity(1024),
            depth_salts,
        };
        a.nodes.push(Node {
            flip: false, // bit 0 pinned (see `forced_identity`)
            child: [NONE, NONE],
        });
        a
    }

    /// Rolls the trie back to an earlier [`node_count`]: drops every
    /// node allocated since and resets any child pointer that points
    /// past the mark. Nodes are only ever appended, and the one in-place
    /// flip edit (the point-special repair) touches only nodes fresh to
    /// its own walk, so this restores the trie exactly as it was when
    /// `node_count()` returned `mark`. O(nodes): callers run it only to
    /// undo a failed transaction.
    ///
    /// [`node_count`]: Self::node_count
    pub fn truncate(&mut self, mark: usize) {
        let mark = mark.max(1);
        if mark >= self.nodes.len() {
            return;
        }
        self.nodes.truncate(mark);
        for node in &mut self.nodes {
            for child in &mut node.child {
                if *child != NONE && *child as usize >= mark {
                    *child = NONE;
                }
            }
        }
    }

    /// Number of trie nodes allocated.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// FNV-1a digest of the node table (see
    /// [`crate::IpAnonymizer::structure_digest`]): the post-replay check
    /// that persisted state reconstructed this trie node-for-node.
    pub fn structure_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        };
        for node in &self.nodes {
            mix(u8::from(node.flip));
            for child in node.child {
                for b in child.to_be_bytes() {
                    mix(b);
                }
            }
        }
        h
    }

    /// Whether a fresh node must have `flip = 0`.
    fn forced_identity(path_bits: u128, depth: u8, trailing_zero_from: u8) -> bool {
        // Pin the first three bits: `2000::/3` (global unicast) maps to
        // itself, the address-family analogue of v4 class preservation.
        if depth < 3 {
            return true;
        }
        for (bits, len) in REGIONS6 {
            if depth < len && (path_bits ^ bits) >> (128 - depth) == 0 {
                return true;
            }
        }
        depth >= trailing_zero_from
    }

    /// The raw trie map (no passthrough / collision handling).
    pub fn map_raw(&mut self, ip: Ip6) -> Ip6 {
        let tz = ip.0.trailing_zeros().min(128) as u8;
        let trailing_zero_from = 128 - tz;

        let mut out: u128 = 0;
        let mut node = 0usize;
        let mut path: u128 = 0;
        let mut visited: [(u32, bool); 128] = [(0, false); 128];
        for depth in 0u8..128 {
            let in_bit = ip.bit(depth);
            visited[depth as usize].0 = node as u32;
            let flip = self.nodes[node].flip;
            out = (out << 1) | u128::from(in_bit ^ flip);

            let idx = usize::from(in_bit);
            let next_path = path | (u128::from(in_bit) << (127 - depth));
            if depth < 127 {
                if self.nodes[node].child[idx] == NONE {
                    let flip = if Self::forced_identity(next_path, depth + 1, trailing_zero_from)
                    {
                        false
                    } else {
                        self.prf.bit("ip6trie", &next_path.to_be_bytes()[..])
                            ^ self.depth_salts[usize::from(depth) + 1]
                    };
                    self.nodes.push(Node {
                        flip,
                        child: [NONE, NONE],
                    });
                    let new_id = (self.nodes.len() - 1) as u32;
                    self.nodes[node].child[idx] = new_id;
                    visited[depth as usize + 1].1 = true;
                }
                node = self.nodes[node].child[idx] as usize;
            }
            path = next_path;
        }

        // Point-special escape at creation time (same argument as the v4
        // trie: fresh nodes are unshared, so one deep re-flip preserves
        // every established prefix relation).
        if special6_kind(Ip6(out)).is_some() {
            for depth in (0u8..128).rev() {
                let (node_id, fresh) = visited[depth as usize];
                if !fresh || Self::pinned(ip, depth) {
                    continue;
                }
                let candidate = out ^ (1u128 << (127 - depth));
                if special6_kind(Ip6(candidate)).is_none() {
                    self.nodes[node_id as usize].flip ^= true;
                    out = candidate;
                    break;
                }
            }
        }
        Ip6(out)
    }

    /// Whether the node at `depth` on `ip`'s path is pinned (address-family
    /// bits or a protected region) and may never be re-flipped.
    fn pinned(ip: Ip6, depth: u8) -> bool {
        if depth < 3 {
            return true;
        }
        let path = ip.0 & (u128::MAX << (128 - depth));
        for (bits, len) in REGIONS6 {
            if depth < len && (path ^ bits) >> (128 - depth) == 0 {
                return true;
            }
        }
        false
    }

    /// The full scheme: specials pass through; ordinary addresses map,
    /// with recursive remapping on (point-)special collisions. The same
    /// bijection-orbit argument as the v4 scheme bounds the loop.
    pub fn anonymize(&mut self, ip: Ip6) -> Ip6 {
        if special6_kind(ip).is_some() {
            return ip;
        }
        let mut out = self.map_raw(ip);
        let mut guard = 0;
        while special6_kind(out).is_some() {
            out = self.map_raw(out);
            guard += 1;
            assert!(guard <= 256, "collision remapping failed for {ip}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anon() -> Ip6Anonymizer {
        Ip6Anonymizer::new(b"v6-test-secret")
    }

    fn ip(s: &str) -> Ip6 {
        s.parse().unwrap()
    }

    #[test]
    fn deterministic_and_keyed() {
        let mut a = anon();
        let x = a.anonymize(ip("2001:db8::1"));
        assert_eq!(anon().anonymize(ip("2001:db8::1")), x);
        assert_ne!(
            Ip6Anonymizer::new(b"other").anonymize(ip("2001:db8::1")),
            x
        );
    }

    #[test]
    fn prefix_preserving() {
        let mut a = anon();
        let x = a.anonymize(ip("2001:db8:1:2::1"));
        let y = a.anonymize(ip("2001:db8:1:2::2"));
        let z = a.anonymize(ip("2001:db8:9::1"));
        assert_eq!(
            ip("2001:db8:1:2::1").common_prefix_len(ip("2001:db8:1:2::2")),
            x.common_prefix_len(y)
        );
        assert_eq!(
            ip("2001:db8:1:2::1").common_prefix_len(ip("2001:db8:9::1")),
            x.common_prefix_len(z)
        );
    }

    #[test]
    fn specials_pass_through() {
        let mut a = anon();
        for s in ["::", "::1", "fe80::1", "ff02::5", "::ffff:192.0.2.1"] {
            assert_eq!(a.anonymize(ip(s)), ip(s), "{s}");
        }
    }

    #[test]
    fn global_unicast_stays_global_unicast() {
        let mut a = anon();
        for s in ["2001:db8::1", "2400:cb00::1", "3fff:ffff::9"] {
            let out = a.anonymize(ip(s));
            assert_eq!(out.0 >> 125, 0b001, "{s} -> {out} left 2000::/3");
        }
    }

    #[test]
    fn ordinary_never_maps_into_protected_regions() {
        let mut a = anon();
        for i in 0..512u32 {
            let addr = Ip6((0x2001u128 << 112) | (u128::from(i) * 0x9E37_79B9) << 40 | 1);
            let out = a.anonymize(addr);
            assert!(out.0 >> 118 != 0x3fa, "{addr} -> {out} in fe80::/10");
            assert!(out.0 >> 120 != 0xff, "{addr} -> {out} in ff00::/8");
        }
    }

    #[test]
    fn trailing_zeros_preserved_first_seen() {
        let mut a = anon();
        let out = a.anonymize(ip("2001:db8:42::"));
        assert!(out.0.trailing_zeros() >= 80, "{out}");
    }

    #[test]
    fn injective_on_a_batch() {
        let mut a = anon();
        let mut seen = std::collections::HashSet::new();
        for i in 0..2000u128 {
            let addr = Ip6((0x2400u128 << 112) | (i * 0x0001_0001_0001));
            assert!(seen.insert(a.anonymize(addr)));
        }
    }
}
