//! The table-based (binary trie) prefix-preserving mapping, once for
//! both address families.
//!
//! Every trie node corresponds to an input bit-prefix `p` and stores one
//! bit `flip`: the output bit at depth `|p|` is `input_bit ⊕ flip`. Two
//! addresses sharing a k-bit input prefix walk the same k nodes and hence
//! share exactly k output bits — prefix preservation by construction.
//!
//! The paper's extensions are implemented as constraints on `flip` when a
//! node is first created:
//!
//! * **pinned leading bits** — `flip = 0` wherever the
//!   [`AddressFamily::pinned`] predicate says so. For IPv4 ([`V4`]) that
//!   is depth 0, depths 1..4 while the path so far is all ones (the
//!   class-defining bits), and every proper prefix of 127/8 or
//!   169.254/16, so each region maps onto itself and ordinary inputs can
//!   never land inside one (multicast 224/4 and reserved 240/4 are
//!   already pinned by the class bits). For IPv6 ([`V6`]) it is the
//!   three `2000::/3` global-unicast bits, the family analogue of class
//!   preservation, and every proper prefix of `fe80::/10` or `ff00::/8`;
//! * **trailing zeros** — if the address being inserted ends in `t` zero
//!   bits, nodes created in the last `t` levels get `flip = 0`, mapping
//!   subnet addresses to subnet addresses when first seen. Rule R24 can
//!   switch this off ([`PrefixTrie::with_options`]); the pipeline does so
//!   for the IPv4 trie only, and the IPv6 trie always preserves them;
//! * otherwise `flip` is a keyed PRF bit of the input path — deterministic
//!   per owner secret but unpredictable without it.
//!
//! The keyed bit of a path is computed once. A node reached by a 0-edge
//! has the same left-aligned input path as its parent (appending a zero
//! bit changes no bit of the encoding), so its PRF input, and hence its
//! raw keyed bit, equals the parent's. Each node keeps that raw bit once
//! known, and a fresh 0-child takes it instead of calling the PRF; its
//! flip is still `raw ⊕ depth_salt[depth]`, so no flip changes. On the
//! benchmark corpora this halves the keyed-hash work of building a trie.
//!
//! Point specials (netmask- and wildcard-valued quads, `::`, `::1`, …)
//! are not prefix regions and are instead handled by creation-time
//! repair and the §4.3 recursive remap in [`PrefixTrie::anonymize`].

use std::fmt::{Debug, Display};
use std::marker::PhantomData;

use confanon_crypto::Prf;
use confanon_netprim::{special6_kind, special_kind, Ip, Ip6};

/// What differs between the IPv4 and IPv6 tries. Everything else — the
/// node layout, 0-edge keyed-bit inheritance, creation-time repair,
/// rollback, digest and recursive remap — is [`PrefixTrie`]'s, once.
pub trait AddressFamily: Clone {
    /// The address type mapped.
    type Addr: Copy + Debug + Display + PartialEq;
    /// Address width in bits: a multiple of 8, at most 128.
    const WIDTH: u8;
    /// PRF domain of node flips. The PRF input is the node's input path,
    /// left-aligned in `WIDTH / 8` big-endian bytes.
    const PRF_LABEL: &'static str;
    /// PRF domain of the per-depth salt; the input is the depth byte.
    const SALT_LABEL: &'static str;
    /// Bound on the recursive remap in [`PrefixTrie::anonymize`], which
    /// terminates long before it (see there).
    const REMAP_GUARD: u32;
    /// The address bits, right-aligned.
    fn bits(addr: Self::Addr) -> u128;
    /// The address with these (right-aligned) bits.
    fn addr(bits: u128) -> Self::Addr;
    /// Whether the node at `depth` on `path`'s walk must keep `flip = 0`
    /// (and may never be re-flipped). Only the `depth` leading bits of
    /// `path` are read.
    fn pinned(path: u128, depth: u8) -> bool;
    /// Whether `addr` is special: it passes through unchanged, and no
    /// ordinary address may map onto it.
    fn special(addr: Self::Addr) -> bool;
}

/// Whether the `depth` leading bits of `path` are a proper prefix of one
/// of `regions` (bits, length), all `width` bits wide. `depth > 0`.
fn in_region(path: u128, depth: u8, width: u8, regions: &[(u128, u8)]) -> bool {
    regions
        .iter()
        .any(|&(bits, len)| depth < len && (path ^ bits) >> (width - depth) == 0)
}

/// IPv4 (see the module docs for its pinned bits).
#[derive(Clone)]
pub enum V4 {}

impl AddressFamily for V4 {
    type Addr = Ip;
    const WIDTH: u8 = 32;
    const PRF_LABEL: &'static str = "iptrie";
    const SALT_LABEL: &'static str = "iptrie-depth";
    const REMAP_GUARD: u32 = 128;

    fn bits(addr: Ip) -> u128 {
        u128::from(addr.0)
    }

    fn addr(bits: u128) -> Ip {
        Ip(bits as u32)
    }

    fn pinned(path: u128, depth: u8) -> bool {
        const REGIONS: [(u128, u8); 2] = [
            (0x7F00_0000, 8),  // 127.0.0.0/8
            (0xA9FE_0000, 16), // 169.254.0.0/16
        ];
        // Depth 0, and the class-defining bits while the path is all ones.
        depth == 0
            || (depth < 4 && path >> (32 - depth) == (1 << depth) - 1)
            || in_region(path, depth, 32, &REGIONS)
    }

    fn special(addr: Ip) -> bool {
        special_kind(addr).is_some()
    }
}

/// IPv6 (see the module docs for its pinned bits).
#[derive(Clone)]
pub enum V6 {}

impl AddressFamily for V6 {
    type Addr = Ip6;
    const WIDTH: u8 = 128;
    const PRF_LABEL: &'static str = "ip6trie";
    const SALT_LABEL: &'static str = "ip6trie-depth";
    const REMAP_GUARD: u32 = 256;

    fn bits(addr: Ip6) -> u128 {
        addr.0
    }

    fn addr(bits: u128) -> Ip6 {
        Ip6(bits)
    }

    fn pinned(path: u128, depth: u8) -> bool {
        const REGIONS: [(u128, u8); 2] = [
            (0xfe80 << 112, 10), // fe80::/10 link-local
            (0xff << 120, 8),    // ff00::/8 multicast
        ];
        // The `2000::/3` bits: global unicast stays global unicast.
        depth < 3 || in_region(path, depth, 128, &REGIONS)
    }

    fn special(addr: Ip6) -> bool {
        special6_kind(addr).is_some()
    }
}

/// The paper's extended `-a50` anonymizer for IPv4.
pub type IpAnonymizer = PrefixTrie<V4>;
/// Its 128-bit generalization for IPv6.
pub type Ip6Anonymizer = PrefixTrie<V6>;

/// Sentinel for "no child".
const NONE: u32 = u32::MAX;

/// One trie node.
#[derive(Clone, Copy)]
struct Node {
    /// Output-bit flip at this node's depth.
    flip: bool,
    /// The raw keyed bit of this node's input path, once known: computed
    /// here, or inherited along a 0-edge (see the module docs). A repair
    /// edits `flip`, never this. Sits in `flip`'s padding.
    raw: Option<bool>,
    /// Children indexed by the input bit.
    child: [u32; 2],
}

const _: () = assert!(std::mem::size_of::<Node>() == 12);

/// The prefix-preserving trie of one address family (see module docs).
#[derive(Clone)]
pub struct PrefixTrie<F> {
    prf: Prf,
    nodes: Vec<Node>,
    preserve_trailing_zeros: bool,
    /// The keyed salt of each depth `0..=WIDTH`, computed once at
    /// construction: it is a pure function of (secret, depth), and paying
    /// one HMAC per *fresh trie node* for it was measurably the
    /// second-largest cost of corpus discovery.
    depth_salts: [bool; 129],
    /// Keyed-hash calls made for node flips (see [`Self::prf_calls`]).
    prf_calls: u64,
    family: PhantomData<F>,
}

impl<F: AddressFamily> PrefixTrie<F> {
    /// Creates an anonymizer keyed by the owner secret (with the paper's
    /// subnet-address preservation on).
    pub fn new(owner_secret: &[u8]) -> PrefixTrie<F> {
        PrefixTrie::with_options(owner_secret, true)
    }

    /// Like [`PrefixTrie::new`], optionally disabling the subnet-address
    /// (trailing-zero) preservation of §3.2 — rule R24's ablation switch.
    /// Prefix/class/special guarantees are unaffected.
    pub fn with_options(owner_secret: &[u8], preserve_trailing_zeros: bool) -> PrefixTrie<F> {
        let prf = Prf::new(owner_secret);
        let mut depth_salts = [false; 129];
        for depth in 0..=F::WIDTH {
            // Extra keyed diffusion: without it `flip` would alias across
            // depths with equal left-aligned paths (`1` at depth 1 vs `10`
            // at depth 2).
            depth_salts[usize::from(depth)] = prf.bit(F::SALT_LABEL, &[depth]);
        }
        let mut nodes = Vec::with_capacity(1024);
        nodes.push(Node {
            flip: false, // depth 0 is pinned in both families
            raw: None,
            child: [NONE, NONE],
        });
        PrefixTrie {
            prf,
            nodes,
            preserve_trailing_zeros,
            depth_salts,
            prf_calls: 0,
            family: PhantomData,
        }
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

    /// Number of trie nodes allocated (size of the shared state the paper
    /// contrasts against Xu's stateless scheme).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Keyed-hash (`Prf::bit`) calls this trie has made to derive node
    /// flips since construction. At most one per distinct input path,
    /// thanks to the 0-edge identity (module docs).
    pub fn prf_calls(&self) -> u64 {
        self.prf_calls
    }

    /// FNV-1a digest of the full node table — flip bit and child ids in
    /// allocation order — so a persisted-state load can verify that its
    /// journal replay rebuilt the trie node-for-node.
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

    /// Whether a freshly created node at `depth` (with input path `path`)
    /// must have `flip = 0`.
    fn forced_identity(path: u128, depth: u8, trailing_zero_from: u8) -> bool {
        F::pinned(path, depth) || depth >= trailing_zero_from
    }

    /// Input bit `depth` (0 = most significant) of right-aligned `bits`.
    fn bit(bits: u128, depth: u8) -> bool {
        (bits >> (F::WIDTH - 1 - depth)) & 1 == 1
    }

    /// The raw trie map: prefix-, class-, and region-preserving, but with
    /// no passthrough or collision handling. Exposed for the property
    /// tests and benchmarks; production callers use
    /// [`PrefixTrie::anonymize`].
    ///
    /// When the computed image collides with a *point* special (the
    /// trailing-zero rule can steer an image onto `0.0.0.0` or a
    /// mask-valued quad), the walk repairs itself **at creation time**:
    /// it re-flips one freshly created node — deepest first, skipping
    /// pinned depths — until the image is ordinary. Fresh nodes are not
    /// yet shared with any other mapping, so the repair never disturbs an
    /// established prefix relation; this is how the paper's claim that
    /// collision handling "maintains the structure-preserving property"
    /// is realized. (The recursive remap in [`PrefixTrie::anonymize`]
    /// remains as a last-resort fallback.)
    pub fn map_raw(&mut self, addr: F::Addr) -> F::Addr {
        let width = F::WIDTH;
        let bits = F::bits(addr);
        // Depth at which the trailing zero run of `addr` begins.
        let trailing_zero_from = if self.preserve_trailing_zeros {
            width - bits.trailing_zeros().min(u32::from(width)) as u8
        } else {
            width
        };
        // Nodes are only appended, so ids from here on are fresh to this
        // walk and repairable (below).
        let fresh_from = self.nodes.len();

        let mut out = 0u128;
        let mut node = 0usize;
        let mut path = 0u128; // input bits consumed so far
        for depth in 0..width {
            let in_bit = Self::bit(bits, depth);
            out = (out << 1) | u128::from(in_bit ^ self.nodes[node].flip);
            if depth + 1 == width {
                break;
            }
            // Descend, creating the child if needed.
            path |= u128::from(in_bit) << (width - 1 - depth);
            let idx = usize::from(in_bit);
            if self.nodes[node].child[idx] == NONE {
                // A 0-edge keeps the path, so the parent's raw bit is ours.
                let inherited = if in_bit { None } else { self.nodes[node].raw };
                let (flip, raw) = if Self::forced_identity(path, depth + 1, trailing_zero_from) {
                    (false, inherited)
                } else {
                    let raw = inherited.unwrap_or_else(|| {
                        self.prf_calls += 1;
                        let bytes = path.to_be_bytes();
                        self.prf.bit(F::PRF_LABEL, &bytes[16 - usize::from(width / 8)..])
                    });
                    (raw ^ self.depth_salts[usize::from(depth) + 1], Some(raw))
                };
                self.nodes.push(Node {
                    flip,
                    raw,
                    child: [NONE, NONE],
                });
                self.nodes[node].child[idx] = (self.nodes.len() - 1) as u32;
            }
            node = self.nodes[node].child[idx] as usize;
        }

        // Point-special escape: re-flip one fresh, unpinned node (deepest
        // first). Never touches pinned bits or any node another mapping
        // already walked. Rare, so the path's node ids are walked again.
        if F::special(F::addr(out)) {
            let ids: Vec<usize> = (0..width)
                .scan(0usize, |node, depth| {
                    let id = *node;
                    *node = self.nodes[id].child[usize::from(Self::bit(bits, depth))] as usize;
                    Some(id)
                })
                .collect();
            for depth in (0..width).rev() {
                let id = ids[usize::from(depth)];
                if id < fresh_from || F::pinned(bits, depth) {
                    continue;
                }
                let candidate = out ^ (1u128 << (width - 1 - depth));
                if !F::special(F::addr(candidate)) {
                    self.nodes[id].flip ^= true;
                    out = candidate;
                    break;
                }
            }
        }
        F::addr(out)
    }

    /// The full §4.3 scheme: specials pass through unchanged; ordinary
    /// addresses go through the trie; if the image collides with a special
    /// value it is recursively re-mapped until ordinary.
    ///
    /// **Termination**: the realized trie map is a bijection on the
    /// address space (each level XORs a path-determined bit), so
    /// iterating it from `a` walks a finite cycle through `a`; because `a`
    /// itself is ordinary, the walk meets an ordinary value after at most
    /// `|specials-on-cycle| + 1` steps. **Injectivity**: if two ordinary
    /// inputs reached the same final image, the earlier one on the shared
    /// cycle suffix would itself have been an (ordinary) intermediate of
    /// the other — contradicting that only special values are re-mapped.
    pub fn anonymize(&mut self, addr: F::Addr) -> F::Addr {
        if F::special(addr) {
            return addr;
        }
        let mut out = self.map_raw(addr);
        let mut guard = 0;
        while F::special(out) {
            out = self.map_raw(out);
            guard += 1;
            assert!(
                guard <= F::REMAP_GUARD,
                "collision remapping failed to terminate for {addr}"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confanon_netprim::{AddrClass, Prefix};

    fn anon() -> IpAnonymizer {
        IpAnonymizer::new(b"unit-test-secret")
    }

    #[test]
    fn deterministic_and_consistent() {
        let mut a = anon();
        let ip: Ip = "12.126.236.17".parse().unwrap();
        let first = a.anonymize(ip);
        assert_eq!(a.anonymize(ip), first);
        // Fresh instance with the same secret reproduces the mapping.
        let mut b = anon();
        assert_eq!(b.anonymize(ip), first);
    }

    #[test]
    fn different_secrets_different_mappings() {
        let ip: Ip = "12.126.236.17".parse().unwrap();
        let x = IpAnonymizer::new(b"s1").anonymize(ip);
        let y = IpAnonymizer::new(b"s2").anonymize(ip);
        assert_ne!(x, y);
    }

    #[test]
    fn specials_pass_through() {
        let mut a = anon();
        for s in [
            "255.255.255.0",
            "0.0.0.255",
            "224.0.0.5",
            "127.0.0.1",
            "169.254.1.1",
            "0.0.0.0",
            "255.255.255.255",
        ] {
            let ip: Ip = s.parse().unwrap();
            assert_eq!(a.anonymize(ip), ip, "{s}");
        }
    }

    #[test]
    fn class_preserved_for_every_class() {
        let mut a = anon();
        for (s, c) in [
            ("10.20.30.40", AddrClass::A),
            ("150.60.70.80", AddrClass::B),
            ("200.90.100.110", AddrClass::C),
        ] {
            let out = a.anonymize(s.parse().unwrap());
            assert_eq!(out.class(), c, "{s} -> {out}");
        }
    }

    #[test]
    fn subnet_contains_preserved() {
        // The Figure 1 relationship: 1.0.0.0/8 contains 1.1.1.1; the
        // anonymized pair must preserve containment.
        let mut a = anon();
        let net = a.anonymize("1.0.0.0".parse().unwrap());
        let host = a.anonymize("1.1.1.1".parse().unwrap());
        let net_pfx = Prefix::new(net, 8);
        assert!(net_pfx.contains(host));
    }

    #[test]
    fn subnet_address_maps_to_subnet_address() {
        // First-seen subnet addresses keep their zero host parts.
        let mut a = anon();
        for s in ["10.2.3.0", "172.20.0.0", "192.200.4.0", "1.0.0.0"] {
            let ip: Ip = s.parse().unwrap();
            let out = a.anonymize(ip);
            let tz_in = ip.0.trailing_zeros();
            let tz_out = out.0.trailing_zeros();
            assert!(
                tz_out >= tz_in,
                "{s} (tz {tz_in}) -> {out} (tz {tz_out})"
            );
        }
    }

    #[test]
    fn ordinary_never_maps_into_loopback_or_linklocal() {
        // 1/128 of random class A images would land in 127/8 without the
        // region pinning; with it, none may.
        let mut a = anon();
        for i in 0..4096u32 {
            let ip = Ip(0x0100_0000u32.wrapping_add(i.wrapping_mul(2_654_435_761)) & 0x7FFF_FFFF);
            if special_kind(ip).is_some() {
                continue;
            }
            let out = a.anonymize(ip);
            assert!(
                !Prefix::new(Ip(0x7F00_0000), 8).contains(out),
                "{ip} -> {out} in 127/8"
            );
            assert!(
                !Prefix::new(Ip(0xA9FE_0000), 16).contains(out),
                "{ip} -> {out} in 169.254/16"
            );
        }
    }

    #[test]
    fn loopback_region_maps_to_itself_conceptually() {
        // Addresses in 127/8 are special and pass through — the region
        // maps to itself trivially; this documents the invariant.
        let mut a = anon();
        let ip: Ip = "127.5.6.7".parse().unwrap();
        assert_eq!(a.anonymize(ip), ip);
    }

    #[test]
    fn prefix_structure_of_a_realistic_plan_is_preserved() {
        // Carve a /16 into /24s and check the images still share the /16
        // image and are distinct /24s: the "number of subnets of each
        // size" validation property (paper §5) in miniature.
        let mut a = anon();
        let base: Ip = "10.50.0.0".parse().unwrap();
        let out_base = a.anonymize(base);
        let mut images = std::collections::HashSet::new();
        for i in 0..32u32 {
            let sub = Ip(base.0 + (i << 8));
            let out = a.anonymize(sub);
            assert!(
                out.common_prefix_len(out_base) >= 16,
                "{sub} escaped the /16"
            );
            images.insert(out.0 >> 8);
        }
        assert_eq!(images.len(), 32, "images collided at /24 granularity");
    }

    #[test]
    fn node_count_grows_linearly() {
        let mut a = anon();
        let before = a.node_count();
        a.anonymize("10.0.0.1".parse().unwrap());
        let after_one = a.node_count();
        assert!(after_one > before);
        a.anonymize("10.0.0.1".parse().unwrap());
        assert_eq!(a.node_count(), after_one, "re-mapping allocates nothing");
        a.anonymize("10.0.0.2".parse().unwrap());
        assert!(a.node_count() <= after_one + 2, "shared path re-used");
    }

    /// Without trailing-zero forcing every unpinned node takes a keyed
    /// bit, so the PRF must run exactly once per distinct left-aligned
    /// path among them: 0-children reuse their parent's bit. The inputs
    /// end in zero runs, so most nodes inherit.
    fn assert_keyed_hash_runs_once_per_distinct_path<F: AddressFamily>(
        inputs: impl Iterator<Item = F::Addr>,
    ) {
        let mut a = PrefixTrie::<F>::with_options(b"unit-test-secret", false);
        let mut paths = std::collections::HashSet::new();
        for addr in inputs {
            if F::special(addr) {
                continue;
            }
            a.anonymize(addr);
            for depth in 1..F::WIDTH {
                let path = F::bits(addr) >> (F::WIDTH - depth) << (F::WIDTH - depth);
                if !PrefixTrie::<F>::forced_identity(path, depth, F::WIDTH) {
                    paths.insert(path);
                }
            }
        }
        assert_eq!(a.prf_calls(), paths.len() as u64);
        assert!(a.prf_calls() < a.node_count() as u64 / 2);
    }

    #[test]
    fn keyed_hash_runs_once_per_distinct_path() {
        let mix = |i: u32| i.wrapping_mul(2_654_435_761);
        assert_keyed_hash_runs_once_per_distinct_path::<V4>(
            (0..2000).map(|i| Ip(mix(i) & 0xFFFF_FF00)),
        );
        // /64 subnet addresses inside one /32.
        assert_keyed_hash_runs_once_per_distinct_path::<V6>(
            (0..2000).map(|i| Ip6((0x2001_0db8u128 << 96) | (u128::from(mix(i)) << 64))),
        );
    }

    #[test]
    fn remap_guard_is_untriggered_on_saturation() {
        // Map a large batch; the guard assertion inside anonymize must
        // never fire and all outputs must be ordinary.
        let mut a = anon();
        for i in 0..10_000u32 {
            let ip = Ip(i.wrapping_mul(2_654_435_761));
            if special_kind(ip).is_none() {
                let out = a.anonymize(ip);
                assert!(special_kind(out).is_none());
            }
        }
    }
}

#[cfg(test)]
mod repair_tests {
    use super::*;
    use confanon_netprim::Prefix;

    /// The scenario that motivated creation-time repair: interfaces in
    /// `10.x` are mapped first, then the classful `network 10.0.0.0`
    /// statement. With unlucky flips the network address's image is
    /// `0.0.0.0` (first-octet image 0 + trailing-zero preservation) —
    /// a special — and a naive remap would tear it away from the
    /// interfaces it must still contain. The repair keeps containment
    /// for every key, so this exhaustively checks many keys.
    #[test]
    fn classful_network_stays_containing_after_collision_repair() {
        for seed in 0u32..64 {
            let mut a = IpAnonymizer::new(&seed.to_be_bytes());
            let host = a.anonymize("10.181.0.18".parse().unwrap());
            let net = a.anonymize("10.0.0.0".parse().unwrap());
            assert!(
                special_kind(net).is_none(),
                "seed {seed}: network image {net} still special"
            );
            // Classful containment: same class-A network.
            assert_eq!(
                Prefix::new(net, 8).network(),
                Prefix::new(host, 8).network(),
                "seed {seed}: {net} vs {host} lost the /8 relation"
            );
        }
    }

    /// The repair must never disturb an *established* mapping: images
    /// computed before a colliding insertion stay bit-identical.
    #[test]
    fn repair_never_changes_prior_mappings() {
        for seed in 0u32..32 {
            let mut reference = IpAnonymizer::new(&seed.to_be_bytes());
            let h1 = reference.anonymize("10.181.0.18".parse().unwrap());
            let h2 = reference.anonymize("10.44.7.9".parse().unwrap());

            let mut with_collider = IpAnonymizer::new(&seed.to_be_bytes());
            assert_eq!(with_collider.anonymize("10.181.0.18".parse().unwrap()), h1);
            assert_eq!(with_collider.anonymize("10.44.7.9".parse().unwrap()), h2);
            with_collider.anonymize("10.0.0.0".parse().unwrap());
            // Re-mapping the earlier addresses still yields the same images.
            assert_eq!(with_collider.anonymize("10.181.0.18".parse().unwrap()), h1);
            assert_eq!(with_collider.anonymize("10.44.7.9".parse().unwrap()), h2);
        }
    }
}

#[cfg(test)]
mod tests6 {
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
