//! Pinned trie values: a fixed, seeded insertion sequence per address
//! family whose node count, structure digest and images are constants.
//!
//! The tries are the mapping history persisted state replays, so any
//! change to how a node's flip is derived must leave every value here
//! untouched. The sequences deliberately cover each creation rule:
//! subnet addresses with long trailing-zero runs, the neighbours of the
//! protected regions, class (or address-family) boundaries, and inputs
//! whose first image is a point special and is repaired at creation
//! time (the tests check that repairs really happen).

use confanon_netprim::{Ip, Ip6};
use confanon_testkit::rng::splitmix64;

use crate::{Ip6Anonymizer, IpAnonymizer};

const SECRET: &[u8] = b"pinned-trie-secret";

/// FNV-1a over a stream of words, for pinning every image at once.
fn fnv(words: impl IntoIterator<Item = u128>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_be_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    h
}

/// Maps `seq` in order through `step`, which returns an input's image
/// and how many trie nodes its mapping created; also returns how many
/// inputs had their image moved off a point special. A walk creates
/// nodes only below the ones it reuses, and those inside the input's
/// trailing-zero run start with `flip = 0`; so an image with a one
/// among those low bits was moved, by the creation-time repair or (when
/// no fresh node can take the flip) by the recursive remap.
fn map_all<A: Copy>(
    seq: &[A],
    mut step: impl FnMut(A) -> (A, usize),
    bits: impl Fn(A) -> u128,
) -> (Vec<A>, usize) {
    let mut moved = 0;
    let images = seq
        .iter()
        .map(|&ip| {
            let (image, fresh) = step(ip);
            let low = (fresh as u32).min(bits(ip).trailing_zeros());
            if low > 0 && bits(image).trailing_zeros() < low {
                moved += 1;
            }
            image
        })
        .collect();
    (images, moved)
}

fn map_all4(a: &mut IpAnonymizer, seq: &[Ip]) -> (Vec<Ip>, usize) {
    let step = |ip| {
        let before = a.node_count();
        let image = a.anonymize(ip);
        (image, a.node_count() - before)
    };
    map_all(seq, step, |ip| u128::from(ip.0))
}

fn map_all6(a: &mut Ip6Anonymizer, seq: &[Ip6]) -> (Vec<Ip6>, usize) {
    let step = |ip| {
        let before = a.node_count();
        let image = a.anonymize(ip);
        (image, a.node_count() - before)
    };
    map_all(seq, step, |ip| ip.0)
}

/// About 20k IPv4 inputs in a fixed order.
fn sequence4() -> Vec<Ip> {
    let mut s = 0x5eed_0004u64;
    let mut next = || splitmix64(&mut s) as u32;
    let mut out = Vec::new();
    // Classful network addresses on a fresh trie: their tails are all
    // forced to identity, so an image whose leading octet maps to 0 (or
    // onto a netmask-valued leading pattern) is a point special and is
    // repaired.
    for a in 1u32..=126 {
        out.push(a << 24);
    }
    for a in 1u32..=126 {
        for host in 1..=8 {
            out.push((a << 24) | host);
        }
    }
    for _ in 0..64 {
        out.push(0x8000_0000 | (next() & 0x3FFF_0000));
        out.push(0xC000_0000 | (next() & 0x1FFF_FF00));
    }
    // Class boundaries and their neighbours.
    for b in [
        0x0100_0000u32,
        0x7F00_0000,
        0x8000_0000,
        0xC000_0000,
        0xE000_0000,
    ] {
        for k in 1..=64 {
            out.push(b.wrapping_add(k));
            out.push(b.wrapping_sub(k));
        }
    }
    // Neighbours of 127/8 and 169.254/16 (inputs inside them pass
    // through and must stay out of the trie).
    for _ in 0..400 {
        out.push(0x7E00_0000 | (next() & 0x00FF_FFFF));
        out.push(0x8000_0000 | (next() & 0x00FF_FFFF));
        out.push(0xA9FD_0000 | (next() & 0xFFFF));
        out.push(0xA9FF_0000 | (next() & 0xFFFF));
        out.push(0xA9FE_0000 | (next() & 0xFFFF));
    }
    for k in 0..64 {
        out.push(0x7EFF_FFC0 + k);
        out.push(0x8000_0000 + k);
        out.push(0xA9FD_FFC0 + k);
        out.push(0xA9FF_0000 + k);
    }
    // Subnet addresses with trailing-zero runs of every length.
    for i in 0..4000u32 {
        let len = 8 + i % 23;
        out.push(next() & (u32::MAX << (32 - len)));
    }
    // Hosts clustered in /16s, then uniform addresses.
    let sites: Vec<u32> = (0..200).map(|_| next() & 0xFFFF_0000).collect();
    for i in 0..8000usize {
        out.push(sites[i % sites.len()] | (next() & 0xFFFF));
    }
    while out.len() < 20_000 {
        out.push(next());
    }
    out.into_iter().map(Ip).collect()
}

/// About 20k IPv6 inputs in a fixed order.
fn sequence6() -> Vec<Ip6> {
    let mut s = 0x5eed_0006u64;
    let mut next = || u128::from(splitmix64(&mut s));
    let mut out = Vec::new();
    // One- and two-bit inputs: long zero paths with forced tails, the
    // ones in `::/3` reaching `::`, `::1` or `::ffff:0:0/96` images.
    for k in 0..128 {
        out.push(1u128 << k);
    }
    for _ in 0..600 {
        let (j, k) = (next() % 128, next() % 128);
        out.push((1u128 << j) | (1u128 << k));
    }
    // Neighbours of the v4-mapped block, fe80::/10 and ff00::/8.
    for k in 0..64u128 {
        out.push((0xfffeu128 << 32) | k);
        out.push((0x1_0000u128 << 32) | k);
        out.push((0xffffu128 << 32) | k);
    }
    for _ in 0..100 {
        out.push((0xfe40u128 << 112) | (next() << 64) | next());
        out.push((0xfec0u128 << 112) | (next() << 64) | next());
        out.push((0xfe80u128 << 112) | (next() << 64) | next());
        out.push((0xfeffu128 << 112) | (next() << 64) | next());
        out.push((0xff00u128 << 112) | (next() << 64) | next());
    }
    // Sites: /48s with /64 subnet addresses and small host ids.
    let sites: Vec<u128> = (0..40)
        .map(|_| (0x2001_0db8u128 << 96) | ((next() & 0xFFFF) << 80))
        .collect();
    for i in 0..3000usize {
        out.push(sites[i % sites.len()] | ((next() & 0xFFFF) << 64));
    }
    // Subnet addresses of every prefix length, uniform global unicast
    // addresses, then hosts.
    for i in 0..1000u32 {
        let len = 16 + i % 112;
        out.push(((next() << 64) | next()) & (u128::MAX << (128 - len)));
    }
    for _ in 0..300 {
        out.push((0b001u128 << 125) | (((next() << 64) | next()) >> 3));
    }
    for i in 0.. {
        if out.len() == 20_000 {
            break;
        }
        let subnet = sites[i % sites.len()] | ((next() & 0xF) << 64);
        out.push(subnet | (next() & 0x3FF));
    }
    out.into_iter().map(Ip6).collect()
}

#[test]
fn trie4_values_are_pinned() {
    let seq = sequence4();
    let mut a = IpAnonymizer::new(SECRET);
    let (images, moved) = map_all4(&mut a, &seq);
    assert_eq!(moved, MOVED4, "images moved off a point special");
    assert_eq!(a.node_count(), NODES4);
    assert_eq!(a.structure_digest(), DIGEST4);
    assert_eq!(fnv(images.iter().map(|ip| u128::from(ip.0))), IMAGES4);
    for (i, image) in SAMPLE4 {
        assert_eq!(images[i].to_string(), image, "image of {}", seq[i]);
    }
}

#[test]
fn trie6_values_are_pinned() {
    let seq = sequence6();
    let mut a = Ip6Anonymizer::new(SECRET);
    let (images, moved) = map_all6(&mut a, &seq);
    assert_eq!(moved, MOVED6, "images moved off a point special");
    assert_eq!(a.node_count(), NODES6);
    assert_eq!(a.structure_digest(), DIGEST6);
    assert_eq!(fnv(images.iter().map(|ip| ip.0)), IMAGES6);
    for (i, image) in SAMPLE6 {
        assert_eq!(images[i].to_string(), image, "image of {}", seq[i]);
    }
}

/// Truncating away the second half of the sequence and inserting it
/// again must rebuild the pinned trie exactly.
#[test]
fn truncate_then_reinsert_reproduces_the_pinned_tries() {
    let seq = sequence4();
    let (head, tail) = seq.split_at(seq.len() / 2);
    let mut a = IpAnonymizer::new(SECRET);
    map_all4(&mut a, head);
    let mark = a.node_count();
    map_all4(&mut a, tail);
    a.truncate(mark);
    map_all4(&mut a, tail);
    assert_eq!((a.node_count(), a.structure_digest()), (NODES4, DIGEST4));

    let seq = sequence6();
    let (head, tail) = seq.split_at(seq.len() / 2);
    let mut a = Ip6Anonymizer::new(SECRET);
    map_all6(&mut a, head);
    let mark = a.node_count();
    map_all6(&mut a, tail);
    a.truncate(mark);
    map_all6(&mut a, tail);
    assert_eq!((a.node_count(), a.structure_digest()), (NODES6, DIGEST6));
}

const MOVED4: usize = 1;
const NODES4: usize = 224_190;
const DIGEST4: u64 = 0x8012_608c_85c6_1055;
const IMAGES4: u64 = 0x1aff_55e1_94a2_67c5;
const SAMPLE4: [(usize, &str); 8] = [
    (0, "28.0.0.0"),           // 1.0.0.0
    (57, "58.0.0.0"),          // 58.0.0.0
    (300, "6.0.0.7"),          // 22.0.0.7
    (1234, "160.52.0.0"),      // 166.146.0.0
    (4321, "88.64.0.0"),       // 88.64.0.0
    (9000, "192.36.162.100"),  // 210.235.150.206
    (15000, "192.36.193.227"), // 210.235.207.77
    (19999, "17.120.104.224"), // 9.113.221.76
];
const MOVED6: usize = 1;
const NODES6: usize = 541_098;
const DIGEST6: u64 = 0x853e_a00c_cd41_25b5;
const IMAGES6: u64 = 0x9aeb_9a87_beb3_fcda;
const SAMPLE6: [(usize, &str); 8] = [
    (3, "15d0:fd38:481f:1829:50ad:1858:dd5c:6368"), // ::8
    (124, "::2"),                                   // 1000::, repaired off ::
    (900, "15d0:fd38:481f:1829:50ac::39"),          // ::1:0:0:39
    (2500, "2001:888:fec2:afbc::"),                 // 2001:db8:b53d:486b::
    (6000, "2001:888:fec2:e7d7:af52:e7a7:22a3:9e84"), // 2001:db8:b53d:1::394
    (11000, "2001:888:fec2:e7d1:50ad:1858:dd5c:6268"), // 2001:db8:b53d:4::188
    (17000, "2001:888:fec2:e7d6:af52:e7a7:22a3:9ea4"), // 2001:db8:b53d::3bc
    (19999, "2001:888:7343:e7d3:af52:e7a7:22a3:9d47"), // 2001:db8:24f3:5::127
];
