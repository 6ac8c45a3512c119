//! Primitive costs: SHA-1, HMAC, token hashing, ASN permutation.
//!
//! Every non-pass-list token costs one salted SHA-1 (§4.1); every located
//! ASN costs a Feistel walk; every fresh trie node costs one keyed bit of
//! its input path (§4.3). These numbers bound the whole pipeline. The
//! SHA-1 kernel depends on the CPU, so the suite prints it with its rows.

use std::hint::black_box;

use confanon_asnanon::AsnMap;
use confanon_bench::finish_suite;
use confanon_crypto::{sha1, FeistelPermutation, HmacSha1, Prf, Sha1, TokenHasher};
use confanon_testkit::bench::Runner;

fn main() {
    let mut r = Runner::new("crypto");
    println!("sha1 kernel: {}", sha1::kernel());

    for n in [64usize, 1024, 65536] {
        let data = vec![0xABu8; n];
        r.bench_elements(&format!("sha1_digest_{n}B"), n as u64, "bytes", || {
            black_box(Sha1::digest(&data))
        });
    }

    let mac = HmacSha1::new(b"owner-secret");
    r.bench("hmac_short", || black_box(mac.mac(b"UUNET-import")));
    // The trie's call: one keyed bit of a 4-byte left-aligned v4 path.
    let prf = Prf::new(b"owner-secret");
    let mut path = 0u32;
    r.bench("prf_bit_v4_path", || {
        path = path.wrapping_add(0x9E37_79B9);
        black_box(prf.bit("iptrie", &path.to_be_bytes()))
    });
    let hasher = TokenHasher::new(b"owner-secret");
    r.bench("hash_token", || black_box(hasher.hash_token("UUNET-import")));

    let p = FeistelPermutation::new(b"owner-secret", "asn");
    let mut x = 0u16;
    r.bench("feistel_apply", || {
        x = x.wrapping_add(1);
        black_box(p.apply(x))
    });
    let m = AsnMap::new(b"owner-secret");
    let mut y = 1u16;
    r.bench("asn_map_public", || {
        y = (y % 64000).wrapping_add(1);
        black_box(m.map(y))
    });

    finish_suite(&r, "crypto");
}
