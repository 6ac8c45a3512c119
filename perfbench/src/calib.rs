//! Host calibration: a fixed SHA-1 kernel timed in every run.
//!
//! The kernel is the benchmark's own code, not the program's, so no
//! change to the program can move it. When it reads slower than usual,
//! the host was slower (CPU steal, frequency scaling, a noisy
//! neighbour) and the run's other figures should be read as noise, not
//! as a regression.

use std::time::Instant;

use crate::stats::median;

/// Bytes hashed per timed pass.
const BUF_LEN: usize = 1 << 20;
/// Timed passes; the reported figure is their median.
const PASSES: usize = 5;

/// SHA-1 of `data` (FIPS 180-1), straight from the specification.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h: [u32; 5] = [
        0x6745_2301,
        0xEFCD_AB89,
        0x98BA_DCFE,
        0x1032_5476,
        0xC3D2_E1F0,
    ];
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
    for block in msg.chunks_exact(64) {
        let mut w = [0u32; 80];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = h;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let t = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = t;
        }
        for (hv, v) in h.iter_mut().zip([a, b, c, d, e]) {
            *hv = hv.wrapping_add(v);
        }
    }
    let mut out = [0u8; 20];
    for (chunk, v) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&v.to_be_bytes());
    }
    out
}

/// Median ns per byte of the calibration kernel over a fixed buffer.
pub fn sha1_ns_per_byte() -> f64 {
    let buf: Vec<u8> = (0..BUF_LEN).map(|i| (i * 31 % 251) as u8).collect();
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(sha1(std::hint::black_box(&buf)));
            t.elapsed().as_nanos() as f64 / BUF_LEN as f64
        })
        .collect();
    median(&passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: [u8; 20]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn matches_the_fips_test_vectors() {
        assert_eq!(
            hex(sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(hex(sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }
}
