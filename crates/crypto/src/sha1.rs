//! SHA-1 (RFC 3174 / FIPS 180-1) implemented from scratch.
//!
//! The paper anonymizes strings "using SHA1 digests \[2\]" where \[2\] is
//! RFC 3174, so we implement exactly that algorithm. SHA-1 is no longer
//! collision resistant, but for this application the threat model is
//! *preimage* resistance of salted digests of short identifiers, for which
//! it remains adequate — and fidelity to the paper matters more here.

/// The SHA-1 initial hash value (FIPS 180-1 §7).
pub(crate) const IV: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Streaming SHA-1 hasher.
///
/// ```
/// use confanon_crypto::Sha1;
/// let digest = Sha1::digest(b"abc");
/// assert_eq!(Sha1::to_hex(&digest), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes (fits u64 for our workloads).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the standard initial state.
    pub fn new() -> Sha1 {
        Sha1 {
            state: IV,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// One-shot convenience: digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            compress(&mut self.state, block.try_into().expect("64-byte block"));
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Applies padding and returns the 160-bit digest.
    pub fn finalize(mut self) -> [u8; 20] {
        pad_and_compress(&mut self.state, &mut self.buf, self.buf_len, self.len);
        state_bytes(&self.state)
    }

    /// Lowercase hex of a digest.
    pub fn to_hex(digest: &[u8; 20]) -> String {
        let mut s = String::with_capacity(40);
        for b in digest {
            use std::fmt::Write;
            write!(s, "{b:02x}").expect("write to String");
        }
        s
    }
}

/// Finishes a message whose last `fill` bytes (`fill < 64`) sit at the
/// front of `block` and whose total length is `len` bytes: 0x80, zeros,
/// then the 64-bit big-endian bit length, in one block or, when the
/// length field does not fit, two. Padding is written in bulk straight
/// into the block rather than one zero byte at a time.
pub(crate) fn pad_and_compress(state: &mut [u32; 5], block: &mut [u8; 64], fill: usize, len: u64) {
    block[fill] = 0x80;
    if fill >= 56 {
        block[fill + 1..].fill(0);
        compress(state, block);
        block[..56].fill(0);
    } else {
        block[fill + 1..56].fill(0);
    }
    block[56..].copy_from_slice(&(len * 8).to_be_bytes());
    compress(state, block);
}

/// The big-endian digest bytes of a SHA-1 state.
pub(crate) fn state_bytes(state: &[u32; 5]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Which SHA-1 compression body runs on this CPU: `"sha-ni"` when
/// the x86 SHA extensions are present, `"portable"` otherwise. The
/// digests are the same either way; only the cost differs, so timing
/// reports carry this next to their figures.
pub fn kernel() -> &'static str {
    if sha_ni_detected() {
        "sha-ni"
    } else {
        "portable"
    }
}

#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    // `std` caches the CPUID probe: each check is a load and a bit test.
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

#[cfg(not(target_arch = "x86_64"))]
fn sha_ni_detected() -> bool {
    false
}

/// Compresses one 64-byte block into `state` with the fastest body the
/// CPU offers. Every keyed hash in the anonymizer (token digests, trie
/// flip bits, the ASN Feistel rounds) ends here.
pub(crate) fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    if !compress_sha_ni(state, block) {
        compress_portable(state, block);
    }
}

/// Runs the SHA-NI body and returns `true`, or returns `false` without
/// touching `state` when the CPU lacks the SHA extensions.
#[cfg(target_arch = "x86_64")]
fn compress_sha_ni(state: &mut [u32; 5], block: &[u8; 64]) -> bool {
    if !sha_ni_detected() {
        return false;
    }
    // SAFETY: `sha_ni_detected` has just confirmed at run time that this
    // CPU implements every feature `sha_ni::compress` is compiled for
    // (sha, sse2, ssse3, sse4.1). The body takes its inputs by reference
    // and touches no raw pointer, so that is its only requirement.
    #[allow(unsafe_code)]
    unsafe {
        sha_ni::compress(state, block)
    };
    true
}

#[cfg(not(target_arch = "x86_64"))]
fn compress_sha_ni(_state: &mut [u32; 5], _block: &[u8; 64]) -> bool {
    false
}

/// The portable body: four loops, one per round group, so `f` and `k`
/// are loop constants instead of a branch taken 80 times per block. It is
/// the only body on CPUs without SHA extensions and on other targets, and
/// the reference the SHA-NI body is tested against.
fn compress_portable(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    for t in 16..80 {
        w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
    }

    let [mut a, mut b, mut c, mut d, mut e] = *state;
    // `round!` is the standard a..e rotation with the choice/parity/
    // majority functions in branch-free form.
    macro_rules! round {
        ($f:expr, $k:expr, $wt:expr) => {
            let temp = a
                .rotate_left(5)
                .wrapping_add($f)
                .wrapping_add(e)
                .wrapping_add($wt)
                .wrapping_add($k);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        };
    }
    for &wt in &w[0..20] {
        round!(d ^ (b & (c ^ d)), 0x5A827999, wt);
    }
    for &wt in &w[20..40] {
        round!(b ^ c ^ d, 0x6ED9EBA1, wt);
    }
    for &wt in &w[40..60] {
        round!((b & c) | (d & (b | c)), 0x8F1BBCDC, wt);
    }
    for &wt in &w[60..80] {
        round!(b ^ c ^ d, 0xCA62C1D6, wt);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

/// The x86 SHA-extensions body.
///
/// One `__m128i` holds four message words (or A..D), highest lane first.
/// `sha1rnds4` runs four rounds on A..D given the four next words with E
/// already added; `sha1nexte` derives that E from A four rounds back
/// (rotated left by 30) and adds it to the next words; `sha1msg1`,
/// `sha1msg2` and a XOR extend the message schedule four words at a
/// time. The round function and constant are the immediate `FUNC`: 0 for
/// rounds 0–19, 1 for 20–39, 2 for 40–59, 3 for 60–79.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_set_epi32, _mm_sha1msg1_epu32,
        _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32, _mm_xor_si128,
    };

    /// Four big-endian message words, word `4 * i` in the highest lane.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn words(block: &[u8; 64], i: usize) -> __m128i {
        let w = |j: usize| {
            let at = 16 * i + 4 * j;
            i32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
        };
        _mm_set_epi32(w(0), w(1), w(2), w(3))
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
        let abcd0 = _mm_set_epi32(
            state[0] as i32,
            state[1] as i32,
            state[2] as i32,
            state[3] as i32,
        );
        let e0 = _mm_set_epi32(state[4] as i32, 0, 0, 0);
        // Slot 4 is written (by step 4) before it is read.
        let mut w = [
            words(block, 0),
            words(block, 1),
            words(block, 2),
            words(block, 3),
            e0,
        ];

        // `cur` is A..D now, `prev` A..D four rounds back. Each step runs
        // four rounds on message words `$m` and leaves the new state in
        // `prev`, so the two names trade places every step.
        let mut cur = abcd0;
        let mut prev = _mm_sha1rnds4_epu32::<0>(cur, _mm_add_epi32(e0, w[0]));
        std::mem::swap(&mut cur, &mut prev);
        macro_rules! four {
            ($func:literal, $m:expr) => {
                prev = _mm_sha1rnds4_epu32::<$func>(cur, _mm_sha1nexte_epu32(prev, $m));
                std::mem::swap(&mut cur, &mut prev);
            };
        }
        four!(0, w[1]);
        four!(0, w[2]);
        four!(0, w[3]);
        // Words 16.. come from the ring `w`: step `s` (s >= 4) writes
        // slot `s % 5` from the four slots after it, oldest first.
        macro_rules! scheduled {
            ($func:literal, $s:literal) => {
                w[$s % 5] = _mm_sha1msg2_epu32(
                    _mm_xor_si128(
                        _mm_sha1msg1_epu32(w[($s + 1) % 5], w[($s + 2) % 5]),
                        w[($s + 3) % 5],
                    ),
                    w[($s + 4) % 5],
                );
                four!($func, w[$s % 5]);
            };
        }
        scheduled!(0, 4);
        scheduled!(1, 5);
        scheduled!(1, 6);
        scheduled!(1, 7);
        scheduled!(1, 8);
        scheduled!(1, 9);
        scheduled!(2, 10);
        scheduled!(2, 11);
        scheduled!(2, 12);
        scheduled!(2, 13);
        scheduled!(2, 14);
        scheduled!(3, 15);
        scheduled!(3, 16);
        scheduled!(3, 17);
        scheduled!(3, 18);
        scheduled!(3, 19);

        let abcd = _mm_add_epi32(abcd0, cur);
        let e = _mm_sha1nexte_epu32(prev, e0);
        state[0] = _mm_extract_epi32::<3>(abcd) as u32;
        state[1] = _mm_extract_epi32::<2>(abcd) as u32;
        state[2] = _mm_extract_epi32::<1>(abcd) as u32;
        state[3] = _mm_extract_epi32::<0>(abcd) as u32;
        state[4] = _mm_extract_epi32::<3>(e) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confanon_testkit::rng::{Rng, SeedableRng, StdRng};

    fn hex(data: &[u8]) -> String {
        Sha1::to_hex(&Sha1::digest(data))
    }

    #[test]
    fn rfc3174_test_vectors() {
        // TEST1 and TEST2a from RFC 3174 §7.3, plus the empty string and
        // the standard one-million-a vector from FIPS 180-1.
        assert_eq!(hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            Sha1::to_hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha1::digest(&data);
        // Feed in awkward chunk sizes to exercise buffering.
        for chunk in [1usize, 3, 63, 64, 65, 127, 1000] {
            let mut h = Sha1::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64 padding boundaries must all work.
        for n in 50..70usize {
            let data = vec![0xABu8; n];
            let d1 = Sha1::digest(&data);
            let mut h = Sha1::new();
            h.update(&data[..n / 2]);
            h.update(&data[n / 2..]);
            assert_eq!(h.finalize(), d1, "length {n}");
        }
    }

    #[test]
    fn sha_ni_body_matches_portable_body() {
        // Both bodies called directly on seeded (state, block) pairs; the
        // state is random too, so midstates the RFC vectors never reach
        // are covered. On a CPU without SHA extensions only the portable
        // body exists, and the dispatcher must say so.
        let mut rng = StdRng::seed_from_u64(0x5A1_0C0DE);
        let mut compared = 0;
        for _ in 0..10_000 {
            let state: [u32; 5] = std::array::from_fn(|_| rng.gen());
            let block: [u8; 64] = std::array::from_fn(|_| rng.gen());
            let mut portable = state;
            compress_portable(&mut portable, &block);
            let mut sha_ni = state;
            if compress_sha_ni(&mut sha_ni, &block) {
                assert_eq!(sha_ni, portable, "state {state:08x?} block {block:02x?}");
                compared += 1;
            } else {
                assert_eq!(sha_ni, state, "a declined SHA-NI call changed the state");
            }
        }
        let expected = if kernel() == "sha-ni" { 10_000 } else { 0 };
        assert_eq!(compared, expected, "kernel() = {}", kernel());
    }

    #[test]
    fn portable_body_matches_rfc_vector() {
        // The one-block "abc" message through the portable body alone, so
        // the reference stays pinned to RFC 3174 whichever kernel runs.
        let mut block = [0u8; 64];
        block[..3].copy_from_slice(b"abc");
        block[3] = 0x80;
        block[63] = 24;
        let mut state = IV;
        compress_portable(&mut state, &block);
        assert_eq!(
            Sha1::to_hex(&state_bytes(&state)),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha1::digest(b"UUNET-import"), Sha1::digest(b"UUNET-export"));
    }
}
