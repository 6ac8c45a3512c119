//! The zero-copy equivalence suite: differential properties pinning the
//! borrow-or-own rewrite and the byte-class tokenizer dispatch to their
//! straightforward baselines.
//!
//! Each optimized path keeps its predecessor in-tree — the clone-always
//! emit (`disable_zero_copy`) and the per-char scanners
//! (`tokenize_chars`/`segment_chars`) — and this suite proves the pairs
//! indistinguishable on seeded and chaos-mutated inputs:
//!
//! 1. **Borrow verdict** — `anonymize_command_line` returns
//!    `Cow::Borrowed` *exactly* when no byte of the line changed;
//! 2. **Rewrite identity** — whole-config output bytes and per-rule
//!    fire counts are equal with zero-copy on and off;
//! 3. **Scanner identity** — the byte-table tokenizer and segmenter
//!    agree with the per-char references on arbitrary mutated lines.

use std::borrow::Cow;

use confanon::core::{sanitize_bytes, Anonymizer, AnonymizerConfig};
use confanon::iosparse::{segment, segment_chars, tokenize, tokenize_chars};
use confanon_testkit::chaos::ChaosMutator;
use confanon_testkit::props::{any, pattern, Strategy};

/// Strategy: one plausible config line, biased toward the shapes the
/// rules care about (addresses, ASNs, hostnames, pass-list keywords).
fn config_line() -> impl Strategy<Value = String> {
    (
        any::<u32>(),
        1u16..64000,
        pattern("[a-zA-Z][a-zA-Z0-9.-]{0,12}"),
        0u8..6,
    )
        .prop_map(|(raw, asn, word, shape)| {
            let ip = confanon::netprim::Ip(raw);
            match shape {
                0 => format!(" neighbor {ip} remote-as {asn}"),
                1 => format!("hostname {word}"),
                2 => format!(" ip address {ip} 255.255.255.0"),
                3 => format!(" description link to {word} via {ip}"),
                4 => "interface Serial0/0".to_string(),
                _ => format!(" snmp-server community {word} RO"),
            }
        })
}

/// Strategy: a small multi-line config built from [`config_line`]s.
fn config_text() -> impl Strategy<Value = String> {
    (config_line(), config_line(), config_line(), config_line())
        .prop_map(|(a, b, c, d)| format!("{a}\n{b}\n{c}\n{d}\n"))
}

/// A chaos-mutated descendant of a seed corpus file: hostile bytes run
/// through the same sanitizer the pipeline uses.
fn chaos_text(seed: u64) -> String {
    let ds = confanon::confgen::generate_dataset(&confanon::confgen::DatasetSpec {
        seed: 0x2e20_c0de,
        networks: 1,
        mean_routers: 2,
        backbone_fraction: 0.5,
    });
    let base = &ds.networks[0].routers[seed as usize % ds.networks[0].routers.len()].config;
    let mutated = ChaosMutator::new(seed).mutate(base.as_bytes());
    let (repaired, _) = sanitize_bytes(&mutated.bytes);
    repaired
}

fn anon(secret: u64, zero_copy: bool) -> Anonymizer {
    let mut cfg = AnonymizerConfig::new(secret.to_be_bytes().to_vec());
    cfg.disable_zero_copy = !zero_copy;
    Anonymizer::new(cfg)
}

confanon_testkit::props! {
    cases = 256;

    /// The borrow-or-own invariant (DESIGN.md §17): `Borrowed` is
    /// returned exactly when the emitted line is byte-identical to the
    /// input — classification-only rule fires and permutation fixed
    /// points included.
    fn borrowed_iff_no_byte_changed(line in config_line(), secret in any::<u64>()) {
        let mut a = anon(secret, true);
        let mut stats = Default::default();
        let out = a.anonymize_command_line(&line, &mut stats);
        match &out {
            Cow::Borrowed(s) => assert_eq!(*s, line, "Borrowed must alias the input"),
            Cow::Owned(s) => assert_ne!(
                s, &line,
                "an Owned line equal to its input is a missed borrow"
            ),
        }
        let r = a.rewrite_stats();
        assert_eq!(r.lines_total, r.lines_borrowed + r.lines_rewritten);
        assert_eq!(
            matches!(out, Cow::Borrowed(_)),
            r.lines_borrowed == 1,
            "the counters must agree with the verdict"
        );
    }

    /// Zero-copy on vs. off: byte-identical whole-config output and
    /// identical per-rule fire counts, on generated configs.
    fn zero_copy_matches_legacy_on_generated(text in config_text(), secret in any::<u64>()) {
        let new = anon(secret, true).anonymize_config(&text);
        let old = anon(secret, false).anonymize_config(&text);
        assert_eq!(new.text, old.text, "output bytes diverged");
        assert_eq!(
            new.stats.rule_fires_complete(),
            old.stats.rule_fires_complete(),
            "per-rule fire counts diverged"
        );
    }

    /// The same differential on chaos-mutated corpora: hostile token
    /// shapes, torn lines, and banner debris must not open a gap
    /// between the two emit paths either.
    fn zero_copy_matches_legacy_on_chaos(seed in any::<u64>(), secret in any::<u64>()) {
        let text = chaos_text(seed);
        let new = anon(secret, true).anonymize_config(&text);
        let old = anon(secret, false).anonymize_config(&text);
        assert_eq!(new.text, old.text, "chaos seed {seed}: output bytes diverged");
        assert_eq!(
            new.stats.rule_fires_complete(),
            old.stats.rule_fires_complete(),
            "chaos seed {seed}: per-rule fire counts diverged"
        );
    }

    /// The byte-class tokenizer and segmenter agree with the per-char
    /// references on every line of a chaos-mutated config.
    fn byte_dispatch_scanners_match_references(seed in any::<u64>()) {
        for line in chaos_text(seed).lines() {
            assert_eq!(tokenize(line), tokenize_chars(line), "line {line:?}");
            for tok in tokenize(line) {
                assert_eq!(
                    segment(tok.text),
                    segment_chars(tok.text),
                    "word {:?}",
                    tok.text
                );
            }
        }
    }
}
