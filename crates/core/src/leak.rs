//! Leak recording and the §6.1 residual-leak scanner.
//!
//! "Our best defense against textual attacks is an iterative methodology.
//! After anonymizing configs, we highlight for a human operator lines
//! that seem likely to leak information. … As an example of a
//! leak-highlighting method, the anonymizer can record all AS numbers it
//! sees before hashing them, and then grep out all lines from the
//! anonymized configs that still include any of those numbers."
//!
//! The scanner matches *whole* numbers and *whole* dotted quads (the
//! paper's plain `grep` would flag AS 1 inside unrelated integers — its
//! own Genuity footnote — so we tokenize first). Because the ASN map is a
//! permutation over a shared space, a legitimate image may coincide with
//! a recorded original; callers that know the mapping can pass the image
//! set to [`LeakScanner::scan_excluding`] to suppress those
//! false positives, which is exactly what the human reviewer of §6.1 does
//! with context.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashSet};

use confanon_testkit::json::Json;

/// Everything the anonymizer saw that must not appear in the output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeakRecord {
    /// Public ASNs located by the 12 locator rules, as decimal strings.
    pub asns: BTreeSet<String>,
    /// IPv4 literals mapped (ordinary addresses only; specials are
    /// expected to survive).
    pub ips: BTreeSet<String>,
    /// Identity words hashed whole (hostnames, domains, secrets).
    pub words: BTreeSet<String>,
}

impl LeakRecord {
    /// Merges another record into this one (see [`Self::append`]).
    pub fn merge(&mut self, other: &LeakRecord) {
        self.append(&mut other.clone());
    }

    /// Moves every item of `other` into this record, leaving `other`
    /// empty. Each set merges in bulk ([`BTreeSet::append`]): one linear
    /// pass over both, not a tree descent per item.
    pub fn append(&mut self, other: &mut LeakRecord) {
        self.asns.append(&mut other.asns);
        self.ips.append(&mut other.ips);
        self.words.append(&mut other.words);
    }

    /// Total recorded items.
    pub fn len(&self) -> usize {
        self.asns.len() + self.ips.len() + self.words.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The record as JSON: `{"asns": [...], "ips": [...], "words": [...]}`.
    pub fn to_json(&self) -> Json {
        let set = |s: &BTreeSet<String>| {
            Json::Arr(s.iter().map(|v| Json::Str(v.clone())).collect())
        };
        Json::obj()
            .with("asns", set(&self.asns))
            .with("ips", set(&self.ips))
            .with("words", set(&self.words))
    }

    /// Parses the JSON shape produced by [`LeakRecord::to_json`]. Missing
    /// keys are treated as empty sets; non-string members are an error.
    pub fn from_json_str(text: &str) -> Result<LeakRecord, String> {
        LeakRecord::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }

    /// [`LeakRecord::from_json_str`] over an already parsed document
    /// (the state loader hands over its `"record"` member as is).
    pub fn from_json(doc: &Json) -> Result<LeakRecord, String> {
        let set = |key: &str| -> Result<BTreeSet<String>, String> {
            match doc.get(key) {
                None => Ok(BTreeSet::new()),
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| format!("{key:?} must be an array"))?
                    .iter()
                    .map(|item| {
                        item.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("{key:?} must hold strings"))
                    })
                    .collect(),
            }
        };
        Ok(LeakRecord {
            asns: set("asns")?,
            ips: set("ips")?,
            words: set("words")?,
        })
    }
}

/// One flagged line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leak {
    /// Zero-based line number in the anonymized text.
    pub line_no: usize,
    /// The offending line.
    pub line: String,
    /// The recorded item that survived.
    pub token: String,
}

/// The scan result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeakReport {
    /// Flagged lines, in order.
    pub leaks: Vec<Leak>,
}

impl LeakReport {
    /// True when the output is clean.
    pub fn is_clean(&self) -> bool {
        self.leaks.is_empty()
    }
}

/// The §6.1 leak index: membership sets over a [`LeakRecord`] plus the
/// exclusion set of legitimate images, and the one scan routine over
/// them.
///
/// Building the index is the expensive part, so it is built once and
/// reused. Batch builds one per *corpus*, borrowing the anonymizer's
/// record ([`LeakScanner::with_exclusions`]). A serve tenant keeps one
/// resident for its whole life, owning its strings, and grows it by
/// each committed request's additions ([`LeakScanner::extend`]) instead
/// of rebuilding it from the whole record. Per-token membership checks
/// are O(1) hash lookups either way.
#[derive(Default, PartialEq)]
pub struct LeakScanner<'a> {
    /// Legitimate images: never flagged.
    excluded: HashSet<Cow<'a, str>>,
    ips: HashSet<Cow<'a, str>>,
    asns: HashSet<Cow<'a, str>>,
    words: HashSet<Cow<'a, str>>,
}

fn borrowed(set: &BTreeSet<String>) -> HashSet<Cow<'_, str>> {
    set.iter().map(|v| Cow::Borrowed(v.as_str())).collect()
}

impl<'a> LeakScanner<'a> {
    /// A scanner with no exclusions (the paper's raw grep, tokenized).
    pub fn new(record: &'a LeakRecord) -> LeakScanner<'a> {
        LeakScanner::with_exclusions(record, [])
    }

    /// A reusable scanner that suppresses tokens known to be legitimate
    /// images of the permutation (auditor-with-mapping mode). Build once
    /// per corpus, then call [`LeakScanner::scan`] per file.
    pub fn with_exclusions(
        record: &'a LeakRecord,
        legitimate_images: impl IntoIterator<Item = String>,
    ) -> LeakScanner<'a> {
        LeakScanner {
            excluded: legitimate_images.into_iter().map(Cow::Owned).collect(),
            ips: borrowed(&record.ips),
            asns: borrowed(&record.asns),
            words: borrowed(&record.words),
        }
    }

    /// One-shot convenience over [`LeakScanner::with_exclusions`] +
    /// [`LeakScanner::scan`].
    pub fn scan_excluding(
        record: &'a LeakRecord,
        legitimate_images: impl IntoIterator<Item = String>,
        text: &str,
    ) -> LeakReport {
        LeakScanner::with_exclusions(record, legitimate_images).scan(text)
    }

    /// Adds a delta to the index: recorded items to flag and emitted
    /// images to exclude. The index owns copies of the delta's strings,
    /// so it outlives the delta.
    pub fn extend(&mut self, record: &LeakRecord, emitted: &BTreeSet<String>) {
        let pairs = [
            (&mut self.ips, &record.ips),
            (&mut self.asns, &record.asns),
            (&mut self.words, &record.words),
            (&mut self.excluded, emitted),
        ];
        for (index, delta) in pairs {
            index.extend(delta.iter().map(|v| Cow::Owned(v.clone())));
        }
    }

    /// Undoes [`LeakScanner::extend`] of the same delta. Exact only when
    /// none of the delta's items was in the index before the extend,
    /// which holds for a transaction's pending additions (they are, by
    /// construction, absent from the resident sets the index mirrors).
    pub fn retract(&mut self, record: &LeakRecord, emitted: &BTreeSet<String>) {
        let pairs = [
            (&mut self.ips, &record.ips),
            (&mut self.asns, &record.asns),
            (&mut self.words, &record.words),
            (&mut self.excluded, emitted),
        ];
        for (index, delta) in pairs {
            for v in delta {
                index.remove(v.as_str());
            }
        }
    }

    /// Scans `text`, returning every line still containing a recorded
    /// item as a whole number / quad / word.
    pub fn scan(&self, text: &str) -> LeakReport {
        let mut report = LeakReport::default();
        let mut buf = String::new();
        for (line_no, line) in text.lines().enumerate() {
            if let Some(token) = self.first_leak_in(line, &mut buf) {
                report.leaks.push(Leak {
                    line_no,
                    line: line.to_string(),
                    token,
                });
            }
        }
        report
    }

    fn first_leak_in(&self, line: &str, buf: &mut String) -> Option<String> {
        // Address tokens first (digit runs inside a quad are not
        // standalone numbers). `addr/len` prefix tokens match on the
        // address part. Recorded addresses always start with a hex digit
        // or contain `:`, so purely alphabetic tokens skip the lookups.
        if !self.ips.is_empty() {
            for token in line.split(|c: char| c.is_ascii_whitespace()) {
                if token.is_empty()
                    || (!token.as_bytes()[0].is_ascii_alphanumeric() && !token.contains(':'))
                {
                    continue;
                }
                let bare = token.split_once('/').map_or(token, |(a, _)| a);
                for t in [token, bare] {
                    if self.ips.contains(t) && !self.excluded.contains(t) {
                        return Some(t.to_string());
                    }
                }
            }
        }
        // Whole digit runs (catches ASNs inside rewritten regexps like
        // `4401|14041` without false-matching `701` inside `17012`),
        // scanned per whitespace token so address-shaped tokens can be
        // skipped wholesale: hex groups of an IPv6 token (`3a07:148:577::`)
        // are identifiers even when they happen to be all-decimal.
        if !self.asns.is_empty() {
            for token in line.split(|c: char| c.is_ascii_whitespace()) {
                let bare = token.split_once('/').map_or(token, |(a, _)| a);
                if token.contains(':') && bare.parse::<confanon_netprim::Ip6>().is_ok() {
                    continue;
                }
                let bytes = token.as_bytes();
                let mut i = 0;
                while i < bytes.len() {
                    if !bytes[i].is_ascii_digit() {
                        i += 1;
                        continue;
                    }
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let before = if start > 0 { bytes[start - 1] } else { b' ' };
                    let after = if i < bytes.len() { bytes[i] } else { b' ' };
                    // Runs adjacent to `.` are octets of a dotted quad
                    // (handled above); runs adjacent to letters are fragments
                    // of an identifier (`Serial0/1`'s neighbours are fine,
                    // but the hex of a hashed token is not a number).
                    let in_quad = before == b'.' || after == b'.';
                    let in_ident = before.is_ascii_alphabetic() || after.is_ascii_alphabetic();
                    if !in_quad && !in_ident {
                        let run = &token[start..i];
                        if self.asns.contains(run) && !self.excluded.contains(run) {
                            return Some(run.to_string());
                        }
                    }
                }
            }
        }
        // Whole alphabetic runs vs recorded identity words. Runs that are
        // already lowercase (the overwhelming majority of anonymized
        // output) are checked as borrowed slices; only mixed-case runs
        // are lowercased, into a buffer reused across lines.
        if !self.words.is_empty() {
            let bytes = line.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                if !bytes[i].is_ascii_alphabetic() {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
                    i += 1;
                }
                let run = &line[start..i];
                let word: &str = if run.bytes().any(|b| b.is_ascii_uppercase()) {
                    buf.clear();
                    buf.extend(run.chars().map(|c| c.to_ascii_lowercase()));
                    buf.as_str()
                } else {
                    run
                };
                if self.words.contains(word) && !self.excluded.contains(word) {
                    return Some(word.to_string());
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(asns: &[&str], ips: &[&str], words: &[&str]) -> LeakRecord {
        LeakRecord {
            asns: asns.iter().map(|s| s.to_string()).collect(),
            ips: ips.iter().map(|s| s.to_string()).collect(),
            words: words.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn clean_text_is_clean() {
        let r = record(&["701"], &["1.1.1.1"], &["uunet"]);
        let report = LeakScanner::new(&r).scan("router bgp 9000\n neighbor 9.9.9.9\n");
        assert!(report.is_clean());
    }

    #[test]
    fn whole_number_match_only() {
        let r = record(&["701"], &[], &[]);
        let s = LeakScanner::new(&r);
        assert!(!s.scan("neighbor x remote-as 701").is_clean());
        assert!(s.scan("neighbor x remote-as 17012").is_clean());
        assert!(s.scan("neighbor x remote-as 7011").is_clean());
    }

    #[test]
    fn asn_inside_regexp_alternation_found() {
        let r = record(&["701"], &[], &[]);
        let report = LeakScanner::new(&r).scan("ip as-path access-list 5 permit (44|701|9)");
        assert_eq!(report.leaks.len(), 1);
        assert_eq!(report.leaks[0].token, "701");
    }

    #[test]
    fn octets_do_not_false_match_asns() {
        // 1.2.3.701 contains the digit run 701 but as an octet, not an ASN.
        let r = record(&["701"], &[], &[]);
        assert!(LeakScanner::new(&r).scan("ip address 1.2.3.701").is_clean());
    }

    #[test]
    fn ip_match_is_exact_token() {
        let r = record(&[], &["1.1.1.1"], &[]);
        let s = LeakScanner::new(&r);
        assert!(!s.scan(" ip address 1.1.1.1 255.255.255.0").is_clean());
        assert!(s.scan(" ip address 11.1.1.11 255.255.255.0").is_clean());
    }

    #[test]
    fn word_match_case_insensitive() {
        let r = record(&[], &[], &["uunet"]);
        let s = LeakScanner::new(&r);
        assert!(!s.scan("route-map UUNET-import deny 10").is_clean());
        assert!(s.scan("route-map h1234-import deny 10").is_clean());
    }

    #[test]
    fn exclusion_suppresses_legitimate_images() {
        let r = record(&["701"], &[], &[]);
        let clean = LeakScanner::scan_excluding(
            &r,
            ["701".to_string()],
            "router bgp 701 appears as someone else's image",
        );
        assert!(clean.is_clean());
    }

    #[test]
    fn report_carries_line_numbers() {
        let r = record(&["99"], &[], &[]);
        let report = LeakScanner::new(&r).scan("a\nb 99\nc\n");
        assert_eq!(report.leaks[0].line_no, 1);
    }

    #[test]
    fn record_merge_and_len() {
        let mut a = record(&["1"], &[], &[]);
        let b = record(&["2"], &["3.3.3.3"], &["x"]);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }
}

#[cfg(test)]
mod index_tests {
    use super::*;
    use confanon_testkit::chaos::ChaosMutator;
    use confanon_testkit::rng::{Rng, SeedableRng, StdRng};

    const WORDS: [&str; 8] = ["uunet", "sprint", "lax", "core", "edge", "acme", "foo", "bar"];

    fn asn(rng: &mut StdRng) -> String {
        rng.gen_range(1..200u32).to_string()
    }

    fn ip(rng: &mut StdRng) -> String {
        format!("10.0.{}.{}", rng.gen_range(0..4u32), rng.gen_range(0..8u32))
    }

    fn word(rng: &mut StdRng) -> String {
        WORDS[rng.gen_range(0..WORDS.len())].to_string()
    }

    /// A random delta: a few record items and exclusions, all drawn
    /// from small pools so deltas, exclusions and texts collide often.
    fn delta(rng: &mut StdRng) -> (LeakRecord, BTreeSet<String>) {
        let mut record = LeakRecord::default();
        let mut excluded = BTreeSet::new();
        for _ in 0..rng.gen_range(0..5usize) {
            record.asns.insert(asn(rng));
            record.ips.insert(ip(rng));
            record.words.insert(word(rng));
            match rng.gen_range(0..3u32) {
                0 => excluded.insert(asn(rng)),
                1 => excluded.insert(ip(rng)),
                _ => excluded.insert(word(rng)),
            };
        }
        (record, excluded)
    }

    /// Config-shaped lines planting pool values (some recorded, some
    /// excluded, some neither) among noise, then chaos-mutated.
    fn chaos_text(rng: &mut StdRng, seed: u64) -> String {
        let mut text = String::new();
        for _ in 0..24 {
            let line = match rng.gen_range(0..5u32) {
                0 => format!(" neighbor {} remote-as {}", ip(rng), asn(rng)),
                1 => format!("route-map {}-import permit 10", word(rng).to_uppercase()),
                2 => format!("ip as-path access-list 5 permit _({}|{})_", asn(rng), asn(rng)),
                3 => format!(" ip address {}/24 secondary {}", ip(rng), word(rng)),
                _ => format!("hostname r{}.{}.net", asn(rng), word(rng)),
            };
            text.push_str(&line);
            text.push('\n');
        }
        let mutated = ChaosMutator::new(seed).mutate(text.as_bytes());
        String::from_utf8_lossy(&mutated.bytes).into_owned()
    }

    confanon_testkit::props! {
        cases = 128;

        /// The resident-index contract: an index grown by K deltas —
        /// plus one more extended and retracted again, as a rejected
        /// request's is — flags exactly what an index built once from
        /// the merged record and exclusions flags.
        fn extended_index_matches_one_built_from_the_merged_record(
            seed in 0u64..1_000_000,
            k in 1usize..8
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut merged = LeakRecord::default();
            let mut merged_excluded = BTreeSet::new();
            let mut index = LeakScanner::default();
            for _ in 0..k {
                let (record, excluded) = delta(&mut rng);
                index.extend(&record, &excluded);
                merged.merge(&record);
                merged_excluded.extend(excluded);
            }
            let (mut rejected, mut rejected_excluded) = delta(&mut rng);
            rejected.asns.retain(|v| !merged.asns.contains(v));
            rejected.ips.retain(|v| !merged.ips.contains(v));
            rejected.words.retain(|v| !merged.words.contains(v));
            rejected_excluded.retain(|v| !merged_excluded.contains(v));
            index.extend(&rejected, &rejected_excluded);
            index.retract(&rejected, &rejected_excluded);

            let once = LeakScanner::with_exclusions(&merged, merged_excluded);
            for round in 0..4 {
                let text = chaos_text(&mut rng, seed ^ round);
                assert_eq!(index.scan(&text), once.scan(&text), "seed {seed} round {round}");
            }
        }
    }
}

#[cfg(test)]
mod ipv6_scan_tests {
    use super::*;

    #[test]
    fn decimal_hex_groups_in_v6_tokens_are_not_numbers() {
        // `577` here is a hex group of an anonymized address, not an ASN.
        let r = LeakRecord {
            asns: ["577".to_string()].into_iter().collect(),
            ..Default::default()
        };
        let s = LeakScanner::new(&r);
        assert!(s.scan(" ipv6 address 3a07:148:577:b000::1/64").is_clean());
        assert!(s.scan("ipv6 route 3a07:148:577::/48 Null0").is_clean());
        // But the same digits as a standalone number still flag.
        assert!(!s.scan(" neighbor 9.9.9.9 remote-as 577").is_clean());
        // And inside a community token (not a valid v6 address) too.
        assert!(!s.scan(" set community 577:100").is_clean());
    }

    #[test]
    fn recorded_v6_addresses_still_flag() {
        let r = LeakRecord {
            ips: ["2001:db8::1".to_string()].into_iter().collect(),
            ..Default::default()
        };
        let s = LeakScanner::new(&r);
        assert!(!s.scan(" ipv6 address 2001:db8::1/64").is_clean());
        assert!(s.scan(" ipv6 address 2001:db8::2/64").is_clean());
    }
}
