//! The traced run: the workload's inputs replayed in one process
//! through each layer's public functions, with a span around every
//! call, giving the per-layer table.
//!
//! The replay is the batch path a file takes (sanitize → state load and
//! restore → discover → rewrite → leak gate → publish → state capture
//! and save), then the serve path (tenant open, `handle_anon` and
//! `flush` per request), then the inner layers timed over the same
//! inputs (tokenize, prefilter, HMAC, token hash, trie, ASN map, regexp
//! rewrite). It runs twice: untraced, then traced; the ratio of the
//! two walls is the tracing overhead.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use confanon::asnanon::{rewrite_aspath_regex, AsnMap, RewriteOptions};
use confanon::core::serve::{Status, MAX_PAYLOAD};
use confanon::core::tenant::{FlushMode, Tenant, TenantSpec};
use confanon::core::{
    sanitize_bytes, AnonState, AnonymizationStats, Anonymizer, AnonymizerConfig, DurabilityStats,
    FileMark, LeakScanner, Prefilter, Publisher, RunManifest, StdFs, STATE_FILE_NAME,
};
use confanon::crypto::{HmacSha1, TokenHasher};
use confanon::iosparse::tokenize;
use confanon::ipanon::IpAnonymizer;
use confanon::netprim::{special_kind, Ip};

use crate::stats::{self_time_ns, Metric, Tracer};

/// What one workload replays.
pub struct Replay<'a> {
    /// Owner secret.
    pub secret: String,
    /// Directory holding the workload's starting `state.json`, if the
    /// workload starts warm.
    pub base_state: Option<PathBuf>,
    /// Files the workload anonymizes, in corpus order.
    pub files: &'a [(String, String)],
    /// Files submitted to a tenant opened on the starting state (or, for
    /// a cold workload, on the state the replay saved).
    pub requests: &'a [(String, String)],
    /// AS-path regexps of the whole workload input, for the rewrite
    /// layer (the files a warm run anonymizes may hold none).
    pub regexps: Vec<String>,
    /// Scratch directory (emptied per replay).
    pub scratch: PathBuf,
}

/// The AS-path regexps of `ip as-path access-list N permit|deny RE`
/// lines, in input order.
pub fn aspath_regexps<'a>(texts: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    texts
        .into_iter()
        .flat_map(str::lines)
        .filter_map(|l| l.trim_start().strip_prefix("ip as-path access-list "))
        .filter_map(|rest| {
            let mut it = rest.splitn(3, ' ');
            let (_, action, re) = (it.next()?, it.next()?, it.next()?);
            matches!(action, "permit" | "deny").then(|| re.to_string())
        })
        .collect()
}

/// Operation counts of one replay, next to its tracer's spans.
#[derive(Default)]
pub struct Counts {
    bytes: u64,
    lines: u64,
    stats: AnonymizationStats,
    fast_lines: u64,
    slow_lines: u64,
    output_bytes: u64,
    files: u64,
    state_bytes: u64,
    journal_entries: u64,
    requests: u64,
    words: u64,
    ips: u64,
    trie4_nodes: u64,
    asn_calls: u64,
    regexps: u64,
}

/// Inner-layer loops repeat their inputs until at least this many calls
/// were made, so even tiny per-call costs span milliseconds.
const MIN_CALLS: usize = 200_000;

fn cycle<T>(items: &[T]) -> impl Iterator<Item = &T> {
    let rounds = if items.is_empty() {
        0
    } else {
        MIN_CALLS.div_ceil(items.len())
    };
    (0..rounds).flat_map(move |_| items.iter())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs the replay once, recording into `t` (a disabled tracer records
/// nothing). Returns the operation counts.
pub fn replay(r: &Replay<'_>, t: &mut Tracer) -> Result<Counts, String> {
    if r.scratch.exists() {
        std::fs::remove_dir_all(&r.scratch).map_err(err)?;
    }
    let (out_dir, state_dir, tenant_dir) = (
        r.scratch.join("out"),
        r.scratch.join("state"),
        r.scratch.join("tenant"),
    );
    for d in [&out_dir, &state_dir, &tenant_dir] {
        std::fs::create_dir_all(d).map_err(err)?;
    }
    let fs = StdFs;
    let secret = r.secret.as_bytes();
    let cfg = AnonymizerConfig::new(secret.to_vec());
    let mut c = Counts::default();
    let root = t.begin("replay");

    let texts: Vec<String> = t.time("input.sanitize", || {
        r.files
            .iter()
            .map(|(_, s)| sanitize_bytes(s.as_bytes()).0)
            .collect()
    });
    c.bytes = r.files.iter().map(|(_, s)| s.len() as u64).sum();
    c.files = r.files.len() as u64;

    let mut anon = Anonymizer::new(cfg.clone());
    let mut marks = BTreeMap::new();
    if let Some(dir) = &r.base_state {
        let state = load_restore(t, dir, &mut anon)?;
        marks = state.files;
    }

    let mut per_file = Vec::with_capacity(texts.len());
    let d = t.begin("anonymizer.discover");
    for text in &texts {
        let before = *anon.prefilter_stats();
        let stats = anon.discover_config(text);
        let after = *anon.prefilter_stats();
        per_file.push((
            stats,
            after.fast_path_lines - before.fast_path_lines,
            after.slow_path_lines - before.slow_path_lines,
        ));
    }
    t.end(d);
    for (stats, fast, slow) in &per_file {
        c.stats.merge(stats);
        c.fast_lines += fast;
        c.slow_lines += slow;
    }
    c.lines = c.stats.lines_total;

    let outputs: Vec<String> = t.time("anonymizer.rewrite", || {
        let mut w = anon.clone();
        texts.iter().map(|x| w.anonymize_config(x).text).collect()
    });
    c.output_bytes = outputs.iter().map(|o| o.len() as u64).sum();

    let scanner = t.time("leak.scanner_build", || {
        LeakScanner::with_exclusions(anon.leak_record(), anon.emitted_exclusions())
    });
    let leaks: usize = t.time("leak.scan", || {
        outputs.iter().map(|o| scanner.scan(o).leaks.len()).sum()
    });
    if leaks > 0 {
        return Err(format!("replay: the leak gate flagged {leaks} line(s)"));
    }

    let names: Vec<String> = r.files.iter().map(|(n, _)| n.clone()).collect();
    let p = t.begin("publish.release");
    let mut publisher = Publisher::begin(&fs, &out_dir, secret, &names).map_err(err)?;
    for (name, text) in names.iter().zip(&outputs) {
        publisher.release(name, text.as_bytes()).map_err(err)?;
    }
    publisher.finish();
    t.end(p);

    for (((name, _), text), (stats, fast, slow)) in r.files.iter().zip(&texts).zip(per_file) {
        let mark = FileMark {
            watermark: RunManifest::digest_hex(text.as_bytes()),
            stats,
            prefilter_fast: fast,
            prefilter_slow: slow,
        };
        marks.insert(name.clone(), mark);
    }
    let state = t.time("state.capture", || {
        AnonState::capture(&anon, RunManifest::fingerprint(secret), marks)
    });
    let mut saved = DurabilityStats::default();
    t.time("state.save", || state.save(&fs, &state_dir, &mut saved))
        .map_err(err)?;
    c.state_bytes = std::fs::metadata(state_dir.join(STATE_FILE_NAME))
        .map_err(err)?
        .len();
    c.journal_entries = state.journal.len() as u64;
    if r.base_state.is_none() {
        load_restore(t, &state_dir, &mut Anonymizer::new(cfg.clone()))?;
    }

    t.time("anonymizer.clone", || black_box(anon.clone()));

    let source = r.base_state.as_deref().unwrap_or(&state_dir);
    std::fs::copy(
        source.join(STATE_FILE_NAME),
        tenant_dir.join(STATE_FILE_NAME),
    )
    .map_err(err)?;
    let spec = TenantSpec {
        name: "replay".into(),
        secret: secret.to_vec(),
        state_dir: tenant_dir,
        disabled_rules: Vec::new(),
        max_request_bytes: MAX_PAYLOAD,
        queue_depth: None,
    };
    let mut tenant = t.time("tenant.open", || Tenant::open(&spec, FlushMode::Drain, &fs));
    for (name, text) in r.requests {
        let (status, body) = t.time("tenant.handle_anon", || {
            tenant.handle_anon(name, text.as_bytes(), &fs)
        });
        if status != Status::Ok {
            return Err(format!(
                "replay: tenant answered {status:?}: {}",
                String::from_utf8_lossy(&body)
            ));
        }
        t.time("tenant.flush", || tenant.flush(&fs)).map_err(err)?;
    }
    c.requests = r.requests.len() as u64;

    inner_layers(t, r, &texts, &anon, &mut c);
    t.end(root);
    Ok(c)
}

fn load_restore(t: &mut Tracer, dir: &Path, anon: &mut Anonymizer) -> Result<AnonState, String> {
    let state = t
        .time("state.load", || AnonState::load(&StdFs, dir))
        .map_err(err)?
        .ok_or_else(|| format!("no state in {}", dir.display()))?;
    t.time("state.restore", || {
        state.restore_into(&dir.display().to_string(), anon)
    })
    .map_err(err)?;
    Ok(state)
}

/// Times the inner layers over the replay's own inputs.
fn inner_layers(
    t: &mut Tracer,
    r: &Replay<'_>,
    texts: &[String],
    anon: &Anonymizer,
    c: &mut Counts,
) {
    let (secret, regexps) = (r.secret.as_bytes(), &r.regexps);
    let lines: Vec<&str> = texts.iter().flat_map(|x| x.lines()).collect();
    t.time("iosparse.tokenize", || {
        for l in &lines {
            black_box(tokenize(black_box(l)));
        }
    });
    t.time("rules.classify", || {
        for l in &lines {
            black_box(Prefilter::classify(black_box(l)));
        }
    });
    let words: Vec<&str> = lines
        .iter()
        .flat_map(|l| l.split_ascii_whitespace())
        .collect();
    c.words = words.len() as u64;
    let mac = HmacSha1::new(secret);
    t.time("crypto.hmac", || {
        for w in &words {
            black_box(mac.mac(w.as_bytes()));
        }
    });
    let hasher = TokenHasher::new(secret);
    t.time("crypto.token_hash", || {
        for w in &words {
            black_box(hasher.hash_token(w));
        }
    });
    let ips: Vec<Ip> = words
        .iter()
        .filter_map(|w| w.split('/').next()?.parse::<Ip>().ok())
        .filter(|ip| special_kind(*ip).is_none())
        .collect();
    let mut trie = IpAnonymizer::new(secret);
    t.time("ipanon.map", || {
        for ip in &ips {
            black_box(trie.anonymize(*ip));
        }
    });
    c.ips = ips.len() as u64;
    c.trie4_nodes = trie.node_count() as u64;

    let asns: Vec<u16> = anon
        .leak_record()
        .asns
        .iter()
        .filter_map(|a| a.parse().ok())
        .collect();
    let map = AsnMap::new(secret);
    let a = t.begin("asnanon.asn_map");
    for asn in cycle(&asns) {
        black_box(map.map(*asn));
        c.asn_calls += 1;
    }
    t.end(a);
    c.regexps = regexps.len() as u64;
    t.time("asnanon.regex_rewrite", || {
        for re in regexps {
            let _ = black_box(rewrite_aspath_regex(re, &map, RewriteOptions::default()));
        }
    });
}

/// Runs the replay untraced, then traced, and derives the per-layer
/// metrics. Also writes the traced spans as JSON to `spans_out`.
pub fn measure(r: &Replay<'_>, run_id: &str, spans_out: &Path) -> Result<Layers, String> {
    let t0 = Instant::now();
    replay(r, &mut Tracer::new(run_id.into(), false))?;
    let untraced_s = t0.elapsed().as_secs_f64();
    let mut t = Tracer::new(run_id.into(), true);
    let t1 = Instant::now();
    let c = replay(r, &mut t)?;
    let traced_s = t1.elapsed().as_secs_f64();
    std::fs::write(spans_out, t.to_json().to_string_compact()).map_err(err)?;
    Ok(Layers {
        counts: c,
        tracer: t,
        overhead_ratio: traced_s / untraced_s,
    })
}

/// A finished traced replay.
pub struct Layers {
    counts: Counts,
    tracer: Tracer,
    overhead_ratio: f64,
}

fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

impl Layers {
    fn ns(&self, name: &str) -> f64 {
        self.tracer.total_ns(name) as f64
    }

    fn ms(&self, name: &str) -> f64 {
        self.ns(name) / 1e6
    }

    /// Share of the root span no layer span covers.
    pub fn residual_frac(&self) -> f64 {
        let spans = self.tracer.spans();
        spans
            .iter()
            .position(|s| s.name == "replay")
            .map_or(f64::NAN, |root| {
                let s = &spans[root];
                self_time_ns(spans, root) as f64 / (s.end_ns - s.start_ns) as f64
            })
    }

    /// Every per-layer metric measured in-process: `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.counts;
        let tokens = c.stats.words_total;
        vec![
            (
                "input.sanitize_ns_per_byte",
                per(self.ns("input.sanitize"), c.bytes),
                "ns",
            ),
            (
                "iosparse.tokenize_ns_per_line",
                per(self.ns("iosparse.tokenize"), c.lines),
                "ns",
            ),
            (
                "rules.classify_ns_per_line",
                per(self.ns("rules.classify"), c.lines),
                "ns",
            ),
            (
                "rules.fast_path_frac",
                per(c.fast_lines as f64, c.fast_lines + c.slow_lines),
                "frac",
            ),
            (
                "crypto.hmac_ns_per_call",
                per(self.ns("crypto.hmac"), c.words),
                "ns",
            ),
            (
                "crypto.token_hash_ns_per_call",
                per(self.ns("crypto.token_hash"), c.words),
                "ns",
            ),
            (
                "ipanon.map_ns_per_ip",
                per(self.ns("ipanon.map"), c.ips),
                "ns",
            ),
            ("ipanon.trie4_nodes", c.trie4_nodes as f64, "count"),
            (
                "ipanon.nodes_per_ip",
                per(c.trie4_nodes as f64, c.ips),
                "ratio",
            ),
            (
                "asnanon.asn_map_ns_per_call",
                per(self.ns("asnanon.asn_map"), c.asn_calls),
                "ns",
            ),
            (
                "asnanon.regex_rewrite_ms_per_regexp",
                per(self.ms("asnanon.regex_rewrite"), c.regexps),
                "ms",
            ),
            (
                "anonymizer.discover_ns_per_token",
                per(self.ns("anonymizer.discover"), tokens),
                "ns",
            ),
            (
                "anonymizer.rewrite_ns_per_token",
                per(self.ns("anonymizer.rewrite"), tokens),
                "ns",
            ),
            ("anonymizer.clone_ms", self.ms("anonymizer.clone"), "ms"),
            ("leak.scanner_build_ms", self.ms("leak.scanner_build"), "ms"),
            (
                "leak.scan_ns_per_byte",
                per(self.ns("leak.scan"), c.output_bytes),
                "ns",
            ),
            (
                "publish.release_ms_per_file",
                per(self.ms("publish.release"), c.files),
                "ms",
            ),
            ("state.load_ms", self.ms("state.load"), "ms"),
            ("state.restore_ms", self.ms("state.restore"), "ms"),
            ("state.capture_ms", self.ms("state.capture"), "ms"),
            ("state.save_ms", self.ms("state.save"), "ms"),
            ("state.bytes", c.state_bytes as f64, "bytes"),
            ("state.journal_entries", c.journal_entries as f64, "count"),
            (
                "tenant.handle_anon_ms",
                per(self.ms("tenant.handle_anon"), c.requests),
                "ms",
            ),
            (
                "tenant.flush_ms",
                per(self.ms("tenant.flush"), c.requests),
                "ms",
            ),
            ("layers.residual_frac", self.residual_frac(), "frac"),
            ("trace.overhead_ratio", self.overhead_ratio, "ratio"),
        ]
    }

    /// The layer table: each inner layer's ns/op times the program's own
    /// op count for the replayed files, against the measured discover +
    /// rewrite spans they run inside. Returns the printable rows and the
    /// share of the measured time the model explains.
    pub fn table(&self) -> (Vec<String>, f64) {
        let c = &self.counts;
        let s = &c.stats;
        let rows: [(&str, f64, u64, &str); 7] = [
            (
                "iosparse.tokenize",
                per(self.ns("iosparse.tokenize"), c.lines),
                2 * s.lines_total,
                "lines x2 (discover+rewrite)",
            ),
            (
                "rules.classify",
                per(self.ns("rules.classify"), c.lines),
                2 * s.lines_total,
                "lines x2 (discover+rewrite)",
            ),
            (
                "crypto.token_hash",
                per(self.ns("crypto.token_hash"), c.words),
                s.segments_hashed + s.secrets_hashed,
                "segments_hashed+secrets_hashed",
            ),
            (
                "ipanon.map",
                per(self.ns("ipanon.map"), c.ips),
                s.ips_mapped,
                "ips_mapped",
            ),
            (
                "asnanon.asn_map",
                per(self.ns("asnanon.asn_map"), c.asn_calls),
                s.asns_mapped,
                "asns_mapped",
            ),
            (
                "asnanon.regex_rewrite",
                per(self.ns("asnanon.regex_rewrite"), c.regexps),
                2 * s.regexps_rewritten,
                "regexps_rewritten x2",
            ),
            (
                "leak.scan",
                per(self.ns("leak.scan"), c.output_bytes),
                c.output_bytes,
                "output bytes",
            ),
        ];
        let measured =
            self.ns("anonymizer.discover") + self.ns("anonymizer.rewrite") + self.ns("leak.scan");
        let mut lines = vec![format!(
            "{:<24} {:>12} {:>12} {:>12}  op count",
            "layer", "ns/op", "ops", "predicted_ms"
        )];
        let mut predicted = 0.0;
        for (name, ns_op, ops, what) in rows {
            let ms = ns_op * ops as f64 / 1e6;
            predicted += ms;
            lines.push(format!(
                "{name:<24} {ns_op:>12.1} {ops:>12} {ms:>12.2}  {what}"
            ));
        }
        let measured_ms = measured / 1e6;
        lines.push(format!(
            "{:<24} {:>12} {:>12} {:>12.2}  measured discover+rewrite+leak.scan spans",
            "total", "", "", measured_ms
        ));
        lines.push(format!(
            "{:<24} {:>12} {:>12} {:>12.2}  not explained by the rows above",
            "residual",
            "",
            "",
            measured_ms - predicted
        ));
        (lines, predicted / measured_ms)
    }
}
