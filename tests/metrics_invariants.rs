//! The metrics-invariant suite: the observability layer's determinism
//! contract.
//!
//! `metrics.json` splits into a `deterministic` section — a pure
//! function of (corpus, config, secret), byte-identical across any
//! `--jobs` value and across resumed vs. one-shot runs — and a `timing`
//! section that carries the wall-clock data excluded from that
//! guarantee. This suite pins the contract three ways:
//!
//! 1. **Jobs invariance** — the deterministic section is byte-identical
//!    at `--jobs 1/2/4` (through the binary) and across worker counts
//!    in-process over chaos-mutated corpora (property test);
//! 2. **Resume invariance** — for *every* crash point enumerated with
//!    `CONFANON_CRASH_AFTER`, the resumed run's deterministic section
//!    equals the golden uninterrupted run's;
//! 3. **Conservation** — per-rule hit counts in the metrics document
//!    sum to the `BatchReport` totals, and the category rollup
//!    conserves the same total.
//!
//! Plus the overhead guard: always-on instrumentation must cost < 5%
//! versus a stripped ([`Clock::disabled`]) run on the smoke corpus.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use confanon::core::{sanitize_bytes, AnonymizerConfig};
use confanon::obs::{validate_metrics, Clock};
use confanon::workflow::{anonymize_corpus_gated, anonymize_corpus_gated_clocked};
use confanon_testkit::chaos::ChaosMutator;
use confanon_testkit::json::Json;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_confanon"))
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("confanon-metrics-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mktemp");
    d
}

/// A small generated corpus (one network, a few routers).
fn generate_corpus(root: &Path) -> PathBuf {
    let corpus = root.join("corpus");
    let status = bin()
        .args(["generate", "--networks", "1", "--routers", "3", "--seed", "1907"])
        .arg("--out-dir")
        .arg(&corpus)
        .status()
        .expect("run generate");
    assert!(status.success());
    corpus
}

/// Runs `batch` over `corpus` with a metrics file; returns (exit code,
/// stderr). The metrics file lives *outside* `--out-dir` (the journal
/// invariant allows nothing but the manifest and `.anon` files there).
fn run_batch_with_metrics(
    corpus: &Path,
    out_dir: &Path,
    metrics: &Path,
    jobs: u32,
    crash_after: Option<u64>,
    resume: bool,
) -> (Option<i32>, String) {
    let mut cmd = bin();
    cmd.args(["batch", "--secret", "metrics-suite-secret", "--jobs", &jobs.to_string()]);
    if resume {
        cmd.arg("--resume");
    }
    cmd.arg("--metrics").arg(metrics);
    cmd.arg("--out-dir").arg(out_dir).arg(corpus);
    match crash_after {
        Some(k) => cmd.env("CONFANON_CRASH_AFTER", k.to_string()),
        None => cmd.env_remove("CONFANON_CRASH_AFTER"),
    };
    let out = cmd.output().expect("run batch");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).to_string())
}

/// Parses a metrics file, validates its schema, and returns the
/// deterministic section serialized pretty (the comparison key).
fn deterministic_section(path: &Path) -> String {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    validate_metrics(&doc).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    doc.get("deterministic")
        .expect("deterministic section")
        .to_string_pretty()
}

#[test]
fn deterministic_section_is_identical_across_job_counts() {
    let root = tmpdir("jobs");
    let corpus = generate_corpus(&root);

    let mut sections = Vec::new();
    for jobs in [1u32, 2, 4] {
        let metrics = root.join(format!("metrics-j{jobs}.json"));
        let (code, stderr) = run_batch_with_metrics(
            &corpus,
            &root.join(format!("out-j{jobs}")),
            &metrics,
            jobs,
            None,
            false,
        );
        assert_eq!(code, Some(0), "jobs={jobs}: {stderr}");
        sections.push((jobs, deterministic_section(&metrics)));
    }
    for (jobs, section) in &sections[1..] {
        assert_eq!(
            section, &sections[0].1,
            "deterministic section at --jobs {jobs} differs from --jobs 1"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Parses the completed-durable-write count from the batch stderr
/// summary ("durability: N atomic write(s), ...").
fn atomic_writes_from_stderr(stderr: &str) -> u64 {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("durability: "))
        .expect("durability summary line");
    line.trim_start_matches("durability: ")
        .split_whitespace()
        .next()
        .expect("count token")
        .parse()
        .expect("numeric count")
}

#[test]
fn deterministic_section_survives_resume_from_every_crash_point() {
    let root = tmpdir("resume");
    let corpus = generate_corpus(&root);

    // Golden uninterrupted run: its deterministic section is the truth
    // every resumed run must reproduce, and its durable-write count
    // enumerates the crash points.
    let golden_metrics = root.join("metrics-golden.json");
    let (code, stderr) = run_batch_with_metrics(
        &corpus,
        &root.join("golden"),
        &golden_metrics,
        1,
        None,
        false,
    );
    assert_eq!(code, Some(0), "golden run: {stderr}");
    let writes = atomic_writes_from_stderr(&stderr);
    assert!(writes >= 3, "corpus too small to exercise crash points");
    let golden = deterministic_section(&golden_metrics);

    for k in 1..=writes {
        // Alternate the worker count across the crash so the invariance
        // is exercised jointly with jobs-agnostic resume.
        let (crash_jobs, resume_jobs) = if k % 2 == 0 { (4, 1) } else { (1, 4) };
        let out_dir = root.join(format!("out-k{k}"));
        let crash_metrics = root.join(format!("metrics-crash-k{k}.json"));
        let resumed_metrics = root.join(format!("metrics-resumed-k{k}.json"));

        let (code, _) =
            run_batch_with_metrics(&corpus, &out_dir, &crash_metrics, crash_jobs, Some(k), false);
        assert_ne!(code, Some(0), "k={k}: crash run must not exit cleanly");

        let (code, stderr) =
            run_batch_with_metrics(&corpus, &out_dir, &resumed_metrics, resume_jobs, None, true);
        assert_eq!(code, Some(0), "k={k}: resume failed: {stderr}");
        assert_eq!(
            deterministic_section(&resumed_metrics),
            golden,
            "k={k}: resumed deterministic section differs from the golden run"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// An in-process corpus (one network, a handful of routers).
fn base_corpus() -> Vec<(String, String)> {
    let ds = confanon::confgen::generate_dataset(&confanon::confgen::DatasetSpec {
        seed: 0x0B5E_2BAB,
        networks: 1,
        mean_routers: 5,
        backbone_fraction: 0.5,
    });
    ds.networks[0]
        .routers
        .iter()
        .map(|r| (format!("{}.cfg", r.hostname), r.config.clone()))
        .collect()
}

#[test]
fn per_rule_hits_in_metrics_sum_to_batch_report_totals() {
    let files = base_corpus();
    let run = anonymize_corpus_gated(&files, AnonymizerConfig::new(b"sum-secret".to_vec()), 2);

    // The full-corpus run gates nothing, so BatchReport totals and the
    // warmed anonymizer agree — the metrics rules section is built from
    // the latter and must conserve the former.
    let report_total: u64 = run.totals.rule_fires.values().sum();
    assert!(report_total > 0, "corpus must fire rules");

    let doc = run.metrics_deterministic_json();
    let rules = doc.get("rules").expect("rules section");
    let by_rule = rules.get("by_rule").expect("by_rule");
    let fired_total = rules.get("fired_total").and_then(Json::as_u64).expect("fired_total");

    let by_rule_sum: u64 = confanon::core::ALL_RULES
        .iter()
        .map(|r| by_rule.get(r.name).and_then(Json::as_u64).expect("every rule present"))
        .sum();
    assert_eq!(by_rule_sum, fired_total, "per-rule fires must sum to the total");
    assert_eq!(fired_total, report_total, "metrics total must equal BatchReport's");

    let by_category = rules.get("by_category").expect("by_category");
    let by_category_sum: u64 = ["segmentation", "comments", "asn-location", "misc", "identifiers"]
        .iter()
        .map(|c| by_category.get(c).and_then(Json::as_u64).expect("every category present"))
        .sum();
    assert_eq!(by_category_sum, fired_total, "category rollup must conserve the total");

    // Zero-filled: all 28 rules appear whether or not they fired.
    let keys = match by_rule {
        Json::Obj(pairs) => pairs.len(),
        _ => panic!("by_rule must be an object"),
    };
    assert_eq!(keys, 28);
}

/// Mutates the base corpus under `seed` the way the CLI's repair pass
/// does.
fn chaos_corpus(seed: u64) -> Vec<(String, String)> {
    let mut mutator = ChaosMutator::new(seed);
    base_corpus()
        .into_iter()
        .map(|(name, text)| {
            let mutated = mutator.mutate(text.as_bytes());
            let (repaired, _) = sanitize_bytes(&mutated.bytes);
            (name, repaired)
        })
        .collect()
}

confanon_testkit::props! {
    cases = 6;

    /// In-process jobs invariance over hostile corpora: worker count
    /// cannot change a byte of the deterministic section, even when the
    /// gate quarantines part of the corpus.
    fn deterministic_section_is_jobs_invariant_under_chaos(seed in 0u64..1_000_000) {
        let files = chaos_corpus(seed);
        let cfg = || AnonymizerConfig::new(b"chaos-metrics-secret".to_vec());
        let a = anonymize_corpus_gated(&files, cfg(), 1);
        let b = anonymize_corpus_gated(&files, cfg(), 8);
        assert_eq!(
            a.metrics_deterministic_json().to_string_pretty(),
            b.metrics_deterministic_json().to_string_pretty(),
            "deterministic section must not depend on the worker count"
        );
    }
}

#[test]
fn observability_overhead_is_under_five_percent() {
    // The instrumentation must be cheap enough to leave on: compare the
    // gated pipeline with a live clock against a disabled one
    // (every recording a no-op). Min-of-5 timing damps scheduler noise;
    // a few retries keep a loaded CI box from flaking the suite. A
    // smaller corpus than base_corpus() keeps the repeated runs fast
    // without shrinking per-file work below realistic size.
    let ds = confanon::confgen::generate_dataset(&confanon::confgen::DatasetSpec {
        seed: 0x0B5E_2BAB,
        networks: 1,
        mean_routers: 3,
        backbone_fraction: 0.5,
    });
    let files: Vec<(String, String)> = ds.networks[0]
        .routers
        .iter()
        .map(|r| (format!("{}.cfg", r.hostname), r.config.clone()))
        .collect();
    let cfg = || AnonymizerConfig::new(b"overhead-secret".to_vec());
    let time_with = |clock: Clock| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t = std::time::Instant::now();
            let run = anonymize_corpus_gated_clocked(&files, cfg(), 2, &BTreeSet::new(), clock);
            std::hint::black_box(run.clean.len());
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };

    let mut last_ratio = f64::INFINITY;
    for _attempt in 0..4 {
        let instrumented = time_with(Clock::new());
        let stripped = time_with(Clock::disabled());
        last_ratio = instrumented / stripped.max(1e-9);
        if last_ratio < 1.05 {
            return;
        }
    }
    panic!("observability overhead {last_ratio:.4}x exceeds the 5% budget");
}

#[test]
fn timing_section_carries_spans_and_is_separate() {
    // The timing section must exist and hold the span aggregates — and
    // none of its keys may leak into the deterministic section (a span
    // count there would silently break byte-identity).
    let files = base_corpus();
    let run = anonymize_corpus_gated(&files, AnonymizerConfig::new(b"span-secret".to_vec()), 2);

    let timing = run.metrics_timing_json();
    let spans = timing.get("spans").expect("span summary");
    for cat in ["phase", "discover", "rewrite", "leak-scan"] {
        let n = spans
            .get(cat)
            .and_then(|c| c.get("spans"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing span category {cat:?}"));
        assert!(n > 0, "category {cat:?} recorded no spans");
    }
    assert!(timing.get("jobs").is_some());
    // Trie work: never more than one keyed hash per node created.
    let trie = |k: &str| {
        timing
            .get("trie")
            .and_then(|t| t.get(k))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing trie count {k:?}"))
    };
    let (prf_calls, nodes) = (trie("prf_calls"), trie("nodes_created"));
    assert!(prf_calls > 0 && prf_calls <= nodes, "{prf_calls} PRF calls for {nodes} nodes");
    let (n4, n6) = run.anonymizer.trie_node_counts();
    assert_eq!(nodes, (n4 + n6 - 2) as u64);

    // The SHA-1 kernel is a property of the host, so it is timing data.
    let kernel = timing
        .get("crypto")
        .and_then(|c| c.get("sha1_kernel"))
        .and_then(Json::as_str)
        .expect("timing.crypto.sha1_kernel");
    assert_eq!(kernel, confanon::crypto::sha1::kernel());
    assert!(["sha-ni", "portable"].contains(&kernel), "kernel {kernel:?}");

    let det = run.metrics_deterministic_json();
    assert!(det.get("spans").is_none(), "spans are wall-clock data");
    assert!(det.get("trie").is_none(), "trie work counts the process's replay");
    assert!(det.get("crypto").is_none(), "the SHA-1 kernel depends on the host");
    assert!(
        !det.to_string_pretty().contains("sha1_kernel"),
        "the SHA-1 kernel leaked into the deterministic section"
    );
    let counters = det.get("counters").expect("counters");
    if let Json::Obj(pairs) = counters {
        for (k, _) in pairs {
            assert!(
                !k.starts_with("phase.rewrite.") && !k.starts_with("gate."),
                "resume-variant counter {k:?} leaked into the deterministic section"
            );
        }
    } else {
        panic!("counters must be an object");
    }
}
