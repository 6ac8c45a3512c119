//! # confanon-obs — deterministic observability for the anonymization pipeline
//!
//! The paper's method is only trustworthy at corpus scale if operators
//! can *see* what the anonymizer did: which of the 28 contextual rules
//! fired, how many identifiers each phase touched, and where the
//! wall-clock goes. This crate is the measurement substrate: a std-only
//! span/counter/histogram recorder whose per-worker shards merge
//! deterministically, plus exporters for the two artifacts the CLI
//! surfaces:
//!
//! * **`metrics.json`** (schema [`METRICS_SCHEMA`]) — split into a
//!   **deterministic** section (counts and histogram-bucket totals that
//!   must be byte-identical across `--jobs` values and across
//!   resumed-vs-uninterrupted runs; `tests/metrics_invariants.rs`
//!   enforces this) and a **timing** section that is explicitly
//!   *excluded* from any determinism guarantee (wall-clock durations,
//!   worker counts, durability counters that vary under `--resume`).
//! * **Chrome trace-event JSON** (`--trace FILE`, conventionally
//!   `*.trace.json`) — loadable in `chrome://tracing` or Perfetto, one
//!   complete event per span.
//!
//! ## Determinism model
//!
//! Counters and histograms record *what happened* (integers derived
//! from the input corpus); spans record *when* (wall-clock offsets from
//! a run [`Clock`] epoch). Merging shards only ever sums counters and
//! histogram buckets — sums commute, so any worker interleaving yields
//! the same merged values. Span timestamps are inherently
//! non-deterministic and are only ever exported through the timing
//! section and the trace file.
//!
//! The whole recorder can be disabled ([`Clock::disabled`]): every
//! record call becomes a no-op, which is what the `--bench-json`
//! instrumented-vs-stripped overhead comparison measures against.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod clock;
pub mod hist;
pub mod shard;
pub mod trace;

pub use clock::Clock;
pub use hist::Histogram;
pub use shard::{ObsShard, Span};
pub use trace::{chrome_trace_json, validate_trace};

use confanon_testkit::json::Json;

/// Schema identifier of the `--metrics` document.
pub const METRICS_SCHEMA: &str = "confanon-metrics-v1";

/// Conventional file name for the metrics document when it is written
/// next to released outputs; `confanon validate` skips it by this name.
pub const METRICS_FILE_NAME: &str = "metrics.json";

/// Conventional suffix of Chrome trace files (`--trace run.trace.json`);
/// `confanon validate` and batch input discovery skip files by it.
pub const TRACE_SUFFIX: &str = ".trace.json";

/// Conventional file name of the risk–utility audit report written by
/// `confanon audit --risk` (schema `confanon-risk-v1`); corpus
/// discovery and `confanon validate` skip it by this name.
pub const RISK_REPORT_FILE_NAME: &str = "risk_report.json";

/// True for file names that are observability artifacts rather than
/// configuration data: the metrics document, trace files, and the
/// risk-audit report. Corpus discovery and post-run validation must
/// never treat these as configs, exactly as they already skip the run
/// journal.
pub fn is_observability_artifact(file_name: &str) -> bool {
    file_name == METRICS_FILE_NAME
        || file_name == "trace.json"
        || file_name == RISK_REPORT_FILE_NAME
        || file_name.ends_with(TRACE_SUFFIX)
}

/// The deterministic counters every risk-audit run records into its
/// report's `counters` object (DESIGN §16): corpus shape and attack
/// volume, so two reports can be compared for coverage before their
/// rates are compared for risk. All are integers derived from the
/// input corpus — never wall-clock.
pub const AUDIT_COUNTERS: [&str; 4] = [
    "audit.networks",
    "audit.routers",
    "audit.attack_trials",
    "audit.tradeoff_rows",
];

/// Assembles the two sections into the versioned metrics document.
pub fn metrics_doc(deterministic: Json, timing: Json) -> Json {
    Json::obj()
        .with("schema", METRICS_SCHEMA)
        .with("deterministic", deterministic)
        .with("timing", timing)
}

/// Validates the shape of a parsed metrics document: schema marker plus
/// both sections present as objects. (Anything deeper is a consumer
/// concern; the split itself is the contract.)
pub fn validate_metrics(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(METRICS_SCHEMA) => {}
        Some(other) => return Err(format!("unexpected schema {other:?}")),
        None => return Err("missing \"schema\" member".to_string()),
    }
    for section in ["deterministic", "timing"] {
        match doc.get(section) {
            Some(Json::Obj(_)) => {}
            Some(_) => return Err(format!("\"{section}\" is not an object")),
            None => return Err(format!("missing \"{section}\" section")),
        }
    }
    Ok(())
}

/// Schema identifier of the serve-mode `STATS` frame payload.
pub const SERVE_METRICS_SCHEMA: &str = "confanon-serve-metrics-v1";

/// Assembles the serve stats frame: per-tenant snapshots (an object
/// keyed by tenant name) plus daemon-wide counters.
pub fn serve_metrics_doc(tenants: Json, daemon: Json) -> Json {
    Json::obj()
        .with("schema", SERVE_METRICS_SCHEMA)
        .with("tenants", tenants)
        .with("daemon", daemon)
}

/// The fault counters every serve stats frame must carry in its
/// `daemon.faults` object (DESIGN §15): the hostile-wire and
/// self-healing taxonomy, so dashboards can alert on them by name.
pub const SERVE_FAULT_COUNTERS: [&str; 6] = [
    "frames_rejected",
    "read_timeouts",
    "idle_closed",
    "connections_shed",
    "recoveries",
    "degraded_transitions",
];

/// Validates the shape of a parsed serve stats frame: schema marker,
/// both sections present as objects, every tenant snapshot carrying a
/// `health` string (the field quarantine-aware clients branch on), and
/// the daemon section carrying a `faults` object with every
/// [`SERVE_FAULT_COUNTERS`] member as an integer.
pub fn validate_serve_metrics(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(SERVE_METRICS_SCHEMA) => {}
        Some(other) => return Err(format!("unexpected schema {other:?}")),
        None => return Err("missing \"schema\" member".to_string()),
    }
    for section in ["tenants", "daemon"] {
        match doc.get(section) {
            Some(Json::Obj(_)) => {}
            Some(_) => return Err(format!("\"{section}\" is not an object")),
            None => return Err(format!("missing \"{section}\" section")),
        }
    }
    if let Some(Json::Obj(members)) = doc.get("tenants") {
        for (name, snap) in members {
            if snap.get("health").and_then(Json::as_str).is_none() {
                return Err(format!("tenant {name:?} snapshot lacks \"health\""));
            }
            if snap.get("timing").is_some_and(|t| !matches!(t, Json::Obj(_))) {
                return Err(format!("tenant {name:?} \"timing\" is not an object"));
            }
        }
    }
    let faults = match doc.get("daemon").and_then(|d| d.get("faults")) {
        Some(f @ Json::Obj(_)) => f,
        Some(_) => return Err("\"daemon\".\"faults\" is not an object".to_string()),
        None => return Err("daemon section lacks \"faults\"".to_string()),
    };
    for key in SERVE_FAULT_COUNTERS {
        if faults.get(key).and_then(Json::as_u64).is_none() {
            return Err(format!("\"daemon\".\"faults\" lacks counter {key:?}"));
        }
    }
    Ok(())
}

/// A human-readable summary of a serve stats frame's per-tenant
/// `timing` section: one line per tenant and stage histogram, as
/// `TENANT STAGE count=N mean=M p50<=B p99<=B max=X`. Percentiles are
/// the upper bounds of the power-of-two buckets the nearest-rank sample
/// falls in. Tenants without a timing section contribute no lines.
pub fn serve_timing_lines(doc: &Json) -> Vec<String> {
    let mut lines = Vec::new();
    let Some(Json::Obj(tenants)) = doc.get("tenants") else {
        return lines;
    };
    for (tenant, snap) in tenants {
        let Some(Json::Obj(stages)) = snap.get("timing") else {
            continue;
        };
        for (stage, hist) in stages {
            let field = |key: &str| hist.get(key).and_then(Json::as_u64).unwrap_or(0);
            let count = field("count");
            let bound = |q: f64| -> String {
                let rank = ((q * count as f64).ceil() as u64).max(1);
                let mut seen = 0;
                for (bucket, n) in hist.get("buckets").and_then(Json::members).unwrap_or(&[]) {
                    seen += n.as_u64().unwrap_or(0);
                    if seen >= rank {
                        return bucket.trim_start_matches("le_").to_string();
                    }
                }
                "-".to_string()
            };
            lines.push(format!(
                "{tenant} {stage} count={count} mean={} p50<={} p99<={} max={}",
                field("sum").checked_div(count).unwrap_or(0),
                bound(0.50),
                bound(0.99),
                field("max"),
            ));
        }
    }
    lines
}

/// Builds a fully-populated `faults` object for the daemon section —
/// the serve layer fills it from its atomics; tests build minimal valid
/// frames with it.
pub fn serve_faults_json(counts: [u64; 6]) -> Json {
    let mut obj = Json::obj();
    for (key, v) in SERVE_FAULT_COUNTERS.iter().zip(counts) {
        obj.set(key, v);
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_names_are_recognized() {
        assert!(is_observability_artifact("metrics.json"));
        assert!(is_observability_artifact("trace.json"));
        assert!(is_observability_artifact("run.trace.json"));
        assert!(is_observability_artifact("risk_report.json"));
        assert!(!is_observability_artifact("r1.cfg"));
        assert!(!is_observability_artifact("metrics.json.cfg"));
        assert!(!is_observability_artifact("leak_report.json"));
    }

    #[test]
    fn metrics_doc_round_trips_and_validates() {
        let doc = metrics_doc(Json::obj().with("x", 1u64), Json::obj());
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).expect("parses");
        assert!(validate_metrics(&parsed).is_ok());
        assert_eq!(parsed, doc);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate_metrics(&Json::obj()).is_err());
        assert!(validate_metrics(&Json::obj().with("schema", "other-v9")).is_err());
        let missing_timing = Json::obj()
            .with("schema", METRICS_SCHEMA)
            .with("deterministic", Json::obj());
        assert!(validate_metrics(&missing_timing).is_err());
        let wrong_type = Json::obj()
            .with("schema", METRICS_SCHEMA)
            .with("deterministic", 3u64)
            .with("timing", Json::obj());
        assert!(validate_metrics(&wrong_type).is_err());
    }

    #[test]
    fn serve_metrics_round_trip_and_rejection() {
        let doc = serve_metrics_doc(
            Json::obj().with("alpha", Json::obj().with("health", "serving")),
            Json::obj()
                .with("connections", 3u64)
                .with("faults", serve_faults_json([0, 1, 2, 3, 4, 5])),
        );
        let parsed = Json::parse(&doc.to_string_pretty()).expect("parses");
        assert!(validate_serve_metrics(&parsed).is_ok());

        assert!(validate_serve_metrics(&Json::obj()).is_err());
        assert!(validate_serve_metrics(
            &Json::obj().with("schema", METRICS_SCHEMA)
        )
        .is_err());
        let healthless = serve_metrics_doc(
            Json::obj().with("alpha", Json::obj().with("requests", 1u64)),
            Json::obj().with("faults", serve_faults_json([0; 6])),
        );
        assert!(validate_serve_metrics(&healthless)
            .unwrap_err()
            .contains("health"));
    }

    #[test]
    fn serve_timing_lines_summarize_each_stage() {
        let mut h = Histogram::default();
        for v in [3, 5, 100] {
            h.record(v);
        }
        let tenants = Json::obj()
            .with(
                "alpha",
                Json::obj()
                    .with("health", "serving")
                    .with("timing", Json::obj().with("flush_us", h.to_json())),
            )
            .with("beta", Json::obj().with("health", "serving"));
        let doc = serve_metrics_doc(tenants, Json::obj().with("faults", serve_faults_json([0; 6])));
        assert!(validate_serve_metrics(&doc).is_ok());
        assert_eq!(
            serve_timing_lines(&doc),
            ["alpha flush_us count=3 mean=36 p50<=8 p99<=128 max=100"]
        );
        let bad = serve_metrics_doc(
            Json::obj().with("alpha", Json::obj().with("health", "serving").with("timing", 1u64)),
            Json::obj().with("faults", serve_faults_json([0; 6])),
        );
        assert!(validate_serve_metrics(&bad).unwrap_err().contains("timing"));
    }

    #[test]
    fn serve_metrics_require_the_fault_taxonomy() {
        let tenants = Json::obj().with("alpha", Json::obj().with("health", "serving"));
        let faultless = serve_metrics_doc(tenants.clone(), Json::obj().with("connections", 1u64));
        assert!(validate_serve_metrics(&faultless)
            .unwrap_err()
            .contains("faults"));

        // Every counter in the taxonomy is individually required.
        for missing in SERVE_FAULT_COUNTERS {
            let mut faults = Json::obj();
            for key in SERVE_FAULT_COUNTERS {
                if key != missing {
                    faults.set(key, 0u64);
                }
            }
            let doc = serve_metrics_doc(tenants.clone(), Json::obj().with("faults", faults));
            assert!(
                validate_serve_metrics(&doc).unwrap_err().contains(missing),
                "dropping {missing:?} must fail validation by name"
            );
        }
    }
}
