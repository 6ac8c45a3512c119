//! `perfbench` — the confanon benchmark.
//!
//! ```text
//! perfbench --workload <batch_cold|batch_warm_append|serve_flush_request>
//!           --seed <n> --seconds <s> --trace <0|1> --confanon <path>
//! ```
//!
//! With `--trace 0` it runs the workload against the release binary and
//! prints the end-to-end metrics; with `--trace 1` it replays the same
//! inputs in-process through each layer and prints the per-layer table.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `perfbench/run.py`
//! builds both binaries and invokes this one; see `perfbench/README.md`.

mod calib;
mod inputs;
mod layers;
mod program;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use confanon_testkit::json::Json;

use crate::layers::Replay;
use crate::stats::{Metric, Outcomes};
use crate::workloads::{json_num, Ctx};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["batch_cold", "batch_warm_append", "serve_flush_request"];

/// Seed whose input digests are pinned below. Every run regenerates the
/// pinned seed's inputs and refuses to measure if they changed: a
/// generator change would otherwise shift a workload silently, and
/// figures from different inputs are not comparable. Re-pin (and
/// re-measure the parent) in a change of its own.
const PIN_SEED: u64 = 1;
const PINS: [(&str, &str); 3] = [
    ("batch_cold", "0de998b8de2b5e318acaf407616845ad77e81a53"),
    (
        "batch_warm_append",
        "c6d98175d6e9facd9e74c561092f32fe5057ada8",
    ),
    (
        "serve_flush_request",
        "277464a4feea7ca1a4c863f3b12277aa01a93391",
    ),
];

/// Digest of the inputs `workload` generates from `seed`.
fn input_digest(workload: &str, seed: u64) -> String {
    let nets = match workload {
        "batch_cold" => inputs::batch_networks(seed, false),
        "batch_warm_append" => inputs::batch_networks(seed, true),
        _ => inputs::tenant_networks(seed),
    };
    inputs::digest_texts(&inputs::all_files(&nets))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    confanon: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        confanon: PathBuf::from(get("--confanon")?),
    })
}

fn check_pin(workload: &str) -> Result<(), String> {
    let pinned = PINS
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or("", |(_, d)| *d);
    let actual = input_digest(workload, PIN_SEED);
    if actual != pinned {
        return Err(format!(
            "inputs of {workload} changed: seed {PIN_SEED} now digests to {actual}, pinned {pinned}; \
             figures from different inputs cannot be compared"
        ));
    }
    Ok(())
}

fn metrics_json(metrics: &[Metric]) -> Json {
    let mut doc = Json::obj();
    for (name, value, unit) in metrics {
        doc.set(name, Json::obj().with("value", *value).with("unit", *unit));
    }
    doc
}

/// The traced run: the program once (for its own metrics document),
/// then the in-process replay.
fn traced(ctx: &Ctx, workload: &str) -> Result<(Vec<Metric>, Outcomes, Json), String> {
    let metrics_path = ctx.work.join("program-metrics.json");
    let batch =
        |corpus: &Path, secret: &str, out: &Path, state: Option<&Path>| -> Result<(), String> {
            let mut args = program::batch_args(corpus, secret, ctx.jobs, out, state);
            args.extend(["--metrics".to_string(), metrics_path.display().to_string()]);
            program::run(&ctx.bin, &args, &ctx.work.join("batch.log")).map(drop)
        };
    let (secret, base_state, files, requests, nets) = match workload {
        "batch_cold" => {
            let nets = inputs::batch_networks(ctx.seed, false);
            let files = inputs::all_files(&nets);
            let corpus = ctx.work.join("corpus");
            inputs::write_files(&corpus, &files).map_err(|e| e.to_string())?;
            batch(&corpus, &ctx.secret(), &ctx.work.join("out"), None)?;
            let requests = files[files.len() - 8..].to_vec();
            (ctx.secret(), None, files, requests, nets)
        }
        "batch_warm_append" => {
            let nets = inputs::batch_networks(ctx.seed, true);
            let (base, full) = (ctx.work.join("base"), ctx.work.join("full"));
            let (out, state) = (ctx.work.join("out"), ctx.work.join("state"));
            inputs::write_files(&base, &inputs::all_files(&nets[..nets.len() - 1]))
                .map_err(|e| e.to_string())?;
            inputs::write_files(&full, &inputs::all_files(&nets)).map_err(|e| e.to_string())?;
            batch(&base, &ctx.secret(), &out, Some(&state))?;
            let start = ctx.work.join("start");
            std::fs::create_dir_all(&start).map_err(|e| e.to_string())?;
            std::fs::copy(
                state.join(confanon::core::STATE_FILE_NAME),
                start.join(confanon::core::STATE_FILE_NAME),
            )
            .map_err(|e| e.to_string())?;
            batch(&full, &ctx.secret(), &out, Some(&state))?;
            let appended = nets[nets.len() - 1].files(0..inputs::APPEND_ROUTERS);
            let requests = appended[appended.len() - 8..].to_vec();
            (ctx.secret(), Some(start), appended, requests, nets)
        }
        _ => {
            let nets = inputs::tenant_networks(ctx.seed);
            let prefix = nets[0].files(0..inputs::TENANT_PREFIX);
            let corpus = ctx.work.join("prefix");
            inputs::write_files(&corpus, &prefix).map_err(|e| e.to_string())?;
            let state = ctx.work.join("state");
            batch(
                &corpus,
                &ctx.tenant_secret(0),
                &ctx.work.join("out"),
                Some(&state),
            )?;
            let files = nets[0].routers[inputs::TENANT_PREFIX..].to_vec();
            let requests = files[..24].to_vec();
            (ctx.tenant_secret(0), Some(state), files, requests, nets)
        }
    };
    let program_doc =
        Json::parse(&std::fs::read_to_string(&metrics_path).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
    let replay = Replay {
        secret,
        base_state,
        files: &files,
        requests: &requests,
        regexps: layers::aspath_regexps(
            nets.iter()
                .flat_map(|n| n.routers.iter().map(|(_, t)| t.as_str())),
        ),
        scratch: ctx.work.join("replay"),
    };
    let run_id = format!("{workload}-seed{}", ctx.seed);
    let spans_path = ctx.work.join("spans.json");
    let measured = layers::measure(&replay, &run_id, &spans_path)?;
    let (table, explained) = measured.table();
    println!("layer table ({run_id}, traced in-process replay):");
    for row in table {
        println!("  {row}");
    }
    let released = json_num(
        &program_doc,
        &["timing", "counters", "phase.publish.released"],
    )?;
    let mut metrics = measured.metrics();
    metrics.extend([
        (
            "batch.discover_s",
            json_num(&program_doc, &["timing", "spans", "discover", "total_ns"])? / 1e9,
            "s",
        ),
        (
            "batch.rewrite_s",
            json_num(&program_doc, &["timing", "spans", "rewrite", "total_ns"])? / 1e9,
            "s",
        ),
        (
            "publish.fsyncs_per_file",
            json_num(&program_doc, &["timing", "durability", "fsyncs"])? / released,
            "count",
        ),
        ("layers.model_explained_frac", explained, "frac"),
    ]);
    // A replay that reached this point released every file and got `OK`
    // for every request; any failure returned an error above.
    let outcomes = Outcomes {
        attempted: (files.len() + requests.len()) as u64,
        failed: 0,
    };
    let spans = std::fs::read_to_string(&spans_path).map_err(|e| e.to_string())?;
    let details = Json::obj()
        .with(
            "input_digest",
            inputs::digest_texts(&inputs::all_files(&nets)),
        )
        .with("spans", Json::parse(&spans).map_err(|e| e.to_string())?);
    Ok((metrics, outcomes, details))
}

fn run(args: &Args) -> Result<Json, String> {
    check_pin(&args.workload)?;
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work")
        .join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let ctx = Ctx {
        bin: std::fs::canonicalize(&args.confanon)
            .map_err(|e| format!("{}: {e}", args.confanon.display()))?,
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        jobs: std::thread::available_parallelism().map_or(1, usize::from),
    };
    let calib = calib::sha1_ns_per_byte();
    let result = if args.trace {
        traced(&ctx, &args.workload).map(|(mut metrics, outcomes, details)| {
            metrics.push(("calib.sha1_ns_per_byte", calib, "ns"));
            (metrics, outcomes, Vec::new(), details)
        })
    } else {
        let report = match args.workload.as_str() {
            "batch_cold" => workloads::batch_cold(&ctx),
            "batch_warm_append" => workloads::batch_warm_append(&ctx),
            _ => workloads::serve_flush_request(&ctx),
        };
        report.map(|r| (r.metrics, r.outcomes, r.problems, r.details))
    };
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, outcomes, problems, details) = result?;

    println!(
        "perfbench {} seed={} trace={} jobs={} calib.sha1_ns_per_byte={calib:.4}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        ctx.jobs
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<38} {value:>16.6} {unit}");
    }
    for p in &problems {
        println!("  INCORRECT: {p}");
    }
    let correct =
        problems.is_empty() && outcomes.failed == 0 && metrics.iter().all(|m| m.1.is_finite());
    println!(
        "{}",
        Json::obj()
            .with(
                "details",
                details
                    .with("seed", args.seed)
                    .with("jobs", ctx.jobs)
                    .with("calib_sha1_ns_per_byte", calib)
            )
            .to_string_compact()
    );
    Ok(Json::obj()
        .with("correct", correct)
        .with("attempted", outcomes.attempted)
        .with("failed", outcomes.failed)
        .with("metrics", metrics_json(&metrics)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.to_string_compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
