//! The three end-to-end workloads, run against the release binary's
//! production command lines with tracing off.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use confanon::core::{
    Anonymizer, AnonymizerConfig, FileStatus, LeakRecord, LeakScanner, RunManifest,
    RUN_MANIFEST_NAME,
};
use confanon_testkit::json::Json;

use crate::inputs::{self, Network, TENANT_PREFIX, TENANT_ROUTERS};
use crate::program::{self, Wire};
use crate::stats::{median, percentile, Metric, Outcomes};

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// The release `confanon` binary.
    pub bin: PathBuf,
    /// Scratch directory of this run (emptied before, removed after).
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Worker threads / connections: the host's logical core count.
    pub jobs: usize,
}

impl Ctx {
    fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// The batch owner secret of this seed.
    pub fn secret(&self) -> String {
        format!("perfbench-owner-{}", self.seed)
    }

    /// Tenant `t`'s owner secret of this seed.
    pub fn tenant_secret(&self, t: usize) -> String {
        format!("perfbench-tenant{t}-{}", self.seed)
    }
}

/// One end-to-end run's result.
pub struct Report {
    /// `(name, value, unit)` of every end-to-end metric.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed across the run.
    pub outcomes: Outcomes,
    /// Correctness failures; empty when every check passed.
    pub problems: Vec<String>,
    /// Seed, input and output digests, sample counts, raw samples.
    pub details: Json,
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn io<T>(what: impl std::fmt::Display, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        io(path.display(), std::fs::remove_dir_all(path))?;
    }
    io(path.display(), std::fs::create_dir_all(path))
}

/// Copies the tree at `src` to `dst` (which must not exist).
fn copy_tree(src: &Path, dst: &Path) -> Result<(), String> {
    io(dst.display(), std::fs::create_dir_all(dst))?;
    for entry in io(src.display(), std::fs::read_dir(src))? {
        let from = io(src.display(), entry)?.path();
        let to = dst.join(from.file_name().unwrap_or_default());
        if from.is_dir() {
            copy_tree(&from, &to)?;
        } else {
            io(from.display(), std::fs::copy(&from, &to))?;
        }
    }
    Ok(())
}

/// Digest of every file under `dir`.
fn tree_digest(dir: &Path) -> Result<String, String> {
    let files = io(dir.display(), inputs::read_tree(dir, &|_| false))?;
    Ok(inputs::digest_files(
        files.iter().map(|(n, b)| (n.as_str(), b.as_slice())),
    ))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = io(path.display(), std::fs::read_to_string(path))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A number at `keys` inside `doc`.
pub fn json_num(doc: &Json, keys: &[&str]) -> Result<f64, String> {
    keys.iter()
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number {}", keys.join(".")))
}

/// Per-file outcome of a batch run: released with an output file, or
/// failed. Files the manifest does not list count as failed.
fn released(out: &Path, names: &[String]) -> Result<Outcomes, String> {
    let text = io(
        "run manifest",
        std::fs::read_to_string(out.join(RUN_MANIFEST_NAME)),
    )?;
    let manifest = RunManifest::from_json_str(&text).map_err(|e| e.to_string())?;
    let mut o = Outcomes::default();
    for name in names {
        let ok = manifest.entry(name).is_some_and(|e| {
            e.status == FileStatus::Released && out.join(format!("{name}.anon")).is_file()
        });
        o.record(ok);
    }
    Ok(o)
}

/// Per-file service time in ms: the sum of each file's spans in the
/// program's Chrome trace (read, sanitize, discover, rewrite,
/// leak-scan), keyed by file. A file a warm run carries forward has only
/// its read and sanitize spans.
fn service_ms(trace: &Path) -> Result<BTreeMap<String, f64>, String> {
    let doc = read_json(trace)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("trace has no traceEvents")?;
    let mut per_file = BTreeMap::new();
    for e in events {
        let cat = e.get("cat").and_then(Json::as_str).unwrap_or("");
        if matches!(
            cat,
            "read" | "sanitize" | "discover" | "rewrite" | "leak-scan"
        ) {
            let name = e.get("name").and_then(Json::as_str).unwrap_or("");
            let dur_us = e.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
            *per_file.entry(name.to_string()).or_default() += dur_us / 1000.0;
        }
    }
    Ok(per_file)
}

/// Replays discovery in-process over `files` (corpus order) under
/// `secret`: the warmed anonymizer's emitted images are the values the
/// leak scan must not flag, and the per-file word counts size the
/// serve workload's token throughput.
fn discover(secret: &str, files: &[(String, String)]) -> (Anonymizer, Vec<u64>) {
    let mut anon = Anonymizer::new(AnonymizerConfig::new(secret.as_bytes().to_vec()));
    let words = files
        .iter()
        .map(|(_, text)| anon.discover_config(text).words_total)
        .collect();
    (anon, words)
}

/// Scans each output against its network's planted ground truth.
/// `outputs` holds `(network index, name, text)`.
fn leak_check(
    records: &[LeakRecord],
    anon: &Anonymizer,
    outputs: &[(usize, String, Vec<u8>)],
    problems: &mut Vec<String>,
) {
    let exclusions = anon.emitted_exclusions();
    let scanners: Vec<LeakScanner<'_>> = records
        .iter()
        .map(|r| LeakScanner::with_exclusions(r, exclusions.iter().cloned()))
        .collect();
    let mut leaks = 0;
    for (net, name, bytes) in outputs {
        let report = scanners[*net].scan(&String::from_utf8_lossy(bytes));
        if let Some(l) = report.leaks.first() {
            if leaks < 5 {
                problems.push(format!(
                    "leak in {name}: {:?} survived on line {}",
                    l.token, l.line_no
                ));
            }
            leaks += report.leaks.len();
        }
    }
    if leaks >= 5 {
        problems.push(format!("{leaks} leaked line(s) in total"));
    }
}

/// Released files under `out` matched to their network by directory.
fn released_outputs(out: &Path, nets: &[Network]) -> Result<Vec<(usize, String, Vec<u8>)>, String> {
    let files = io(
        out.display(),
        inputs::read_tree(out, &|n| n == RUN_MANIFEST_NAME),
    )?;
    files
        .into_iter()
        .map(|(name, bytes)| {
            let net = nets
                .iter()
                .position(|n| name.starts_with(&format!("{}/", n.dir)))
                .ok_or_else(|| format!("released file {name} belongs to no input network"))?;
            Ok((net, name, bytes))
        })
        .collect()
}

/// Measured batch repetitions of one workload.
#[derive(Default)]
struct BatchReps {
    walls: Vec<f64>,
    rss: Vec<f64>,
    /// Per file, its service time in each repetition.
    service: BTreeMap<String, Vec<f64>>,
    digests: Vec<String>,
    outcomes: Outcomes,
    words: f64,
    files: usize,
}

impl BatchReps {
    /// Runs one timed `confanon batch` and records it.
    fn rep(
        &mut self,
        ctx: &Ctx,
        args: Vec<String>,
        out: &Path,
        names: &[String],
    ) -> Result<(), String> {
        let metrics = ctx.path("metrics.json");
        let trace = ctx.path("trace.json");
        let mut args = args;
        args.extend([
            "--metrics".to_string(),
            metrics.display().to_string(),
            "--trace".to_string(),
            trace.display().to_string(),
        ]);
        let done = program::run(&ctx.bin, &args, &ctx.path("batch.log"))?;
        self.walls.push(done.wall_s);
        self.rss.push(done.peak_rss_mb);
        self.outcomes.absorb(released(out, names)?);
        for (file, ms) in service_ms(&trace)? {
            self.service.entry(file).or_default().push(ms);
        }
        self.words = json_num(
            &read_json(&metrics)?,
            &["deterministic", "anonymization", "words_total"],
        )?;
        self.files = names.len();
        self.digests.push(tree_digest(out)?);
        Ok(())
    }

    fn report(self, setup: &[f64], mut problems: Vec<String>, details: Json) -> Report {
        if self.digests.windows(2).any(|w| w[0] != w[1]) {
            problems.push("repetitions of one run released different bytes".into());
        }
        let wall = median(&self.walls);
        // One sample per file: its median over the repetitions, so a
        // repetition the host slowed down cannot own the tail.
        let service: Vec<f64> = self.service.values().map(|v| median(v)).collect();
        let p50 = percentile(&service, 0.5);
        let p95 = percentile(&service, 0.95);
        if p95.is_none() {
            problems.push(format!(
                "{} per-file samples leave fewer than 10 beyond p95",
                service.len()
            ));
        }
        let details = details
            .with(
                "output_digest",
                self.digests.first().cloned().unwrap_or_default(),
            )
            .with("reps", self.walls.len())
            .with("wall_s_samples", self.walls.clone())
            .with("setup_s_samples", setup.to_vec())
            .with("rtt_samples", service.len())
            .with("words_total", self.words)
            .with("failed_frac", self.outcomes.failed_frac());
        Report {
            metrics: vec![
                ("wall_s", wall, "s"),
                ("tokens_per_s", self.words / wall, "1/s"),
                ("req_per_s", self.files as f64 / wall, "1/s"),
                ("rtt_p50_ms", p50.unwrap_or(f64::NAN), "ms"),
                ("rtt_p95_ms", p95.unwrap_or(f64::NAN), "ms"),
                ("setup_s", median(setup), "s"),
                ("peak_rss_mb", median(&self.rss), "MiB"),
            ],
            outcomes: self.outcomes,
            problems,
            details,
        }
    }
}

fn names(files: &[(String, String)]) -> Vec<String> {
    files.iter().map(|(n, _)| n.clone()).collect()
}

/// Leak-checks a batch output tree against the corpus's ground truth.
fn batch_leak_check(
    ctx: &Ctx,
    nets: &[Network],
    files: &[(String, String)],
    out: &Path,
) -> Result<Vec<String>, String> {
    let (anon, _) = discover(&ctx.secret(), files);
    let records: Vec<LeakRecord> = nets.iter().map(Network::record).collect();
    let outputs = released_outputs(out, nets)?;
    let mut problems = Vec::new();
    if outputs.len() != files.len() {
        problems.push(format!(
            "{} of {} files released",
            outputs.len(),
            files.len()
        ));
    }
    leak_check(&records, &anon, &outputs, &mut problems);
    Ok(problems)
}

/// `batch_cold`: one `confanon batch --jobs N --out-dir` over the whole
/// multi-network corpus, no state. Set-up is generating and writing the
/// corpus.
pub fn batch_cold(ctx: &Ctx) -> Result<Report, String> {
    let corpus = ctx.path("corpus");
    let mut setup = Vec::new();
    let mut generated = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let nets = inputs::batch_networks(ctx.seed, false);
        let files = inputs::all_files(&nets);
        fresh_dir(&corpus)?;
        io("corpus", inputs::write_files(&corpus, &files))?;
        setup.push(t.elapsed().as_secs_f64());
        generated = Some((nets, files));
    }
    let (nets, files) = generated.ok_or("no set-up ran")?;
    let names = names(&files);
    let out = ctx.path("out");
    let mut reps = BatchReps::default();
    let start = Instant::now();
    while reps.walls.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        if out.exists() {
            io("out", std::fs::remove_dir_all(&out))?;
        }
        reps.rep(
            ctx,
            program::batch_args(&corpus, &ctx.secret(), ctx.jobs, &out, None),
            &out,
            &names,
        )?;
    }
    let problems = batch_leak_check(ctx, &nets, &files, &out)?;
    let details = Json::obj()
        .with("input_digest", inputs::digest_texts(&files))
        .with("files", files.len())
        .with(
            "lines",
            files.iter().map(|(_, t)| t.lines().count()).sum::<usize>(),
        );
    Ok(reps.report(&setup, problems, details))
}

/// `batch_warm_append`: the nightly incremental run. Set-up is the cold
/// `batch --state` run over the corpus that produces the starting state
/// and outputs; each timed run then sees the same corpus plus one
/// appended network that sorts last.
pub fn batch_warm_append(ctx: &Ctx) -> Result<Report, String> {
    let nets = inputs::batch_networks(ctx.seed, true);
    let base_files = inputs::all_files(&nets[..nets.len() - 1]);
    let files = inputs::all_files(&nets);
    let (base, full) = (ctx.path("base"), ctx.path("full"));
    io("corpus", inputs::write_files(&base, &base_files))?;
    io("corpus", inputs::write_files(&full, &files))?;

    let start_dir = ctx.path("start");
    let mut setup = Vec::new();
    let mut start_digests = Vec::new();
    for _ in 0..SETUP_REPS {
        fresh_dir(&start_dir)?;
        let (out, state) = (start_dir.join("out"), start_dir.join("state"));
        let args = program::batch_args(&base, &ctx.secret(), ctx.jobs, &out, Some(&state));
        setup.push(program::run(&ctx.bin, &args, &ctx.path("setup.log"))?.wall_s);
        start_digests.push(tree_digest(&start_dir)?);
    }
    let mut problems = Vec::new();
    if start_digests.windows(2).any(|w| w[0] != w[1]) {
        problems.push("repeated set-up produced different starting states".into());
    }

    let names = names(&files);
    let rep_dir = ctx.path("rep");
    let (out, state) = (rep_dir.join("out"), rep_dir.join("state"));
    let mut reps = BatchReps::default();
    let start = Instant::now();
    while reps.walls.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        if rep_dir.exists() {
            io("rep", std::fs::remove_dir_all(&rep_dir))?;
        }
        copy_tree(&start_dir, &rep_dir)?;
        let args = program::batch_args(&full, &ctx.secret(), ctx.jobs, &out, Some(&state));
        reps.rep(ctx, args, &out, &names)?;
    }
    problems.extend(batch_leak_check(ctx, &nets, &files, &out)?);
    let details = Json::obj()
        .with("input_digest", inputs::digest_texts(&files))
        .with("start_state_digest", start_digests[0].as_str())
        .with("files", files.len())
        .with("new_files", files.len() - base_files.len());
    Ok(reps.report(&setup, problems, details))
}

/// One daemon life: spawn, wait for the port file, optionally drive the
/// load, then drain with a `SHUTDOWN` frame.
struct Life {
    setup_s: f64,
    load_s: f64,
    peak_rss_mb: f64,
    /// Per tenant: `(rtt ms, status, reply)` per request, in order.
    replies: Vec<Vec<(f64, String, Vec<u8>)>>,
}

fn daemon_life(
    ctx: &Ctx,
    life: usize,
    requests: Option<&[Vec<(String, String)>]>,
) -> Result<Life, String> {
    let dir = ctx.path("life");
    if dir.exists() {
        io("life", std::fs::remove_dir_all(&dir))?;
    }
    copy_tree(&ctx.path("start"), &dir)?;
    let port_file = dir.join("port");
    let args: Vec<String> = [
        "serve",
        "--config",
        &ctx.path("confanon.toml").display().to_string(),
        "--listen",
        "127.0.0.1:0",
        "--port-file",
        &port_file.display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (mut child, started) =
        program::spawn(&ctx.bin, &args, &ctx.path(&format!("serve-{life}.log")))?;
    let endpoint = program::await_port_file(&port_file, &mut child, started)?;
    let setup_s = started.elapsed().as_secs_f64();

    let t = Instant::now();
    let load: Result<Vec<_>, String> = std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .unwrap_or(&[])
            .iter()
            .enumerate()
            .map(|(tenant, reqs)| {
                let endpoint = endpoint.as_str();
                s.spawn(move || -> Result<Vec<(f64, String, Vec<u8>)>, String> {
                    let mut wire = Wire::connect(endpoint)?;
                    let tenant = format!("t{tenant}");
                    reqs.iter()
                        .map(|(name, text)| {
                            let t = Instant::now();
                            let (status, body) =
                                wire.call("ANON", &tenant, name, text.as_bytes())?;
                            Ok((t.elapsed().as_secs_f64() * 1000.0, status, body))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    });
    let load_s = t.elapsed().as_secs_f64();
    let shutdown = Wire::connect(&endpoint).and_then(|mut w| w.call("SHUTDOWN", "-", "-", b""));
    let done = program::finish(child, started)?;
    let replies = load?;
    let (status, _) = shutdown?;
    if status != "BYE" || !done.status.success() {
        return Err(format!(
            "serve drain answered {status} and exited with {}",
            done.status
        ));
    }
    Ok(Life {
        setup_s,
        load_s,
        peak_rss_mb: done.peak_rss_mb,
        replies,
    })
}

/// `serve_flush_request`: a two-tenant daemon at `flush = "request"`,
/// started on warm per-tenant states prebuilt with `batch --state` from
/// the first routers of each tenant's network; one closed-loop
/// connection per tenant then submits the rest as `ANON` requests.
pub fn serve_flush_request(ctx: &Ctx) -> Result<Report, String> {
    let nets = inputs::tenant_networks(ctx.seed);
    let mut toml = String::from("flush = \"request\"\nrequest_timeout_ms = 60000\n");
    let mut requests = Vec::new();
    for (t, net) in nets.iter().enumerate() {
        let prefix = net.files(0..TENANT_PREFIX);
        let corpus = ctx.path(&format!("prefix-{t}"));
        io("corpus", inputs::write_files(&corpus, &prefix))?;
        let start = ctx.path("start").join(format!("t{t}"));
        let args = program::batch_args(
            &corpus,
            &ctx.tenant_secret(t),
            ctx.jobs,
            &start.join("out"),
            Some(&start.join("state")),
        );
        program::run(&ctx.bin, &args, &ctx.path("prebuild.log"))?;
        let state_dir = ctx.path("life").join(format!("t{t}")).join("state");
        toml.push_str(&format!(
            "\n[tenant.t{t}]\nsecret = \"{}\"\nstate_dir = \"{}\"\n",
            ctx.tenant_secret(t),
            state_dir.display()
        ));
        requests.push(net.routers[TENANT_PREFIX..TENANT_ROUTERS].to_vec());
    }
    io(
        "confanon.toml",
        std::fs::write(ctx.path("confanon.toml"), toml),
    )?;
    let start_digest = tree_digest(&ctx.path("start"))?;

    let mut lives = Vec::new();
    let start = Instant::now();
    while lives.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        lives.push(daemon_life(ctx, lives.len(), Some(&requests))?);
    }
    let mut setup: Vec<f64> = lives.iter().map(|l| l.setup_s).collect();
    while setup.len() < SETUP_REPS {
        setup.push(daemon_life(ctx, setup.len(), None)?.setup_s);
    }

    let mut problems = Vec::new();
    let mut outcomes = Outcomes::default();
    let mut rtts = Vec::new();
    let mut digests = Vec::new();
    for life in &lives {
        let mut all = Vec::new();
        for (t, replies) in life.replies.iter().enumerate() {
            outcomes.absorb(Outcomes::from_statuses(
                replies.iter().map(|(_, s, _)| s.as_str()),
            ));
            for ((rtt, _, body), (name, _)) in replies.iter().zip(&requests[t]) {
                rtts.push(*rtt);
                all.push((format!("t{t}/{name}"), body.clone()));
            }
        }
        digests.push(inputs::digest_files(
            all.iter().map(|(n, b)| (n.as_str(), b.as_slice())),
        ));
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        problems.push("daemon lives returned different replies".into());
    }
    let mut words = 0;
    for (t, net) in nets.iter().enumerate() {
        let mut files = net.files(0..TENANT_PREFIX);
        files.extend(requests[t].iter().cloned());
        let (anon, per_file) = discover(&ctx.tenant_secret(t), &files);
        words += per_file[TENANT_PREFIX..].iter().sum::<u64>();
        let outputs: Vec<(usize, String, Vec<u8>)> = lives[0].replies[t]
            .iter()
            .zip(&requests[t])
            .map(|((_, _, body), (name, _))| (0, name.clone(), body.clone()))
            .collect();
        leak_check(&[net.record()], &anon, &outputs, &mut problems);
    }
    let loads: Vec<f64> = lives.iter().map(|l| l.load_s).collect();
    let oks_per_life = (outcomes.attempted - outcomes.failed) as f64 / lives.len() as f64;
    let load = median(&loads);
    let p95 = percentile(&rtts, 0.95);
    if p95.is_none() {
        problems.push(format!(
            "{} round trips leave fewer than 10 beyond p95",
            rtts.len()
        ));
    }
    let details = Json::obj()
        .with(
            "input_digest",
            inputs::digest_texts(&inputs::all_files(&nets)),
        )
        .with("start_state_digest", start_digest)
        .with("output_digest", digests[0].as_str())
        .with("lives", lives.len())
        .with("load_s_samples", loads.clone())
        .with("setup_s_samples", setup.clone())
        .with("rtt_samples", rtts.len())
        .with("request_words", words)
        .with("failed_frac", outcomes.failed_frac());
    Ok(Report {
        metrics: vec![
            ("wall_s", load, "s"),
            ("tokens_per_s", words as f64 / load, "1/s"),
            ("req_per_s", oks_per_life / load, "1/s"),
            (
                "rtt_p50_ms",
                percentile(&rtts, 0.5).unwrap_or(f64::NAN),
                "ms",
            ),
            ("rtt_p95_ms", p95.unwrap_or(f64::NAN), "ms"),
            ("setup_s", median(&setup), "s"),
            (
                "peak_rss_mb",
                median(&lives.iter().map(|l| l.peak_rss_mb).collect::<Vec<_>>()),
                "MiB",
            ),
        ],
        outcomes,
        problems,
        details,
    })
}
