//! Hostile-wire and self-healing suite for `confanon serve` (DESIGN
//! §15), driven end-to-end through the real binary, the independent
//! `CONFANON/1` wire client, and the seeded fault-injecting proxy from
//! `confanon_testkit::netchaos`.
//!
//! What is proven here, each against a live daemon process:
//!
//! 1. **Chaos survival** — a hostile client hammering the daemon
//!    through the seeded chaos proxy (torn frames, dribbles, garbage,
//!    duplicated bytes, mid-frame disconnects) never takes the daemon
//!    down and never perturbs a healthy tenant: the healthy tenant's
//!    responses stay byte-identical to a solo `confanon batch` run,
//!    and the drain still exits 0. Deterministic per seed.
//! 2. **Lossless transparency** — the dribble-only chaos profile
//!    (content-preserving) is invisible to the protocol: replies
//!    through the proxy equal replies over a direct connection.
//! 3. **Idle timeout** — a byte-silent connection is closed after
//!    `idle_timeout_ms` with a classified error frame.
//! 4. **Read deadline** — a slowloris connection that dribbles a frame
//!    forever is closed after `read_deadline_ms` even though it keeps
//!    making byte progress.
//! 5. **Per-tenant quota** — a payload over `max_request_bytes` is
//!    rejected with a quota error *without* closing the connection or
//!    reaching the worker.
//! 6. **Load shedding** — arrivals past `max_connections` get one
//!    retriable `BUSY` frame carrying the `retry-after-ms` hint.
//! 7. **Degrade + self-heal** — a tenant whose state store fails
//!    permanently keeps serving (`DEGRADED` frames, correct payload),
//!    and the recovery probe restores `OK` service once the store
//!    heals; a state-quarantined tenant likewise un-quarantines once
//!    its torn state is cleared. Both flows feed the
//!    `daemon.faults` counters of the stats frame.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use confanon_testkit::json::Json;
use confanon_testkit::netchaos::{ChaosProxy, Profile};
use confanon_testkit::serveclient::{Backoff, ServeClient};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_confanon"))
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("confanon-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mktemp");
    d
}

/// Writes a `confanon.toml` with one `[tenant.NAME]` section per entry
/// (secret convention `<name>-secret`), `extra` lines first, and
/// `tenant_extra` lines inside every tenant section.
fn write_config(path: &Path, tenants: &[(&str, &Path)], extra: &str, tenant_extra: &str) {
    let mut text = String::from(extra);
    for (name, dir) in tenants {
        text.push_str(&format!(
            "[tenant.{name}]\nsecret = \"{name}-secret\"\nstate_dir = \"{}\"\n{tenant_extra}",
            dir.display()
        ));
    }
    std::fs::write(path, text).expect("write config");
}

/// A live daemon child with its discovered endpoint. Killed on drop so
/// a failing assertion never leaks a listener.
struct Daemon {
    child: Child,
    endpoint: String,
}

impl Daemon {
    fn spawn(config: &Path, port_file: &Path) -> Daemon {
        let _ = std::fs::remove_file(port_file);
        let mut child = bin()
            .arg("serve")
            .arg("--config")
            .arg(config)
            .args(["--listen", "127.0.0.1:0"])
            .arg("--port-file")
            .arg(port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                let endpoint = text.trim().to_string();
                if !endpoint.is_empty() {
                    return Daemon { child, endpoint };
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                panic!("daemon exited before advertising: {status}");
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("daemon never wrote its port file");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn connect(&self) -> ServeClient {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match ServeClient::connect(&self.endpoint) {
                Ok(c) => return c,
                Err(e) if Instant::now() > deadline => panic!("connect {}: {e}", self.endpoint),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Waits (bounded) for the child to exit and returns its status.
    fn wait(mut self) -> std::process::ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status;
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                panic!("daemon did not exit within the drain deadline");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Generates a deterministic flat corpus: `(name, bytes)` pairs in
/// sorted-name order.
fn flat_corpus(root: &Path, tag: &str, seed: u64, routers: usize) -> Vec<(String, Vec<u8>)> {
    let gen = root.join(format!("gen-{tag}"));
    let status = bin()
        .args(["generate", "--networks", "1"])
        .args(["--routers", &routers.to_string()])
        .args(["--seed", &seed.to_string()])
        .arg("--out-dir")
        .arg(&gen)
        .stderr(Stdio::null())
        .status()
        .expect("run generate");
    assert!(status.success(), "generate failed");
    let mut files = Vec::new();
    collect_cfgs(&gen, &mut files);
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().expect("name").to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("read cfg"))
        })
        .collect()
}

fn collect_cfgs(dir: &Path, out: &mut Vec<PathBuf>) {
    for e in std::fs::read_dir(dir).expect("read_dir").flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_cfgs(&p, out);
        } else if p.extension().is_some_and(|x| x == "cfg") {
            out.push(p);
        }
    }
}

/// Runs `confanon batch` solo over `files` and returns `name → bytes`
/// of the released outputs — the ground truth the daemon must match.
fn solo_batch(
    root: &Path,
    tag: &str,
    secret: &str,
    files: &[(String, Vec<u8>)],
) -> BTreeMap<String, Vec<u8>> {
    let corpus = root.join(format!("batch-{tag}-in"));
    std::fs::create_dir_all(&corpus).expect("mk corpus");
    for (name, bytes) in files {
        std::fs::write(corpus.join(name), bytes).expect("write input");
    }
    let out = root.join(format!("batch-{tag}-out"));
    let status = bin()
        .args(["batch", "--secret", secret])
        .arg("--out-dir")
        .arg(&out)
        .arg(&corpus)
        .stderr(Stdio::null())
        .status()
        .expect("run batch");
    assert!(status.success(), "solo batch failed for {tag}");
    let mut released = BTreeMap::new();
    for e in std::fs::read_dir(&out).expect("read out").flatten() {
        let p = e.path();
        if p.extension().is_some_and(|x| x == "anon") {
            let name = p.file_stem().expect("stem").to_string_lossy().into_owned();
            released.insert(name, std::fs::read(&p).expect("read anon"));
        }
    }
    released
}

/// Reads one `CONFANON/1` response frame from a raw socket (waiting up
/// to `deadline`), returning `(status, payload)`. Panics on a frame the
/// daemon should never emit malformed.
fn read_raw_response(stream: &mut TcpStream, deadline: Duration) -> (String, Vec<u8>) {
    stream
        .set_read_timeout(Some(deadline))
        .expect("set timeout");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let start = Instant::now();
    loop {
        // Parse as soon as the frame is complete.
        if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let header = std::str::from_utf8(&buf[..nl]).expect("utf8 header");
            let mut it = header.split(' ');
            assert_eq!(it.next(), Some("CONFANON/1"), "header: {header}");
            let status = it.next().expect("status").to_string();
            let len: usize = it.next().expect("len").parse().expect("len parses");
            if buf.len() >= nl + 1 + len {
                return (status, buf[nl + 1..nl + 1 + len].to_vec());
            }
        }
        assert!(
            start.elapsed() < deadline + Duration::from_secs(5),
            "no complete response frame within the deadline"
        );
        match stream.read(&mut chunk) {
            Ok(0) => panic!("connection closed before a complete response frame"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => panic!("read: {e}"),
        }
    }
}

fn stats_doc(c: &mut ServeClient) -> Json {
    let stats = c.stats().expect("stats frame");
    assert_eq!(stats.status, "OK");
    let doc = Json::parse(&stats.text()).expect("stats json");
    confanon::obs::validate_serve_metrics(&doc).expect("stats frame validates");
    doc
}

fn fault_counter(doc: &Json, key: &str) -> u64 {
    doc.get("daemon")
        .and_then(|d| d.get("faults"))
        .and_then(|f| f.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats frame lacks daemon.faults.{key}"))
}

fn tenant_health(doc: &Json, tenant: &str) -> String {
    doc.get("tenants")
        .and_then(|t| t.get(tenant))
        .and_then(|s| s.get("health"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("stats frame lacks tenants.{tenant}.health"))
        .to_string()
}

/// Polls the stats frame until `tenant`'s health equals `want` (the
/// recovery probes run on their own clock) or the deadline passes.
fn await_health(c: &mut ServeClient, tenant: &str, want: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let doc = stats_doc(c);
        if tenant_health(&doc, tenant) == want {
            return doc;
        }
        assert!(
            Instant::now() < deadline,
            "tenant {tenant} never reached health {want:?}; last: {}",
            doc.to_string_pretty()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

// ---------------------------------------------------------------------
// 1. Chaos survival: hostile proxy traffic never perturbs healthy work
// ---------------------------------------------------------------------

confanon_testkit::props! {
    cases = 3;

    /// A hostile client hammers the daemon through the seeded chaos
    /// proxy while a healthy client works directly. Every fault
    /// schedule is a pure function of the seed. The healthy tenant's
    /// replies must be byte-identical to a solo batch run, the stats
    /// frame must stay valid, and the drain must exit 0.
    fn daemon_survives_seeded_wire_chaos(seed in 0u64..1_000_000) {
        let root = std::env::temp_dir().join(format!(
            "confanon-chaos-storm-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("mktemp");

        let alpha_files = flat_corpus(&root, "alpha", seed.wrapping_add(11), 3);
        let alpha_golden = solo_batch(&root, "alpha", "alpha-secret", &alpha_files);

        let config = root.join("confanon.toml");
        // Short reaping clocks so chaos-stalled connections are
        // recycled inside the test budget.
        write_config(
            &config,
            &[
                ("alpha", &root.join("state-alpha")),
                ("mallory", &root.join("state-mallory")),
            ],
            "idle_timeout_ms = 1500\nread_deadline_ms = 700\n",
            "",
        );
        let daemon = Daemon::spawn(&config, &root.join("port"));
        let mut proxy = ChaosProxy::spawn(seed, Profile::hostile(), &daemon.endpoint)
            .expect("spawn chaos proxy");

        // The hostile leg: valid requests launched into the mutating
        // proxy. Whatever comes back — errors, EOFs, garbage replies —
        // is irrelevant; only daemon survival is asserted.
        let proxy_addr = proxy.addr().to_string();
        let storm = std::thread::spawn(move || {
            for i in 0..12u64 {
                let Ok(mut c) = ServeClient::connect(&proxy_addr) else {
                    continue;
                };
                let payload = format!("hostname storm{i}\nrouter bgp 65{i:03}\n");
                let _ = c.anon("mallory", &format!("s{i}.cfg"), payload.as_bytes());
            }
        });

        // The healthy leg, direct to the daemon, interleaved with the
        // storm.
        let mut healthy = daemon.connect();
        for (name, bytes) in &alpha_files {
            let reply = healthy
                .anon_with_retry("alpha", name, bytes, 100, Duration::from_millis(20))
                .expect("healthy request");
            assert_eq!(reply.status, "OK", "seed {seed}: {name}: {}", reply.text());
            let want = alpha_golden
                .get(name)
                .unwrap_or_else(|| panic!("{name}: missing from solo batch"));
            assert_eq!(
                &reply.payload, want,
                "seed {seed}: {name} diverges from solo batch under chaos"
            );
        }
        storm.join().expect("storm thread");

        // The stats frame is still well-formed mid-storm and carries
        // the full fault taxonomy.
        let doc = stats_doc(&mut healthy);
        assert_eq!(tenant_health(&doc, "alpha"), "serving");

        proxy.stop();
        assert_eq!(healthy.shutdown().expect("shutdown").status, "BYE");
        let status = daemon.wait();
        assert!(status.success(), "seed {seed}: drain exit: {status}");
        let _ = std::fs::remove_dir_all(&root);
    }
}

// ---------------------------------------------------------------------
// 2. Lossless chaos profile is protocol-invisible
// ---------------------------------------------------------------------

#[test]
fn lossless_proxy_is_transparent_to_the_protocol() {
    let root = tmpdir("lossless");
    let config = root.join("confanon.toml");
    write_config(&config, &[("alpha", &root.join("state-alpha"))], "", "");
    let daemon = Daemon::spawn(&config, &root.join("port"));
    let mut proxy =
        ChaosProxy::spawn(424242, Profile::lossless(), &daemon.endpoint).expect("spawn proxy");

    let good = b"hostname r1\nrouter bgp 65001\n neighbor 10.3.2.1 remote-as 1239\n";
    let mut direct = daemon.connect();
    let want = direct.anon("alpha", "r1.cfg", good).expect("direct");
    assert_eq!(want.status, "OK");

    // Same request through the dribbling proxy: torn into tiny
    // chunks with pauses, but content-preserving — the reply must be
    // byte-identical (sticky mappings).
    let mut proxied = ServeClient::connect(proxy.addr()).expect("connect proxy");
    let reply = proxied.anon("alpha", "r1.cfg", good).expect("proxied");
    assert_eq!(reply.status, "OK", "payload: {}", reply.text());
    assert_eq!(reply.payload, want.payload, "lossless dribble changed bytes");

    proxy.stop();
    assert_eq!(direct.shutdown().expect("shutdown").status, "BYE");
    assert!(daemon.wait().success());
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// 3 + 4. Idle timeout and read deadline
// ---------------------------------------------------------------------

#[test]
fn byte_silent_connection_is_closed_at_the_idle_timeout() {
    let root = tmpdir("idle");
    let config = root.join("confanon.toml");
    write_config(
        &config,
        &[("alpha", &root.join("state-alpha"))],
        "idle_timeout_ms = 300\nread_deadline_ms = 60000\n",
        "",
    );
    let daemon = Daemon::spawn(&config, &root.join("port"));

    let mut idle = TcpStream::connect(&daemon.endpoint).expect("connect");
    let started = Instant::now();
    let (status, payload) = read_raw_response(&mut idle, Duration::from_secs(10));
    assert_eq!(status, "ERROR");
    let text = String::from_utf8_lossy(&payload).into_owned();
    assert!(text.contains("idle-timeout"), "payload: {text}");
    assert!(
        started.elapsed() >= Duration::from_millis(300),
        "closed before the idle budget elapsed"
    );

    // The close is visible in the fault counters, and the daemon is
    // still fully serviceable.
    let mut c = daemon.connect();
    let doc = stats_doc(&mut c);
    assert!(fault_counter(&doc, "idle_closed") >= 1);
    assert_eq!(c.ping().expect("ping").status, "OK");
    assert_eq!(c.shutdown().expect("shutdown").status, "BYE");
    assert!(daemon.wait().success());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dribbled_frame_is_closed_at_the_read_deadline() {
    let root = tmpdir("dribble");
    let config = root.join("confanon.toml");
    // Idle timeout long, read deadline short: only a frame-progress
    // clock can reap this connection, because the dribble keeps making
    // byte progress.
    write_config(
        &config,
        &[("alpha", &root.join("state-alpha"))],
        "idle_timeout_ms = 60000\nread_deadline_ms = 400\n",
        "",
    );
    let daemon = Daemon::spawn(&config, &root.join("port"));

    let mut slow = TcpStream::connect(&daemon.endpoint).expect("connect");
    // A valid frame start, dribbled one byte at a time, never
    // completed: classic slowloris.
    let partial = b"CONFANON/1 ANON alpha r1.cfg 64\nhostnam";
    for b in partial {
        let _ = slow.write_all(&[*b]);
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, payload) = read_raw_response(&mut slow, Duration::from_secs(10));
    assert_eq!(status, "ERROR");
    let text = String::from_utf8_lossy(&payload).into_owned();
    assert!(text.contains("read-deadline"), "payload: {text}");

    let mut c = daemon.connect();
    let doc = stats_doc(&mut c);
    assert!(fault_counter(&doc, "read_timeouts") >= 1);
    assert_eq!(c.ping().expect("ping").status, "OK");
    assert_eq!(c.shutdown().expect("shutdown").status, "BYE");
    assert!(daemon.wait().success());
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// 5. Per-tenant request quota
// ---------------------------------------------------------------------

#[test]
fn oversized_payload_is_rejected_by_quota_without_closing_the_connection() {
    let root = tmpdir("quota");
    let config = root.join("confanon.toml");
    write_config(
        &config,
        &[("alpha", &root.join("state-alpha"))],
        "",
        "max_request_bytes = 256\n",
    );
    let daemon = Daemon::spawn(&config, &root.join("port"));
    let mut c = daemon.connect();

    let oversized = vec![b'x'; 1024];
    let rejected = c.anon("alpha", "big.cfg", &oversized).expect("oversized");
    assert_eq!(rejected.status, "ERROR");
    assert!(
        rejected.text().contains("quota-exceeded"),
        "payload: {}",
        rejected.text()
    );

    // Same connection, compliant payload: the quota rejection must not
    // have torn the session down.
    let ok = c
        .anon("alpha", "small.cfg", b"hostname r1\n")
        .expect("small");
    assert_eq!(ok.status, "OK", "payload: {}", ok.text());

    let doc = stats_doc(&mut c);
    assert!(fault_counter(&doc, "frames_rejected") >= 1);
    assert_eq!(c.shutdown().expect("shutdown").status, "BYE");
    assert!(daemon.wait().success());
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// 6. Load shedding with a backoff hint
// ---------------------------------------------------------------------

#[test]
fn arrivals_past_the_connection_bound_are_shed_with_a_retry_hint() {
    let root = tmpdir("shed");
    let config = root.join("confanon.toml");
    write_config(
        &config,
        &[("alpha", &root.join("state-alpha"))],
        "max_connections = 1\nbusy_retry_hint_ms = 75\n",
        "",
    );
    let daemon = Daemon::spawn(&config, &root.join("port"));

    // Occupy the single slot (a served request proves it is live).
    let mut holder = daemon.connect();
    assert_eq!(holder.ping().expect("ping").status, "OK");

    // The next arrival gets one BUSY frame with the hint, then EOF.
    let mut shed = TcpStream::connect(&daemon.endpoint).expect("connect");
    let (status, payload) = read_raw_response(&mut shed, Duration::from_secs(10));
    assert_eq!(status, "BUSY");
    let text = String::from_utf8_lossy(&payload).into_owned();
    assert!(
        text.starts_with("retry-after-ms=75;"),
        "BUSY payload must lead with the hint: {text}"
    );
    drop(shed);

    // The seeded backoff client honors the hint end-to-end: freeing
    // the slot lets a reconnect-and-retry loop land.
    let doc = stats_doc(&mut holder);
    assert!(fault_counter(&doc, "connections_shed") >= 1);
    drop(holder);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut backoff = Backoff::new(7, 10, 200);
    let (reply, mut c) = loop {
        if let Ok(mut c) = ServeClient::connect(&daemon.endpoint) {
            match c.anon_with_backoff("alpha", "r.cfg", b"hostname r\n", 5, &mut backoff) {
                Ok(r) if r.status == "OK" => break (r, c),
                _ => {}
            }
        }
        assert!(Instant::now() < deadline, "slot never freed after drop");
        std::thread::sleep(backoff.next_delay(Some(75)));
    };
    assert_eq!(reply.status, "OK");

    // Shut down over the connection that holds the one slot: a fresh
    // connection could arrive before the daemon has seen this one close
    // and be shed.
    assert_eq!(c.shutdown().expect("shutdown").status, "BYE");
    assert!(daemon.wait().success());
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// 7. Degrade on permanent store failure, self-heal via recovery probes
// ---------------------------------------------------------------------

#[test]
fn permanent_store_failure_degrades_then_recovery_probe_heals() {
    let root = tmpdir("degrade");
    // The tenant's state_dir lives under a path component that is a
    // regular *file* — every flush fails permanently (not-a-directory
    // is not transient), which is the portable stand-in for ENOSPC.
    let blocker = root.join("blocker");
    std::fs::write(&blocker, b"occupied").expect("write blocker");
    let state_dir = blocker.join("state-alpha");

    let config = root.join("confanon.toml");
    write_config(
        &config,
        &[("alpha", &state_dir)],
        "recovery_probe_ms = 100\n",
        "",
    );
    let daemon = Daemon::spawn(&config, &root.join("port"));
    let mut c = daemon.connect();

    // First request: anonymization succeeds (resident mappings), the
    // per-request flush hits the dead store, the tenant degrades — and
    // the reply still carries the anonymized text under DEGRADED.
    let good = b"hostname r1\nrouter bgp 65001\n neighbor 10.3.2.1 remote-as 1239\n";
    let degraded = c.anon("alpha", "r1.cfg", good).expect("first request");
    assert_eq!(degraded.status, "DEGRADED", "payload: {}", degraded.text());
    assert!(!degraded.payload.is_empty(), "DEGRADED must carry the output");
    assert!(
        !degraded.text().contains("10.3.2.1"),
        "DEGRADED output must still be anonymized"
    );

    // Sticky even while degraded: a replay is byte-identical.
    let replay = c.anon("alpha", "r1.cfg", good).expect("replay");
    assert_eq!(replay.status, "DEGRADED");
    assert_eq!(replay.payload, degraded.payload);

    let doc = await_health(&mut c, "alpha", "degraded");
    assert!(fault_counter(&doc, "degraded_transitions") >= 1);

    // The CLI client treats DEGRADED as usable output: exit 0, payload
    // on stdout, the durability caveat on stderr.
    let out = bin()
        .args(["client", "--endpoint", &daemon.endpoint])
        .args(["anon", "--tenant", "alpha", "--name", "r1.cfg"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .and_then(|mut child| {
            child.stdin.take().expect("stdin").write_all(good)?;
            child.wait_with_output()
        })
        .expect("run client");
    assert_eq!(out.status.code(), Some(0), "DEGRADED is usable output");
    assert_eq!(out.stdout, degraded.payload, "client stdout is the payload");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("degraded"),
        "stderr carries the durability warning"
    );

    // Heal the store: the recovery probe's flush must land within a
    // few probe intervals and restore plain OK service.
    std::fs::remove_file(&blocker).expect("remove blocker");
    let doc = await_health(&mut c, "alpha", "serving");
    assert!(fault_counter(&doc, "recoveries") >= 1);
    assert!(
        state_dir.join("state.json").exists(),
        "the healing flush must have persisted the state document"
    );
    let healed = c.anon("alpha", "r1.cfg", good).expect("healed request");
    assert_eq!(healed.status, "OK");
    assert_eq!(healed.payload, degraded.payload, "mappings survived the episode");

    assert_eq!(c.shutdown().expect("shutdown").status, "BYE");
    assert!(daemon.wait().success());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn state_quarantined_tenant_unquarantines_once_the_store_heals() {
    let root = tmpdir("requarantine");
    let state_dir = root.join("state-alpha");
    std::fs::create_dir_all(&state_dir).expect("mk state");
    let torn_path = state_dir.join("state.json");
    std::fs::write(&torn_path, b"{ \"schema\": \"confanon-state-v1\", torn").expect("write torn");

    let config = root.join("confanon.toml");
    write_config(
        &config,
        &[("alpha", &state_dir)],
        "recovery_probe_ms = 100\n",
        "",
    );
    let daemon = Daemon::spawn(&config, &root.join("port"));
    let mut c = daemon.connect();

    let good = b"hostname r1\nrouter bgp 65001\n neighbor 10.3.2.1 remote-as 1239\n";
    let refused = c.anon("alpha", "r1.cfg", good).expect("refused request");
    assert_eq!(refused.status, "TENANT-QUARANTINED");
    assert!(
        refused.text().contains("state-quarantined"),
        "payload: {}",
        refused.text()
    );
    // The torn evidence is untouched while quarantined.
    assert_eq!(
        std::fs::read(&torn_path).expect("read torn"),
        b"{ \"schema\": \"confanon-state-v1\", torn".to_vec()
    );

    // Operator clears the torn document; the probe re-runs the load
    // path, adopts the clean (empty) store, and the tenant serves.
    std::fs::remove_file(&torn_path).expect("clear torn state");
    let doc = await_health(&mut c, "alpha", "serving");
    assert!(fault_counter(&doc, "recoveries") >= 1);
    let served = c.anon("alpha", "r1.cfg", good).expect("served request");
    assert_eq!(served.status, "OK", "payload: {}", served.text());

    assert_eq!(c.shutdown().expect("shutdown").status, "BYE");
    assert!(daemon.wait().success());
    let _ = std::fs::remove_dir_all(&root);
}
