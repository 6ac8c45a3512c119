//! Driving the release binary: timed child processes with their peak
//! memory, and the benchmark's own `CONFANON/1` wire client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Longest any single child may run before it is killed; keeps every
/// benchmark run inside its time limit even if the program hangs.
pub const CHILD_DEADLINE: Duration = Duration::from_secs(90);

/// A finished child process.
pub struct Finished {
    /// Exit status.
    pub status: ExitStatus,
    /// Spawn to reap, in seconds.
    pub wall_s: f64,
    /// Peak resident set of the child, in MiB.
    pub peak_rss_mb: f64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage([c_long; 18]);

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut RUsage) -> c_int;
}

const WNOHANG: c_int = 1;

/// Reaps `child` if it has exited, returning its raw status and peak
/// RSS in KiB. `wait4` is the one call that reports the peak memory of
/// one specific child, which `std::process` does not expose.
fn try_reap(child: &Child) -> std::io::Result<Option<(c_int, c_long)>> {
    let mut status: c_int = 0;
    let mut usage = RUsage([0; 18]);
    // SAFETY: `status` and `usage` are live, writable and sized as the
    // kernel ABI requires; the pid is our own unreaped child (it is
    // reaped at most once, by this call returning it).
    let r = unsafe { wait4(child.id() as c_int, &mut status, WNOHANG, &mut usage) };
    match r {
        0 => Ok(None),
        r if r < 0 => {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(None)
            } else {
                Err(e)
            }
        }
        _ => Ok(Some((status, usage.0[4]))),
    }
}

/// Waits for `child` (spawned at `started`), killing it past
/// [`CHILD_DEADLINE`]. Polls every millisecond, which bounds the error
/// of the measured wall time.
pub fn finish(mut child: Child, started: Instant) -> Result<Finished, String> {
    loop {
        match try_reap(&child).map_err(|e| format!("wait4: {e}"))? {
            Some((raw, maxrss_kib)) => {
                return Ok(Finished {
                    status: ExitStatus::from_raw(raw),
                    wall_s: started.elapsed().as_secs_f64(),
                    peak_rss_mb: maxrss_kib as f64 / 1024.0,
                });
            }
            None if started.elapsed() > CHILD_DEADLINE => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("child {} exceeded {CHILD_DEADLINE:?}", child.id()));
            }
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Spawns `confanon <args>` with stdout/stderr appended to `log`.
pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<(Child, Instant), String> {
    let out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| format!("{}: {e}", log.display()))?;
    let err = out.try_clone().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    Ok((child, started))
}

/// Runs `confanon <args>` to completion; a non-zero exit is an error.
pub fn run(bin: &Path, args: &[String], log: &Path) -> Result<Finished, String> {
    let (child, started) = spawn(bin, args, log)?;
    let done = finish(child, started)?;
    if !done.status.success() {
        return Err(format!(
            "confanon {} exited with {} (log: {})",
            args.first().map_or("", String::as_str),
            done.status,
            log.display()
        ));
    }
    Ok(done)
}

/// A `confanon batch` command line.
pub fn batch_args(
    corpus: &Path,
    secret: &str,
    jobs: usize,
    out: &Path,
    state: Option<&Path>,
) -> Vec<String> {
    let mut args = vec![
        "batch".to_string(),
        corpus.display().to_string(),
        "--secret".into(),
        secret.into(),
        "--jobs".into(),
        jobs.to_string(),
        "--out-dir".into(),
        out.display().to_string(),
    ];
    if let Some(s) = state {
        args.extend(["--state".into(), s.display().to_string()]);
    }
    args
}

/// Waits until the daemon has written its port file, returning the
/// endpoint. The daemon writes the file only after every tenant opened.
pub fn await_port_file(path: &Path, child: &mut Child, started: Instant) -> Result<String, String> {
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            let endpoint = text.trim();
            if endpoint.parse::<std::net::SocketAddr>().is_ok() {
                return Ok(endpoint.to_string());
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("serve exited with {status} before listening"));
        }
        if started.elapsed() > CHILD_DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            return Err("serve never wrote its port file".into());
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// One connection speaking `CONFANON/1`, framed from DESIGN §14:
/// `"CONFANON/1 <VERB> <tenant> <name> <len>\n" + payload` out,
/// `"CONFANON/1 <STATUS> <len>\n" + payload` back.
pub struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    /// Connects to `endpoint` (`host:port`).
    pub fn connect(endpoint: &str) -> Result<Wire, String> {
        let stream =
            TcpStream::connect(endpoint).map_err(|e| format!("connect {endpoint}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Wire {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads its reply: `(status, payload)`.
    pub fn call(
        &mut self,
        verb: &str,
        tenant: &str,
        name: &str,
        payload: &[u8],
    ) -> Result<(String, Vec<u8>), String> {
        let header = format!("CONFANON/1 {verb} {tenant} {name} {}\n", payload.len());
        self.writer
            .write_all(header.as_bytes())
            .and_then(|()| self.writer.write_all(payload))
            .map_err(|e| format!("send {verb}: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("read reply header: {e}"))?;
        let mut parts = line.split_whitespace();
        let (Some("CONFANON/1"), Some(status), Some(len), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("malformed reply header {line:?}"));
        };
        let len: usize = len
            .parse()
            .map_err(|_| format!("bad reply length in {line:?}"))?;
        if len > 64 << 20 {
            return Err(format!("reply length {len} exceeds 64 MiB"));
        }
        let mut body = vec![0; len];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("read reply payload: {e}"))?;
        Ok((status.to_string(), body))
    }
}
