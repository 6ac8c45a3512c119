//! Crash-safe durable writes: the storage layer every released byte
//! passes through.
//!
//! The fail-closed contract of §9 (DESIGN.md) covers *what* may be
//! released; this module covers *how*. A corpus run that dies mid-write
//! — crash, `kill -9`, ENOSPC — must never leave a torn, half-anonymized
//! file that an operator could mistake for a complete one. Following the
//! crash-consistency discipline of journaled systems (write-ahead intent
//! plus atomic rename publish, the pattern ALICE-style crash-consistency
//! testing assumes), every output is made visible in one step:
//!
//! 1. the bytes are written to a temp file *in the target directory*
//!    (same filesystem, so the rename cannot degrade to a copy),
//! 2. the temp file is `fsync`ed (`sync_all`) so its contents are on
//!    stable storage before the name appears,
//! 3. the temp file is renamed over the target — atomic on POSIX —
//! 4. and the parent directory is `fsync`ed so the rename itself
//!    survives a power cut.
//!
//! At every observable point the target path either holds the complete
//! previous content (or nothing) or the complete new content.
//!
//! All filesystem touchpoints go through the injectable [`Fs`] trait:
//! production uses [`StdFs`]; tests use `confanon_testkit::faultfs::
//! FaultFs`, which injects seeded torn writes, transient errors, and
//! rename failures so the all-or-nothing property is *tested*, not
//! assumed. Transient errors (EINTR and friends) are retried with
//! bounded backoff; everything else is classified into
//! [`AnonError::Io`].
//!
//! ## Deterministic crash injection
//!
//! When the environment variable `CONFANON_CRASH_AFTER=N` (N ≥ 1) is
//! set, the process aborts — no unwinding, no destructors, as a real
//! crash would — immediately after the N-th durable write completes.
//! Because every durable write in a batch run happens on one thread in
//! a deterministic order, crash point N is the same state at any
//! `--jobs` value, which is what lets `tests/crash_resume.rs` enumerate
//! every crash point and prove `--resume` reconstructs the released set
//! byte-for-byte.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use confanon_testkit::faultfs::FaultFs;
use confanon_testkit::json::Json;

use crate::error::AnonError;

/// Suffix of the temp files [`write_atomic`] stages bytes in. A crash
/// between steps 1 and 3 can leave one behind; resume sweeps them by
/// this suffix (see [`is_tmp_path`]).
pub const TMP_SUFFIX: &str = ".fsx-tmp";

/// Attempts per write (first try plus retries of transient errors).
const MAX_ATTEMPTS: u32 = 4;

/// True if `path` is one of [`write_atomic`]'s staging files.
pub fn is_tmp_path(path: &Path) -> bool {
    path.file_name()
        .map(|n| n.to_string_lossy().ends_with(TMP_SUFFIX))
        .unwrap_or(false)
}

/// The filesystem operations the durability layer needs, injectable so
/// the fault-injection suite can exercise every failure edge.
pub trait Fs {
    /// Recursively creates `dir` (and parents).
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Creates (truncating) `path`, writes all of `bytes`, and syncs the
    /// file's data and metadata to stable storage.
    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same directory here).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Syncs the directory entry table of `dir` (durability of renames).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Removes a file; used for staging cleanup and rollback.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Reads a whole file (batch input, resume verification).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Does `path` exist?
    fn exists(&self, path: &Path) -> bool;
}

/// The production filesystem: plain `std::fs` plus real fsyncs.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

impl Fs for StdFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use io::Write;
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    #[cfg(unix)]
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // On Unix a directory opens read-only and fsyncs its entry table.
        std::fs::File::open(dir)?.sync_all()
    }

    #[cfg(not(unix))]
    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        // No portable directory fsync; rename durability is best-effort.
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

}

/// Counters for the durability layer: what atomic persistence costs, so
/// `BENCH_durability.json` can report the overhead against plain writes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Completed atomic publishes (temp + sync + rename + dir sync).
    pub atomic_writes: u64,
    /// `fsync` calls issued (one per temp file, one per directory).
    pub fsyncs: u64,
    /// Transient errors absorbed by retry instead of failing the run.
    pub transient_retries: u64,
    /// Permanent errors (ENOSPC, EACCES, EIO...) that failed a publish
    /// outright — what pushes a serve tenant into DEGRADED mode.
    pub permanent_failures: u64,
}

impl DurabilityStats {
    /// Accumulates another counter block into this one.
    pub fn merge(&mut self, other: &DurabilityStats) {
        self.atomic_writes += other.atomic_writes;
        self.fsyncs += other.fsyncs;
        self.transient_retries += other.transient_retries;
        self.permanent_failures += other.permanent_failures;
    }

    /// The counters as a JSON object (for bench reports).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("atomic_writes", self.atomic_writes)
            .with("fsyncs", self.fsyncs)
            .with("transient_retries", self.transient_retries)
            .with("permanent_failures", self.permanent_failures)
    }
}

/// Is this error worth retrying? EINTR-class conditions clear on their
/// own; everything else (ENOSPC, EACCES, EIO...) is permanent and must
/// surface as [`AnonError::Io`].
fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn io_error(target: &Path, e: &io::Error) -> AnonError {
    AnonError::Io {
        path: target.display().to_string(),
        message: e.to_string(),
    }
}

/// Process-unique sequence for staging-file names; two concurrent
/// writers in one process can never collide on a temp path.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Durable writes completed by this process (feeds the crash hook).
static DURABLE_WRITES: AtomicU64 = AtomicU64::new(0);

/// Cached `CONFANON_CRASH_AFTER` (0 / absent / unparseable = disabled).
static CRASH_AFTER: OnceLock<u64> = OnceLock::new();

/// Durable writes completed so far by this process.
pub fn durable_writes_completed() -> u64 {
    DURABLE_WRITES.load(Ordering::SeqCst)
}

/// The deterministic crash hook: called once per completed durable
/// write; aborts the process (as a crash would — no unwinding, no
/// cleanup) when the configured write count is reached.
fn crash_hook_tick(target: &Path) {
    let limit = *CRASH_AFTER.get_or_init(|| {
        std::env::var("CONFANON_CRASH_AFTER")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    });
    let done = DURABLE_WRITES.fetch_add(1, Ordering::SeqCst) + 1;
    if limit > 0 && done >= limit {
        eprintln!(
            "CONFANON_CRASH_AFTER: simulating crash after {done} durable write(s) \
             (last: {})",
            target.display()
        );
        std::process::abort();
    }
}

/// Publishes `bytes` at `target` atomically and durably.
///
/// Either the call returns `Ok` and `target` holds exactly `bytes` on
/// stable storage, or it returns `Err` and `target` is untouched (a
/// pre-existing file keeps its old content; a fresh path stays absent)
/// with no staging file left behind. Transient errors are retried up to
/// up to 4 times with linear backoff; `stats` counts completed
/// publishes, fsyncs, and absorbed retries.
pub fn write_atomic(
    fs: &dyn Fs,
    target: &Path,
    bytes: &[u8],
    stats: &mut DurabilityStats,
) -> Result<(), AnonError> {
    let parent = match target.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let Some(name) = target.file_name().map(|n| n.to_string_lossy().to_string()) else {
        return Err(AnonError::Io {
            path: target.display().to_string(),
            message: "target has no file name".to_string(),
        });
    };
    fs.create_dir_all(&parent).map_err(|e| io_error(target, &e))?;
    let existed_before = fs.exists(target);

    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = parent.join(format!(".{name}.{}.{seq}{TMP_SUFFIX}", std::process::id()));

        // Step 1+2: stage and sync the bytes under a name nobody reads.
        if let Err(e) = fs.write_sync(&tmp, bytes) {
            let _ = fs.remove_file(&tmp);
            if is_transient(e.kind()) && attempt < MAX_ATTEMPTS {
                stats.transient_retries += 1;
                std::thread::sleep(Duration::from_millis(u64::from(attempt)));
                continue;
            }
            stats.permanent_failures += 1;
            return Err(io_error(target, &e));
        }
        // Step 3: publish in one atomic step.
        if let Err(e) = fs.rename(&tmp, target) {
            let _ = fs.remove_file(&tmp);
            if is_transient(e.kind()) && attempt < MAX_ATTEMPTS {
                stats.transient_retries += 1;
                std::thread::sleep(Duration::from_millis(u64::from(attempt)));
                continue;
            }
            stats.permanent_failures += 1;
            return Err(io_error(target, &e));
        }
        // Step 4: make the rename durable. A permanent failure here
        // leaves a file whose durability is unknown — fail closed: roll
        // a fresh path back to "absent" (an overwritten target keeps
        // its new complete content; removing it would destroy the only
        // copy of a journal).
        let mut sync_attempt = 0u32;
        loop {
            sync_attempt += 1;
            match fs.sync_dir(&parent) {
                Ok(()) => break,
                Err(e) if is_transient(e.kind()) && sync_attempt < MAX_ATTEMPTS => {
                    stats.transient_retries += 1;
                    std::thread::sleep(Duration::from_millis(u64::from(sync_attempt)));
                }
                Err(e) => {
                    if !existed_before {
                        let _ = fs.remove_file(target);
                        let _ = fs.sync_dir(&parent);
                    }
                    stats.permanent_failures += 1;
                    return Err(io_error(target, &e));
                }
            }
        }

        stats.atomic_writes += 1;
        stats.fsyncs += 2; // temp file + directory
        crash_hook_tick(target);
        return Ok(());
    }
}

/// The testkit fault injector is a first-class [`Fs`]: the property
/// suites drive [`write_atomic`] through seeded torn writes, transient
/// errors, and rename failures. (The struct lives in testkit — which
/// core depends on, not vice versa — so the trait impl lives here.)
impl Fs for confanon_testkit::faultfs::FaultFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        FaultFs::create_dir_all(self, dir)
    }
    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        FaultFs::write_sync(self, path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        FaultFs::rename(self, from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        FaultFs::sync_dir(self, dir)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        FaultFs::remove_file(self, path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        FaultFs::read(self, path)
    }
    fn exists(&self, path: &Path) -> bool {
        FaultFs::exists(self, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "confanon-fsx-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mk tmpdir");
        d
    }

    fn dir_entries(dir: &Path) -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(dir)
            .expect("read dir")
            .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().to_string()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn std_write_atomic_round_trips() {
        let dir = tmpdir("std");
        let target = dir.join("out.anon");
        let mut stats = DurabilityStats::default();
        write_atomic(&StdFs, &target, b"hello config\n", &mut stats).expect("write");
        assert_eq!(std::fs::read(&target).expect("read"), b"hello config\n");
        assert_eq!(stats.atomic_writes, 1);
        assert_eq!(stats.fsyncs, 2);
        assert_eq!(dir_entries(&dir), vec!["out.anon".to_string()], "no temp residue");
        // Overwrite keeps atomicity and replaces content.
        write_atomic(&StdFs, &target, b"v2\n", &mut stats).expect("rewrite");
        assert_eq!(std::fs::read(&target).expect("read"), b"v2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn creates_missing_parent_directories() {
        let dir = tmpdir("parents");
        let target = dir.join("a/b/c.anon");
        let mut stats = DurabilityStats::default();
        write_atomic(&StdFs, &target, b"x", &mut stats).expect("write");
        assert_eq!(std::fs::read(&target).expect("read"), b"x");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_path_predicate_matches_staging_names() {
        assert!(is_tmp_path(Path::new("/x/.out.anon.7.3.fsx-tmp")));
        assert!(!is_tmp_path(Path::new("/x/out.anon")));
        assert!(!is_tmp_path(Path::new("/x")));
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = DurabilityStats {
            atomic_writes: 1,
            fsyncs: 2,
            transient_retries: 3,
            permanent_failures: 4,
        };
        a.merge(&DurabilityStats {
            atomic_writes: 10,
            fsyncs: 20,
            transient_retries: 30,
            permanent_failures: 40,
        });
        assert_eq!(a.atomic_writes, 11);
        assert_eq!(a.fsyncs, 22);
        assert_eq!(a.transient_retries, 33);
        assert_eq!(a.permanent_failures, 44);
        assert!(a.to_json().get("fsyncs").is_some());
        assert!(a.to_json().get("permanent_failures").is_some());
    }

    #[test]
    fn enospc_is_a_counted_permanent_failure_and_heals() {
        let dir = tmpdir("enospc");
        let fs = FaultFs::quiet(5);
        fs.set_enospc(true);
        let mut stats = DurabilityStats::default();
        let target = dir.join("out.anon");
        let err = write_atomic(&fs, &target, b"x", &mut stats).expect_err("full disk");
        assert!(err.to_string().contains("no space left"), "{err}");
        assert_eq!(stats.permanent_failures, 1);
        assert_eq!(stats.atomic_writes, 0);
        assert!(!target.exists(), "failed publish must not surface a target");
        // Device freed: the same path publishes cleanly.
        fs.set_enospc(false);
        write_atomic(&fs, &target, b"x", &mut stats).expect("healed write");
        assert_eq!(stats.atomic_writes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- fault-injection properties (testkit FaultFs) ------------------

    confanon_testkit::props! {
        cases = 96;

        /// The central all-or-nothing property: under arbitrary seeded
        /// faults, a fresh target either holds the complete bytes (on
        /// Ok) or does not exist (on Err) — and no staging file
        /// survives either way.
        fn faulted_write_publishes_fully_or_not_at_all(seed in 0u64..1_000_000) {
            let dir = tmpdir("fault");
            let fs = FaultFs::new(seed);
            let target = dir.join("out.anon");
            let payload = b"line one\nline two\nline three\n";
            let mut stats = DurabilityStats::default();
            match write_atomic(&fs, &target, payload, &mut stats) {
                Ok(()) => {
                    assert_eq!(
                        std::fs::read(&target).expect("published file"),
                        payload,
                        "seed {seed}: published bytes must be complete"
                    );
                }
                Err(e) => {
                    assert!(
                        !target.exists(),
                        "seed {seed}: failed write left a file at the target: {e}"
                    );
                }
            }
            for entry in dir_entries(&dir) {
                assert!(
                    !entry.ends_with(TMP_SUFFIX),
                    "seed {seed}: staging file {entry} survived"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// A bounded number of transient faults is absorbed by retry:
        /// the write still succeeds and the retries are counted.
        fn transient_faults_are_retried_to_success(seed in 0u64..1_000_000) {
            let dir = tmpdir("transient");
            // Transient-only faults, at most 2 of them: MAX_ATTEMPTS of
            // 4 must always absorb the budget.
            let fs = FaultFs::transient_only(seed).with_fault_budget(2);
            let target = dir.join("out.anon");
            let mut stats = DurabilityStats::default();
            write_atomic(&fs, &target, b"payload", &mut stats)
                .expect("bounded transient faults must not fail the write");
            assert_eq!(std::fs::read(&target).expect("read"), b"payload");
            assert_eq!(stats.transient_retries, fs.faults_injected());
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// An overwritten target is never torn: at every point it holds
        /// one of the two *complete* contents. (A failed overwrite may
        /// legitimately land on the new bytes — when only the final
        /// directory sync failed, after the atomic rename — but never on
        /// a mixture or a prefix.)
        fn failed_overwrite_is_never_torn(seed in 0u64..1_000_000) {
            let dir = tmpdir("overwrite");
            let target = dir.join("out.anon");
            let mut stats = DurabilityStats::default();
            write_atomic(&StdFs, &target, b"old complete content\n", &mut stats)
                .expect("seed write");
            let fs = FaultFs::new(seed);
            match write_atomic(&fs, &target, b"new content\n", &mut stats) {
                Ok(()) => assert_eq!(std::fs::read(&target).expect("read"), b"new content\n"),
                Err(_) => {
                    let on_disk = std::fs::read(&target).expect("read");
                    assert!(
                        on_disk == b"old complete content\n" || on_disk == b"new content\n",
                        "seed {seed}: failed overwrite tore the target: {on_disk:?}"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
