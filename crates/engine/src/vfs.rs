//! The filesystem seam of the persistence tier: a small [`Vfs`] trait
//! that [`PersistStore`](crate::PersistStore) performs **all** of its
//! I/O through, with a production passthrough ([`StdVfs`]) and a
//! deterministic fault injector ([`FaultVfs`]).
//!
//! The disk tier is an accelerator that must degrade, never kill: a
//! full disk, a permission flip, a flaky controller or a torn write
//! may cost a recomputation but may not cost a wrong answer or a
//! process. Proving that requires *driving* those failures on demand —
//! which a real filesystem won't do on cue. `FaultVfs` replays a
//! scripted sequence of faults (I/O errors by errno, truncated "torn"
//! writes, added latency) against any operation pattern, turning the
//! corruption suite's ad-hoc `fs::write` tampering into one instance
//! of a general, deterministic harness:
//!
//! ```
//! use fastlive_core::{FunctionLiveness, LivenessChecker};
//! use fastlive_engine::vfs::{Fault, FaultRule, FaultVfs, OpKind};
//! use fastlive_engine::persist::{LoadOutcome, PersistStore};
//! use std::sync::Arc;
//!
//! // Every write fails with ENOSPC; reads are untouched.
//! let vfs = Arc::new(FaultVfs::new(vec![FaultRule::every(
//!     OpKind::Write,
//!     Fault::enospc(),
//! )]));
//! let dir = std::env::temp_dir().join(format!("fastlive-vfs-doc-{}", std::process::id()));
//! let store = PersistStore::with_vfs(&dir, vfs.clone());
//! let f = fastlive_ir::parse_function("function %f { block0(v0): return v0 }")?;
//! let shape = fastlive_engine::CfgShape::of(&f);
//! let live = FunctionLiveness::from_checker(LivenessChecker::compute(&shape.to_graph()));
//! assert!(store.save_artifact(&shape, &live).is_err(), "full disk");
//! let probe = store.load_artifact::<FunctionLiveness>(&shape);
//! assert!(matches!(probe, LoadOutcome::Absent));
//! assert!(vfs.faults_injected() >= 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Scripts are plain data — op-kind filters, skip/count windows,
//! errno-classified faults — so adversarial campaigns compose with the
//! workload generators (`fastlive_workload::faults`) the same way the
//! Barany-style generator composes CFG shapes: seeded, replayable,
//! shrinkable.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

/// Metadata the store actually consumes: byte length and modification
/// time. `modified` is optional because some filesystems cannot report
/// it — callers must have an explicit policy for `None` (the GC treats
/// it as *infinitely old*; see [`PersistStore::gc`](crate::PersistStore::gc)).
#[derive(Clone, Copy, Debug)]
pub struct VfsMetadata {
    /// File length in bytes.
    pub len: u64,
    /// Modification time, when the filesystem can report one.
    pub modified: Option<SystemTime>,
}

/// The filesystem operations the persistence tier needs — nothing
/// more. Every [`PersistStore`](crate::PersistStore) I/O goes through
/// exactly one of these methods, so one implementation swap puts the
/// whole disk tier under scripted fault control.
///
/// Implementations must be `Send + Sync`: one store is probed by many
/// workers concurrently.
pub trait Vfs: Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates or truncates `path` with `bytes`.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` onto `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Deletes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Stats a file.
    fn metadata(&self, path: &Path) -> io::Result<VfsMetadata>;
    /// Lists a directory's entries (full paths, any order).
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Creates a directory and all missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

/// The production [`Vfs`]: a thin passthrough to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdVfs;

impl Vfs for StdVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn metadata(&self, path: &Path) -> io::Result<VfsMetadata> {
        let meta = std::fs::metadata(path)?;
        Ok(VfsMetadata {
            len: meta.len(),
            modified: meta.modified().ok(),
        })
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
}

/// Which [`Vfs`] operation a [`FaultRule`] intercepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// [`Vfs::read`].
    Read,
    /// [`Vfs::write`].
    Write,
    /// [`Vfs::rename`].
    Rename,
    /// [`Vfs::remove_file`].
    Remove,
    /// [`Vfs::metadata`].
    Metadata,
    /// [`Vfs::read_dir`].
    ReadDir,
    /// [`Vfs::create_dir_all`].
    CreateDir,
    /// Matches every operation.
    Any,
}

impl OpKind {
    fn matches(self, op: OpKind) -> bool {
        self == OpKind::Any || self == op
    }
}

/// One scripted fault.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Fail the operation with this OS errno (classified through
    /// `io::Error::from_raw_os_error`, so `ErrorKind` mapping matches
    /// what a real filesystem would produce).
    Errno(i32),
    /// A torn write: persist only the first `n` bytes of the payload,
    /// then report **success** — the lying-disk scenario an atomic
    /// tmp+rename cannot detect at write time. Applies to
    /// [`OpKind::Write`]; on any other operation it behaves like EIO.
    TornWrite(usize),
    /// Sleep for the duration, then perform the operation normally —
    /// a slow disk, not a broken one.
    Delay(Duration),
}

impl Fault {
    /// `ENOSPC` — device full.
    pub fn enospc() -> Self {
        Fault::Errno(28)
    }

    /// `EACCES` — permission denied.
    pub fn eacces() -> Self {
        Fault::Errno(13)
    }

    /// `EIO` — generic I/O error (the flaky-controller errno).
    pub fn eio() -> Self {
        Fault::Errno(5)
    }
}

/// One rule of a fault script: *which* operations it matches and
/// *when* in the matching sequence it fires.
///
/// A rule observes every operation whose kind and path match; it lets
/// the first `skip` of them through, injects its fault into the next
/// `count`, and is inert afterwards. Rules are independent — each
/// keeps its own position in the stream — and the **first** rule whose
/// active window covers an operation supplies the fault.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Operation kind to intercept.
    pub op: OpKind,
    /// When set, only paths whose string form contains this substring
    /// match (scopes a rule to one entry, one extension, one dir).
    pub path_contains: Option<String>,
    /// Matching operations to let through before faulting.
    pub skip: usize,
    /// Matching operations to fault once active (`usize::MAX` ≈
    /// forever).
    pub count: usize,
    /// The fault to inject.
    pub fault: Fault,
    /// Matching operations seen so far (the rule's stream position).
    seen: usize,
}

impl FaultRule {
    /// A rule faulting every matching operation, forever.
    pub fn every(op: OpKind, fault: Fault) -> Self {
        FaultRule {
            op,
            path_contains: None,
            skip: 0,
            count: usize::MAX,
            fault,
            seen: 0,
        }
    }

    /// A rule faulting the matching operations numbered
    /// `skip .. skip + count` (0-based) and nothing else.
    pub fn window(op: OpKind, skip: usize, count: usize, fault: Fault) -> Self {
        FaultRule {
            op,
            path_contains: None,
            skip,
            count,
            fault,
            seen: 0,
        }
    }

    /// Restricts the rule to paths containing `s`.
    pub fn on_paths(mut self, s: impl Into<String>) -> Self {
        self.path_contains = Some(s.into());
        self
    }

    fn matches(&self, op: OpKind, path: &Path) -> bool {
        self.op.matches(op)
            && self
                .path_contains
                .as_ref()
                .is_none_or(|s| path.to_string_lossy().contains(s.as_str()))
    }
}

/// A deterministic fault-injecting [`Vfs`] over [`StdVfs`].
///
/// The script is a list of [`FaultRule`]s evaluated in order per
/// operation; faults are injected *before* the real operation runs
/// (except [`Fault::TornWrite`], which performs a truncated write, and
/// [`Fault::Delay`], which performs the real operation after
/// sleeping). Operation and fault counts are observable for
/// assertions. All bookkeeping is behind one mutex — the injector is
/// freely shared across the engine's worker threads.
pub struct FaultVfs {
    inner: StdVfs,
    rules: Mutex<Vec<FaultRule>>,
    ops: AtomicU64,
    injected: AtomicU64,
}

impl std::fmt::Debug for FaultVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultVfs")
            .field("ops", &self.ops.load(Ordering::Relaxed))
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FaultVfs {
    /// An injector replaying `rules` over the real filesystem.
    pub fn new(rules: Vec<FaultRule>) -> Self {
        FaultVfs {
            inner: StdVfs,
            rules: Mutex::new(rules),
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// An injector with no rules — byte-for-byte [`StdVfs`] behavior
    /// (the happy-path-overhead baseline).
    pub fn healthy() -> Self {
        Self::new(Vec::new())
    }

    /// Replaces the script (counters keep running). Lets a long-lived
    /// test flip a disk from healthy to failing and back without
    /// rebuilding the store.
    pub fn set_rules(&self, rules: Vec<FaultRule>) {
        *lock_recover(&self.rules) = rules;
    }

    /// Total operations intercepted (faulted or passed through).
    pub fn ops_seen(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Total faults injected.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The first active fault for this operation, advancing every
    /// matching rule's stream position.
    fn fault_for(&self, op: OpKind, path: &Path) -> Option<Fault> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let mut rules = lock_recover(&self.rules);
        let mut hit = None;
        for rule in rules.iter_mut() {
            if !rule.matches(op, path) {
                continue;
            }
            let pos = rule.seen;
            rule.seen += 1;
            if hit.is_none() && pos >= rule.skip && pos - rule.skip < rule.count {
                hit = Some(rule.fault.clone());
            }
        }
        if hit.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Applies a non-write fault (torn writes degrade to EIO here).
    fn apply<T>(fault: Fault, run: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        match fault {
            Fault::Errno(errno) => Err(io::Error::from_raw_os_error(errno)),
            Fault::TornWrite(_) => Err(io::Error::from_raw_os_error(5)),
            Fault::Delay(d) => {
                std::thread::sleep(d);
                run()
            }
        }
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.fault_for(OpKind::Read, path) {
            Some(f) => Self::apply(f, || self.inner.read(path)),
            None => self.inner.read(path),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.fault_for(OpKind::Write, path) {
            // The torn write is the one fault that *lies*: it persists
            // a prefix and reports success, so the CRC/structural
            // validation downstream is the only line of defense.
            Some(Fault::TornWrite(n)) => self.inner.write(path, &bytes[..n.min(bytes.len())]),
            Some(f) => Self::apply(f, || self.inner.write(path, bytes)),
            None => self.inner.write(path, bytes),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.fault_for(OpKind::Rename, from) {
            Some(f) => Self::apply(f, || self.inner.rename(from, to)),
            None => self.inner.rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.fault_for(OpKind::Remove, path) {
            Some(f) => Self::apply(f, || self.inner.remove_file(path)),
            None => self.inner.remove_file(path),
        }
    }

    fn metadata(&self, path: &Path) -> io::Result<VfsMetadata> {
        match self.fault_for(OpKind::Metadata, path) {
            Some(f) => Self::apply(f, || self.inner.metadata(path)),
            None => self.inner.metadata(path),
        }
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        match self.fault_for(OpKind::ReadDir, dir) {
            Some(f) => Self::apply(f, || self.inner.read_dir(dir)),
            None => self.inner.read_dir(dir),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        match self.fault_for(OpKind::CreateDir, dir) {
            Some(f) => Self::apply(f, || self.inner.create_dir_all(dir)),
            None => self.inner.create_dir_all(dir),
        }
    }
}

/// A [`Vfs`] decorator that records every operation's latency, payload
/// bytes and success into a
/// [`Recorder`](fastlive_telemetry::Recorder) — how the engine meters
/// its disk tier when telemetry is enabled.
///
/// The wrapper times unconditionally, so the engine installs it only
/// around an *enabled* recorder; a disabled stack keeps the raw `Vfs`
/// and pays nothing. Faults injected by a wrapped [`FaultVfs`] are
/// observable as `errors` in the snapshot — telemetry sees exactly
/// what the persistence tier saw.
pub struct MeteredVfs {
    inner: Arc<dyn Vfs>,
    recorder: Arc<dyn fastlive_telemetry::Recorder>,
}

impl std::fmt::Debug for MeteredVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeteredVfs").finish_non_exhaustive()
    }
}

impl MeteredVfs {
    /// Wraps `inner`, reporting every operation to `recorder`.
    pub fn new(inner: Arc<dyn Vfs>, recorder: Arc<dyn fastlive_telemetry::Recorder>) -> Self {
        MeteredVfs { inner, recorder }
    }

    /// Runs one op, reporting `(latency, bytes, ok)`; `bytes` is what
    /// `size` extracts from a successful result (payload moved).
    fn metered<T>(
        &self,
        op: fastlive_telemetry::VfsOp,
        run: impl FnOnce() -> io::Result<T>,
        size: impl FnOnce(&T) -> u64,
    ) -> io::Result<T> {
        let t0 = std::time::Instant::now();
        let result = run();
        let ns = t0.elapsed().as_nanos() as u64;
        match &result {
            Ok(v) => self.recorder.vfs_op(op, ns, size(v), true),
            Err(_) => self.recorder.vfs_op(op, ns, 0, false),
        }
        result
    }
}

impl Vfs for MeteredVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.metered(
            fastlive_telemetry::VfsOp::Read,
            || self.inner.read(path),
            |bytes| bytes.len() as u64,
        )
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let len = bytes.len() as u64;
        self.metered(
            fastlive_telemetry::VfsOp::Write,
            || self.inner.write(path, bytes),
            |()| len,
        )
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.metered(
            fastlive_telemetry::VfsOp::Rename,
            || self.inner.rename(from, to),
            |()| 0,
        )
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.metered(
            fastlive_telemetry::VfsOp::Remove,
            || self.inner.remove_file(path),
            |()| 0,
        )
    }

    fn metadata(&self, path: &Path) -> io::Result<VfsMetadata> {
        self.metered(
            fastlive_telemetry::VfsOp::Metadata,
            || self.inner.metadata(path),
            |_| 0,
        )
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.metered(
            fastlive_telemetry::VfsOp::ReadDir,
            || self.inner.read_dir(dir),
            |_| 0,
        )
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.metered(
            fastlive_telemetry::VfsOp::CreateDir,
            || self.inner.create_dir_all(dir),
            |()| 0,
        )
    }
}

/// Poison-recovering lock acquisition: a mutex poisoned by a panicking
/// holder still yields its data. Every guarded structure in this crate
/// stays consistent under unwinding (critical sections only move
/// counters or swap whole values), so recovering the lock is always
/// sound — and one crashed worker never wedges the rest of the engine.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fastlive-vfs-{tag}-{}", std::process::id()))
    }

    #[test]
    fn healthy_fault_vfs_is_a_passthrough() {
        let vfs = FaultVfs::healthy();
        let path = tmp_path("pass");
        vfs.write(&path, b"hello").unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        let meta = vfs.metadata(&path).unwrap();
        assert_eq!(meta.len, 5);
        vfs.remove_file(&path).unwrap();
        assert_eq!(vfs.faults_injected(), 0);
        assert_eq!(vfs.ops_seen(), 4);
    }

    #[test]
    fn errno_faults_classify_like_the_real_kernel() {
        let vfs = FaultVfs::new(vec![
            FaultRule::every(OpKind::Write, Fault::enospc()),
            FaultRule::every(OpKind::Read, Fault::eacces()),
            FaultRule::every(OpKind::Metadata, Fault::eio()),
        ]);
        let path = tmp_path("errno");
        assert_eq!(vfs.write(&path, b"x").unwrap_err().raw_os_error(), Some(28));
        assert_eq!(
            vfs.read(&path).unwrap_err().kind(),
            io::ErrorKind::PermissionDenied
        );
        assert_eq!(vfs.metadata(&path).unwrap_err().raw_os_error(), Some(5));
        assert_eq!(vfs.faults_injected(), 3);
    }

    #[test]
    fn windows_skip_then_fire_then_expire() {
        // Ops 0,1 pass; 2,3 fail; 4.. pass again.
        let vfs = FaultVfs::new(vec![FaultRule::window(OpKind::Write, 2, 2, Fault::eio())]);
        let path = tmp_path("window");
        for i in 0..6 {
            let r = vfs.write(&path, b"w");
            if (2..4).contains(&i) {
                assert!(r.is_err(), "op {i} should fault");
            } else {
                assert!(r.is_ok(), "op {i} should pass");
            }
        }
        std::fs::remove_file(&path).ok();
        assert_eq!(vfs.faults_injected(), 2);
    }

    #[test]
    fn path_scoping_leaves_other_files_alone() {
        let vfs = FaultVfs::new(vec![
            FaultRule::every(OpKind::Write, Fault::eio()).on_paths("victim")
        ]);
        let victim = tmp_path("victim");
        let bystander = tmp_path("bystander");
        assert!(vfs.write(&victim, b"x").is_err());
        assert!(vfs.write(&bystander, b"x").is_ok());
        std::fs::remove_file(&bystander).ok();
    }

    #[test]
    fn torn_write_persists_a_prefix_and_reports_success() {
        let vfs = FaultVfs::new(vec![FaultRule::every(OpKind::Write, Fault::TornWrite(3))]);
        let path = tmp_path("torn");
        vfs.write(&path, b"hello world").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hel");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delay_faults_still_complete() {
        let vfs = FaultVfs::new(vec![FaultRule::every(
            OpKind::Write,
            Fault::Delay(Duration::from_millis(5)),
        )]);
        let path = tmp_path("delay");
        let start = std::time::Instant::now();
        vfs.write(&path, b"slow").unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(std::fs::read(&path).unwrap(), b"slow");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn first_active_rule_wins_but_all_rules_advance() {
        let vfs = FaultVfs::new(vec![
            FaultRule::window(OpKind::Write, 0, 1, Fault::enospc()),
            FaultRule::window(OpKind::Any, 0, 2, Fault::eio()),
        ]);
        let path = tmp_path("order");
        // Op 0: both active, first wins → ENOSPC.
        assert_eq!(vfs.write(&path, b"x").unwrap_err().raw_os_error(), Some(28));
        // Op 1: rule 0 expired, rule 1 (already advanced to position 1)
        // still active → EIO.
        assert_eq!(vfs.write(&path, b"x").unwrap_err().raw_os_error(), Some(5));
        // Op 2: both expired.
        assert!(vfs.write(&path, b"x").is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metered_vfs_reports_latency_bytes_and_errors() {
        use fastlive_telemetry::{Telemetry, VfsOp};
        let hub = Arc::new(Telemetry::new());
        let inner = Arc::new(FaultVfs::new(vec![FaultRule::window(
            OpKind::Read,
            1,
            1,
            Fault::eio(),
        )]));
        let vfs = MeteredVfs::new(inner, hub.clone());
        let path = tmp_path("metered");
        vfs.write(&path, b"payload").unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"payload");
        assert!(vfs.read(&path).is_err(), "second read is faulted");
        vfs.remove_file(&path).unwrap();

        let s = hub.snapshot_now();
        let write = &s.vfs_ops[VfsOp::Write as usize];
        assert_eq!((write.latency.count, write.bytes, write.errors), (1, 7, 0));
        let read = &s.vfs_ops[VfsOp::Read as usize];
        assert_eq!(read.latency.count, 2, "both reads timed");
        assert_eq!(read.bytes, 7, "only the successful read moved bytes");
        assert_eq!(read.errors, 1);
        let remove = &s.vfs_ops[VfsOp::Remove as usize];
        assert_eq!((remove.latency.count, remove.errors), (1, 0));
    }

    #[test]
    fn lock_recover_yields_data_after_a_poisoning_panic() {
        use std::sync::Mutex;
        let m = std::sync::Arc::new(Mutex::new(41));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            // Holding the un-unwrapped `LockResult` still holds the
            // guard inside it; panicking here poisons the mutex.
            let _guard = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        assert!(m.is_poisoned());
        *lock_recover(&m) += 1;
        assert_eq!(*lock_recover(&m), 42);
    }
}
