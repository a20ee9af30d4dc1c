//! The on-disk tier of the engine cache: a versioned, checksummed
//! store of analysis artifacts keyed by `(fingerprint, analysis)` —
//! [`CfgShape`] × [`AnalysisKind`].
//!
//! A shape-level precomputation is the expensive part of a sparse
//! analysis and depends on nothing but the CFG shape — so it is worth
//! keeping not just across functions and recompilations (the in-memory
//! fingerprint cache) but across *processes*: a build daemon, a JIT
//! restarting, or parallel compiler invocations over one source tree
//! all re-encounter the same shapes. [`PersistStore`] serializes one
//! artifact body per `(shape, kind)` into one small file under a
//! shared directory; any later engine pointed at the same directory
//! revives them for the price of a read + CRC instead of a
//! recomputation. The bodies are defined by the
//! [`AnalysisArtifact`] trait: liveness
//! persists its `R`/`T` matrices, nullness its dominance-frontier
//! matrix.
//!
//! # Format (version 2, all integers little-endian)
//!
//! ```text
//! offset  size            field
//! 0       4               magic  "FLPC"
//! 4       4               format version (u32, currently 2)
//! 8       4               analysis tag (u32, AnalysisKind::tag)
//! 12      4               reserved, must be zero
//! 16      8               shape hash64 (raw, unsalted)
//! 24      4               k = shape-encoding word count (u32)
//! 28      4·k             shape encoding  (CfgShape::encoding, u32s)
//! ..      ...             per-kind body (AnalysisArtifact::encode_body)
//! last 4  4               CRC-32 (IEEE) over all preceding bytes
//! ```
//!
//! The file *name* is `{hash64 ^ kind.salt():016x}.flpc`, so each kind
//! gets its own entry per shape; the *embedded* hash stays raw, and
//! the embedded tag must match the probing kind — a CRC-valid entry
//! renamed or forged across kinds is rejected, never revived as the
//! other analysis. Liveness keeps salt 0, so files written by the
//! version-1 (liveness-only) format sit at exactly the paths the
//! engine still probes and degrade to `disk_rejects` through the
//! version gate — the bump-once, no-migration policy.
//!
//! # Corruption policy: reject, never trust
//!
//! Decoding is total: every length is bounds-checked, the CRC covers
//! the whole payload, the embedded shape encoding must equal the
//! probing shape byte-for-byte (a hash-collided or renamed file is
//! *someone else's* entry, not this shape's), and the matrix words are
//! revalidated structurally ([`BitMatrix::from_words`] refuses ghost
//! bits above the universe). Any mismatch — truncation, bit flips,
//! zero fill, a future format version — yields a clean miss
//! (`disk_rejects` in [`CacheStats`](crate::CacheStats)) and the entry
//! is recomputed and overwritten. A cache file can cost a
//! recomputation; it can never produce a wrong liveness answer or a
//! panic.
//!
//! Invalid *bytes* and failing *I/O* are distinct outcomes: a reject
//! ([`LoadOutcome::Reject`]) means the disk worked and the file is the
//! problem (overwrite it); an error ([`LoadOutcome::Error`]) means the
//! device is the problem (EACCES, EIO, ENOSPC — counted as
//! `disk_errors`, and repeated errors trip the engine's disk circuit
//! breaker instead of hammering a dead disk). Every I/O goes through
//! the [`Vfs`] seam, so both families are reproducible in tests via
//! [`FaultVfs`](crate::vfs::FaultVfs) fault scripts.
//!
//! Writes go through a unique temporary file followed by an atomic
//! rename, so concurrent processes racing on one shape publish one
//! complete file each — a reader sees either a whole entry or none.
//!
//! The store accretes one file per distinct shape; [`PersistStore::gc`]
//! (also reachable as `AnalysisEngine::gc_persist` and the facade
//! builder's `gc` knob) prunes it by age and entry count. Because any
//! entry is just a cached recomputation, GC needs no coordination with
//! readers or writers — a concurrently deleted entry is simply a
//! `disk_misses` on its next probe.
//!
//! # Why matrices revive exactly (the canonicalization contract)
//!
//! The matrices are indexed by a dominance-preorder numbering derived
//! from a DFS of the CFG, and a DFS depends on successor *order* —
//! which `CfgShape` deliberately erases (successor lists are sorted).
//! The engine therefore always runs the precomputation on the shape's
//! [canonical graph](CfgShape::to_graph), never on a particular
//! function's edge ordering. [`revive`] rebuilds the DFS and dominator
//! trees from that same canonical graph, so the decoded matrices land
//! in exactly the number space they were computed in — in this process
//! or any other.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use fastlive_bitset::BitMatrix;
use fastlive_cfg::{DfsTree, DomTree};
use fastlive_core::{FunctionLiveness, LivenessChecker, Precomputation};

use crate::artifact::{AnalysisArtifact, AnalysisKind};
use crate::fingerprint::CfgShape;
use crate::vfs::{StdVfs, Vfs};

/// First four bytes of every cache file.
pub const MAGIC: [u8; 4] = *b"FLPC";

/// The on-disk format version this build reads and writes. Bumped on
/// **any** layout change; older or newer files are rejected wholesale
/// (a version-crossed file degrades to one recomputation, which is
/// always cheaper than decoding a guess). Version 2 added the
/// per-analysis tag + reserved word after the version field; version-1
/// files degrade to `disk_rejects` per that policy.
pub const FORMAT_VERSION: u32 = 2;

/// File extension of cache entries (`{hash64:016x}.flpc`).
pub const FILE_EXTENSION: &str = "flpc";

/// CRC-32 (IEEE 802.3, reflected, init/xorout `!0`) — hand-rolled
/// because crates.io is unreachable. Slice-by-8: eight bytes per step
/// through eight lookup tables built at compile time, the tail byte by
/// byte through the first.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        // `tables[k][i]`: the CRC of byte `i` followed by `k` zero bytes.
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
                i += 1;
            }
            k += 1;
        }
        tables
    };
    let t = &TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Serializes any artifact (computed over `shape`'s canonical graph)
/// into the version-2 byte format — header with the artifact's
/// analysis tag, trait-encoded body, trailing CRC.
pub fn encode_artifact<A: AnalysisArtifact>(shape: &CfgShape, artifact: &A) -> Vec<u8> {
    let enc = shape.encoding();
    let mut out = Vec::with_capacity(32 + 4 * enc.len() + A::max_body_len(shape) as usize);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&A::KIND.tag().to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    out.extend_from_slice(&shape.hash64().to_le_bytes());
    out.extend_from_slice(&(enc.len() as u32).to_le_bytes());
    for &w in enc {
        out.extend_from_slice(&w.to_le_bytes());
    }
    artifact.encode_body(&mut out);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Appends the liveness body — the `R` and `T` matrices — to `out`.
/// `to_words` strips the in-memory arena padding: the byte format
/// stores exactly `rows * ceil(cols/64)` words per matrix, so the
/// encoding is independent of the arena layout.
pub(crate) fn encode_liveness_body(pre: &Precomputation, out: &mut Vec<u8>) {
    encode_matrix(&pre.r, out);
    encode_matrix(&pre.t, out);
}

/// Appends one matrix: rows, cols, row-major unpadded words.
pub(crate) fn encode_matrix(m: &BitMatrix, out: &mut Vec<u8>) {
    out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    for w in m.to_words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Bounds-checked little-endian cursor; every read can fail, no read
/// can panic. Public so [`AnalysisArtifact::decode_body`]
/// implementations can parse their bodies with the same discipline.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// The next `n` bytes, or `None` past the end.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// `true` once every byte has been consumed — decoders use this to
    /// reject trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Validates the CRC and the version-2 header of `bytes` against
/// `(shape, kind)` and returns a [`Reader`] positioned at the body.
/// `None` on any mismatch — including a CRC-valid entry carrying a
/// different analysis tag, which is *someone else's* artifact.
fn decode_header<'a>(shape: &CfgShape, kind: AnalysisKind, bytes: &'a [u8]) -> Option<Reader<'a>> {
    // CRC first: everything after this point may assume the bytes are
    // the bytes some encoder produced (or an astronomically lucky
    // corruption — which the structural checks below still bound).
    let payload_len = bytes.len().checked_sub(4)?;
    let stored_crc = u32::from_le_bytes(bytes[payload_len..].try_into().expect("4 bytes"));
    if crc32(&bytes[..payload_len]) != stored_crc {
        return None;
    }
    let mut r = Reader {
        buf: &bytes[..payload_len],
        pos: 0,
    };
    if r.take(4)? != MAGIC {
        return None;
    }
    if r.u32()? != FORMAT_VERSION {
        return None;
    }
    // The analysis tag gates *before* any body parsing: a tag-swapped
    // file must never reach the other kind's decoder.
    if AnalysisKind::from_tag(r.u32()?) != Some(kind) {
        return None;
    }
    if r.u32()? != 0 {
        return None; // reserved word
    }
    if r.u64()? != shape.hash64() {
        return None;
    }
    let k = r.u32()? as usize;
    let enc = shape.encoding();
    if k != enc.len() {
        return None;
    }
    for &want in enc {
        if r.u32()? != want {
            return None;
        }
    }
    Some(r)
}

/// Decodes and revives `bytes` as a `(shape, A::KIND)` entry. Returns
/// `None` — never panics, never a partial result — unless every one of
/// these holds: magic, [`FORMAT_VERSION`], analysis tag and reserved
/// word match, the trailing CRC matches the payload, the embedded
/// shape encoding equals `shape`'s exactly, the body passes the
/// artifact's structural validation, and no trailing bytes remain.
pub fn decode_artifact<A: AnalysisArtifact>(shape: &CfgShape, bytes: &[u8]) -> Option<A> {
    let mut r = decode_header(shape, A::KIND, bytes)?;
    let artifact = A::decode_body(shape, &mut r)?;
    if !r.is_exhausted() {
        return None;
    }
    Some(artifact)
}

/// Decodes `bytes` as a liveness entry **for `shape`**, yielding the
/// raw [`Precomputation`] (see [`decode_artifact`] for the fully
/// revived path and the exact validation contract).
pub fn decode(shape: &CfgShape, bytes: &[u8]) -> Option<Precomputation> {
    let mut r = decode_header(shape, AnalysisKind::Liveness, bytes)?;
    let pre = decode_liveness_body(shape, &mut r)?;
    if !r.is_exhausted() {
        return None;
    }
    Some(pre)
}

/// The liveness body: two square, mutually sized matrices bounded by
/// the shape's block count.
pub(crate) fn decode_liveness_body(shape: &CfgShape, r: &mut Reader<'_>) -> Option<Precomputation> {
    let max_dim = shape.num_blocks();
    let r_matrix = decode_matrix(r, max_dim)?;
    let t_matrix = decode_matrix(r, max_dim)?;
    if r_matrix.rows() != t_matrix.rows() {
        return None;
    }
    // `from_parts` re-derives the transposed reachability matrix; it is
    // deterministic in `r`, so the round-trip is still exact equality.
    Some(Precomputation::from_parts(r_matrix, t_matrix))
}

/// One square `rows == cols ≤ max_dim` matrix; dimensions are checked
/// *before* any allocation is sized from them.
pub(crate) fn decode_matrix(r: &mut Reader<'_>, max_dim: usize) -> Option<BitMatrix> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    if rows != cols || rows > max_dim {
        return None;
    }
    let words_per_row = cols.div_ceil(64);
    let total = rows.checked_mul(words_per_row)?;
    let bytes = r.take(total.checked_mul(8)?)?;
    let words = bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
        .collect();
    BitMatrix::from_words(rows, cols, words)
}

/// Rebuilds a queryable [`FunctionLiveness`] around a decoded
/// [`Precomputation`]: DFS and dominator trees are recomputed from the
/// shape's canonical graph (the cheap, near-linear part) and the
/// matrices (the expensive, quadratic part) are adopted as-is.
///
/// Returns `None` if the matrices do not cover exactly the canonical
/// graph's reachable blocks — the final structural gate keeping a
/// CRC-passing-but-wrong file from panicking the checker constructor.
pub fn revive(shape: &CfgShape, pre: Precomputation) -> Option<FunctionLiveness> {
    let g = shape.to_graph();
    let dfs = DfsTree::compute(&g);
    let dom = DomTree::compute(&g, &dfs);
    let n = dom.num_reachable();
    // All matrices (the derived transpose included — the fields are
    // public, so a caller-built value could disagree) must be square
    // over exactly the reachable blocks — `decode` guarantees this for
    // its own output, but `revive` is a public gate and must hold for
    // any caller-supplied value.
    if [
        pre.r.rows(),
        pre.r.cols(),
        pre.t.rows(),
        pre.t.cols(),
        pre.rt.rows(),
        pre.rt.cols(),
    ] != [n; 6]
    {
        return None;
    }
    Some(FunctionLiveness::from_checker(
        LivenessChecker::with_precomputation(&g, dfs, dom, pre),
    ))
}

/// Outcome of one [`PersistStore::gc`] sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Entries still present after the sweep.
    pub retained: usize,
    /// Entries deleted by the sweep.
    pub removed: usize,
}

/// What a [`PersistStore::load_artifact`] probe found.
///
/// `Reject` and `Error` are deliberately distinct outcomes: a reject
/// means the *disk worked* but the bytes were invalid (corruption,
/// version crossing, hash collision — recompute and overwrite, the
/// file is the problem); an error means the *I/O itself failed*
/// (EACCES, EIO, a detached volume — the device is the problem, and
/// repeated errors should trip the engine's disk circuit breaker
/// rather than hammer a dead disk). The engine accounts them as
/// `disk_rejects` vs `disk_errors` in
/// [`CacheStats`](crate::CacheStats).
#[derive(Debug)]
pub enum LoadOutcome<T> {
    /// A valid entry for exactly this `(shape, kind)`.
    Hit(T),
    /// No file for this fingerprint.
    Absent,
    /// A file existed but failed validation (corrupt, truncated,
    /// version-crossed, or a hash-collided entry for a different
    /// shape). The caller recomputes and overwrites.
    Reject,
    /// The probe's I/O failed with something other than "not found" —
    /// the payload is the underlying error. The caller recomputes
    /// (never bubbles the failure into an answer) and feeds the error
    /// to its disk-health tracking.
    Error(std::io::Error),
}

/// The cross-process store: one directory, one file per fingerprint.
///
/// All operations degrade instead of failing: a missing file is
/// [`Absent`](LoadOutcome::Absent), an invalid one is
/// [`Reject`](LoadOutcome::Reject), failing I/O is
/// [`Error`](LoadOutcome::Error) (reported, never bubbled into an
/// answer), and a failed write returns its error without disturbing
/// the computed result (the cache is an accelerator, not a database).
/// See the module docs for format and corruption policy.
///
/// # Examples
///
/// ```
/// use fastlive_core::{FunctionLiveness, LivenessChecker};
/// use fastlive_engine::persist::{LoadOutcome, PersistStore};
/// use fastlive_engine::CfgShape;
/// use fastlive_ir::parse_function;
///
/// let dir = std::env::temp_dir().join(format!("fastlive-doc-{}", std::process::id()));
/// let store = PersistStore::new(&dir);
/// let f = parse_function("function %f { block0(v0): jump block1 block1: return v0 }")?;
/// let shape = CfgShape::of(&f);
/// let probe = || store.load_artifact::<FunctionLiveness>(&shape);
/// assert!(matches!(probe(), LoadOutcome::Absent));
///
/// let checker = LivenessChecker::compute(&shape.to_graph());
/// store.save_artifact(&shape, &FunctionLiveness::from_checker(checker))?;
/// assert!(matches!(probe(), LoadOutcome::Hit(_)));
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PersistStore {
    dir: PathBuf,
    /// The filesystem seam: every I/O of the store goes through this
    /// handle, so tests swap in a [`FaultVfs`](crate::vfs::FaultVfs)
    /// and script ENOSPC storms or torn writes deterministically.
    vfs: Arc<dyn Vfs>,
}

/// Distinguishes concurrent writers' temp files within one process;
/// the pid distinguishes processes.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// `true` iff `name` matches the store's own temp-file pattern,
/// `{16 hex}.tmp.{digits}.{digits}` — the sweep must never touch
/// anything else living in a shared directory.
fn is_own_tmp_name(name: &str) -> bool {
    let Some(rest) = name
        .get(..16)
        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
        .and_then(|_| name[16..].strip_prefix(".tmp."))
    else {
        return false;
    };
    match rest.split_once('.') {
        Some((pid, counter)) => {
            !pid.is_empty()
                && !counter.is_empty()
                && pid.bytes().all(|b| b.is_ascii_digit())
                && counter.bytes().all(|b| b.is_ascii_digit())
        }
        None => false,
    }
}

/// `true` iff `name` matches the store's entry pattern,
/// `{16 hex}.flpc` — GC must never touch unrelated files living in a
/// shared `persist_dir`.
fn is_entry_name(name: &str) -> bool {
    name.len() == 16 + 1 + FILE_EXTENSION.len()
        && name.as_bytes()[16] == b'.'
        && name[..16].bytes().all(|b| b.is_ascii_hexdigit())
        && name[17..] == *FILE_EXTENSION
}

impl PersistStore {
    /// Opens (creating if needed, best-effort) a store rooted at `dir`
    /// on the real filesystem and sweeps temp files orphaned by
    /// crashed writers.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_vfs(dir, Arc::new(StdVfs))
    }

    /// Like [`new`](Self::new), but every I/O goes through `vfs` — the
    /// fault-injection seam (see [`vfs`](crate::vfs)).
    pub fn with_vfs(dir: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> Self {
        let dir = dir.into();
        let _ = vfs.create_dir_all(&dir);
        Self::sweep_stale_tmp(&dir, vfs.as_ref());
        PersistStore { dir, vfs }
    }

    /// Deletes temp files old enough that their writer is surely gone
    /// (a process killed between write and rename leaks its temp file;
    /// nothing else ever removes them). Only files matching this
    /// store's own temp-name pattern are touched — `persist_dir` may
    /// be a shared directory with unrelated contents. The age floor
    /// keeps a concurrent, still-live writer's file safe; everything
    /// is best-effort — a failed sweep costs disk space, never
    /// correctness.
    fn sweep_stale_tmp(dir: &Path, vfs: &dyn Vfs) {
        const STALE_AFTER: std::time::Duration = std::time::Duration::from_secs(600);
        let Ok(entries) = vfs.read_dir(dir) else {
            return;
        };
        for path in entries {
            let Some(name) = path.file_name() else {
                continue;
            };
            if !is_own_tmp_name(&name.to_string_lossy()) {
                continue;
            }
            let stale = vfs
                .metadata(&path)
                .ok()
                .and_then(|m| m.modified)
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age > STALE_AFTER);
            if stale {
                let _ = vfs.remove_file(&path);
            }
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a given `(shape, kind)` persists to: the shape hash
    /// XOR the kind's salt, hex, plus the common extension. Distinct
    /// kinds of one shape are distinct files, so GC, the tmp sweep and
    /// the entry-name pattern need no per-kind cases.
    pub fn entry_path_for(&self, shape: &CfgShape, kind: AnalysisKind) -> PathBuf {
        self.dir.join(format!(
            "{:016x}.{FILE_EXTENSION}",
            shape.hash64() ^ kind.salt()
        ))
    }

    /// Probes the store for `shape`'s `A::KIND` artifact, fully
    /// revived. Every failure mode is classified (see
    /// [`LoadOutcome`]): missing file → `Absent`, invalid bytes →
    /// `Reject`, failing I/O → `Error` — the caller always gets an
    /// answer it can degrade on, never a panic.
    pub fn load_artifact<A: AnalysisArtifact>(&self, shape: &CfgShape) -> LoadOutcome<A> {
        self.probe(shape, A::KIND, |bytes| decode_artifact::<A>(shape, bytes))
    }

    /// The shared probe skeleton: size gate on metadata, read, decode.
    fn probe<T>(
        &self,
        shape: &CfgShape,
        kind: AnalysisKind,
        decode_fn: impl FnOnce(&[u8]) -> Option<T>,
    ) -> LoadOutcome<T> {
        let path = self.entry_path_for(shape, kind);
        // Cheap size gate before reading: a valid entry for this
        // `(shape, kind)` can never exceed `max_entry_len` (body sizes
        // are bounded by the block count), so an absurdly large file —
        // filesystem corruption, a zero-extended blob — is rejected on
        // metadata alone instead of being slurped and CRC-scanned.
        match self.vfs.metadata(&path) {
            Ok(meta) if meta.len > Self::max_entry_len(shape, kind) => return LoadOutcome::Reject,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Absent,
            // A failing stat is the disk's fault, not the file's:
            // classify as an I/O error so the breaker sees it.
            Err(e) => return LoadOutcome::Error(e),
        }
        let bytes = match self.vfs.read(&path) {
            Ok(bytes) => bytes,
            // Deleted between stat and read (a racing GC): clean miss.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Absent,
            Err(e) => return LoadOutcome::Error(e),
        };
        match decode_fn(&bytes) {
            Some(value) => LoadOutcome::Hit(value),
            None => LoadOutcome::Reject,
        }
    }

    /// Upper bound on a valid entry's byte length for `(shape, kind)`:
    /// header and encoding are fixed, the body bound comes from the
    /// artifact trait.
    fn max_entry_len(shape: &CfgShape, kind: AnalysisKind) -> u64 {
        let body = match kind {
            AnalysisKind::Liveness => <FunctionLiveness as AnalysisArtifact>::max_body_len(shape),
            AnalysisKind::Nullness => {
                <fastlive_core::NullnessArtifact as AnalysisArtifact>::max_body_len(shape)
            }
        };
        32 + 4 * shape.encoding().len() as u64 + body + 4
    }

    /// Writes (or overwrites) `shape`'s `A::KIND` entry atomically:
    /// encode to a unique temp file, then rename into place. On any
    /// I/O failure the temp file is removed (best-effort), no partial
    /// entry is left behind, and the underlying error is returned —
    /// the caller keeps its freshly computed result either way (a
    /// failed write-through **never** invalidates a successful
    /// computation; it only feeds disk-health accounting).
    pub fn save_artifact<A: AnalysisArtifact>(
        &self,
        shape: &CfgShape,
        artifact: &A,
    ) -> Result<(), std::io::Error> {
        self.publish(shape, A::KIND, encode_artifact(shape, artifact))
    }

    /// The shared write-temp-then-rename skeleton.
    fn publish(
        &self,
        shape: &CfgShape,
        kind: AnalysisKind,
        bytes: Vec<u8>,
    ) -> Result<(), std::io::Error> {
        let final_path = self.entry_path_for(shape, kind);
        let tmp_path = self.dir.join(format!(
            "{:016x}.tmp.{}.{}",
            shape.hash64() ^ kind.salt(),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        if let Err(e) = self.vfs.write(&tmp_path, &bytes) {
            let _ = self.vfs.remove_file(&tmp_path);
            return Err(e);
        }
        if let Err(e) = self.vfs.rename(&tmp_path, &final_path) {
            let _ = self.vfs.remove_file(&tmp_path);
            return Err(e);
        }
        Ok(())
    }

    /// Evicts cache entries: everything older than `max_age` (when
    /// given) is deleted first, then the oldest survivors until at
    /// most `max_entries` remain. Age and rank are read from file
    /// modification times — a write-through refreshes an entry's
    /// stamp, so "oldest" approximates "least recently recomputed".
    ///
    /// **Unreadable-mtime policy**: an entry whose modification time
    /// cannot be stat'd (`mtime = None`) is treated as *infinitely
    /// old* — it is expired by **any** `max_age` and sorts first under
    /// entry pressure. A file whose metadata cannot even be read is
    /// the least trustworthy thing in the store, and evicting it errs
    /// toward recomputation — the always-safe direction.
    ///
    /// Deleting **any** entry is always safe: the next probe of that
    /// shape degrades to one clean `disk_misses` recomputation whose
    /// write-through restores the file — GC can cost work, never
    /// correctness. Only files matching the store's own
    /// `{16 hex}.flpc` entry pattern are considered; everything else
    /// in a shared directory survives, and every deletion is
    /// best-effort (an undeletable entry is counted as retained).
    pub fn gc(&self, max_entries: usize, max_age: Option<std::time::Duration>) -> GcStats {
        let Ok(entries) = self.vfs.read_dir(&self.dir) else {
            return GcStats::default();
        };
        let mut removed = 0usize;
        // `None` mtime = infinitely old; `Option<SystemTime>` orders
        // `None` before every `Some`, so the default sort already puts
        // unreadable entries first in the eviction queue.
        let mut kept: Vec<(PathBuf, Option<SystemTime>)> = Vec::new();
        for path in entries {
            let Some(name) = path.file_name() else {
                continue;
            };
            if !is_entry_name(&name.to_string_lossy()) {
                continue;
            }
            let mtime = self.vfs.metadata(&path).ok().and_then(|m| m.modified);
            let expired = max_age.is_some_and(|age| match mtime {
                // Infinitely old: expired under any age bound.
                None => true,
                Some(t) => t.elapsed().map(|elapsed| elapsed > age).unwrap_or(false),
            });
            if expired && self.vfs.remove_file(&path).is_ok() {
                removed += 1;
            } else {
                kept.push((path, mtime));
            }
        }
        kept.sort_by_key(|&(_, mtime)| mtime);
        let excess = kept.len().saturating_sub(max_entries);
        let mut retained = kept.len() - excess;
        for (path, _) in kept.into_iter().take(excess) {
            if self.vfs.remove_file(&path).is_ok() {
                removed += 1;
            } else {
                retained += 1;
            }
        }
        GcStats { retained, removed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_ir::parse_function;

    fn shape_and_live(src: &str) -> (CfgShape, FunctionLiveness) {
        let f = parse_function(src).expect("parses");
        let shape = CfgShape::of(&f);
        let live = <FunctionLiveness as AnalysisArtifact>::compute(&shape);
        (shape, live)
    }

    fn shape_and_pre(src: &str) -> (CfgShape, Precomputation) {
        let (shape, live) = shape_and_live(src);
        (shape, live.checker().precomputation().clone())
    }

    fn load(store: &PersistStore, shape: &CfgShape) -> LoadOutcome<FunctionLiveness> {
        store.load_artifact(shape)
    }

    const LOOP_SRC: &str = "function %f { block0(v0):
        jump block1
    block1:
        brif v0, block1, block2
    block2:
        return v0 }";

    #[test]
    fn gc_entry_pattern_matches_only_entries() {
        assert!(is_entry_name("00ff00ff00ff00ff.flpc"));
        assert!(is_entry_name("abcdefABCDEF0123.flpc"));
        assert!(!is_entry_name("00ff00ff00ff00ff.tmp.12.3"));
        assert!(!is_entry_name("notes.flpc"));
        assert!(!is_entry_name("00ff00ff00ff00ff.flpcx"));
        assert!(!is_entry_name("zzff00ff00ff00ff.flpc"));
        assert!(!is_entry_name("00ff00ff00ff00ff"));
    }

    #[test]
    fn gc_prunes_to_the_entry_bound_oldest_first() {
        let dir = std::env::temp_dir().join(format!(
            "fastlive-persist-gc-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let store = PersistStore::new(&dir);
        let sources = [
            LOOP_SRC,
            "function %g { block0: return }",
            "function %h { block0(v0): jump block1 block1: return v0 }",
        ];
        let mut shapes = Vec::new();
        for (i, src) in sources.iter().enumerate() {
            let (shape, live) = shape_and_live(src);
            assert!(store.save_artifact(&shape, &live).is_ok());
            // Space the mtimes out so "oldest" is deterministic even on
            // coarse-grained filesystems.
            let t = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000 + i as u64);
            let f = std::fs::File::options()
                .append(true)
                .open(store.entry_path_for(&shape, AnalysisKind::Liveness))
                .unwrap();
            f.set_modified(t).unwrap();
            shapes.push(shape);
        }
        // An unrelated file in the shared directory must survive GC.
        let bystander = dir.join("notes.txt");
        std::fs::write(&bystander, b"keep me").unwrap();

        let stats = store.gc(2, None);
        assert_eq!(
            stats,
            GcStats {
                retained: 2,
                removed: 1
            }
        );
        // The oldest entry (index 0) went; the newer two survive.
        assert!(matches!(load(&store, &shapes[0]), LoadOutcome::Absent));
        assert!(matches!(load(&store, &shapes[1]), LoadOutcome::Hit(_)));
        assert!(matches!(load(&store, &shapes[2]), LoadOutcome::Hit(_)));
        assert!(bystander.exists());

        // Age-based expiry: everything is decades past a zero max-age.
        let stats = store.gc(usize::MAX, Some(std::time::Duration::ZERO));
        assert_eq!(
            stats,
            GcStats {
                retained: 0,
                removed: 2
            }
        );
        assert!(matches!(load(&store, &shapes[1]), LoadOutcome::Absent));
        assert!(bystander.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_sweep_pattern_matches_only_own_files() {
        assert!(is_own_tmp_name("00ff00ff00ff00ff.tmp.1234.0"));
        assert!(is_own_tmp_name("abcdefABCDEF0123.tmp.9.42"));
        // Unrelated files sharing a shared persist_dir must survive.
        assert!(!is_own_tmp_name("notes.tmp.bak"));
        assert!(!is_own_tmp_name("data.tmp.1"));
        assert!(!is_own_tmp_name("00ff00ff00ff00ff.flpc"));
        assert!(!is_own_tmp_name("00ff00ff00ff00ff.tmp."));
        assert!(!is_own_tmp_name("00ff00ff00ff00ff.tmp.12x.3"));
        assert!(!is_own_tmp_name("zzff00ff00ff00ff.tmp.12.3"));
        assert!(!is_own_tmp_name("short.tmp.1.2"));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// CRC-32 one byte at a time, bit by bit and without tables: the
    /// reference the slice-by-8 loop must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_slice_by_8_matches_the_bytewise_reference() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let buf: Vec<u8> = (0..9000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        // Every length through eight full chunks, at every start offset
        // within a chunk, then multi-KB buffers with ragged tails.
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
        for len in [1024, 2049, 4093, 8191, 9000] {
            let bytes = &buf[9000 - len..];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len}");
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let (shape, live) = shape_and_live(LOOP_SRC);
        let bytes = encode_artifact(&shape, &live);
        let back = decode(&shape, &bytes).expect("own encoding decodes");
        assert_eq!(&back, live.checker().precomputation());
    }

    #[test]
    fn decode_rejects_other_shapes_entries() {
        let (shape, live) = shape_and_live(LOOP_SRC);
        let (other, _) = shape_and_live("function %g { block0: return }");
        let bytes = encode_artifact(&shape, &live);
        // A different probing shape must see a reject, not a wrong hit
        // — this is the hash-collision safety net.
        assert!(decode(&other, &bytes).is_none());
    }

    #[test]
    fn store_round_trips_and_overwrites() {
        let dir = std::env::temp_dir().join(format!(
            "fastlive-persist-unit-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let store = PersistStore::new(&dir);
        let (shape, live) = shape_and_live(LOOP_SRC);
        assert!(matches!(load(&store, &shape), LoadOutcome::Absent));
        assert!(store.save_artifact(&shape, &live).is_ok());
        match load(&store, &shape) {
            LoadOutcome::Hit(back) => assert_eq!(
                back.checker().precomputation(),
                live.checker().precomputation()
            ),
            other => panic!("expected hit, got {other:?}"),
        }
        // Corrupt the file in place: load degrades to Reject; saving
        // again repairs it.
        std::fs::write(
            store.entry_path_for(&shape, AnalysisKind::Liveness),
            b"garbage",
        )
        .unwrap();
        assert!(matches!(load(&store, &shape), LoadOutcome::Reject));
        assert!(store.save_artifact(&shape, &live).is_ok());
        assert!(matches!(load(&store, &shape), LoadOutcome::Hit(_)));
        // An absurdly oversized file is rejected on metadata alone
        // (the size gate — no multi-gigabyte slurp before validation).
        let valid = std::fs::read(store.entry_path_for(&shape, AnalysisKind::Liveness)).unwrap();
        let mut huge = valid.clone();
        huge.resize(valid.len() + 4096, 0);
        std::fs::write(store.entry_path_for(&shape, AnalysisKind::Liveness), &huge).unwrap();
        assert!(matches!(load(&store, &shape), LoadOutcome::Reject));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_classifies_io_failures_as_errors_not_rejects() {
        use crate::vfs::{Fault, FaultRule, FaultVfs, OpKind};
        let dir = std::env::temp_dir().join(format!(
            "fastlive-persist-err-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let fv = Arc::new(FaultVfs::healthy());
        let store = PersistStore::with_vfs(&dir, fv.clone());
        let (shape, live) = shape_and_live(LOOP_SRC);
        assert!(store.save_artifact(&shape, &live).is_ok());

        // A failing stat is an Error (the device's fault), not Reject.
        fv.set_rules(vec![FaultRule::every(OpKind::Metadata, Fault::eacces())]);
        match load(&store, &shape) {
            LoadOutcome::Error(e) => assert_eq!(e.raw_os_error(), Some(13)),
            other => panic!("expected Error(EACCES), got {other:?}"),
        }

        // A failing read (after a clean stat) likewise.
        fv.set_rules(vec![FaultRule::every(OpKind::Read, Fault::eio())]);
        match load(&store, &shape) {
            LoadOutcome::Error(e) => assert_eq!(e.raw_os_error(), Some(5)),
            other => panic!("expected Error(EIO), got {other:?}"),
        }

        // Faults cleared: the entry was never harmed.
        fv.set_rules(Vec::new());
        assert!(matches!(load(&store, &shape), LoadOutcome::Hit(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_failure_leaves_no_partial_entry() {
        use crate::vfs::{Fault, FaultRule, FaultVfs, OpKind};
        let dir = std::env::temp_dir().join(format!(
            "fastlive-persist-enospc-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let fv = Arc::new(FaultVfs::healthy());
        let store = PersistStore::with_vfs(&dir, fv.clone());
        let (shape, live) = shape_and_live(LOOP_SRC);

        // ENOSPC on the tmp write: error surfaces, nothing published.
        fv.set_rules(vec![FaultRule::every(OpKind::Write, Fault::enospc())]);
        let err = store
            .save_artifact(&shape, &live)
            .expect_err("write faulted");
        assert_eq!(err.raw_os_error(), Some(28));
        fv.set_rules(Vec::new());
        assert!(matches!(load(&store, &shape), LoadOutcome::Absent));

        // EIO on the rename: tmp cleaned up best-effort, still absent.
        fv.set_rules(vec![FaultRule::every(OpKind::Rename, Fault::eio())]);
        assert!(store.save_artifact(&shape, &live).is_err());
        fv.set_rules(Vec::new());
        assert!(matches!(load(&store, &shape), LoadOutcome::Absent));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .map(|rd| rd.flatten().map(|e| e.file_name()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");

        // Disk healed: the same save now lands.
        assert!(store.save_artifact(&shape, &live).is_ok());
        assert!(matches!(load(&store, &shape), LoadOutcome::Hit(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_treats_unreadable_mtime_as_infinitely_old() {
        use crate::vfs::{Fault, FaultRule, FaultVfs, OpKind};
        let dir = std::env::temp_dir().join(format!(
            "fastlive-persist-gcmtime-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let fv = Arc::new(FaultVfs::healthy());
        let store = PersistStore::with_vfs(&dir, fv.clone());
        let (shape_a, live_a) = shape_and_live(LOOP_SRC);
        let (shape_b, live_b) = shape_and_live("function %g { block0: return }");
        assert!(store.save_artifact(&shape_a, &live_a).is_ok());
        assert!(store.save_artifact(&shape_b, &live_b).is_ok());
        let a_name = format!("{:016x}", shape_a.hash64());

        // Make `a`'s mtime unreadable: under entry pressure it must be
        // the *first* evicted even though it is not actually older.
        fv.set_rules(vec![
            FaultRule::every(OpKind::Metadata, Fault::eio()).on_paths(&a_name)
        ]);
        let stats = store.gc(1, None);
        assert_eq!(
            stats,
            GcStats {
                retained: 1,
                removed: 1
            }
        );
        fv.set_rules(Vec::new());
        assert!(matches!(load(&store, &shape_a), LoadOutcome::Absent));
        assert!(matches!(load(&store, &shape_b), LoadOutcome::Hit(_)));

        // And under an age bound, unreadable = expired by *any* age —
        // even one generous enough to keep every readable entry.
        assert!(store.save_artifact(&shape_a, &live_a).is_ok());
        fv.set_rules(vec![
            FaultRule::every(OpKind::Metadata, Fault::eio()).on_paths(&a_name)
        ]);
        let stats = store.gc(usize::MAX, Some(std::time::Duration::from_secs(3600)));
        assert_eq!(
            stats,
            GcStats {
                retained: 1,
                removed: 1
            }
        );
        fv.set_rules(Vec::new());
        assert!(matches!(load(&store, &shape_a), LoadOutcome::Absent));
        assert!(matches!(load(&store, &shape_b), LoadOutcome::Hit(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn revive_answers_like_a_fresh_checker() {
        let f = parse_function(LOOP_SRC).expect("parses");
        let shape = CfgShape::of(&f);
        let canonical = <FunctionLiveness as AnalysisArtifact>::compute(&shape);
        let bytes = encode_artifact(&shape, &canonical);
        let revived =
            revive(&shape, decode(&shape, &bytes).expect("decodes")).expect("dimensions match");
        let fresh = FunctionLiveness::compute(&f);
        for v in f.values() {
            for b in f.blocks() {
                assert_eq!(
                    revived.is_live_in(&f, v, b),
                    fresh.is_live_in(&f, v, b),
                    "{v} live-in at {b}"
                );
                assert_eq!(
                    revived.is_live_out(&f, v, b),
                    fresh.is_live_out(&f, v, b),
                    "{v} live-out at {b}"
                );
            }
        }
    }

    #[test]
    fn artifact_round_trips_per_kind_with_salted_paths() {
        use fastlive_core::NullnessArtifact;
        let f = parse_function(LOOP_SRC).expect("parses");
        let shape = CfgShape::of(&f);
        let null = <NullnessArtifact as AnalysisArtifact>::compute(&shape);
        let bytes = encode_artifact(&shape, &null);
        let back: NullnessArtifact = decode_artifact(&shape, &bytes).expect("own encoding decodes");
        assert_eq!(back.df(), null.df(), "frontier matrix round-trips");

        // Through the store: each kind owns its salted path, and the
        // two entries for one shape coexist in one directory.
        let dir = std::env::temp_dir().join(format!(
            "fastlive-persist-kinds-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let store = PersistStore::new(&dir);
        let (_, live) = shape_and_live(LOOP_SRC);
        assert!(store.save_artifact(&shape, &live).is_ok());
        assert!(store.save_artifact(&shape, &null).is_ok());
        assert_ne!(
            store.entry_path_for(&shape, AnalysisKind::Liveness),
            store.entry_path_for(&shape, AnalysisKind::Nullness),
        );
        assert!(matches!(load(&store, &shape), LoadOutcome::Hit(_)));
        match store.load_artifact::<NullnessArtifact>(&shape) {
            LoadOutcome::Hit(got) => assert_eq!(got.df(), null.df()),
            other => panic!("expected nullness hit, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_rejects_the_wrong_analysis_tag() {
        use fastlive_core::NullnessArtifact;
        let (shape, live) = shape_and_live(LOOP_SRC);
        let null = <NullnessArtifact as AnalysisArtifact>::compute(&shape);
        let live_bytes = encode_artifact(&shape, &live);
        let null_bytes = encode_artifact(&shape, &null);
        // Each kind's decoder refuses the other kind's (CRC-valid)
        // bytes at the tag gate — before any body parsing.
        assert!(decode_artifact::<NullnessArtifact>(&shape, &live_bytes).is_none());
        assert!(decode(&shape, &null_bytes).is_none());
        assert!(decode_artifact::<FunctionLiveness>(&shape, &null_bytes).is_none());
    }

    #[test]
    fn revive_rejects_dimension_mismatches() {
        let (shape, pre) = shape_and_pre(LOOP_SRC);
        let (_, small) = shape_and_pre("function %g { block0: return }");
        assert!(revive(&shape, small.clone()).is_none());
        // Mixed dimensions (valid R, undersized T and vice versa) are
        // gated too — `revive` must hold for any caller-built value,
        // not just `decode` output.
        assert!(revive(
            &shape,
            Precomputation::from_parts(pre.r.clone(), small.t.clone())
        )
        .is_none());
        assert!(revive(&shape, Precomputation::from_parts(small.r, pre.t.clone())).is_none());
        // A hand-built value with a wrong-shaped derived transpose is
        // rejected too.
        let mut skewed = pre.clone();
        skewed.rt = small.t;
        assert!(revive(&shape, skewed).is_none());
        assert!(revive(&shape, pre).is_some());
    }
}
