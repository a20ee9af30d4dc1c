//! The generic analysis-artifact layer: what the engine caches,
//! dedups, persists and revives — per `(fingerprint, analysis)` key.
//!
//! The engine started life as a liveness cache; the paper's
//! precomputation is just one instance of a shape-level artifact in
//! the parameterized sparse-dataflow construction (Tavares et al.).
//! This module is the seam that makes the rest of the machinery
//! analysis-agnostic:
//!
//! * [`AnalysisKind`] — the closed set of analyses the engine serves.
//!   Each kind owns a **tag** (embedded in every persisted entry next
//!   to `FORMAT_VERSION`, so a CRC-valid file can never revive as the
//!   wrong analysis) and a **filename salt** (XORed into the shape
//!   hash for the entry's file name, so kinds never collide in one
//!   persist directory).
//! * [`AnalysisArtifact`] — the trait an analysis implements to ride
//!   the engine: compute over the canonical graph, encode the
//!   expensive body, decode + revive (rebuild derived structures,
//!   validate against the graph — `None` degrades to a `disk_rejects`
//!   recomputation).
//! * [`ArtifactHandle`] — the dynamically-typed `Arc` the cache and
//!   in-flight slots store.
//!
//! Adding an analysis means: implement the trait, add a variant +
//! tag/salt here, and expose queries through the facade. The cache,
//! dedup, breaker, quarantine, persist codec, GC and telemetry tiers
//! all come for free.

use std::sync::Arc;

use fastlive_core::{FunctionLiveness, LivenessChecker, NullnessArtifact};

use crate::fingerprint::CfgShape;
use crate::persist::{self, Reader};

/// The analyses the engine can cache and persist. Every cache, dedup
/// and quarantine key in the engine is a `(CfgShape, AnalysisKind)`
/// pair.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AnalysisKind {
    /// The CGO 2008 liveness precomputation (`R`/`T` matrices).
    Liveness,
    /// Dominance-based nullness / definite-initialization (dominance
    /// frontier matrix).
    Nullness,
}

impl AnalysisKind {
    /// Every kind, in tag order.
    pub const ALL: [AnalysisKind; 2] = [AnalysisKind::Liveness, AnalysisKind::Nullness];

    /// The on-disk tag embedded in every persisted entry. Tags are
    /// never reused or renumbered — per the format-version policy, a
    /// layout change bumps `FORMAT_VERSION` instead.
    pub fn tag(self) -> u32 {
        match self {
            AnalysisKind::Liveness => 1,
            AnalysisKind::Nullness => 2,
        }
    }

    /// Inverse of [`tag`](Self::tag); `None` for unknown tags (a
    /// future kind or a corrupt file — reject either way).
    pub fn from_tag(tag: u32) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// XORed into the shape hash to form the entry **file name**, so
    /// each kind gets its own file per shape. Liveness keeps salt 0:
    /// pre-generalization (version-1) liveness files sit at exactly
    /// the paths the engine still probes, where the bumped
    /// `FORMAT_VERSION` rejects them into one clean `disk_rejects`
    /// recomputation each — degradation, not migration.
    pub fn salt(self) -> u64 {
        match self {
            AnalysisKind::Liveness => 0,
            AnalysisKind::Nullness => 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Stable snake_case label (telemetry, bench output).
    pub fn name(self) -> &'static str {
        match self {
            AnalysisKind::Liveness => "liveness",
            AnalysisKind::Nullness => "nullness",
        }
    }
}

impl std::fmt::Display for AnalysisKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An analysis artifact the engine can serve: computable from the
/// canonical graph, persistable, revivable. Implementations must be
/// cheap to share (`Arc`) and safe to revive from hostile bytes —
/// `decode_body` returning `Some` is a promise that every later query
/// on the artifact is panic-free.
pub trait AnalysisArtifact: Send + Sync + Sized + 'static {
    /// The kind this artifact type serves.
    const KIND: AnalysisKind;

    /// Computes the artifact from scratch over `shape`'s canonical
    /// graph. This is the expensive path every cache tier exists to
    /// avoid.
    fn compute(shape: &CfgShape) -> Self;

    /// Appends the persistable body (the expensive, shape-derived
    /// part) to `out`. Derived structures that are cheap to rebuild
    /// (dominator trees, transposes) are **not** encoded — revive
    /// recomputes them, which keeps files small and the format stable.
    fn encode_body(&self, out: &mut Vec<u8>);

    /// Decodes a body and revives the artifact against `shape`'s
    /// canonical graph, validating every dimension. `None` means the
    /// bytes do not describe this shape's artifact — the store
    /// classifies that as a reject and the engine recomputes.
    fn decode_body(shape: &CfgShape, r: &mut Reader<'_>) -> Option<Self>;

    /// Upper bound on [`encode_body`](Self::encode_body)'s output
    /// length for `shape` — the store's pre-read size gate.
    fn max_body_len(shape: &CfgShape) -> u64;

    /// Wraps a shared artifact into the engine's dynamic handle.
    fn into_handle(this: Arc<Self>) -> ArtifactHandle;

    /// Recovers the typed artifact from a handle; `None` when the
    /// handle holds a different kind.
    fn from_handle(handle: &ArtifactHandle) -> Option<&Arc<Self>>;
}

/// The dynamically-typed artifact the cache, in-flight slots and
/// session entries store.
#[derive(Clone)]
pub enum ArtifactHandle {
    /// A revived or computed liveness checker.
    Liveness(Arc<FunctionLiveness>),
    /// A revived or computed nullness artifact.
    Nullness(Arc<NullnessArtifact>),
}

impl ArtifactHandle {
    /// The kind stored in this handle.
    pub fn kind(&self) -> AnalysisKind {
        match self {
            ArtifactHandle::Liveness(_) => AnalysisKind::Liveness,
            ArtifactHandle::Nullness(_) => AnalysisKind::Nullness,
        }
    }

    /// The liveness payload, if that is what this handle holds.
    pub fn as_liveness(&self) -> Option<&Arc<FunctionLiveness>> {
        match self {
            ArtifactHandle::Liveness(live) => Some(live),
            _ => None,
        }
    }

    /// The nullness payload, if that is what this handle holds.
    pub fn as_nullness(&self) -> Option<&Arc<NullnessArtifact>> {
        match self {
            ArtifactHandle::Nullness(art) => Some(art),
            _ => None,
        }
    }

    /// Approximate heap footprint, for cache accounting / diagnostics.
    pub fn heap_bytes(&self) -> usize {
        match self {
            ArtifactHandle::Liveness(live) => {
                let pre = live.checker().precomputation();
                pre.r.heap_bytes() + pre.t.heap_bytes() + pre.rt.heap_bytes()
            }
            ArtifactHandle::Nullness(art) => art.df().heap_bytes(),
        }
    }
}

impl std::fmt::Debug for ArtifactHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ArtifactHandle::{}", self.kind())
    }
}

impl AnalysisArtifact for FunctionLiveness {
    const KIND: AnalysisKind = AnalysisKind::Liveness;

    fn compute(shape: &CfgShape) -> Self {
        FunctionLiveness::from_checker(LivenessChecker::compute(&shape.to_graph()))
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        persist::encode_liveness_body(self.checker().precomputation(), out);
    }

    fn decode_body(shape: &CfgShape, r: &mut Reader<'_>) -> Option<Self> {
        let pre = persist::decode_liveness_body(shape, r)?;
        persist::revive(shape, pre)
    }

    fn max_body_len(shape: &CfgShape) -> u64 {
        let n = shape.num_blocks() as u64;
        2 * (8 + 8 * n * n.div_ceil(64))
    }

    fn into_handle(this: Arc<Self>) -> ArtifactHandle {
        ArtifactHandle::Liveness(this)
    }

    fn from_handle(handle: &ArtifactHandle) -> Option<&Arc<Self>> {
        handle.as_liveness()
    }
}

impl AnalysisArtifact for NullnessArtifact {
    const KIND: AnalysisKind = AnalysisKind::Nullness;

    fn compute(shape: &CfgShape) -> Self {
        NullnessArtifact::compute(&shape.to_graph())
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        persist::encode_matrix(self.df(), out);
    }

    fn decode_body(shape: &CfgShape, r: &mut Reader<'_>) -> Option<Self> {
        // The frontier matrix covers *all* blocks of the shape
        // (unreachable rows are empty), so the bound is the block
        // count and revive re-checks it against the graph.
        let df = persist::decode_matrix(r, shape.num_blocks())?;
        NullnessArtifact::from_parts(&shape.to_graph(), df)
    }

    fn max_body_len(shape: &CfgShape) -> u64 {
        let n = shape.num_blocks() as u64;
        8 + 8 * n * n.div_ceil(64)
    }

    fn into_handle(this: Arc<Self>) -> ArtifactHandle {
        ArtifactHandle::Nullness(this)
    }

    fn from_handle(handle: &ArtifactHandle) -> Option<&Arc<Self>> {
        handle.as_nullness()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_and_salts_are_distinct_and_stable() {
        assert_eq!(AnalysisKind::Liveness.tag(), 1);
        assert_eq!(AnalysisKind::Nullness.tag(), 2);
        assert_eq!(
            AnalysisKind::Liveness.salt(),
            0,
            "v1 liveness paths must stay probed"
        );
        for a in AnalysisKind::ALL {
            assert_eq!(AnalysisKind::from_tag(a.tag()), Some(a));
            for b in AnalysisKind::ALL {
                if a != b {
                    assert_ne!(a.tag(), b.tag());
                    assert_ne!(a.salt(), b.salt());
                }
            }
        }
        assert_eq!(AnalysisKind::from_tag(0), None);
        assert_eq!(AnalysisKind::from_tag(99), None);
    }

    #[test]
    fn handles_downcast_only_to_their_own_kind() {
        let f = fastlive_ir::parse_function("function %f { block0: return }").expect("parses");
        let shape = CfgShape::of(&f);
        let live = Arc::new(<FunctionLiveness as AnalysisArtifact>::compute(&shape));
        let null = Arc::new(<NullnessArtifact as AnalysisArtifact>::compute(&shape));
        let lh = FunctionLiveness::into_handle(live);
        let nh = NullnessArtifact::into_handle(null);
        assert_eq!(lh.kind(), AnalysisKind::Liveness);
        assert_eq!(nh.kind(), AnalysisKind::Nullness);
        assert!(FunctionLiveness::from_handle(&lh).is_some());
        assert!(FunctionLiveness::from_handle(&nh).is_none());
        assert!(NullnessArtifact::from_handle(&nh).is_some());
        assert!(NullnessArtifact::from_handle(&lh).is_none());
    }
}
