//! The typed query plane of the facade: [`Query`] in, [`Response`] or
//! [`QueryError`] out.
//!
//! A query addresses a function, its values and its blocks either by
//! **id** (the dense [`FuncId`] / [`Value`] / [`Block`] entities every
//! lower layer speaks) or by **name** (the printed `%func` / `vN` /
//! `blockN` forms humans and textual tooling speak) — [`FuncRef`],
//! [`ValueRef`] and [`BlockRef`] unify the two, and the `From` impls
//! make call sites read naturally:
//!
//! ```
//! use fastlive::Query;
//!
//! // By name, by id, or mixed — all the same query.
//! let q1 = Query::live_in("count", "v0", "block1");
//! # let _ = (q1,);
//! ```
//!
//! Every backend ([`Backend`](crate::Backend)) answers the same
//! queries with byte-identical [`Response`]s; resolution failures are
//! values, not panics, so a long-lived service can refuse one bad
//! request and keep serving the rest.

use std::fmt;

use fastlive_core::Nullness;
use fastlive_ir::{Block, FuncId, Function, Module, ProgramPoint, Value};

/// A function addressed by dense id or by (printed) name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FuncRef {
    /// A [`FuncId`] minted by the module.
    Id(FuncId),
    /// The function's name, without the `%` sigil (`"count"`).
    Name(Box<str>),
}

/// A value addressed by entity or by printed name (`"v4"`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValueRef {
    /// The [`Value`] entity.
    Id(Value),
    /// The printed `vN` name.
    Name(Box<str>),
}

/// A block addressed by entity or by printed name (`"block2"`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockRef {
    /// The [`Block`] entity.
    Id(Block),
    /// The printed `blockN` name.
    Name(Box<str>),
}

/// A program point addressed structurally: a block plus a position in
/// its current instruction list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PointRef {
    /// The entry of a block, before any instruction.
    Entry(BlockRef),
    /// Just before the `inst`-th instruction of the block (0-based).
    Before {
        /// The block holding the instruction.
        block: BlockRef,
        /// Position in the block's instruction list.
        inst: usize,
    },
    /// Just after the `inst`-th instruction of the block (0-based).
    After {
        /// The block holding the instruction.
        block: BlockRef,
        /// Position in the block's instruction list.
        inst: usize,
    },
}

impl PointRef {
    /// The entry point of `block`.
    pub fn entry(block: impl Into<BlockRef>) -> Self {
        PointRef::Entry(block.into())
    }

    /// The point just before instruction `inst` of `block`.
    pub fn before(block: impl Into<BlockRef>, inst: usize) -> Self {
        PointRef::Before {
            block: block.into(),
            inst,
        }
    }

    /// The point just after instruction `inst` of `block`.
    pub fn after(block: impl Into<BlockRef>, inst: usize) -> Self {
        PointRef::After {
            block: block.into(),
            inst,
        }
    }
}

macro_rules! ref_from_impls {
    ($ref_ty:ident, $id_ty:ty) => {
        impl From<$id_ty> for $ref_ty {
            fn from(id: $id_ty) -> Self {
                $ref_ty::Id(id)
            }
        }
        impl From<&str> for $ref_ty {
            fn from(name: &str) -> Self {
                $ref_ty::Name(name.into())
            }
        }
        impl From<String> for $ref_ty {
            fn from(name: String) -> Self {
                $ref_ty::Name(name.into_boxed_str())
            }
        }
        impl fmt::Display for $ref_ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $ref_ty::Id(id) => write!(f, "{id}"),
                    $ref_ty::Name(name) => write!(f, "{name}"),
                }
            }
        }
    };
}

ref_from_impls!(FuncRef, FuncId);
ref_from_impls!(ValueRef, Value);
ref_from_impls!(BlockRef, Block);

/// One liveness question, addressed symbolically — the unit both
/// [`FastliveSession::query`](crate::FastliveSession::query) and the
/// planned batch entry point
/// ([`run_queries`](crate::FastliveSession::run_queries)) consume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// Is the value live-in at the block (Definition 2 / Algorithm 3)?
    LiveIn {
        /// The queried function.
        func: FuncRef,
        /// The queried value.
        value: ValueRef,
        /// The queried block.
        block: BlockRef,
    },
    /// Is the value live-out at the block (Definition 3 / Algorithm 2)?
    LiveOut {
        /// The queried function.
        func: FuncRef,
        /// The queried value.
        value: ValueRef,
        /// The queried block.
        block: BlockRef,
    },
    /// Is the value live at a program point (the §6.2 Budimlić
    /// primitive's granularity)?
    LiveAt {
        /// The queried function.
        func: FuncRef,
        /// The queried value.
        value: ValueRef,
        /// The queried point.
        point: PointRef,
    },
    /// Materialize the classic per-block live-in/live-out sets for the
    /// whole function.
    LiveSets {
        /// The queried function.
        func: FuncRef,
    },
    /// Do two values interfere (the Budimlić test of the
    /// SSA-destruction pass, §6.2)?
    Interfere {
        /// The queried function.
        func: FuncRef,
        /// First value.
        a: ValueRef,
        /// Second value.
        b: ValueRef,
    },
    /// What nullness fact holds for the value (the second analysis on
    /// the sparse platform: dominance-based forward propagation over
    /// def-use chains)?
    Nullness {
        /// The queried function.
        func: FuncRef,
        /// The queried value.
        value: ValueRef,
    },
    /// Is the value definitely initialized (its definition executed)
    /// whenever control reaches the entry of the block?
    DefiniteInit {
        /// The queried function.
        func: FuncRef,
        /// The queried value.
        value: ValueRef,
        /// The block whose entry is probed.
        block: BlockRef,
    },
}

impl Query {
    /// A [`Query::LiveIn`] from anything convertible to the refs.
    pub fn live_in(
        func: impl Into<FuncRef>,
        value: impl Into<ValueRef>,
        block: impl Into<BlockRef>,
    ) -> Self {
        Query::LiveIn {
            func: func.into(),
            value: value.into(),
            block: block.into(),
        }
    }

    /// A [`Query::LiveOut`] from anything convertible to the refs.
    pub fn live_out(
        func: impl Into<FuncRef>,
        value: impl Into<ValueRef>,
        block: impl Into<BlockRef>,
    ) -> Self {
        Query::LiveOut {
            func: func.into(),
            value: value.into(),
            block: block.into(),
        }
    }

    /// A [`Query::LiveAt`] from anything convertible to the refs.
    pub fn live_at(func: impl Into<FuncRef>, value: impl Into<ValueRef>, point: PointRef) -> Self {
        Query::LiveAt {
            func: func.into(),
            value: value.into(),
            point,
        }
    }

    /// A [`Query::LiveSets`] from anything convertible to a [`FuncRef`].
    pub fn live_sets(func: impl Into<FuncRef>) -> Self {
        Query::LiveSets { func: func.into() }
    }

    /// A [`Query::Interfere`] from anything convertible to the refs.
    pub fn interfere(
        func: impl Into<FuncRef>,
        a: impl Into<ValueRef>,
        b: impl Into<ValueRef>,
    ) -> Self {
        Query::Interfere {
            func: func.into(),
            a: a.into(),
            b: b.into(),
        }
    }

    /// A [`Query::Nullness`] from anything convertible to the refs.
    pub fn nullness(func: impl Into<FuncRef>, value: impl Into<ValueRef>) -> Self {
        Query::Nullness {
            func: func.into(),
            value: value.into(),
        }
    }

    /// A [`Query::DefiniteInit`] from anything convertible to the refs.
    pub fn definitely_init(
        func: impl Into<FuncRef>,
        value: impl Into<ValueRef>,
        block: impl Into<BlockRef>,
    ) -> Self {
        Query::DefiniteInit {
            func: func.into(),
            value: value.into(),
            block: block.into(),
        }
    }

    /// The function the query addresses.
    pub fn func(&self) -> &FuncRef {
        match self {
            Query::LiveIn { func, .. }
            | Query::LiveOut { func, .. }
            | Query::LiveAt { func, .. }
            | Query::LiveSets { func }
            | Query::Interfere { func, .. }
            | Query::Nullness { func, .. }
            | Query::DefiniteInit { func, .. } => func,
        }
    }
}

/// Whole-function live-in/live-out sets, indexed by block index; each
/// set is sorted by value index. The payload of [`Response::Sets`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LiveSets {
    /// `live_in[b]` = values live-in at the block of index `b`.
    pub live_in: Vec<Vec<Value>>,
    /// `live_out[b]` = values live-out at the block of index `b`.
    pub live_out: Vec<Vec<Value>>,
}

/// A successfully answered [`Query`]. Responses are plain comparable
/// values, which is what lets the differential suites assert that
/// every backend produces byte-identical answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The answer to a `LiveIn` / `LiveOut` / `LiveAt` query.
    Live(bool),
    /// The answer to an `Interfere` query.
    Interference(bool),
    /// The answer to a `LiveSets` query.
    Sets(LiveSets),
    /// The answer to a `Nullness` query.
    Nullness(Nullness),
    /// The answer to a `DefiniteInit` query.
    Init(bool),
}

impl Response {
    /// The boolean payload of a `Live`, `Interference` or `Init`
    /// response.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Response::Live(b) | Response::Interference(b) | Response::Init(b) => Some(b),
            Response::Sets(_) | Response::Nullness(_) => None,
        }
    }

    /// The set payload of a `Sets` response.
    pub fn as_sets(&self) -> Option<&LiveSets> {
        match self {
            Response::Sets(sets) => Some(sets),
            _ => None,
        }
    }

    /// The fact payload of a `Nullness` response.
    pub fn as_nullness(&self) -> Option<Nullness> {
        match *self {
            Response::Nullness(n) => Some(n),
            _ => None,
        }
    }
}

/// Why a [`Query`] could not be answered. Every variant is a
/// recoverable refusal of one request — the session stays usable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The addressed function is not in the module (unknown name or
    /// out-of-range id).
    UnknownFunction(FuncRef),
    /// The addressed value does not exist in the addressed function.
    UnknownValue {
        /// The resolved function's name.
        func: String,
        /// The offending reference.
        value: ValueRef,
    },
    /// The addressed block does not exist in the addressed function.
    UnknownBlock {
        /// The resolved function's name.
        func: String,
        /// The offending reference.
        block: BlockRef,
    },
    /// A point reference addressed an instruction position past the
    /// block's current instruction list.
    MissingInstruction {
        /// The resolved function's name.
        func: String,
        /// The resolved block.
        block: Block,
        /// The requested instruction position.
        inst: usize,
        /// How many instructions the block currently holds.
        num_insts: usize,
    },
    /// The queried value's defining instruction has been removed: a
    /// detached definition has no program point, so point-granularity
    /// questions about it are unanswerable
    /// ([`PointError::DefinitionRemoved`](fastlive_core::PointError)).
    DetachedDefinition(Value),
    /// The addressed function's liveness analysis itself failed — its
    /// precomputation panicked
    /// ([`AnalysisError::ComputePanicked`](fastlive_core::AnalysisError)).
    /// Per-function: other functions of the same session keep
    /// answering, and retrying the query retries the analysis.
    AnalysisFailed(fastlive_core::AnalysisError),
    /// The planner accepted a query but failed to produce an answer
    /// for its slot — a facade bookkeeping bug, surfaced as a
    /// recoverable per-query refusal (this used to abort the whole
    /// process via an `expect`). Seeing this variant is itself a bug
    /// worth reporting; the session stays usable.
    Internal {
        /// What the planner left undone.
        detail: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownFunction(r) => write!(f, "unknown function {r}"),
            QueryError::UnknownValue { func, value } => {
                write!(f, "unknown value {value} in function %{func}")
            }
            QueryError::UnknownBlock { func, block } => {
                write!(f, "unknown block {block} in function %{func}")
            }
            QueryError::MissingInstruction {
                func,
                block,
                inst,
                num_insts,
            } => write!(
                f,
                "no instruction {inst} in {block} of %{func} ({num_insts} instructions)"
            ),
            QueryError::DetachedDefinition(v) => {
                write!(f, "the defining instruction of {v} was removed")
            }
            QueryError::AnalysisFailed(e) => write!(f, "analysis failed: {e}"),
            QueryError::Internal { detail } => write!(f, "internal planner error: {detail}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<fastlive_core::PointError> for QueryError {
    fn from(e: fastlive_core::PointError) -> Self {
        match e {
            fastlive_core::PointError::DefinitionRemoved(v) => QueryError::DetachedDefinition(v),
        }
    }
}

impl From<fastlive_core::AnalysisError> for QueryError {
    fn from(e: fastlive_core::AnalysisError) -> Self {
        match e {
            // A point failure keeps its precise facade shape.
            fastlive_core::AnalysisError::Point(p) => p.into(),
            other => QueryError::AnalysisFailed(other),
        }
    }
}

/// Resolves a function reference against the module.
#[inline]
pub(crate) fn resolve_func(module: &Module, r: &FuncRef) -> Result<FuncId, QueryError> {
    match r {
        FuncRef::Id(id) if *id < module.len() => Ok(*id),
        FuncRef::Name(name) => module
            .by_name(name)
            .ok_or_else(|| QueryError::UnknownFunction(r.clone())),
        FuncRef::Id(_) => Err(QueryError::UnknownFunction(r.clone())),
    }
}

/// Resolves a value reference against the (already resolved) function.
#[inline]
pub(crate) fn resolve_value(func: &Function, r: &ValueRef) -> Result<Value, QueryError> {
    let unknown = || QueryError::UnknownValue {
        func: func.name.clone(),
        value: r.clone(),
    };
    match r {
        ValueRef::Id(v) if v.index() < func.num_values() => Ok(*v),
        ValueRef::Name(name) => func.value(name).ok_or_else(unknown),
        ValueRef::Id(_) => Err(unknown()),
    }
}

/// Resolves a block reference against the (already resolved) function.
#[inline]
pub(crate) fn resolve_block(func: &Function, r: &BlockRef) -> Result<Block, QueryError> {
    let unknown = || QueryError::UnknownBlock {
        func: func.name.clone(),
        block: r.clone(),
    };
    match r {
        BlockRef::Id(b) if b.index() < func.num_blocks() => Ok(*b),
        BlockRef::Name(name) => func.block(name).ok_or_else(unknown),
        BlockRef::Id(_) => Err(unknown()),
    }
}

/// Resolves a point reference against the function's *current*
/// instruction layout.
pub(crate) fn resolve_point(func: &Function, r: &PointRef) -> Result<ProgramPoint, QueryError> {
    let (block_ref, inst) = match r {
        PointRef::Entry(b) => return Ok(ProgramPoint::block_entry(resolve_block(func, b)?)),
        PointRef::Before { block, inst } | PointRef::After { block, inst } => (block, *inst),
    };
    let block = resolve_block(func, block_ref)?;
    let insts = func.block_insts(block);
    let inst_id = *insts
        .get(inst)
        .ok_or_else(|| QueryError::MissingInstruction {
            func: func.name.clone(),
            block,
            inst,
            num_insts: insts.len(),
        })?;
    let point = match r {
        PointRef::Before { .. } => func.point_before(inst_id),
        _ => func.point_after(inst_id),
    };
    // The instruction was just read out of the block's list, so it
    // cannot have been concurrently removed — but stay total anyway.
    point.ok_or_else(|| QueryError::MissingInstruction {
        func: func.name.clone(),
        block,
        inst,
        num_insts: insts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Batch callers hold queries by the ten thousand, so their size is
    /// resident memory; a `String` name made a `Query` 88 bytes.
    #[test]
    fn query_fits_in_64_bytes() {
        let size = std::mem::size_of::<Query>();
        assert!(size <= 64, "Query is {size} bytes");
    }
}
