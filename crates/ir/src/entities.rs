//! Entity references and the arena maps that store them.
//!
//! The IR follows the Cranelift convention: blocks, instructions and SSA
//! values are small copyable indices ([`Block`], [`Inst`], [`Value`]) into
//! per-function arenas ([`PrimaryMap`]). Side tables are plain vectors
//! indexed by the same numbers.

/// Implements a `u32`-backed entity reference with a display prefix.
macro_rules! entity_ref {
    ($(#[$attr:meta])* $name:ident, $prefix:expr) => {
        $(#[$attr])*
        #[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u32);

        impl $name {
            /// Creates a reference from a raw index.
            pub fn from_index(i: usize) -> Self {
                debug_assert!(i < u32::MAX as usize, "entity index overflow");
                $name(i as u32)
            }

            /// The raw index of this entity.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// The raw index as `u32` (handy for graph `NodeId`s).
            pub fn as_u32(self) -> u32 {
                self.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

entity_ref! {
    /// A basic block of a [`Function`](crate::Function). Doubles as the
    /// CFG node id: `block.as_u32()` is the
    /// [`NodeId`](fastlive_graph::NodeId) used by all analyses.
    Block, "block"
}

entity_ref! {
    /// An SSA value: either a block parameter (the IR's φ-function form)
    /// or the result of an instruction.
    Value, "v"
}

entity_ref! {
    /// An instruction.
    Inst, "inst"
}

/// An append-only arena mapping an entity reference to its data.
///
/// # Examples
///
/// ```
/// use fastlive_ir::entities::{Block, PrimaryMap};
///
/// let mut blocks: PrimaryMap<Block, &str> = PrimaryMap::new();
/// let b0 = blocks.push("entry");
/// assert_eq!(b0.index(), 0);
/// assert_eq!(blocks[b0], "entry");
/// assert_eq!(blocks.len(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrimaryMap<K, V> {
    elems: Vec<V>,
    _marker: std::marker::PhantomData<K>,
}

/// Entity keys usable with [`PrimaryMap`]. Implemented by [`Block`],
/// [`Value`] and [`Inst`]; sealed in spirit (implementing it for other
/// types is useless since only this crate creates the maps).
pub trait EntityRef: Copy {
    /// Builds the key from a raw index.
    fn from_index(i: usize) -> Self;
    /// The raw index of the key.
    fn index(self) -> usize;
}

macro_rules! impl_entity {
    ($name:ident) => {
        impl EntityRef for $name {
            fn from_index(i: usize) -> Self {
                $name::from_index(i)
            }
            fn index(self) -> usize {
                $name::index(self)
            }
        }
    };
}
impl_entity!(Block);
impl_entity!(Value);
impl_entity!(Inst);

impl<K: EntityRef, V> PrimaryMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PrimaryMap {
            elems: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Appends `value` and returns its key.
    pub fn push(&mut self, value: V) -> K {
        let k = K::from_index(self.elems.len());
        self.elems.push(value);
        k
    }

    /// Reserves capacity for `additional` more entities.
    pub fn reserve(&mut self, additional: usize) {
        self.elems.reserve(additional);
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Returns `true` if the map holds no entities.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// The value for `k`, if `k` is in range.
    pub fn get(&self, k: K) -> Option<&V> {
        self.elems.get(k.index())
    }

    /// Iterates `(key, &value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.elems
            .iter()
            .enumerate()
            .map(|(i, v)| (K::from_index(i), v))
    }

    /// Iterates all keys in index order.
    pub fn keys(&self) -> impl Iterator<Item = K> + use<K, V> {
        (0..self.elems.len()).map(K::from_index)
    }

    /// Iterates all values in index order.
    pub fn values(&self) -> std::slice::Iter<'_, V> {
        self.elems.iter()
    }
}

impl<K: EntityRef, V> Default for PrimaryMap<K, V> {
    fn default() -> Self {
        PrimaryMap::new()
    }
}

impl<K: EntityRef, V> std::ops::Index<K> for PrimaryMap<K, V> {
    type Output = V;
    fn index(&self, k: K) -> &V {
        &self.elems[k.index()]
    }
}

impl<K: EntityRef, V> std::ops::IndexMut<K> for PrimaryMap<K, V> {
    fn index_mut(&mut self, k: K) -> &mut V {
        &mut self.elems[k.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_refs_display_with_prefix() {
        assert_eq!(Block::from_index(3).to_string(), "block3");
        assert_eq!(Value::from_index(0).to_string(), "v0");
        assert_eq!(Inst::from_index(12).to_string(), "inst12");
        assert_eq!(format!("{:?}", Value::from_index(7)), "v7");
    }

    #[test]
    fn entity_round_trip() {
        let v = Value::from_index(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.as_u32(), 42);
    }

    #[test]
    fn primary_map_push_and_index() {
        let mut m: PrimaryMap<Inst, i32> = PrimaryMap::new();
        let a = m.push(10);
        let b = m.push(20);
        assert_eq!(m[a], 10);
        assert_eq!(m[b], 20);
        m[a] = 11;
        assert_eq!(m[a], 11);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert_eq!(m.get(Inst::from_index(5)), None);
    }

    #[test]
    fn primary_map_iteration() {
        let mut m: PrimaryMap<Block, char> = PrimaryMap::new();
        m.push('a');
        m.push('b');
        let pairs: Vec<_> = m.iter().map(|(k, &v)| (k.index(), v)).collect();
        assert_eq!(pairs, vec![(0, 'a'), (1, 'b')]);
        let keys: Vec<_> = m.keys().map(|k| k.index()).collect();
        assert_eq!(keys, vec![0, 1]);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec!['a', 'b']);
    }

    #[test]
    fn entity_ordering() {
        assert!(Value::from_index(1) < Value::from_index(2));
        assert_eq!(Block::from_index(4), Block::from_index(4));
    }
}
