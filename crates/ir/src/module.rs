//! [`Module`]: a multi-function container with textual round-trip
//! support.
//!
//! A module is the unit the analysis engine
//! (`fastlive-engine`) operates on: an ordered list of [`Function`]s
//! addressed by dense [`FuncId`]s, parsed from and printed to a source
//! holding several `function %name { ... }` units
//! ([`parse_module`](crate::parse_module)). The module itself imposes
//! no linkage semantics — functions don't call each other in this IR —
//! it exists so that whole-program analyses can batch, parallelize and
//! cache per-function work.

use std::fmt;

use crate::function::Function;

/// Index of a function within a [`Module`]: dense, in creation order,
/// stable across function *edits* (only [`Module::push`] mints new
/// ids).
pub type FuncId = usize;

/// An ordered collection of [`Function`]s.
///
/// # Examples
///
/// ```
/// use fastlive_ir::{parse_module, Module};
///
/// let m = parse_module(
///     "function %double { block0(v0): v1 = iadd v0, v0  return v1 }
///      function %zero { block0: v0 = iconst 0  return v0 }",
/// )?;
/// assert_eq!(m.len(), 2);
/// let id = m.by_name("zero").unwrap();
/// assert_eq!(m.func(id).name, "zero");
/// // Printing and re-parsing is a fixed point.
/// let reparsed = parse_module(&m.to_string())?;
/// assert_eq!(m.to_string(), reparsed.to_string());
/// # Ok::<(), fastlive_ir::ParseError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Module {
    functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Module {
            functions: Vec::new(),
        }
    }

    /// Appends a function, returning its [`FuncId`].
    pub fn push(&mut self, func: Function) -> FuncId {
        self.functions.push(func);
        self.functions.len() - 1
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// `true` if the module holds no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// All functions, indexable by [`FuncId`].
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// The function with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id]
    }

    /// Mutable access to the function with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id]
    }

    /// Looks up a function by name (linear scan — module-level passes
    /// address functions by [`FuncId`], names are for humans).
    pub fn by_name(&self, name: &str) -> Option<FuncId> {
        self.functions.iter().position(|f| f.name == name)
    }

    /// Iterates `(id, function)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions.iter().enumerate()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, func) in self.functions.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
                writeln!(f)?;
            }
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_module;

    #[test]
    fn push_and_lookup() {
        let mut m = Module::new();
        assert!(m.is_empty());
        let a = m.push(Function::new("a"));
        let b = m.push(Function::new("b"));
        assert_eq!(m.len(), 2);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(m.by_name("b"), Some(b));
        assert_eq!(m.by_name("c"), None);
        assert_eq!(m.func(a).name, "a");
        m.func_mut(b).name = "renamed".into();
        assert_eq!(m.by_name("renamed"), Some(b));
        assert_eq!(m.iter().count(), 2);
    }

    #[test]
    fn display_round_trips() {
        let src = "function %one { block0(v0):
            v1 = iconst 1
            brif v1, block1(v1), block2
        block1(v2):
            jump block2
        block2:
            return v0 }
        function %two { block0: return }";
        let m = parse_module(src).expect("parses");
        let printed = m.to_string();
        let again = parse_module(&printed).expect("reparses");
        assert_eq!(printed, again.to_string());
        // Units are separated by one blank line.
        assert!(printed.contains("}\n\nfunction %two"));
    }

    #[test]
    fn entity_numbering_restarts_per_function() {
        let m = parse_module(
            "function %a { block0(v0): return v0 }
             function %b { block0(v0): v1 = ineg v0  return v1 }",
        )
        .expect("parses");
        // Both functions own a v0 of their own.
        assert_eq!(m.func(0).num_values(), 1);
        assert_eq!(m.func(1).num_values(), 2);
        for (_, f) in m.iter() {
            f.check_use_chains().expect("chains consistent");
        }
    }
}
