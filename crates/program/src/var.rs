//! SSA version tracking for program variables.
//!
//! Trace encodings and statement relations need fresh "versions" of program
//! variables. A [`Versions`] map starts as the identity (version 0 of `x`
//! is `x` itself) and mints fresh pool variables on demand.

use smt::linear::VarId;
use smt::term::TermPool;
use std::collections::HashMap;

/// Tracks the current SSA version of each program variable.
///
/// # Example
///
/// ```
/// use smt::term::TermPool;
/// use program::var::Versions;
///
/// let mut pool = TermPool::new();
/// let x = pool.var("x");
/// let mut v = Versions::new();
/// assert_eq!(v.current(x), x);
/// let x1 = v.bump(&mut pool, x);
/// assert_ne!(x1, x);
/// assert_eq!(v.current(x), x1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Versions {
    current: HashMap<VarId, VarId>,
}

impl Versions {
    /// The identity version map.
    pub fn new() -> Versions {
        Versions::default()
    }

    /// The current version of `v` (initially `v` itself).
    pub fn current(&self, v: VarId) -> VarId {
        self.current.get(&v).copied().unwrap_or(v)
    }

    /// Mints a fresh version for `v`, makes it current, and returns it.
    pub fn bump(&mut self, pool: &mut TermPool, v: VarId) -> VarId {
        let base = pool.var_name(v).to_owned();
        let fresh = pool.fresh_var(&base);
        self.current.insert(v, fresh);
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_until_bumped() {
        let mut pool = TermPool::new();
        let x = pool.var("x");
        let y = pool.var("y");
        let mut v = Versions::new();
        assert_eq!(v.current(x), x);
        let x1 = v.bump(&mut pool, x);
        let x2 = v.bump(&mut pool, x);
        assert_ne!(x1, x2);
        assert_eq!(v.current(x), x2);
        assert_eq!(v.current(y), y);
    }

    #[test]
    fn fresh_names_derive_from_base() {
        let mut pool = TermPool::new();
        let x = pool.var("pendingIo");
        let mut v = Versions::new();
        let x1 = v.bump(&mut pool, x);
        assert!(pool.var_name(x1).starts_with("pendingIo#"));
    }
}
