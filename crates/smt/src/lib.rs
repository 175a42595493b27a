//! A self-contained SMT solver for quantifier-free linear integer
//! arithmetic (QF-LIA), built for the sound-sequentialization verifier.
//!
//! The paper's tool discharges three kinds of queries through an SMT
//! solver, all over linear integer arithmetic:
//!
//! 1. **trace feasibility** — is the SSA encoding of a counterexample trace
//!    satisfiable? ([`solver::check`], exact via simplex + branch-and-bound)
//! 2. **Hoare triple validity / entailment** — does a candidate assertion
//!    survive a statement? ([`solver::entails`], [`solver::is_valid`])
//! 3. **(conditional) commutativity** — do `a;b` and `b;a` have the same
//!    transition semantics under a context assertion φ?
//!    ([`solver::equivalent`])
//!
//! The crate is layered bottom-up:
//!
//! * [`rational`] — checked `i128` rationals for the simplex core;
//! * [`linear`] — linear expressions and normalized constraints (the atom
//!   language; negation is integer-exact and eliminated at construction);
//! * [`term`] — hash-consed, negation-free formulas over those atoms;
//! * [`simplex`] — rational feasibility (Dutertre–de Moura general simplex);
//! * [`lia`] — integer feasibility via branch-and-bound;
//! * [`solver`] — boolean search over the monotone formula structure
//!   (CDCL(T) by default, the legacy DPLL for ablation);
//! * [`cdcl`] — the CDCL(T) engine: watched literals, 1UIP learning,
//!   backjumping, theory propagation over an incremental simplex;
//! * [`qcache`] — query-result memoization consulted by
//!   [`solver::check`]: a per-pool memo keyed on [`term::TermId`], and an
//!   optional canonicalizing cache shared across pools (definitive
//!   verdicts only);
//! * [`unsat_core`] — deletion-based cores (drives trace slicing);
//! * [`cube`] — cubes/DNF with variable elimination (drives strongest-
//!   postcondition interpolation).
//!
//! All verdicts are conservative: `Unknown` results (budget exhaustion or
//! `i128` overflow) are never reported as `Sat`/`Unsat`.
//!
//! # Example
//!
//! ```
//! use smt::term::TermPool;
//! use smt::solver::{check, entails};
//!
//! let mut pool = TermPool::new();
//! let pending = pool.var("pendingIo");
//! let ge2 = pool.ge_const(pending, 2);
//! let ge1 = pool.ge_const(pending, 1);
//! assert!(entails(&mut pool, ge2, ge1));
//! assert!(check(&mut pool, &[ge2]).is_sat());
//! ```

pub mod cdcl;
pub mod cube;
pub mod lia;
pub mod linear;
pub mod qcache;
pub mod rational;
pub mod resource;
pub mod simplex;
pub mod solver;
pub mod term;
pub mod transfer;
pub mod unsat_core;

pub use cdcl::{CdclOutcome, CdclSolver};
pub use linear::{LinExpr, LinearConstraint, Rel, VarId};
pub use qcache::{CacheStats, QueryCache, QueryMemo};
pub use resource::{Category, FaultKind, FaultPlan, GiveUp, GovernorBuilder, ResourceGovernor};
pub use simplex::{IncrementalSimplex, SimplexMark, TheoryResult};
pub use solver::{
    check, entails, equivalent, is_valid, AssertionScope, Model, SatResult, SolverKind,
};
pub use term::{Term, TermId, TermPool};
pub use transfer::ExportedTerm;
