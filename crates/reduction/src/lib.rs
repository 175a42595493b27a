//! Sound reductions of concurrent programs, parametrized by preference
//! orders — the core theory of the paper (§4–§6).
//!
//! A *reduction* of a program's language is a subset containing at least
//! one representative of every Mazurkiewicz equivalence class (§4,
//! Def. 4.1). This crate implements:
//!
//! * [`mazurkiewicz`] — trace equivalence under a commutativity relation;
//! * [`order`] — preference orders: classic lexicographic (thread-uniform
//!   `seq`, seeded `random`) and positional (`lockstep`), finitely
//!   represented via a per-order context automaton (§4.1–4.2);
//! * [`persistent`] — weakly persistent membranes via the conflict-SCC
//!   construction (§6/§7.1, Algorithm 1);
//! * [`reduce`] — the combined, space-efficient construction
//!   `(S⋖(P))↓πS` (§6.2, Thm. 6.6), built explicitly for experiments and
//!   tests (the verifier constructs it on the fly instead). With membranes
//!   off it is the sleep set automaton `S⋖(P)`, which recognizes exactly the
//!   lexicographic reduction `red_lex(⋖)(L(P))` (§5, Def. 5.1/Thm. 5.3).

pub mod mazurkiewicz;
pub mod order;
pub mod persistent;
pub mod reduce;

pub use order::{LockstepOrder, OrderContext, PreferenceOrder, RandomOrder, SeqOrder};
pub use persistent::{MembraneMode, PersistentSets};
pub use reduce::{reduction_automaton, ReductionConfig};
