//! Finite automata substrate for the sound-sequentialization verifier.
//!
//! Every automaton manipulated by the verifier — thread control-flow graphs,
//! interleaving products, sleep set automata, π-reductions and Floyd/Hoare
//! proof automata — is an instance of the [`Dfa`] type defined here. All of
//! them are deterministic by construction, so the crate has no NFA. It
//! provides the constructions the paper relies on:
//!
//! * reachability and trimming,
//! * language emptiness, membership, difference, inclusion and equivalence,
//! * partition-refinement minimization,
//! * bounded language enumeration (used heavily by the property tests that
//!   certify soundness and minimality of reductions),
//! * DOT export for debugging.
//!
//! # Example
//!
//! ```
//! use automata::dfa::DfaBuilder;
//!
//! let mut b = DfaBuilder::new();
//! let q0 = b.add_state(false);
//! let q1 = b.add_state(true);
//! b.add_transition(q0, 'a', q1);
//! b.add_transition(q1, 'b', q0);
//! let dfa = b.build(q0);
//! assert!(dfa.accepts(['a'].iter().copied()));
//! assert!(dfa.accepts(['a', 'b', 'a'].iter().copied()));
//! assert!(!dfa.accepts(['b'].iter().copied()));
//! ```

pub mod bitset;
pub mod dfa;
pub mod dot;
pub mod explore;
pub mod minimize;
pub mod ops;

pub use bitset::BitSet;
pub use dfa::{Dfa, DfaBuilder, StateId};
