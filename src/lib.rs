//! **seqver** — a from-scratch Rust reproduction of *“Sound
//! Sequentialization for Concurrent Program Verification”* (Farzan,
//! Klumpp, Podelski; PLDI 2022).
//!
//! This facade crate re-exports the whole stack:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`automata`] | `automata` | DFA substrate |
//! | [`smt`] | `smt` | QF-LIA SMT solver (simplex + DPLL(T) + cores + projection) |
//! | [`cpl`] | `cpl` | The CPL concurrent-language frontend |
//! | [`program`] | `program` | Concurrent program model, commutativity, interpreter |
//! | [`reduction`] | `reduction` | Preference orders, sleep sets, persistent membranes |
//! | [`gemcutter`] | `gemcutter` | The verifier: refinement loop + on-the-fly proof check |
//! | [`serve`] | `serve` | Verification-as-a-service daemon: wire protocol, proof store, server, client |
//! | [`bench_suite`] | `bench-suite` | The benchmark corpus |
//!
//! # Quickstart
//!
//! ```
//! use seqver::smt::TermPool;
//! use seqver::gemcutter::verify::{verify, VerifierConfig};
//!
//! let source = r#"
//!     var x: int = 0;
//!     thread inc { atomic { x := x + 1; } }
//!     thread check { assert x >= 0; }
//!     spawn inc * 2;
//!     spawn check;
//! "#;
//! let mut pool = TermPool::new();
//! let program = seqver::cpl::compile(source, &mut pool).unwrap();
//! let outcome = verify(&mut pool, &program, &VerifierConfig::gemcutter_seq());
//! assert!(outcome.verdict.is_correct());
//! ```

pub use automata;
pub use bench_suite;
pub use cpl;
pub use gemcutter;
pub use program;
pub use reduction;
pub use serve;
pub use smt;
