//! Deletion-based unsat cores.
//!
//! The refinement loop slices counterexample traces to the statements that
//! actually participate in the infeasibility (treating the rest as havoc),
//! which is what makes the generated Floyd/Hoare assertions small — the
//! `pendingIo ≥ C ∧ ¬stoppingEvent` family of the paper's §2 arises from
//! exactly this slicing. The core is computed by deletion: drop each
//! assertion in turn and keep it only if the rest becomes satisfiable.
//!
//! The loop carries a *seed*: a proven-unsat subset of the kept indices.
//! A deletion probe of an index outside the seed must come back unsat (the
//! seed survives the deletion), so it is decided without a solver call;
//! indices inside the seed are genuinely probed, and a successful probe
//! refreshes the seed from its own refutation. The solver kind picks the
//! refuter that supplies seeds:
//!
//! * CDCL names the antecedent origins of its final conflict (every clause
//!   carries the assertion indices it derives from, unioned through
//!   learned-clause resolutions), so most probes are skipped;
//! * DPLL names every assertion it refuted, so every index is probed and
//!   the loop is the plain greedy deletion loop.
//!
//! A seed only skips probes whose outcome it decides, so the computed core
//! is *identical* under both refuters — trace slicing does not depend on
//! the engine.

use crate::cdcl::{self, CdclOutcome};
use crate::solver::{check, SolverConfig, SolverKind};
use crate::term::{TermId, TermPool};

/// Computes a (locally minimal) unsat core of `assertions`.
///
/// Returns the *indices* of a subset whose conjunction is still
/// unsatisfiable, or `None` if the input is not proven unsatisfiable in the
/// first place (including `Unknown` verdicts).
///
/// The result is subset-minimal with respect to single deletions: removing
/// any one returned index makes the conjunction satisfiable or unknown.
///
/// # Example
///
/// ```
/// use smt::term::TermPool;
/// use smt::unsat_core::unsat_core;
///
/// let mut pool = TermPool::new();
/// let x = pool.var("x");
/// let y = pool.var("y");
/// let a = pool.ge_const(x, 5);   // relevant
/// let b = pool.le_const(y, 100); // irrelevant
/// let c = pool.le_const(x, 2);   // relevant
/// let core = unsat_core(&mut pool, &[a, b, c]).unwrap();
/// assert_eq!(core, vec![0, 2]);
/// ```
pub fn unsat_core(pool: &mut TermPool, assertions: &[TermId]) -> Option<Vec<usize>> {
    let mut seed = refute(pool, assertions)?;
    let mut kept: Vec<usize> = (0..assertions.len()).collect();
    let mut i = 0;
    while i < kept.len() {
        let idx = kept[i];
        if !seed.contains(&idx) {
            kept.remove(i);
            continue;
        }
        let rest: Vec<usize> = kept.iter().copied().filter(|&k| k != idx).collect();
        let terms: Vec<TermId> = rest.iter().map(|&k| assertions[k]).collect();
        match refute(pool, &terms) {
            Some(origins) => {
                seed = origins.into_iter().map(|o| rest[o]).collect();
                kept.remove(i);
            }
            None => i += 1,
        }
    }
    Some(kept)
}

/// Refutes `terms` with the pool's solver kind, returning a proven-unsat
/// subset of `0..terms.len()`, or `None` on `Sat`/`Unknown`.
fn refute(pool: &mut TermPool, terms: &[TermId]) -> Option<Vec<usize>> {
    match pool.solver_kind() {
        SolverKind::Cdcl => {
            let config = SolverConfig::default();
            let governor = pool.governor().clone();
            let outcome =
                cdcl::check_with_core(pool, terms, config.bb_budget, config.dpll_budget, &governor);
            match outcome {
                CdclOutcome::Unsat { origins } => {
                    Some(origins.into_iter().map(|o| o as usize).collect())
                }
                _ => None,
            }
        }
        SolverKind::Dpll => check(pool, terms)
            .is_unsat()
            .then(|| (0..terms.len()).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_drops_irrelevant_assertions() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let noise: Vec<TermId> = (0..5)
            .map(|i| {
                let v = p.var(&format!("n{i}"));
                p.ge_const(v, i)
            })
            .collect();
        let mut assertions = noise.clone();
        assertions.push(p.eq_const(x, 1)); // index 5
        assertions.push(p.eq_const(x, 2)); // index 6
        let core = unsat_core(&mut p, &assertions).unwrap();
        assert_eq!(core, vec![5, 6]);
    }

    #[test]
    fn sat_input_has_no_core() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let a = p.ge_const(x, 0);
        assert_eq!(unsat_core(&mut p, &[a]), None);
    }

    #[test]
    fn core_of_false_is_single() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let a = p.ge_const(x, 0);
        let core = unsat_core(&mut p, &[a, TermPool::FALSE]).unwrap();
        assert_eq!(core, vec![1]);
    }

    /// The CDCL seeding must not change observable behaviour: the core
    /// is unsat on its own (cross-checked under the legacy engine) and
    /// locally minimal — dropping any single member makes it sat.
    #[test]
    fn cdcl_core_is_sound_and_minimal() {
        let mut p = TermPool::new();
        assert_eq!(p.solver_kind(), SolverKind::Cdcl);
        let x = p.var("x");
        let y = p.var("y");
        let mut assertions: Vec<TermId> = (0..8)
            .map(|i| {
                let v = p.var(&format!("n{i}"));
                p.le_const(v, 10 + i)
            })
            .collect();
        let low = p.le_const(x, 0);
        let high = p.ge_const(x, 10);
        assertions.push(p.or([low, high])); // 8
        assertions.push(p.ge_const(x, 1)); // 9
        assertions.push(p.le_const(x, 9)); // 10
        assertions.push(p.ge_const(y, 3)); // 11: irrelevant
        let core = unsat_core(&mut p, &assertions).unwrap();
        assert_eq!(core, vec![8, 9, 10]);

        let core_terms: Vec<TermId> = core.iter().map(|&i| assertions[i]).collect();
        p.set_solver_kind(SolverKind::Dpll);
        assert!(check(&mut p, &core_terms).is_unsat());
        for skip in 0..core_terms.len() {
            let rest: Vec<TermId> = core_terms
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != skip)
                .map(|(_, &t)| t)
                .collect();
            assert!(check(&mut p, &rest).is_sat(), "core not minimal at {skip}");
        }
    }

    /// Both engines agree on the final core for the same input.
    #[test]
    fn engines_agree_on_core() {
        for kind in [SolverKind::Dpll, SolverKind::Cdcl] {
            let mut p = TermPool::new();
            p.set_solver_kind(kind);
            let x = p.var("x");
            let a = p.ge_const(x, 5);
            let b = p.le_const(x, 2);
            let noise = p.var("z");
            let c = p.ge_const(noise, 0);
            assert_eq!(unsat_core(&mut p, &[c, a, b]).unwrap(), vec![1, 2]);
        }
    }

    /// With *redundant* assertions (two different formulas both implying
    /// `x ≤ 0`) several minimal cores exist; the greedy deletion order —
    /// not the CDCL refutation's antecedent choice — must decide which
    /// survives, so the engines stay trajectory-identical.
    #[test]
    fn engines_agree_on_core_with_redundancy() {
        let mut expected = None;
        for kind in [SolverKind::Dpll, SolverKind::Cdcl] {
            let mut p = TermPool::new();
            p.set_solver_kind(kind);
            let x = p.var("x");
            let a = p.le_const(x, 0);
            let tight = p.le_const(x, -5);
            let b = p.or([a, tight]); // semantically x ≤ 0, distinct term
            let c = p.ge_const(x, 1);
            let core = unsat_core(&mut p, &[a, b, c]).unwrap();
            match &expected {
                None => expected = Some(core),
                Some(e) => assert_eq!(&core, e, "core differs between engines"),
            }
        }
        assert_eq!(expected.unwrap(), vec![1, 2], "greedy drops index 0 first");
    }

    #[test]
    fn core_through_disjunction() {
        let mut p = TermPool::new();
        let x = p.var("x");
        // (x ≤ 0 ∨ x ≥ 10), x ≥ 1, x ≤ 9: all three are needed.
        let low = p.le_const(x, 0);
        let high = p.ge_const(x, 10);
        let disj = p.or([low, high]);
        let a = p.ge_const(x, 1);
        let b = p.le_const(x, 9);
        let core = unsat_core(&mut p, &[disj, a, b]).unwrap();
        assert_eq!(core, vec![0, 1, 2]);
    }
}
