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
//! * CDCL runs every probe on one warm [`CdclSolver`] per core: the gate
//!   definitions of every assertion are emitted once at scope 0, and a
//!   probe asserts its kept indices in a pushed scope, solves and pops.
//!   The slack rows, the simplex basis and the theory lemmas carry over,
//!   so a probe only repairs what the deleted assertion changed. An
//!   `Unsat` probe names the antecedent origins of its final conflict
//!   (every clause carries the assertion indices it derives from, unioned
//!   through learned-clause resolutions), so most probes are skipped;
//! * DPLL names every assertion it refuted, so every index is probed and
//!   the loop is the plain greedy deletion loop.
//!
//! A seed only skips probes whose outcome it decides, and every probe's
//! answer is semantic, so the computed core is *identical* under both
//! refuters — trace slicing does not depend on the engine.

use crate::cdcl::{CdclOutcome, CdclSolver};
use crate::solver::{check, SatResult, SolverKind};
use crate::term::{TermId, TermPool};

/// Outcome of [`check_core`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreResult {
    /// The conjunction is satisfiable.
    Sat,
    /// The solver could not decide the conjunction.
    Unknown,
    /// The conjunction is unsatisfiable; the indices of a locally minimal
    /// core, ascending.
    Unsat(Vec<usize>),
}

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
    match check_core(pool, assertions) {
        CoreResult::Unsat(core) => Some(core),
        CoreResult::Sat | CoreResult::Unknown => None,
    }
}

/// Checks the conjunction of `assertions` and, when it is unsatisfiable,
/// minimizes it as [`unsat_core`] does. The check is the deletion loop's
/// first refutation, so a caller that needs both the verdict and the core
/// solves the full conjunction once.
pub fn check_core(pool: &mut TermPool, assertions: &[TermId]) -> CoreResult {
    let mut refuter = Refuter::new(pool, assertions);
    let mut kept: Vec<usize> = (0..assertions.len()).collect();
    let mut seed = match refuter.refute(pool, assertions, &kept) {
        CoreResult::Unsat(seed) => seed,
        other => return other,
    };
    let mut i = 0;
    while i < kept.len() {
        let idx = kept[i];
        if !seed.contains(&idx) {
            kept.remove(i);
            continue;
        }
        let rest: Vec<usize> = kept.iter().copied().filter(|&k| k != idx).collect();
        match refuter.refute(pool, assertions, &rest) {
            CoreResult::Unsat(origins) => {
                seed = origins;
                kept.remove(i);
            }
            CoreResult::Sat | CoreResult::Unknown => i += 1,
        }
    }
    CoreResult::Unsat(kept)
}

/// The engine behind the deletion probes of one core computation.
enum Refuter {
    /// One warm solver holding every assertion's gate definitions at
    /// scope 0; each probe asserts in a scope of its own.
    Cdcl(Box<CdclSolver>),
    /// Each probe is a plain [`check`].
    Dpll,
}

impl Refuter {
    fn new(pool: &TermPool, assertions: &[TermId]) -> Refuter {
        match pool.solver_kind() {
            SolverKind::Cdcl => {
                let mut solver = Box::new(CdclSolver::new());
                for &t in assertions {
                    solver.define(pool, t);
                }
                Refuter::Cdcl(solver)
            }
            SolverKind::Dpll => Refuter::Dpll,
        }
    }

    /// Refutes the conjunction of `assertions[k]` for `k` in `kept`.
    /// [`CoreResult::Unsat`] carries a proven-unsat subset of `kept`, not
    /// necessarily a minimal one.
    fn refute(&mut self, pool: &mut TermPool, assertions: &[TermId], kept: &[usize]) -> CoreResult {
        match self {
            Refuter::Cdcl(solver) => {
                let probe = kept.iter().map(|&k| (assertions[k], k as u32));
                match solver.solve_scoped(pool, probe) {
                    CdclOutcome::Sat(_) => CoreResult::Sat,
                    CdclOutcome::Unknown => CoreResult::Unknown,
                    CdclOutcome::Unsat { origins } => {
                        CoreResult::Unsat(origins.into_iter().map(|o| o as usize).collect())
                    }
                }
            }
            Refuter::Dpll => {
                let terms: Vec<TermId> = kept.iter().map(|&k| assertions[k]).collect();
                match check(pool, &terms) {
                    SatResult::Sat(_) => CoreResult::Sat,
                    SatResult::Unknown => CoreResult::Unknown,
                    SatResult::Unsat => CoreResult::Unsat(kept.to_vec()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;
    use crate::resource::{Category, ResourceGovernor};
    use crate::Rel;

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

    /// SSA blocks `x0 = 0, x1 = x0 + 1, …, x8 = x7 + 1` interleaved with
    /// noise blocks over `y`, then the guard `x8 ≥ 100 ∨ x8 ≤ -1`. Every
    /// deletion probe of a chain link comes back sat, and consecutive
    /// probes share the links' slack rows.
    fn ssa_chain(p: &mut TermPool) -> Vec<TermId> {
        let x: Vec<_> = (0..=8).map(|i| p.var(&format!("x{i}"))).collect();
        let y = p.var("y");
        let mut blocks = vec![p.eq_const(x[0], 0)];
        for i in 0..8 {
            let step = LinExpr::from_terms([(x[i + 1], 1), (x[i], -1)], -1);
            blocks.push(p.atom(step, Rel::Eq0));
            blocks.push(p.ge_const(y, i as i128));
        }
        let high = p.ge_const(x[8], 100);
        let low = p.le_const(x[8], -1);
        blocks.push(p.or([high, low]));
        blocks
    }

    #[test]
    fn warm_core_of_an_ssa_chain_matches_dpll() {
        let mut expected = None;
        for kind in [SolverKind::Dpll, SolverKind::Cdcl] {
            let mut p = TermPool::new();
            p.set_solver_kind(kind);
            let blocks = ssa_chain(&mut p);
            let core = unsat_core(&mut p, &blocks).unwrap();
            match &expected {
                None => expected = Some(core),
                Some(e) => assert_eq!(&core, e, "core differs between engines"),
            }
        }
        let chain: Vec<usize> = [0]
            .into_iter()
            .chain((1..17).step_by(2))
            .chain([17])
            .collect();
        assert_eq!(
            expected.unwrap(),
            chain,
            "the chain and its guard, no noise"
        );
    }

    /// A popped probe leaves no assertion behind: after an unsat probe
    /// only origin-free clauses (gate definitions and theory lemmas)
    /// remain, and a probe without the guard is satisfiable again.
    #[test]
    fn popped_probe_leaves_no_assertion_behind() {
        let mut p = TermPool::new();
        let blocks = ssa_chain(&mut p);
        let mut refuter = Refuter::new(&p, &blocks);
        let all: Vec<usize> = (0..blocks.len()).collect();
        for _ in 0..2 {
            assert!(matches!(
                refuter.refute(&mut p, &blocks, &all),
                CoreResult::Unsat(_)
            ));
            let Refuter::Cdcl(solver) = &refuter else {
                panic!("the default solver kind is cdcl");
            };
            assert!(solver.clause_infos().iter().all(|c| c.origins.is_empty()));
            let unguarded = &all[..all.len() - 1];
            assert_eq!(refuter.refute(&mut p, &blocks, unguarded), CoreResult::Sat);
            assert_eq!(refuter.refute(&mut p, &blocks, &[]), CoreResult::Sat);
        }
    }

    /// The core's first refutation is the verdict: sat, unknown and
    /// unsat stay apart.
    #[test]
    fn check_core_tells_sat_from_unknown() {
        let mut p = TermPool::new();
        let blocks = ssa_chain(&mut p);
        let unguarded = &blocks[..blocks.len() - 1];
        assert_eq!(check_core(&mut p, unguarded), CoreResult::Sat);
        assert!(matches!(check_core(&mut p, &blocks), CoreResult::Unsat(_)));
        p.set_governor(
            ResourceGovernor::builder()
                .budget(Category::DpllDecisions, 0)
                .build(),
        );
        assert_eq!(check_core(&mut p, unguarded), CoreResult::Unknown);
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
