//! CDCL internals battery: audited invariants of the two-watched-literal
//! engine over a deterministic random formula stream.
//!
//! The solver collects an [`smt::cdcl::AuditReport`] when auditing is on:
//! the watch invariant is re-checked at every conflict-free fixpoint,
//! watch-list structure after every backjump, and trail decision levels
//! after both. These tests assert all violation tallies stay zero, that
//! learned clauses are asserting (1UIP) and propositionally implied by
//! the non-learned clause database, and that a governor cancellation in
//! the middle of the search leaves the pool reusable.

use smt::cdcl::{CdclOutcome, CdclSolver, Lit};
use smt::linear::{LinExpr, VarId};
use smt::resource::{Category, FaultKind, FaultPlan, ResourceGovernor};
use smt::solver::{check, SatResult, SolverKind};
use smt::term::{TermId, TermPool};

const NUM_VARS: usize = 3;
const BOX: i128 = 4;

/// Splitmix64: the same tiny deterministic generator the fuzz batteries
/// use, so failures are reproducible from the seed alone.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn int(&mut self, lo: i128, hi: i128) -> i128 {
        lo + (self.next() % ((hi - lo + 1) as u64)) as i128
    }
}

fn gen_formula(pool: &mut TermPool, vars: &[VarId], rng: &mut Rng, depth: u32) -> TermId {
    if depth == 0 || rng.below(3) == 0 {
        let k = rng.int(-6, 6);
        let coeffs: Vec<(VarId, i128)> = vars.iter().map(|&v| (v, rng.int(-3, 3))).collect();
        let e = LinExpr::from_terms(coeffs, k);
        let rel = if rng.below(4) == 0 {
            smt::Rel::Eq0
        } else {
            smt::Rel::Le0
        };
        return pool.atom(e, rel);
    }
    let a = gen_formula(pool, vars, rng, depth - 1);
    let b = gen_formula(pool, vars, rng, depth - 1);
    match rng.below(3) {
        0 => pool.and([a, b]),
        1 => pool.or([a, b]),
        _ => pool.not(a),
    }
}

/// One boxed random query: the formula for `seed` conjoined with box
/// bounds on every variable.
fn boxed_query(pool: &mut TermPool, seed: u64) -> TermId {
    let mut rng = Rng(seed);
    let vars: Vec<VarId> = (0..NUM_VARS).map(|i| pool.var(&format!("v{i}"))).collect();
    let t = gen_formula(pool, &vars, &mut rng, 3);
    let mut parts = vec![t];
    for &v in &vars {
        parts.push(pool.ge_const(v, -BOX));
        parts.push(pool.le_const(v, BOX));
    }
    pool.and(parts)
}

fn solve_audited(seed: u64) -> (CdclSolver, CdclOutcome) {
    let mut pool = TermPool::new();
    pool.set_memoization(false);
    let q = boxed_query(&mut pool, seed);
    let mut s = CdclSolver::new();
    s.enable_audit();
    s.add_assertion(&pool, q, 0);
    let out = s.solve(&ResourceGovernor::unlimited());
    (s, out)
}

/// Watch invariant at every fixpoint, watch-list structure after every
/// backjump, monotone trail levels, and 1UIP assertingness — all
/// audited in-flight by the solver; the battery requires every violation
/// tally to be zero and the interesting events to actually occur.
#[test]
fn audited_invariants_hold_across_battery() {
    let mut backjumps = 0u64;
    let mut fixpoints = 0u64;
    let mut learned = 0u64;
    let mut restarts = 0u64;
    for seed in 0..400u64 {
        let (s, _) = solve_audited(seed);
        let a = s.audit_report().expect("audit enabled").clone();
        assert_eq!(a.watch_violations, 0, "seed {seed}: watch invariant");
        assert_eq!(a.structure_violations, 0, "seed {seed}: watch lists");
        assert_eq!(a.trail_violations, 0, "seed {seed}: trail levels");
        assert_eq!(a.non_asserting_learned, 0, "seed {seed}: 1UIP");
        // The search state is reset after solve; the structural half of
        // the invariant must also hold on the quiesced solver.
        s.check_watch_invariants()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        backjumps += a.backjumps;
        fixpoints += a.fixpoint_checks;
        learned += a.learned;
        restarts += a.restarts;
    }
    // The battery must actually exercise the paths it audits.
    assert!(backjumps > 0, "no backjumps across the battery");
    assert!(fixpoints > 0, "no fixpoint checks across the battery");
    assert!(learned > 0, "no learned clauses across the battery");
    let _ = restarts; // restarts are schedule-dependent; tracked, not required
}

/// A tiny propositional DPLL over [`Lit`] clauses (unit propagation plus
/// chronological branching) used to certify learned-clause implication.
fn prop_sat(assign: &mut [Option<bool>], clauses: &[Vec<Lit>]) -> bool {
    loop {
        let mut unit: Option<Lit> = None;
        for c in clauses {
            let mut satisfied = false;
            let mut unassigned = None;
            let mut open = 0usize;
            for &l in c {
                match assign[l.var() as usize] {
                    Some(v) if v == l.is_pos() => {
                        satisfied = true;
                        break;
                    }
                    None => {
                        open += 1;
                        unassigned = Some(l);
                    }
                    _ => {}
                }
            }
            if satisfied {
                continue;
            }
            match open {
                0 => return false,
                1 => {
                    unit = unassigned;
                    break;
                }
                _ => {}
            }
        }
        match unit {
            Some(l) => assign[l.var() as usize] = Some(l.is_pos()),
            None => break,
        }
    }
    let branch = clauses
        .iter()
        .flatten()
        .map(|l| l.var())
        .find(|&v| assign[v as usize].is_none());
    match branch {
        None => true,
        Some(v) => [true, false].into_iter().any(|val| {
            let mut child = assign.to_vec();
            child[v as usize] = Some(val);
            prop_sat(&mut child, clauses)
        }),
    }
}

/// Every clause learned by conflict analysis must be propositionally
/// implied by the non-learned clauses (input gates plus theory lemmas):
/// base ∧ ¬C is unsatisfiable. Theory lemmas count as premises because
/// resolution may pass through them; they are valid outright, so the
/// certificate stays sound.
#[test]
fn learned_clauses_are_implied_by_input() {
    let mut checked = 0usize;
    for seed in 0..400u64 {
        let (s, _) = solve_audited(seed);
        let infos = s.clause_infos();
        let base: Vec<Vec<Lit>> = infos
            .iter()
            .filter(|c| !c.learned)
            .map(|c| c.lits.clone())
            .collect();
        for c in infos.iter().filter(|c| c.learned) {
            let mut query = base.clone();
            for &l in &c.lits {
                query.push(vec![l.negate()]);
            }
            let mut assign = vec![None; s.num_vars()];
            assert!(
                !prop_sat(&mut assign, &query),
                "seed {seed}: learned clause {:?} not implied by the input",
                c.lits
            );
            checked += 1;
        }
        if checked >= 200 {
            break;
        }
    }
    assert!(checked > 0, "battery produced no learned clauses");
}

/// Finds a seed whose query needs at least `want` conflicts under an
/// unlimited governor, so budget tests below have a guaranteed mid-search
/// cancellation point.
fn seed_with_conflicts(want: u64) -> (u64, u64) {
    for seed in 0..2000u64 {
        let (s, _) = solve_audited(seed);
        if s.conflicts() >= want {
            return (seed, s.conflicts());
        }
    }
    panic!("no seed with ≥{want} conflicts in range");
}

/// A [`Category::CdclConflicts`] budget trips the governor mid-search;
/// the pool (and a fresh governor) must then produce the same definitive
/// verdict the legacy engine reports — cancellation must not corrupt any
/// pool state the next query reads.
#[test]
fn governor_cancellation_mid_search_leaves_pool_reusable() {
    let (seed, conflicts) = seed_with_conflicts(3);
    assert!(conflicts >= 3);

    let mut pool = TermPool::new();
    pool.set_memoization(false);
    let q = boxed_query(&mut pool, seed);
    pool.set_solver_kind(SolverKind::Cdcl);

    // Cancellation at the second conflict.
    let budgeted = ResourceGovernor::builder()
        .budget(Category::CdclConflicts, 1)
        .build();
    pool.set_governor(budgeted.clone());
    let out = check(&mut pool, &[q]);
    assert!(
        matches!(out, SatResult::Unknown),
        "budgeted run must stay conservative, got {out:?}"
    );
    let give_up = budgeted.give_up().expect("governor tripped");
    assert_eq!(give_up.category, Category::CdclConflicts);

    // Same pool, fresh governor: the verdict must be definitive and
    // agree with the legacy engine on an untouched pool.
    pool.set_governor(ResourceGovernor::unlimited());
    let retried = check(&mut pool, &[q]);

    let mut fresh = TermPool::new();
    fresh.set_memoization(false);
    let q2 = boxed_query(&mut fresh, seed);
    fresh.set_solver_kind(SolverKind::Dpll);
    let legacy = check(&mut fresh, &[q2]);
    match (&retried, &legacy) {
        (SatResult::Sat(_), SatResult::Sat(_)) | (SatResult::Unsat, SatResult::Unsat) => {}
        other => panic!("retry after cancellation diverged: {other:?}"),
    }
}

/// Deterministic fault injection ([`FaultKind::Unknown`]) at an exact
/// conflict count: same contract as the budget trip, through the fault
/// plan the supervisor uses for crash drills.
#[test]
fn injected_fault_mid_conflict_analysis_is_conservative() {
    let (seed, _) = seed_with_conflicts(3);
    let mut pool = TermPool::new();
    pool.set_memoization(false);
    let q = boxed_query(&mut pool, seed);
    pool.set_solver_kind(SolverKind::Cdcl);

    let plan = FaultPlan::new().with(Category::CdclConflicts, 2, FaultKind::Unknown);
    let faulty = ResourceGovernor::builder().fault_plan(plan).build();
    pool.set_governor(faulty);
    let out = check(&mut pool, &[q]);
    assert!(
        matches!(out, SatResult::Unknown),
        "fault injection must stay conservative, got {out:?}"
    );

    pool.set_governor(ResourceGovernor::unlimited());
    let retried = check(&mut pool, &[q]);
    assert!(
        !matches!(retried, SatResult::Unknown),
        "pool must recover a definitive verdict after the injected fault"
    );
}
