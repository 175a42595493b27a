//! Soundness of solver-level query memoization (`smt::qcache`): the pool
//! memo keyed on `TermId`, and the shared cross-pool cache.
//!
//! Memoization may only change *who computes* a verdict, never the
//! verdict: memoized checks must agree with fresh memo-free solves on
//! random term batteries, `Unknown` results must never be stored (so a
//! tripped governor cannot poison either tier), cross-pool hits must
//! survive the pool-independent canonicalization of the shared cache, and
//! the incremental [`AssertionScope`] must agree with cold per-assertion
//! checks.

use proptest::prelude::*;
use seqver::gemcutter::certify::{check_certificate, CertifyMode};
use seqver::gemcutter::verify::{verify, VerifierConfig};
use seqver::smt::solver::{check, AssertionScope, SatResult};
use seqver::smt::term::TermId;
use seqver::smt::{Category, QueryCache, ResourceGovernor, TermPool};
use std::path::Path;
use std::time::Duration;

/// `(variable index, relation, constant)` — one atom over `x0..x2`.
type AtomDesc = (usize, u8, i128);

fn atom_desc() -> impl Strategy<Value = AtomDesc> {
    (0usize..3, 0u8..3, -4i128..5)
}

/// A random formula in DNF shape: an `∨` of small `∧`s of atoms.
fn formula_desc() -> impl Strategy<Value = Vec<Vec<AtomDesc>>> {
    proptest::collection::vec(proptest::collection::vec(atom_desc(), 1..=3), 1..=3)
}

/// A battery of 1–3 assertions checked as a conjunction.
fn battery_desc() -> impl Strategy<Value = Vec<Vec<Vec<AtomDesc>>>> {
    proptest::collection::vec(formula_desc(), 1..=3)
}

fn build_atom(pool: &mut TermPool, (v, op, k): AtomDesc) -> TermId {
    let x = pool.var(&format!("x{v}"));
    match op {
        0 => pool.ge_const(x, k),
        1 => pool.le_const(x, k),
        _ => pool.eq_const(x, k),
    }
}

fn build_formula(pool: &mut TermPool, desc: &[Vec<AtomDesc>]) -> TermId {
    let disjuncts: Vec<TermId> = desc
        .iter()
        .map(|conj| {
            let atoms: Vec<TermId> = conj.iter().map(|&a| build_atom(pool, a)).collect();
            pool.and(atoms)
        })
        .collect();
    pool.or(disjuncts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Memoized checks (first run = misses, second run = memo hits,
    /// cross-pool run = shared canonical-key hits) all agree with a
    /// memo-free fresh solve, and every Sat model exactly satisfies the
    /// queried conjunction.
    #[test]
    fn cached_checks_agree_with_fresh_solves(battery in battery_desc()) {
        // Memo-free baseline.
        let mut base_pool = TermPool::new();
        base_pool.set_memoization(false);
        let base_terms: Vec<TermId> =
            battery.iter().map(|f| build_formula(&mut base_pool, f)).collect();
        let base = check(&mut base_pool, &base_terms);

        // Memoizing pool with a shared cache: miss pass, then hit pass.
        let shared = QueryCache::new();
        let mut pool = TermPool::new();
        pool.set_shared_cache(shared.clone());
        let terms: Vec<TermId> = battery.iter().map(|f| build_formula(&mut pool, f)).collect();
        let first = check(&mut pool, &terms);
        let second = check(&mut pool, &terms);
        prop_assert_eq!(first.is_sat(), base.is_sat());
        prop_assert_eq!(first.is_unsat(), base.is_unsat());
        prop_assert_eq!(second.is_sat(), base.is_sat());
        prop_assert_eq!(second.is_unsat(), base.is_unsat());
        let conj = pool.and(terms.iter().copied());
        for result in [&first, &second] {
            if let SatResult::Sat(m) = result {
                prop_assert!(
                    pool.eval(conj, &|v| m.value(v)),
                    "returned model does not satisfy the formula"
                );
            }
        }

        // Cross-pool: a second pool sharing the cache, interning the
        // battery in reverse order (different TermIds/VarIds), must agree.
        let mut other = TermPool::new();
        other.set_shared_cache(shared);
        let other_terms: Vec<TermId> =
            battery.iter().rev().map(|f| build_formula(&mut other, f)).collect();
        let third = check(&mut other, &other_terms);
        prop_assert_eq!(third.is_sat(), base.is_sat());
        prop_assert_eq!(third.is_unsat(), base.is_unsat());
        let other_conj = other.and(other_terms.iter().copied());
        if let SatResult::Sat(m) = &third {
            prop_assert!(other.eval(other_conj, &|v| m.value(v)));
        }
    }

    /// The incremental assertion scope answers exactly like a cold
    /// cache-free check of `prefix ∧ extra` for every extra assertion.
    #[test]
    fn scope_agrees_with_cold_checks(
        prefix in formula_desc(),
        extras in proptest::collection::vec(formula_desc(), 1..=4),
    ) {
        let mut pool = TermPool::new();
        let p = build_formula(&mut pool, &prefix);
        let mut scope = AssertionScope::new(&mut pool, &[p]);
        for e in &extras {
            let extra = build_formula(&mut pool, e);
            let scoped = scope.check(&mut pool, extra);
            let mut fresh = TermPool::new();
            fresh.set_memoization(false);
            let fp = build_formula(&mut fresh, &prefix);
            let fe = build_formula(&mut fresh, e);
            let cold = check(&mut fresh, &[fp, fe]);
            prop_assert_eq!(scoped.is_sat(), cold.is_sat(), "scope/cold sat mismatch");
            prop_assert_eq!(scoped.is_unsat(), cold.is_unsat(), "scope/cold unsat mismatch");
        }
    }
}

/// `Unknown` (here: a tripped step budget) is never stored in the memo or
/// the shared cache; once the governor is lifted the same query solves for
/// real and only then is it stored.
#[test]
fn unknown_is_never_cached() {
    let shared = QueryCache::new();
    let mut pool = TermPool::new();
    pool.set_shared_cache(shared.clone());
    let x = pool.var("x");
    let a = pool.ge_const(x, 0);
    let b = pool.le_const(x, 10);
    pool.set_governor(
        ResourceGovernor::builder()
            .budget(Category::DpllDecisions, 0)
            .build(),
    );
    assert_eq!(check(&mut pool, &[a, b]), SatResult::Unknown);
    let stats = pool.query_cache().expect("memo enabled").stats();
    assert_eq!(stats.insertions, 0, "Unknown must not be memoized");
    assert!(pool.query_cache().unwrap().is_empty());
    assert!(shared.is_empty(), "Unknown must not be shared");

    pool.set_governor(ResourceGovernor::unlimited());
    assert!(check(&mut pool, &[a, b]).is_sat());
    assert_eq!(pool.query_cache().unwrap().stats().insertions, 1);
    assert_eq!(shared.stats().insertions, 1);
}

/// A hit under an expired deadline degrades to `Unknown` — the lookup
/// charge still observes the governor, so deadlines fire on the hit path
/// of the memo and of the shared cache.
#[test]
fn hits_observe_the_deadline() {
    let shared = QueryCache::new();
    let mut pool = TermPool::new();
    pool.set_shared_cache(shared.clone());
    let x = pool.var("x");
    let a = pool.ge_const(x, 0);
    let b = pool.le_const(x, 10);
    assert!(check(&mut pool, &[a, b]).is_sat()); // warm both tiers
    pool.set_governor(ResourceGovernor::builder().deadline(Duration::ZERO).build());
    std::thread::sleep(Duration::from_millis(2));
    assert_eq!(
        check(&mut pool, &[a, b]),
        SatResult::Unknown,
        "a memoized verdict must not outrun an expired deadline"
    );
    assert_eq!(pool.query_cache().unwrap().stats().hits, 1);

    let mut other = TermPool::new();
    other.set_shared_cache(shared.clone());
    let x = other.var("x");
    let a = other.ge_const(x, 0);
    let b = other.le_const(x, 10);
    other.set_governor(ResourceGovernor::builder().deadline(Duration::ZERO).build());
    std::thread::sleep(Duration::from_millis(2));
    assert_eq!(
        check(&mut other, &[a, b]),
        SatResult::Unknown,
        "a shared verdict must not outrun an expired deadline"
    );
    assert_eq!(shared.stats().hits, 1);
}

/// Structurally equal queries from pools that interned variables and
/// terms in different orders share one entry of an explicitly installed
/// shared cache (Sat and Unsat).
#[test]
fn cross_pool_sharing_is_a_hit() {
    let cache = QueryCache::new();
    let mut a = TermPool::new();
    a.set_shared_cache(cache.clone());
    let x = a.var("x");
    let y = a.var("y");
    let f1 = a.ge_const(x, 3);
    let f2 = a.le_const(y, 7);
    assert!(check(&mut a, &[f1, f2]).is_sat());
    let u1 = a.le_const(x, 1);
    assert!(check(&mut a, &[f1, u1]).is_unsat());
    let warm = cache.stats();
    assert_eq!(warm.hits, 0);
    assert_eq!(warm.insertions, 2);

    // Second pool, opposite interning order, the same shared cache.
    let mut b = TermPool::new();
    b.set_shared_cache(cache.clone());
    let y2 = b.var("y");
    let x2 = b.var("x");
    let g2 = b.le_const(y2, 7);
    let g1 = b.ge_const(x2, 3);
    assert!(check(&mut b, &[g2, g1]).is_sat());
    let v1 = b.le_const(x2, 1);
    assert!(check(&mut b, &[v1, g1]).is_unsat());
    let shared = cache.stats();
    assert_eq!(
        shared.hits, 2,
        "pool-independent canonical keys must hit across pools"
    );
    assert_eq!(shared.insertions, 2, "hits must not re-insert");
}

/// `--no-qcache` semantics: a pool with memoization switched off never
/// consults or fills its memo, nor the shared cache installed on it.
#[test]
fn removed_handle_disables_memoization() {
    let cache = QueryCache::new();
    let mut pool = TermPool::new();
    pool.set_shared_cache(cache.clone());
    pool.set_memoization(false);
    assert!(pool.query_cache().is_none());
    let x = pool.var("x");
    let f = pool.ge_const(x, 3);
    let g = pool.le_const(x, 1);
    assert!(check(&mut pool, &[f, g]).is_unsat());
    assert!(check(&mut pool, &[f, g]).is_unsat());
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 0, 0));
    assert!(cache.is_empty());
    pool.set_memoization(true);
    let memo = pool.query_cache().expect("memo switched back on");
    let stats = memo.stats();
    assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 0, 0));
    assert!(memo.is_empty());
}

/// The `full` certificate audit re-discharges obligations with its own
/// DPLL calls: it neither reads nor fills the memo the engine filled on
/// the same pool, so it never reuses a verdict the engine computed.
#[test]
fn certificate_audit_leaves_the_memo_untouched() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/cpl/counter.cpl");
    let source = std::fs::read_to_string(path).unwrap();
    let mut pool = TermPool::new();
    let program = seqver::cpl::compile(&source, &mut pool).unwrap();
    let outcome = verify(&mut pool, &program, &VerifierConfig::gemcutter_seq());
    assert!(outcome.verdict.is_correct(), "{:?}", outcome.verdict);
    let cert = outcome
        .certificate
        .expect("a proven run carries a certificate");
    let memo = pool.query_cache().expect("memo enabled");
    let (before, len) = (memo.stats(), memo.len());
    assert!(len > 0, "the engine memoized its queries");
    let report = check_certificate(&mut pool, &program, &cert, CertifyMode::Full);
    assert!(report.ok, "{report}");
    assert!(report.checked > 0, "the audit re-discharged obligations");
    let memo = pool.query_cache().expect("the audit restores memoization");
    assert_eq!(
        (memo.stats(), memo.len()),
        (before, len),
        "the audit consulted or filled the memo"
    );
}
