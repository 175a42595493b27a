//! The combined space-efficient reduction `(S⋖(A))↓πS` (§6.2, Thm. 6.6),
//! built explicitly.
//!
//! The verifier never materializes this automaton — Algorithm 2 constructs
//! it on the fly during the proof check — but the explicit construction is
//! what the language-theoretic experiments (reduction sizes, Thm. 7.2's
//! linear bound) and the soundness/minimality property tests run on. It is
//! also the crate's only sleep-set construction: with `use_persistent`
//! off it yields the sleep set automaton `S⋖(P)` of §5 (Def. 5.1).

use crate::order::{OrderContext, PreferenceOrder};
use crate::persistent::{MembraneMode, PersistentSets};
use automata::bitset::BitSet;
use automata::dfa::{Dfa, DfaBuilder, StateId};
use program::commutativity::CommutativityOracle;
use program::concurrent::{LetterId, ProductState, Program, Spec};
use smt::term::TermPool;
use std::collections::HashMap;

/// Which reduction machinery to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReductionConfig {
    /// Apply sleep sets (language-minimality, §5).
    pub use_sleep: bool,
    /// Apply weakly persistent membranes (state pruning, §6).
    pub use_persistent: bool,
    /// Safety bound on constructed states.
    pub max_states: usize,
}

impl Default for ReductionConfig {
    fn default() -> Self {
        ReductionConfig {
            use_sleep: true,
            use_persistent: true,
            max_states: 1_000_000,
        }
    }
}

/// Builds the reduction automaton of `program` for `spec` under `order`.
///
/// With both flags on this is `(S⋖(P))↓πS` — language-minimal *and*
/// space-efficient (Thm. 6.6); with only `use_sleep` it is the sleep set
/// automaton `S⋖(P)` (§5); with only `use_persistent` a plain π-reduction;
/// with neither, the interleaving product itself.
///
/// For [`Spec::ErrorOf`] the construction stops expanding at accepting
/// states: every extension of an accepted word is subsumed by the shorter
/// witness for the purposes of verification.
///
/// # Panics
///
/// Panics if more than `config.max_states` states are constructed.
pub fn reduction_automaton(
    pool: &mut TermPool,
    program: &Program,
    spec: Spec,
    order: &dyn PreferenceOrder,
    oracle: &mut CommutativityOracle,
    config: ReductionConfig,
) -> Dfa<LetterId> {
    type RState = (ProductState, BitSet, OrderContext);

    let membrane_mode = match spec {
        Spec::PrePost => MembraneMode::Terminal,
        Spec::ErrorOf(t) => MembraneMode::ErrorThread(t),
    };
    let persistent = config
        .use_persistent
        .then(|| PersistentSets::new(pool, program, oracle));

    let n_letters = program.num_letters();
    let mut builder = DfaBuilder::new();
    let mut ids: HashMap<RState, StateId> = HashMap::new();

    let start: RState = (program.initial_state(), BitSet::new(n_letters), 0);
    let start_id = builder.add_state(program.is_accepting(&start.0, spec));
    ids.insert(start.clone(), start_id);
    let mut work = vec![start];

    while let Some((q, sleep, ctx)) = work.pop() {
        let from = ids[&(q.clone(), sleep.clone(), ctx)];
        if matches!(spec, Spec::ErrorOf(_)) && program.is_accepting(&q, spec) {
            continue; // stop at accepting states in assert mode
        }
        let enabled = program.enabled(&q);
        // π(q) restriction (πS = π(q) \ S is applied below together with
        // the sleep filter).
        let explore: Vec<LetterId> = match &persistent {
            Some(ps) => ps.compute(program, &q, order, ctx, membrane_mode),
            None => enabled.clone(),
        };
        for &a in &explore {
            if config.use_sleep && sleep.contains(a.index()) {
                continue;
            }
            let target = program.step(&q, a).expect("explored letter is enabled");
            let next_sleep = if config.use_sleep {
                let mut s = BitSet::new(n_letters);
                for &b in &enabled {
                    let earlier = sleep.contains(b.index()) || order.less(ctx, b, a, program);
                    if earlier && oracle.commute(pool, program, a, b) {
                        s.insert(b.index());
                    }
                }
                s
            } else {
                BitSet::new(n_letters)
            };
            let next_ctx = order.step(ctx, a, program);
            let key: RState = (target, next_sleep, next_ctx);
            let to = match ids.get(&key) {
                Some(&id) => id,
                None => {
                    assert!(
                        builder.num_states() < config.max_states,
                        "reduction automaton exceeded {} states",
                        config.max_states
                    );
                    let id = builder.add_state(program.is_accepting(&key.0, spec));
                    ids.insert(key.clone(), id);
                    work.push(key);
                    id
                }
            };
            builder.add_transition(from, a, to);
        }
    }
    builder.build(start_id)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::mazurkiewicz::{check_reduction_minimal, check_reduction_sound};
    use crate::order::{LockstepOrder, RandomOrder, SeqOrder};
    use automata::dfa::DfaBuilder as CfgBuilder;
    use automata::explore::{accepted_words, bounded_equal};
    use program::commutativity::CommutativityLevel;
    use program::stmt::{SimpleStmt, Statement};
    use program::thread::{Thread, ThreadId};
    use smt::linear::LinExpr;

    /// n threads, each writing its own variable k times in sequence — full
    /// commutativity across threads.
    fn independent(pool: &mut TermPool, n: u32, k: u32) -> Program {
        let mut b = Program::builder("ind");
        let mut letters = Vec::new();
        for t in 0..n {
            let v = pool.var(&format!("x{t}"));
            b.add_global(v, 0);
            let ls: Vec<LetterId> = (0..k)
                .map(|s| {
                    b.add_statement(Statement::simple(
                        ThreadId(t),
                        &format!("w{t}.{s}"),
                        SimpleStmt::Assign(v, LinExpr::constant(i128::from(s) + 1)),
                        pool,
                    ))
                })
                .collect();
            letters.push(ls);
        }
        for ls in &letters {
            let mut cfg = CfgBuilder::new();
            let entry = cfg.add_state(ls.is_empty());
            let mut prev = entry;
            for (s, &l) in ls.iter().enumerate() {
                let next = cfg.add_state(s + 1 == ls.len());
                cfg.add_transition(prev, l, next);
                prev = next;
            }
            b.add_thread(Thread::new(
                "t",
                cfg.build(entry),
                BitSet::new(ls.len() + 1),
            ));
        }
        b.build(pool)
    }

    /// The sleep set automaton `S⋖(P)` (§5, Def. 5.1): sleep sets without
    /// membranes.
    fn sleep_set_automaton(
        pool: &mut TermPool,
        p: &Program,
        order: &dyn PreferenceOrder,
        oracle: &mut CommutativityOracle,
    ) -> Dfa<LetterId> {
        let config = ReductionConfig {
            use_sleep: true,
            use_persistent: false,
            max_states: 100_000,
        };
        reduction_automaton(pool, p, Spec::PrePost, order, oracle, config)
    }

    /// Figure 2a: each thread loops `a_i b_i` and can exit with `c_i`; all
    /// variables are private, so commutativity is full.
    fn figure2a(pool: &mut TermPool) -> Program {
        let mut b = Program::builder("fig2a");
        let mut letters = Vec::new();
        for t in 0..2u32 {
            let v = pool.var(&format!("p{t}"));
            b.add_global(v, 0);
            let a = b.add_statement(Statement::simple(
                ThreadId(t),
                &format!("a{t}"),
                SimpleStmt::Assign(v, LinExpr::constant(1)),
                pool,
            ));
            let bb = b.add_statement(Statement::simple(
                ThreadId(t),
                &format!("b{t}"),
                SimpleStmt::Assign(v, LinExpr::constant(2)),
                pool,
            ));
            let c = b.add_statement(Statement::simple(
                ThreadId(t),
                &format!("c{t}"),
                SimpleStmt::Assign(v, LinExpr::constant(3)),
                pool,
            ));
            letters.push((a, bb, c));
        }
        for t in 0..2usize {
            let (a, bb, c) = letters[t];
            let mut cfg = CfgBuilder::new();
            let l1 = cfg.add_state(false);
            let l2 = cfg.add_state(false);
            let l3 = cfg.add_state(true);
            cfg.add_transition(l1, a, l2);
            cfg.add_transition(l2, bb, l1);
            cfg.add_transition(l1, c, l3);
            b.add_thread(Thread::new("t", cfg.build(l1), BitSet::new(3)));
        }
        b.build(pool)
    }

    fn full_commute(p: &Program) -> impl Fn(LetterId, LetterId) -> bool + Copy + '_ {
        |a, b| p.thread_of(a) != p.thread_of(b)
    }

    #[test]
    fn combined_equals_sleep_language_thm_6_6() {
        let mut pool = TermPool::new();
        let p = figure2a(&mut pool);
        let mut oracle = CommutativityOracle::new(CommutativityLevel::Syntactic);
        let sleep_only = sleep_set_automaton(&mut pool, &p, &SeqOrder::new(), &mut oracle);
        let combined = reduction_automaton(
            &mut pool,
            &p,
            Spec::PrePost,
            &SeqOrder::new(),
            &mut oracle,
            ReductionConfig::default(),
        );
        assert!(
            bounded_equal(&sleep_only, &combined, 8),
            "π-reduction must not change the recognized reduction"
        );
        assert!(
            combined.num_states() <= sleep_only.num_states(),
            "π-reduction prunes states: {} vs {}",
            combined.num_states(),
            sleep_only.num_states()
        );
    }

    #[test]
    fn reduction_sound_and_minimal_for_all_orders() {
        let mut pool = TermPool::new();
        let p = figure2a(&mut pool);
        let full = p.explicit_product(Spec::PrePost);
        let mut oracle = CommutativityOracle::new(CommutativityLevel::Syntactic);
        let commute = full_commute(&p);
        for order in [
            Box::new(SeqOrder::new()) as Box<dyn PreferenceOrder>,
            Box::new(LockstepOrder::new()),
            Box::new(RandomOrder::new(1)),
            Box::new(RandomOrder::new(2)),
        ] {
            let red = reduction_automaton(
                &mut pool,
                &p,
                Spec::PrePost,
                order.as_ref(),
                &mut oracle,
                ReductionConfig::default(),
            );
            let bound = 6;
            let full_words = accepted_words(&full, bound);
            let red_words = accepted_words(&red, bound);
            // Soundness needs care at the bound: a class whose minimal
            // representative is longer than the bound can't witness. Here
            // all classes have equal-length members, so this is exact.
            check_reduction_sound(&full_words, &red_words, commute)
                .unwrap_or_else(|w| panic!("unsound under {}: {w:?}", order.name()));
            check_reduction_minimal(&red_words, commute)
                .unwrap_or_else(|(u, v)| panic!("redundant under {}: {u:?} {v:?}", order.name()));
        }
    }

    #[test]
    fn lockstep_reduction_picks_round_robin_representative() {
        let mut pool = TermPool::new();
        let p = figure2a(&mut pool);
        let mut oracle = CommutativityOracle::new(CommutativityLevel::Syntactic);
        let red = reduction_automaton(
            &mut pool,
            &p,
            Spec::PrePost,
            &LockstepOrder::new(),
            &mut oracle,
            ReductionConfig::default(),
        );
        // Letters: thread 0 = {a0=0, b0=1, c0=2}, thread 1 = {a1=3, b1=4, c1=5}.
        let (a0, b0, c0) = (LetterId(0), LetterId(1), LetterId(2));
        let (a1, b1, c1) = (LetterId(3), LetterId(4), LetterId(5));
        // Figure 2b: the lockstep word a0 a1 b0 b1 c0 c1 is accepted...
        assert!(red.accepts([a0, a1, b0, b1, c0, c1].iter().copied()));
        // ...and the fully sequential equivalent word is not.
        assert!(!red.accepts([a0, b0, c0, a1, b1, c1].iter().copied()));
    }

    #[test]
    fn thm_7_2_linear_size_under_seq_order() {
        // Under a thread-uniform non-positional order and full
        // commutativity, the combined automaton has O(size(P)) states,
        // while the product has exponentially many.
        let mut pool = TermPool::new();
        let mut reduced_sizes = Vec::new();
        for n in 1..=6u32 {
            let p = independent(&mut pool, n, 1);
            let mut oracle = CommutativityOracle::new(CommutativityLevel::Syntactic);
            let red = reduction_automaton(
                &mut pool,
                &p,
                Spec::PrePost,
                &SeqOrder::new(),
                &mut oracle,
                ReductionConfig::default(),
            );
            reduced_sizes.push((p.size(), red.num_states()));
        }
        for &(size, states) in &reduced_sizes {
            assert!(
                states <= size,
                "expected ≤ size(P) = {size} states, got {states}"
            );
        }
        // The product for n = 6 has 2^6 = 64 states; the reduction has 7.
        assert_eq!(reduced_sizes[5].1, 7);
    }

    #[test]
    fn no_reduction_flags_gives_the_product() {
        let mut pool = TermPool::new();
        let p = independent(&mut pool, 3, 1);
        let mut oracle = CommutativityOracle::new(CommutativityLevel::Syntactic);
        let none = reduction_automaton(
            &mut pool,
            &p,
            Spec::PrePost,
            &SeqOrder::new(),
            &mut oracle,
            ReductionConfig {
                use_sleep: false,
                use_persistent: false,
                max_states: 100_000,
            },
        );
        let product = p.explicit_product(Spec::PrePost);
        assert!(bounded_equal(&none, &product, 4));
        assert_eq!(none.num_states(), product.num_states());
    }

    #[test]
    fn persistent_only_is_sound_but_not_minimal_in_general() {
        let mut pool = TermPool::new();
        let p = figure2a(&mut pool);
        let full = p.explicit_product(Spec::PrePost);
        let mut oracle = CommutativityOracle::new(CommutativityLevel::Syntactic);
        let red = reduction_automaton(
            &mut pool,
            &p,
            Spec::PrePost,
            &SeqOrder::new(),
            &mut oracle,
            ReductionConfig {
                use_sleep: false,
                use_persistent: true,
                max_states: 100_000,
            },
        );
        let commute = full_commute(&p);
        let bound = 6;
        check_reduction_sound(
            &accepted_words(&full, bound),
            &accepted_words(&red, bound),
            commute,
        )
        .expect("π-reduction alone is sound");
    }

    /// Figure 3's shape: two threads of two letters each, all cross-thread
    /// letters commuting (distinct variables).
    #[test]
    fn figure3_sleep_set_prunes_paths_not_states() {
        let mut pool = TermPool::new();
        let p = independent(&mut pool, 2, 2);
        let product = p.explicit_product(Spec::PrePost);
        let mut oracle = CommutativityOracle::new(CommutativityLevel::Syntactic);
        let sleep = sleep_set_automaton(&mut pool, &p, &SeqOrder::new(), &mut oracle);
        // Exactly one representative per class: the full language of 2+2
        // interleavings is C(4,2) = 6 words; the reduction keeps 1.
        let full = accepted_words(&product, 4);
        assert_eq!(full.len(), 6);
        let reduced = accepted_words(&sleep, 4);
        assert_eq!(reduced.len(), 1, "full commutativity: single class");
        // Under seq order the representative is thread 0 first.
        assert_eq!(
            reduced[0],
            vec![LetterId(0), LetterId(1), LetterId(2), LetterId(3)]
        );
    }

    #[test]
    fn sleep_reduction_is_sound_and_minimal() {
        let mut pool = TermPool::new();
        let p = independent(&mut pool, 3, 1);
        let product = p.explicit_product(Spec::PrePost);
        let mut oracle = CommutativityOracle::new(CommutativityLevel::Syntactic);
        for order in [
            Box::new(SeqOrder::new()) as Box<dyn PreferenceOrder>,
            Box::new(RandomOrder::new(3)),
        ] {
            let sleep = sleep_set_automaton(&mut pool, &p, order.as_ref(), &mut oracle);
            let full = accepted_words(&product, 3);
            let reduced = accepted_words(&sleep, 3);
            check_reduction_sound(&full, &reduced, full_commute(&p)).expect("sound");
            check_reduction_minimal(&reduced, full_commute(&p)).expect("minimal");
            assert_eq!(reduced.len(), 1);
        }
    }

    #[test]
    fn dependent_letters_are_not_pruned() {
        // Two threads writing the SAME variable: nothing commutes, the
        // reduction is the full language.
        let mut pool = TermPool::new();
        let mut b = Program::builder("conflict");
        let x = pool.var("x");
        b.add_global(x, 0);
        let l0 = b.add_statement(Statement::simple(
            ThreadId(0),
            "x := 1",
            SimpleStmt::Assign(x, LinExpr::constant(1)),
            &pool,
        ));
        let l1 = b.add_statement(Statement::simple(
            ThreadId(1),
            "x := 2",
            SimpleStmt::Assign(x, LinExpr::constant(2)),
            &pool,
        ));
        for l in [l0, l1] {
            let mut cfg = CfgBuilder::new();
            let entry = cfg.add_state(false);
            let exit = cfg.add_state(true);
            cfg.add_transition(entry, l, exit);
            b.add_thread(Thread::new("t", cfg.build(entry), BitSet::new(2)));
        }
        let p = b.build(&mut pool);
        let mut oracle = CommutativityOracle::new(CommutativityLevel::Semantic);
        let sleep = sleep_set_automaton(&mut pool, &p, &SeqOrder::new(), &mut oracle);
        assert_eq!(accepted_words(&sleep, 2).len(), 2, "both orders kept");
    }

    #[test]
    fn sleep_states_can_exceed_input_states() {
        // Unrolling duplicates states (the paper notes sleep sets do not
        // reduce the state count).
        let mut pool = TermPool::new();
        let p = independent(&mut pool, 2, 2);
        let product = p.explicit_product(Spec::PrePost);
        let mut oracle = CommutativityOracle::new(CommutativityLevel::Syntactic);
        let sleep = sleep_set_automaton(&mut pool, &p, &SeqOrder::new(), &mut oracle);
        assert!(
            sleep.num_states() >= product.num_states() - 2,
            "sleep construction does not shrink the state space: {} vs {}",
            sleep.num_states(),
            product.num_states()
        );
        // And it contains useless (non-co-reachable) states — the problem
        // persistent sets solve (§6).
        let useless = sleep.num_states() - sleep.trim().num_states();
        assert!(useless > 0, "expected sleep-set-blocked states");
    }
}
