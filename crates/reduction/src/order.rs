//! Preference orders (§4): total orders on the statement alphabet, possibly
//! varying with a finite context.
//!
//! A *positional lexicographic preference order* (Def. 4.5) lets the
//! underlying letter order depend on the prefix read so far, tracked by a
//! finite automaton. Here the context automaton is folded into the order
//! object: an [`OrderContext`] evolves via [`PreferenceOrder::step`] and
//! determines the current letter ranking via [`PreferenceOrder::rank`].
//! Classic (non-positional) orders simply ignore the context.
//!
//! Implemented orders (matching the paper's evaluation, §8):
//!
//! * [`SeqOrder`] — thread-uniform: approximates sequential composition of
//!   threads (Thm. 4.3 guarantees a linear-size reduction under full
//!   commutativity);
//! * [`LockstepOrder`] — positional: after a step of thread `i`, thread `i`
//!   is rotated to the back, approximating lockstep scheduling
//!   (Example 4.6);
//! * [`RandomOrder`] — a pseudo-random but fixed permutation of the
//!   alphabet, seeded for reproducibility.

use program::concurrent::{LetterId, Program};

/// Finite context of a positional order; `0` is the initial context.
pub type OrderContext = u64;

/// A (possibly positional) preference order on the program alphabet.
///
/// For each context, [`PreferenceOrder::rank`] must be injective on letters
/// — it induces the total strict order `a <q b ⇔ rank(q, a) < rank(q, b)`.
///
/// Implementations must be plain shareable data (`Send + Sync`), so that
/// engines holding them can run on portfolio worker threads; every method
/// takes `&self`.
pub trait PreferenceOrder: Send + Sync {
    /// A short name for reports (e.g. `"seq"`, `"lockstep"`, `"rand(1)"`).
    fn name(&self) -> &str;

    /// `true` if the order genuinely depends on the context.
    fn is_positional(&self) -> bool;

    /// The context after reading `letter` in `ctx`.
    fn step(&self, ctx: OrderContext, letter: LetterId, program: &Program) -> OrderContext;

    /// The rank of `letter` in context `ctx` (smaller = more preferred).
    fn rank(&self, ctx: OrderContext, letter: LetterId, program: &Program) -> u64;

    /// Convenience: `a <q b` in context `ctx`.
    fn less(&self, ctx: OrderContext, a: LetterId, b: LetterId, program: &Program) -> bool {
        self.rank(ctx, a, program) < self.rank(ctx, b, program)
    }
}

/// Thread-uniform lexicographic order: letters are ranked by owning thread
/// first (lower thread id preferred), then by letter id.
///
/// Under full commutativity the induced reduction is the sequential
/// composition of the threads (Thm. 4.3), recognized by a linear-size DFA.
#[derive(Clone, Debug, Default)]
pub struct SeqOrder;

impl SeqOrder {
    /// Creates the order.
    pub fn new() -> SeqOrder {
        SeqOrder
    }
}

impl PreferenceOrder for SeqOrder {
    fn name(&self) -> &str {
        "seq"
    }

    fn is_positional(&self) -> bool {
        false
    }

    fn step(&self, ctx: OrderContext, _letter: LetterId, _program: &Program) -> OrderContext {
        ctx
    }

    fn rank(&self, _ctx: OrderContext, letter: LetterId, program: &Program) -> u64 {
        let thread = program.thread_of(letter).0 as u64;
        (thread << 32) | letter.0 as u64
    }
}

/// Positional order approximating lockstep scheduling (Example 4.6).
///
/// The context records the thread that moved last (plus one; 0 = none).
/// That thread's letters are ranked after all other threads', so minimal
/// representatives rotate through the threads.
#[derive(Clone, Debug, Default)]
pub struct LockstepOrder;

impl LockstepOrder {
    /// Creates the order.
    pub fn new() -> LockstepOrder {
        LockstepOrder
    }
}

impl PreferenceOrder for LockstepOrder {
    fn name(&self) -> &str {
        "lockstep"
    }

    fn is_positional(&self) -> bool {
        true
    }

    fn step(&self, _ctx: OrderContext, letter: LetterId, program: &Program) -> OrderContext {
        program.thread_of(letter).0 as u64 + 1
    }

    fn rank(&self, ctx: OrderContext, letter: LetterId, program: &Program) -> u64 {
        let n = program.num_threads() as u64;
        let thread = program.thread_of(letter).0 as u64;
        // Rotate so that the thread recorded in ctx comes last.
        let rotated = match ctx {
            0 => thread,
            last_plus_one => (thread + n - last_plus_one.min(n)) % n.max(1),
        };
        (rotated << 32) | letter.0 as u64
    }
}

/// A thread-uniform order with an explicit thread priority permutation:
/// `priority[t]` is the rank of thread `t` (lower = more preferred).
/// Generalizes [`SeqOrder`] (which is the identity permutation); useful
/// for steering the reduction toward a particular scheduling discipline.
#[derive(Clone, Debug)]
pub struct PriorityOrder {
    priority: Vec<u32>,
    name: String,
}

impl PriorityOrder {
    /// Creates the order from a thread-priority table.
    ///
    /// # Panics
    ///
    /// Panics if `priority` is not a permutation of `0..n`.
    pub fn new(priority: Vec<u32>) -> PriorityOrder {
        let mut sorted = priority.clone();
        sorted.sort_unstable();
        assert!(
            sorted.iter().enumerate().all(|(i, &p)| p == i as u32),
            "priority table must be a permutation of 0..n"
        );
        let name = format!(
            "priority({})",
            priority
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        PriorityOrder { priority, name }
    }
}

impl PreferenceOrder for PriorityOrder {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_positional(&self) -> bool {
        false
    }

    fn step(&self, ctx: OrderContext, _letter: LetterId, _program: &Program) -> OrderContext {
        ctx
    }

    fn rank(&self, _ctx: OrderContext, letter: LetterId, program: &Program) -> u64 {
        let thread = program.thread_of(letter).0 as usize;
        let rank = self.priority.get(thread).copied().unwrap_or(thread as u32) as u64;
        (rank << 32) | letter.0 as u64
    }
}

/// A fixed pseudo-random permutation of the alphabet (non-positional),
/// derived from a seed via SplitMix64 — fully deterministic and
/// reproducible across runs.
#[derive(Clone, Debug)]
pub struct RandomOrder {
    seed: u64,
    name: String,
}

impl RandomOrder {
    /// Creates the order for `seed`.
    pub fn new(seed: u64) -> RandomOrder {
        RandomOrder {
            seed,
            name: format!("rand({seed})"),
        }
    }
}

/// SplitMix64 finalizer — a high-quality 64-bit mixing function.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl PreferenceOrder for RandomOrder {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_positional(&self) -> bool {
        false
    }

    fn step(&self, ctx: OrderContext, _letter: LetterId, _program: &Program) -> OrderContext {
        ctx
    }

    fn rank(&self, _ctx: OrderContext, letter: LetterId, _program: &Program) -> u64 {
        // Injective per letter: mix then append the letter id in the low
        // bits to break any (astronomically unlikely) hash collision.
        (splitmix(self.seed ^ (letter.0 as u64).wrapping_mul(0x2545f4914f6cdd1d)) << 24)
            | letter.0 as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::bitset::BitSet;
    use automata::dfa::DfaBuilder;
    use program::stmt::{SimpleStmt, Statement};
    use program::thread::{Thread, ThreadId};
    use smt::term::TermPool;

    /// Three threads with two letters each.
    fn program() -> (TermPool, Program) {
        let mut pool = TermPool::new();
        let mut b = Program::builder("p");
        let mut letters = Vec::new();
        for t in 0..3u32 {
            let v = pool.var(&format!("x{t}"));
            b.add_global(v, 0);
            for s in 0..2 {
                letters.push(b.add_statement(Statement::simple(
                    ThreadId(t),
                    &format!("t{t}s{s}"),
                    SimpleStmt::Havoc(v),
                    &pool,
                )));
            }
        }
        for t in 0..3usize {
            let mut cfg = DfaBuilder::new();
            let q0 = cfg.add_state(false);
            let q1 = cfg.add_state(false);
            let q2 = cfg.add_state(true);
            cfg.add_transition(q0, letters[2 * t], q1);
            cfg.add_transition(q1, letters[2 * t + 1], q2);
            b.add_thread(Thread::new("t", cfg.build(q0), BitSet::new(3)));
        }
        let p = b.build(&mut pool);
        (pool, p)
    }

    #[test]
    fn seq_order_is_thread_uniform() {
        let (_, p) = program();
        let o = SeqOrder::new();
        // Every letter of thread 0 precedes every letter of thread 1, etc.
        for a in 0..2u32 {
            for b in 2..6u32 {
                assert!(o.less(0, LetterId(a), LetterId(b), &p));
            }
        }
        assert!(!o.is_positional());
        assert_eq!(o.step(0, LetterId(3), &p), 0);
    }

    #[test]
    fn rank_is_injective_per_context() {
        let (_, p) = program();
        let orders: Vec<Box<dyn PreferenceOrder>> = vec![
            Box::new(SeqOrder::new()),
            Box::new(LockstepOrder::new()),
            Box::new(RandomOrder::new(7)),
        ];
        for o in &orders {
            for ctx in 0..4u64 {
                let mut ranks: Vec<u64> = (0..6u32).map(|l| o.rank(ctx, LetterId(l), &p)).collect();
                ranks.sort_unstable();
                ranks.dedup();
                assert_eq!(ranks.len(), 6, "order {} ctx {ctx}", o.name());
            }
        }
    }

    #[test]
    fn lockstep_rotates_last_thread_to_back() {
        let (_, p) = program();
        let o = LockstepOrder::new();
        // Initially thread 0 first.
        assert!(o.less(0, LetterId(0), LetterId(2), &p));
        // After a step of thread 0 (letter 0), thread 0 goes last.
        let ctx = o.step(0, LetterId(0), &p);
        assert!(
            o.less(ctx, LetterId(2), LetterId(0), &p),
            "thread 1 now preferred"
        );
        assert!(
            o.less(ctx, LetterId(4), LetterId(0), &p),
            "thread 2 now preferred"
        );
        // After a step of thread 1, thread 2 is first, thread 1 last.
        let ctx2 = o.step(ctx, LetterId(2), &p);
        assert!(o.less(ctx2, LetterId(4), LetterId(2), &p));
        assert!(o.less(ctx2, LetterId(0), LetterId(2), &p));
        assert!(o.is_positional());
    }

    #[test]
    fn random_orders_differ_by_seed_and_are_stable() {
        let (_, p) = program();
        let o1 = RandomOrder::new(1);
        let o2 = RandomOrder::new(2);
        let ranks = |o: &RandomOrder| -> Vec<u64> {
            (0..6u32).map(|l| o.rank(0, LetterId(l), &p)).collect()
        };
        assert_eq!(ranks(&o1), ranks(&o1), "deterministic");
        assert_ne!(ranks(&o1), ranks(&o2), "seeds give different permutations");
        assert_eq!(o1.name(), "rand(1)");
    }
}
