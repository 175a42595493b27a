//! Human-readable rendering of counterexample traces.
//!
//! A violating interleaving is a sequence of statements from different
//! threads; the renderings here show *which thread moves when* — the
//! classic one-column-per-thread layout used in concurrency papers
//! (including the τ₁/τ₂/τ₃ examples of §2).

use program::concurrent::{LetterId, Program};
use std::fmt::Write as _;

/// Renders `trace` as a table with one column per thread; each row has the
/// statement in the column of its executing thread.
pub fn render_columns(program: &Program, trace: &[LetterId]) -> String {
    let n = program.num_threads();
    // Column widths: max label length per thread (min 8).
    let mut widths: Vec<usize> = (0..n)
        .map(|i| program.threads()[i].name().len().max(8))
        .collect();
    for &l in trace {
        let t = program.thread_of(l).index();
        widths[t] = widths[t].max(program.statement(l).label().len());
    }
    let mut out = String::new();
    // Header.
    for (i, t) in program.threads().iter().enumerate() {
        let _ = write!(out, "| {:w$} ", t.name(), w = widths[i]);
    }
    out.push_str("|\n");
    for (i, _) in program.threads().iter().enumerate() {
        let _ = write!(out, "|{:-<w$}", "", w = widths[i] + 2);
    }
    out.push_str("|\n");
    for &l in trace {
        let t = program.thread_of(l).index();
        for (i, &w) in widths.iter().enumerate() {
            if i == t {
                let _ = write!(out, "| {:w$} ", program.statement(l).label(), w = w);
            } else {
                let _ = write!(out, "| {:w$} ", "", w = w);
            }
        }
        out.push_str("|\n");
    }
    out
}

/// Summarizes a trace as the number of context switches it contains — the
/// metric sequentialization-for-bug-finding tools bound (§9's related
/// work); minimal-representative traces tend to have few.
pub fn context_switches(program: &Program, trace: &[LetterId]) -> usize {
    trace
        .windows(2)
        .filter(|w| program.thread_of(w[0]) != program.thread_of(w[1]))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::bitset::BitSet;
    use automata::dfa::DfaBuilder;
    use program::stmt::{SimpleStmt, Statement};
    use program::thread::{Thread, ThreadId};
    use smt::linear::LinExpr;
    use smt::term::TermPool;

    fn two_thread_program(pool: &mut TermPool) -> Program {
        let mut b = Program::builder("t");
        let x = pool.var("x");
        b.add_global(x, 0);
        let l0 = b.add_statement(Statement::simple(
            ThreadId(0),
            "x := 1",
            SimpleStmt::Assign(x, LinExpr::constant(1)),
            pool,
        ));
        let l1 = b.add_statement(Statement::simple(
            ThreadId(1),
            "x := 2",
            SimpleStmt::Assign(x, LinExpr::constant(2)),
            pool,
        ));
        for l in [l0, l1] {
            let mut cfg = DfaBuilder::new();
            let entry = cfg.add_state(false);
            let exit = cfg.add_state(true);
            cfg.add_transition(entry, l, exit);
            b.add_thread(Thread::new("worker", cfg.build(entry), BitSet::new(2)));
        }
        b.build(pool)
    }

    #[test]
    fn column_rendering_places_statements_in_their_thread() {
        let mut pool = TermPool::new();
        let p = two_thread_program(&mut pool);
        let s = render_columns(&p, &[LetterId(1), LetterId(0)]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4, "header + rule + 2 rows");
        // First step is thread 1: its label is in the second column.
        let row = lines[2];
        let second_col = row.split('|').nth(2).unwrap();
        assert!(second_col.contains("x := 2"), "{row}");
        let first_col = row.split('|').nth(1).unwrap();
        assert!(first_col.trim().is_empty());
    }

    #[test]
    fn context_switch_count() {
        let mut pool = TermPool::new();
        let p = two_thread_program(&mut pool);
        assert_eq!(context_switches(&p, &[]), 0);
        assert_eq!(context_switches(&p, &[LetterId(0)]), 0);
        assert_eq!(context_switches(&p, &[LetterId(0), LetterId(1)]), 1);
        assert_eq!(
            context_switches(&p, &[LetterId(0), LetterId(1), LetterId(0)]),
            2
        );
    }
}
