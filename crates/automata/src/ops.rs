//! Language-level operations on DFAs: difference, inclusion and
//! equivalence.
//!
//! The proof check of the paper reduces to a language inclusion between the
//! reduction automaton and the Floyd/Hoare proof automaton; [`is_subset_of`]
//! is the offline version of that check, which the certificate checker runs
//! and the tests use to validate the on-the-fly algorithm.

use crate::dfa::{Dfa, DfaBuilder, StateId};
use std::collections::HashMap;
use std::hash::Hash;

/// A DFA for `L(a) \ L(b)`, built over the reachable product states only.
///
/// The second automaton is implicitly totalized with a rejecting sink, so a
/// word that falls off `b` stays in the difference.
pub fn difference<L: Copy + Eq + Ord + Hash>(a: &Dfa<L>, b: &Dfa<L>) -> Dfa<L> {
    /// Product state: second component `None` is the implicit sink of `b`.
    type PState = (StateId, Option<StateId>);

    let accepting = |(p, q): PState| a.is_accepting(p) && !q.is_some_and(|q| b.is_accepting(q));

    let mut builder = DfaBuilder::new();
    let mut ids: HashMap<PState, StateId> = HashMap::new();
    let start: PState = (a.initial(), Some(b.initial()));
    let start_id = builder.add_state(accepting(start));
    ids.insert(start, start_id);
    let mut work = vec![start];

    while let Some((p, q)) = work.pop() {
        let from = ids[&(p, q)];
        for (l, pt) in a.edges(p) {
            let next: PState = (pt, q.and_then(|q| b.step(q, l)));
            let to = match ids.get(&next) {
                Some(&id) => id,
                None => {
                    let id = builder.add_state(accepting(next));
                    ids.insert(next, id);
                    work.push(next);
                    id
                }
            };
            builder.add_transition(from, l, to);
        }
    }
    builder.build(start_id)
}

/// `true` iff `L(a) ⊆ L(b)`.
pub fn is_subset_of<L: Copy + Eq + Ord + Hash>(a: &Dfa<L>, b: &Dfa<L>) -> bool {
    difference(a, b).is_empty()
}

/// `true` iff `L(a) = L(b)`.
pub fn are_equivalent<L: Copy + Eq + Ord + Hash>(a: &Dfa<L>, b: &Dfa<L>) -> bool {
    is_subset_of(a, b) && is_subset_of(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::DfaBuilder;

    /// Words over {a, b} with an even number of `a`s.
    fn even_a() -> Dfa<char> {
        let mut b = DfaBuilder::new();
        let q0 = b.add_state(true);
        let q1 = b.add_state(false);
        b.add_transition(q0, 'a', q1);
        b.add_transition(q1, 'a', q0);
        b.add_transition(q0, 'b', q0);
        b.add_transition(q1, 'b', q1);
        b.build(q0)
    }

    /// Words over {a, b} ending in `b` (or empty... no: non-empty, last is b).
    fn ends_in_b() -> Dfa<char> {
        let mut b = DfaBuilder::new();
        let q0 = b.add_state(false);
        let q1 = b.add_state(true);
        b.add_transition(q0, 'a', q0);
        b.add_transition(q0, 'b', q1);
        b.add_transition(q1, 'a', q0);
        b.add_transition(q1, 'b', q1);
        b.build(q0)
    }

    #[test]
    fn inclusion_holds_for_difference() {
        let d = difference(&even_a(), &ends_in_b());
        assert!(is_subset_of(&d, &even_a()));
        assert!(!is_subset_of(&d, &ends_in_b()));
        assert!(!is_subset_of(&even_a(), &ends_in_b()));
    }

    #[test]
    fn equivalence_reflexive_and_distinguishes() {
        assert!(are_equivalent(&even_a(), &even_a()));
        assert!(!are_equivalent(&even_a(), &ends_in_b()));
    }

    #[test]
    fn difference_with_partial_second_operand() {
        // b-automaton accepts only "a"; difference must keep "aa", "b", ...
        let mut bb = DfaBuilder::new();
        let q0 = bb.add_state(false);
        let q1 = bb.add_state(true);
        bb.add_transition(q0, 'a', q1);
        let just_a = bb.build(q0);

        let d = difference(&even_a(), &just_a);
        assert!(d.accepts("".chars()));
        assert!(d.accepts("aa".chars()));
        assert!(d.accepts("b".chars()));
        assert!(!d.accepts("a".chars())); // not in even_a anyway
    }
}
