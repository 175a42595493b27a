//! Bounded language exploration: word enumeration and bounded language
//! equality.
//!
//! The reduction soundness/minimality property tests (§4 of the paper)
//! compare *languages up to a length bound*; these helpers implement that
//! comparison without constructing product automata.

use crate::dfa::{Dfa, StateId};
use std::collections::VecDeque;
use std::hash::Hash;

/// All words over `alphabet` of length at most `max_len`, in length-then-lex
/// order. Intended for small alphabets/bounds in tests.
///
/// # Example
///
/// ```
/// use automata::explore::enumerate_words;
/// let words = enumerate_words(&['a', 'b'], 2);
/// assert_eq!(words.len(), 1 + 2 + 4);
/// ```
pub fn enumerate_words<L: Copy>(alphabet: &[L], max_len: usize) -> Vec<Vec<L>> {
    let mut out: Vec<Vec<L>> = vec![Vec::new()];
    let mut frontier: Vec<Vec<L>> = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::with_capacity(frontier.len() * alphabet.len());
        for w in &frontier {
            for &l in alphabet {
                let mut v = w.clone();
                v.push(l);
                next.push(v);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

/// All words accepted by `dfa` with length at most `max_len`, via BFS over
/// runs (only reachable prefixes are expanded).
pub fn accepted_words<L: Copy + Eq + Ord + Hash>(dfa: &Dfa<L>, max_len: usize) -> Vec<Vec<L>> {
    let mut out = Vec::new();
    let mut queue: VecDeque<(StateId, Vec<L>)> = VecDeque::new();
    queue.push_back((dfa.initial(), Vec::new()));
    while let Some((q, w)) = queue.pop_front() {
        if dfa.is_accepting(q) {
            out.push(w.clone());
        }
        if w.len() == max_len {
            continue;
        }
        for (l, t) in dfa.edges(q) {
            let mut v = w.clone();
            v.push(l);
            queue.push_back((t, v));
        }
    }
    out
}

/// `true` iff the two automata accept exactly the same words of length at
/// most `max_len`.
pub fn bounded_equal<L: Copy + Eq + Ord + Hash>(a: &Dfa<L>, b: &Dfa<L>, max_len: usize) -> bool {
    let mut wa = accepted_words(a, max_len);
    let mut wb = accepted_words(b, max_len);
    wa.sort();
    wb.sort();
    wa == wb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::DfaBuilder;

    fn a_star_b() -> Dfa<char> {
        // a* b
        let mut bld = DfaBuilder::new();
        let q0 = bld.add_state(false);
        let q1 = bld.add_state(true);
        bld.add_transition(q0, 'a', q0);
        bld.add_transition(q0, 'b', q1);
        bld.build(q0)
    }

    #[test]
    fn enumerate_counts() {
        assert_eq!(enumerate_words(&['x'], 3).len(), 4);
        assert_eq!(enumerate_words(&['a', 'b', 'c'], 2).len(), 1 + 3 + 9);
    }

    #[test]
    fn accepted_words_of_a_star_b() {
        let words = accepted_words(&a_star_b(), 3);
        assert_eq!(words, vec![vec!['b'], vec!['a', 'b'], vec!['a', 'a', 'b'],]);
    }

    #[test]
    fn bounded_equality() {
        assert!(bounded_equal(&a_star_b(), &a_star_b(), 5));
        let mut bld = DfaBuilder::new();
        let q0 = bld.add_state(false);
        let q1 = bld.add_state(true);
        bld.add_transition(q0, 'b', q1);
        let just_b = bld.build(q0);
        assert!(!bounded_equal(&a_star_b(), &just_b, 2));
        assert!(
            bounded_equal(&a_star_b(), &just_b, 1),
            "equal up to length 1"
        );
    }
}
