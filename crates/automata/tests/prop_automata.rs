//! Property tests for the automata substrate: minimization, trimming and
//! the language operations are validated against bounded language
//! enumeration on random automata.

use automata::dfa::{Dfa, DfaBuilder, StateId};
use automata::explore::{accepted_words, bounded_equal, enumerate_words};
use automata::minimize::minimize;
use automata::ops::{are_equivalent, difference, is_subset_of};
use proptest::prelude::*;

const ALPHABET: [u8; 2] = [0, 1];
const BOUND: usize = 6;

/// Random DFA description: per state, an accepting flag and one optional
/// successor per letter.
#[derive(Clone, Debug)]
struct DfaDesc {
    accepting: Vec<bool>,
    // edges[state][letter] = Some(target)
    edges: Vec<Vec<Option<usize>>>,
}

fn dfa_desc(max_states: usize) -> impl Strategy<Value = DfaDesc> {
    (2..=max_states).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(
                proptest::collection::vec(proptest::option::of(0..n), ALPHABET.len()),
                n,
            ),
        )
            .prop_map(|(accepting, edges)| DfaDesc { accepting, edges })
    })
}

fn build(desc: &DfaDesc) -> Dfa<u8> {
    let mut b = DfaBuilder::new();
    let states: Vec<StateId> = desc.accepting.iter().map(|&a| b.add_state(a)).collect();
    for (s, row) in desc.edges.iter().enumerate() {
        for (l, target) in row.iter().enumerate() {
            if let Some(t) = target {
                b.add_transition(states[s], ALPHABET[l], states[*t]);
            }
        }
    }
    b.build(states[0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn minimization_preserves_language(desc in dfa_desc(6)) {
        let d = build(&desc);
        let m = minimize(&d);
        prop_assert!(bounded_equal(&d, &m, BOUND));
        prop_assert!(are_equivalent(&d, &m));
        prop_assert!(m.num_states() <= d.num_states().max(1));
        // Idempotence.
        let mm = minimize(&m);
        prop_assert_eq!(m.num_states(), mm.num_states());
    }

    #[test]
    fn difference_respects_semantics(a in dfa_desc(5), b in dfa_desc(5)) {
        let da = build(&a);
        let db = build(&b);
        let diff = difference(&da, &db);
        for w in enumerate_words(&ALPHABET, 5) {
            let wa = da.accepts(w.iter().copied());
            let wb = db.accepts(w.iter().copied());
            prop_assert_eq!(diff.accepts(w.iter().copied()), wa && !wb);
        }
    }

    #[test]
    fn inclusion_matches_enumeration(a in dfa_desc(5), b in dfa_desc(5)) {
        let da = build(&a);
        let db = build(&b);
        let included = is_subset_of(&da, &db);
        // Over the bound, inclusion must at least hold directionally.
        let wa = accepted_words(&da, BOUND);
        let all_in = wa.iter().all(|w| db.accepts(w.iter().copied()));
        if included {
            prop_assert!(all_in, "claimed ⊆ but a short word escapes");
        }
        // (all_in without `included` is possible: a longer word may escape.)
    }

    #[test]
    fn trim_preserves_language(desc in dfa_desc(6)) {
        let d = build(&desc);
        let t = d.trim();
        prop_assert!(bounded_equal(&d, &t, BOUND));
        prop_assert!(t.num_states() <= d.num_states().max(1));
    }
}
