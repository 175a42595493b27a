//! Cross-pool term translation.
//!
//! [`TermId`]s are indices into one [`TermPool`]'s hash-cons table, so they
//! are meaningless in any other pool. To carry a term from one pool to
//! another — a recycled proof assertion into a retry attempt, a
//! certificate's assertions into the checker — a term is *exported* into
//! the pool-independent [`ExportedTerm`] representation (variables are
//! identified by name, constraints by their coefficient lists) and
//! *imported* on the receiving side, re-interning variables and re-running
//! the pool's normalizing constructors.
//!
//! The representation is plain data (`String`/`i128`/`Vec`), hence `Send`,
//! which is what lets canonical query-cache keys be shared by the daemon's
//! worker threads.
//!
//! Beyond crossing threads, an [`ExportedTerm`] also crosses *processes*:
//! [`ExportedTerm::to_text`] renders a stable, versionless s-expression
//! line and [`ExportedTerm::parse`] reads it back. This is the on-disk
//! format of the supervisor's crash-safe checkpoints — a harvested proof
//! assertion written by one `seqver` process is re-imported bit-for-bit by
//! the resuming one.

use crate::linear::{LinExpr, Rel};
use crate::term::{Term, TermId, TermPool};
use std::fmt::Write as _;

/// A pool-independent serialization of a term.
///
/// Structurally mirrors [`Term`], but atoms carry variable *names* instead of
/// pool-relative [`crate::VarId`]s, and connectives own their children
/// instead of referencing interned ids.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExportedTerm {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// A linear constraint `sum(coeff * var) + constant REL 0`.
    Atom {
        /// Named variables with their coefficients, in the exporting pool's
        /// normalized order.
        coeffs: Vec<(String, i128)>,
        /// The constant term of the linear expression.
        constant: i128,
        /// The constraint relation (`≤ 0` or `= 0`).
        rel: Rel,
    },
    /// Conjunction of the children.
    And(Vec<ExportedTerm>),
    /// Disjunction of the children.
    Or(Vec<ExportedTerm>),
}

/// Writes a variable name as a `|…|`-quoted token, escaping `\` and `|`.
fn quote_name(out: &mut String, name: &str) {
    out.push('|');
    for c in name.chars() {
        if c == '\\' || c == '|' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('|');
}

fn rel_token(rel: Rel) -> &'static str {
    match rel {
        Rel::Le0 => "le0",
        Rel::Eq0 => "eq0",
    }
}

/// Token stream over the textual term format.
struct Lexer<'a> {
    rest: &'a str,
}

/// One token of the textual term format.
#[derive(Debug, PartialEq, Eq)]
enum Token {
    Open,
    Close,
    /// A bare word: keyword, relation or integer.
    Word(String),
    /// A `|…|`-quoted variable name, unescaped.
    Name(String),
}

impl<'a> Lexer<'a> {
    fn new(s: &'a str) -> Lexer<'a> {
        Lexer { rest: s }
    }

    fn next(&mut self) -> Result<Option<Token>, String> {
        self.rest = self.rest.trim_start();
        let mut chars = self.rest.chars();
        let Some(first) = chars.next() else {
            return Ok(None);
        };
        match first {
            '(' => {
                self.rest = &self.rest[1..];
                Ok(Some(Token::Open))
            }
            ')' => {
                self.rest = &self.rest[1..];
                Ok(Some(Token::Close))
            }
            '|' => {
                let mut name = String::new();
                let mut consumed = 1; // opening '|'
                let mut escaped = false;
                for c in chars {
                    consumed += c.len_utf8();
                    if escaped {
                        name.push(c);
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '|' {
                        self.rest = &self.rest[consumed..];
                        return Ok(Some(Token::Name(name)));
                    } else {
                        name.push(c);
                    }
                }
                Err("unterminated |…| variable name".to_owned())
            }
            _ => {
                let end = self
                    .rest
                    .find(|c: char| c.is_whitespace() || c == '(' || c == ')' || c == '|')
                    .unwrap_or(self.rest.len());
                let (word, rest) = self.rest.split_at(end);
                self.rest = rest;
                Ok(Some(Token::Word(word.to_owned())))
            }
        }
    }

    fn expect(&mut self, want: Token) -> Result<(), String> {
        match self.next()? {
            Some(t) if t == want => Ok(()),
            other => Err(format!("expected {want:?}, found {other:?}")),
        }
    }
}

impl ExportedTerm {
    /// Renders the term as a single-line s-expression, stable across
    /// processes and releases:
    ///
    /// ```text
    /// true | false
    /// (atom le0|eq0 <constant> (|name| <coeff>)*)
    /// (and <term>*) | (or <term>*)
    /// ```
    ///
    /// Variable names are `|…|`-quoted with `\`-escapes, so arbitrary
    /// names survive the round trip. [`ExportedTerm::parse`] inverts this
    /// exactly: `parse(t.to_text()) == Ok(t)`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            ExportedTerm::True => out.push_str("true"),
            ExportedTerm::False => out.push_str("false"),
            ExportedTerm::Atom {
                coeffs,
                constant,
                rel,
            } => {
                let _ = write!(out, "(atom {} {constant}", rel_token(*rel));
                for (name, k) in coeffs {
                    out.push_str(" (");
                    quote_name(out, name);
                    let _ = write!(out, " {k})");
                }
                out.push(')');
            }
            ExportedTerm::And(children) | ExportedTerm::Or(children) => {
                out.push('(');
                out.push_str(if matches!(self, ExportedTerm::And(_)) {
                    "and"
                } else {
                    "or"
                });
                for c in children {
                    out.push(' ');
                    c.write(out);
                }
                out.push(')');
            }
        }
    }

    /// Parses the [`ExportedTerm::to_text`] format back.
    pub fn parse(s: &str) -> Result<ExportedTerm, String> {
        let mut lexer = Lexer::new(s);
        let term = ExportedTerm::parse_term(&mut lexer)?;
        match lexer.next()? {
            None => Ok(term),
            Some(t) => Err(format!("trailing input after term: {t:?}")),
        }
    }

    fn parse_term(lexer: &mut Lexer<'_>) -> Result<ExportedTerm, String> {
        match lexer.next()? {
            Some(Token::Word(w)) if w == "true" => Ok(ExportedTerm::True),
            Some(Token::Word(w)) if w == "false" => Ok(ExportedTerm::False),
            Some(Token::Open) => {
                let head = match lexer.next()? {
                    Some(Token::Word(w)) => w,
                    other => return Err(format!("expected atom/and/or, found {other:?}")),
                };
                match head.as_str() {
                    "atom" => ExportedTerm::parse_atom(lexer),
                    "and" | "or" => {
                        let mut children = Vec::new();
                        loop {
                            let mut probe = Lexer { rest: lexer.rest };
                            if probe.next()? == Some(Token::Close) {
                                lexer.rest = probe.rest;
                                break;
                            }
                            children.push(ExportedTerm::parse_term(lexer)?);
                        }
                        Ok(if head == "and" {
                            ExportedTerm::And(children)
                        } else {
                            ExportedTerm::Or(children)
                        })
                    }
                    other => Err(format!("unknown term head `{other}`")),
                }
            }
            other => Err(format!("expected a term, found {other:?}")),
        }
    }

    fn parse_atom(lexer: &mut Lexer<'_>) -> Result<ExportedTerm, String> {
        let rel = match lexer.next()? {
            Some(Token::Word(w)) if w == "le0" => Rel::Le0,
            Some(Token::Word(w)) if w == "eq0" => Rel::Eq0,
            other => return Err(format!("expected le0/eq0, found {other:?}")),
        };
        let constant: i128 = match lexer.next()? {
            Some(Token::Word(w)) => w
                .parse()
                .map_err(|_| format!("invalid atom constant `{w}`"))?,
            other => return Err(format!("expected atom constant, found {other:?}")),
        };
        let mut coeffs = Vec::new();
        loop {
            match lexer.next()? {
                Some(Token::Close) => {
                    return Ok(ExportedTerm::Atom {
                        coeffs,
                        constant,
                        rel,
                    })
                }
                Some(Token::Open) => {
                    let name = match lexer.next()? {
                        Some(Token::Name(n)) => n,
                        other => return Err(format!("expected |name|, found {other:?}")),
                    };
                    let k: i128 = match lexer.next()? {
                        Some(Token::Word(w)) => w
                            .parse()
                            .map_err(|_| format!("invalid coefficient `{w}`"))?,
                        other => return Err(format!("expected coefficient, found {other:?}")),
                    };
                    lexer.expect(Token::Close)?;
                    coeffs.push((name, k));
                }
                other => return Err(format!("expected (|name| coeff) or ), found {other:?}")),
            }
        }
    }
}

impl TermPool {
    /// Serializes `id` into a pool-independent [`ExportedTerm`].
    pub fn export(&self, id: TermId) -> ExportedTerm {
        match self.term(id) {
            Term::True => ExportedTerm::True,
            Term::False => ExportedTerm::False,
            Term::Atom(c) => {
                // Pool-internal coefficient order follows VarId numbering,
                // which differs between pools; sort by name so structurally
                // equal terms export identically from any pool.
                let mut coeffs: Vec<_> = c
                    .expr()
                    .terms()
                    .iter()
                    .map(|&(v, k)| (self.var_name(v).to_owned(), k))
                    .collect();
                coeffs.sort();
                ExportedTerm::Atom {
                    coeffs,
                    constant: c.expr().constant_term(),
                    rel: c.rel(),
                }
            }
            Term::And(children) => {
                ExportedTerm::And(children.iter().map(|&c| self.export(c)).collect())
            }
            Term::Or(children) => {
                ExportedTerm::Or(children.iter().map(|&c| self.export(c)).collect())
            }
        }
    }

    /// Re-interns an [`ExportedTerm`] in this pool.
    ///
    /// Variables are resolved by name (created on first sight), and the
    /// normalizing `atom`/`and`/`or` constructors run again, so the result is
    /// hash-consed exactly as if the term had been built here natively. In
    /// particular `import(export(t)) == t` within one pool.
    pub fn import(&mut self, term: &ExportedTerm) -> TermId {
        match term {
            ExportedTerm::True => TermPool::TRUE,
            ExportedTerm::False => TermPool::FALSE,
            ExportedTerm::Atom {
                coeffs,
                constant,
                rel,
            } => {
                let resolved: Vec<_> = coeffs
                    .iter()
                    .map(|(name, k)| (self.var(name), *k))
                    .collect();
                self.atom(LinExpr::from_terms(resolved, *constant), *rel)
            }
            ExportedTerm::And(children) => {
                let ids: Vec<_> = children.iter().map(|c| self.import(c)).collect();
                self.and(ids)
            }
            ExportedTerm::Or(children) => {
                let ids: Vec<_> = children.iter().map(|c| self.import(c)).collect();
                self.or(ids)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{check, SatResult};

    fn sample_term(pool: &mut TermPool) -> TermId {
        let x = pool.var("x");
        let y = pool.var("y");
        let a = pool.le(&LinExpr::var(x), &LinExpr::constant(5));
        let b = pool.ge(
            &LinExpr::var(y),
            &LinExpr::var(x).add(&LinExpr::constant(1)),
        );
        let c = pool.eq_const(x, 3);
        let ab = pool.and([a, b]);
        pool.or([ab, c])
    }

    #[test]
    fn exported_term_is_send_and_static() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<ExportedTerm>();
    }

    #[test]
    fn round_trip_same_pool_is_identity() {
        let mut pool = TermPool::new();
        let t = sample_term(&mut pool);
        let exported = pool.export(t);
        assert_eq!(pool.import(&exported), t);
        assert_eq!(pool.import(&ExportedTerm::True), TermPool::TRUE);
        assert_eq!(pool.import(&ExportedTerm::False), TermPool::FALSE);
    }

    #[test]
    fn round_trip_across_pools_preserves_structure() {
        let mut a = TermPool::new();
        let t = sample_term(&mut a);
        let exported = a.export(t);

        // A pool with a different variable numbering: interning unrelated
        // variables first shifts every VarId the import will allocate.
        let mut b = TermPool::new();
        b.var("unrelated");
        b.var("y"); // note: y before x, opposite of pool `a`
        let imported = b.import(&exported);

        assert_eq!(b.export(imported), exported);
        // Shipping the term back into the original pool reproduces `t`
        // exactly (hash-consing makes this an id-level identity).
        assert_eq!(a.import(&b.export(imported)), t);
    }

    #[test]
    fn round_trip_preserves_satisfiability() {
        let mut a = TermPool::new();
        let x = a.var("x");
        let y = a.var("y");

        // Satisfiable: x <= 5 && y = x + 1.
        let sat1 = a.le(&LinExpr::var(x), &LinExpr::constant(5));
        let sat2 = a.eq(
            &LinExpr::var(y),
            &LinExpr::var(x).add(&LinExpr::constant(1)),
        );
        // Unsatisfiable: x <= 2 && x >= 4.
        let unsat1 = a.le(&LinExpr::var(x), &LinExpr::constant(2));
        let unsat2 = a.ge(&LinExpr::var(x), &LinExpr::constant(4));

        let mut b = TermPool::new();
        b.var("z"); // shift variable numbering
        let (s1, s2, u1, u2) = (
            b.import(&a.export(sat1)),
            b.import(&a.export(sat2)),
            b.import(&a.export(unsat1)),
            b.import(&a.export(unsat2)),
        );

        assert!(matches!(check(&mut b, &[s1, s2]), SatResult::Sat(_)));
        assert!(matches!(check(&mut b, &[u1, u2]), SatResult::Unsat));
        // Same verdicts as in the original pool.
        assert!(matches!(check(&mut a, &[sat1, sat2]), SatResult::Sat(_)));
        assert!(matches!(check(&mut a, &[unsat1, unsat2]), SatResult::Unsat));
    }

    #[test]
    fn text_round_trip_is_identity() {
        let mut pool = TermPool::new();
        let t = sample_term(&mut pool);
        let exported = pool.export(t);
        let text = exported.to_text();
        assert_eq!(ExportedTerm::parse(&text), Ok(exported.clone()));
        // Through a fresh pool: text → term → import gives the same
        // hash-consed id as importing the original export.
        let mut b = TermPool::new();
        let reparsed = ExportedTerm::parse(&text).unwrap();
        assert_eq!(b.import(&reparsed), b.import(&exported));
        assert_eq!(ExportedTerm::parse("true"), Ok(ExportedTerm::True));
        assert_eq!(ExportedTerm::parse(" false "), Ok(ExportedTerm::False));
    }

    #[test]
    fn text_round_trip_escapes_hostile_names() {
        let hostile = ExportedTerm::Atom {
            coeffs: vec![
                ("pipe|in|name".into(), 1),
                ("back\\slash".into(), -2),
                ("sp ace (paren)".into(), 3),
            ],
            constant: -7,
            rel: Rel::Eq0,
        };
        let text = hostile.to_text();
        assert_eq!(ExportedTerm::parse(&text), Ok(hostile));
    }

    #[test]
    fn text_round_trip_nested_connectives() {
        let t = ExportedTerm::Or(vec![
            ExportedTerm::And(vec![
                ExportedTerm::True,
                ExportedTerm::Atom {
                    coeffs: vec![("x".into(), 1)],
                    constant: -5,
                    rel: Rel::Le0,
                },
            ]),
            ExportedTerm::And(vec![]),
            ExportedTerm::False,
        ]);
        assert_eq!(ExportedTerm::parse(&t.to_text()), Ok(t));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "(atom le0)",
            "(atom le0 x)",
            "(atom ge0 1)",
            "(and true",
            "(atom le0 1 (|x| 1)) trailing",
            "(bogus)",
            "(atom le0 1 (|unterminated 1))",
            "true false",
        ] {
            assert!(ExportedTerm::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn import_rebuilds_through_normalizing_constructors() {
        // A hand-built ExportedTerm whose atom is not normalized (gcd 2) and
        // whose conjunction contains `true`: import must normalize both.
        let raw = ExportedTerm::And(vec![
            ExportedTerm::True,
            ExportedTerm::Atom {
                coeffs: vec![("v".into(), 2)],
                constant: -4,
                rel: Rel::Le0,
            },
        ]);
        let mut pool = TermPool::new();
        let id = pool.import(&raw);
        // 2v - 4 <= 0 normalizes to v - 2 <= 0, and the `true` conjunct drops.
        assert_eq!(pool.display(id), {
            let v = pool.var("v");
            let expect = pool.le_const(v, 2);
            pool.display(expect)
        });
    }
}
