//! Pins which token edge cases CL's textual syntax accepts, and where it
//! reports the ones it rejects. Each case puts one edge token in a
//! formula; a rejected case names the byte span of that token, and the
//! reported error offset must fall inside it. The error kind is pinned
//! where it is part of the contract: a character no language uses is a
//! lexical error, a misplaced token of the algebra's syntax is not pinned.

use std::ops::Range;

use tm_calculus::{parse_formula, CalculusError};

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Lex,
    Parse,
}

enum Expect {
    Accept,
    /// Rejected, with the error offset inside this byte span and, where
    /// given, this error kind.
    Reject(Range<usize>, Option<Kind>),
}

use Expect::{Accept, Reject};

const CASES: &[(&str, Expect)] = &[
    // CL spellings.
    ("forall x (x in r implies x.1 <> 1)", Accept),
    ("forall x (x in r -> x.1 > 0)", Accept),
    ("forall x (x in r => x.1 > 0)", Accept),
    (
        "forall x (x in r implies exists y (y in r and x == y))",
        Accept,
    ),
    ("forall x (x in r implies x.a > 0)", Accept),
    (
        "forall x (x in r implies x.1 > 1.)",
        Reject(32..34, Some(Kind::Parse)),
    ),
    ("forall x (x in r implies x.1 > 1.5)", Accept),
    ("forall x (x in r@ins implies x.1 > 0)", Accept),
    // The algebra's tokens.
    ("forall x (x in r implies #0 > 1)", Reject(25..27, None)),
    ("forall x (x in r implies x.1 > ?0)", Reject(31..33, None)),
    ("x := 1", Reject(2..4, None)),
    ("forall x (x in {r} implies x.1 > 0)", Reject(15..16, None)),
    ("forall x (x in r implies x.1 > 0);", Reject(33..34, None)),
    ("forall x (x in r[1] implies x.1 > 0)", Reject(16..17, None)),
    // A bad token where a comparison operator is expected is reported
    // at that token, not after it.
    ("x.1 := 1 = 1", Reject(4..6, Some(Kind::Parse))),
    // Neither language's.
    (
        "forall x (x in r implies x.1 % 2 = 1)",
        Reject(29..30, Some(Kind::Lex)),
    ),
    (
        "forall x (x in r implies x.1 = 'abc)",
        Reject(31..32, Some(Kind::Lex)),
    ),
    (
        "forall x (x in r implies x.1 = 1 ! 2)",
        Reject(33..34, Some(Kind::Lex)),
    ),
];

#[test]
fn token_edge_cases() {
    for (src, expect) in CASES {
        match (parse_formula(src), expect) {
            (Ok(_), Accept) => {}
            (Err(e), Reject(span, kind)) => {
                let (at, got) = match e {
                    CalculusError::Lex { offset, .. } => (offset, Kind::Lex),
                    CalculusError::Parse { offset, .. } => (offset, Kind::Parse),
                    other => panic!("`{src}`: not a syntax error: {other}"),
                };
                assert!(
                    span.contains(&at),
                    "`{src}`: error at {at}, expected in {span:?}: {e}"
                );
                if let Some(kind) = kind {
                    assert_eq!(got, *kind, "`{src}`: {e}");
                }
            }
            (Ok(f), Reject(..)) => panic!("`{src}` was accepted as `{f}`"),
            (Err(e), Accept) => panic!("`{src}` was rejected: {e}"),
        }
    }
}
