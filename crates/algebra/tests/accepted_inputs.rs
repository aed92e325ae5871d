//! Pins which token edge cases the algebra's textual syntax accepts, and
//! where it reports the ones it rejects. Each case puts one edge token in
//! a program; a rejected case names the byte span of that token, and the
//! reported error offset must fall inside it.

use std::ops::Range;

use tm_algebra::{parse_program, AlgebraError};

enum Expect {
    Accept,
    /// Rejected, with the error offset inside this byte span.
    Reject(Range<usize>),
}

use Expect::{Accept, Reject};

const CASES: &[(&str, Expect)] = &[
    // CL spellings that are not RA tokens.
    ("alarm(select[#0 <> 1](r))", Reject(16..18)),
    ("alarm(select[#0 -> 1](r))", Reject(16..18)),
    ("alarm(select[#0 => 1](r))", Reject(16..18)),
    ("alarm(select[#0 == 1](r))", Reject(16..18)),
    ("t := r.s", Reject(6..7)),
    ("alarm(select[#0 = 1.](r))", Reject(19..21)),
    // Tokens RA uses.
    ("alarm(select[#0 = 1.5](r))", Accept),
    ("alarm(select[#0 = 1](r))", Accept),
    ("alarm(select[#0 = ?0](r))", Accept),
    ("t := r", Accept),
    ("insert(r, {(1, 2)})", Accept),
    ("t := r; insert(s, t)", Accept),
    ("alarm(x@ins)", Accept),
    // Neither language's.
    ("alarm(select[#0 % 2 = 1](r))", Reject(16..17)),
    ("alarm(select[#0 = 'abc](r))", Reject(18..19)),
    // The other language's phrases at the start of a statement.
    ("<> 1", Reject(0..2)),
    ("x == y", Reject(2..4)),
    ("r -> s", Reject(2..4)),
    // A bad token where the parser expects a set operator, a literal
    // value or a column index is reported at that token, not after it.
    ("t := (r <> s)", Reject(8..10)),
    ("insert(r, {(1, x)})", Reject(15..16)),
    ("alarm(select[sum(r, x) > 1](r))", Reject(20..21)),
];

fn error_offset(e: &AlgebraError) -> usize {
    let text = e.to_string();
    let rest = text
        .split("at offset ")
        .nth(1)
        .unwrap_or_else(|| panic!("no offset in `{text}`"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

#[test]
fn token_edge_cases() {
    for (src, expect) in CASES {
        match (parse_program(src), expect) {
            (Ok(_), Accept) => {}
            (Err(e), Reject(span)) => {
                let at = error_offset(&e);
                assert!(
                    span.contains(&at),
                    "`{src}`: error at {at}, expected in {span:?}: {e}"
                );
            }
            (Ok(p), Reject(_)) => panic!("`{src}` was accepted as `{p}`"),
            (Err(e), Accept) => panic!("`{src}` was rejected: {e}"),
        }
    }
}
