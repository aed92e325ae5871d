//! The one lexer and token cursor under both textual languages: CL
//! formulas (`tm-calculus`) and algebra programs (`tm-algebra`).
//!
//! The token set is the union of the two; each grammar uses the part it
//! needs and rejects the rest as a parse error at the token's offset.
//! `docs/grammar.md` tabulates which tokens each grammar uses. Any other
//! character, a `#` or `?` without digits, a lone `:` or `!`, an
//! unterminated string and an integer out of `i64` range are lexical
//! errors.

use std::fmt;

use crate::ops::{ArithOp, CmpOp};
use crate::Value;

/// One token of either language.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword; may contain `@` after its first character.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Double literal (digits `.` digits).
    Double(f64),
    /// String literal in single or double quotes.
    Str(String),
    /// Column reference `#N`.
    Col(usize),
    /// Parameter placeholder `?N`.
    Param(usize),
    /// Comparison operator; `!=` is [`CmpOp::Ne`].
    Cmp(CmpOp),
    /// Arithmetic operator; `-` also negates.
    Arith(ArithOp),
    /// `<>`, CL's second spelling of `!=`.
    LtGt,
    /// `==`, CL's tuple equality.
    EqEq,
    /// `->` or `=>`, CL's implication.
    Arrow,
    /// `:=`
    Assign,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
}

/// Whether a syntax error was found by the lexer or by a grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntaxKind {
    /// The text does not split into tokens.
    Lex,
    /// The tokens do not form a phrase of the grammar.
    Parse,
}

/// A syntax error at a byte offset of the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError {
    /// Lexical or grammatical.
    pub kind: SyntaxKind,
    /// Byte offset of the offending token (the text's length at its end).
    pub offset: usize,
    /// What was expected or found.
    pub message: String,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SyntaxError {}

/// Result of lexing and parsing.
pub type SyntaxResult<T> = std::result::Result<T, SyntaxError>;

fn lex_err(offset: usize, message: impl Into<String>) -> SyntaxError {
    SyntaxError {
        kind: SyntaxKind::Lex,
        offset,
        message: message.into(),
    }
}

/// Split `src` into tokens with their byte offsets.
fn lex(src: &str) -> SyntaxResult<Vec<(Tok, usize)>> {
    let b = src.as_bytes();
    let digits_from = |j: usize| j + b[j..].iter().take_while(|c| c.is_ascii_digit()).count();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        let start = i;
        let next = b.get(i + 1).copied();
        let (tok, len) = match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
                continue;
            }
            '(' => (Tok::LParen, 1),
            ')' => (Tok::RParen, 1),
            '[' => (Tok::LBracket, 1),
            ']' => (Tok::RBracket, 1),
            '{' => (Tok::LBrace, 1),
            '}' => (Tok::RBrace, 1),
            ',' => (Tok::Comma, 1),
            ';' => (Tok::Semi, 1),
            '.' => (Tok::Dot, 1),
            '+' => (Tok::Arith(ArithOp::Add), 1),
            '*' => (Tok::Arith(ArithOp::Mul), 1),
            '/' => (Tok::Arith(ArithOp::Div), 1),
            '-' if next == Some(b'>') => (Tok::Arrow, 2),
            '-' => (Tok::Arith(ArithOp::Sub), 1),
            '<' if next == Some(b'=') => (Tok::Cmp(CmpOp::Le), 2),
            '<' if next == Some(b'>') => (Tok::LtGt, 2),
            '<' => (Tok::Cmp(CmpOp::Lt), 1),
            '>' if next == Some(b'=') => (Tok::Cmp(CmpOp::Ge), 2),
            '>' => (Tok::Cmp(CmpOp::Gt), 1),
            '=' if next == Some(b'=') => (Tok::EqEq, 2),
            '=' if next == Some(b'>') => (Tok::Arrow, 2),
            '=' => (Tok::Cmp(CmpOp::Eq), 1),
            '!' if next == Some(b'=') => (Tok::Cmp(CmpOp::Ne), 2),
            '!' => return Err(lex_err(start, "expected `!=`")),
            ':' if next == Some(b'=') => (Tok::Assign, 2),
            ':' => return Err(lex_err(start, "expected `:=`")),
            '#' | '?' => {
                let j = digits_from(i + 1);
                let what = if c == '#' { "column" } else { "parameter" };
                if j == i + 1 {
                    return Err(lex_err(
                        start,
                        format!("expected {what} number after `{c}`"),
                    ));
                }
                let n: usize = src[i + 1..j]
                    .parse()
                    .map_err(|_| lex_err(start, format!("bad {what} number")))?;
                (if c == '#' { Tok::Col(n) } else { Tok::Param(n) }, j - i)
            }
            '\'' | '"' => {
                let Some(len) = b[i + 1..].iter().position(|&ch| ch as char == c) else {
                    return Err(lex_err(start, "unterminated string"));
                };
                let s = b[i + 1..i + 1 + len].iter().map(|&ch| ch as char).collect();
                (Tok::Str(s), len + 2)
            }
            '0'..='9' => {
                let j = digits_from(i);
                // A decimal point followed by a digit makes a double.
                if j + 1 < b.len() && b[j] == b'.' && b[j + 1].is_ascii_digit() {
                    let k = digits_from(j + 1);
                    let v: f64 = src[i..k]
                        .parse()
                        .map_err(|_| lex_err(start, "bad double"))?;
                    (Tok::Double(v), k - i)
                } else {
                    let v: i64 = src[i..j]
                        .parse()
                        .map_err(|_| lex_err(start, "bad integer"))?;
                    (Tok::Int(v), j - i)
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let len = b[i..]
                    .iter()
                    .take_while(|&&ch| ch.is_ascii_alphanumeric() || ch == b'_' || ch == b'@')
                    .count();
                (Tok::Ident(src[i..i + len].to_owned()), len)
            }
            other => return Err(lex_err(start, format!("unexpected character `{other}`"))),
        };
        out.push((tok, start));
        i += len;
    }
    Ok(out)
}

/// The value of a literal keyword: `null`, `true` or `false`.
pub fn keyword_value(name: &str) -> Option<Value> {
    match name {
        "null" => Some(Value::Null),
        "true" => Some(Value::Bool(true)),
        "false" => Some(Value::Bool(false)),
        _ => None,
    }
}

/// A position in a token stream, with the lookahead and matching helpers
/// both recursive-descent parsers use.
pub struct Cursor {
    toks: Vec<(Tok, usize)>,
    /// Index of the next token.
    pub pos: usize,
    len: usize,
}

impl Cursor {
    /// Lex `src` and stand before its first token.
    pub fn new(src: &str) -> SyntaxResult<Cursor> {
        Ok(Cursor {
            toks: lex(src)?,
            pos: 0,
            len: src.len(),
        })
    }

    /// The next token, if any.
    pub fn peek(&self) -> Option<&Tok> {
        self.peek_at(0)
    }

    /// The token `n` places after the next one.
    pub fn peek_at(&self, n: usize) -> Option<&Tok> {
        self.toks.get(self.pos + n).map(|t| &t.0)
    }

    /// Byte offset of the next token (the text's length at its end).
    pub fn offset(&self) -> usize {
        self.toks.get(self.pos).map(|t| t.1).unwrap_or(self.len)
    }

    /// Whether every token has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.toks.len()
    }

    /// Consume and return the next token.
    pub fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.0.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume the next token if it is `t`.
    pub fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consume the next token if it is an arithmetic operator among `ops`.
    pub fn eat_arith(&mut self, ops: [ArithOp; 2]) -> Option<ArithOp> {
        match self.peek() {
            Some(&Tok::Arith(op)) if ops.contains(&op) => {
                self.pos += 1;
                Some(op)
            }
            _ => None,
        }
    }

    /// Whether the next token is the identifier `kw`.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    /// Consume the next token if it is the identifier `kw`.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        let hit = self.is_kw(kw);
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// Consume `t`, or fail with "expected {what}".
    pub fn expect(&mut self, t: &Tok, what: &str) -> SyntaxResult<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    /// Consume an identifier, or fail with "expected {what}".
    pub fn ident(&mut self, what: &str) -> SyntaxResult<String> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error(format!("expected {what}"))),
        }
    }

    /// A parse error at the next token.
    pub fn error(&self, message: impl Into<String>) -> SyntaxError {
        SyntaxError {
            kind: SyntaxKind::Parse,
            offset: self.offset(),
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.0).collect()
    }

    #[test]
    fn compound_tokens_take_the_longest_match() {
        use Tok::*;
        assert_eq!(
            toks("<> <= < >= > == => = != -> - :="),
            vec![
                LtGt,
                Cmp(CmpOp::Le),
                Cmp(CmpOp::Lt),
                Cmp(CmpOp::Ge),
                Cmp(CmpOp::Gt),
                EqEq,
                Arrow,
                Cmp(CmpOp::Eq),
                Cmp(CmpOp::Ne),
                Arrow,
                Arith(ArithOp::Sub),
                Assign
            ]
        );
    }

    #[test]
    fn literals_and_references() {
        use Tok::*;
        assert_eq!(
            toks("#12 ?3 1.5 1. 'a b' x@ins"),
            vec![
                Col(12),
                Param(3),
                Double(1.5),
                Int(1),
                Dot,
                Str("a b".into()),
                Ident("x@ins".into())
            ]
        );
    }

    #[test]
    fn lexical_errors_carry_offsets() {
        for (src, at) in [
            ("1 % 2", 2),
            ("x = 'abc", 4),
            ("# 1", 0),
            ("a : b", 2),
            ("a ! b", 2),
        ] {
            let e = lex(src).unwrap_err();
            assert_eq!((e.kind, e.offset), (SyntaxKind::Lex, at), "{src}: {e}");
        }
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn cursor_matches_and_reports_the_next_offset() {
        let mut c = Cursor::new("insert ( r").unwrap();
        assert!(c.eat_kw("insert"));
        assert!(c.eat(&Tok::LParen));
        assert_eq!(c.ident("relation").unwrap(), "r");
        let e = c.expect(&Tok::Comma, "`,`").unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (10, "expected `,`"));
        assert!(c.at_end());
    }
}
