//! The lexical front end shared by the SQL subset ([`crate::sql`]) and
//! VOQL (`vo_penguin::voql`): one token type, one tokenizer, one token
//! [`Cursor`], and the productions both languages spell identically
//! (`SET a = v, …`, `ORDER BY a, …`, `LIMIT n`). The language modules hold
//! grammar only.
//!
//! Error contract: every [`Error::SqlParse`] carries the **byte offset** of
//! the offending token, or the source length when the input ends too
//! early, so remote clients get machine-usable error locations over the
//! wire.

use crate::error::{Error, Result};
use crate::predicate::CmpOp;
use crate::value::Value;

#[derive(Debug, Clone, PartialEq)]
enum Token {
    /// A keyword or a (possibly qualified, `rel.attr`) name.
    Ident(String),
    Int(i64),
    Float(f64),
    /// A quoted string, quotes stripped and `''` unescaped.
    Str(String),
    /// One of `( ) , ; * = <> < <= > >=`.
    Symbol(&'static str),
}

fn error_at(position: usize, message: impl Into<String>) -> Error {
    Error::SqlParse {
        position,
        message: message.into(),
    }
}

/// Split `src` into tokens, each with the byte offset it starts at.
fn tokenize(src: &str) -> Result<Vec<(usize, Token)>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let start = pos;
        let c = bytes[pos];
        if c.is_ascii_whitespace() {
            pos += 1;
            continue;
        }
        let token = if c.is_ascii_alphabetic() || c == b'_' {
            while pos < bytes.len()
                && (bytes[pos].is_ascii_alphanumeric() || matches!(bytes[pos], b'_' | b'.'))
            {
                pos += 1;
            }
            Token::Ident(src[start..pos].to_owned())
        } else if c.is_ascii_digit()
            || (c == b'-' && bytes.get(pos + 1).is_some_and(u8::is_ascii_digit))
        {
            pos += 1;
            while pos < bytes.len() && (bytes[pos].is_ascii_digit() || bytes[pos] == b'.') {
                pos += 1;
            }
            let text = &src[start..pos];
            let bad = |what| error_at(start, format!("bad {what} literal"));
            if text.contains('.') {
                Token::Float(text.parse().map_err(|_| bad("float"))?)
            } else {
                Token::Int(text.parse().map_err(|_| bad("int"))?)
            }
        } else if c == b'\'' {
            let mut s = String::new();
            loop {
                // past the opening quote, or the second of a doubled one
                pos += 1;
                let len = src[pos..]
                    .find('\'')
                    .ok_or_else(|| error_at(start, "unterminated string literal"))?;
                s.push_str(&src[pos..pos + len]);
                pos += len + 1;
                if bytes.get(pos) != Some(&b'\'') {
                    break;
                }
                s.push('\'');
            }
            Token::Str(s)
        } else {
            let sym = match (c, bytes.get(pos + 1)) {
                (b'(', _) => "(",
                (b')', _) => ")",
                (b',', _) => ",",
                (b';', _) => ";",
                (b'*', _) => "*",
                (b'=', _) => "=",
                (b'<', Some(b'=')) => "<=",
                (b'<', Some(b'>')) => "<>",
                (b'<', _) => "<",
                (b'>', Some(b'=')) => ">=",
                (b'>', _) => ">",
                _ => {
                    // every token ends on an ASCII byte, so `start` is a
                    // character boundary
                    let other = src[start..].chars().next();
                    return Err(error_at(
                        start,
                        format!("unexpected character {:?}", other.unwrap_or_default()),
                    ));
                }
            };
            pos += sym.len();
            Token::Symbol(sym)
        };
        out.push((start, token));
    }
    Ok(out)
}

/// A cursor over the tokens of one statement. Every `expect`-style
/// method either consumes the next token or fails *at* it, which is what
/// keeps error offsets on the offending token.
pub struct Cursor {
    tokens: Vec<(usize, Token)>,
    /// Length of the source, reported when the statement ends too early.
    src_len: usize,
    pos: usize,
}

impl Cursor {
    /// Tokenize `src` and position the cursor on its first token.
    pub fn new(src: &str) -> Result<Cursor> {
        Ok(Cursor {
            tokens: tokenize(src)?,
            src_len: src.len(),
            pos: 0,
        })
    }

    /// An error anchored at the next (not yet consumed) token.
    pub fn err(&self, message: impl Into<String>) -> Error {
        let offset = self
            .tokens
            .get(self.pos)
            .map_or(self.src_len, |(at, _)| *at);
        error_at(offset, message)
    }

    fn expected(&self, what: &str) -> Error {
        match self.tokens.get(self.pos) {
            Some((_, tok)) => self.err(format!("expected {what}, got {tok:?}")),
            None => self.err(format!("expected {what}, got end of input")),
        }
    }

    /// Consume the next token if `accept` takes it.
    fn eat<T>(&mut self, accept: impl FnOnce(&Token) -> Option<T>) -> Option<T> {
        let taken = accept(&self.tokens.get(self.pos)?.1)?;
        self.pos += 1;
        Some(taken)
    }

    fn expect<T>(&mut self, what: &str, accept: impl FnOnce(&Token) -> Option<T>) -> Result<T> {
        self.eat(accept).ok_or_else(|| self.expected(what))
    }

    /// Consume `kw` (matched case-insensitively) if it is next.
    pub fn eat_keyword(&mut self, kw: &str) -> bool {
        self.eat(|t| matches!(t, Token::Ident(w) if w.eq_ignore_ascii_case(kw)).then_some(()))
            .is_some()
    }

    /// Consume `kw` or fail.
    pub fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.expected(&format!("keyword {kw}")))
        }
    }

    /// Consume the symbol `s` if it is next.
    pub fn eat_symbol(&mut self, s: &str) -> bool {
        self.eat(|t| matches!(t, Token::Symbol(x) if *x == s).then_some(()))
            .is_some()
    }

    /// Consume the symbol `s` or fail.
    pub fn expect_symbol(&mut self, s: &str) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.expected(s))
        }
    }

    /// A name, possibly qualified (`rel.attr`).
    pub fn ident(&mut self) -> Result<String> {
        self.expect("identifier", |t| match t {
            Token::Ident(w) => Some(w.clone()),
            _ => None,
        })
    }

    /// Consume a literal — number, string, `NULL`, `TRUE`, `FALSE` — if
    /// one is next.
    pub fn eat_literal(&mut self) -> Option<Value> {
        self.eat(|t| match t {
            Token::Int(i) => Some(Value::Int(*i)),
            Token::Float(x) => Some(Value::Float(*x)),
            Token::Str(s) => Some(Value::text(s.as_str())),
            Token::Ident(w) if w.eq_ignore_ascii_case("null") => Some(Value::Null),
            Token::Ident(w) if w.eq_ignore_ascii_case("true") => Some(Value::Bool(true)),
            Token::Ident(w) if w.eq_ignore_ascii_case("false") => Some(Value::Bool(false)),
            _ => None,
        })
    }

    /// A literal.
    pub fn literal(&mut self) -> Result<Value> {
        self.eat_literal().ok_or_else(|| self.expected("literal"))
    }

    /// One of `=`, `<>`, `<`, `<=`, `>`, `>=`.
    pub fn cmp_op(&mut self) -> Result<CmpOp> {
        self.expect("comparison", |t| match t {
            Token::Symbol("=") => Some(CmpOp::Eq),
            Token::Symbol("<>") => Some(CmpOp::Ne),
            Token::Symbol("<") => Some(CmpOp::Lt),
            Token::Symbol("<=") => Some(CmpOp::Le),
            Token::Symbol(">") => Some(CmpOp::Gt),
            Token::Symbol(">=") => Some(CmpOp::Ge),
            _ => None,
        })
    }

    /// A non-negative integer.
    pub fn count(&mut self) -> Result<usize> {
        self.expect("non-negative integer", |t| match t {
            Token::Int(n) => usize::try_from(*n).ok(),
            _ => None,
        })
    }

    /// `item (, item)*`
    pub fn list<T>(&mut self, mut item: impl FnMut(&mut Cursor) -> Result<T>) -> Result<Vec<T>> {
        let mut out = vec![item(self)?];
        while self.eat_symbol(",") {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// `SET name = literal (, name = literal)*`, with `name` parsing (and
    /// vetting) the assigned attribute.
    pub fn assignments(
        &mut self,
        mut name: impl FnMut(&mut Cursor) -> Result<String>,
    ) -> Result<Vec<(String, Value)>> {
        self.expect_keyword("SET")?;
        self.list(|c| {
            let attr = name(c)?;
            c.expect_symbol("=")?;
            Ok((attr, c.literal()?))
        })
    }

    /// `[ORDER BY attr (, attr)*]`; empty when the clause is absent.
    pub fn order_by(&mut self) -> Result<Vec<String>> {
        if !self.eat_keyword("ORDER") {
            return Ok(Vec::new());
        }
        self.expect_keyword("BY")?;
        self.list(Cursor::ident)
    }

    /// `[LIMIT n]`
    pub fn limit(&mut self) -> Result<Option<usize>> {
        if self.eat_keyword("LIMIT") {
            Ok(Some(self.count()?))
        } else {
            Ok(None)
        }
    }

    /// Fail unless every token was consumed.
    pub fn finish(&self) -> Result<()> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.err("trailing tokens after statement"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Token::{Float, Ident, Int, Str, Symbol};
    use super::*;

    fn ident(s: &str) -> Token {
        Ident(s.to_owned())
    }

    /// The token/offset table: what both front ends see for a source.
    #[test]
    fn tokens_carry_the_byte_offset_they_start_at() {
        let table: Vec<(&str, Vec<(usize, Token)>)> = vec![
            ("", vec![]),
            (
                "name = 'O''Brien'",
                vec![
                    (0, ident("name")),
                    (5, Symbol("=")),
                    (7, Str("O'Brien".into())),
                ],
            ),
            // an empty string, a lone escaped quote, text kept as written
            ("''", vec![(0, Str(String::new()))]),
            ("''''", vec![(0, Str("'".into()))]),
            (
                "'caf\u{e9} \u{2603}' x",
                vec![(0, Str("caf\u{e9} \u{2603}".into())), (12, ident("x"))],
            ),
            (
                "-2 3.5 -0.25 7",
                vec![
                    (0, Int(-2)),
                    (3, Float(3.5)),
                    (7, Float(-0.25)),
                    (13, Int(7)),
                ],
            ),
            (
                "a<=1 b<>2 c>=3 d<4 e>5",
                vec![
                    (0, ident("a")),
                    (1, Symbol("<=")),
                    (3, Int(1)),
                    (5, ident("b")),
                    (6, Symbol("<>")),
                    (8, Int(2)),
                    (10, ident("c")),
                    (11, Symbol(">=")),
                    (13, Int(3)),
                    (15, ident("d")),
                    (16, Symbol("<")),
                    (17, Int(4)),
                    (19, ident("e")),
                    (20, Symbol(">")),
                    (21, Int(5)),
                ],
            ),
            (
                "COUNT(GRADES.ssn), *;",
                vec![
                    (0, ident("COUNT")),
                    (5, Symbol("(")),
                    (6, ident("GRADES.ssn")),
                    (16, Symbol(")")),
                    (17, Symbol(",")),
                    (19, Symbol("*")),
                    (20, Symbol(";")),
                ],
            ),
            ("  _x1\n\ty ", vec![(2, ident("_x1")), (7, ident("y"))]),
        ];
        for (src, expected) in table {
            assert_eq!(tokenize(src).unwrap(), expected, "{src:?}");
        }
    }

    fn error(r: Result<impl Sized>) -> (usize, String) {
        match r {
            Err(Error::SqlParse { position, message }) => (position, message),
            Err(other) => panic!("expected SqlParse, got {other:?}"),
            Ok(_) => panic!("expected SqlParse, got Ok"),
        }
    }

    #[test]
    fn lexical_errors_anchor_where_the_bad_token_starts() {
        for (src, position, message) in [
            ("a = 'open", 4, "unterminated string literal"),
            ("a = 'it''s", 4, "unterminated string literal"),
            ("a = #", 4, "unexpected character '#'"),
            ("a - b", 2, "unexpected character '-'"),
            ("caf\u{e9}", 3, "unexpected character '\u{e9}'"),
            ("x 1.2.3", 2, "bad float literal"),
            ("x 99999999999999999999", 2, "bad int literal"),
        ] {
            assert_eq!(
                error(tokenize(src)),
                (position, message.to_owned()),
                "{src:?}"
            );
        }
    }

    #[test]
    fn cursor_fails_at_the_offending_token_or_the_source_length() {
        let src = "GET omega 'x' 7";
        let mut c = Cursor::new(src).unwrap();
        assert!(!c.eat_keyword("SHOW"));
        assert!(c.eat_keyword("get"), "keywords match case-insensitively");
        assert_eq!(error(c.expect_keyword("FROM")).0, 4);
        assert_eq!(error(c.expect_symbol("(")).0, 4);
        assert_eq!(error(c.cmp_op()).0, 4);
        assert_eq!(error(c.count()).0, 4);
        assert_eq!(error(c.finish()).0, 4);
        // a failed expectation consumes nothing
        assert_eq!(c.ident().unwrap(), "omega");
        assert_eq!(
            error(c.ident()),
            (10, "expected identifier, got Str(\"x\")".into())
        );
        assert_eq!(c.literal().unwrap(), Value::text("x"));
        assert_eq!(c.count().unwrap(), 7);
        c.finish().unwrap();
        // past the end every error reports the source length
        assert_eq!(
            error(c.literal()),
            (src.len(), "expected literal, got end of input".into())
        );
        assert_eq!(error(c.ident()).0, src.len());
        assert_eq!(c.err("x"), error_at(src.len(), "x"));
    }

    #[test]
    fn shared_productions() {
        let mut c = Cursor::new("SET a = 1, b = NULL ORDER BY x, T.y LIMIT 3").unwrap();
        assert_eq!(
            c.assignments(Cursor::ident).unwrap(),
            vec![
                ("a".to_owned(), Value::Int(1)),
                ("b".to_owned(), Value::Null)
            ]
        );
        assert_eq!(c.order_by().unwrap(), vec!["x", "T.y"]);
        assert_eq!(c.limit().unwrap(), Some(3));
        c.finish().unwrap();
        // absent clauses parse as empty; a list needs its separator to be a comma
        assert_eq!(c.order_by().unwrap(), Vec::<String>::new());
        assert_eq!(c.limit().unwrap(), None);
        let mut c = Cursor::new("ORDER BY x AND y").unwrap();
        assert_eq!(c.order_by().unwrap(), vec!["x"]);
        assert_eq!(error(c.finish()).0, 11);
        assert_eq!(error(Cursor::new("LIMIT -1").unwrap().limit()).0, 6);
        assert_eq!(error(Cursor::new("ORDER x").unwrap().order_by()).0, 6);
        assert_eq!(
            error(Cursor::new("SET a 1").unwrap().assignments(Cursor::ident)).0,
            6
        );
    }
}
