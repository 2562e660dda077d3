//! SPEAR-DL lexer: source text → positioned tokens.

use std::fmt;

use crate::error::{DlError, Result};

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// Line, starting at 1.
    pub line: u32,
    /// Column, starting at 1.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (keywords are uppercase identifiers; the
    /// parser distinguishes them).
    Ident(String),
    /// Double-quoted string literal (escapes `\"`, `\\`, `\n`, `\t`).
    Str(String),
    /// Numeric literal.
    Num(f64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `=`
    Eq,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `:`
    Colon,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Num(n) => write!(f, "{n}"),
            Tok::LBrace => f.write_str("{"),
            Tok::RBrace => f.write_str("}"),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::LBracket => f.write_str("["),
            Tok::RBracket => f.write_str("]"),
            Tok::Comma => f.write_str(","),
            Tok::Semi => f.write_str(";"),
            Tok::Eq => f.write_str("="),
            Tok::EqEq => f.write_str("=="),
            Tok::NotEq => f.write_str("!="),
            Tok::Lt => f.write_str("<"),
            Tok::Le => f.write_str("<="),
            Tok::Gt => f.write_str(">"),
            Tok::Ge => f.write_str(">="),
            Tok::AndAnd => f.write_str("&&"),
            Tok::OrOr => f.write_str("||"),
            Tok::Bang => f.write_str("!"),
            Tok::Colon => f.write_str(":"),
            Tok::Eof => f.write_str("<eof>"),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// Tokenize SPEAR-DL source. `#` and `//` start line comments.
///
/// # Errors
///
/// Returns [`DlError`] for unterminated strings, bad escapes, malformed
/// numbers, and unexpected characters — always with a position.
pub fn lex(src: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let mut chars = src.chars().peekable();
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! push {
        ($tok:expr, $pos:expr) => {
            tokens.push(Token {
                tok: $tok,
                pos: $pos,
            })
        };
    }

    while let Some(&c) = chars.peek() {
        let pos = Pos { line, col };
        match c {
            '\n' => {
                chars.next();
                line += 1;
                col = 1;
            }
            c if c.is_whitespace() => {
                chars.next();
                col += 1;
            }
            '#' => {
                while let Some(&c) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    chars.next();
                }
            }
            '/' => {
                chars.next();
                col += 1;
                if chars.peek() == Some(&'/') {
                    while let Some(&c) = chars.peek() {
                        if c == '\n' {
                            break;
                        }
                        chars.next();
                    }
                } else {
                    return Err(DlError::lex(pos, "unexpected character '/'"));
                }
            }
            '"' => {
                chars.next();
                col += 1;
                let mut s = String::new();
                loop {
                    match chars.next() {
                        None => return Err(DlError::lex(pos, "unterminated string literal")),
                        Some('"') => {
                            col += 1;
                            break;
                        }
                        Some('\\') => {
                            col += 1;
                            match chars.next() {
                                Some('"') => s.push('"'),
                                Some('\\') => s.push('\\'),
                                Some('n') => s.push('\n'),
                                Some('t') => s.push('\t'),
                                Some(other) => {
                                    return Err(DlError::lex(
                                        Pos { line, col },
                                        format!("unknown escape '\\{other}'"),
                                    ))
                                }
                                None => {
                                    return Err(DlError::lex(pos, "unterminated string literal"))
                                }
                            }
                            col += 1;
                        }
                        Some('\n') => {
                            s.push('\n');
                            line += 1;
                            col = 1;
                        }
                        Some(other) => {
                            s.push(other);
                            col += 1;
                        }
                    }
                }
                push!(Tok::Str(s), pos);
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut s = String::new();
                if c == '-' {
                    s.push(c);
                    chars.next();
                    col += 1;
                    if !chars.peek().is_some_and(char::is_ascii_digit) {
                        return Err(DlError::lex(pos, "expected digits after '-'"));
                    }
                }
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() || d == '.' {
                        s.push(d);
                        chars.next();
                        col += 1;
                    } else {
                        break;
                    }
                }
                let n: f64 = s
                    .parse()
                    .map_err(|_| DlError::lex(pos, format!("malformed number {s:?}")))?;
                push!(Tok::Num(n), pos);
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                        col += 1;
                    } else {
                        break;
                    }
                }
                push!(Tok::Ident(s), pos);
            }
            _ => {
                chars.next();
                col += 1;
                let two = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
                           next: char,
                           col: &mut u32| {
                    if chars.peek() == Some(&next) {
                        chars.next();
                        *col += 1;
                        true
                    } else {
                        false
                    }
                };
                let tok = match c {
                    '{' => Tok::LBrace,
                    '}' => Tok::RBrace,
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    '[' => Tok::LBracket,
                    ']' => Tok::RBracket,
                    ',' => Tok::Comma,
                    ';' => Tok::Semi,
                    ':' => Tok::Colon,
                    '=' => {
                        if two(&mut chars, '=', &mut col) {
                            Tok::EqEq
                        } else {
                            Tok::Eq
                        }
                    }
                    '!' => {
                        if two(&mut chars, '=', &mut col) {
                            Tok::NotEq
                        } else {
                            Tok::Bang
                        }
                    }
                    '<' => {
                        if two(&mut chars, '=', &mut col) {
                            Tok::Le
                        } else {
                            Tok::Lt
                        }
                    }
                    '>' => {
                        if two(&mut chars, '=', &mut col) {
                            Tok::Ge
                        } else {
                            Tok::Gt
                        }
                    }
                    '&' => {
                        if two(&mut chars, '&', &mut col) {
                            Tok::AndAnd
                        } else {
                            return Err(DlError::lex(pos, "expected '&&'"));
                        }
                    }
                    '|' => {
                        if two(&mut chars, '|', &mut col) {
                            Tok::OrOr
                        } else {
                            return Err(DlError::lex(pos, "expected '||'"));
                        }
                    }
                    other => {
                        return Err(DlError::lex(pos, format!("unexpected character {other:?}")))
                    }
                };
                push!(tok, pos);
            }
        }
    }
    tokens.push(Token {
        tok: Tok::Eof,
        pos: Pos { line, col },
    });
    Ok(tokens)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks(r#"GEN "answer_0" USING "qa_prompt";"#),
            vec![
                Tok::Ident("GEN".into()),
                Tok::Str("answer_0".into()),
                Tok::Ident("USING".into()),
                Tok::Str("qa_prompt".into()),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators_and_numbers() {
        assert_eq!(
            toks(r#"M["confidence"] < 0.7 && x >= -2"#),
            vec![
                Tok::Ident("M".into()),
                Tok::LBracket,
                Tok::Str("confidence".into()),
                Tok::RBracket,
                Tok::Lt,
                Tok::Num(0.7),
                Tok::AndAnd,
                Tok::Ident("x".into()),
                Tok::Ge,
                Tok::Num(-2.0),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("# full line\nGEN // trailing\n\"x\""),
            vec![Tok::Ident("GEN".into()), Tok::Str("x".into()), Tok::Eof]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            toks(r#""line\nbreak \"quoted\" \\ tab\t""#),
            vec![Tok::Str("line\nbreak \"quoted\" \\ tab\t".into()), Tok::Eof]
        );
    }

    #[test]
    fn multiline_strings_track_lines() {
        let tokens = lex("\"a\nb\" GEN").unwrap();
        assert_eq!(tokens[1].pos.line, 2, "GEN is on line 2");
    }

    #[test]
    fn lex_errors_carry_positions() {
        let err = lex("GEN @").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("1:5"), "{msg}");
        assert!(lex("\"unterminated").is_err());
        assert!(lex(r#""bad \q escape""#).is_err());
        assert!(lex("& alone").is_err());
        assert!(lex("- alone").is_err());
    }

    #[test]
    fn positions_advance_per_line() {
        let tokens = lex("A\n  B").unwrap();
        assert_eq!(tokens[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(tokens[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn eq_vs_eqeq() {
        assert_eq!(toks("= =="), vec![Tok::Eq, Tok::EqEq, Tok::Eof]);
        assert_eq!(toks("! !="), vec![Tok::Bang, Tok::NotEq, Tok::Eof]);
    }
}
