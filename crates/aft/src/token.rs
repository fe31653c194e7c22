//! Lexical analysis for AmuletC.
//!
//! AmuletC is the ANSI-C dialect accepted by the Amulet Firmware Toolchain.
//! The original Amulet language forbids pointers, recursion, `goto` and
//! inline assembly; this reproduction's front end *accepts* pointer and
//! recursion syntax (the whole point of the paper is to allow them) and the
//! feature-analysis phase then rejects whatever the selected isolation
//! method cannot support.

use std::fmt;

/// A source location (1-based line and column).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Loc {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds produced by the lexer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum Tok {
    /// Integer literal.
    Int(i64),
    /// Character literal (already converted to its numeric value).
    Char(i64),
    /// String literal (used only in `asm("...")`, which is then rejected).
    Str(String),
    /// Identifier.
    Ident(String),
    /// Keyword.
    Kw(Kw),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `;`.
    Semi,
    /// `,`.
    Comma,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `%`.
    Percent,
    /// `&`.
    Amp,
    /// `|`.
    Pipe,
    /// `^`.
    Caret,
    /// `~`.
    Tilde,
    /// `!`.
    Bang,
    /// `=`.
    Assign,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&&`.
    AndAnd,
    /// `||`.
    OrOr,
    /// `<<`.
    Shl,
    /// `>>`.
    Shr,
    /// `+=`.
    PlusAssign,
    /// `-=`.
    MinusAssign,
    /// `++`.
    PlusPlus,
    /// `--`.
    MinusMinus,
    /// End of input.
    Eof,
}

/// Keywords.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Kw {
    /// `int`
    Int,
    /// `uint` (AmuletC shorthand for `unsigned int`)
    Uint,
    /// `char`
    Char,
    /// `void`
    Void,
    /// `fnptr` (AmuletC dialect: a pointer to a function, see DESIGN.md)
    Fnptr,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `goto` (recognised so the feature analysis can reject it)
    Goto,
    /// `asm` (recognised so the feature analysis can reject it)
    Asm,
    /// `const`
    Const,
    /// `unsigned`
    Unsigned,
    /// `static`
    Static,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Char(v) => write!(f, "'{v}'"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Kw(k) => write!(f, "{k:?}").map(|_| ()),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A token together with its source location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Token {
    /// The token kind.
    pub tok: Tok,
    /// Where it started.
    pub loc: Loc,
}

/// A lexical error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct LexError {
    /// Explanation.
    pub message: String,
    /// Where the error occurred.
    pub loc: Loc,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.loc, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenises AmuletC source text.
pub(crate) fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    let loc_of = |line: u32, col: u32| Loc { line, col };

    macro_rules! push {
        ($tok:expr, $loc:expr) => {
            tokens.push(Token {
                tok: $tok,
                loc: $loc,
            })
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        let loc = loc_of(line, col);
        match c {
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '*' => {
                i += 2;
                col += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError {
                            message: "unterminated block comment".into(),
                            loc,
                        });
                    }
                    if bytes[i] == '*' && bytes[i + 1] == '/' {
                        i += 2;
                        col += 2;
                        break;
                    }
                    if bytes[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                // Hex literals.
                if c == '0' && i + 1 < bytes.len() && (bytes[i + 1] == 'x' || bytes[i + 1] == 'X') {
                    i += 2;
                    let hstart = i;
                    while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                        i += 1;
                    }
                    let text: String = bytes[hstart..i].iter().collect();
                    let value = i64::from_str_radix(&text, 16).map_err(|_| LexError {
                        message: format!("invalid hex literal `0x{text}`"),
                        loc,
                    })?;
                    col += (i - start) as u32;
                    push!(Tok::Int(value), loc);
                } else {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text: String = bytes[start..i].iter().collect();
                    let value: i64 = text.parse().map_err(|_| LexError {
                        message: format!("invalid integer literal `{text}`"),
                        loc,
                    })?;
                    col += (i - start) as u32;
                    push!(Tok::Int(value), loc);
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                col += (i - start) as u32;
                let tok = match text.as_str() {
                    "int" => Tok::Kw(Kw::Int),
                    "uint" => Tok::Kw(Kw::Uint),
                    "char" => Tok::Kw(Kw::Char),
                    "void" => Tok::Kw(Kw::Void),
                    "fnptr" => Tok::Kw(Kw::Fnptr),
                    "if" => Tok::Kw(Kw::If),
                    "else" => Tok::Kw(Kw::Else),
                    "while" => Tok::Kw(Kw::While),
                    "for" => Tok::Kw(Kw::For),
                    "return" => Tok::Kw(Kw::Return),
                    "break" => Tok::Kw(Kw::Break),
                    "continue" => Tok::Kw(Kw::Continue),
                    "goto" => Tok::Kw(Kw::Goto),
                    "asm" | "__asm__" => Tok::Kw(Kw::Asm),
                    "const" => Tok::Kw(Kw::Const),
                    "unsigned" => Tok::Kw(Kw::Unsigned),
                    "static" => Tok::Kw(Kw::Static),
                    _ => Tok::Ident(text),
                };
                push!(tok, loc);
            }
            '\'' => {
                // Character literal, with a tiny escape set.
                if i + 2 < bytes.len() && bytes[i + 1] == '\\' {
                    let v = match bytes[i + 2] {
                        'n' => b'\n' as i64,
                        't' => b'\t' as i64,
                        '0' => 0,
                        '\\' => b'\\' as i64,
                        '\'' => b'\'' as i64,
                        other => {
                            return Err(LexError {
                                message: format!("unsupported escape `\\{other}`"),
                                loc,
                            })
                        }
                    };
                    if i + 3 >= bytes.len() || bytes[i + 3] != '\'' {
                        return Err(LexError {
                            message: "unterminated char literal".into(),
                            loc,
                        });
                    }
                    i += 4;
                    col += 4;
                    push!(Tok::Char(v), loc);
                } else if i + 2 < bytes.len() && bytes[i + 2] == '\'' {
                    push!(Tok::Char(bytes[i + 1] as i64), loc);
                    i += 3;
                    col += 3;
                } else {
                    return Err(LexError {
                        message: "unterminated char literal".into(),
                        loc,
                    });
                }
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != '"' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        loc,
                    });
                }
                let text: String = bytes[start..j].iter().collect();
                col += (j + 1 - i) as u32;
                i = j + 1;
                push!(Tok::Str(text), loc);
            }
            _ => {
                // Operators and punctuation.
                let two: String = bytes[i..(i + 2).min(bytes.len())].iter().collect();
                let (tok, len) = match two.as_str() {
                    "==" => (Tok::Eq, 2),
                    "!=" => (Tok::Ne, 2),
                    "<=" => (Tok::Le, 2),
                    ">=" => (Tok::Ge, 2),
                    "&&" => (Tok::AndAnd, 2),
                    "||" => (Tok::OrOr, 2),
                    "<<" => (Tok::Shl, 2),
                    ">>" => (Tok::Shr, 2),
                    "+=" => (Tok::PlusAssign, 2),
                    "-=" => (Tok::MinusAssign, 2),
                    "++" => (Tok::PlusPlus, 2),
                    "--" => (Tok::MinusMinus, 2),
                    _ => {
                        let single = match c {
                            '(' => Tok::LParen,
                            ')' => Tok::RParen,
                            '{' => Tok::LBrace,
                            '}' => Tok::RBrace,
                            '[' => Tok::LBracket,
                            ']' => Tok::RBracket,
                            ';' => Tok::Semi,
                            ',' => Tok::Comma,
                            '+' => Tok::Plus,
                            '-' => Tok::Minus,
                            '*' => Tok::Star,
                            '/' => Tok::Slash,
                            '%' => Tok::Percent,
                            '&' => Tok::Amp,
                            '|' => Tok::Pipe,
                            '^' => Tok::Caret,
                            '~' => Tok::Tilde,
                            '!' => Tok::Bang,
                            '=' => Tok::Assign,
                            '<' => Tok::Lt,
                            '>' => Tok::Gt,
                            other => {
                                return Err(LexError {
                                    message: format!("unexpected character `{other}`"),
                                    loc,
                                })
                            }
                        };
                        (single, 1)
                    }
                };
                i += len;
                col += len as u32;
                push!(tok, loc);
            }
        }
    }
    tokens.push(Token {
        tok: Tok::Eof,
        loc: loc_of(line, col),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_a_small_function() {
        let toks = kinds("int add(int a, int b) { return a + b; }");
        assert_eq!(toks[0], Tok::Kw(Kw::Int));
        assert_eq!(toks[1], Tok::Ident("add".into()));
        assert!(toks.contains(&Tok::Plus));
        assert_eq!(*toks.last().unwrap(), Tok::Eof);
    }

    #[test]
    fn lexes_numbers_in_decimal_and_hex() {
        assert_eq!(kinds("42 0x2A")[..2], [Tok::Int(42), Tok::Int(42)]);
    }

    #[test]
    fn lexes_two_character_operators() {
        let toks = kinds("a <= b && c != d << 2");
        assert!(toks.contains(&Tok::Le));
        assert!(toks.contains(&Tok::AndAnd));
        assert!(toks.contains(&Tok::Ne));
        assert!(toks.contains(&Tok::Shl));
    }

    #[test]
    fn skips_comments_and_tracks_lines() {
        let toks = lex("// comment\n/* block\ncomment */ int x;").unwrap();
        assert_eq!(toks[0].tok, Tok::Kw(Kw::Int));
        assert_eq!(toks[0].loc.line, 3);
    }

    #[test]
    fn char_literals_and_escapes() {
        assert_eq!(kinds("'a'")[0], Tok::Char('a' as i64));
        assert_eq!(kinds("'\\n'")[0], Tok::Char(10));
        assert_eq!(kinds("'\\0'")[0], Tok::Char(0));
    }

    #[test]
    fn rejects_unknown_characters_and_unterminated_literals() {
        assert!(lex("int x = @;").is_err());
        assert!(lex("'a").is_err());
        assert!(lex("\"abc").is_err());
        assert!(lex("/* never closed").is_err());
    }

    #[test]
    fn goto_and_asm_are_recognised_keywords() {
        assert_eq!(kinds("goto l;")[0], Tok::Kw(Kw::Goto));
        assert_eq!(kinds("asm(\"nop\");")[0], Tok::Kw(Kw::Asm));
    }
}
