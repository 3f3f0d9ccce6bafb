//! Token types produced by the lexer.

use crate::error::Position;

/// Keywords of the supported Cypher subset (matched case-insensitively).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    /// `MATCH`
    Match,
    /// `WHERE`
    Where,
    /// `RETURN`
    Return,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `NOT`
    Not,
    /// `TRUE`
    True,
    /// `FALSE`
    False,
    /// `NULL`
    Null,
    /// `AS`
    As,
    /// `COUNT`
    Count,
    /// `IS` (in `IS NULL` / `IS NOT NULL`)
    Is,
    /// `DISTINCT`
    Distinct,
    /// `WITH`
    With,
    /// `OPTIONAL` (in `OPTIONAL MATCH`)
    Optional,
    /// `UNWIND`
    Unwind,
    /// `ORDER` (in `ORDER BY`)
    Order,
    /// `BY` (in `ORDER BY`)
    By,
    /// `SKIP`
    Skip,
    /// `LIMIT`
    Limit,
    /// `ASC` / `ASCENDING`
    Asc,
    /// `DESC` / `DESCENDING`
    Desc,
    /// `collect(..)` aggregate
    Collect,
    /// `sum(..)` aggregate
    Sum,
    /// `min(..)` aggregate
    Min,
    /// `max(..)` aggregate
    Max,
    /// `avg(..)` aggregate
    Avg,
}

/// Every keyword with its canonical upper-case spelling.
const KEYWORDS: [(&str, Keyword); 29] = [
    ("MATCH", Keyword::Match),
    ("WHERE", Keyword::Where),
    ("RETURN", Keyword::Return),
    ("AND", Keyword::And),
    ("OR", Keyword::Or),
    ("NOT", Keyword::Not),
    ("TRUE", Keyword::True),
    ("FALSE", Keyword::False),
    ("NULL", Keyword::Null),
    ("AS", Keyword::As),
    ("COUNT", Keyword::Count),
    ("IS", Keyword::Is),
    ("DISTINCT", Keyword::Distinct),
    ("WITH", Keyword::With),
    ("OPTIONAL", Keyword::Optional),
    ("UNWIND", Keyword::Unwind),
    ("ORDER", Keyword::Order),
    ("BY", Keyword::By),
    ("SKIP", Keyword::Skip),
    ("LIMIT", Keyword::Limit),
    ("ASC", Keyword::Asc),
    ("ASCENDING", Keyword::Asc),
    ("DESC", Keyword::Desc),
    ("DESCENDING", Keyword::Desc),
    ("COLLECT", Keyword::Collect),
    ("SUM", Keyword::Sum),
    ("MIN", Keyword::Min),
    ("MAX", Keyword::Max),
    ("AVG", Keyword::Avg),
];

impl Keyword {
    /// Parses a keyword from an identifier, case-insensitively.
    pub fn from_ident(ident: &str) -> Option<Keyword> {
        KEYWORDS
            .iter()
            .find(|(text, _)| text.eq_ignore_ascii_case(ident))
            .map(|&(_, keyword)| keyword)
    }
}

/// A lexed token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier (variable, label or property key).
    Ident(String),
    /// Reserved keyword.
    Keyword(Keyword),
    /// String literal (quotes removed, escapes resolved).
    String(String),
    /// Integer literal.
    Integer(i64),
    /// Floating-point literal.
    Float(f64),
    /// `$name` query parameter.
    Parameter(String),
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
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `|`
    Pipe,
    /// `-`
    Minus,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<=`
    Lte,
    /// `>=`
    Gte,
    /// `*`
    Star,
    /// End of input.
    Eof,
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it starts.
    pub position: Position,
    /// The bytes of the query text it was lexed from (quotes, backticks and
    /// the `$` of a parameter included; empty for [`TokenKind::Eof`]).
    pub span: std::ops::Range<usize>,
}

impl std::fmt::Display for TokenKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenKind::Ident(name) => write!(f, "identifier `{name}`"),
            TokenKind::Keyword(k) => write!(f, "keyword `{k:?}`"),
            TokenKind::String(s) => write!(f, "string {s:?}"),
            TokenKind::Integer(v) => write!(f, "integer `{v}`"),
            TokenKind::Float(v) => write!(f, "float `{v}`"),
            TokenKind::Parameter(name) => write!(f, "parameter `${name}`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Dot => write!(f, "`.`"),
            TokenKind::DotDot => write!(f, "`..`"),
            TokenKind::Pipe => write!(f, "`|`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Eq => write!(f, "`=`"),
            TokenKind::Neq => write!(f, "`<>`"),
            TokenKind::Lte => write!(f, "`<=`"),
            TokenKind::Gte => write!(f, "`>=`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(Keyword::from_ident("match"), Some(Keyword::Match));
        assert_eq!(Keyword::from_ident("MATCH"), Some(Keyword::Match));
        assert_eq!(Keyword::from_ident("MaTcH"), Some(Keyword::Match));
        assert_eq!(Keyword::from_ident("person"), None);
    }

    #[test]
    fn token_display_is_stable() {
        assert_eq!(TokenKind::Neq.to_string(), "`<>`");
        assert_eq!(TokenKind::Ident("p1".into()).to_string(), "identifier `p1`");
    }
}
