//! Hand-written lexer for the Cypher subset — the only code that reads the
//! characters of a query text: the parser consumes its tokens and the query
//! shape ([`lex_shape`]) is a fold over the same tokens.

use crate::error::{ParseError, Position};
use crate::token::{Keyword, Token, TokenKind};

/// Lexes `input` into tokens (terminated by [`TokenKind::Eof`]).
pub fn lex(input: &str) -> Result<Vec<Token>, ParseError> {
    let (tokens, lexed) = lex_prefix(input);
    lexed.map(|()| tokens)
}

/// Lexes `input` once and returns its *shape* next to the tokens (or the
/// lexer's error): string, numeric and `$parameter` tokens become `?`,
/// every other token is copied from its span as written, whitespace and
/// `//` comments between two tokens become one space, and a bracketed list
/// of placeholders (`[1, 2, 3]`) becomes `[?]` whatever its length — so
/// `{age: 42}`, `{age: 7}` and `{age: $a}` share a shape (and a plan-cache
/// entry) while `RETURN 1, 2` and `RETURN 1` do not. The shape of a text
/// the lexer rejects is the fold of the tokens before the error plus the
/// unread remainder as written; such a text is never planned or cached.
pub fn lex_shape(input: &str) -> (String, Result<Vec<Token>, ParseError>) {
    let (tokens, lexed) = lex_prefix(input);
    let mut shape = String::with_capacity(input.len());
    // Where the previously folded token ended in `input`.
    let mut end = 0;
    let mut index = 0;
    while let Some(token) = tokens.get(index).filter(|t| t.kind != TokenKind::Eof) {
        if token.span.start > end && !shape.is_empty() {
            shape.push(' ');
        }
        if let Some(close) = placeholder_list_end(&tokens, index) {
            shape.push_str("[?]");
            index = close;
        } else if is_placeholder(&token.kind) {
            shape.push('?');
        } else {
            shape.push_str(&input[token.span.clone()]);
        }
        end = tokens[index].span.end;
        index += 1;
    }
    if lexed.is_err() {
        shape.push_str(&input[end..]);
    }
    (shape, lexed.map(|()| tokens))
}

/// The tokens of `input` up to its end or to the lexer's first error.
fn lex_prefix(input: &str) -> (Vec<Token>, Result<(), ParseError>) {
    // Patterns are punctuation-heavy: about one token per three bytes.
    let mut tokens = Vec::with_capacity(input.len() / 3 + 1);
    let lexed = Lexer::new(input).run(&mut tokens);
    (tokens, lexed)
}

/// Tokens that carry a value and no structure: literals and parameters.
fn is_placeholder(kind: &TokenKind) -> bool {
    use TokenKind::{Float, Integer, Parameter, String};
    matches!(kind, String(_) | Integer(_) | Float(_) | Parameter(_))
}

/// The index of the closing `]` when `tokens[open..]` reads `[` value
/// (`,` value)* `]` with nothing but placeholders as values. Only a
/// bracketed list collapses: the items of `RETURN 1, 2` keep their arity.
fn placeholder_list_end(tokens: &[Token], open: usize) -> Option<usize> {
    let mut index = open;
    if tokens[index].kind != TokenKind::LBracket {
        return None;
    }
    loop {
        if !is_placeholder(&tokens.get(index + 1)?.kind) {
            return None;
        }
        index += 2;
        match tokens.get(index)?.kind {
            TokenKind::Comma => {}
            TokenKind::RBracket => return Some(index),
            _ => return None,
        }
    }
}

struct Lexer<'a> {
    input: &'a str,
    chars: std::str::Chars<'a>,
    position: Position,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            input,
            chars: input.chars(),
            position: Position::start(),
        }
    }

    /// Byte offset of the next unread character.
    fn offset(&self) -> usize {
        self.input.len() - self.chars.as_str().len()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.position.line += 1;
            self.position.column = 1;
        } else {
            self.position.column += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<char> {
        self.chars.clone().next()
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.position, message)
    }

    fn run(mut self, tokens: &mut Vec<Token>) -> Result<(), ParseError> {
        loop {
            while matches!(self.peek(), Some(c) if c.is_whitespace()) {
                self.bump();
            }
            // `//` line comments.
            if self.chars.as_str().starts_with("//") {
                while !matches!(self.peek(), None | Some('\n')) {
                    self.bump();
                }
                continue;
            }
            let position = self.position;
            let start = self.offset();
            let Some(c) = self.peek() else {
                tokens.push(Token {
                    kind: TokenKind::Eof,
                    position,
                    span: start..start,
                });
                return Ok(());
            };
            let kind = match c {
                '(' => self.single(TokenKind::LParen),
                ')' => self.single(TokenKind::RParen),
                '[' => self.single(TokenKind::LBracket),
                ']' => self.single(TokenKind::RBracket),
                '{' => self.single(TokenKind::LBrace),
                '}' => self.single(TokenKind::RBrace),
                ':' => self.single(TokenKind::Colon),
                ',' => self.single(TokenKind::Comma),
                '|' => self.single(TokenKind::Pipe),
                '-' => self.single(TokenKind::Minus),
                '*' => self.single(TokenKind::Star),
                '=' => self.single(TokenKind::Eq),
                '.' => {
                    self.bump();
                    match self.peek() {
                        Some('.') => {
                            self.bump();
                            TokenKind::DotDot
                        }
                        // Leading-dot float: `.5` lexes like `0.5`.
                        Some(c) if c.is_ascii_digit() => self.number(start)?,
                        _ => TokenKind::Dot,
                    }
                }
                '<' => {
                    self.bump();
                    match self.peek() {
                        Some('>') => {
                            self.bump();
                            TokenKind::Neq
                        }
                        Some('=') => {
                            self.bump();
                            TokenKind::Lte
                        }
                        _ => TokenKind::Lt,
                    }
                }
                '>' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        TokenKind::Gte
                    } else {
                        TokenKind::Gt
                    }
                }
                '\'' | '"' => self.string()?,
                '$' => {
                    self.bump();
                    let name = self.ident_text();
                    if name.is_empty() {
                        return Err(self.error("expected parameter name after `$`"));
                    }
                    TokenKind::Parameter(name.to_string())
                }
                c if c.is_ascii_digit() => self.number(start)?,
                c if c.is_alphabetic() || c == '_' => {
                    let text = self.ident_text();
                    match Keyword::from_ident(text) {
                        Some(keyword) => TokenKind::Keyword(keyword),
                        None => TokenKind::Ident(text.to_string()),
                    }
                }
                '`' => {
                    // Backtick-quoted identifier.
                    self.bump();
                    loop {
                        match self.bump() {
                            Some('`') => break,
                            Some(_) => {}
                            None => return Err(self.error("unterminated `` ` `` identifier")),
                        }
                    }
                    TokenKind::Ident(self.input[start + 1..self.offset() - 1].to_string())
                }
                // A lone `/`: `//` was skipped as a comment above.
                '/' => return Err(self.error("unexpected `/`")),
                other => return Err(self.error(format!("unexpected character {other:?}"))),
            };
            tokens.push(Token {
                kind,
                position,
                span: start..self.offset(),
            });
        }
    }

    fn single(&mut self, kind: TokenKind) -> TokenKind {
        self.bump();
        kind
    }

    /// Consumes identifier characters and returns them as written.
    fn ident_text(&mut self) -> &'a str {
        let start = self.offset();
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_') {
            self.bump();
        }
        &self.input[start..self.offset()]
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
    }

    fn string(&mut self) -> Result<TokenKind, ParseError> {
        let quote = self.bump().expect("peeked quote");
        let mut text = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string literal")),
                Some('\\') => match self.bump() {
                    Some('n') => text.push('\n'),
                    Some('t') => text.push('\t'),
                    Some(c) => text.push(c),
                    None => return Err(self.error("unterminated escape sequence")),
                },
                Some(c) if c == quote => break,
                Some(c) => text.push(c),
            }
        }
        Ok(TokenKind::String(text))
    }

    /// Lexes the numeric literal that began at byte `start`: digits, a
    /// fraction, an exponent (`e9`, `E+10`, `e-3`). A leading-dot float
    /// (`.5`, `.5e-3`) enters with its dot already consumed.
    fn number(&mut self, start: usize) -> Result<TokenKind, ParseError> {
        let mut is_float = self.offset() > start;
        self.digits();
        // A `.` only continues the number if a digit follows — `1..3` must
        // lex as Integer DotDot Integer.
        let mut ahead = self.chars.clone();
        if !is_float
            && ahead.next() == Some('.')
            && ahead.next().is_some_and(|c| c.is_ascii_digit())
        {
            is_float = true;
            self.bump();
            self.digits();
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some('+' | '-')) {
                self.bump();
            }
            self.digits();
        }
        let text = &self.input[start..self.offset()];
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::Float)
                .map_err(|e| self.error(format!("invalid float literal: {e}")))
        } else {
            text.parse::<i64>()
                .map(TokenKind::Integer)
                .map_err(|e| self.error(format!("invalid integer literal: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        lex(input)
            .expect("lex")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_pattern_punctuation() {
        assert_eq!(
            kinds("(p:Person)-[e:knows*1..3]->(q)"),
            vec![
                TokenKind::LParen,
                TokenKind::Ident("p".into()),
                TokenKind::Colon,
                TokenKind::Ident("Person".into()),
                TokenKind::RParen,
                TokenKind::Minus,
                TokenKind::LBracket,
                TokenKind::Ident("e".into()),
                TokenKind::Colon,
                TokenKind::Ident("knows".into()),
                TokenKind::Star,
                TokenKind::Integer(1),
                TokenKind::DotDot,
                TokenKind::Integer(3),
                TokenKind::RBracket,
                TokenKind::Minus,
                TokenKind::Gt,
                TokenKind::LParen,
                TokenKind::Ident("q".into()),
                TokenKind::RParen,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_leading_dot_floats() {
        assert_eq!(
            kinds(".5 .25e2 a.b ..."),
            vec![
                TokenKind::Float(0.5),
                TokenKind::Float(25.0),
                TokenKind::Ident("a".into()),
                TokenKind::Dot,
                TokenKind::Ident("b".into()),
                TokenKind::DotDot,
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_comparison_operators() {
        assert_eq!(
            kinds("a <> b <= c >= d < e > f = g"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Neq,
                TokenKind::Ident("b".into()),
                TokenKind::Lte,
                TokenKind::Ident("c".into()),
                TokenKind::Gte,
                TokenKind::Ident("d".into()),
                TokenKind::Lt,
                TokenKind::Ident("e".into()),
                TokenKind::Gt,
                TokenKind::Ident("f".into()),
                TokenKind::Eq,
                TokenKind::Ident("g".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_string_literals_with_escapes() {
        assert_eq!(
            kinds(r#"'Uni Leipzig' "it\'s" 'a\nb'"#),
            vec![
                TokenKind::String("Uni Leipzig".into()),
                TokenKind::String("it's".into()),
                TokenKind::String("a\nb".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("2014 3.5 1e3 2.5e-2"),
            vec![
                TokenKind::Integer(2014),
                TokenKind::Float(3.5),
                TokenKind::Float(1000.0),
                TokenKind::Float(0.025),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn integer_range_does_not_lex_as_float() {
        assert_eq!(
            kinds("*0..10"),
            vec![
                TokenKind::Star,
                TokenKind::Integer(0),
                TokenKind::DotDot,
                TokenKind::Integer(10),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_keywords_case_insensitively() {
        assert_eq!(
            kinds("MATCH where Return and OR not"),
            vec![
                TokenKind::Keyword(Keyword::Match),
                TokenKind::Keyword(Keyword::Where),
                TokenKind::Keyword(Keyword::Return),
                TokenKind::Keyword(Keyword::And),
                TokenKind::Keyword(Keyword::Or),
                TokenKind::Keyword(Keyword::Not),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_parameters_and_backtick_idents() {
        assert_eq!(
            kinds("$firstName `weird name`"),
            vec![
                TokenKind::Parameter("firstName".into()),
                TokenKind::Ident("weird name".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("MATCH // comment here\nRETURN"),
            vec![
                TokenKind::Keyword(Keyword::Match),
                TokenKind::Keyword(Keyword::Return),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn reports_errors_with_position() {
        let error = lex("MATCH (p) WHERE ^").unwrap_err();
        assert_eq!(error.position.line, 1);
        assert_eq!(error.position.column, 17);
        let error = lex("'open").unwrap_err();
        assert!(error.message.contains("unterminated"));
        assert!(lex("$ ").is_err());
    }

    #[test]
    fn spans_slice_the_source() {
        let text = "MATCH (né:`a b`) // c\n WHERE né.x >= .5e1 AND né.s = 'it\\'s' RETURN $p ";
        let spelled: Vec<&str> = lex(text)
            .unwrap()
            .iter()
            .map(|token| &text[token.span.clone()])
            .collect();
        assert_eq!(
            spelled,
            vec![
                "MATCH", "(", "né", ":", "`a b`", ")", "WHERE", "né", ".", "x", ">=", ".5e1",
                "AND", "né", ".", "s", "=", "'it\\'s'", "RETURN", "$p", ""
            ]
        );
    }

    #[test]
    fn shape_is_a_fold_over_the_tokens() {
        let shape = |text: &str| lex_shape(text).0;
        assert_eq!(
            shape(" MATCH (a:`x  y` {p: 'v', q: $q})-[*1..3]->(b) // c\n RETURN a.p1 "),
            "MATCH (a:`x  y` {p: ?, q: ?})-[*?..?]->(b) RETURN a.p1"
        );
        // Spellings a character-level normalizer read differently from the
        // lexer: a float after an identifier, after a float, after `..`.
        assert_eq!(shape("x.5"), "x?");
        assert_eq!(shape(".5.5"), "??");
        assert_eq!(shape("...5"), "..?");
        // Only a bracketed list of nothing but placeholders collapses.
        assert_eq!(shape("UNWIND [ 1 ,'a', $p ] AS x"), "UNWIND [?] AS x");
        assert_eq!(
            shape("[[1, 2], [-1], [], [x, 2]]"),
            "[[?], [-?], [], [x, ?]]"
        );
        assert_eq!(shape("RETURN 1, 2"), "RETURN ?, ?");
    }

    #[test]
    fn shape_of_unlexable_text_is_the_folded_prefix_and_the_raw_rest() {
        for (text, expected) in [
            ("MATCH (a {x: 1})  WHERE ^ 2", "MATCH (a {x: ?}) WHERE ^ 2"),
            ("RETURN 1 , 'open", "RETURN ? , 'open"),
            ("$ 1", "$ 1"),
            (
                "RETURN 99999999999999999999, 1",
                "RETURN 99999999999999999999, 1",
            ),
        ] {
            let (shape, tokens) = lex_shape(text);
            assert_eq!(shape, expected);
            assert_eq!(tokens.unwrap_err(), lex(text).unwrap_err());
        }
    }

    #[test]
    fn tracks_line_numbers() {
        let tokens = lex("MATCH\n  (p)").unwrap();
        assert_eq!(tokens[1].position.line, 2);
        assert_eq!(tokens[1].position.column, 3);
    }
}
