//! Recursive-descent parser for the supported Cypher subset.
//!
//! One grammar, [`Parser::pipeline`]: `MATCH` / `OPTIONAL MATCH` / `WITH` /
//! `UNWIND` stages with comma-separated path patterns, node/relationship
//! patterns with variables, `|`-alternated label predicates, inline
//! property maps, both edge directions, undirected edges, variable-length
//! path expressions `*l..u`, `WHERE` clauses with comparisons,
//! `AND`/`OR`/`NOT` and parentheses, and a `RETURN` projection with
//! aggregates, aliases and `ORDER BY` / `SKIP` / `LIMIT`. The paper's
//! pattern-matching core — one `MATCH … [WHERE …] RETURN` of `*`,
//! variables, property accesses or `count(*)`, without `DISTINCT` — is the
//! special case [`parse`] lowers out of it through [`Pipeline::as_simple`].

use crate::ast::{
    AggArg, AggFunc, AggregateCall, Direction, MapValue, MatchStage, NodePattern, PathPattern,
    PathRange, Pipeline, Projection, ProjectionExpr, ProjectionItem, Query, RelPattern, SortKey,
    SortRef, Stage, UnwindSource, UnwindStage,
};
use crate::error::{ParseError, Position};
use crate::lexer::lex;
use crate::predicates::expr::{CmpOp, Expression, Literal};
use crate::token::{Keyword, Token, TokenKind};

/// Upper bound substituted for open-ended variable-length expressions
/// (`*`, `*2..`). Cypher leaves these unbounded; a distributed bulk
/// iteration needs a finite limit, so we cap at 10 hops — the largest bound
/// used by the paper's benchmark queries.
pub const DEFAULT_MAX_HOPS: usize = 10;

/// Parses a single `MATCH … [WHERE …] RETURN …` into the classic [`Query`]
/// AST: [`parse_pipeline`] followed by [`Pipeline::as_simple`]. A text that
/// parses but is a clause pipeline (a second reading clause, `DISTINCT`,
/// `ORDER BY` / `SKIP` / `LIMIT`, aggregates or aliased variables in
/// `RETURN`) is an error at the clause that makes it one.
pub fn parse(input: &str) -> Result<Query, ParseError> {
    let mut parser = Parser {
        tokens: lex(input)?,
        index: 0,
    };
    let pipeline = parser.pipeline()?;
    pipeline.as_simple().ok_or_else(|| parser.beyond_simple())
}

/// Parses a multi-clause read query (`MATCH` / `OPTIONAL MATCH` / `WITH` /
/// `UNWIND` stages followed by `RETURN` with optional `ORDER BY` / `SKIP` /
/// `LIMIT`) into a [`Pipeline`].
pub fn parse_pipeline(input: &str) -> Result<Pipeline, ParseError> {
    parse_tokens(lex(input)?)
}

/// [`parse_pipeline`] over an already lexed text — for a caller that also
/// needs the tokens' shape ([`lex_shape`](crate::lexer::lex_shape)) and
/// should not lex twice.
pub fn parse_tokens(tokens: Vec<Token>) -> Result<Pipeline, ParseError> {
    // The grammar reads up to an `Eof`; the lexer always ends with one.
    if !matches!(tokens.last(), Some(token) if token.kind == TokenKind::Eof) {
        return Err(ParseError::new(
            Position::start(),
            "expected tokens ending in end of input",
        ));
    }
    Parser { tokens, index: 0 }.pipeline()
}

struct Parser {
    tokens: Vec<Token>,
    index: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.index].kind
    }

    fn position(&self) -> Position {
        self.tokens[self.index].position
    }

    fn bump(&mut self) {
        if self.index + 1 < self.tokens.len() {
            self.index += 1;
        }
    }

    fn eat(&mut self, expected: &TokenKind) -> bool {
        let found = self.peek() == expected;
        if found {
            self.bump();
        }
        found
    }

    /// Consumes an identifier token, if one is next, and moves its name out
    /// of the token vector: the grammar never looks back at a token.
    fn eat_ident(&mut self) -> Option<String> {
        let TokenKind::Ident(name) = &mut self.tokens[self.index].kind else {
            return None;
        };
        let name = std::mem::take(name);
        self.bump();
        Some(name)
    }

    /// [`eat_ident`](Parser::eat_ident) for a `$name` parameter.
    fn eat_parameter(&mut self) -> Option<String> {
        let TokenKind::Parameter(name) = &mut self.tokens[self.index].kind else {
            return None;
        };
        let name = std::mem::take(name);
        self.bump();
        Some(name)
    }

    /// Consumes an integer token as a count (a path bound, `SKIP`, `LIMIT`).
    /// The lexer makes no negative integers: `-` is a token of its own.
    fn eat_count(&mut self) -> Option<usize> {
        let TokenKind::Integer(value) = *self.peek() else {
            return None;
        };
        let count = usize::try_from(value).ok()?;
        self.bump();
        Some(count)
    }

    fn expect(&mut self, expected: &TokenKind) -> Result<(), ParseError> {
        if self.eat(expected) {
            Ok(())
        } else {
            Err(self.error(format!("expected {expected}, found {}", self.peek())))
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.position(), message)
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        self.eat_ident()
            .ok_or_else(|| self.error(format!("expected {what}, found {}", self.peek())))
    }

    /// The `key` of a `variable.key` whose variable was just consumed, `None`
    /// for a bare variable.
    fn property_key(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat(&TokenKind::Dot) {
            self.ident("property key").map(Some)
        } else {
            Ok(None)
        }
    }

    /// The error of [`parse`] for a text that parsed as a pipeline and does
    /// not lower to one `MATCH … RETURN`: it points at the first clause the
    /// classic form cannot hold — failing one, at the `RETURN` that is
    /// `DISTINCT` or whose items aggregate or alias.
    fn beyond_simple(&self) -> ParseError {
        use Keyword::{Limit, Match, Optional, Order, Return, Skip, Unwind, With};
        let clause = |(index, token): &(usize, &Token)| match token.kind {
            TokenKind::Keyword(Match) => *index > 0,
            TokenKind::Keyword(Optional | With | Unwind | Order | Skip | Limit) => true,
            _ => false,
        };
        let is_return = |(_, token): &(usize, &Token)| token.kind == TokenKind::Keyword(Return);
        let mut tokens = self.tokens.iter().enumerate();
        let (_, token) = (tokens.clone().find(clause))
            .or_else(|| tokens.find(is_return))
            .expect("a parsed pipeline has a RETURN");
        ParseError::new(
            token.position,
            format!(
                "expected a single `MATCH … RETURN`, found a clause pipeline ({} here); \
                 parse it with `parse_pipeline`",
                token.kind
            ),
        )
    }

    // --- patterns ------------------------------------------------------------

    fn path_pattern(&mut self) -> Result<PathPattern, ParseError> {
        let start = self.node_pattern()?;
        let mut steps = Vec::new();
        while matches!(self.peek(), TokenKind::Minus | TokenKind::Lt) {
            let rel = self.rel_pattern()?;
            let node = self.node_pattern()?;
            steps.push((rel, node));
        }
        Ok(PathPattern { start, steps })
    }

    fn node_pattern(&mut self) -> Result<NodePattern, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let variable = self.eat_ident();
        let labels = if self.eat(&TokenKind::Colon) {
            self.label_alternatives()?
        } else {
            Vec::new()
        };
        let properties = if matches!(self.peek(), TokenKind::LBrace) {
            self.property_map()?
        } else {
            Vec::new()
        };
        self.expect(&TokenKind::RParen)?;
        Ok(NodePattern {
            variable,
            labels,
            properties,
        })
    }

    fn label_alternatives(&mut self) -> Result<Vec<String>, ParseError> {
        let mut labels = vec![self.ident("label")?];
        while self.eat(&TokenKind::Pipe) {
            labels.push(self.ident("label")?);
        }
        Ok(labels)
    }

    fn property_map(&mut self) -> Result<Vec<(String, MapValue)>, ParseError> {
        self.expect(&TokenKind::LBrace)?;
        let mut entries = Vec::new();
        if !matches!(self.peek(), TokenKind::RBrace) {
            loop {
                let key = self.ident("property key")?;
                self.expect(&TokenKind::Colon)?;
                // A map value is a literal or a `$param` placeholder; the
                // placeholder is kept in the AST and resolved against the
                // caller's bindings when the query graph is built.
                let value = match self.eat_parameter() {
                    Some(name) => MapValue::Parameter(name),
                    None => MapValue::Literal(self.literal()?),
                };
                entries.push((key, value));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(entries)
    }

    fn rel_pattern(&mut self) -> Result<RelPattern, ParseError> {
        let incoming = self.eat(&TokenKind::Lt);
        self.expect(&TokenKind::Minus)?;
        let mut rel = if matches!(self.peek(), TokenKind::LBracket) {
            self.rel_detail()?
        } else {
            RelPattern::default()
        };
        self.expect(&TokenKind::Minus)?;
        let outgoing = self.eat(&TokenKind::Gt);
        rel.direction = match (incoming, outgoing) {
            (true, false) => Direction::Incoming,
            (false, true) => Direction::Outgoing,
            (false, false) => Direction::Undirected,
            (true, true) => {
                return Err(self.error("a relationship cannot point both ways (`<-[..]->`)"))
            }
        };
        Ok(rel)
    }

    fn rel_detail(&mut self) -> Result<RelPattern, ParseError> {
        self.expect(&TokenKind::LBracket)?;
        let variable = self.eat_ident();
        let labels = if self.eat(&TokenKind::Colon) {
            self.label_alternatives()?
        } else {
            Vec::new()
        };
        let range = if self.eat(&TokenKind::Star) {
            Some(self.path_range()?)
        } else {
            None
        };
        let properties = if matches!(self.peek(), TokenKind::LBrace) {
            self.property_map()?
        } else {
            Vec::new()
        };
        self.expect(&TokenKind::RBracket)?;
        Ok(RelPattern {
            variable,
            labels,
            properties,
            direction: Direction::Outgoing, // fixed up by rel_pattern
            range,
        })
    }

    fn path_range(&mut self) -> Result<PathRange, ParseError> {
        // Already consumed `*`. Forms: `*`, `*n`, `*l..`, `*..u`, `*l..u`.
        let lower = self.eat_count();
        if self.eat(&TokenKind::DotDot) {
            let upper = self.eat_count();
            let lower = lower.unwrap_or(1);
            match upper {
                Some(upper) => {
                    if lower > upper {
                        return Err(self.error(format!(
                            "path lower bound {lower} exceeds upper bound {upper}"
                        )));
                    }
                    Ok(PathRange::closed(lower, upper))
                }
                // `*l..` — open-ended; capped at DEFAULT_MAX_HOPS, and the
                // executor errors if the cap would silently truncate.
                None => Ok(PathRange::open(lower, DEFAULT_MAX_HOPS.max(lower))),
            }
        } else {
            match lower {
                // `*n` — exactly n hops.
                Some(n) => Ok(PathRange::closed(n, n)),
                // bare `*` — at least one hop, open-ended.
                None => Ok(PathRange::open(1, DEFAULT_MAX_HOPS)),
            }
        }
    }

    // --- pipeline queries ------------------------------------------------------

    fn pipeline(&mut self) -> Result<Pipeline, ParseError> {
        let mut stages = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Keyword(Keyword::Match) => {
                    self.bump();
                    stages.push(Stage::Match(self.match_stage()?));
                }
                TokenKind::Keyword(Keyword::Optional) => {
                    self.bump();
                    self.expect(&TokenKind::Keyword(Keyword::Match))?;
                    stages.push(Stage::OptionalMatch(self.match_stage()?));
                }
                TokenKind::Keyword(Keyword::With) => {
                    self.bump();
                    stages.push(Stage::With(self.projection(true)?));
                }
                TokenKind::Keyword(Keyword::Unwind) => {
                    self.bump();
                    stages.push(Stage::Unwind(self.unwind_stage()?));
                }
                _ => break,
            }
        }
        if stages.is_empty() {
            return Err(self.error(format!(
                "expected MATCH, OPTIONAL MATCH, WITH or UNWIND, found {}",
                self.peek()
            )));
        }
        if let Some(Stage::OptionalMatch(_)) = stages.first() {
            return Err(self.error("a query cannot start with OPTIONAL MATCH"));
        }
        self.expect(&TokenKind::Keyword(Keyword::Return))?;
        let ret = self.projection(false)?;
        self.expect(&TokenKind::Eof)?;
        Ok(Pipeline { stages, ret })
    }

    fn match_stage(&mut self) -> Result<MatchStage, ParseError> {
        // Unlike the single-clause grammar, each MATCH keyword opens its own
        // stage (its own morphism-uniqueness scope); only commas extend it.
        let mut patterns = vec![self.path_pattern()?];
        while self.eat(&TokenKind::Comma) {
            patterns.push(self.path_pattern()?);
        }
        let where_clause = if self.eat(&TokenKind::Keyword(Keyword::Where)) {
            Some(self.expression()?)
        } else {
            None
        };
        Ok(MatchStage {
            patterns,
            where_clause,
        })
    }

    fn unwind_stage(&mut self) -> Result<UnwindStage, ParseError> {
        let source = if self.eat(&TokenKind::LBracket) {
            let mut items = Vec::new();
            if !matches!(self.peek(), TokenKind::RBracket) {
                loop {
                    items.push(self.literal()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RBracket)?;
            UnwindSource::List(items)
        } else if let Some(variable) = self.eat_ident() {
            match self.property_key()? {
                Some(key) => UnwindSource::Property { variable, key },
                None => UnwindSource::Variable(variable),
            }
        } else {
            return Err(self.error(format!(
                "expected list or variable after UNWIND, found {}",
                self.peek()
            )));
        };
        self.expect(&TokenKind::Keyword(Keyword::As))?;
        let alias = self.ident("UNWIND alias")?;
        Ok(UnwindStage { source, alias })
    }

    fn projection(&mut self, is_with: bool) -> Result<Projection, ParseError> {
        let distinct = self.eat(&TokenKind::Keyword(Keyword::Distinct));
        let mut star = false;
        let mut items = Vec::new();
        if self.eat(&TokenKind::Star) {
            star = true;
        } else {
            loop {
                let item = self.projection_item()?;
                // openCypher requires WITH items that are not bare variables
                // to be aliased so downstream clauses have a column name.
                if is_with
                    && item.alias.is_none()
                    && !matches!(item.expr, ProjectionExpr::Variable(_))
                {
                    return Err(self.error(format!(
                        "WITH item `{item}` must be aliased (`... AS name`)"
                    )));
                }
                items.push(item);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat(&TokenKind::Keyword(Keyword::Order)) {
            self.expect(&TokenKind::Keyword(Keyword::By))?;
            loop {
                order_by.push(self.sort_key()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let skip = if self.eat(&TokenKind::Keyword(Keyword::Skip)) {
            Some(self.row_count("SKIP")?)
        } else {
            None
        };
        let limit = if self.eat(&TokenKind::Keyword(Keyword::Limit)) {
            Some(self.row_count("LIMIT")?)
        } else {
            None
        };
        let where_clause = if is_with && self.eat(&TokenKind::Keyword(Keyword::Where)) {
            Some(self.expression()?)
        } else {
            None
        };
        Ok(Projection {
            star,
            items,
            distinct,
            order_by,
            skip,
            limit,
            where_clause,
        })
    }

    fn row_count(&mut self, clause: &str) -> Result<usize, ParseError> {
        self.eat_count().ok_or_else(|| {
            self.error(format!(
                "expected integer after {clause}, found {}",
                self.peek()
            ))
        })
    }

    fn agg_func(keyword: Keyword) -> Option<AggFunc> {
        match keyword {
            Keyword::Count => Some(AggFunc::Count),
            Keyword::Collect => Some(AggFunc::Collect),
            Keyword::Sum => Some(AggFunc::Sum),
            Keyword::Min => Some(AggFunc::Min),
            Keyword::Max => Some(AggFunc::Max),
            Keyword::Avg => Some(AggFunc::Avg),
            _ => None,
        }
    }

    fn projection_item(&mut self) -> Result<ProjectionItem, ParseError> {
        let aggregate = match self.peek() {
            TokenKind::Keyword(keyword) => Self::agg_func(*keyword),
            _ => None,
        };
        let expr = if let Some(func) = aggregate {
            self.bump();
            ProjectionExpr::Aggregate(self.aggregate_call(func)?)
        } else if let Some(variable) = self.eat_ident() {
            match self.property_key()? {
                Some(key) => ProjectionExpr::Property { variable, key },
                None => ProjectionExpr::Variable(variable),
            }
        } else {
            return Err(self.error(format!("expected projection item, found {}", self.peek())));
        };
        let alias = if self.eat(&TokenKind::Keyword(Keyword::As)) {
            Some(self.ident("alias")?)
        } else {
            None
        };
        Ok(ProjectionItem { expr, alias })
    }

    fn aggregate_call(&mut self, func: AggFunc) -> Result<AggregateCall, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let distinct = self.eat(&TokenKind::Keyword(Keyword::Distinct));
        let arg = if self.eat(&TokenKind::Star) {
            if func != AggFunc::Count {
                return Err(self.error(format!(
                    "`*` is only valid in count(*), not {}(*)",
                    func.as_str()
                )));
            }
            if distinct {
                return Err(self.error("count(DISTINCT *) is not supported"));
            }
            None
        } else {
            let variable = self.ident("aggregate argument")?;
            Some(match self.property_key()? {
                Some(key) => AggArg::Property { variable, key },
                None => AggArg::Variable(variable),
            })
        };
        self.expect(&TokenKind::RParen)?;
        Ok(AggregateCall {
            func,
            distinct,
            arg,
        })
    }

    fn sort_key(&mut self) -> Result<SortKey, ParseError> {
        let variable = self.ident("ORDER BY key")?;
        let expr = match self.property_key()? {
            Some(key) => SortRef::Property { variable, key },
            None => SortRef::Name(variable),
        };
        let descending = if self.eat(&TokenKind::Keyword(Keyword::Desc)) {
            true
        } else {
            self.eat(&TokenKind::Keyword(Keyword::Asc));
            false
        };
        Ok(SortKey { expr, descending })
    }

    // --- expressions -------------------------------------------------------------

    fn expression(&mut self) -> Result<Expression, ParseError> {
        self.or_expression()
    }

    fn or_expression(&mut self) -> Result<Expression, ParseError> {
        let mut left = self.and_expression()?;
        while self.eat(&TokenKind::Keyword(Keyword::Or)) {
            let right = self.and_expression()?;
            left = Expression::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expression(&mut self) -> Result<Expression, ParseError> {
        let mut left = self.not_expression()?;
        while self.eat(&TokenKind::Keyword(Keyword::And)) {
            let right = self.not_expression()?;
            left = Expression::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expression(&mut self) -> Result<Expression, ParseError> {
        if self.eat(&TokenKind::Keyword(Keyword::Not)) {
            let inner = self.not_expression()?;
            return Ok(Expression::Not(Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expression, ParseError> {
        let left = self.primary()?;
        if self.eat(&TokenKind::Keyword(Keyword::Is)) {
            let negated = self.eat(&TokenKind::Keyword(Keyword::Not));
            self.expect(&TokenKind::Keyword(Keyword::Null))?;
            return Ok(Expression::IsNull {
                operand: Box::new(left),
                negated,
            });
        }
        let op = match self.peek() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Neq => CmpOp::Neq,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Lte => CmpOp::Lte,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Gte => CmpOp::Gte,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.primary()?;
        Ok(Expression::Comparison {
            left: Box::new(left),
            op,
            right: Box::new(right),
        })
    }

    fn primary(&mut self) -> Result<Expression, ParseError> {
        if self.eat(&TokenKind::LParen) {
            let inner = self.expression()?;
            self.expect(&TokenKind::RParen)?;
            Ok(inner)
        } else if let Some(variable) = self.eat_ident() {
            Ok(match self.property_key()? {
                Some(key) => Expression::Property { variable, key },
                None => Expression::Variable(variable),
            })
        } else if let Some(name) = self.eat_parameter() {
            Ok(Expression::Parameter(name))
        } else {
            self.literal().map(Expression::Literal)
        }
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        let negative = self.eat(&TokenKind::Minus);
        let literal = match &mut self.tokens[self.index].kind {
            TokenKind::Integer(value) => {
                Some(Literal::Integer(if negative { -*value } else { *value }))
            }
            TokenKind::Float(value) => {
                Some(Literal::Float(if negative { -*value } else { *value }))
            }
            _ if negative => None,
            TokenKind::String(value) => Some(Literal::String(std::mem::take(value))),
            TokenKind::Keyword(Keyword::True) => Some(Literal::Boolean(true)),
            TokenKind::Keyword(Keyword::False) => Some(Literal::Boolean(false)),
            TokenKind::Keyword(Keyword::Null) => Some(Literal::Null),
            _ => None,
        };
        let Some(literal) = literal else {
            let wanted = if negative {
                "number after `-`"
            } else {
                "literal"
            };
            return Err(self.error(format!("expected {wanted}, found {}", self.peek())));
        };
        self.bump();
        Ok(literal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ReturnItem;

    #[test]
    fn parses_paper_example_query() {
        let query = parse(
            "MATCH (p1:Person)-[s:studyAt]->(u:University), \
                    (p2:Person)-[:studyAt]->(u), \
                    (p1)-[e:knows*1..3]->(p2) \
             WHERE p1.gender <> p2.gender \
               AND u.name = 'Uni Leipzig' \
               AND s.classYear > 2014 \
             RETURN *",
        )
        .expect("parse");
        assert_eq!(query.patterns.len(), 3);
        let (rel, _) = &query.patterns[2].steps[0];
        assert_eq!(rel.variable.as_deref(), Some("e"));
        assert_eq!(rel.range, Some(PathRange::closed(1, 3)));
        assert!(query.where_clause.is_some());
        assert_eq!(query.return_clause.items, vec![ReturnItem::All]);
    }

    #[test]
    fn parses_label_alternation_and_incoming_edges() {
        let query = parse(
            "MATCH (person:Person)<-[:hasCreator]-(message:Comment|Post) \
             WHERE person.firstName = \"Jun\" \
             RETURN message.creationDate, message.content",
        )
        .expect("parse");
        let (rel, node) = &query.patterns[0].steps[0];
        assert_eq!(rel.direction, Direction::Incoming);
        assert_eq!(node.labels, vec!["Comment".to_string(), "Post".to_string()]);
        assert_eq!(query.return_clause.items.len(), 2);
    }

    #[test]
    fn parses_all_six_benchmark_queries() {
        let queries = [
            // Q1
            "MATCH (person:Person)<-[:hasCreator]-(message:Comment|Post)
             WHERE person.firstName = \"X\"
             RETURN message.creationDate, message.content",
            // Q2
            "MATCH (person:Person)<-[:hasCreator]-(message:Comment|Post),
                   (message)-[:replyOf*0..10]->(post:Post)
             WHERE person.firstName = \"X\"
             RETURN message.creationDate, message.content, post.creationDate, post.content",
            // Q3
            "MATCH (p1:Person)-[:knows]->(p2:Person),
                   (p2)<-[:hasCreator]-(comment:Comment),
                   (comment)-[:replyOf*1..10]->(post:Post),
                   (post)-[:hasCreator]->(p1)
             WHERE p1.firstName = \"X\"
             RETURN p1.firstName, p1.lastName, p2.firstName, p2.lastName, post.content",
            // Q4
            "MATCH (person:Person)-[:isLocatedIn]->(city:City),
                   (person)-[:hasInterest]->(tag:Tag),
                   (person)-[:studyAt]->(uni:University),
                   (person)<-[:hasMember|hasModerator]-(forum:Forum)
             RETURN person.firstName, person.lastName, city.name, tag.name, uni.name, forum.title",
            // Q5
            "MATCH (p1:Person)-[:knows]->(p2:Person),
                   (p2)-[:knows]->(p3:Person),
                   (p1)-[:knows]->(p3)
             RETURN p1.firstName, p1.lastName, p2.firstName, p2.lastName, p3.firstName, p3.lastName",
            // Q6
            "MATCH (p1:Person)-[:knows]->(p2:Person),
                   (p1)-[:hasInterest]->(t1:Tag),
                   (p2)-[:hasInterest]->(t1),
                   (p2)-[:hasInterest]->(t2:Tag)
             RETURN p1.firstName, p1.lastName, t2.name",
        ];
        for (i, text) in queries.iter().enumerate() {
            parse(text).unwrap_or_else(|e| panic!("query {}: {e}", i + 1));
        }
    }

    #[test]
    fn parses_range_forms() {
        let range = |text: &str| {
            parse(&format!("MATCH (a)-[e:knows{text}]->(b) RETURN *"))
                .expect("parse")
                .patterns[0]
                .steps[0]
                .0
                .range
        };
        assert_eq!(range("*1..3"), Some(PathRange::closed(1, 3)));
        assert_eq!(range("*0..10"), Some(PathRange::closed(0, 10)));
        assert_eq!(range("*2"), Some(PathRange::closed(2, 2)));
        assert_eq!(range("*"), Some(PathRange::open(1, DEFAULT_MAX_HOPS)));
        assert_eq!(range("*3.."), Some(PathRange::open(3, DEFAULT_MAX_HOPS)));
        // An open lower bound beyond the default cap raises the cap with it.
        assert_eq!(range("*15.."), Some(PathRange::open(15, 15)));
        assert_eq!(range("*..4"), Some(PathRange::closed(1, 4)));
        assert_eq!(range(""), None);
    }

    #[test]
    fn rejects_inverted_range() {
        let error = parse("MATCH (a)-[e:knows*3..1]->(b) RETURN *").unwrap_err();
        assert!(error.message.contains("exceeds"));
    }

    #[test]
    fn parses_undirected_and_bare_edges() {
        let q = parse("MATCH (a)--(b), (c)-->(d), (e)<--(f) RETURN *").expect("parse");
        assert_eq!(q.patterns[0].steps[0].0.direction, Direction::Undirected);
        assert_eq!(q.patterns[1].steps[0].0.direction, Direction::Outgoing);
        assert_eq!(q.patterns[2].steps[0].0.direction, Direction::Incoming);
    }

    #[test]
    fn rejects_bidirectional_edges() {
        assert!(parse("MATCH (a)<-[e]->(b) RETURN *").is_err());
    }

    #[test]
    fn parses_property_maps() {
        let q = parse("MATCH (p:Person {name: 'Alice', yob: 1984}) RETURN p").expect("parse");
        assert_eq!(
            q.patterns[0].start.properties,
            vec![
                (
                    "name".to_string(),
                    MapValue::Literal(Literal::String("Alice".into()))
                ),
                ("yob".to_string(), MapValue::Literal(Literal::Integer(1984))),
            ]
        );
    }

    #[test]
    fn parses_parameters_in_property_maps() {
        let q = parse("MATCH (p:Person {name: $n, yob: 1984})-[e {since: $s}]->(b) RETURN p")
            .expect("parse");
        assert_eq!(
            q.patterns[0].start.properties,
            vec![
                ("name".to_string(), MapValue::Parameter("n".into())),
                ("yob".to_string(), MapValue::Literal(Literal::Integer(1984))),
            ]
        );
        assert_eq!(
            q.patterns[0].steps[0].0.properties,
            vec![("since".to_string(), MapValue::Parameter("s".into()))]
        );
    }

    #[test]
    fn parses_where_precedence() {
        let q =
            parse("MATCH (a) WHERE a.x = 1 OR a.y = 2 AND NOT a.z = 3 RETURN *").expect("parse");
        // AND binds tighter than OR.
        assert_eq!(
            q.where_clause.unwrap().to_string(),
            "(a.x = 1 OR (a.y = 2 AND (NOT a.z = 3)))"
        );
    }

    #[test]
    fn parses_parameters_and_negative_literals() {
        let q = parse("MATCH (p) WHERE p.name = $firstName AND p.score > -5 RETURN count(*)")
            .expect("parse");
        assert_eq!(q.return_clause.items, vec![ReturnItem::CountStar]);
        assert!(q.where_clause.unwrap().to_string().contains("$firstName"));
    }

    #[test]
    fn parse_rejects_exactly_what_does_not_lower_to_a_single_match() {
        // (text, column of the clause that makes it a pipeline)
        let pipelines = [
            ("MATCH (a) RETURN a ORDER BY a.p", 20),
            ("MATCH (a) RETURN a SKIP 1", 20),
            ("MATCH (a) RETURN a LIMIT 2", 20),
            ("MATCH (a) RETURN count(*) AS n", 11),
            ("MATCH (a) RETURN a AS b", 11),
            ("MATCH (a) RETURN sum(a.p)", 11),
            ("MATCH (a) RETURN DISTINCT count(*)", 11),
            // DISTINCT is a table operation, not a property of the match.
            ("MATCH (a) RETURN DISTINCT a.p", 11),
            ("MATCH (a) RETURN a, count(*)", 11),
            ("MATCH (a) OPTIONAL MATCH (a)-[e]->(b) RETURN *", 11),
            // Two MATCH clauses used to be merged into one pattern list —
            // query-wide instead of per-clause edge uniqueness.
            ("MATCH (a)-[:x]->(b) MATCH (b)-[:y]->(c) RETURN *", 21),
            ("MATCH (a) WITH a RETURN a", 11),
            ("UNWIND [1] AS x RETURN x", 1),
        ];
        for (text, column) in pipelines {
            let pipeline = parse_pipeline(text).expect(text);
            assert!(pipeline.as_simple().is_none(), "{text}");
            let error = parse(text).expect_err(text);
            assert_eq!((error.position.line, error.position.column), (1, column));
            assert!(error.message.contains("clause pipeline"), "{error}");
            assert!(error.message.contains("parse_pipeline"), "{error}");
        }
        let simple = [
            "MATCH (a) RETURN *",
            "MATCH (a), (b) WHERE a.p = b.p RETURN a.p AS p, b",
            "MATCH (a)-[e]->(b) RETURN count(*)",
        ];
        for text in simple {
            let lowered = parse_pipeline(text).expect(text).as_simple();
            assert_eq!(parse(text).ok(), lowered, "{text}");
            assert!(lowered.is_some(), "{text}");
        }
    }

    #[test]
    fn parses_is_null_predicates() {
        let q = parse("MATCH (a) WHERE a.p IS NULL OR a.q IS NOT NULL RETURN *").expect("parse");
        assert_eq!(
            q.where_clause.unwrap().to_string(),
            "(a.p IS NULL OR a.q IS NOT NULL)"
        );
        // IS must be followed by [NOT] NULL.
        assert!(parse("MATCH (a) WHERE a.p IS 5 RETURN *").is_err());
        assert!(parse("MATCH (a) WHERE a.p IS NOT 5 RETURN *").is_err());
    }

    #[test]
    fn parses_return_distinct() {
        let p = parse_pipeline("MATCH (a)-[e]->(b) RETURN DISTINCT a.name, b.name").expect("parse");
        assert!(p.ret.distinct);
        assert_eq!(p.ret.items.len(), 2);
        let p = parse_pipeline("MATCH (a) RETURN a").expect("parse");
        assert!(!p.ret.distinct);
        // Pretty-printed DISTINCT survives a reparse.
        let p = parse_pipeline("MATCH (a) RETURN DISTINCT *").expect("parse");
        assert_eq!(parse_pipeline(&p.to_string()).expect("reparse"), p);
    }

    #[test]
    fn parses_aliases() {
        let q = parse("MATCH (p) RETURN p.name AS personName").expect("parse");
        assert_eq!(
            q.return_clause.items,
            vec![ReturnItem::Property {
                variable: "p".into(),
                key: "name".into(),
                alias: Some("personName".into()),
            }]
        );
    }

    #[test]
    fn error_messages_point_at_problem() {
        let error = parse("MATCH (p RETURN *").unwrap_err();
        assert!(error.message.contains("expected"));
        assert!(parse("MATCH (p) RETURN").is_err());
        assert!(parse("RETURN *").is_err());
        assert!(parse("MATCH (p) WHERE RETURN *").is_err());
        assert!(parse("MATCH (p)-[e]->(q) WHERE e. RETURN *").is_err());
    }

    #[test]
    fn parses_pipeline_with_all_clauses() {
        let p = parse_pipeline(
            "MATCH (a:Person)-[:knows]->(b:Person) \
             WHERE a.age > 18 \
             OPTIONAL MATCH (b)-[:studyAt]->(u:University) \
             WITH a, u, count(*) AS n \
             UNWIND [1, 2] AS x \
             RETURN a.name, n, x ORDER BY n DESC, x SKIP 1 LIMIT 5",
        )
        .expect("parse");
        assert_eq!(p.stages.len(), 4);
        assert!(matches!(p.stages[0], Stage::Match(_)));
        assert!(matches!(p.stages[1], Stage::OptionalMatch(_)));
        assert!(matches!(p.stages[2], Stage::With(_)));
        assert!(matches!(p.stages[3], Stage::Unwind(_)));
        assert_eq!(p.ret.items.len(), 3);
        assert_eq!(p.ret.order_by.len(), 2);
        assert!(p.ret.order_by[0].descending);
        assert!(!p.ret.order_by[1].descending);
        assert_eq!(p.ret.skip, Some(1));
        assert_eq!(p.ret.limit, Some(5));
    }

    #[test]
    fn parses_aggregates() {
        let p = parse_pipeline(
            "MATCH (a) RETURN count(*), count(DISTINCT a), collect(a.p) AS ps, \
             sum(a.p) AS s, min(a.p) AS lo, max(a.p) AS hi, avg(a.p) AS mean",
        )
        .expect("parse");
        assert_eq!(p.ret.items.len(), 7);
        let call = |i: usize| match &p.ret.items[i].expr {
            ProjectionExpr::Aggregate(c) => c.clone(),
            other => panic!("expected aggregate, got {other:?}"),
        };
        assert_eq!(call(0).func, AggFunc::Count);
        assert_eq!(call(0).arg, None);
        assert!(call(1).distinct);
        assert_eq!(call(1).arg, Some(AggArg::Variable("a".into())));
        assert_eq!(call(2).func, AggFunc::Collect);
        assert_eq!(call(6).func, AggFunc::Avg);
        // Non-count aggregates reject `*`.
        assert!(parse_pipeline("MATCH (a) RETURN sum(*)").is_err());
        assert!(parse_pipeline("MATCH (a) RETURN count(DISTINCT *)").is_err());
    }

    #[test]
    fn with_items_require_aliases() {
        assert!(parse_pipeline("MATCH (a) WITH a RETURN a").is_ok());
        assert!(parse_pipeline("MATCH (a) WITH a.p AS p RETURN p").is_ok());
        assert!(parse_pipeline("MATCH (a) WITH a.p RETURN *").is_err());
        assert!(parse_pipeline("MATCH (a) WITH count(*) RETURN *").is_err());
    }

    #[test]
    fn with_where_comes_after_paging() {
        let p =
            parse_pipeline("MATCH (a) WITH a ORDER BY a.p SKIP 1 LIMIT 3 WHERE a.p > 0 RETURN a")
                .expect("parse");
        let Stage::With(w) = &p.stages[1] else {
            panic!("expected WITH stage");
        };
        assert!(w.where_clause.is_some());
        assert_eq!(w.skip, Some(1));
        assert_eq!(w.limit, Some(3));
        // RETURN has no trailing WHERE.
        assert!(parse_pipeline("MATCH (a) RETURN a WHERE a.p > 0").is_err());
    }

    #[test]
    fn parses_unwind_sources() {
        let p = parse_pipeline("UNWIND [1, 'x', null] AS v RETURN v").expect("parse");
        let Stage::Unwind(u) = &p.stages[0] else {
            panic!("expected UNWIND stage");
        };
        assert_eq!(
            u.source,
            UnwindSource::List(vec![
                Literal::Integer(1),
                Literal::String("x".into()),
                Literal::Null,
            ])
        );
        assert_eq!(u.alias, "v");
        let p = parse_pipeline("MATCH (a) WITH collect(a) AS xs UNWIND xs AS x RETURN x")
            .expect("parse");
        assert!(matches!(
            &p.stages[2],
            Stage::Unwind(UnwindStage {
                source: UnwindSource::Variable(v),
                ..
            }) if v == "xs"
        ));
        assert!(parse_pipeline("UNWIND a.tags AS t RETURN t").is_ok());
        assert!(parse_pipeline("UNWIND 5 AS t RETURN t").is_err());
    }

    #[test]
    fn parse_tokens_takes_the_lexers_output_only() {
        let mut tokens = lex("MATCH (a) RETURN a,").unwrap();
        assert!(parse_tokens(tokens.clone()).is_err());
        // Without the `Eof` the trailing `,` would be eaten forever.
        tokens.pop();
        assert!(parse_tokens(tokens).is_err());
        assert!(parse_tokens(Vec::new()).is_err());
        assert!(parse_tokens(lex("MATCH (a) RETURN a").unwrap()).is_ok());
    }

    #[test]
    fn pipeline_rejects_leading_optional_match() {
        assert!(parse_pipeline("OPTIONAL MATCH (a) RETURN a").is_err());
        assert!(parse_pipeline("RETURN *").is_err());
    }

    #[test]
    fn as_simple_recognizes_classic_queries() {
        let simple = |text: &str| parse_pipeline(text).expect("parse").as_simple();
        let classic = simple("MATCH (a)-[e]->(b) WHERE a.p = 1 RETURN a.p, b").unwrap();
        assert_eq!(
            classic,
            parse("MATCH (a)-[e]->(b) WHERE a.p = 1 RETURN a.p, b").unwrap()
        );
        assert_eq!(
            simple("MATCH (a) RETURN count(*)")
                .unwrap()
                .return_clause
                .items,
            vec![ReturnItem::CountStar]
        );
        assert!(simple("MATCH (a) RETURN DISTINCT a.p, a").is_none());
        assert!(simple("MATCH (a) RETURN a ORDER BY a.p").is_none());
        assert!(simple("MATCH (a) RETURN a LIMIT 2").is_none());
        assert!(simple("MATCH (a) RETURN count(*) AS n").is_none());
        assert!(simple("MATCH (a) OPTIONAL MATCH (a)-[e]->(b) RETURN *").is_none());
        assert!(simple("MATCH (a) MATCH (b) RETURN *").is_none());
        assert!(simple("UNWIND [1] AS x RETURN x").is_none());
    }

    #[test]
    fn pipeline_roundtrips_through_pretty_printer() {
        let texts = [
            "MATCH (a:Person)-[:knows]->(b) WHERE a.p > 1 OPTIONAL MATCH (b)-[:x]->(c) RETURN a, c",
            "MATCH (a) WITH DISTINCT a ORDER BY a.p DESC SKIP 2 LIMIT 9 WHERE a.p > 0 RETURN a",
            "MATCH (a) WITH a, count(*) AS n MATCH (b) RETURN n, b ORDER BY n, b.q DESC LIMIT 3",
            "UNWIND [1, 2.5, 'x', true, null] AS v RETURN v",
            "MATCH (a) RETURN count(DISTINCT a), collect(a.p) AS ps, sum(a.p) AS s",
            "MATCH (a)-[e:x*2..]->(b) RETURN *",
        ];
        for text in texts {
            let first = parse_pipeline(text).expect("first parse");
            let printed = first.to_string();
            let second =
                parse_pipeline(&printed).unwrap_or_else(|e| panic!("reparse {printed:?}: {e}"));
            assert_eq!(first, second, "{printed}");
        }
    }

    #[test]
    fn roundtrips_through_pretty_printer() {
        let texts = [
            "MATCH (p1:Person)-[s:studyAt]->(u:University) WHERE s.classYear > 2014 RETURN p1.name, u.name",
            "MATCH (a:A|B)<-[e:x|y*2..5]-(b) RETURN *",
            "MATCH (p:Person {name: 'Alice'})-[e]->(q) WHERE (NOT p.a = 1) RETURN count(*)",
        ];
        for text in texts {
            let first = parse(text).expect("first parse");
            let printed = first.to_string();
            let second = parse(&printed).unwrap_or_else(|e| panic!("reparse {printed:?}: {e}"));
            assert_eq!(first, second, "{printed}");
        }
    }
}
