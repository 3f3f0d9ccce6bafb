//! Abstract syntax tree of the supported Cypher subset, plus a
//! pretty-printer whose output re-parses to the same AST (used by the
//! property tests).

use crate::predicates::expr::{Expression, Literal};

/// A full query: `MATCH <patterns> [WHERE <expr>] RETURN <items>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Comma-separated path patterns from all MATCH clauses.
    pub patterns: Vec<PathPattern>,
    /// Filter expression of the WHERE clause.
    pub where_clause: Option<Expression>,
    /// The RETURN clause.
    pub return_clause: ReturnClause,
}

/// One path pattern: a start node and a sequence of (relationship, node)
/// steps, e.g. `(a)-[e]->(b)<-[f]-(c)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPattern {
    /// First node of the path.
    pub start: NodePattern,
    /// Relationship/node steps extending the path.
    pub steps: Vec<(RelPattern, NodePattern)>,
}

/// A value position inside an inline property map: a literal or a `$param`
/// placeholder resolved against the caller's parameter bindings when the
/// query graph is built (same substitution moment as `WHERE` parameters).
#[derive(Debug, Clone, PartialEq)]
pub enum MapValue {
    /// An inline literal, e.g. `{age: 42}`.
    Literal(Literal),
    /// A named parameter, e.g. `{age: $a}`.
    Parameter(String),
}

impl std::fmt::Display for MapValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapValue::Literal(literal) => write!(f, "{literal}"),
            MapValue::Parameter(name) => write!(f, "${name}"),
        }
    }
}

/// A node pattern `(variable:Label1|Label2 {key: literal, ...})`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodePattern {
    /// Declared variable, if any.
    pub variable: Option<String>,
    /// Label alternatives (`|`-separated); empty means "any label".
    pub labels: Vec<String>,
    /// Inline property equality constraints.
    pub properties: Vec<(String, MapValue)>,
}

/// Direction of a relationship pattern relative to its textual order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `-[..]->`
    Outgoing,
    /// `<-[..]-`
    Incoming,
    /// `-[..]-`
    Undirected,
}

/// Bounds of a variable-length path expression `*lower..upper`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathRange {
    /// Minimum number of edges (`*2..` → 2; bare `*` → 1).
    pub lower: usize,
    /// Maximum number of edges (`*..3` → 3; bare `*` → unbounded default).
    pub upper: usize,
    /// The query left the upper bound open (`*`, `*2..`). `upper` then holds
    /// the engine's substituted cap; the executor must verify the cap did
    /// not truncate results and raise a classified error if it would.
    pub open: bool,
}

impl PathRange {
    /// A closed range `*lower..upper`.
    pub fn closed(lower: usize, upper: usize) -> PathRange {
        PathRange {
            lower,
            upper,
            open: false,
        }
    }

    /// An open-ended range (`*`, `*lower..`) capped at `upper`.
    pub fn open(lower: usize, upper: usize) -> PathRange {
        PathRange {
            lower,
            upper,
            open: true,
        }
    }
}

/// A relationship pattern `-[variable:label1|label2 *1..3 {key: lit}]->`.
#[derive(Debug, Clone, PartialEq)]
pub struct RelPattern {
    /// Declared variable, if any.
    pub variable: Option<String>,
    /// Label alternatives; empty means "any label".
    pub labels: Vec<String>,
    /// Inline property equality constraints.
    pub properties: Vec<(String, MapValue)>,
    /// Pattern direction.
    pub direction: Direction,
    /// Variable-length bounds; `None` for a plain 1-hop edge.
    pub range: Option<PathRange>,
}

impl Default for RelPattern {
    fn default() -> Self {
        RelPattern {
            variable: None,
            labels: Vec::new(),
            properties: Vec::new(),
            direction: Direction::Outgoing,
            range: None,
        }
    }
}

/// One item of the RETURN clause.
#[derive(Debug, Clone, PartialEq)]
pub enum ReturnItem {
    /// `RETURN *` — all declared variables.
    All,
    /// `RETURN count(*)`.
    CountStar,
    /// A variable, e.g. `RETURN p1`.
    Variable(String),
    /// A property access, e.g. `RETURN p1.name` (optionally `AS alias`).
    Property {
        /// The variable.
        variable: String,
        /// The property key.
        key: String,
        /// Optional alias.
        alias: Option<String>,
    },
}

/// The RETURN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct ReturnClause {
    /// Returned items, in declaration order.
    pub items: Vec<ReturnItem>,
}

// --- pipeline queries --------------------------------------------------------

/// A multi-clause read query: a sequence of reading stages (`MATCH`,
/// `OPTIONAL MATCH`, `WITH`, `UNWIND`) terminated by a `RETURN` projection.
/// The single-`MATCH` core of the paper is the special case
/// [`Pipeline::as_simple`] recognizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Reading stages, in clause order.
    pub stages: Vec<Stage>,
    /// The terminal `RETURN` projection.
    pub ret: Projection,
}

/// One reading stage of a [`Pipeline`].
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// `MATCH <patterns> [WHERE <expr>]` — joins new bindings onto the
    /// working table; rows without a match are dropped.
    Match(MatchStage),
    /// `OPTIONAL MATCH <patterns> [WHERE <expr>]` — like `Match` but rows
    /// without a match survive with the new columns bound to NULL.
    OptionalMatch(MatchStage),
    /// `WITH <projection>` — a projection/aggregation barrier.
    With(Projection),
    /// `UNWIND <list> AS <alias>` — one output row per list element.
    Unwind(UnwindStage),
}

/// The body of a `MATCH` / `OPTIONAL MATCH` stage. The `WHERE` belongs to
/// the clause: for `OPTIONAL MATCH` it participates in the match decision
/// (a row whose candidates all fail is NULL-padded, not dropped).
#[derive(Debug, Clone, PartialEq)]
pub struct MatchStage {
    /// Comma-separated path patterns of this clause.
    pub patterns: Vec<PathPattern>,
    /// Clause-level filter.
    pub where_clause: Option<Expression>,
}

/// `UNWIND <source> AS <alias>`.
#[derive(Debug, Clone, PartialEq)]
pub struct UnwindStage {
    /// What to unwind.
    pub source: UnwindSource,
    /// The column the elements are bound to.
    pub alias: String,
}

/// The operand of an `UNWIND` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum UnwindSource {
    /// A literal list, e.g. `UNWIND [1, 2, 3] AS x`.
    List(Vec<Literal>),
    /// A bound column holding a list (e.g. produced by `collect`).
    Variable(String),
    /// A list-valued property, e.g. `UNWIND a.tags AS t`.
    Property {
        /// The element variable.
        variable: String,
        /// The property key.
        key: String,
    },
}

/// The projection body shared by `WITH` and `RETURN`:
/// `[DISTINCT] <items> [ORDER BY ...] [SKIP n] [LIMIT n] [WHERE expr]`
/// (the trailing `WHERE` is only legal on `WITH`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Projection {
    /// `*` — carry every bound column through.
    pub star: bool,
    /// Explicit projection items (empty iff `star`).
    pub items: Vec<ProjectionItem>,
    /// Deduplicate output rows.
    pub distinct: bool,
    /// Sort keys, outermost first.
    pub order_by: Vec<SortKey>,
    /// Rows to drop from the front of the ordered output.
    pub skip: Option<usize>,
    /// Maximum rows to keep after `skip`.
    pub limit: Option<usize>,
    /// Post-projection filter (`WITH ... WHERE ...` only).
    pub where_clause: Option<Expression>,
}

/// One projected column.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionItem {
    /// The projected expression.
    pub expr: ProjectionExpr,
    /// Optional `AS alias`. Mandatory in `WITH` for non-variable items.
    pub alias: Option<String>,
}

impl ProjectionItem {
    /// The output column name: the alias if given, else the rendered
    /// expression (`x`, `a.p`, `count(*)`).
    pub fn name(&self) -> String {
        match &self.alias {
            Some(alias) => alias.clone(),
            None => self.expr.to_string(),
        }
    }
}

/// A projectable expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ProjectionExpr {
    /// A bound column.
    Variable(String),
    /// A property access.
    Property {
        /// The element variable.
        variable: String,
        /// The property key.
        key: String,
    },
    /// An aggregate call. Any aggregate in a projection turns it into a
    /// grouping: the non-aggregate items become the grouping key.
    Aggregate(AggregateCall),
}

/// An aggregate function call, e.g. `count(DISTINCT a.p)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateCall {
    /// Which aggregate.
    pub func: AggFunc,
    /// `DISTINCT` inside the call.
    pub distinct: bool,
    /// The argument; `None` is `count(*)`.
    pub arg: Option<AggArg>,
}

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(..)` — non-NULL values (or rows, for `count(*)`).
    Count,
    /// `collect(..)` — non-NULL values into a list.
    Collect,
    /// `sum(..)` — numeric sum; 0 on empty input.
    Sum,
    /// `min(..)` — minimum; NULL on empty input.
    Min,
    /// `max(..)` — maximum; NULL on empty input.
    Max,
    /// `avg(..)` — numeric mean; NULL on empty input.
    Avg,
}

impl AggFunc {
    /// Lower-case Cypher spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Collect => "collect",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// An aggregate argument.
#[derive(Debug, Clone, PartialEq)]
pub enum AggArg {
    /// A bound column.
    Variable(String),
    /// A property access.
    Property {
        /// The element variable.
        variable: String,
        /// The property key.
        key: String,
    },
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// What to sort on.
    pub expr: SortRef,
    /// `DESC` — reverse the order (NULLs first instead of last).
    pub descending: bool,
}

/// A sortable reference: an output column (possibly an alias) or a property
/// of a projected element variable.
#[derive(Debug, Clone, PartialEq)]
pub enum SortRef {
    /// A projected column by name.
    Name(String),
    /// A property access on a projected variable.
    Property {
        /// The element variable.
        variable: String,
        /// The property key.
        key: String,
    },
}

impl Pipeline {
    /// Recognizes pipelines expressible in the single-clause core —
    /// exactly one plain `MATCH` stage and a projection without
    /// `DISTINCT`, ordering, paging or aggregation — whose answer is the
    /// plan walker's embeddings. `DISTINCT` is a table operation: a text
    /// that asks for it is a clause pipeline.
    pub fn as_simple(&self) -> Option<Query> {
        let [Stage::Match(stage)] = self.stages.as_slice() else {
            return None;
        };
        let p = &self.ret;
        if p.distinct
            || !p.order_by.is_empty()
            || p.skip.is_some()
            || p.limit.is_some()
            || p.where_clause.is_some()
        {
            return None;
        }
        let items = if p.star {
            if !p.items.is_empty() {
                return None;
            }
            vec![ReturnItem::All]
        } else if let [ProjectionItem {
            expr:
                ProjectionExpr::Aggregate(AggregateCall {
                    func: AggFunc::Count,
                    distinct: false,
                    arg: None,
                }),
            alias: None,
        }] = p.items.as_slice()
        {
            // A bare `count(*)` is the classic hardcoded CountStar path;
            // aliased or grouped counts go through the pipeline executor.
            vec![ReturnItem::CountStar]
        } else {
            let mut items = Vec::with_capacity(p.items.len());
            for item in &p.items {
                match &item.expr {
                    ProjectionExpr::Variable(v) => {
                        if item.alias.is_some() {
                            return None;
                        }
                        items.push(ReturnItem::Variable(v.clone()));
                    }
                    ProjectionExpr::Property { variable, key } => {
                        items.push(ReturnItem::Property {
                            variable: variable.clone(),
                            key: key.clone(),
                            alias: item.alias.clone(),
                        });
                    }
                    ProjectionExpr::Aggregate(_) => return None,
                }
            }
            items
        };
        Some(Query {
            patterns: stage.patterns.clone(),
            where_clause: stage.where_clause.clone(),
            return_clause: ReturnClause { items },
        })
    }

    /// True when any stage or the final projection contains an aggregate.
    pub fn has_aggregate(&self) -> bool {
        let proj_has = |p: &Projection| {
            p.items
                .iter()
                .any(|i| matches!(i.expr, ProjectionExpr::Aggregate(_)))
        };
        self.stages.iter().any(|s| match s {
            Stage::With(p) => proj_has(p),
            _ => false,
        }) || proj_has(&self.ret)
    }
}

impl MatchStage {
    /// The stage's patterns as a stand-alone `MATCH … RETURN *`: what one
    /// `MATCH` of a pipeline plans and matches on its own. The stage
    /// `WHERE` is left out — it is evaluated row-wise over the combined
    /// table, where it can see the columns of earlier stages.
    pub fn as_query(&self) -> Query {
        Query {
            patterns: self.patterns.clone(),
            where_clause: None,
            return_clause: ReturnClause {
                items: vec![ReturnItem::All],
            },
        }
    }
}

// --- pretty printer ----------------------------------------------------------

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MATCH ")?;
        for (i, pattern) in self.patterns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{pattern}")?;
        }
        if let Some(where_clause) = &self.where_clause {
            write!(f, " WHERE {where_clause}")?;
        }
        write!(f, " RETURN ")?;
        for (i, item) in self.return_clause.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for PathPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.start)?;
        for (rel, node) in &self.steps {
            write!(f, "{rel}{node}")?;
        }
        Ok(())
    }
}

fn write_labels_and_properties(
    f: &mut std::fmt::Formatter<'_>,
    labels: &[String],
    properties: &[(String, MapValue)],
) -> std::fmt::Result {
    if !labels.is_empty() {
        write!(f, ":{}", labels.join("|"))?;
    }
    if !properties.is_empty() {
        write!(f, " {{")?;
        for (i, (key, value)) in properties.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{key}: {value}")?;
        }
        write!(f, "}}")?;
    }
    Ok(())
}

impl std::fmt::Display for NodePattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        if let Some(variable) = &self.variable {
            write!(f, "{variable}")?;
        }
        write_labels_and_properties(f, &self.labels, &self.properties)?;
        write!(f, ")")
    }
}

impl std::fmt::Display for RelPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.direction == Direction::Incoming {
            write!(f, "<-[")?;
        } else {
            write!(f, "-[")?;
        }
        if let Some(variable) = &self.variable {
            write!(f, "{variable}")?;
        }
        if !self.labels.is_empty() {
            write!(f, ":{}", self.labels.join("|"))?;
        }
        // The range precedes the property map, like in Cypher:
        // `-[e:knows*1..3 {since: 2014}]->`.
        if let Some(range) = &self.range {
            if range.open {
                write!(f, "*{}..", range.lower)?;
            } else {
                write!(f, "*{}..{}", range.lower, range.upper)?;
            }
        }
        if !self.properties.is_empty() {
            write!(f, " {{")?;
            for (i, (key, value)) in self.properties.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{key}: {value}")?;
            }
            write!(f, "}}")?;
        }
        if self.direction == Direction::Outgoing {
            write!(f, "]->")
        } else {
            write!(f, "]-")
        }
    }
}

impl std::fmt::Display for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for stage in &self.stages {
            write!(f, "{stage} ")?;
        }
        write!(f, "RETURN {}", self.ret)
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Match(m) => write!(f, "MATCH {m}"),
            Stage::OptionalMatch(m) => write!(f, "OPTIONAL MATCH {m}"),
            Stage::With(p) => write!(f, "WITH {p}"),
            Stage::Unwind(u) => write!(f, "{u}"),
        }
    }
}

impl std::fmt::Display for MatchStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, pattern) in self.patterns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{pattern}")?;
        }
        if let Some(where_clause) = &self.where_clause {
            write!(f, " WHERE {where_clause}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for UnwindStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UNWIND {} AS {}", self.source, self.alias)
    }
}

impl std::fmt::Display for UnwindSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnwindSource::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            UnwindSource::Variable(v) => write!(f, "{v}"),
            UnwindSource::Property { variable, key } => write!(f, "{variable}.{key}"),
        }
    }
}

impl std::fmt::Display for Projection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        if self.star {
            write!(f, "*")?;
        } else {
            for (i, item) in self.items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{item}")?;
            }
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, key) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{key}")?;
            }
        }
        if let Some(skip) = self.skip {
            write!(f, " SKIP {skip}")?;
        }
        if let Some(limit) = self.limit {
            write!(f, " LIMIT {limit}")?;
        }
        if let Some(where_clause) = &self.where_clause {
            write!(f, " WHERE {where_clause}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for ProjectionItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.expr)?;
        if let Some(alias) = &self.alias {
            write!(f, " AS {alias}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for ProjectionExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProjectionExpr::Variable(v) => write!(f, "{v}"),
            ProjectionExpr::Property { variable, key } => write!(f, "{variable}.{key}"),
            ProjectionExpr::Aggregate(call) => write!(f, "{call}"),
        }
    }
}

impl std::fmt::Display for AggregateCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(", self.func.as_str())?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        match &self.arg {
            None => write!(f, "*")?,
            Some(AggArg::Variable(v)) => write!(f, "{v}")?,
            Some(AggArg::Property { variable, key }) => write!(f, "{variable}.{key}")?,
        }
        write!(f, ")")
    }
}

impl std::fmt::Display for SortKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.expr)?;
        if self.descending {
            write!(f, " DESC")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for SortRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SortRef::Name(name) => write!(f, "{name}"),
            SortRef::Property { variable, key } => write!(f, "{variable}.{key}"),
        }
    }
}

impl std::fmt::Display for ReturnItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReturnItem::All => write!(f, "*"),
            ReturnItem::CountStar => write!(f, "count(*)"),
            ReturnItem::Variable(variable) => write!(f, "{variable}"),
            ReturnItem::Property {
                variable,
                key,
                alias,
            } => {
                write!(f, "{variable}.{key}")?;
                if let Some(alias) = alias {
                    write!(f, " AS {alias}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_a_pattern() {
        let query = Query {
            patterns: vec![PathPattern {
                start: NodePattern {
                    variable: Some("p".into()),
                    labels: vec!["Person".into()],
                    properties: vec![(
                        "name".into(),
                        MapValue::Literal(Literal::String("Alice".into())),
                    )],
                },
                steps: vec![(
                    RelPattern {
                        variable: Some("e".into()),
                        labels: vec!["knows".into()],
                        range: Some(PathRange::closed(1, 3)),
                        ..RelPattern::default()
                    },
                    NodePattern {
                        variable: Some("q".into()),
                        ..NodePattern::default()
                    },
                )],
            }],
            where_clause: None,
            return_clause: ReturnClause {
                items: vec![ReturnItem::All],
            },
        };
        assert_eq!(
            query.to_string(),
            "MATCH (p:Person {name: 'Alice'})-[e:knows*1..3]->(q) RETURN *"
        );
    }

    #[test]
    fn incoming_edges_print_reversed_arrow() {
        let rel = RelPattern {
            direction: Direction::Incoming,
            labels: vec!["hasCreator".into()],
            ..RelPattern::default()
        };
        assert_eq!(rel.to_string(), "<-[:hasCreator]-");
    }

    #[test]
    fn undirected_edges_print_no_arrowhead() {
        let rel = RelPattern {
            direction: Direction::Undirected,
            ..RelPattern::default()
        };
        assert_eq!(rel.to_string(), "-[]-");
    }
}
