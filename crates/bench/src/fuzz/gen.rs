//! Seedable generators for random conformance cases: small EPGM property
//! graphs with adversarial property distributions (missing values, explicit
//! `NULL`s, the same key carrying `Int`/`Long`/`Float`/`Double`/`String`
//! values on different elements) and random Cypher pattern queries drawn
//! from the engine's supported grammar.
//!
//! Everything derives from a single `u64` seed through splitmix64, so a
//! failing case is reproducible from `(seed, case index)` alone.

use gradoop_epgm::{Edge, GradoopId, GraphHead, LogicalGraph, Properties, PropertyValue, Vertex};

use gradoop_dataflow::ExecutionEnvironment;

/// Splitmix64 — the same tiny PRNG the repo's failure schedules use.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound` (`bound` ≥ 1).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// `true` with probability `percent`/100.
    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    /// Uniformly picks one element of `choices`.
    pub fn pick<'a, T>(&mut self, choices: &'a [T]) -> &'a T {
        &choices[self.below(choices.len())]
    }
}

/// Vertex label pool.
pub const VERTEX_LABELS: [&str; 2] = ["A", "B"];
/// Edge label pool.
pub const EDGE_LABELS: [&str; 2] = ["x", "y"];
/// Property key pool (shared by vertices and edges).
pub const PROPERTY_KEYS: [&str; 2] = ["p", "q"];

/// One vertex of a generated graph.
#[derive(Debug, Clone)]
pub struct VertexSpec {
    /// EPGM identifier.
    pub id: u64,
    /// Label (from [`VERTEX_LABELS`]).
    pub label: String,
    /// Properties; an absent key means the property is missing (≠ NULL).
    pub properties: Vec<(String, PropertyValue)>,
}

/// One edge of a generated graph.
#[derive(Debug, Clone)]
pub struct EdgeSpec {
    /// EPGM identifier.
    pub id: u64,
    /// Label (from [`EDGE_LABELS`]).
    pub label: String,
    /// Source vertex id.
    pub source: u64,
    /// Target vertex id.
    pub target: u64,
    /// Properties, same conventions as [`VertexSpec::properties`].
    pub properties: Vec<(String, PropertyValue)>,
}

/// A generated data graph, as plain data so the shrinker can edit it.
#[derive(Debug, Clone)]
pub struct GraphSpec {
    /// The vertices.
    pub vertices: Vec<VertexSpec>,
    /// The edges (endpoints always reference vertex ids in `vertices`).
    pub edges: Vec<EdgeSpec>,
}

impl GraphSpec {
    /// Materializes the spec as a [`LogicalGraph`] on `env`.
    pub fn build(&self, env: &ExecutionEnvironment) -> LogicalGraph {
        let vertices = self
            .vertices
            .iter()
            .map(|v| {
                let mut properties = Properties::new();
                for (key, value) in &v.properties {
                    properties.set(key, value.clone());
                }
                Vertex::new(GradoopId(v.id), v.label.as_str(), properties)
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|e| {
                let mut properties = Properties::new();
                for (key, value) in &e.properties {
                    properties.set(key, value.clone());
                }
                Edge::new(
                    GradoopId(e.id),
                    e.label.as_str(),
                    GradoopId(e.source),
                    GradoopId(e.target),
                    properties,
                )
            })
            .collect();
        LogicalGraph::from_data(
            env,
            GraphHead::new(GradoopId(999_999), "conformance", Properties::new()),
            vertices,
            edges,
        )
    }

    /// Drops vertex at `index` together with its incident edges.
    pub fn without_vertex(&self, index: usize) -> GraphSpec {
        let id = self.vertices[index].id;
        let mut out = self.clone();
        out.vertices.remove(index);
        out.edges.retain(|e| e.source != id && e.target != id);
        out
    }
}

/// Property values drawn for graph elements. The pool is deliberately
/// cross-typed: the same key can hold an `Int`, a `Long` beyond 2^53 (where
/// `f64` rounding bites), a `Float`, a `Double` midway between integers, a
/// string, a boolean or an explicit `NULL`.
fn random_value(rng: &mut Rng) -> PropertyValue {
    match rng.below(10) {
        0 => PropertyValue::Int(rng.below(4) as i32),
        1 => PropertyValue::Long(rng.below(4) as i64),
        2 => PropertyValue::Long((1i64 << 53) + rng.below(3) as i64),
        3 => PropertyValue::Float(rng.below(4) as f32 + 0.5),
        4 => PropertyValue::Double(rng.below(4) as f64),
        5 => PropertyValue::Double(rng.below(4) as f64 + 0.5),
        6 => PropertyValue::String(["a", "b"][rng.below(2)].to_string()),
        7 => PropertyValue::Boolean(rng.below(2) == 0),
        8 => PropertyValue::Null,
        _ => PropertyValue::Int(2015 + rng.below(2) as i32),
    }
}

fn random_properties(rng: &mut Rng) -> Vec<(String, PropertyValue)> {
    let mut out = Vec::new();
    for key in PROPERTY_KEYS {
        // ~1/3 of keys stay missing so predicates hit the absent-property
        // paths, which behave like NULL but are stored differently.
        if rng.chance(67) {
            out.push((key.to_string(), random_value(rng)));
        }
    }
    out
}

/// Generates a random small graph: 2–7 vertices, 0–2·|V| edges.
pub fn random_graph(rng: &mut Rng) -> GraphSpec {
    let vertex_count = 2 + rng.below(6);
    let vertices: Vec<VertexSpec> = (0..vertex_count)
        .map(|i| VertexSpec {
            id: i as u64 + 1,
            label: rng.pick(&VERTEX_LABELS).to_string(),
            properties: random_properties(rng),
        })
        .collect();
    let edge_count = rng.below(2 * vertex_count + 1);
    let edges = (0..edge_count)
        .map(|i| EdgeSpec {
            id: 1000 + i as u64,
            label: rng.pick(&EDGE_LABELS).to_string(),
            source: vertices[rng.below(vertex_count)].id,
            target: vertices[rng.below(vertex_count)].id,
            properties: random_properties(rng),
        })
        .collect();
    GraphSpec { vertices, edges }
}

/// A literal as it appears in generated query text.
#[derive(Debug, Clone, PartialEq)]
pub enum LitSpec {
    /// Integer literal.
    Int(i64),
    /// Float literal (parses to a `Double`-typed value).
    Float(f64),
    /// String literal.
    Str(String),
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// `NULL`.
    Null,
}

impl LitSpec {
    fn render(&self) -> String {
        match self {
            LitSpec::Int(v) => v.to_string(),
            LitSpec::Float(v) => format!("{v:?}"),
            LitSpec::Str(s) => format!("'{s}'"),
            LitSpec::Bool(true) => "TRUE".to_string(),
            LitSpec::Bool(false) => "FALSE".to_string(),
            LitSpec::Null => "NULL".to_string(),
        }
    }
}

fn random_literal(rng: &mut Rng) -> LitSpec {
    match rng.below(8) {
        0 => LitSpec::Int(rng.below(4) as i64),
        1 => LitSpec::Int(2015 + rng.below(2) as i64),
        2 => LitSpec::Int((1i64 << 53) + rng.below(3) as i64),
        3 => LitSpec::Float(rng.below(4) as f64 + 0.5),
        4 => LitSpec::Float(rng.below(4) as f64),
        5 => LitSpec::Str(["a", "b"][rng.below(2)].to_string()),
        6 => LitSpec::Bool(rng.below(2) == 0),
        _ => LitSpec::Null,
    }
}

/// One node pattern.
#[derive(Debug, Clone)]
pub struct NodePat {
    /// Variable name; `None` renders an anonymous node `(...)`.
    pub variable: Option<String>,
    /// `|`-alternated label predicate (empty = unlabeled).
    pub labels: Vec<String>,
    /// Inline property map.
    pub props: Vec<(String, LitSpec)>,
}

/// Edge direction in the pattern text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `-[..]->`
    Out,
    /// `<-[..]-`
    In,
    /// `-[..]-`
    Undirected,
}

/// One relationship pattern connecting two nodes of the query.
#[derive(Debug, Clone)]
pub struct EdgePat {
    /// Variable name; `None` renders an anonymous relationship.
    pub variable: Option<String>,
    /// Index into [`QuerySpec::nodes`] of the left-hand node.
    pub from: usize,
    /// Index into [`QuerySpec::nodes`] of the right-hand node.
    pub to: usize,
    /// Direction.
    pub direction: Dir,
    /// `|`-alternated label predicate (empty = untyped).
    pub labels: Vec<String>,
    /// Variable-length range `*lo..hi`; `None` = single hop.
    pub range: Option<(usize, usize)>,
    /// Inline property map.
    pub props: Vec<(String, LitSpec)>,
}

/// One term of a WHERE comparison.
#[derive(Debug, Clone)]
pub enum Term {
    /// `variable.key`
    Prop {
        /// The referenced variable.
        variable: String,
        /// The property key.
        key: String,
    },
    /// A literal.
    Lit(LitSpec),
}

impl Term {
    fn render(&self) -> String {
        match self {
            Term::Prop { variable, key } => format!("{variable}.{key}"),
            Term::Lit(lit) => lit.render(),
        }
    }
}

/// A WHERE expression tree.
#[derive(Debug, Clone)]
pub enum Cond {
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation (the three-valued-logic stress test).
    Not(Box<Cond>),
    /// `left <op> right`.
    Cmp {
        /// Left term.
        left: Term,
        /// Operator text (`=`, `<>`, `<`, `<=`, `>`, `>=`).
        op: &'static str,
        /// Right term.
        right: Term,
    },
    /// `variable.key IS [NOT] NULL`.
    IsNull {
        /// The referenced variable.
        variable: String,
        /// The property key.
        key: String,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
}

impl Cond {
    fn render(&self) -> String {
        match self {
            Cond::And(a, b) => format!("({} AND {})", a.render(), b.render()),
            Cond::Or(a, b) => format!("({} OR {})", a.render(), b.render()),
            Cond::Not(inner) => format!("(NOT {})", inner.render()),
            Cond::Cmp { left, op, right } => {
                format!("{} {op} {}", left.render(), right.render())
            }
            Cond::IsNull {
                variable,
                key,
                negated,
            } => {
                if *negated {
                    format!("{variable}.{key} IS NOT NULL")
                } else {
                    format!("{variable}.{key} IS NULL")
                }
            }
        }
    }

    /// Direct subtrees, for the shrinker (a failing `AND`/`OR`/`NOT` often
    /// reproduces with one of its children alone).
    pub fn children(&self) -> Vec<&Cond> {
        match self {
            Cond::And(a, b) | Cond::Or(a, b) => vec![a, b],
            Cond::Not(inner) => vec![inner],
            _ => Vec::new(),
        }
    }
}

/// One aggregate call in a generated tail projection.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Function name (`count`, `collect`, `sum`, `min`, `max`, `avg`).
    pub func: &'static str,
    /// Renders a `DISTINCT` argument (generated for `count` only).
    pub distinct: bool,
    /// `variable.key` argument; `None` renders `count(*)`.
    pub arg: Option<(String, String)>,
}

impl AggSpec {
    fn render(&self, alias_index: usize) -> String {
        let arg = match &self.arg {
            None => "*".to_string(),
            Some((variable, key)) => format!("{variable}.{key}"),
        };
        let distinct = if self.distinct { "DISTINCT " } else { "" };
        format!("{}({distinct}{arg}) AS a{alias_index}", self.func)
    }
}

/// A pipeline tail appended after the base `MATCH ... [WHERE ...]` part,
/// replacing the plain `RETURN *` — the grammar productions for the
/// multi-clause read surface (`WITH`, `OPTIONAL MATCH`, aggregation,
/// `ORDER BY`/`SKIP`/`LIMIT`, `UNWIND`).
#[derive(Debug, Clone)]
pub enum TailSpec {
    /// `RETURN [DISTINCT] * [ORDER BY ...] [SKIP n] [LIMIT n]`.
    OrderLimit {
        /// Deduplicate the projected rows.
        distinct: bool,
        /// Sort keys as `(variable, property key, descending)`.
        keys: Vec<(String, String, bool)>,
        /// `SKIP` row count.
        skip: Option<usize>,
        /// `LIMIT` row count.
        limit: Option<usize>,
    },
    /// `RETURN v.k AS g0, ..., agg(...) AS a0, ...` — grouped (or, with no
    /// group keys, global) aggregation.
    Aggregate {
        /// Grouping keys as `(variable, property key)`.
        group: Vec<(String, String)>,
        /// Aggregate calls (at least one).
        aggs: Vec<AggSpec>,
    },
    /// `WITH vars MATCH (anchor)-[f0]->(m0) RETURN *` — a projection
    /// barrier feeding a second MATCH stage joined on `anchor`.
    WithMatch {
        /// Variables the WITH carries through (the anchor is first).
        keep: Vec<String>,
        /// The kept node variable the second MATCH expands from.
        anchor: String,
        /// Label constraint on the new relationship.
        edge_label: Option<String>,
        /// Label constraint on the new node.
        node_label: Option<String>,
    },
    /// `OPTIONAL MATCH (anchor)-[o0]->(m0) RETURN *` — left outer join
    /// with NULL padding for anchors without the extension.
    OptionalTail {
        /// The bound node variable the optional pattern hangs off.
        anchor: String,
        /// Direction of the optional relationship.
        direction: Dir,
        /// Label constraint on the optional relationship.
        edge_label: Option<String>,
        /// Label constraint on the optional node.
        node_label: Option<String>,
    },
    /// `UNWIND [items] AS u0 RETURN *` (an empty list produces zero rows;
    /// `NULL` items exercise the NULL-element path).
    Unwind {
        /// The list literal's elements.
        items: Vec<LitSpec>,
    },
    /// `WITH count(*) AS c0 MATCH (m0) RETURN DISTINCT c0, m0.k AS d0` —
    /// the base match's row count beside one property of every vertex.
    /// The `WITH` always yields one row and the property takes few values,
    /// so projected rows repeat and `DISTINCT` has duplicates to remove
    /// (rows of `RETURN DISTINCT *` bind distinct elements, and most base
    /// matches are empty).
    DistinctProperty {
        /// The projected property key.
        key: String,
    },
}

fn label_text(label: &Option<String>) -> String {
    label.as_ref().map(|l| format!(":{l}")).unwrap_or_default()
}

impl TailSpec {
    fn render(&self) -> String {
        match self {
            TailSpec::OrderLimit {
                distinct,
                keys,
                skip,
                limit,
            } => {
                let mut out = String::from(" RETURN ");
                if *distinct {
                    out.push_str("DISTINCT ");
                }
                out.push('*');
                if !keys.is_empty() {
                    let rendered: Vec<String> = keys
                        .iter()
                        .map(|(variable, key, descending)| {
                            format!("{variable}.{key}{}", if *descending { " DESC" } else { "" })
                        })
                        .collect();
                    out.push_str(&format!(" ORDER BY {}", rendered.join(", ")));
                }
                if let Some(skip) = skip {
                    out.push_str(&format!(" SKIP {skip}"));
                }
                if let Some(limit) = limit {
                    out.push_str(&format!(" LIMIT {limit}"));
                }
                out
            }
            TailSpec::Aggregate { group, aggs } => {
                let mut items: Vec<String> = group
                    .iter()
                    .enumerate()
                    .map(|(i, (variable, key))| format!("{variable}.{key} AS g{i}"))
                    .collect();
                items.extend(aggs.iter().enumerate().map(|(i, agg)| agg.render(i)));
                format!(" RETURN {}", items.join(", "))
            }
            TailSpec::WithMatch {
                keep,
                anchor,
                edge_label,
                node_label,
            } => format!(
                " WITH {} MATCH ({anchor})-[f0{}]->(m0{}) RETURN *",
                keep.join(", "),
                label_text(edge_label),
                label_text(node_label),
            ),
            TailSpec::OptionalTail {
                anchor,
                direction,
                edge_label,
                node_label,
            } => {
                let edge = label_text(edge_label);
                let node = label_text(node_label);
                let pattern = match direction {
                    Dir::Out => format!("({anchor})-[o0{edge}]->(m0{node})"),
                    Dir::In => format!("({anchor})<-[o0{edge}]-(m0{node})"),
                    Dir::Undirected => format!("({anchor})-[o0{edge}]-(m0{node})"),
                };
                format!(" OPTIONAL MATCH {pattern} RETURN *")
            }
            TailSpec::Unwind { items } => {
                let rendered: Vec<String> = items.iter().map(LitSpec::render).collect();
                format!(" UNWIND [{}] AS u0 RETURN *", rendered.join(", "))
            }
            TailSpec::DistinctProperty { key } => {
                format!(" WITH count(*) AS c0 MATCH (m0) RETURN DISTINCT c0, m0.{key} AS d0")
            }
        }
    }
}

/// A generated query, kept structured so the shrinker can edit it.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The node patterns.
    pub nodes: Vec<NodePat>,
    /// The relationship patterns.
    pub edges: Vec<EdgePat>,
    /// The WHERE tree, if any.
    pub where_tree: Option<Cond>,
    /// The pipeline tail replacing the plain `RETURN *`, if any.
    pub tail: Option<TailSpec>,
}

impl QuerySpec {
    /// Renders the spec as Cypher text: `MATCH ... [WHERE ...]` followed by
    /// the tail's clauses (plain `RETURN *` when there is no tail).
    ///
    /// Each relationship becomes its own comma-separated path pattern; a
    /// node's labels and property map are printed only at its first
    /// occurrence (repeating them is redundant and some dialects reject
    /// it).
    pub fn render(&self) -> String {
        let mut printed = vec![false; self.nodes.len()];
        let node_text = |index: usize, printed: &mut Vec<bool>| -> String {
            let node = &self.nodes[index];
            let first = !printed[index];
            printed[index] = true;
            let mut out = String::from("(");
            if let Some(variable) = &node.variable {
                out.push_str(variable);
            }
            if first {
                if !node.labels.is_empty() {
                    out.push(':');
                    out.push_str(&node.labels.join("|"));
                }
                if !node.props.is_empty() {
                    let entries: Vec<String> = node
                        .props
                        .iter()
                        .map(|(key, lit)| format!("{key}: {}", lit.render()))
                        .collect();
                    out.push_str(&format!(" {{{}}}", entries.join(", ")));
                }
            }
            out.push(')');
            out
        };

        let mut patterns: Vec<String> = Vec::new();
        for edge in &self.edges {
            let left = node_text(edge.from, &mut printed);
            let right = node_text(edge.to, &mut printed);
            let mut rel = String::from("[");
            if let Some(variable) = &edge.variable {
                rel.push_str(variable);
            }
            if !edge.labels.is_empty() {
                rel.push(':');
                rel.push_str(&edge.labels.join("|"));
            }
            if let Some((lower, upper)) = edge.range {
                rel.push_str(&format!("*{lower}..{upper}"));
            }
            if !edge.props.is_empty() {
                let entries: Vec<String> = edge
                    .props
                    .iter()
                    .map(|(key, lit)| format!("{key}: {}", lit.render()))
                    .collect();
                rel.push_str(&format!(" {{{}}}", entries.join(", ")));
            }
            rel.push(']');
            patterns.push(match edge.direction {
                Dir::Out => format!("{left}-{rel}->{right}"),
                Dir::In => format!("{left}<-{rel}-{right}"),
                Dir::Undirected => format!("{left}-{rel}-{right}"),
            });
        }
        for index in 0..self.nodes.len() {
            if !printed[index] {
                patterns.push(node_text(index, &mut printed));
            }
        }

        let mut text = format!("MATCH {}", patterns.join(", "));
        if let Some(tree) = &self.where_tree {
            text.push_str(&format!(" WHERE {}", tree.render()));
        }
        match &self.tail {
            None => text.push_str(" RETURN *"),
            Some(tail) => text.push_str(&tail.render()),
        }
        text
    }

    /// Variables eligible as WHERE operands: named nodes plus named
    /// single-hop edges (variable-length path variables bind paths, not
    /// elements, so property predicates on them are out of scope).
    pub fn predicate_variables(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .nodes
            .iter()
            .filter_map(|n| n.variable.clone())
            .collect();
        out.extend(
            self.edges
                .iter()
                .filter(|e| e.range.is_none())
                .filter_map(|e| e.variable.clone()),
        );
        out
    }

    /// True when some connected component over the plain (single-hop)
    /// relationships has at least as many relationships as nodes — the
    /// pattern closes a cycle, so the planner's worst-case-optimal
    /// `ExpandIntersect` path is in play. Variable-length relationships are
    /// ignored: they are never intersection-eligible.
    pub fn is_cyclic(&self) -> bool {
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let n = self.nodes.len();
        if n == 0 {
            return false;
        }
        let mut parent: Vec<usize> = (0..n).collect();
        for edge in self.edges.iter().filter(|e| e.range.is_none()) {
            let a = find(&mut parent, edge.from);
            let b = find(&mut parent, edge.to);
            parent[a] = b;
        }
        let mut vertex_count = vec![0usize; n];
        let mut edge_count = vec![0usize; n];
        for i in 0..n {
            let root = find(&mut parent, i);
            vertex_count[root] += 1;
        }
        for edge in self.edges.iter().filter(|e| e.range.is_none()) {
            let root = find(&mut parent, edge.from);
            edge_count[root] += 1;
        }
        (0..n).any(|root| edge_count[root] > 0 && edge_count[root] >= vertex_count[root])
    }
}

const CMP_OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

fn random_term(rng: &mut Rng, variables: &[String]) -> Term {
    if !variables.is_empty() && rng.chance(60) {
        Term::Prop {
            variable: rng.pick(variables).clone(),
            key: rng.pick(&PROPERTY_KEYS).to_string(),
        }
    } else {
        Term::Lit(random_literal(rng))
    }
}

fn random_cond(rng: &mut Rng, variables: &[String], depth: usize) -> Cond {
    if depth > 0 && rng.chance(45) {
        return match rng.below(3) {
            0 => Cond::And(
                Box::new(random_cond(rng, variables, depth - 1)),
                Box::new(random_cond(rng, variables, depth - 1)),
            ),
            1 => Cond::Or(
                Box::new(random_cond(rng, variables, depth - 1)),
                Box::new(random_cond(rng, variables, depth - 1)),
            ),
            _ => Cond::Not(Box::new(random_cond(rng, variables, depth - 1))),
        };
    }
    if !variables.is_empty() && rng.chance(25) {
        return Cond::IsNull {
            variable: rng.pick(variables).clone(),
            key: rng.pick(&PROPERTY_KEYS).to_string(),
            negated: rng.chance(50),
        };
    }
    Cond::Cmp {
        left: random_term(rng, variables),
        op: CMP_OPS[rng.below(CMP_OPS.len())],
        right: random_term(rng, variables),
    }
}

/// The label predicate of a pattern element: none, one label, or an
/// alternation of the pool's first two — half of the time with a label
/// repeated (`:A|A`, `:A|B|A`), which selects nothing more than `:A` or
/// `:A|B` and which no graph source may count twice. One draw decides both
/// the class (its low two bits, as before repeats existed) and the variant,
/// so pinned campaigns keep the shapes they were pinned for.
fn random_labels(rng: &mut Rng, pool: &[&str]) -> Vec<String> {
    let roll = rng.below(16);
    let labels: &[&str] = match (roll % 4, roll / 4) {
        (0, _) => &[],
        (1, 2) => &[pool[0], pool[0]],
        (1, 3) => &[pool[0], pool[1], pool[0]],
        (1, _) => &[pool[0], pool[1]],
        _ => &[*rng.pick(pool)],
    };
    labels.iter().map(|label| label.to_string()).collect()
}

fn maybe_label(rng: &mut Rng, pool: &[&str]) -> Option<String> {
    rng.chance(60).then(|| rng.pick(pool).to_string())
}

fn random_agg(rng: &mut Rng, prop_vars: &[String]) -> AggSpec {
    if prop_vars.is_empty() || rng.chance(30) {
        return AggSpec {
            func: "count",
            distinct: false,
            arg: None,
        };
    }
    let arg = Some((
        rng.pick(prop_vars).clone(),
        rng.pick(&PROPERTY_KEYS).to_string(),
    ));
    match rng.below(6) {
        0 => AggSpec {
            func: "count",
            distinct: rng.chance(50),
            arg,
        },
        1 => AggSpec {
            func: "collect",
            distinct: false,
            arg,
        },
        2 => AggSpec {
            func: "sum",
            distinct: false,
            arg,
        },
        3 => AggSpec {
            func: "min",
            distinct: false,
            arg,
        },
        4 => AggSpec {
            func: "max",
            distinct: false,
            arg,
        },
        _ => AggSpec {
            func: "avg",
            distinct: false,
            arg,
        },
    }
}

/// Draws a pipeline tail for a query whose named node variables are
/// `node_vars` and whose property-addressable variables are `prop_vars`.
/// Returns `None` when the drawn production has no usable operands (e.g.
/// an all-anonymous pattern cannot anchor a second MATCH).
fn random_tail(rng: &mut Rng, node_vars: &[String], prop_vars: &[String]) -> Option<TailSpec> {
    match rng.below(5) {
        0 => {
            let mut keys = Vec::new();
            if !prop_vars.is_empty() && rng.chance(80) {
                for _ in 0..1 + rng.below(2) {
                    keys.push((
                        rng.pick(prop_vars).clone(),
                        rng.pick(&PROPERTY_KEYS).to_string(),
                        rng.chance(40),
                    ));
                }
            }
            let skip = rng.chance(40).then(|| rng.below(3));
            let limit = rng.chance(60).then(|| rng.below(5));
            if keys.is_empty() && skip.is_none() && limit.is_none() {
                return None;
            }
            // One roll: a quarter `RETURN DISTINCT *`, half the property
            // projection (its parity picks the key). The projection adds
            // no draw, so pinned campaigns keep every other case.
            let roll = rng.below(100);
            if (25..75).contains(&roll) {
                return Some(TailSpec::DistinctProperty {
                    key: PROPERTY_KEYS[roll % PROPERTY_KEYS.len()].to_string(),
                });
            }
            Some(TailSpec::OrderLimit {
                distinct: roll < 25,
                keys,
                skip,
                limit,
            })
        }
        1 => {
            let group: Vec<(String, String)> = if !prop_vars.is_empty() && rng.chance(70) {
                (0..1 + rng.below(2))
                    .map(|_| {
                        (
                            rng.pick(prop_vars).clone(),
                            rng.pick(&PROPERTY_KEYS).to_string(),
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let aggs: Vec<AggSpec> = (0..1 + rng.below(2))
                .map(|_| random_agg(rng, prop_vars))
                .collect();
            Some(TailSpec::Aggregate { group, aggs })
        }
        2 => {
            if node_vars.is_empty() {
                return None;
            }
            let anchor = rng.pick(node_vars).clone();
            let mut keep = vec![anchor.clone()];
            for variable in node_vars {
                if *variable != anchor && rng.chance(50) {
                    keep.push(variable.clone());
                }
            }
            Some(TailSpec::WithMatch {
                keep,
                anchor,
                edge_label: maybe_label(rng, &EDGE_LABELS),
                node_label: maybe_label(rng, &VERTEX_LABELS),
            })
        }
        3 => {
            if node_vars.is_empty() {
                return None;
            }
            Some(TailSpec::OptionalTail {
                anchor: rng.pick(node_vars).clone(),
                direction: if rng.chance(25) {
                    Dir::Undirected
                } else if rng.chance(50) {
                    Dir::Out
                } else {
                    Dir::In
                },
                edge_label: maybe_label(rng, &EDGE_LABELS),
                node_label: maybe_label(rng, &VERTEX_LABELS),
            })
        }
        _ => {
            let items: Vec<LitSpec> = (0..rng.below(4)).map(|_| random_literal(rng)).collect();
            Some(TailSpec::Unwind { items })
        }
    }
}

/// Draws the shared WHERE (70%) and pipeline-tail (45%) suffix onto a
/// freshly generated pattern. Both the general and the cyclic productions
/// go through here so cyclic cases stress the same predicate and tail
/// corners as everything else.
fn attach_where_and_tail(rng: &mut Rng, spec: &mut QuerySpec) {
    if rng.chance(70) {
        let variables = spec.predicate_variables();
        spec.where_tree = Some(random_cond(rng, &variables, 2));
    }
    if rng.chance(45) {
        let node_vars: Vec<String> = spec
            .nodes
            .iter()
            .filter_map(|n| n.variable.clone())
            .collect();
        let prop_vars = spec.predicate_variables();
        spec.tail = random_tail(rng, &node_vars, &prop_vars);
    }
}

/// Generates a cycle-closing pattern: a directed triangle, a diamond (a
/// 4-cycle plus a chord), a 4-clique, or an undirected cycle of length 3–4.
///
/// These are the shapes where binary join plans materialize open-path
/// intermediates that the worst-case-optimal `ExpandIntersect` avoids, so
/// the conformance harness must cover them heavily. All nodes are named
/// (the closing relationships re-reference them) and all relationships are
/// plain single hops (variable-length edges are never
/// intersection-eligible). Directed shapes randomize each arrow's
/// orientation — flipping an arrow rotates the cycle but keeps the
/// component cyclic.
pub fn random_cyclic_query(rng: &mut Rng) -> QuerySpec {
    let (node_count, endpoints, undirected): (usize, Vec<(usize, usize)>, bool) = match rng.below(4)
    {
        0 => (3, vec![(0, 1), (1, 2), (2, 0)], false),
        1 => (4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], false),
        2 => (
            4,
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
            false,
        ),
        _ => {
            let len = 3 + rng.below(2);
            (len, (0..len).map(|i| (i, (i + 1) % len)).collect(), true)
        }
    };

    let nodes: Vec<NodePat> = (0..node_count)
        .map(|i| NodePat {
            variable: Some(format!("n{i}")),
            labels: random_labels(rng, &VERTEX_LABELS),
            // Inline property maps become required keys on the vertex,
            // which disqualifies it as an intersection target; a light
            // sprinkle keeps the cost-based fallback honest without
            // starving the WCO path.
            props: if rng.chance(10) {
                vec![(rng.pick(&PROPERTY_KEYS).to_string(), random_literal(rng))]
            } else {
                Vec::new()
            },
        })
        .collect();

    let edges: Vec<EdgePat> = endpoints
        .iter()
        .enumerate()
        .map(|(i, &(from, to))| EdgePat {
            variable: if rng.chance(20) {
                None
            } else {
                Some(format!("e{i}"))
            },
            from,
            to,
            direction: if undirected {
                Dir::Undirected
            } else if rng.chance(50) {
                Dir::Out
            } else {
                Dir::In
            },
            labels: random_labels(rng, &EDGE_LABELS),
            range: None,
            props: Vec::new(),
        })
        .collect();

    let mut spec = QuerySpec {
        nodes,
        edges,
        where_tree: None,
        tail: None,
    };
    attach_where_and_tail(rng, &mut spec);
    spec
}

/// Generates a random query over 1–4 nodes and 0–3 relationships. Roughly
/// 30% of draws divert to [`random_cyclic_query`] so every campaign
/// exercises the worst-case-optimal join path alongside the general
/// grammar.
pub fn random_query(rng: &mut Rng) -> QuerySpec {
    if rng.chance(30) {
        return random_cyclic_query(rng);
    }
    let node_count = 1 + rng.below(4);
    let edge_count = if node_count == 1 {
        0
    } else {
        rng.below(4).min(node_count)
    };

    // Count endpoint uses first: only nodes used at most once may be
    // anonymous (an anonymous node cannot be referenced again).
    let endpoints: Vec<(usize, usize)> = (0..edge_count)
        .map(|_| (rng.below(node_count), rng.below(node_count)))
        .collect();
    let mut uses = vec![0usize; node_count];
    for &(from, to) in &endpoints {
        uses[from] += 1;
        uses[to] += 1;
    }

    let nodes: Vec<NodePat> = (0..node_count)
        .map(|i| NodePat {
            variable: if uses[i] <= 1 && rng.chance(20) {
                None
            } else {
                Some(format!("n{i}"))
            },
            labels: random_labels(rng, &VERTEX_LABELS),
            props: if rng.chance(20) {
                vec![(rng.pick(&PROPERTY_KEYS).to_string(), random_literal(rng))]
            } else {
                Vec::new()
            },
        })
        .collect();

    let edges: Vec<EdgePat> = endpoints
        .iter()
        .enumerate()
        .map(|(i, &(from, to))| {
            let range = if rng.chance(25) {
                let lower = rng.below(3);
                Some((lower, lower + 1 + rng.below(2)))
            } else {
                None
            };
            EdgePat {
                variable: if rng.chance(20) {
                    None
                } else {
                    Some(format!("e{i}"))
                },
                from,
                to,
                // The reference matcher and engine agree on undirected
                // single hops; variable-length stays directed (engine
                // expansion is directed per hop).
                direction: if range.is_none() && rng.chance(25) {
                    Dir::Undirected
                } else if rng.chance(50) {
                    Dir::Out
                } else {
                    Dir::In
                },
                labels: random_labels(rng, &EDGE_LABELS),
                range,
                props: if range.is_none() && rng.chance(15) {
                    vec![(rng.pick(&PROPERTY_KEYS).to_string(), random_literal(rng))]
                } else {
                    Vec::new()
                },
            }
        })
        .collect();

    let mut spec = QuerySpec {
        nodes,
        edges,
        where_tree: None,
        tail: None,
    };
    attach_where_and_tail(rng, &mut spec);
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..20 {
            assert_eq!(random_query(&mut a).render(), random_query(&mut b).render());
            let ga = random_graph(&mut a);
            let gb = random_graph(&mut b);
            assert_eq!(ga.vertices.len(), gb.vertices.len());
            assert_eq!(ga.edges.len(), gb.edges.len());
        }
    }

    #[test]
    fn generated_queries_parse() {
        let mut rng = Rng::new(7);
        for _ in 0..200 {
            let spec = random_query(&mut rng);
            let text = spec.render();
            gradoop_cypher::parse_pipeline(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            if spec.tail.is_none() {
                gradoop_cypher::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            }
        }
    }

    #[test]
    fn generator_repeats_labels_in_vertex_and_edge_alternations() {
        let mut rng = Rng::new(11);
        let repeats = |labels: &[String]| labels.len() > 1 && labels[1..].contains(&labels[0]);
        let (mut on_nodes, mut on_edges) = (0, 0);
        for _ in 0..200 {
            let spec = random_query(&mut rng);
            on_nodes += spec.nodes.iter().filter(|n| repeats(&n.labels)).count();
            on_edges += spec.edges.iter().filter(|e| repeats(&e.labels)).count();
        }
        assert!(on_nodes > 0 && on_edges > 0, "{on_nodes} / {on_edges}");
    }

    #[test]
    fn cyclic_production_covers_every_shape_and_classifies() {
        let mut rng = Rng::new(99);
        let (mut triangle, mut diamond, mut clique, mut undirected_cycle) = (0, 0, 0, 0);
        for _ in 0..200 {
            let spec = random_cyclic_query(&mut rng);
            assert!(
                spec.is_cyclic(),
                "cyclic production not cyclic: {}",
                spec.render()
            );
            let text = spec.render();
            gradoop_cypher::parse_pipeline(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let undirected = spec.edges.iter().all(|e| e.direction == Dir::Undirected);
            match (spec.nodes.len(), spec.edges.len()) {
                (3, 3) if undirected => undirected_cycle += 1,
                (4, 4) if undirected => undirected_cycle += 1,
                (3, 3) => triangle += 1,
                (4, 5) => diamond += 1,
                (4, 6) => clique += 1,
                other => panic!("unexpected cyclic shape {other:?}: {text}"),
            }
        }
        assert!(
            triangle > 0 && diamond > 0 && clique > 0 && undirected_cycle > 0,
            "shape coverage: triangle={triangle} diamond={diamond} \
             clique={clique} undirected={undirected_cycle}"
        );
    }

    #[test]
    fn is_cyclic_ignores_open_paths_and_var_length_closures() {
        let mut rng = Rng::new(5);
        // A plain two-hop chain is acyclic.
        let chain = QuerySpec {
            nodes: (0..3)
                .map(|i| NodePat {
                    variable: Some(format!("n{i}")),
                    labels: Vec::new(),
                    props: Vec::new(),
                })
                .collect(),
            edges: [(0usize, 1usize), (1, 2)]
                .iter()
                .enumerate()
                .map(|(i, &(from, to))| EdgePat {
                    variable: Some(format!("e{i}")),
                    from,
                    to,
                    direction: Dir::Out,
                    labels: Vec::new(),
                    range: None,
                    props: Vec::new(),
                })
                .collect(),
            where_tree: None,
            tail: None,
        };
        assert!(!chain.is_cyclic());

        // Closing the chain with a variable-length edge does not make it
        // WCO-cyclic: ranged relationships are never intersected.
        let mut var_closed = chain.clone();
        var_closed.edges.push(EdgePat {
            variable: Some("e2".to_string()),
            from: 2,
            to: 0,
            direction: Dir::Out,
            labels: Vec::new(),
            range: Some((1, 2)),
            props: Vec::new(),
        });
        assert!(!var_closed.is_cyclic());

        // Closing it with a plain edge does.
        let mut closed = chain.clone();
        closed.edges.push(EdgePat {
            variable: Some("e2".to_string()),
            from: 2,
            to: 0,
            direction: Dir::Out,
            labels: Vec::new(),
            range: None,
            props: Vec::new(),
        });
        assert!(closed.is_cyclic());

        // The diverted general production keeps emitting cyclic cases.
        let cyclic_share = (0..300)
            .filter(|_| random_query(&mut rng).is_cyclic())
            .count();
        assert!(
            cyclic_share >= 45,
            "expected ≥15% cyclic cases from random_query, got {cyclic_share}/300"
        );
    }

    #[test]
    fn generator_produces_every_tail_production() {
        let mut rng = Rng::new(11);
        let mut counts = [0usize; 6];
        for _ in 0..500 {
            let production = match random_query(&mut rng).tail {
                Some(TailSpec::OrderLimit { .. }) => 0,
                Some(TailSpec::Aggregate { .. }) => 1,
                Some(TailSpec::WithMatch { .. }) => 2,
                Some(TailSpec::OptionalTail { .. }) => 3,
                Some(TailSpec::Unwind { .. }) => 4,
                Some(TailSpec::DistinctProperty { .. }) => 5,
                None => continue,
            };
            counts[production] += 1;
        }
        assert!(
            counts.iter().all(|&count| count > 0),
            "tail coverage (order, agg, with, opt, unwind, distinct): {counts:?}"
        );
    }
}
