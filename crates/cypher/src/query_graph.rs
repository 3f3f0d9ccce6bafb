//! Query-graph construction (Definition 2.2).
//!
//! Turns a parsed query into the engine's internal query graph: query
//! vertices and query edges with their predicate functions `θv` / `θe`,
//! derived by simplifying the AST, normalizing the WHERE clause to CNF and
//! splitting its clauses by variable.

use std::collections::{BTreeSet, HashMap};

use gradoop_epgm::Label;

use crate::ast::{Direction, Query, ReturnItem};
use crate::error::QueryGraphError;
use crate::predicates::cnf::{to_cnf, Atom, CnfClause, CnfPredicate, Operand};
use crate::predicates::expr::{CmpOp, Expression, Literal};
use crate::predicates::split::split_predicates;

/// A query vertex with its element-centric predicate.
#[derive(Debug, Clone)]
pub struct QueryVertex {
    /// Variable name (generated for anonymous patterns: `__v0`, ...).
    pub variable: String,
    /// Label alternatives from the first pattern mention; empty = any.
    pub labels: Vec<Label>,
    /// Element-centric predicate (`θv`), including inline property maps and
    /// label constraints from repeated pattern mentions.
    pub predicates: CnfPredicate,
    /// Property keys needed downstream (predicates + RETURN) — the leaf
    /// operators project to exactly these.
    pub required_keys: Vec<String>,
    /// `true` if the variable was written by the user (affects `RETURN *`).
    pub named: bool,
}

/// A query edge with its element-centric predicate.
#[derive(Debug, Clone)]
pub struct QueryEdge {
    /// Variable name (generated for anonymous patterns: `__e0`, ...).
    pub variable: String,
    /// Label alternatives; empty = any.
    pub labels: Vec<Label>,
    /// Element-centric predicate (`θe`). For variable-length edges it
    /// applies to **every** edge of the path.
    pub predicates: CnfPredicate,
    /// Property keys needed downstream.
    pub required_keys: Vec<String>,
    /// Index of the source query vertex (after direction normalization).
    pub source: usize,
    /// Index of the target query vertex.
    pub target: usize,
    /// `true` for `-[..]-` patterns: matches either orientation.
    pub undirected: bool,
    /// Variable-length bounds `(lower, upper)`; `None` for a plain edge.
    pub range: Option<(usize, usize)>,
    /// `true` when the query left the upper bound open (`*`, `*2..`) and
    /// `range.1` is the engine's substituted cap. The executor probes one
    /// hop beyond the cap and raises a classified error instead of silently
    /// truncating results.
    pub open_range: bool,
    /// `true` if the variable was written by the user.
    pub named: bool,
}

impl QueryEdge {
    /// `true` when the edge is a variable-length path expression.
    pub fn is_variable_length(&self) -> bool {
        self.range.is_some()
    }
}

/// The query graph: the engine's internal query representation.
#[derive(Debug, Clone)]
pub struct QueryGraph {
    /// Query vertices.
    pub vertices: Vec<QueryVertex>,
    /// Query edges.
    pub edges: Vec<QueryEdge>,
    /// Clauses spanning multiple variables, with the variables they need.
    pub cross_clauses: Vec<(CnfClause, Vec<String>)>,
    /// The original (parameter-substituted) `WHERE` expression, minus
    /// top-level conjuncts that reference variable-length edge variables
    /// (those apply per path edge and are enforced through the edge's
    /// element-centric predicates). The reference matcher re-evaluates this
    /// tree directly under Kleene logic as ground truth for the whole
    /// NNF/CNF/split pipeline.
    pub where_expression: Option<Expression>,
    /// Normalized RETURN items (`*` expanded to all named variables).
    pub return_items: Vec<ReturnItem>,
}

impl QueryGraph {
    /// Builds a query graph from a parsed query without parameters.
    pub fn from_query(query: &Query) -> Result<QueryGraph, QueryGraphError> {
        QueryGraph::from_query_with_params(query, &HashMap::new())
    }

    /// Builds a query graph, substituting `$name` parameters first.
    pub fn from_query_with_params(
        query: &Query,
        params: &HashMap<String, Literal>,
    ) -> Result<QueryGraph, QueryGraphError> {
        Builder::default().build(query, params)
    }

    /// Index of the query vertex bound to `variable`.
    pub fn vertex_index(&self, variable: &str) -> Option<usize> {
        self.vertices.iter().position(|v| v.variable == variable)
    }

    /// Index of the query edge bound to `variable`.
    pub fn edge_index(&self, variable: &str) -> Option<usize> {
        self.edges.iter().position(|e| e.variable == variable)
    }

    /// All variables (vertices then edges).
    pub fn variables(&self) -> impl Iterator<Item = &str> {
        self.vertices
            .iter()
            .map(|v| v.variable.as_str())
            .chain(self.edges.iter().map(|e| e.variable.as_str()))
    }

    /// Returns the vertex indices of each connected component of the query
    /// graph (disconnected queries require a cartesian product).
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let n = self.vertices.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for edge in &self.edges {
            let (a, b) = (
                find(&mut parent, edge.source),
                find(&mut parent, edge.target),
            );
            if a != b {
                parent[a] = b;
            }
        }
        let mut components: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            components.entry(root).or_default().push(i);
        }
        let mut result: Vec<Vec<usize>> = components.into_values().collect();
        result.sort_by_key(|c| c[0]);
        result
    }
}

#[derive(Default)]
struct Builder {
    vertices: Vec<QueryVertex>,
    edges: Vec<QueryEdge>,
    vertex_by_variable: HashMap<String, usize>,
    anonymous_counter: usize,
}

impl Builder {
    fn build(
        mut self,
        query: &Query,
        params: &HashMap<String, Literal>,
    ) -> Result<QueryGraph, QueryGraphError> {
        // --- patterns -------------------------------------------------------
        for pattern in &query.patterns {
            let mut previous = self.add_node(&pattern.start, params)?;
            for (rel, node) in &pattern.steps {
                let current = self.add_node(node, params)?;
                self.add_edge(rel, previous, current, params)?;
                previous = current;
            }
        }

        // --- WHERE ----------------------------------------------------------
        let mut cross_clauses = Vec::new();
        let mut where_expression = None;
        if let Some(where_clause) = &query.where_clause {
            let mut expression = where_clause.clone();
            expression
                .substitute_parameters(params)
                .map_err(|name| QueryGraphError(format!("unbound parameter ${name}")))?;
            let mut referenced = BTreeSet::new();
            expression.collect_variables(&mut referenced);
            for variable in &referenced {
                self.check_known(variable)?;
            }
            where_expression = self.retained_where_expression(&expression);
            let cnf = to_cnf(&expression);
            let split = split_predicates(&cnf);
            for (variable, predicate) in split.by_variable {
                self.attach_predicate(&variable, predicate)?;
            }
            for (clause, variables) in split.cross_variable {
                for variable in &variables {
                    if let Some(index) = self.edge_by_variable(variable) {
                        if self.edges[index].is_variable_length() {
                            return Err(QueryGraphError(format!(
                                "predicate on variable-length edge `{variable}` may not \
                                 reference other variables"
                            )));
                        }
                    }
                }
                cross_clauses.push((clause, variables));
            }
        }

        // --- RETURN ----------------------------------------------------------
        let mut return_items = Vec::new();
        for item in &query.return_clause.items {
            match item {
                ReturnItem::All => {
                    for vertex in self.vertices.iter().filter(|v| v.named) {
                        return_items.push(ReturnItem::Variable(vertex.variable.clone()));
                    }
                    for edge in self.edges.iter().filter(|e| e.named) {
                        return_items.push(ReturnItem::Variable(edge.variable.clone()));
                    }
                }
                ReturnItem::CountStar => return_items.push(ReturnItem::CountStar),
                ReturnItem::Variable(variable) => {
                    self.check_known(variable)?;
                    return_items.push(item.clone());
                }
                ReturnItem::Property { variable, key, .. } => {
                    self.check_known(variable)?;
                    self.require_key(variable, key);
                    return_items.push(item.clone());
                }
            }
        }

        // Cross clauses also need their property keys materialized.
        let accesses: Vec<(String, String)> = cross_clauses
            .iter()
            .flat_map(|(clause, _)| {
                CnfPredicate {
                    clauses: vec![clause.clone()],
                }
                .property_accesses()
            })
            .collect();
        for (variable, key) in accesses {
            self.require_key(&variable, &key);
        }

        Ok(QueryGraph {
            vertices: self.vertices,
            edges: self.edges,
            cross_clauses,
            where_expression,
            return_items,
        })
    }

    /// The part of the substituted `WHERE` expression the reference matcher
    /// can evaluate over a complete match: the conjunction of top-level
    /// conjuncts that do not mention a variable-length edge variable.
    /// (Those conjuncts quantify over every edge of the matched path and
    /// are enforced through the edge's shared element-centric predicates
    /// instead; the builder rejects cross-variable ones outright.)
    fn retained_where_expression(&self, expression: &Expression) -> Option<Expression> {
        fn flatten<'a>(expr: &'a Expression, out: &mut Vec<&'a Expression>) {
            match expr {
                Expression::And(a, b) => {
                    flatten(a, out);
                    flatten(b, out);
                }
                other => out.push(other),
            }
        }
        let path_variables: BTreeSet<String> = self
            .edges
            .iter()
            .filter(|e| e.is_variable_length())
            .map(|e| e.variable.clone())
            .collect();
        let mut conjuncts = Vec::new();
        flatten(expression, &mut conjuncts);
        conjuncts
            .into_iter()
            .filter(|conjunct| {
                let mut used = BTreeSet::new();
                conjunct.collect_variables(&mut used);
                used.is_disjoint(&path_variables)
            })
            .cloned()
            .reduce(|a, b| Expression::And(Box::new(a), Box::new(b)))
    }

    fn fresh_variable(&mut self, prefix: &str) -> String {
        let name = format!("__{prefix}{}", self.anonymous_counter);
        self.anonymous_counter += 1;
        name
    }

    /// Resolves a property-map value to the literal it constrains on:
    /// inline literals pass through, `$param` placeholders are substituted
    /// from the caller's bindings (unbound names are a classified error,
    /// mirroring `WHERE` parameter substitution).
    fn resolve_map_value(
        value: &crate::ast::MapValue,
        params: &HashMap<String, Literal>,
    ) -> Result<Literal, QueryGraphError> {
        match value {
            crate::ast::MapValue::Literal(literal) => Ok(literal.clone()),
            crate::ast::MapValue::Parameter(name) => params
                .get(name)
                .cloned()
                .ok_or_else(|| QueryGraphError(format!("unbound parameter ${name}"))),
        }
    }

    fn add_node(
        &mut self,
        node: &crate::ast::NodePattern,
        params: &HashMap<String, Literal>,
    ) -> Result<usize, QueryGraphError> {
        let (variable, named) = match &node.variable {
            Some(name) => (name.clone(), true),
            None => (self.fresh_variable("v"), false),
        };
        if self.edges.iter().any(|e| e.variable == variable) {
            return Err(QueryGraphError(format!(
                "variable `{variable}` is used for both a relationship and a node"
            )));
        }
        let index = match self.vertex_by_variable.get(&variable) {
            Some(&index) => {
                // Repeated mention: extra labels become predicate clauses.
                if !node.labels.is_empty() {
                    let clause = CnfClause::single(Atom::HasLabel {
                        variable: variable.clone(),
                        labels: node.labels.clone(),
                        negated: false,
                    });
                    self.vertices[index].predicates.push(clause);
                }
                index
            }
            None => {
                let index = self.vertices.len();
                self.vertices.push(QueryVertex {
                    variable: variable.clone(),
                    labels: node.labels.iter().map(|l| Label::new(l)).collect(),
                    predicates: CnfPredicate::always_true(),
                    required_keys: Vec::new(),
                    named,
                });
                self.vertex_by_variable.insert(variable.clone(), index);
                index
            }
        };
        for (key, value) in &node.properties {
            let literal = Self::resolve_map_value(value, params)?;
            self.vertices[index]
                .predicates
                .push(property_equality(&variable, key, &literal));
            self.require_key(&variable, key);
        }
        Ok(index)
    }

    fn add_edge(
        &mut self,
        rel: &crate::ast::RelPattern,
        left: usize,
        right: usize,
        params: &HashMap<String, Literal>,
    ) -> Result<(), QueryGraphError> {
        let (variable, named) = match &rel.variable {
            Some(name) => (name.clone(), true),
            None => (self.fresh_variable("e"), false),
        };
        if self.vertex_by_variable.contains_key(&variable) {
            return Err(QueryGraphError(format!(
                "variable `{variable}` is used for both a node and a relationship"
            )));
        }
        if self.edges.iter().any(|e| e.variable == variable) {
            return Err(QueryGraphError(format!(
                "relationship variable `{variable}` is bound more than once"
            )));
        }
        let (source, target) = match rel.direction {
            Direction::Outgoing | Direction::Undirected => (left, right),
            Direction::Incoming => (right, left),
        };
        let range = rel.range.and_then(|r| {
            if r.lower == 1 && r.upper == 1 {
                None // `*1..1` is a plain edge
            } else {
                Some((r.lower, r.upper))
            }
        });
        let mut predicates = CnfPredicate::always_true();
        let mut required_keys = Vec::new();
        for (key, value) in &rel.properties {
            let literal = Self::resolve_map_value(value, params)?;
            predicates.push(property_equality(&variable, key, &literal));
            required_keys.push(key.clone());
        }
        self.edges.push(QueryEdge {
            variable,
            labels: rel.labels.iter().map(|l| Label::new(l)).collect(),
            predicates,
            required_keys,
            source,
            target,
            undirected: rel.direction == Direction::Undirected,
            open_range: range.is_some() && rel.range.is_some_and(|r| r.open),
            range,
            named,
        });
        Ok(())
    }

    fn edge_by_variable(&self, variable: &str) -> Option<usize> {
        self.edges.iter().position(|e| e.variable == variable)
    }

    fn check_known(&self, variable: &str) -> Result<(), QueryGraphError> {
        if self.vertex_by_variable.contains_key(variable)
            || self.edge_by_variable(variable).is_some()
        {
            Ok(())
        } else {
            Err(QueryGraphError(format!("unknown variable `{variable}`")))
        }
    }

    fn attach_predicate(
        &mut self,
        variable: &str,
        predicate: CnfPredicate,
    ) -> Result<(), QueryGraphError> {
        let accesses = predicate.property_accesses();
        if let Some(&index) = self.vertex_by_variable.get(variable) {
            self.vertices[index].predicates.and(predicate);
            for (_, key) in accesses {
                self.require_key(variable, &key);
            }
            return Ok(());
        }
        if let Some(index) = self.edge_by_variable(variable) {
            self.edges[index].predicates.and(predicate);
            for (_, key) in accesses {
                self.require_key(variable, &key);
            }
            return Ok(());
        }
        Err(QueryGraphError(format!("unknown variable `{variable}`")))
    }

    fn require_key(&mut self, variable: &str, key: &str) {
        if let Some(&index) = self.vertex_by_variable.get(variable) {
            let keys = &mut self.vertices[index].required_keys;
            if !keys.iter().any(|k| k == key) {
                keys.push(key.to_string());
            }
        } else if let Some(index) = self.edge_by_variable(variable) {
            let keys = &mut self.edges[index].required_keys;
            if !keys.iter().any(|k| k == key) {
                keys.push(key.to_string());
            }
        }
    }
}

fn property_equality(variable: &str, key: &str, literal: &Literal) -> CnfClause {
    CnfClause::single(Atom::Comparison {
        left: Operand::Property {
            variable: variable.to_string(),
            key: key.to_string(),
        },
        op: CmpOp::Eq,
        right: Operand::Literal(literal.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn graph_of(text: &str) -> QueryGraph {
        QueryGraph::from_query(&parse(text).expect("parse")).expect("query graph")
    }

    #[test]
    fn builds_paper_example() {
        let graph = graph_of(
            "MATCH (p1:Person)-[s:studyAt]->(u:University), \
                   (p2:Person)-[:studyAt]->(u), \
                   (p1)-[e:knows*1..3]->(p2) \
             WHERE p1.gender <> p2.gender AND u.name = 'Uni Leipzig' \
               AND s.classYear > 2014 \
             RETURN *",
        );
        assert_eq!(graph.vertices.len(), 3); // p1, u, p2
        assert_eq!(graph.edges.len(), 3); // s, anonymous studyAt, e
        let e = &graph.edges[2];
        assert_eq!(e.variable, "e");
        assert_eq!(e.range, Some((1, 3)));
        // u.name and s.classYear became element-centric predicates.
        let u = &graph.vertices[graph.vertex_index("u").unwrap()];
        assert!(!u.predicates.is_trivial());
        assert_eq!(u.required_keys, vec!["name"]);
        let s = &graph.edges[graph.edge_index("s").unwrap()];
        assert!(!s.predicates.is_trivial());
        // The gender clause spans p1/p2.
        assert_eq!(graph.cross_clauses.len(), 1);
        // RETURN * expands to the named variables only.
        let returned: Vec<String> = graph
            .return_items
            .iter()
            .map(|item| match item {
                ReturnItem::Variable(v) => v.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(returned, vec!["p1", "u", "p2", "s", "e"]);
    }

    #[test]
    fn map_parameters_substitute_like_inline_literals() {
        // `{age: $a}` with `$a = 42` builds the same query graph as
        // `{age: 42}` — the property a plan cache keyed on the normalized
        // shape relies on.
        let query =
            parse("MATCH (p:Person {age: $a})-[e {since: $s}]->(b) RETURN p").expect("parse");
        let params = HashMap::from([
            ("a".to_string(), Literal::Integer(42)),
            ("s".to_string(), Literal::Integer(2014)),
        ]);
        let bound = QueryGraph::from_query_with_params(&query, &params).expect("query graph");
        let inline = graph_of("MATCH (p:Person {age: 42})-[e {since: 2014}]->(b) RETURN p");
        assert_eq!(
            bound.vertices[bound.vertex_index("p").unwrap()].predicates,
            inline.vertices[inline.vertex_index("p").unwrap()].predicates,
        );
        assert_eq!(
            bound.edges[bound.edge_index("e").unwrap()].predicates,
            inline.edges[inline.edge_index("e").unwrap()].predicates,
        );

        // Unbound map parameters are a classified error, not a panic.
        let unbound = QueryGraph::from_query_with_params(&query, &HashMap::new());
        let message = unbound.expect_err("must be unbound").to_string();
        assert!(message.contains("unbound parameter $"), "{message}");
    }

    #[test]
    fn direction_normalization_swaps_endpoints() {
        let graph = graph_of("MATCH (person:Person)<-[:hasCreator]-(message) RETURN *");
        let edge = &graph.edges[0];
        assert_eq!(graph.vertices[edge.source].variable, "message");
        assert_eq!(graph.vertices[edge.target].variable, "person");
        assert!(!edge.undirected);
    }

    #[test]
    fn reused_node_variable_merges() {
        let graph = graph_of("MATCH (a:Person)-[:x]->(b), (a:Employee)-[:y]->(c) RETURN *");
        assert_eq!(graph.vertices.len(), 3);
        let a = &graph.vertices[graph.vertex_index("a").unwrap()];
        // First mention defines labels; second becomes a predicate clause.
        assert_eq!(a.labels, vec![Label::new("Person")]);
        assert_eq!(a.predicates.clauses.len(), 1);
    }

    #[test]
    fn inline_property_map_becomes_predicate() {
        let graph = graph_of("MATCH (p:Person {name: 'Alice'}) RETURN p");
        let p = &graph.vertices[0];
        assert_eq!(p.predicates.clauses.len(), 1);
        assert_eq!(p.required_keys, vec!["name"]);
    }

    #[test]
    fn anonymous_variables_are_generated() {
        let graph = graph_of("MATCH (:Person)-[:knows]->() RETURN count(*)");
        assert!(graph.vertices.iter().all(|v| !v.named));
        assert!(graph.vertices[0].variable.starts_with("__v"));
        assert!(graph.edges[0].variable.starts_with("__e"));
    }

    #[test]
    fn star_range_of_one_is_plain_edge() {
        let graph = graph_of("MATCH (a)-[e:knows*1..1]->(b) RETURN *");
        assert_eq!(graph.edges[0].range, None);
    }

    #[test]
    fn rejects_duplicate_edge_variable() {
        let query = parse("MATCH (a)-[e:x]->(b), (b)-[e:y]->(c) RETURN *").expect("parse");
        let error = QueryGraph::from_query(&query).unwrap_err();
        assert!(error.0.contains("bound more than once"));
    }

    #[test]
    fn rejects_variable_as_node_and_edge() {
        let query = parse("MATCH (a)-[a:x]->(b) RETURN *").expect("parse");
        assert!(QueryGraph::from_query(&query).is_err());
        let query = parse("MATCH (a)-[x]->(b), (x)-[:y]->(c) RETURN *").expect("parse");
        assert!(QueryGraph::from_query(&query).is_err());
    }

    #[test]
    fn rejects_unknown_variables() {
        let query = parse("MATCH (a) WHERE b.x = 1 RETURN *").expect("parse");
        assert!(QueryGraph::from_query(&query).is_err());
        let query = parse("MATCH (a) RETURN b.name").expect("parse");
        assert!(QueryGraph::from_query(&query).is_err());
    }

    #[test]
    fn rejects_cross_predicate_on_path_edge() {
        let query =
            parse("MATCH (a)-[e:knows*1..3]->(b) WHERE e.since = a.yob RETURN *").expect("parse");
        let error = QueryGraph::from_query(&query).unwrap_err();
        assert!(error.0.contains("variable-length"));
    }

    #[test]
    fn parameters_must_be_bound() {
        let query = parse("MATCH (a) WHERE a.name = $name RETURN *").expect("parse");
        assert!(QueryGraph::from_query(&query).is_err());
        let mut params = HashMap::new();
        params.insert("name".to_string(), Literal::String("Alice".into()));
        let graph = QueryGraph::from_query_with_params(&query, &params).expect("bound");
        assert!(!graph.vertices[0].predicates.is_trivial());
    }

    #[test]
    fn connected_components_detects_disconnection() {
        let graph = graph_of("MATCH (a)-[:x]->(b), (c)-[:y]->(d) RETURN *");
        let components = graph.connected_components();
        assert_eq!(components.len(), 2);
        let graph = graph_of("MATCH (a)-[:x]->(b), (b)-[:y]->(c) RETURN *");
        assert_eq!(graph.connected_components().len(), 1);
    }
}
