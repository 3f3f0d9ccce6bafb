#![warn(missing_docs)]

//! # gradoop-cypher
//!
//! The Cypher front-end of the Rust reproduction of *"Cypher-based Graph
//! Pattern Matching in Gradoop"* (GRADES'17): lexer, recursive-descent
//! parser, AST, predicate normalization (CNF) with per-variable splitting,
//! and query-graph construction (Definition 2.2).
//!
//! ```
//! use gradoop_cypher::{parse, QueryGraph};
//!
//! let ast = parse(
//!     "MATCH (p1:Person)-[e:knows*1..3]->(p2:Person) \
//!      WHERE p1.gender <> p2.gender RETURN *",
//! )
//! .unwrap();
//! let graph = QueryGraph::from_query(&ast).unwrap();
//! assert_eq!(graph.vertices.len(), 2);
//! assert_eq!(graph.edges[0].range, Some((1, 3)));
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod predicates;
pub mod query_graph;
pub mod token;

pub use ast::{
    AggArg, AggFunc, AggregateCall, Direction, MatchStage, NodePattern, PathPattern, PathRange,
    Pipeline, Projection, ProjectionExpr, ProjectionItem, Query, RelPattern, ReturnItem, SortKey,
    SortRef, Stage, UnwindSource, UnwindStage,
};
pub use error::{ParseError, QueryGraphError};
pub use parser::{parse, parse_pipeline, parse_tokens, DEFAULT_MAX_HOPS};
pub use predicates::{
    Atom, Bindings, CmpOp, CnfClause, CnfPredicate, Expression, Literal, Operand,
};
pub use query_graph::{QueryEdge, QueryGraph, QueryVertex};
