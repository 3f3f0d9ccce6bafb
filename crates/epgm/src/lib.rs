#![warn(missing_docs)]

//! # gradoop-epgm
//!
//! The Extended Property Graph Model (EPGM) on the simulated dataflow
//! engine — the Gradoop substrate of the Rust reproduction of
//! *"Cypher-based Graph Pattern Matching in Gradoop"* (GRADES'17).
//!
//! A property graph is a directed, labeled and attributed multigraph; the
//! EPGM adds graph collections of possibly overlapping *logical graphs*
//! (Definition 2.1). This crate provides:
//!
//! * element types — [`GradoopId`], [`Label`], [`PropertyValue`],
//!   [`Properties`], [`GraphHead`], [`Vertex`], [`Edge`];
//! * [`LogicalGraph`] and [`GraphCollection`] backed by dataflow datasets
//!   (graph heads `L`, vertices `V`, edges `E` — paper Table 1);
//! * the [`IndexedLogicalGraph`] label index (paper Section 3.4) and the
//!   [`ElementIndex`] id lookup a graph and all its views share;
//! * pre-computed [`GraphStatistics`] for the query planner (Section 3.2);
//! * a CSV data source/sink mirroring the Gradoop CSV format.

pub mod element;
pub mod element_index;
pub mod graph;
pub mod id;
pub mod indexed;
pub mod io;
pub mod label;
pub mod properties;
pub mod statistics;

pub use element::{Edge, Element, GraphHead, Vertex};
pub use element_index::ElementIndex;
pub use graph::{GraphCollection, LogicalGraph};
pub use id::{GradoopId, GradoopIdSet};
pub use indexed::IndexedLogicalGraph;
pub use label::Label;
pub use properties::{Properties, PropertyValue};
pub use statistics::GraphStatistics;
