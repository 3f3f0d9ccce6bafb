#![warn(missing_docs)]

//! # gradoop-bench
//!
//! Benchmark harness for the Rust reproduction of *"Cypher-based Graph
//! Pattern Matching in Gradoop"* (GRADES'17).
//!
//! Every table and figure of the paper's evaluation has a regenerator:
//!
//! | Paper artifact | How to regenerate |
//! |---|---|
//! | Figure 3 (speedup over workers) | `repro --fig3` |
//! | Figure 4 (runtime vs data size) | `repro --fig4` |
//! | Figure 5 (runtime vs selectivity) | `repro --fig5` |
//! | Table 3 (intermediate result sizes) | `repro --table3` (measured by `PROFILE`) |
//! | Table 4 (runtimes/speedups grid) | `repro --table4` |
//! | Appendix cardinalities | `repro --cardinalities` |
//! | EXPLAIN / PROFILE plan trees | `repro --plans`, `repro --profiles` |
//! | §3.2/§3.4 design ablations | `repro --ablations` |
//!
//! The `repro` binary prints paper-style tables using the **simulated
//! clock** of the dataflow engine (per-worker makespans, network, spill) —
//! that is what reproduces the cluster behaviour; wall time on a laptop
//! core is also reported. It also hosts the differential conformance
//! campaign (`--conformance`), a CI smoke (`--smoke`) and the Figure 1
//! trace export (`--trace-out`).
//!
//! Performance is not measured here: the repo's one benchmark is
//! `benchmark/` (declared by `BENCHMARK.json`), and invariants are
//! `cargo test`.

pub mod figure1;
pub mod fuzz;
pub mod harness;
pub mod report;

pub use harness::{dataset, profile_query, run_query, Measurement, ScaleFactor};
pub use report::Table;
