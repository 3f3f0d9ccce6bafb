//! Cost-based query planning (paper Section 3.2).
//!
//! Apache Flink's dataflow optimizer chooses join strategies but does not
//! reorder operators using statistics; the engine therefore plans the
//! operator order itself. The reference implementation is a greedy planner:
//! it decomposes the query into vertex and edge sets and constructs a bushy
//! plan by iteratively joining partial plans, always committing the step
//! with the smallest estimated intermediate result.

mod estimation;
mod greedy;
mod plan;

pub use estimation::Estimator;
pub use greedy::{plan_query, plan_query_with_mode, PlanError, PlanMode};
pub use plan::{PlanNode, PlanOperator, QueryPlan};
