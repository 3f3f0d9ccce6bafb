//! Structural grouping (graph summarization).
//!
//! Groups vertices by label (and optionally property keys) into super
//! vertices and edges by (source group, target group, label) into super
//! edges, each annotated with a `count` property — the operator the paper
//! cites as "graph grouping" among Gradoop's analytical capabilities.

use gradoop_dataflow::JoinStrategy;

use crate::element::{Edge, Element, GraphHead, Vertex};
use crate::graph::LogicalGraph;
use crate::id::GradoopId;
use crate::properties::{Properties, PropertyValue};

use super::combination::next_derived_graph_id;

/// Configuration of a grouping run.
#[derive(Debug, Clone, Default)]
pub struct GroupingConfig {
    /// Vertex property keys that participate in the vertex group key
    /// (besides the label, which always does).
    pub vertex_keys: Vec<String>,
    /// Edge property keys that participate in the edge group key.
    pub edge_keys: Vec<String>,
}

impl GroupingConfig {
    /// Group vertices by label only.
    pub fn by_label() -> Self {
        GroupingConfig::default()
    }

    /// Adds a vertex grouping key.
    pub fn vertex_key(mut self, key: &str) -> Self {
        self.vertex_keys.push(key.to_string());
        self
    }

    /// Adds an edge grouping key.
    pub fn edge_key(mut self, key: &str) -> Self {
        self.edge_keys.push(key.to_string());
        self
    }
}

/// Stable group identifier derived from the group key string (FNV-1a). The
/// high bit is set so group ids cannot collide with data or derived ids.
fn group_id(key: &str) -> GradoopId {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    GradoopId(hash | (1 << 63))
}

fn vertex_group_key(vertex: &Vertex, keys: &[String]) -> String {
    let mut key = vertex.label.as_str().to_string();
    for k in keys {
        key.push('\u{1}');
        match vertex.property(k) {
            Some(value) => key.push_str(&value.to_string()),
            None => key.push('\u{2}'),
        }
    }
    key
}

fn edge_group_key(edge: &Edge, keys: &[String]) -> String {
    let mut key = edge.label.as_str().to_string();
    for k in keys {
        key.push('\u{1}');
        match edge.property(k) {
            Some(value) => key.push_str(&value.to_string()),
            None => key.push('\u{2}'),
        }
    }
    key
}

impl LogicalGraph {
    /// Summarizes the graph according to `config`. Every super vertex and
    /// super edge carries a `count` property; grouped property values are
    /// re-bound under their original keys.
    pub fn group_by(&self, config: &GroupingConfig) -> LogicalGraph {
        let head = GraphHead::new(next_derived_graph_id(), "Grouping", Properties::new());
        let head_id = head.id;

        // --- Super vertices ------------------------------------------------
        let vkeys = config.vertex_keys.clone();
        let grouped_vertices = self
            .vertices()
            .map({
                let vkeys = vkeys.clone();
                move |v| {
                    let values: Vec<PropertyValue> = vkeys
                        .iter()
                        .map(|k| v.property(k).cloned().unwrap_or(PropertyValue::Null))
                        .collect();
                    (vertex_group_key(v, &vkeys), v.label.clone(), values)
                }
            })
            .group_reduce(
                |(key, _, _)| key.clone(),
                |key, members| {
                    let (_, label, values) = &members[0];
                    (
                        key.clone(),
                        label.clone(),
                        values.clone(),
                        members.len() as i64,
                    )
                },
            );
        let super_vertices = grouped_vertices.map({
            let vkeys = vkeys.clone();
            move |(key, label, values, count)| {
                let mut properties = Properties::new();
                properties.set("count", *count);
                for (k, v) in vkeys.iter().zip(values) {
                    properties.set(k, v.clone());
                }
                Vertex::new(group_id(key), label.clone(), properties).add_to_graph(head_id)
            }
        });

        // --- Super edges ---------------------------------------------------
        // Route every edge through the vertex-group assignment of its
        // endpoints, then reduce by (source group, target group, edge key).
        let assignments = self.vertices().map({
            let vkeys = vkeys.clone();
            move |v| (v.id.0, vertex_group_key(v, &vkeys))
        });
        let ekeys = config.edge_keys.clone();
        let with_source = self.edges().clone().join(
            assignments.clone(),
            |e| e.source.0,
            |(id, _)| *id,
            JoinStrategy::RepartitionHash,
            |e, (_, group)| Some((e.clone(), group.clone())),
        );
        let routed = with_source.join(
            assignments,
            |(e, _)| e.target.0,
            |(id, _)| *id,
            JoinStrategy::RepartitionHash,
            {
                let ekeys = ekeys.clone();
                move |(e, source_group), (_, target_group)| {
                    let values: Vec<PropertyValue> = ekeys
                        .iter()
                        .map(|k| e.property(k).cloned().unwrap_or(PropertyValue::Null))
                        .collect();
                    Some((
                        source_group.clone(),
                        target_group.clone(),
                        edge_group_key(e, &ekeys),
                        e.label.clone(),
                        values,
                    ))
                }
            },
        );
        let grouped_edges = routed.group_reduce(
            |(s, t, key, _, _)| (s.clone(), t.clone(), key.clone()),
            |(s, t, _), members| {
                let (_, _, key, label, values) = &members[0];
                (
                    s.clone(),
                    t.clone(),
                    key.clone(),
                    label.clone(),
                    values.clone(),
                    members.len() as i64,
                )
            },
        );
        let super_edges = grouped_edges.map({
            let ekeys = ekeys.clone();
            move |(s, t, key, label, values, count)| {
                let mut properties = Properties::new();
                properties.set("count", *count);
                for (k, v) in ekeys.iter().zip(values) {
                    properties.set(k, v.clone());
                }
                let full_key = format!("{s}\u{3}{t}\u{3}{key}");
                Edge::new(
                    group_id(&full_key),
                    label.clone(),
                    group_id(s),
                    group_id(t),
                    properties,
                )
                .add_to_graph(head_id)
            }
        });

        LogicalGraph::new(head, super_vertices, super_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Edge, GraphHead, Vertex};
    use crate::properties;
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};

    fn graph() -> LogicalGraph {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(3).cost_model(CostModel::free()),
        );
        let v = |id: u64, label: &str, city: &str| {
            Vertex::new(GradoopId(id), label, properties! {"city" => city})
        };
        let e = |id: u64, label: &str, s: u64, t: u64| {
            Edge::new(
                GradoopId(id),
                label,
                GradoopId(s),
                GradoopId(t),
                Properties::new(),
            )
        };
        LogicalGraph::from_data(
            &env,
            GraphHead::new(GradoopId(100), "g", Properties::new()),
            vec![
                v(1, "Person", "Leipzig"),
                v(2, "Person", "Leipzig"),
                v(3, "Person", "Dresden"),
                v(4, "City", "Leipzig"),
            ],
            vec![
                e(10, "knows", 1, 2),
                e(11, "knows", 2, 3),
                e(12, "knows", 1, 3),
                e(13, "livesIn", 1, 4),
            ],
        )
    }

    #[test]
    fn group_by_label_counts_vertices() {
        let grouped = graph().group_by(&GroupingConfig::by_label());
        let vertices = grouped.vertices().collect();
        assert_eq!(vertices.len(), 2); // Person, City
        let person = vertices.iter().find(|v| v.label == "Person").unwrap();
        assert_eq!(person.property("count").unwrap().as_i64(), Some(3));
    }

    #[test]
    fn group_by_label_aggregates_edges() {
        let grouped = graph().group_by(&GroupingConfig::by_label());
        let edges = grouped.edges().collect();
        // knows: Person->Person (3), livesIn: Person->City (1).
        assert_eq!(edges.len(), 2);
        let knows = edges.iter().find(|e| e.label == "knows").unwrap();
        assert_eq!(knows.property("count").unwrap().as_i64(), Some(3));
        // Edge endpoints must reference existing super vertices.
        let vertex_ids: Vec<GradoopId> =
            grouped.vertices().collect().iter().map(|v| v.id).collect();
        for e in &edges {
            assert!(vertex_ids.contains(&e.source));
            assert!(vertex_ids.contains(&e.target));
        }
    }

    #[test]
    fn group_by_label_and_property() {
        let config = GroupingConfig::by_label().vertex_key("city");
        let grouped = graph().group_by(&config);
        let vertices = grouped.vertices().collect();
        // (Person,Leipzig), (Person,Dresden), (City,Leipzig)
        assert_eq!(vertices.len(), 3);
        let leipzig_persons = vertices
            .iter()
            .find(|v| {
                v.label == "Person"
                    && v.property("city").and_then(|p| p.as_str()) == Some("Leipzig")
            })
            .unwrap();
        assert_eq!(leipzig_persons.property("count").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn grouping_marks_membership_in_new_graph() {
        let grouped = graph().group_by(&GroupingConfig::by_label());
        let head_id = grouped.head().id;
        for v in grouped.vertices().collect() {
            assert!(v.graph_ids.contains(head_id));
        }
    }
}
