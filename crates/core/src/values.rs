//! The row value domain of pipeline queries.
//!
//! Multi-clause queries (`WITH`, `OPTIONAL MATCH`, aggregates, `UNWIND`)
//! carry **tables** between stages rather than embeddings: each row is a
//! `Vec<Value>` under a schema of column names. This module defines that
//! value domain plus every row-level primitive the two executors share —
//! expression evaluation ([`RowScope`]), the total order used by `ORDER BY`
//! ([`cmp_values`]), the key that joins, groups and deduplicates rows under
//! that order's equivalence ([`RowKey`]), and the aggregate folds
//! ([`fold_aggregate`]).
//!
//! The reference interpreter ([`crate::reference::reference_pipeline`]) and
//! the dataflow lowering use **exactly these functions**, so the
//! conformance fuzzer compares the two matchers' clause orchestration, not
//! two re-implementations of value semantics.
//!
//! Rows hold element ids, never element data. A label or property is
//! resolved by id through the queried graph's [`ElementIndex`]
//! ([`GraphSource::element_index`](crate::GraphSource::element_index)),
//! which reads the graph's shared partitions in place and is built once
//! per graph, so a query copies no part of the graph to evaluate its rows.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use gradoop_cypher::ast::{AggArg, AggFunc, SortKey, SortRef};
use gradoop_cypher::predicates::eval::Bindings;
use gradoop_dataflow::{Data, TableHasher};
use gradoop_epgm::properties::cmp_i64_f64;
use gradoop_epgm::{ElementIndex, Label, Properties, PropertyValue};

/// A value bound to one column of a pipeline row.
///
/// Vertices and edges stay references (their id) — labels and properties
/// are resolved by id through the graph's [`ElementIndex`] on demand,
/// mirroring the embedding layout of the classic path. `Vertex` and `Edge`
/// are distinct variants because the two id spaces may overlap.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL/Cypher NULL (also the padding of `OPTIONAL MATCH`).
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (all EPGM integer widths widen to this).
    Int(i64),
    /// Float (both EPGM float widths widen to this).
    Float(f64),
    /// String.
    Str(String),
    /// A vertex reference.
    Vertex(u64),
    /// An edge reference.
    Edge(u64),
    /// A variable-length path: alternating edge/vertex ids, as in
    /// [`crate::embedding::Entry::Path`].
    Path(Vec<u64>),
    /// A list (from `collect(..)` or a list property).
    List(Vec<Value>),
}

impl Data for Value {
    fn byte_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) | Value::Vertex(_) | Value::Edge(_) => 8,
            Value::Str(s) => 8 + s.len(),
            Value::Path(via) => 8 + 8 * via.len(),
            Value::List(items) => 8 + items.iter().map(Value::byte_size).sum::<usize>(),
        }
    }
}

/// One pipeline row.
pub type Row = Vec<Value>;

/// Widens an EPGM property value into the row domain, taking its heap data
/// along: a string or list cell costs what decoding it cost, a scalar
/// nothing.
impl From<PropertyValue> for Value {
    fn from(value: PropertyValue) -> Self {
        match value {
            PropertyValue::Null => Value::Null,
            PropertyValue::Boolean(b) => Value::Bool(b),
            PropertyValue::Int(i) => Value::Int(i as i64),
            PropertyValue::Long(l) => Value::Int(l),
            PropertyValue::Float(f) => Value::Float(f as f64),
            PropertyValue::Double(d) => Value::Float(d),
            PropertyValue::String(s) => Value::Str(s),
            PropertyValue::List(items) => Value::List(items.into_iter().map(Value::from).collect()),
        }
    }
}

/// Projects a row value back into the property domain for predicate
/// evaluation. Elements become their id as a `Long` (matching the classic
/// evaluator's identity comparisons); paths have no property-domain
/// equivalent and compare as `NULL`.
pub fn value_to_property(value: &Value) -> PropertyValue {
    match value {
        Value::Null => PropertyValue::Null,
        Value::Bool(b) => PropertyValue::Boolean(*b),
        Value::Int(i) => PropertyValue::Long(*i),
        Value::Float(f) => PropertyValue::Double(*f),
        Value::Str(s) => PropertyValue::String(s.clone()),
        Value::Vertex(id) | Value::Edge(id) => PropertyValue::Long(*id as i64),
        Value::Path(_) => PropertyValue::Null,
        Value::List(items) => PropertyValue::List(items.iter().map(value_to_property).collect()),
    }
}

fn type_rank(value: &Value) -> u8 {
    match value {
        Value::Bool(_) => 0,
        Value::Int(_) | Value::Float(_) => 1,
        Value::Str(_) => 2,
        Value::Vertex(_) => 3,
        Value::Edge(_) => 4,
        Value::Path(_) => 5,
        Value::List(_) => 6,
        // NULL sorts greatest: last under ASC, first under DESC — Cypher's
        // null placement.
        Value::Null => 7,
    }
}

fn cmp_f64(a: f64, b: f64) -> Ordering {
    // NaN is equal to itself and greater than every other number, so the
    // order stays total and deterministic.
    match a.partial_cmp(&b) {
        Some(ordering) => ordering,
        None => match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => unreachable!("partial_cmp only fails on NaN"),
        },
    }
}

/// Total, deterministic order over the whole value domain: used by
/// `ORDER BY`, min/max aggregates and the full-row tiebreak, and the
/// equivalence every [`RowKey`] keys on. Values of different types order by
/// type rank (booleans < numbers < strings < vertices < edges < paths <
/// lists < NULL); numbers compare exactly by value across `Int`/`Float`
/// (through [`cmp_i64_f64`], as [`PropertyValue`] compares them), with NaN
/// above every other number.
pub fn cmp_values(a: &Value, b: &Value) -> Ordering {
    let (ra, rb) = (type_rank(a), type_rank(b));
    if ra != rb {
        return ra.cmp(&rb);
    }
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Int(x), Value::Float(y)) => cmp_i64_f64(*x, *y).unwrap_or(Ordering::Less),
        (Value::Float(x), Value::Int(y)) => {
            cmp_i64_f64(*y, *x).map_or(Ordering::Greater, Ordering::reverse)
        }
        (Value::Float(x), Value::Float(y)) => cmp_f64(*x, *y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Vertex(x), Value::Vertex(y)) | (Value::Edge(x), Value::Edge(y)) => x.cmp(y),
        (Value::Path(x), Value::Path(y)) => x.cmp(y),
        (Value::List(x), Value::List(y)) => {
            for (xi, yi) in x.iter().zip(y.iter()) {
                let ordering = cmp_values(xi, yi);
                if ordering != Ordering::Equal {
                    return ordering;
                }
            }
            x.len().cmp(&y.len())
        }
        (Value::Null, Value::Null) => Ordering::Equal,
        _ => unreachable!("equal type ranks"),
    }
}

/// Lexicographic row order under [`cmp_values`] — the deterministic
/// tiebreak behind `ORDER BY` and the fold order of group members.
pub fn cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let ordering = cmp_values(x, y);
        if ordering != Ordering::Equal {
            return ordering;
        }
    }
    a.len().cmp(&b.len())
}

/// A row as a hash key: what clause-table joins, grouping and `DISTINCT`
/// key on. Two keys are equal exactly when [`cmp_rows`] says `Equal`
/// (`Int(2)` meets `Float(2.0)`, NULL meets NULL, every NaN is one value),
/// and they order by [`cmp_rows`], so the one order defines both.
#[derive(Debug, Clone)]
pub struct RowKey(pub Row);

impl PartialEq for RowKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RowKey {}

impl PartialOrd for RowKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RowKey {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_rows(&self.0, &other.0)
    }
}

/// Equal keys hash equally: a number hashes through its `f64` image, as
/// [`PropertyValue`]'s `Hash` does (an `Int` equal to a `Float` is exactly
/// that float), with `-0.0` as `0` and every NaN as one value.
impl Hash for RowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        fn number<H: Hasher>(x: f64, state: &mut H) {
            let x = if x.is_nan() {
                f64::NAN
            } else if x == 0.0 {
                0.0
            } else {
                x
            };
            state.write_u64(x.to_bits());
        }
        fn hash_value<H: Hasher>(value: &Value, state: &mut H) {
            state.write_u8(type_rank(value));
            match value {
                Value::Null => {}
                Value::Bool(b) => b.hash(state),
                Value::Int(i) => number(*i as f64, state),
                Value::Float(f) => number(*f, state),
                Value::Str(s) => s.hash(state),
                Value::Vertex(id) | Value::Edge(id) => id.hash(state),
                Value::Path(via) => via.hash(state),
                Value::List(items) => {
                    state.write_usize(items.len());
                    items.iter().for_each(|item| hash_value(item, state));
                }
            }
        }
        state.write_usize(self.0.len());
        self.0.iter().for_each(|item| hash_value(item, state));
    }
}

// --- row-scoped evaluation ---------------------------------------------------

/// [`Bindings`] over one pipeline row: columns are visible by name, element
/// columns resolve labels/properties by id through the graph's
/// [`ElementIndex`], and scalar columns surface through [`Bindings::value`].
pub struct RowScope<'a> {
    /// Column names, parallel to `row`.
    pub columns: &'a [String],
    /// The row under evaluation.
    pub row: &'a [Value],
    /// Element lookup by id.
    pub index: &'a ElementIndex,
}

impl<'a> RowScope<'a> {
    /// The value bound to a column, if the column exists.
    pub fn get(&self, name: &str) -> Option<&'a Value> {
        self.columns
            .iter()
            .position(|c| c == name)
            .map(|i| &self.row[i])
    }

    /// Label and properties of the element bound to `variable`: `None` for
    /// missing columns, non-elements, NULL-padded and unknown elements.
    fn element(&self, variable: &str) -> Option<(&'a Label, &'a Properties)> {
        match self.get(variable)? {
            Value::Vertex(id) => self.index.vertex(*id).map(|v| (&v.label, &v.properties)),
            Value::Edge(id) => self.index.edge(*id).map(|e| (&e.label, &e.properties)),
            _ => None,
        }
    }

    /// The stored property, where [`RowScope::element`] finds an element
    /// and it has the key.
    fn stored_property(&self, variable: &str, key: &str) -> Option<&'a PropertyValue> {
        self.element(variable)?.1.get(key)
    }

    /// Property access in the row domain: NULL for missing columns,
    /// non-elements, NULL-padded elements and absent keys.
    pub fn property_value(&self, variable: &str, key: &str) -> Value {
        self.stored_property(variable, key)
            .map_or(Value::Null, |value| Value::from(value.clone()))
    }
}

/// [`value_to_property`] of [`Value::from`] in one step: integers widen to
/// `Long`, floats to `Double`, lists element-wise.
fn widened(value: &PropertyValue) -> PropertyValue {
    match value {
        PropertyValue::Int(i) => PropertyValue::Long(i64::from(*i)),
        PropertyValue::Float(f) => PropertyValue::Double(f64::from(*f)),
        PropertyValue::List(items) => PropertyValue::List(items.iter().map(widened).collect()),
        other => other.clone(),
    }
}

impl Bindings for RowScope<'_> {
    fn property(&self, variable: &str, key: &str) -> Option<Cow<'_, PropertyValue>> {
        self.stored_property(variable, key)
            .filter(|value| !matches!(value, PropertyValue::Null))
            .map(|value| Cow::Owned(widened(value)))
    }

    fn label(&self, variable: &str) -> Option<Label> {
        self.element(variable).map(|(label, _)| label.clone())
    }

    fn element_id(&self, variable: &str) -> Option<u64> {
        match self.get(variable) {
            Some(Value::Vertex(id)) | Some(Value::Edge(id)) => Some(*id),
            _ => None,
        }
    }

    fn value(&self, variable: &str) -> Option<PropertyValue> {
        match self.get(variable) {
            None | Some(Value::Null) | Some(Value::Path(_)) => None,
            Some(scalar) => Some(value_to_property(scalar)),
        }
    }
}

// --- sorting -----------------------------------------------------------------

/// Resolves one `ORDER BY` key against a row: a column by reference, a
/// property as its row-domain value.
fn sort_value<'a>(key: &SortRef, scope: &RowScope<'a>) -> Cow<'a, Value> {
    match key {
        SortRef::Name(name) => scope
            .get(name)
            .map_or(Cow::Owned(Value::Null), Cow::Borrowed),
        SortRef::Property { variable, key } => Cow::Owned(scope.property_value(variable, key)),
    }
}

/// The total `ORDER BY` comparator: explicit sort keys first (descending
/// keys reversed, which also flips NULL placement exactly as Cypher does),
/// then the full-row [`cmp_rows`] order as tiebreak so `SKIP`/`LIMIT` cut
/// deterministically even across tied keys. With no keys this is the plain
/// [`cmp_rows`] order (used for `SKIP`/`LIMIT` without `ORDER BY`).
pub fn compare_rows_by_keys(
    keys: &[SortKey],
    columns: &[String],
    index: &ElementIndex,
    a: &[Value],
    b: &[Value],
) -> Ordering {
    let scope_a = RowScope {
        columns,
        row: a,
        index,
    };
    let scope_b = RowScope {
        columns,
        row: b,
        index,
    };
    for key in keys {
        let (va, vb) = (
            sort_value(&key.expr, &scope_a),
            sort_value(&key.expr, &scope_b),
        );
        let ordering = cmp_values(&va, &vb);
        let ordering = if key.descending {
            ordering.reverse()
        } else {
            ordering
        };
        if ordering != Ordering::Equal {
            return ordering;
        }
    }
    cmp_rows(a, b)
}

// --- aggregation -------------------------------------------------------------

/// Resolves an aggregate argument against a row (`None` arg = `count(*)`,
/// which counts rows and resolves to a non-NULL marker).
pub fn agg_arg_value(arg: &Option<AggArg>, scope: &RowScope<'_>) -> Value {
    match arg {
        None => Value::Int(1), // count(*): every row counts
        Some(AggArg::Variable(v)) => scope.get(v).cloned().unwrap_or(Value::Null),
        Some(AggArg::Property { variable, key }) => scope.property_value(variable, key),
    }
}

/// Folds one aggregate over the argument values of a group, in member
/// order. NULLs are skipped (except that `count(*)` arguments are never
/// NULL). `DISTINCT` keeps the first occurrence of each [`RowKey`].
pub fn fold_aggregate(func: AggFunc, distinct: bool, values: &[Value]) -> Value {
    let non_null: Vec<&Value> = values
        .iter()
        .filter(|v| !matches!(v, Value::Null))
        .collect();
    let deduped: Vec<&Value> = if distinct {
        let mut seen = HashSet::with_hasher(TableHasher::default());
        non_null
            .into_iter()
            .filter(|v| seen.insert(RowKey(vec![(*v).clone()])))
            .collect()
    } else {
        non_null
    };
    match func {
        AggFunc::Count => Value::Int(deduped.len() as i64),
        AggFunc::Collect => Value::List(deduped.into_iter().cloned().collect()),
        AggFunc::Min => deduped
            .into_iter()
            .min_by(|a, b| cmp_values(a, b))
            .cloned()
            .unwrap_or(Value::Null),
        AggFunc::Max => deduped
            .into_iter()
            .max_by(|a, b| cmp_values(a, b))
            .cloned()
            .unwrap_or(Value::Null),
        AggFunc::Sum => {
            // Non-numeric values are skipped (shared by both executors, so
            // the conformance harness never sees a one-sided error).
            let mut int_sum: i64 = 0;
            let mut float_sum: f64 = 0.0;
            let mut saw_float = false;
            for value in &deduped {
                match value {
                    Value::Int(i) => int_sum = int_sum.wrapping_add(*i),
                    Value::Float(f) => {
                        saw_float = true;
                        float_sum += f;
                    }
                    _ => {}
                }
            }
            if saw_float {
                Value::Float(float_sum + int_sum as f64)
            } else {
                Value::Int(int_sum)
            }
        }
        AggFunc::Avg => {
            let mut sum = 0.0f64;
            let mut count = 0usize;
            for value in &deduped {
                match value {
                    Value::Int(i) => {
                        sum += *i as f64;
                        count += 1;
                    }
                    Value::Float(f) => {
                        sum += f;
                        count += 1;
                    }
                    _ => {}
                }
            }
            if count == 0 {
                Value::Null
            } else {
                Value::Float(sum / count as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradoop_cypher::ast::SortKey;
    use gradoop_cypher::predicates::eval::eval_expression;
    use gradoop_cypher::{CmpOp, Expression};

    #[test]
    fn aggregates_fold_as_specified() {
        let vals = vec![
            Value::Int(3),
            Value::Null,
            Value::Int(1),
            Value::Int(3),
            Value::Float(0.5),
        ];
        assert_eq!(fold_aggregate(AggFunc::Count, false, &vals), Value::Int(4));
        assert_eq!(fold_aggregate(AggFunc::Count, true, &vals), Value::Int(3));
        assert_eq!(
            fold_aggregate(AggFunc::Sum, false, &vals),
            Value::Float(7.5)
        );
        assert_eq!(
            fold_aggregate(AggFunc::Min, false, &vals),
            Value::Float(0.5)
        );
        assert_eq!(fold_aggregate(AggFunc::Max, false, &vals), Value::Int(3));
        assert_eq!(
            fold_aggregate(AggFunc::Collect, true, &vals),
            Value::List(vec![Value::Int(3), Value::Int(1), Value::Float(0.5)])
        );
        assert_eq!(
            fold_aggregate(AggFunc::Avg, false, &vals),
            Value::Float(7.5 / 4.0)
        );
        // Empty input: count 0, sum 0, collect [], min/max/avg NULL.
        assert_eq!(fold_aggregate(AggFunc::Count, false, &[]), Value::Int(0));
        assert_eq!(fold_aggregate(AggFunc::Sum, false, &[]), Value::Int(0));
        assert_eq!(
            fold_aggregate(AggFunc::Collect, false, &[]),
            Value::List(vec![])
        );
        assert_eq!(fold_aggregate(AggFunc::Min, false, &[]), Value::Null);
        assert_eq!(fold_aggregate(AggFunc::Avg, false, &[]), Value::Null);
    }

    #[test]
    fn sort_comparator_orders_keys_then_tiebreaks() {
        let columns = vec!["x".to_string(), "y".to_string()];
        let index = ElementIndex::default();
        let keys = vec![SortKey {
            expr: SortRef::Name("x".into()),
            descending: true,
        }];
        let a = vec![Value::Int(1), Value::Str("a".into())];
        let b = vec![Value::Int(2), Value::Str("b".into())];
        assert_eq!(
            compare_rows_by_keys(&keys, &columns, &index, &a, &b),
            Ordering::Greater
        );
        // Tied key → full-row tiebreak on y.
        let c = vec![Value::Int(1), Value::Str("b".into())];
        assert_eq!(
            compare_rows_by_keys(&keys, &columns, &index, &a, &c),
            Ordering::Less
        );
        // DESC puts NULL first.
        let n = vec![Value::Null, Value::Str("n".into())];
        assert_eq!(
            compare_rows_by_keys(&keys, &columns, &index, &n, &a),
            Ordering::Less
        );
    }

    #[test]
    fn properties_widen_in_one_step_as_through_the_row_domain() {
        use PropertyValue::*;
        let values = [
            Null,
            Boolean(true),
            Int(-3),
            Long(7),
            Float(1.5),
            Double(2.5),
            String("x".into()),
            List(vec![Int(1), Float(0.5), Null, List(vec![Int(2)])]),
        ];
        for value in values {
            assert_eq!(
                widened(&value),
                value_to_property(&Value::from(value.clone())),
                "{value:?}"
            );
        }
    }

    #[test]
    fn row_scope_resolves_scalars_and_nulls() {
        let columns = vec!["p".to_string()];
        let index = ElementIndex::default();
        let row = vec![Value::Int(7)];
        let scope = RowScope {
            columns: &columns,
            row: &row,
            index: &index,
        };
        // `p > 0` with a scalar column resolves through Bindings::value.
        let expr = Expression::Comparison {
            left: Box::new(Expression::Variable("p".into())),
            op: CmpOp::Gt,
            right: Box::new(Expression::Literal(gradoop_cypher::Literal::Integer(0))),
        };
        assert_eq!(eval_expression(&expr, &scope), Some(true));
        // NULL-padded column: comparison unknown, IS NULL true.
        let row = vec![Value::Null];
        let scope = RowScope {
            columns: &columns,
            row: &row,
            index: &index,
        };
        assert_eq!(eval_expression(&expr, &scope), None);
        let is_null = Expression::IsNull {
            operand: Box::new(Expression::Variable("p".into())),
            negated: false,
        };
        assert_eq!(eval_expression(&is_null, &scope), Some(true));
    }
}
