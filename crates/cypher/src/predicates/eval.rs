//! Predicate evaluation against variable bindings.
//!
//! Evaluation follows Cypher's **three-valued (Kleene) logic** as pinned
//! down by *Formal Semantics of the Language Cypher* (Francis et al.):
//! atoms evaluate to `Some(true)`, `Some(false)` or `None` (*unknown*), a
//! comparison involving `NULL` (or a missing property) is unknown, ordering
//! two values of incompatible types is unknown, cross-type `=` is false and
//! cross-type `<>` is true. A row is kept only when the whole predicate
//! evaluates to exactly `true` — unknown filters the row, and, crucially,
//! stays unknown under `NOT` instead of flipping to `true`.
//!
//! Kleene logic is distributive and obeys De Morgan's laws, so the CNF
//! pipeline in [`crate::predicates::cnf`] (negation pushdown into atoms,
//! OR-over-AND distribution, per-variable clause splitting) preserves these
//! semantics exactly: a CNF predicate is true iff every clause contains an
//! atom that is `Some(true)`.

use std::borrow::Cow;
use std::cmp::Ordering;

use gradoop_epgm::{Label, Properties, PropertyValue};

use crate::predicates::cnf::{Atom, CnfClause, CnfPredicate, Operand};
use crate::predicates::expr::{CmpOp, Expression, Literal};

/// Read access to the bindings of query variables.
pub trait Bindings {
    /// Property `key` of the element bound to `variable`: borrowed where
    /// the bindings hold the value, decoded where they hold its bytes.
    fn property(&self, variable: &str, key: &str) -> Option<Cow<'_, PropertyValue>>;
    /// Label of the element bound to `variable`.
    fn label(&self, variable: &str) -> Option<Label>;
    /// Identity of the element bound to `variable` (for `a = b` on
    /// variables).
    fn element_id(&self, variable: &str) -> Option<u64>;
    /// Scalar value bound to `variable`, for bindings that can hold
    /// non-element columns (`WITH a.p AS p WHERE p > 0`). Consulted only
    /// when `element_id` has no answer; element-only bindings keep the
    /// default.
    fn value(&self, _variable: &str) -> Option<PropertyValue> {
        None
    }
}

/// Bindings of a single element under one variable name — used by the
/// element-centric leaf operators.
pub struct SingleElement<'a> {
    /// The variable the element is bound to.
    pub variable: &'a str,
    /// The element's label.
    pub label: &'a Label,
    /// The element's properties.
    pub properties: &'a Properties,
    /// The element's identifier.
    pub id: u64,
}

impl Bindings for SingleElement<'_> {
    fn property(&self, variable: &str, key: &str) -> Option<Cow<'_, PropertyValue>> {
        (variable == self.variable)
            .then(|| self.properties.get(key).map(Cow::Borrowed))
            .flatten()
    }

    fn label(&self, variable: &str) -> Option<Label> {
        (variable == self.variable).then(|| self.label.clone())
    }

    fn element_id(&self, variable: &str) -> Option<u64> {
        (variable == self.variable).then_some(self.id)
    }
}

fn resolve<'a>(
    operand: &'a Operand,
    bindings: &'a impl Bindings,
) -> Option<Cow<'a, PropertyValue>> {
    match operand {
        Operand::Literal(literal) => Some(Cow::Owned(literal.to_property_value())),
        Operand::Property { variable, key } => bindings.property(variable, key),
        Operand::Variable(variable) => bindings
            .element_id(variable)
            .map(|id| Cow::Owned(PropertyValue::Long(id as i64))),
    }
}

/// Whether `ordering` (of left against right) satisfies `op`.
fn holds(op: CmpOp, ordering: Ordering) -> bool {
    match op {
        CmpOp::Eq => ordering == Ordering::Equal,
        CmpOp::Neq => ordering != Ordering::Equal,
        CmpOp::Lt => ordering == Ordering::Less,
        CmpOp::Gt => ordering == Ordering::Greater,
        CmpOp::Lte => ordering != Ordering::Greater,
        CmpOp::Gte => ordering != Ordering::Less,
    }
}

/// Kleene comparison of two resolved values. `None` operands (missing
/// property / unbound variable) are treated as `NULL`, and any comparison
/// involving `NULL` is unknown. For non-null operands, `=`/`<>` are total
/// (cross-type `=` is false, cross-type `<>` is true) while the ordering
/// operators are unknown when the values are incomparable.
pub fn compare_values(
    l: Option<&PropertyValue>,
    op: CmpOp,
    r: Option<&PropertyValue>,
) -> Option<bool> {
    let (l, r) = (l?, r?);
    if l.is_null() || r.is_null() {
        return None;
    }
    match op {
        CmpOp::Eq => Some(l == r),
        CmpOp::Neq => Some(l != r),
        _ => Some(holds(op, l.compare(r)?)),
    }
}

/// `value op 'text'` with the string literal read where the query holds
/// it, not converted per row: [`compare_values`] against
/// `PropertyValue::String(text)`.
fn compare_text(value: Option<&PropertyValue>, op: CmpOp, text: &str) -> Option<bool> {
    match value? {
        PropertyValue::Null => None,
        PropertyValue::String(s) => Some(holds(op, s.as_str().cmp(text))),
        // Cross-type: `=` is false, `<>` is true, ordering is unknown.
        _ => match op {
            CmpOp::Eq => Some(false),
            CmpOp::Neq => Some(true),
            _ => None,
        },
    }
}

/// The same comparison with its operands swapped: `a < b` is `b > a`.
fn mirrored(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Lte => CmpOp::Gte,
        CmpOp::Gte => CmpOp::Lte,
        CmpOp::Eq | CmpOp::Neq => op,
    }
}

/// Kleene comparison of two operands, reading property values in place
/// and comparing a string literal without converting it.
fn compare_operands(
    left: &Operand,
    op: CmpOp,
    right: &Operand,
    bindings: &impl Bindings,
) -> Option<bool> {
    match (left, right) {
        (_, Operand::Literal(Literal::String(text))) => {
            compare_text(resolve(left, bindings).as_deref(), op, text)
        }
        (Operand::Literal(Literal::String(text)), _) => {
            compare_text(resolve(right, bindings).as_deref(), mirrored(op), text)
        }
        _ => compare_values(
            resolve(left, bindings).as_deref(),
            op,
            resolve(right, bindings).as_deref(),
        ),
    }
}

/// Evaluates one atom to a Kleene truth value: `None` means *unknown*.
pub fn eval_atom(atom: &Atom, bindings: &impl Bindings) -> Option<bool> {
    match atom {
        Atom::Constant(value) => Some(*value),
        Atom::IsNull { operand, negated } => {
            // `IS [NOT] NULL` is the one predicate that is always
            // two-valued: null-ness of a value is known even when the value
            // is unknown.
            let is_null = match resolve(operand, bindings) {
                None => true,
                Some(value) => value.is_null(),
            };
            Some(is_null != *negated)
        }
        Atom::HasLabel {
            variable,
            labels,
            negated,
        } => {
            // An unbound variable has no label: unknown, like a label test
            // on NULL in Cypher.
            let label = bindings.label(variable)?;
            let has = labels.iter().any(|l| label == l.as_str());
            Some(has != *negated)
        }
        Atom::Comparison { left, op, right } => compare_operands(left, *op, right, bindings),
    }
}

/// Evaluates a clause (a disjunction): `true` when some atom is exactly
/// true. Under Kleene OR the clause is true iff any disjunct is true, so
/// unknown atoms never satisfy a clause.
pub fn eval_clause(clause: &CnfClause, bindings: &impl Bindings) -> bool {
    clause
        .atoms
        .iter()
        .any(|atom| eval_atom(atom, bindings) == Some(true))
}

/// Evaluates a predicate (a conjunction of clauses): `true` when every
/// clause holds. Rows whose predicate is false *or unknown* are filtered,
/// per Cypher's `WHERE` semantics.
pub fn eval_predicate(predicate: &CnfPredicate, bindings: &impl Bindings) -> bool {
    predicate
        .clauses
        .iter()
        .all(|clause| eval_clause(clause, bindings))
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn kleene_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// Resolves an [`Expression`] leaf to a value. Missing properties, unbound
/// variables and unsubstituted parameters all resolve to `NULL`.
fn eval_value(expr: &Expression, bindings: &impl Bindings) -> PropertyValue {
    match expr {
        Expression::Literal(literal) => literal.to_property_value(),
        Expression::Property { variable, key } => bindings
            .property(variable, key)
            .map_or(PropertyValue::Null, Cow::into_owned),
        Expression::Variable(variable) => bindings
            .element_id(variable)
            .map(|id| PropertyValue::Long(id as i64))
            .or_else(|| bindings.value(variable))
            .unwrap_or(PropertyValue::Null),
        _ => PropertyValue::Null,
    }
}

/// Direct Kleene evaluation of a `WHERE` expression tree, independent of
/// the CNF pipeline.
///
/// This is the ground-truth evaluator used by the reference matcher (and
/// the conformance harness): it recurses over the original [`Expression`]
/// with explicit Kleene `AND`/`OR`/`NOT`, so a bug anywhere in the NNF/CNF
/// transformation or the clause-splitting machinery shows up as a
/// divergence from this function.
pub fn eval_expression(expr: &Expression, bindings: &impl Bindings) -> Option<bool> {
    match expr {
        Expression::And(a, b) => {
            kleene_and(eval_expression(a, bindings), eval_expression(b, bindings))
        }
        Expression::Or(a, b) => {
            kleene_or(eval_expression(a, bindings), eval_expression(b, bindings))
        }
        // Kleene NOT: unknown stays unknown.
        Expression::Not(inner) => eval_expression(inner, bindings).map(|v| !v),
        Expression::Comparison { left, op, right } => compare_values(
            Some(&eval_value(left, bindings)),
            *op,
            Some(&eval_value(right, bindings)),
        ),
        Expression::IsNull { operand, negated } => {
            Some(eval_value(operand, bindings).is_null() != *negated)
        }
        // A bare value in boolean position: `x = TRUE`, mirroring to_nnf.
        other => compare_values(
            Some(&eval_value(other, bindings)),
            CmpOp::Eq,
            Some(&PropertyValue::Boolean(true)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::cnf::to_cnf;
    use crate::predicates::expr::{Expression, Literal};
    use gradoop_epgm::properties;

    fn person() -> (Label, Properties) {
        (
            Label::new("Person"),
            properties! { "name" => "Alice", "yob" => 1984i64 },
        )
    }

    fn bindings<'a>(label: &'a Label, props: &'a Properties) -> SingleElement<'a> {
        SingleElement {
            variable: "p",
            label,
            properties: props,
            id: 42,
        }
    }

    fn prop_cmp(key: &str, op: CmpOp, literal: Literal) -> Expression {
        Expression::Comparison {
            left: Box::new(Expression::Property {
                variable: "p".into(),
                key: key.into(),
            }),
            op,
            right: Box::new(Expression::Literal(literal)),
        }
    }

    fn check(expr_text_op: CmpOp, key: &str, literal: Literal, expected: bool) {
        let (label, props) = person();
        let expr = prop_cmp(key, expr_text_op, literal);
        let cnf = to_cnf(&expr);
        let b = bindings(&label, &props);
        assert_eq!(eval_predicate(&cnf, &b), expected);
        // The CNF pipeline and the direct expression evaluator must agree.
        assert_eq!(eval_expression(&expr, &b) == Some(true), expected);
    }

    #[test]
    fn comparisons_on_properties() {
        check(CmpOp::Eq, "name", Literal::String("Alice".into()), true);
        check(CmpOp::Eq, "name", Literal::String("Bob".into()), false);
        check(CmpOp::Gt, "yob", Literal::Integer(1980), true);
        check(CmpOp::Lte, "yob", Literal::Integer(1984), true);
        check(CmpOp::Lt, "yob", Literal::Integer(1984), false);
        check(CmpOp::Neq, "name", Literal::String("Bob".into()), true);
    }

    #[test]
    fn missing_property_is_unknown_even_negated() {
        check(CmpOp::Eq, "nonexistent", Literal::Integer(1), false);
        check(CmpOp::Neq, "nonexistent", Literal::Integer(1), false);
        // NOT (unknown) is still unknown, so the row stays filtered.
        let (label, props) = person();
        let expr = Expression::Not(Box::new(prop_cmp(
            "nonexistent",
            CmpOp::Eq,
            Literal::Integer(1),
        )));
        let b = bindings(&label, &props);
        assert!(!eval_predicate(&to_cnf(&expr), &b));
        assert_eq!(eval_expression(&expr, &b), None);
    }

    #[test]
    fn cross_type_equality_is_false_so_inequality_is_true() {
        // Comparing a number to a string: `=` is false, `<>` is true
        // (Cypher's cross-type rule), ordering is unknown.
        check(CmpOp::Eq, "yob", Literal::String("1984".into()), false);
        check(CmpOp::Neq, "yob", Literal::String("1984".into()), true);
        check(CmpOp::Lt, "name", Literal::Integer(0), false);
        check(CmpOp::Gt, "name", Literal::Integer(0), false);
        // NOT (a.yob = '1984') is therefore true, not unknown.
        let (label, props) = person();
        let expr = Expression::Not(Box::new(prop_cmp(
            "yob",
            CmpOp::Eq,
            Literal::String("1984".into()),
        )));
        let b = bindings(&label, &props);
        assert!(eval_predicate(&to_cnf(&expr), &b));
        assert_eq!(eval_expression(&expr, &b), Some(true));
    }

    #[test]
    fn null_literal_comparisons_are_unknown() {
        check(CmpOp::Eq, "name", Literal::Null, false);
        check(CmpOp::Neq, "name", Literal::Null, false);
        // ... and stay unknown (row filtered) under negation.
        let (label, props) = person();
        let b = bindings(&label, &props);
        for op in [CmpOp::Eq, CmpOp::Neq] {
            let expr = Expression::Not(Box::new(prop_cmp("name", op, Literal::Null)));
            assert!(!eval_predicate(&to_cnf(&expr), &b));
            assert_eq!(eval_expression(&expr, &b), None);
        }
    }

    #[test]
    fn null_literal_in_boolean_position_is_unknown() {
        let (label, props) = person();
        let b = bindings(&label, &props);
        let null = Expression::Literal(Literal::Null);
        assert_eq!(eval_expression(&null, &b), None);
        assert!(!eval_predicate(&to_cnf(&null), &b));
        // NOT NULL is unknown too — it must not collapse to true.
        let not_null = Expression::Not(Box::new(Expression::Literal(Literal::Null)));
        assert_eq!(eval_expression(&not_null, &b), None);
        assert!(!eval_predicate(&to_cnf(&not_null), &b));
    }

    #[test]
    fn kleene_or_recovers_truth_from_unknown() {
        // unknown OR true = true: `p.nonexistent = 1 OR p.yob = 1984`.
        let (label, props) = person();
        let b = bindings(&label, &props);
        let expr = Expression::Or(
            Box::new(prop_cmp("nonexistent", CmpOp::Eq, Literal::Integer(1))),
            Box::new(prop_cmp("yob", CmpOp::Eq, Literal::Integer(1984))),
        );
        assert!(eval_predicate(&to_cnf(&expr), &b));
        assert_eq!(eval_expression(&expr, &b), Some(true));
        // unknown AND false = false, so its negation is true.
        let and = Expression::And(
            Box::new(prop_cmp("nonexistent", CmpOp::Eq, Literal::Integer(1))),
            Box::new(prop_cmp("yob", CmpOp::Eq, Literal::Integer(0))),
        );
        assert_eq!(eval_expression(&and, &b), Some(false));
        let not_and = Expression::Not(Box::new(and));
        assert!(eval_predicate(&to_cnf(&not_and), &b));
        assert_eq!(eval_expression(&not_and, &b), Some(true));
    }

    #[test]
    fn is_null_is_two_valued() {
        let (label, props) = person();
        let b = bindings(&label, &props);
        for (negated, expected) in [(false, true), (true, false)] {
            let expr = Expression::IsNull {
                operand: Box::new(Expression::Property {
                    variable: "p".into(),
                    key: "nonexistent".into(),
                }),
                negated,
            };
            assert_eq!(eval_predicate(&to_cnf(&expr), &b), expected);
            assert_eq!(eval_expression(&expr, &b), Some(expected));
        }
    }

    #[test]
    fn label_atom() {
        let (label, props) = person();
        let b = bindings(&label, &props);
        assert_eq!(
            eval_atom(
                &Atom::HasLabel {
                    variable: "p".into(),
                    labels: vec!["Comment".into(), "Person".into()],
                    negated: false,
                },
                &b
            ),
            Some(true)
        );
        assert_eq!(
            eval_atom(
                &Atom::HasLabel {
                    variable: "p".into(),
                    labels: vec!["Person".into()],
                    negated: true,
                },
                &b
            ),
            Some(false)
        );
        // Unbound variable: unknown.
        assert_eq!(
            eval_atom(
                &Atom::HasLabel {
                    variable: "q".into(),
                    labels: vec!["Person".into()],
                    negated: false,
                },
                &b
            ),
            None
        );
    }

    #[test]
    fn variable_identity_comparison() {
        let (label, props) = person();
        let b = bindings(&label, &props);
        let atom = Atom::Comparison {
            left: Operand::Variable("p".into()),
            op: CmpOp::Eq,
            right: Operand::Literal(Literal::Integer(42)),
        };
        assert_eq!(eval_atom(&atom, &b), Some(true));
    }

    #[test]
    fn clause_is_disjunction_predicate_is_conjunction() {
        let (label, props) = person();
        let b = bindings(&label, &props);
        let t = Atom::Constant(true);
        let f = Atom::Constant(false);
        assert!(eval_clause(
            &CnfClause {
                atoms: vec![f.clone(), t.clone()]
            },
            &b
        ));
        assert!(!eval_clause(
            &CnfClause {
                atoms: vec![f.clone()]
            },
            &b
        ));
        let mut predicate = CnfPredicate::always_true();
        assert!(eval_predicate(&predicate, &b));
        predicate.push(CnfClause::single(t));
        predicate.push(CnfClause::single(f));
        assert!(!eval_predicate(&predicate, &b));
    }
}
