//! Logical plan rewrites: selection pushdown, select merging, constant
//! folding, and elimination of no-op selections and stacked distincts.
//!
//! The optimizer is semantics-preserving (verified by property tests in the
//! crate's test suite): for any database, the optimized plan returns the
//! same multiset of rows as the original.

use crate::algebra::Plan;
use crate::predicate::Expr;

/// Optimize a plan until a fixed point (bounded by a small iteration cap so
/// a buggy rule cannot loop forever).
pub fn optimize(plan: Plan) -> Plan {
    let mut current = plan;
    for _ in 0..8 {
        let next = rewrite(current.clone());
        if next == current {
            return next;
        }
        current = next;
    }
    current
}

fn rewrite(plan: Plan) -> Plan {
    // bottom-up
    let plan = map_children(plan, rewrite);
    match plan {
        // merge stacked selects
        Plan::Select { input, pred } => match *input {
            Plan::Select {
                input: inner,
                pred: p2,
            } => Plan::Select {
                input: inner,
                pred: fold_expr(p2.and(pred)),
            },
            other => {
                let pred = fold_expr(pred);
                match pred {
                    // sigma TRUE is a no-op
                    Expr::True => other,
                    pred => push_select(other, pred),
                }
            }
        },
        // distinct of distinct
        Plan::Distinct { input } => match *input {
            Plan::Distinct { input: inner } => Plan::Distinct { input: inner },
            other => Plan::Distinct {
                input: Box::new(other),
            },
        },
        other => other,
    }
}

/// Try to push a selection below a join when the predicate only
/// references one side's columns. Every other node keeps the selection
/// above it — for an `Aggregate` that is what makes it a `HAVING`.
fn push_select(plan: Plan, pred: Expr) -> Plan {
    match plan {
        Plan::Join { left, right, on } => {
            let cols = pred.referenced_columns();
            if let Some(side) = side_of(&cols, &left, &right) {
                match side {
                    Side::Left => Plan::Join {
                        left: Box::new(push_select(*left, pred)),
                        right,
                        on,
                    },
                    Side::Right => Plan::Join {
                        left,
                        right: Box::new(push_select(*right, pred)),
                        on,
                    },
                }
            } else {
                Plan::Select {
                    input: Box::new(Plan::Join { left, right, on }),
                    pred,
                }
            }
        }
        other => Plan::Select {
            input: Box::new(other),
            pred,
        },
    }
}

enum Side {
    Left,
    Right,
}

/// Decide whether every referenced column can be resolved purely on one
/// side of a binary node. Conservatively requires exact or suffix matches
/// against the *static* output columns of each side.
fn side_of(cols: &[&str], left: &Plan, right: &Plan) -> Option<Side> {
    let lcols = static_columns(left)?;
    let rcols = static_columns(right)?;
    let on = |set: &[String], c: &str| {
        set.iter()
            .any(|s| s == c || s.rsplit_once('.').map(|(_, t)| t == c).unwrap_or(false))
    };
    let all_left = cols.iter().all(|c| on(&lcols, c) && !on(&rcols, c));
    let all_right = cols.iter().all(|c| on(&rcols, c) && !on(&lcols, c));
    if all_left {
        Some(Side::Left)
    } else if all_right {
        Some(Side::Right)
    } else {
        None
    }
}

/// Statically predict output column names when possible. `None` means
/// "unknown" (e.g. a scan, whose columns depend on the catalog) — except
/// scans *are* predictable in shape (`rel.attr`) but we don't know the
/// attrs, so we return the relation marker prefix instead.
fn static_columns(plan: &Plan) -> Option<Vec<String>> {
    match plan {
        Plan::Scan { relation } => Some(vec![format!("{relation}.*")]),
        Plan::Project { columns, .. } => Some(columns.clone()),
        Plan::Rename { input, mapping } => {
            let mut cols = static_columns(input)?;
            for (old, new) in mapping {
                if let Some(c) = cols.iter_mut().find(|c| *c == old) {
                    *c = new.clone();
                }
            }
            Some(cols)
        }
        Plan::Select { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::Distinct { input } => static_columns(input),
        Plan::Join { left, right, .. } => {
            let mut l = static_columns(left)?;
            l.extend(static_columns(right)?);
            Some(l)
        }
        // grouping columns come out under their resolved input names
        Plan::Aggregate { .. } => None,
    }
}

fn map_children(plan: Plan, f: impl Fn(Plan) -> Plan + Copy) -> Plan {
    match plan {
        Plan::Scan { .. } => plan,
        Plan::Select { input, pred } => Plan::Select {
            input: Box::new(f(*input)),
            pred,
        },
        Plan::Project { input, columns } => Plan::Project {
            input: Box::new(f(*input)),
            columns,
        },
        Plan::Join { left, right, on } => Plan::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            on,
        },
        Plan::Rename { input, mapping } => Plan::Rename {
            input: Box::new(f(*input)),
            mapping,
        },
        Plan::Sort { input, by } => Plan::Sort {
            input: Box::new(f(*input)),
            by,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(f(*input)),
            n,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(f(*input)),
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => Plan::Aggregate {
            input: Box::new(f(*input)),
            group_by,
            aggs,
        },
    }
}

/// Constant-fold an expression: evaluate literal comparisons and collapse
/// logical connectives with constant operands.
pub fn fold_expr(expr: Expr) -> Expr {
    match expr {
        Expr::Cmp(op, a, b) => {
            let a = fold_expr(*a);
            let b = fold_expr(*b);
            if let (Expr::Lit(ref la), Expr::Lit(ref lb)) = (&a, &b) {
                if !la.is_null() && !lb.is_null() {
                    let t = Expr::Cmp(op, Box::new(a.clone()), Box::new(b.clone()))
                        .eval_truth(&[], &[])
                        .expect("literal comparison cannot fail");
                    return match t {
                        crate::predicate::Truth::True => Expr::True,
                        crate::predicate::Truth::False => {
                            Expr::Lit(crate::value::Value::Bool(false))
                        }
                        crate::predicate::Truth::Unknown => Expr::Cmp(op, Box::new(a), Box::new(b)),
                    };
                }
            }
            Expr::Cmp(op, Box::new(a), Box::new(b))
        }
        Expr::And(a, b) => {
            let a = fold_expr(*a);
            let b = fold_expr(*b);
            match (a, b) {
                (Expr::True, x) | (x, Expr::True) => x,
                (Expr::Lit(crate::value::Value::Bool(false)), _)
                | (_, Expr::Lit(crate::value::Value::Bool(false))) => {
                    Expr::Lit(crate::value::Value::Bool(false))
                }
                (a, b) => Expr::And(Box::new(a), Box::new(b)),
            }
        }
        Expr::Or(a, b) => {
            let a = fold_expr(*a);
            let b = fold_expr(*b);
            match (a, b) {
                (Expr::True, _) | (_, Expr::True) => Expr::True,
                (Expr::Lit(crate::value::Value::Bool(false)), x)
                | (x, Expr::Lit(crate::value::Value::Bool(false))) => x,
                (a, b) => Expr::Or(Box::new(a), Box::new(b)),
            }
        }
        Expr::Not(e) => {
            let e = fold_expr(*e);
            match e {
                Expr::True => Expr::Lit(crate::value::Value::Bool(false)),
                Expr::Lit(crate::value::Value::Bool(false)) => Expr::True,
                e => Expr::Not(Box::new(e)),
            }
        }
        Expr::IsNull(e) => {
            let e = fold_expr(*e);
            match &e {
                Expr::Lit(v) => {
                    if v.is_null() {
                        Expr::True
                    } else {
                        Expr::Lit(crate::value::Value::Bool(false))
                    }
                }
                _ => Expr::IsNull(Box::new(e)),
            }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Expr;

    #[test]
    fn merges_stacked_selects() {
        let p = Plan::scan("R")
            .select(Expr::attr("a").eq(Expr::lit(1)))
            .select(Expr::attr("b").eq(Expr::lit(2)));
        let o = optimize(p);
        // one Select above the scan
        match o {
            Plan::Select { input, pred } => {
                assert!(matches!(*input, Plan::Scan { .. }));
                assert_eq!(pred.referenced_columns(), vec!["a", "b"]);
            }
            other => panic!("expected merged select, got {other}"),
        }
    }

    #[test]
    fn folds_literal_comparisons() {
        assert_eq!(fold_expr(Expr::lit(1).lt(Expr::lit(2))), Expr::True);
        let e = fold_expr(Expr::lit(2).lt(Expr::lit(1)));
        assert_eq!(e, Expr::Lit(crate::value::Value::Bool(false)));
        // TRUE AND x => x
        let e = fold_expr(Expr::lit(1).lt(Expr::lit(2)).and(Expr::attr("a").is_null()));
        assert_eq!(e, Expr::attr("a").is_null());
    }

    #[test]
    fn sigma_true_removed() {
        let p = Plan::scan("R").select(Expr::lit(1).lt(Expr::lit(2)));
        assert_eq!(optimize(p), Plan::scan("R"));
    }

    #[test]
    fn pushes_select_into_join_side() {
        // project gives static columns so pushdown can fire
        let left = Plan::scan("R").project(vec!["R.a".into()]);
        let right = Plan::scan("S").project(vec!["S.b".into()]);
        let p = left
            .clone()
            .join(right.clone(), vec![("R.a".into(), "S.b".into())])
            .select(Expr::attr("R.a").eq(Expr::lit(1)));
        let o = optimize(p);
        match o {
            Plan::Join { left: l, .. } => {
                assert!(
                    matches!(*l, Plan::Select { .. }),
                    "selection should sit on the left input, got {l}"
                );
            }
            other => panic!("expected join at root, got {other}"),
        }
    }

    #[test]
    fn does_not_push_cross_side_predicate() {
        let left = Plan::scan("R").project(vec!["R.a".into()]);
        let right = Plan::scan("S").project(vec!["S.b".into()]);
        let p = left
            .join(right, vec![("R.a".into(), "S.b".into())])
            .select(Expr::attr("R.a").eq(Expr::attr("S.b")));
        let o = optimize(p);
        assert!(matches!(o, Plan::Select { .. }));
    }

    #[test]
    fn having_stays_above_the_aggregate() {
        use crate::aggregate::{AggFunc, AggSpec};
        // the alias shadows an input column: pushed below, the HAVING
        // would still evaluate — over the wrong rows
        let grouped = Plan::scan("R")
            .select(Expr::attr("a").eq(Expr::lit(1)))
            .aggregate(
                vec!["a".into()],
                vec![AggSpec {
                    func: AggFunc::CountStar,
                    alias: "b".into(),
                }],
            );
        let p = grouped.clone().select(Expr::attr("b").gt(Expr::lit(2)));
        assert_eq!(optimize(p.clone()), p, "nothing to rewrite");
        // nor is it merged into the WHERE below, or pushed into a join side
        let joined = grouped
            .join(
                Plan::scan("S").project(vec!["S.c".into()]),
                vec![("a".into(), "S.c".into())],
            )
            .select(Expr::attr("b").gt(Expr::lit(2)));
        assert_eq!(optimize(joined.clone()), joined);
    }

    #[test]
    fn collapses_double_distinct() {
        let p = Plan::scan("R").distinct().distinct();
        let o = optimize(p);
        match o {
            Plan::Distinct { input } => assert!(matches!(*input, Plan::Scan { .. })),
            other => panic!("expected single distinct, got {other}"),
        }
    }

    #[test]
    fn not_folding() {
        assert_eq!(
            fold_expr(Expr::lit(1).lt(Expr::lit(2)).not()),
            Expr::Lit(crate::value::Value::Bool(false))
        );
        assert_eq!(
            fold_expr(Expr::IsNull(Box::new(Expr::Lit(crate::value::Value::Null)))),
            Expr::True
        );
    }
}
