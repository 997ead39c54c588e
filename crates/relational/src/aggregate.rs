//! Grouping and aggregation.
//!
//! [`aggregate_rows`] groups input rows by a list of columns and
//! computes aggregate functions per group; it is how the evaluator applies
//! a [`crate::algebra::Plan::Aggregate`] node. SQL surface: `SELECT dept,
//! COUNT(*) AS n FROM t GROUP BY dept HAVING n > 2`. With an empty
//! `group_by`, the whole input is one group (global aggregates).
//!
//! NULL handling follows SQL: column aggregates skip NULLs, `COUNT(*)`
//! counts rows, aggregates over an empty group yield NULL (except
//! `COUNT`, which yields 0), and NULL group keys form their own group.

use crate::algebra::ResultSet;
use crate::error::{Error, Result};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// An aggregate function over a group of rows.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    /// `COUNT(*)` — number of rows in the group.
    CountStar,
    /// `COUNT(col)` — number of non-NULL values.
    Count(String),
    /// `SUM(col)` over non-NULL numeric values.
    Sum(String),
    /// `AVG(col)` over non-NULL numeric values.
    Avg(String),
    /// `MIN(col)` over non-NULL values.
    Min(String),
    /// `MAX(col)` over non-NULL values.
    Max(String),
}

impl AggFunc {
    /// The input column, if any.
    pub fn column(&self) -> Option<&str> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Count(c)
            | AggFunc::Sum(c)
            | AggFunc::Avg(c)
            | AggFunc::Min(c)
            | AggFunc::Max(c) => Some(c),
        }
    }

    /// Compute over the values of the group (already projected to the
    /// aggregate's input column; `CountStar` receives one value per row).
    fn compute(&self, values: &[Value]) -> Result<Value> {
        match self {
            AggFunc::CountStar => Ok(Value::Int(values.len() as i64)),
            AggFunc::Count(_) => Ok(Value::Int(
                values.iter().filter(|v| !v.is_null()).count() as i64
            )),
            AggFunc::Sum(c) => {
                let nums = numeric(values, c)?;
                if nums.is_empty() {
                    return Ok(Value::Null);
                }
                if values.iter().any(|v| matches!(v, Value::Float(_))) {
                    Ok(Value::Float(nums.iter().sum()))
                } else {
                    Ok(Value::Int(nums.iter().sum::<f64>() as i64))
                }
            }
            AggFunc::Avg(c) => {
                let nums = numeric(values, c)?;
                if nums.is_empty() {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Float(nums.iter().sum::<f64>() / nums.len() as f64))
                }
            }
            AggFunc::Min(_) => Ok(values
                .iter()
                .filter(|v| !v.is_null())
                .min()
                .cloned()
                .unwrap_or(Value::Null)),
            AggFunc::Max(_) => Ok(values
                .iter()
                .filter(|v| !v.is_null())
                .max()
                .cloned()
                .unwrap_or(Value::Null)),
        }
    }
}

fn numeric(values: &[Value], col: &str) -> Result<Vec<f64>> {
    values
        .iter()
        .filter(|v| !v.is_null())
        .map(|v| {
            v.as_float().ok_or_else(|| {
                Error::InvalidExpression(format!("cannot aggregate non-numeric {v} in {col}"))
            })
        })
        .collect()
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFunc::CountStar => f.write_str("COUNT(*)"),
            AggFunc::Count(c) => write!(f, "COUNT({c})"),
            AggFunc::Sum(c) => write!(f, "SUM({c})"),
            AggFunc::Avg(c) => write!(f, "AVG({c})"),
            AggFunc::Min(c) => write!(f, "MIN({c})"),
            AggFunc::Max(c) => write!(f, "MAX({c})"),
        }
    }
}

/// One output aggregate: the function plus its output column name.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Output column name.
    pub alias: String,
}

/// Evaluate an aggregation over a materialized input.
pub fn aggregate_rows(
    input: &ResultSet,
    group_by: &[String],
    aggs: &[AggSpec],
) -> Result<ResultSet> {
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|c| input.column_index(c))
        .collect::<Result<_>>()?;
    let agg_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| match a.func.column() {
            Some(c) => input.column_index(c).map(Some),
            None => Ok(None),
        })
        .collect::<Result<_>>()?;

    let mut groups: BTreeMap<Vec<Value>, Vec<Vec<Value>>> = BTreeMap::new();
    for row in &input.rows {
        let key: Vec<Value> = group_idx.iter().map(|&i| row[i].clone()).collect();
        let entry = groups
            .entry(key)
            .or_insert_with(|| vec![Vec::new(); aggs.len()]);
        for (slot, idx) in entry.iter_mut().zip(&agg_idx) {
            match idx {
                Some(i) => slot.push(row[*i].clone()),
                None => slot.push(Value::Int(1)), // row marker for COUNT(*)
            }
        }
    }
    // global aggregate over empty input still yields one row
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(Vec::new(), vec![Vec::new(); aggs.len()]);
    }

    let mut columns: Vec<String> = group_idx
        .iter()
        .map(|&i| input.columns[i].clone())
        .collect();
    columns.extend(aggs.iter().map(|a| a.alias.clone()));
    let mut rows = Vec::with_capacity(groups.len());
    for (key, slots) in groups {
        let mut row = key;
        for (spec, values) in aggs.iter().zip(&slots) {
            row.push(spec.func.compute(values)?);
        }
        rows.push(row);
    }
    Ok(ResultSet { columns, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Plan;
    use crate::database::Database;
    use crate::predicate::Expr;
    use crate::schema::{AttributeDef, RelationSchema};
    use crate::value::DataType;

    fn db() -> Database {
        let mut d = Database::new();
        d.create_relation(
            RelationSchema::new(
                "G",
                vec![
                    AttributeDef::required("course", DataType::Text),
                    AttributeDef::required("ssn", DataType::Int),
                    AttributeDef::nullable("score", DataType::Float),
                ],
                &["course", "ssn"],
            )
            .unwrap(),
        )
        .unwrap();
        for (c, s, v) in [
            ("A", 1, Some(3.0)),
            ("A", 2, Some(4.0)),
            ("A", 3, None),
            ("B", 1, Some(2.0)),
            ("B", 2, Some(2.0)),
        ] {
            d.insert(
                "G",
                vec![
                    c.into(),
                    s.into(),
                    v.map(Value::from).unwrap_or(Value::Null),
                ],
            )
            .unwrap();
        }
        d
    }

    /// Evaluate `input`, then aggregate, as one plan.
    fn execute_aggregate(
        d: &Database,
        input: &Plan,
        group_by: &[String],
        aggs: &[AggSpec],
    ) -> Result<ResultSet> {
        d.execute(&input.clone().aggregate(group_by.to_vec(), aggs.to_vec()))
    }

    #[test]
    fn group_count_star_and_column() {
        let d = db();
        let rs = execute_aggregate(
            &d,
            &Plan::scan("G"),
            &["G.course".to_string()],
            &[
                AggSpec {
                    func: AggFunc::CountStar,
                    alias: "n".into(),
                },
                AggSpec {
                    func: AggFunc::Count("score".into()),
                    alias: "scored".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(rs.columns, vec!["G.course", "n", "scored"]);
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(
            rs.rows[0],
            vec![Value::text("A"), Value::Int(3), Value::Int(2)]
        );
        assert_eq!(
            rs.rows[1],
            vec![Value::text("B"), Value::Int(2), Value::Int(2)]
        );
    }

    #[test]
    fn sum_avg_min_max() {
        let d = db();
        let rs = execute_aggregate(
            &d,
            &Plan::scan("G"),
            &["course".to_string()],
            &[
                AggSpec {
                    func: AggFunc::Sum("score".into()),
                    alias: "s".into(),
                },
                AggSpec {
                    func: AggFunc::Avg("score".into()),
                    alias: "a".into(),
                },
                AggSpec {
                    func: AggFunc::Min("score".into()),
                    alias: "lo".into(),
                },
                AggSpec {
                    func: AggFunc::Max("score".into()),
                    alias: "hi".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(rs.rows[0][1], Value::Float(7.0));
        assert_eq!(rs.rows[0][2], Value::Float(3.5));
        assert_eq!(rs.rows[0][3], Value::Float(3.0));
        assert_eq!(rs.rows[0][4], Value::Float(4.0));
    }

    #[test]
    fn global_aggregate_no_groups() {
        let d = db();
        let rs = execute_aggregate(
            &d,
            &Plan::scan("G"),
            &[],
            &[AggSpec {
                func: AggFunc::CountStar,
                alias: "n".into(),
            }],
        )
        .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(5)]]);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let d = db();
        let rs = execute_aggregate(
            &d,
            &Plan::scan("G").select(Expr::attr("course").eq(Expr::lit("Z"))),
            &[],
            &[
                AggSpec {
                    func: AggFunc::CountStar,
                    alias: "n".into(),
                },
                AggSpec {
                    func: AggFunc::Sum("score".into()),
                    alias: "s".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn grouped_aggregate_over_empty_input_has_no_rows() {
        let d = db();
        let rs = execute_aggregate(
            &d,
            &Plan::scan("G").select(Expr::attr("course").eq(Expr::lit("Z"))),
            &["course".to_string()],
            &[AggSpec {
                func: AggFunc::CountStar,
                alias: "n".into(),
            }],
        )
        .unwrap();
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn sum_of_ints_stays_int() {
        let mut d = Database::new();
        d.create_relation(
            RelationSchema::new(
                "T",
                vec![
                    AttributeDef::required("k", DataType::Int),
                    AttributeDef::required("v", DataType::Int),
                ],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap();
        d.insert("T", vec![1.into(), 10.into()]).unwrap();
        d.insert("T", vec![2.into(), 32.into()]).unwrap();
        let rs = execute_aggregate(
            &d,
            &Plan::scan("T"),
            &[],
            &[AggSpec {
                func: AggFunc::Sum("v".into()),
                alias: "s".into(),
            }],
        )
        .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(42));
    }

    #[test]
    fn non_numeric_sum_is_error() {
        let d = db();
        let r = execute_aggregate(
            &d,
            &Plan::scan("G"),
            &[],
            &[AggSpec {
                func: AggFunc::Sum("course".into()),
                alias: "s".into(),
            }],
        );
        assert!(matches!(r, Err(Error::InvalidExpression(_))));
    }

    #[test]
    fn min_max_on_text() {
        let d = db();
        let rs = execute_aggregate(
            &d,
            &Plan::scan("G"),
            &[],
            &[
                AggSpec {
                    func: AggFunc::Min("course".into()),
                    alias: "lo".into(),
                },
                AggSpec {
                    func: AggFunc::Max("course".into()),
                    alias: "hi".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(rs.rows[0], vec![Value::text("A"), Value::text("B")]);
    }
}
