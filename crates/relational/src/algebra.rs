//! Relational algebra: logical plans and their evaluator.
//!
//! Plans are composable trees evaluated against a [`Database`] into a
//! [`ResultSet`]. Joins are hash equi-joins; `Scan` yields columns
//! qualified as `relation.attribute` so multi-relation plans never collide,
//! and [`crate::predicate::resolve_column`] lets predicates use bare names
//! when unambiguous.

use crate::aggregate::{aggregate_rows, AggSpec};
use crate::database::Database;
use crate::error::{Error, Result};
use crate::predicate::{resolve_column, Expr};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use vo_obs::json::Json;
use vo_obs::trace;

/// A logical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a base relation; columns come out as `relation.attribute`.
    Scan { relation: String },
    /// Keep rows where `pred` is definitely true.
    Select { input: Box<Plan>, pred: Expr },
    /// Keep (and reorder to) the named columns.
    Project {
        input: Box<Plan>,
        columns: Vec<String>,
    },
    /// Hash equi-join on pairs of column names `(left, right)`.
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<(String, String)>,
    },
    /// Rename columns via `(old, new)` pairs.
    Rename {
        input: Box<Plan>,
        mapping: Vec<(String, String)>,
    },
    /// Sort by the named columns ascending.
    Sort { input: Box<Plan>, by: Vec<String> },
    /// Keep the first `n` rows.
    Limit { input: Box<Plan>, n: usize },
    /// Remove duplicate rows.
    Distinct { input: Box<Plan> },
    /// Group by the named columns and compute `aggs` per group (one global
    /// group when `group_by` is empty); columns come out as the grouping
    /// columns followed by the aggregate aliases. `HAVING` is a `Select`
    /// above this node.
    Aggregate {
        input: Box<Plan>,
        group_by: Vec<String>,
        aggs: Vec<AggSpec>,
    },
}

impl Plan {
    /// Scan constructor.
    pub fn scan(relation: impl Into<String>) -> Plan {
        Plan::Scan {
            relation: relation.into(),
        }
    }

    /// Wrap in a selection.
    pub fn select(self, pred: Expr) -> Plan {
        Plan::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// Wrap in a projection.
    pub fn project(self, columns: Vec<String>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            columns,
        }
    }

    /// Join with another plan on `(left, right)` column pairs.
    pub fn join(self, right: Plan, on: Vec<(String, String)>) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on,
        }
    }

    /// Wrap in a rename.
    pub fn rename(self, mapping: Vec<(String, String)>) -> Plan {
        Plan::Rename {
            input: Box::new(self),
            mapping,
        }
    }

    /// Wrap in a sort.
    pub fn sort(self, by: Vec<String>) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            by,
        }
    }

    /// Wrap in a limit.
    pub fn limit(self, n: usize) -> Plan {
        Plan::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// Wrap in a distinct.
    pub fn distinct(self) -> Plan {
        Plan::Distinct {
            input: Box::new(self),
        }
    }

    /// Wrap in a grouping / aggregation.
    pub fn aggregate(self, group_by: Vec<String>, aggs: Vec<AggSpec>) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
        }
    }

    /// Base relations referenced anywhere in the plan.
    pub fn relations(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_relations(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_relations<'a>(&'a self, out: &mut Vec<&'a str>) {
        if let Plan::Scan { relation } = self {
            out.push(relation);
        }
        for child in self.children() {
            child.collect_relations(out);
        }
    }

    /// Direct input plans, left to right (empty for leaves).
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } => Vec::new(),
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Rename { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input }
            | Plan::Aggregate { input, .. } => vec![input],
            Plan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// This operator's label alone, without its inputs — the per-node form
    /// of [`Plan`]'s `Display` rendering, used by profiles.
    pub fn node_label(&self) -> String {
        match self {
            Plan::Scan { relation } => format!("Scan({relation})"),
            Plan::Select { pred, .. } => format!("Select[{pred}]"),
            Plan::Project { columns, .. } => format!("Project[{}]", columns.join(",")),
            Plan::Join { on, .. } => {
                let conds: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
                format!("Join[{}]", conds.join(" AND "))
            }
            Plan::Rename { mapping, .. } => {
                let ms: Vec<String> = mapping.iter().map(|(o, n)| format!("{o}->{n}")).collect();
                format!("Rename[{}]", ms.join(","))
            }
            Plan::Sort { by, .. } => format!("Sort[{}]", by.join(",")),
            Plan::Limit { n, .. } => format!("Limit[{n}]"),
            Plan::Distinct { .. } => "Distinct".to_owned(),
            Plan::Aggregate { group_by, aggs, .. } => {
                let aggs: Vec<String> = aggs
                    .iter()
                    .map(|a| format!("{} AS {}", a.func, a.alias))
                    .collect();
                format!(
                    "Aggregate[group by {}; {}]",
                    group_by.join(","),
                    aggs.join(", ")
                )
            }
        }
    }

    /// The access path this operator takes, for profile labels; empty for
    /// operators that touch no table and build no lookup structure.
    pub fn access_label(&self) -> &'static str {
        match self {
            Plan::Scan { .. } => "table scan",
            Plan::Join { .. } => "hash join (build right)",
            _ => "",
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.node_label())?;
        let inputs: Vec<String> = self.children().iter().map(|c| c.to_string()).collect();
        if inputs.is_empty() {
            Ok(())
        } else {
            write!(f, "({})", inputs.join(", "))
        }
    }
}

/// A materialized query result: named columns and rows of values.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names (possibly qualified `rel.attr`).
    pub columns: Vec<String>,
    /// Rows, each with `columns.len()` values.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// An empty result with the given columns.
    pub fn empty(columns: Vec<String>) -> Self {
        ResultSet {
            columns,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a (possibly bare) column name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        resolve_column(&self.columns, name)
    }

    /// The value of `column` in row `row`.
    pub fn value(&self, row: usize, column: &str) -> Result<&Value> {
        let idx = self.column_index(column)?;
        Ok(&self.rows[row][idx])
    }

    /// Render as an aligned text table (for examples and experiments).
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

impl Database {
    /// Evaluate a logical plan to a materialized result.
    ///
    /// Every operator records a `relational.execute` span (nested to
    /// mirror the plan tree) carrying its `label`, `access` path, `rows_in`
    /// and `rows_out` — what `EXPLAIN ANALYZE` renders of a capture of this
    /// call. While nothing records, the only cost over the raw evaluator is
    /// one relaxed atomic load per operator node.
    pub fn execute(&self, plan: &Plan) -> Result<ResultSet> {
        let mut sp = trace::span("relational.execute");
        let mut inputs = Vec::with_capacity(2);
        for child in plan.children() {
            inputs.push(self.execute(child)?);
        }
        let rows_in: usize = inputs.iter().map(ResultSet::len).sum();
        let rs = self.apply_operator(plan, inputs)?;
        if sp.is_recording() {
            sp.field("label", Json::str(plan.node_label()));
            let access = plan.access_label();
            if !access.is_empty() {
                sp.field("access", Json::str(access));
            }
            sp.field("rows_in", Json::Int(rows_in as i64));
            sp.field("rows_out", Json::Int(rs.len() as i64));
        }
        Ok(rs)
    }

    /// Apply one operator to already-evaluated inputs (one [`ResultSet`]
    /// per entry of [`Plan::children`], in order).
    fn apply_operator(&self, plan: &Plan, mut inputs: Vec<ResultSet>) -> Result<ResultSet> {
        match plan {
            Plan::Scan { relation } => {
                let table = self.table(relation)?;
                let columns: Vec<String> = table
                    .schema()
                    .attributes()
                    .iter()
                    .map(|a| format!("{}.{}", relation, a.name))
                    .collect();
                let rows: Vec<Vec<Value>> = table.scan().map(|t| t.values().to_vec()).collect();
                Ok(ResultSet { columns, rows })
            }
            Plan::Select { pred, .. } => {
                let mut rs = inputs.pop().unwrap();
                let cols = rs.columns.clone();
                let mut err = None;
                rs.rows.retain(|row| {
                    if err.is_some() {
                        return false;
                    }
                    match pred.eval_truth(&cols, row) {
                        Ok(t) => t.is_true(),
                        Err(e) => {
                            err = Some(e);
                            false
                        }
                    }
                });
                match err {
                    Some(e) => Err(e),
                    None => Ok(rs),
                }
            }
            Plan::Project { columns, .. } => {
                let rs = inputs.pop().unwrap();
                let indices: Vec<usize> = columns
                    .iter()
                    .map(|c| rs.column_index(c))
                    .collect::<Result<_>>()?;
                let out_cols: Vec<String> =
                    indices.iter().map(|&i| rs.columns[i].clone()).collect();
                let rows = rs
                    .rows
                    .iter()
                    .map(|r| indices.iter().map(|&i| r[i].clone()).collect())
                    .collect();
                Ok(ResultSet {
                    columns: out_cols,
                    rows,
                })
            }
            Plan::Join { on, .. } => {
                let r = inputs.pop().unwrap();
                let l = inputs.pop().unwrap();
                if on.is_empty() {
                    return Err(Error::InvalidPlan(
                        "join requires at least one column pair".into(),
                    ));
                }
                let l_idx: Vec<usize> = on
                    .iter()
                    .map(|(lc, _)| l.column_index(lc))
                    .collect::<Result<_>>()?;
                let r_idx: Vec<usize> = on
                    .iter()
                    .map(|(_, rc)| r.column_index(rc))
                    .collect::<Result<_>>()?;
                // build hash on the smaller side (right by convention here)
                let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                for (ri, row) in r.rows.iter().enumerate() {
                    let k: Vec<Value> = r_idx.iter().map(|&i| row[i].clone()).collect();
                    // NULL never joins
                    if k.iter().any(|v| v.is_null()) {
                        continue;
                    }
                    index.entry(k).or_default().push(ri);
                }
                let mut columns = l.columns.clone();
                columns.extend(r.columns.iter().cloned());
                let mut rows = Vec::new();
                for lrow in &l.rows {
                    let k: Vec<Value> = l_idx.iter().map(|&i| lrow[i].clone()).collect();
                    if k.iter().any(|v| v.is_null()) {
                        continue;
                    }
                    if let Some(matches) = index.get(&k) {
                        for &ri in matches {
                            let mut row = lrow.clone();
                            row.extend(r.rows[ri].iter().cloned());
                            rows.push(row);
                        }
                    }
                }
                Ok(ResultSet { columns, rows })
            }
            Plan::Rename { mapping, .. } => {
                let mut rs = inputs.pop().unwrap();
                for (old, new) in mapping {
                    let idx = rs.column_index(old)?;
                    rs.columns[idx] = new.clone();
                }
                Ok(rs)
            }
            Plan::Sort { by, .. } => {
                let mut rs = inputs.pop().unwrap();
                let indices: Vec<usize> = by
                    .iter()
                    .map(|c| rs.column_index(c))
                    .collect::<Result<_>>()?;
                rs.rows.sort_by(|a, b| {
                    for &i in &indices {
                        let ord = a[i].cmp(&b[i]);
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                Ok(rs)
            }
            Plan::Limit { n, .. } => {
                let mut rs = inputs.pop().unwrap();
                rs.rows.truncate(*n);
                Ok(rs)
            }
            Plan::Distinct { .. } => {
                let mut rs = inputs.pop().unwrap();
                rs.rows.sort();
                rs.rows.dedup();
                Ok(rs)
            }
            Plan::Aggregate { group_by, aggs, .. } => {
                aggregate_rows(&inputs.pop().unwrap(), group_by, aggs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttributeDef, RelationSchema};
    use crate::value::DataType;
    use vo_obs::profile::ProfileNode;

    fn db() -> Database {
        let mut d = Database::new();
        d.create_relation(
            RelationSchema::new(
                "DEPARTMENT",
                vec![AttributeDef::required("dept_name", DataType::Text)],
                &["dept_name"],
            )
            .unwrap(),
        )
        .unwrap();
        d.create_relation(
            RelationSchema::new(
                "COURSES",
                vec![
                    AttributeDef::required("course_id", DataType::Text),
                    AttributeDef::required("title", DataType::Text),
                    AttributeDef::required("dept_name", DataType::Text),
                    AttributeDef::required("units", DataType::Int),
                ],
                &["course_id"],
            )
            .unwrap(),
        )
        .unwrap();
        for dn in ["CS", "EE", "Math"] {
            d.insert("DEPARTMENT", vec![dn.into()]).unwrap();
        }
        d.insert(
            "COURSES",
            vec!["CS345".into(), "DB".into(), "CS".into(), 3.into()],
        )
        .unwrap();
        d.insert(
            "COURSES",
            vec!["CS101".into(), "Intro".into(), "CS".into(), 5.into()],
        )
        .unwrap();
        d.insert(
            "COURSES",
            vec!["EE282".into(), "Arch".into(), "EE".into(), 4.into()],
        )
        .unwrap();
        d
    }

    #[test]
    fn scan_qualifies_columns() {
        let d = db();
        let rs = d.execute(&Plan::scan("COURSES")).unwrap();
        assert_eq!(rs.columns[0], "COURSES.course_id");
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn select_project() {
        let d = db();
        let plan = Plan::scan("COURSES")
            .select(Expr::attr("dept_name").eq(Expr::lit("CS")))
            .project(vec!["course_id".into(), "units".into()]);
        let rs = d.execute(&plan).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.columns, vec!["COURSES.course_id", "COURSES.units"]);
    }

    #[test]
    fn hash_join() {
        let d = db();
        let plan = Plan::scan("COURSES").join(
            Plan::scan("DEPARTMENT"),
            vec![("COURSES.dept_name".into(), "DEPARTMENT.dept_name".into())],
        );
        let rs = d.execute(&plan).unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.columns.len(), 5);
        // every row's two dept_name columns agree
        for i in 0..rs.len() {
            assert_eq!(
                rs.value(i, "COURSES.dept_name").unwrap(),
                rs.value(i, "DEPARTMENT.dept_name").unwrap()
            );
        }
    }

    #[test]
    fn join_skips_nulls() {
        let mut d = db();
        d.create_relation(
            RelationSchema::new(
                "REF",
                vec![
                    AttributeDef::required("id", DataType::Int),
                    AttributeDef::nullable("dept_name", DataType::Text),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        d.insert("REF", vec![1.into(), Value::Null]).unwrap();
        d.insert("REF", vec![2.into(), "CS".into()]).unwrap();
        let plan = Plan::scan("REF").join(
            Plan::scan("DEPARTMENT"),
            vec![("REF.dept_name".into(), "DEPARTMENT.dept_name".into())],
        );
        let rs = d.execute(&plan).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.value(0, "REF.id").unwrap(), &Value::Int(2));
    }

    #[test]
    fn distinct_dedups() {
        let d = db();
        let depts = Plan::scan("COURSES")
            .project(vec!["dept_name".into()])
            .distinct();
        let rs = d.execute(&depts).unwrap();
        assert_eq!(rs.len(), 2); // CS twice, EE once
    }

    #[test]
    fn sort_and_limit() {
        let d = db();
        let plan = Plan::scan("COURSES")
            .sort(vec!["units".into()])
            .project(vec!["course_id".into()])
            .limit(1);
        let rs = d.execute(&plan).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::text("CS345")); // 3 units is smallest
    }

    #[test]
    fn rename_changes_column() {
        let d = db();
        let plan =
            Plan::scan("DEPARTMENT").rename(vec![("DEPARTMENT.dept_name".into(), "d".into())]);
        let rs = d.execute(&plan).unwrap();
        assert_eq!(rs.columns, vec!["d"]);
    }

    /// `plan`'s result and the profile its spans render (what `EXPLAIN
    /// ANALYZE` shows).
    fn profiled(d: &Database, plan: &Plan) -> (ResultSet, ProfileNode) {
        let (rs, taken) = trace::capture(|| d.execute(plan));
        (rs.unwrap(), ProfileNode::from_spans(&taken.spans).unwrap())
    }

    #[test]
    fn profile_of_a_capture_matches_plain_and_measures() {
        let d = db();
        let plan = Plan::scan("COURSES")
            .select(Expr::attr("dept_name").eq(Expr::lit("CS")))
            .project(vec!["course_id".into()]);
        let plain = d.execute(&plan).unwrap();
        let (rs, prof) = profiled(&d, &plan);
        assert_eq!(rs, plain);
        // tree shape mirrors the plan: Project -> Select -> Scan
        assert!(prof.label.starts_with("Project"));
        assert_eq!(prof.rows_in, 2);
        assert_eq!(prof.rows_out, 2);
        let select = &prof.children[0];
        assert!(select.label.starts_with("Select"));
        assert_eq!(select.rows_in, 3);
        assert_eq!(select.rows_out, 2);
        let scan = &select.children[0];
        assert_eq!(scan.label, "Scan(COURSES)");
        assert_eq!(scan.access_path, "table scan");
        assert_eq!(scan.rows_out, 3);
        // join nodes carry the hash access label
        let join = Plan::scan("COURSES").join(
            Plan::scan("DEPARTMENT"),
            vec![("COURSES.dept_name".into(), "DEPARTMENT.dept_name".into())],
        );
        let (_, jp) = profiled(&d, &join);
        assert_eq!(jp.access_path, "hash join (build right)");
        assert_eq!(jp.rows_in, 6);
        assert_eq!(jp.rows_out, 3);
        // render and JSON both reflect the tree
        assert!(prof.render().contains("  Select"));
        assert!(prof.to_json().field("children").is_ok());
    }

    #[test]
    fn execute_records_one_span_per_operator() {
        let d = db();
        let spans = trace::capture(|| d.execute(&Plan::scan("DEPARTMENT").distinct()))
            .1
            .spans;
        let labels: Vec<_> = spans
            .iter()
            .filter(|e| e.name == "relational.execute")
            .map(|e| e.field("label").unwrap().as_str().unwrap())
            .collect();
        // children close before their parents
        assert_eq!(labels, ["Scan(DEPARTMENT)", "Distinct"]);
    }

    #[test]
    fn relations_listing() {
        let plan = Plan::scan("A").join(Plan::scan("B"), vec![("x".into(), "y".into())]);
        assert_eq!(plan.relations(), vec!["A", "B"]);
    }

    #[test]
    fn table_string_renders() {
        let d = db();
        let rs = d.execute(&Plan::scan("DEPARTMENT")).unwrap();
        let s = rs.to_table_string();
        assert!(s.contains("DEPARTMENT.dept_name"));
        assert!(s.contains("'CS'"));
    }
}
