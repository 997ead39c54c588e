//! A SQL subset: recursive-descent grammar and executor. Tokens, the token
//! cursor and the clauses shared with VOQL (`SET`, `ORDER BY`, `LIMIT`)
//! come from [`crate::lex`].
//!
//! Supported statements:
//!
//! ```sql
//! [EXPLAIN [ANALYZE]]
//! SELECT [DISTINCT] * | item [, item]* FROM t [JOIN t2 ON a = b [AND c = d]*]*
//!     [WHERE expr] [GROUP BY col [, col]*] [HAVING expr]
//!     [ORDER BY col [, col]*] [LIMIT n];
//! INSERT INTO t VALUES (v, ...);
//! DELETE FROM t [WHERE expr];
//! UPDATE t SET col = v [, col = v]* [WHERE expr];
//!
//! item := col | COUNT(*) | (COUNT | SUM | AVG | MIN | MAX)(col) [AS alias]
//! ```
//!
//! A SELECT — grouped or not — compiles to one [`Plan`] (and is run through
//! the [`crate::optimizer`]); DML paths compile to [`DbOp`] lists applied
//! transactionally.

use crate::aggregate::{AggFunc, AggSpec};
use crate::algebra::{Plan, ResultSet};
use crate::database::{Database, DbOp};
use crate::error::Result;
use crate::lex::Cursor;
use crate::optimizer::optimize;
use crate::predicate::Expr;
use crate::tuple::Tuple;
use crate::value::Value;
use vo_obs::profile::ProfileNode;

/// Outcome of running one SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlOutcome {
    /// A SELECT's rows.
    Rows(ResultSet),
    /// Number of tuples affected by a DML statement.
    Count(usize),
    /// An EXPLAIN's plan rendering (the optimized logical plan).
    Plan(String),
    /// An EXPLAIN ANALYZE's executed operator tree, rendered from the spans
    /// the run recorded: per node, rows in/out, inclusive wall time, and
    /// the access path taken.
    Profile(ProfileNode),
}

/// What a SELECT's optimized plan is used for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectMode {
    /// Run it and return the rows.
    Run,
    /// `EXPLAIN`: render it instead of running it.
    Explain,
    /// `EXPLAIN ANALYZE`: run it and return the operator-tree profile.
    ExplainAnalyze,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `[EXPLAIN [ANALYZE]] SELECT ...` compiled down to a plan.
    Select { plan: Plan, mode: SelectMode },
    /// INSERT INTO relation VALUES (...)
    Insert {
        relation: String,
        values: Vec<Value>,
    },
    /// DELETE FROM relation WHERE ...
    Delete { relation: String, pred: Expr },
    /// UPDATE relation SET a = v WHERE ...
    Update {
        relation: String,
        assignments: Vec<(String, Value)>,
        pred: Expr,
    },
}

fn statement(c: &mut Cursor) -> Result<Statement> {
    let mode = if !c.eat_keyword("explain") {
        SelectMode::Run
    } else if c.eat_keyword("analyze") {
        SelectMode::ExplainAnalyze
    } else {
        SelectMode::Explain
    };
    if c.eat_keyword("select") {
        let plan = select_plan(c)?;
        Ok(Statement::Select { plan, mode })
    } else if mode != SelectMode::Run {
        Err(c.err("EXPLAIN supports SELECT only"))
    } else if c.eat_keyword("insert") {
        insert_stmt(c)
    } else if c.eat_keyword("delete") {
        delete_stmt(c)
    } else if c.eat_keyword("update") {
        update_stmt(c)
    } else {
        Err(c.err("expected SELECT, INSERT, DELETE or UPDATE"))
    }
}

/// Parse one select item into `columns` (a bare column) or `aggs` (an
/// aggregate call with an optional alias).
fn select_item(c: &mut Cursor, columns: &mut Vec<String>, aggs: &mut Vec<AggSpec>) -> Result<()> {
    let word = c.ident()?;
    let kind = word.to_ascii_lowercase();
    if !matches!(kind.as_str(), "count" | "sum" | "avg" | "min" | "max") || !c.eat_symbol("(") {
        columns.push(word);
        return Ok(());
    }
    let func = if c.eat_symbol("*") {
        if kind != "count" {
            return Err(c.err("only COUNT accepts *"));
        }
        AggFunc::CountStar
    } else {
        let col = c.ident()?;
        match kind.as_str() {
            "count" => AggFunc::Count(col),
            "sum" => AggFunc::Sum(col),
            "avg" => AggFunc::Avg(col),
            "min" => AggFunc::Min(col),
            "max" => AggFunc::Max(col),
            _ => unreachable!(),
        }
    };
    c.expect_symbol(")")?;
    let alias = if c.eat_keyword("as") {
        c.ident()?
    } else {
        func.to_string().to_ascii_lowercase()
    };
    aggs.push(AggSpec { func, alias });
    Ok(())
}

fn select_plan(c: &mut Cursor) -> Result<Plan> {
    let distinct = c.eat_keyword("distinct");
    let star = c.eat_symbol("*");
    let mut columns = Vec::new();
    let mut aggs = Vec::new();
    if !star {
        c.list(|c| select_item(c, &mut columns, &mut aggs))?;
    }
    c.expect_keyword("from")?;
    let mut plan = Plan::scan(c.ident()?);
    while c.eat_keyword("join") {
        let rel = c.ident()?;
        c.expect_keyword("on")?;
        let mut on = Vec::new();
        loop {
            let l = c.ident()?;
            c.expect_symbol("=")?;
            on.push((l, c.ident()?));
            if !c.eat_keyword("and") {
                break;
            }
        }
        plan = plan.join(Plan::scan(rel), on);
    }
    if c.eat_keyword("where") {
        plan = plan.select(expr(c)?);
    }
    let group_by = if c.eat_keyword("group") {
        c.expect_keyword("by")?;
        Some(c.list(Cursor::ident)?)
    } else {
        None
    };
    // aggregate path: any aggregate item or a GROUP BY clause
    let aggregated = group_by.is_some() || !aggs.is_empty();
    if aggregated {
        if star {
            return Err(c.err("SELECT * cannot be combined with aggregation"));
        }
        let group_by = group_by.unwrap_or_default();
        if let Some(col) = columns.iter().find(|col| !group_by.contains(col)) {
            return Err(c.err(format!(
                "column {col} must appear in GROUP BY or an aggregate"
            )));
        }
        plan = plan.aggregate(group_by, aggs);
        if c.eat_keyword("having") {
            plan = plan.select(expr(c)?);
        }
    } else if !star {
        plan = plan.project(columns);
    }
    let by = c.order_by()?;
    if !by.is_empty() {
        plan = plan.sort(by);
    }
    if let Some(n) = c.limit()? {
        plan = plan.limit(n);
    }
    // one row per group is already duplicate-free
    if distinct && !aggregated {
        plan = plan.distinct();
    }
    Ok(plan)
}

fn insert_stmt(c: &mut Cursor) -> Result<Statement> {
    c.expect_keyword("into")?;
    let relation = c.ident()?;
    c.expect_keyword("values")?;
    c.expect_symbol("(")?;
    let values = c.list(Cursor::literal)?;
    c.expect_symbol(")")?;
    Ok(Statement::Insert { relation, values })
}

fn where_clause(c: &mut Cursor) -> Result<Expr> {
    if c.eat_keyword("where") {
        expr(c)
    } else {
        Ok(Expr::True)
    }
}

fn delete_stmt(c: &mut Cursor) -> Result<Statement> {
    c.expect_keyword("from")?;
    let relation = c.ident()?;
    let pred = where_clause(c)?;
    Ok(Statement::Delete { relation, pred })
}

fn update_stmt(c: &mut Cursor) -> Result<Statement> {
    let relation = c.ident()?;
    let assignments = c.assignments(Cursor::ident)?;
    let pred = where_clause(c)?;
    Ok(Statement::Update {
        relation,
        assignments,
        pred,
    })
}

// expr := and_expr (OR and_expr)*
fn expr(c: &mut Cursor) -> Result<Expr> {
    let mut lhs = and_expr(c)?;
    while c.eat_keyword("or") {
        lhs = lhs.or(and_expr(c)?);
    }
    Ok(lhs)
}

fn and_expr(c: &mut Cursor) -> Result<Expr> {
    let mut lhs = not_expr(c)?;
    while c.eat_keyword("and") {
        lhs = lhs.and(not_expr(c)?);
    }
    Ok(lhs)
}

fn not_expr(c: &mut Cursor) -> Result<Expr> {
    if c.eat_keyword("not") {
        Ok(not_expr(c)?.not())
    } else {
        comparison(c)
    }
}

fn comparison(c: &mut Cursor) -> Result<Expr> {
    if c.eat_symbol("(") {
        let e = expr(c)?;
        c.expect_symbol(")")?;
        return Ok(e);
    }
    let lhs = operand(c)?;
    // IS [NOT] NULL
    if c.eat_keyword("is") {
        let negated = c.eat_keyword("not");
        c.expect_keyword("null")?;
        let e = lhs.is_null();
        return Ok(if negated { e.not() } else { e });
    }
    let op = c.cmp_op()?;
    let rhs = operand(c)?;
    Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)))
}

fn operand(c: &mut Cursor) -> Result<Expr> {
    match c.eat_literal() {
        Some(v) => Ok(Expr::Lit(v)),
        None => Ok(Expr::attr(c.ident()?)),
    }
}

/// Parse one SQL statement.
pub fn parse(sql: &str) -> Result<Statement> {
    let mut c = Cursor::new(sql)?;
    let stmt = statement(&mut c)?;
    c.eat_symbol(";");
    c.finish()?;
    Ok(stmt)
}

impl Database {
    /// Parse and run one SQL statement.
    pub fn run_sql(&mut self, sql: &str) -> Result<SqlOutcome> {
        self.run_statement(parse(sql)?)
    }

    fn run_statement(&mut self, statement: Statement) -> Result<SqlOutcome> {
        match statement {
            Statement::Select { plan, mode } => {
                let plan = optimize(plan);
                Ok(match mode {
                    SelectMode::Run => SqlOutcome::Rows(self.execute(&plan)?),
                    SelectMode::Explain => SqlOutcome::Plan(plan.to_string()),
                    SelectMode::ExplainAnalyze => {
                        let (rs, taken) = vo_obs::trace::capture(|| self.execute(&plan));
                        rs?;
                        SqlOutcome::Profile(
                            ProfileNode::from_spans(&taken.spans)
                                .expect("every operator records a labelled span"),
                        )
                    }
                })
            }
            Statement::Insert { relation, values } => {
                self.insert(&relation, values)?;
                Ok(SqlOutcome::Count(1))
            }
            Statement::Delete { relation, pred } => {
                let table = self.table(&relation)?;
                let schema = table.schema().clone();
                let keys: Vec<_> = table
                    .select(&pred)?
                    .into_iter()
                    .map(|t| t.key(&schema))
                    .collect();
                let ops: Vec<DbOp> = keys
                    .into_iter()
                    .map(|key| DbOp::Delete {
                        relation: relation.clone(),
                        key,
                    })
                    .collect();
                self.apply_all(&ops)?;
                Ok(SqlOutcome::Count(ops.len()))
            }
            Statement::Update {
                relation,
                assignments,
                pred,
            } => {
                let table = self.table(&relation)?;
                let schema = table.schema().clone();
                let matches: Vec<Tuple> = table.select(&pred)?.into_iter().cloned().collect();
                let mut ops = Vec::with_capacity(matches.len());
                for old in matches {
                    let mut new = old.clone();
                    for (col, v) in &assignments {
                        new = new.with_named(&schema, col, v.clone())?;
                    }
                    ops.push(DbOp::Replace {
                        relation: relation.clone(),
                        old_key: old.key(&schema),
                        tuple: new,
                    });
                }
                self.apply_all(&ops)?;
                Ok(SqlOutcome::Count(ops.len()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::schema::{AttributeDef, RelationSchema};
    use crate::value::DataType;

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
                    AttributeDef::nullable("units", DataType::Int),
                ],
                &["course_id"],
            )
            .unwrap(),
        )
        .unwrap();
        d.run_sql("INSERT INTO DEPARTMENT VALUES ('CS')").unwrap();
        d.run_sql("INSERT INTO DEPARTMENT VALUES ('EE')").unwrap();
        d.run_sql("INSERT INTO COURSES VALUES ('CS345', 'Databases', 'CS', 3)")
            .unwrap();
        d.run_sql("INSERT INTO COURSES VALUES ('CS101', 'Intro', 'CS', 5)")
            .unwrap();
        d.run_sql("INSERT INTO COURSES VALUES ('EE282', 'Arch', 'EE', 4)")
            .unwrap();
        d
    }

    fn rows(o: SqlOutcome) -> ResultSet {
        match o {
            SqlOutcome::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn select_star() {
        let mut d = db();
        let r = rows(d.run_sql("SELECT * FROM COURSES").unwrap());
        assert_eq!(r.len(), 3);
        assert_eq!(r.columns.len(), 4);
    }

    #[test]
    fn select_where_projection() {
        let mut d = db();
        let r = rows(
            d.run_sql("SELECT course_id FROM COURSES WHERE dept_name = 'CS' ORDER BY course_id")
                .unwrap(),
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0], Value::text("CS101"));
        assert_eq!(r.rows[1][0], Value::text("CS345"));
    }

    #[test]
    fn select_join() {
        let mut d = db();
        let r = rows(
            d.run_sql(
                "SELECT course_id FROM COURSES JOIN DEPARTMENT \
                 ON COURSES.dept_name = DEPARTMENT.dept_name WHERE units >= 4",
            )
            .unwrap(),
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn complex_where() {
        let mut d = db();
        let r = rows(
            d.run_sql(
                "SELECT course_id FROM COURSES \
                 WHERE (dept_name = 'CS' AND units < 4) OR title = 'Arch'",
            )
            .unwrap(),
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn is_null_and_not() {
        let mut d = db();
        d.run_sql("INSERT INTO COURSES VALUES ('X1', 'T', 'CS', NULL)")
            .unwrap();
        let r = rows(
            d.run_sql("SELECT course_id FROM COURSES WHERE units IS NULL")
                .unwrap(),
        );
        assert_eq!(r.len(), 1);
        let r = rows(
            d.run_sql("SELECT course_id FROM COURSES WHERE units IS NOT NULL")
                .unwrap(),
        );
        assert_eq!(r.len(), 3);
        let r = rows(
            d.run_sql("SELECT course_id FROM COURSES WHERE NOT dept_name = 'CS'")
                .unwrap(),
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn delete_with_predicate() {
        let mut d = db();
        let o = d
            .run_sql("DELETE FROM COURSES WHERE dept_name = 'CS'")
            .unwrap();
        assert_eq!(o, SqlOutcome::Count(2));
        assert_eq!(d.table("COURSES").unwrap().len(), 1);
    }

    #[test]
    fn update_non_key() {
        let mut d = db();
        let o = d
            .run_sql("UPDATE COURSES SET units = 6 WHERE course_id = 'CS345'")
            .unwrap();
        assert_eq!(o, SqlOutcome::Count(1));
        let r = rows(
            d.run_sql("SELECT units FROM COURSES WHERE course_id = 'CS345'")
                .unwrap(),
        );
        assert_eq!(r.rows[0][0], Value::Int(6));
    }

    #[test]
    fn update_key_change() {
        let mut d = db();
        d.run_sql("UPDATE COURSES SET course_id = 'EES345' WHERE course_id = 'CS345'")
            .unwrap();
        let r = rows(
            d.run_sql("SELECT title FROM COURSES WHERE course_id = 'EES345'")
                .unwrap(),
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn distinct_and_limit() {
        let mut d = db();
        let r = rows(d.run_sql("SELECT DISTINCT dept_name FROM COURSES").unwrap());
        assert_eq!(r.len(), 2);
        let r = rows(d.run_sql("SELECT * FROM COURSES LIMIT 1").unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn string_escape() {
        let mut d = db();
        d.run_sql("INSERT INTO DEPARTMENT VALUES ('O''Brien Hall')")
            .unwrap();
        let r = rows(
            d.run_sql("SELECT * FROM DEPARTMENT WHERE dept_name = 'O''Brien Hall'")
                .unwrap(),
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn negative_numbers() {
        let mut d = db();
        d.run_sql("INSERT INTO COURSES VALUES ('N1', 'Neg', 'CS', -2)")
            .unwrap();
        let r = rows(
            d.run_sql("SELECT course_id FROM COURSES WHERE units < 0")
                .unwrap(),
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn parse_errors_carry_position() {
        let mut d = db();
        let e = d.run_sql("SELEKT * FROM X").unwrap_err();
        assert!(matches!(e, Error::SqlParse { .. }));
        let e = d.run_sql("SELECT * FROM COURSES WHERE").unwrap_err();
        assert!(matches!(e, Error::SqlParse { .. }));
        let e = d.run_sql("SELECT * FROM COURSES extra junk").unwrap_err();
        assert!(matches!(e, Error::SqlParse { .. }));
    }

    fn position(sql: &str) -> usize {
        match parse(sql).unwrap_err() {
            Error::SqlParse { position, .. } => position,
            other => panic!("expected SqlParse, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_anchor_at_the_offending_token() {
        // input ends too early: the source length
        assert_eq!(position("SELECT name FROM"), 16);
        assert_eq!(position("DELETE FROM PEOPLE WHERE ssn ="), 30);
        // a wrong token: its own offset, not the one after it
        assert_eq!(position("SELECT name FROM 42"), 17);
        assert_eq!(position("SELECT * FROM T LIMIT -1"), 22);
        assert_eq!(position("SELECT * FROM T extra junk"), 16);
        // EXPLAIN of DML anchors at the statement it cannot explain
        assert_eq!(position("EXPLAIN DELETE FROM COURSES"), 8);
        assert_eq!(position("EXPLAIN ANALYZE UPDATE T SET a = 1"), 16);
        // lexical errors: start of the unterminated string, the stray character
        assert_eq!(position("SELECT * FROM T WHERE a = 'x"), 26);
        assert_eq!(position("SELECT * FROM T WHERE a = #"), 26);
    }

    #[test]
    fn grouped_select_is_one_plan() {
        let mut d = db();
        let sql = "SELECT dept_name, COUNT(*) AS n FROM COURSES WHERE units > 3 \
                   GROUP BY dept_name HAVING n > 0 ORDER BY n LIMIT 5";
        match d.run_sql(&format!("EXPLAIN {sql}")).unwrap() {
            SqlOutcome::Plan(p) => assert_eq!(
                p,
                "Limit[5](Sort[n](Select[(n > 0)](Aggregate[group by dept_name; COUNT(*) AS n]\
                 (Select[(units > 3)](Scan(COURSES))))))"
            ),
            other => panic!("expected plan, got {other:?}"),
        }
        let r = rows(d.run_sql(sql).unwrap());
        assert_eq!(r.columns, vec!["COURSES.dept_name", "n"]);
        assert_eq!(r.len(), 2);
        // HAVING without aggregation stays a syntax error
        assert_eq!(position("SELECT title FROM COURSES HAVING units > 1"), 26);
    }

    #[test]
    fn explain_shows_optimized_plan() {
        let mut d = db();
        match d
            .run_sql("EXPLAIN SELECT course_id FROM COURSES WHERE dept_name = 'CS'")
            .unwrap()
        {
            SqlOutcome::Plan(p) => {
                assert!(p.contains("Scan(COURSES)"));
                assert!(p.contains("Select"));
            }
            other => panic!("expected plan, got {other:?}"),
        }
        match d
            .run_sql("EXPLAIN SELECT dept_name, COUNT(*) AS n FROM COURSES GROUP BY dept_name HAVING n > 1")
            .unwrap()
        {
            SqlOutcome::Plan(p) => {
                assert!(p.contains("Aggregate[group by dept_name"));
                assert!(p.contains("COUNT(*) AS n"));
            }
            other => panic!("expected plan, got {other:?}"),
        }
        // EXPLAIN of DML is rejected
        assert!(d.run_sql("EXPLAIN DELETE FROM COURSES").is_err());
    }

    #[test]
    fn explain_analyze_profiles_select() {
        let mut d = db();
        let prof = match d
            .run_sql("EXPLAIN ANALYZE SELECT course_id FROM COURSES WHERE dept_name = 'CS'")
            .unwrap()
        {
            SqlOutcome::Profile(p) => p,
            other => panic!("expected profile, got {other:?}"),
        };
        // the optimized tree bottoms out in a scan with row counts
        let scan = prof.find("Scan(COURSES)").expect("scan node");
        assert_eq!(scan.access_path, "table scan");
        assert_eq!(scan.rows_out, 3);
        assert_eq!(prof.rows_out, 2);
        let rendered = prof.render();
        assert!(rendered.contains("rows_out=2"));
        assert!(rendered.contains("access=table scan"));
    }

    #[test]
    fn explain_analyze_profiles_aggregate() {
        let mut d = db();
        let prof = match d
            .run_sql(
                "EXPLAIN ANALYZE SELECT dept_name, COUNT(*) AS n FROM COURSES \
                 GROUP BY dept_name HAVING n > 1",
            )
            .unwrap()
        {
            SqlOutcome::Profile(p) => p,
            other => panic!("expected profile, got {other:?}"),
        };
        // HAVING is a Select above the Aggregate node
        assert!(prof.label.starts_with("Select["));
        assert_eq!(prof.rows_out, 1); // only CS survives HAVING
        let agg = prof.find("Aggregate[group by dept_name").expect("node");
        assert_eq!(agg.rows_in, 3); // 3 input rows
        assert_eq!(agg.rows_out, 2); // one row per department
        assert_eq!(agg.children.len(), 1);
        // EXPLAIN ANALYZE of DML is rejected
        assert!(d.run_sql("EXPLAIN ANALYZE DELETE FROM COURSES").is_err());
        // and it did not consume the rows it analyzed
        assert_eq!(d.table("COURSES").unwrap().len(), 3);
    }

    #[test]
    fn group_by_count() {
        let mut d = db();
        let r = rows(
            d.run_sql(
                "SELECT dept_name, COUNT(*) AS n FROM COURSES \
                 GROUP BY dept_name ORDER BY dept_name",
            )
            .unwrap(),
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0], vec![Value::text("CS"), Value::Int(2)]);
        assert_eq!(r.rows[1], vec![Value::text("EE"), Value::Int(1)]);
    }

    #[test]
    fn group_by_having() {
        let mut d = db();
        let r = rows(
            d.run_sql(
                "SELECT dept_name, COUNT(*) AS n FROM COURSES \
                 GROUP BY dept_name HAVING n > 1",
            )
            .unwrap(),
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::text("CS"));
    }

    #[test]
    fn global_aggregates() {
        let mut d = db();
        let r = rows(
            d.run_sql("SELECT COUNT(*) AS n, SUM(units) AS total, MIN(units) AS lo FROM COURSES")
                .unwrap(),
        );
        assert_eq!(
            r.rows[0],
            vec![Value::Int(3), Value::Int(12), Value::Int(3)]
        );
    }

    #[test]
    fn aggregate_with_join_and_where() {
        let mut d = db();
        let r = rows(
            d.run_sql(
                "SELECT DEPARTMENT.dept_name, AVG(units) AS avg_units \
                 FROM COURSES JOIN DEPARTMENT \
                 ON COURSES.dept_name = DEPARTMENT.dept_name \
                 WHERE units >= 3 GROUP BY DEPARTMENT.dept_name \
                 ORDER BY DEPARTMENT.dept_name",
            )
            .unwrap(),
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][1], Value::Float(4.0)); // CS: (3+5)/2
    }

    #[test]
    fn default_aggregate_alias() {
        let mut d = db();
        let r = rows(d.run_sql("SELECT COUNT(*) FROM COURSES").unwrap());
        assert_eq!(r.columns, vec!["count(*)"]);
    }

    #[test]
    fn bare_column_must_be_grouped() {
        let mut d = db();
        let e = d.run_sql("SELECT title, COUNT(*) FROM COURSES GROUP BY dept_name");
        assert!(matches!(e, Err(Error::SqlParse { .. })));
        let e = d.run_sql("SELECT * FROM COURSES GROUP BY dept_name");
        assert!(matches!(e, Err(Error::SqlParse { .. })));
        let e = d.run_sql("SELECT SUM(*) FROM COURSES");
        assert!(matches!(e, Err(Error::SqlParse { .. })));
    }

    #[test]
    fn aggregate_limit() {
        let mut d = db();
        let r = rows(
            d.run_sql(
                "SELECT dept_name, COUNT(*) AS n FROM COURSES \
                 GROUP BY dept_name ORDER BY n LIMIT 1",
            )
            .unwrap(),
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::text("EE"));
    }

    #[test]
    fn dml_failures_do_not_corrupt() {
        let mut d = db();
        // key collision mid-update: set both CS courses to same id
        let e = d.run_sql("UPDATE COURSES SET course_id = 'SAME' WHERE dept_name = 'CS'");
        assert!(e.is_err());
        // both original rows still present
        assert_eq!(d.table("COURSES").unwrap().len(), 3);
        let r = rows(
            d.run_sql("SELECT course_id FROM COURSES WHERE dept_name = 'CS'")
                .unwrap(),
        );
        assert_eq!(r.len(), 2);
    }
}
