//! VOQL — a small declarative query/update language on view objects
//! (the paper's query model "specifies a query language that supports
//! ad-hoc, declarative queries on view objects").
//!
//! Grammar:
//!
//! ```text
//! GET <object> [WHERE cond (AND cond)*] [ORDER BY attr (, attr)*] [LIMIT n]
//! DELETE <object> [WHERE cond (AND cond)*]
//! UPDATE <object> SET attr = literal (, attr = literal)* [WHERE cond (AND cond)*]
//! SHOW OBJECTS
//! SHOW OBJECT <object>
//! SHOW SCHEMA
//!
//! cond := [REL.]attr (= | <> | < | <= | > | >=) literal
//!       | COUNT(REL) (= | <> | < | <= | > | >=) integer
//!       | EXISTS(REL)
//! ```
//!
//! Conditions referencing a relation name apply to that relation's node in
//! the object (bare attributes go to the pivot). Figure 4's request reads:
//!
//! ```text
//! GET omega WHERE level = 'graduate' AND COUNT(STUDENT) < 5
//! ```
//!
//! This module holds the grammar only: tokens, the token cursor and the
//! clauses spelled as in SQL (`SET`, `ORDER BY`, `LIMIT`) come from
//! [`vo_relational::lex`]. Parse errors ([`Error::SqlParse`]) carry the
//! **byte offset** of the offending token (or the source length when the
//! statement ends too early), so remote clients get machine-usable error
//! locations over the wire.

use crate::registry::Registry;
use crate::system::Penguin;
use vo_core::prelude::*;
use vo_relational::lex::Cursor;

/// A parsed VOQL statement.
#[derive(Debug, Clone)]
pub enum VoqlStatement {
    /// Retrieve matching instances of an object.
    Get {
        /// Object name.
        object: String,
        /// Compiled query.
        query: VoQuery,
    },
    /// Delete matching instances through the object's translator.
    Delete {
        /// Object name.
        object: String,
        /// Compiled query selecting instances to remove.
        query: VoQuery,
    },
    /// Modify pivot attributes of matching instances through the object's
    /// translator (each instance goes through VO-R, all in one batch).
    Update {
        /// Object name.
        object: String,
        /// Pivot-attribute assignments.
        assignments: Vec<(String, Value)>,
        /// Compiled query selecting instances to modify.
        query: VoQuery,
    },
    /// List registered objects.
    ShowObjects,
    /// Print an object's tree.
    ShowObject(String),
    /// Print the structural schema.
    ShowSchema,
}

/// Result of executing a VOQL statement.
#[derive(Debug, Clone)]
pub enum VoqlOutcome {
    /// Instances returned by GET.
    Instances(Vec<VoInstance>),
    /// Number of instances deleted.
    Deleted(usize),
    /// Number of instances updated.
    Updated(usize),
    /// Informational text (SHOW ...).
    Text(String),
}

/// Resolve a relation name to a node id of `object`.
fn node_of(c: &Cursor, object: &ViewObject, relation: &str) -> Result<NodeId> {
    object
        .nodes()
        .iter()
        .find(|n| n.relation.eq_ignore_ascii_case(relation))
        .map(|n| n.id)
        .ok_or_else(|| {
            c.err(format!(
                "relation {relation} is not part of object {}",
                object.name()
            ))
        })
}

/// `cond (AND cond)*`
fn conditions(c: &mut Cursor, object: &ViewObject) -> Result<VoQuery> {
    let mut q = VoQuery::new();
    loop {
        if c.eat_keyword("COUNT") {
            c.expect_symbol("(")?;
            let rel = c.ident()?;
            c.expect_symbol(")")?;
            let op = c.cmp_op()?;
            let n = c.count()?;
            q = q.with_count(node_of(c, object, &rel)?, op, n);
        } else if c.eat_keyword("EXISTS") {
            c.expect_symbol("(")?;
            let rel = c.ident()?;
            c.expect_symbol(")")?;
            q = q.with_exists(node_of(c, object, &rel)?);
        } else {
            let name = c.ident()?;
            let (node, attr) = match name.split_once('.') {
                Some((rel, attr)) => (node_of(c, object, rel)?, attr.to_owned()),
                None => (0, name),
            };
            let op = c.cmp_op()?;
            let v = c.literal()?;
            q = q.with_predicate(
                node,
                Expr::Cmp(op, Box::new(Expr::attr(attr)), Box::new(Expr::Lit(v))),
            );
        }
        if !c.eat_keyword("AND") {
            break;
        }
    }
    Ok(q)
}

/// Parse a VOQL statement. Needs the system to resolve object structure
/// for WHERE conditions.
pub fn parse(penguin: &Penguin, src: &str) -> Result<VoqlStatement> {
    parse_in(penguin.registry(), src)
}

/// Parse against a registry — the head's or the one a pinned
/// [`crate::session::Session`] shares.
pub(crate) fn parse_in(registry: &Registry, src: &str) -> Result<VoqlStatement> {
    let mut c = Cursor::new(src)?;
    let stmt = statement(&mut c, registry)?;
    c.finish()?;
    Ok(stmt)
}

fn statement(c: &mut Cursor, registry: &Registry) -> Result<VoqlStatement> {
    if c.eat_keyword("SHOW") {
        if c.eat_keyword("OBJECTS") {
            return Ok(VoqlStatement::ShowObjects);
        }
        if c.eat_keyword("OBJECT") {
            return Ok(VoqlStatement::ShowObject(c.ident()?));
        }
        if c.eat_keyword("SCHEMA") {
            return Ok(VoqlStatement::ShowSchema);
        }
        return Err(c.err("expected OBJECTS, OBJECT or SCHEMA"));
    }
    let is_get = c.eat_keyword("GET");
    let is_delete = !is_get && c.eat_keyword("DELETE");
    let is_update = !is_get && !is_delete && c.eat_keyword("UPDATE");
    if !is_get && !is_delete && !is_update {
        return Err(c.err("expected GET, DELETE, UPDATE or SHOW"));
    }
    let object_name = c.ident()?;
    let object = &registry.object(&object_name)?.object;
    let assignments = if is_update {
        c.assignments(|c| {
            let attr = c.ident()?;
            if attr.contains('.') {
                return Err(c.err("UPDATE assignments address pivot attributes only"));
            }
            Ok(attr)
        })?
    } else {
        Vec::new()
    };
    let mut query = if c.eat_keyword("WHERE") {
        conditions(c, object)?
    } else {
        VoQuery::new()
    };
    query.order_by = c.order_by()?;
    query.limit = c.limit()?;
    if is_get {
        Ok(VoqlStatement::Get {
            object: object_name,
            query,
        })
    } else if is_update {
        Ok(VoqlStatement::Update {
            object: object_name,
            assignments,
            query,
        })
    } else {
        Ok(VoqlStatement::Delete {
            object: object_name,
            query,
        })
    }
}

/// Parse and execute a VOQL statement.
pub fn run(penguin: &mut Penguin, src: &str) -> Result<VoqlOutcome> {
    let stmt = parse(penguin, src)?;
    execute(penguin, stmt)
}

/// Execute a parsed statement at the head: `DELETE` and `UPDATE` go
/// through the object's translator as one batch, everything else is a
/// read of the current state.
pub fn execute(penguin: &mut Penguin, stmt: VoqlStatement) -> Result<VoqlOutcome> {
    match stmt {
        VoqlStatement::Delete { object, query } => {
            let batch = penguin
                .query(&object, &query)?
                .into_iter()
                .map(UpdateRequest::CompleteDeletion)
                .collect();
            Ok(VoqlOutcome::Deleted(apply_statement(
                penguin, &object, batch,
            )?))
        }
        VoqlStatement::Update {
            object,
            assignments,
            query,
        } => {
            let matches = penguin.query(&object, &query)?;
            let pivot_rel = penguin.object(&object)?.object.pivot().to_owned();
            let pivot_schema = penguin.schema().catalog().relation(&pivot_rel)?.clone();
            let mut batch = UpdateBatch::new();
            for matched in matches {
                // the match may be pruned by child conditions; VO-R needs
                // the instance as stored
                let old =
                    penguin.instance_by_key(&object, &matched.root.tuple.key(&pivot_schema))?;
                let mut new = old.clone();
                for (attr, v) in &assignments {
                    new.root.tuple = new.root.tuple.with_named(&pivot_schema, attr, v.clone())?;
                }
                batch.push(UpdateRequest::Replacement { old, new });
            }
            Ok(VoqlOutcome::Updated(apply_statement(
                penguin, &object, batch,
            )?))
        }
        read_only => read(penguin.registry(), penguin.database(), &read_only),
    }
}

/// The read-only subset (`GET`, `SHOW ...`) over any registry and
/// database state — the head's or a pinned session's. `DELETE` and
/// `UPDATE` are refused: a read never mutates.
pub(crate) fn read(
    registry: &Registry,
    db: &Database,
    stmt: &VoqlStatement,
) -> Result<VoqlOutcome> {
    match stmt {
        VoqlStatement::Get { object, query } => {
            Ok(VoqlOutcome::Instances(registry.query(db, object, query)?))
        }
        VoqlStatement::ShowObjects => Ok(VoqlOutcome::Text(registry.object_names().join("\n"))),
        VoqlStatement::ShowObject(name) => Ok(VoqlOutcome::Text(
            registry
                .object(name)?
                .object
                .to_tree_string(registry.schema()),
        )),
        VoqlStatement::ShowSchema => Ok(VoqlOutcome::Text(registry.schema().to_graph_string())),
        VoqlStatement::Delete { object, .. } | VoqlStatement::Update { object, .. } => {
            Err(Error::ConstraintViolation(format!(
                "sessions are read-only: prepare the update on {object} with \
                 Session::prepare_batch and commit it through Penguin::commit_prepared"
            )))
        }
    }
}

/// A statement is one batch: every matched instance translates over one
/// overlay, passes one global check and commits as one transaction (one
/// WAL record), or the statement leaves nothing behind. Returns the
/// number of instances written; a statement matching nothing writes
/// nothing.
fn apply_statement(penguin: &mut Penguin, object: &str, batch: UpdateBatch) -> Result<usize> {
    let n = batch.len();
    if n > 0 {
        penguin.apply_batch(object, batch)?;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_core::university::{seed_figure4, university_schema};

    /// Every relation, byte for byte (secondary indexes included).
    fn fingerprint(p: &Penguin) -> String {
        vo_relational::storage::DatabaseSnapshot::capture_full(p.database())
            .to_json()
            .pretty()
    }

    fn system() -> Penguin {
        let mut p = Penguin::new(university_schema());
        p.with_database_mut(seed_figure4).unwrap().unwrap();
        p.define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
        p
    }

    #[test]
    fn figure_4_voql() {
        let mut p = system();
        let out = run(
            &mut p,
            "GET omega WHERE level = 'graduate' AND COUNT(STUDENT) < 5",
        )
        .unwrap();
        match out {
            VoqlOutcome::Instances(is) => {
                assert_eq!(is.len(), 1);
            }
            other => panic!("expected instances, got {other:?}"),
        }
    }

    #[test]
    fn qualified_condition() {
        let mut p = system();
        let out = run(&mut p, "GET omega WHERE GRADES.grade = 'A'").unwrap();
        match out {
            VoqlOutcome::Instances(is) => assert_eq!(is.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exists_condition() {
        let mut p = system();
        p.sql("INSERT INTO COURSES VALUES ('X1', 'Empty', 'graduate', NULL)")
            .unwrap();
        let out = run(&mut p, "GET omega WHERE EXISTS(GRADES)").unwrap();
        match out {
            VoqlOutcome::Instances(is) => assert_eq!(is.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn delete_through_voql() {
        let mut p = system();
        let mut responder = paper_dialog_responder();
        p.choose_translator("omega", &mut responder).unwrap();
        let out = run(&mut p, "DELETE omega WHERE course_id = 'EE282'").unwrap();
        match out {
            VoqlOutcome::Deleted(n) => assert_eq!(n, 1),
            other => panic!("{other:?}"),
        }
        assert!(p.check_consistency().unwrap().is_empty());
        assert_eq!(p.database().table("COURSES").unwrap().len(), 2);

        // a statement matching several instances is one transaction
        let version = p.database().version();
        let out = run(&mut p, "DELETE omega WHERE dept_name = 'Computer Science'").unwrap();
        match out {
            VoqlOutcome::Deleted(n) => assert_eq!(n, 2),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.database().version(), version + 1);
        assert!(p.check_consistency().unwrap().is_empty());
        assert_eq!(p.database().table("COURSES").unwrap().len(), 0);

        // a statement matching nothing writes nothing
        let out = run(&mut p, "DELETE omega WHERE dept_name = 'Computer Science'").unwrap();
        assert!(matches!(out, VoqlOutcome::Deleted(0)));
        assert_eq!(p.database().version(), version + 1);
    }

    #[test]
    fn show_statements() {
        let mut p = system();
        match run(&mut p, "SHOW OBJECTS").unwrap() {
            VoqlOutcome::Text(t) => assert_eq!(t, "omega"),
            other => panic!("{other:?}"),
        }
        match run(&mut p, "SHOW OBJECT omega").unwrap() {
            VoqlOutcome::Text(t) => assert!(t.contains("COURSES")),
            other => panic!("{other:?}"),
        }
        match run(&mut p, "SHOW SCHEMA").unwrap() {
            VoqlOutcome::Text(t) => assert!(t.contains("—*")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_through_voql() {
        let mut p = system();
        let mut responder = paper_dialog_responder();
        p.choose_translator("omega", &mut responder).unwrap();
        let version = p.database().version();
        let out = run(
            &mut p,
            "UPDATE omega SET title = 'Renamed' WHERE dept_name = 'Computer Science'",
        )
        .unwrap();
        match out {
            VoqlOutcome::Updated(n) => assert_eq!(n, 2),
            other => panic!("{other:?}"),
        }
        // both matches committed as one transaction
        assert_eq!(p.database().version(), version + 1);
        let t = p
            .database()
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        assert_eq!(t.values()[1], Value::text("Renamed"));
        assert!(p.check_consistency().unwrap().is_empty());

        // key updates flow through VO-R (children follow)
        run(
            &mut p,
            "UPDATE omega SET course_id = 'CS999' WHERE course_id = 'CS345'",
        )
        .unwrap();
        assert!(p
            .database()
            .table("GRADES")
            .unwrap()
            .contains_key(&Key(vec!["CS999".into(), 1.into()])));
        assert!(p.check_consistency().unwrap().is_empty());

        // a statement is all-or-nothing: re-keying both matches to one
        // key fails at the second, and the first leaves nothing behind
        let before = fingerprint(&p);
        let version = p.database().version();
        let err = run(
            &mut p,
            "UPDATE omega SET course_id = 'ZZ999' WHERE dept_name = 'Computer Science'",
        )
        .unwrap_err();
        assert!(err.to_string().contains("collides"), "{err}");
        assert_eq!(fingerprint(&p), before);
        assert_eq!(p.database().version(), version);

        // malformed updates rejected
        assert!(run(&mut p, "UPDATE omega SET GRADES.grade = 'A'").is_err());
        assert!(run(&mut p, "UPDATE omega title = 'x'").is_err());
    }

    #[test]
    fn order_by_and_limit() {
        let mut p = system();
        let out = run(&mut p, "GET omega ORDER BY course_id LIMIT 2").unwrap();
        match out {
            VoqlOutcome::Instances(is) => {
                assert_eq!(is.len(), 2);
                let ids: Vec<&Value> = is.iter().map(|i| i.root.tuple.get(0)).collect();
                assert_eq!(ids, vec![&Value::text("CS101"), &Value::text("CS345")]);
            }
            other => panic!("{other:?}"),
        }
        // descending unsupported; bad limit rejected
        assert!(run(&mut p, "GET omega LIMIT -1").is_err());
        assert!(run(&mut p, "GET omega ORDER course_id").is_err());
    }

    #[test]
    fn order_by_with_where() {
        let mut p = system();
        let out = run(
            &mut p,
            "GET omega WHERE level = 'graduate' ORDER BY dept_name, course_id",
        )
        .unwrap();
        match out {
            VoqlOutcome::Instances(is) => {
                assert_eq!(is.len(), 2);
                assert_eq!(is[0].root.tuple.get(0), &Value::text("CS345"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_surface() {
        let mut p = system();
        assert!(run(&mut p, "GET nope").is_err());
        assert!(run(&mut p, "GET omega WHERE PEOPLE.name = 'x'").is_err());
        assert!(run(&mut p, "FETCH omega").is_err());
        assert!(run(&mut p, "GET omega WHERE COUNT(STUDENT) < -1").is_err());
        assert!(run(&mut p, "GET omega trailing").is_err());
    }

    fn parse_position(p: &Penguin, src: &str) -> usize {
        match parse(p, src).unwrap_err() {
            Error::SqlParse { position, message } => {
                assert!(!message.is_empty());
                position
            }
            other => panic!("expected SqlParse, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_byte_offsets() {
        let p = system();
        // a misspelled WHERE leaves `WHRE` as a trailing token: the error
        // points at its byte offset, not a token index
        let src = "GET omega WHRE level = 'graduate'";
        assert_eq!(parse_position(&p, src), src.find("WHRE").unwrap());
        // a missing comparison operator anchors at the literal that
        // appeared where the operator belonged
        let src = "GET omega WHERE level 'graduate'";
        assert_eq!(parse_position(&p, src), src.find("'graduate'").unwrap());
    }

    #[test]
    fn order_by_list_is_comma_separated() {
        let p = system();
        let src = "GET omega ORDER BY course_id AND title";
        assert_eq!(parse_position(&p, src), src.find("AND").unwrap());
        assert!(parse(&p, "GET omega ORDER BY course_id, title").is_ok());
    }

    #[test]
    fn lexical_errors_report_where_the_bad_token_starts() {
        let p = system();
        // the same tokenizer, hence the same offsets, as the SQL subset
        let src = "GET omega WHERE title = 'x";
        assert_eq!(parse_position(&p, src), src.find('\'').unwrap());
        let src = "GET omega WHERE title = #";
        assert_eq!(parse_position(&p, src), src.find('#').unwrap());
        // SQL's `;` and `*` are tokens VOQL's grammar has no place for
        let src = "GET omega;";
        assert_eq!(parse_position(&p, src), src.find(';').unwrap());
        let src = "GET omega WHERE COUNT(*) < 5";
        assert_eq!(parse_position(&p, src), src.find('*').unwrap());
        // text inside a string literal is kept as written
        match parse(&p, "GET omega WHERE title = 'Caf\u{e9}'").unwrap() {
            VoqlStatement::Get { query, .. } => {
                assert!(format!("{query:?}").contains("Caf\u{e9}"), "{query:?}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_statement_reports_source_length() {
        let p = system();
        let src = "GET omega WHERE level =";
        assert_eq!(parse_position(&p, src), src.len());
        // offsets hold for multi-byte-safe ASCII positions after strings too
        let src = "GET omega WHERE title = 'x' AND";
        assert_eq!(parse_position(&p, src), src.len());
    }
}
