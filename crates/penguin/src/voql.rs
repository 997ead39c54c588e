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
//! Parse errors ([`Error::SqlParse`]) carry the **byte offset** of the
//! offending token (or the source length when the statement ends too
//! early), so remote clients get machine-usable error locations over the
//! wire.

use crate::registry::Registry;
use crate::system::Penguin;
use vo_core::prelude::*;

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

// ------------------------------------------------------------ tokenizer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Str(String),
    Int(i64),
    Float(f64),
    Sym(&'static str),
}

/// Tokenize `src`, returning each token alongside the byte offset it
/// starts at — the offsets parser errors report.
fn tokenize(src: &str) -> Result<Vec<(Tok, usize)>> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < bytes.len() {
        let c = bytes[pos] as char;
        if c.is_ascii_whitespace() {
            pos += 1;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = pos;
            while pos < bytes.len()
                && ((bytes[pos] as char).is_ascii_alphanumeric()
                    || bytes[pos] == b'_'
                    || bytes[pos] == b'.')
            {
                pos += 1;
            }
            out.push((Tok::Word(src[start..pos].to_owned()), start));
        } else if c.is_ascii_digit()
            || (c == '-' && pos + 1 < bytes.len() && (bytes[pos + 1] as char).is_ascii_digit())
        {
            let start = pos;
            pos += 1;
            let mut float = false;
            while pos < bytes.len() && ((bytes[pos] as char).is_ascii_digit() || bytes[pos] == b'.')
            {
                if bytes[pos] == b'.' {
                    float = true;
                }
                pos += 1;
            }
            let text = &src[start..pos];
            if float {
                out.push((
                    Tok::Float(text.parse().map_err(|_| Error::SqlParse {
                        position: start,
                        message: "bad float".into(),
                    })?),
                    start,
                ));
            } else {
                out.push((
                    Tok::Int(text.parse().map_err(|_| Error::SqlParse {
                        position: start,
                        message: "bad integer".into(),
                    })?),
                    start,
                ));
            }
        } else if c == '\'' {
            let start = pos;
            pos += 1;
            let mut s = String::new();
            loop {
                if pos >= bytes.len() {
                    return Err(Error::SqlParse {
                        position: start,
                        message: "unterminated string".into(),
                    });
                }
                if bytes[pos] == b'\'' {
                    if pos + 1 < bytes.len() && bytes[pos + 1] == b'\'' {
                        s.push('\'');
                        pos += 2;
                        continue;
                    }
                    pos += 1;
                    break;
                }
                s.push(bytes[pos] as char);
                pos += 1;
            }
            out.push((Tok::Str(s), start));
        } else {
            let start = pos;
            let sym: &'static str = match c {
                '(' => "(",
                ')' => ")",
                ',' => ",",
                '=' => "=",
                '<' => {
                    if src[pos..].starts_with("<=") {
                        "<="
                    } else if src[pos..].starts_with("<>") {
                        "<>"
                    } else {
                        "<"
                    }
                }
                '>' => {
                    if src[pos..].starts_with(">=") {
                        ">="
                    } else {
                        ">"
                    }
                }
                other => {
                    return Err(Error::SqlParse {
                        position: pos,
                        message: format!("unexpected character {other:?}"),
                    })
                }
            };
            pos += sym.len();
            out.push((Tok::Sym(sym), start));
        }
    }
    Ok(out)
}

// --------------------------------------------------------------- parser --

struct P<'a> {
    toks: Vec<Tok>,
    /// Byte offset each token starts at, parallel to `toks`.
    spans: Vec<usize>,
    /// Length of the source, reported when the statement ends too early.
    src_len: usize,
    pos: usize,
    object: Option<&'a ViewObject>,
}

impl<'a> P<'a> {
    /// Byte offset of the token at `idx` (source length past the end).
    fn offset(&self, idx: usize) -> usize {
        self.spans.get(idx).copied().unwrap_or(self.src_len)
    }

    /// Error anchored at the token `idx` points to.
    fn err_at(&self, idx: usize, message: impl Into<String>) -> Error {
        Error::SqlParse {
            position: self.offset(idx),
            message: message.into(),
        }
    }

    /// Error anchored at the *next* (not yet consumed) token.
    fn err(&self, message: impl Into<String>) -> Error {
        self.err_at(self.pos, message)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| self.err("unexpected end"))?;
        self.pos += 1;
        Ok(t)
    }

    fn peek_word(&self) -> Option<&str> {
        match self.toks.get(self.pos) {
            Some(Tok::Word(w)) => Some(w.as_str()),
            _ => None,
        }
    }

    fn eat_word(&mut self, w: &str) -> bool {
        if self
            .peek_word()
            .map(|x| x.eq_ignore_ascii_case(w))
            .unwrap_or(false)
        {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn word(&mut self) -> Result<String> {
        let at = self.pos;
        match self.next()? {
            Tok::Word(w) => Ok(w),
            other => Err(self.err_at(at, format!("expected identifier, got {other:?}"))),
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp> {
        let at = self.pos;
        match self.next()? {
            Tok::Sym("=") => Ok(CmpOp::Eq),
            Tok::Sym("<>") => Ok(CmpOp::Ne),
            Tok::Sym("<") => Ok(CmpOp::Lt),
            Tok::Sym("<=") => Ok(CmpOp::Le),
            Tok::Sym(">") => Ok(CmpOp::Gt),
            Tok::Sym(">=") => Ok(CmpOp::Ge),
            other => Err(self.err_at(at, format!("expected comparison, got {other:?}"))),
        }
    }

    fn literal(&mut self) -> Result<Value> {
        let at = self.pos;
        match self.next()? {
            Tok::Int(i) => Ok(Value::Int(i)),
            Tok::Float(x) => Ok(Value::Float(x)),
            Tok::Str(s) => Ok(Value::Text(s)),
            Tok::Word(w) if w.eq_ignore_ascii_case("null") => Ok(Value::Null),
            Tok::Word(w) if w.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Tok::Word(w) if w.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            other => Err(self.err_at(at, format!("expected literal, got {other:?}"))),
        }
    }

    /// Resolve a relation name to a node id of the current object.
    fn node_of(&self, relation: &str) -> Result<NodeId> {
        let object = self.object.ok_or_else(|| self.err("no object in scope"))?;
        object
            .nodes()
            .iter()
            .find(|n| n.relation.eq_ignore_ascii_case(relation))
            .map(|n| n.id)
            .ok_or_else(|| {
                self.err(format!(
                    "relation {relation} is not part of object {}",
                    object.name()
                ))
            })
    }

    fn conditions(&mut self) -> Result<VoQuery> {
        let mut q = VoQuery::new();
        loop {
            if self.eat_word("COUNT") {
                self.expect_sym("(")?;
                let rel = self.word()?;
                self.expect_sym(")")?;
                let op = self.cmp_op()?;
                let at = self.pos;
                let n = match self.next()? {
                    Tok::Int(i) if i >= 0 => i as usize,
                    other => {
                        return Err(
                            self.err_at(at, format!("expected non-negative count, got {other:?}"))
                        )
                    }
                };
                q = q.with_count(self.node_of(&rel)?, op, n);
            } else if self.eat_word("EXISTS") {
                self.expect_sym("(")?;
                let rel = self.word()?;
                self.expect_sym(")")?;
                q = q.with_exists(self.node_of(&rel)?);
            } else {
                let name = self.word()?;
                let (node, attr) = match name.split_once('.') {
                    Some((rel, attr)) => (self.node_of(rel)?, attr.to_owned()),
                    None => (0, name),
                };
                let op = self.cmp_op()?;
                let v = self.literal()?;
                q = q.with_predicate(
                    node,
                    Expr::Cmp(op, Box::new(Expr::attr(attr)), Box::new(Expr::Lit(v))),
                );
            }
            if !self.eat_word("AND") {
                break;
            }
        }
        Ok(q)
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.toks.get(self.pos), Some(Tok::Sym(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<()> {
        let at = self.pos;
        match self.next()? {
            Tok::Sym(x) if x == s => Ok(()),
            other => Err(self.err_at(at, format!("expected {s}, got {other:?}"))),
        }
    }

    fn finish(&self) -> Result<()> {
        if self.pos != self.toks.len() {
            return Err(self.err("trailing tokens"));
        }
        Ok(())
    }
}

/// Parse a VOQL statement. Needs the system to resolve object structure
/// for WHERE conditions.
pub fn parse(penguin: &Penguin, src: &str) -> Result<VoqlStatement> {
    parse_in(penguin.registry(), src)
}

/// Parse against a registry — the head's or the one a pinned
/// [`crate::session::Session`] shares.
pub(crate) fn parse_in(registry: &Registry, src: &str) -> Result<VoqlStatement> {
    let (toks, spans): (Vec<Tok>, Vec<usize>) = tokenize(src)?.into_iter().unzip();
    let mut p = P {
        toks,
        spans,
        src_len: src.len(),
        pos: 0,
        object: None,
    };
    if p.eat_word("SHOW") {
        if p.eat_word("OBJECTS") {
            p.finish()?;
            return Ok(VoqlStatement::ShowObjects);
        }
        if p.eat_word("OBJECT") {
            let name = p.word()?;
            p.finish()?;
            return Ok(VoqlStatement::ShowObject(name));
        }
        if p.eat_word("SCHEMA") {
            p.finish()?;
            return Ok(VoqlStatement::ShowSchema);
        }
        return Err(p.err("expected OBJECTS, OBJECT or SCHEMA"));
    }
    let is_get = p.eat_word("GET");
    let is_delete = !is_get && p.eat_word("DELETE");
    let is_update = !is_get && !is_delete && p.eat_word("UPDATE");
    if !is_get && !is_delete && !is_update {
        return Err(p.err("expected GET, DELETE, UPDATE or SHOW"));
    }
    let object_name = p.word()?;
    p.object = Some(&registry.object(&object_name)?.object);
    let mut assignments: Vec<(String, Value)> = Vec::new();
    if is_update {
        if !p.eat_word("SET") {
            return Err(p.err("expected SET"));
        }
        loop {
            let attr = p.word()?;
            if attr.contains('.') {
                return Err(p.err("UPDATE assignments address pivot attributes only"));
            }
            p.expect_sym("=")?;
            let v = p.literal()?;
            assignments.push((attr, v));
            if !p.eat_sym(",") {
                break;
            }
        }
    }
    let mut query = if p.eat_word("WHERE") {
        p.conditions()?
    } else {
        VoQuery::new()
    };
    if p.eat_word("ORDER") {
        if !p.eat_word("BY") {
            return Err(p.err("expected BY after ORDER"));
        }
        loop {
            let attr = p.word()?;
            query.order_by.push(attr);
            if !p.eat_word("AND") && !p.eat_sym(",") {
                break;
            }
        }
    }
    if p.eat_word("LIMIT") {
        let at = p.pos;
        match p.next()? {
            Tok::Int(n) if n >= 0 => query.limit = Some(n as usize),
            other => {
                return Err(p.err_at(at, format!("expected non-negative LIMIT, got {other:?}")))
            }
        }
    }
    p.finish()?;
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
    fn truncated_statement_reports_source_length() {
        let p = system();
        let src = "GET omega WHERE level =";
        assert_eq!(parse_position(&p, src), src.len());
        // offsets hold for multi-byte-safe ASCII positions after strings too
        let src = "GET omega WHERE title = 'x' AND";
        assert_eq!(parse_position(&p, src), src.len());
    }
}
