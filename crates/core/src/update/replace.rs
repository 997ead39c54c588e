//! Algorithm VO-R — translation of replacement requests (paper §5.3).
//!
//! The translator walks old and new instance trees in parallel, depth
//! first, starting in state **R** at the pivot. Island nodes stay in state
//! R (replacements, including key replacements); nodes outside the
//! dependency island are processed in state **I** (insertions — the old
//! tuple is never deleted, because entities outside the island may be
//! shared with other objects).
//!
//! Key replacements are handled per the paper's rules: they are literal
//! database replacements *inside* the island only; a replaced key
//! propagates to out-of-island relations as foreign-key repairs
//! (peninsulas, out-of-object referencers) and cascades (out-of-object
//! owned/subset relations); keys of referencing peninsulas and all other
//! non-island relations are never replaced — a changed key outside the
//! island becomes an insertion (cases I-2..I-4).

use crate::instance::{VoInstance, VoInstanceNode};
use crate::island::IslandAnalysis;
use crate::object::{NodeId, ViewObject};
use crate::translator::Translator;
use crate::update::insert::complete_dependencies;
use crate::update::validate::{validate_instance, Links, LocalValidation};
use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// One step of the VO-R state machine, recorded for explanation: which
/// paper case fired at which node for which tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Case R-1: projections match exactly; nothing to do.
    R1 { node: NodeId },
    /// Case R-2: projections differ, keys match; a replacement.
    R2 { node: NodeId },
    /// Case R-3: keys differ inside the island; a key replacement (with
    /// out-of-island propagation) or delete-and-adopt.
    R3 { node: NodeId, adopted: bool },
    /// An ancestor's propagation already effected this tuple.
    AlreadyPropagated { node: NodeId },
    /// Case I-1: keys match outside the island; in-place treatment.
    I1 { node: NodeId },
    /// Case I-2: new tuple absent from the database; insertion.
    I2 { node: NodeId },
    /// Case I-3: new tuple already present and identical; nothing.
    I3 { node: NodeId },
    /// Case I-4: key present with conflicting values; replacement.
    I4 { node: NodeId },
    /// An island tuple disappeared from the instance; structural deletion.
    IslandRemoval { node: NodeId },
}

impl TraceEvent {
    /// The paper's case label.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEvent::R1 { .. } => "R-1",
            TraceEvent::R2 { .. } => "R-2",
            TraceEvent::R3 { .. } => "R-3",
            TraceEvent::AlreadyPropagated { .. } => "propagated",
            TraceEvent::I1 { .. } => "I-1",
            TraceEvent::I2 { .. } => "I-2",
            TraceEvent::I3 { .. } => "I-3",
            TraceEvent::I4 { .. } => "I-4",
            TraceEvent::IslandRemoval { .. } => "island-removal",
        }
    }
}

/// Translate a replacement request into database operations.
pub fn translate_replacement(
    schema: &StructuralSchema,
    object: &ViewObject,
    analysis: &IslandAnalysis,
    translator: &Translator,
    db: &Database,
    old: &VoInstance,
    new: VoInstance,
) -> Result<Vec<DbOp>> {
    translate_replacement_traced(schema, object, analysis, translator, db, old, new)
        .map(|(ops, _)| ops)
}

/// Like [`translate_replacement`], additionally returning the state-machine
/// trace (the sequence of paper cases that fired). Runs steps 1–2 itself
/// (validate `old`; check `new`'s shape, propagate within it, check its
/// connections) before step 3; the pipeline, which has run them already,
/// goes to step 3 directly.
pub fn translate_replacement_traced(
    schema: &StructuralSchema,
    object: &ViewObject,
    analysis: &IslandAnalysis,
    translator: &Translator,
    db: &Database,
    old: &VoInstance,
    new: VoInstance,
) -> Result<(Vec<DbOp>, Vec<TraceEvent>)> {
    translator.permitted(object, "replacement")?;
    validate_instance(schema, object, old)?;
    let (new, validated) = Links::new(schema, object)?.replacing(schema, object, new)?;
    let mut rec = DeltaDb::new(db);
    let trace = translate_replacement_checked(
        schema, object, analysis, translator, &mut rec, old, &new, &validated,
    )?;
    Ok((rec.into_ops(), trace))
}

/// Step 3 of a replacement alone: `old` has passed local validation, `new`
/// has been propagated and `validated` is what validating it returned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn translate_replacement_checked(
    schema: &StructuralSchema,
    object: &ViewObject,
    analysis: &IslandAnalysis,
    translator: &Translator,
    rec: &mut DeltaDb<'_>,
    old: &VoInstance,
    new: &VoInstance,
    validated: &LocalValidation,
) -> Result<Vec<TraceEvent>> {
    vo_relational::stats::count_snapshot_avoided();
    translator.permitted(object, "replacement")?;

    // contracted-edge nodes may not change
    for &cn in &validated.contracted_nodes {
        let (o, n) = (old.tuples_of(cn), new.tuples_of(cn));
        if !o.iter().map(|t| &t.tuple).eq(n.iter().map(|t| &t.tuple)) {
            return Err(Error::ConstraintViolation(format!(
                "replacement changes tuples of node {cn}, which is bound through a \
                 contracted edge; the intermediate relations are unspecified"
            )));
        }
    }

    let pivot_schema = schema.catalog().relation(object.pivot())?;
    let old_root_key = old.root.tuple.key(pivot_schema);
    if rec.view(object.pivot())?.get(&old_root_key) != Some(&old.root.tuple) {
        return Err(Error::ConstraintViolation(format!(
            "the old instance's pivot tuple {} is not current in the database",
            old.root.tuple
        )));
    }

    let mut ctx = Ctx {
        schema,
        object,
        analysis,
        translator,
        rec,
        old,
        new,
        written: Vec::new(),
        trace: Vec::new(),
    };
    ctx.walk_pair(0, Some(0), Some(0), None)?;
    let Ctx {
        rec,
        written,
        trace,
        ..
    } = ctx;
    complete_dependencies(schema, object, translator, rec, &written)?;
    Ok(trace)
}

struct Ctx<'a, 'r, 'base> {
    schema: &'a StructuralSchema,
    object: &'a ViewObject,
    analysis: &'a IslandAnalysis,
    translator: &'a Translator,
    rec: &'r mut DeltaDb<'base>,
    old: &'a VoInstance,
    new: &'a VoInstance,
    written: Vec<(String, Tuple)>,
    trace: Vec<TraceEvent>,
}

impl Ctx<'_, '_, '_> {
    /// Process a matched/unmatched pair of tuples of `node_id` — positions
    /// in the old and the new instance — then recurse over their children.
    fn walk_pair(
        &mut self,
        node_id: NodeId,
        old: Option<usize>,
        new: Option<usize>,
        parent_pair: Option<(&Tuple, &Tuple)>,
    ) -> Result<()> {
        let object = self.object;
        let relation = &object.node(node_id).relation;
        let rel_schema = self.rec.base().table(relation)?.schema();
        let in_island = self.analysis.in_island(node_id);
        let (olds, news) = (self.old, self.new);

        match (old, new) {
            (Some(o), Some(n)) => {
                let (ot, nt) = (&olds.tuples_of(node_id)[o], &news.tuples_of(node_id)[n]);
                self.process_tuple_pair(node_id, relation, rel_schema, in_island, ot, nt)?;
                // recurse over children of every declared child node
                for &child in &object.node(node_id).children {
                    let (oruns, nruns) = (
                        olds.children(node_id, o, child),
                        news.children(node_id, n, child),
                    );
                    let pairs = pair_children(
                        self.schema,
                        self.analysis,
                        object,
                        child,
                        &olds.tuples_of(child)[oruns.clone()],
                        &news.tuples_of(child)[nruns.clone()],
                    )?;
                    for (co, cn) in pairs {
                        let (co, cn) = (co.map(|i| oruns.start + i), cn.map(|i| nruns.start + i));
                        self.walk_pair(child, co, cn, Some((ot, nt)))?;
                    }
                }
            }
            (Some(o), None) => {
                let o = &olds.tuples_of(node_id)[o];
                if in_island {
                    self.trace.push(TraceEvent::IslandRemoval { node: node_id });
                    // removal of part of the entity: delete with full
                    // structural propagation (covers its island subtree).
                    // An ancestor key replacement may already have re-keyed
                    // the tuple; locate it through the parent pair.
                    let key = self.current_key_of(node_id, relation, rel_schema, o, parent_pair)?;
                    if let Some(key) = key {
                        let policy = self.translator.deletion_policy(
                            self.schema,
                            self.object,
                            self.analysis,
                        );
                        let ops = plan_delete(self.schema, &*self.rec, relation, &key, &policy)?;
                        self.rec.apply_all(ops)?;
                    }
                    // children are covered by the cascade — no recursion
                } else {
                    // state I never deletes: tuples outside the island may
                    // be shared with other entities
                }
            }
            (None, Some(n)) => {
                // pure addition: VO-CI cases for this subtree
                let nt = &news.tuples_of(node_id)[n];
                self.process_addition(node_id, relation, rel_schema, in_island, nt)?;
                for &child in &object.node(node_id).children {
                    for cn in news.children(node_id, n, child) {
                        self.walk_pair(child, None, Some(cn), None)?;
                    }
                }
            }
            (None, None) => {}
        }
        Ok(())
    }

    /// Where does `old` currently live in the scratch database? Its
    /// original key, or — after an ancestor key replacement propagated
    /// through the island — the key rewritten with the new parent's
    /// linking values. `None` when the tuple has already been deleted by
    /// an earlier cascade.
    fn current_key_of(
        &self,
        node_id: NodeId,
        relation: &str,
        rel_schema: &RelationSchema,
        old: &Tuple,
        parent_pair: Option<(&Tuple, &Tuple)>,
    ) -> Result<Option<Key>> {
        let key = old.key(rel_schema);
        let table = self.rec.view(relation)?;
        if table.contains_key(&key) {
            return Ok(Some(key));
        }
        // rewrite the inherited linking attributes from the new parent
        let links = Links::new(self.schema, self.object)?;
        let (Some((old_parent, new_parent)), Some(pairs)) = (parent_pair, links.edge_into(node_id))
        else {
            return Ok(None);
        };
        let (from, to) = (old_parent.values(), new_parent.values());
        if pairs.iter().all(|&(f, _)| from[f] == to[f]) {
            return Ok(None);
        }
        let mut values = old.values().to_vec();
        for &(f, t) in pairs {
            values[t] = to[f].clone();
        }
        let rk = Tuple::raw(values).key(rel_schema);
        Ok(self.rec.view(relation)?.contains_key(&rk).then_some(rk))
    }

    fn process_tuple_pair(
        &mut self,
        node_id: NodeId,
        relation: &str,
        rel_schema: &RelationSchema,
        in_island: bool,
        old: &Tuple,
        new: &Tuple,
    ) -> Result<()> {
        let old_key = old.key(rel_schema);
        let new_key = new.key(rel_schema);
        let policy = self.translator.policy(relation);

        if in_island {
            // ---- state R ----
            let at_new = self.rec.view(relation)?.get(&new_key).cloned();
            if at_new.as_ref() == Some(new) {
                // already effected (e.g. by an ancestor's key propagation,
                // when the non-inherited attributes did not change), or R-1
                self.trace.push(if old == new {
                    TraceEvent::R1 { node: node_id }
                } else {
                    TraceEvent::AlreadyPropagated { node: node_id }
                });
                return Ok(());
            }
            let old_present = self.rec.view(relation)?.contains_key(&old_key);
            if old_key == new_key {
                // CASE R-2: projections differ, keys match
                if !old_present {
                    return Err(Error::NoSuchTuple {
                        relation: relation.to_owned(),
                        key: old_key.to_string(),
                    });
                }
                self.trace.push(TraceEvent::R2 { node: node_id });
                self.record_replace(relation, old_key, new.clone())?;
                return Ok(());
            }
            // keys differ
            if !old_present {
                // The ancestor propagation moved the old tuple to new_key
                // already; what remains is a non-key fix-up.
                match at_new {
                    Some(_) => {
                        // the key part was propagated by an ancestor; fix
                        // the non-inherited attributes in place
                        self.trace.push(TraceEvent::R2 { node: node_id });
                        self.record_replace(relation, new_key, new.clone())?;
                        return Ok(());
                    }
                    None => {
                        return Err(Error::ConstraintViolation(format!(
                            "old island tuple {old} of {relation} is not current in \
                             the database"
                        )));
                    }
                }
            }
            // CASE R-3: a literal key replacement inside the island
            if !policy.allow_key_replacement {
                return Err(Error::ConstraintViolation(format!(
                    "translator forbids modifying keys of {relation} tuples"
                )));
            }
            self.trace.push(TraceEvent::R3 {
                node: node_id,
                adopted: at_new.is_some(),
            });
            match at_new {
                Some(_) => {
                    // a tuple with the new key already exists: delete the
                    // old tuple and adopt the existing one
                    if !policy.allow_delete_adopt {
                        return Err(Error::ConstraintViolation(format!(
                            "key replacement on {relation} collides with an existing \
                             tuple and delete-and-adopt is not allowed"
                        )));
                    }
                    let del_policy =
                        self.translator
                            .deletion_policy(self.schema, self.object, self.analysis);
                    let ops =
                        plan_delete(self.schema, &*self.rec, relation, &old_key, &del_policy)?;
                    self.rec.apply_all(ops)?;
                }
                None => {
                    if !policy.allow_db_key_replace {
                        return Err(Error::ConstraintViolation(format!(
                            "translator forbids replacing database keys of {relation}"
                        )));
                    }
                    // replacement + propagation to peninsulas, out-of-object
                    // owned/subset relations and other referencers
                    let mod_policy = self
                        .translator
                        .modification_policy(self.object, self.analysis);
                    let ops = plan_key_replacement(
                        self.schema,
                        &*self.rec,
                        relation,
                        &old_key,
                        new.clone(),
                        &mod_policy,
                    )?;
                    self.rec.apply_all(ops)?;
                    self.written.push((relation.to_owned(), new.clone()));
                }
            }
            let _ = node_id;
            Ok(())
        } else {
            // ---- state I ----
            if old_key == new_key {
                // CASE I-1: keys match — "go to state R, staying with this
                // tuple": an in-place modification
                self.trace.push(TraceEvent::I1 { node: node_id });
                if old == new {
                    return Ok(());
                }
                let existing = self.rec.view(relation)?.get(&new_key).cloned();
                match existing {
                    Some(ref e) if e == new => Ok(()),
                    Some(_) => {
                        if !policy.allow_modify {
                            return Err(Error::ConstraintViolation(format!(
                                "translator forbids modifying existing tuples of {relation}"
                            )));
                        }
                        self.record_replace(relation, new_key, new.clone())
                    }
                    None => {
                        if !policy.allow_insert {
                            return Err(Error::ConstraintViolation(format!(
                                "translator forbids inserting into {relation}"
                            )));
                        }
                        self.record_insert(relation, new.clone())
                    }
                }
            } else {
                // keys differ: cases I-2 / I-3 / I-4 — the old tuple is
                // left alone
                self.process_addition(node_id, relation, rel_schema, false, new)
            }
        }
    }

    /// Cases I-2/I-3/I-4 (also used for island additions, where a fresh
    /// insert is the normal path).
    fn process_addition(
        &mut self,
        node_id: NodeId,
        relation: &str,
        rel_schema: &RelationSchema,
        in_island: bool,
        new: &Tuple,
    ) -> Result<()> {
        let policy = self.translator.policy(relation);
        let key = new.key(rel_schema);
        let existing = self.rec.view(relation)?.get(&key).cloned();
        match existing {
            None => {
                // CASE I-2
                self.trace.push(TraceEvent::I2 { node: node_id });
                if !in_island && !policy.allow_insert {
                    return Err(Error::ConstraintViolation(format!(
                        "translator forbids inserting into {relation}"
                    )));
                }
                self.record_insert(relation, new.clone())
            }
            Some(ref e) if e == new => {
                // CASE I-3
                self.trace.push(TraceEvent::I3 { node: node_id });
                Ok(())
            }
            Some(_) => {
                // CASE I-4
                self.trace.push(TraceEvent::I4 { node: node_id });
                if !policy.allow_modify {
                    return Err(Error::ConstraintViolation(format!(
                        "translator forbids modifying existing tuples of {relation}"
                    )));
                }
                self.record_replace(relation, key, new.clone())
            }
        }
    }

    fn record_insert(&mut self, relation: &str, tuple: Tuple) -> Result<()> {
        self.rec.apply(DbOp::Insert {
            relation: relation.to_owned(),
            tuple: tuple.clone(),
        })?;
        self.written.push((relation.to_owned(), tuple));
        Ok(())
    }

    fn record_replace(&mut self, relation: &str, old_key: Key, tuple: Tuple) -> Result<()> {
        self.rec.apply(DbOp::Replace {
            relation: relation.to_owned(),
            old_key,
            tuple: tuple.clone(),
        })?;
        self.written.push((relation.to_owned(), tuple));
        Ok(())
    }
}

/// Pair old and new child tuple runs: island nodes pair by the locally
/// accessible key complement `A_j` (inherited components change when an
/// ancestor key changes), other nodes pair by full key; leftovers pair
/// positionally, and the rest become one-sided entries. Returns positions
/// within the runs.
fn pair_children(
    schema: &StructuralSchema,
    analysis: &IslandAnalysis,
    object: &ViewObject,
    node_id: NodeId,
    olds: &[VoInstanceNode],
    news: &[VoInstanceNode],
) -> Result<Vec<(Option<usize>, Option<usize>)>> {
    let relation = &object.node(node_id).relation;
    let rel_schema = schema.catalog().relation(relation)?;
    let ident_attrs: Vec<String> = match analysis.key_split.get(node_id).and_then(|s| s.as_ref()) {
        Some(split) if !split.complement.is_empty() => split.complement.clone(),
        _ => rel_schema
            .key_names()
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
    };
    let ident = |t: &Tuple| -> Result<Vec<Value>> {
        ident_attrs
            .iter()
            .map(|a| t.get_named(rel_schema, a).cloned())
            .collect()
    };

    let mut out: Vec<(Option<usize>, Option<usize>)> = Vec::new();
    let mut used_new = vec![false; news.len()];
    let mut unmatched_old: Vec<usize> = Vec::new();
    for (i, o) in olds.iter().enumerate() {
        let oid = ident(o)?;
        let mut matched = false;
        for (j, n) in news.iter().enumerate() {
            if used_new[j] {
                continue;
            }
            if ident(n)? == oid {
                used_new[j] = true;
                out.push((Some(i), Some(j)));
                matched = true;
                break;
            }
        }
        if !matched {
            unmatched_old.push(i);
        }
    }
    let mut remaining_new: Vec<usize> = (0..news.len()).filter(|&j| !used_new[j]).collect();
    // positional pairing of leftovers (the paper's "get the next
    // view-object tuple" walks both lists in order)
    while let (Some(o), true) = (unmatched_old.first().copied(), !remaining_new.is_empty()) {
        unmatched_old.remove(0);
        let n = remaining_new.remove(0);
        out.push((Some(o), Some(n)));
    }
    for o in unmatched_old {
        out.push((Some(o), None));
    }
    for n in remaining_new {
        out.push((None, Some(n)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::assemble;
    use crate::island::analyze;
    use crate::treegen::generate_omega;
    use crate::university::university_database;

    fn setup() -> (
        StructuralSchema,
        Database,
        ViewObject,
        IslandAnalysis,
        Translator,
    ) {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let analysis = analyze(&schema, &omega).unwrap();
        let translator = Translator::permissive(&omega);
        (schema, db, omega, analysis, translator)
    }

    fn node_id(o: &ViewObject, rel: &str) -> usize {
        o.nodes().iter().find(|n| n.relation == rel).unwrap().id
    }

    fn cs345(schema: &StructuralSchema, db: &Database, omega: &ViewObject) -> VoInstance {
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        assemble(schema, omega, db, t).unwrap()
    }

    /// The paper's §6 worked example: replace CS345 in "Computer Science"
    /// by EES345 in the (new) "Engineering Economic Systems" department.
    fn paper_replacement(
        schema: &StructuralSchema,
        db: &Database,
        omega: &ViewObject,
    ) -> (VoInstance, VoInstance) {
        let old = cs345(schema, db, omega);
        let mut new = old.clone();
        let courses = db.table("COURSES").unwrap().schema().clone();
        new.root.tuple = new
            .root
            .tuple
            .with_named(&courses, "course_id", "EES345".into())
            .unwrap()
            .with_named(&courses, "dept_name", "Engineering Economic Systems".into())
            .unwrap();
        (old, new)
    }

    #[test]
    fn paper_example_inserts_new_department() {
        let (schema, mut db, omega, analysis, translator) = setup();
        let (old, new) = paper_replacement(&schema, &db, &omega);
        let ops =
            translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new).unwrap();
        // "will lead, among other things, to the insertion of a tuple
        // ⟨Engineering Economic Systems⟩ in the DEPARTMENT relation"
        assert!(ops.iter().any(|op| matches!(
            op,
            DbOp::Insert { relation, tuple }
                if relation == "DEPARTMENT"
                    && tuple.values()[0] == Value::text("Engineering Economic Systems")
        )));
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        // course re-keyed
        assert!(db
            .table("COURSES")
            .unwrap()
            .contains_key(&Key::single("EES345")));
        assert!(!db
            .table("COURSES")
            .unwrap()
            .contains_key(&Key::single("CS345")));
        // grades followed
        assert!(db
            .table("GRADES")
            .unwrap()
            .contains_key(&Key(vec!["EES345".into(), 1.into()])));
        // peninsula foreign keys replaced
        assert!(db
            .table("CURRICULUM")
            .unwrap()
            .contains_key(&Key(vec!["MS".into(), "EES345".into()])));
        assert!(!db
            .table("CURRICULUM")
            .unwrap()
            .contains_key(&Key(vec!["MS".into(), "CS345".into()])));
    }

    #[test]
    fn paper_restrictive_translator_rejects_example() {
        let (schema, db, omega, analysis, mut translator) = setup();
        // "she can answer <NO> to ... Can the relation DEPARTMENT be
        // modified during insertions (or replacements)?"
        let mut p = translator.policy("DEPARTMENT");
        p.allow_insert = false;
        p.allow_modify = false;
        translator.set_policy("DEPARTMENT", p);
        let (old, new) = paper_replacement(&schema, &db, &omega);
        let err = translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new)
            .unwrap_err();
        assert!(matches!(err, Error::ConstraintViolation(_)));
    }

    #[test]
    fn r1_identical_instance_is_noop() {
        let (schema, db, omega, analysis, translator) = setup();
        let old = cs345(&schema, &db, &omega);
        let new = old.clone();
        let ops =
            translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new).unwrap();
        assert!(ops.is_empty());
    }

    #[test]
    fn r2_nonkey_change_is_single_replace() {
        let (schema, mut db, omega, analysis, translator) = setup();
        let old = cs345(&schema, &db, &omega);
        let mut new = old.clone();
        let courses = db.table("COURSES").unwrap().schema().clone();
        new.root.tuple = new
            .root
            .tuple
            .with_named(&courses, "title", "Advanced Databases".into())
            .unwrap();
        let ops =
            translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new).unwrap();
        assert_eq!(ops.len(), 1);
        assert!(ops[0].is_replace());
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
    }

    #[test]
    fn r3_key_change_with_grade_edit() {
        let (schema, mut db, omega, analysis, translator) = setup();
        let old = cs345(&schema, &db, &omega);
        let mut new = old.clone();
        let courses = db.table("COURSES").unwrap().schema().clone();
        let grades = db.table("GRADES").unwrap().schema().clone();
        new.root.tuple = new
            .root
            .tuple
            .with_named(&courses, "course_id", "CS999".into())
            .unwrap();
        // additionally flip one grade
        let gid = node_id(&omega, "GRADES");
        let flipped = new.tuples_of(gid)[0].with_named(&grades, "grade", "C".into());
        new.rewrite(gid, 0, flipped.unwrap());
        let ops =
            translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new).unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        let g = db
            .table("GRADES")
            .unwrap()
            .get(&Key(vec!["CS999".into(), 1.into()]))
            .unwrap()
            .clone();
        assert_eq!(g.values()[2], Value::text("C"));
    }

    #[test]
    fn key_replacement_forbidden_by_policy() {
        let (schema, db, omega, analysis, mut translator) = setup();
        let mut p = translator.policy("COURSES");
        p.allow_key_replacement = false;
        translator.set_policy("COURSES", p);
        let (old, new) = paper_replacement(&schema, &db, &omega);
        assert!(
            translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new).is_err()
        );
    }

    #[test]
    fn delete_adopt_collision_paths() {
        let (schema, mut db, omega, analysis, mut translator) = setup();
        // rename CS345 -> CS101, which exists
        let old = cs345(&schema, &db, &omega);
        let mut new = old.clone();
        let courses = db.table("COURSES").unwrap().schema().clone();
        new.root.tuple = new
            .root
            .tuple
            .with_named(&courses, "course_id", "CS101".into())
            .unwrap();

        // paper transcript answered NO to delete-adopt:
        let mut p = translator.policy("COURSES");
        p.allow_delete_adopt = false;
        translator.set_policy("COURSES", p);
        assert!(translate_replacement(
            &schema,
            &omega,
            &analysis,
            &translator,
            &db,
            &old,
            new.clone()
        )
        .is_err());

        // allowing it deletes the old tuple and adopts CS101
        let mut p = translator.policy("COURSES");
        p.allow_delete_adopt = true;
        translator.set_policy("COURSES", p);
        let ops =
            translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new).unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        assert!(!db
            .table("COURSES")
            .unwrap()
            .contains_key(&Key::single("CS345")));
        assert!(db
            .table("COURSES")
            .unwrap()
            .contains_key(&Key::single("CS101")));
    }

    #[test]
    fn island_child_removed_from_instance_is_deleted() {
        let (schema, mut db, omega, analysis, translator) = setup();
        let old = cs345(&schema, &db, &omega);
        let mut new = old.clone();
        let gid = node_id(&omega, "GRADES");
        new.remove(gid, 0); // drop student 1's grade
        let ops =
            translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new).unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        assert!(!db
            .table("GRADES")
            .unwrap()
            .contains_key(&Key(vec!["CS345".into(), 1.into()])));
        // the other grades remain
        assert!(db
            .table("GRADES")
            .unwrap()
            .contains_key(&Key(vec!["CS345".into(), 2.into()])));
    }

    #[test]
    fn island_child_added_to_instance_is_inserted() {
        let (schema, mut db, omega, analysis, translator) = setup();
        let old = cs345(&schema, &db, &omega);
        let mut new = old.clone();
        let gid = node_id(&omega, "GRADES");
        let grades = db.table("GRADES").unwrap().schema().clone();
        new.attach(
            0,
            0,
            gid,
            Tuple::new(&grades, vec!["CS345".into(), 7.into(), "B".into()]).unwrap(),
        );
        let ops =
            translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new).unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        assert!(db
            .table("GRADES")
            .unwrap()
            .contains_key(&Key(vec!["CS345".into(), 7.into()])));
    }

    #[test]
    fn non_island_old_tuple_never_deleted() {
        let (schema, mut db, omega, analysis, translator) = setup();
        let old = cs345(&schema, &db, &omega);
        let mut new = old.clone();
        // retarget the course to the EE department (existing): old CS
        // department must survive
        let courses = db.table("COURSES").unwrap().schema().clone();
        new.root.tuple = new
            .root
            .tuple
            .with_named(&courses, "dept_name", "Electrical Engineering".into())
            .unwrap();
        let ops =
            translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new).unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        assert!(db
            .table("DEPARTMENT")
            .unwrap()
            .contains_key(&Key::single("Computer Science")));
        let c = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        assert_eq!(c.values()[3], Value::text("Electrical Engineering"));
    }

    #[test]
    fn stale_old_instance_rejected() {
        let (schema, mut db, omega, analysis, translator) = setup();
        let old = cs345(&schema, &db, &omega);
        db.run_sql("UPDATE COURSES SET title = 'Changed' WHERE course_id = 'CS345'")
            .unwrap();
        let new = old.clone();
        let err = translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new)
            .unwrap_err();
        assert!(matches!(err, Error::ConstraintViolation(_)));
    }

    #[test]
    fn trace_records_paper_cases() {
        let (schema, db, omega, analysis, translator) = setup();
        // the §6 worked example: R-3 at the pivot, propagated GRADES,
        // I-2 for the new department, I-3 for the repaired curriculum
        let (old, new) = paper_replacement(&schema, &db, &omega);
        let (_, trace) =
            translate_replacement_traced(&schema, &omega, &analysis, &translator, &db, &old, new)
                .unwrap();
        let labels: Vec<&str> = trace.iter().map(|e| e.label()).collect();
        assert_eq!(labels[0], "R-3");
        assert!(labels.contains(&"I-2"), "DEPARTMENT insert: {labels:?}");
        // grades were propagated by the pivot's key replacement
        let gid = node_id(&omega, "GRADES");
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::AlreadyPropagated { node } if *node == gid)));
        // no delete-adopt happened
        assert!(trace
            .iter()
            .all(|e| !matches!(e, TraceEvent::R3 { adopted: true, .. })));
    }

    #[test]
    fn trace_identity_is_all_r1_i1_i3() {
        let (schema, db, omega, analysis, translator) = setup();
        let old = cs345(&schema, &db, &omega);
        let (ops, trace) = translate_replacement_traced(
            &schema,
            &omega,
            &analysis,
            &translator,
            &db,
            &old,
            old.clone(),
        )
        .unwrap();
        assert!(ops.is_empty());
        assert!(trace.iter().all(|e| matches!(
            e,
            TraceEvent::R1 { .. } | TraceEvent::I1 { .. } | TraceEvent::I3 { .. }
        )));
        // every bound tuple produced exactly one event
        assert_eq!(trace.len(), old.size());
    }

    #[test]
    fn trace_island_removal_and_adoption() {
        let (schema, db, omega, analysis, translator) = setup();
        let old = cs345(&schema, &db, &omega);
        // drop a grade
        let mut new = old.clone();
        let gid = node_id(&omega, "GRADES");
        new.remove(gid, 0);
        let (_, trace) =
            translate_replacement_traced(&schema, &omega, &analysis, &translator, &db, &old, new)
                .unwrap();
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::IslandRemoval { node } if *node == gid)));

        // rename to an existing course with delete-adopt allowed
        let courses = db.table("COURSES").unwrap().schema().clone();
        let mut new = old.clone();
        new.root.tuple = new
            .root
            .tuple
            .with_named(&courses, "course_id", "CS101".into())
            .unwrap();
        let (_, trace) =
            translate_replacement_traced(&schema, &omega, &analysis, &translator, &db, &old, new)
                .unwrap();
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::R3 { adopted: true, .. })));
    }

    #[test]
    fn dropped_grade_combined_with_pivot_key_change() {
        // A pivot key replacement re-keys grades via propagation; a grade
        // *dropped* from the new instance must still be deleted at its
        // rewritten key.
        let (schema, mut db, omega, analysis, translator) = setup();
        let old = cs345(&schema, &db, &omega);
        let mut new = old.clone();
        let courses = db.table("COURSES").unwrap().schema().clone();
        new.root.tuple = new
            .root
            .tuple
            .with_named(&courses, "course_id", "CS900".into())
            .unwrap();
        let gid = node_id(&omega, "GRADES");
        // drop student 2's grade from the renamed course
        let dropped = new
            .tuples_of(gid)
            .iter()
            .position(|g| g.values()[1] == Value::Int(2));
        new.remove(gid, dropped.unwrap());
        let ops =
            translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new).unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        // kept grades re-keyed to CS900
        assert!(db
            .table("GRADES")
            .unwrap()
            .contains_key(&Key(vec!["CS900".into(), 1.into()])));
        // the dropped grade is gone under both keys
        assert!(!db
            .table("GRADES")
            .unwrap()
            .contains_key(&Key(vec!["CS900".into(), 2.into()])));
        assert!(!db
            .table("GRADES")
            .unwrap()
            .contains_key(&Key(vec!["CS345".into(), 2.into()])));
    }

    #[test]
    fn i4_conflicting_non_island_values_replace_existing() {
        let (schema, mut db, omega, analysis, translator) = setup();
        let old = cs345(&schema, &db, &omega);
        let mut new = old.clone();
        // change student 1's degree program (non-island node)
        let sid = node_id(&omega, "STUDENT");
        let student = db.table("STUDENT").unwrap().schema().clone();
        for pos in 0..new.tuples_of(sid).len() {
            let s = &new.tuples_of(sid)[pos];
            if s.get_named(&student, "ssn").unwrap() == &Value::Int(1) {
                let mba = s.with_named(&student, "degree_program", "MBA".into());
                new.rewrite(sid, pos, mba.unwrap());
            }
        }
        let ops =
            translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new).unwrap();
        db.apply_all(&ops).unwrap();
        let s = db
            .table("STUDENT")
            .unwrap()
            .get(&Key::single(1))
            .unwrap()
            .clone();
        assert_eq!(s.values()[1], Value::text("MBA"));
    }
}
