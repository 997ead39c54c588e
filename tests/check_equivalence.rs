//! The delta-scoped structural check against its specification: over a
//! consistent base, `check_delta` on an overlay must return exactly what
//! the `check_database` scan of that overlay returns — the same violations
//! in the same order — for *raw* `DbOp` batches, violating ones included.
//! Translators never emit a violating batch, so translator-driven suites
//! cannot stand in for this one.
//!
//! Batches are seeded and generic over the schema: inserts with and
//! without parents, deletes of parents with and without dependents,
//! non-key replaces that re-point or NULL a reference, re-keys of parents
//! and of dependents, delete-then-reinsert of one key, two writers of one
//! tuple, violations repaired later in the same batch. Fixtures: the
//! scaled university, the hospital, and one populated database per
//! synthetic `SchemaShape`.

use penguin_vo::obs::trace;
use penguin_vo::penguin::{seed_ownership_chain, synthetic_schema, SchemaShape};
use penguin_vo::prelude::*;
use std::collections::BTreeSet;

const BATCHES_PER_FIXTURE: usize = 240;

fn fixtures(seed: u64) -> Vec<(&'static str, StructuralSchema, Database)> {
    let (uni_schema, uni) = university_scaled(2, seed);
    let (hosp_schema, hosp) = hospital_database(6);

    let chain_schema = synthetic_schema(SchemaShape::OwnershipChain, 4);
    let mut chain = Database::from_schema(chain_schema.catalog());
    seed_ownership_chain(&mut chain, 4, 3).unwrap();

    // four roots, three owned rows per root in each of the four arms
    let star_schema = synthetic_schema(SchemaShape::OwnershipStar, 5);
    let mut star = Database::from_schema(star_schema.catalog());
    for k0 in 0..4i64 {
        star.insert("R0", vec![k0.into(), format!("root-{k0}").into()])
            .unwrap();
        for arm in 1..5 {
            for k in 0..3i64 {
                let row = vec![k0.into(), k.into(), format!("leaf-{arm}-{k}").into()];
                star.insert(&format!("R{arm}"), row).unwrap();
            }
        }
    }

    // six rows per relation; every fourth reference is NULL
    let tree_schema = synthetic_schema(SchemaShape::ReferenceTree, 7);
    let mut tree = Database::from_schema(tree_schema.catalog());
    for i in 0..7usize {
        for k in 0..6i64 {
            let parent = match (i, k % 4) {
                (0, _) | (_, 3) => Value::Null,
                _ => Value::Int((k + i as i64) % 6),
            };
            let row = vec![k.into(), parent, format!("node-{i}-{k}").into()];
            tree.insert(&format!("R{i}"), row).unwrap();
        }
    }

    let all = vec![
        ("university", uni_schema, uni),
        ("hospital", hosp_schema, hosp),
        ("ownership-chain", chain_schema, chain),
        ("ownership-star", star_schema, star),
        ("reference-tree", tree_schema, tree),
    ];
    for (name, schema, db) in &all {
        assert!(
            check_database(schema, db).unwrap().is_empty(),
            "{name}: the base must start consistent"
        );
    }
    all
}

/// Seeded generator of raw op steps against one overlay. A *step* is a
/// short op list that applies atomically or not at all.
struct Gen<'a> {
    schema: &'a StructuralSchema,
    relations: Vec<String>,
    rng: SmallRng,
    fresh: i64,
}

impl<'a> Gen<'a> {
    fn new(schema: &'a StructuralSchema, seed: u64) -> Self {
        Gen {
            schema,
            relations: schema
                .catalog()
                .relation_names()
                .into_iter()
                .map(str::to_owned)
                .collect(),
            rng: SmallRng::seed_from_u64(seed),
            fresh: 1_000_000,
        }
    }

    fn rel_schema(&self, rel: &str) -> RelationSchema {
        self.schema.catalog().relation(rel).unwrap().clone()
    }

    /// A value no seeded row carries.
    fn fresh_value(&mut self, ty: DataType) -> Value {
        self.fresh += 1;
        match ty {
            DataType::Int => Value::Int(self.fresh),
            DataType::Float => Value::Float(self.fresh as f64 + 0.5),
            DataType::Text => Value::text(format!("fresh-{}", self.fresh)),
            DataType::Bool => Value::Bool(self.fresh % 2 == 0),
        }
    }

    fn some_relation(&mut self) -> String {
        self.rng.choose(&self.relations).clone()
    }

    fn some_tuple(&mut self, overlay: &DeltaDb<'_>, rel: &str) -> Option<Tuple> {
        let rows: Vec<&Tuple> = overlay.view(rel).unwrap().scan().collect();
        (!rows.is_empty()).then(|| (*self.rng.choose(&rows)).clone())
    }

    /// A tuple with fresh key and non-key values, no parent in sight.
    fn orphan(&mut self, rel: &str) -> Tuple {
        let rs = self.rel_schema(rel);
        let values = rs
            .attributes()
            .iter()
            .map(|a| {
                if a.nullable && self.rng.gen_bool(0.2) {
                    Value::Null
                } else {
                    self.fresh_value(a.ty)
                }
            })
            .collect();
        Tuple::new(&rs, values).unwrap()
    }

    /// Point `tuple`'s connecting attributes at an existing parent over
    /// every connection `rel` depends along; `None` when a parent relation
    /// is empty.
    fn adopt(&mut self, overlay: &DeltaDb<'_>, rel: &str, mut tuple: Tuple) -> Option<Tuple> {
        let rs = self.rel_schema(rel);
        for conn in self.schema.connections() {
            let (parent, parent_attrs) = conn.parent_end();
            let (dependent, dependent_attrs) = conn.dependent_end();
            if dependent != rel {
                continue;
            }
            let p = self.some_tuple(overlay, parent)?;
            let ps = self.rel_schema(parent);
            for (pa, da) in parent_attrs.iter().zip(dependent_attrs) {
                let v = p.get_named(&ps, pa).unwrap().clone();
                tuple = tuple.with_named(&rs, da, v).unwrap();
            }
        }
        Some(tuple)
    }

    /// True when `attr` of `rel` is a connecting attribute of a connection
    /// `rel` depends along.
    fn is_dependency_attr(&self, rel: &str, attr: &str) -> bool {
        self.schema.connections().iter().any(|c| {
            let (dependent, attrs) = c.dependent_end();
            dependent == rel && attrs.iter().any(|a| a == attr)
        })
    }

    /// `tuple` with one attribute changed. A connecting attribute is
    /// re-pointed at another existing parent, NULLed, or (unless `safe`)
    /// pointed at nothing; any other attribute gets a fresh value.
    fn edit(
        &mut self,
        overlay: &DeltaDb<'_>,
        rel: &str,
        tuple: &Tuple,
        key_attr: bool,
        safe: bool,
    ) -> Option<Tuple> {
        let rs = self.rel_schema(rel);
        let candidates: Vec<&AttributeDef> = rs
            .attributes()
            .iter()
            .filter(|a| rs.is_key_attribute(&a.name) == key_attr)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let attr = (*self.rng.choose(&candidates)).clone();
        if !self.is_dependency_attr(rel, &attr.name) {
            let v = self.fresh_value(attr.ty);
            return tuple.with_named(&rs, &attr.name, v).ok();
        }
        match self.rng.gen_range(0..if safe { 2 } else { 3 }) {
            // all of the tuple's references move to existing parents
            0 => self.adopt(overlay, rel, tuple.clone()),
            1 if attr.nullable => tuple.with_named(&rs, &attr.name, Value::Null).ok(),
            1 => self.adopt(overlay, rel, tuple.clone()),
            _ => {
                let v = self.fresh_value(attr.ty);
                tuple.with_named(&rs, &attr.name, v).ok()
            }
        }
    }

    /// One generator step. `safe` steps keep a consistent overlay
    /// consistent; the others are free to break it.
    fn step(&mut self, overlay: &DeltaDb<'_>, safe: bool) -> Vec<DbOp> {
        let cascade =
            IntegrityPolicy::uniform(RefDeleteAction::Cascade, RefModifyAction::Propagate);
        let rel = self.some_relation();
        let rs = self.rel_schema(&rel);
        let kind = if safe || self.rng.gen_bool(0.3) {
            self.rng.gen_range(0..6)
        } else {
            self.rng.gen_range(6..10)
        };
        if kind == 0 {
            // insert with parents
            let t = self.orphan(&rel);
            return match self.adopt(overlay, &rel, t) {
                Some(tuple) => vec![DbOp::Insert {
                    relation: rel,
                    tuple,
                }],
                None => Vec::new(),
            };
        }
        if kind == 6 {
            // insert without parents
            return vec![DbOp::Insert {
                tuple: self.orphan(&rel),
                relation: rel,
            }];
        }
        let Some(t) = self.some_tuple(overlay, &rel) else {
            return Vec::new();
        };
        let key = t.key(&rs);
        let replace = |tuple: Tuple| DbOp::Replace {
            relation: rel.clone(),
            old_key: key.clone(),
            tuple,
        };
        match kind {
            // delete of a parent with its dependents, as the planner cascades it
            1 => plan_delete(self.schema, overlay, &rel, &key, &cascade).unwrap_or_default(),
            // re-key of a parent with its dependents following
            2 => self
                .edit(overlay, &rel, &t, true, true)
                .and_then(|new| {
                    plan_key_replacement(self.schema, overlay, &rel, &key, new, &cascade).ok()
                })
                .unwrap_or_default(),
            // non-key replace: re-point or NULL a reference, or touch a plain attribute
            3 => self
                .edit(overlay, &rel, &t, false, true)
                .map(|new| vec![replace(new)])
                .unwrap_or_default(),
            // delete-then-reinsert of one key
            4 => vec![
                DbOp::Delete {
                    relation: rel.clone(),
                    key: key.clone(),
                },
                DbOp::Insert {
                    relation: rel.clone(),
                    tuple: t.clone(),
                },
            ],
            // two writers of one tuple, the second restoring it
            5 => match self.edit(overlay, &rel, &t, false, true) {
                Some(new) => vec![replace(new), replace(t.clone())],
                None => Vec::new(),
            },
            // raw delete: a parent with or without dependents, nothing cascaded
            7 => vec![DbOp::Delete { relation: rel, key }],
            // raw re-key of a parent or a dependent, nothing propagated; now
            // and then a new tuple takes the vacated key
            8 => match self.edit(overlay, &rel, &t, true, false) {
                Some(new) if self.rng.gen_bool(0.3) => vec![
                    replace(new),
                    DbOp::Insert {
                        relation: rel.clone(),
                        tuple: t.clone(),
                    },
                ],
                Some(new) => vec![replace(new)],
                None => Vec::new(),
            },
            // raw non-key replace, free to dangle; sometimes written twice
            _ => match self.edit(overlay, &rel, &t, false, false) {
                Some(new) => match self.edit(overlay, &rel, &new, false, false) {
                    Some(again) if self.rng.gen_bool(0.3) => vec![replace(new), replace(again)],
                    _ => vec![replace(new)],
                },
                None => Vec::new(),
            },
        }
    }

    /// Steps that repair `violation`: insert the missing parents, or
    /// delete the offending dependent with everything under it.
    fn repair(&mut self, overlay: &DeltaDb<'_>, violation: &Violation) -> Vec<DbOp> {
        let (relation, key) = violation.target();
        let Some(t) = overlay.view(relation).unwrap().get(key).cloned() else {
            return Vec::new();
        };
        if self.rng.gen_bool(0.5) {
            plan_completion(self.schema, overlay, relation, &t, &|_| true).unwrap_or_default()
        } else {
            let cascade =
                IntegrityPolicy::uniform(RefDeleteAction::Cascade, RefModifyAction::Propagate);
            plan_delete(self.schema, overlay, relation, key, &cascade).unwrap_or_default()
        }
    }
}

/// Lay `ops` on `overlay` all-or-nothing; returns whether they applied.
fn lay(overlay: &mut DeltaDb<'_>, ops: Vec<DbOp>) -> bool {
    let mut trial = overlay.clone();
    if ops.is_empty() || trial.apply_all(ops).is_err() {
        return false;
    }
    *overlay = trial;
    true
}

/// The suite's input: every seeded batch (seeds 42 and 7, five fixtures),
/// each a raw op list that applies to its fixture's base in order, handed
/// to `visit` with that base and a label naming it.
fn for_each_batch(mut visit: impl FnMut(&StructuralSchema, &Database, Vec<DbOp>, &str)) {
    for seed in [42u64, 7] {
        for (name, schema, db) in fixtures(seed) {
            let mut gen = Gen::new(&schema, seed ^ 0xC4EC);
            for b in 0..BATCHES_PER_FIXTURE / 2 {
                let safe = b % 3 == 0;
                let wanted = gen.rng.gen_range(1..13);
                let mut overlay = DeltaDb::new(&db);
                for _ in 0..4 * wanted {
                    if overlay.mark() >= wanted {
                        break;
                    }
                    let ops = gen.step(&overlay, safe);
                    lay(&mut overlay, ops);
                }
                // a quarter of the breaking batches go on to repair what they broke
                if !safe && b % 4 == 1 {
                    for _ in 0..24 {
                        let Some(v) = check_database(&schema, &overlay).unwrap().pop() else {
                            break;
                        };
                        let ops = gen.repair(&overlay, &v);
                        if !lay(&mut overlay, ops) {
                            break;
                        }
                    }
                }
                let batch = overlay.into_ops();
                if !batch.is_empty() {
                    visit(
                        &schema,
                        &db,
                        batch,
                        &format!("{name}, seed {seed}, batch {b}"),
                    );
                }
            }
        }
    }
}

#[test]
fn check_delta_equals_check_database_on_random_raw_batches() {
    let (mut batches, mut violating, mut clean) = (0usize, 0usize, 0usize);
    for_each_batch(|schema, db, batch, label| {
        let context = format!("{label}: {batch:#?}");
        // the overlay the write path builds: the ops alone, laid on the base
        let mut laid = DeltaDb::new(db);
        laid.apply_all(batch.clone()).unwrap();
        let scan = check_database(schema, &laid).unwrap();
        let delta = check_delta(schema, &laid).unwrap();
        assert_eq!(delta, scan, "delta != scan of the overlay — {context}");
        // and the scan of the overlay is the scan of the ops applied
        let mut applied = db.clone();
        applied.apply_all(&batch).unwrap();
        assert_eq!(
            delta,
            check_database(schema, &applied).unwrap(),
            "delta != scan of the applied base — {context}"
        );

        batches += 1;
        if scan.is_empty() {
            clean += 1;
        } else {
            violating += 1;
        }
    });
    assert!(batches >= 500, "only {batches} batches generated");
    assert!(
        10 * violating >= 3 * batches && 10 * clean >= 3 * batches,
        "the generator must yield both verdicts: {violating} violating, {clean} clean of {batches}"
    );
}

/// `db` with a secondary index on the dependent end of every connection
/// and on each relation's last attribute, so an install has indexes to keep.
fn indexed(schema: &StructuralSchema, db: &Database) -> Database {
    let mut db = db.clone();
    for conn in schema.connections() {
        let (dependent, attrs) = conn.dependent_end();
        db.ensure_index(dependent, attrs).unwrap();
    }
    for rel in schema.catalog().iter() {
        let last = rel.attributes().last().unwrap().name.clone();
        db.ensure_index(rel.name(), &[last]).unwrap();
    }
    db
}

/// The oracle: each op applied on its own through the table's three
/// mutations, stopping at the first one refused.
fn replay(db: &mut Database, ops: &[DbOp]) -> Result<()> {
    for op in ops {
        let table = db.table_mut(op.relation())?;
        match op {
            DbOp::Insert { tuple, .. } => table.insert(tuple.clone())?,
            DbOp::Delete { key, .. } => table.delete(key).map(|_| ())?,
            DbOp::Replace { old_key, tuple, .. } => {
                table.replace(old_key, tuple.clone()).map(|_| ())?
            }
        }
    }
    Ok(())
}

/// Rows and index definitions of `db` as checkpoint bytes, the version (a
/// replay through `table_mut` moves it per op) left out.
fn image(db: &Database) -> String {
    let mut snapshot = DatabaseSnapshot::capture_full(db);
    snapshot.version = 0;
    penguin_vo::obs::json::encode(&snapshot)
}

/// Every secondary index of `got` answers as `want`'s does, probed with the
/// indexed values of every row either database or `base` holds (a stale
/// entry answers for a value only the base still carried).
fn assert_same_index_answers(got: &Database, want: &Database, base: &Database, context: &str) {
    for rel in want.relation_names() {
        let (got, want) = (got.table(rel).unwrap(), want.table(rel).unwrap());
        assert_eq!(got.index_attrs(), want.index_attrs(), "{rel} — {context}");
        for attrs in want.index_attrs() {
            let positions = want.schema().indices_of(&attrs).unwrap();
            let rows = (want.scan().chain(got.scan())).chain(base.table(rel).unwrap().scan());
            for row in rows {
                let probe = row.project(&positions);
                assert_eq!(
                    got.find_by_attrs(&attrs, &probe).unwrap(),
                    want.find_by_attrs(&attrs, &probe).unwrap(),
                    "{rel} by {attrs:?} = {probe:?} — {context}"
                );
            }
        }
    }
}

/// A delta through its on-disk spelling and back onto `db`.
fn checkpoint(db: &mut Database, delta: Delta, version: u64) {
    let text = penguin_vo::obs::json::encode(&SnapshotDelta::new(delta, version));
    let decoded: SnapshotDelta = penguin_vo::obs::json::decode(&text).unwrap();
    decoded.apply_to(db).unwrap();
}

/// Install = replay: folding a batch into an overlay and installing its
/// net delta ends where applying the ops one by one to the tables ends —
/// same rows, same index answers — or both refuse with the same words and
/// the install side has touched nothing.
#[test]
fn install_equals_replay_on_random_raw_batches() {
    let mut rng = SmallRng::seed_from_u64(0x1A57);
    let (mut installed, mut refused) = (0usize, 0usize);
    for_each_batch(|schema, db, mut batch, label| {
        let base = indexed(schema, db);
        // every third batch is poisoned: one of its ops arrives twice, or
        // deletes a key nobody holds, or carries a row of the wrong shape
        if rng.gen_bool(0.33) {
            let at = rng.gen_range(0..batch.len());
            let poison = match (rng.gen_range(0..3), &batch[at]) {
                (0, op) => op.clone(),
                (1, op) => DbOp::Delete {
                    relation: op.relation().to_owned(),
                    key: Key::single("nobody"),
                },
                (_, op) => DbOp::Insert {
                    relation: op.relation().to_owned(),
                    tuple: Tuple::raw(vec![Value::Null]),
                },
            };
            batch.insert(at + 1, poison);
        }
        let context = format!("{label}: {batch:#?}");

        let mut oracle = base.clone();
        let replayed = replay(&mut oracle, &batch);
        let mut head = base.clone();
        let mut overlay = DeltaDb::new(&head);
        let folded = overlay.apply_all(batch.clone());
        assert_eq!(
            folded.as_ref().map_err(Error::to_string),
            replayed.as_ref().map_err(Error::to_string),
            "{context}"
        );
        if folded.is_err() {
            // a copy of a delete, or of a re-key, is refused; a copy of an
            // in-place replace is not — so not every poisoned batch lands here
            refused += 1;
            let wrapped = head.apply_all(&batch).unwrap_err();
            assert_eq!(
                wrapped,
                Error::Rolledback(Box::new(replayed.unwrap_err())),
                "{context}"
            );
            assert_eq!(head.version(), base.version(), "{context}");
            assert_eq!(image(&head), image(&base), "{context}");
            return;
        }
        installed += 1;
        let net = overlay.delta().clone();
        let staged = overlay.finish();
        head.install(staged).unwrap();
        let want = image(&oracle);
        assert_eq!(image(&head), want, "{context}");
        assert_same_index_answers(&head, &oracle, &base, &context);
        assert_eq!(head.version(), base.version() + 1, "{context}");
        for rel in head.relation_names() {
            let written = net.relations().any(|(r, _)| r == rel);
            let stamp = if written {
                head.version()
            } else {
                base.table_version(rel)
            };
            assert_eq!(head.table_version(rel), stamp, "{rel} — {context}");
        }

        // the same batch cut in two at any op: a checkpoint of each half's
        // delta, in order, restores what the whole batch installed
        let cut = rng.gen_range(0..batch.len() + 1);
        let mut first = DeltaDb::new(&base);
        first.apply_all(batch[..cut].to_vec()).unwrap();
        let first_delta = first.delta().clone();
        let first = first.finish();
        let mut middle = base.clone();
        middle.install(first).unwrap();
        let mut second = DeltaDb::new(&middle);
        second.apply_all(batch[cut..].to_vec()).unwrap();
        let second = second.delta().clone();
        let mut twice = base.clone();
        checkpoint(&mut twice, first_delta, middle.version());
        checkpoint(&mut twice, second, head.version());
        assert_eq!(image(&twice), want, "cut at {cut}, in order — {context}");
        assert_same_index_answers(&twice, &head, &base, &context);
        assert_eq!(twice.version(), head.version());

        // a key that comes and goes inside a batch installs as a no-op
        // that still stamps its relation
        let rel = batch[0].relation();
        let rs = schema.catalog().relation(rel).unwrap();
        let ghost = Gen::new(schema, 0).orphan(rel);
        let mut overlay = DeltaDb::new(&head);
        overlay
            .apply_all(vec![
                DbOp::Insert {
                    relation: rel.to_owned(),
                    tuple: ghost.clone(),
                },
                DbOp::Delete {
                    relation: rel.to_owned(),
                    key: ghost.key(rs),
                },
            ])
            .unwrap();
        assert_eq!(overlay.delta().len(), 1, "{context}");
        let (staged, version) = (overlay.finish(), head.version());
        head.install(staged).unwrap();
        assert_eq!(image(&head), want, "{context}");
        assert_eq!(head.table_version(rel), version + 1, "{context}");
    });
    assert!(
        installed >= 500 && refused >= 100,
        "{installed} installed, {refused} refused"
    );
}

/// The journal law: an installed batch journals its op list and, for each
/// key whose row it changed, the base's row before and the head's row
/// after — the very allocations the tables hold. A re-key is its old key
/// deleted and its new key upserted; a key that comes and goes inside the
/// batch, and an empty batch, journal no image.
#[test]
fn install_journals_the_rows_it_displaced_and_left() {
    let same = |image: Option<&Tuple>, held: Option<&Tuple>| match (image, held) {
        (Some(image), Some(held)) => image.ptr_eq(held),
        (image, held) => image.is_none() && held.is_none(),
    };
    let (mut installed, mut rekeyed) = (0usize, 0usize);
    for_each_batch(|schema, base, batch, label| {
        // the batch, then one key that comes and goes, its values out of
        // the range the batch's own fresh values come from
        let rel = batch[0].relation().to_owned();
        let rs = schema.catalog().relation(&rel).unwrap();
        let mut gen = Gen::new(schema, 0);
        gen.fresh = 2_000_000;
        let ghost = gen.orphan(&rel);
        let ghost_key = ghost.key(rs);
        let mut ops = batch;
        ops.push(DbOp::Insert {
            relation: rel.clone(),
            tuple: ghost,
        });
        ops.push(DbOp::Delete {
            relation: rel.clone(),
            key: ghost_key.clone(),
        });
        let context = format!("{label}: {ops:#?}");

        let mut head = base.clone();
        let cursor = head.journal_subscribe();
        head.apply_all(&ops).unwrap();
        let read = head.journal_peek(cursor).unwrap();
        head.journal_advance(cursor, read.len()).unwrap();
        let [entry] = &read[..] else {
            panic!("one entry per commit — {context}");
        };
        assert_eq!(entry.ops, ops, "{context}");

        let mut imaged = BTreeSet::new();
        for (rel, images) in &entry.images {
            let (was, is) = (base.table(rel).unwrap(), head.table(rel).unwrap());
            for image in images {
                assert!(image.before.is_some() || image.after.is_some(), "{context}");
                let key = image.key(was.schema());
                let at = format!("{rel} {key} — {context}");
                assert!(same(image.before.as_ref(), was.get(&key)), "{at}");
                assert!(same(image.after.as_ref(), is.get(&key)), "{at}");
                assert!(imaged.insert((rel.clone(), key)), "{at}");
            }
            // in key order
            let keys: Vec<Key> = images.iter().map(|i| i.key(was.schema())).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{rel} — {context}");
        }
        assert!(!imaged.contains(&(rel, ghost_key)), "{context}");
        // every key whose row moved has its image, and only keys the ops
        // name have one
        let mut named = BTreeSet::new();
        for op in &ops {
            let rs = schema.catalog().relation(op.relation()).unwrap();
            let rel = op.relation().to_owned();
            match op {
                DbOp::Insert { tuple, .. } => named.insert((rel, tuple.key(rs))),
                DbOp::Delete { key, .. } => named.insert((rel, key.clone())),
                DbOp::Replace { old_key, tuple, .. } => {
                    let key = tuple.key(rs);
                    rekeyed += usize::from(key != *old_key);
                    named.insert((rel.clone(), old_key.clone()));
                    named.insert((rel, key))
                }
            };
        }
        assert!(imaged.is_subset(&named), "{context}");
        for rel in base.relation_names() {
            let (was, is) = (base.table(rel).unwrap(), head.table(rel).unwrap());
            let keys = (was.scan().map(|t| t.key(was.schema())))
                .chain(is.scan().map(|t| t.key(is.schema())));
            for key in keys {
                if !same(was.get(&key), is.get(&key)) {
                    let at = format!("{rel} {key} moved — {context}");
                    assert!(imaged.contains(&(rel.to_owned(), key)), "{at}");
                }
            }
        }
        installed += 1;

        // an empty batch and an empty change journal nothing
        let version = head.version();
        head.apply_all(&[]).unwrap();
        head.install(DeltaDb::new(&head).finish()).unwrap();
        assert_eq!(head.version(), version, "{context}");
        assert_eq!(head.journal_lag(cursor).unwrap(), 0, "{context}");
    });
    assert!(
        installed >= 500 && rekeyed >= 50,
        "{installed} installed, {rekeyed} re-keys"
    );
}

#[test]
fn safe_steps_alone_never_violate() {
    // the half of the suite that must read "clean" does so because the
    // steps are sound, not because the check is blind
    for (name, schema, db) in fixtures(42) {
        let mut gen = Gen::new(&schema, 0x5AFE);
        let mut overlay = DeltaDb::new(&db);
        for _ in 0..60 {
            let ops = gen.step(&overlay, true);
            lay(&mut overlay, ops);
        }
        assert!(
            overlay.mark() >= 20,
            "{name}: {} ops applied",
            overlay.mark()
        );
        assert_eq!(
            check_database(&schema, &overlay).unwrap(),
            Vec::new(),
            "{name}"
        );
        assert_eq!(
            check_delta(&schema, &overlay).unwrap(),
            Vec::new(),
            "{name}"
        );
    }
}

#[test]
fn permuted_multi_attribute_key_takes_the_primary_key_path() {
    let (_, db) = university_scaled(2, 42);
    let grades = db.table("GRADES").unwrap();
    assert!(
        grades.index_attrs().is_empty(),
        "no secondary index to help"
    );
    let row = grades.scan().nth(5).unwrap();
    let (course_id, ssn) = (row.get(0).clone(), row.get(1).clone());

    // K(GRADES) = (course_id, ssn), asked for as (ssn, course_id)
    // (index probes, fallback scans) of one call
    let lookups = |taken: trace::Capture| {
        let count = |name| taken.count(name);
        let probes = count("relational.index_probes");
        (probes, count("relational.fallback_scans"))
    };
    let (hits, taken) = trace::capture(|| {
        grades.find_by_attrs(
            &["ssn".to_string(), "course_id".to_string()],
            &[ssn.clone(), course_id.clone()],
        )
    });
    assert_eq!(hits.unwrap(), vec![row]);
    assert_eq!(lookups(taken), (1, 0));

    // the same through an overlay that shadows another row of the table
    let mut overlay = DeltaDb::new(&db);
    overlay
        .apply(DbOp::Delete {
            relation: "GRADES".into(),
            key: grades.scan().next().unwrap().key(grades.schema()),
        })
        .unwrap();
    let (keys, taken) = trace::capture(|| {
        (overlay.view("GRADES").unwrap()).keys_by_attrs(
            &["ssn".to_string(), "course_id".to_string()],
            &[ssn.clone(), course_id],
        )
    });
    assert_eq!(keys.unwrap(), vec![row.key(grades.schema())]);
    assert_eq!(lookups(taken), (1, 0));

    // a proper part of the key is not the key: that one scans
    let (by_ssn, taken) = trace::capture(|| grades.find_by_attrs(&["ssn".to_string()], &[ssn]));
    assert!(by_ssn.unwrap().contains(&row));
    assert_eq!(lookups(taken), (0, 1));
}
