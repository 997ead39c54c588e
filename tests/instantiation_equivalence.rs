//! Equivalence harness for the batched instantiation engine: over random
//! databases of every synthetic shape plus the scaled university workload,
//! set-at-a-time `instantiate_all` / `instantiate_many` must produce
//! instance trees *identical* to the tuple-at-a-time legacy path
//! (`assemble` per pivot), with and without secondary indexes.

use penguin_vo::penguin::{seed_ownership_chain, synthetic_schema, SchemaShape};
use penguin_vo::prelude::*;

/// Compare batched against legacy on `db`, then provision every index the
/// plan wants and compare again (both the indexed-probe and the
/// hash-build join paths must agree with the oracle).
fn assert_equivalent(schema: &StructuralSchema, object: &ViewObject, db: &mut Database) {
    let legacy = instantiate_all_legacy(schema, object, db).unwrap();
    let batched = instantiate_all(schema, object, db).unwrap();
    assert_eq!(legacy, batched, "unindexed batched != legacy");

    let plan = plan_object(schema, object, db).unwrap();
    for (rel, attrs) in plan.required_indexes() {
        db.ensure_index(&rel, &attrs).unwrap();
    }
    let indexed = instantiate_all(schema, object, db).unwrap();
    assert_eq!(legacy, indexed, "indexed batched != legacy");
}

/// A random view object over the schema: the full template tree from
/// `R0`, pruned to a random relation subset.
fn random_object(
    schema: &StructuralSchema,
    n: usize,
    rng: &mut SmallRng,
    label: &str,
) -> ViewObject {
    let w = MetricWeights {
        threshold: 0.01,
        ..Default::default()
    };
    let tree = generate_tree(schema, "R0", &w).unwrap();
    let keep: Vec<String> = (1..n)
        .filter(|_| rng.gen_bool(0.7))
        .map(|i| format!("R{i}"))
        .collect();
    let keep_refs: Vec<&str> = keep.iter().map(|s| s.as_str()).collect();
    prune_by_relations(schema, &tree, label, &keep_refs)
        .unwrap_or_else(|_| prune_by_relations(schema, &tree, label, &[]).unwrap())
}

#[test]
fn ownership_chain_random_equivalence() {
    let mut rng = SmallRng::seed_from_u64(0xC0A1);
    for round in 0..8 {
        let n = rng.gen_range(2..6);
        let schema = synthetic_schema(SchemaShape::OwnershipChain, n);
        let mut db = Database::from_schema(schema.catalog());
        seed_ownership_chain(&mut db, n, rng.gen_range_i64(1..4)).unwrap();
        // extra random rows, possibly dangling (no owner up the chain)
        for i in 1..n {
            for _ in 0..rng.gen_range(0..4) {
                let mut row: Vec<Value> =
                    (0..=i).map(|_| rng.gen_range_i64(0..30).into()).collect();
                row.push(format!("extra-{round}").into());
                let _ = db.insert(&format!("R{i}"), row); // key clashes are fine to skip
            }
        }
        let object = random_object(&schema, n, &mut rng, "chain");
        assert_equivalent(&schema, &object, &mut db);
    }
}

#[test]
fn ownership_star_random_equivalence() {
    let mut rng = SmallRng::seed_from_u64(0x57A2);
    for _ in 0..8 {
        let n = rng.gen_range(2..7);
        let schema = synthetic_schema(SchemaShape::OwnershipStar, n);
        let mut db = Database::from_schema(schema.catalog());
        let roots = rng.gen_range_i64(1..5);
        for k in 0..roots {
            db.insert("R0", vec![k.into(), format!("root-{k}").into()])
                .unwrap();
        }
        for i in 1..n {
            for _ in 0..rng.gen_range(0..10) {
                let k0 = rng.gen_range_i64(0..roots + 2); // some dangle
                let ki = rng.gen_range_i64(0..50);
                let _ = db.insert(
                    &format!("R{i}"),
                    vec![k0.into(), ki.into(), format!("leaf-{ki}").into()],
                );
            }
        }
        let object = random_object(&schema, n, &mut rng, "star");
        assert_equivalent(&schema, &object, &mut db);
    }
}

#[test]
fn reference_tree_random_equivalence() {
    let mut rng = SmallRng::seed_from_u64(0x4EF3);
    for _ in 0..8 {
        let n = rng.gen_range(3..8);
        let schema = synthetic_schema(SchemaShape::ReferenceTree, n);
        let mut db = Database::from_schema(schema.catalog());
        for i in 0..n {
            for k in 0..rng.gen_range_i64(0..8) {
                // NULL parents exercise "NULL never connects"
                let parent = if rng.gen_bool(0.2) {
                    Value::Null
                } else {
                    rng.gen_range_i64(0..8).into()
                };
                let _ = db.insert(
                    &format!("R{i}"),
                    vec![k.into(), parent, format!("n{i}-{k}").into()],
                );
            }
        }
        let object = random_object(&schema, n, &mut rng, "reftree");
        assert_equivalent(&schema, &object, &mut db);
    }
}

/// Where the owner's key sits in the owned relation's key decides the
/// access path: `MID(seq, id)` is owned by `TOP(id)` through its *second*
/// key attribute (a secondary index, or a hash build without one);
/// `LOW(id, seq, n)` is owned by `MID` through `(seq, id)`, the attributes
/// that lead its key in the other order (a key range, with or without an
/// index); `TAIL(n, seq, id)` through the two that end its key. Batched,
/// legacy and — through `assert_equivalent` — indexed must agree on all.
#[test]
fn ownership_off_the_leading_key_attribute_equivalence() {
    let schema = StructuralSchemaBuilder::new()
        .relation(
            "R0",
            &[("id", DataType::Int), ("v", DataType::Text)],
            &["id"],
        )
        .relation(
            "MID",
            &[
                ("seq", DataType::Int),
                ("id", DataType::Int),
                ("v", DataType::Text),
            ],
            &["seq", "id"],
        )
        .relation(
            "LOW",
            &[
                ("id", DataType::Int),
                ("seq", DataType::Int),
                ("n", DataType::Int),
            ],
            &["id", "seq", "n"],
        )
        .relation(
            "TAIL",
            &[
                ("n", DataType::Int),
                ("seq", DataType::Int),
                ("id", DataType::Int),
            ],
            &["n", "seq", "id"],
        )
        .owns("own_mid", "R0", &["id"], "MID", &["id"])
        .owns("own_low", "MID", &["seq", "id"], "LOW", &["seq", "id"])
        .owns("own_tail", "MID", &["seq", "id"], "TAIL", &["seq", "id"])
        .build()
        .unwrap();
    let tree = generate_tree(
        &schema,
        "R0",
        &MetricWeights {
            threshold: 0.01,
            ..Default::default()
        },
    )
    .unwrap();
    let object = prune_by_relations(&schema, &tree, "off_key", &["MID", "LOW", "TAIL"]).unwrap();
    let mut rng = SmallRng::seed_from_u64(0x0FF5E7);
    let mut bound = std::collections::BTreeSet::new();
    for _ in 0..8 {
        let mut db = Database::from_schema(schema.catalog());
        for id in 0..rng.gen_range_i64(1..6) {
            db.insert("R0", vec![id.into(), format!("top-{id}").into()])
                .unwrap();
        }
        // few distinct values: shared prefixes, repeats refused, some dangle
        let cell = |rng: &mut SmallRng| Value::Int(rng.gen_range_i64(0..6));
        for _ in 0..rng.gen_range(0..30) {
            let _ = db.insert("MID", vec![cell(&mut rng), cell(&mut rng), "mid".into()]);
            for rel in ["LOW", "TAIL"] {
                let _ = db.insert(rel, (0..3).map(|_| cell(&mut rng)).collect());
            }
        }
        let plan = plan_object(&schema, &object, &db).unwrap();
        // LOW is reached through what leads its key; MID and TAIL are not
        let wanted: Vec<String> = (plan.required_indexes().into_iter())
            .map(|(rel, _)| rel)
            .collect();
        assert_eq!(wanted, ["MID", "TAIL"]);
        assert_equivalent(&schema, &object, &mut db);
        for instance in instantiate_all(&schema, &object, &db).unwrap() {
            let nodes = (1..object.nodes().len()).filter(|&id| !instance.tuples_of(id).is_empty());
            bound.extend(nodes.map(|id| object.node(id).relation.clone()));
        }
    }
    assert_eq!(bound.len(), 3, "every edge bound something: {bound:?}");
}

#[test]
fn university_scaled_equivalence() {
    let mut rng = SmallRng::seed_from_u64(0x0111);
    for _ in 0..4 {
        let scale = rng.gen_range_i64(1..4);
        let seed = rng.next_u64() % 1000;
        let (schema, mut db) = university_scaled(scale, seed);
        // a NULL-linked pivot and a dangling grade keep the edge cases hot
        db.insert(
            "COURSES",
            vec![
                "XX".into(),
                "Detached".into(),
                "graduate".into(),
                Value::Null,
            ],
        )
        .unwrap();
        for object in [
            generate_omega(&schema).unwrap(),
            generate_omega_prime(&schema).unwrap(),
        ] {
            assert_equivalent(&schema, &object, &mut db);
        }
    }
}

#[test]
fn instantiate_many_matches_per_pivot_assemble() {
    let (schema, db) = university_scaled(2, 9);
    let omega = generate_omega(&schema).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xABCD);
    let courses = db.table("COURSES").unwrap();
    let all: Vec<&Tuple> = courses.scan().collect();
    for _ in 0..6 {
        // a random subset of pivots, in random order, with repeats
        let picks: Vec<&Tuple> = (0..rng.gen_range(0..10))
            .map(|_| *rng.choose(&all))
            .collect();
        let batched = instantiate_many(&schema, &omega, &db, &picks).unwrap();
        let oracle: Vec<VoInstance> = picks
            .iter()
            .map(|t| assemble(&schema, &omega, &db, (*t).clone()).unwrap())
            .collect();
        assert_eq!(batched, oracle);
    }
}
