//! Benches A1–A3 — translation throughput of the three view-object update
//! algorithms (VO-CD, VO-CI, VO-R) versus database scale and change kind —
//! plus B2, per-call versus set-at-a-time batched application.
//!
//! Set `VO_BENCH_ONLY=b2` to run only the B2 comparison (the CI guard
//! scrapes its JSON lines for the `snapshot_avoided` counter).

use vo_bench::{banner, emit_measurement, median_time, time, Json, Reporter};
use vo_core::prelude::*;
use vo_penguin::university_scaled;

const RUNS: usize = 11;
/// B2 repeats fewer times: each per-call run at n=1000 re-checks global
/// consistency a thousand times.
const B2_RUNS: usize = 5;

struct Setup {
    schema: StructuralSchema,
    db: Database,
    omega: ViewObject,
    analysis: IslandAnalysis,
    translator: Translator,
}

fn setup(scale: i64) -> Setup {
    let (schema, db) = university_scaled(scale, 42);
    let omega = generate_omega(&schema).unwrap();
    let analysis = analyze(&schema, &omega).unwrap();
    let translator = Translator::permissive(&omega);
    Setup {
        schema,
        db,
        omega,
        analysis,
        translator,
    }
}

/// A fresh root-only course instance (the department exists, so the
/// translation plans exactly one insert).
fn fresh_course(omega: &ViewObject, courses: &RelationSchema, id: &str) -> VoInstance {
    VoInstance {
        object: omega.name().to_owned(),
        root: VoInstanceNode::leaf(
            0,
            Tuple::new(
                courses,
                vec![
                    id.into(),
                    format!("course {id}").into(),
                    "graduate".into(),
                    "dept-0".into(),
                ],
            )
            .unwrap(),
        ),
    }
}

/// Median wall time of `runs` timed executions, each on a fresh clone of
/// `db` prepared *outside* the timed region.
fn median_on_clones(
    runs: usize,
    db: &Database,
    mut f: impl FnMut(&mut Database),
) -> std::time::Duration {
    let mut times: Vec<std::time::Duration> = (0..runs.max(1))
        .map(|_| {
            let mut fresh = db.clone();
            time(|| f(&mut fresh)).1
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// B2 — per-call strict application (one overlay + one global check per
/// request) versus one batch (one overlay + one global check total).
fn bench_b2() {
    banner(
        "B2",
        "per-call vs batched update application (N insertions)",
    );
    for n in [10usize, 100, 1000] {
        let s = setup(4);
        let updater =
            ViewObjectUpdater::new(&s.schema, s.omega.clone(), s.translator.clone()).unwrap();
        let courses = s.db.table("COURSES").unwrap().schema().clone();
        let requests = |n: usize| -> Vec<UpdateRequest> {
            (0..n)
                .map(|i| {
                    UpdateRequest::CompleteInsertion(fresh_course(
                        &s.omega,
                        &courses,
                        &format!("B2-{i}"),
                    ))
                })
                .collect()
        };

        // counter deltas from one untimed run of each variant
        let mut db = s.db.clone();
        let before = vo_relational::stats::snapshot();
        for r in requests(n) {
            updater.apply_request(&s.schema, &mut db, r).unwrap();
        }
        let d_percall = before.delta(&vo_relational::stats::snapshot());
        let mut db = s.db.clone();
        let before = vo_relational::stats::snapshot();
        updater
            .apply_batch(&s.schema, &mut db, requests(n))
            .unwrap();
        let d_batch = before.delta(&vo_relational::stats::snapshot());

        let percall = median_on_clones(B2_RUNS, &s.db, |db| {
            for r in requests(n) {
                updater.apply_request(&s.schema, db, r).unwrap();
            }
        });
        let batched = median_on_clones(B2_RUNS, &s.db, |db| {
            updater.apply_batch(&s.schema, db, requests(n)).unwrap();
        });

        emit_measurement(
            "b2",
            &format!("percall/n{n}"),
            vec![
                ("n", Json::Int(n as i64)),
                (
                    "overlay_created",
                    Json::Int(d_percall.overlay_created as i64),
                ),
                (
                    "snapshot_avoided",
                    Json::Int(d_percall.snapshot_avoided as i64),
                ),
            ],
            percall,
        );
        emit_measurement(
            "b2",
            &format!("batch/n{n}"),
            vec![
                ("n", Json::Int(n as i64)),
                ("overlay_created", Json::Int(d_batch.overlay_created as i64)),
                (
                    "snapshot_avoided",
                    Json::Int(d_batch.snapshot_avoided as i64),
                ),
            ],
            batched,
        );
        println!(
            "{}",
            Json::obj(vec![
                ("bench", Json::str("b2")),
                ("case", Json::str(format!("speedup/n{n}"))),
                (
                    "speedup",
                    Json::Float(
                        (percall.as_secs_f64() / batched.as_secs_f64() * 100.0).round() / 100.0
                    ),
                ),
            ])
            .compact()
        );
    }
}

fn main() {
    let only = std::env::var("VO_BENCH_ONLY").ok();
    if only.as_deref() == Some("b2") {
        bench_b2();
        return;
    }
    let mut t = Reporter::new(
        "A1-A3",
        "update translation throughput (VO-CD, VO-CI, VO-R)",
        "scale",
    );

    for scale in [1i64, 8, 32] {
        let s = setup(scale);
        let pivot =
            s.db.table("COURSES")
                .unwrap()
                .get(&Key::single("C0-0"))
                .unwrap()
                .clone();
        let inst = assemble(&s.schema, &s.omega, &s.db, pivot).unwrap();

        // VO-CD: translate only
        let d = median_time(RUNS, || {
            translate_complete_deletion(
                &s.schema,
                &s.omega,
                &s.analysis,
                &s.translator,
                &s.db,
                &inst,
            )
            .unwrap()
        });
        t.measure("vo_cd/translate", &scale.to_string(), d);

        // VO-CD: translate + apply + undo (round trip on a clone-free path)
        let ops = translate_complete_deletion(
            &s.schema,
            &s.omega,
            &s.analysis,
            &s.translator,
            &s.db,
            &inst,
        )
        .unwrap();
        let mut db = s.db.clone();
        let d = median_time(RUNS, || {
            let undo: Vec<DbOp> = ops.iter().map(|op| db.apply(op).unwrap()).collect();
            for u in undo.iter().rev() {
                db.apply(u).unwrap();
            }
        });
        t.measure("vo_cd/apply", &scale.to_string(), d);

        // VO-CI: re-insert the (deleted) instance
        let mut deleted = s.db.clone();
        deleted.apply_all(&ops).unwrap();
        let d = median_time(RUNS, || {
            translate_complete_insertion(
                &s.schema,
                &s.omega,
                &s.analysis,
                &s.translator,
                &deleted,
                &inst,
            )
            .unwrap()
        });
        t.measure("vo_ci/translate", &scale.to_string(), d);

        // VO-R: non-key change and key change
        let courses = s.db.table("COURSES").unwrap().schema().clone();
        let mut new_title = inst.clone();
        new_title.root.tuple = new_title
            .root
            .tuple
            .with_named(&courses, "title", "renamed".into())
            .unwrap();
        let d = median_time(RUNS, || {
            translate_replacement(
                &s.schema,
                &s.omega,
                &s.analysis,
                &s.translator,
                &s.db,
                &inst,
                new_title.clone(),
            )
            .unwrap()
        });
        t.measure("vo_r/nonkey", &scale.to_string(), d);

        let mut new_key = inst.clone();
        new_key.root.tuple = new_key
            .root
            .tuple
            .with_named(&courses, "course_id", "C0-X".into())
            .unwrap();
        let d = median_time(RUNS, || {
            translate_replacement(
                &s.schema,
                &s.omega,
                &s.analysis,
                &s.translator,
                &s.db,
                &inst,
                new_key.clone(),
            )
            .unwrap()
        });
        t.measure("vo_r/key", &scale.to_string(), d);
    }

    // delete + re-insert through the whole pipeline (one full consistency
    // check per update)
    let s = setup(8);
    let updater = ViewObjectUpdater::new(&s.schema, s.omega.clone(), s.translator.clone()).unwrap();
    let pivot =
        s.db.table("COURSES")
            .unwrap()
            .get(&Key::single("C0-0"))
            .unwrap()
            .clone();
    let inst = assemble(&s.schema, &s.omega, &s.db, pivot).unwrap();
    let mut db = s.db.clone();
    let d = median_time(RUNS, || {
        updater.delete(&s.schema, &mut db, inst.clone()).unwrap();
        updater.insert(&s.schema, &mut db, inst.clone()).unwrap();
    });
    t.measure("pipeline/strict_roundtrip", "8", d);

    t.finish();
    bench_b2();
}
