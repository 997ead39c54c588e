//! The end-to-end update pipeline: steps 1–3 grow an overlay and its
//! operation list, step 4 checks the overlay against the structural model,
//! and only a consistent overlay is *installed* — as one net delta, so the
//! base ends up holding exactly the requested objects or is left
//! untouched. Every refusal happens against the overlay; nothing reaches a
//! table that could need undoing.
//!
//! There is one pipeline body, and it is set-at-a-time: a whole
//! [`UpdateBatch`] is translated over *one* shared overlay (the overlay
//! borrows the base — no snapshot), each translator sees the ops planned
//! by earlier requests, global validation runs once at the end — over the
//! overlay's writes, not the database ([`check_delta`]) — and the checked
//! overlay is the commit ([`Database::install`]). On failure the error
//! carries the offending request's index and kind, and the database is
//! untouched. [`ViewObjectUpdater::apply_batch`] plans and installs,
//! [`ViewObjectUpdater::apply_request`] is the one-request batch, and
//! [`ViewObjectUpdater::prepare_batch`] plans against a pinned snapshot
//! for [`ViewObjectUpdater::commit_prepared`] to re-fold, re-check and
//! install at the head.
//!
//! All return [`UpdateOutcome`]s describing what was translated; the
//! `Vec<DbOp>`-returning methods are sugar over them.

use crate::instance::VoInstance;
use crate::island::{analyze, IslandAnalysis};
use crate::object::ViewObject;
use crate::translator::Translator;
use crate::update::delete::translate_complete_deletion_checked;
use crate::update::error::{UpdateError, UpdateResult, UpdateStep};
use crate::update::insert::translate_complete_insertion_checked;
use crate::update::replace::translate_replacement_checked;
use crate::update::validate::{check_shape, Links};
use crate::update::UpdateRequest;
use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// Tallies over an operation list; cheap to compute, handy for logs,
/// benches and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Number of `Insert` ops.
    pub inserts: usize,
    /// Number of `Delete` ops.
    pub deletes: usize,
    /// Number of `Replace` ops.
    pub replaces: usize,
    /// Number of distinct relations the ops touch.
    pub relations_touched: usize,
}

impl UpdateStats {
    /// Tally `ops`.
    pub fn from_ops(ops: &[DbOp]) -> Self {
        let mut stats = UpdateStats::default();
        let mut relations = std::collections::BTreeSet::new();
        for op in ops {
            match op {
                DbOp::Insert { .. } => stats.inserts += 1,
                DbOp::Delete { .. } => stats.deletes += 1,
                DbOp::Replace { .. } => stats.replaces += 1,
            }
            relations.insert(op.relation());
        }
        stats.relations_touched = relations.len();
        stats
    }

    /// Total number of ops.
    pub fn total(&self) -> usize {
        self.inserts + self.deletes + self.replaces
    }
}

impl std::ops::Add for UpdateStats {
    type Output = UpdateStats;
    fn add(self, rhs: UpdateStats) -> UpdateStats {
        UpdateStats {
            inserts: self.inserts + rhs.inserts,
            deletes: self.deletes + rhs.deletes,
            replaces: self.replaces + rhs.replaces,
            // upper bound: per-request relation sets may overlap
            relations_touched: self.relations_touched.max(rhs.relations_touched),
        }
    }
}

/// What translating one request produced: the ops, the pipeline steps
/// that ran, and summary statistics.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// Kind label of the request (`"complete-insertion"`, …).
    pub request_kind: &'static str,
    /// The database operations implementing the request, in application
    /// order.
    pub ops: Vec<DbOp>,
    /// The pipeline steps that ran, in order.
    pub steps: Vec<UpdateStep>,
    /// Tallies over `ops`.
    pub stats: UpdateStats,
}

impl UpdateOutcome {
    fn new(request_kind: &'static str, ops: Vec<DbOp>, steps: Vec<UpdateStep>) -> Self {
        let stats = UpdateStats::from_ops(&ops);
        UpdateOutcome {
            request_kind,
            ops,
            steps,
            stats,
        }
    }
}

/// What applying a whole batch produced: one [`UpdateOutcome`] per
/// request, in request order, plus batch-level tallies.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-request outcomes, in request order.
    pub outcomes: Vec<UpdateOutcome>,
    /// Total ops across all requests.
    pub total_ops: usize,
    /// Tallies over the whole batch's ops.
    pub stats: UpdateStats,
}

impl BatchOutcome {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// All ops of the batch, flattened in application order.
    pub fn all_ops(&self) -> impl Iterator<Item = &DbOp> {
        self.outcomes.iter().flat_map(|o| o.ops.iter())
    }

    /// The result of a one-request batch, as the result of that request:
    /// its one outcome, or the error naming the request's kind without a
    /// batch position.
    pub fn single(
        kind: &'static str,
        result: UpdateResult<BatchOutcome>,
    ) -> UpdateResult<UpdateOutcome> {
        let mut batch = result.map_err(|e| UpdateError {
            request_kind: Some(kind),
            request_index: None,
            ..e
        })?;
        Ok(batch
            .outcomes
            .pop()
            .expect("one request in, one outcome out"))
    }
}

/// A batch translated against a pinned snapshot, awaiting
/// first-committer-wins validation at the head (see
/// [`ViewObjectUpdater::prepare_batch`] /
/// [`ViewObjectUpdater::commit_prepared`]).
///
/// The prepared batch is self-contained — it borrows nothing from the
/// snapshot it was planned over — so it can cross threads: prepare on a
/// reader, commit wherever the head writer lives.
#[derive(Debug, Clone)]
pub struct PreparedBatch {
    /// Per-request outcomes, in request order (the global check against
    /// the overlay is their last step).
    pub outcomes: Vec<UpdateOutcome>,
    /// All planned ops, flattened in application order.
    pub ops: Vec<DbOp>,
    /// Tallies over `ops`.
    pub stats: UpdateStats,
    /// The version of the base the batch was translated against.
    pub base_version: u64,
    /// Relations the translation read or wrote — the set validated
    /// against `base_version` at commit.
    pub touched: std::collections::BTreeSet<String>,
}

impl PreparedBatch {
    /// Total planned ops.
    pub fn total_ops(&self) -> usize {
        self.ops.len()
    }
}

/// What [`ViewObjectUpdater::plan`] hands its two callers: the checked
/// overlay — still borrowing the base it was planned over — and what was
/// learnt while growing it.
struct Planned<'b> {
    outcomes: Vec<UpdateOutcome>,
    stats: UpdateStats,
    touched: std::collections::BTreeSet<String>,
    overlay: DeltaDb<'b>,
}

/// An ordered set of update requests translated over one shared overlay
/// and applied as a single transaction. Build with the fluent helpers or
/// collect from an iterator of [`UpdateRequest`]s.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    requests: Vec<UpdateRequest>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Append a request.
    pub fn push(&mut self, request: UpdateRequest) {
        self.requests.push(request);
    }

    /// Builder-style [`UpdateBatch::push`].
    pub fn with(mut self, request: UpdateRequest) -> Self {
        self.push(request);
        self
    }

    /// Append a complete insertion.
    pub fn insert(self, instance: VoInstance) -> Self {
        self.with(UpdateRequest::CompleteInsertion(instance))
    }

    /// Append a complete deletion.
    pub fn delete(self, instance: VoInstance) -> Self {
        self.with(UpdateRequest::CompleteDeletion(instance))
    }

    /// Append a replacement.
    pub fn replace(self, old: VoInstance, new: VoInstance) -> Self {
        self.with(UpdateRequest::Replacement { old, new })
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when no requests have been queued.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The queued requests.
    pub fn requests(&self) -> &[UpdateRequest] {
        &self.requests
    }
}

impl From<Vec<UpdateRequest>> for UpdateBatch {
    fn from(requests: Vec<UpdateRequest>) -> Self {
        UpdateBatch { requests }
    }
}

impl FromIterator<UpdateRequest> for UpdateBatch {
    fn from_iter<I: IntoIterator<Item = UpdateRequest>>(iter: I) -> Self {
        UpdateBatch {
            requests: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for UpdateBatch {
    type Item = UpdateRequest;
    type IntoIter = std::vec::IntoIter<UpdateRequest>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.into_iter()
    }
}

/// Bundles a view object with its island analysis and translator; the
/// analysis is computed once at construction (the paper chooses the
/// translator at view-object generation time for the same reason: all the
/// expensive reasoning happens once, every update reuses it).
#[derive(Debug, Clone)]
pub struct ViewObjectUpdater {
    object: ViewObject,
    analysis: IslandAnalysis,
    translator: Translator,
    /// The object's direct edges, resolved for steps 1–2.
    links: Links,
}

impl ViewObjectUpdater {
    /// Build an updater; computes the island analysis.
    pub fn new(
        schema: &StructuralSchema,
        object: ViewObject,
        translator: Translator,
    ) -> Result<Self> {
        let analysis = analyze(schema, &object)?;
        let links = Links::new(schema, &object)?;
        Ok(ViewObjectUpdater {
            object,
            analysis,
            translator,
            links,
        })
    }

    /// The object.
    pub fn object(&self) -> &ViewObject {
        &self.object
    }

    /// The island analysis.
    pub fn analysis(&self) -> &IslandAnalysis {
        &self.analysis
    }

    /// The translator.
    pub fn translator(&self) -> &Translator {
        &self.translator
    }

    /// Steps 1–3 for one request, planning into the shared overlay `rec`.
    /// Returns the steps that ran; the ops land in the overlay's log. Each
    /// step runs once: step 3 is the translators' `_checked` halves, which
    /// take what steps 1–2 established instead of establishing it again.
    fn translate_request_into(
        &self,
        schema: &StructuralSchema,
        rec: &mut DeltaDb<'_>,
        request: UpdateRequest,
    ) -> UpdateResult<Vec<UpdateStep>> {
        let kind = request.kind();
        let mut steps = Vec::with_capacity(3);

        // step 1 — local validation
        let instance = match &request {
            UpdateRequest::CompleteInsertion(inst) => inst,
            UpdateRequest::CompleteDeletion(inst) => inst,
            UpdateRequest::Replacement { old, .. } => old,
        };
        let sp = step_span("core.update.validate", "Validate", instance.size());
        let validated = check_shape(schema, &self.object, instance)
            .and_then(|v| self.links.check_connected(instance).map(|()| v))
            .map_err(|e| UpdateError::new(UpdateStep::Validate, e).with_kind(kind))?;
        drop(sp);
        steps.push(UpdateStep::Validate);

        // step 2 — propagation within the view object (replacements only:
        // the replacing instance's inherited linking attributes must
        // follow its ancestors before translation compares trees); what
        // step 3 is handed for a replacement is the validation of the
        // propagated replacing instance
        let (request, validated) = match request {
            UpdateRequest::Replacement { old, new } => {
                let sp = step_span("core.update.propagate", "Propagate", new.size());
                let (new, validated) = (self.links.replacing(schema, &self.object, new))
                    .map_err(|e| UpdateError::new(UpdateStep::Propagate, e).with_kind(kind))?;
                drop(sp);
                steps.push(UpdateStep::Propagate);
                (UpdateRequest::Replacement { old, new }, validated)
            }
            other => (other, validated),
        };

        // step 3 — translation into database operations
        let mut sp = vo_obs::trace::span("penguin.translate");
        if sp.is_recording() {
            sp.field(
                "label",
                Json::str(format!("Translate[{}]", algorithm(kind))),
            );
            sp.field("object", Json::str(self.object.name()));
            sp.field("kind", Json::str(kind));
            sp.field(
                "island_relations",
                Json::Int(self.analysis.island_relations.len() as i64),
            );
            sp.field(
                "peninsulas",
                Json::Int(self.analysis.peninsulas.len() as i64),
            );
        }
        let before = rec.mark();
        let translated = match request {
            UpdateRequest::CompleteInsertion(inst) => translate_complete_insertion_checked(
                schema,
                &self.object,
                &self.analysis,
                &self.translator,
                rec,
                &inst,
                &validated,
            ),
            UpdateRequest::CompleteDeletion(inst) => translate_complete_deletion_checked(
                schema,
                &self.object,
                &self.analysis,
                &self.translator,
                rec,
                &inst,
                &validated,
            ),
            UpdateRequest::Replacement { old, new } => translate_replacement_checked(
                schema,
                &self.object,
                &self.analysis,
                &self.translator,
                rec,
                &old,
                &new,
                &validated,
            ),
        };
        if sp.is_recording() {
            let ops = rec.ops_since(before).len() as i64;
            sp.field("ops", Json::Int(ops));
            sp.field("rows_out", Json::Int(ops));
        }
        translated.map_err(|e| UpdateError::new(UpdateStep::Translate, e).with_kind(kind))?;
        steps.push(UpdateStep::Translate);
        Ok(steps)
    }

    /// Translate a request into an [`UpdateOutcome`] without applying it.
    pub fn translate_request(
        &self,
        schema: &StructuralSchema,
        db: &Database,
        request: UpdateRequest,
    ) -> UpdateResult<UpdateOutcome> {
        let kind = request.kind();
        let mut rec = DeltaDb::new(db);
        let steps = self.translate_request_into(schema, &mut rec, request)?;
        Ok(UpdateOutcome::new(kind, rec.into_ops(), steps))
    }

    /// The one pipeline body (steps 1–4, nothing applied): translate every
    /// request over one shared overlay of `base`, capture the conflict
    /// set, then run the global check over the overlay's writes. A
    /// violation is attributed to the request that last wrote the
    /// offending tuple when one did. The checked overlay comes back with
    /// the outcomes: installing it is the commit.
    ///
    /// The conflict set is captured *before* the global check runs, so it
    /// covers exactly the relations the translators consulted: the check
    /// also probes the parents and dependents of what was written, and a
    /// commit that moved only those is re-checked at the head by
    /// [`ViewObjectUpdater::commit_prepared`], not refused as a conflict.
    ///
    /// The check is [`check_delta`], at the cost of the batch's writes.
    /// What it guarantees is that an accepted update never takes a
    /// consistent base to an inconsistent one; auditing a base corrupted
    /// out of band (`Database::table_mut`, raw SQL DML) is
    /// `check_consistency()`'s job — a full scan — not every writer's.
    fn plan<'b>(
        &self,
        schema: &StructuralSchema,
        base: &'b Database,
        batch: UpdateBatch,
    ) -> UpdateResult<Planned<'b>> {
        let mut rec = DeltaDb::new(base);
        let mut outcomes = Vec::with_capacity(batch.len());
        for (i, request) in batch.into_iter().enumerate() {
            let kind = request.kind();
            let mut sp = vo_obs::trace::span("core.update.request");
            if sp.is_recording() {
                sp.field(
                    "label",
                    Json::str(format!("Request {i} [{}]", algorithm(kind))),
                );
            }
            let mark = rec.mark();
            let steps = self
                .translate_request_into(schema, &mut rec, request)
                .map_err(|e| e.at_request(i))?;
            let ops = rec.ops_since(mark).to_vec();
            if sp.is_recording() {
                sp.field("rows_out", Json::Int(ops.len() as i64));
            }
            outcomes.push(UpdateOutcome::new(kind, ops, steps));
        }
        let touched = rec.touched_relations();
        let mut sp = step_span("core.update.check", "GlobalCheck", rec.delta().len());
        let violations =
            check_delta(schema, &rec).map_err(|e| UpdateError::new(UpdateStep::GlobalCheck, e))?;
        if sp.is_recording() {
            sp.field("rows_out", Json::Int(violations.len() as i64));
        }
        drop(sp);
        // the scan stays the specification: on a consistent base the two
        // must agree, which makes every update a debug build plans an
        // equivalence case
        #[cfg(debug_assertions)]
        if check_database(schema, base).is_ok_and(|v| v.is_empty()) {
            let scan = check_database(schema, &rec).expect("it just scanned the base");
            assert_eq!(violations, scan, "check_delta disagrees with the scan");
        }
        if let Some(first) = violations.first() {
            let mut err = UpdateError::new(
                UpdateStep::GlobalCheck,
                Error::Rolledback(Box::new(violations_error(&violations))),
            );
            if let Some(i) = attribute_violation(&rec, first, &outcomes) {
                err = err.at_request(i).with_kind(outcomes[i].request_kind);
            }
            return Err(err);
        }
        for outcome in &mut outcomes {
            outcome.steps.push(UpdateStep::GlobalCheck);
        }
        Ok(Planned {
            outcomes,
            stats: UpdateStats::from_ops(rec.ops_since(0)),
            touched,
            overlay: rec,
        })
    }

    /// Translate and apply one request — a one-request
    /// [`ViewObjectUpdater::apply_batch`], so the database ends
    /// structurally consistent or nothing is applied.
    pub fn apply_request(
        &self,
        schema: &StructuralSchema,
        db: &mut Database,
        request: UpdateRequest,
    ) -> UpdateResult<UpdateOutcome> {
        let kind = request.kind();
        BatchOutcome::single(kind, self.apply_batch(schema, db, vec![request]))
    }

    /// Set-at-a-time translation and application (the paper's translators,
    /// run back-to-back over one shared overlay).
    ///
    /// The whole batch shares a single [`DeltaDb`] over the borrowed base
    /// database: request *i*'s translator sees the ops planned by requests
    /// *0..i*, global validation runs once over the final overlay, and
    /// that overlay's net delta is installed as one transaction. On any
    /// failure the database is untouched and the returned [`UpdateError`]
    /// names the failing step plus — when attributable — the request
    /// index.
    ///
    /// Unlike a sequence of [`ViewObjectUpdater::apply_request`] calls,
    /// intermediate states need not be consistent: only the final overlay
    /// is checked, so a batch can succeed where the same requests applied
    /// one-by-one would fail mid-stream.
    pub fn apply_batch(
        &self,
        schema: &StructuralSchema,
        db: &mut Database,
        batch: impl Into<UpdateBatch>,
    ) -> UpdateResult<BatchOutcome> {
        let batch = batch.into();
        let mut sp = self.batch_span(batch.len());
        let Planned {
            outcomes,
            stats,
            overlay,
            ..
        } = self.plan(schema, db, batch)?;
        let total_ops = overlay.mark();
        db.install(overlay.finish())
            .map_err(|e| UpdateError::new(UpdateStep::GlobalCheck, e))?;
        if sp.is_recording() {
            sp.field("rows_out", Json::Int(total_ops as i64));
        }
        Ok(BatchOutcome {
            total_ops,
            outcomes,
            stats,
        })
    }

    /// The span of one batch: the root of its `EXPLAIN ANALYZE`, above a
    /// node per request (its validation, propagation and translation), the
    /// global check and the install.
    fn batch_span(&self, requests: usize) -> vo_obs::trace::SpanGuard {
        let mut sp = vo_obs::trace::span("core.update.batch");
        if sp.is_recording() {
            sp.field("label", Json::str(format!("Batch({})", self.object.name())));
            sp.field("rows_in", Json::Int(requests as i64));
        }
        sp
    }

    /// Steps 1–4 of [`ViewObjectUpdater::apply_batch`] against a *pinned*
    /// base (an MVCC snapshot), without applying anything: the result
    /// records what the translation depended on — the base version plus
    /// the relations read or written — and commits later through
    /// [`ViewObjectUpdater::commit_prepared`] under first-committer-wins
    /// validation. The global check here is fail-fast feedback; soundness
    /// rests on `commit_prepared` running the same check at the head.
    pub fn prepare_batch(
        &self,
        schema: &StructuralSchema,
        base: &Database,
        batch: impl Into<UpdateBatch>,
    ) -> UpdateResult<PreparedBatch> {
        let batch = batch.into();
        let mut sp = self.batch_span(batch.len());
        let Planned {
            outcomes,
            stats,
            touched,
            overlay,
        } = self.plan(schema, base, batch)?;
        if sp.is_recording() {
            sp.field("rows_out", Json::Int(overlay.mark() as i64));
        }
        Ok(PreparedBatch {
            outcomes,
            ops: overlay.into_ops(),
            stats,
            base_version: base.version(),
            touched,
        })
    }

    /// Commit a [`PreparedBatch`] at the head under first-committer-wins
    /// validation. Fails with [`UpdateStep::Commit`] (carrying
    /// [`Error::Conflict`]) when any relation the preparation touched has
    /// changed since its base version — the caller re-prepares against a
    /// fresh snapshot and retries. On a clean validation the ops are
    /// folded onto an overlay of the head — the prepared batch carries ops,
    /// not the delta it was checked as, because a delta holds its base's
    /// pre-images only by reference and the head may have moved in
    /// relations the translators never read — and step 4 runs again there,
    /// the same [`check_delta`] as at prepare time, unconditionally: its
    /// probes read parents and dependents in relations the conflict set
    /// does not guard, and at a cost proportional to the ops a "skip when
    /// nothing moved" branch would be a second path bought for
    /// microseconds. A violation fails the commit at
    /// [`UpdateStep::GlobalCheck`] with nothing installed; otherwise that
    /// overlay is installed, its op list — the allocation `prepared`
    /// carried — moving into the journal.
    pub fn commit_prepared(
        &self,
        schema: &StructuralSchema,
        db: &mut Database,
        prepared: PreparedBatch,
    ) -> UpdateResult<BatchOutcome> {
        db.check_unchanged(
            prepared.touched.iter().map(String::as_str),
            prepared.base_version,
        )
        .map_err(|e| UpdateError::new(UpdateStep::Commit, e))?;
        let PreparedBatch {
            mut outcomes,
            ops,
            stats,
            ..
        } = prepared;
        let total_ops = ops.len();
        let mut head = DeltaDb::new(db);
        head.apply_all(ops)
            .and_then(|()| check_delta(schema, &head))
            .and_then(|violations| {
                if violations.is_empty() {
                    Ok(())
                } else {
                    Err(violations_error(&violations))
                }
            })
            .map_err(|e| {
                UpdateError::new(UpdateStep::GlobalCheck, Error::Rolledback(Box::new(e)))
            })?;
        db.install(head.finish())
            .map_err(|e| UpdateError::new(UpdateStep::GlobalCheck, e))?;
        for outcome in &mut outcomes {
            outcome.steps.push(UpdateStep::Commit);
        }
        Ok(BatchOutcome {
            total_ops,
            outcomes,
            stats,
        })
    }

    /// Translate a request into database operations without applying them.
    pub fn translate(
        &self,
        schema: &StructuralSchema,
        db: &Database,
        request: UpdateRequest,
    ) -> Result<Vec<DbOp>> {
        self.translate_request(schema, db, request)
            .map(|o| o.ops)
            .map_err(Error::from)
    }

    /// Translate and apply a request transactionally: nothing is
    /// installed unless the database would end structurally consistent.
    pub fn apply(
        &self,
        schema: &StructuralSchema,
        db: &mut Database,
        request: UpdateRequest,
    ) -> Result<Vec<DbOp>> {
        self.apply_request(schema, db, request)
            .map(|o| o.ops)
            .map_err(Error::from)
    }

    /// Convenience: insert an instance.
    pub fn insert(
        &self,
        schema: &StructuralSchema,
        db: &mut Database,
        instance: VoInstance,
    ) -> Result<Vec<DbOp>> {
        self.apply(schema, db, UpdateRequest::CompleteInsertion(instance))
    }

    /// Convenience: delete an instance.
    pub fn delete(
        &self,
        schema: &StructuralSchema,
        db: &mut Database,
        instance: VoInstance,
    ) -> Result<Vec<DbOp>> {
        self.apply(schema, db, UpdateRequest::CompleteDeletion(instance))
    }

    /// Convenience: replace `old` with `new`.
    pub fn replace(
        &self,
        schema: &StructuralSchema,
        db: &mut Database,
        old: VoInstance,
        new: VoInstance,
    ) -> Result<Vec<DbOp>> {
        self.apply(schema, db, UpdateRequest::Replacement { old, new })
    }
}

/// The error a failed global check reports (`violations` is non-empty).
fn violations_error(violations: &[Violation]) -> Error {
    Error::ConstraintViolation(format!(
        "{} structural violation(s), first: {}",
        violations.len(),
        violations[0]
    ))
}

/// Find the last request whose ops touch the violation's tuple — "last"
/// because the most recent writer of a tuple is the request that left it
/// in its final (violating) state. `None` when the tuple pre-existed and
/// no request wrote it (e.g. a deletion elsewhere left it dangling).
fn attribute_violation(
    rec: &DeltaDb<'_>,
    violation: &Violation,
    outcomes: &[UpdateOutcome],
) -> Option<usize> {
    let (relation, key) = violation.target();
    let rel_schema = rec.view(relation).ok()?.schema();
    let mut hit = None;
    for (i, outcome) in outcomes.iter().enumerate() {
        for op in &outcome.ops {
            if op.relation() != relation {
                continue;
            }
            let touches = match op {
                DbOp::Insert { tuple, .. } => &tuple.key(rel_schema) == key,
                DbOp::Replace { old_key, tuple, .. } => {
                    old_key == key || &tuple.key(rel_schema) == key
                }
                DbOp::Delete { key: k, .. } => k == key,
            };
            if touches {
                hit = Some(i);
            }
        }
    }
    hit
}

/// The paper's name for the algorithm that translates a request of
/// `kind` ([`UpdateRequest::kind`]).
fn algorithm(kind: &str) -> &'static str {
    match kind {
        "complete-insertion" => "VO-CI",
        "complete-deletion" => "VO-CD",
        _ => "VO-R",
    }
}

/// A labelled span of one step of §5, over `rows_in` tuples.
fn step_span(name: &'static str, label: &str, rows_in: usize) -> vo_obs::trace::SpanGuard {
    let mut sp = vo_obs::trace::span(name);
    if sp.is_recording() {
        sp.field("label", Json::str(label));
        sp.field("rows_in", Json::Int(rows_in as i64));
    }
    sp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::assemble;
    use crate::treegen::generate_omega;
    use crate::university::university_database;

    /// A capture of one batch renders as `EXPLAIN ANALYZE` of it: the
    /// batch above a node per request — its validation, propagation and
    /// translation, by the paper's name for the algorithm — then the global
    /// check and the install, each counting what it was handed and made.
    #[test]
    fn a_captured_batch_explains_itself_step_by_step() {
        let (schema, mut db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        let courses = db.table("COURSES").unwrap().schema().clone();
        let instance = |db: &Database, id: &str| {
            let pivot = db.table("COURSES").unwrap().get(&Key::single(id)).unwrap();
            assemble(&schema, &omega, db, pivot.clone()).unwrap()
        };
        let old = instance(&db, "CS101");
        let mut new = old.clone();
        new.root.tuple = (new.root.tuple)
            .with_named(&courses, "title", "Programming".into())
            .unwrap();
        let gone = instance(&db, "EE282");
        let sizes = [old.size(), gone.size(), gone.size()];
        let batch = vec![
            UpdateRequest::Replacement { old, new },
            UpdateRequest::CompleteDeletion(gone.clone()),
            UpdateRequest::CompleteInsertion(gone),
        ];
        let (outcome, taken) =
            vo_obs::trace::capture(|| updater.apply_batch(&schema, &mut db, batch).unwrap());
        let explained = ProfileNode::from_spans(&taken.spans).unwrap();
        let labels = |node: &ProfileNode| -> Vec<String> {
            node.children.iter().map(|c| c.label.clone()).collect()
        };
        assert_eq!(explained.label, format!("Batch({})", omega.name()));
        assert_eq!(
            (explained.rows_in, explained.rows_out),
            (3, outcome.total_ops as u64)
        );
        assert_eq!(
            labels(&explained),
            [
                "Request 0 [VO-R]",
                "Request 1 [VO-CD]",
                "Request 2 [VO-CI]",
                "GlobalCheck",
                "Install"
            ]
        );
        let steps: [&[&str]; 3] = [
            &["Validate", "Propagate", "Translate[VO-R]"],
            &["Validate", "Translate[VO-CD]"],
            &["Validate", "Translate[VO-CI]"],
        ];
        for (i, request) in explained.children[..3].iter().enumerate() {
            let ops = outcome.outcomes[i].ops.len() as u64;
            assert_eq!(labels(request), steps[i], "{}", explained.render());
            assert_eq!(request.rows_out, ops);
            assert_eq!(request.children[0].rows_in, sizes[i] as u64);
            assert_eq!(request.children.last().unwrap().rows_out, ops);
        }
        let (check, install) = (&explained.children[3], &explained.children[4]);
        assert_eq!(check.rows_out, 0, "no violation");
        assert!(check.rows_in > 0 && install.rows_in == check.rows_in);
    }

    #[test]
    fn roundtrip_delete_then_reinsert_restores_database() {
        let (schema, mut db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("EE282"))
            .unwrap()
            .clone();
        let inst = assemble(&schema, &omega, &db, t).unwrap();
        let before = db.total_tuples();
        updater.delete(&schema, &mut db, inst.clone()).unwrap();
        assert!(db.total_tuples() < before);
        updater.insert(&schema, &mut db, inst).unwrap();
        assert_eq!(db.total_tuples(), before);
        assert!(check_database(&schema, &db).unwrap().is_empty());
    }

    #[test]
    fn replacement_equals_delete_plus_insert_for_disjoint_keys() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        let courses = db.table("COURSES").unwrap().schema().clone();

        // path A: replacement
        let mut db_a = db.clone();
        let old = assemble(
            &schema,
            &omega,
            &db_a,
            db_a.table("COURSES")
                .unwrap()
                .get(&Key::single("EE282"))
                .unwrap()
                .clone(),
        )
        .unwrap();
        let mut new = old.clone();
        new.root.tuple = new
            .root
            .tuple
            .with_named(&courses, "course_id", "EE500".into())
            .unwrap();
        updater
            .replace(&schema, &mut db_a, old.clone(), new.clone())
            .unwrap();

        // path B: delete then insert (with links propagated the same way)
        let mut db_b = db.clone();
        updater.delete(&schema, &mut db_b, old).unwrap();
        let fixed = crate::update::propagate::propagate_links(&schema, &omega, new).unwrap();
        updater.insert(&schema, &mut db_b, fixed).unwrap();

        for rel in db.relation_names() {
            let a: Vec<_> = db_a.table(rel).unwrap().scan().cloned().collect();
            let b: Vec<_> = db_b.table(rel).unwrap().scan().cloned().collect();
            assert_eq!(a, b, "relation {rel} differs between paths");
        }
    }

    #[test]
    fn global_check_rolls_back_inconsistent_outcomes() {
        let (schema, mut db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let mut translator = Translator::permissive(&omega);
        // forbid the out-of-object repairs that would fix dependencies
        translator.allow_out_of_object_repairs = false;
        let updater = ViewObjectUpdater::new(&schema, omega.clone(), translator).unwrap();
        // build an instance whose new student has no PEOPLE row
        let courses = db.table("COURSES").unwrap().schema().clone();
        let grades = db.table("GRADES").unwrap().schema().clone();
        let student = db.table("STUDENT").unwrap().schema().clone();
        let gid = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "GRADES")
            .unwrap()
            .id;
        let sid = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "STUDENT")
            .unwrap()
            .id;
        let mut b = VoInstance::builder(
            &omega,
            Tuple::new(
                &courses,
                vec![
                    "CS700".into(),
                    "X".into(),
                    "graduate".into(),
                    "Computer Science".into(),
                ],
            )
            .unwrap(),
        );
        let g = b.push(
            0,
            gid,
            Tuple::new(&grades, vec!["CS700".into(), 77.into(), "A".into()]).unwrap(),
        );
        b.push(
            g,
            sid,
            Tuple::new(&student, vec![77.into(), "MS".into()]).unwrap(),
        );
        let inst = b.finish();
        let before = db.total_tuples();
        let err = updater.insert(&schema, &mut db, inst).unwrap_err();
        assert!(err.to_string().contains("not permitted") || matches!(err, Error::Rolledback(_)));
        assert_eq!(db.total_tuples(), before);
    }

    #[test]
    fn translate_does_not_mutate() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        let inst = assemble(&schema, &omega, &db, t).unwrap();
        let before = db.total_tuples();
        let ops = updater
            .translate(&schema, &db, UpdateRequest::CompleteDeletion(inst))
            .unwrap();
        assert!(!ops.is_empty());
        assert_eq!(db.total_tuples(), before);
    }

    #[test]
    fn apply_request_reports_steps_and_stats() {
        let (schema, mut db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("EE282"))
            .unwrap()
            .clone();
        let inst = assemble(&schema, &omega, &db, t).unwrap();
        let outcome = updater
            .apply_request(&schema, &mut db, UpdateRequest::CompleteDeletion(inst))
            .unwrap();
        assert_eq!(outcome.request_kind, "complete-deletion");
        assert_eq!(
            outcome.steps,
            vec![
                UpdateStep::Validate,
                UpdateStep::Translate,
                UpdateStep::GlobalCheck
            ]
        );
        assert_eq!(outcome.stats.total(), outcome.ops.len());
        assert!(outcome.stats.deletes > 0);
        assert_eq!(outcome.stats.inserts, 0);
    }

    #[test]
    fn batch_translates_over_one_overlay_and_applies_once() {
        let (schema, mut db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        let cs345 = assemble(
            &schema,
            &omega,
            &db,
            db.table("COURSES")
                .unwrap()
                .get(&Key::single("CS345"))
                .unwrap()
                .clone(),
        )
        .unwrap();
        let ee282 = assemble(
            &schema,
            &omega,
            &db,
            db.table("COURSES")
                .unwrap()
                .get(&Key::single("EE282"))
                .unwrap()
                .clone(),
        )
        .unwrap();
        // delete both, then re-insert one — all in a single transaction
        let batch = UpdateBatch::new()
            .delete(cs345)
            .delete(ee282.clone())
            .insert(ee282);
        let outcome = updater.apply_batch(&schema, &mut db, batch).unwrap();
        assert_eq!(outcome.len(), 3);
        assert_eq!(outcome.total_ops, outcome.all_ops().count());
        assert!(check_database(&schema, &db).unwrap().is_empty());
        assert!(!db
            .table("COURSES")
            .unwrap()
            .contains_key(&Key::single("CS345")));
        assert!(db
            .table("COURSES")
            .unwrap()
            .contains_key(&Key::single("EE282")));
    }

    #[test]
    fn batch_failure_leaves_database_untouched_and_names_the_request() {
        let (schema, mut db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        let ee282 = assemble(
            &schema,
            &omega,
            &db,
            db.table("COURSES")
                .unwrap()
                .get(&Key::single("EE282"))
                .unwrap()
                .clone(),
        )
        .unwrap();
        let snapshot = db.clone();
        // request #1 re-inserts an instance that still exists → translate
        // fails with a key conflict attributed to that request
        let batch = UpdateBatch::new()
            .delete(ee282.clone())
            .insert(ee282.clone())
            .insert(ee282);
        let err = updater.apply_batch(&schema, &mut db, batch).unwrap_err();
        assert_eq!(err.step, UpdateStep::Translate);
        assert_eq!(err.request_index, Some(2));
        assert_eq!(err.request_kind, Some("complete-insertion"));
        for rel in snapshot.relation_names() {
            let before: Vec<_> = snapshot.table(rel).unwrap().scan().cloned().collect();
            let after: Vec<_> = db.table(rel).unwrap().scan().cloned().collect();
            assert_eq!(before, after, "relation {rel} changed despite rollback");
        }
    }

    #[test]
    fn batch_sees_earlier_requests_through_the_overlay() {
        let (schema, mut db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        let ee282 = assemble(
            &schema,
            &omega,
            &db,
            db.table("COURSES")
                .unwrap()
                .get(&Key::single("EE282"))
                .unwrap()
                .clone(),
        )
        .unwrap();
        // delete-then-reinsert of the same instance only works if the
        // insertion sees the deletion through the shared overlay
        let before = db.total_tuples();
        let batch = UpdateBatch::new().delete(ee282.clone()).insert(ee282);
        updater.apply_batch(&schema, &mut db, batch).unwrap();
        assert_eq!(db.total_tuples(), before);
        assert!(check_database(&schema, &db).unwrap().is_empty());
    }

    #[test]
    fn stats_tally_ops() {
        let (_, db) = university_database();
        let dept = db.table("DEPARTMENT").unwrap().schema().clone();
        let ops = vec![
            DbOp::Insert {
                relation: "DEPARTMENT".into(),
                tuple: Tuple::new(&dept, vec!["Math".into()]).unwrap(),
            },
            DbOp::Delete {
                relation: "COURSES".into(),
                key: Key::single("CS345"),
            },
        ];
        let stats = UpdateStats::from_ops(&ops);
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.deletes, 1);
        assert_eq!(stats.replaces, 0);
        assert_eq!(stats.relations_touched, 2);
        assert_eq!(stats.total(), 2);
    }

    #[test]
    fn writing_back_an_unmodified_instance_costs_no_lookup() {
        // GetPut: an instance written back as it was read translates to no
        // ops, and committing no ops checks nothing — not one probe, not
        // one scan — and moves neither the version nor the journal
        let (schema, mut db) = university_database();
        let cursor = db.journal_subscribe();
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        let inst = assemble(&schema, &omega, &db, t).unwrap();
        let prepared = updater
            .prepare_batch(&schema, &db, UpdateBatch::new().replace(inst.clone(), inst))
            .unwrap();
        assert!(prepared.ops.is_empty());
        let (version, journaled) = (db.version(), db.journal_retained());

        let (outcome, taken) =
            vo_obs::trace::capture(|| updater.commit_prepared(&schema, &mut db, prepared).unwrap());
        assert_eq!(outcome.total_ops, 0);
        assert_eq!(outcome.outcomes.len(), 1);
        assert_eq!(outcome.outcomes[0].steps.last(), Some(&UpdateStep::Commit));
        let lookups =
            ["relational.index_probes", "relational.fallback_scans"].map(|n| taken.count(n));
        assert_eq!(
            lookups,
            [0, 0],
            "committing an empty op list issued lookups"
        );
        assert_eq!(db.version(), version);
        assert_eq!(db.journal_retained(), journaled);
        assert_eq!(db.journal_lag(cursor).unwrap(), 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (schema, mut db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        let before = db.total_tuples();
        let outcome = updater
            .apply_batch(&schema, &mut db, UpdateBatch::new())
            .unwrap();
        assert!(outcome.is_empty());
        assert_eq!(outcome.total_ops, 0);
        assert_eq!(db.total_tuples(), before);
    }
}
