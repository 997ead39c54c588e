//! Update translation (paper §5).
//!
//! A view-object update proceeds through the paper's four logical steps:
//!
//! 1. **Local validation** against the object definition and translator
//!    ([`validate`]).
//! 2. **Propagation within the view object** — hierarchical consistency of
//!    the new instance ([`propagate`]).
//! 3. **Translation into database operations** — algorithms VO-CI
//!    ([`insert`]), VO-CD ([`delete`]) and VO-R ([`replace`]).
//! 4. **Global validation against the structural model** — dependency
//!    completion and the final consistency check, performed by the
//!    pipeline ([`pipeline`]).
//!
//! All translators are pure: they plan into a [`DeltaDb`] overlay — every
//! decision reads the base as the ops planned so far leave it — whose op
//! log is the [`DbOp`] list that implements the request; the pipeline
//! checks the overlay and installs it, so a failed global check leaves
//! the database untouched.
//!
//! **The no-clone contract.** A [`DeltaDb`] never copies a base table:
//! it is an O(1)-construction read view layering the planned ops over a
//! *borrowed* `&Database`, so translating a request costs only the delta
//! it plans, not a full database snapshot. A batch of requests shares one
//! overlay, which is what makes set-at-a-time update translation cheap;
//! the `translate.overlay_created` / `translate.snapshot_avoided` counters
//! verify the contract at run time.
//!
//! [`DeltaDb`]: vo_relational::overlay::DeltaDb
//! [`DbOp`]: vo_relational::database::DbOp

pub mod delete;
pub mod error;
pub mod insert;
pub mod partial;
pub mod pipeline;
pub mod propagate;
pub mod replace;
pub mod validate;

use crate::instance::VoInstance;
use crate::object::ViewObject;
use crate::translator::Translator;
use vo_relational::prelude::*;

/// A complete update request on a view object (paper §5's *complete
/// update*: insertion, deletion, or replacement). Partial updates live in
/// [`partial`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateRequest {
    /// Add a fully specified instance to the database.
    CompleteInsertion(VoInstance),
    /// Remove a fully specified instance from the database.
    CompleteDeletion(VoInstance),
    /// Replace an instance with its fully specified replacing instance.
    Replacement {
        /// The instance as currently stored.
        old: VoInstance,
        /// The replacing instance.
        new: VoInstance,
    },
}

impl UpdateRequest {
    /// Short label for logs and experiments.
    pub fn kind(&self) -> &'static str {
        match self {
            UpdateRequest::CompleteInsertion(_) => "complete-insertion",
            UpdateRequest::CompleteDeletion(_) => "complete-deletion",
            UpdateRequest::Replacement { .. } => "replacement",
        }
    }
}

impl Translator {
    /// Whether this translator lets a request of `kind` ([`UpdateRequest::kind`])
    /// through at all — asked before the instance is looked at, so a
    /// forbidden kind is reported before an invalid instance.
    pub(crate) fn permitted(&self, object: &ViewObject, kind: &str) -> Result<()> {
        let (allowed, requests) = match kind {
            "complete-insertion" => (self.allow_insertion, "complete insertions"),
            "complete-deletion" => (self.allow_deletion, "complete deletions"),
            "replacement" => (self.allow_replacement, "replacements"),
            other => unreachable!("`{other}` is no UpdateRequest::kind"),
        };
        if allowed {
            return Ok(());
        }
        Err(Error::ConstraintViolation(format!(
            "translator for {} forbids {requests}",
            object.name()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::university::university_database;

    #[test]
    fn request_kinds() {
        let (schema, db) = university_database();
        let omega = crate::treegen::generate_omega(&schema).unwrap();
        let inst = crate::instance::instantiate_all(&schema, &omega, &db)
            .unwrap()
            .remove(0);
        assert_eq!(
            UpdateRequest::CompleteInsertion(inst.clone()).kind(),
            "complete-insertion"
        );
        assert_eq!(
            UpdateRequest::CompleteDeletion(inst.clone()).kind(),
            "complete-deletion"
        );
        assert_eq!(
            UpdateRequest::Replacement {
                old: inst.clone(),
                new: inst
            }
            .kind(),
            "replacement"
        );
    }
}
