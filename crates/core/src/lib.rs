//! # vo-core — the view-object model and its update translation
//!
//! A from-scratch implementation of *Updating Relational Databases through
//! Object-Based Views* (Barsalou, Keller, Siambela, Wiederhold; SIGMOD
//! 1991).
//!
//! A **view object** is an uninstantiated, hierarchical window over a
//! normalized relational database: a tree of projections rooted at a
//! *pivot relation*, derived from the database's structural model
//! (`vo-structural`). Instances are assembled on demand; updates on
//! instances are translated into relational operations by translators
//! chosen once, at object-definition time, through a DBA dialog.
//!
//! The crate follows the paper section by section:
//!
//! | paper | module |
//! |-------|--------|
//! | §3 view objects, pivot, complexity | [`object`] |
//! | §3 information metric, Figure 2(a) | [`metric`] |
//! | §3 tree generation + pruning, Figures 2(b,c)/3 | [`treegen`] |
//! | §3 instantiation, Figure 4 | [`instance`], [`query`] |
//! | §5 dependency island & peninsulas (Defs. 5.1–5.2) | [`island`] |
//! | §5.1 VO-CD | [`update::delete`] |
//! | §5.2 VO-CI | [`update::insert`] |
//! | §5.3 VO-R | [`update::replace`] |
//! | §5 four-step pipeline | [`update::pipeline`] |
//! | §6 translator choice by dialog | [`translator`], [`dialog`] |
//! | Figure 1 running example | [`university`] |
//!
//! ## Quickstart
//!
//! ```
//! use vo_core::prelude::*;
//!
//! // the paper's university database (Figure 1) with Figure 4's data
//! let (schema, mut db) = university_database();
//!
//! // generate ω (Figure 2): pivot COURSES + DEPARTMENT, CURRICULUM,
//! // GRADES, STUDENT
//! let omega = generate_omega(&schema).unwrap();
//! assert_eq!(omega.complexity(), 5);
//!
//! // Figure 4's query: graduate courses with fewer than 5 students
//! let student = omega.nodes().iter().find(|n| n.relation == "STUDENT").unwrap().id;
//! let hits = VoQuery::new()
//!     .with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate")))
//!     .with_count(student, CmpOp::Lt, 5)
//!     .execute(&schema, &omega, &db)
//!     .unwrap();
//! assert_eq!(hits.len(), 1);
//!
//! // choose a translator by dialog, then update through the object
//! let analysis = analyze(&schema, &omega).unwrap();
//! let mut responder = paper_dialog_responder();
//! let (translator, _transcript) =
//!     choose_translator(&schema, &omega, &analysis, &mut responder).unwrap();
//! let updater = ViewObjectUpdater::new(&schema, omega, translator).unwrap();
//! let instance = hits.into_iter().next().unwrap();
//! updater.delete(&schema, &mut db, instance).unwrap();
//! ```

pub mod codec;
pub mod dialog;
pub mod instance;
pub mod island;
pub mod maintain;
pub mod metric;
pub mod object;
pub mod query;
pub mod translator;
pub mod treegen;
pub mod university;
pub mod update;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::dialog::{
        choose_translator, paper_dialog_responder, paper_restrictive_responder, AllYes, Answer,
        DialogTranscript, FnResponder, Question, QuestionTopic, Responder, ScriptedResponder,
    };
    pub use crate::instance::{
        assemble, follow_edge, instantiate_all, instantiate_all_legacy, instantiate_many,
        instantiate_many_planned, plan_edge, plan_object, EdgePlan, InstanceBuilder, ObjectPlan,
        StepPlan, VoInstance, VoInstanceNode,
    };
    pub use crate::island::{analyze, IslandAnalysis, KeySplit};
    pub use crate::maintain::{
        reverse_indexes_for, ChangeKind, InstanceChange, MaterializedView, RefreshOutcome,
        ViewInstances,
    };
    pub use crate::metric::{extract_subgraph, MetricWeights, Subgraph};
    pub use crate::object::{NodeId, Step, ViewObject, ViewObjectBuilder, VoEdge, VoNode};
    pub use crate::query::{CountCondition, VoQuery};
    pub use crate::translator::{
        OutDeleteAction, OutModifyAction, PeninsulaAction, RelationPolicy, Translator,
    };
    pub use crate::treegen::{
        generate_omega, generate_omega_prime, generate_tree, prune, prune_by_relations, Selection,
        TemplateNode, TemplateTree,
    };
    pub use crate::university::{seed_figure4, university_database, university_schema};
    pub use crate::update::delete::translate_complete_deletion;
    pub use crate::update::error::{UpdateError, UpdateResult, UpdateStep};
    pub use crate::update::insert::translate_complete_insertion;
    pub use crate::update::partial::PartialOp;
    pub use crate::update::pipeline::{
        BatchOutcome, PreparedBatch, UpdateBatch, UpdateOutcome, UpdateStats, ViewObjectUpdater,
    };
    pub use crate::update::propagate::propagate_links;
    pub use crate::update::replace::translate_replacement;
    pub use crate::update::validate::{validate_instance, LocalValidation};
    pub use crate::update::UpdateRequest;
    pub use vo_relational::prelude::*;
    pub use vo_structural::prelude::*;
}
