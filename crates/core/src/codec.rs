//! JSON codecs for view-object definitions and translators — the types a
//! saved PENGUIN system persists — and for the instances, update requests
//! and instance changes that cross the wire. Decoding a
//! [`ViewObject`] requires the structural schema so the full Definition
//! 3.1–3.2 validation re-runs — a tampered document cannot produce an
//! object the in-memory API could not have built.

use crate::instance::{VoInstance, VoInstanceNode};
use crate::maintain::{ChangeKind, InstanceChange};
use crate::object::{Step, ViewObject, VoEdge, VoNode};
use crate::translator::{
    OutDeleteAction, OutModifyAction, PeninsulaAction, RelationPolicy, Translator,
};
use crate::update::UpdateRequest;
use vo_relational::prelude::*;
use vo_structural::prelude::*;

json_struct!(
    Step {
        connection,
        parent_is_from
    },
    Error
);
json_struct!(VoEdge { steps }, Error);
json_struct!(
    VoNode {
        id,
        relation,
        attrs,
        parent,
        edge,
        children
    },
    Error
);

impl ViewObject {
    /// Encode as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name())),
            ("nodes", Json::list(self.nodes())),
        ])
    }

    /// Decode from JSON and re-validate against `schema` (full Definition
    /// 3.1–3.2 checking via [`ViewObject::from_nodes`]) — the context is
    /// why this is not a [`JsonCodec`] impl.
    pub fn from_json(json: &Json, schema: &StructuralSchema) -> Result<Self> {
        let name: String = json.get("name")?;
        let nodes: Vec<VoNode> = json.get("nodes")?;
        for (i, n) in nodes.iter().enumerate() {
            if n.id != i {
                return Err(Error::Serialization(format!(
                    "object {name}: node at position {i} claims id {}",
                    n.id
                )));
            }
        }
        ViewObject::from_nodes(name, nodes, schema)
    }
}

json_struct!(
    RelationPolicy {
        allow_insert,
        allow_modify,
        allow_key_replacement,
        allow_db_key_replace,
        allow_delete_adopt,
    },
    Error
);

json_enum!(
    PeninsulaAction {
        NullifyForeignKey => "nullify_foreign_key",
        DeleteReferencing => "delete_referencing",
        Reject => "reject",
    },
    Error,
    "peninsula action"
);

json_enum!(
    OutDeleteAction { Restrict => "restrict", Cascade => "cascade", Nullify => "nullify" },
    Error,
    "out-of-object delete action"
);

json_enum!(
    OutModifyAction { Propagate => "propagate", Nullify => "nullify", Cascade => "cascade" },
    Error,
    "out-of-object modify action"
);

json_struct!(
    Translator {
        object,
        allow_insertion,
        allow_deletion,
        allow_replacement,
        relation_policies,
        peninsula_actions,
        allow_out_of_object_repairs,
        out_of_object_delete,
        out_of_object_modify,
    },
    Error
);

// Children are keyed by their object-node id (stringified, since JSON
// object keys are strings). Tuples are structural only — validation
// against a relation schema happens when the instance enters the update
// pipeline, exactly as for an instance built by hand.
json_struct!(
    VoInstanceNode {
        node,
        tuple,
        children
    },
    Error
);
json_struct!(VoInstance { object, root }, Error);

/// Tagged by [`UpdateRequest::kind`].
impl JsonCodec for UpdateRequest {
    type Error = Error;

    fn to_json(&self) -> Json {
        let kind = ("kind", Json::str(self.kind()));
        match self {
            UpdateRequest::CompleteInsertion(inst) | UpdateRequest::CompleteDeletion(inst) => {
                Json::obj(vec![kind, ("instance", inst.to_json())])
            }
            UpdateRequest::Replacement { old, new } => {
                Json::obj(vec![kind, ("old", old.to_json()), ("new", new.to_json())])
            }
        }
    }

    fn from_json(json: &Json) -> Result<Self> {
        match json.field("kind")?.as_str()? {
            "complete-insertion" => Ok(UpdateRequest::CompleteInsertion(json.get("instance")?)),
            "complete-deletion" => Ok(UpdateRequest::CompleteDeletion(json.get("instance")?)),
            "replacement" => Ok(UpdateRequest::Replacement {
                old: json.get("old")?,
                new: json.get("new")?,
            }),
            other => Err(Error::Serialization(format!(
                "unknown update request kind `{other}`"
            ))),
        }
    }
}

json_enum!(
    ChangeKind { Inserted => "inserted", Removed => "removed", Updated => "updated" },
    Error,
    "change kind"
);
json_struct!(InstanceChange { pivot, kind }, Error);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treegen::generate_omega;
    use crate::university::university_schema;
    use vo_relational::json::{assert_roundtrip, parse};

    #[test]
    fn view_object_roundtrip_revalidates() {
        let schema = university_schema();
        let omega = generate_omega(&schema).unwrap();
        let text = omega.to_json().pretty();
        let back = ViewObject::from_json(&parse(&text).unwrap(), &schema).unwrap();
        assert_eq!(omega, back);
    }

    #[test]
    fn tampered_object_rejected() {
        let schema = university_schema();
        let omega = generate_omega(&schema).unwrap();
        // strip the pivot key attribute from the root projection
        let text = omega.to_json().pretty().replacen("\"course_id\",", "", 1);
        let parsed = parse(&text).unwrap();
        assert!(ViewObject::from_json(&parsed, &schema).is_err());
    }

    #[test]
    fn translator_instances_and_requests_roundtrip() {
        let (schema, db) = crate::university::university_database();
        let omega = generate_omega(&schema).unwrap();
        let mut t = Translator::permissive(&omega);
        t.peninsula_actions
            .insert("CURRICULUM".into(), PeninsulaAction::Reject);
        t.out_of_object_modify = OutModifyAction::Cascade;
        assert_roundtrip(&t);

        let insts = crate::instance::instantiate_all(&schema, &omega, &db).unwrap();
        assert!(insts.len() >= 2);
        for inst in &insts {
            assert_roundtrip(inst);
        }
        for req in [
            UpdateRequest::CompleteInsertion(insts[0].clone()),
            UpdateRequest::CompleteDeletion(insts[0].clone()),
            UpdateRequest::Replacement {
                old: insts[0].clone(),
                new: insts[1].clone(),
            },
        ] {
            assert_roundtrip(&req);
        }
        assert_roundtrip(&InstanceChange {
            pivot: Key::single("CS101"),
            kind: ChangeKind::Removed,
        });
    }

    #[test]
    fn unknown_request_kind_and_bad_child_key_rejected() {
        let bad = parse("{\"kind\":\"partial\"}").unwrap();
        assert!(UpdateRequest::from_json(&bad).is_err());
        let bad = parse("{\"node\":0,\"tuple\":[],\"children\":{\"x\":[]}}").unwrap();
        assert!(matches!(
            VoInstanceNode::from_json(&bad),
            Err(Error::Serialization(_))
        ));
    }
}
