//! Structured operator-tree profiles for `EXPLAIN ANALYZE` and
//! `Penguin::profile()`.
//!
//! A [`ProfileNode`] mirrors one node of an executed operator tree (a
//! relational algebra operator, an instantiation edge or edge step) and
//! carries the measurements the paper's cost arguments are about: rows
//! in/out, wall time, and the access path taken. A profile is not
//! recorded on its own: it is the rendering of the spans a call recorded
//! ([`ProfileNode::from_spans`] over a [`crate::trace::capture`]).

use crate::json::Json;
use crate::trace::SpanEvent;
use std::collections::BTreeMap;

/// One node of an executed operator tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileNode {
    /// Operator label, e.g. `Join[a=b]` or `Probe(GRADES)`.
    pub label: String,
    /// Access path taken, e.g. `index probe`, `hash fallback`, `table scan`;
    /// empty for operators without a table access.
    pub access_path: String,
    /// Rows entering the operator (sum over inputs).
    pub rows_in: u64,
    /// Rows produced.
    pub rows_out: u64,
    /// Inclusive wall time in microseconds (children included).
    pub elapsed_us: u64,
    /// Input operators, left to right.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// A node with just a label.
    pub fn new(label: impl Into<String>) -> Self {
        ProfileNode {
            label: label.into(),
            ..ProfileNode::default()
        }
    }

    /// The operator tree a capture recorded. Every span carrying a `label`
    /// field is a node, the child of its nearest labelled ancestor, its
    /// children in the order they opened; the node reads `access`,
    /// `rows_in` and `rows_out` off its span's fields (empty or 0 when
    /// absent) and its time off the span's `dur_us`. Unlabelled spans and
    /// events are passed through. Returns the last top-level node to close
    /// — the whole call, when the capture wrapped one — or `None` when no
    /// span carries a label.
    pub fn from_spans(spans: &[SpanEvent]) -> Option<ProfileNode> {
        let by_id: BTreeMap<u64, &SpanEvent> = spans.iter().map(|s| (s.id, s)).collect();
        let labelled = |s: &SpanEvent| s.field("label").is_some();
        let anchor = |s: &SpanEvent| {
            let mut parent = s.parent;
            while let Some(span) = parent.and_then(|id| by_id.get(&id)) {
                if labelled(span) {
                    return Some(span.id);
                }
                parent = span.parent;
            }
            None
        };
        let mut children: BTreeMap<Option<u64>, Vec<&SpanEvent>> = BTreeMap::new();
        for span in spans.iter().filter(|s| labelled(s)) {
            children.entry(anchor(span)).or_default().push(span);
        }
        fn node(
            span: &SpanEvent,
            children: &BTreeMap<Option<u64>, Vec<&SpanEvent>>,
        ) -> ProfileNode {
            let text = |k: &str| span.field(k).and_then(|j| j.as_str().ok()).unwrap_or("");
            let count = |k: &str| span.field(k).and_then(|j| j.as_i64().ok()).unwrap_or(0) as u64;
            let mut below = children.get(&Some(span.id)).cloned().unwrap_or_default();
            below.sort_by_key(|s| s.id);
            ProfileNode {
                label: text("label").to_owned(),
                access_path: text("access").to_owned(),
                rows_in: count("rows_in"),
                rows_out: count("rows_out"),
                elapsed_us: span.dur_us,
                children: below.into_iter().map(|c| node(c, children)).collect(),
            }
        }
        let root = children.get(&None)?.last()?;
        Some(node(root, &children))
    }

    /// Total node count of the subtree (including `self`).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ProfileNode::size).sum::<usize>()
    }

    /// True when `pred` holds for any node of the subtree.
    pub fn any(&self, pred: &dyn Fn(&ProfileNode) -> bool) -> bool {
        pred(self) || self.children.iter().any(|c| c.any(pred))
    }

    /// Depth-first search for the first node whose label contains `needle`.
    pub fn find(&self, needle: &str) -> Option<&ProfileNode> {
        if self.label.contains(needle) {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(needle))
    }

    /// Render the subtree as an indented text table, one operator per line:
    ///
    /// ```text
    /// Project[course_id]  (rows_in=2 rows_out=2 time=14us)
    ///   Select[dept_name = 'CS']  (rows_in=3 rows_out=2 time=11us)
    ///     Scan(COURSES)  (rows_in=0 rows_out=3 time=4us access=table scan)
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.label);
        out.push_str(&format!(
            "  (rows_in={} rows_out={} time={}us",
            self.rows_in, self.rows_out, self.elapsed_us
        ));
        if !self.access_path.is_empty() {
            out.push_str(&format!(" access={}", self.access_path));
        }
        out.push_str(")\n");
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }

    /// The subtree as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("label", Json::str(self.label.clone())),
            ("rows_in", Json::Int(self.rows_in as i64)),
            ("rows_out", Json::Int(self.rows_out as i64)),
            ("elapsed_us", Json::Int(self.elapsed_us as i64)),
        ];
        if !self.access_path.is_empty() {
            pairs.push(("access_path", Json::str(self.access_path.clone())));
        }
        pairs.push((
            "children",
            Json::Arr(self.children.iter().map(ProfileNode::to_json).collect()),
        ));
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileNode {
        let mut scan = ProfileNode::new("Scan(COURSES)");
        scan.access_path = "table scan".into();
        scan.rows_out = 3;
        let mut select = ProfileNode::new("Select[dept = 'CS']");
        select.rows_in = 3;
        select.rows_out = 2;
        select.elapsed_us = 11;
        select.children.push(scan);
        select
    }

    #[test]
    fn render_indents_and_labels() {
        let s = sample().render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("Select[dept = 'CS']"));
        assert!(lines[0].contains("rows_in=3 rows_out=2 time=11us"));
        assert!(lines[1].starts_with("  Scan(COURSES)"));
        assert!(lines[1].contains("access=table scan"));
    }

    #[test]
    fn queries_over_the_tree() {
        let p = sample();
        assert_eq!(p.size(), 2);
        assert!(p.any(&|n| n.access_path == "table scan"));
        assert!(!p.any(&|n| n.access_path == "index probe"));
        assert_eq!(p.find("Scan").unwrap().rows_out, 3);
        assert!(p.find("Join").is_none());
    }

    #[test]
    fn from_spans_builds_the_labelled_tree() {
        use crate::trace::{capture, span};
        let labelled = |name, label: &str, rows_out| {
            let mut s = span(name);
            s.field("label", Json::str(label));
            s.field("rows_out", Json::Int(rows_out));
            s
        };
        let ((), taken) = capture(|| {
            let mut select = labelled("test.profile.op", "Select[dept = 'CS']", 2);
            select.field("rows_in", Json::Int(3));
            {
                // an unlabelled span between two labelled ones is passed
                // through: the scan is the select's child
                let _between = span("test.profile.unlabelled");
                let mut scan = labelled("test.profile.op", "Scan(COURSES)", 3);
                scan.field("access", Json::str("table scan"));
            }
            let _second = labelled("test.profile.op", "Scan(DEPARTMENT)", 1);
        });
        let p = ProfileNode::from_spans(&taken.spans).unwrap();
        assert_eq!(p.label, "Select[dept = 'CS']");
        assert_eq!((p.rows_in, p.rows_out), (3, 2));
        assert_eq!(p.access_path, "");
        // children in the order they opened, not the order they closed
        let labels: Vec<&str> = p.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["Scan(COURSES)", "Scan(DEPARTMENT)"]);
        assert_eq!(p.children[0].access_path, "table scan");
        assert_eq!(p.children[0].rows_out, 3);
        assert!(ProfileNode::from_spans(&[]).is_none());
    }

    #[test]
    fn json_shape() {
        let j = sample().to_json();
        assert_eq!(
            j.field("children").unwrap().elements().unwrap()[0]
                .field("access_path")
                .unwrap()
                .as_str()
                .unwrap(),
            "table scan"
        );
        // access_path omitted when empty
        assert!(j.field("access_path").is_err());
    }
}
