//! Every metric the benchmark reports, by name, with unit, direction and
//! — for end-to-end metrics — the bound by which it may worsen before a
//! change counts as a regression. `BENCHMARK.json` at the repository root
//! repeats [`DRIVER`] and [`PER_LAYER`]; a unit test holds the two
//! together.

pub const WIRE_GET: &str = "wire_get";
pub const WIRE_UPDATE: &str = "wire_update";
pub const EMBEDDED_BATCH: &str = "embedded_batch";
pub const RECOVERY: &str = "recovery";
/// The workloads, in the order the suite runs them, each with the reason
/// it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        WIRE_GET,
        "read path only: per-message cost and one-pivot instantiation; bypasses store, structural and update translation",
    ),
    (
        WIRE_UPDATE,
        "write path end to end (translate, check, commit, journal, WAL fsync) through the single writer, beside a pinned reader",
    ),
    (
        EMBEDDED_BATCH,
        "the paper's algorithms as a library, set-at-a-time: instantiate_all, apply_batch, refresh; bypasses net, JSON and store",
    ),
    (
        RECOVERY,
        "restart cost and space: open a killed store with a delta chain, a compaction and a WAL tail; bypasses net and translation",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which the metric may worsen (0 for
    /// per-layer metrics, which have no bound, and for `error_share`,
    /// which may not rise at all).
    pub bound: f64,
    /// The workloads that report it.
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &[WIRE_GET, WIRE_UPDATE, EMBEDDED_BATCH, RECOVERY];
const WIRE: &[&str] = &[WIRE_GET, WIRE_UPDATE];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [&'static str],
) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        on,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        on,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics every workload reports, about its own
/// operation: one `GET` on `wire_get`, one PIN→GET→PREPARE→COMMIT cycle
/// on `wire_update`, one instantiate→batch→refresh→batch→refresh cycle on
/// `embedded_batch`, one `Penguin::open_with` on `recovery`. These are the
/// `end_to_end` entries of `BENCHMARK.json`.
pub const DRIVER: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25, ALL),
    e2e("op_p50_us", "us", Lower, 0.25, ALL),
    e2e("ops_per_s", "1/s", Higher, 0.25, ALL),
    e2e("peak_rss_mb", "MiB", Lower, 0.15, ALL),
];

/// The percentile `op_tail_us` reads on each workload: the highest that
/// the window's sample count leaves at least ten samples beyond.
pub fn tail_percentile(workload: &str) -> f64 {
    match workload {
        WIRE_GET => 0.99,
        EMBEDDED_BATCH => 0.90,
        _ => 0.95,
    }
}

/// The end-to-end metrics by their own names, each on the workloads that
/// exercise it. `compare` judges these (and [`DRIVER`]) by their bounds.
pub const NAMED: &[Def] = &[
    e2e("op_tail_us", "us", Lower, 0.25, ALL),
    e2e("get_p50_us", "us", Lower, 0.25, WIRE),
    e2e("get_p99_us", "us", Lower, 0.25, WIRE),
    e2e("get_per_s", "1/s", Higher, 0.25, WIRE),
    e2e("update_p50_us", "us", Lower, 0.25, &[WIRE_UPDATE]),
    e2e("update_p95_us", "us", Lower, 0.25, &[WIRE_UPDATE]),
    e2e("updates_per_s", "1/s", Higher, 0.25, &[WIRE_UPDATE]),
    e2e("wal_bytes_per_update", "B", Lower, 0.01, &[WIRE_UPDATE]),
    e2e("instances_per_s", "1/s", Higher, 0.25, &[EMBEDDED_BATCH]),
    e2e("translate_per_s", "1/s", Higher, 0.25, &[EMBEDDED_BATCH]),
    e2e("refresh_p50_us", "us", Lower, 0.25, &[EMBEDDED_BATCH]),
    e2e("recover_p50_ms", "ms", Lower, 0.25, &[RECOVERY]),
    e2e("disk_bytes_per_tuple", "B", Lower, 0.01, &[RECOVERY]),
    e2e("error_share", "ratio", Lower, 0.0, ALL),
];

/// Per-layer metrics of the traced run. Layers are the crates; `keller`
/// is on no request path and has no row.
pub const PER_LAYER: &[Def] = &[
    // ---- net
    layer("net.proto.encode_request_us", "us", Lower, WIRE),
    layer("net.proto.decode_request_us", "us", Lower, WIRE),
    layer("net.proto.encode_response_us", "us", Lower, WIRE),
    layer("net.proto.decode_response_us", "us", Lower, WIRE),
    layer("net.frame.write_us", "us", Lower, WIRE),
    layer("net.frame.read_us", "us", Lower, WIRE),
    layer("net.request_bytes_per_op", "B", Lower, &[WIRE_GET]),
    layer("net.response_bytes_per_op", "B", Lower, &[WIRE_GET]),
    layer("net.server.request_us", "us", Lower, WIRE),
    layer("net.transport_residual_us", "us", Lower, WIRE),
    layer("net.layer_sum_share", "ratio", Higher, WIRE),
    layer("net.requests_rejected", "count", Lower, WIRE),
    layer("client.op_tail_us", "us", Lower, ALL),
    layer("client.get_us", "us", Lower, WIRE),
    layer("client.pin_us", "us", Lower, &[WIRE_UPDATE]),
    layer("client.prepare_us", "us", Lower, &[WIRE_UPDATE]),
    layer("client.commit_us", "us", Lower, &[WIRE_UPDATE]),
    // ---- obs
    layer("obs.json.parse_us", "us", Lower, WIRE),
    // ---- penguin
    layer("penguin.voql.parse_us", "us", Lower, WIRE),
    layer("penguin.session.pin_us", "us", Lower, &[WIRE_UPDATE]),
    layer(
        "penguin.plan_cache.hit_ratio",
        "ratio",
        Higher,
        &[WIRE_GET, EMBEDDED_BATCH],
    ),
    layer("penguin.commit_us", "us", Lower, &[WIRE_UPDATE]),
    layer("penguin.apply_batch_us", "us", Lower, &[EMBEDDED_BATCH]),
    layer("penguin.open_us", "us", Lower, &[RECOVERY]),
    // ---- core
    layer("core.query_get_us", "us", Lower, WIRE),
    layer("core.instance_by_key_us", "us", Lower, &[WIRE_GET]),
    layer("core.instantiate_all_us", "us", Lower, &[EMBEDDED_BATCH]),
    layer(
        "core.update.translate_r_us",
        "us",
        Lower,
        &[WIRE_UPDATE, EMBEDDED_BATCH],
    ),
    layer(
        "core.update.translate_cd_us",
        "us",
        Lower,
        &[WIRE_UPDATE, EMBEDDED_BATCH],
    ),
    layer(
        "core.update.translate_ci_us",
        "us",
        Lower,
        &[WIRE_UPDATE, EMBEDDED_BATCH],
    ),
    layer("core.update.prepare_us", "us", Lower, &[WIRE_UPDATE]),
    layer("core.maintain.refresh_us", "us", Lower, &[EMBEDDED_BATCH]),
    layer(
        "core.maintain.refresh_after_insert_us",
        "us",
        Lower,
        &[EMBEDDED_BATCH],
    ),
    layer(
        "core.maintain.patched_per_refresh",
        "count",
        Higher,
        &[EMBEDDED_BATCH],
    ),
    layer(
        "core.maintain.rebuilt_per_refresh",
        "count",
        Lower,
        &[EMBEDDED_BATCH],
    ),
    layer(
        "core.maintain.full_rebuilds",
        "count",
        Lower,
        &[EMBEDDED_BATCH],
    ),
    layer("core.get_scale_ratio", "ratio", Lower, WIRE),
    layer("core.prepare_scale_ratio", "ratio", Lower, &[WIRE_UPDATE]),
    // ---- structural
    layer(
        "structural.check_us",
        "us",
        Lower,
        &[WIRE_UPDATE, EMBEDDED_BATCH],
    ),
    layer(
        "structural.check_scale_ratio",
        "ratio",
        Lower,
        &[WIRE_UPDATE],
    ),
    // ---- relational
    layer("relational.index_probes_per_get", "count", Lower, WIRE),
    layer("relational.fallback_scans_per_get", "count", Lower, WIRE),
    layer("relational.join_rows_per_get", "count", Lower, WIRE),
    layer(
        "relational.index_probes_per_update",
        "count",
        Lower,
        &[WIRE_UPDATE],
    ),
    layer(
        "translate.overlay_reads_per_update",
        "count",
        Lower,
        &[WIRE_UPDATE],
    ),
    layer(
        "relational.snapshots_pinned_per_update",
        "count",
        Lower,
        &[WIRE_UPDATE],
    ),
    layer("relational.conflicts", "count", Lower, &[WIRE_UPDATE]),
    layer(
        "relational.index_probes_per_instance",
        "count",
        Lower,
        &[EMBEDDED_BATCH],
    ),
    layer(
        "relational.hash_builds_per_pass",
        "count",
        Lower,
        &[EMBEDDED_BATCH],
    ),
    layer("relational.apply_us", "us", Lower, &[WIRE_UPDATE]),
    // ---- store
    layer("store.wal_commit_us", "us", Lower, &[WIRE_UPDATE]),
    layer("store.fsyncs_per_commit", "count", Lower, &[WIRE_UPDATE]),
    layer("store.wal_bytes_per_commit", "B", Lower, &[WIRE_UPDATE]),
    layer(
        "store.checkpoints_delta",
        "count",
        Lower,
        &[WIRE_UPDATE, RECOVERY],
    ),
    layer(
        "store.checkpoints_full",
        "count",
        Lower,
        &[WIRE_UPDATE, RECOVERY],
    ),
    layer(
        "store.compactions",
        "count",
        Lower,
        &[WIRE_UPDATE, RECOVERY],
    ),
    layer(
        "store.segments_created",
        "count",
        Lower,
        &[WIRE_UPDATE, RECOVERY],
    ),
    layer(
        "store.checkpoint_bytes_p50",
        "B",
        Lower,
        &[WIRE_UPDATE, RECOVERY],
    ),
    layer("store.checkpoint_us", "us", Lower, &[RECOVERY]),
    layer("store.open_us", "us", Lower, &[RECOVERY]),
    layer(
        "store.recover.records_replayed",
        "count",
        Lower,
        &[RECOVERY],
    ),
    layer("store.recover.deltas_applied", "count", Lower, &[RECOVERY]),
    layer("store.disk_bytes_per_tuple", "B", Lower, &[RECOVERY]),
    // ---- exec
    layer("exec.workers", "count", Higher, &[EMBEDDED_BATCH, RECOVERY]),
    // ---- the instrument itself
    layer("trace_overhead_share", "ratio", Lower, ALL),
    // ---- the box: the reference beat as the clock read it (src/pace.rs)
    layer("host.beat_us", "us", Lower, ALL),
];

/// Look a metric up by name in all three tables.
pub fn find(name: &str) -> Option<&'static Def> {
    DRIVER
        .iter()
        .chain(NAMED)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_obs::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(json: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        json.field(key)
            .unwrap()
            .elements()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.field("name").unwrap().as_str().unwrap().to_owned(),
                    m.field("unit").unwrap().as_str().unwrap().to_owned(),
                    m.field("better").unwrap().as_str().unwrap().to_owned(),
                    m.field("bound").ok().map(|b| b.as_f64().unwrap()),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let json = benchmark_json();
        let want: Vec<_> = DRIVER
            .iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                    Some(d.bound),
                )
            })
            .collect();
        assert_eq!(listed(&json, "end_to_end"), want);
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                    None,
                )
            })
            .collect();
        assert_eq!(listed(&json, "per_layer"), want);
        let names: Vec<String> = json
            .field("workloads")
            .unwrap()
            .elements()
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap().to_owned())
            .collect();
        assert_eq!(names, WORKLOADS.map(|(name, _)| name.to_owned()));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in DRIVER.iter().chain(NAMED).chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} defined twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.bound <= 0.25, "{}", d.name);
            assert!(!d.on.is_empty(), "{}", d.name);
        }
        assert!(PER_LAYER.len() <= 128 && DRIVER.len() <= 16);
    }
}
