//! The ledger side: run every workload in its own process and keep the
//! result, compare two kept results by the bounds, and check that the
//! counts that should repeat exactly do.

use crate::catalog::{self, Better, Def};
use crate::report;
use std::path::Path;
use std::process::{Command, Stdio};
use vo_obs::json::{parse, Json};

/// Where results are kept, relative to the repository root.
pub const RESULTS: &str = "benchmark/results";
/// Marks the full record in a workload process's output.
pub const RECORD_PREFIX: &str = "RECORD ";

/// Options of a suite run.
pub struct Suite {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub label: String,
}

/// Run one workload in a child process of this executable and return its
/// record.
fn run_child(suite: &Suite, workload: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &suite.seed.to_string()])
        .args(["--seconds", &suite.seconds.to_string()])
        .args(["--trace", if suite.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if suite.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let record = stdout
        .lines()
        .find_map(|line| line.strip_prefix(RECORD_PREFIX))
        .ok_or_else(|| format!("{workload} printed no record"))?;
    parse(record).map_err(|e| format!("{workload} record: {}", e.0))
}

fn failed_of(record: &Json) -> i64 {
    record.field("failed").and_then(Json::as_i64).unwrap_or(1)
}

/// Run the four workloads, print every metric, write
/// `benchmark/results/<label>.json`. Errors when any operation failed.
pub fn run_suite(suite: &Suite) -> Result<(), String> {
    let mut records = Vec::new();
    let mut failed = 0;
    for (workload, _) in catalog::WORKLOADS {
        let record = run_child(suite, workload)?;
        if let Ok(metrics) = record.field("metrics") {
            report::print_metrics(workload, metrics);
        }
        for failure in record
            .field("failures")
            .and_then(Json::elements)
            .unwrap_or(&[])
        {
            println!("{workload:<15} FAILED: {}", failure.as_str().unwrap_or("?"));
        }
        failed += failed_of(&record);
        records.push(record);
    }
    if suite.smoke {
        println!("smoke run: tiny database and windows, numbers are not comparable");
    }
    let name = if suite.trace {
        format!("{}-trace.json", suite.label)
    } else {
        format!("{}.json", suite.label)
    };
    let path = Path::new(RESULTS).join(name);
    let ledger = Json::obj(vec![
        ("label", Json::str(suite.label.as_str())),
        ("seed", Json::Int(suite.seed as i64)),
        ("seconds", Json::Float(suite.seconds)),
        ("trace", Json::Bool(suite.trace)),
        ("comparable", Json::Bool(!suite.smoke)),
        ("workloads", Json::Arr(records)),
    ]);
    std::fs::create_dir_all(RESULTS).map_err(|e| format!("{RESULTS}: {e}"))?;
    std::fs::write(&path, ledger.pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if failed > 0 {
        return Err(format!("{failed} operation(s) failed: error_share > 0"));
    }
    Ok(())
}

/// `(workload, metric, value)` rows of a ledger file.
fn load(path: &str) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let ledger = parse(&text).map_err(|e| format!("{path}: {}", e.0))?;
    let bad = |e: vo_obs::json::JsonError| format!("{path}: {}", e.0);
    let mut rows = Vec::new();
    for record in ledger
        .field("workloads")
        .map_err(bad)?
        .elements()
        .map_err(bad)?
    {
        let workload = record
            .field("workload")
            .map_err(bad)?
            .as_str()
            .map_err(bad)?;
        for (name, metric) in record
            .field("metrics")
            .map_err(bad)?
            .entries()
            .map_err(bad)?
        {
            let value = metric.field("value").map_err(bad)?.as_f64().map_err(bad)?;
            rows.push((workload.to_owned(), name.clone(), value));
        }
    }
    Ok(rows)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
}

/// Judge `new` against `base` by the metric's bound. `error_share` has no
/// tolerance: any rise is a regression.
pub fn judge(def: &Def, base: f64, new: f64) -> Verdict {
    let (worse, better) = match def.better {
        Better::Lower => (
            new > base * (1.0 + def.bound),
            new < base * (1.0 - def.bound),
        ),
        Better::Higher => (
            new < base * (1.0 - def.bound),
            new > base * (1.0 + def.bound),
        ),
    };
    if worse {
        Verdict::Regressed
    } else if better {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Print one row per (workload, end-to-end metric) of two ledgers; errors
/// when any row regressed.
pub fn compare(base_path: &str, new_path: &str) -> Result<(), String> {
    let base = load(base_path)?;
    let new = load(new_path)?;
    println!(
        "{:<15} {:<22} {:>14} {:>14} {:>8}  verdict (bound)",
        "workload", "metric", "base", "new", "new/base"
    );
    let mut regressed = 0;
    for (workload, name, base_value) in &base {
        // per-layer metrics have no bound and are not judged
        let Some(def) = catalog::DRIVER
            .iter()
            .chain(catalog::NAMED)
            .find(|d| d.name == name)
        else {
            continue;
        };
        let Some((_, _, new_value)) = new.iter().find(|(w, n, _)| w == workload && n == name)
        else {
            println!(
                "{workload:<15} {name:<22} {base_value:>14.4} {:>14} {:>8}  missing",
                "-", "-"
            );
            regressed += 1;
            continue;
        };
        let verdict = judge(def, *base_value, *new_value);
        regressed += usize::from(verdict == Verdict::Regressed);
        let ratio = if *base_value != 0.0 {
            format!("{:.3}", new_value / base_value)
        } else {
            "-".to_owned()
        };
        println!(
            "{workload:<15} {name:<22} {base_value:>14.4} {new_value:>14.4} {ratio:>8}  {} ({:.0} %, {} is better)",
            format!("{verdict:?}").to_lowercase(),
            def.bound * 100.0,
            def.better.as_str()
        );
    }
    if regressed > 0 {
        return Err(format!("{regressed} metric(s) regressed"));
    }
    Ok(())
}

/// The counts that must repeat exactly between two runs of one seed.
const EXACT: [(&str, &[&str]); 2] = [
    (
        catalog::WIRE_UPDATE,
        &[
            "wal_bytes_per_update",
            "store.fsyncs_per_commit",
            "store.wal_bytes_per_commit",
            "relational.index_probes_per_update",
            "translate.overlay_reads_per_update",
        ],
    ),
    (
        catalog::RECOVERY,
        &[
            "disk_bytes_per_tuple",
            "store.recover.records_replayed",
            "store.recover.deltas_applied",
        ],
    ),
];

/// Run the two workloads that report exact counts twice each (traced, so
/// the per-layer counts are there) and compare.
pub fn check_counts(seed: u64, seconds: f64, smoke: bool) -> Result<(), String> {
    let suite = Suite {
        seed,
        seconds,
        trace: true,
        smoke,
        label: String::new(),
    };
    let mut differing = 0;
    for (workload, names) in EXACT {
        let first = run_child(&suite, workload)?;
        let second = run_child(&suite, workload)?;
        for name in names {
            let read = |record: &Json| -> Result<f64, String> {
                record
                    .field("metrics")
                    .and_then(|m| m.field(name))
                    .and_then(|m| m.field("value"))
                    .and_then(Json::as_f64)
                    .map_err(|e| format!("{workload} {name}: {}", e.0))
            };
            let (a, b) = (read(&first)?, read(&second)?);
            let verdict = if a == b { "repeats" } else { "DIFFERS" };
            differing += usize::from(a != b);
            println!("{workload:<15} {name:<40} {a:>16.4} {b:>16.4}  {verdict}");
        }
    }
    if differing > 0 {
        return Err(format!("{differing} count(s) did not repeat exactly"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> Def {
        Def {
            name: "m",
            unit: "us",
            better,
            bound,
            on: &[],
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = def(Better::Lower, 0.07);
        assert_eq!(judge(&lower, 100.0, 106.9), Verdict::Unchanged);
        assert_eq!(judge(&lower, 100.0, 107.1), Verdict::Regressed);
        assert_eq!(judge(&lower, 100.0, 92.9), Verdict::Improved);
        let higher = def(Better::Higher, 0.07);
        assert_eq!(judge(&higher, 100.0, 93.1), Verdict::Unchanged);
        assert_eq!(judge(&higher, 100.0, 92.9), Verdict::Regressed);
        assert_eq!(judge(&higher, 100.0, 107.1), Verdict::Improved);
        // `error_share` is judged absolutely: any rise is a regression
        let errors = catalog::find("error_share").expect("in the catalogue");
        assert_eq!(judge(errors, 0.0, 0.0), Verdict::Unchanged);
        assert_eq!(judge(errors, 0.0, 0.001), Verdict::Regressed);
    }
}
