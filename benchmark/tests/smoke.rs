//! The benchmark tested as a program: every workload in both modes on a
//! tiny database, against the contract in `BENCHMARK.json`.

use std::path::Path;
use std::process::{Command, Output};
use vo_obs::json::{parse, Json};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository")
}

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vo-benchmark"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary starts")
}

fn names(contract: &Json, key: &str) -> Vec<String> {
    contract
        .field(key)
        .unwrap()
        .elements()
        .unwrap()
        .iter()
        .map(|m| m.field("name").unwrap().as_str().unwrap().to_owned())
        .collect()
}

#[test]
fn every_workload_meets_the_driver_contract_in_both_modes() {
    let contract = parse(&std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap())
        .expect("BENCHMARK.json parses");
    for workload in names(&contract, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = benchmark(&[
                "--workload",
                &workload,
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = parse(stdout.lines().last().expect("a result line")).expect("JSON");
            let keys: Vec<&str> = last
                .entries()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(
                last.field("correct").unwrap().as_bool().unwrap(),
                "{stdout}"
            );
            assert_eq!(
                last.field("failed").unwrap().as_i64().unwrap(),
                0,
                "{stdout}"
            );
            assert!(last.field("attempted").unwrap().as_i64().unwrap() >= 1);
            let metrics = last.field("metrics").unwrap().entries().unwrap();
            let reported: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(
                reported,
                names(&contract, key),
                "{workload} --trace {trace}"
            );
            for (name, metric) in metrics {
                let value = metric.field("value").unwrap().as_f64().unwrap();
                assert!(value.is_finite(), "{workload} {name}");
                // an end-to-end metric is never 0
                assert!(trace == "1" || value > 0.0, "{workload} {name} = {value}");
            }
        }
    }
}

#[test]
fn the_suite_writes_a_ledger_that_compares_unchanged_with_itself() {
    let out = benchmark(&["--smoke", "--label", "selftest"]);
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let ledger = "benchmark/results/selftest.json";
    let compared = benchmark(&["compare", ledger, ledger]);
    let table = String::from_utf8_lossy(&compared.stdout);
    assert!(compared.status.success(), "{table}");
    assert!(
        table.contains("unchanged") && !table.contains("regressed"),
        "{table}"
    );
    // all four workloads, and the named metrics beside the shared ones
    for row in [
        "wire_get",
        "wire_update",
        "embedded_batch",
        "recovery",
        "get_p99_us",
        "recover_p50_ms",
        "error_share",
    ] {
        assert!(table.contains(row), "{row} missing from\n{table}");
    }
    std::fs::remove_file(repo_root().join(ledger)).expect("ledger was written");
}
