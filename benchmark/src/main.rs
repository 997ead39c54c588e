//! PENGUIN's benchmark: four workloads, end-to-end and per-layer metrics,
//! every layer measured from outside through its public API. See
//! `benchmark/README.md`.
//!
//! ```text
//! vo-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]   one workload, in this process
//! vo-benchmark [--seed N] [--seconds S] [--trace] [--smoke] [--label L]  all four, one process each
//! vo-benchmark compare BASE.json NEW.json
//! vo-benchmark --check-counts [--seed N] [--smoke]
//! ```

mod catalog;
mod counters;
mod embedded;
mod fixture;
mod gen;
mod host;
mod ledger;
mod load;
mod pace;
mod recovery;
mod replay;
mod report;
mod spans;
mod stats;
mod wire;

use report::{Config, Outcome};
use std::io::Write;
use std::process::ExitCode;

/// The measured window when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds` says the same.
const DEFAULT_SECONDS: f64 = 22.0;
/// The measured window of a smoke run.
const SMOKE_SECONDS: f64 = 1.0;
const DEFAULT_SEED: u64 = 42;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check_counts: bool,
    label: String,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        check_counts: false,
        label: "latest".to_owned(),
        positional: Vec::new(),
    };
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_owned())?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_owned())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                parsed.seconds = Some(seconds);
            }
            // `--trace 0|1` for the driver, bare `--trace` by hand
            "--trace" => {
                parsed.trace = match rest.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => parsed.smoke = true,
            "--check-counts" => parsed.check_counts = true,
            "--label" => {
                let label = value("a name")?;
                if label.is_empty()
                    || !label
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c))
                {
                    return Err("--label takes letters, digits, '-', '_' and '.'".to_owned());
                }
                parsed.label = label;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn run_workload(cfg: &Config) -> Outcome {
    match cfg.workload {
        catalog::WIRE_GET => wire::run_get(cfg),
        catalog::WIRE_UPDATE => wire::run_update(cfg),
        catalog::EMBEDDED_BATCH => embedded::run(cfg),
        _ => recovery::run(cfg),
    }
}

/// Write the run's spans as JSON lines, one span each.
fn write_spans(workload: &str, outcome: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(ledger::RESULTS)?;
    let path = format!("{}/trace-{workload}.jsonl", ledger::RESULTS);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in outcome.spans.iter().enumerate() {
        for (id, span) in spans.iter().enumerate() {
            writeln!(out, "{}", span.to_json(thread, id).compact())?;
        }
    }
    out.flush()
}

/// One workload in this process: every metric by name, the record, and
/// the driver's line last.
fn single(args: &Args, name: &str, seconds: f64) -> Result<(), String> {
    let workload = catalog::WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .find(|w| *w == name)
        .ok_or_else(|| format!("no workload {name}"))?;
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let mut outcome = run_workload(&cfg);
    outcome.set("peak_rss_mb", host::peak_rss_mib());
    outcome.set("error_share", outcome.error_share());
    if cfg.trace {
        write_spans(workload, &outcome).map_err(|e| format!("writing spans: {e}"))?;
    }
    let record = report::record(&cfg, &host::describe(), &outcome);
    if let Ok(metrics) = record.field("metrics") {
        report::print_metrics(workload, metrics);
    }
    for failure in &outcome.failures {
        println!("{workload:<15} FAILED: {failure}");
    }
    println!("{}{}", ledger::RECORD_PREFIX, record.compact());
    println!("{}", report::driver_line(&cfg, &outcome));
    Ok(())
}

fn dispatch(args: &Args) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if let Some(name) = &args.workload {
        return single(args, name, seconds);
    }
    match args.positional.as_slice() {
        [command, base, new] if command == "compare" => ledger::compare(base, new),
        [] if args.check_counts => ledger::check_counts(args.seed, seconds, args.smoke),
        [] => ledger::run_suite(&ledger::Suite {
            seed: args.seed,
            seconds,
            trace: args.trace,
            smoke: args.smoke,
            label: args.label.clone(),
        }),
        other => Err(format!("unexpected arguments {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|args| dispatch(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(problem) => {
            eprintln!("vo-benchmark: {problem}");
            ExitCode::FAILURE
        }
    }
}
