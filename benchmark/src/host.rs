//! Facts about the box and the process, written into every result so a
//! number is never read without the machine it came from.

use vo_obs::json::Json;

/// Cores this process may run on: 1 when `run.sh` has pinned it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_field(path: &str, field: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|line| line.starts_with(field))
        .and_then(|line| line.split_once(':'))
        .map(|(_, value)| value.trim().to_owned())
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, when the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

pub fn describe() -> Json {
    Json::obj(vec![
        ("commit", Json::str(commit())),
        ("nproc", Json::Int(nproc() as i64)),
        (
            "cpu",
            Json::str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_owned()),
            ),
        ),
    ])
}
