//! Host and build fingerprint stamped into every output record, so a
//! number from another host or build is recognisable as such.

use cape_obs::Json;
use std::process::Command;

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let mut command = Command::new(cmd);
    command.args(args);
    // Keep git from reporting the revision of an enclosing repository
    // when the benchmark runs from a plain source checkout.
    if let Some(parent) = std::env::current_dir().ok().as_deref().and_then(|d| d.parent()) {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = command.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).lines().next()?.trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn kernel() -> Option<String> {
    std::fs::read_to_string("/proc/sys/kernel/osrelease").ok().map(|s| s.trim().to_string())
}

/// CPU count, CPU model, kernel, git revision, rustc version and the
/// workload seed. Anything unavailable reads `"unknown"` (a source
/// checkout without `.git` has no revision).
pub fn fingerprint(seed: u64) -> Json {
    let or_unknown = |v: Option<String>| Json::Str(v.unwrap_or_else(|| "unknown".into()));
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("cpus".into(), Json::Num(cpus as f64)),
        ("cpu_model".into(), or_unknown(cpu_model())),
        ("kernel".into(), or_unknown(kernel())),
        ("git_rev".into(), or_unknown(first_line("git", &["rev-parse", "HEAD"]))),
        ("rustc".into(), or_unknown(first_line("rustc", &["--version"]))),
        ("seed".into(), Json::Num(seed as f64)),
    ])
}

/// Reset the resident-set high-water mark to the current resident set
/// (Linux: `5` written to `/proc/self/clear_refs`); false where the
/// kernel does not allow it, and the mark then covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}
