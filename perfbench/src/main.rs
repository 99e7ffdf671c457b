//! `cape-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints every metric with its
//! unit, then a full record (metrics, counts, host fingerprint), then a
//! one-line summary `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when any operation failed or an answer was wrong, 2 on a
//! usage error. `--workload all` runs each workload in its own child
//! process.

use cape_obs::Json;
use cape_perfbench::data::{Sizes, Workload};
use cape_perfbench::run::{run_end_to_end, Report, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: cape-perfbench --workload <serve-cold|serve-hot|ingest|all> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Run every workload, each in a child process of this executable.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return usage(&format!("cannot locate own executable: {e}")),
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        if let Some(i) = args.iter().position(|a| a == "--workload") {
            args[i + 1] = w.name().to_string();
        }
        eprintln!("== {} ==", w.name());
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("error: running {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn num(v: f64) -> Json {
    // JSON has no NaN; a metric that could not be measured is null.
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

fn print_report(args: &Args, report: &Report) {
    for m in &report.metrics {
        println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let metrics = Json::Obj(
        report
            .metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect(),
    );
    let correct = report.tally.failed == 0;
    let mut record = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("host".into(), cape_perfbench::fingerprint::fingerprint(args.seed)),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(report.tally.attempted as f64)),
        ("failed".into(), Json::Num(report.tally.failed as f64)),
        ("error_rate".into(), Json::Num(report.tally.error_rate())),
        (
            "failures".into(),
            Json::Arr(report.tally.examples.iter().map(|e| Json::Str(e.clone())).collect()),
        ),
        ("metrics".into(), metrics.clone()),
    ];
    record.extend(report.info.iter().cloned());
    println!("{}", Json::Obj(vec![("record".into(), Json::Obj(record))]));
    let summary = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(report.tally.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(report.tally.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{summary}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if args.workload == "all" {
        return run_all();
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        return usage(&format!("unknown workload `{}`", args.workload));
    };
    // CSVs, snapshots and WALs live in a per-run directory under the
    // working directory, removed when the run ends.
    let work_dir = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        sizes: Sizes::full(),
        work_dir: work_dir.clone(),
        out_dir: PathBuf::from(".bench_out"),
    };
    let result =
        if args.trace { cape_perfbench::replay::run_traced(&cfg) } else { run_end_to_end(&cfg) };
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    match result {
        Ok(report) => {
            print_report(&args, &report);
            if report.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                for e in &report.tally.examples {
                    eprintln!("failure: {e}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
