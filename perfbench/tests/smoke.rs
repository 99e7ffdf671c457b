//! Smoke-size runs of every workload, end to end and traced, checked
//! against the metric names and units `BENCHMARK.json` declares.

use cape_obs::Json;
use cape_perfbench::data::{Sizes, Workload};
use cape_perfbench::run::{run_end_to_end, Report, RunConfig};
use std::path::PathBuf;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("name/unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn config(workload: Workload, trace: bool) -> RunConfig {
    let tag = format!("{}-{}", workload.name(), if trace { "trace" } else { "e2e" });
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    // A WAL left by an earlier test run would be replayed into the twin
    // stores; start from nothing, as the binary's per-process directory does.
    let _ = std::fs::remove_dir_all(&root);
    let work_dir = root.join("work");
    std::fs::create_dir_all(&work_dir).expect("work dir");
    RunConfig {
        workload,
        seed: 1,
        seconds: 1.5,
        sizes: Sizes::smoke(),
        work_dir,
        out_dir: root.join("out"),
    }
}

fn assert_reports(report: &Report, section: &str) {
    let got: Vec<(String, String)> =
        report.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
    assert_eq!(got, declared(section), "metrics differ from BENCHMARK.json `{section}`");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
    }
    assert!(report.tally.attempted > 0);
    assert_eq!(report.tally.failed, 0, "failures: {:?}", report.tally.examples);
}

#[test]
fn every_workload_runs_end_to_end() {
    for w in Workload::ALL {
        let report = run_end_to_end(&config(w, false)).expect("end-to-end run");
        assert_reports(&report, "end_to_end");
        for m in &report.metrics {
            assert!(m.value > 0.0, "{}: {} must be positive", w.name(), m.name);
        }
    }
}

#[test]
fn every_workload_runs_traced() {
    for w in Workload::ALL {
        let cfg = config(w, true);
        let report = cape_perfbench::replay::run_traced(&cfg).expect("traced run");
        assert_reports(&report, "per_layer");
        let file = cfg.out_dir.join(format!("spans-{}-seed1.json", w.name()));
        let doc = Json::parse(&std::fs::read_to_string(file).expect("span file")).unwrap();
        let spans = cape_perfbench::spans::from_json(&doc).expect("span file parses");
        assert!(spans.iter().any(|s| s.name == "question.resolve"));
        assert!(spans.iter().any(|s| s.name == "incr.append"));
    }
}
