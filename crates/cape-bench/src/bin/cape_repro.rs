//! `cape-repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! cape-repro [--scale quick|full] <experiment>...
//! cape-repro all            # every figure and table
//! cape-repro fig3a fig6b    # a subset
//! cape-repro bench-diff OLD.json NEW.json [--threshold PCT] [--noise-floor-ms MS]
//!                           # compare two bench records; exit 1 on a
//!                           # regression past the threshold (default 25%,
//!                           # time metrics under 10 ms both sides skipped)
//! ```
//!
//! Output mirrors the paper's rows/series; absolute numbers differ (our
//! substrate is an in-memory engine, not PostgreSQL on the authors'
//! hardware) but the comparative shape is the reproduction target.

use cape_bench::experiments::{
    ablation, explain_perf, fd_opt, incr_bench, mine_bench, mining_scaling, quality, scale_bench,
    sensitivity, serve, serve_net, store_bench, subtasks, tables, user_study,
};
use cape_bench::Scale;

const EXPERIMENTS: &[&str] = &[
    "fig3a",
    "fig3b",
    "fig3c",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig7",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "ablation",
    "userstudy",
    "serve",
    "serve-net",
    "mine-bench",
    "scale-bench",
    "store-bench",
    "store-verify",
    "incr-bench",
    "incr-verify",
    "quality-bench",
    "quality-verify",
];

fn usage() -> ! {
    eprintln!("usage: cape-repro [--scale quick|full] <experiment>...");
    eprintln!(
        "       cape-repro bench-diff OLD.json NEW.json [--threshold PCT] [--noise-floor-ms MS]"
    );
    eprintln!("experiments: all {}", EXPERIMENTS.join(" "));
    std::process::exit(2);
}

/// `cape-repro bench-diff OLD NEW [--threshold PCT] [--noise-floor-ms MS]`:
/// exit 0 when no metric regressed past the threshold, 1 when one did, 2
/// on usage or unreadable/unparseable inputs.
fn bench_diff(args: &[String]) -> ! {
    let mut paths = Vec::new();
    let mut threshold_pct = 25.0;
    let mut noise_floor_s = cape_bench::diff::DEFAULT_NOISE_FLOOR_S;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                threshold_pct = match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(v) if v >= 0.0 => v,
                    _ => usage(),
                };
            }
            "--noise-floor-ms" => {
                i += 1;
                noise_floor_s = match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(v) if v >= 0.0 => v / 1e3,
                    _ => usage(),
                };
            }
            other if !other.starts_with('-') => paths.push(other.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    let [old_path, new_path] = paths.as_slice() else { usage() };
    let load = |path: &str| -> cape_obs::Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench-diff: cannot read {path}: {e}");
            std::process::exit(2);
        });
        cape_obs::Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("bench-diff: {path} is not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let (old, new) = (load(old_path), load(new_path));
    match cape_bench::diff::diff_records_with(&old, &new, threshold_pct, noise_floor_s) {
        Ok(report) => {
            print!("{}", report.render());
            std::process::exit(if report.regressions().is_empty() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("bench-diff: {e}");
            std::process::exit(2);
        }
    }
}

fn run(name: &str, scale: Scale) -> String {
    eprintln!("running {name} ({scale:?}) ...");
    match name {
        "fig3a" => mining_scaling::fig3a(scale),
        "fig3b" => mining_scaling::fig3b(scale),
        "fig3c" => mining_scaling::fig3c(scale),
        "fig4" => subtasks::fig4(scale),
        "fig5" => fd_opt::fig5(scale),
        "fig6a" => explain_perf::fig6a(scale),
        "fig6b" => explain_perf::fig6b(scale),
        "fig6c" => explain_perf::fig6c(scale),
        "fig7" => {
            let (rows, cases) = match scale {
                Scale::Quick => (4_000, 6),
                Scale::Full => (10_000, 10),
            };
            sensitivity::fig7(rows, cases)
        }
        "table3" => tables::table3(),
        "table4" => tables::table4(),
        "table5" => tables::table5(),
        "table6" => tables::table6(),
        "table7" => tables::table7(),
        "ablation" => ablation::ablation(),
        "serve" => serve::serve(scale),
        "serve-net" => serve_net::serve_net(scale),
        "mine-bench" | "minebench" => mine_bench::mine_bench(scale),
        "scale-bench" | "scalebench" => scale_bench::scale_bench(scale),
        "store-bench" => store_bench::store_bench(scale),
        "store-verify" => store_bench::store_verify(scale),
        "incr-bench" => incr_bench::incr_bench(scale),
        "incr-verify" => incr_bench::incr_verify(scale),
        "quality-bench" => quality::quality_bench(scale),
        "quality-verify" => quality::quality_verify(scale),
        "userstudy" => {
            let (rows, budget) = match scale {
                Scale::Quick => (3_000, 12),
                Scale::Full => (8_000, 15),
            };
            user_study::user_study(rows, budget)
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            usage()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench-diff") {
        bench_diff(&args[1..]);
    }
    let mut scale = Scale::Quick;
    let mut selected: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("quick") => scale = Scale::Quick,
                    Some("full") => scale = Scale::Full,
                    _ => usage(),
                }
            }
            "--help" | "-h" => usage(),
            other => selected.push(other.to_string()),
        }
        i += 1;
    }
    if selected.is_empty() {
        usage();
    }
    if selected.iter().any(|s| s == "all") {
        selected = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    let t0 = std::time::Instant::now();
    for name in &selected {
        let report = run(name, scale);
        println!("{report}");
    }
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
}
