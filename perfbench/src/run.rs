//! One benchmark run: one workload, one seed, one process.

use crate::check::{compare_answer, reference_answer, stores_equal};
use crate::data::{dataset, Dataset, Question, Sizes, Workload};
use crate::fingerprint::{peak_rss_mb, reset_peak_rss};
use crate::load::{
    append_client, explain_phase, validate_explain, AppendRun, ExplainRun, Until, MAX_STRETCH,
};
use crate::rng::Rng;
use crate::stack::{set_up, Backing, SetupTimes, Stack};
use crate::stats::{median, percentile, tail_percentile, Tally};
use cape_core::mining::{ArpMiner, Miner};
use cape_core::store::PatternStore;
use cape_data::{Relation, Value};
use cape_net::testclient::Client;
use cape_obs::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Explain clients on the serve-* workloads.
pub const CLIENTS: usize = 2;
/// Windows the timed read phase is split into, each with at least
/// 1,000 answers. `explain_p99_ms` is the lowest of their p99s: a
/// neighbour busy on the shared host inflates the tail of the windows it
/// overlaps, while a slower program raises the p99 of every window.
pub const WINDOWS: usize = 4;
/// Read rounds per window on the serve-* workloads, each followed by a
/// write probe on a fresh twin store; the append metrics are medians
/// over all probes. Interleaved with the reads, the probes sample the
/// host's speed, which drifts over tens of seconds, as the reads do.
pub const PROBES_PER_WINDOW: usize = 4;
/// Timed appends per write probe, after [`PROBE_WARMUP_APPENDS`]
/// untimed ones. Each probe appends the same rows, so probes repeat the
/// same work.
pub const PROBE_APPENDS: usize = 50;
/// Most warm-up rounds of `warmup_s` on the serve-* workloads.
pub const MAX_WARMUP_ROUNDS: u64 = 15;
/// Untimed appends that open each write probe.
pub const PROBE_WARMUP_APPENDS: usize = 3;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for CSVs, snapshots and WALs (removed after).
    pub work_dir: PathBuf,
    /// Where the traced run writes its span file.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Attempted and failed operations (requests, appends, checks).
    pub tally: Tally,
    /// Sample counts and other context for the full record.
    pub info: Vec<(String, Json)>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Add context to the record.
    pub fn info(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }
}

/// Inputs shared by the end-to-end and traced runs.
pub struct Inputs {
    /// Generated dataset.
    pub ds: Dataset,
    /// The CSV the set-up starts from.
    pub csv: PathBuf,
    /// Question pool.
    pub pool: Vec<Question>,
    /// How the workload's store is served.
    pub backing: Backing,
}

/// Generate the workload's inputs and write its CSV under `work_dir`.
pub fn inputs(cfg: &RunConfig) -> Result<Inputs, String> {
    let ds = dataset(cfg.workload, &cfg.sizes, cfg.seed);
    let csv = cfg.work_dir.join(format!("{}.csv", ds.store_name));
    ds.write_csv(&csv).map_err(|e| format!("write {}: {e}", csv.display()))?;
    let size = match cfg.workload {
        Workload::ServeCold => cfg.sizes.cold_pool,
        Workload::ServeHot | Workload::Ingest => cfg.sizes.hot_pool,
    };
    let pool = ds.question_pool(size, &mut Rng::new(cfg.seed, 2));
    let backing = match cfg.workload {
        Workload::Ingest => Backing::Incremental,
        Workload::ServeCold | Workload::ServeHot => Backing::V2,
    };
    Ok(Inputs { ds, csv, pool, backing })
}

/// Set the stack up `reps` times, keeping the last one running;
/// returns every set-up's timings.
pub fn set_up_repeatedly(
    inp: &Inputs,
    work_dir: &Path,
    reps: usize,
    spans: Option<&crate::spans::SpanLog>,
) -> Result<(Stack, Vec<SetupTimes>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps.max(1) {
        // Stop the previous server first: one server at a time.
        drop(last.take());
        let dir = work_dir.join(format!("setup{rep}"));
        let stack = set_up(&inp.ds, &inp.csv, &dir, inp.backing, spans)?;
        times.push(stack.times.clone());
        last = Some(stack);
    }
    Ok((last.expect("at least one set-up"), times))
}

fn dur(secs: f64) -> Duration {
    Duration::from_secs_f64(secs.max(0.0))
}

/// Ask a seeded sample of `pool` over HTTP and compare every answer
/// with the in-process explainer over `rel` and `store`.
pub fn check_sample(
    stack: &Stack,
    inp: &Inputs,
    rel: &Relation,
    store: &PatternStore,
    n: usize,
    seed: u64,
) -> Tally {
    let mut tally = Tally::default();
    let mut rng = Rng::new(seed, 3);
    let mut client = match Client::connect(stack.server.local_addr()) {
        Ok(c) => c,
        Err(e) => {
            tally.fail(format!("check connect: {e}"));
            return tally;
        }
    };
    let path = inp.ds.explain_path();
    for _ in 0..n {
        let q = &inp.pool[rng.below(inp.pool.len())];
        let outcome = client
            .post_json(&path, &q.body)
            .map_err(|e| format!("check io: {e}"))
            .and_then(|r| validate_explain(&r))
            .and_then(|body| {
                let reference = reference_answer(&inp.ds, rel, store, q)?;
                compare_answer(&body, &reference, rel.schema(), store)
            });
        match outcome {
            Ok(()) => tally.ok(),
            Err(e) => tally.fail(format!("answer mismatch for {:?}: {e}", q.tuple)),
        }
    }
    tally
}

/// Check that the store served under `name` equals a fresh `ArpMiner`
/// mine of `base` plus `appended`; returns the fresh relation and store.
fn check_maintained(
    stack: &Stack,
    ds: &Dataset,
    name: &str,
    appended: &[Vec<Value>],
    tally: &mut Tally,
) -> Result<(Relation, PatternStore), String> {
    let mut full = stack.relation.clone();
    for row in appended {
        full.push_row(row.clone()).map_err(|e| format!("rebuild R+ΔR: {e}"))?;
    }
    let fresh = ArpMiner.mine(&full, &ds.mining).map_err(|e| format!("fresh mine: {e}"))?.store;
    match stores_equal(&stack.served_store(name), &fresh) {
        Ok(()) => tally.ok(),
        Err(e) => tally.fail(format!("served store of `{name}` != fresh mine of R+ΔR: {e}")),
    }
    Ok((full, fresh))
}

/// Nearest-rank percentile `q` of unsorted samples (NaN when empty).
fn pct(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        f64::NAN
    } else {
        percentile(&v, q)
    }
}

/// Warn when a sample set is too small for percentile `q` by the tail
/// rule: the highest percentile reported needs ten samples beyond it.
fn warn_short_tail(what: &str, sizes: impl Iterator<Item = usize>, q: f64) {
    for n in sizes {
        if tail_percentile(n).is_none_or(|highest| highest < q) {
            eprintln!(
                "warning: a {what} of {n} samples leaves fewer than 10 beyond p{}",
                q * 100.0
            );
        }
    }
}

/// `explain_rps` over the whole read phase, `explain_p50_ms` over all its
/// samples, `explain_p99_ms` the lowest of the windows' p99s (the record
/// also has each window's p99 and the p99 of all samples pooled). A
/// window with fewer than `min_samples` answers counts as a failure.
fn explain_metrics(report: &mut Report, windows: &[ExplainRun], min_samples: usize) {
    let answered: usize = windows.iter().map(|w| w.latencies_ms.len()).sum();
    let wall: f64 = windows.iter().map(|w| w.wall_s).sum();
    let all: Vec<f64> = windows.iter().flat_map(|w| w.latencies_ms.iter().copied()).collect();
    let p99s: Vec<f64> = windows.iter().map(|w| pct(&w.latencies_ms, 0.99)).collect();
    report.metric("explain_rps", answered as f64 / wall, "1/s");
    report.metric("explain_p50_ms", pct(&all, 0.5), "ms");
    report.metric("explain_p99_ms", p99s.iter().copied().fold(f64::INFINITY, f64::min), "ms");
    let nums = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());
    report.info("explain_p99_ms_per_window", nums(p99s));
    report.info("explain_p99_ms_pooled", Json::Num(pct(&all, 0.99)));
    let counts = windows.iter().map(|w| w.latencies_ms.len() as f64).collect();
    report.info("explain_samples_per_window", nums(counts));
    for w in windows {
        let n = w.latencies_ms.len();
        if n < min_samples {
            report.tally.fail(format!("a read window has {n} answers, fewer than {min_samples}"));
        }
    }
}

/// Append rate and p50: medians over the write probes. The p90, over
/// all appends pooled, goes to the record only: its run-to-run spread on
/// a shared host is wider than any bound the benchmark can gate on.
fn append_metrics(report: &mut Report, probes: &[AppendRun]) {
    let med = |f: &dyn Fn(&AppendRun) -> f64| median(&probes.iter().map(f).collect::<Vec<_>>());
    report.metric("append_rows_per_s", med(&|p| p.rows.len() as f64 / p.active_s), "1/s");
    report.metric("append_p50_ms", med(&|p| pct(&p.latencies_ms, 0.5)), "ms");
    let all: Vec<f64> = probes.iter().flat_map(|p| p.latencies_ms.iter().copied()).collect();
    report.info("append_p90_ms", Json::Num(pct(&all, 0.9)));
    report.info("append_samples", Json::Num(all.len() as f64));
    warn_short_tail("set of appends", std::iter::once(all.len()), 0.9);
}

/// The serve-* write probe: an incremental twin of `stack`'s store (the
/// v2 store itself takes no appends) is registered on `stack`'s server
/// and sent batches one at a time: a few untimed,
/// then [`PROBE_APPENDS`] timed (fewer if `cap` runs out). The twin
/// must then equal a fresh mine of its rows.
fn append_probe(
    stack: &Stack,
    inp: &Inputs,
    dir: &Path,
    cap: Duration,
    tally: &mut Tally,
) -> Result<AppendRun, String> {
    let (incr, _) = stack.open_twin(&inp.ds, dir)?;
    let name = format!("{}-twin", inp.ds.store_name);
    stack.registry.register_incremental(
        &name,
        stack.relation.clone(),
        incr,
        cape_serve::ServeConfig::with_threads(crate::stack::WORKERS),
    );
    let batch = crate::data::APPEND_BATCH;
    let tail = &inp.ds.tail;
    let (warm_rows, rows) = tail.split_at((PROBE_WARMUP_APPENDS * batch).min(tail.len()));
    let rows = &rows[..(PROBE_APPENDS * batch).min(rows.len())];
    let (addr, to) = (stack.server.local_addr(), Dataset::append_path(&name));
    let never = AtomicBool::new(false);
    let warm = append_client(addr, &to, warm_rows, Instant::now() + cap, &never);
    tally.merge(warm.tally);
    let run = append_client(addr, &to, rows, Instant::now() + cap, &never);
    tally.merge(run.tally.clone());
    let appended: Vec<Vec<Value>> = warm.rows.into_iter().chain(run.rows.iter().cloned()).collect();
    check_maintained(stack, &inp.ds, &name, &appended, tally)?;
    Ok(run)
}

/// [`WINDOWS`] back-to-back timed read windows of `--seconds`/[`WINDOWS`]
/// each, every one run on until it has `window_samples` answers.
fn read_windows(
    addr: std::net::SocketAddr,
    inp: &Inputs,
    clients: usize,
    cfg: &RunConfig,
) -> Vec<ExplainRun> {
    let path = inp.ds.explain_path();
    let window = dur(cfg.seconds) / WINDOWS as u32;
    (0..WINDOWS)
        .map(|w| {
            let draw = (cfg.seed, 200 + 10 * w as u64);
            let until = Until::stretched(window, cfg.sizes.window_samples, window * MAX_STRETCH);
            explain_phase(addr, &path, &inp.pool, clients, draw, until)
        })
        .collect()
}

/// The end-to-end run: set-up (repeated), warm-up, the timed phase,
/// correctness checks. Installs no cape-obs recorder.
///
/// `peak_rss_mb` brackets serving: the high-water mark is reset after
/// warm-up and read right after the first read round, before any write
/// probe, extra set-up or check.
pub fn run_end_to_end(cfg: &RunConfig) -> Result<Report, String> {
    let inp = inputs(cfg)?;
    let serve = inp.backing == Backing::V2;
    // The serve-* workloads set up once here and once more for each write
    // probe, so their set-up samples spread over the whole run.
    let reps = if serve { 1 } else { cfg.sizes.setup_reps };
    let (stack, mut setups) = set_up_repeatedly(&inp, &cfg.work_dir, reps, None)?;
    let mut report = Report::default();
    let addr = stack.server.local_addr();
    let path = inp.ds.explain_path();
    let warmup = dur(cfg.sizes.warmup_s);
    let measure = dur(cfg.seconds);

    let (peak_reset, peak_rss) = match cfg.workload {
        Workload::ServeCold | Workload::ServeHot => {
            // Warm-up fills the drill cache (or takes in the whole
            // working set): it runs in rounds until one leaves the cache
            // no larger. Its failures still count.
            let entries = || cache_len(&stack, inp.ds.store_name);
            for round in 0..MAX_WARMUP_ROUNDS {
                let before = entries();
                let draw = (cfg.seed, 100 + round);
                let warm =
                    explain_phase(addr, &path, &inp.pool, CLIENTS, draw, Until::after(warmup));
                report.tally.merge(warm.tally);
                if entries() <= before {
                    break;
                }
            }
            report.info("drill_cache_entries", Json::Num(entries() as f64));
            let window_len = measure / WINDOWS as u32;
            let round = window_len / PROBES_PER_WINDOW as u32;
            let (mut windows, mut probes) = (Vec::new(), Vec::new());
            let (peak_reset, mut peak_rss) = (reset_peak_rss(), None);
            for w in 0..WINDOWS {
                let mut window = ExplainRun::default();
                for r in 0..PROBES_PER_WINDOW {
                    let until = if r + 1 == PROBES_PER_WINDOW {
                        // A window's last round runs on until the window
                        // has its samples, within MAX_STRETCH times the
                        // window's length.
                        let short =
                            cfg.sizes.window_samples.saturating_sub(window.latencies_ms.len());
                        let cap = (window_len * MAX_STRETCH).saturating_sub(dur(window.wall_s));
                        Until::stretched(round, short, cap)
                    } else {
                        Until::after(round)
                    };
                    let draw = (cfg.seed, 200 + 10 * (w * PROBES_PER_WINDOW + r) as u64);
                    window.extend(explain_phase(addr, &path, &inp.pool, CLIENTS, draw, until));
                    if peak_rss.is_none() {
                        peak_rss = peak_rss_mb();
                    }
                    // Each probe runs on a stack set up for it and shut
                    // down after it, so nothing of it stays in the
                    // serving stack.
                    let dir = cfg.work_dir.join(format!("setup{}", setups.len()));
                    let probe_stack = set_up(&inp.ds, &inp.csv, &dir, inp.backing, None)?;
                    setups.push(probe_stack.times.clone());
                    let probe_dir = dir.join("probe");
                    let probe =
                        append_probe(&probe_stack, &inp, &probe_dir, measure, &mut report.tally)?;
                    probes.push(probe);
                }
                report.tally.merge(window.tally.clone());
                windows.push(window);
            }
            report.info("cache_hit_ratio", Json::Num(hit_ratio(&stack, inp.ds.store_name)));
            report.tally.merge(check_sample(
                &stack,
                &inp,
                &stack.relation,
                &stack.mined.store,
                cfg.sizes.check_sample,
                cfg.seed,
            ));
            explain_metrics(&mut report, &windows, cfg.sizes.window_samples);
            append_metrics(&mut report, &probes);
            (peak_reset, peak_rss)
        }
        Workload::Ingest => {
            let warm =
                explain_phase(addr, &path, &inp.pool, 1, (cfg.seed, 100), Until::after(warmup));
            report.tally.merge(warm.tally);
            let append_path = Dataset::append_path(inp.ds.store_name);
            let peak_reset = reset_peak_rss();
            // The appender runs until the reads end, however long their
            // windows take to collect their samples.
            let reads_done = AtomicBool::new(false);
            let (appends, windows) = std::thread::scope(|s| {
                let appender = s.spawn(|| {
                    let cap = Instant::now() + measure * MAX_STRETCH;
                    append_client(addr, &append_path, &inp.ds.tail, cap, &reads_done)
                });
                let windows = read_windows(addr, &inp, 1, cfg);
                reads_done.store(true, Ordering::Relaxed);
                (appender.join().expect("append client thread"), windows)
            });
            let peak_rss = peak_rss_mb();
            for w in &windows {
                report.tally.merge(w.tally.clone());
            }
            report.tally.merge(appends.tally.clone());
            let (full, fresh) = check_maintained(
                &stack,
                &inp.ds,
                inp.ds.store_name,
                &appends.rows,
                &mut report.tally,
            )?;
            report.tally.merge(check_sample(
                &stack,
                &inp,
                &full,
                &fresh,
                cfg.sizes.check_sample,
                cfg.seed,
            ));
            explain_metrics(&mut report, &windows, cfg.sizes.window_samples);
            append_metrics(&mut report, std::slice::from_ref(&appends));
            (peak_reset, peak_rss)
        }
    };
    let mine: Vec<f64> = setups.iter().map(|t| t.mine_s).collect();
    let setup: Vec<f64> = setups.iter().map(|t| t.setup_s).collect();
    report.metric("mine_s", median(&mine), "s");
    report.metric("setup_s", median(&setup), "s");
    report.metric("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MiB");
    report.info("peak_rss_scope", Json::Str(if peak_reset { "serving" } else { "process" }.into()));
    report.info("setup_reps", Json::Num(setups.len() as f64));
    Ok(report)
}

/// Entries in the drill cache of the store's current epoch.
fn cache_len(stack: &Stack, name: &str) -> usize {
    stack.registry.get(name).expect("registered store").epoch().service.cache().len()
}

/// Drill-cache hits ÷ lookups of the store's current epoch.
pub fn hit_ratio(stack: &Stack, name: &str) -> f64 {
    let epoch = stack.registry.get(name).expect("registered store").epoch();
    let cache = epoch.service.cache();
    let lookups = cache.hits() + cache.misses();
    if lookups == 0 {
        0.0
    } else {
        cache.hits() as f64 / lookups as f64
    }
}
