//! The traced run. It replays the request stream through the public
//! functions the server calls, in the server's order — HTTP parse, JSON
//! decode, question resolve, the worker pool, JSON encode — timing each
//! call from the benchmark's own code as a span, and reads the counters
//! the program already emits. Nothing inside the program changes.
//!
//! After the set-ups (their steps are spans too), four phases of a
//! quarter of `--seconds` each:
//! 1. the end-to-end HTTP loop, untraced, for client latency;
//! 2. the explain replay without spans or recorder (`rps_bare`), and
//! 3. the same replay with spans and a cape-obs recorder (`rps_traced`).
//!    On the serve-* workloads phases 1–3 alternate in rounds, so the
//!    client latency and the layers sample the same stretch of host time.
//!    `obs.trace_overhead_frac` is 1 − rps_traced ÷ rps_bare;
//! 4. appends replayed through `IncrStore::append` on a twin store and
//!    `StoreSlot::append_rows` on a replay slot. On `ingest` a traced
//!    explain replay runs beside them and its layers are the ones
//!    reported, matching phase 1, where reads run beside appends. On the
//!    serve-* workloads a fixed number of appends run alone on
//!    incremental twins of the DBLP store.
//!
//! `net.unattributed_ms` is phase 1's mean client latency minus the sum
//! of the replayed layers' means: TCP, the connection thread and
//! anything else the replay does not pass through.

use crate::data::{Dataset, Question, APPEND_BATCH};
use crate::load::{append_client, explain_phase, Until};
use crate::rng::Rng;
use crate::run::{inputs, set_up_repeatedly, Report, RunConfig, CLIENTS};
use crate::spans::{self, self_times, SelfTime, Span, SpanLog};
use crate::stack::{Backing, SetupTimes, Stack, WORKERS};
use crate::stats::{mean, median, Tally};
use cape_core::incr::IncrStore;
use cape_data::Value;
use cape_net::http::{HttpLimits, RequestParser};
use cape_net::json_api::{explain_response_json, parse_explain_body};
use cape_net::registry::{StoreRegistry, StoreSlot};
use cape_net::response::HttpResponse;
use cape_obs::{Json, Recorder, SpanNode, ThreadContext, TraceId};
use cape_serve::{ExplainRequest, ServeConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The layers a replayed explain request passes through, in order.
pub const REQUEST_LAYERS: [&str; 5] =
    ["net.http_parse", "net.json_decode", "question.resolve", "serve.batch", "net.json_encode"];

/// Alternations of bare and traced replay behind
/// `obs.trace_overhead_frac`.
const OVERHEAD_ROUNDS: u32 = 3;

/// Batches appended by the serve-* append replay.
const SERVE_APPEND_BATCHES: usize = 60;

/// Explain statistics summed over replayed requests.
#[derive(Debug, Default)]
struct ExplainTotals {
    requests: u64,
    tuples_scanned: u64,
    candidates: u64,
    patterns_relevant: u64,
    refinements_considered: u64,
    refinements_pruned: u64,
    response_bytes: u64,
}

/// The raw HTTP request a client sends for `q`.
pub fn wire_request(path: &str, q: &Question) -> Vec<u8> {
    let body = q.body.to_string();
    format!(
        "POST {path} HTTP/1.1\r\nHost: cape\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Replay one explain request against `slot`, recording a `request` span
/// with one child per layer when `log` is given.
fn replay_one(
    slot: &StoreSlot,
    raw: &[u8],
    log: Option<(&SpanLog, u64)>,
    totals: &mut ExplainTotals,
) -> Result<(), String> {
    let trace = log.map_or(0, |(l, _)| l.next_id());
    let root = log.map(|(l, _)| l.next_id());
    let mut marks = [Instant::now(); 6];

    let request = RequestParser::new(HttpLimits::default())
        .feed(raw)
        .map_err(|e| format!("http parse: {e}"))?
        .ok_or("http parse: incomplete request")?;
    marks[1] = Instant::now();
    let epoch = slot.epoch();
    let t_decode = Instant::now();
    let json = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|s| Json::parse(s).ok())
        .ok_or("body is not JSON")?;
    marks[2] = Instant::now();
    let body = parse_explain_body(&json, epoch.handle.relation())
        .map_err(|e| format!("resolve: {}", e.message))?;
    marks[3] = Instant::now();
    let req = ExplainRequest::new(body.question, body.k).with_trace(TraceId::next());
    let resp = epoch.service.batch(vec![req]).pop().ok_or("no answer")?;
    marks[4] = Instant::now();
    let rendered = explain_response_json(
        slot.name(),
        epoch.generation,
        &resp,
        epoch.handle.relation().schema(),
        epoch.handle.store(),
    );
    let http = HttpResponse::json(200, &rendered);
    marks[5] = Instant::now();
    if resp.partial {
        return Err("partial answer".into());
    }

    totals.requests += 1;
    totals.tuples_scanned += resp.stats.tuples_checked as u64;
    totals.candidates += resp.stats.candidates_generated as u64;
    totals.patterns_relevant += resp.stats.patterns_relevant as u64;
    totals.refinements_considered += resp.stats.refinements_considered as u64;
    totals.refinements_pruned += resp.stats.refinements_pruned as u64;
    totals.response_bytes += http.body.len() as u64;

    if let (Some((log, phase)), Some(root)) = (log, root) {
        let starts = [marks[0], t_decode, marks[2], marks[3], marks[4]];
        let mut batch_id = 0;
        for (i, name) in REQUEST_LAYERS.iter().enumerate() {
            let id = log.record(trace, Some(root), name, starts[i], marks[i + 1]);
            if *name == "serve.batch" {
                batch_id = id;
            }
        }
        // Queue wait and execution are measured by the worker pool and
        // returned in the answer; they are placed inside the batch call.
        let wait_end = marks[3] + resp.queue_wait;
        log.record(trace, Some(batch_id), "serve.queue_wait", marks[3], wait_end);
        log.record(trace, Some(batch_id), "serve.exec", wait_end, wait_end + resp.exec_time);
        log.record_with_id(root, trace, Some(phase), "request", marks[0], marks[5]);
    }
    Ok(())
}

/// Completed requests over elapsed time, summed across rounds.
#[derive(Debug, Default, Clone, Copy)]
struct Rate {
    done: u64,
    secs: f64,
}

impl Rate {
    fn add(&mut self, other: Rate) {
        self.done += other.done;
        self.secs += other.secs;
    }

    fn per_s(self) -> f64 {
        self.done as f64 / self.secs
    }
}

/// Closed-loop explain replay by `threads` threads for `duration`;
/// thread `i` draws questions from RNG stream `stream + i`, and request
/// spans go under the phase span given with `log`.
#[allow(clippy::too_many_arguments)]
fn explain_replay(
    slot: &StoreSlot,
    raws: &[Vec<u8>],
    threads: usize,
    (seed, stream): (u64, u64),
    duration: Duration,
    log: Option<(&SpanLog, u64)>,
    totals: &mut ExplainTotals,
    tally: &mut Tally,
) -> Rate {
    let barrier = Barrier::new(threads + 1);
    let ctx = ThreadContext::capture();
    let (start, outs) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let (barrier, ctx) = (&barrier, ctx.clone());
                s.spawn(move || {
                    let _obs = ctx.attach();
                    let mut rng = Rng::new(seed, stream + i as u64);
                    let mut totals = ExplainTotals::default();
                    let mut tally = Tally::default();
                    barrier.wait();
                    let deadline = Instant::now() + duration;
                    while Instant::now() < deadline {
                        let raw = &raws[rng.below(raws.len())];
                        match replay_one(slot, raw, log, &mut totals) {
                            Ok(()) => tally.ok(),
                            Err(e) => tally.fail(e),
                        }
                    }
                    (totals, tally, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        (start, handles.into_iter().map(|h| h.join().expect("replay thread")).collect::<Vec<_>>())
    });
    let mut end = start;
    let mut done = 0;
    for (t, ta, stopped) in outs {
        done += t.requests;
        totals.requests += t.requests;
        totals.tuples_scanned += t.tuples_scanned;
        totals.candidates += t.candidates;
        totals.patterns_relevant += t.patterns_relevant;
        totals.refinements_considered += t.refinements_considered;
        totals.refinements_pruned += t.refinements_pruned;
        totals.response_bytes += t.response_bytes;
        tally.merge(ta);
        end = end.max(stopped);
    }
    Rate { done, secs: (end - start).as_secs_f64() }
}

/// A replay registry serving the epoch currently served by `stack`. Its
/// workers capture whatever recorder the calling thread has installed.
fn replay_slot(stack: &Stack, name: &str) -> (Arc<StoreRegistry>, Arc<StoreSlot>) {
    let registry = Arc::new(StoreRegistry::new());
    let handle = stack.registry.get(name).expect("registered store").epoch().handle.clone();
    let slot = registry.register(name, handle, ServeConfig::with_threads(WORKERS));
    (registry, slot)
}

/// Per-batch results of the append replay.
#[derive(Debug, Default)]
struct AppendTotals {
    batches: u64,
    rows: u64,
    wal_bytes: u64,
    fragments: u64,
}

/// Replay `batches` through `IncrStore::append` on `twin` and
/// `StoreSlot::append_rows` on `slot`, one batch at a time, until
/// `deadline`.
fn append_replay(
    twin: &mut IncrStore,
    slot: &StoreSlot,
    batches: &[Vec<Vec<Value>>],
    deadline: Instant,
    (log, phase): (&SpanLog, u64),
    tally: &mut Tally,
) -> AppendTotals {
    let mut totals = AppendTotals::default();
    for batch in batches {
        if Instant::now() >= deadline {
            break;
        }
        let trace = log.next_id();
        let t0 = Instant::now();
        let report = twin.append(batch.clone());
        let t1 = Instant::now();
        log.record(trace, Some(phase), "incr.append", t0, t1);
        let installed = slot.append_rows(batch.clone());
        log.record(trace, Some(phase), "registry.append", t1, Instant::now());
        match (report, installed) {
            (Ok(r), Ok(_)) => {
                tally.ok();
                totals.batches += 1;
                totals.rows += r.appended_rows as u64;
                totals.wal_bytes += r.wal_bytes;
                totals.fragments += r.touched_fragments as u64;
            }
            (Err(e), _) => tally.fail(format!("twin append: {e}")),
            (_, Err(e)) => tally.fail(format!("slot append: {e}")),
        }
    }
    totals
}

/// Self time of every node named `name` in a span tree, in seconds.
fn tree_self_s(nodes: &[SpanNode], name: &str) -> f64 {
    fn walk(nodes: &[SpanNode], name: &str) -> u64 {
        nodes
            .iter()
            .map(|n| {
                let own = if n.name == name {
                    let children: u64 = n.children.iter().map(|c| c.total_ns).sum();
                    n.total_ns.saturating_sub(children)
                } else {
                    0
                };
                own + walk(&n.children, name)
            })
            .sum()
    }
    walk(nodes, name) as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Client latency minus the sum of the replayed layers, both per-request
/// means in milliseconds: what TCP and the connection thread add.
pub fn unattributed_ms(client_mean_ms: f64, layer_means_ms: &[f64]) -> f64 {
    client_mean_ms - layer_means_ms.iter().sum::<f64>()
}

/// Mining layers: phase times from `MiningStats`, self times of the
/// miner's own `data.group_by`/`data.sort`/`regress.fit_split` spans
/// (medians over the set-ups), and ratios of its counters.
fn mining_metrics(report: &mut Report, runs: &[SetupTimes], tally: &mut Tally) {
    let med = |f: &dyn Fn(&SetupTimes) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let span_s = |name: &'static str| med(&move |t| tree_self_s(&t.mining_telemetry.spans, name));
    report.metric("mine.query_s", med(&|t| t.mining.query_time.as_secs_f64()), "s");
    report.metric("mine.regress_s", med(&|t| t.mining.regression_time.as_secs_f64()), "s");
    report.metric("mine.group_by_s", span_s("data.group_by"), "s");
    report.metric("mine.sort_s", span_s("data.sort"), "s");
    report.metric("mine.fit_s", span_s("regress.fit_split"), "s");
    let last = runs.last().expect("at least one set-up");
    let c = |name: &str| last.mining_telemetry.counter(name) as f64;
    let prefixed = |prefix: &str| {
        last.mining_telemetry
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v as f64)
            .sum::<f64>()
    };
    report.metric(
        "mine.rollup_hit_ratio",
        ratio(c("mining.rollup_hits"), c("mining.rollup_hits") + c("mining.rollup_misses")),
        "ratio",
    );
    report.metric(
        "mine.sort_cache_hit_ratio",
        ratio(
            c("mining.sort_cache_hits"),
            c("mining.sort_cache_hits") + c("mining.sort_cache_misses"),
        ),
        "ratio",
    );
    report.metric(
        "regress.fit_accept_ratio",
        ratio(prefixed("regress.fits_accepted."), prefixed("regress.fits_attempted.")),
        "ratio",
    );
    let counts: Vec<(usize, usize)> = runs.iter().map(|t| (t.patterns, t.local_patterns)).collect();
    if counts.windows(2).any(|w| w[0] != w[1]) {
        tally.fail(format!("pattern counts differ between set-ups: {counts:?}"));
    } else {
        tally.ok();
    }
    report.metric("mine.patterns", counts[0].0 as f64, "count");
    report.metric("mine.local_patterns", counts[0].1 as f64, "count");
}

/// Where the traced run writes its spans.
fn span_file_path(cfg: &RunConfig) -> PathBuf {
    cfg.out_dir.join(format!("spans-{}-seed{}.json", cfg.workload.name(), cfg.seed))
}

/// Write the span file and parse it back.
fn write_and_reparse(path: &Path, spans: &[Span]) -> Result<Vec<Span>, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, spans::to_json(spans).to_string())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("span file does not parse: {e}"))?;
    spans::from_json(&doc).map_err(|e| format!("span file: {e}"))
}

/// Time a phase as a span whose id is handed out before it starts.
struct Phase<'a> {
    log: &'a SpanLog,
    id: u64,
    start: Instant,
}

impl<'a> Phase<'a> {
    fn start(log: &'a SpanLog) -> Self {
        Phase { log, id: log.next_id(), start: Instant::now() }
    }

    fn end(self, name: &str) -> u64 {
        self.log.record_with_id(self.id, self.id, None, name, self.start, Instant::now());
        self.id
    }
}

/// Mean total duration per request of spans named `name`, in ms.
fn per_request_ms(st: &BTreeMap<String, SelfTime>, name: &str, requests: f64) -> f64 {
    st.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e6 / requests)
}

fn hit_ratio_since(rec: &Recorder, before: (u64, u64)) -> f64 {
    let hits = rec.counter("serve.cache.hits") - before.0;
    let misses = rec.counter("serve.cache.misses") - before.1;
    ratio(hits as f64, (hits + misses) as f64)
}

fn cache_counters(rec: &Recorder) -> (u64, u64) {
    (rec.counter("serve.cache.hits"), rec.counter("serve.cache.misses"))
}

/// The traced run: per-layer metrics for one workload.
pub fn run_traced(cfg: &RunConfig) -> Result<Report, String> {
    let inp = inputs(cfg)?;
    let log = SpanLog::new();
    let mut report = Report::default();
    let mut tally = Tally::default();
    let name = inp.ds.store_name;
    let ingest = inp.backing == Backing::Incremental;
    let clients = if ingest { 1 } else { CLIENTS };

    // Set-up layers, from spans recorded around each set-up step.
    let (stack, setups) = set_up_repeatedly(&inp, &cfg.work_dir, cfg.sizes.setup_reps, Some(&log))?;
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.metric("data.csv_parse_s", med(|t| t.csv_parse_s), "s");
    report.metric("snapshot.save_s", med(|t| t.save_s), "s");
    report.metric(
        "snapshot.bytes_per_row",
        stack.times.snapshot_bytes as f64 / stack.relation.num_rows() as f64,
        "B",
    );
    mining_metrics(&mut report, &setups, &mut tally);

    let phase = Duration::from_secs_f64(cfg.seconds / 4.0);
    let warmup = Duration::from_secs_f64(cfg.sizes.warmup_s);
    let addr = stack.server.local_addr();
    let path = inp.ds.explain_path();
    let tail = &inp.ds.tail;

    // Phase 1: the untraced HTTP loop. On ingest it runs here, beside
    // appends; on the serve-* workloads it runs in rounds between the
    // replay rounds below, so both sample the same stretch of host time.
    let warm =
        explain_phase(addr, &path, &inp.pool, clients, (cfg.seed, 100), Until::after(warmup));
    tally.merge(warm.tally);
    let mut http_latencies = Vec::new();
    if ingest {
        let (http, appends) = std::thread::scope(|s| {
            let appender = s.spawn(|| {
                let to = Dataset::append_path(name);
                let rows = &tail[..tail.len() / 2];
                append_client(addr, &to, rows, Instant::now() + phase, &AtomicBool::new(false))
            });
            let reads = explain_phase(
                addr,
                &path,
                &inp.pool,
                clients,
                (cfg.seed, 200),
                Until::after(phase),
            );
            (reads, appender.join().expect("append client thread"))
        });
        tally.merge(http.tally);
        tally.merge(appends.tally);
        http_latencies = http.latencies_ms;
    }

    // Phases 2 and 3: the replay bare and traced, alternating in rounds
    // so drift on the host hits both alike. The traced side has a
    // recorder installed, so the program's own counters are collected.
    let raws: Vec<Vec<u8>> = inp.pool.iter().map(|q| wire_request(&path, q)).collect();
    let mut unused = ExplainTotals::default();
    let rec = Recorder::new();
    let (_bare_registry, bare) = replay_slot(&stack, name);
    let (_traced_registry, traced_slot) = {
        let _install = rec.install();
        replay_slot(&stack, name)
    };
    explain_replay(&bare, &raws, clients, (cfg.seed, 300), warmup, None, &mut unused, &mut tally);
    {
        let _install = rec.install();
        let s = &traced_slot;
        explain_replay(s, &raws, clients, (cfg.seed, 300), warmup, None, &mut unused, &mut tally);
    }
    let before = cache_counters(&rec);
    let round = phase / OVERHEAD_ROUNDS;
    let mut traced = ExplainTotals::default();
    let (mut bare_rate, mut traced_rate) = (Rate::default(), Rate::default());
    let p = Phase::start(&log);
    for r in 0..OVERHEAD_ROUNDS {
        if !ingest {
            let draw = (cfg.seed, 200 + 10 * u64::from(r));
            let http = explain_phase(addr, &path, &inp.pool, clients, draw, Until::after(round));
            tally.merge(http.tally);
            http_latencies.extend(http.latencies_ms);
        }
        // Both sides of a round ask the same questions, each on its own
        // (equally warm) drill cache.
        let draw = (cfg.seed, 400 + 10 * u64::from(r));
        bare_rate.add(explain_replay(
            &bare,
            &raws,
            clients,
            draw,
            round,
            None,
            &mut unused,
            &mut tally,
        ));
        let _install = rec.install();
        traced_rate.add(explain_replay(
            &traced_slot,
            &raws,
            clients,
            draw,
            round,
            Some((&log, p.id)),
            &mut traced,
            &mut tally,
        ));
    }
    let phase3 = p.end("replay.explain");
    let hits3 = hit_ratio_since(&rec, before);
    let (rps_bare, rps_traced) = (bare_rate.per_s(), traced_rate.per_s());
    drop((bare, traced_slot));
    let client_mean_ms = mean(&http_latencies);

    // Phase 4: appends replayed on a twin store and on a replay slot.
    let (mut twin_store, twin_open_s) = stack.open_twin(&inp.ds, &cfg.work_dir.join("twin"))?;
    let (slot_store, _) = stack.open_twin(&inp.ds, &cfg.work_dir.join("slot"))?;
    let batches: Vec<Vec<Vec<Value>>> =
        tail[tail.len() / 2..].chunks_exact(APPEND_BATCH).map(<[_]>::to_vec).collect();
    let mut beside = ExplainTotals::default();
    let rec4 = Recorder::new();
    let (appended, phase4) = {
        let _install = rec4.install();
        let registry = StoreRegistry::new();
        let slot = registry.register_incremental(
            name,
            stack.relation.clone(),
            slot_store,
            ServeConfig::with_threads(WORKERS),
        );
        let p = Phase::start(&log);
        let appended = if ingest {
            // Reads beside the appends, as in phase 1. New epochs are
            // installed by the appending thread, so it carries the
            // recorder for their worker pools too.
            let deadline = Instant::now() + phase;
            let ctx = ThreadContext::capture();
            let (out, reads_tally) = std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let _obs = ctx.attach();
                    let mut t = Tally::default();
                    let out = append_replay(
                        &mut twin_store,
                        &slot,
                        &batches,
                        deadline,
                        (&log, p.id),
                        &mut t,
                    );
                    (out, t)
                });
                let mut reads_tally = Tally::default();
                explain_replay(
                    &slot,
                    &raws,
                    1,
                    (cfg.seed, 500),
                    phase,
                    Some((&log, p.id)),
                    &mut beside,
                    &mut reads_tally,
                );
                let (out, t) = writer.join().expect("append replay thread");
                reads_tally.merge(t);
                (out, reads_tally)
            });
            tally.merge(reads_tally);
            out
        } else {
            let n = SERVE_APPEND_BATCHES.min(batches.len());
            let no_deadline = Instant::now() + Duration::from_secs(3600);
            append_replay(
                &mut twin_store,
                &slot,
                &batches[..n],
                no_deadline,
                (&log, p.id),
                &mut tally,
            )
        };
        (appended, p.end("replay.append"))
    };

    // Every layer number below comes from the spans after a round trip
    // through the span file, so a file that does not parse fails the run.
    let file = span_file_path(cfg);
    let parsed = write_and_reparse(&file, &log.spans())?;
    report.info("span_file", Json::Str(file.display().to_string()));
    report.info("spans", Json::Num(parsed.len() as f64));

    // Explain layers: phase 3 on serve-*, phase 4 (beside appends) on ingest.
    let (explain_phase_id, totals, hit) = if ingest {
        (phase4, &beside, hit_ratio_since(&rec4, (0, 0)))
    } else {
        (phase3, &traced, hits3)
    };
    let st = self_times(&descendants(&parsed, explain_phase_id));
    let n = totals.requests.max(1) as f64;
    let ms = |layer: &str| per_request_ms(&st, layer, n);
    report.metric("question.resolve_ms", ms("question.resolve"), "ms");
    report.metric("net.http_parse_us", ms("net.http_parse") * 1e3, "us");
    report.metric("net.json_decode_us", ms("net.json_decode") * 1e3, "us");
    report.metric("net.json_encode_us", ms("net.json_encode") * 1e3, "us");
    report.metric("net.response_bytes", totals.response_bytes as f64 / n, "B");
    let layers: Vec<f64> = REQUEST_LAYERS.iter().map(|l| ms(l)).collect();
    report.metric("net.unattributed_ms", unattributed_ms(client_mean_ms, &layers), "ms");
    report.metric("serve.queue_wait_ms", ms("serve.queue_wait"), "ms");
    report.metric("serve.exec_ms", ms("serve.exec"), "ms");
    report.metric(
        "serve.handoff_ms",
        st.get("serve.batch").map_or(0.0, |s| s.self_ns as f64 / 1e6 / n),
        "ms",
    );
    report.metric("serve.cache_hit_ratio", hit, "ratio");
    report.metric("explain.tuples_scanned", totals.tuples_scanned as f64 / n, "count");
    report.metric("explain.candidates", totals.candidates as f64 / n, "count");
    report.metric(
        "explain.useful_ratio",
        ratio(totals.candidates as f64, totals.tuples_scanned as f64),
        "ratio",
    );
    report.metric("explain.patterns_relevant", totals.patterns_relevant as f64 / n, "count");
    report.metric(
        "explain.refinements_considered",
        totals.refinements_considered as f64 / n,
        "count",
    );
    report.metric(
        "explain.prune_ratio",
        ratio(totals.refinements_pruned as f64, totals.refinements_considered as f64),
        "ratio",
    );

    // Set-up loads and append layers.
    let load_s = if ingest {
        // The v1 load `IncrStore::open` performs, timed on its own.
        let t0 = Instant::now();
        cape_core::snapshot::load_snapshot(&stack.snapshot, &stack.relation)
            .map_err(|e| format!("load snapshot: {e}"))?;
        t0.elapsed().as_secs_f64()
    } else {
        med(|t| t.load_s)
    };
    report.metric("snapshot.load_s", load_s, "s");
    report.metric("incr.open_s", if ingest { med(|t| t.load_s) } else { twin_open_s }, "s");
    let st = self_times(&descendants(&parsed, phase4));
    let b = appended.batches.max(1) as f64;
    report.metric("incr.append_ms", per_request_ms(&st, "incr.append", b), "ms");
    report.metric("registry.append_ms", per_request_ms(&st, "registry.append", b), "ms");
    report.metric("incr.fragments_per_append", appended.fragments as f64 / b, "count");
    report.metric(
        "incr.wal_bytes_per_row",
        ratio(appended.wal_bytes as f64, appended.rows as f64),
        "B",
    );
    report.metric("obs.trace_overhead_frac", 1.0 - rps_traced / rps_bare, "ratio");

    report.info("http_explain_samples", Json::Num(http_latencies.len() as f64));
    report.info("http_client_mean_ms", Json::Num(client_mean_ms));
    report.info("replay_requests", Json::Num(totals.requests as f64));
    report.info("replay_appends", Json::Num(appended.batches as f64));
    report.info("rps_bare", Json::Num(rps_bare));
    report.info("rps_traced", Json::Num(rps_traced));
    report.tally = tally;
    Ok(report)
}

/// `root` and every span below it.
pub fn descendants(spans: &[Span], root: u64) -> Vec<Span> {
    let mut keep: std::collections::HashSet<u64> = [root].into();
    // Parents are recorded after their children, so iterate to a fixpoint.
    loop {
        let before = keep.len();
        for s in spans {
            if s.parent.is_some_and(|p| keep.contains(&p)) {
                keep.insert(s.id);
            }
        }
        if keep.len() == before {
            break;
        }
    }
    spans.iter().filter(|s| keep.contains(&s.id)).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, trace: 1, name: name.into(), start_ns, end_ns }
    }

    #[test]
    fn unattributed_is_client_latency_minus_the_layers() {
        // 12 ms at the client; 0.01 + 0.02 + 9 + 2 + 0.1 ms in the layers.
        let left = unattributed_ms(12.0, &[0.01, 0.02, 9.0, 2.0, 0.1]);
        assert!((left - 0.87).abs() < 1e-12, "{left}");
        // Layers slower than the client (a noisy replay) show as negative.
        assert!(unattributed_ms(1.0, &[2.0]) < 0.0);
    }

    #[test]
    fn per_request_layer_means_come_from_one_phase() {
        let spans = vec![
            span(2, Some(1), "request", 0, 100),
            span(3, Some(2), "question.resolve", 10, 60),
            span(1, None, "replay.explain", 0, 200),
            // Another phase's request must not leak into this one.
            span(5, Some(4), "request", 300, 400),
            span(6, Some(5), "question.resolve", 300, 390),
            span(4, None, "replay.append", 300, 500),
        ];
        let phase: Vec<u64> = descendants(&spans, 1).iter().map(|s| s.id).collect();
        assert_eq!(phase, vec![2, 3, 1]);
        let st = self_times(&descendants(&spans, 1));
        assert_eq!(per_request_ms(&st, "question.resolve", 1.0), 50.0 / 1e6);
        assert_eq!(st["request"].self_ns, 50);
    }

    #[test]
    fn wire_request_parses_like_the_server_sees_it() {
        let q = Question {
            tuple: vec![Value::str("a1"), Value::Int(2001), Value::str("KDD")],
            dir: cape_core::question::Direction::High,
            body: Json::Obj(vec![("sql".into(), Json::Str("SELECT 1".into()))]),
        };
        let raw = wire_request("/v1/dblp/explain", &q);
        let req = RequestParser::new(HttpLimits::default()).feed(&raw).unwrap().unwrap();
        assert_eq!(req.path(), "/v1/dblp/explain");
        assert_eq!(req.body, q.body.to_string().into_bytes());
    }
}
