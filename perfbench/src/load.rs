//! Closed-loop load over keep-alive HTTP connections: each client sends
//! its next request only after the previous answer is fully read, as an
//! analyst waiting on each explanation does.

use crate::data::{append_body, Question, APPEND_BATCH};
use crate::rng::Rng;
use crate::stats::Tally;
use cape_net::testclient::{Client, ClientResponse};
use cape_obs::Json;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// What one timed phase of explain traffic observed.
#[derive(Debug, Default)]
pub struct ExplainRun {
    /// Latency of every successful answer, milliseconds, send → fully read.
    pub latencies_ms: Vec<f64>,
    /// Wall time from the start barrier until the last client stopped.
    pub wall_s: f64,
    /// Attempts and failures.
    pub tally: Tally,
}

impl ExplainRun {
    /// Add a later phase's answers, time and tally to this one.
    pub fn extend(&mut self, later: ExplainRun) {
        self.latencies_ms.extend(later.latencies_ms);
        self.wall_s += later.wall_s;
        self.tally.merge(later.tally);
    }
}

/// What one timed phase of appends observed.
#[derive(Debug, Default)]
pub struct AppendRun {
    /// Latency of every successful append, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Rows the server acknowledged, in the order they were sent.
    pub rows: Vec<Vec<cape_data::Value>>,
    /// Time the appender was active (until the deadline, until it was
    /// stopped or until the held-out rows ran out).
    pub active_s: f64,
    /// Attempts and failures.
    pub tally: Tally,
}

/// Check an explain answer's framing: 200, JSON, an `explanations`
/// array, and not a partial top-k.
pub fn validate_explain(resp: &ClientResponse) -> Result<Json, String> {
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, String::from_utf8_lossy(&resp.body)));
    }
    let body = resp.json()?;
    if body.get("explanations").and_then(Json::as_arr).is_none() {
        return Err("answer has no `explanations` array".into());
    }
    if body.get("partial") != Some(&Json::Bool(false)) {
        return Err("partial answer".into());
    }
    Ok(body)
}

/// When a timed phase of explain traffic ends: at its deadline once its
/// clients have `min_samples` answers between them, and at its cap in
/// any case.
pub struct Until {
    deadline: Instant,
    cap: Instant,
    min_samples: usize,
    answered: AtomicUsize,
}

/// How many times its length a read window may run to collect its
/// samples.
pub const MAX_STRETCH: u32 = 3;

impl Until {
    /// Exactly `duration` from now.
    pub fn after(duration: Duration) -> Self {
        Self::stretched(duration, 0, duration)
    }

    /// `duration` from now, then on until `min_samples` answers, but
    /// never past `cap` from now.
    pub fn stretched(duration: Duration, min_samples: usize, cap: Duration) -> Self {
        let now = Instant::now();
        Until {
            deadline: now + duration,
            cap: now + cap,
            min_samples,
            answered: AtomicUsize::new(0),
        }
    }

    fn done(&self) -> bool {
        let now = Instant::now();
        now >= self.cap
            || (now >= self.deadline && self.answered.load(Ordering::Relaxed) >= self.min_samples)
    }
}

/// One explain client: until the phase ends, pick a question uniformly
/// from `pool` and wait for its answer.
pub fn explain_client(
    addr: SocketAddr,
    path: &str,
    pool: &[Question],
    rng: &mut Rng,
    until: &Until,
) -> (Vec<f64>, Tally) {
    let mut latencies = Vec::new();
    let mut tally = Tally::default();
    let mut client: Option<Client> = None;
    while !until.done() {
        let conn = match client.as_mut() {
            Some(c) => c,
            None => match Client::connect(addr) {
                Ok(c) => client.insert(c),
                Err(e) => {
                    tally.fail(format!("connect: {e}"));
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let q = &pool[rng.below(pool.len())];
        let t0 = Instant::now();
        let sent = conn.post_json(path, &q.body);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match sent.map_err(|e| format!("io: {e}")).and_then(|r| validate_explain(&r)) {
            Ok(_) => {
                tally.ok();
                latencies.push(ms);
                until.answered.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                tally.fail(e);
                client = None;
            }
        }
    }
    (latencies, tally)
}

/// Run `clients` explain clients, released together by a barrier, until
/// the phase ends. Client `i` draws with RNG stream `draw.1 + i` of seed
/// `draw.0`.
pub fn explain_phase(
    addr: SocketAddr,
    path: &str,
    pool: &[Question],
    clients: usize,
    draw: (u64, u64),
    until: Until,
) -> ExplainRun {
    let barrier = Arc::new(Barrier::new(clients + 1));
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let (barrier, until) = (Arc::clone(&barrier), &until);
                s.spawn(move || {
                    let mut rng = Rng::new(draw.0, draw.1 + i as u64);
                    barrier.wait();
                    let out = explain_client(addr, path, pool, &mut rng, until);
                    (out, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let outs: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("explain client thread")).collect();
        (start, outs)
    });
    let (start, outs) = results;
    let mut run = ExplainRun::default();
    let mut end = start;
    for ((lat, tally), stopped) in outs {
        run.latencies_ms.extend(lat);
        run.tally.merge(tally);
        end = end.max(stopped);
    }
    run.wall_s = (end - start).as_secs_f64();
    run
}

/// The append client: until `deadline`, until `stop` is set or until
/// `rows` run out, send the next [`APPEND_BATCH`] rows and wait for the
/// acknowledgement.
pub fn append_client(
    addr: SocketAddr,
    path: &str,
    rows: &[Vec<cape_data::Value>],
    deadline: Instant,
    stop: &AtomicBool,
) -> AppendRun {
    let mut run = AppendRun::default();
    let start = Instant::now();
    let mut client: Option<Client> = None;
    let mut batches = rows.chunks_exact(APPEND_BATCH);
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        let Some(batch) = batches.next() else { break };
        let conn = match client.as_mut() {
            Some(c) => c,
            None => match Client::connect(addr) {
                Ok(c) => client.insert(c),
                Err(e) => {
                    run.tally.fail(format!("connect: {e}"));
                    continue;
                }
            },
        };
        let t0 = Instant::now();
        let sent = conn.post_json(path, &append_body(batch));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let checked = sent.map_err(|e| format!("io: {e}")).and_then(|r| {
            if r.status != 200 {
                return Err(format!("append status {}", r.status));
            }
            let appended = r.json()?.get("appended_rows").and_then(Json::as_u64);
            if appended != Some(batch.len() as u64) {
                return Err(format!("append acknowledged {appended:?} rows"));
            }
            Ok(())
        });
        match checked {
            Ok(()) => {
                run.tally.ok();
                run.latencies_ms.push(ms);
                run.rows.extend_from_slice(batch);
            }
            Err(e) => {
                run.tally.fail(e);
                client = None;
            }
        }
    }
    run.active_s = start.elapsed().as_secs_f64();
    run
}
