//! Set-up of the real serving stack, from the CSV on disk to the first
//! 200 from `/healthz`, with every step timed from the benchmark's side.

use crate::data::Dataset;
use crate::spans::SpanLog;
use cape_core::incr::IncrStore;
use cape_core::mining::{ArpMiner, Miner, MiningOutput, MiningStats};
use cape_core::snapshot::{save_snapshot, save_snapshot_v2};
use cape_core::store::PatternStore;
use cape_data::Relation;
use cape_net::registry::StoreRegistry;
use cape_net::server::{NetConfig, Server};
use cape_net::testclient::Client;
use cape_obs::TelemetrySnapshot;
use cape_serve::{PatternStoreHandle, ServeConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Explain worker threads per store.
pub const WORKERS: usize = 2;

/// How the mined store is persisted and loaded for serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// v2 snapshot, read-only, relation from the snapshot's column slabs
    /// (`PatternStoreHandle::from_snapshot_v2`).
    V2,
    /// v1 snapshot opened as an `IncrStore`, registered for live appends
    /// (v2 stores cannot be appended to).
    Incremental,
}

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// `read_csv`.
    pub csv_parse_s: f64,
    /// `ArpMiner::mine`.
    pub mine_s: f64,
    /// Snapshot save.
    pub save_s: f64,
    /// Snapshot load (`from_snapshot_v2` or `IncrStore::open`).
    pub load_s: f64,
    /// Registry registration plus server bind.
    pub register_s: f64,
    /// First `/healthz` answer.
    pub healthz_s: f64,
    /// Snapshot file size.
    pub snapshot_bytes: u64,
    /// CSV on disk → first 200 from `/healthz`.
    pub setup_s: f64,
    /// The mining run's statistics and telemetry.
    pub mining: MiningStats,
    /// Span tree and counters the miner recorded.
    pub mining_telemetry: TelemetrySnapshot,
    /// Patterns mined.
    pub patterns: usize,
    /// Local patterns mined.
    pub local_patterns: usize,
}

/// A running server over one registered store, plus the benchmark's own
/// copies of what it was built from (the references for correctness).
pub struct Stack {
    /// The HTTP server on an ephemeral loopback port.
    pub server: Server,
    /// The registry it serves.
    pub registry: Arc<StoreRegistry>,
    /// Relation parsed from the CSV.
    pub relation: Relation,
    /// The freshly mined store (before any snapshot round trip).
    pub mined: MiningOutput,
    /// Snapshot path of this set-up.
    pub snapshot: PathBuf,
    /// Step timings.
    pub times: SetupTimes,
}

/// Build the stack for `ds` from `csv`, keeping snapshot and WAL under
/// `dir`. Each step is also recorded as a span under one set-up trace
/// when `spans` is given.
pub fn set_up(
    ds: &Dataset,
    csv: &Path,
    dir: &Path,
    backing: Backing,
    spans: Option<&SpanLog>,
) -> Result<Stack, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let snapshot = dir.join(format!("{}.cape", ds.store_name));
    let trace = spans.map_or(0, SpanLog::next_id);
    let root = spans.map(SpanLog::next_id);
    let mut times = SetupTimes::default();
    let mut excluded_s = 0.0;
    let t_start = Instant::now();
    let step = |name: &str, secs: &mut f64, t0: Instant| {
        let t1 = Instant::now();
        *secs = (t1 - t0).as_secs_f64();
        if let Some(log) = spans {
            log.record(trace, root, name, t0, t1);
        }
    };

    let t0 = Instant::now();
    let file = std::fs::File::open(csv).map_err(|e| format!("open {}: {e}", csv.display()))?;
    let relation =
        cape_data::csv::read_csv(file, ds.schema.clone()).map_err(|e| format!("read_csv: {e}"))?;
    step("data.csv_parse", &mut times.csv_parse_s, t0);

    let t0 = Instant::now();
    let mined = ArpMiner.mine(&relation, &ds.mining).map_err(|e| format!("mine: {e}"))?;
    step("mine", &mut times.mine_s, t0);
    times.mining = mined.stats.clone();
    times.mining_telemetry = mined.telemetry.clone();
    times.patterns = mined.store.len();
    times.local_patterns = mined.store.num_local_patterns();

    let t0 = Instant::now();
    let saved = match backing {
        Backing::V2 => {
            save_snapshot_v2(&snapshot, relation.schema(), &ds.mining, &mined.store, &relation)
        }
        Backing::Incremental => {
            save_snapshot(&snapshot, relation.schema(), &ds.mining, &mined.store)
        }
    };
    times.snapshot_bytes = saved.map_err(|e| format!("save snapshot: {e}"))?;
    step("snapshot.save", &mut times.save_s, t0);

    let registry = Arc::new(StoreRegistry::new());
    let cfg = ServeConfig::with_threads(WORKERS);
    let t0 = Instant::now();
    match backing {
        Backing::V2 => {
            let handle = PatternStoreHandle::from_snapshot_v2(&snapshot)
                .map_err(|e| format!("load v2 snapshot: {e}"))?;
            step("snapshot.load", &mut times.load_s, t0);
            let t0 = Instant::now();
            registry.register(ds.store_name, handle, cfg);
            times.register_s = (Instant::now() - t0).as_secs_f64();
        }
        Backing::Incremental => {
            let incr = IncrStore::open(&snapshot, &relation)
                .map_err(|e| format!("open incremental store: {e}"))?;
            step("incr.open", &mut times.load_s, t0);
            // The registry takes the base relation by value; the copy the
            // benchmark keeps for its checks is not set-up work.
            let t_copy = Instant::now();
            let base = relation.clone();
            excluded_s += t_copy.elapsed().as_secs_f64();
            let t0 = Instant::now();
            registry.register_incremental(ds.store_name, base, incr, cfg);
            times.register_s = (Instant::now() - t0).as_secs_f64();
        }
    }

    let t0 = Instant::now();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    times.register_s += (Instant::now() - t0).as_secs_f64();

    let t0 = Instant::now();
    let status = Client::connect(server.local_addr())
        .and_then(|mut c| c.get("/healthz"))
        .map_err(|e| format!("healthz: {e}"))?
        .status;
    if status != 200 {
        return Err(format!("healthz answered {status}"));
    }
    step("net.healthz", &mut times.healthz_s, t0);
    let t_end = Instant::now();
    times.setup_s = (t_end - t_start).as_secs_f64() - excluded_s;
    if let (Some(log), Some(root)) = (spans, root) {
        log.record_with_id(root, trace, None, "setup", t_start, t_end);
    }
    Ok(Stack { server, registry, relation, mined, snapshot, times })
}

impl Stack {
    /// The served store's current pattern store.
    pub fn served_store(&self, name: &str) -> Arc<PatternStore> {
        self.registry.get(name).expect("registered store").epoch().handle.store_arc()
    }

    /// A fresh incremental store over the set-up relation and mined
    /// patterns, from its own v1 snapshot under `dir` (so its WAL starts
    /// empty). Returns it with the `IncrStore::open` time in seconds.
    pub fn open_twin(&self, ds: &Dataset, dir: &Path) -> Result<(IncrStore, f64), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let snap = dir.join("twin.cape");
        save_snapshot(&snap, self.relation.schema(), &ds.mining, &self.mined.store)
            .map_err(|e| format!("save twin snapshot: {e}"))?;
        let t0 = Instant::now();
        let incr = IncrStore::open(&snap, &self.relation).map_err(|e| format!("open twin: {e}"))?;
        Ok((incr, t0.elapsed().as_secs_f64()))
    }
}
