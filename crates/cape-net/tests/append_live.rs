//! Live streaming appends under traffic (ISSUE 8).
//!
//! Client threads hammer `/v1/{store}/explain` while a control thread
//! streams the tail of the relation in through
//! `POST /admin/stores/{name}/append`. Invariants:
//!
//! 1. zero 5xx responses — an append never makes a request fail;
//! 2. the generation stamped in responses never goes backwards, and each
//!    append bumps it by exactly one (appends are serialized);
//! 3. after the last append the served answers match a from-scratch
//!    batch mine of the full relation to 1e-9, and `/v1/stores` reports
//!    the full row count;
//! 4. appends against a read-only slot answer 409, malformed rows 400 —
//!    and neither disturbs the serving epoch.

use cape_core::config::{MiningConfig, Thresholds};
use cape_core::incr::IncrStore;
use cape_core::mining::{Miner, ShareGrpMiner};
use cape_core::question::{Direction, UserQuestion};
use cape_core::snapshot::save_snapshot;
use cape_core::PatternStore;
use cape_data::ops::aggregate;
use cape_data::{AggFunc, AggSpec, Relation, Value};
use cape_datagen::dblp::{attrs, generate, DblpConfig};
use cape_net::registry::StoreRegistry;
use cape_net::server::{NetConfig, Server};
use cape_net::testclient::{explain_body, Client};
use cape_obs::Json;
use cape_serve::{ExplainRequest, ExplainService, PatternStoreHandle, ServeConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const TOP_K: usize = 6;
const ROWS: usize = 3000;
const BASE: usize = 2800;
const BATCHES: usize = 10;
const SCORE_TOL: f64 = 1e-9;

fn mining_config() -> MiningConfig {
    MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        exclude: vec![attrs::PUBID],
        ..MiningConfig::default()
    }
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(n) => Json::Num(*n as f64),
        Value::Float(f) => Json::Num(*f),
        Value::Str(s) => Json::Str(s.to_string()),
    }
}

/// The most populous group of the count query, as a Low question.
fn pick_question(rel: &Relation) -> UserQuestion {
    let group = [attrs::AUTHOR, attrs::YEAR, attrs::VENUE];
    let result = aggregate(rel, &group, &[AggSpec { func: AggFunc::Count, attr: None }])
        .expect("count query")
        .relation;
    let agg_col = group.len();
    let best = (0..result.num_rows())
        .max_by(|&a, &b| {
            let ca = result.value(a, agg_col).as_f64().unwrap_or(0.0);
            let cb = result.value(b, agg_col).as_f64().unwrap_or(0.0);
            ca.total_cmp(&cb)
        })
        .expect("non-empty result");
    let cols: Vec<usize> = (0..group.len()).collect();
    let tuple = result.row_project(best, &cols);
    let agg_value = result.value(best, agg_col).as_f64().unwrap_or(0.0);
    UserQuestion::new(group.to_vec(), AggFunc::Count, None, tuple, agg_value, Direction::Low)
}

/// Reference answers over one (relation, store), as (score, tuple-json).
fn reference_answers(rel: &Relation, store: &PatternStore, q: &UserQuestion) -> Vec<(f64, Json)> {
    let handle = PatternStoreHandle::new(rel.clone(), store.clone());
    let service = ExplainService::start(handle, ServeConfig::with_threads(1));
    let resp = service.submit(ExplainRequest::new(q.clone(), TOP_K)).recv().expect("reply");
    resp.explanations
        .iter()
        .map(|e| (e.score, Json::Arr(e.tuple.iter().map(value_to_json).collect())))
        .collect()
}

fn matches_reference(answer: &Json, reference: &[(f64, Json)]) -> bool {
    let Some(wire) = answer.get("explanations").and_then(Json::as_arr) else {
        return false;
    };
    wire.len() == reference.len()
        && wire.iter().zip(reference).all(|(got, (score, tuple))| {
            let s = got.get("score").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let t = got.get("tuple").cloned().unwrap_or(Json::Null);
            (s - score).abs() < SCORE_TOL && &t == tuple
        })
}

#[test]
fn appends_under_live_traffic_are_zero_5xx_and_converge() {
    let full = generate(&DblpConfig::with_rows(ROWS));
    let base = full.take(&(0..BASE).collect::<Vec<_>>());
    let question = pick_question(&full);
    let mcfg = mining_config();

    // Reference: what the final epoch must serve (batch mine of R + ΔR).
    let full_store = ShareGrpMiner.mine(&full, &mcfg).expect("full mine").store;
    let ref_full = reference_answers(&full, &full_store, &question);
    assert!(!ref_full.is_empty(), "reference question has no explanations — test is vacuous");

    let dir = std::env::temp_dir().join(format!("cape-append-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let snap = dir.join("base.cape");
    let base_store = ShareGrpMiner.mine(&base, &mcfg).expect("base mine").store;
    save_snapshot(&snap, base.schema(), &mcfg, &base_store).expect("save");

    let registry = Arc::new(StoreRegistry::new());
    let incr = IncrStore::open(&snap, &base).expect("open incremental");
    registry.register_incremental("dblp", base.clone(), incr, ServeConfig::with_threads(2));
    // A second, read-only slot for the 409 check.
    registry.register(
        "frozen",
        PatternStoreHandle::new(base.clone(), base_store.clone()),
        ServeConfig::with_threads(1),
    );
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&registry), NetConfig::default()).expect("bind");
    let addr = server.local_addr();

    let sql = "SELECT author, year, venue, count(*) FROM dblp GROUP BY author, year, venue";
    let tuple: Vec<Json> = question.tuple.iter().map(value_to_json).collect();
    let body = explain_body(sql, &tuple, "low", Some(TOP_K), None);

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let body = body.clone();
            std::thread::spawn(move || -> (usize, Vec<String>) {
                let mut client = Client::connect(addr).expect("connect");
                let mut ok = 0usize;
                let mut violations = Vec::new();
                let mut last_generation = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let resp = client.post_json("/v1/dblp/explain", &body).expect("explain");
                    if resp.status >= 500 {
                        violations.push(format!(
                            "client {c}: got {} — {}",
                            resp.status,
                            String::from_utf8_lossy(&resp.body)
                        ));
                        continue;
                    }
                    assert_eq!(resp.status, 200, "client {c}");
                    let json = resp.json().expect("valid JSON");
                    let generation =
                        json.get("generation").and_then(Json::as_u64).expect("generation stamp");
                    if generation < last_generation {
                        violations.push(format!(
                            "client {c}: generation went backwards {last_generation} -> {generation}"
                        ));
                    }
                    last_generation = generation;
                    ok += 1;
                }
                (ok, violations)
            })
        })
        .collect();

    // Stream the tail in: BATCHES equal slices of the last ROWS-BASE rows.
    let mut control = Client::connect(addr).expect("connect control");
    let delta: Vec<Vec<Value>> = (BASE..ROWS).map(|i| full.row(i)).collect();
    let per_batch = delta.len() / BATCHES;
    let mut generations = Vec::new();
    for b in 0..BATCHES {
        let slice = &delta[b * per_batch..(b + 1) * per_batch];
        let rows: Vec<Json> =
            slice.iter().map(|row| Json::Arr(row.iter().map(value_to_json).collect())).collect();
        let append_body = Json::Obj(vec![("rows".into(), Json::Arr(rows))]);
        let resp =
            control.post_json("/admin/stores/dblp/append", &append_body).expect("append request");
        assert_eq!(resp.status, 200, "append {b}: {}", String::from_utf8_lossy(&resp.body));
        let json = resp.json().expect("valid JSON");
        assert_eq!(
            json.get("appended_rows").and_then(Json::as_u64),
            Some(per_batch as u64),
            "append {b}"
        );
        assert_eq!(json.get("wal_seq").and_then(Json::as_u64), Some(b as u64 + 1), "append {b}");
        generations.push(json.get("generation").and_then(Json::as_u64).expect("generation"));
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    stop.store(true, Ordering::SeqCst);

    let mut total_ok = 0usize;
    let mut violations = Vec::new();
    for handle in clients {
        let (ok, v) = handle.join().expect("client thread");
        total_ok += ok;
        violations.extend(v);
    }
    assert!(violations.is_empty(), "violations:\n{}", violations.join("\n"));
    assert!(total_ok > 0, "no explain requests completed — race test is vacuous");
    assert_eq!(
        generations,
        (2..2 + BATCHES as u64).collect::<Vec<_>>(),
        "each append installs exactly one new epoch"
    );

    // Convergence: the final epoch answers exactly like the batch mine
    // of the full relation.
    let resp = control.post_json("/v1/dblp/explain", &body).expect("final explain");
    assert_eq!(resp.status, 200);
    let json = resp.json().expect("valid JSON");
    assert_eq!(json.get("generation").and_then(Json::as_u64), Some(1 + BATCHES as u64));
    assert!(
        matches_reference(&json, &ref_full),
        "final answers differ from the full batch mine:\n{json:?}"
    );

    // The listing reports the grown row count for the live store.
    let listing = control.get("/v1/stores").expect("stores").json().expect("valid JSON");
    let stores = listing.get("stores").and_then(Json::as_arr).expect("stores array");
    let entry = stores
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("dblp"))
        .expect("dblp entry");
    assert_eq!(entry.get("rows").and_then(Json::as_u64), Some(ROWS as u64));

    // Read-only slot refuses appends with 409; the epoch is untouched.
    let one_row: Vec<Json> = full.row(0).iter().map(value_to_json).collect();
    let append_body = Json::Obj(vec![("rows".into(), Json::Arr(vec![Json::Arr(one_row)]))]);
    let resp = control.post_json("/admin/stores/frozen/append", &append_body).expect("409 append");
    assert_eq!(resp.status, 409, "{}", String::from_utf8_lossy(&resp.body));
    let resp = control.post_json("/v1/frozen/explain", &body).expect("frozen explain");
    assert_eq!(resp.status, 200);

    // Malformed rows answer 400 and change nothing.
    for bad in [
        Json::Obj(vec![("rows".into(), Json::Num(3.0))]),
        Json::Obj(vec![("rows".into(), Json::Arr(vec![Json::Arr(vec![Json::Num(1.0)])]))]),
        Json::Obj(vec![(
            "rows".into(),
            Json::Arr(vec![Json::Arr(vec![
                Json::Num(1.5), // author column is Str
                Json::Num(2000.0),
                Json::Str("KDD".into()),
                Json::Str("p1".into()),
            ])]),
        )]),
    ] {
        let resp = control.post_json("/admin/stores/dblp/append", &bad).expect("bad append");
        assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
    }
    let listing = control.get("/v1/stores").expect("stores").json().expect("valid JSON");
    let stores = listing.get("stores").and_then(Json::as_arr).expect("stores array");
    let entry = stores
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("dblp"))
        .expect("dblp entry");
    assert_eq!(entry.get("generation").and_then(Json::as_u64), Some(1 + BATCHES as u64));

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot swap on an incrementally-backed slot re-targets the WAL:
/// appends before and after the swap both land durably, and re-opening
/// the swapped-to snapshot replays its own log.
#[test]
fn swap_retargets_incremental_backing() {
    let full = generate(&DblpConfig::with_rows(1200));
    let base = full.take(&(0..1000).collect::<Vec<_>>());
    let mcfg = mining_config();
    let base_store = ShareGrpMiner.mine(&base, &mcfg).expect("mine").store;

    let dir = std::env::temp_dir().join(format!("cape-append-swap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let snap_a = dir.join("a.cape");
    let snap_b = dir.join("b.cape");
    save_snapshot(&snap_a, base.schema(), &mcfg, &base_store).expect("save a");
    save_snapshot(&snap_b, base.schema(), &mcfg, &base_store).expect("save b");

    let registry = StoreRegistry::new();
    let incr = IncrStore::open(&snap_a, &base).expect("open");
    let slot =
        registry.register_incremental("dblp", base.clone(), incr, ServeConfig::with_threads(1));

    let delta: Vec<Vec<Value>> = (1000..1100).map(|i| full.row(i)).collect();
    let (g, report) = slot.append_rows(delta.clone()).expect("append to a");
    assert_eq!(g, 2);
    assert_eq!(report.wal_seq, Some(1));

    // Swap to snapshot B: the incremental backing re-targets, so the
    // next append starts B's own WAL at sequence 1.
    let g = slot.swap_snapshot(&snap_b).expect("swap");
    assert_eq!(g, 3);
    let delta_b: Vec<Vec<Value>> = (1100..1200).map(|i| full.row(i)).collect();
    let (g, report) = slot.append_rows(delta_b).expect("append to b");
    assert_eq!(g, 4);
    assert_eq!(report.wal_seq, Some(1), "B's WAL starts fresh");
    assert_eq!(slot.epoch().handle.relation().num_rows(), 1100);

    // Swapping back to A replays A's WAL: the 100 rows appended before
    // the swap are still there.
    let g = slot.swap_snapshot(&snap_a).expect("swap back");
    assert_eq!(g, 5);
    assert_eq!(slot.epoch().handle.relation().num_rows(), 1100);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot whose CRCs are all valid but whose first pattern breaks an
/// ARP invariant (F ∩ V ≠ ∅) is a 400 `bad_snapshot` on an incremental
/// slot — not a panic that poisons the slot's lock — so a later swap to
/// a valid file and an append both still succeed.
#[test]
fn hostile_snapshot_swap_leaves_the_slot_usable() {
    let full = generate(&DblpConfig::with_rows(1100));
    let base = full.take(&(0..1000).collect::<Vec<_>>());
    let mcfg = mining_config();
    let base_store = ShareGrpMiner.mine(&base, &mcfg).expect("mine").store;

    let dir = std::env::temp_dir().join(format!("cape-append-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let valid = dir.join("valid.cape");
    let hostile = dir.join("hostile.cape");
    save_snapshot(&valid, base.schema(), &mcfg, &base_store).expect("save");
    let bytes = std::fs::read(&valid).unwrap();
    let overlapping = cape_core::snapshot::inject::rewrite_section(&bytes, "patterns", |p| {
        assert_eq!(p[4..8], 1u32.to_le_bytes(), "first pattern has one F attribute");
        let f = p[8..12].to_vec();
        p[16..20].copy_from_slice(&f);
    });
    std::fs::write(&hostile, overlapping).unwrap();

    let registry = Arc::new(StoreRegistry::new());
    let incr = IncrStore::open(&valid, &base).expect("open incremental");
    registry.register_incremental("dblp", base.clone(), incr, ServeConfig::with_threads(1));
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&registry), NetConfig::default()).expect("bind");
    let addr = server.local_addr();
    let post = |path: &str, body: Json| {
        let mut client = Client::connect(addr).expect("connect");
        client.post_json(path, &body).expect("a response, not a dropped connection")
    };
    let swap_to = |p: &std::path::Path| {
        Json::Obj(vec![("path".into(), Json::Str(p.to_string_lossy().into_owned()))])
    };

    let resp = post("/admin/stores/dblp/swap", swap_to(&hostile));
    assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
    let json = resp.json().expect("valid JSON");
    let error = json.get("error").expect("error object");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("bad_snapshot"));

    let resp = post("/admin/stores/dblp/swap", swap_to(&valid));
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let rows = (1000..1100).map(|i| Json::Arr(full.row(i).iter().map(value_to_json).collect()));
    let resp = post(
        "/admin/stores/dblp/append",
        Json::Obj(vec![("rows".into(), Json::Arr(rows.collect()))]),
    );
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.json().unwrap().get("appended_rows").and_then(Json::as_u64), Some(100));

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
