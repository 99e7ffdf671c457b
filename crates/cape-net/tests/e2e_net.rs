//! End-to-end wire equivalence (ISSUE 7, satellite 2).
//!
//! A real TCP listener on an ephemeral port serves the DBLP and Crime
//! differential question grids; a raw-`TcpStream` test client drives it
//! with keep-alive, pipelined, and batch requests. Every wire answer
//! must match the in-process `cape-serve` answer to 1e-9: same
//! candidates (attrs + tuple), same order, same scores — the HTTP and
//! JSON layers may not perturb a single explanation.

use cape_core::config::{MiningConfig, Thresholds};
use cape_core::explain::Explanation;
use cape_core::mining::{ArpMiner, Miner};
use cape_core::question::{Direction, UserQuestion};
use cape_data::{AttrId, Relation, Value};
use cape_net::registry::StoreRegistry;
use cape_net::server::{NetConfig, Server};
use cape_net::testclient::{explain_body, Client};
use cape_obs::Json;
use cape_serve::{ExplainRequest, ExplainService, PatternStoreHandle, ServeConfig};
use std::sync::Arc;

const TOP_K: usize = 8;
const QUESTIONS_PER_DATASET: usize = 24;
const SCORE_TOL: f64 = 1e-9;

struct Dataset {
    name: &'static str,
    rel: Arc<Relation>,
    handle: PatternStoreHandle,
    questions: Vec<UserQuestion>,
    sql: String,
    group_names: Vec<String>,
}

fn mine(
    name: &'static str,
    rel: Relation,
    group_attrs: &[AttrId],
    exclude: Vec<AttrId>,
) -> Dataset {
    let mcfg = MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        exclude,
        ..MiningConfig::default()
    };
    let store = ArpMiner.mine(&rel, &mcfg).expect("mining").store;
    assert!(!store.is_empty(), "{name}: mining found no patterns");
    let questions = UserQuestion::top_count_grid(&rel, group_attrs, QUESTIONS_PER_DATASET)
        .expect("count query");
    let group_names: Vec<String> = group_attrs
        .iter()
        .map(|&a| rel.schema().attr(a).expect("group attr").name().to_string())
        .collect();
    let sql = format!(
        "SELECT {cols}, count(*) FROM {name} GROUP BY {cols}",
        cols = group_names.join(", ")
    );
    let handle = PatternStoreHandle::new(rel, store);
    Dataset { name, rel: handle.relation_arc(), handle, questions, sql, group_names }
}

fn dblp() -> Dataset {
    use cape_datagen::dblp::{attrs, generate, DblpConfig};
    mine(
        "dblp",
        generate(&DblpConfig::with_rows(6000)),
        &[attrs::AUTHOR, attrs::YEAR, attrs::VENUE],
        vec![attrs::PUBID],
    )
}

fn crime() -> Dataset {
    use cape_datagen::crime::{attrs, generate, CrimeConfig};
    mine(
        "crime",
        generate(&CrimeConfig::with_rows(6000)),
        &[attrs::PRIMARY_TYPE, attrs::COMMUNITY, attrs::YEAR],
        vec![],
    )
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(n) => Json::Num(*n as f64),
        Value::Float(f) => Json::Num(*f),
        Value::Str(s) => Json::Str(s.to_string()),
    }
}

fn question_body(ds: &Dataset, q: &UserQuestion) -> Json {
    let tuple: Vec<Json> = q.tuple.iter().map(value_to_json).collect();
    let dir = match q.dir {
        Direction::High => "high",
        Direction::Low => "low",
    };
    explain_body(&ds.sql, &tuple, dir, Some(TOP_K), None)
}

/// Assert one wire answer equals the in-process reference to 1e-9.
fn assert_wire_matches(label: &str, answer: &Json, reference: &[Explanation], ds: &Dataset) {
    assert_eq!(
        answer.get("partial").and_then(Json::as_bool),
        Some(false),
        "{label}: unexpected partial answer"
    );
    let wire = answer.get("explanations").and_then(Json::as_arr).expect("explanations array");
    assert_eq!(wire.len(), reference.len(), "{label}: explanation count differs");
    let schema = ds.rel.schema();
    for (rank, (got, want)) in wire.iter().zip(reference).enumerate() {
        let score = got.get("score").and_then(Json::as_f64).expect("score");
        assert!(
            (score - want.score).abs() < SCORE_TOL,
            "{label}: rank {rank} score {score} vs {}",
            want.score
        );
        let tuple = got.get("tuple").and_then(Json::as_arr).expect("tuple");
        let expected_tuple: Vec<Json> = want.tuple.iter().map(value_to_json).collect();
        assert_eq!(tuple, &expected_tuple, "{label}: rank {rank} counterbalance tuple differs");
        let attrs = got.get("attrs").and_then(Json::as_arr).expect("attrs");
        let expected_attrs: Vec<Json> = want
            .attrs
            .iter()
            .map(|&a| Json::Str(schema.attr(a).expect("attr").name().to_string()))
            .collect();
        assert_eq!(attrs, &expected_attrs, "{label}: rank {rank} attrs differ");
        for (field, expected) in [
            ("agg_value", want.agg_value),
            ("predicted", want.predicted),
            ("deviation", want.deviation),
            ("distance", want.distance),
        ] {
            let val = got.get(field).and_then(Json::as_f64).expect(field);
            assert!(
                (val - expected).abs() < SCORE_TOL,
                "{label}: rank {rank} {field} {val} vs {expected}"
            );
        }
    }
}

fn run_dataset(ds: Dataset) {
    // In-process reference through the same serving stack the paper's
    // latency numbers assume (worker pool + drill cache).
    let service = ExplainService::start(ds.handle.clone(), ServeConfig::with_threads(2));
    let reference: Vec<Vec<Explanation>> = service
        .batch(ds.questions.iter().map(|q| ExplainRequest::new(q.clone(), TOP_K)).collect())
        .into_iter()
        .map(|r| r.explanations)
        .collect();
    let answered = reference.iter().filter(|r| !r.is_empty()).count();
    assert!(answered > 0, "{}: reference produced no explanations — test is vacuous", ds.name);
    drop(service);

    let registry = Arc::new(StoreRegistry::new());
    registry.register(ds.name, ds.handle.clone(), ServeConfig::with_threads(2));
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&registry), NetConfig::default()).expect("bind");
    let addr = server.local_addr();

    // Sequential keep-alive: every question over one connection.
    let mut client = Client::connect(addr).expect("connect");
    let path = format!("/v1/{}/explain", ds.name);
    for (i, q) in ds.questions.iter().enumerate() {
        let resp = client.post_json(&path, &question_body(&ds, q)).expect("explain");
        assert_eq!(resp.status, 200, "q{i}: {}", String::from_utf8_lossy(&resp.body));
        let json = resp.json().expect("valid JSON");
        assert_eq!(
            json.get("generation").and_then(Json::as_u64),
            Some(1),
            "q{i}: initial generation"
        );
        assert!(
            json.get("trace_id").and_then(Json::as_str).is_some_and(|t| t.len() == 16),
            "q{i}: trace id present"
        );
        assert_wire_matches(&format!("{}/seq q{i}", ds.name), &json, &reference[i], &ds);
    }

    // Pipelined: first six questions written in one burst, answers read
    // back in order off the same connection.
    let bodies: Vec<Json> = ds.questions.iter().take(6).map(|q| question_body(&ds, q)).collect();
    let pipelined = client.pipeline_post_json(&path, &bodies).expect("pipelined");
    for (i, resp) in pipelined.iter().enumerate() {
        assert_eq!(resp.status, 200, "pipelined q{i}");
        let json = resp.json().expect("valid JSON");
        assert_wire_matches(&format!("{}/pipelined q{i}", ds.name), &json, &reference[i], &ds);
    }

    // Batch endpoint: all questions in one request, answers in order.
    let batch = Json::Obj(vec![(
        "questions".into(),
        Json::Arr(ds.questions.iter().map(|q| question_body(&ds, q)).collect()),
    )]);
    let resp =
        client.post_json(&format!("/v1/{}/batch-explain", ds.name), &batch).expect("batch-explain");
    assert_eq!(resp.status, 200, "batch: {}", String::from_utf8_lossy(&resp.body));
    let json = resp.json().expect("valid JSON");
    let answers = json.get("answers").and_then(Json::as_arr).expect("answers array");
    assert_eq!(answers.len(), ds.questions.len());
    for (i, answer) in answers.iter().enumerate() {
        assert_wire_matches(&format!("{}/batch q{i}", ds.name), answer, &reference[i], &ds);
    }

    // Registry listing sees the store at generation 1 with zero swaps.
    let stores = client.get("/v1/stores").expect("stores");
    assert_eq!(stores.status, 200);
    let listing = stores.json().expect("valid JSON");
    let entry = listing
        .get("stores")
        .and_then(Json::as_arr)
        .expect("stores array")
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some(ds.name))
        .cloned()
        .unwrap_or_else(|| panic!("{} missing from /v1/stores", ds.name));
    assert_eq!(entry.get("generation").and_then(Json::as_u64), Some(1));
    assert_eq!(entry.get("swaps").and_then(Json::as_u64), Some(0));
    assert_eq!(
        entry.get("rows").and_then(Json::as_u64),
        Some(ds.rel.num_rows() as u64),
        "{}: row count in listing",
        ds.name
    );
}

#[test]
fn dblp_wire_answers_match_in_process() {
    run_dataset(dblp());
}

#[test]
fn crime_wire_answers_match_in_process() {
    run_dataset(crime());
}

/// Wire-level edge cases against a live store: health, 404s, wrong
/// methods, and the unknown-aggregate-column error payload (satellite 5's
/// serve-path golden body).
#[test]
fn wire_error_payloads() {
    let ds = dblp();
    let registry = Arc::new(StoreRegistry::new());
    registry.register(ds.name, ds.handle.clone(), ServeConfig::with_threads(1));
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&registry), NetConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(
        health.json().unwrap().get("status").and_then(Json::as_str).map(str::to_string),
        Some("ok".into())
    );

    // Unknown store → 404 with a typed payload.
    let body = question_body(&ds, &ds.questions[0]);
    let resp = client.post_json("/v1/nosuch/explain", &body).expect("post");
    assert_eq!(resp.status, 404);
    let err = resp.json().unwrap();
    assert_eq!(
        err.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("not_found")
    );

    // Unknown aggregate column → 400 with the distinct kind (golden
    // body shape: error.kind + error.message naming the column).
    let sql = format!(
        "SELECT {cols}, sum(royalties) FROM dblp GROUP BY {cols}",
        cols = ds.group_names.join(", ")
    );
    let tuple: Vec<Json> = ds.questions[0].tuple.iter().map(value_to_json).collect();
    let resp = client
        .post_json(
            &format!("/v1/{}/explain", ds.name),
            &explain_body(&sql, &tuple, "low", None, None),
        )
        .expect("post");
    assert_eq!(resp.status, 400);
    let err = resp.json().unwrap();
    let kind = err.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
    assert_eq!(kind, Some("unknown_aggregate_column"));
    let message = err
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("error message");
    assert!(message.contains("`royalties`"), "message names the column: {message}");
    assert!(
        err.get("error").and_then(|e| e.get("trace_id")).and_then(Json::as_str).is_some(),
        "error payload carries a trace id"
    );

    // An absurd deadline_ms must be the caller's 400, never a server
    // panic (a panicking connection thread would leak its slot).
    let mut huge = explain_body(&ds.sql, &tuple, "low", None, None);
    if let Json::Obj(fields) = &mut huge {
        fields.push(("deadline_ms".into(), Json::Num(1e300)));
    }
    let resp = client.post_json(&format!("/v1/{}/explain", ds.name), &huge).expect("huge deadline");
    assert_eq!(resp.status, 400);

    // Wrong method on a known route → 405, including the admin swap
    // route and the store listing (not a route-hiding 404).
    let resp = client.get(&format!("/v1/{}/explain", ds.name)).expect("get");
    assert_eq!(resp.status, 405);
    let resp = client.get(&format!("/admin/stores/{}/swap", ds.name)).expect("get swap");
    assert_eq!(resp.status, 405);
    client.write_raw(b"DELETE /v1/stores HTTP/1.1\r\n\r\n").expect("delete");
    let resp = client.read_response().expect("delete response");
    assert_eq!(resp.status, 405);

    // A request that closes via a list-valued Connection header still
    // gets its answer before the server closes the socket.
    let mut closing = Client::connect(server.local_addr()).expect("connect");
    closing.write_raw(b"GET /healthz HTTP/1.1\r\nConnection: close, te\r\n\r\n").expect("write");
    let resp = closing.read_response().expect("response");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));
}

/// A body nested past `Json::MAX_DEPTH` is the caller's 400, not a stack
/// overflow that takes the whole server down: one unauthenticated POST of
/// 200,000 `[` bytes must leave `/healthz` answering.
#[test]
fn deeply_nested_body_is_rejected() {
    let ds = dblp();
    let registry = Arc::new(StoreRegistry::new());
    registry.register(ds.name, ds.handle.clone(), ServeConfig::with_threads(1));
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&registry), NetConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let body = "[".repeat(200_000);
    let head = format!(
        "POST /v1/{}/explain HTTP/1.1\r\nHost: cape\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        ds.name,
        body.len()
    );
    client.write_raw(head.as_bytes()).expect("write head");
    client.write_raw(body.as_bytes()).expect("write body");
    let resp = client.read_response().expect("response");
    assert_eq!(resp.status, 400);

    let mut fresh = Client::connect(server.local_addr()).expect("connect after");
    assert_eq!(fresh.get("/healthz").expect("healthz").status, 200);
}
