//! Wire-level summarization (ISSUE 10, satellite 4).
//!
//! `"summarize": true` over a real TCP connection must produce exactly
//! the summaries the in-process `ExplainService` computes — fragments,
//! members, representatives, and score ranges to 1e-9 — on both DBLP
//! and Crime. Responses without the field must not carry a `summaries`
//! key at all (the wire format is strictly additive). A swap-race case
//! proves summaries come from the *request's* epoch: a request held
//! mid-flight while the snapshot is hot-swapped still answers with the
//! old generation's summaries.

use cape_core::config::{MiningConfig, Thresholds};
use cape_core::explain::SummarizeConfig;
use cape_core::mining::{ArpMiner, Miner};
use cape_core::question::{Direction, UserQuestion};
use cape_core::snapshot::save_snapshot;
use cape_core::store::PatternStore;
use cape_data::{AttrId, Relation, Value};
use cape_net::registry::StoreRegistry;
use cape_net::server::{NetConfig, Server};
use cape_net::testclient::{explain_body, Client};
use cape_obs::Json;
use cape_serve::{
    ExplainRequest, ExplainResponse, ExplainService, PatternStoreHandle, ServeConfig,
};
use std::sync::Arc;

const TOP_K: usize = 8;
const SCORE_TOL: f64 = 1e-9;

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(n) => Json::Num(*n as f64),
        Value::Float(f) => Json::Num(*f),
        Value::Str(s) => Json::Str(s.to_string()),
    }
}

struct Dataset {
    name: &'static str,
    rel: Arc<Relation>,
    handle: PatternStoreHandle,
    questions: Vec<UserQuestion>,
    sql: String,
}

fn mine(name: &'static str, rel: Relation, group: &[AttrId], exclude: Vec<AttrId>) -> Dataset {
    let mcfg = MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        exclude,
        ..MiningConfig::default()
    };
    let store = ArpMiner.mine(&rel, &mcfg).expect("mining").store;
    assert!(!store.is_empty(), "{name}: mining found no patterns");
    let questions = UserQuestion::top_count_grid(&rel, group, 12).expect("count query");
    let cols: Vec<String> = group
        .iter()
        .map(|&a| rel.schema().attr(a).expect("group attr").name().to_string())
        .collect();
    let sql =
        format!("SELECT {cols}, count(*) FROM {name} GROUP BY {cols}", cols = cols.join(", "));
    let handle = PatternStoreHandle::new(rel, store);
    Dataset { name, rel: handle.relation_arc(), handle, questions, sql }
}

fn dblp() -> Dataset {
    use cape_datagen::dblp::{attrs, generate, DblpConfig};
    mine(
        "dblp",
        generate(&DblpConfig::with_rows(3000)),
        &[attrs::AUTHOR, attrs::YEAR, attrs::VENUE],
        vec![attrs::PUBID],
    )
}

fn crime() -> Dataset {
    use cape_datagen::crime::{attrs, generate, CrimeConfig};
    mine(
        "crime",
        generate(&CrimeConfig::with_rows(3000)),
        &[attrs::PRIMARY_TYPE, attrs::COMMUNITY, attrs::YEAR],
        vec![],
    )
}

fn question_body(ds: &Dataset, q: &UserQuestion, summarize: Option<Json>) -> Json {
    let tuple: Vec<Json> = q.tuple.iter().map(value_to_json).collect();
    let dir = match q.dir {
        Direction::High => "high",
        Direction::Low => "low",
    };
    let mut body = explain_body(&ds.sql, &tuple, dir, Some(TOP_K), None);
    if let (Json::Obj(fields), Some(s)) = (&mut body, summarize) {
        fields.push(("summarize".into(), s));
    }
    body
}

/// Assert the wire `summaries` array equals the in-process reference to
/// 1e-9 — fragment attrs/values, member indices, representative, range.
fn assert_summaries_match(label: &str, answer: &Json, reference: &ExplainResponse, rel: &Relation) {
    let expected = reference.summaries.as_ref().expect("reference carries summaries");
    let wire = answer
        .get("summaries")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{label}: response has no summaries array"));
    assert_eq!(wire.len(), expected.len(), "{label}: summary count differs");
    let schema = rel.schema();
    for (rank, (got, want)) in wire.iter().zip(expected).enumerate() {
        let frag = got.get("fragment").expect("fragment");
        let attrs = frag.get("attrs").and_then(Json::as_arr).expect("fragment attrs");
        let expected_attrs: Vec<Json> = want
            .fragment
            .attrs
            .iter()
            .map(|&a| Json::Str(schema.attr(a).expect("attr").name().to_string()))
            .collect();
        assert_eq!(attrs, &expected_attrs, "{label}: summary {rank} fragment attrs");
        let values = frag.get("values").and_then(Json::as_arr).expect("fragment values");
        let expected_values: Vec<Json> = want.fragment.values.iter().map(value_to_json).collect();
        assert_eq!(values, &expected_values, "{label}: summary {rank} fragment values");
        let members: Vec<u64> = got
            .get("members")
            .and_then(Json::as_arr)
            .expect("members")
            .iter()
            .map(|m| m.as_u64().expect("member index"))
            .collect();
        let expected_members: Vec<u64> = want.members.iter().map(|&m| m as u64).collect();
        assert_eq!(members, expected_members, "{label}: summary {rank} members");
        assert_eq!(
            got.get("representative").and_then(Json::as_u64),
            Some(want.representative as u64),
            "{label}: summary {rank} representative"
        );
        for (field, expected) in
            [("score_best", want.score_range.0), ("score_worst", want.score_range.1)]
        {
            let v = got.get(field).and_then(Json::as_f64).expect(field);
            assert!(
                (v - expected).abs() < SCORE_TOL,
                "{label}: summary {rank} {field} {v} vs {expected}"
            );
        }
    }
}

fn reference_with(ds: &Dataset, cfg: Option<SummarizeConfig>) -> Vec<ExplainResponse> {
    let service = ExplainService::start(ds.handle.clone(), ServeConfig::with_threads(2));
    service.batch(
        ds.questions
            .iter()
            .map(|q| {
                let mut req = ExplainRequest::new(q.clone(), TOP_K);
                if let Some(c) = &cfg {
                    req = req.with_summarize(c.clone());
                }
                req
            })
            .collect(),
    )
}

fn run_dataset(ds: Dataset) {
    let reference = reference_with(&ds, Some(SummarizeConfig::default()));
    assert!(
        reference.iter().any(|r| r.summaries.as_ref().is_some_and(|s| !s.is_empty())),
        "{}: reference produced no summaries — test is vacuous",
        ds.name
    );

    let registry = Arc::new(StoreRegistry::new());
    registry.register(ds.name, ds.handle.clone(), ServeConfig::with_threads(2));
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&registry), NetConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let path = format!("/v1/{}/explain", ds.name);

    for (i, q) in ds.questions.iter().enumerate() {
        // summarize: true ≡ in-process default config.
        let resp = client
            .post_json(&path, &question_body(&ds, q, Some(Json::Bool(true))))
            .expect("explain");
        assert_eq!(resp.status, 200, "q{i}: {}", String::from_utf8_lossy(&resp.body));
        let json = resp.json().expect("valid JSON");
        assert_summaries_match(&format!("{}/q{i}", ds.name), &json, &reference[i], &ds.rel);

        // Without the field the key must be entirely absent.
        let resp = client.post_json(&path, &question_body(&ds, q, None)).expect("plain");
        assert_eq!(resp.status, 200);
        let json = resp.json().expect("valid JSON");
        assert!(
            json.get("summaries").is_none(),
            "{}/q{i}: plain response must not carry a summaries key",
            ds.name
        );
    }

    // A custom config object flows through end to end.
    let custom = SummarizeConfig { min_members: 3, max_loss: 0.15 };
    let custom_ref = reference_with(&ds, Some(custom));
    let body = question_body(
        &ds,
        &ds.questions[0],
        Some(Json::parse(r#"{"min_members": 3, "max_loss": 0.15}"#).unwrap()),
    );
    let resp = client.post_json(&path, &body).expect("custom explain");
    assert_eq!(resp.status, 200);
    let json = resp.json().expect("valid JSON");
    assert_summaries_match(&format!("{}/custom", ds.name), &json, &custom_ref[0], &ds.rel);

    // Batch endpoint: per-question summarize flags are honored — the
    // first question summarized, the second not.
    let batch = Json::Obj(vec![(
        "questions".into(),
        Json::Arr(vec![
            question_body(&ds, &ds.questions[0], Some(Json::Bool(true))),
            question_body(&ds, &ds.questions[1], None),
        ]),
    )]);
    let resp = client.post_json(&format!("/v1/{}/batch-explain", ds.name), &batch).expect("batch");
    assert_eq!(resp.status, 200);
    let json = resp.json().expect("valid JSON");
    let answers = json.get("answers").and_then(Json::as_arr).expect("answers");
    assert_eq!(answers.len(), 2);
    assert_summaries_match(&format!("{}/batch q0", ds.name), &answers[0], &reference[0], &ds.rel);
    assert!(
        answers[1].get("summaries").is_none(),
        "{}: unsummarized batch member must not carry summaries",
        ds.name
    );
}

#[test]
fn dblp_wire_summaries_match_in_process() {
    run_dataset(dblp());
}

#[test]
fn crime_wire_summaries_match_in_process() {
    run_dataset(crime());
}

/// A summarize request held mid-flight while the snapshot is swapped
/// answers from its own epoch: old generation stamp, old store's
/// summaries. A fresh request afterwards sees the new epoch.
#[test]
fn summaries_come_from_the_requests_epoch() {
    use cape_datagen::dblp::{attrs, generate, DblpConfig};
    let rel = generate(&DblpConfig::with_rows(3000));
    let group = [attrs::AUTHOR, attrs::YEAR, attrs::VENUE];
    let question = UserQuestion::top_count_grid(&rel, &group, 1).expect("count query").remove(0);
    let sql = "SELECT author, year, venue, count(*) FROM dblp GROUP BY author, year, venue";

    let mine_with = |thresholds: Thresholds, psi: usize| -> (MiningConfig, PatternStore) {
        let cfg = MiningConfig {
            thresholds,
            psi,
            exclude: vec![attrs::PUBID],
            ..MiningConfig::default()
        };
        let store = ArpMiner.mine(&rel, &cfg).expect("mining").store;
        (cfg, store)
    };
    let (_, store_a) = mine_with(Thresholds::new(0.15, 4, 0.3, 3), 3);
    let (cfg_b, store_b) = mine_with(Thresholds::new(0.1, 3, 0.25, 2), 2);

    let summarized_reference = |store: &PatternStore| -> ExplainResponse {
        let handle = PatternStoreHandle::new(rel.clone(), store.clone());
        let service = ExplainService::start(handle, ServeConfig::with_threads(1));
        service
            .submit(
                ExplainRequest::new(question.clone(), TOP_K)
                    .with_summarize(SummarizeConfig::default()),
            )
            .recv()
            .expect("reply")
    };
    let ref_a = summarized_reference(&store_a);
    let ref_b = summarized_reference(&store_b);
    let scores =
        |r: &ExplainResponse| -> Vec<f64> { r.explanations.iter().map(|e| e.score).collect() };
    assert_ne!(
        scores(&ref_a),
        scores(&ref_b),
        "the two snapshots must answer differently for the epoch check to bite"
    );

    let dir = std::env::temp_dir().join(format!("cape-summarize-swap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path_b = dir.join("b.cape");
    save_snapshot(&path_b, rel.schema(), &cfg_b, &store_b).expect("save b");

    let registry = Arc::new(StoreRegistry::new());
    registry.register(
        "dblp",
        PatternStoreHandle::new(rel.clone(), store_a.clone()),
        ServeConfig::with_threads(2),
    );
    let net_cfg = NetConfig { allow_sleep: true, ..NetConfig::default() };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), net_cfg).expect("bind");
    let addr = server.local_addr();

    let tuple: Vec<Json> = question.tuple.iter().map(value_to_json).collect();
    let mut slow_body = explain_body(sql, &tuple, "low", Some(TOP_K), None);
    if let Json::Obj(fields) = &mut slow_body {
        fields.push(("summarize".into(), Json::Bool(true)));
        fields.push(("sleep_ms".into(), Json::Num(400.0)));
    }

    // The slow summarize request clones its epoch, then sleeps; the swap
    // lands while it is held.
    let slow = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.post_json("/v1/dblp/explain", &slow_body).expect("slow explain")
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    let mut control = Client::connect(addr).expect("connect control");
    let swap_body = Json::Obj(vec![("path".into(), Json::Str(path_b.display().to_string()))]);
    let resp = control.post_json("/admin/stores/dblp/swap", &swap_body).expect("swap");
    assert_eq!(resp.status, 200, "swap: {}", String::from_utf8_lossy(&resp.body));

    let resp = slow.join().expect("slow thread");
    assert_eq!(resp.status, 200, "slow: {}", String::from_utf8_lossy(&resp.body));
    let json = resp.json().expect("valid JSON");
    assert_eq!(
        json.get("generation").and_then(Json::as_u64),
        Some(1),
        "held request must answer from its own (pre-swap) epoch"
    );
    assert_summaries_match("swap/held", &json, &ref_a, &rel);

    // A fresh request sees the swapped epoch and ITS summaries.
    let mut fresh_body = explain_body(sql, &tuple, "low", Some(TOP_K), None);
    if let Json::Obj(fields) = &mut fresh_body {
        fields.push(("summarize".into(), Json::Bool(true)));
    }
    let resp = control.post_json("/v1/dblp/explain", &fresh_body).expect("fresh explain");
    assert_eq!(resp.status, 200);
    let json = resp.json().expect("valid JSON");
    assert_eq!(json.get("generation").and_then(Json::as_u64), Some(2), "post-swap generation");
    assert_summaries_match("swap/fresh", &json, &ref_b, &rel);

    std::fs::remove_dir_all(&dir).ok();
}
