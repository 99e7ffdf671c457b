//! Golden mining suite: every miner, on its one data path, reproduces
//! the stores frozen in `tests/fixtures/mining/`.
//!
//! The fixtures were written by the row-oriented mining path that has
//! since been removed (`Vec<Value>` group keys, one materialized
//! `ORDER BY` copy per split, per-cell `Value` fit gather; see
//! `tests/fixtures/mining/README.md`). Each test mines the same input
//! and checks, against the fixture, the same ARPs in the same order and
//! confidence, support, goodness of fit, model parameters and deviation
//! bounds to 1e-9.

mod common;

use cape::core::explain::{ExplainConfig, TopKExplainer};
use cape::core::mining::{Miner, ShareGrpMiner};
use cape::core::persist::{read_store, write_store};
use cape::core::prelude::OptimizedExplainer;
use cape::core::question::UserQuestion;
use cape::core::store::PatternStore;
use cape::core::IncrStore;
use cape::data::{Relation, Value};
use cape::datagen::dblp;
use common::{assert_close, assert_matches, dblp_6000, in_order_of, input, miners, INPUTS};
use std::path::PathBuf;

fn fixture_bytes(name: &str) -> Vec<u8> {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", "mining"]
        .iter()
        .collect::<PathBuf>()
        .join(format!("{name}.store"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn fixture(name: &str, rel: &Relation) -> PatternStore {
    read_store(&fixture_bytes(name)[..], rel).expect("fixture parses")
}

/// Mine `name`'s input with every miner and compare each store with the
/// fixture.
fn check(name: &str) {
    let (rel, cfg) = input(name);
    let golden = fixture(name, &rel);
    for (miner_name, miner, split_order) in miners() {
        let got = miner.mine(&rel, &cfg).expect("mine").store;
        let got = if split_order { got } else { in_order_of(&golden, &got) };
        assert_matches(&format!("{name}/{miner_name}"), &golden, &got, false);
    }
}

#[test]
fn dblp_1500_matches_fixture() {
    check("dblp_1500");
}

#[test]
fn crime_1000_matches_fixture() {
    check("crime_1000");
}

#[test]
fn repetitive_matches_fixture() {
    check("repetitive");
}

#[test]
fn dblp_6000_matches_fixture() {
    check("dblp_6000");
}

#[test]
fn all_null_matches_fixture() {
    check("all_null");
}

#[test]
fn zero_row_matches_fixture() {
    let (rel, _) = input("zero_row");
    assert!(fixture("zero_row", &rel).is_empty());
    check("zero_row");
}

/// The fixtures are not vacuous, and reading then re-writing one gives
/// back its exact bytes, so the comparisons above see the frozen bits.
#[test]
fn fixtures_round_trip_bit_exact() {
    for (name, input) in INPUTS {
        let (rel, _) = input();
        let bytes = fixture_bytes(name);
        let store = read_store(&bytes[..], &rel).expect("fixture parses");
        if !matches!(name, "zero_row") {
            assert!(!store.is_empty(), "{name}: fixture holds no patterns");
        }
        let mut rewritten = Vec::new();
        write_store(&mut rewritten, &store).unwrap();
        assert!(rewritten == bytes, "{name}: fixture does not round-trip byte for byte");
    }
}

// --- explanations and incremental maintenance over the fixture --------

/// Explanations from a fresh mine equal those from the fixture store.
#[test]
fn dblp_6000_explanations_match_fixture() {
    let (rel, cfg) = dblp_6000();
    let golden = fixture("dblp_6000", &rel);
    let mined = ShareGrpMiner.mine(&rel, &cfg).expect("mine").store;
    let questions = UserQuestion::top_count_grid(
        &rel,
        &[dblp::attrs::AUTHOR, dblp::attrs::YEAR, dblp::attrs::VENUE],
        12,
    )
    .expect("count query");
    let ecfg = ExplainConfig::default_for(&rel, 8);
    let mut answered = 0;
    for (i, q) in questions.iter().enumerate() {
        let (reference, _) = OptimizedExplainer.explain(&golden, q, &ecfg);
        let (got, _) = OptimizedExplainer.explain(&mined, q, &ecfg);
        answered += usize::from(!reference.is_empty());
        assert_eq!(reference.len(), got.len(), "question {i}: lengths differ");
        for (j, (a, b)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(a.key(), b.key(), "question {i}: rank {j} candidate differs");
            assert_close(a.score, b.score, &format!("question {i}: rank {j} score"));
            assert_eq!(a.pattern_idx, b.pattern_idx, "question {i}: rank {j} pattern");
        }
    }
    assert!(answered > 0, "no question produced an explanation — the check is vacuous");
}

/// Rows arriving through incremental appends land on the fixture store.
#[test]
fn dblp_6000_appends_match_fixture() {
    let (rel, cfg) = dblp_6000();
    let golden = fixture("dblp_6000", &rel);
    let n = rel.num_rows();
    let cut = n * 5 / 6;
    let base = rel.take(&(0..cut).collect::<Vec<_>>());
    let mut incr = IncrStore::build(base, cfg).expect("incremental build");
    let rest: Vec<Vec<Value>> = (cut..n).map(|i| rel.row(i)).collect();
    let mid = rest.len() / 2;
    for batch in [&rest[..1], &rest[1..mid], &rest[mid..]] {
        incr.append(batch.to_vec()).expect("append");
    }
    assert_eq!(incr.relation().num_rows(), n, "row count after appends");
    assert_matches("dblp_6000/incr", &golden, &incr.store(), false);
}
