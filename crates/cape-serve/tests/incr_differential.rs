//! Incremental-maintenance differential suite (ISSUE 8):
//! `mine(R + ΔR) ≡ append(ΔR)` to 1e-9.
//!
//! For DBLP and Crime, the full relation is mined in one batch, then
//! rebuilt incrementally — mine the base prefix, stream the remaining
//! rows through `IncrStore::append` in several batches (including a
//! single-row delta). The two stores must agree pattern-by-pattern
//! (ARPs, supports, confidences, local fits, deviation bounds), and both
//! must answer the deterministic question grid identically — via the
//! sequential optimized explainer and the concurrent `ExplainService` at
//! 1 and 4 workers.

use cape_core::config::MiningConfig;
use cape_core::explain::{ExplainConfig, Explanation};
use cape_core::incr::IncrStore;
use cape_core::mining::{Miner, ShareGrpMiner};
use cape_core::prelude::{OptimizedExplainer, TopKExplainer};
use cape_core::question::UserQuestion;
use cape_core::store::PatternStore;
use cape_data::{Relation, Value};
use cape_serve::{ExplainRequest, ExplainService, PatternStoreHandle, ServeConfig};

const TOP_K: usize = 8;
const QUESTIONS_PER_DATASET: usize = 12;
const TOL: f64 = 1e-9;

/// Pattern-by-pattern store equality to 1e-9: same instance order, same
/// ARPs, same globals, same local fits and deviation bounds.
fn assert_stores_match(label: &str, incr: &PatternStore, mined: &PatternStore) {
    assert_eq!(incr.len(), mined.len(), "{label}: pattern count");
    for ((_, a), (_, b)) in incr.iter().zip(mined.iter()) {
        assert_eq!(a.arp, b.arp, "{label}: ARP order");
        assert_eq!(a.num_supported, b.num_supported, "{label}: {:?}", a.arp);
        assert!((a.confidence - b.confidence).abs() < TOL, "{label}: confidence of {:?}", a.arp);
        assert_eq!(a.locals.len(), b.locals.len(), "{label}: locals of {:?}", a.arp);
        for (key, la) in &a.locals {
            let lb = b.locals.get(key).unwrap_or_else(|| {
                panic!("{label}: {:?}: local {key:?} missing from batch mine", a.arp)
            });
            assert_eq!(la.support, lb.support, "{label}: support of {key:?}");
            assert_eq!(la.fitted.n, lb.fitted.n, "{label}: n of {key:?}");
            assert!(
                (la.fitted.gof - lb.fitted.gof).abs() < TOL,
                "{label}: gof of {key:?}: {} vs {}",
                la.fitted.gof,
                lb.fitted.gof
            );
            assert!((la.max_pos_dev - lb.max_pos_dev).abs() < TOL, "{label}: +dev of {key:?}");
            assert!((la.max_neg_dev - lb.max_neg_dev).abs() < TOL, "{label}: -dev of {key:?}");
        }
        assert!((a.max_pos_dev - b.max_pos_dev).abs() < TOL, "{label}: global +dev");
        assert!((a.max_neg_dev - b.max_neg_dev).abs() < TOL, "{label}: global -dev");
    }
}

fn assert_identical(label: &str, qi: usize, reference: &[Explanation], got: &[Explanation]) {
    assert_eq!(reference.len(), got.len(), "{label}: question {qi}: lengths differ");
    for (j, (a, b)) in reference.iter().zip(got).enumerate() {
        assert_eq!(a.key(), b.key(), "{label}: question {qi}: rank {j} candidate differs");
        assert!(
            (a.score - b.score).abs() < TOL,
            "{label}: question {qi}: rank {j} score {} vs {}",
            a.score,
            b.score
        );
        assert_eq!(a.pattern_idx, b.pattern_idx, "{label}: question {qi}: rank {j} pattern");
    }
}

/// Mine the full relation in one batch; rebuild it incrementally from a
/// base prefix plus streamed appends; prove the stores and every
/// explanation agree.
fn run_incr_matrix(label: &str, full: Relation, mcfg: &MiningConfig, questions: Vec<UserQuestion>) {
    let mined = ShareGrpMiner.mine(&full, mcfg).expect("mining").store;
    assert!(!mined.is_empty(), "{label}: mining found no patterns");

    // Base = first ~5/6 of rows; the rest arrives as a single-row delta,
    // then two bulk batches.
    let n = full.num_rows();
    let cut = n * 5 / 6;
    let base = full.take(&(0..cut).collect::<Vec<_>>());
    let mut incr = IncrStore::build(base, mcfg.clone()).expect("incremental build");
    let rest: Vec<Vec<Value>> = (cut..n).map(|i| full.row(i)).collect();
    let mid = rest.len() / 2;
    for batch in [&rest[..1], &rest[1..mid], &rest[mid..]] {
        let report = incr.append(batch.to_vec()).expect("append");
        assert_eq!(report.appended_rows, batch.len());
    }
    assert_eq!(incr.relation().num_rows(), n, "{label}: row count after appends");
    assert_stores_match(label, &incr.store(), &mined);

    // Explanations: batch-mined handle is the reference.
    let reference_handle = PatternStoreHandle::new(full.clone(), mined);
    let cfg = ExplainConfig::default_for(reference_handle.relation(), TOP_K);
    let reference: Vec<Vec<Explanation>> = questions
        .iter()
        .map(|q| OptimizedExplainer.explain(reference_handle.store(), q, &cfg).0)
        .collect();
    let answered = reference.iter().filter(|r| !r.is_empty()).count();
    assert!(answered > 0, "{label}: no question produced any explanation — suite is vacuous");

    let incr_handle =
        PatternStoreHandle::from_arcs(std::sync::Arc::new(incr.relation().clone()), incr.store());
    for (i, q) in questions.iter().enumerate() {
        let (got, _) = OptimizedExplainer.explain(incr_handle.store(), q, &cfg);
        assert_identical(&format!("{label}/incr-sequential"), i, &reference[i], &got);
    }

    for threads in [1, 4] {
        let service =
            ExplainService::start(incr_handle.clone(), ServeConfig::with_threads(threads));
        let responses = service
            .batch(questions.iter().map(|q| ExplainRequest::new(q.clone(), TOP_K)).collect());
        for (i, resp) in responses.iter().enumerate() {
            assert!(!resp.partial);
            assert_identical(
                &format!("{label}/incr-service-{threads}t"),
                i,
                &reference[i],
                &resp.explanations,
            );
        }
    }
}

#[test]
fn dblp_append_matches_full_mine() {
    let rel = cape_datagen::dblp::generate(&cape_datagen::dblp::DblpConfig::with_rows(6000));
    let mut mcfg = MiningConfig {
        thresholds: cape_core::config::Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        ..MiningConfig::default()
    };
    mcfg.exclude = vec![cape_datagen::dblp::attrs::PUBID];
    let questions = UserQuestion::top_count_grid(
        &rel,
        &[
            cape_datagen::dblp::attrs::AUTHOR,
            cape_datagen::dblp::attrs::YEAR,
            cape_datagen::dblp::attrs::VENUE,
        ],
        QUESTIONS_PER_DATASET,
    )
    .expect("count query");
    run_incr_matrix("dblp", rel, &mcfg, questions);
}

#[test]
fn crime_append_matches_full_mine() {
    let rel = cape_datagen::crime::generate(&cape_datagen::crime::CrimeConfig::with_rows(6000));
    let mcfg = MiningConfig {
        thresholds: cape_core::config::Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        ..MiningConfig::default()
    };
    let questions = UserQuestion::top_count_grid(
        &rel,
        &[
            cape_datagen::crime::attrs::PRIMARY_TYPE,
            cape_datagen::crime::attrs::COMMUNITY,
            cape_datagen::crime::attrs::YEAR,
        ],
        QUESTIONS_PER_DATASET,
    )
    .expect("count query");
    run_incr_matrix("crime", rel, &mcfg, questions);
}
