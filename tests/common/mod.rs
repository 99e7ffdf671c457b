//! Inputs and store comparison shared by the mining suites
//! (`mining_differential.rs`, `mining_golden.rs`).

#![allow(dead_code)] // each suite uses a subset

use cape::core::config::{AggSelection, MiningConfig, Thresholds};
use cape::core::mining::{ArpMiner, CubeMiner, Miner, ParallelMiner, ShareGrpMiner};
use cape::core::store::PatternStore;
use cape::data::{Relation, Schema, Value, ValueType};
use cape::datagen::{crime, dblp, CrimeConfig, DblpConfig};
use cape::regress::Model;

/// Tolerance for every fitted number: absorbs float summation order
/// (roll-up derivation and the batched fit kernels add in a different
/// order than a base scan and the exact kernels).
pub const TOL: f64 = 1e-9;

// --- inputs (frozen in tests/fixtures/mining/; change none of them) ----

pub fn dblp_1500() -> (Relation, MiningConfig) {
    let rel = dblp::generate(&DblpConfig { target_rows: 1_500, ..DblpConfig::default() });
    let cfg = MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        // Sum/min/max over `year` exercise the non-count roll-up
        // derivations inside the miners.
        aggs: AggSelection::AllNumeric,
        exclude: vec![dblp::attrs::PUBID],
        ..MiningConfig::default()
    };
    (rel, cfg)
}

pub fn crime_1000() -> (Relation, MiningConfig) {
    let rel = crime::generate(&CrimeConfig { target_rows: 1_000, ..CrimeConfig::default() });
    let cfg = MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        // The first four attributes: the core of the paper's crime queries.
        exclude: (4..crime::N_ATTRS).collect(),
        ..MiningConfig::default()
    };
    (rel, cfg)
}

/// A highly repetitive relation: the apex group-by (author × year ×
/// venue) has far fewer groups than the base has rows, so the roll-up
/// cost guard (parent ≤ 2/3 of the base row count) admits the apex as a
/// roll-up source and the lattice kernels genuinely fire.
pub fn repetitive() -> (Relation, MiningConfig) {
    let schema = Schema::new([
        ("author", ValueType::Str),
        ("year", ValueType::Int),
        ("venue", ValueType::Str),
        ("cites", ValueType::Int),
    ])
    .unwrap();
    let mut rel = Relation::new(schema);
    for a in 0..12 {
        for y in 0..8 {
            for p in 0..4 {
                rel.push_row(vec![
                    Value::str(format!("a{a}")),
                    Value::Int(2000 + y),
                    Value::str(if p % 2 == 0 { "KDD" } else { "ICDE" }),
                    Value::Int((a * 7 + y * 3 + p) % 11),
                ])
                .unwrap();
            }
        }
    }
    let cfg = MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        aggs: AggSelection::AllNumeric,
        ..MiningConfig::default()
    };
    (rel, cfg)
}

pub fn dblp_6000() -> (Relation, MiningConfig) {
    let rel = dblp::generate(&DblpConfig::with_rows(6000));
    let cfg = MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        exclude: vec![dblp::attrs::PUBID],
        ..MiningConfig::default()
    };
    (rel, cfg)
}

fn edge_schema() -> Schema {
    Schema::new([("k", ValueType::Str), ("x", ValueType::Int), ("y", ValueType::Float)]).unwrap()
}

fn edge_cfg() -> MiningConfig {
    MiningConfig { thresholds: Thresholds::new(0.2, 2, 0.3, 1), psi: 2, ..MiningConfig::default() }
}

/// Every `y` is NULL, so every aggregate over it is NULL.
pub fn all_null() -> (Relation, MiningConfig) {
    let mut rel = Relation::new(edge_schema());
    for k in ["a", "b", "c"] {
        for x in 0..4 {
            rel.push_row(vec![Value::str(k), Value::Int(x), Value::Null]).unwrap();
        }
    }
    (rel, edge_cfg())
}

pub fn zero_row() -> (Relation, MiningConfig) {
    (Relation::new(edge_schema()), edge_cfg())
}

pub type Input = fn() -> (Relation, MiningConfig);

pub const INPUTS: [(&str, Input); 6] = [
    ("dblp_1500", dblp_1500),
    ("crime_1000", crime_1000),
    ("repetitive", repetitive),
    ("dblp_6000", dblp_6000),
    ("all_null", all_null),
    ("zero_row", zero_row),
];

/// The input named `name` in [`INPUTS`].
pub fn input(name: &str) -> (Relation, MiningConfig) {
    INPUTS.iter().find(|(n, _)| *n == name).expect("known input").1()
}

// --- miners and comparison ----------------------------------------------

/// Every miner but NAIVE, with whether it emits patterns in split order
/// (SHARE-GRP, CUBE and NAIVE do; ARP-MINE and its parallel form walk
/// sort orders instead, so within a group set their order differs).
pub fn miners() -> Vec<(&'static str, Box<dyn Miner>, bool)> {
    vec![
        ("SHARE-GRP", Box::new(ShareGrpMiner), true),
        ("CUBE", Box::new(CubeMiner), true),
        ("ARP-MINE", Box::new(ArpMiner), false),
        ("PAR-1", Box::new(ParallelMiner { threads: 1 }), false),
        ("PAR-4", Box::new(ParallelMiner { threads: 4 }), false),
    ]
}

/// `got`'s patterns in `want`'s order (for miners that walk sort orders).
pub fn in_order_of(want: &PatternStore, got: &PatternStore) -> PatternStore {
    let mut out = PatternStore::new();
    for (_, w) in want.iter() {
        if let Some((_, p)) = got.iter().find(|(_, p)| p.arp == w.arp) {
            out.push(p.clone());
        }
    }
    assert_eq!(out.len(), got.len(), "mined patterns the reference lacks");
    out
}

fn model_params(m: &Model) -> Vec<f64> {
    match m {
        Model::Constant { beta } => vec![*beta],
        Model::Linear { intercept, coefs } => {
            let mut p = vec![*intercept];
            p.extend_from_slice(coefs);
            p
        }
        Model::Quadratic { intercept, lin, quad } => {
            let mut p = vec![*intercept];
            p.extend_from_slice(lin);
            p.extend_from_slice(quad);
            p
        }
    }
}

pub fn assert_close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() <= TOL, "{what}: {a} vs {b} (|diff| = {})", (a - b).abs());
}

/// Pattern-by-pattern equality, in order: the same ARPs, confidence,
/// support, local fragments, goodness of fit, model parameters and
/// deviation bounds to [`TOL`]. `check_n` also compares each local fit's
/// sample count, which a persisted store does not keep.
pub fn assert_matches(label: &str, want: &PatternStore, got: &PatternStore, check_n: bool) {
    let arps = |s: &PatternStore| s.iter().map(|(_, p)| p.arp.clone()).collect::<Vec<_>>();
    assert_eq!(arps(want), arps(got), "{label}: ARPs or their order differ");
    for ((_, a), (_, b)) in want.iter().zip(got.iter()) {
        let arp = format!("{label}/{:?}", a.arp);
        assert_close(a.confidence, b.confidence, &format!("{arp}: confidence"));
        assert_eq!(a.num_supported, b.num_supported, "{arp}: num_supported");
        assert_close(a.max_pos_dev, b.max_pos_dev, &format!("{arp}: max_pos_dev"));
        assert_close(a.max_neg_dev, b.max_neg_dev, &format!("{arp}: max_neg_dev"));
        assert_eq!(a.locals.len(), b.locals.len(), "{arp}: local count");
        for (key, x) in &a.locals {
            let ctx = format!("{arp}/{key:?}");
            let y = b.locals.get(key).unwrap_or_else(|| panic!("{ctx}: local missing"));
            assert_eq!(x.support, y.support, "{ctx}: support");
            if check_n {
                assert_eq!(x.fitted.n, y.fitted.n, "{ctx}: sample count");
            }
            assert_close(x.fitted.gof, y.fitted.gof, &format!("{ctx}: gof"));
            assert_close(x.max_pos_dev, y.max_pos_dev, &format!("{ctx}: max_pos_dev"));
            assert_close(x.max_neg_dev, y.max_neg_dev, &format!("{ctx}: max_neg_dev"));
            let (pa, pb) = (model_params(&x.fitted.model), model_params(&y.fitted.model));
            assert_eq!(pa.len(), pb.len(), "{ctx}: model arity");
            for (i, (u, v)) in pa.iter().zip(&pb).enumerate() {
                assert_close(*u, *v, &format!("{ctx}: model param {i}"));
            }
        }
    }
}
