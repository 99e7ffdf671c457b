//! The binary snapshot format, frozen, and its decoders under hostile
//! pattern structure.
//!
//! `tests/fixtures/snapshot/` holds a v1 and a v2 snapshot of one small
//! mined store, written by an earlier encoder (see the README there).
//! The current encoder must reproduce both byte for byte, and every
//! loader must read them. The second half crafts files whose CRCs are
//! all valid but whose first pattern breaks an ARP invariant (Definition
//! 2: F and V non-empty, F ∩ V = ∅, the aggregated attribute outside
//! F ∪ V): every reader must reject them with a typed error, never a
//! panic. The text store format gets the same inputs.

use cape::core::incr::{IncrError, IncrStore};
use cape::core::mining::{Miner, ShareGrpMiner};
use cape::core::persist::{read_store, write_store, PersistError};
use cape::core::snapshot::{self, inject, SnapshotError};
use cape::core::{AggSelection, MiningConfig, PatternStore, Thresholds};
use cape::data::{AggFunc, Relation, Schema, Value, ValueType};
use std::path::PathBuf;

/// The input the fixtures were mined from (kept identical to the
/// generator in the fixtures' README).
fn input() -> (Relation, MiningConfig) {
    let schema = Schema::new([
        ("author", ValueType::Str),
        ("year", ValueType::Int),
        ("venue", ValueType::Str),
        ("score", ValueType::Float),
    ])
    .unwrap();
    let mut rel = Relation::new(schema);
    for a in 0..3 {
        for y in 0..5 {
            for p in 0..2 {
                rel.push_row(vec![
                    Value::str(format!("a{a}")),
                    Value::Int(2000 + y),
                    Value::str(if (y + p) % 2 == 0 { "KDD" } else { "ICDE" }),
                    if (a + y + p) % 4 == 0 {
                        Value::Null
                    } else {
                        Value::Float(0.5 * p as f64 + a as f64)
                    },
                ])
                .unwrap();
            }
        }
    }
    let cfg = MiningConfig {
        thresholds: Thresholds::new(0.2, 2, 0.4, 2),
        psi: 3,
        exclude: vec![3],
        ..MiningConfig::default()
    };
    (rel, cfg)
}

fn fixture_path(name: &str) -> PathBuf {
    [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", "snapshot", name].iter().collect()
}

fn fixture(name: &str) -> Vec<u8> {
    let path = fixture_path(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn assert_same_bytes(label: &str, got: &[u8], frozen: &[u8]) {
    let first_diff = got.iter().zip(frozen).position(|(a, b)| a != b);
    assert!(
        got.len() == frozen.len() && first_diff.is_none(),
        "{label}: {} bytes vs {} frozen, first difference at {first_diff:?}",
        got.len(),
        frozen.len()
    );
}

fn assert_same_store(label: &str, got: &PatternStore, want: &PatternStore) {
    assert_eq!(got.len(), want.len(), "{label}");
    for ((_, a), (_, b)) in got.iter().zip(want.iter()) {
        assert_eq!(a.arp, b.arp, "{label}");
        assert_eq!(a.locals, b.locals, "{label}");
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits(), "{label}");
        assert_eq!(a.num_supported, b.num_supported, "{label}");
    }
}

#[test]
fn encoder_reproduces_the_frozen_files() {
    let (rel, cfg) = input();
    let store = ShareGrpMiner.mine(&rel, &cfg).unwrap().store;
    assert_eq!(store.len(), 15);
    let v1 = snapshot::encode_snapshot(rel.schema(), &cfg, &store);
    assert_same_bytes("v1", &v1, &fixture("v1.cape"));
    let v2 = snapshot::v2::encode_snapshot_v2(rel.schema(), &cfg, &store, &rel);
    assert_same_bytes("v2", &v2, &fixture("v2.cape"));
}

#[test]
fn loaders_read_the_frozen_files() {
    let (rel, cfg) = input();
    let store = ShareGrpMiner.mine(&rel, &cfg).unwrap().store;
    let (v1, v2) = (fixture_path("v1.cape"), fixture_path("v2.cape"));

    for (path, version) in [(&v1, 1), (&v2, 2)] {
        let loaded = snapshot::load_snapshot(path, &rel).unwrap();
        assert_eq!(loaded.version, version);
        assert_eq!(loaded.config.thresholds, cfg.thresholds);
        assert_eq!(&loaded.schema, rel.schema());
        assert_same_store(&format!("load_snapshot v{version}"), &loaded.store, &store);
    }
    let loaded = snapshot::load_snapshot_v2(&v2).unwrap();
    assert_eq!(loaded.relation, rel);
    assert_same_store("load_snapshot_v2", &loaded.store, &store);
    let read = snapshot::read_snapshot_v2(&fixture("v2.cape")).unwrap();
    assert_eq!(read.relation, rel);
    assert_same_store("read_snapshot_v2", &read.store, &store);
    assert_eq!(snapshot::load_relation_v2(&v2).unwrap().1, rel);

    // The embedded-relation readers need a v2 file.
    assert_eq!(
        snapshot::read_snapshot_v2(&fixture("v1.cape")).unwrap_err(),
        SnapshotError::VersionUnsupported { found: 1 }
    );
    assert_eq!(
        snapshot::load_relation_v2(&v1).unwrap_err(),
        SnapshotError::VersionUnsupported { found: 1 }
    );
}

// --- hostile pattern structure ----------------------------------------------

/// The fixture relation mined for `sum(score)`, so the first pattern
/// records an aggregated attribute.
fn sum_store() -> (Relation, MiningConfig, PatternStore) {
    let (rel, cfg) = input();
    let cfg = MiningConfig { aggs: AggSelection::Explicit(vec![(AggFunc::Sum, Some(3))]), ..cfg };
    let store = ShareGrpMiner.mine(&rel, &cfg).unwrap().store;
    let first = &store.get(0).unwrap().arp;
    assert_eq!((first.f().len(), first.v().len(), first.agg_attr), (1, 1, Some(3)));
    (rel, cfg, store)
}

/// Same-length rewrites of the first pattern of a `PATS` payload, each
/// breaking one ARP invariant. With |F| = |V| = 1 the pattern starts
/// `u32 1 · u32 f · u32 1 · u32 v · u8 agg · u8 1 · u32 attr`.
fn hostile_patterns(payload: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let u32_at = |i: usize| u32::from_le_bytes(payload[i..i + 4].try_into().unwrap());
    assert_eq!((u32_at(4), u32_at(12), payload[21]), (1, 1, 1), "first pattern shape");
    let (f, v) = (u32_at(8), u32_at(16));
    let with = |at: usize, words: &[u32]| {
        let mut p = payload.to_vec();
        for (i, w) in words.iter().enumerate() {
            p[at + 4 * i..at + 4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        p
    };
    vec![
        ("F empty", with(4, &[0, 2, f, v])),
        ("V empty", with(4, &[2, f, v, 0])),
        ("F and V overlap", with(16, &[f])),
        ("A inside F", with(22, &[f])),
    ]
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cape-hostile-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn hostile_patterns_in_valid_snapshots_are_typed_errors() {
    let (rel, cfg, store) = sum_store();
    let dir = temp_dir("snap");
    let corrupt = SnapshotError::SectionCorrupt { section: "patterns" };
    let v1 = snapshot::encode_snapshot(rel.schema(), &cfg, &store);
    let v2 = snapshot::v2::encode_snapshot_v2(rel.schema(), &cfg, &store, &rel);
    for (version, valid) in [(1, v1), (2, v2)] {
        let payload = valid[snapshot::layout(&valid).unwrap().payload(2)].to_vec();
        for (case, hostile) in hostile_patterns(&payload) {
            let label = format!("v{version} {case}");
            let bytes = inject::rewrite_section(&valid, "patterns", |p| *p = hostile);
            assert_eq!(snapshot::layout(&bytes).unwrap().version, version, "{label}: CRCs valid");
            assert_eq!(snapshot::read_snapshot(&bytes, &rel).unwrap_err(), corrupt, "{label}");
            let path = dir.join(format!("v{version}.cape"));
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(snapshot::load_snapshot(&path, &rel).unwrap_err(), corrupt, "{label}");
            match IncrStore::open(&path, &rel) {
                Err(IncrError::Snapshot(e)) => assert_eq!(e, corrupt, "{label}"),
                other => panic!("{label}: IncrStore::open gave {:?}", other.err()),
            }
            if version == 2 {
                assert_eq!(snapshot::read_snapshot_v2(&bytes).unwrap_err(), corrupt, "{label}");
                assert_eq!(snapshot::load_snapshot_v2(&path).unwrap_err(), corrupt, "{label}");
            }
        }
    }
    // The untouched files still load (the rewrite itself is sound).
    let same = inject::rewrite_section(
        &snapshot::encode_snapshot(rel.schema(), &cfg, &store),
        "patterns",
        |_| {},
    );
    assert_same_store("rewritten", &snapshot::read_snapshot(&same, &rel).unwrap().store, &store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_patterns_in_a_text_store_are_parse_errors() {
    let (rel, _, store) = sum_store();
    let mut text = Vec::new();
    write_store(&mut text, &store).unwrap();
    let text = String::from_utf8(text).unwrap();
    assert!(read_store(text.as_bytes(), &rel).is_ok());
    let first = store.get(0).unwrap();
    let (f, v) = (first.arp.f()[0], first.arp.v()[0]);
    let head = format!("pattern f={f} v={v} agg=sum attr=3 ");
    assert!(text.lines().nth(1).unwrap().starts_with(&head), "first pattern line");
    // An empty attribute list does not parse; the other two invariants
    // are reported by the shared rebuild, at the pattern's line.
    for (hostile, why) in [
        (format!("pattern f= v={f},{v} agg=sum attr=3 "), "bad attr id"),
        (format!("pattern f={f},{v} v= agg=sum attr=3 "), "bad attr id"),
        (format!("pattern f={f} v={f} agg=sum attr=3 "), "disjoint"),
        (format!("pattern f={f} v={v} agg=sum attr={v} "), "A must not be in F ∪ V"),
    ] {
        match read_store(text.replacen(&head, &hostile, 1).as_bytes(), &rel) {
            Err(PersistError::Parse { line: 2, message }) => assert!(message.contains(why)),
            other => panic!("{hostile}: expected a parse error at line 2, got {:?}", other.err()),
        }
    }
}
