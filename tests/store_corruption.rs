//! The snapshot corruption test matrix.
//!
//! A valid snapshot of a small mined store is replayed through every
//! mutation the fault injector can generate — every truncation length,
//! every byte inverted once, seeded single-bit flips, torn writes, and
//! section swaps — and each mutated byte string must yield a clean typed
//! [`SnapshotError`]: never a panic, hang, or silently different store.
//! Every test runs over both format versions: the v1 encoding through
//! `read_snapshot`, and the v2 encoding (with its embedded relation)
//! through both `read_snapshot` and `read_snapshot_v2`.
//!
//! The matrix is exhaustive for the small store (truncations and byte
//! flips cover *every* offset), and [`matrix_is_not_vacuous`] pins a
//! case-count floor per version so CI fails if the suite ever
//! degenerates (fixture shrinks, a generator is disabled, the test is
//! filtered out). CI additionally greps this file's test count — see
//! `.github/workflows`.

use cape::core::mining::{Miner, ShareGrpMiner};
use cape::core::snapshot::{self, inject, SnapshotError};
use cape::core::{MiningConfig, PatternStore, Thresholds};
use cape::data::{Relation, Schema, Value, ValueType};

/// Pinned floor for the total matrix size of the v1 input. The snapshot
/// of the fixture store is ~4 KiB, so exhaustive truncation + exhaustive
/// byte flips alone contribute 2× its length; a drop below this floor
/// means the fixture collapsed or a mutation class went missing.
const CASE_FLOOR: usize = 1_500;
/// The floor for the v2 input (~11.7k cases: its relation section makes
/// the file ~1.3 KiB longer). It sits above the v1 input's ~9.1k cases,
/// so a v2 encoding that lost its relation section fails it.
const CASE_FLOOR_V2: usize = 10_000;
const BIT_FLIP_SAMPLES: usize = 512;
const TORN_EXTRA_CUTS: usize = 64;
const SEED: u64 = 0xCAFE_F00D;

fn mined() -> (Relation, MiningConfig, PatternStore) {
    let schema = Schema::new([
        ("author", ValueType::Str),
        ("year", ValueType::Int),
        ("venue", ValueType::Str),
    ])
    .unwrap();
    let mut rel = Relation::new(schema);
    for a in 0..4 {
        for y in 0..6 {
            for p in 0..3 {
                rel.push_row(vec![
                    Value::str(format!("a{a}")),
                    Value::Int(2000 + y),
                    Value::str(if p % 2 == 0 { "KDD" } else { "ICDE" }),
                ])
                .unwrap();
            }
        }
    }
    let cfg = MiningConfig {
        thresholds: Thresholds::new(0.2, 3, 0.4, 2),
        psi: 3,
        ..MiningConfig::default()
    };
    let store = ShareGrpMiner.mine(&rel, &cfg).unwrap().store;
    assert!(!store.is_empty(), "fixture mined no patterns — matrix would be vacuous");
    (rel, cfg, store)
}

/// One encoding of a store under test.
struct Input {
    label: &'static str,
    rel: Relation,
    bytes: Vec<u8>,
    /// Also read through `read_snapshot_v2` (the embedded-relation path).
    v2: bool,
}

/// The v1 and v2 encodings of `store`.
fn encodings(rel: Relation, cfg: &MiningConfig, store: &PatternStore) -> [Input; 2] {
    let v1 = snapshot::encode_snapshot(rel.schema(), cfg, store);
    let v2 = snapshot::v2::encode_snapshot_v2(rel.schema(), cfg, store, &rel);
    [
        Input { label: "v1", rel: rel.clone(), bytes: v1, v2: false },
        Input { label: "v2", rel, bytes: v2, v2: true },
    ]
}

fn valid_snapshots() -> [Input; 2] {
    let (rel, cfg, store) = mined();
    encodings(rel, &cfg, &store)
}

/// Read `bytes` through every reader `input` is meant for.
fn read_all(input: &Input, bytes: &[u8]) -> Vec<Result<(), SnapshotError>> {
    let mut out = vec![snapshot::read_snapshot(bytes, &input.rel).map(|_| ())];
    if input.v2 {
        out.push(snapshot::read_snapshot_v2(bytes).map(|_| ()));
    }
    out
}

/// Run one mutation class; every case must be rejected with a typed
/// error by every reader. Returns the number of cases exercised.
fn assert_all_rejected(
    label: &str,
    input: &Input,
    faults: &[inject::Fault],
    check: impl Fn(&inject::Fault, &SnapshotError),
) -> usize {
    for fault in faults {
        for out in read_all(input, &fault.apply(&input.bytes)) {
            match out {
                Err(e) => check(fault, &e),
                Ok(()) => panic!("{}/{label}: {fault:?} produced a loadable snapshot", input.label),
            }
        }
    }
    faults.len()
}

#[test]
fn truncation_at_every_length_is_truncated_error() {
    for input in valid_snapshots() {
        let faults = inject::exhaustive_truncations(input.bytes.len());
        let n = assert_all_rejected("truncate", &input, &faults, |fault, e| {
            assert_eq!(
                *e,
                SnapshotError::Truncated,
                "{fault:?}: every prefix of a valid snapshot is a truncation"
            );
        });
        assert_eq!(n, input.bytes.len());
        // Boundary truncations are a subset; run them against the parsed
        // layout to prove the layout parser and the reader agree.
        let layout = snapshot::layout(&input.bytes).unwrap();
        assert_all_rejected(
            "truncate-at-boundary",
            &input,
            &inject::boundary_truncations(&layout),
            |_, e| assert_eq!(*e, SnapshotError::Truncated),
        );
    }
}

#[test]
fn every_byte_flip_is_rejected_with_the_right_class() {
    for input in valid_snapshots() {
        let faults = inject::exhaustive_byte_flips(input.bytes.len());
        let n = assert_all_rejected("byte-flip", &input, &faults, |fault, e| {
            let offset = match fault {
                inject::Fault::FlipByte(o) => *o,
                _ => unreachable!(),
            };
            match offset {
                // File magic.
                0..=7 => assert_eq!(*e, SnapshotError::BadMagic, "offset {offset}"),
                // Version field.
                8..=11 => assert!(
                    matches!(e, SnapshotError::VersionUnsupported { .. }),
                    "offset {offset}: {e:?}"
                ),
                // Section count.
                12..=15 => assert!(
                    matches!(
                        e,
                        SnapshotError::SectionCorrupt { section: "header" }
                            | SnapshotError::Truncated
                    ),
                    "offset {offset}: {e:?}"
                ),
                // Anything else: a typed error, never a panic. (A flipped
                // section length can surface as Truncated; flipped payload
                // bytes or CRCs surface as SectionCorrupt; bytes inside the
                // footer surface as Truncated or footer corruption.)
                _ => assert!(
                    matches!(e, SnapshotError::SectionCorrupt { .. } | SnapshotError::Truncated),
                    "offset {offset}: {e:?}"
                ),
            }
        });
        assert_eq!(n, input.bytes.len());
    }
}

#[test]
fn seeded_bit_flips_are_rejected() {
    for input in valid_snapshots() {
        let len = input.bytes.len();
        let faults = inject::seeded_bit_flips(len, BIT_FLIP_SAMPLES, SEED);
        let n = assert_all_rejected("bit-flip", &input, &faults, |_, _| {});
        assert_eq!(n, BIT_FLIP_SAMPLES);
        // Determinism: the same seed reproduces the same faults.
        assert_eq!(faults, inject::seeded_bit_flips(len, BIT_FLIP_SAMPLES, SEED));
    }
}

#[test]
fn torn_writes_are_rejected() {
    for input in valid_snapshots() {
        let layout = snapshot::layout(&input.bytes).unwrap();
        let faults = inject::torn_writes(&layout, TORN_EXTRA_CUTS, SEED);
        assert_all_rejected("torn-write", &input, &faults, |fault, e| {
            // A zero-filled tail is either caught by the leading magic
            // (nothing flushed), a CRC, or the missing commit marker.
            assert!(
                matches!(
                    e,
                    SnapshotError::Truncated
                        | SnapshotError::BadMagic
                        | SnapshotError::SectionCorrupt { .. }
                        | SnapshotError::VersionUnsupported { .. }
                ),
                "{fault:?}: {e:?}"
            );
        });
    }
}

#[test]
fn section_swaps_are_rejected() {
    for input in valid_snapshots() {
        let layout = snapshot::layout(&input.bytes).unwrap();
        let faults = inject::section_swaps(&layout);
        // Three sections give three unordered pairs; v2's four give six.
        let n = layout.sections.len();
        assert_eq!((n, faults.len()), if input.v2 { (4, 6) } else { (3, 3) });
        assert_all_rejected("section-swap", &input, &faults, |fault, e| {
            assert!(
                matches!(e, SnapshotError::SectionCorrupt { .. }),
                "{fault:?}: swapped sections must fail the tag-order check, got {e:?}"
            );
        });
    }
}

/// The whole matrix, counted per version, with the
/// `store.corrupt_rejects` counter audited against the number of
/// rejections, and the valid snapshot proven to still load through every
/// reader (the matrix must not reject everything because the fixture
/// itself is broken).
#[test]
fn matrix_is_not_vacuous() {
    let (rel, cfg, store) = mined();
    for input in encodings(rel, &cfg, &store) {
        let bytes = &input.bytes;
        let layout = snapshot::layout(bytes).unwrap();
        let mut faults = Vec::new();
        faults.extend(inject::exhaustive_truncations(bytes.len()));
        faults.extend(inject::exhaustive_byte_flips(bytes.len()));
        faults.extend(inject::seeded_bit_flips(bytes.len(), BIT_FLIP_SAMPLES, SEED));
        faults.extend(inject::torn_writes(&layout, TORN_EXTRA_CUTS, SEED));
        faults.extend(inject::section_swaps(&layout));
        let floor = if input.v2 { CASE_FLOOR_V2 } else { CASE_FLOOR };
        assert!(
            faults.len() >= floor,
            "{} corruption matrix shrank to {} cases (floor {floor})",
            input.label,
            faults.len()
        );

        let recorder = cape_obs::Recorder::new();
        let install = recorder.install();
        let mut reads = 0u64;
        let mut rejects = 0u64;
        for fault in &faults {
            for out in read_all(&input, &fault.apply(bytes)) {
                reads += 1;
                rejects += out.is_err() as u64;
            }
        }
        // The untouched snapshot still loads, and the loaded store
        // answers like the original (guards against "rejects everything"
        // fixtures and against silent wrong answers on the happy path).
        let loaded = snapshot::read_snapshot(bytes, &input.rel).expect("valid snapshot loads");
        let mut stores = vec![loaded.store];
        if input.v2 {
            let v2 = snapshot::read_snapshot_v2(bytes).expect("valid v2 snapshot loads");
            assert_eq!(v2.relation, input.rel);
            stores.push(v2.store);
        }
        for loaded in stores {
            assert_eq!(loaded.len(), store.len());
            for ((_, a), (_, b)) in store.iter().zip(loaded.iter()) {
                assert_eq!(a.arp, b.arp);
                assert_eq!(a.locals, b.locals);
            }
        }
        drop(install);

        assert_eq!(rejects, reads, "{}: every mutation must be rejected", input.label);
        assert_eq!(
            recorder.snapshot().counter("store.corrupt_rejects"),
            rejects,
            "{}: store.corrupt_rejects must count every rejection",
            input.label
        );
    }
}

/// The empty store is the smallest legal snapshot; its matrix is fully
/// exhaustive in both truncation and byte-flip dimensions too.
#[test]
fn empty_store_matrix() {
    let rel = Relation::new(Schema::new([("a", ValueType::Str)]).unwrap());
    for input in encodings(rel, &MiningConfig::default(), &PatternStore::new()) {
        assert!(read_all(&input, &input.bytes).iter().all(Result::is_ok));
        let mut faults = inject::exhaustive_truncations(input.bytes.len());
        faults.extend(inject::exhaustive_byte_flips(input.bytes.len()));
        assert_all_rejected("empty-store", &input, &faults, |_, _| {});
    }
}
