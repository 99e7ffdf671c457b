//! Mining differential suite: every miner variant produces the same
//! pattern store.
//!
//! For each dataset (synthetic DBLP and Crime samples, and a repetitive
//! relation on which lattice roll-up fires), assert that `NaiveMiner`
//! (one query per candidate, the reference semantics), `ShareGrpMiner`
//! (one query per `F ∪ V`), `CubeMiner` (a single cube query),
//! `ArpMiner` and `ParallelMiner { threads: 1 | 4 }` mine the *same*
//! ARPs, and that every local pattern agrees on its fitted model
//! parameters, goodness of fit, support, sample count and deviation
//! bounds to 1e-9. The stores themselves are pinned against frozen
//! fixtures by `mining_golden.rs`.

mod common;

use cape::core::mining::{ArpMiner, Miner, NaiveMiner, ShareGrpMiner};
use common::{assert_matches, in_order_of, input, miners, repetitive};

fn run_grid(name: &str) {
    let (rel, cfg) = input(name);
    let reference = NaiveMiner.mine(&rel, &cfg).unwrap().store;
    assert!(!reference.is_empty(), "{name}: no patterns mined — the grid proves nothing");
    for (miner_name, miner, split_order) in miners() {
        let got = miner.mine(&rel, &cfg).unwrap().store;
        let got = if split_order { got } else { in_order_of(&reference, &got) };
        assert_matches(&format!("{name}/{miner_name}"), &reference, &got, true);
    }
}

#[test]
fn dblp_five_way_differential() {
    run_grid("dblp_1500");
}

#[test]
fn crime_five_way_differential() {
    run_grid("crime_1000");
}

#[test]
fn repetitive_five_way_differential() {
    run_grid("repetitive");
}

/// The kernels must actually fire on this workload — otherwise the
/// roll-up and sort-cache code would go untested by the grid.
#[test]
fn kernels_are_exercised() {
    let (rel, cfg) = repetitive();
    let out = ShareGrpMiner.mine(&rel, &cfg).unwrap();
    assert!(out.stats.rollup_hits > 0, "roll-up never fired");
    assert!(out.stats.sort_cache_hits > 0, "sort cache never hit");
    assert!(out.stats.scan_rows_saved > 0, "no scan rows saved");
    // ARP-MINE scans the base once per group set; roll-up replaces some
    // of those scans, so SHARE-GRP issues strictly fewer group queries.
    let scans = ArpMiner.mine(&rel, &cfg).unwrap();
    assert_eq!(scans.stats.rollup_hits, 0);
    assert!(out.stats.group_queries < scans.stats.group_queries);
}
