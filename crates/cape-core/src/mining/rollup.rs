//! Lattice roll-up planning: order the ψ-bounded group-set lattice so
//! each child `G` aggregates from its smallest already-materialized
//! parent `G' ⊃ G` instead of rescanning the base relation.
//!
//! Processing the lattice in decreasing set size materializes supersets
//! first; every smaller set then rolls up from a cached parent when its
//! aggregates compose (see [`cape_data::ops::rollup_supported`]). The
//! derived `GroupData` is row-identical to a base scan — the parent's
//! groups are in base first-appearance order, so re-grouping them in
//! parent order reproduces the base first-appearance order — which keeps
//! every miner's output equal to a base scan's (modulo float summation
//! order, covered by the golden suite's tolerance).
//!
//! Whether a child rolls up or rescans is decided from the input sizes
//! alone: a parent qualifies only at ≤ 2/3 of the base row count, and
//! cached parents are evicted least-recently-used once their total
//! group-row count exceeds `MiningConfig::rollup_budget_rows`.

use crate::config::MiningConfig;
use crate::error::Result;
use crate::group_data::GroupData;
use cape_data::ops::{rollup_aggregate, rollup_supported};
use cape_data::{AggFunc, AggSpec, AttrId, Relation};
use std::sync::{Arc, Mutex};

/// Visit order over `group_sets` output: decreasing set size (stable
/// within a size), so parents precede children.
pub fn plan_order(gs: &[Vec<AttrId>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..gs.len()).collect();
    order.sort_by(|&a, &b| gs[b].len().cmp(&gs[a].len()).then(a.cmp(&b)));
    order
}

struct CacheEntry {
    dims: Vec<AttrId>,
    specs: Vec<AggSpec>,
    gd: Arc<GroupData>,
    last_used: u64,
}

/// The shared roll-up state of one mining run: every materialized
/// `GroupData` keyed by its dimension set, with LRU eviction past
/// `budget_rows` total cached group rows.
pub struct LatticeRollup {
    base_rows: usize,
    budget_rows: usize,
    tick: u64,
    entries: Vec<CacheEntry>,
}

enum Found {
    /// The requested dims are cached verbatim.
    Exact(Arc<GroupData>),
    /// A strict superset parent whose aggregates compose.
    Parent {
        gd: Arc<GroupData>,
        dims: Vec<AttrId>,
        specs: Vec<AggSpec>,
    },
    None,
}

impl LatticeRollup {
    /// Fresh state for a run over a base relation of `base_rows` rows.
    pub fn new(base_rows: usize, cfg: &MiningConfig) -> Self {
        LatticeRollup {
            base_rows,
            budget_rows: cfg.rollup_budget_rows,
            tick: 0,
            entries: Vec::new(),
        }
    }

    fn find(&mut self, dims: &[AttrId], child_specs: &[AggSpec]) -> Found {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.iter_mut().find(|e| e.dims == dims) {
            e.last_used = tick;
            return Found::Exact(Arc::clone(&e.gd));
        }
        // Smallest composing strict superset = cheapest roll-up input. A
        // parent nearly as large as the base relation is no cheaper than a
        // fresh scan (roll-up pays hash-regrouping per parent row, roughly
        // 1.5x a base-scan row), so only parents with at most 2/3 of the
        // base row count qualify.
        let base_rows = self.base_rows;
        let mut best: Option<&mut CacheEntry> = None;
        for e in self.entries.iter_mut() {
            if e.dims.len() > dims.len()
                && e.gd.relation.num_rows() * 3 <= base_rows * 2
                && dims.iter().all(|d| e.dims.contains(d))
                && rollup_supported(&e.dims, &e.specs, dims, child_specs)
            {
                let better = best
                    .as_ref()
                    .is_none_or(|b| e.gd.relation.num_rows() < b.gd.relation.num_rows());
                if better {
                    best = Some(e);
                }
            }
        }
        match best {
            Some(e) => {
                e.last_used = tick;
                Found::Parent {
                    gd: Arc::clone(&e.gd),
                    dims: e.dims.clone(),
                    specs: e.specs.clone(),
                }
            }
            None => Found::None,
        }
    }

    /// Cache a materialized group set (the CUBE miner seeds the maximal
    /// slices its single cube query produced).
    pub fn insert(&mut self, gd: Arc<GroupData>, specs: Vec<AggSpec>) {
        self.tick += 1;
        self.entries.push(CacheEntry {
            dims: gd.group_attrs.clone(),
            specs,
            gd,
            last_used: self.tick,
        });
        // LRU eviction once the cached group rows exceed the budget; the
        // newest entry always survives.
        let total =
            |es: &[CacheEntry]| -> usize { es.iter().map(|e| e.gd.relation.num_rows()).sum() };
        while self.entries.len() > 1 && total(&self.entries) > self.budget_rows {
            let (victim, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .expect("non-empty");
            self.entries.remove(victim);
        }
    }

    #[cfg(test)]
    fn cached_dims(&self) -> Vec<Vec<AttrId>> {
        self.entries.iter().map(|e| e.dims.clone()).collect()
    }
}

/// Materialize `γ_{g, aggs}` for one group set: from the roll-up cache
/// when possible (exact hit or parent derivation), else by a base scan.
/// Shared by the SHARE-GRP, CUBE and parallel miners; the `Mutex` makes
/// the same code serve the work-queue workers.
pub fn materialize_group(
    rel: &Relation,
    g: &[AttrId],
    aggs: &[(AggFunc, Option<AttrId>)],
    lattice: &Mutex<LatticeRollup>,
) -> Result<Arc<GroupData>> {
    let specs: Vec<AggSpec> = aggs.iter().map(|&(func, attr)| AggSpec { func, attr }).collect();
    let (found, base_rows) = {
        let mut lat = lattice.lock().expect("rollup lattice poisoned");
        (lat.find(g, &specs), lat.base_rows)
    };
    match found {
        Found::Exact(gd) => {
            cape_obs::counter_add("mining.rollup_hits", 1);
            cape_obs::counter_add("mining.scan_rows_saved", base_rows as u64);
            Ok(gd)
        }
        Found::Parent { gd: parent, dims, specs: parent_specs } => {
            // Derive outside the lock: rolls-ups of disjoint children can
            // proceed concurrently.
            let rolled =
                rollup_aggregate(rel.schema(), &parent.relation, &dims, &parent_specs, g, &specs)?;
            cape_obs::counter_add("mining.rollup_hits", 1);
            cape_obs::counter_add(
                "mining.scan_rows_saved",
                base_rows.saturating_sub(parent.relation.num_rows()) as u64,
            );
            let gd = Arc::new(GroupData::from_parts(g.to_vec(), rolled.relation, aggs));
            lattice.lock().expect("rollup lattice poisoned").insert(Arc::clone(&gd), specs);
            Ok(gd)
        }
        Found::None => {
            let gd = Arc::new(GroupData::compute(rel, g, aggs)?);
            cape_obs::counter_add("mining.group_queries", 1);
            cape_obs::counter_add("mining.rollup_misses", 1);
            lattice.lock().expect("rollup lattice poisoned").insert(Arc::clone(&gd), specs);
            Ok(gd)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mining::candidates::group_sets;

    fn rel() -> Relation {
        crate::mining::share_grp::tests::pubs(4, 6, 3)
    }

    #[test]
    fn plan_order_is_parents_first() {
        let gs = group_sets(&[0, 1, 2], 3);
        // Decreasing size, stable within a size.
        let order = plan_order(&gs);
        let sizes: Vec<usize> = order.iter().map(|&i| gs[i].len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(sizes, sorted);
        assert_eq!(order.len(), gs.len());
    }

    #[test]
    fn children_roll_up_from_parents() {
        let rel = rel();
        let cfg = MiningConfig::default();
        let lattice = Mutex::new(LatticeRollup::new(rel.num_rows(), &cfg));
        let aggs = [(AggFunc::Count, None)];
        let rec = cape_obs::Recorder::new();
        let guard = rec.install();
        // Materialize the apex first (decreasing-size order).
        let apex = materialize_group(&rel, &[0, 1, 2], &aggs, &lattice).unwrap();
        let child = materialize_group(&rel, &[0, 1], &aggs, &lattice).unwrap();
        drop(guard);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("mining.group_queries"), 1, "child must not rescan the base");
        assert_eq!(snap.counter("mining.rollup_hits"), 1);
        assert!(snap.counter("mining.scan_rows_saved") > 0);
        // The derived child equals a direct scan.
        let direct = GroupData::compute(&rel, &[0, 1], &aggs).unwrap();
        assert_eq!(child.relation, direct.relation);
        assert!(apex.relation.num_rows() >= child.relation.num_rows());
    }

    #[test]
    fn oversized_parent_rescans() {
        // One row per (author, year, venue): the apex has as many groups as
        // the base has rows, so the cost guard (≤ 2/3 of base rows) turns
        // it down and the child rescans the base.
        let rel = crate::mining::share_grp::tests::pubs(4, 6, 1);
        let cfg = MiningConfig::default();
        let lattice = Mutex::new(LatticeRollup::new(rel.num_rows(), &cfg));
        let aggs = [(AggFunc::Count, None)];
        let rec = cape_obs::Recorder::new();
        let guard = rec.install();
        materialize_group(&rel, &[0, 1, 2], &aggs, &lattice).unwrap();
        let child = materialize_group(&rel, &[0, 1], &aggs, &lattice).unwrap();
        drop(guard);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("mining.group_queries"), 2);
        assert_eq!(snap.counter("mining.rollup_hits"), 0);
        let direct = GroupData::compute(&rel, &[0, 1], &aggs).unwrap();
        assert_eq!(child.relation, direct.relation);
    }

    #[test]
    fn budget_evicts_lru() {
        let rel = rel();
        let cfg = MiningConfig { rollup_budget_rows: 30, ..MiningConfig::default() };
        let mut lat = LatticeRollup::new(rel.num_rows(), &cfg);
        let aggs = [(AggFunc::Count, None)];
        // pubs(4, 6, _): |{0,1,2}| = 48 groups, |{0,1}| = 24, |{0}| = 4.
        let g012 = Arc::new(GroupData::compute(&rel, &[0, 1, 2], &aggs).unwrap());
        let g01 = Arc::new(GroupData::compute(&rel, &[0, 1], &aggs).unwrap());
        lat.insert(g012, vec![AggSpec::count_star()]);
        lat.insert(g01, vec![AggSpec::count_star()]);
        // 48 + 24 > 30: the older apex is evicted, the newest survives.
        assert_eq!(lat.cached_dims(), vec![vec![0, 1]]);
        // A child of the evicted apex now misses.
        assert!(matches!(lat.find(&[0, 2], &[AggSpec::count_star()]), Found::None));
        // But a child of the surviving pair still rolls up.
        assert!(matches!(lat.find(&[0], &[AggSpec::count_star()]), Found::Parent { .. }));
    }

    #[test]
    fn smallest_parent_is_chosen() {
        let rel = rel();
        let cfg = MiningConfig::default();
        let mut lat = LatticeRollup::new(rel.num_rows(), &cfg);
        let aggs = [(AggFunc::Count, None)];
        let g012 = Arc::new(GroupData::compute(&rel, &[0, 1, 2], &aggs).unwrap());
        let g01 = Arc::new(GroupData::compute(&rel, &[0, 1], &aggs).unwrap());
        lat.insert(g012, vec![AggSpec::count_star()]);
        lat.insert(g01, vec![AggSpec::count_star()]);
        match lat.find(&[0], &[AggSpec::count_star()]) {
            Found::Parent { dims, .. } => assert_eq!(dims, vec![0, 1], "prefer smaller parent"),
            _ => panic!("expected a parent"),
        }
    }
}
