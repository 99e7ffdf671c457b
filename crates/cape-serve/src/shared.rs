//! The shared, immutable state every worker answers questions against.

use cape_core::store::PatternStore;
use cape_data::Relation;
use std::sync::Arc;

/// A cheaply clonable handle to the relation, its mined pattern store,
/// and a precomputed refinement index.
///
/// `PatternStore` and `Relation` contain no interior mutability, so a
/// handle can be cloned into any number of worker threads; all of them
/// read the same instances without locking. The refinement index
/// materializes [`PatternStore::refinements_of`] for every pattern once
/// (that lookup is an O(n) scan per call and is on the hot path of every
/// request).
#[derive(Debug, Clone)]
pub struct PatternStoreHandle {
    relation: Arc<Relation>,
    store: Arc<PatternStore>,
    refinements: Arc<Vec<Vec<usize>>>,
}

impl PatternStoreHandle {
    /// Wrap a relation and its mined store, precomputing the refinement
    /// index.
    pub fn new(relation: Relation, store: PatternStore) -> Self {
        let refinements = Arc::new(store.refinement_index());
        PatternStoreHandle { relation: Arc::new(relation), store: Arc::new(store), refinements }
    }

    /// Same, from already-shared values.
    pub fn from_arcs(relation: Arc<Relation>, store: Arc<PatternStore>) -> Self {
        let refinements = Arc::new(store.refinement_index());
        PatternStoreHandle { relation, store, refinements }
    }

    /// Construct a serving handle from a durable snapshot written by
    /// `cape mine --save` (or [`cape_core::snapshot::save_snapshot`]):
    /// load the file, validate its schema fingerprint against the live
    /// relation, rebuild group data, and precompute the refinement
    /// index. This is the cold-start path a service restart takes
    /// instead of re-mining; a corrupt or incompatible file is a typed
    /// [`SnapshotError`](cape_core::snapshot::SnapshotError), never a
    /// panic.
    pub fn from_snapshot(
        path: impl AsRef<std::path::Path>,
        relation: Relation,
    ) -> Result<Self, cape_core::snapshot::SnapshotError> {
        let loaded = cape_core::snapshot::load_snapshot(path, &relation)?;
        Ok(PatternStoreHandle::new(relation, loaded.store))
    }

    /// Cold-start entirely from a **v2** snapshot: the relation is
    /// reconstructed from the file's own mmapped column slabs, so no CSV
    /// parse or per-cell decode happens at all — start-up cost is page
    /// faults plus the pattern/group rebuild. The fastest restart path
    /// for large datasets (see DESIGN.md §17).
    pub fn from_snapshot_v2(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, cape_core::snapshot::SnapshotError> {
        let loaded = cape_core::snapshot::load_snapshot_v2(path)?;
        Ok(PatternStoreHandle::new(loaded.relation, loaded.store))
    }

    /// The underlying relation.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The relation's shared ownership handle. Network front-ends clone
    /// this so a hot-swapped store can keep serving in-flight requests
    /// against the same relation without copying it.
    pub fn relation_arc(&self) -> Arc<Relation> {
        Arc::clone(&self.relation)
    }

    /// The store's shared ownership handle (see [`relation_arc`]).
    ///
    /// [`relation_arc`]: PatternStoreHandle::relation_arc
    pub fn store_arc(&self) -> Arc<PatternStore> {
        Arc::clone(&self.store)
    }

    /// The mined pattern store.
    pub fn store(&self) -> &PatternStore {
        &self.store
    }

    /// Precomputed `refinements_of(idx)`.
    pub fn refinements_of(&self, idx: usize) -> &[usize] {
        self.refinements.get(idx).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_data::{Schema, ValueType};

    #[test]
    fn refinement_index_matches_store_lookup() {
        let schema = Schema::new([("a", ValueType::Str), ("b", ValueType::Int)]).unwrap();
        let relation = Relation::new(schema);
        let store = PatternStore::new();
        let handle = PatternStoreHandle::new(relation, store);
        assert!(handle.refinements_of(0).is_empty());
        assert!(handle.refinements_of(99).is_empty());
    }

    #[test]
    fn handle_clones_share_state() {
        let schema = Schema::new([("a", ValueType::Str)]).unwrap();
        let handle = PatternStoreHandle::new(Relation::new(schema), PatternStore::new());
        let clone = handle.clone();
        assert!(std::ptr::eq(handle.store(), clone.store()));
        assert!(std::ptr::eq(handle.relation(), clone.relation()));
    }
}
