//! Aggregate regression patterns (ARPs) — Definition 2 of the paper.

use cape_data::{AggFunc, AttrId, Schema};
use cape_regress::ModelType;
use std::collections::BTreeSet;

/// An aggregate regression pattern `P = (F, V, agg, A, M)`, written
/// `[F] : V ~M~> agg(A)`.
///
/// `F` (partition attributes) and `V` (predictor attributes) are stored
/// sorted by attribute id so that two ARPs with the same attribute *sets*
/// compare equal regardless of construction order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Arp {
    f: Vec<AttrId>,
    v: Vec<AttrId>,
    /// Aggregate function (count, sum, min, max).
    pub agg: AggFunc,
    /// Aggregated attribute; `None` encodes `*` for `count`.
    pub agg_attr: Option<AttrId>,
    /// Regression model type `M`.
    pub model: ModelType,
}

impl Arp {
    /// Construct an ARP; `f` and `v` are deduplicated and sorted.
    ///
    /// # Panics
    /// Panics if `f` or `v` is empty or they overlap, or if `agg_attr`
    /// appears in `F ∪ V` — these are structural invariants of
    /// Definition 2, and violating them is a programming error.
    pub fn new(
        f: impl IntoIterator<Item = AttrId>,
        v: impl IntoIterator<Item = AttrId>,
        agg: AggFunc,
        agg_attr: Option<AttrId>,
        model: ModelType,
    ) -> Self {
        Self::try_new(f, v, agg, agg_attr, model).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Arp::new`] for untrusted input, such as a store file: a broken
    /// Definition 2 invariant is returned as its description instead of
    /// panicking.
    pub(crate) fn try_new(
        f: impl IntoIterator<Item = AttrId>,
        v: impl IntoIterator<Item = AttrId>,
        agg: AggFunc,
        agg_attr: Option<AttrId>,
        model: ModelType,
    ) -> Result<Self, &'static str> {
        let f: BTreeSet<AttrId> = f.into_iter().collect();
        let v: BTreeSet<AttrId> = v.into_iter().collect();
        if f.is_empty() {
            return Err("ARP requires non-empty F");
        }
        if v.is_empty() {
            return Err("ARP requires non-empty V");
        }
        if !f.is_disjoint(&v) {
            return Err("F and V must be disjoint");
        }
        if agg_attr.is_some_and(|a| f.contains(&a) || v.contains(&a)) {
            return Err("A must not be in F ∪ V");
        }
        Ok(Arp { f: f.into_iter().collect(), v: v.into_iter().collect(), agg, agg_attr, model })
    }

    /// Partition attributes `F`, sorted.
    pub fn f(&self) -> &[AttrId] {
        &self.f
    }

    /// Predictor attributes `V`, sorted.
    pub fn v(&self) -> &[AttrId] {
        &self.v
    }

    /// `G_P = F ∪ V`, sorted.
    pub fn g_attrs(&self) -> Vec<AttrId> {
        let mut g: Vec<AttrId> = self.f.iter().chain(&self.v).copied().collect();
        g.sort_unstable();
        g
    }

    /// `|F ∪ V|` — the pattern size bounded by ψ during mining.
    pub fn size(&self) -> usize {
        self.f.len() + self.v.len()
    }

    /// Whether `other` is a **refinement** of `self` w.r.t. Definition 6:
    /// `F' ⊇ F`, same `V`, same aggregate. (`M'` may differ; a strict
    /// superset is not required — the paper allows `F' = F` with a
    /// different model, and the drill-down handles the `F' = F` case.)
    pub fn is_refined_by(&self, other: &Arp) -> bool {
        self.v == other.v
            && self.agg == other.agg
            && self.agg_attr == other.agg_attr
            && self.f.iter().all(|a| other.f.contains(a))
    }

    /// The same pattern shape with a different model type.
    pub fn with_model(&self, model: ModelType) -> Arp {
        Arp { model, ..self.clone() }
    }

    /// Paper notation rendered against a schema, e.g.
    /// `[author]: year ~Const~> count(*)`.
    pub fn display(&self, schema: &Schema) -> String {
        let name = |id: &AttrId| {
            schema.attr(*id).map(|a| a.name().to_string()).unwrap_or_else(|_| format!("#{id}"))
        };
        let f: Vec<String> = self.f.iter().map(name).collect();
        let v: Vec<String> = self.v.iter().map(name).collect();
        let a = match self.agg_attr {
            Some(id) => name(&id),
            None => "*".to_string(),
        };
        format!("[{}]: {} ~{}~> {}({})", f.join(","), v.join(","), self.model, self.agg, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_data::{Schema, ValueType};

    fn schema() -> Schema {
        Schema::new([
            ("author", ValueType::Str),
            ("pubid", ValueType::Str),
            ("year", ValueType::Int),
            ("venue", ValueType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn normalizes_attribute_order() {
        let a = Arp::new([3, 0], [2], AggFunc::Count, None, ModelType::Const);
        let b = Arp::new([0, 3], [2], AggFunc::Count, None, ModelType::Const);
        assert_eq!(a, b);
        assert_eq!(a.f(), &[0, 3]);
        assert_eq!(a.g_attrs(), vec![0, 2, 3]);
        assert_eq!(a.size(), 3);
    }

    #[test]
    #[should_panic(expected = "non-empty F")]
    fn empty_f_rejected() {
        Arp::new([], [2], AggFunc::Count, None, ModelType::Const);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_f_v_rejected() {
        Arp::new([0, 2], [2], AggFunc::Count, None, ModelType::Const);
    }

    #[test]
    #[should_panic(expected = "A must not be")]
    fn agg_attr_inside_g_rejected() {
        Arp::new([0], [2], AggFunc::Sum, Some(2), ModelType::Lin);
    }

    #[test]
    fn refinement_relation() {
        let p1 = Arp::new([0], [2], AggFunc::Count, None, ModelType::Const);
        let p2 = Arp::new([0, 3], [2], AggFunc::Count, None, ModelType::Const);
        assert!(p1.is_refined_by(&p2));
        assert!(!p2.is_refined_by(&p1));
        // Same F with different model is still a refinement candidate.
        assert!(p1.is_refined_by(&p1.with_model(ModelType::Lin)));
        // Different V breaks refinement.
        let p3 = Arp::new([0, 2], [3], AggFunc::Count, None, ModelType::Const);
        assert!(!p1.is_refined_by(&p3));
        // Different aggregate breaks refinement.
        let p4 = Arp::new([0, 3], [2], AggFunc::Max, Some(1), ModelType::Const);
        assert!(!p1.is_refined_by(&p4));
    }

    #[test]
    fn paper_notation() {
        let p = Arp::new([0], [2], AggFunc::Count, None, ModelType::Const);
        assert_eq!(p.display(&schema()), "[author]: year ~Const~> count(*)");
        let p2 = Arp::new([0, 3], [2], AggFunc::Sum, Some(1), ModelType::Lin);
        assert_eq!(p2.display(&schema()), "[author,venue]: year ~Lin~> sum(pubid)");
    }
}
