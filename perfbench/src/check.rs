//! Correctness checks: served answers against the in-process
//! `OptimizedExplainer`, and a maintained store against a fresh mine.

use crate::data::{value_json, Dataset, Question, TOP_K};
use cape_core::explain::{ExplainConfig, Explanation, OptimizedExplainer, TopKExplainer};
use cape_core::question::UserQuestion;
use cape_core::store::PatternStore;
use cape_data::{Relation, Schema};
use cape_obs::Json;
use std::collections::HashMap;

/// Scores and fitted statistics may differ by at most this much.
pub const TOL: f64 = 1e-9;

/// The reference answer: `OptimizedExplainer` over `store` and `rel`.
pub fn reference_answer(
    ds: &Dataset,
    rel: &Relation,
    store: &PatternStore,
    q: &Question,
) -> Result<Vec<Explanation>, String> {
    let uq = UserQuestion::from_sql(rel, &ds.sql, q.tuple.clone(), q.dir)
        .map_err(|e| format!("reference question: {e}"))?;
    let cfg = ExplainConfig::default_for(rel, TOP_K);
    Ok(OptimizedExplainer.explain(store, &uq, &cfg).0)
}

/// Compare one HTTP answer body with the reference: the same top-k
/// tuples and refinement patterns in the same order, scores within
/// [`TOL`].
pub fn compare_answer(
    body: &Json,
    reference: &[Explanation],
    schema: &Schema,
    store: &PatternStore,
) -> Result<(), String> {
    let got = body.get("explanations").and_then(Json::as_arr).ok_or("no `explanations`")?;
    if got.len() != reference.len() {
        return Err(format!("{} explanations, reference has {}", got.len(), reference.len()));
    }
    for (rank, (g, r)) in got.iter().zip(reference).enumerate() {
        let tuple = Json::Arr(r.tuple.iter().map(value_json).collect());
        if g.get("tuple") != Some(&tuple) {
            return Err(format!("rank {rank}: tuple {:?} vs {tuple}", g.get("tuple")));
        }
        let refinement =
            store.get(r.refinement_idx).map(|p| Json::Str(p.arp.display(schema))).ok_or(
                format!("rank {rank}: reference refinement {} not in store", r.refinement_idx),
            )?;
        if g.get("refinement") != Some(&refinement) {
            return Err(format!(
                "rank {rank}: refinement {:?} vs {refinement}",
                g.get("refinement")
            ));
        }
        let score = g.get("score").and_then(Json::as_f64).ok_or("missing score")?;
        if (score - r.score).abs() > TOL {
            return Err(format!("rank {rank}: score {score} vs {}", r.score));
        }
    }
    Ok(())
}

/// Pattern-by-pattern equality of two stores, matched by ARP: the same
/// patterns, supports and fragments, with confidences, fits and
/// deviation bounds within [`TOL`].
pub fn stores_equal(served: &PatternStore, fresh: &PatternStore) -> Result<(), String> {
    if served.len() != fresh.len() {
        return Err(format!("{} patterns served, fresh mine has {}", served.len(), fresh.len()));
    }
    let by_arp: HashMap<_, _> = fresh.iter().map(|(_, p)| (&p.arp, p)).collect();
    let close = |a: f64, b: f64| (a - b).abs() <= TOL;
    for (_, a) in served.iter() {
        let b = by_arp.get(&a.arp).ok_or_else(|| format!("{:?} not in fresh mine", a.arp))?;
        if a.num_supported != b.num_supported
            || !close(a.confidence, b.confidence)
            || !close(a.max_pos_dev, b.max_pos_dev)
            || !close(a.max_neg_dev, b.max_neg_dev)
            || a.locals.len() != b.locals.len()
        {
            let stats = |p: &cape_core::store::PatternInstance| {
                (p.num_supported, p.confidence, p.max_pos_dev, p.max_neg_dev, p.locals.len())
            };
            let extra: Vec<_> = a
                .locals
                .iter()
                .filter(|(k, _)| !b.locals.contains_key(*k))
                .map(|(k, l)| (k.clone(), l.support, l.fitted.n, l.fitted.gof))
                .chain(
                    b.locals
                        .iter()
                        .filter(|(k, _)| !a.locals.contains_key(*k))
                        .map(|(k, l)| (k.clone(), l.support, l.fitted.n, -l.fitted.gof)),
                )
                .take(3)
                .collect();
            return Err(format!(
                "{:?}: (supported, confidence, +dev, -dev, fragments) {:?} vs {:?}; \
                 fragments held on one side only (key, support, n, ±gof): {extra:?}",
                a.arp,
                stats(a),
                stats(b)
            ));
        }
        for (key, la) in &a.locals {
            let lb = b.locals.get(key).ok_or_else(|| format!("{:?}: fragment {key:?}", a.arp))?;
            if la.support != lb.support
                || la.fitted.n != lb.fitted.n
                || !close(la.fitted.gof, lb.fitted.gof)
                || !close(la.max_pos_dev, lb.max_pos_dev)
                || !close(la.max_neg_dev, lb.max_neg_dev)
            {
                return Err(format!(
                    "{:?}: fragment {key:?}: (support, n, gof, +dev, -dev) {:?} vs {:?}",
                    a.arp,
                    (la.support, la.fitted.n, la.fitted.gof, la.max_pos_dev, la.max_neg_dev),
                    (lb.support, lb.fitted.n, lb.fitted.gof, lb.max_pos_dev, lb.max_neg_dev)
                ));
            }
        }
    }
    Ok(())
}
