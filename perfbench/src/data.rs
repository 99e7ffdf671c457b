//! Seeded workload inputs: the relation each workload serves (written
//! to CSV, since set-up starts from a CSV on disk), the held-out rows
//! appends draw from, and the question pools clients draw from.

use crate::rng::Rng;
use cape_core::config::{MiningConfig, Thresholds};
use cape_core::question::Direction;
use cape_data::ops::{aggregate, project};
use cape_data::{AggSpec, AttrId, Relation, Schema, Value};
use cape_datagen::{crime, dblp, CrimeConfig, DblpConfig};
use cape_obs::Json;
use std::path::Path;

/// Top-k every question asks for.
pub const TOP_K: usize = 10;
/// Rows per append batch.
pub const APPEND_BATCH: usize = 20;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DBLP, questions from a pool larger than the drill cache.
    ServeCold,
    /// DBLP, a 32-question pool that fits the drill cache.
    ServeHot,
    /// Crime with live appends beside explain reads.
    Ingest,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::ServeCold, Workload::ServeHot, Workload::Ingest];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve-cold",
            Workload::ServeHot => "serve-hot",
            Workload::Ingest => "ingest",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::smoke`] keeps the self-test runs small.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// DBLP rows written to CSV (serve-* workloads).
    pub dblp_rows: usize,
    /// Crime rows written to CSV (ingest).
    pub crime_rows: usize,
    /// Held-out rows for appends.
    pub tail_rows: usize,
    /// Question pool size of serve-cold.
    pub cold_pool: usize,
    /// Question pool size of serve-hot and ingest.
    pub hot_pool: usize,
    /// Questions whose HTTP answers are checked against the in-process
    /// explainer.
    pub check_sample: usize,
    /// Set-ups at the start of an ingest or traced run (`setup_s` and
    /// `mine_s` are medians over a run's set-ups).
    pub setup_reps: usize,
    /// Untimed warm-up before each timed phase, in seconds.
    pub warmup_s: f64,
    /// Answers each timed read window must have; a window runs on past
    /// its time until it has them, and a run that cannot get them fails.
    pub window_samples: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Sizes {
            dblp_rows: 20_000,
            crime_rows: 50_000,
            tail_rows: 12_000,
            cold_pool: 4096,
            hot_pool: 32,
            check_sample: 24,
            setup_reps: 3,
            warmup_s: 2.0,
            // Ten samples beyond each window's p99.
            window_samples: crate::stats::min_samples_for(0.99),
        }
    }

    /// Small sizes for the smoke tests.
    pub fn smoke() -> Self {
        Sizes {
            dblp_rows: 2_000,
            crime_rows: 3_000,
            tail_rows: 400,
            cold_pool: 256,
            hot_pool: 8,
            check_sample: 6,
            setup_reps: 2,
            warmup_s: 0.2,
            window_samples: crate::stats::min_samples_for(0.5),
        }
    }
}

/// One question as the clients send it.
#[derive(Debug, Clone)]
pub struct Question {
    /// Group-by values of the surprising tuple.
    pub tuple: Vec<Value>,
    /// high / low.
    pub dir: Direction,
    /// The explain request body.
    pub body: Json,
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct Dataset {
    /// Registry name of the served store.
    pub store_name: &'static str,
    /// Relation schema (the CSV header).
    pub schema: Schema,
    /// The rows written to CSV.
    pub base: Relation,
    /// Held-out rows, in append order.
    pub tail: Vec<Vec<Value>>,
    /// Mining configuration.
    pub mining: MiningConfig,
    /// The question SQL.
    pub sql: String,
    /// Group-by attributes of the question SQL.
    pub group_attrs: Vec<AttrId>,
}

/// The lenient thresholds the repository's serving benches mine with.
fn mining_config(exclude: Vec<AttrId>) -> MiningConfig {
    MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        exclude,
        ..MiningConfig::default()
    }
}

/// Split `rel` into a seeded base of `base_rows` rows (kept in generator
/// order) and a shuffled held-out tail.
fn split(rel: &Relation, base_rows: usize, rng: &mut Rng) -> (Relation, Vec<Vec<Value>>) {
    let mut order: Vec<usize> = (0..rel.num_rows()).collect();
    rng.shuffle(&mut order);
    let base_rows = base_rows.min(order.len());
    let mut base_idx = order[..base_rows].to_vec();
    base_idx.sort_unstable();
    let tail = order[base_rows..].iter().map(|&i| rel.row(i)).collect();
    (rel.take(&base_idx), tail)
}

/// Generate the dataset `workload` serves.
pub fn dataset(workload: Workload, sizes: &Sizes, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed, 1);
    match workload {
        Workload::ServeCold | Workload::ServeHot => {
            use dblp::attrs::{AUTHOR, PUBID, VENUE, YEAR};
            let cfg = DblpConfig {
                target_rows: sizes.dblp_rows + sizes.tail_rows,
                seed,
                ..DblpConfig::default()
            };
            let (base, tail) = split(&dblp::generate(&cfg), sizes.dblp_rows, &mut rng);
            Dataset {
                store_name: "dblp",
                schema: dblp::pub_schema(),
                base,
                tail,
                mining: mining_config(vec![PUBID]),
                sql: "SELECT author, year, venue, count(*) FROM dblp GROUP BY author, year, venue"
                    .into(),
                group_attrs: vec![AUTHOR, YEAR, VENUE],
            }
        }
        Workload::Ingest => {
            use crime::attrs::{COMMUNITY, PRIMARY_TYPE, YEAR};
            let cfg = CrimeConfig {
                target_rows: sizes.crime_rows + sizes.tail_rows,
                seed,
                ..CrimeConfig::default()
            };
            // The first seven attributes carry the FDs community →
            // district → side and beat → district.
            let full = project(&crime::generate(&cfg), &(0..7).collect::<Vec<_>>())
                .expect("crime prefix projection");
            let schema = full.schema().clone();
            let (base, tail) = split(&full, sizes.crime_rows, &mut rng);
            Dataset {
                store_name: "crime",
                schema,
                base,
                tail,
                mining: mining_config(Vec::new()),
                sql: "SELECT primary_type, community, year, count(*) FROM crime \
                      GROUP BY primary_type, community, year"
                    .into(),
                group_attrs: vec![PRIMARY_TYPE, COMMUNITY, YEAR],
            }
        }
    }
}

impl Dataset {
    /// Write the base rows as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        cape_data::csv::write_csv(&mut out, &self.base).map_err(std::io::Error::other)?;
        std::io::Write::flush(&mut out)
    }

    /// `size` distinct questions drawn uniformly from every group of the
    /// question query over the base rows, each with a random direction.
    pub fn question_pool(&self, size: usize, rng: &mut Rng) -> Vec<Question> {
        let groups = aggregate(&self.base, &self.group_attrs, &[AggSpec::count_star()])
            .expect("question group-by")
            .relation;
        let mut rows: Vec<usize> = (0..groups.num_rows()).collect();
        rng.shuffle(&mut rows);
        let key_cols: Vec<usize> = (0..self.group_attrs.len()).collect();
        rows.into_iter()
            .take(size)
            .map(|row| {
                let tuple = groups.row_project(row, &key_cols);
                let dir = if rng.below(2) == 0 { Direction::High } else { Direction::Low };
                let body = self.explain_body(&tuple, dir);
                Question { tuple, dir, body }
            })
            .collect()
    }

    fn explain_body(&self, tuple: &[Value], dir: Direction) -> Json {
        let dir = match dir {
            Direction::High => "high",
            Direction::Low => "low",
        };
        let tuple: Vec<Json> = tuple.iter().map(value_json).collect();
        cape_net::testclient::explain_body(&self.sql, &tuple, dir, Some(TOP_K), None)
    }

    /// The explain route of the served store.
    pub fn explain_path(&self) -> String {
        format!("/v1/{}/explain", self.store_name)
    }

    /// The append route of `store`.
    pub fn append_path(store: &str) -> String {
        format!("/admin/stores/{store}/append")
    }
}

/// A value as the wire API renders it.
pub fn value_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(n) => Json::Num(*n as f64),
        Value::Float(f) => Json::Num(*f),
        Value::Str(s) => Json::Str(s.to_string()),
    }
}

/// The append request body for `rows`.
pub fn append_body(rows: &[Vec<Value>]) -> Json {
    let rows = rows.iter().map(|r| Json::Arr(r.iter().map(value_json).collect())).collect();
    Json::Obj(vec![("rows".into(), Json::Arr(rows))])
}
