//! Out-of-core scale benchmark: mine + explain DBLP and Crime at 250k
//! (quick) / 1M (full) rows, then save a v2 snapshot and time the mmap
//! cold-start relation load against a full owned decode.
//!
//! One run per configuration — at these row counts a mine is seconds to
//! minutes, far above the scheduler-noise regime the smaller benches
//! guard against with repetition, and the point of this experiment is
//! that the pipeline *completes* at scale with the expected ratios:
//!
//! * `mine_columnar` — ARP-MINE wall, query and regression time (the key
//!   name predates the removal of the row-oriented mining path and is
//!   kept so bench-diff aligns new records with old ones).
//! * `mmap_relation_load_s` vs `owned_decode_s` — the v2 cold-start
//!   primitive ([`load_relation_v2`]) maps the file and aliases its
//!   slabs, so its cost is framing + CRC + dictionary decode, while the
//!   owned path decodes patterns and rebuilds group data. The gap *is*
//!   the decode-independence claim, in wall-clock form.
//! * `peak_rss_bytes` — recorded per phase (informational; the mmap load
//!   should fault pages, not copy slabs).
//!
//! Results land in the `scale` section of `results/BENCH_mine.json`
//! (the rest of that file belongs to `mine-bench`; the two experiments
//! share it through [`crate::envelope::merge_bench_section`] /
//! `write_bench_preserving`), so the CI bench-trajectory gate diffs both
//! against the same committed baseline.

use crate::datasets::{crime_prefix, crime_rows, dblp_rows, Scale};
use crate::questions::generate_questions;
use crate::report::{section, SeriesTable};
use cape_core::config::MiningConfig;
use cape_core::explain::{ExplainConfig, TopKExplainer};
use cape_core::mining::{ArpMiner, Miner};
use cape_core::prelude::OptimizedExplainer;
use cape_core::snapshot::{load_relation_v2, read_snapshot_v2, save_snapshot_v2};
use cape_data::Relation;
use cape_obs::Json;

/// Number of crime attributes kept (matches `mine-bench`).
const CRIME_ATTRS: usize = 5;

/// User questions explained per dataset.
const QUESTIONS: usize = 8;

/// Top-k for explanation generation.
const TOP_K: usize = 10;

fn base_cfg(exclude: Vec<usize>) -> MiningConfig {
    MiningConfig {
        thresholds: cape_core::config::Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        exclude,
        ..MiningConfig::default()
    }
}

/// One dataset's full pass; returns the JSON entry and a rendered table.
fn run_dataset(
    dataset: &str,
    rel: Relation,
    exclude: Vec<usize>,
    question_attrs: &[usize],
    seed: u64,
) -> (Json, String) {
    let rows = rel.num_rows();

    // --- mine -----------------------------------------------------------
    let cfg = base_cfg(exclude);
    eprintln!("  scale-bench: {dataset}/{rows} mining ...");
    crate::rss::reset_peak();
    let mined = ArpMiner.mine(&rel, &cfg).expect("mining");
    let mine_peak_rss = crate::rss::peak_rss_bytes();
    let wall_s = mined.stats.total_time.as_secs_f64();
    let query_s = mined.stats.query_time.as_secs_f64();
    let regress_s = mined.stats.regression_time.as_secs_f64();
    let patterns = mined.store.len();
    eprintln!(
        "  scale-bench: {dataset}/{rows}: mined in {wall_s:.2}s (query+regress {:.2}s, \
         {patterns} patterns)",
        query_s + regress_s,
    );

    // --- explain: the question grid against the mined store -----------
    let questions = generate_questions(&rel, question_attrs, QUESTIONS, seed);
    let ecfg = ExplainConfig::default_for(&rel, TOP_K);
    let mut explain_s = 0.0;
    let mut answered = 0usize;
    for q in &questions {
        let (explanations, s) = OptimizedExplainer.explain(&mined.store, q, &ecfg);
        explain_s += s.time.as_secs_f64();
        answered += usize::from(!explanations.is_empty());
    }
    assert!(answered > 0, "{dataset}: no question produced an explanation at scale");
    eprintln!(
        "  scale-bench: {dataset}/{rows}: {answered}/{} questions answered in {explain_s:.3}s",
        questions.len(),
    );

    // --- snapshot v2: save, mmap cold-start, owned decode --------------
    let path = std::env::temp_dir().join(format!("cape_scale_{dataset}.cape"));
    let t0 = std::time::Instant::now();
    let bytes = save_snapshot_v2(&path, rel.schema(), &cfg, &mined.store, &rel).expect("save v2");
    let save_s = t0.elapsed().as_secs_f64();

    crate::rss::reset_peak();
    let t0 = std::time::Instant::now();
    let (_, mapped) = load_relation_v2(&path).expect("mmap relation load");
    let mmap_relation_load_s = t0.elapsed().as_secs_f64();
    let mmap_peak_rss = crate::rss::peak_rss_bytes();
    assert_eq!(mapped.num_rows(), rows, "mapped relation lost rows");
    drop(mapped);

    let t0 = std::time::Instant::now();
    let raw = std::fs::read(&path).expect("read snapshot");
    let owned = read_snapshot_v2(&raw).expect("owned decode");
    let owned_decode_s = t0.elapsed().as_secs_f64();
    assert_eq!(owned.relation.num_rows(), rows, "owned relation lost rows");
    assert_eq!(owned.store.len(), patterns, "owned decode lost patterns");
    drop(owned);
    let _ = std::fs::remove_file(&path);
    eprintln!(
        "  scale-bench: {dataset}/{rows}: snapshot {bytes}B, save {save_s:.3}s, \
         mmap load {:.1}ms, owned decode {:.1}ms",
        mmap_relation_load_s * 1e3,
        owned_decode_s * 1e3,
    );

    let mut snapshot_fields = vec![
        ("bytes".into(), Json::Num(bytes as f64)),
        ("save_s".into(), Json::Num(save_s)),
        ("mmap_relation_load_s".into(), Json::Num(mmap_relation_load_s)),
        ("owned_decode_s".into(), Json::Num(owned_decode_s)),
    ];
    if let Some(rss) = mmap_peak_rss {
        snapshot_fields.push(("mmap_peak_rss_bytes".into(), Json::Num(rss as f64)));
    }

    let mut mine_fields = vec![
        ("wall_s".into(), Json::Num(wall_s)),
        ("query_s".into(), Json::Num(query_s)),
        ("regress_s".into(), Json::Num(regress_s)),
        ("patterns".into(), Json::Num(patterns as f64)),
    ];
    if let Some(rss) = mine_peak_rss {
        mine_fields.push(("peak_rss_bytes".into(), Json::Num(rss as f64)));
    }
    let entry = Json::Obj(vec![
        ("dataset".into(), Json::Str(dataset.into())),
        ("rows".into(), Json::Num(rows as f64)),
        ("miner".into(), Json::Str("ARP-MINE".into())),
        ("mine_columnar".into(), Json::Obj(mine_fields)),
        (
            "explain".into(),
            Json::Obj(vec![
                ("questions".into(), Json::Num(questions.len() as f64)),
                ("answered".into(), Json::Num(answered as f64)),
                ("total_s".into(), Json::Num(explain_s)),
            ]),
        ),
        ("snapshot".into(), Json::Obj(snapshot_fields)),
    ]);

    let mut table = SeriesTable::new(
        "metric",
        vec![
            "mine [s]".into(),
            "query+regress [s]".into(),
            "explain total [s]".into(),
            "v2 save [s]".into(),
            "mmap relation load [s]".into(),
            "owned decode [s]".into(),
        ],
    );
    table.push_series(
        "value",
        vec![
            Some(wall_s),
            Some(query_s + regress_s),
            Some(explain_s),
            Some(save_s),
            Some(mmap_relation_load_s),
            Some(owned_decode_s),
        ],
    );
    let report = format!(
        "{}{} rows, {} patterns\n{}",
        section(&format!("Out-of-core scale: {dataset} @ {rows}")),
        rows,
        patterns,
        table.render()
    );
    (entry, report)
}

/// The scale-bench experiment: 250k rows on quick, 1M on full.
pub fn scale_bench(scale: Scale) -> String {
    let rows = match scale {
        Scale::Quick => 250_000,
        Scale::Full => 1_000_000,
    };
    let scale_label = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };

    // (name, relation, excluded attrs, question attrs, question seed)
    type Dataset = (&'static str, Relation, Vec<usize>, Vec<usize>, u64);

    let mut entries = Vec::new();
    let mut report = String::new();
    let datasets: Vec<Dataset> = vec![
        (
            "dblp",
            dblp_rows(rows),
            vec![cape_datagen::dblp::attrs::PUBID],
            vec![
                cape_datagen::dblp::attrs::AUTHOR,
                cape_datagen::dblp::attrs::YEAR,
                cape_datagen::dblp::attrs::VENUE,
            ],
            91,
        ),
        (
            "crime",
            crime_prefix(&crime_rows(rows), CRIME_ATTRS),
            vec![],
            vec![
                cape_datagen::crime::attrs::PRIMARY_TYPE,
                cape_datagen::crime::attrs::COMMUNITY,
                cape_datagen::crime::attrs::YEAR,
            ],
            92,
        ),
    ];
    for (dataset, rel, exclude, question_attrs, seed) in datasets {
        let (mut entry, section) = run_dataset(dataset, rel, exclude, &question_attrs, seed);
        if let Json::Obj(fields) = &mut entry {
            fields.insert(2, ("scale".into(), Json::Str(scale_label.into())));
        }
        entries.push(entry);
        report.push_str(&section);
    }

    let payload = Json::Obj(vec![
        ("scale".into(), Json::Str(scale_label.into())),
        ("rows".into(), Json::Num(rows as f64)),
        ("miner".into(), Json::Str("ARP-MINE".into())),
        ("questions".into(), Json::Num(QUESTIONS as f64)),
        ("top_k".into(), Json::Num(TOP_K as f64)),
        ("crime_attrs".into(), Json::Num(CRIME_ATTRS as f64)),
        ("entries".into(), Json::Arr(entries)),
    ]);
    crate::envelope::merge_bench_section("results/BENCH_mine.json", "mine-bench", "scale", payload);
    report.push_str("merged `scale` section into results/BENCH_mine.json\n");
    report
}
