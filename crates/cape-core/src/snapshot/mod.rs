//! `cape-store` — the durable, versioned binary snapshot of a mined
//! [`PatternStore`].
//!
//! CAPE splits its pipeline into an *offline* mining phase and an
//! *online* explanation phase (§1 of the paper); this module is the
//! durable boundary between the two. `cape mine --save store.cape`
//! persists the miner's output once, and every later `explain`,
//! `batch-explain`, or `cape-serve` process cold-starts from the
//! snapshot instead of re-mining, so start-up cost scales with pattern
//! count rather than relation size.
//!
//! ## File format
//!
//! Both format versions are one framed container; the version picks
//! the section list. Version 1 holds the schema, config and patterns;
//! version 2 adds the relation's column slabs (`RELC`, see [`v2`]).
//!
//! ```text
//! ┌─ header ──────────────────────────────────────────────┐
//! │ magic    8B  b"CAPESNAP"                              │
//! │ version  u32 LE (1 or 2)                              │
//! │ sections u32 LE (3 for v1, 4 for v2)                  │
//! ├─ section × n, fixed order: SCHM, CONF, PATS[, RELC] ─┤
//! │ tag      u32 LE                                       │
//! │ len      u64 LE  payload length in bytes              │
//! │ payload  len bytes                                    │
//! │ crc32    u32 LE  CRC-32 (IEEE) of the payload         │
//! ├─ footer (commit marker) ─────────────────────────────┤
//! │ magic    8B  b"CAPECMIT"                              │
//! │ crc32    u32 LE  CRC-32 of every preceding byte       │
//! └───────────────────────────────────────────────────────┘
//! ```
//!
//! `encode` is the one framing encoder and [`layout`] the one parser:
//! every reader decodes its payloads from the ranges `layout` returns.
//! Loading against a live relation ([`load_snapshot`]) reads either
//! version and recomputes the aggregated group data from that relation
//! (one group-by per `F ∪ V` — far cheaper than mining, which also had
//! to enumerate, sort, and fit); a v2 file's embedded relation is only
//! decoded by the v2 loaders.
//!
//! ## Durability protocol
//!
//! [`save_snapshot`] writes the encoded bytes to a sibling temporary
//! file, `fsync`s it, atomically renames it over the destination, and
//! `fsync`s the parent directory. The footer's commit marker is written
//! last inside the buffer, so a torn write (rename observed before the
//! data was flushed) is detected as [`SnapshotError::Truncated`] rather
//! than being half-read.
//!
//! ## Failure taxonomy
//!
//! Every way a file can fail to load maps to one [`SnapshotError`]
//! variant — never a panic, hang, or silently wrong store. That includes
//! files whose CRCs are valid but whose patterns break an ARP invariant
//! (`SectionCorrupt { section: "patterns" }`). The `snapshot::inject`
//! fault-injection harness and the `store_corruption` test matrix
//! enforce this byte-by-byte for both versions.

pub mod codec;
pub mod inject;
pub mod v2;

pub use v2::{
    load_relation_v2, load_snapshot_v2, read_snapshot_v2, save_snapshot_v2, SnapshotV2Contents,
    FORMAT_VERSION_V2,
};

use crate::config::{AggSelection, MiningConfig, Thresholds};
use crate::group_data::GroupData;
use crate::pattern::Arp;
use crate::store::{fold_dev_bounds, LocalPattern, PatternInstance, PatternStore};
use cape_data::mmap::MapRegion;
use cape_data::{AggFunc, AttrId, Relation, Schema, Value};
use cape_regress::{Fitted, ModelType};
use codec::{ByteReader, ByteWriter, WireError};
use std::collections::HashMap;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Leading file magic: identifies a CAPE snapshot.
pub const MAGIC: &[u8; 8] = b"CAPESNAP";
/// Trailing commit marker: present only once the file is fully written.
pub const FOOTER_MAGIC: &[u8; 8] = b"CAPECMIT";
/// The v1 format version (patterns only; relation recomputed from CSV).
pub const FORMAT_VERSION: u32 = 1;

/// `(tag, display name)` of every section, in file order. Version 1
/// holds the first three, version 2 all four.
const SECTIONS: [(u32, &str); 4] = [
    (u32::from_le_bytes(*b"SCHM"), "schema"),
    (u32::from_le_bytes(*b"CONF"), "config"),
    (u32::from_le_bytes(*b"PATS"), "patterns"),
    (u32::from_le_bytes(*b"RELC"), "relation"),
];
const SCHEMA: usize = 0;
const CONFIG: usize = 1;
const PATTERNS: usize = 2;
const RELATION: usize = 3;

/// Magic, version and section count.
const HEADER_LEN: usize = 16;
/// Tag and length before each payload.
const FRAME_PREFIX: usize = 12;
/// The payload CRC after it.
const FRAME_SUFFIX: usize = 4;

/// The section list a format version carries.
fn sections_of(version: u32) -> Result<&'static [(u32, &'static str)], SnapshotError> {
    match version {
        FORMAT_VERSION => Ok(&SECTIONS[..3]),
        FORMAT_VERSION_V2 => Ok(&SECTIONS),
        found => Err(SnapshotError::VersionUnsupported { found }),
    }
}

/// Why a snapshot was rejected. One variant per failure class so callers
/// (the CLI's exit code 3, `cape-serve` construction, the corruption
/// test matrix) can react to the class, not a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file declares a format version this build cannot read.
    VersionUnsupported {
        /// The version the file declared.
        found: u32,
    },
    /// A section failed its structural or CRC check.
    SectionCorrupt {
        /// Which section (`"header"`, `"schema"`, `"config"`,
        /// `"patterns"`, `"relation"`, or `"footer"`).
        section: &'static str,
    },
    /// The file ends early or its commit marker is missing (torn write).
    Truncated,
    /// The snapshot was mined against a different relation schema.
    SchemaMismatch(String),
    /// Filesystem failure (stringified to keep the error `Clone`).
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => f.write_str("bad magic (not a cape snapshot)"),
            SnapshotError::VersionUnsupported { found } => write!(
                f,
                "unsupported snapshot version {found} \
                 (this build reads v{FORMAT_VERSION} and v{FORMAT_VERSION_V2})"
            ),
            SnapshotError::SectionCorrupt { section } => write!(f, "section corrupt: {section}"),
            SnapshotError::Truncated => f.write_str("truncated snapshot (missing commit marker)"),
            SnapshotError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            SnapshotError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// What a snapshot contains after validation against a live relation.
#[derive(Debug, Clone)]
pub struct SnapshotContents {
    /// The format version the file was written in.
    pub version: u32,
    /// The relation schema recorded at save time (validated to match the
    /// live relation on load).
    pub schema: Schema,
    /// The mining configuration the store was produced with. Execution
    /// knobs that do not affect the mined output (roll-up, sort cache,
    /// initial FDs) are not persisted and carry their defaults.
    pub config: MiningConfig,
    /// The reloaded pattern store, with group data recomputed from the
    /// live relation.
    pub store: PatternStore,
}

/// FNV-1a 64-bit fingerprint of a schema: attribute names and types in
/// order. Cheap to compare, stable across processes, and independent of
/// the in-memory layout.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    };
    for attr in schema.iter() {
        for b in attr.name().bytes() {
            eat(b);
        }
        eat(0xFF);
        eat(match attr.value_type() {
            cape_data::ValueType::Int => 0,
            cape_data::ValueType::Float => 1,
            cape_data::ValueType::Str => 2,
        });
    }
    h
}

// --- encoding --------------------------------------------------------------

fn encode_schema_section(schema: &Schema) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(schema_fingerprint(schema));
    w.u32(schema.arity() as u32);
    for attr in schema.iter() {
        w.str(attr.name());
        codec::write_value_type(&mut w, attr.value_type());
    }
    w.into_bytes()
}

fn encode_config_section(cfg: &MiningConfig) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.f64(cfg.thresholds.theta);
    w.u64(cfg.thresholds.delta as u64);
    w.f64(cfg.thresholds.lambda);
    w.u64(cfg.thresholds.global_support as u64);
    w.u64(cfg.psi as u64);
    w.u8(cfg.fd_pruning as u8);
    w.u32(cfg.models.len() as u32);
    for &m in &cfg.models {
        codec::write_model_type(&mut w, m);
    }
    w.u32(cfg.exclude.len() as u32);
    for &a in &cfg.exclude {
        w.u32(a as u32);
    }
    match &cfg.aggs {
        AggSelection::CountStar => w.u8(0),
        AggSelection::AllNumeric => w.u8(1),
        AggSelection::Explicit(list) => {
            w.u8(2);
            w.u32(list.len() as u32);
            for (func, attr) in list {
                codec::write_agg(&mut w, *func);
                match attr {
                    Some(a) => {
                        w.u8(1);
                        w.u32(*a as u32);
                    }
                    None => w.u8(0),
                }
            }
        }
    }
    w.into_bytes()
}

fn write_attr_list(w: &mut ByteWriter, ids: &[AttrId]) {
    w.u32(ids.len() as u32);
    for &a in ids {
        w.u32(a as u32);
    }
}

fn encode_patterns_section(store: &PatternStore) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(store.len() as u32);
    for (_, inst) in store.iter() {
        write_attr_list(&mut w, inst.arp.f());
        write_attr_list(&mut w, inst.arp.v());
        codec::write_agg(&mut w, inst.arp.agg);
        match inst.arp.agg_attr {
            Some(a) => {
                w.u8(1);
                w.u32(a as u32);
            }
            None => w.u8(0),
        }
        codec::write_model_type(&mut w, inst.arp.model);
        w.f64(inst.confidence);
        w.u64(inst.num_supported as u64);
        // Locals in sorted key order: byte-identical files for equal stores.
        let mut keys: Vec<&Vec<Value>> = inst.locals.keys().collect();
        keys.sort();
        w.u32(keys.len() as u32);
        for key in keys {
            let local = &inst.locals[key];
            w.u32(key.len() as u32);
            for v in key {
                codec::write_value(&mut w, v);
            }
            w.u64(local.support as u64);
            w.f64(local.fitted.gof);
            w.f64(local.max_pos_dev);
            w.f64(local.max_neg_dev);
            codec::write_model(&mut w, &local.fitted.model);
        }
    }
    w.into_bytes()
}

/// The one framing encoder: the v1 sections, plus the relation section
/// (making it a v2 file) when `rel` is given. The relation's slabs are
/// padded to absolute file offsets, so its payload is encoded last, once
/// the offset it starts at is known.
pub(crate) fn encode(
    schema: &Schema,
    cfg: &MiningConfig,
    store: &PatternStore,
    rel: Option<&Relation>,
) -> Vec<u8> {
    let mut payloads = vec![
        encode_schema_section(schema),
        encode_config_section(cfg),
        encode_patterns_section(store),
    ];
    let mut version = FORMAT_VERSION;
    if let Some(rel) = rel {
        let framed: usize = payloads.iter().map(|p| FRAME_PREFIX + p.len() + FRAME_SUFFIX).sum();
        payloads.push(v2::encode_relation_section(rel, HEADER_LEN + framed + FRAME_PREFIX));
        version = FORMAT_VERSION_V2;
    }
    let sections = sections_of(version).expect("a version this build writes");
    let mut w = ByteWriter::new();
    w.bytes(MAGIC);
    w.u32(version);
    w.u32(sections.len() as u32);
    for ((tag, _), payload) in sections.iter().zip(&payloads) {
        w.u32(*tag);
        w.u64(payload.len() as u64);
        w.bytes(payload);
        w.u32(codec::crc32(payload));
    }
    let mut out = w.into_bytes();
    let body_crc = codec::crc32(&out);
    out.extend_from_slice(FOOTER_MAGIC);
    out.extend_from_slice(&body_crc.to_le_bytes());
    out
}

/// Encode a v1 snapshot to bytes (the pure half of [`save_snapshot`]).
pub fn encode_snapshot(schema: &Schema, cfg: &MiningConfig, store: &PatternStore) -> Vec<u8> {
    encode(schema, cfg, store, None)
}

// --- layout: the one container parser --------------------------------------

/// Byte ranges of the structural regions of a snapshot. Produced by
/// [`layout`]; the readers decode its payload ranges, and the fault
/// injector mutates *at* its boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotLayout {
    /// The declared format version (it picked the section list).
    pub version: u32,
    /// Magic + version + section count.
    pub header: Range<usize>,
    /// `(section name, full byte range incl. tag/len/crc)` in file order.
    pub sections: Vec<(&'static str, Range<usize>)>,
    /// Footer magic + file CRC.
    pub footer: Range<usize>,
}

impl SnapshotLayout {
    /// Every region boundary offset, ascending (truncation targets).
    pub fn boundaries(&self) -> Vec<usize> {
        let mut out = vec![self.header.start, self.header.end];
        for (_, r) in &self.sections {
            out.push(r.end);
        }
        out.push(self.footer.end);
        out
    }

    /// The payload bytes of section `i` (its frame minus tag, length and
    /// CRC).
    pub fn payload(&self, i: usize) -> Range<usize> {
        let frame = &self.sections[i].1;
        frame.start + FRAME_PREFIX..frame.end - FRAME_SUFFIX
    }
}

/// Parse and validate a snapshot's container: the magic, the section
/// list its version declares (tags in order, every payload CRC), and the
/// commit footer with the whole-file CRC. Payloads are not decoded.
pub fn layout(bytes: &[u8]) -> Result<SnapshotLayout, SnapshotError> {
    use SnapshotError::{BadMagic, SectionCorrupt, Truncated};
    // A proper prefix of the magic is a truncation; any other leading
    // bytes are not a snapshot at all.
    if bytes.len() < MAGIC.len() && MAGIC.starts_with(bytes) {
        return Err(Truncated);
    }
    if !bytes.starts_with(MAGIC) {
        return Err(BadMagic);
    }
    let trunc = |_: WireError| Truncated;
    let mut r = ByteReader::new(&bytes[MAGIC.len()..]);
    let at = |r: &ByteReader| bytes.len() - r.remaining();
    let version = r.u32().map_err(trunc)?;
    let expected = sections_of(version)?;
    if r.u32().map_err(trunc)? as usize != expected.len() {
        return Err(SectionCorrupt { section: "header" });
    }
    let header = 0..at(&r);
    let mut sections = Vec::with_capacity(expected.len());
    for &(tag, section) in expected {
        let start = at(&r);
        if r.u32().map_err(trunc)? != tag {
            return Err(SectionCorrupt { section });
        }
        let len = usize::try_from(r.u64().map_err(trunc)?).map_err(|_| Truncated)?;
        let payload = r.take(len).map_err(trunc)?;
        if r.u32().map_err(trunc)? != codec::crc32(payload) {
            return Err(SectionCorrupt { section });
        }
        sections.push((section, start..at(&r)));
    }
    // Footer: commit marker + whole-body CRC. Absence ⇒ the write never
    // committed (torn write) ⇒ Truncated.
    let body_end = at(&r);
    let footer = r.take(FOOTER_MAGIC.len() + 4).map_err(trunc)?;
    if &footer[..8] != FOOTER_MAGIC {
        return Err(Truncated);
    }
    let file_crc = u32::from_le_bytes(footer[8..].try_into().expect("4 bytes"));
    if !r.is_empty() || codec::crc32(&bytes[..body_end]) != file_crc {
        return Err(SectionCorrupt { section: "footer" });
    }
    Ok(SnapshotLayout { version, header, sections, footer: body_end..bytes.len() })
}

// --- decoding --------------------------------------------------------------

fn corrupt(section: &'static str) -> impl Fn(WireError) -> SnapshotError {
    move |_| SnapshotError::SectionCorrupt { section }
}

fn decode_schema_section(payload: &[u8]) -> Result<Schema, SnapshotError> {
    let e = corrupt("schema");
    let mut r = ByteReader::new(payload);
    let fingerprint = r.u64().map_err(&e)?;
    let arity = r.count(5).map_err(&e)?;
    let mut attrs = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = r.str().map_err(&e)?;
        let ty = codec::read_value_type(&mut r).map_err(&e)?;
        attrs.push((name, ty));
    }
    if !r.is_empty() {
        return Err(SnapshotError::SectionCorrupt { section: "schema" });
    }
    let schema =
        Schema::new(attrs).map_err(|_| SnapshotError::SectionCorrupt { section: "schema" })?;
    if schema_fingerprint(&schema) != fingerprint {
        return Err(SnapshotError::SectionCorrupt { section: "schema" });
    }
    Ok(schema)
}

fn decode_config_section(payload: &[u8]) -> Result<MiningConfig, SnapshotError> {
    let e = corrupt("config");
    let mut r = ByteReader::new(payload);
    let theta = r.f64().map_err(&e)?;
    let delta = r.usize().map_err(&e)?;
    let lambda = r.f64().map_err(&e)?;
    let global_support = r.usize().map_err(&e)?;
    let psi = r.usize().map_err(&e)?;
    let fd_pruning = match r.u8().map_err(&e)? {
        0 => false,
        1 => true,
        _ => return Err(SnapshotError::SectionCorrupt { section: "config" }),
    };
    let n_models = r.count(1).map_err(&e)?;
    let models = (0..n_models)
        .map(|_| codec::read_model_type(&mut r).map_err(&e))
        .collect::<Result<Vec<_>, _>>()?;
    let n_exclude = r.count(4).map_err(&e)?;
    let exclude = (0..n_exclude)
        .map(|_| r.u32().map(|a| a as AttrId).map_err(&e))
        .collect::<Result<Vec<_>, _>>()?;
    let aggs = match r.u8().map_err(&e)? {
        0 => AggSelection::CountStar,
        1 => AggSelection::AllNumeric,
        2 => {
            let n = r.count(2).map_err(&e)?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                let func = codec::read_agg(&mut r).map_err(&e)?;
                let attr = match r.u8().map_err(&e)? {
                    0 => None,
                    1 => Some(r.u32().map_err(&e)? as AttrId),
                    _ => return Err(SnapshotError::SectionCorrupt { section: "config" }),
                };
                list.push((func, attr));
            }
            AggSelection::Explicit(list)
        }
        _ => return Err(SnapshotError::SectionCorrupt { section: "config" }),
    };
    if !r.is_empty() {
        return Err(SnapshotError::SectionCorrupt { section: "config" });
    }
    Ok(MiningConfig {
        thresholds: Thresholds::new(theta, delta, lambda, global_support),
        psi,
        aggs,
        models,
        exclude,
        fd_pruning,
        ..MiningConfig::default()
    })
}

/// One pattern as a store file records it: attribute lists not yet
/// checked against the ARP invariants or the relation. Both the binary
/// snapshot and the text format (`persist`) decode into this and hand it
/// to [`rebuild_store`].
pub(crate) struct PatternRecord {
    pub(crate) f: Vec<AttrId>,
    pub(crate) v: Vec<AttrId>,
    pub(crate) agg: AggFunc,
    pub(crate) agg_attr: Option<AttrId>,
    pub(crate) model: ModelType,
    pub(crate) confidence: f64,
    pub(crate) num_supported: usize,
    pub(crate) locals: HashMap<Vec<Value>, LocalPattern>,
}

fn read_attr_list(r: &mut ByteReader) -> Result<Vec<AttrId>, WireError> {
    let n = r.count(4)?;
    (0..n).map(|_| r.u32().map(|a| a as AttrId)).collect()
}

fn decode_patterns_section(payload: &[u8]) -> Result<Vec<PatternRecord>, SnapshotError> {
    let e = corrupt("patterns");
    let mut r = ByteReader::new(payload);
    let n = r.count(1).map_err(&e)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let f = read_attr_list(&mut r).map_err(&e)?;
        let v = read_attr_list(&mut r).map_err(&e)?;
        let agg = codec::read_agg(&mut r).map_err(&e)?;
        let agg_attr = match r.u8().map_err(&e)? {
            0 => None,
            1 => Some(r.u32().map_err(&e)? as AttrId),
            _ => return Err(SnapshotError::SectionCorrupt { section: "patterns" }),
        };
        let model = codec::read_model_type(&mut r).map_err(&e)?;
        let confidence = r.f64().map_err(&e)?;
        let num_supported = r.usize().map_err(&e)?;
        let n_locals = r.count(1).map_err(&e)?;
        let mut locals = HashMap::with_capacity(n_locals);
        for _ in 0..n_locals {
            let key_len = r.count(1).map_err(&e)?;
            let key = (0..key_len)
                .map(|_| codec::read_value(&mut r).map_err(&e))
                .collect::<Result<Vec<_>, _>>()?;
            let support = r.usize().map_err(&e)?;
            let gof = r.f64().map_err(&e)?;
            let max_pos_dev = r.f64().map_err(&e)?;
            let max_neg_dev = r.f64().map_err(&e)?;
            let fit_model = codec::read_model(&mut r).map_err(&e)?;
            locals.insert(
                key,
                LocalPattern {
                    fitted: Fitted { model: fit_model, gof, n: support },
                    support,
                    max_pos_dev,
                    max_neg_dev,
                },
            );
        }
        out.push(PatternRecord { f, v, agg, agg_attr, model, confidence, num_supported, locals });
    }
    if !r.is_empty() {
        return Err(SnapshotError::SectionCorrupt { section: "patterns" });
    }
    Ok(out)
}

/// Check the recorded schema against the live relation's.
fn validate_schema(recorded: &Schema, live: &Schema) -> Result<(), SnapshotError> {
    if schema_fingerprint(recorded) == schema_fingerprint(live) && recorded.arity() == live.arity()
    {
        return Ok(());
    }
    if recorded.arity() != live.arity() {
        return Err(SnapshotError::SchemaMismatch(format!(
            "snapshot was mined over {} attributes, live relation has {}",
            recorded.arity(),
            live.arity()
        )));
    }
    for (a, b) in recorded.iter().zip(live.iter()) {
        if a.name() != b.name() || a.value_type() != b.value_type() {
            return Err(SnapshotError::SchemaMismatch(format!(
                "attribute `{}:{}` in snapshot vs `{}:{}` in live relation",
                a.name(),
                a.value_type(),
                b.name(),
                b.value_type()
            )));
        }
    }
    Err(SnapshotError::SchemaMismatch("schema fingerprints differ".into()))
}

/// Why [`rebuild_store`] refused a decoded pattern list.
pub(crate) enum RebuildError {
    /// Pattern `index` breaks a Definition 2 invariant ([`Arp::try_new`]).
    Invalid {
        /// Position of the pattern in the file.
        index: usize,
        /// The broken invariant.
        why: &'static str,
    },
    /// The relation cannot back a pattern.
    Schema(String),
}

/// Rebuild pattern instances from decoded records: check each against
/// the ARP invariants, then recompute the shared group data per
/// `(F ∪ V, aggregates)` from `rel`.
pub(crate) fn rebuild_store(
    records: Vec<PatternRecord>,
    rel: &Relation,
) -> Result<PatternStore, RebuildError> {
    let arps = records
        .iter()
        .enumerate()
        .map(|(index, p)| {
            Arp::try_new(p.f.iter().copied(), p.v.iter().copied(), p.agg, p.agg_attr, p.model)
                .map_err(|why| RebuildError::Invalid { index, why })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut aggs_by_g: HashMap<Vec<AttrId>, Vec<(AggFunc, Option<AttrId>)>> = HashMap::new();
    for arp in &arps {
        let list = aggs_by_g.entry(arp.g_attrs()).or_default();
        if !list.contains(&(arp.agg, arp.agg_attr)) {
            list.push((arp.agg, arp.agg_attr));
        }
    }
    let arity = rel.schema().arity();
    let mut cache: HashMap<Vec<AttrId>, Arc<GroupData>> = HashMap::new();
    let mut store = PatternStore::new();
    for (arp, p) in arps.into_iter().zip(records) {
        let g = arp.g_attrs();
        if let Some(&a) = g.iter().find(|&&a| a >= arity) {
            return Err(RebuildError::Schema(format!(
                "pattern references attribute {a} but the relation has arity {arity}"
            )));
        }
        let gd = match cache.get(&g) {
            Some(gd) => Arc::clone(gd),
            None => {
                let gd = Arc::new(
                    GroupData::compute(rel, &g, &aggs_by_g[&g])
                        .map_err(|e| RebuildError::Schema(e.to_string()))?,
                );
                cache.insert(g, Arc::clone(&gd));
                gd
            }
        };
        let agg_col = gd
            .agg_col(arp.agg, arp.agg_attr)
            .ok_or_else(|| RebuildError::Schema("aggregate column missing".into()))?;
        let mut inst = PatternInstance {
            arp,
            data: gd,
            agg_col,
            locals: p.locals,
            confidence: p.confidence,
            num_supported: p.num_supported,
            max_pos_dev: 0.0,
            max_neg_dev: 0.0,
        };
        fold_dev_bounds(&mut inst);
        store.push(inst);
    }
    Ok(store)
}

/// The one decode path. Over a live `rel`, a file of either version is
/// checked against `rel`'s schema and its store rebuilt from `rel` (the
/// caller's relation is authoritative — it may have grown past the
/// snapshot), and an embedded relation is not decoded. Without one, the
/// file must be v2 and its store is rebuilt over its own relation, whose
/// slabs alias `region` when given.
fn decode(
    bytes: &[u8],
    rel: Option<&Relation>,
    region: Option<&Arc<MapRegion>>,
) -> Result<(SnapshotContents, Option<Relation>), SnapshotError> {
    let lay = layout(bytes)?;
    if rel.is_none() && lay.version != FORMAT_VERSION_V2 {
        return Err(SnapshotError::VersionUnsupported { found: lay.version });
    }
    let section = |i: usize| &bytes[lay.payload(i)];
    let schema = decode_schema_section(section(SCHEMA))?;
    let embedded = match rel {
        Some(rel) => {
            validate_schema(&schema, rel.schema())?;
            None
        }
        None => {
            let relc = lay.payload(RELATION);
            Some(v2::decode_relation_section(&bytes[relc.clone()], relc.start, &schema, region)?)
        }
    };
    let config = decode_config_section(section(CONFIG))?;
    let records = decode_patterns_section(section(PATTERNS))?;
    let rel = rel.or(embedded.as_ref()).expect("a live or an embedded relation");
    let store = rebuild_store(records, rel).map_err(|e| match e {
        RebuildError::Invalid { .. } => SnapshotError::SectionCorrupt { section: "patterns" },
        RebuildError::Schema(m) => SnapshotError::SchemaMismatch(m),
    })?;
    Ok((SnapshotContents { version: lay.version, schema, config, store }, embedded))
}

/// Count a rejected file in `store.corrupt_rejects` (a filesystem
/// failure is not a rejection).
fn count_reject<T>(out: Result<T, SnapshotError>) -> Result<T, SnapshotError> {
    if matches!(&out, Err(e) if !matches!(e, SnapshotError::Io(_))) {
        cape_obs::counter_add("store.corrupt_rejects", 1);
    }
    out
}

/// Decode and validate a snapshot of either version from bytes,
/// recomputing group data from `rel`. Counts `store.load_ns` /
/// `store.bytes` on success and `store.corrupt_rejects` on every
/// rejection.
pub fn read_snapshot(bytes: &[u8], rel: &Relation) -> Result<SnapshotContents, SnapshotError> {
    let t0 = std::time::Instant::now();
    let out = count_reject(decode(bytes, Some(rel), None).map(|(contents, _)| contents));
    if out.is_ok() {
        cape_obs::observe_ns("store.load_ns", t0.elapsed().as_nanos() as u64);
        cape_obs::counter_add("store.bytes", bytes.len() as u64);
    }
    out
}

/// Map a snapshot file of either version (the bytes are read, not
/// copied) and [`read_snapshot`] it against `rel`.
pub fn load_snapshot(
    path: impl AsRef<Path>,
    rel: &Relation,
) -> Result<SnapshotContents, SnapshotError> {
    read_snapshot(map(path.as_ref())?.bytes(), rel)
}

fn map(path: &Path) -> Result<Arc<MapRegion>, SnapshotError> {
    MapRegion::open(path).map_err(|e| SnapshotError::Io(format!("read: {e}")))
}

/// Atomically write a snapshot: encode, write to a sibling temp file,
/// `fsync`, rename over `path`, `fsync` the directory. Returns the byte
/// size written. Counts `store.save_ns` and `store.bytes`.
pub fn save_snapshot(
    path: impl AsRef<Path>,
    schema: &Schema,
    cfg: &MiningConfig,
    store: &PatternStore,
) -> Result<u64, SnapshotError> {
    let path = path.as_ref();
    let t0 = std::time::Instant::now();
    let bytes = encode_snapshot(schema, cfg, store);
    write_atomic(path, &bytes)?;
    cape_obs::observe_ns("store.save_ns", t0.elapsed().as_nanos() as u64);
    cape_obs::counter_add("store.bytes", bytes.len() as u64);
    Ok(bytes.len() as u64)
}

/// Durably publish `bytes` at `path`: write to a sibling temp file,
/// `fsync`, atomically rename, `fsync` the directory (shared by the v1
/// and v2 savers).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(bytes).map_err(io)?;
        // Data must be on disk *before* the rename publishes the file;
        // the commit-marker footer catches the case where it was not.
        f.sync_all().map_err(io)?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(io(e));
    }
    // Persist the rename itself (directory entry). Best effort: some
    // filesystems reject directory fsync; the rename is still atomic.
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mining::{Miner, ShareGrpMiner};
    use cape_data::ValueType;

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
                        Value::str(format!("a {a}|x%")),
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
        (rel, cfg, store)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (rel, cfg, store) = mined();
        assert!(!store.is_empty());
        let bytes = encode_snapshot(rel.schema(), &cfg, &store);
        let loaded = read_snapshot(&bytes, &rel).unwrap();
        assert_eq!(loaded.store.len(), store.len());
        assert_eq!(loaded.config.thresholds, cfg.thresholds);
        assert_eq!(loaded.config.psi, cfg.psi);
        assert_eq!(loaded.config.models, cfg.models);
        for ((_, a), (_, b)) in store.iter().zip(loaded.store.iter()) {
            assert_eq!(a.arp, b.arp);
            assert_eq!(a.confidence, b.confidence);
            assert_eq!(a.num_supported, b.num_supported);
            assert_eq!(a.locals, b.locals);
            assert_eq!(a.max_pos_dev, b.max_pos_dev);
            assert_eq!(a.max_neg_dev, b.max_neg_dev);
            for i in 0..a.data.relation.num_rows().min(5) {
                assert_eq!(a.predict_row(i), b.predict_row(i));
            }
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let (rel, cfg, store) = mined();
        let a = encode_snapshot(rel.schema(), &cfg, &store);
        let b = encode_snapshot(rel.schema(), &cfg, &store);
        assert_eq!(a, b, "same store must serialize to identical bytes");
    }

    #[test]
    fn layout_covers_the_whole_file() {
        let (rel, cfg, store) = mined();
        let bytes = encode_snapshot(rel.schema(), &cfg, &store);
        let lay = layout(&bytes).unwrap();
        assert_eq!(lay.version, FORMAT_VERSION);
        assert_eq!(lay.header, 0..16);
        assert_eq!(lay.sections.len(), 3);
        assert_eq!(lay.sections[0].1.start, 16);
        assert_eq!(lay.footer.end, bytes.len());
        let mut prev = lay.header.end;
        for (_, r) in &lay.sections {
            assert_eq!(r.start, prev);
            prev = r.end;
        }
        assert_eq!(lay.footer.start, prev);
    }

    #[test]
    fn schema_mismatch_detected() {
        let (rel, cfg, store) = mined();
        let bytes = encode_snapshot(rel.schema(), &cfg, &store);
        // Same arity, different attribute type.
        let other = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Str),
            ("venue", ValueType::Str),
        ])
        .unwrap();
        let other_rel = Relation::new(other);
        match read_snapshot(&bytes, &other_rel) {
            Err(SnapshotError::SchemaMismatch(m)) => assert!(m.contains("year"), "{m}"),
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        // Different arity.
        let narrow = Relation::new(Schema::new([("author", ValueType::Str)]).unwrap());
        assert!(matches!(read_snapshot(&bytes, &narrow), Err(SnapshotError::SchemaMismatch(_))));
    }

    #[test]
    fn version_and_magic_rejections() {
        let (rel, cfg, store) = mined();
        let mut bytes = encode_snapshot(rel.schema(), &cfg, &store);
        // A proper prefix of the magic is a truncation, anything else is
        // not a snapshot — whatever its length, from bytes or from a file.
        let path = std::env::temp_dir().join(format!("cape-magic-{}.cape", std::process::id()));
        for (head, want) in [
            (&b"hello world"[..], SnapshotError::BadMagic),
            (b"hello", SnapshotError::BadMagic),
            (b"CAPESNAQ", SnapshotError::BadMagic),
            (b"CAPES", SnapshotError::Truncated),
            (b"CAPE", SnapshotError::Truncated),
            (b"", SnapshotError::Truncated),
        ] {
            assert_eq!(read_snapshot(head, &rel).unwrap_err(), want, "{head:?}");
            std::fs::write(&path, head).unwrap();
            assert_eq!(load_snapshot(&path, &rel).unwrap_err(), want, "{head:?} from a file");
        }
        std::fs::remove_file(&path).ok();
        bytes[8] = 99; // version field
        assert!(matches!(
            read_snapshot(&bytes, &rel),
            Err(SnapshotError::VersionUnsupported { found: 99 })
        ));
    }

    #[test]
    fn empty_store_roundtrips() {
        let schema = Schema::new([("a", ValueType::Str)]).unwrap();
        let rel = Relation::new(schema);
        let bytes = encode_snapshot(rel.schema(), &MiningConfig::default(), &PatternStore::new());
        let loaded = read_snapshot(&bytes, &rel).unwrap();
        assert!(loaded.store.is_empty());
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let (rel, cfg, store) = mined();
        let dir = std::env::temp_dir().join(format!("cape-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.cape");
        let written = save_snapshot(&path, rel.schema(), &cfg, &store).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let loaded = load_snapshot(&path, &rel).unwrap();
        assert_eq!(loaded.store.len(), store.len());
        // No temp file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        let (rel, _, _) = mined();
        assert!(matches!(
            load_snapshot("/nonexistent/path/store.cape", &rel),
            Err(SnapshotError::Io(_))
        ));
    }
}
