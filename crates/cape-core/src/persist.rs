//! Pattern-store persistence: save mined ARPs (with their local models)
//! to a line-based text format and reload them against the base relation.
//!
//! CAPE's workflow is offline mining + online explanation; persisting the
//! mined store lets the two run in different processes. Only the pattern
//! metadata and fitted models are stored — the aggregated group data is
//! recomputed from the relation at load time (one group-by per `F ∪ V`,
//! far cheaper than mining, which also had to enumerate/sort/fit).

use crate::snapshot::{rebuild_store, PatternRecord, RebuildError};
use crate::store::{LocalPattern, PatternStore};
use cape_data::{AggFunc, AttrId, Relation, Value};
use cape_regress::{Fitted, Model, ModelType};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors from reading a persisted store.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// Line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// I/O failure (stringified to keep the error `Clone`).
    Io(String),
    /// The store references attributes the relation does not have.
    SchemaMismatch(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            PersistError::Io(m) => write!(f, "io error: {m}"),
            PersistError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "n:".to_string(),
        Value::Int(i) => format!("i:{i}"),
        Value::Float(f) => format!("f:{}", f.to_bits()),
        Value::Str(s) => {
            let mut out = String::with_capacity(s.len() + 2);
            out.push_str("s:");
            for c in s.chars() {
                match c {
                    '%' => out.push_str("%25"),
                    '|' => out.push_str("%7C"),
                    ' ' => out.push_str("%20"),
                    '\n' => out.push_str("%0A"),
                    c => out.push(c),
                }
            }
            out
        }
    }
}

fn decode_value(s: &str, line: usize) -> Result<Value, PersistError> {
    let err = |m: &str| PersistError::Parse { line, message: m.to_string() };
    let (tag, rest) = s.split_once(':').ok_or_else(|| err("missing value tag"))?;
    match tag {
        "n" => Ok(Value::Null),
        "i" => rest.parse::<i64>().map(Value::Int).map_err(|_| err("bad int")),
        "f" => rest
            .parse::<u64>()
            .map(|bits| Value::Float(f64::from_bits(bits)))
            .map_err(|_| err("bad float bits")),
        "s" => {
            let mut out = String::new();
            let mut chars = rest.chars();
            while let Some(c) = chars.next() {
                if c == '%' {
                    let hi = chars.next().ok_or_else(|| err("bad escape"))?;
                    let lo = chars.next().ok_or_else(|| err("bad escape"))?;
                    let byte = u8::from_str_radix(&format!("{hi}{lo}"), 16)
                        .map_err(|_| err("bad escape hex"))?;
                    out.push(byte as char);
                } else {
                    out.push(c);
                }
            }
            Ok(Value::str(out))
        }
        _ => Err(err("unknown value tag")),
    }
}

fn encode_model(m: &Model) -> String {
    match m {
        Model::Constant { beta } => format!("const {}", beta.to_bits()),
        Model::Linear { intercept, coefs } => {
            let cs: Vec<String> = coefs.iter().map(|c| c.to_bits().to_string()).collect();
            format!("lin {} {}", intercept.to_bits(), cs.join(","))
        }
        Model::Quadratic { intercept, lin, quad } => {
            let ls: Vec<String> = lin.iter().map(|c| c.to_bits().to_string()).collect();
            let qs: Vec<String> = quad.iter().map(|c| c.to_bits().to_string()).collect();
            format!("quad {} {} {}", intercept.to_bits(), ls.join(","), qs.join(","))
        }
    }
}

fn decode_model(s: &str, line: usize) -> Result<Model, PersistError> {
    let err = |m: &str| PersistError::Parse { line, message: m.to_string() };
    let mut parts = s.split_whitespace();
    match parts.next() {
        Some("const") => {
            let bits = parts.next().ok_or_else(|| err("missing beta"))?;
            let beta = f64::from_bits(bits.parse().map_err(|_| err("bad beta"))?);
            Ok(Model::Constant { beta })
        }
        Some("lin") => {
            let bits = parts.next().ok_or_else(|| err("missing intercept"))?;
            let intercept = f64::from_bits(bits.parse().map_err(|_| err("bad intercept"))?);
            let coefs_str = parts.next().ok_or_else(|| err("missing coefs"))?;
            let coefs: Result<Vec<f64>, _> =
                coefs_str.split(',').map(|c| c.parse::<u64>().map(f64::from_bits)).collect();
            Ok(Model::Linear { intercept, coefs: coefs.map_err(|_| err("bad coef"))? })
        }
        Some("quad") => {
            let bits = parts.next().ok_or_else(|| err("missing intercept"))?;
            let intercept = f64::from_bits(bits.parse().map_err(|_| err("bad intercept"))?);
            let parse_list = |s: &str| -> Result<Vec<f64>, PersistError> {
                s.split(',')
                    .map(|c| c.parse::<u64>().map(f64::from_bits))
                    .collect::<Result<Vec<f64>, _>>()
                    .map_err(|_| err("bad coef"))
            };
            let lin = parse_list(parts.next().ok_or_else(|| err("missing lin coefs"))?)?;
            let quad = parse_list(parts.next().ok_or_else(|| err("missing quad coefs"))?)?;
            Ok(Model::Quadratic { intercept, lin, quad })
        }
        _ => Err(err("unknown model kind")),
    }
}

fn agg_name(agg: AggFunc) -> &'static str {
    agg.name()
}

fn parse_agg(s: &str, line: usize) -> Result<AggFunc, PersistError> {
    match s {
        "count" => Ok(AggFunc::Count),
        "sum" => Ok(AggFunc::Sum),
        "min" => Ok(AggFunc::Min),
        "max" => Ok(AggFunc::Max),
        "avg" => Ok(AggFunc::Avg),
        _ => Err(PersistError::Parse { line, message: format!("unknown agg `{s}`") }),
    }
}

fn ids(list: &[AttrId]) -> String {
    list.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",")
}

fn parse_ids(s: &str, line: usize) -> Result<Vec<AttrId>, PersistError> {
    s.split(',')
        .map(|p| {
            p.parse::<AttrId>()
                .map_err(|_| PersistError::Parse { line, message: format!("bad attr id `{p}`") })
        })
        .collect()
}

/// Serialize the store. Format (one record per line):
///
/// ```text
/// cape-store v1
/// pattern f=0,3 v=2 agg=count attr=- model=Const conf=<bits> supp=12
/// local key=s:AX|s:SIGKDD n=10 gof=<bits> pos=<bits> neg=<bits> model=const <bits>
/// ```
pub fn write_store<W: Write>(w: &mut W, store: &PatternStore) -> Result<(), PersistError> {
    writeln!(w, "cape-store v1")?;
    for (_, inst) in store.iter() {
        let attr = match inst.arp.agg_attr {
            Some(a) => a.to_string(),
            None => "-".to_string(),
        };
        writeln!(
            w,
            "pattern f={} v={} agg={} attr={} model={} conf={} supp={}",
            ids(inst.arp.f()),
            ids(inst.arp.v()),
            agg_name(inst.arp.agg),
            attr,
            inst.arp.model,
            inst.confidence.to_bits(),
            inst.num_supported,
        )?;
        // Deterministic order for reproducible files.
        let mut keys: Vec<&Vec<Value>> = inst.locals.keys().collect();
        keys.sort();
        for key in keys {
            let local = &inst.locals[key];
            let enc_key: Vec<String> = key.iter().map(encode_value).collect();
            writeln!(
                w,
                "local key={} n={} gof={} pos={} neg={} model={}",
                enc_key.join("|"),
                local.support,
                local.fitted.gof.to_bits(),
                local.max_pos_dev.to_bits(),
                local.max_neg_dev.to_bits(),
                encode_model(&local.fitted.model),
            )?;
        }
    }
    Ok(())
}

fn field<'a>(parts: &'a [(&str, &str)], name: &str, line: usize) -> Result<&'a str, PersistError> {
    parts
        .iter()
        .find(|(k, _)| *k == name)
        .map(|(_, v)| *v)
        .ok_or_else(|| PersistError::Parse { line, message: format!("missing field `{name}`") })
}

/// Deserialize a store, recomputing the shared group data from `rel`. A
/// pattern that breaks an ARP invariant is a parse error at its line.
pub fn read_store<R: Read>(r: R, rel: &Relation) -> Result<PatternStore, PersistError> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines().enumerate();
    let (_, header) =
        lines.next().ok_or(PersistError::Parse { line: 1, message: "empty file".into() })?;
    if header?.trim() != "cape-store v1" {
        return Err(PersistError::Parse { line: 1, message: "bad header".into() });
    }

    let mut records: Vec<PatternRecord> = Vec::new();
    let mut record_lines: Vec<usize> = Vec::new();

    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (kind, rest) = line
            .split_once(' ')
            .ok_or(PersistError::Parse { line: line_no, message: "bad record".into() })?;
        let parts: Vec<(&str, &str)> = rest
            .split(' ')
            .filter(|p| !p.is_empty())
            .map(|p| p.split_once('=').unwrap_or((p, "")))
            .collect();
        match kind {
            "pattern" => {
                let f = parse_ids(field(&parts, "f", line_no)?, line_no)?;
                let v = parse_ids(field(&parts, "v", line_no)?, line_no)?;
                let agg = parse_agg(field(&parts, "agg", line_no)?, line_no)?;
                let attr_s = field(&parts, "attr", line_no)?;
                let agg_attr = if attr_s == "-" {
                    None
                } else {
                    Some(attr_s.parse::<AttrId>().map_err(|_| PersistError::Parse {
                        line: line_no,
                        message: "bad agg attr".into(),
                    })?)
                };
                let model = match field(&parts, "model", line_no)? {
                    "Const" => ModelType::Const,
                    "Lin" => ModelType::Lin,
                    "Quad" => ModelType::Quad,
                    other => {
                        return Err(PersistError::Parse {
                            line: line_no,
                            message: format!("unknown model `{other}`"),
                        })
                    }
                };
                let confidence =
                    f64::from_bits(field(&parts, "conf", line_no)?.parse().map_err(|_| {
                        PersistError::Parse { line: line_no, message: "bad confidence".into() }
                    })?);
                let num_supported = field(&parts, "supp", line_no)?.parse().map_err(|_| {
                    PersistError::Parse { line: line_no, message: "bad support".into() }
                })?;
                records.push(PatternRecord {
                    f,
                    v,
                    agg,
                    agg_attr,
                    model,
                    confidence,
                    num_supported,
                    locals: HashMap::new(),
                });
                record_lines.push(line_no);
            }
            "local" => {
                let record = records.last_mut().ok_or(PersistError::Parse {
                    line: line_no,
                    message: "local before pattern".into(),
                })?;
                let key: Result<Vec<Value>, _> = field(&parts, "key", line_no)?
                    .split('|')
                    .map(|p| decode_value(p, line_no))
                    .collect();
                let support = field(&parts, "n", line_no)?
                    .parse()
                    .map_err(|_| PersistError::Parse { line: line_no, message: "bad n".into() })?;
                let bits = |name: &str| -> Result<f64, PersistError> {
                    Ok(f64::from_bits(field(&parts, name, line_no)?.parse().map_err(|_| {
                        PersistError::Parse {
                            line: line_no,
                            message: format!("bad bits for {name}"),
                        }
                    })?))
                };
                let gof = bits("gof")?;
                let max_pos_dev = bits("pos")?;
                let max_neg_dev = bits("neg")?;
                // ` model=` is the final field; everything after it is the
                // space-separated model encoding. The leading space cannot
                // appear inside other fields because values escape spaces.
                let model_pos = rest.find(" model=").ok_or(PersistError::Parse {
                    line: line_no,
                    message: "missing model".into(),
                })?;
                let model = decode_model(&rest[model_pos + 7..], line_no)?;
                record.locals.insert(
                    key?,
                    LocalPattern {
                        fitted: Fitted { model, gof, n: support },
                        support,
                        max_pos_dev,
                        max_neg_dev,
                    },
                );
            }
            other => {
                return Err(PersistError::Parse {
                    line: line_no,
                    message: format!("unknown record `{other}`"),
                })
            }
        }
    }

    rebuild_store(records, rel).map_err(|e| match e {
        RebuildError::Invalid { index, why } => {
            PersistError::Parse { line: record_lines[index], message: why.to_string() }
        }
        RebuildError::Schema(m) => PersistError::SchemaMismatch(m),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MiningConfig, Thresholds};
    use crate::mining::{Miner, ShareGrpMiner};
    use cape_data::{Schema, ValueType};

    fn mined() -> (Relation, PatternStore) {
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
                        Value::str(format!("a {a}|x%")), // exercise escaping
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
        (rel, store)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (rel, store) = mined();
        assert!(!store.is_empty());
        let mut buf = Vec::new();
        write_store(&mut buf, &store).unwrap();
        let back = read_store(&buf[..], &rel).unwrap();
        assert_eq!(back.len(), store.len());
        for ((_, a), (_, b)) in store.iter().zip(back.iter()) {
            assert_eq!(a.arp, b.arp);
            assert_eq!(a.confidence, b.confidence);
            assert_eq!(a.num_supported, b.num_supported);
            assert_eq!(a.locals.len(), b.locals.len());
            assert_eq!(a.max_pos_dev, b.max_pos_dev);
            assert_eq!(a.max_neg_dev, b.max_neg_dev);
            for (key, la) in &a.locals {
                let lb = &b.locals[key];
                assert_eq!(la.fitted, lb.fitted);
                assert_eq!(la.support, lb.support);
                assert_eq!(la.max_pos_dev, lb.max_pos_dev);
            }
            // Group data was recomputed and serves the same predictions.
            for i in 0..a.data.relation.num_rows().min(5) {
                assert_eq!(a.predict_row(i), b.predict_row(i));
            }
        }
    }

    #[test]
    fn value_codec_roundtrip() {
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Float(3.25),
            Value::Float(-0.0),
            Value::str("plain"),
            Value::str("with space|pipe%percent\nnewline"),
        ] {
            let enc = encode_value(&v);
            let dec = decode_value(&enc, 1).unwrap();
            assert_eq!(dec, v, "roundtrip failed for {enc}");
        }
    }

    #[test]
    fn model_codec_roundtrip() {
        for m in [
            Model::Constant { beta: 4.5 },
            Model::Linear { intercept: -1.25, coefs: vec![0.5, 3.0] },
            Model::Quadratic { intercept: 0.5, lin: vec![1.0, -2.0], quad: vec![0.25, 4.0] },
        ] {
            let enc = encode_model(&m);
            assert_eq!(decode_model(&enc, 1).unwrap(), m);
        }
    }

    #[test]
    fn bad_inputs_rejected() {
        let (rel, _) = mined();
        assert!(read_store("not a store".as_bytes(), &rel).is_err());
        assert!(read_store("cape-store v1\nbogus record".as_bytes(), &rel).is_err());
        assert!(read_store(
            "cape-store v1\nlocal key=i:1 n=1 gof=0 pos=0 neg=0 model=const 0".as_bytes(),
            &rel
        )
        .is_err());
        // Pattern referencing attribute 9 with arity 3.
        let bad = "cape-store v1\npattern f=9 v=1 agg=count attr=- model=Const conf=0 supp=1";
        assert!(matches!(read_store(bad.as_bytes(), &rel), Err(PersistError::SchemaMismatch(_))));
    }

    #[test]
    fn explanations_identical_after_reload() {
        use crate::explain::{ExplainConfig, TopKExplainer};
        use crate::prelude::OptimizedExplainer;
        use crate::question::{Direction, UserQuestion};

        let (rel, store) = mined();
        let mut buf = Vec::new();
        write_store(&mut buf, &store).unwrap();
        let back = read_store(&buf[..], &rel).unwrap();

        let uq = UserQuestion::from_query(
            &rel,
            vec![0, 2, 1],
            AggFunc::Count,
            None,
            vec![Value::str("a 0|x%"), Value::str("KDD"), Value::Int(2003)],
            Direction::Low,
        )
        .unwrap();
        let cfg = ExplainConfig::default_for(&rel, 10);
        let (a, _) = OptimizedExplainer.explain(&store, &uq, &cfg);
        let (b, _) = OptimizedExplainer.explain(&back, &uq, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tuple, y.tuple);
            assert!((x.score - y.score).abs() < 1e-12);
        }
    }
}
