//! In-memory spans recorded by the traced run around each call into a
//! layer. A span has a name, a start, an end and a parent; spans of one
//! request share a trace id. They are kept in memory while the run
//! measures and written out as JSON when it ends; self time (duration
//! minus the part covered by child spans) is derived from them.

use cape_obs::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the log (ids start at 1).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one request (or one set-up).
    pub trace: u64,
    /// Layer name, e.g. `question.resolve`.
    pub name: String,
    /// Start offset.
    pub start_ns: u64,
    /// End offset (≥ start).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A thread-safe, append-only span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::default() }
    }
}

impl SpanLog {
    /// An empty log whose origin is now.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// A fresh id for a span (or a trace) to be recorded later.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span under a pre-allocated `id`.
    pub fn record_with_id(
        &self,
        id: u64,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = self.offset(start);
        let span = Span {
            id,
            parent,
            trace,
            name: name.to_string(),
            start_ns,
            end_ns: self.offset(end).max(start_ns),
        };
        self.spans.lock().expect("span log lock").push(span);
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.record_with_id(id, trace, parent, name, start, end);
        id
    }

    /// A copy of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }
}

/// Per-name aggregate of span self times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals clipped to it (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let entry = out.entry(s.name.clone()).or_default();
        entry.count += 1;
        entry.total_ns += s.dur_ns();
        entry.self_ns += s.dur_ns() - covered;
    }
    out
}

/// Length of the union of `intervals` intersected with `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The span file: `{"spans": [{"id", "parent", "trace", "name",
/// "start_ns", "end_ns"}, ...]}`.
pub fn to_json(spans: &[Span]) -> Json {
    let items = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("id".into(), Json::Num(s.id as f64)),
                ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("trace".into(), Json::Num(s.trace as f64)),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![("spans".into(), Json::Arr(items))])
}

/// Parse a span file written by [`to_json`].
pub fn from_json(doc: &Json) -> Result<Vec<Span>, String> {
    let items = doc.get("spans").and_then(Json::as_arr).ok_or("missing `spans` array")?;
    items
        .iter()
        .map(|item| {
            let num = |key: &str| {
                item.get(key).and_then(Json::as_u64).ok_or_else(|| format!("span field `{key}`"))
            };
            let parent = match item.get("parent") {
                Some(Json::Null) | None => None,
                Some(p) => Some(p.as_u64().ok_or("span field `parent`")?),
            };
            let span = Span {
                id: num("id")?,
                parent,
                trace: num("trace")?,
                name: item.get("name").and_then(Json::as_str).ok_or("span field `name`")?.into(),
                start_ns: num("start_ns")?,
                end_ns: num("end_ns")?,
            };
            if span.end_ns < span.start_ns {
                return Err(format!("span {} ends before it starts", span.id));
            }
            Ok(span)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, trace: 1, name: name.into(), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "request", 0, 100),
            span(2, Some(1), "parse", 10, 30),
            // Two overlapping children count their union (40..70) once.
            span(3, Some(1), "exec", 40, 60),
            span(4, Some(1), "exec", 50, 70),
            // A child running past its parent is clipped to the parent.
            span(5, Some(1), "encode", 90, 120),
            span(6, Some(3), "drill", 45, 55),
        ];
        let st = self_times(&spans);
        assert_eq!(st["request"].self_ns, 100 - 20 - 30 - 10);
        assert_eq!(st["request"].total_ns, 100);
        assert_eq!(st["exec"].count, 2);
        assert_eq!(st["exec"].self_ns, (20 - 10) + 20);
        assert_eq!(st["parse"].self_ns, 20);
        assert_eq!(st["drill"].self_ns, 10);
    }

    #[test]
    fn span_file_round_trips() {
        let log = SpanLog::new();
        let t0 = Instant::now();
        let root = log.record(7, None, "request", t0, t0 + std::time::Duration::from_micros(5));
        log.record(7, Some(root), "question.resolve", t0, Instant::now());
        let spans = log.spans();
        let text = to_json(&spans).to_string();
        let parsed = from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, spans);
        assert_eq!(parsed[1].parent, Some(root));
        assert!(from_json(&Json::parse(r#"{"spans":[{"id":1}]}"#).unwrap()).is_err());
    }
}
