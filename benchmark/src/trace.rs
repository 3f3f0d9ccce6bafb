//! The benchmark's own spans, recorded around calls into the engine's public
//! functions and kept in memory until the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed region. Spans of one operation share `query`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub query: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder; spans nest by begin/end order.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    query: u32,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`. Recorders of
    /// several threads share one origin so their spans line up.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::with_capacity(1 << 12),
            open: Vec::new(),
            query: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the query id stamped on the spans begun from now on.
    pub fn set_query(&mut self, query: u32) {
        self.query = query;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            query: self.query,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns its
    /// duration in seconds.
    pub fn end(&mut self, id: u32) -> f64 {
        let end_ns = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns() as f64 / 1e9
    }

    /// Times `body` as a span and returns its result and duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let value = body();
        (value, self.end(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another recorder's spans, renumbering them after this one's.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.id += base;
            span.parent = span.parent.map(|parent| parent + base);
            span
        }));
    }
}

/// Self time of every span, by span id: its duration minus the part its
/// direct children cover. Children lie inside their parent and do not
/// overlap (one thread, begin/end order), so the difference is never
/// negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent as usize] = own[parent as usize].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Writes `trace.<workload>.json`: span names once, then one row per span —
/// `[id, parent, query, name, start_us, end_us, self_us]`, `parent` -1 for a
/// root, `name` an index into `names`.
pub fn write_trace(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut names: Vec<&'static str> = Vec::new();
    let mut index: HashMap<&'static str, usize> = HashMap::new();
    for span in spans {
        index.entry(span.name).or_insert_with(|| {
            names.push(span.name);
            names.len() - 1
        });
    }
    let own = self_times_ns(spans);
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let quoted: Vec<String> = names.iter().map(|name| format!("\"{name}\"")).collect();
    writeln!(
        file,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\
         \"columns\":[\"id\",\"parent\",\"query\",\"name\",\"start_us\",\"end_us\",\"self_us\"],\
         \"names\":[{}],\"spans\":[",
        quoted.join(",")
    )?;
    for (position, span) in spans.iter().enumerate() {
        writeln!(
            file,
            "[{},{},{},{},{:.3},{:.3},{:.3}]{}",
            span.id,
            span.parent.map_or(-1, i64::from),
            span.query,
            index[span.name],
            span.start_ns as f64 / 1e3,
            span.end_ns as f64 / 1e3,
            own[span.id as usize] as f64 / 1e3,
            if position + 1 == spans.len() { "" } else { "," }
        )?;
    }
    writeln!(file, "]}}")?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorded_children_never_exceed_their_parent() {
        let mut recorder = Recorder::new(Instant::now());
        recorder.set_query(7);
        let root = recorder.begin("root");
        for _ in 0..3 {
            let child = recorder.begin("child");
            let (_, _) = recorder.time("leaf", || std::hint::black_box(1 + 1));
            recorder.end(child);
        }
        recorder.end(root);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 7);
        assert!(spans.iter().all(|s| s.query == 7));
        let own = self_times_ns(spans);
        for span in spans {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(span.id))
                .map(Span::duration_ns)
                .sum();
            assert!(children <= span.duration_ns());
            assert_eq!(own[span.id as usize], span.duration_ns() - children);
            if let Some(parent) = span.parent {
                let parent = &spans[parent as usize];
                assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
            }
        }
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        let id = a.begin("a");
        a.end(id);
        let mut b = Recorder::new(origin);
        let outer = b.begin("outer");
        let inner = b.begin("inner");
        b.end(inner);
        b.end(outer);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans[2].id, 2);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].parent, None);
    }
}
