//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, run)`: the benchmark opens one
//! around each call into a layer's public functions, nests them by the
//! call structure, and writes them out once the run ends. Spans of one
//! unit of work (one CLI job, one sweep pass, one batch of requests)
//! share a run id. A disabled recorder keeps nothing, so the same code
//! path serves the untraced and the traced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::Json;

/// One recorded span, with times in nanoseconds since the recorder's
/// epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new unit of work: later spans carry the next run id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span measured elsewhere (e.g. on a client thread), as a
    /// child of `parent`, or of the innermost open span when `None`.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let offset = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: offset(start),
            end_ns: offset(end),
            parent: parent.map_or(self.open.last().copied(), |p| p.0),
            run: self.run,
        });
        SpanId(Some(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let mut o = Json::object();
            o.num("id", i as f64)
                .str("name", &s.name)
                .num("start_ns", s.start_ns as f64)
                .num("end_ns", s.end_ns as f64)
                .num("run", f64::from(s.run));
            match s.parent {
                Some(p) => o.num("parent", p as f64),
                None => o.raw("parent", "null"),
            };
            writeln!(out, "{}", o.finish())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            Duration::from_nanos(s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Per run, the summed self time of every span name.
pub fn self_time_by_run(spans: &[Span]) -> BTreeMap<u32, BTreeMap<String, Duration>> {
    let mut out: BTreeMap<u32, BTreeMap<String, Duration>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.run)
            .or_default()
            .entry(s.name.clone())
            .or_default() += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            run: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100] has children [10,40] and [30,60] that overlap on
        // [30,40], and [90,120] that runs past its end; a grandchild
        // [15,25] belongs to the first child only.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        let t: Vec<u64> = self_times(&spans)
            .iter()
            .map(|d| d.as_nanos() as u64)
            .collect();
        // root covers [10,60] ∪ [90,100] = 60ns of its 100.
        assert_eq!(t, vec![40, 20, 30, 30, 10]);
    }

    #[test]
    fn tracer_nests_and_groups_by_run() {
        let mut tr = Tracer::new(true);
        tr.next_run();
        let outer = tr.begin("outer");
        tr.time("inner", || std::thread::sleep(Duration::from_millis(2)));
        tr.end(outer);
        tr.next_run();
        tr.time("outer", || ());
        assert_eq!(tr.spans()[1].parent, Some(0));
        let by_run = self_time_by_run(tr.spans());
        assert_eq!(by_run.len(), 2);
        assert!(by_run[&1]["inner"] >= Duration::from_millis(2));
        assert!(by_run[&1]["outer"] < by_run[&1]["inner"] + tr.spans()[0].duration());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.begin("x");
        tr.end(id);
        tr.record("y", Instant::now(), Instant::now(), None);
        assert!(tr.spans().is_empty());
    }
}
