//! Wall-clock spans recorded by the benchmark around the public calls
//! it makes into each layer, kept in memory and written at the end as a
//! Chrome trace-event document that Perfetto opens.

use std::time::Instant;
use vgrid_simobs::json;

/// One timed interval. `parent` indexes the enclosing span in the same
/// list; a span without one is a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Thread track (client tenant, or 0 for the calling thread).
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// One-line text form `span <parent|-> <start_ns> <end_ns> <tid> <name>`
    /// used between benchmark processes.
    pub fn to_line(&self) -> String {
        let parent = self.parent.map_or("-".to_string(), |p| p.to_string());
        format!(
            "span {parent} {} {} {} {}",
            self.start_ns, self.end_ns, self.tid, self.name
        )
    }

    /// Inverse of [`Span::to_line`] (without the leading `span `).
    pub fn from_fields(fields: &str) -> Option<Span> {
        let mut it = fields.splitn(5, ' ');
        let parent = match it.next()? {
            "-" => None,
            p => Some(p.parse().ok()?),
        };
        Some(Span {
            start_ns: it.next()?.parse().ok()?,
            end_ns: it.next()?.parse().ok()?,
            tid: it.next()?.parse().ok()?,
            name: it.next()?.to_string(),
            parent,
        })
    }
}

/// Collects spans relative to one base instant.
#[derive(Debug)]
pub struct Recorder {
    base: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(base: Instant) -> Recorder {
        Recorder {
            base,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Record a finished interval; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        tid: u32,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            tid,
        });
        self.spans.len() - 1
    }

    /// Open a span that ends at the matching [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let t = crate::now();
        self.push(name, parent, t, t, 0)
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.ns(crate::now());
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name, Some(parent));
        let out = f();
        self.close(idx);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Nanoseconds of span `idx` that its direct children cover (the union
/// of their intervals, clipped to the span).
pub fn covered_ns(spans: &[Span], idx: usize) -> u64 {
    let outer = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(outer.start_ns), s.end_ns.min(outer.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort();
    let (mut total, mut reach) = (0, outer.start_ns);
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// A span's duration minus the time its children cover.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    spans[idx].dur_ns() - covered_ns(spans, idx)
}

/// Render `(pid, process name, spans)` groups as Chrome trace-event JSON
/// (`ph:"X"` complete events, microsecond timestamps). Each span's
/// `args` carry its parent's name and its self time.
pub fn chrome_json(processes: &[(u32, String, Vec<Span>)]) -> String {
    let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
    let mut events = Vec::new();
    for (pid, pname, spans) in processes {
        events.push(json::object(&[
            ("args", json::object(&[("name", json::string(pname))])),
            ("name", json::string("process_name")),
            ("ph", json::string("M")),
            ("pid", pid.to_string()),
            ("tid", "0".to_string()),
        ]));
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("", |p| spans[p].name.as_str());
            events.push(json::object(&[
                (
                    "args",
                    json::object(&[
                        ("parent", json::string(parent)),
                        ("self_us", us(self_ns(spans, i))),
                    ]),
                ),
                ("dur", us(s.dur_ns())),
                ("name", json::string(&s.name)),
                ("ph", json::string("X")),
                ("pid", pid.to_string()),
                ("tid", s.tid.to_string()),
                ("ts", us(s.start_ns)),
            ]));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
            tid: 0,
        }
    }

    #[test]
    fn coverage_unions_overlapping_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 80, 120),
            span("grandchild", Some(1), 0, 100),
        ];
        assert_eq!(covered_ns(&spans, 0), 50 + 20);
        assert_eq!(self_ns(&spans, 0), 30);
        assert_eq!(self_ns(&spans, 1), 0);
    }

    #[test]
    fn lines_round_trip_and_trace_is_valid_json() {
        let spans = vec![span("root", None, 5, 9), span("x y", Some(0), 6, 8)];
        for s in &spans {
            let line = s.to_line();
            let back = Span::from_fields(line.strip_prefix("span ").unwrap()).unwrap();
            assert_eq!(&back, s);
        }
        let doc = chrome_json(&[(1, "p".to_string(), spans)]);
        let parsed = crate::json::parse(&doc).expect("trace is JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert_eq!(events.len(), 3);
    }
}
