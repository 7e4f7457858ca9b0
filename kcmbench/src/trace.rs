//! In-memory spans taken by the benchmark around the public calls into
//! each crate. Spans are kept in memory and written out once, when the
//! run ends, so writing them costs nothing while a request is timed.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub req: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }
}

impl Tracer {
    /// Tags the spans that follow with request id `req`.
    pub fn request(&mut self, req: u64) {
        self.req = req;
    }

    /// Runs `f` under a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(idx);
        let start = self.now();
        self.spans[idx].start = start;
        let out = f(self);
        self.spans[idx].end = self.now();
        self.open.pop();
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every duration recorded under `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start, spans[p].end);
            children[p].push((s.start.clamp(lo, hi), s.end.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Total self time per layer, in nanoseconds; a span's layer is its name
/// up to the first dot (`compiler.compile_query` → `compiler`).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer).or_insert(0) += t;
    }
    out
}

/// Coverage of a decomposition: per request, the self times of the
/// `stages` spans directly under a `group` span as a share of the
/// durations of the `total` spans they decompose; the median over the
/// requests that have a `total`, so one slow outlier cannot skew it.
pub fn coverage(spans: &[Span], total: &str, group: &str, stages: &[&str]) -> f64 {
    let mut per_req: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = per_req.entry(s.req).or_default();
        if s.name == total {
            e.0 += s.dur();
        } else if stages.contains(&s.name) && s.parent.is_some_and(|p| spans[p].name == group) {
            e.1 += t;
        }
    }
    let shares: Vec<f64> = per_req
        .values()
        .filter(|(whole, _)| *whole > 0)
        .map(|(whole, parts)| *parts as f64 / *whole as f64)
        .collect();
    crate::stats::median(&shares).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,30) and [20,50) overlap → 40 covered;
        // child [60,70) → 10 more. Grandchild [12,18) is inside a child.
        let spans = vec![
            span("serve.request", 0, 100, None),
            span("compiler.a", 10, 30, Some(0)),
            span("compiler.b", 20, 50, Some(0)),
            span("native.run", 60, 70, Some(0)),
            span("prolog.read", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 10, 6]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["serve"], 50);
        assert_eq!(by_layer["compiler"], 44);
        assert_eq!(by_layer["native"], 10);
        assert_eq!(by_layer["prolog"], 6);
        // Without overlapping siblings, self times add back up to the
        // root's duration.
        let nested = vec![
            span("serve.request", 0, 100, None),
            span("system.run_session", 10, 90, Some(0)),
            span("native.run", 20, 60, Some(1)),
        ];
        assert_eq!(self_times(&nested), vec![20, 40, 40]);
        assert_eq!(self_times(&nested).iter().sum::<u64>(), 100);
    }

    #[test]
    fn coverage_is_the_median_share_per_request() {
        let req = |mut s: Span, r: u64| {
            s.req = r;
            s
        };
        let spans = vec![
            // Request 1: stages cover 90 of a 100 total.
            req(span("system.query", 0, 100, None), 1),
            req(span("replay", 100, 200, None), 1),
            req(span("compiler.q", 100, 150, Some(1)), 1),
            req(span("native.run", 150, 190, Some(1)), 1),
            // Same stage name outside the group: not part of the decomposition.
            req(span("native.run", 200, 260, None), 1),
            // Request 2: an outlier stage, 10x its total.
            req(span("system.query", 300, 310, None), 2),
            req(span("replay", 310, 420, None), 2),
            req(span("native.run", 310, 410, Some(6)), 2),
            // Request 3: 95 of 100.
            req(span("system.query", 500, 600, None), 3),
            req(span("replay", 600, 700, None), 3),
            req(span("native.run", 600, 695, Some(9)), 3),
        ];
        let c = coverage(
            &spans,
            "system.query",
            "replay",
            &["compiler.q", "native.run"],
        );
        assert!((c - 0.95).abs() < 1e-12, "{c}");
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut t = Tracer::default();
        t.request(7);
        t.span("a", |t| t.span("b", |_| ()));
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.req == 7 && s.end >= s.start));
        let mut out = Vec::new();
        t.write_jsonl(&mut out).expect("write");
        assert_eq!(String::from_utf8(out).expect("utf8").lines().count(), 2);
    }
}
