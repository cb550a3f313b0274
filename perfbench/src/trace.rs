//! Spans recorded by the benchmark around its calls into each layer. Each
//! thread records into its own [`Local`] (no locking on the measured path);
//! [`Sink::submit`] merges a finished thread's spans, and [`Sink::write`]
//! writes them all out at exit. Nothing here reaches into the program: the
//! spans sit at the benchmark's call sites.

use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. `parent` indexes the sink's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// All spans of one traced run, on one clock.
pub struct Sink {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Sink {
    pub fn new() -> Self {
        Sink {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn local(self: &Arc<Self>, rank: usize) -> Local {
        Local {
            sink: Arc::clone(self),
            rank,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Append a thread's spans, rebasing their parent links.
    pub fn submit(&self, local: Local) {
        assert!(local.open.is_empty(), "span left open");
        let mut all = self.spans.lock().expect("span sink poisoned");
        let base = all.len();
        all.extend(local.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// One JSON object per line: name, rank, start, end, parent index.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span sink poisoned").iter() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"name\":\"{}\",\"rank\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.rank, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One thread's open and closed spans.
pub struct Local {
    sink: Arc<Sink>,
    rank: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Local {
    fn now(&self) -> u64 {
        self.sink.t0.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            rank: self.rank,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now();
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            rank: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the first child
            span(60, 70, Some(0)),
            span(12, 14, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50, 18, 30, 10, 2]);
    }

    #[test]
    fn submit_rebases_parents() {
        let sink = Arc::new(Sink::new());
        for rank in 0..2 {
            let mut l = sink.local(rank);
            l.span("outer", || ());
            l.begin("root");
            l.span("child", || ());
            l.end();
            sink.submit(l);
        }
        let spans = sink.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[5].parent, Some(4));
        assert_eq!(spans[5].rank, 1);
        assert_eq!(spans[3].parent, None);
    }
}
