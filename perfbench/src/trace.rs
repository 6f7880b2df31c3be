//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer's epoch, the span
/// that was open when it began, and the job it served (spans of one job
/// share that index).
pub struct Span {
    pub name: &'static str,
    pub job: Option<usize>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A tracer built with [`Tracer::off`] records nothing, so
/// untraced runs pay one branch per call site.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span as a child of the innermost open one; returns its id.
    pub fn begin(&mut self, name: &'static str, job: Option<usize>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one).
    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = self.now();
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations in ns of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Per span name: (count, total ns, self ns), where a span's self time
    /// is its duration minus the union of its children's intervals.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += s.ns() - covered.min(s.ns());
        }
        out
    }

    /// Tab-separated dump: `id parent job name start_ns end_ns`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tjob\tname\tstart_ns\tend_ns\n");
        let opt = |v: Option<usize>| v.map_or("-".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent),
                opt(s.job),
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}
