//! In-memory span recorder, Chrome-trace export, self time per layer,
//! and the small order statistics the benchmark reports.
//!
//! Spans are recorded only from the benchmark's own code, around the
//! calls it makes into each crate.  A disabled tracer records nothing,
//! so untraced passes pay one branch per span.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span is charged to: one workspace crate, or the
/// benchmark's own loop and checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Core,
    Sim,
    Serve,
    Store,
    Cost,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Bench,
        Layer::Core,
        Layer::Sim,
        Layer::Serve,
        Layer::Store,
        Layer::Cost,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Core => "core",
            Layer::Sim => "sim",
            Layer::Serve => "serve",
            Layer::Store => "store",
            Layer::Cost => "cost",
        }
    }
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Plan or request id the span worked on (pass index for whole
    /// passes).
    pub id: u64,
}

/// Span recorder with an explicit parent stack.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between spans.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &str, layer: Layer, id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &str, layer: Layer, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, layer, id);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, seconds: each span's duration minus the part
    /// of it that its child spans cover (children never overlap: spans
    /// are opened on one thread).
    pub fn self_time(&self) -> Vec<(Layer, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        Layer::ALL
            .iter()
            .map(|&layer| {
                let ns: u64 = self
                    .spans
                    .iter()
                    .zip(&child_ns)
                    .filter(|(s, _)| s.layer == layer)
                    .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
                    .sum();
                (layer, ns as f64 * 1e-9)
            })
            .collect()
    }

    /// Chrome-trace JSON ("X" complete events, microseconds), with the
    /// provenance as trace metadata.
    pub fn chrome_trace(&self, provenance: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                json_str(&s.name),
                s.layer.name(),
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
                s.id
            );
        }
        out.push_str("\n],\"metadata\":{");
        for (i, (k, v)) in provenance.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(k), json_str(v));
        }
        out.push_str("}}\n");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank percentile of an unsorted sample (`p` in `[0, 1]`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Host time per call of `f`, seconds.  The batch size doubles until
/// one batch takes at least a millisecond (so the clock's resolution and
/// the span itself stay negligible); batches of that size then run until
/// `budget_s` is spent (at least three), each recorded as a span named
/// `name`, and the median batch's per-call time is returned.
pub fn time_per_call(
    tracer: &mut Tracer,
    name: &str,
    layer: Layer,
    budget_s: f64,
    mut f: impl FnMut(usize),
) -> f64 {
    let started = Instant::now();
    let mut call = 0usize;
    let mut run_batch = |batch: usize| {
        let t = Instant::now();
        for _ in 0..batch {
            f(call);
            call += 1;
        }
        t.elapsed().as_secs_f64()
    };
    let mut batch = 1usize;
    while run_batch(batch) < 1e-3 {
        batch *= 2;
    }
    let mut per_call = Vec::new();
    while per_call.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        let secs = tracer.span(name, layer, per_call.len() as u64, || run_batch(batch));
        per_call.push(secs / batch as f64);
    }
    median(&per_call)
}

/// Host time per call, seconds, for calls that need untimed set-up:
/// `f` times its own call and returns the seconds; it runs until
/// `budget_s` is spent (at least `min_calls` times), one span per call,
/// and the median is returned.
pub fn time_each(
    tracer: &mut Tracer,
    name: &str,
    layer: Layer,
    min_calls: usize,
    budget_s: f64,
    mut f: impl FnMut(usize) -> f64,
) -> f64 {
    let started = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < min_calls.max(1) || started.elapsed().as_secs_f64() < budget_s {
        let i = per_call.len();
        per_call.push(tracer.span(name, layer, i as u64, || f(i)));
    }
    median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.begin("outer", Layer::Bench, 0);
        t.span("inner", Layer::Core, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end();
        let st = t.self_time();
        let secs = |s: &Span| (s.end_ns - s.start_ns) as f64 * 1e-9;
        let outer = secs(&t.spans()[0]);
        let inner = secs(&t.spans()[1]);
        let bench = st.iter().find(|(l, _)| *l == Layer::Bench).unwrap().1;
        let core = st.iter().find(|(l, _)| *l == Layer::Core).unwrap().1;
        assert!((bench - (outer - inner)).abs() < 1e-9);
        assert!((core - inner).abs() < 1e-9);
        assert!(
            t.chrome_trace(&[("seed", "1".into())])
                .contains("\"parent\":0")
        );
    }

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
