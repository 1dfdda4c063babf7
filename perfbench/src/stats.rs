//! Order statistics and span bookkeeping.
//!
//! Timings are reported as their median plus the highest percentile of
//! the ladder p90 / p99 / p99.9 that still has at least ten samples
//! beyond it, together with the sample count. Spans are recorded in
//! memory around calls into each layer and written out once the traced
//! run ends; a span's self time is its duration minus the time its
//! direct children cover.

use std::io::Write as _;
use std::time::Instant;

/// Nearest-rank percentile `p` (0..=100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Percentiles considered for the tail, highest last.
const TAIL_LADDER: [f64; 3] = [90.0, 99.0, 99.9];

/// Median, tail percentile and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest ladder percentile with at least ten samples beyond
    /// it; `None` when even p90 has fewer (under 100 samples).
    pub tail_pct: Option<f64>,
    /// The value at `tail_pct` (the median when `tail_pct` is `None`).
    pub tail: f64,
}

impl Summary {
    /// Summarize a non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let n = s.len();
        let tail_pct = TAIL_LADDER
            .iter()
            .copied()
            .rev()
            .find(|&p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9);
        let p50 = median(&s);
        Summary {
            n,
            p50,
            tail_pct,
            tail: tail_pct.map_or(p50, |p| percentile(&s, p)),
        }
    }

    /// `p50 X, p99 Y (n=N)` with values scaled and suffixed by `unit`.
    pub fn render(&self, unit: &str) -> String {
        match self.tail_pct {
            Some(p) => format!(
                "p50 {:.3}{unit}, p{p} {:.3}{unit} (n={})",
                self.p50, self.tail, self.n
            ),
            None => format!(
                "p50 {:.3}{unit} (n={}; too few samples for a tail)",
                self.p50, self.n
            ),
        }
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `a / b = r` for reports that print a ratio with its base.
pub fn show_ratio(name: &str, num: f64, den: f64) -> String {
    format!("{name} = {num} / {den} = {:.4}", ratio(num, den))
}

/// One recorded span: a timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `monitor.feed`.
    pub name: &'static str,
    /// Id shared by every span of one session or one (history, model)
    /// check.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer started.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder with a stack of open spans.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (r, end_ns - start_ns)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write `header` and then the spans as JSON lines, with self
    /// times.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.group, s.start_ns, s.end_ns, selfs[i]
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Spans nest (one thread, stack discipline), so the
/// children of one span never overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur_ns());
        }
    }
    out
}

/// Sum of self times of spans whose name satisfies `is_layer`.
pub fn layer_self_ns(spans: &[Span], is_layer: impl Fn(&str) -> bool) -> u64 {
    self_times(spans)
        .iter()
        .zip(spans)
        .filter(|(_, s)| is_layer(s.name))
        .map(|(t, _)| *t)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            group: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90)
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a nest partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(layer_self_ns(&spans, |n| n != "root"), 70);
    }

    #[test]
    fn tracer_nests_spans_and_parents_them() {
        let mut t = Tracer::new();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[1].end_ns <= s[2].start_ns);
        let selfs = self_times(s);
        assert_eq!(selfs[0] + s[1].dur_ns() + s[2].dur_ns(), s[0].dur_ns());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(
            (s.n, s.p50, s.tail_pct, s.tail),
            (1000, 500.5, Some(99.0), 990.0)
        );
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(Summary::of(&v).tail_pct, Some(99.9));
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(Summary::of(&v).tail_pct, Some(90.0));
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.tail_pct, s.tail), (None, 50.0));
    }

    #[test]
    fn percentile_and_median_edges() {
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn ratios_with_an_empty_base_are_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(show_ratio("r", 1.0, 4.0), "r = 1 / 4 = 0.2500");
    }
}
