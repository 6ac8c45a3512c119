//! The benchmark's own arithmetic: percentiles, failure counting, and
//! the span recorder whose self times build the per-layer table.

use std::time::Instant;

use confanon_testkit::json::Json;

/// One reported metric: `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// Minimum number of samples that must lie strictly above a reported
/// percentile. A p95 over fewer than 200 samples would rest on a
/// handful of outliers, so it is refused instead of reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of `samples`, or `None`
/// unless at least [`MIN_BEYOND`] samples lie beyond the chosen rank.
/// The median (`q = 0.5`) of small sample sets is exempt from the tail
/// rule, which exists for the upper percentiles.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // The epsilon keeps binary rounding of `q` (0.95 * 200 reads
    // 190.00000000000003) from skipping a rank.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if q > 0.5 && beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Attempted and failed operation counts. For serve, every reply other
/// than `OK` is a failure (`BUSY`, `TIMEOUT`, `DEGRADED`, `QUARANTINED`,
/// `ERROR`, a dropped connection...); for batch, every file that was
/// not released.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations the benchmark submitted.
    pub attempted: u64,
    /// Operations that did not succeed.
    pub failed: u64,
}

impl Outcomes {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts serve replies by status token.
    pub fn from_statuses<'a>(statuses: impl IntoIterator<Item = &'a str>) -> Outcomes {
        let mut o = Outcomes::default();
        for s in statuses {
            o.record(s == "OK");
        }
        o
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `anonymizer.discover`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder. Disabled tracers record nothing and never
/// read the clock, which is how the untraced baseline replay runs.
pub struct Tracer {
    run_id: String,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer for one run.
    pub fn new(run_id: String, enabled: bool) -> Tracer {
        Tracer {
            run_id,
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            self.spans[id].end_ns = self.now_ns();
            debug_assert_eq!(
                self.open.last(),
                Some(&id),
                "spans must close innermost-first"
            );
            self.open.retain(|&o| o != id);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The spans as JSON: name, start, end, parent and run id each.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj()
                    .with("id", i)
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("parent", s.parent.map_or(Json::Null, Json::from))
                    .with("self_ns", self_time_ns(&self.spans, i))
                    .with("run", self.run_id.as_str())
            })
            .collect::<Vec<_>>();
        Json::obj()
            .with("run", self.run_id.as_str())
            .with("spans", Json::Arr(spans))
    }
}

/// Self time of span `i`: its duration minus the part of its interval
/// covered by its direct children. Children may overlap each other (as
/// parallel workers do) or stick out of the parent; covered time is the
/// union of the children's intervals clipped to the parent.
pub fn self_time_ns(spans: &[Span], i: usize) -> u64 {
    let parent = &spans[i];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.start_ns;
    for (a, b) in kids {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        // Rank 190 of 200 leaves exactly ten samples above.
        assert_eq!(percentile(&two_hundred, 0.95), Some(190.0));
        let one_ninety_nine: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&one_ninety_nine, 0.95), None);
        // p99 needs a thousand samples.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&two_hundred, 0.99), None);
    }

    #[test]
    fn percentile_ignores_input_order_and_takes_nearest_rank() {
        let mut v: Vec<f64> = (1..=400).rev().map(f64::from).collect();
        v.swap(0, 399);
        assert_eq!(percentile(&v, 0.5), Some(200.0));
        assert_eq!(percentile(&v, 0.95), Some(380.0));
        assert_eq!(percentile(&[3.0], 0.5), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn every_status_but_ok_is_a_failure() {
        let o = Outcomes::from_statuses([
            "OK",
            "BUSY",
            "OK",
            "TIMEOUT",
            "DEGRADED",
            "QUARANTINED",
            "ERROR",
            "OK",
        ]);
        assert_eq!(
            o,
            Outcomes {
                attempted: 8,
                failed: 5
            }
        );
        assert_eq!(o.failed_frac(), 5.0 / 8.0);
        let mut all = Outcomes::default();
        assert_eq!(all.failed_frac(), 0.0);
        all.absorb(o);
        all.record(true);
        assert_eq!(
            all,
            Outcomes {
                attempted: 9,
                failed: 5
            }
        );
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 20);
        assert_eq!(self_time_ns(&spans, 2), 20);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("w1", 10, 60, Some(0)),
            span("w2", 30, 80, Some(0)),
            span("w3", 40, 50, Some(0)),
            // Sticks out past the parent's end: only 90..100 is covered.
            span("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new("run-1".into(), true);
        let root = t.begin("root");
        t.time("child", || std::hint::black_box(1 + 1));
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let doc = t.to_json();
        assert_eq!(doc.get("run").and_then(Json::as_str), Some("run-1"));

        let mut off = Tracer::new("run-2".into(), false);
        let s = off.begin("root");
        off.end(s);
        assert!(off.spans().is_empty());
    }
}
