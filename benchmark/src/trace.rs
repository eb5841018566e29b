//! The benchmark's own recorder: op latencies always, and — in a traced
//! round — a span around every public call into a layer plus the counts
//! those calls return.
//!
//! A run plays one seed-determined round again and again, so op `i` of
//! every repetition does the same work. The recorder keeps, per op
//! position, the fastest of its repetitions: the host can only slow an op
//! down, so the fastest repetition is the closest to the op's own cost.
//!
//! Spans live in memory and are written out once, as Chrome
//! `trace_event` JSON, when the run ends. Every span belongs to the op
//! that was running when it opened, and that op's own span is its parent.
//! Layer spans never nest inside each other (each wraps one public call,
//! timed from outside), so a layer's self time equals its busy time and
//! an op's self time is the part of it no layer span covers.

use rmt_bench::baseline::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer name, or `"op"` for an op's root span.
    name: &'static str,
    /// The op the span belongs to; for a layer span, the parent is the
    /// `"op"` span with the same id.
    op: u64,
    start: Instant,
    end: Instant,
}

/// Op samples, failure counts, and (while tracing) spans and counters.
#[derive(Debug)]
pub struct Recorder {
    tracing: bool,
    /// Whether counters are kept: in the first traced round only, so they
    /// cover a fixed set of ops however long the run is.
    counting: bool,
    epoch: Instant,
    /// Start of the op now running: the end of the previous op, or the
    /// start of the round.
    mark: Instant,
    op: u64,
    /// Position of the next op within its round.
    pos: usize,
    /// Ops left under an op budget (`None` when the round runs in full).
    budget: Option<usize>,
    spans: Vec<Span>,
    counts: BTreeMap<String, f64>,
    /// Sum of logarithms and sample count per geometric-mean key.
    geo: BTreeMap<&'static str, (f64, u64)>,
    /// Fastest untraced latency per op position, in milliseconds.
    pub(crate) best_ms: Vec<f64>,
    /// Fastest traced latency per op position, in milliseconds.
    pub(crate) best_traced_ms: Vec<f64>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) traced_ops: u64,
    pub(crate) counted_ops: u64,
    pub(crate) failures: Vec<String>,
}

impl Recorder {
    /// A recorder that lets `budget` ops run (`None`: no limit). One made
    /// for set-up or warm-up work is dropped unread.
    pub(crate) fn new(budget: Option<usize>) -> Self {
        let now = Instant::now();
        Recorder {
            tracing: false,
            counting: false,
            epoch: now,
            mark: now,
            op: 0,
            pos: 0,
            budget,
            spans: Vec::new(),
            counts: BTreeMap::new(),
            geo: BTreeMap::new(),
            best_ms: Vec::new(),
            best_traced_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            traced_ops: 0,
            counted_ops: 0,
            failures: Vec::new(),
        }
    }

    /// Starts a round: sets its op budget and mode, and starts the clock
    /// of its first op.
    pub(crate) fn start_round(&mut self, budget: Option<usize>, tracing: bool, counting: bool) {
        self.budget = budget;
        self.tracing = tracing;
        self.counting = counting;
        self.pos = 0;
        self.mark = Instant::now();
    }

    /// `false` once an op budget is spent; workloads stop their round.
    pub fn more(&self) -> bool {
        self.budget != Some(0)
    }

    /// Runs one public call of `layer`, recording its span when tracing.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.tracing {
            return f();
        }
        self.add(layer, "calls", 1.0);
        let start = Instant::now();
        let out = f();
        self.spans.push(Span {
            name: layer,
            op: self.op,
            start,
            end: Instant::now(),
        });
        out
    }

    /// Adds to the counter `<layer>.<metric>` in the counted round.
    pub fn add(&mut self, layer: &str, metric: &str, v: f64) {
        if self.counting {
            *self.counts.entry(format!("{layer}.{metric}")).or_default() += v;
        }
    }

    /// Adds a sample to a geometric mean in the counted round.
    pub fn geo(&mut self, key: &'static str, ratio: f64) {
        if self.counting && ratio > 0.0 {
            let e = self.geo.entry(key).or_default();
            e.0 += ratio.ln();
            e.1 += 1;
        }
    }

    /// Ends the running op: everything since the previous op ended (or the
    /// round started) is its latency. A failed op carries its reason.
    pub fn op_done(&mut self, failure: Option<String>) {
        let now = Instant::now();
        self.attempted += 1;
        if let Some(f) = failure {
            self.failed += 1;
            // Keep the report readable when one bug fails many ops.
            if self.failures.len() < 20 {
                self.failures.push(f);
            }
        }
        let ms = (now - self.mark).as_secs_f64() * 1e3;
        let best = if self.tracing {
            self.spans.push(Span {
                name: "op",
                op: self.op,
                start: self.mark,
                end: now,
            });
            self.traced_ops += 1;
            &mut self.best_traced_ms
        } else {
            &mut self.best_ms
        };
        match best.get_mut(self.pos) {
            Some(b) => *b = b.min(ms),
            None => best.push(ms),
        }
        if self.counting {
            self.counted_ops += 1;
        }
        self.pos += 1;
        self.op += 1;
        if let Some(b) = &mut self.budget {
            *b = b.saturating_sub(1);
        }
        self.mark = now;
    }

    pub(crate) fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    pub(crate) fn geomean(&self, key: &str) -> f64 {
        match self.geo.get(key) {
            Some(&(sum, n)) if n > 0 => (sum / n as f64).exp(),
            _ => 0.0,
        }
    }

    /// Busy milliseconds of one layer over the traced rounds.
    pub(crate) fn busy_ms(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == layer)
            .fold(0.0, |ms, s| ms + (s.end - s.start).as_secs_f64() * 1e3)
    }

    /// Self time per span name, in milliseconds: layers keep their whole
    /// duration (they never nest), and `"op"` keeps the part of each op
    /// that no layer span covers.
    pub(crate) fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            let ms = (s.end - s.start).as_secs_f64() * 1e3;
            *out.entry(s.name).or_default() += ms;
            if s.name != "op" {
                *out.entry("op").or_default() -= ms;
            }
        }
        out
    }

    /// The spans as a Chrome `trace_event` document (one process, one
    /// thread; timestamps in microseconds since the recorder was made).
    pub(crate) fn chrome_trace(&self) -> String {
        let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
        let events = self
            .spans
            .iter()
            .map(|s| {
                let parent = if s.name == "op" {
                    Json::Null
                } else {
                    Json::Str(format!("op {}", s.op))
                };
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    (
                        "cat".into(),
                        Json::Str(s.name.split('.').next().unwrap_or(s.name).into()),
                    ),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(us(s.start))),
                    ("dur".into(), Json::Num(us(s.end) - us(s.start))),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(1.0)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("op".into(), Json::Num(s.op as f64)),
                            ("parent".into(), parent),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]).to_string()
    }
}
