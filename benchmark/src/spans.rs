//! Wall-clock spans recorded around calls into the program's layers.
//!
//! The program itself carries no wall-clock instrumentation (its trace is
//! keyed on logical time only), so every span here is taken from outside:
//! around `StepRunner::run`/`ParRunner::run`, around each `round()` call
//! through the [`Timed`] wrapper, and around the beacon service's calls.
//! Spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dprbg_sim::{BoxedMachine, RoundMachine, RoundView, Step};

/// One closed interval in the span tree.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer the span's self time is charged to.
    pub layer: &'static str,
    pub name: String,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// An in-memory span recorder rooted at one workload span.
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose root span (index 0) is the workload itself.
    pub fn new(workload: &str) -> Self {
        let now = Instant::now();
        Tracer {
            spans: vec![Span {
                layer: "workload",
                name: workload.to_string(),
                parent: None,
                start: now,
                end: now,
            }],
        }
    }

    /// The root span's index.
    pub const ROOT: usize = 0;

    /// Record a finished span and return its index.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        parent: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            layer,
            name: name.into(),
            parent: Some(parent),
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Extend a span's end to now (the root closes when the run ends).
    fn close_root(&mut self) {
        self.spans[Self::ROOT].end = Instant::now();
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that its children cover (children of a parallel run overlap, so
    /// the covered part is the union of their intervals).
    fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort();
                let mut covered = 0.0;
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    if b > a {
                        covered += (b - a).as_secs_f64();
                        cursor = b;
                    }
                }
                ((s.end - s.start).as_secs_f64() - covered).max(0.0)
            })
            .collect()
    }

    /// Print self time per layer, with its share of the workload span.
    pub fn print_self_times(&mut self) {
        self.close_root();
        let total = (self.spans[Self::ROOT].end - self.spans[Self::ROOT].start).as_secs_f64();
        let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *by_layer.entry(s.layer).or_default() += t;
        }
        eprintln!(
            "self time by layer ({} spans, {total:.3} s wall):",
            self.spans.len()
        );
        for (layer, t) in by_layer {
            eprintln!(
                "  {layer:<18} {t:>10.4} s  {:>5.1}%",
                100.0 * t / total.max(1e-12)
            );
        }
    }

    /// Write every span as one JSON line (times in ns from the root's
    /// start), after a header line holding the environment stamp.
    pub fn write_jsonl(&self, path: &str, stamp: &str) -> io::Result<()> {
        if let Some(dir) = Path::new(path).parent() {
            fs::create_dir_all(dir)?;
        }
        let origin = self.spans[Self::ROOT].start;
        let ns = |t: Instant| (t - origin).as_nanos();
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        writeln!(out, "{{\"env\": \"{}\"}}", stamp.replace('"', "'"))?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"layer\": \"{}\", \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.layer,
                s.name,
                ns(s.start),
                ns(s.end)
            )?;
        }
        out.flush()
    }
}

/// One `round()` call as seen from outside the machine.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpan {
    /// `phase_name()` just before the call: the phase the call executes.
    pub phase: &'static str,
    /// Messages in the inbox the call consumed.
    pub inbox: usize,
    pub start: Instant,
    pub end: Instant,
}

/// Where a [`Timed`] machine hands its spans when the executor drops it.
pub type SpanSink = Arc<Mutex<Vec<RoundSpan>>>;

/// A machine wrapper that times every `round()` call of the machine it
/// wraps. Spans accumulate inside the wrapper and reach its own sink only
/// when the executor drops the machine, so a parallel run shares no lock
/// while it runs.
pub struct Timed<M, Out> {
    inner: BoxedMachine<M, Out>,
    spans: Vec<RoundSpan>,
    sink: SpanSink,
}

impl<M, Out> RoundMachine<M> for Timed<M, Out> {
    type Output = Out;

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, Out> {
        let phase = self.inner.phase_name();
        let inbox = view.inbox.len();
        let start = Instant::now();
        let step = self.inner.round(view);
        self.spans.push(RoundSpan {
            phase,
            inbox,
            start,
            end: Instant::now(),
        });
        step
    }

    fn phase_name(&self) -> &'static str {
        self.inner.phase_name()
    }
}

impl<M, Out> Drop for Timed<M, Out> {
    fn drop(&mut self) {
        // A poisoned sink only means another machine panicked; the spans
        // are plain data, so keep them.
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        sink.append(&mut self.spans);
    }
}

/// Wrap one machine; its spans land in the returned sink.
pub fn timed<M: 'static, Out: 'static>(
    inner: BoxedMachine<M, Out>,
) -> (BoxedMachine<M, Out>, SpanSink) {
    let sink = SpanSink::default();
    (
        Box::new(Timed {
            inner,
            spans: Vec::new(),
            sink: Arc::clone(&sink),
        }),
        sink,
    )
}

/// Take the spans out of a sink once its machine is gone.
pub fn drain(sink: &SpanSink) -> Vec<RoundSpan> {
    std::mem::take(&mut *sink.lock().unwrap_or_else(|e| e.into_inner()))
}
