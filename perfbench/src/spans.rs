//! The benchmark's own span recorder: one span around each public call into
//! a layer, kept in memory and written out when the run ends.

use std::fmt::Write;
use std::time::Instant;

/// The layers of the system, as the benchmark sees them from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Instance text to `Workflow` (`Workflow::from_json`, `dax::from_dax`).
    Ingest,
    /// `Algorithm::run` of a list planner (HEFTBUDG, MIN-MINBUDG).
    Plan,
    /// `Algorithm::run` of a refining planner (HEFTBUDG+, HEFTBUDG+INV).
    Refine,
    /// Planning-mode `simulate`.
    Evaluate,
    /// Stochastic `simulate`.
    Replay,
    /// `run_with_recovery` under injected faults.
    Recovery,
    /// `plan_lint`.
    Lint,
    /// Chrome-trace JSON and budget-ledger reconcile of recorded events.
    Export,
    /// The benchmark's own code inside an op: op time no layer span covers.
    Harness,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 9] = [
        Layer::Ingest,
        Layer::Plan,
        Layer::Refine,
        Layer::Evaluate,
        Layer::Replay,
        Layer::Recovery,
        Layer::Lint,
        Layer::Export,
        Layer::Harness,
    ];

    /// Lowercase layer name, as used in metric names and the trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Ingest => "ingest",
            Layer::Plan => "plan",
            Layer::Refine => "refine",
            Layer::Evaluate => "evaluate",
            Layer::Replay => "replay",
            Layer::Recovery => "recovery",
            Layer::Lint => "lint",
            Layer::Export => "export",
            Layer::Harness => "harness",
        }
    }
}

/// Where an op's layer calls report their spans. The untraced runs use
/// [`NoSpans`], whose calls compile to the bare closure.
pub trait Spans {
    /// Run `f` as one call into `layer`; `name` labels the span.
    fn span<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// Records nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn span<R>(&mut self, _layer: Layer, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One closed span; `op` is the parent op's sequence number in the run.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Label (the public call).
    pub name: &'static str,
    /// Layer the call belongs to.
    pub layer: Layer,
    /// Parent op.
    pub op: u32,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One op's outer span; the layer spans of the op name it as their parent.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    /// Sequence number of the op in the run.
    pub op: u32,
    /// Position of the op in the pass's op list.
    pub index: usize,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    current_op: u32,
    /// Closed layer spans, in start order.
    pub spans: Vec<Span>,
    /// Closed op spans, in start order.
    pub ops: Vec<OpSpan>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            current_op: 0,
            spans: Vec::new(),
            ops: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run one op as a parent span; layer spans opened inside belong to it.
    pub fn op<R>(&mut self, index: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let op = u32::try_from(self.ops.len()).unwrap_or(u32::MAX);
        self.current_op = op;
        let start_ns = self.now_ns();
        let r = f(self);
        let end_ns = self.now_ns();
        self.ops.push(OpSpan {
            op,
            index,
            start_ns,
            end_ns,
        });
        r
    }

    /// Per layer, total self time in nanoseconds over all recorded ops.
    /// Layer spans do not nest, so a layer span's self time is its length;
    /// the harness gets what the op spans leave uncovered.
    pub fn self_ns(&self) -> [u64; Layer::ALL.len()] {
        let mut total = [0u64; Layer::ALL.len()];
        for s in &self.spans {
            total[s.layer as usize] += s.ns();
        }
        let covered: u64 = total.iter().sum();
        total[Layer::Harness as usize] = self.op_ns().saturating_sub(covered);
        total
    }

    /// Total op time in nanoseconds.
    pub fn op_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.end_ns - o.start_ns).sum()
    }

    /// Perfetto-loadable trace-event JSON: one complete event per op and
    /// per layer call, with the parent op in `args`.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut s = String::with_capacity(96 * (self.spans.len() + self.ops.len()) + 64);
        s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let us = |ns: u64| ns as f64 / 1e3;
        let mut first = true;
        let mut sep = |s: &mut String| {
            if !first {
                s.push(',');
            }
            first = false;
        };
        for o in &self.ops {
            sep(&mut s);
            let _ = write!(
                s,
                "{{\"name\":\"op\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"index\":{}}}}}",
                us(o.start_ns),
                us(o.end_ns - o.start_ns),
                o.op,
                o.index
            );
        }
        for sp in &self.spans {
            sep(&mut s);
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                sp.name,
                sp.layer.name(),
                us(sp.start_ns),
                us(sp.ns()),
                sp.op
            );
        }
        s.push_str("]}\n");
        s
    }
}

impl Spans for Recorder {
    fn span<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            op: self.current_op,
            start_ns,
            end_ns,
        });
        r
    }
}
