//! One benchmark run: an untimed set-up and warm-up pass, then whole timed
//! passes over the op list (untraced) with timed set-ups between them, or,
//! with `--trace 1`, a counting pass plus alternating traced and untraced
//! passes for the per-layer breakdown.

use crate::metrics::{median, peak_rss_mib, quantile, ratio, END_TO_END, PER_LAYER};
use crate::ops::{run_op, LayerSinks, OpStats};
use crate::reference;
use crate::spans::{Layer, NoSpans, Recorder, Spans};
use crate::workload::{setup, Instance, Workload};
use budget_sched::observe::{Counters, EventSink, NoopSink, RecordingSink};
use budget_sched::platform::Platform;
use budget_sched::scheduler::reference::with_naive;
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Fewest timed set-ups per run.
pub const SETUP_REPS: usize = 5;
/// Timed set-ups run between the timed passes until they have taken this
/// share of the passes' time, so that both sample the host alike.
pub const SETUP_SHARE: f64 = 0.2;
/// Fewest ops in the faster half of the timed passes, so that p90 has at
/// least ten samples above it.
pub const MIN_OPS: u64 = 100;

/// A deliberate slowdown, for the benchmark's sensitivity self-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regress {
    /// Plan in the naive reference mode (`scheduler::reference::with_naive`).
    Naive,
    /// Pass `RecordingSink`s where the timed passes pass `NoopSink`.
    Recording,
}

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the op list.
    pub seed: u64,
    /// Seconds of timed passes (whole passes; at least 2 × [`MIN_OPS`] ops).
    pub seconds: f64,
    /// Per-layer breakdown instead of end-to-end metrics.
    pub trace: bool,
    /// Optional seeded regression.
    pub regress: Option<Regress>,
    /// Where the traced run writes its span trace and layer table.
    pub out_dir: PathBuf,
}

/// What a run prints: human-readable lines, then the result object.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops that failed a check.
    pub failed: u64,
    /// (name, unit) of each metric.
    pub names: &'static [(&'static str, &'static str)],
    /// Metric values, in `names` order.
    pub values: Vec<f64>,
    /// Human-readable report.
    pub text: String,
}

struct Bench<'a> {
    workload: Workload,
    platform: &'a Platform,
    instances: &'a [Instance],
    /// Each op's expected output digest.
    expected: Vec<u64>,
    naive: bool,
}

/// Result of one op after every check, with the layer sinks it filled.
type Checked<S> = (Result<OpStats, String>, LayerSinks<S>);

impl Bench<'_> {
    /// Run op `i` under `catch_unwind`, in naive mode if asked.
    fn run_caught<S: EventSink + Default, T: Spans>(&self, i: usize, spans: &mut T) -> Checked<S> {
        let inst = &self.instances[i];
        let mut sinks = LayerSinks::<S>::default();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut op = || run_op(self.workload, inst, self.platform, &mut sinks, spans);
            if self.naive {
                with_naive(op)
            } else {
                op()
            }
        }));
        let result = match caught {
            Ok(r) => r.map_err(|e| format!("op {i}: {e}")),
            Err(panic) => Err(format!("op {i}: panicked: {}", panic_text(panic.as_ref()))),
        };
        (result, sinks)
    }

    /// [`Self::run_caught`], also checking the op's output digest.
    fn exec<S: EventSink + Default, T: Spans>(&self, i: usize, spans: &mut T) -> Checked<S> {
        let (result, sinks) = self.run_caught(i, spans);
        let result = match (result, self.expected.get(i)) {
            (Ok(stats), Some(&d)) if stats.digest == d => Ok(stats),
            (Ok(stats), expected) => Err(format!(
                "op {i}: output digest {:#018x} differs from the reference {}",
                stats.digest,
                expected.map_or("(none)".into(), |d| format!("{d:#018x}"))
            )),
            (err, _) => err,
        };
        (result, sinks)
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".into())
}

/// Op counts and wall-clock of a set of timed passes.
#[derive(Debug, Default, Clone)]
struct Tally {
    op_ms: Vec<f64>,
    seconds: f64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, ms: f64, result: &Result<OpStats, String>) {
        self.op_ms.push(ms);
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(e.clone());
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.op_ms.extend(other.op_ms);
        self.seconds += other.seconds;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
    }
}

/// One untraced timed pass with sink type `S`.
fn untraced_pass<S: EventSink + Default>(b: &Bench<'_>) -> Tally {
    let mut t = Tally::default();
    let start = Instant::now();
    for i in 0..b.instances.len() {
        let t0 = Instant::now();
        let (r, sinks) = b.exec::<S, _>(i, &mut NoSpans);
        drop(black_box(sinks));
        t.record(t0.elapsed().as_secs_f64() * 1e3, &r);
    }
    t.seconds = start.elapsed().as_secs_f64();
    t
}

/// One traced pass: every op and layer call becomes a span in `rec`.
fn traced_pass(b: &Bench<'_>, rec: &mut Recorder) -> Tally {
    let mut t = Tally::default();
    let start = Instant::now();
    for i in 0..b.instances.len() {
        let before = rec.ops.len();
        let r = rec.op(i, |rec| b.exec::<NoopSink, _>(i, rec).0);
        let ms = rec.ops[before..]
            .iter()
            .map(|o| (o.end_ns - o.start_ns) as f64 / 1e6)
            .sum();
        t.record(ms, &r);
    }
    t.seconds = start.elapsed().as_secs_f64();
    t
}

/// Time one set-up, which must reproduce `b.instances`.
fn timed_setup(b: &Bench<'_>, seed: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let instances = setup(b.workload, seed, b.platform)?;
    let s = t0.elapsed().as_secs_f64();
    if instances != b.instances {
        return Err("set-up is not deterministic".into());
    }
    Ok(s)
}

/// Mean of the faster half of `samples`: the statistic the timed passes
/// use. The host runs set-up at one of two speeds for seconds at a time, so
/// a median or other quantile jumps between them as their shares of a run
/// change; a mean moves with those shares.
fn faster_half_mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(v.len().div_ceil(2));
    ratio(v.iter().sum(), v.len() as f64)
}

/// Run the benchmark as `opts` says.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let platform = Platform::paper_default();
    // The first set-up is a warm-up too; set-up is timed between passes.
    let instances = setup(w, opts.seed, &platform)?;

    // Warm-up pass: fills caches and gives each op's expected digest,
    // pinned for the default seed.
    let mut bench = Bench {
        workload: w,
        platform: &platform,
        instances: &instances,
        expected: Vec::with_capacity(instances.len()),
        naive: opts.regress == Some(Regress::Naive),
    };
    let mut warm_failures = Vec::new();
    for i in 0..instances.len() {
        match bench.run_caught::<NoopSink, _>(i, &mut NoSpans).0 {
            Ok(stats) => bench.expected.push(stats.digest),
            Err(e) => {
                warm_failures.push(e);
                bench.expected.push(0);
            }
        }
    }
    let mut text = String::new();
    let digests: Vec<String> = bench
        .expected
        .iter()
        .map(|d| format!("{d:#018x}"))
        .collect();
    let _ = writeln!(
        text,
        "# {} seed {}: {} ops per pass",
        w.name(),
        opts.seed,
        instances.len()
    );
    let _ = writeln!(text, "# op digests: {}", digests.join(" "));
    if let Some(pinned) = reference::digests(w, opts.seed) {
        if pinned != bench.expected.as_slice() {
            let _ = writeln!(
                text,
                "# digests differ from the reference pinned for seed {}",
                opts.seed
            );
        }
        bench.expected = pinned.to_vec();
    }

    if opts.trace {
        return traced_run(opts, &bench, text, warm_failures);
    }

    let mut passes: Vec<Tally> = Vec::new();
    let mut setups = Vec::new();
    let start = Instant::now();
    while (passes.len() as u64 * instances.len() as u64) < 2 * MIN_OPS
        || start.elapsed().as_secs_f64() < opts.seconds
    {
        passes.push(match opts.regress {
            Some(Regress::Recording) => untraced_pass::<RecordingSink>(&bench),
            _ => untraced_pass::<NoopSink>(&bench),
        });
        let pass_s: f64 = passes.iter().map(|p| p.seconds).sum();
        while setups.iter().sum::<f64>() < SETUP_SHARE * pass_s {
            setups.push(timed_setup(&bench, opts.seed)?);
        }
    }
    while setups.len() < SETUP_REPS {
        setups.push(timed_setup(&bench, opts.seed)?);
    }
    // Timings come from the faster half of the passes and of the set-ups:
    // on a shared host a pass can run up to 2x slower for seconds at a
    // time, and that measures the other tenants, not the code. Failures
    // count in every pass.
    let mut tally = Tally::default();
    let mut fast = Tally::default();
    passes.sort_by(|a, b| a.seconds.total_cmp(&b.seconds));
    let keep = passes.len().div_ceil(2);
    for (k, pass) in passes.into_iter().enumerate() {
        if k < keep {
            fast.merge(pass.clone());
        }
        tally.merge(pass);
    }

    let mut sorted = fast.op_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let ok = tally.attempted - tally.failed;
    let values = vec![
        faster_half_mean(&setups),
        ratio((fast.attempted - fast.failed) as f64, fast.seconds),
        quantile(&sorted, 0.5),
        quantile(&sorted, 0.9),
        peak_rss_mib()?,
        ratio(ok as f64, tally.attempted as f64),
    ];
    let mut all = tally.op_ms.clone();
    all.sort_by(f64::total_cmp);
    let _ = writeln!(
        text,
        "# {} timed ops in {:.2} s ({} passes, timings from the faster {}); failed {} (fail_frac {})",
        tally.attempted,
        tally.seconds,
        tally.attempted / instances.len() as u64,
        keep,
        tally.failed,
        ratio(tally.failed as f64, tally.attempted as f64)
    );
    let _ = writeln!(
        text,
        "# all passes: ops_per_s {:.4} op_ms_p50 {:.4} op_ms_p90 {:.4}; all {} set-ups: setup_s {:.6}",
        ratio(ok as f64, tally.seconds),
        quantile(&all, 0.5),
        quantile(&all, 0.9),
        setups.len(),
        median(&setups)
    );
    write_failures(&mut text, &warm_failures, &tally.failures);
    for ((name, unit), v) in END_TO_END.iter().zip(&values) {
        let _ = writeln!(text, "{name:<12} {v:>14.6} {unit}");
    }
    Ok(Outcome {
        correct: tally.failed == 0 && warm_failures.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        names: &END_TO_END,
        values,
        text,
    })
}

fn write_failures(text: &mut String, warm: &[String], timed: &[String]) {
    for f in warm.iter().chain(timed).take(5) {
        let _ = writeln!(text, "# FAILED {f}");
    }
}

/// Counts of one untimed pass, per layer.
#[derive(Debug, Default)]
struct PassCounts {
    totals: LayerSinks<Counters>,
    stats: OpStats,
}

/// An untimed pass with a `Counters` per layer. Failed ops contribute no
/// counts; the caller sees them in `failures`.
fn counting_pass(b: &Bench<'_>, failures: &mut Vec<String>) -> PassCounts {
    let mut pc = PassCounts::default();
    for i in 0..b.instances.len() {
        let (r, sinks) = b.exec::<Counters, _>(i, &mut NoSpans);
        match r {
            Ok(stats) => {
                let t = &mut pc.totals;
                for (total, c) in [
                    (&mut t.plan, &sinks.plan),
                    (&mut t.evaluate, &sinks.evaluate),
                    (&mut t.replay, &sinks.replay),
                    (&mut t.recovery, &sinks.recovery),
                ] {
                    for (name, v) in c.iter() {
                        total.bump(name, v);
                    }
                }
                pc.stats.add(&stats);
            }
            Err(e) => failures.push(e),
        }
    }
    pc
}

fn traced_run(
    opts: &Options,
    b: &Bench<'_>,
    mut text: String,
    warm_failures: Vec<String>,
) -> Result<Outcome, String> {
    let w = b.workload;
    let n = b.instances.len() as f64;

    // Deterministic counts, from an untimed pass; `steady.py --trace 1`
    // checks that they repeat between runs of a seed.
    let mut failures = warm_failures;
    let counts = counting_pass(b, &mut failures);

    // Alternate traced and untraced passes so drift hits both alike.
    let mut rec = Recorder::default();
    let mut traced = Tally::default();
    let mut untraced = Tally::default();
    let start = Instant::now();
    while traced.attempted == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        traced.merge(traced_pass(b, &mut rec));
        untraced.merge(untraced_pass::<NoopSink>(b));
    }
    let mean_ms = |t: &Tally| ratio(t.op_ms.iter().sum::<f64>(), t.attempted as f64);
    let overhead = ratio(mean_ms(&traced), mean_ms(&untraced));
    let (attempted, failed) = (
        traced.attempted + untraced.attempted,
        traced.failed + untraced.failed,
    );
    failures.extend(traced.failures.into_iter().chain(untraced.failures));

    let self_ns = rec.self_ns();
    let ops = rec.ops.len() as f64;
    let op_ns = rec.op_ns() as f64;
    let ms = |l: Layer| ratio(self_ns[l as usize] as f64, ops) / 1e6;
    let pct = |l: Layer| 100.0 * ratio(self_ns[l as usize] as f64, op_ns);
    let per_op = |x: u64| x as f64 / n;
    let traced_bytes: u64 = rec
        .ops
        .iter()
        .map(|o| b.instances[o.index].text.len() as u64)
        .sum();
    let t = &counts.totals;
    let (plan, eval, rcv, st) = (&t.plan, &t.evaluate, &t.recovery, &counts.stats);
    let refine_trials = per_op(plan.get("refine_trials"));
    let replay_tasks = per_op(st.replay_tasks);

    let values = vec![
        ratio(op_ns, ops) / 1e6,
        ms(Layer::Ingest),
        ms(Layer::Plan) + ms(Layer::Refine),
        ms(Layer::Evaluate),
        ms(Layer::Lint),
        ms(Layer::Harness),
        pct(Layer::Ingest),
        pct(Layer::Plan),
        pct(Layer::Refine),
        pct(Layer::Evaluate),
        pct(Layer::Replay),
        pct(Layer::Recovery),
        pct(Layer::Lint),
        pct(Layer::Export),
        100.0 - pct(Layer::Harness),
        per_op(st.ingest_bytes) / 1024.0,
        ratio(
            traced_bytes as f64,
            self_ns[Layer::Ingest as usize] as f64 / 1e9,
        ) / 1e6,
        per_op(plan.get("plan_sweeps")),
        per_op(plan.get("plan_candidate_evals")),
        ratio(
            plan.get("best_host_cache_hits") as f64,
            (plan.get("best_host_cache_hits") + plan.get("best_host_cache_misses")) as f64,
        ),
        per_op(plan.get("vms_provisioned")),
        refine_trials,
        ratio(
            plan.get("refine_accepted") as f64,
            plan.get("refine_trials") as f64,
        ),
        ratio(refine_trials, ms(Layer::Refine) / 1e3),
        per_op(eval.get("sim_task_starts") + eval.get("sim_transfers") + eval.get("sim_vm_boots")),
        ratio(replay_tasks, ms(Layer::Replay) / 1e3),
        per_op(rcv.get("recovery_epochs")),
        ratio(st.recoveries_replanned as f64, st.recoveries as f64),
        per_op(rcv.get("sim_vm_crashes")),
        per_op(st.boot_retries),
        per_op(rcv.get("sim_tasks_lost")),
        ratio(st.recoveries_over_budget as f64, st.recoveries as f64),
        per_op(st.budget_findings),
        per_op(st.trace_events),
        per_op(st.json_bytes) / 1024.0,
        ratio(st.ledgers_reconciled as f64, st.exports as f64),
        overhead,
    ];

    let _ = writeln!(
        text,
        "# traced {} ops, untraced {} ops, in {:.2} s",
        traced.attempted,
        untraced.attempted,
        start.elapsed().as_secs_f64()
    );
    write_failures(&mut text, &failures, &[]);
    let _ = writeln!(text, "# self time per op, by layer");
    for l in Layer::ALL {
        let _ = writeln!(
            text,
            "{:<10} {:>12.4} ms {:>7.2} %",
            l.name(),
            ms(l),
            pct(l)
        );
    }
    let _ = writeln!(
        text,
        "# deterministic counts per pass ({} ops)",
        b.instances.len()
    );
    for (layer, c) in [
        ("plan", plan),
        ("evaluate", eval),
        ("replay", &t.replay),
        ("recovery", rcv),
    ] {
        for (name, v) in c.iter() {
            let _ = writeln!(text, "{layer}.{name:<28} {v:>14}");
        }
    }
    let _ = writeln!(text, "op_stats {st:?}");
    for ((name, unit), v) in PER_LAYER.iter().zip(&values) {
        let _ = writeln!(text, "{name:<26} {v:>16.6} {unit}");
    }

    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let stem = opts.out_dir.join(format!("{}-seed{}", w.name(), opts.seed));
    let trace_path = stem.with_extension("trace.json");
    std::fs::write(&trace_path, rec.to_chrome_json(w.name()))
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    let table_path = stem.with_extension("layers.txt");
    std::fs::write(&table_path, &text)
        .map_err(|e| format!("cannot write {}: {e}", table_path.display()))?;
    let _ = writeln!(
        text,
        "# wrote {} and {}",
        trace_path.display(),
        table_path.display()
    );

    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        names: &PER_LAYER,
        values,
        text,
    })
}
