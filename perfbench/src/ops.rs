//! One op of each workload, with its output checks. Every call into the
//! system goes through a [`Spans`] wrapper naming its layer, and every
//! event-emitting call gets the sink of its layer from [`LayerSinks`].

use crate::spans::{Layer, Spans};
use crate::workload::{mix, parse, Instance, Workload};
use budget_sched::observe::{BudgetLedger, ChromeTrace, EventSink, RecordingSink};
use budget_sched::platform::Platform;
use budget_sched::scheduler::{
    run_with_recovery_observed, Algorithm, RecoveryConfig, RecoveryPolicy,
};
use budget_sched::simulator::{
    plan_lint, simulate_observed, BootFaultModel, CrashModel, FaultConfig, Schedule, SimConfig,
};
use budget_sched::workflow::Workflow;

/// Stochastic replays per `execute-400` op (the paper's replay count).
pub const REPLAYS: u64 = 25;
/// Mean time between VM crashes in the faulted run, in seconds. A crash
/// strands the tasks downstream of it while the VMs waiting on them stay
/// billed until they crash too, so rarer crashes leave no budget to
/// re-plan: at 10 000 s no faulted run of seed 0 reached a second epoch.
/// At 1 500 s about a third of them re-plan the residual DAG.
pub const MTBF_S: f64 = 1_500.0;
/// Probability that a VM boot fails in the faulted run.
pub const BOOT_FAIL_PROB: f64 = 0.05;
/// Boot retries before a VM is abandoned.
pub const BOOT_RETRIES: u32 = 3;

const FAULT_STREAM: u64 = 1 << 20;
const EXPORT_STREAM: u64 = 2 << 20;

/// One event sink per event-emitting layer, so the traced run can count
/// each layer's work separately. The timed runs use `NoopSink`.
#[derive(Debug, Default)]
pub struct LayerSinks<S> {
    /// Receives `Algorithm::run_observed` events (plan and refine).
    pub plan: S,
    /// Receives planning-mode `simulate_observed` events.
    pub evaluate: S,
    /// Receives stochastic `simulate_observed` events.
    pub replay: S,
    /// Receives `run_with_recovery_observed` events.
    pub recovery: S,
}

/// Deterministic facts about one op: its output digest and the work counts
/// that no event sink reports.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpStats {
    /// FNV-1a over the bits of every (makespan, cost) the op produced, the
    /// recovery epoch count and the traced run's event and JSON sizes.
    pub digest: u64,
    /// Bytes of instance text parsed.
    pub ingest_bytes: u64,
    /// Planning evaluations.
    pub plans: u64,
    /// Planning evaluations whose cost exceeds their budget (a result of
    /// the algorithm, not a failure).
    pub plans_over_budget: u64,
    /// Tasks executed by the stochastic replays, the traced one included.
    pub replay_tasks: u64,
    /// Faulted runs to completion.
    pub recoveries: u64,
    /// Faulted runs whose total cost exceeds the budget.
    pub recoveries_over_budget: u64,
    /// Faulted runs that re-planned at least once.
    pub recoveries_replanned: u64,
    /// Boot retries over all epochs of the faulted runs.
    pub boot_retries: u64,
    /// Budget-clause lint findings of the faulted runs (results, not failures).
    pub budget_findings: u64,
    /// Traced runs exported.
    pub exports: u64,
    /// Events recorded by the traced runs.
    pub trace_events: u64,
    /// Bytes of Chrome-trace JSON written.
    pub json_bytes: u64,
    /// Traced runs whose budget ledger reconciled `to_bits`-exactly.
    pub ledgers_reconciled: u64,
}

impl OpStats {
    /// Add another op's counts (the digest is left alone).
    pub fn add(&mut self, o: &OpStats) {
        self.ingest_bytes += o.ingest_bytes;
        self.plans += o.plans;
        self.plans_over_budget += o.plans_over_budget;
        self.replay_tasks += o.replay_tasks;
        self.recoveries += o.recoveries;
        self.recoveries_over_budget += o.recoveries_over_budget;
        self.recoveries_replanned += o.recoveries_replanned;
        self.boot_retries += o.boot_retries;
        self.budget_findings += o.budget_findings;
        self.exports += o.exports;
        self.trace_events += o.trace_events;
        self.json_bytes += o.json_bytes;
        self.ledgers_reconciled += o.ledgers_reconciled;
    }
}

struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn add_run(&mut self, makespan: f64, cost: f64) {
        self.add(makespan.to_bits());
        self.add(cost.to_bits());
    }
}

/// What an op works with besides its instance: the parsed workflow, the
/// sinks and spans, and the outputs it accumulates.
struct Ctx<'a, S, T> {
    wf: &'a Workflow,
    platform: &'a Platform,
    sinks: &'a mut LayerSinks<S>,
    spans: &'a mut T,
    digest: Digest,
    stats: OpStats,
}

impl<S: EventSink, T: Spans> Ctx<'_, S, T> {
    /// Plan with `alg` at `budget`, evaluate the plan once in planning mode
    /// and lint it with the budget clause off.
    fn plan_eval_lint(
        &mut self,
        alg: Algorithm,
        layer: Layer,
        budget: f64,
    ) -> Result<Schedule, String> {
        let (wf, platform) = (self.wf, self.platform);
        let sinks = &mut *self.sinks;
        let sched = self.spans.span(layer, alg.name(), || {
            alg.run_observed(wf, platform, budget, &mut sinks.plan)
        });
        let report = self
            .spans
            .span(Layer::Evaluate, "simulate", || {
                simulate_observed(
                    wf,
                    platform,
                    &sched,
                    &SimConfig::planning(),
                    &mut sinks.evaluate,
                )
            })
            .map_err(|e| format!("{alg} at budget {budget}: {e}"))?;
        let violations = self.spans.span(Layer::Lint, "plan_lint", || {
            plan_lint(wf, platform, &sched, &report, None)
        });
        if let Some(v) = violations.first() {
            return Err(format!("{alg} at budget {budget}: lint: {v}"));
        }
        self.digest.add_run(report.makespan, report.total_cost);
        self.stats.plans += 1;
        if report.total_cost > budget {
            self.stats.plans_over_budget += 1;
        }
        Ok(sched)
    }

    /// The `execute-400` tail: replays, a faulted run with recovery, and a
    /// traced run exported to Chrome-trace JSON and reconciled.
    fn execute(&mut self, sched: &Schedule, budget: f64, run_seed: u64) -> Result<(), String> {
        let (wf, platform) = (self.wf, self.platform);
        let sinks = &mut *self.sinks;
        for k in 0..REPLAYS {
            let cfg = SimConfig::stochastic(mix(run_seed, k));
            let report = self
                .spans
                .span(Layer::Replay, "simulate", || {
                    simulate_observed(wf, platform, sched, &cfg, &mut sinks.replay)
                })
                .map_err(|e| format!("replay {k}: {e}"))?;
            self.digest.add_run(report.makespan, report.total_cost);
            self.stats.replay_tasks += report.tasks.len() as u64;
        }

        let faults = FaultConfig::new(mix(run_seed, FAULT_STREAM))
            .with_crash(CrashModel::exponential(MTBF_S))
            .with_boot(BootFaultModel::new(BOOT_FAIL_PROB, BOOT_RETRIES));
        let cfg = RecoveryConfig::new(
            Algorithm::HeftBudg,
            RecoveryPolicy::RescheduleBudgetAware,
            budget,
            faults,
        )
        .with_lint();
        let out = self
            .spans
            .span(Layer::Recovery, "run_with_recovery", || {
                run_with_recovery_observed(wf, platform, &cfg, &mut sinks.recovery)
            })
            .map_err(|e| format!("recovery: {e}"))?;
        for v in &out.lint_violations {
            // Findings read "epoch N: <violation>"; a budget overrun is a
            // result, every other finding breaks the platform model.
            match v.split_once(": ") {
                Some((_, finding)) if finding.starts_with("budget:") => {
                    self.stats.budget_findings += 1
                }
                _ => return Err(format!("recovery lint: {v}")),
            }
        }
        self.digest.add_run(out.wall_clock, out.total_cost);
        self.digest.add(out.epochs.len() as u64);
        self.stats.recoveries += 1;
        self.stats.recoveries_over_budget += u64::from(!out.within_budget());
        self.stats.recoveries_replanned += u64::from(out.replans > 0);
        self.stats.boot_retries += out.stats.boot_retries as u64;

        // The traced run's plan and replay count as those layers; only the
        // Chrome-trace JSON and the ledger are export work.
        let mut rec = RecordingSink::new();
        let cfg = SimConfig::stochastic(mix(run_seed, EXPORT_STREAM));
        let traced = self.spans.span(Layer::Plan, "HEFTBUDG recorded", || {
            Algorithm::HeftBudg.run_observed(wf, platform, budget, &mut rec)
        });
        let report = self
            .spans
            .span(Layer::Replay, "simulate recorded", || {
                simulate_observed(wf, platform, &traced, &cfg, &mut rec)
            })
            .map_err(|e| format!("traced run: {e}"))?;
        let json = self.spans.span(Layer::Export, "chrome_json", || {
            ChromeTrace::from_events(&rec.events).to_json()
        });
        let reconciled = self.spans.span(Layer::Export, "ledger", || {
            BudgetLedger::from_events(&rec.events).reconcile(report.total_cost)
        });
        if !reconciled {
            return Err(format!(
                "budget ledger does not reconcile with bill {}",
                report.total_cost
            ));
        }
        self.digest.add_run(report.makespan, report.total_cost);
        self.stats.replay_tasks += report.tasks.len() as u64;
        self.digest.add(rec.events.len() as u64);
        self.digest.add(json.len() as u64);
        self.stats.exports += 1;
        self.stats.trace_events += rec.events.len() as u64;
        self.stats.json_bytes += json.len() as u64;
        self.stats.ledgers_reconciled += 1;
        Ok(())
    }
}

/// Run one op of workload `w` on `inst`. `Err` carries the first failed
/// check; budget overruns are counted in the stats, not failed.
pub fn run_op<S: EventSink, T: Spans>(
    w: Workload,
    inst: &Instance,
    platform: &Platform,
    sinks: &mut LayerSinks<S>,
    spans: &mut T,
) -> Result<OpStats, String> {
    let wf = spans.span(Layer::Ingest, "parse", || parse(w.format(), &inst.text))?;
    let mut ctx = Ctx {
        wf: &wf,
        platform,
        sinks,
        spans,
        digest: Digest::new(),
        stats: OpStats::default(),
    };
    ctx.stats.ingest_bytes = inst.text.len() as u64;
    match w {
        Workload::Plan400 => {
            for alg in [Algorithm::HeftBudg, Algorithm::MinMinBudg] {
                for b in inst.budgets {
                    ctx.plan_eval_lint(alg, Layer::Plan, b)?;
                }
            }
        }
        Workload::Refine60 => {
            let alg = if inst.spec.index.is_multiple_of(2) {
                Algorithm::HeftBudgPlus
            } else {
                Algorithm::HeftBudgPlusInv
            };
            for b in inst.budgets {
                ctx.plan_eval_lint(alg, Layer::Refine, b)?;
            }
        }
        Workload::Execute400 => {
            let budget = inst.budgets[1];
            let sched = ctx.plan_eval_lint(Algorithm::HeftBudg, Layer::Plan, budget)?;
            ctx.execute(&sched, budget, inst.spec.run_seed)?;
        }
    }
    ctx.stats.digest = ctx.digest.0;
    Ok(ctx.stats)
}
