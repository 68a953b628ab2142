//! MIN-MIN and its budget-aware extension MIN-MINBUDG (paper Algorithm 3),
//! and the ready-set round loop that MIN-MIN, MAX-MIN and SUFFERAGE share.
//!
//! MIN-MIN repeatedly looks at all *ready* tasks (predecessors scheduled),
//! computes each task's best host, and commits the (task, host) pair with
//! the overall smallest EFT. MIN-MINBUDG runs the same loop but restricts
//! each task's host choice to those respecting its budget share plus the
//! accumulated pot. The other heuristics of the family differ only in how
//! a round picks among the ready tasks (a [`Rule`]).

use crate::best_host::BestHostCache;
use crate::budget::{divide_budget, Pot};
use crate::plan::{Candidate, HostEval, PlanState};
use wfs_observe::{Event as Obs, EventSink};
use wfs_platform::Platform;
use wfs_simulator::{Schedule, VmId};
use wfs_workflow::{OrdF64, TaskId, Workflow};

/// Run MIN-MIN (unbounded budget) — the baseline of §V-B. No budget
/// events: the baseline has no shares, so limits are infinite and the pot
/// stays empty.
pub fn min_min<S: EventSink>(wf: &Workflow, platform: &Platform, sink: &mut S) -> Schedule {
    list_schedule::<MinMin, S>(wf, platform, None, sink)
}

/// Run MIN-MINBUDG with initial budget `b_ini` (Algorithm 3). The budget
/// division, each round's winning placement (with pot before/after) and
/// the selection-cache hit/miss counters are reported to `sink`.
pub fn min_min_budg<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    b_ini: f64,
    sink: &mut S,
) -> Schedule {
    list_schedule::<MinMin, S>(wf, platform, Some(b_ini), sink)
}

/// How a ready-set list heuristic rates one ready task in a round; the
/// round commits the task with the smallest key. A type parameter rather
/// than a value, so each heuristic's loop is compiled on its own and the
/// rule costs no dispatch per rated task.
pub(crate) trait Rule {
    /// Selection key, smallest wins. Keys end in the task id, so two
    /// ready tasks never tie.
    type Key: Ord;

    /// The best host of `t` under `limit`, and `t`'s key. `cache` holds
    /// the previous rounds' selections; `last_commit` is the VM the
    /// previous round committed to.
    fn rate(
        cache: &mut BestHostCache,
        plan: &PlanState<'_>,
        t: TaskId,
        limit: f64,
        last_commit: Option<VmId>,
    ) -> (HostEval, Self::Key);
}

/// MIN-MIN selection: the ready task whose best host yields the minimal
/// EFT over all ready tasks (ties: cheaper, then lower id).
struct MinMin;

impl Rule for MinMin {
    type Key = (OrdF64, OrdF64, u32);

    #[inline]
    fn rate(
        cache: &mut BestHostCache,
        plan: &PlanState<'_>,
        t: TaskId,
        limit: f64,
        last_commit: Option<VmId>,
    ) -> (HostEval, Self::Key) {
        let eval = cache.best(plan, t, limit, last_commit);
        (eval, (OrdF64(eval.eft), OrdF64(eval.cost), t.0))
    }
}

/// The ready-set round loop: each round rates every ready task under its
/// share plus the pot (`b_ini = None`: unbounded), commits the winner of
/// rule `R`, settles the pot and releases the winner's successors.
pub(crate) fn list_schedule<R: Rule, S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    b_ini: Option<f64>,
    sink: &mut S,
) -> Schedule {
    let split = b_ini.map(|b| divide_budget(wf, platform, b));
    if S::ENABLED {
        if let Some(s) = &split {
            sink.record(&Obs::BudgetReserved {
                initial: s.initial,
                reserved_datacenter: s.reserved_datacenter,
                reserved_init: s.reserved_init,
                b_calc: s.b_calc,
            });
        }
    }
    let mut pot = Pot::new();
    let mut plan = PlanState::new(wf, platform);

    // Ready set maintained with remaining-predecessor counts.
    let mut missing: Vec<usize> = wf.task_ids().map(|t| wf.in_edges(t).len()).collect();
    let mut ready: Vec<TaskId> = wf.task_ids().filter(|&t| missing[t.index()] == 0).collect();

    // Incremental selection: each round commits one task to one VM, which
    // leaves every other ready task's best host unchanged unless the cache
    // can prove otherwise (see `BestHostCache`).
    let mut cache = BestHostCache::new(wf.task_count());
    let mut last_commit: Option<VmId> = None;
    let mut round: u32 = 0;

    while !ready.is_empty() {
        let mut best: Option<(usize, HostEval, R::Key)> = None;
        for (i, &t) in ready.iter().enumerate() {
            let limit = match &split {
                Some(s) => s.share(t) + pot.available(),
                None => f64::INFINITY,
            };
            let (eval, key) = R::rate(&mut cache, &plan, t, limit, last_commit);
            if best.as_ref().is_none_or(|(_, _, k)| key < *k) {
                best = Some((i, eval, key));
            }
        }
        #[allow(clippy::expect_used)] // loop guard: `ready` is non-empty
        let (idx, eval, _) = best.expect("ready set is non-empty");
        let t = ready.swap_remove(idx);
        let limit = match &split {
            Some(s) => s.share(t) + pot.available(),
            None => f64::INFINITY,
        };
        if S::ENABLED {
            sink.record(&Obs::TaskRanked { pos: round, task: t.0 });
            if let Some(s) = &split {
                sink.record(&Obs::TaskShare { task: t.0, share: s.share(t) });
            }
        }
        let pot_before = pot.available();
        let vm = plan.commit(t, eval.candidate);
        last_commit = Some(vm);
        cache.forget(t);
        if let Some(s) = &split {
            pot.settle(s.share(t), eval.cost);
        }
        if S::ENABLED {
            sink.record(&Obs::TaskPlaced {
                task: t.0,
                vm: vm.0,
                new_vm: matches!(eval.candidate, Candidate::New(_)),
                eft: eval.eft,
                cost: eval.cost,
                limit,
                pot_before,
                pot_after: pot.available(),
            });
        }
        round += 1;
        for succ in wf.successors(t) {
            missing[succ.index()] -= 1;
            if missing[succ.index()] == 0 {
                ready.push(succ);
            }
        }
    }
    if S::ENABLED {
        let (hits, misses) = cache.hit_miss();
        sink.record(&Obs::Counter { name: "best_host_cache_hits", delta: hits });
        sink.record(&Obs::Counter { name: "best_host_cache_misses", delta: misses });
        let (sweeps, cand_evals) = plan.sweep_stats();
        sink.record(&Obs::Counter { name: "plan_sweeps", delta: sweeps });
        sink.record(&Obs::Counter { name: "plan_candidate_evals", delta: cand_evals });
    }
    debug_assert!(plan.is_complete(), "all tasks scheduled (DAG is acyclic)");
    plan.into_schedule()
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use wfs_observe::NoopSink;
    use wfs_simulator::{simulate, SimConfig};
    use wfs_workflow::gen::{bag_of_tasks, montage, GenConfig};

    fn paper() -> Platform {
        Platform::paper_default()
    }

    #[test]
    fn baseline_schedules_everything() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        let s = min_min(&wf, &p, &mut NoopSink);
        s.validate(&wf).unwrap();
        assert!(s.used_vm_count() >= 1);
    }

    #[test]
    fn baseline_parallelizes_a_bag() {
        let wf = bag_of_tasks(8, 2000.0, 0.0);
        let p = paper();
        let s = min_min(&wf, &p, &mut NoopSink);
        // EFT-greedy with free budget: every independent task gets its own
        // (fast) VM since sharing delays the EFT.
        assert!(s.used_vm_count() >= 7, "used {}", s.used_vm_count());
    }

    #[test]
    fn budget_constrains_vm_enrollment() {
        let wf = montage(GenConfig::new(60, 1));
        let p = paper();
        let rich = min_min_budg(&wf, &p, 1000.0, &mut NoopSink);
        let poor = min_min_budg(&wf, &p, 0.2, &mut NoopSink);
        rich.validate(&wf).unwrap();
        poor.validate(&wf).unwrap();
        assert!(poor.used_vm_count() <= rich.used_vm_count());
    }

    #[test]
    fn infinite_budget_matches_baseline_makespan() {
        // Paper §V-B: "when given an infinite initial budget, MIN-MIN
        // gives the same schedule as MIN-MINBUDG".
        let wf = montage(GenConfig::new(30, 2));
        let p = paper();
        let base = min_min(&wf, &p, &mut NoopSink);
        let budg = min_min_budg(&wf, &p, 1e9, &mut NoopSink);
        let cfg = SimConfig::planning();
        let rb = simulate(&wf, &p, &base, &cfg).unwrap();
        let rr = simulate(&wf, &p, &budg, &cfg).unwrap();
        assert!((rb.makespan - rr.makespan).abs() < 1e-6);
    }

    #[test]
    fn respects_budget_on_average() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        let budget = 1.0;
        let s = min_min_budg(&wf, &p, budget, &mut NoopSink);
        // Conservative planning: the planned execution fits the budget.
        let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        assert!(
            r.total_cost <= budget * 1.05,
            "planned cost {} for budget {budget}",
            r.total_cost
        );
    }

    #[test]
    fn deterministic() {
        let wf = montage(GenConfig::new(60, 3));
        let p = paper();
        let run = || min_min_budg(&wf, &p, 5.0, &mut NoopSink);
        assert_eq!(run(), run());
    }
}
