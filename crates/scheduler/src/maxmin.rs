//! MAX-MIN and SUFFERAGE — the other two classic list heuristics of the
//! MIN-MIN family ([6], [14]), plus budget-aware variants built from the
//! same Algorithm 1/2 machinery as MIN-MINBUDG. Extensions beyond the
//! paper (its §IV notes the approach applies to any list scheduler).
//!
//! - MAX-MIN commits, among the ready tasks, the one whose *best* EFT is
//!   **largest** (big tasks first, small ones fill the gaps);
//! - SUFFERAGE commits the task that would *suffer* most if denied its
//!   best host: maximal difference between its second-best and best EFT.
//!
//! Both are [`Rule`]s of MIN-MIN's ready-set round loop, so they share its
//! pot handling, best-host cache and decision events.

use crate::best_host::{select, BestHostCache, COST_EPS};
use crate::minmin::{list_schedule, Rule};
use crate::plan::{HostEval, PlanState};
use std::cmp::Reverse;
use wfs_observe::EventSink;
use wfs_platform::Platform;
use wfs_simulator::{Schedule, VmId};
use wfs_workflow::{OrdF64, TaskId, Workflow};

/// Run MAX-MIN (unbounded budget).
pub fn max_min<S: EventSink>(wf: &Workflow, platform: &Platform, sink: &mut S) -> Schedule {
    list_schedule::<MaxMin, S>(wf, platform, None, sink)
}

/// Run the budget-aware MAX-MINBUDG.
pub fn max_min_budg<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    b_ini: f64,
    sink: &mut S,
) -> Schedule {
    list_schedule::<MaxMin, S>(wf, platform, Some(b_ini), sink)
}

/// Run SUFFERAGE (unbounded budget).
pub fn sufferage<S: EventSink>(wf: &Workflow, platform: &Platform, sink: &mut S) -> Schedule {
    list_schedule::<Sufferage, S>(wf, platform, None, sink)
}

/// Run the budget-aware SUFFERAGEBUDG.
pub fn sufferage_budg<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    b_ini: f64,
    sink: &mut S,
) -> Schedule {
    list_schedule::<Sufferage, S>(wf, platform, Some(b_ini), sink)
}

/// Both rules maximize a score, tie-breaking on smaller EFT, then id.
/// [`OrdF64`] orders by `total_cmp`, which keeps the rule total: sufferage
/// scores are differences of EFTs and the ordering must not fall apart if
/// one of them degenerates to NaN.
type MaxScoreKey = (Reverse<OrdF64>, OrdF64, u32);

fn max_score_key(score: f64, eval: &HostEval, t: TaskId) -> MaxScoreKey {
    (Reverse(OrdF64(score)), OrdF64(eval.eft), t.0)
}

/// MAX-MIN: the score is the best EFT, so the incremental best-host cache
/// applies unchanged.
struct MaxMin;

impl Rule for MaxMin {
    type Key = MaxScoreKey;

    #[inline]
    fn rate(
        cache: &mut BestHostCache,
        plan: &PlanState<'_>,
        t: TaskId,
        limit: f64,
        last_commit: Option<VmId>,
    ) -> (HostEval, Self::Key) {
        let eval = cache.best(plan, t, limit, last_commit);
        (eval, max_score_key(eval.eft, &eval, t))
    }
}

/// SUFFERAGE: the score depends on the whole affordable candidate *set*,
/// which the cache does not keep, so every rating runs one combined
/// zero-allocation sweep instead.
struct Sufferage;

impl Rule for Sufferage {
    type Key = MaxScoreKey;

    #[inline]
    fn rate(
        _: &mut BestHostCache,
        plan: &PlanState<'_>,
        t: TaskId,
        limit: f64,
        _: Option<VmId>,
    ) -> (HostEval, Self::Key) {
        plan.with_candidate_evals(t, |evals| {
            // Sufferage = second-best EFT − best EFT among the affordable
            // candidates (∞ limit for the baseline); 0 when none is
            // affordable, ∞ when exactly one is.
            let (mut e1, mut e2) = (f64::INFINITY, f64::INFINITY);
            let mut affordable = 0usize;
            for e in evals {
                if e.cost <= limit + COST_EPS {
                    affordable += 1;
                    if e.eft < e1 {
                        (e1, e2) = (e.eft, e1);
                    } else if e.eft < e2 {
                        e2 = e.eft;
                    }
                }
            }
            let score = match affordable {
                0 => 0.0,
                1 => f64::INFINITY,
                _ => e2 - e1,
            };
            let eval = select(evals, limit).best;
            (eval, max_score_key(score, &eval, t))
        })
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use wfs_observe::NoopSink;
    use wfs_simulator::{simulate, SimConfig};
    use wfs_workflow::gen::{bag_of_tasks, cybershake, montage, GenConfig};

    fn paper() -> Platform {
        Platform::paper_default()
    }

    #[test]
    fn all_variants_produce_valid_schedules() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        for s in [
            max_min(&wf, &p, &mut NoopSink),
            max_min_budg(&wf, &p, 1.0, &mut NoopSink),
            sufferage(&wf, &p, &mut NoopSink),
            sufferage_budg(&wf, &p, 1.0, &mut NoopSink),
        ] {
            s.validate(&wf).unwrap();
        }
    }

    #[test]
    fn budget_variants_hold_planned_cost() {
        let wf = cybershake(GenConfig::new(60, 1));
        let p = paper();
        let floor = simulate(
            &wf,
            &p,
            &crate::min_cost_schedule(&wf, &p),
            &SimConfig::planning(),
        )
        .unwrap()
        .total_cost;
        for mult in [1.2, 2.0] {
            let budget = floor * mult;
            for s in [
                max_min_budg(&wf, &p, budget, &mut NoopSink),
                sufferage_budg(&wf, &p, budget, &mut NoopSink),
            ] {
                let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
                assert!(
                    r.total_cost <= budget * 1.1,
                    "cost {} for budget {budget}",
                    r.total_cost
                );
            }
        }
    }

    #[test]
    fn max_min_prefers_big_tasks_first() {
        // A bag with one huge and several small tasks: MAX-MIN schedules
        // the huge one first (earliest start), MIN-MIN last.
        use wfs_workflow::{StochasticWeight, WorkflowBuilder};
        let mut b = WorkflowBuilder::new("mix");
        let big = b.add_task("big", StochasticWeight::fixed(10_000.0));
        for i in 0..4 {
            b.add_task(format!("small{i}"), StochasticWeight::fixed(100.0));
        }
        let wf = b.build().unwrap();
        let p = paper();
        let s_max = max_min(&wf, &p, &mut NoopSink);
        let s_min = crate::min_min(&wf, &p, &mut NoopSink);
        let cfg = SimConfig::planning();
        let r_max = simulate(&wf, &p, &s_max, &cfg).unwrap();
        let r_min = simulate(&wf, &p, &s_min, &cfg).unwrap();
        assert!(
            r_max.task(big).start <= r_min.task(big).start,
            "MAX-MIN should not start the big task later than MIN-MIN"
        );
    }

    #[test]
    fn sufferage_handles_bags() {
        let wf = bag_of_tasks(10, 500.0, 0.0);
        let p = paper();
        let s = sufferage(&wf, &p, &mut NoopSink);
        s.validate(&wf).unwrap();
        assert!(s.used_vm_count() >= 1);
    }

    #[test]
    fn deterministic() {
        let wf = montage(GenConfig::new(60, 2));
        let p = paper();
        let max_min = || max_min_budg(&wf, &p, 2.0, &mut NoopSink);
        assert_eq!(max_min(), max_min());
        let sufferage = || sufferage_budg(&wf, &p, 2.0, &mut NoopSink);
        assert_eq!(sufferage(), sufferage());
    }
}
