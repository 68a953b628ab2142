//! Cross-crate integration tests: every algorithm against every benchmark
//! type, end to end (generate → schedule → simulate → check invariants).

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use budget_sched::prelude::*;

fn planning(wf: &Workflow, p: &Platform, s: &Schedule) -> SimulationReport {
    simulate(wf, p, s, &SimConfig::planning()).expect("valid schedule")
}

#[test]
fn all_algorithms_all_types_produce_valid_executable_schedules() {
    let p = Platform::paper_default();
    for ty in BenchmarkType::ALL {
        let wf = ty.generate(GenConfig::new(30, 1));
        for alg in Algorithm::ALL {
            let s = alg.run(&wf, &p, 2.0);
            s.validate(&wf).unwrap_or_else(|e| panic!("{alg} on {}: {e}", ty.name()));
            let r = planning(&wf, &p, &s);
            assert!(r.makespan > 0.0 && r.total_cost > 0.0, "{alg} on {}", ty.name());
            assert!(
                (r.total_cost - (r.vm_cost + r.datacenter_cost)).abs() < 1e-9,
                "cost breakdown inconsistent for {alg}"
            );
        }
    }
}

#[test]
fn budget_aware_core_algorithms_hold_planned_cost_within_budget() {
    let p = Platform::paper_default();
    for ty in BenchmarkType::ALL {
        let wf = ty.generate(GenConfig::new(60, 1));
        let floor = planning(&wf, &p, &min_cost_schedule(&wf, &p)).total_cost;
        for mult in [1.2, 2.0, 5.0] {
            let budget = floor * mult;
            for alg in [Algorithm::MinMinBudg, Algorithm::HeftBudg] {
                let s = alg.run(&wf, &p, budget);
                let r = planning(&wf, &p, &s);
                assert!(
                    r.total_cost <= budget * 1.1,
                    "{alg} on {} x{mult}: ${} > ${budget}",
                    ty.name(),
                    r.total_cost
                );
            }
        }
    }
}

#[test]
fn heft_budg_beats_min_min_budg_on_montage() {
    // Paper §V-B: "HEFTBUDG needs a smaller initial budget than MIN-MINBUDG
    // for MONTAGE" / obtains better makespans at a given budget on
    // workflows with non-trivial dependence structure.
    let p = Platform::paper_default();
    let mut heft_wins = 0;
    let mut total = 0;
    for seed in 0..3 {
        let wf = montage(GenConfig::new(90, seed));
        let floor = planning(&wf, &p, &min_cost_schedule(&wf, &p)).total_cost;
        for mult in [1.5, 2.0, 3.0] {
            let budget = floor * mult;
            let h = planning(&wf, &p, &Algorithm::HeftBudg.run(&wf, &p, budget)).makespan;
            let m = planning(&wf, &p, &Algorithm::MinMinBudg.run(&wf, &p, budget)).makespan;
            total += 1;
            if h <= m * 1.02 {
                heft_wins += 1;
            }
        }
    }
    assert!(heft_wins * 3 >= total * 2, "HEFTBUDG won only {heft_wins}/{total}");
}

#[test]
fn infinite_budget_budg_variants_match_baselines() {
    let p = Platform::paper_default();
    for ty in BenchmarkType::ALL {
        let wf = ty.generate(GenConfig::new(30, 2));
        let heft_mk = planning(&wf, &p, &Algorithm::Heft.run(&wf, &p, 0.0)).makespan;
        let hb_mk = planning(&wf, &p, &Algorithm::HeftBudg.run(&wf, &p, 1e9)).makespan;
        assert!(
            (heft_mk - hb_mk).abs() < 1e-6,
            "{}: HEFT {heft_mk} vs HEFTBUDG(inf) {hb_mk}",
            ty.name()
        );
    }
}

#[test]
fn refined_variants_dominate_heftbudg() {
    let p = Platform::paper_default();
    for ty in BenchmarkType::ALL {
        let wf = ty.generate(GenConfig::new(30, 1));
        let floor = planning(&wf, &p, &min_cost_schedule(&wf, &p)).total_cost;
        let budget = floor * 2.0;
        let base = planning(&wf, &p, &Algorithm::HeftBudg.run(&wf, &p, budget)).makespan;
        for alg in [Algorithm::HeftBudgPlus, Algorithm::HeftBudgPlusInv] {
            let refined = planning(&wf, &p, &alg.run(&wf, &p, budget));
            assert!(
                refined.makespan <= base + 1e-6,
                "{alg} on {}: {} > {base}",
                ty.name(),
                refined.makespan
            );
            assert!(refined.total_cost <= budget + 1e-9);
        }
    }
}

#[test]
fn cg_stays_near_cheapest_schedules() {
    // Paper Fig. 3: CG's spend hugs the min-cost floor.
    let p = Platform::paper_default();
    let wf = cybershake(GenConfig::new(90, 1));
    let floor = planning(&wf, &p, &min_cost_schedule(&wf, &p)).total_cost;
    let budget = floor * 3.0;
    let cg_cost = planning(&wf, &p, &Algorithm::Cg.run(&wf, &p, budget)).total_cost;
    let heft_cost = planning(&wf, &p, &Algorithm::HeftBudg.run(&wf, &p, budget)).total_cost;
    assert!(
        cg_cost <= heft_cost * 1.2,
        "CG (${cg_cost}) should spend no more than HEFTBUDG (${heft_cost})"
    );
}

#[test]
fn stochastic_budget_compliance_rates_match_paper_shape() {
    // Fig. 3 row 2: HEFTBUDG/MIN-MINBUDG valid nearly always at moderate
    // budgets; BDT markedly less often at the smallest budgets.
    let p = Platform::paper_default();
    let wf = montage(GenConfig::new(60, 1));
    let floor = planning(&wf, &p, &min_cost_schedule(&wf, &p)).total_cost;
    let budget = floor * 1.3;
    let reps: usize = 20;
    let rate = |alg: Algorithm| {
        let s = alg.run(&wf, &p, budget);
        (0..reps)
            .filter(|&seed| {
                simulate(&wf, &p, &s, &SimConfig::stochastic(seed as u64))
                    .unwrap()
                    .within_budget(budget)
            })
            .count()
    };
    let heftbudg = rate(Algorithm::HeftBudg);
    let bdt_rate = rate(Algorithm::Bdt);
    assert!(heftbudg >= reps * 9 / 10, "HEFTBUDG only {heftbudg}/{reps} valid");
    assert!(bdt_rate <= heftbudg, "BDT ({bdt_rate}) should not beat HEFTBUDG ({heftbudg})");
}

#[test]
fn vm_enrollment_grows_with_budget() {
    let p = Platform::paper_default();
    let wf = cybershake(GenConfig::new(90, 1));
    let floor = planning(&wf, &p, &min_cost_schedule(&wf, &p)).total_cost;
    let poor = Algorithm::HeftBudg.run(&wf, &p, floor * 1.1).used_vm_count();
    let rich = Algorithm::HeftBudg.run(&wf, &p, floor * 20.0).used_vm_count();
    assert!(rich > poor, "rich {rich} !> poor {poor}");
}

#[test]
fn epigenomics_and_sipht_work_with_all_core_algorithms() {
    let p = Platform::paper_default();
    for wf in [epigenomics(GenConfig::new(60, 1)), sipht(GenConfig::new(60, 1))] {
        for alg in [Algorithm::MinMinBudg, Algorithm::HeftBudg, Algorithm::Bdt, Algorithm::Cg] {
            let s = alg.run(&wf, &p, 3.0);
            s.validate(&wf).unwrap();
            let r = planning(&wf, &p, &s);
            assert!(r.makespan > 0.0, "{alg} on {}", wf.name);
        }
    }
}

#[test]
fn budget_held_across_all_five_benchmark_types() {
    // The gap-charging cost model keeps HEFTBUDG within budget even on the
    // hub-join SIPHT topology that originally broke it (DESIGN.md §2).
    let p = Platform::paper_default();
    let workflows = [
        montage(GenConfig::new(60, 1)),
        cybershake(GenConfig::new(60, 1)),
        ligo(GenConfig::new(60, 1)),
        epigenomics(GenConfig::new(60, 1)),
        sipht(GenConfig::new(60, 1)),
    ];
    for wf in &workflows {
        let floor = planning(wf, &p, &min_cost_schedule(wf, &p)).total_cost;
        for mult in [1.0, 1.3, 2.0, 5.0] {
            let budget = floor * mult;
            let (s, _) = budget_sched::scheduler::heft_budg(wf, &p, budget, &mut NoopSink);
            let r = planning(wf, &p, &s);
            assert!(
                r.total_cost <= budget * 1.05 + 1e-9,
                "{} x{mult}: planned {} > budget {budget}",
                wf.name,
                r.total_cost
            );
        }
    }
}

#[test]
fn extension_heuristics_competitive_with_min_min_budg() {
    let p = Platform::paper_default();
    let wf = cybershake(GenConfig::new(60, 2));
    let floor = planning(&wf, &p, &min_cost_schedule(&wf, &p)).total_cost;
    let budget = floor * 2.0;
    let reference = planning(&wf, &p, &Algorithm::MinMinBudg.run(&wf, &p, budget)).makespan;
    for alg in [Algorithm::MaxMinBudg, Algorithm::SufferageBudg] {
        let r = planning(&wf, &p, &alg.run(&wf, &p, budget));
        assert!(r.total_cost <= budget * 1.05, "{alg} busts the budget");
        assert!(
            r.makespan <= reference * 2.0,
            "{alg} makespan {} vs MIN-MINBUDG {reference}",
            r.makespan
        );
    }
}

#[test]
fn ensemble_respects_global_budget_end_to_end() {
    use budget_sched::scheduler::{schedule_ensemble, EnsembleMember};
    let p = Platform::paper_default();
    let members = vec![
        EnsembleMember { workflow: montage(GenConfig::new(30, 1)), priority: 4.0 },
        EnsembleMember { workflow: ligo(GenConfig::new(30, 2)), priority: 2.0 },
    ];
    let r = schedule_ensemble(&members, &p, 0.5);
    assert!(r.total_planned_cost <= 0.5);
    // Every admitted schedule replays fine with stochastic weights.
    for a in &r.admitted {
        let wf = &members[a.index].workflow;
        let rep = simulate(wf, &p, &a.schedule, &SimConfig::stochastic(9)).unwrap();
        assert!(rep.makespan > 0.0);
    }
}

#[test]
fn execution_metrics_consistent_across_algorithms() {
    use budget_sched::simulator::metrics::metrics;
    let p = Platform::paper_default();
    let wf = montage(GenConfig::new(60, 1));
    let floor = planning(&wf, &p, &min_cost_schedule(&wf, &p)).total_cost;
    for alg in [Algorithm::HeftBudg, Algorithm::Bdt] {
        let s = alg.run(&wf, &p, floor * 3.0);
        let r = simulate(&wf, &p, &s, &SimConfig::stochastic(4)).unwrap();
        let m = metrics(&r);
        assert!(m.utilization > 0.0 && m.utilization <= 1.0 + 1e-9, "{alg}: {m:?}");
        assert!(m.peak_parallelism >= 1);
        assert!(m.mean_parallelism <= m.peak_parallelism as f64 + 1e-9);
        assert!((m.speedup - m.total_compute_time / r.makespan).abs() < 1e-9);
    }
}
