//! Reproducing the paper's LIGO anomaly (§V-B): with many parallel tasks
//! moving large data simultaneously, a *finite* datacenter bandwidth
//! becomes a bottleneck the planning model did not account for — and a few
//! executions overrun budgets that were safe under the infinite-capacity
//! assumption.
//!
//! Run with: `cargo run --release --example dc_contention`

// Examples are demo code: panicking on a broken fixture is the right UX.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use budget_sched::prelude::*;

const REPS: u64 = 15;

fn main() {
    let platform = Platform::paper_default();
    let wf = ligo(GenConfig::new(90, 1));
    let floor = simulate(
        &wf,
        &platform,
        &min_cost_schedule(&wf, &platform),
        &SimConfig::planning(),
    )
    .unwrap();
    // A budget just past the parallelization threshold — many VMs, spend
    // close to the budget: exactly where the paper saw overruns.
    let budget = floor.total_cost * 1.25;
    let (schedule, _) = heft_budg(&wf, &platform, budget, &mut NoopSink);
    println!(
        "LIGO-90, budget ${budget:.3} ({} VMs enrolled)\n",
        schedule.used_vm_count()
    );

    println!("{:<28} {:>12} {:>12} {:>10}", "datacenter model", "avg makespan", "avg cost $", "in budget");
    let link = platform.datacenter.bandwidth;
    let scenarios: [(&str, Option<f64>); 4] = [
        ("infinite capacity (paper)", None),
        ("capacity = 8 links", Some(8.0 * link)),
        ("capacity = 2 links", Some(2.0 * link)),
        ("capacity = 1 link", Some(link)),
    ];
    for (name, cap) in scenarios {
        let mut mk = 0.0;
        let mut cost = 0.0;
        let mut ok = 0usize;
        for seed in 0..REPS {
            let mut cfg = SimConfig::stochastic(seed);
            if let Some(c) = cap {
                cfg = cfg.with_dc_capacity(c);
            }
            let r = simulate(&wf, &platform, &schedule, &cfg).unwrap();
            mk += r.makespan;
            cost += r.total_cost;
            if r.within_budget(budget) {
                ok += 1;
            }
        }
        println!(
            "{:<28} {:>11.0}s {:>12.3} {:>8.0}%",
            name,
            mk / REPS as f64,
            cost / REPS as f64,
            100.0 * ok as f64 / REPS as f64
        );
    }
    println!(
        "\nSaturating the datacenter stretches every VM's rental window, so the\n\
         same schedule that held the budget under the infinite-bandwidth model\n\
         can overrun it — matching the overruns the paper reports for LIGO."
    );
}
