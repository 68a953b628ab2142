//! Impact of task-weight uncertainty — the extended-version experiment the
//! paper cites in §V-B: sweep the standard deviation σ over 25/50/75/100 %
//! of the mean and measure how often HEFTBUDG's executions still fit the
//! budget, and what the conservative `w̄ + σ` planning costs in makespan.
//!
//! Run with: `cargo run --release --example uncertainty`

// Examples are demo code: panicking on a broken fixture is the right UX.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use budget_sched::prelude::*;

const REPS: u64 = 25;

fn main() {
    let platform = Platform::paper_default();
    println!(
        "{:<12} {:>6} | {:>10} {:>12} {:>14}",
        "workflow", "sigma", "% in budget", "avg cost $", "avg makespan s"
    );
    for ty in BenchmarkType::ALL {
        for sigma in [0.25, 0.50, 0.75, 1.00] {
            let wf = ty.generate(GenConfig::new(60, 1).with_sigma_ratio(sigma));
            // A comfortable budget: 3x the cheapest execution (2x is the
            // exact transition band for MONTAGE, where compliance wobbles).
            let floor = simulate(
                &wf,
                &platform,
                &min_cost_schedule(&wf, &platform),
                &SimConfig::planning(),
            )
            .unwrap();
            let budget = floor.total_cost * 3.0;
            let (schedule, _) = heft_budg(&wf, &platform, budget, &mut NoopSink);

            let mut within = 0usize;
            let mut cost_sum = 0.0;
            let mut mk_sum = 0.0;
            for seed in 0..REPS {
                let r = simulate(&wf, &platform, &schedule, &SimConfig::stochastic(seed)).unwrap();
                if r.within_budget(budget) {
                    within += 1;
                }
                cost_sum += r.total_cost;
                mk_sum += r.makespan;
            }
            println!(
                "{:<12} {:>5.0}% | {:>9.0}% {:>12.3} {:>14.0}",
                ty.name(),
                sigma * 100.0,
                100.0 * within as f64 / REPS as f64,
                cost_sum / REPS as f64,
                mk_sum / REPS as f64
            );
        }
    }
    println!(
        "\nPlanning with conservative weights (mean + sigma) keeps executions \
         within budget\neven when weights can double (sigma = 100%), at the \
         price of a longer planned makespan."
    );
}
