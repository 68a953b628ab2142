//! Quickstart: generate a benchmark workflow, schedule it under a budget,
//! replay the execution with stochastic task weights, inspect the result.
//!
//! Run with: `cargo run --release --example quickstart`

// Examples are demo code: panicking on a broken fixture is the right UX.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use budget_sched::prelude::*;

fn main() {
    // 1. A 30-task MONTAGE instance; task weights are Gaussian with
    //    σ = 50 % of the mean (the paper's default uncertainty level).
    let wf = montage(GenConfig::new(30, 1));
    println!("workflow: {} tasks, {} edges", wf.task_count(), wf.edge_count());
    let st = analysis::stats(&wf);
    println!("depth {} / width {} / CCR {:.2} bytes per unit of work\n", st.depth, st.width, st.ccr);

    // 2. The paper's 3-category platform (Table II).
    let platform = Platform::paper_default();
    for (i, cat) in platform.categories().iter().enumerate() {
        println!(
            "cat{i} `{}`: {:.0} Gflop/s at ${:.2}/h (+${:.3} init, {:.0}s boot)",
            cat.name, cat.speed, cat.cost_per_hour, cat.init_cost, cat.boot_time
        );
    }

    // 3. Schedule with HEFTBUDG under a $2 budget.
    let budget = 2.0;
    let (schedule, _priority) = heft_budg(&wf, &platform, budget, &mut NoopSink);
    println!("\nHEFTBUDG enrolled {} VMs for a ${budget} budget", schedule.used_vm_count());

    // 4. Conservative planning forecast, then 5 stochastic replays.
    let planned = simulate(&wf, &platform, &schedule, &SimConfig::planning()).unwrap();
    println!(
        "planned (conservative): makespan {:.0}s, cost ${:.3}",
        planned.makespan, planned.total_cost
    );
    for seed in 0..5 {
        let run = simulate(&wf, &platform, &schedule, &SimConfig::stochastic(seed)).unwrap();
        println!(
            "  seed {seed}: makespan {:>6.0}s  cost ${:.3}  within budget: {}",
            run.makespan,
            run.total_cost,
            run.within_budget(budget)
        );
    }

    // 5. A text Gantt chart of the planned execution.
    println!("\n{}", planned.gantt(72));
}
