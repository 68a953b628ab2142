//! Using the library on your own workflow and platform — not a Pegasus
//! benchmark: a hand-built video-analytics pipeline on a 4-category
//! platform, scheduled with every algorithm, refined with HEFTBUDG+.
//!
//! Run with: `cargo run --release --example custom_pipeline`

// Examples are demo code: panicking on a broken fixture is the right UX.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use budget_sched::prelude::*;

/// decode -> {detect_1..k} -> track -> {annotate, index} -> publish
fn build_pipeline(cameras: usize) -> Workflow {
    let mut b = WorkflowBuilder::new("video-analytics");
    let gb = 1e9;
    let decode = b.add_task("decode", StochasticWeight::new(400.0, 80.0));
    b.set_external_input(decode, 2.0 * gb);
    let track = b.add_task("track", StochasticWeight::new(600.0, 120.0));
    for i in 0..cameras {
        let det = b.add_task(format!("detect_{i}"), StochasticWeight::new(1500.0, 600.0));
        b.add_edge(decode, det, 0.3 * gb).unwrap();
        b.add_edge(det, track, 0.05 * gb).unwrap();
    }
    let annotate = b.add_task("annotate", StochasticWeight::new(300.0, 60.0));
    let index = b.add_task("index", StochasticWeight::new(200.0, 40.0));
    let publish = b.add_task("publish", StochasticWeight::new(100.0, 10.0));
    b.add_edge(track, annotate, 0.1 * gb).unwrap();
    b.add_edge(track, index, 0.02 * gb).unwrap();
    b.add_edge(annotate, publish, 0.1 * gb).unwrap();
    b.add_edge(index, publish, 0.01 * gb).unwrap();
    b.set_external_output(publish, 0.5 * gb);
    b.build().expect("pipeline is a DAG")
}

fn main() {
    let wf = build_pipeline(12);
    println!("{} tasks / {} edges; DOT preview:\n", wf.task_count(), wf.edge_count());
    // Print the first lines of the Graphviz export.
    let dot = wfs_workflow::dot::to_dot(&wf);
    for line in dot.lines().take(6) {
        println!("  {line}");
    }
    println!("  ...\n");

    // A custom 4-category platform: note `burst` is fast but over-priced,
    // so cost is NOT linear in speed here.
    let platform = Platform::new(
        vec![
            VmCategory::new("eco", 8.0, 0.04, 0.002, 60.0),
            VmCategory::new("std", 16.0, 0.09, 0.002, 60.0),
            VmCategory::new("perf", 32.0, 0.18, 0.004, 90.0),
            VmCategory::new("burst", 48.0, 0.40, 0.010, 45.0),
        ],
        Datacenter::new(250.0e6, 0.03, 0.05e-9),
    );

    // A binding budget: 1.3x the cheapest possible execution.
    let floor = simulate(
        &wf,
        &platform,
        &min_cost_schedule(&wf, &platform),
        &SimConfig::planning(),
    )
    .unwrap()
    .total_cost;
    let budget = floor * 1.3;
    println!("cheapest execution ${floor:.3}; comparison under a ${budget:.3} budget:");
    println!("{:<14} {:>9} {:>9} {:>5} {:>7}", "algorithm", "makespan", "cost $", "VMs", "ok?");
    let cfg = SimConfig::stochastic(11);
    for alg in Algorithm::ALL {
        let s = alg.run(&wf, &platform, budget);
        let r = simulate(&wf, &platform, &s, &cfg).unwrap();
        println!(
            "{:<14} {:>8.0}s {:>9.3} {:>5} {:>7}",
            alg.name(),
            r.makespan,
            r.total_cost,
            r.vms_used,
            if r.within_budget(budget) { "yes" } else { "NO" }
        );
    }

    // Drill into the refined schedule.
    let refined = heft_budg_plus(&wf, &platform, budget, RefineOrder::Forward, &mut NoopSink);
    let r = simulate(&wf, &platform, &refined, &SimConfig::planning()).unwrap();
    println!("\nHEFTBUDG+ planned execution:\n{}", r.gantt(70));
}
