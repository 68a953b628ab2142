//! The op list is a pure function of the seed, and the metric names and
//! units the benchmark prints are the ones `BENCHMARK.json` declares.

use budget_sched::platform::Platform;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workload::{op_list, setup, Workload};
use serde_json::Value;

#[test]
fn op_list_is_a_pure_function_of_the_seed() {
    for w in Workload::ALL {
        assert_eq!(op_list(w, 7), op_list(w, 7), "{}", w.name());
        assert_ne!(op_list(w, 7), op_list(w, 8), "{}", w.name());
        assert_eq!(op_list(w, 7).len(), 3 * w.per_type(), "{}", w.name());
    }
}

#[test]
fn set_up_inputs_repeat_for_a_seed() {
    let p = Platform::paper_default();
    let a = setup(Workload::Refine60, 3, &p).expect("set-up");
    let b = setup(Workload::Refine60, 3, &p).expect("set-up");
    assert_eq!(a, b);
    for inst in &a {
        let [low, medium, high] = inst.budgets;
        assert!(
            0.0 < low && low <= medium && medium <= high,
            "{:?}",
            inst.budgets
        );
    }
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), printed(&END_TO_END));
    assert_eq!(declared("per_layer"), printed(&PER_LAYER));
}

#[test]
fn workload_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("read")).expect("parse");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}
