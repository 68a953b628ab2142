//! Golden digests: the schedules and decision streams pinned across
//! commits.
//!
//! The equivalence suite compares the fast planner with the naive
//! reference inside one build, so a change that alters both the same way
//! passes it. This suite pins FNV-1a digests of
//!
//! - every [`Algorithm::ALL`] schedule on the equivalence suite's five
//!   workloads at three budgets, and
//! - for the algorithms whose decision stream is pinned, the full
//!   `RecordingSink` stream of `run_observed` followed by a planning-mode
//!   `simulate_observed` of the result (each event's `Debug` form, which
//!   prints every field and round-trips every float).
//!
//! A refactor that claims to change no behaviour must leave every digest
//! as it is. A deliberate behaviour change re-pins the table and says why.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfs_observe::RecordingSink;
use wfs_platform::Platform;
use wfs_scheduler::{min_cost_schedule, Algorithm};
use wfs_simulator::{simulate, simulate_observed, Schedule, SimConfig};
use wfs_workflow::gen::{chain, cybershake, fork_join, ligo, montage, GenConfig};
use wfs_workflow::Workflow;

/// The equivalence suite's workloads.
fn workloads() -> Vec<(&'static str, Workflow)> {
    vec![
        ("montage-50", montage(GenConfig::new(50, 7))),
        ("ligo-40", ligo(GenConfig::new(40, 11))),
        ("cybershake-45", cybershake(GenConfig::new(45, 13))),
        ("chain-24", chain(24, 800.0, 5e6)),
        ("fork_join-16", fork_join(16, 1200.0, 2e6)),
    ]
}

/// Budget multiples of each workload's min-cost floor.
const MULTS: [f64; 3] = [1.05, 1.5, 3.0];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest a schedule: its VM categories, then each VM's task order (which
/// also fixes the assignment).
fn schedule_into(h: &mut Fnv, s: &Schedule) {
    h.u32(u32::try_from(s.vm_count()).unwrap());
    for vm in s.vm_ids() {
        h.u32(s.vm_category(vm).0);
        let order = s.order(vm);
        h.u32(u32::try_from(order.len()).unwrap());
        for t in order {
            h.u32(t.0);
        }
    }
}

/// `(algorithm, schedule digest, event-stream digest)` over all workloads
/// and budgets; `None` where the stream is not pinned.
const GOLDEN: [(&str, u64, Option<u64>); 13] = [
    ("MIN-MIN", 0xdc3684d28a4f7bc2, Some(0xca8891f902b6dfb8)),
    ("HEFT", 0xc957d1355de03990, Some(0x0b35cab11ab6ea5b)),
    ("MIN-MINBUDG", 0xda94e1b52ab7bcef, Some(0x6cd93f719eaebbb0)),
    ("HEFTBUDG", 0xf1387c68ee71bbee, Some(0x55d10138a7b455fd)),
    ("HEFTBUDG+", 0x1c1977a770613cd0, Some(0xf2da75625c56bc7e)),
    ("HEFTBUDG+INV", 0xb5bc8b6078b00980, Some(0xeaa52c2f95ea87f1)),
    ("BDT", 0x0f1074947e5ef128, None),
    ("CG", 0x175b723572d48500, None),
    ("CG+", 0xad4cad21929aff57, None),
    ("MAX-MIN", 0x229ea35605a09af0, None),
    ("MAX-MINBUDG", 0x7374896e00b3c543, None),
    ("SUFFERAGE", 0xd7e19923fdf875e6, None),
    ("SUFFERAGEBUDG", 0x3d70bab6a4c49a44, None),
];

#[test]
fn schedules_and_decision_streams_match_pinned_digests() {
    let p = Platform::paper_default();
    let cases: Vec<(Workflow, f64)> = workloads()
        .into_iter()
        .flat_map(|(_, wf)| {
            let floor = simulate(&wf, &p, &min_cost_schedule(&wf, &p), &SimConfig::planning())
                .expect("min-cost schedule simulates")
                .total_cost;
            MULTS.map(|m| (wf.clone(), floor * m))
        })
        .collect();
    let mut got = Vec::new();
    for (alg, &(name, _, pinned_events)) in Algorithm::ALL.iter().zip(&GOLDEN) {
        assert_eq!(alg.name(), name, "GOLDEN rows follow Algorithm::ALL");
        let (mut sched_h, mut event_h) = (Fnv::new(), Fnv::new());
        for (wf, budget) in &cases {
            let mut rec = RecordingSink::new();
            let s = alg.run_observed(wf, &p, *budget, &mut rec);
            schedule_into(&mut sched_h, &s);
            simulate_observed(wf, &p, &s, &SimConfig::planning(), &mut rec)
                .expect("planned schedules simulate");
            for e in &rec.events {
                event_h.bytes(format!("{e:?}\n").as_bytes());
            }
        }
        got.push((name, sched_h.0, pinned_events.map(|_| event_h.0)));
    }
    let want: Vec<_> = GOLDEN.to_vec();
    assert_eq!(got, want, "digests moved; actual table:\n{}", table(&got));
}

fn table(rows: &[(&str, u64, Option<u64>)]) -> String {
    rows.iter()
        .map(|(n, s, e)| {
            let e = e.map_or("None".to_string(), |e| format!("Some(0x{e:016x})"));
            format!("    ({n:?}, 0x{s:016x}, {e}),\n")
        })
        .collect()
}
