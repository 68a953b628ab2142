//! The three workloads, their seeded op lists, and the timed set-up that
//! turns an op list into parsed instances with their budget levels.

use budget_sched::platform::Platform;
use budget_sched::scheduler::{min_cost_schedule, Algorithm};
use budget_sched::simulator::{simulate, SimConfig};
use budget_sched::workflow::dax;
use budget_sched::workflow::gen::{BenchmarkType, GenConfig};
use budget_sched::workflow::Workflow;

/// Runtime-to-work conversion for DAX text (the same constant `wfs` uses).
pub const DAX_REF_SPEED: f64 = 10.0;

/// How an instance reaches the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `Workflow::to_json` / `Workflow::from_json`.
    Json,
    /// Pegasus DAX (`dax::to_dax` / `dax::from_dax`).
    Dax,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HEFTBUDG and MIN-MINBUDG at three budgets on 400-task instances.
    Plan400,
    /// HEFTBUDG+ / HEFTBUDG+INV at three budgets on 60-task instances.
    Refine60,
    /// Plan, replay, faulted recovery and trace export on 400-task DAX.
    Execute400,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Plan400, Workload::Refine60, Workload::Execute400];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Plan400 => "plan-400",
            Workload::Refine60 => "refine-60",
            Workload::Execute400 => "execute-400",
        }
    }

    /// Parse a workload name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Tasks per instance.
    pub fn tasks(self) -> usize {
        match self {
            Workload::Plan400 | Workload::Execute400 => 400,
            Workload::Refine60 => 60,
        }
    }

    /// Instances of each benchmark type in one pass. The 400-task
    /// workloads take eight: their op times depend on the instance, and
    /// with four the pass medians moved with the seed. Refinement work per
    /// 60-task op hardly varies between instances.
    pub fn per_type(self) -> usize {
        match self {
            Workload::Plan400 | Workload::Execute400 => 8,
            Workload::Refine60 => 4,
        }
    }

    /// Text format of the instances.
    pub fn format(self) -> Format {
        match self {
            Workload::Execute400 => Format::Dax,
            Workload::Plan400 | Workload::Refine60 => Format::Json,
        }
    }
}

/// One entry of the op list: which instance an op works on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// Position in the op list.
    pub index: usize,
    /// Benchmark type of the generated instance.
    pub kind: BenchmarkType,
    /// Generator seed of the instance.
    pub gen_seed: u64,
    /// Seed of the op's stochastic replays, faults and traced run.
    pub run_seed: u64,
}

/// SplitMix64 step: the seed mixer for every derived seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The op list of one pass: a pure function of the workload and the seed.
/// Types are interleaved so every stretch of the list mixes all three.
pub fn op_list(w: Workload, seed: u64) -> Vec<OpSpec> {
    let base = mix(seed, w.tasks() as u64);
    (0..w.per_type() * BenchmarkType::ALL.len())
        .map(|index| {
            let kind = BenchmarkType::ALL[index % BenchmarkType::ALL.len()];
            let i = index as u64;
            OpSpec {
                index,
                kind,
                gen_seed: mix(base, 2 * i),
                run_seed: mix(base, 2 * i + 1),
            }
        })
        .collect()
}

/// One parsed instance, ready for its op.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// The op-list entry it came from.
    pub spec: OpSpec,
    /// The instance as the program receives it.
    pub text: String,
    /// Table III's budget levels: low (min-cost floor), medium, high
    /// (2 × unconstrained HEFT cost).
    pub budgets: [f64; 3],
}

/// Parse instance text in the workload's format.
pub fn parse(format: Format, text: &str) -> Result<Workflow, String> {
    match format {
        Format::Json => Workflow::from_json(text).map_err(|e| e.to_string()),
        Format::Dax => dax::from_dax(text, DAX_REF_SPEED).map_err(|e| e.to_string()),
    }
}

/// The three characteristic budgets of Table III for a parsed instance.
pub fn characteristic_budgets(wf: &Workflow, platform: &Platform) -> Result<[f64; 3], String> {
    let planning = SimConfig::planning();
    let low = simulate(wf, platform, &min_cost_schedule(wf, platform), &planning)
        .map_err(|e| e.to_string())?
        .total_cost;
    let heft = Algorithm::Heft.run(wf, platform, f64::INFINITY);
    let high = 2.0
        * simulate(wf, platform, &heft, &planning)
            .map_err(|e| e.to_string())?
            .total_cost;
    Ok([low, (low + high) / 2.0, high])
}

/// Generate, serialise, parse back and budget every instance of a pass.
/// This is exactly the work `setup_s` times.
pub fn setup(w: Workload, seed: u64, platform: &Platform) -> Result<Vec<Instance>, String> {
    op_list(w, seed)
        .into_iter()
        .map(|spec| {
            let wf = spec.kind.generate(GenConfig::new(w.tasks(), spec.gen_seed));
            let text = match w.format() {
                Format::Json => wf.to_json(),
                Format::Dax => dax::to_dax(&wf, DAX_REF_SPEED),
            };
            let parsed = parse(w.format(), &text)?;
            let budgets = characteristic_budgets(&parsed, platform)?;
            Ok(Instance {
                spec,
                text,
                budgets,
            })
        })
        .collect()
}
