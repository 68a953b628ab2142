//! Metric names and units, and the small statistics the report needs.
//! `BENCHMARK.json` lists the same names and units (checked by a test).

/// End-to-end metrics, from untraced runs: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, from the traced run: (name, unit). Times and counts
/// are per op; `*.pct` is a layer's share of op time.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("op.ms", "ms"),
    ("ingest.ms", "ms"),
    ("sched.ms", "ms"),
    ("evaluate.ms", "ms"),
    ("lint.ms", "ms"),
    ("bench.self_ms", "ms"),
    ("ingest.pct", "%"),
    ("plan.pct", "%"),
    ("refine.pct", "%"),
    ("evaluate.pct", "%"),
    ("replay.pct", "%"),
    ("recovery.pct", "%"),
    ("lint.pct", "%"),
    ("export.pct", "%"),
    ("spans.coverage_pct", "%"),
    ("ingest.kb", "KiB"),
    ("ingest.mb_per_s", "MB/s"),
    ("plan.sweeps", "count"),
    ("plan.candidate_evals", "count"),
    ("plan.cache_hit_ratio", "ratio"),
    ("plan.vms_provisioned", "count"),
    ("refine.trials", "count"),
    ("refine.accept_ratio", "ratio"),
    ("refine.trials_per_s", "1/s"),
    ("evaluate.sim_events", "count"),
    ("replay.tasks_per_s", "1/s"),
    ("recovery.epochs", "count"),
    ("recovery.replanned_frac", "ratio"),
    ("recovery.crashes", "count"),
    ("recovery.boot_retries", "count"),
    ("recovery.tasks_lost", "count"),
    ("recovery.over_budget_frac", "ratio"),
    ("lint.violations", "count"),
    ("trace.events", "count"),
    ("trace.json_kb", "KiB"),
    ("ledger.reconciled_frac", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Linear-interpolation quantile of sorted samples (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The result line: one JSON object with the metrics in `names` order.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &[f64],
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
