//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--regress naive|recording] [--out DIR]`
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).

use perfbench::metrics::result_json;
use perfbench::run::{run, Options, Regress};
use perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload plan-400|refine-60|execute-400 --seed N --seconds S --trace 0|1 \
                     [--regress naive|recording] [--out DIR]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::Plan400,
        seed: perfbench::reference::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        regress: None,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--regress" => {
                opts.regress = Some(match value.as_str() {
                    "naive" => Regress::Naive,
                    "recording" => Regress::Recording,
                    _ => return Err(bad("regression")),
                })
            }
            "--out" => opts.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    opts.workload = workload.ok_or("missing --workload")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(out) => {
            print!("{}", out.text);
            println!(
                "{}",
                result_json(
                    out.correct,
                    out.attempted,
                    out.failed,
                    out.names,
                    &out.values
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
