//! Wall-clock benchmark of the RI-tree engine.
//!
//! ```text
//! perfbench --workload <cached_read|paged_read|tier_read> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload against the engine's public API, checks
//! every answer, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs report the
//! per-layer split. See `README.md` next to this file.

mod calib;
mod common;
mod engine;
mod probe;
mod reads;
mod report;
mod stats;
mod timed_disk;
mod trace;
mod writer;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Directory (relative to the working directory) for the devices'
/// files; removed when the run ends.
const WORK_DIR: &str = ".perfbench-work";
/// Directory (relative to the working directory) traced runs write
/// their spans to.
pub const TRACE_DIR: &str = ".perfbench-trace";

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

/// Correctness and operation counts of a run.
pub struct Outcome {
    /// Every checked answer was right.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned `Err`, or deletes that found nothing.
    pub failed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Removes the work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<String, String> {
    let work =
        WorkDir(PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{:?}: {e}", work.0))?;
    let mut report = Report::default();
    let out = match args.workload.as_str() {
        "cached_read" => reads::run(&reads::CACHED, args, &work.0, &mut report),
        "paged_read" => reads::run(&reads::PAGED, args, &work.0, &mut report),
        "tier_read" => reads::run(&reads::TIER, args, &work.0, &mut report),
        other => Err(format!("unknown workload {other}")),
    }?;
    report.set("failed_share", common::ratio(out.failed as f64, out.attempted as f64));
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.note(format!("available_parallelism = {cpus}"));
    for line in &report.notes {
        println!("# {line}");
    }
    let (list, zero_if_missing) =
        if args.trace { (&PER_LAYER[..], true) } else { (&END_TO_END[..], false) };
    report.result_line(list, zero_if_missing, out.correct, out.attempted, out.failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
