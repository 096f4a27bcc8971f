//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints one JSON object as the last line of
//! standard output: `correct`, `attempted`, `failed` and `metrics`. The
//! untraced run reports the end-to-end metrics, the traced run the
//! per-layer ones. A wrong answer or an invalid run exits with code 1
//! after printing.

use std::io::Write;
use std::process::ExitCode;

use perfbench::bench::{run_plain, run_traced, Args, Report};
use perfbench::drive::cpu_cores;
use perfbench::workload::{Scale, Workload};

/// Where run artifacts go, relative to the checkout root.
const RESULTS_DIR: &str = "perfbench/results";

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = get("--seed")
        .unwrap_or("1")
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")
        .unwrap_or("10")
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
    })
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.verdict.attempted,
        report.failed(),
        metrics.join(", ")
    )
}

/// Appends the run's record to `perfbench/results/<workload>.jsonl`:
/// seed, cores, run count and every figure behind the metrics.
fn save_artifact(args: &Args, report: &Report, line: &str) {
    let _ = std::fs::create_dir_all(RESULTS_DIR);
    let path = format!("{RESULTS_DIR}/{}.jsonl", args.workload.name());
    let runs = std::fs::read_to_string(&path).map_or(0, |s| s.lines().count());
    let facts: Vec<String> = report
        .facts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"cpu_cores\": {}, \"run\": {}, \"rejected\": {}, \"wrong\": {}, \"invalid\": {}, {}, \"result\": {}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        cpu_cores(),
        runs + 1,
        report.verdict.rejected,
        report.verdict.wrong,
        report.invalid.as_ref().map_or("null".to_string(), |r| format!("\"{r}\"")),
        facts.join(", "),
        line
    );
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(f, "{record}");
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_plain(&args)
    };
    let line = json(&report);
    save_artifact(&args, &report, &line);
    for (k, v) in &report.facts {
        eprintln!("# {k} = {v}");
    }
    if let Some(why) = &report.invalid {
        eprintln!("perfbench: run invalid: {why}");
    }
    if report.verdict.wrong > 0 {
        eprintln!("perfbench: {} wrong answers", report.verdict.wrong);
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
