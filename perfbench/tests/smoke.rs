//! Every workload at smoke size, untraced and traced: the reported
//! metrics are exactly the ones `BENCHMARK.json` names, with its units,
//! and every value is finite.
//!
//! Run: `cargo test --release --manifest-path perfbench/Cargo.toml`

use perfbench::bench::{run_plain, run_traced, Args, Report};
use perfbench::workload::{Scale, Workload};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("{key} missing in {entry}"));
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("closing quote") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn assert_reports(report: &Report, section: &str, label: &str) {
    assert_eq!(report.verdict.wrong, 0, "{label}: wrong answers");
    assert_eq!(report.verdict.rejected, 0, "{label}: rejected requests");
    assert!(report.verdict.attempted > 0, "{label}: nothing attempted");
    let want = declared(section);
    let got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(got, want, "{label}: metrics differ from BENCHMARK.json");
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{label}: {name} = {value}");
    }
}

fn args(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        scale: Scale::smoke(),
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in Workload::ALL {
        let report = run_plain(&args(w, false));
        assert_reports(&report, "end_to_end", w.name());
        for (name, value, _) in &report.metrics {
            assert!(*value > 0.0, "{}: {name} must never be 0", w.name());
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    for w in Workload::ALL {
        let report = run_traced(&args(w, true));
        assert_reports(&report, "per_layer", w.name());
    }
}
