//! The ledger's self-test: every workload named in `BENCHMARK.json`
//! runs at a tiny size, untraced and traced, and must pass its
//! correctness gate and emit exactly the metrics `BENCHMARK.json`
//! names, each with its unit.

use std::collections::BTreeMap;
use std::process::Command;

use serde::Deserialize;

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Reading>,
}

#[derive(Deserialize)]
struct Reading {
    value: f64,
    unit: String,
}

fn benchmark() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the ledger");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: u8) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_gesto-ledger"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run the ledger");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is the JSON result")
}

fn check(workload: &str, trace: u8, want: &[Metric]) {
    let got = run(workload, trace);
    assert!(got.correct, "{workload}: correctness gate failed");
    assert!(got.attempted >= 1, "{workload}: nothing attempted");
    assert_eq!(got.failed, 0, "{workload}: frames lost under Block");
    let names: Vec<&str> = got.metrics.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = want.iter().map(|m| m.name.as_str()).collect();
    expected.sort_unstable();
    assert_eq!(names, expected, "{workload} (trace {trace}): metric set");
    for m in want {
        let r = &got.metrics[&m.name];
        assert_eq!(r.unit, m.unit, "{workload}: unit of {}", m.name);
        assert!(
            r.value.is_finite(),
            "{workload}: {} is not a number",
            m.name
        );
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_gate() {
    let b = benchmark();
    assert!(!b.workloads.is_empty());
    for w in &b.workloads {
        check(&w.name, 0, &b.end_to_end);
        check(&w.name, 1, &b.per_layer);
    }
}
