//! Smoke test of the `dtf-benchmark` binary at a reduced floor
//! (`--seconds 1`; the three-cycle minimum still applies): every workload
//! passes its output checks on two seeds, prints exactly the metrics
//! `BENCHMARK.json` declares, and leaves a well-formed `trace.json`; the
//! layer map names only what the contract declares.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

const SEEDS: [u64; 2] = [42, 43];

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json reads"))
        .expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric section of the contract.
fn declared(section: &str) -> BTreeSet<(String, String)> {
    spec()[section]
        .as_array()
        .expect("metric section is a list")
        .iter()
        .map(|m| (m["name"].as_str().unwrap().to_string(), m["unit"].as_str().unwrap().to_string()))
        .collect()
}

/// Run the binary and return its result line, parsed.
fn run(workload: &str, seed: u64, trace: bool, out: Option<&Path>) -> Value {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dtf-benchmark"));
    cmd.args(["run", "--workload", workload, "--seconds", "1"]).args([
        "--seed",
        &seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(path) = out {
        cmd.arg("--out").arg(path);
    }
    let output = cmd.output().expect("binary starts");
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let result: Value =
        serde_json::from_str(stdout.lines().last().expect("a result line")).expect("result parses");
    let keys: Vec<&str> = result.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result["correct"].as_bool(), Some(true), "{workload} seed {seed}: {stdout}");
    assert_eq!(result["failed"].as_u64(), Some(0));
    assert!(result["attempted"].as_u64().unwrap() >= 3, "at least three cycles");
    // every metric is also printed by name and unit above the result line
    for (name, metric) in result["metrics"].as_object().unwrap() {
        let prefix = format!("{workload}/{name} ");
        let line = stdout.lines().find(|l| l.starts_with(&prefix)).expect("metric is printed");
        assert!(line.ends_with(metric["unit"].as_str().unwrap()), "{line}");
    }
    result
}

fn reported(result: &Value) -> BTreeSet<(String, String)> {
    result["metrics"]
        .as_object()
        .unwrap()
        .iter()
        .map(|(name, m)| {
            assert!(m["value"].as_f64().is_some_and(f64::is_finite), "{name} is a finite number");
            (name.clone(), m["unit"].as_str().unwrap().to_string())
        })
        .collect()
}

/// Every span's parent exists, opened before it, and contains it.
fn check_trace(path: &Path) {
    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("trace.json reads"))
            .expect("trace.json parses");
    let spans = doc["spans"].as_array().expect("spans");
    assert!(spans.iter().any(|s| s["kind"].as_str() == Some("cycle")), "a traced cycle");
    assert!(spans.iter().any(|s| s["kind"].as_str() == Some("replay")), "a layer replay");
    for (id, span) in spans.iter().enumerate() {
        assert_eq!(span["id"].as_u64(), Some(id as u64));
        let (start, end) = (span["start_ns"].as_u64().unwrap(), span["end_ns"].as_u64().unwrap());
        assert!(start <= end, "span {id} ends before it starts");
        match span["parent"].as_u64() {
            Some(parent) => {
                assert!(
                    (parent as usize) < id,
                    "span {id}: parent {parent} is not an earlier span"
                );
                let p = &spans[parent as usize];
                let inside = p["start_ns"].as_u64().unwrap() <= start
                    && end <= p["end_ns"].as_u64().unwrap();
                assert!(inside, "span {id} leaves its parent {parent}");
                assert_eq!(span["cycle"], p["cycle"], "span {id} and its parent share a cycle");
            }
            None => assert_ne!(span["kind"].as_str(), Some("call"), "call span {id} has no parent"),
        }
    }
}

fn smoke(workload: &str) {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for seed in SEEDS {
        assert_eq!(reported(&run(workload, seed, false, None)), declared("end_to_end"));
        let trace = tmp.join(format!("trace-{workload}-{seed}.json"));
        assert_eq!(reported(&run(workload, seed, true, Some(&trace))), declared("per_layer"));
        check_trace(&trace);
        std::fs::remove_file(&trace).expect("trace.json removes");
    }
}

#[test]
fn contract_names_the_four_workloads() {
    let names: Vec<String> = spec()["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap().to_string())
        .collect();
    assert_eq!(names, ["campaign_insitu", "campaign_durable", "archive_analyze", "live_follow"]);
}

/// `LAYER_MAP.json` is the machine-readable half of the README's layer →
/// end-to-end map: one entry per declared per-layer metric, each naming
/// declared `workload/metric` pairs (none for the two metrics that qualify
/// the trace itself).
#[test]
fn layer_map_covers_every_per_layer_metric() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("LAYER_MAP.json");
    let map: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("LAYER_MAP.json reads"))
            .expect("LAYER_MAP.json parses");
    let map = map.as_object().expect("a map of metric name to moved pairs");
    let names = |section: &str| -> BTreeSet<String> {
        spec()[section]
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e["name"].as_str().unwrap().to_string())
            .collect()
    };
    let (workloads, end_to_end) = (names("workloads"), names("end_to_end"));
    assert_eq!(map.keys().cloned().collect::<BTreeSet<_>>(), names("per_layer"));
    for (layer, moves) in map {
        let moves = moves.as_array().unwrap_or_else(|| panic!("{layer}: not a list"));
        let qualifies_trace =
            layer == "proc.trace_overhead_pct" || layer == "proc.unattributed_pct";
        assert_eq!(moves.is_empty(), qualifies_trace, "{layer}: {moves:?}");
        for pair in moves {
            let (workload, metric) =
                pair.as_str().and_then(|p| p.split_once('/')).expect("workload/metric");
            assert!(workloads.contains(workload), "{layer} names workload {workload}");
            assert!(end_to_end.contains(metric), "{layer} names metric {metric}");
        }
    }
}

#[test]
fn campaign_insitu() {
    smoke("campaign_insitu");
}

#[test]
fn campaign_durable() {
    smoke("campaign_durable");
}

#[test]
fn archive_analyze() {
    smoke("archive_analyze");
}

#[test]
fn live_follow() {
    smoke("live_follow");
}

#[test]
fn flags_a_subcommand_does_not_use_are_refused() {
    for args in [
        &["run", "--workload", "live_follow", "--runs", "3"][..],
        &["run", "--workload", "live_follow", "--out", "trace.json"],
        &["all", "--out", "trace.json"],
        &["all", "--workload", "live_follow"],
        &["selfcheck", "--trace", "1"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_dtf-benchmark"))
            .args(args)
            .output()
            .expect("binary starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_dtf-benchmark"))
        .args(["run", "--workload", "nope", "--seconds", "1"])
        .output()
        .expect("binary starts");
    assert!(!output.status.success());
    assert!(!String::from_utf8_lossy(&output.stdout).contains("\"metrics\""));
}
