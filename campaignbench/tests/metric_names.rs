//! Every workload runs at toy size in both modes, passes its output checks,
//! and prints exactly the metrics `BENCHMARK.json` declares, with their
//! units.

use mufuzz_corpus::JsonValue;
use std::process::{Command, Output};

fn spec() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    JsonValue::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` list.
fn declared(spec: &JsonValue, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|entry| {
            let field = |key| entry.get(key).and_then(JsonValue::as_str).map(String::from);
            (
                field("name").expect("every entry has a name"),
                field("unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaignbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    let spec = spec();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    for (workload, _) in declared(&spec, "workloads") {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = run(&[
                "--workload",
                &workload,
                "--seed",
                "7",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--toy",
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}:\n{stderr}"
            );
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = JsonValue::parse(last).expect("the last line is JSON");
            let keys: Vec<&str> = result
                .entries()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let printed: Vec<(String, String)> = result
                .get("metrics")
                .and_then(JsonValue::entries)
                .expect("a metrics object")
                .iter()
                .map(|(name, m)| {
                    assert!(
                        matches!(m.get("value"), Some(JsonValue::Number(_))),
                        "{workload}: {name} has no numeric value"
                    );
                    let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(&printed, expected, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--seed", "1"][..],
        &["--workload", "coverage_d1", "--trace", "2"][..],
        &["--bogus", "1"][..],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
