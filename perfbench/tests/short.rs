//! Short runs of every workload, checked against `BENCHMARK.json`: the
//! workloads it lists are the ones the benchmark runs, and each report
//! prints only metrics it declares, every one of them unless the
//! percentile rule skipped it. Run with `cargo test --release`; a debug
//! build of the benchmark refuses to measure, which is checked instead.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf()
}

/// The `"name"` values inside the `section` array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let open = start + text[start..].find('[').expect("section is an array");
    let close = open + text[open..].find(']').expect("array closes");
    text[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name value") + 1..];
            s[..s.find('"').expect("name ends")].to_owned()
        })
        .collect()
}

fn bench(workload: &str, trace: u8) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dbex-perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(trace.to_string())
        .arg("--short")
        .output()
        .expect("run the benchmark")
}

/// The metric names in the report's last line: each is the last quoted
/// key before a `{"value"` object.
fn reported(last: &str) -> Vec<String> {
    let metrics = &last[last.find("\"metrics\"").expect("metrics key")..];
    let parts: Vec<&str> = metrics.split("{\"value\"").collect();
    parts[..parts.len() - 1]
        .iter()
        .map(|chunk| {
            let end = chunk.rfind("\":").expect("a key before each value");
            let start = chunk[..end].rfind('"').expect("key opens") + 1;
            chunk[start..end].to_owned()
        })
        .collect()
}

#[test]
fn short_runs_report_the_declared_workloads_and_metrics() {
    if cfg!(debug_assertions) {
        let out = bench("cad_cold_40k", 0);
        assert!(
            !out.status.success(),
            "a debug build must refuse to measure"
        );
        assert!(out.stdout.is_empty(), "a refused run prints no result");
        return;
    }
    let workloads = declared("workloads");
    assert_eq!(workloads, ["explore_hot", "explore_cold", "cad_cold_40k"]);
    for workload in &workloads {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let out = bench(workload, trace);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a report");
            assert!(
                last.starts_with("{\"correct\": true, "),
                "{workload}: {last}"
            );
            let names = reported(last);
            let expected = declared(section);
            for name in &names {
                assert!(
                    expected.contains(name),
                    "{workload} reports undeclared {name}"
                );
            }
            for name in &expected {
                let skipped = stdout
                    .lines()
                    .any(|l| l.starts_with(&format!("skipped {name}:")));
                assert!(
                    names.contains(name) || skipped,
                    "{workload} trace {trace} lacks {name}"
                );
            }
        }
    }
}

#[test]
fn unknown_workloads_and_missing_flags_are_refused() {
    if cfg!(debug_assertions) {
        return;
    }
    let out = bench("explore_lukewarm", 0);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let out = Command::new(env!("CARGO_BIN_EXE_dbex-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", "explore_hot", "--seed", "1"])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
}
