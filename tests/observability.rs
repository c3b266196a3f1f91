//! Golden snapshot tests over the observability surface.
//!
//! `EXPLAIN ANALYZE CADVIEW` output and the REPL's `.metrics` dump are
//! compared against checked-in snapshots under `tests/snapshots/`, with
//! every wall-clock-dependent field masked by
//! [`dbexplorer::obs::mask_timings`] first. Structural fields — span
//! names, call counts, rows scanned, cache hits/misses, degradation
//! level, chi-square scores — are compared byte-for-byte.
//!
//! Regenerate after an intentional output change with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test observability
//! ```
//!
//! Cache-counter determinism depends on one session per build: the
//! session's StatsCache starts empty, so hit/miss deltas are a function
//! of the build alone.

use dbexplorer::data::{HotelsGenerator, MushroomGenerator, UsedCarsGenerator};
use dbexplorer::obs::mask_timings;
use dbexplorer::query::{QueryOutput, Session};
use dbexplorer::table::Table;
use std::path::PathBuf;

/// The three datasets of `parallel_determinism.rs`, with their pivots.
fn datasets() -> Vec<(&'static str, Table, &'static str)> {
    vec![
        ("cars", UsedCarsGenerator::new(7).generate(6_000), "Make"),
        ("mushroom", MushroomGenerator::new(7).generate(4_000), "Odor"),
        ("hotels", HotelsGenerator::new(7).generate(4_000), "District"),
    ]
}

/// Runs `EXPLAIN ANALYZE CADVIEW` over a fresh session and returns the
/// masked report.
fn masked_explain_analyze(name: &str, table: Table, pivot: &str, threads: usize) -> String {
    let mut session = Session::new();
    session.set_threads(threads);
    session.register_table(name, table);
    let sql =
        format!("EXPLAIN ANALYZE CADVIEW v AS SET pivot = {pivot} FROM {name} IUNITS 3");
    let out = session
        .execute(&sql)
        .unwrap_or_else(|e| panic!("{name}: EXPLAIN ANALYZE failed: {e}"));
    let QueryOutput::Text(text) = out else {
        panic!("{name}: EXPLAIN ANALYZE returned a non-text output");
    };
    mask_timings(&text)
}

fn snapshot_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(file)
}

/// Compares `actual` against the named snapshot; rewrites the snapshot
/// instead when `UPDATE_SNAPSHOTS` is set.
fn assert_snapshot(file: &str, actual: &str) {
    let path = snapshot_path(file);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("cannot write snapshot {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read snapshot {} ({e}); generate it with \
             UPDATE_SNAPSHOTS=1 cargo test --test observability",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "masked output diverged from {}; if the change is intentional, \
         regenerate with UPDATE_SNAPSHOTS=1 cargo test --test observability",
        path.display()
    );
}

#[test]
fn explain_analyze_matches_snapshot_per_dataset() {
    for (name, table, pivot) in datasets() {
        let masked = masked_explain_analyze(name, table, pivot, 1);
        // Sanity before pinning: the report must actually carry the
        // analyze section and the structural counters.
        assert!(masked.contains("analyze (per-phase spans):"), "{name}:\n{masked}");
        assert!(masked.contains("cad_build"), "{name}:\n{masked}");
        assert!(masked.contains("cache_hits="), "{name}:\n{masked}");
        assert!(masked.contains("degradation_level="), "{name}:\n{masked}");
        assert!(!masked.contains("ms "), "unmasked duration in {name}:\n{masked}");
        assert_snapshot(&format!("explain_analyze_{name}.txt"), &masked);
    }
}

#[test]
fn explain_analyze_masked_output_is_thread_count_invariant() {
    // Everything except wall time is part of the determinism contract:
    // the masked report must be byte-identical at 1, 2, and 8 threads.
    for (name, table, pivot) in datasets() {
        let reference = masked_explain_analyze(name, table.clone(), pivot, 1);
        for threads in [2, 8] {
            let masked = masked_explain_analyze(name, table.clone(), pivot, threads);
            assert_eq!(
                masked, reference,
                "{name}: masked EXPLAIN ANALYZE diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn repl_metrics_dump_matches_snapshot() {
    // The metrics registry is process-wide, so the golden runs in a
    // subprocess REPL: one fixed script, whole stdout masked. In-process
    // assertions would race with every other test that builds a view.
    use std::io::Write;
    use std::process::{Command, Stdio};
    let script = ".load cars 2000 7\n\
                  .trace on\n\
                  CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 2;\n\
                  .metrics\n\
                  .quit\n";
    let mut child = Command::new(env!("CARGO_BIN_EXE_dbex"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dbex binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let output = child.wait_with_output().expect("dbex exits");
    assert!(output.status.success(), "dbex exited with failure");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let masked = mask_timings(&stdout);
    assert!(masked.contains("metrics registry"), "{masked}");
    assert!(masked.contains("counter"), "{masked}");
    assert!(masked.contains("cad.builds"), "{masked}");
    assert!(masked.contains("trace (per-phase spans):"), "{masked}");
    assert_snapshot("repl_metrics.txt", &masked);
}

#[test]
fn traced_build_reaches_the_sink_and_moves_the_global_metrics() {
    // One traced CAD build with an in-memory sink attached: the sink must
    // see the whole span taxonomy, and the process-wide registry must
    // record the build. Other tests in this binary only ever move the
    // global metrics up, so "moved" stays a sound check.
    use dbexplorer::obs::MemorySink;
    use std::sync::Arc;
    const EXPECTED_SPANS: [&str; 8] = [
        "cad_build",
        "pivot_encode",
        "compare_attrs",
        "iunit_generation",
        "encode_matrix",
        "cluster_partition",
        "topk",
        "solve_partition",
    ];
    let mut session = Session::new();
    session.register_table("cars", UsedCarsGenerator::new(1).generate(500));
    let sink = Arc::new(MemorySink::new());
    session.set_trace_sink(Some(sink.clone()));
    session
        .execute("CREATE CADVIEW smoke AS SET pivot = Make FROM cars IUNITS 2")
        .expect("traced build");

    assert_eq!(sink.len(), 1, "recorded traces");
    let names = sink.span_names();
    for span in EXPECTED_SPANS {
        assert!(names.contains(span), "span {span:?} missing from {names:?}");
    }
    for trace in sink.traces() {
        assert_eq!(
            trace.forced_closures, 0,
            "instrumentation leaks span guards"
        );
        let root = trace.find("cad_build").expect("cad_build root span");
        assert_eq!(root.counters.get("rows_input").copied(), Some(500));
    }

    let metrics = dbexplorer::obs::global().snapshot();
    for counter in ["cad.builds", "table.rows_scanned", "query.statements"] {
        assert!(
            metrics.counters.get(counter).is_some_and(|&n| n > 0),
            "global counter {counter:?} never moved"
        );
    }
    assert!(
        metrics
            .histograms
            .get("cad.build_ms")
            .is_some_and(|h| h.total() > 0),
        "histogram \"cad.build_ms\" recorded no observations"
    );
}
