//! The DBExplorer exploration benchmark.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <explore_hot|explore_cold|cad_cold_40k> --seed <n> --seconds <n> --trace <0|1> [--short]
//! ```
//!
//! Run from the repository root. `--trace 0` measures what the user waits
//! for and prints the end-to-end metrics; `--trace 1` adds an in-process
//! replay timed around each crate's public calls and prints the per-layer
//! metrics. Every run checks its outputs; the last line of standard output
//! is one JSON object (`correct`, `attempted`, `failed`, `metrics`).
//! `--short` tolerates percentiles the sample cannot support, for smoke
//! runs of a second or two.

mod cad;
mod replay;
mod report;
mod served;
mod span;
mod stats;

use report::Report;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const WORKLOADS: &[&str] = &["explore_hot", "explore_cold", "cad_cold_40k"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub short: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut short) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--short" {
            short = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
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
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        short,
    })
}

/// SplitMix64 of `seed` and `x`: seeded choices that need no RNG state.
pub fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scratch space for the run's snapshot, under the build directory of the
/// checkout; removed when the run ends.
pub struct WorkDir {
    pub path: PathBuf,
    root: PathBuf,
}

impl WorkDir {
    fn new(workload: &str) -> Result<WorkDir, String> {
        let root = PathBuf::from(
            std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
        )
        .join("perfbench");
        let path = root.join(format!("{workload}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)
                .map_err(|e| format!("clearing {}: {e}", path.display()))?;
        }
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir { path, root })
    }

    /// Where the traced run writes its spans; kept after the run.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.root.join(format!("trace-{workload}.tsv"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// `store.open_ms`: opening the snapshot and rehydrating its cluster
/// solutions into a cache, median of three.
pub fn store_open_metric(dir: &Path, report: &mut Report) -> Result<(), String> {
    let mut times = Vec::new();
    for _ in 0..3 {
        let cache = dbex_stats::StatsCache::new();
        let started = Instant::now();
        let open = dbex_store::open(&dbex_store::RealVfs, dir)
            .map_err(|e| format!("opening the snapshot: {e}"))?;
        open.rehydrate_into(&cache);
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    report.set("store.open_ms", stats::median(&times).unwrap_or(0.0), "ms");
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if !Path::new("crates/dbex-serve/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/ is missing".to_owned());
    }
    println!(
        "provenance seed={} seconds={} trace={} available_parallelism={} resolve_threads(0)={} simd={} profile=release",
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        dbex_par::resolve_threads(0),
        dbex_stats::simd::dispatch().name(),
    );
    let started = Instant::now();
    let mut report = Report::new(&args.workload);
    let work = WorkDir::new(&args.workload)?;
    match args.workload.as_str() {
        "explore_hot" => served::run(
            args,
            &served::Served {
                rows: 6_000,
                pool: Some(64),
            },
            &mut report,
            &work,
        )?,
        "explore_cold" => served::run(
            args,
            &served::Served {
                rows: 40_000,
                pool: None,
            },
            &mut report,
            &work,
        )?,
        "cad_cold_40k" => cad::run(args, &mut report, &work)?,
        other => return Err(format!("unknown workload {other}")),
    }
    drop(work);
    println!("run took {:.1} s", started.elapsed().as_secs_f64());
    report.emit(args.trace, args.short)
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    let outcome = parse_args().and_then(|args| run(&args));
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
