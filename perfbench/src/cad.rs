//! `cad_cold_40k`: the in-process REPL path building Fig. 8-shaped CAD
//! Views (pivot Make over the five Makes, ≈40K rows, 10 compare columns,
//! 6 IUnits) whose WHERE clause is new on every build, so every build is
//! cold and the kernels dominate.

use crate::replay::{MirroredBuild, Replay};
use crate::report::{median_or_zero, reset_rss_peak, rss_peak_mb, Class, Latencies, Report};
use crate::span::{union_within, Recorder};
use crate::stats::{median, Outcome};
use crate::{mix, Args, WorkDir, SETUP_REPEATS};
use dbex_bench::{base_cars_table, FIVE_MAKES};
use dbex_cluster::{kmeans_packed, KMeansConfig, PackedMatrix};
use dbex_core::{iunit_similarity, CadRequest, IUnit};
use dbex_query::{Session, SharedCatalog};
use dbex_stats::discretize::{AttributeCodec, CodedColumn, CodedMatrix};
use dbex_stats::feature::{select_compare_attributes_ctx, FeatureSelectionConfig, ScoringCtx};
use dbex_store::RealVfs;
use dbex_table::dict::NULL_CODE;
use dbex_table::{Table, Value, View};
use dbex_topk::{div_astar, ConflictGraph};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TABLE: &str = "cars";
/// Untimed builds before the measured phase (thread start-up, page faults).
const WARMUP_BUILDS: usize = 3;
/// The staged kernel calls may differ from the real build by this share
/// of its median before the decomposition is called unfaithful.
const STAGE_TOLERANCE: f64 = 0.25;

/// Rows a build's view selects: 40K ± 2K of the five Makes' listings.
const VIEW_ROWS: usize = 40_000;
const VIEW_ROWS_SPREAD: usize = 2_000;

/// `(price, mileage)` cut-offs in a seeded order, at most `n`, each pair
/// keeping 40K ± 2K five-Make listings under `Price <= p AND Mileage <= m`
/// and no two pairs keeping the same listings, so no two builds share a
/// view.
fn cutoffs(table: &Table, seed: u64, n: usize) -> Result<Vec<(i64, i64)>, String> {
    let schema = table.schema();
    let col = |name: &str| schema.index_of(name).map_err(|e| e.to_string());
    let (make, price, mileage) = (col("Make")?, col("Price")?, col("Mileage")?);
    // Five-Make listings as (price, mileage, row), by price.
    let mut listings: Vec<(i64, i64, u64)> = (0..table.num_rows())
        .filter(
            |&r| matches!(table.value(r, make), Value::Str(m) if FIVE_MAKES.contains(&m.as_str())),
        )
        .filter_map(|r| match (table.value(r, price), table.value(r, mileage)) {
            (Value::Int(p), Value::Int(m)) => Some((p, m, r as u64)),
            _ => None,
        })
        .collect();
    listings.sort_unstable();
    let mut mileages: Vec<i64> = listings.iter().map(|l| l.1).collect();
    mileages.sort_unstable();
    let floor = *mileages
        .get(VIEW_ROWS + VIEW_ROWS_SPREAD)
        .ok_or_else(|| format!("only {} five-Make listings", listings.len()))?;
    mileages.dedup();
    mileages.retain(|&m| m >= floor);

    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    for attempt in 0..n as u64 * 8 {
        if out.len() == n {
            break;
        }
        let m = mileages[(mix(seed, attempt) % mileages.len() as u64) as usize];
        // Price cut-offs at which the kept count falls in the band.
        let (mut kept, mut band) = (0, Vec::new());
        for (i, l) in listings.iter().enumerate() {
            kept += usize::from(l.1 <= m);
            let last_at_price = listings.get(i + 1).is_none_or(|next| next.0 != l.0);
            if last_at_price && kept.abs_diff(VIEW_ROWS) <= VIEW_ROWS_SPREAD {
                band.push(l.0);
            }
        }
        if band.is_empty() {
            continue;
        }
        let p = band[(mix(seed ^ 0x5EED, attempt) % band.len() as u64) as usize];
        let fingerprint = listings
            .iter()
            .filter(|l| l.0 <= p && l.1 <= m)
            .fold(0u64, |h, l| h.wrapping_add(mix(0xF1, l.2)));
        if seen.insert(fingerprint) {
            out.push((p, m));
        }
    }
    Ok(out)
}

fn request((price, mileage): (i64, i64)) -> String {
    format!(
        "CREATE CADVIEW v AS SET pivot = Make FROM {TABLE} WHERE Make IN ({}) AND Price <= {price} \
         AND Mileage <= {mileage} LIMIT COLUMNS 10 IUNITS 6",
        FIVE_MAKES.join(", ")
    )
}

fn repl_session(table: &Arc<Table>, threads: usize) -> Session {
    let mut session = Session::new();
    session.register_shared(TABLE, Arc::clone(table));
    session.set_threads(threads);
    session
}

pub fn run(args: &Args, report: &mut Report, work: &WorkDir) -> Result<(), String> {
    let generated = Arc::new(base_cars_table());
    // Views for both phases at several times the build rate seen on two cores.
    let cuts = cutoffs(&generated, args.seed, 64 + args.seconds as usize * 150)?;
    let distinct_views = cuts.len();
    let mut cuts = cuts.into_iter();
    let mut next_request = move || cuts.next().map(request).ok_or("ran out of distinct views");

    let saved = Instant::now();
    let save = dbex_store::save(
        &RealVfs,
        &work.path,
        &[(TABLE.to_owned(), Arc::clone(&generated))],
        None,
    )
    .map_err(|e| format!("saving the snapshot: {e}"))?;
    report.set("store.save_ms", saved.elapsed().as_secs_f64() * 1e3, "ms");
    report.set(
        "store.bytes_per_row",
        save.bytes_written as f64 / generated.num_rows() as f64,
        "B/row",
    );
    drop(generated);

    // Set-up: open the snapshot and register the table in a session.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut opened = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up's table and session go before timing the next.
        drop(opened.take());
        let started = Instant::now();
        let open = dbex_store::open(&RealVfs, &work.path)
            .map_err(|e| format!("opening the snapshot: {e}"))?;
        let table = open
            .tables
            .iter()
            .find(|(name, _)| name == TABLE)
            .map(|(_, t)| Arc::clone(t))
            .ok_or("snapshot has no cars table")?;
        let s = repl_session(&table, 0);
        setups.push(started.elapsed().as_secs_f64());
        opened = Some((table, s));
    }
    report.set("setup_s", median(&setups).unwrap_or(0.0), "s");
    let (table, mut session) = opened.ok_or("no set-up ran")?;
    let five_make_rows = dbex_bench::five_make_view(&table).len();
    println!(
        "provenance workload={} table_rows={} five_make_rows={five_make_rows} view_rows={VIEW_ROWS}+-{VIEW_ROWS_SPREAD} \
         distinct_views={distinct_views} session_threads=0 \
         resolved_threads={} session_cache_entries={} server_cache_entries=none",
        report.workload,
        table.num_rows(),
        dbex_par::resolve_threads(0),
        dbex_stats::cache::MAX_ENTRIES
    );

    for _ in 0..WARMUP_BUILDS {
        session
            .execute(&next_request()?)
            .map_err(|e| format!("warm-up build: {e}"))?;
    }

    // Phase A: untraced builds.
    reset_rss_peak()?;
    let before = session.stats_cache().stats();
    let mut lat = Latencies::default();
    let mut built: Vec<(String, String)> = Vec::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(args.seconds);
    while Instant::now() < deadline {
        let req = next_request()?;
        let sent = Instant::now();
        let result = session.execute(&req).map(|out| out.render());
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(text) => {
                report.tally.record(Outcome::Ok);
                lat.push(Class::Cad, ms);
                lat.cad_first_frame.push(ms);
                built.push((req, text));
            }
            Err(e) => {
                report.tally.record(Outcome::Refused);
                eprintln!("perfbench: {req:?} refused: {e}");
            }
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    let after = session.stats_cache().stats();
    report.set("rss_peak_mb", rss_peak_mb()?, "MB");
    report.set_latencies(&lat, measured_s);
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    report.set("stats.cache.hits", hits as f64, "count");
    report.set("stats.cache.misses", misses as f64, "count");
    report.set(
        "stats.cache.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    report.set("stats.cache.lookups", (hits + misses) as f64, "count");
    report.set(
        "stats.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );

    // Correctness: every build against a 1-thread build in a fresh
    // session. The checks run after the measured phase, on every core.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = built.len().div_ceil(workers).max(1);
    let differing: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = built
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| {
                let table = &table;
                scope.spawn(move || {
                    part.iter()
                        .enumerate()
                        .filter(|(_, (req, text))| {
                            let fresh = repl_session(table, 1).execute(req).map(|out| out.render());
                            !matches!(&fresh, Ok(t) if t == text)
                        })
                        .map(|(i, _)| c * chunk + i)
                        .collect::<Vec<usize>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|_| vec![usize::MAX]))
            .collect()
    });
    for i in differing {
        let req = built.get(i).map_or("(a check panicked)", |b| b.0.as_str());
        report.fail(format!(
            "{}: build {i} ({req}) differs from a 1-thread build in a fresh session",
            report.workload
        ));
    }
    println!("checked {} builds against 1-thread builds", built.len());

    if args.trace {
        crate::store_open_metric(&work.path, report)?;
        traced(args, &table, &lat, &mut next_request, report, work)?;
    }
    Ok(())
}

/// Per build: the stage calls' durations and work counts.
#[derive(Default)]
struct Stages {
    compare_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    /// Wall time of the per-partition k-means calls, parallel ones counted once.
    kmeans_ms: Vec<f64>,
    rows_clustered: Vec<f64>,
    iterations: Vec<f64>,
    topk_ms: Vec<f64>,
    /// `core.staged` duration, and its self time: the glue outside the
    /// stage calls (pivot partitioning, IUnit labelling, assembly).
    staged_ms: Vec<f64>,
    unaccounted_ms: Vec<f64>,
    build_ms: Vec<f64>,
    divergent: Vec<String>,
}

fn traced(
    args: &Args,
    table: &Arc<Table>,
    untraced: &Latencies,
    next_request: &mut dyn FnMut() -> Result<String, &'static str>,
    report: &mut Report,
    work: &WorkDir,
) -> Result<(), String> {
    let catalog = Arc::new(SharedCatalog::new());
    catalog.insert(TABLE, Arc::clone(table));
    let mut session = Session::new();
    session.set_catalog(Some(Arc::clone(&catalog)));
    session.set_threads(0);
    let mut replay = Replay::new(catalog, dbex_stats::cache::MAX_ENTRIES, Some(0), 1);
    let threads = dbex_par::resolve_threads(0);
    let mut stages = Stages::default();
    let mut deeper = |rec: &mut Recorder, id: u64, build: &MirroredBuild<'_>| {
        stages.build_ms.push(rec.spans[build.build_span].ms());
        staged(rec, id, build, threads, &mut stages);
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while Instant::now() < deadline {
        let req = next_request()?;
        replay.run(0, &mut session, Class::Cad, &req, true, &mut deeper);
    }

    replay.set_layer_metrics(report);
    for name in [
        "serve.overhead_ms.cad",
        "serve.overhead_ms.suggest",
        "serve.overhead_ms.interact",
    ] {
        report.set(name, 0.0, "ms");
    }
    report.set(
        "core.unaccounted_ms",
        median_or_zero(&stages.unaccounted_ms),
        "ms",
    );
    report.set(
        "stats.compare_attrs_ms",
        median_or_zero(&stages.compare_ms),
        "ms",
    );
    report.set(
        "stats.encode_matrix_ms",
        median_or_zero(&stages.encode_ms),
        "ms",
    );
    report.set("cluster.kmeans_ms", median_or_zero(&stages.kmeans_ms), "ms");
    report.set(
        "cluster.rows_clustered",
        median_or_zero(&stages.rows_clustered),
        "count",
    );
    report.set(
        "cluster.iterations",
        median_or_zero(&stages.iterations),
        "count",
    );
    report.set("topk.solve_ms", median_or_zero(&stages.topk_ms), "ms");

    // Reconciliation: the stage calls plus their glue account for the
    // real build.
    let build = median_or_zero(&stages.build_ms);
    let staged = median_or_zero(&stages.staged_ms);
    println!(
        "reconcile {} cad: core.build_p50_ms={build:.3} vs stages compare={:.3} + encode={:.3} + kmeans={:.3} \
         + topk={:.3} + unaccounted={:.3} = staged_p50_ms={staged:.3} ({} builds, tolerance {:.0}%)",
        report.workload,
        median_or_zero(&stages.compare_ms),
        median_or_zero(&stages.encode_ms),
        median_or_zero(&stages.kmeans_ms),
        median_or_zero(&stages.topk_ms),
        median_or_zero(&stages.unaccounted_ms),
        stages.build_ms.len(),
        STAGE_TOLERANCE * 100.0
    );
    if stages.build_ms.is_empty() || (staged - build).abs() > STAGE_TOLERANCE * build {
        report.fail(format!(
            "{}: staged kernel calls take {staged:.3} ms against a {build:.3} ms build",
            report.workload
        ));
    }
    let traced_cad = replay.median_ms("request", Some(Class::Cad));
    if let Some(untraced_cad) = median(&untraced.cad) {
        println!(
            "reconcile {} cad: traced_request_p50_ms={traced_cad:.3} vs untraced cad_p50_ms={untraced_cad:.3} \
             (tracing overhead {:+.1}%)",
            report.workload,
            (traced_cad / untraced_cad - 1.0) * 100.0
        );
    }
    for m in replay.mismatches.iter().chain(&stages.divergent) {
        report.fail(format!("{}: {m}", report.workload));
    }
    replay.print_layers();
    let path = work.trace_path(&report.workload);
    replay
        .rec
        .write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "trace {} spans written to {}",
        replay.rec.spans.len(),
        path.display()
    );
    Ok(())
}

/// The builder's pipeline for a full-fidelity cold build, re-run as
/// separately timed public calls: compare-attribute selection, matrix
/// encoding, per-partition k-means, per-partition diversified top-k. The
/// result must select the same compare attributes and IUnits as the real
/// build.
fn staged(
    rec: &mut Recorder,
    id: u64,
    build: &MirroredBuild<'_>,
    threads: usize,
    out: &mut Stages,
) {
    let (view, request) = (&build.view, &build.request);
    // A sibling of `core.build` under the request's mirror span.
    let root = rec.open("core.staged", rec.spans[build.build_span].parent, id);
    let result = staged_calls(rec, root, id, view, request, threads);
    rec.close(root);
    let span = &rec.spans[root];
    let (lo, hi) = (span.start, span.end);
    out.staged_ms.push(span.ms());
    let self_ns = {
        let mut kids: Vec<(u64, u64)> = rec
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| (s.start, s.end))
            .collect();
        (hi - lo).saturating_sub(union_within(&mut kids, lo, hi))
    };
    out.unaccounted_ms.push(self_ns as f64 / 1e6);
    let wall = |name: &str| {
        let mut iv: Vec<(u64, u64)> = rec
            .spans
            .iter()
            .filter(|s| s.parent == Some(root) && s.name == name)
            .map(|s| (s.start, s.end))
            .collect();
        union_within(&mut iv, lo, hi) as f64 / 1e6
    };
    out.compare_ms.push(wall("stats.compare_attrs"));
    out.encode_ms.push(wall("stats.encode_matrix"));
    out.kmeans_ms.push(wall("cluster.kmeans"));
    out.topk_ms.push(wall("topk.solve"));
    match result {
        Ok((attrs, sizes, rows, iterations)) => {
            out.rows_clustered.push(rows as f64);
            out.iterations.push(iterations as f64);
            let real_sizes: Vec<Vec<usize>> = build
                .cad
                .rows
                .iter()
                .map(|r| r.iunits.iter().map(|u| u.size).collect())
                .collect();
            if attrs != build.cad.compare_attrs || sizes != real_sizes {
                out.divergent.push(format!(
                    "staged kernel calls for request {id} chose attributes {attrs:?} and IUnit sizes {sizes:?}; \
                     the build chose {:?} and {real_sizes:?}",
                    build.cad.compare_attrs
                ));
            }
        }
        Err(e) => out
            .divergent
            .push(format!("staged kernel calls for request {id} failed: {e}")),
    }
}

type StagedResult = (Vec<usize>, Vec<Vec<usize>>, usize, usize);

fn staged_calls(
    rec: &mut Recorder,
    root: usize,
    id: u64,
    view: &View<'_>,
    request: &CadRequest,
    threads: usize,
) -> Result<StagedResult, String> {
    let config = &request.config;
    let table = view.table();
    let schema = table.schema();
    let pivot_col = schema.index_of(&request.pivot).map_err(|e| e.to_string())?;
    let pivot_column = table.column(pivot_col);
    let pivot_codec = AttributeCodec::build(view, pivot_col, config.bins, config.strategy)
        .map_err(|e| e.to_string())?;
    // Partition positions by pivot code, biggest partition first.
    let mut partitions: Vec<(u32, Vec<usize>)> = Vec::new();
    for (pos, &row) in view.row_ids().iter().enumerate() {
        let Some(code) = pivot_codec.encode(pivot_column, row as usize) else {
            continue;
        };
        if code == NULL_CODE {
            continue;
        }
        match partitions.iter_mut().find(|(c, _)| *c == code) {
            Some((_, members)) => members.push(pos),
            None => partitions.push((code, vec![pos])),
        }
    }
    partitions.sort_by_key(|p| std::cmp::Reverse(p.1.len()));
    let pivot_codes: Vec<u32> = partitions.iter().map(|(c, _)| *c).collect();

    let forced: Vec<usize> = request
        .compare_attrs
        .iter()
        .map(|name| schema.index_of(name))
        .collect::<dbex_table::Result<_>>()
        .map_err(|e| e.to_string())?;
    let candidates: Vec<usize> = (0..schema.len()).filter(|&i| i != pivot_col).collect();
    let fs_config = FeatureSelectionConfig {
        max_attrs: request.max_compare_attrs,
        alpha: config.alpha,
        bins: config.bins,
        strategy: config.strategy,
        sample: config.fs_sample,
        scorer: config.scorer,
    };
    let class_of = |row: usize| -> Option<usize> {
        let code = pivot_codec.encode(pivot_column, row)?;
        pivot_codes.iter().position(|&c| c == code)
    };
    let ((mut attrs, scores), _) = rec.time("stats.compare_attrs", Some(root), id, || {
        select_compare_attributes_ctx(
            view,
            pivot_codes.len(),
            &class_of,
            pivot_col,
            &forced,
            &candidates,
            &fs_config,
            ScoringCtx {
                threads,
                cache: None,
                class_ctx: 0,
            },
        )
    });
    if attrs.is_empty() {
        attrs = scores
            .iter()
            .take(request.max_compare_attrs)
            .map(|s| s.attr_index)
            .collect();
    }
    if attrs.is_empty() {
        attrs = candidates
            .into_iter()
            .take(request.max_compare_attrs)
            .collect();
    }
    let (matrix, _) = rec.time("stats.encode_matrix", Some(root), id, || {
        CodedMatrix::encode_ctx(view, &attrs, config.bins, config.strategy, threads, None)
    });
    let coded: Vec<&CodedColumn> = matrix.columns.iter().collect();
    let live: Vec<usize> = coded.iter().map(|c| c.attr_index).collect();
    let k = request.iunits;
    let l = ((config.candidate_factor * k as f64).ceil() as usize).max(k);
    let inner_threads = if threads > 1 {
        threads.div_ceil(partitions.len().max(1)).max(1)
    } else {
        1
    };

    let clustered = dbex_par::par_map(threads, &partitions, |_, (_, members)| {
        let start = Instant::now();
        let km = PackedMatrix::from_columns(&coded, members)
            .ok_or_else(|| "attributes do not pack".to_owned())
            .and_then(|m| {
                kmeans_packed(
                    &m,
                    &KMeansConfig {
                        k: l,
                        max_iters: config.kmeans_iters,
                        seed: config.seed,
                        plus_plus: config.plus_plus,
                        threads: inner_threads,
                    },
                )
                .map_err(|e| e.to_string())
            });
        let end = Instant::now();
        let units = km.as_ref().map_err(Clone::clone).map(|km| {
            let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); km.centroids.len()];
            for (i, &a) in km.assignments.iter().enumerate() {
                if let Some(c) = clusters.get_mut(a) {
                    c.push(members[i]);
                }
            }
            clusters
                .into_iter()
                .filter(|c| !c.is_empty())
                .map(|c| IUnit::from_members(c, &coded, &config.label))
                .collect::<Vec<IUnit>>()
        });
        let iterations = km.map(|km| km.iterations);
        (start, end, members.len(), iterations, units)
    });
    let mut unit_sets = Vec::with_capacity(clustered.len());
    let (mut rows, mut iterations) = (0, 0);
    for (start, end, members, iters, units) in clustered {
        rec.record("cluster.kmeans", Some(root), id, start, end);
        rows += members;
        iterations += iters?;
        unit_sets.push(units?);
    }

    let tau = config.tau_fraction * coded.len() as f64;
    let solved = dbex_par::par_map(threads, &unit_sets, |_, units| {
        let start = Instant::now();
        let scores: Vec<f64> = units.iter().map(|u| u.score).collect();
        let graph = ConflictGraph::from_similarity(
            units.len(),
            |a, b| iunit_similarity(&units[a], &units[b]),
            tau,
        );
        let mut chosen = div_astar(&scores, &graph, k).items;
        let end = Instant::now();
        chosen.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        (
            start,
            end,
            chosen
                .iter()
                .map(|&i| units[i].size)
                .collect::<Vec<usize>>(),
        )
    });
    let mut sizes = Vec::with_capacity(solved.len());
    for (start, end, chosen) in solved {
        rec.record("topk.solve", Some(root), id, start, end);
        sizes.push(chosen);
    }
    Ok((live, sizes, rows, iterations))
}
