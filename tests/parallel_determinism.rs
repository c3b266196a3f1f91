//! Parallel CAD construction is an *optimization*, never a semantic
//! change: at a fixed seed, a build fanned out across any number of pool
//! workers must be byte-identical to the sequential build — rows, IUnit
//! membership, scores, feature statistics, and the degradation log.
//!
//! Also pinned here: the budget ladder still fires under parallelism, and
//! the thread-local fault-injection hooks keep their documented semantics
//! (they fire on the arming thread only — honored at `threads = 1`,
//! invisible to pool workers at `threads > 1`).

use dbexplorer::core::{
    build_cad_view, CadConfig, CadRequest, CadView, DegradationKind, ExecBudget,
};
use dbexplorer::data::{HotelsGenerator, MushroomGenerator, UsedCarsGenerator};
use dbexplorer::table::Table;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// Flattens everything observable about a view into one comparable string
/// (float bits included, so "close" never passes for "equal").
fn digest(cad: &CadView) -> String {
    let mut out = format!(
        "pivot={} compare={:?} k={} tau={}\n",
        cad.pivot_name, cad.compare_names, cad.k, cad.tau
    );
    for s in &cad.feature_scores {
        out.push_str(&format!(
            "score attr={} stat={} p={}\n",
            s.attr_index,
            s.statistic.to_bits(),
            s.p_value.to_bits()
        ));
    }
    for row in &cad.rows {
        out.push_str(&format!("row {} {}\n", row.pivot_code, row.pivot_label));
        for u in &row.iunits {
            out.push_str(&format!(
                "  size={} score={} labels={:?} members={:?}\n",
                u.size,
                u.score.to_bits(),
                u.labels,
                u.members
            ));
        }
    }
    for d in &cad.degradation {
        out.push_str(&format!("degraded {d}\n"));
    }
    out
}

fn request_with_threads(pivot: &str, threads: usize) -> CadRequest {
    CadRequest::new(pivot).with_iunits(3).with_config(CadConfig {
        threads,
        ..CadConfig::default()
    })
}

/// The three datasets and their pivot attributes.
fn datasets() -> Vec<(&'static str, Table, &'static str)> {
    vec![
        ("cars", UsedCarsGenerator::new(7).generate(6_000), "Make"),
        ("mushroom", MushroomGenerator::new(7).generate(4_000), "Odor"),
        ("hotels", HotelsGenerator::new(7).generate(4_000), "District"),
    ]
}

#[test]
fn parallel_build_is_byte_identical_across_datasets() {
    for (name, table, pivot) in datasets() {
        let view = table.full_view();
        let sequential = build_cad_view(&view, &request_with_threads(pivot, 1))
            .unwrap_or_else(|e| panic!("{name}: sequential build failed: {e}"));
        assert!(
            !sequential.is_degraded(),
            "{name}: unlimited budget must not degrade"
        );
        let reference = digest(&sequential);
        for threads in [2, 4, 8] {
            let parallel = build_cad_view(&view, &request_with_threads(pivot, threads))
                .unwrap_or_else(|e| panic!("{name}: {threads}-thread build failed: {e}"));
            assert_eq!(parallel.threads_used, threads);
            assert_eq!(
                digest(&parallel),
                reference,
                "{name}: {threads}-thread build diverged from sequential"
            );
        }
    }
}

#[test]
fn trace_structure_is_identical_across_thread_counts() {
    // The observability layer is part of the determinism contract:
    // same-named sibling spans merge, so the span tree — names, call
    // counts, rows scanned, cache hits/misses, degradation level —
    // must be byte-identical at 1, 2, and 8 threads (only wall times,
    // which the structural digest excludes, may differ).
    use dbexplorer::core::{build_cad_view_traced, StatsCache, Tracer};
    for (name, table, pivot) in datasets() {
        let view = table.full_view();
        let build = |threads: usize| {
            // A fresh cache per build keeps hit/miss deltas a function
            // of the build alone, not of prior builds.
            let cache = StatsCache::new();
            let tracer = Tracer::enabled();
            let cad = build_cad_view_traced(
                &view,
                &request_with_threads(pivot, threads),
                Some(&cache),
                &tracer,
            )
            .unwrap_or_else(|e| panic!("{name}: {threads}-thread traced build failed: {e}"));
            let trace = cad.trace.unwrap_or_else(|| panic!("{name}: traced build has no trace"));
            assert_eq!(trace.forced_closures, 0, "{name}: spans leaked at {threads} threads");
            trace.structural_digest()
        };
        let sequential = build(1);
        assert!(
            sequential.contains("cluster_partition"),
            "{name}: worker spans missing from the sequential trace:\n{sequential}"
        );
        for threads in [2, 8] {
            assert_eq!(
                build(threads),
                sequential,
                "{name}: {threads}-thread trace structure diverged from sequential"
            );
        }
    }
}

#[test]
fn budget_degradation_still_fires_under_parallelism() {
    let table = UsedCarsGenerator::new(11).generate(5_000);
    let view = table.full_view();
    // A zero deadline on a manual clock is exhausted before any stage
    // runs, deterministically, regardless of machine speed or pool size.
    let clock = Arc::new(AtomicU64::new(10_000));
    let request = request_with_threads("Make", 4).with_budget(
        ExecBudget::unlimited()
            .with_time_limit(Duration::ZERO)
            .with_manual_clock(clock),
    );
    let cad = build_cad_view(&view, &request).expect("exhausted budget degrades, not fails");
    assert_eq!(cad.threads_used, 4);
    for kind in [
        DegradationKind::SampledFeatureSelection,
        DegradationKind::SampledClustering,
        DegradationKind::GreedyTopK,
    ] {
        assert!(
            cad.degradation.iter().any(|d| d.kind == kind),
            "{kind:?} missing under parallelism: {:?}",
            cad.degradation
        );
    }
    // Row caps too: per-partition sizes, not scheduling order, drive them.
    let request = request_with_threads("Make", 4)
        .with_budget(ExecBudget::unlimited().with_max_rows(50));
    let cad = build_cad_view(&view, &request).expect("row budget degrades, not fails");
    assert!(
        cad.degradation
            .iter()
            .any(|d| d.kind == DegradationKind::MiniBatchClustering),
        "{:?}",
        cad.degradation
    );
}

#[test]
fn budget_degradation_identical_between_sequential_and_parallel() {
    // With a manual clock the deadline state is identical for every
    // worker, so even the *degraded* output must match byte-for-byte.
    let table = UsedCarsGenerator::new(13).generate(4_000);
    let view = table.full_view();
    let build = |threads: usize| {
        let clock = Arc::new(AtomicU64::new(42));
        let request = request_with_threads("Make", threads).with_budget(
            ExecBudget::unlimited()
                .with_time_limit(Duration::ZERO)
                .with_manual_clock(clock),
        );
        build_cad_view(&view, &request).expect("degraded build succeeds")
    };
    let sequential = digest(&build(1));
    for threads in [2, 8] {
        assert_eq!(
            digest(&build(threads)),
            sequential,
            "degraded {threads}-thread build diverged"
        );
    }
}

#[test]
fn fault_hooks_fire_sequentially_and_are_invisible_to_pool_workers() {
    let table = UsedCarsGenerator::new(17).generate(2_000);
    let view = table.full_view();

    // threads = 1: the armed fault lives on the build thread, every
    // clustering attempt sees it, and the ladder descends all the way to
    // the single-unit fallback for every partition.
    {
        let _kmeans = dbexplorer::cluster::fault::scoped("cluster::kmeans");
        let cad = build_cad_view(&view, &request_with_threads("Make", 1))
            .expect("fault degrades, not fails");
        assert!(
            cad.degradation
                .iter()
                .any(|d| d.kind == DegradationKind::MiniBatchClustering
                    && d.reason.contains("clustering failed")),
            "armed fault should force the ladder down at threads = 1: {:?}",
            cad.degradation
        );
    }

    // threads = 4: partitions cluster on pool workers whose fresh
    // thread-locals were never armed — the build is full-fidelity even
    // though the *caller's* thread still has the fault armed.
    {
        let _kmeans = dbexplorer::cluster::fault::scoped("cluster::kmeans");
        let cad = build_cad_view(&view, &request_with_threads("Make", 4))
            .expect("build succeeds");
        assert!(
            !cad.is_degraded(),
            "pool workers must not see the caller's armed fault: {:?}",
            cad.degradation
        );
    }

    // Sanity: with nothing armed, the sequential build is clean too.
    let cad = build_cad_view(&view, &request_with_threads("Make", 1)).expect("clean build");
    assert!(!cad.is_degraded());
}

/// Categorical-only compare attributes, forced: categorical dictionary
/// codes are stable across refinements (unlike numeric equi-depth bins,
/// which re-bin and deliberately invalidate cluster reuse), so untouched
/// pivot partitions can be served from the cluster-reuse cache.
fn categorical_request(threads: usize) -> CadRequest {
    request_with_threads("Make", threads)
        .with_compare(vec!["Model", "BodyType", "Engine", "Drivetrain"])
        .with_max_compare_attrs(4)
}

#[test]
fn incremental_rebuild_is_byte_identical_to_cold_rebuild() {
    use dbexplorer::core::{build_cad_view_cached, StatsCache};
    use dbexplorer::table::predicate::{CmpOp, Predicate};

    let table = UsedCarsGenerator::new(23).generate(4_000);
    let full = table.full_view();
    // The refinement drops one pivot value entirely; every other
    // partition keeps exactly its rows (ids and order), so its cluster
    // solution from the pre-refinement build is reusable verbatim.
    let refined = full
        .refine(&Predicate::cmp("Make", CmpOp::Ne, "BMW"))
        .expect("refine");
    assert!(refined.len() < full.len());

    for threads in [1, 2, 8] {
        let request = categorical_request(threads);
        // Reference: a cold, uncached build of the refined result set.
        let cold = build_cad_view(&refined, &request).expect("cold build");
        // Incremental: prime the cache on the pre-refinement view, then
        // rebuild after the refinement.
        let cache = StatsCache::new();
        let primed = build_cad_view_cached(&full, &request, Some(&cache)).expect("prime");
        assert_eq!(primed.partitions_reused, 0, "first build has nothing to reuse");
        let incremental =
            build_cad_view_cached(&refined, &request, Some(&cache)).expect("incremental");
        assert_eq!(
            digest(&incremental),
            digest(&cold),
            "{threads}-thread incremental rebuild diverged from a cold rebuild"
        );
        assert_eq!(
            incremental.partitions_reused,
            incremental.rows.len(),
            "every untouched partition must be served from the cluster cache"
        );
        assert!(cache.stats().hits > 0, "cluster reuse must register cache hits");

        // A second identical build reuses every partition too.
        let again = build_cad_view_cached(&refined, &request, Some(&cache)).expect("repeat");
        assert_eq!(digest(&again), digest(&cold));
        assert_eq!(again.partitions_reused, again.rows.len());
    }
}

#[test]
fn incremental_rebuild_matches_cold_under_budget_degradation() {
    use dbexplorer::core::{build_cad_view_cached, StatsCache};
    use dbexplorer::table::predicate::{CmpOp, Predicate};

    let table = UsedCarsGenerator::new(23).generate(4_000);
    let full = table.full_view();
    let refined = full
        .refine(&Predicate::cmp("Make", CmpOp::Ne, "BMW"))
        .expect("refine");
    // Degraded rungs are shaped by transient budget state, so the builder
    // must bypass the cluster cache entirely: the incremental rebuild has
    // to degrade exactly like the cold one, with zero reuse.
    let degraded_request = |threads: usize| {
        let clock = Arc::new(AtomicU64::new(77));
        categorical_request(threads).with_budget(
            ExecBudget::unlimited()
                .with_time_limit(Duration::ZERO)
                .with_manual_clock(clock),
        )
    };
    for threads in [1, 2, 8] {
        let cold = build_cad_view(&refined, &degraded_request(threads)).expect("cold degraded");
        assert!(cold.is_degraded());
        let cache = StatsCache::new();
        // Prime at full fidelity so the cache *would* have solutions to
        // offer if the builder (incorrectly) consulted it while degraded.
        build_cad_view_cached(&full, &categorical_request(threads), Some(&cache))
            .expect("prime");
        let incremental =
            build_cad_view_cached(&refined, &degraded_request(threads), Some(&cache))
                .expect("incremental degraded");
        assert_eq!(
            digest(&incremental),
            digest(&cold),
            "{threads}-thread degraded incremental rebuild diverged from cold"
        );
        assert_eq!(incremental.partitions_reused, 0, "degraded rungs must not reuse");
    }
}

// ---------------------------------------------------------------------
// Property-based A/B digests for the packed clustering kernels: the u32
// width-promoted path and the chunked-merge parallel path. The CAD-level
// tests above pin end-to-end determinism on curated datasets; these pin
// the same contracts on *arbitrary* inputs, including row counts that
// land chunk boundaries unevenly.
// ---------------------------------------------------------------------

use dbexplorer::cluster::{kmeans, kmeans_packed, KMeansConfig, KMeansResult, OneHotSpace, PackedMatrix};
use dbexplorer::stats::discretize::{AttributeCodec, CodedColumn};
use proptest::prelude::*;

/// Flattens a [`KMeansResult`] into one comparable string, float bits
/// included — the kernel-level analogue of [`digest`].
fn kmeans_digest(r: &KMeansResult) -> String {
    let mut out = format!(
        "assign={:?} sizes={:?} iters={} inertia={}\n",
        r.assignments,
        r.sizes,
        r.iterations,
        r.inertia.to_bits()
    );
    for (c, centroid) in r.centroids.iter().enumerate() {
        let bits: Vec<u64> = centroid.iter().map(|v| v.to_bits()).collect();
        out.push_str(&format!("centroid {c} {bits:?}\n"));
    }
    out
}

/// Coded columns over the given cardinalities filled with deterministic
/// xorshift draws (NULL with probability ~1/8). A seed-driven fill keeps
/// proptest shrinking cheap even at four-digit row counts.
fn seeded_columns(cards: &[usize], n: usize, seed: u64) -> Vec<CodedColumn> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut columns: Vec<CodedColumn> = cards
        .iter()
        .enumerate()
        .map(|(a, &card)| CodedColumn {
            attr_index: a,
            codec: AttributeCodec::Categorical {
                labels: (0..card).map(|i| format!("v{i}")).collect(),
            },
            codes: Vec::with_capacity(n),
        })
        .collect();
    for _ in 0..n {
        for (a, &card) in cards.iter().enumerate() {
            let r = next();
            columns[a].codes.push(if r % 8 == 0 {
                dbexplorer::table::dict::NULL_CODE
            } else {
                (r % card as u64) as u32
            });
        }
    }
    columns
}

fn packed_config(k: usize, seed: u64, threads: usize) -> KMeansConfig {
    KMeansConfig {
        k,
        max_iters: 12,
        seed,
        plus_plus: true,
        threads,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A/B digest for the width-promoted packed path: an attribute
    /// cardinality above 255 forces `u32` code storage, and the promoted
    /// kernel must still equal the one-hot reference bit for bit — and
    /// stay byte-identical when the assignment pass is chunked across
    /// worker threads. Half the cases add a column with more than 65,535
    /// values, which the `u32` carrier packs too.
    #[test]
    fn u16_promoted_kernel_matches_onehot_reference_at_any_thread_count(
        wide_card in 256usize..340,
        narrow_card in 2usize..6,
        huge_card in 65_536usize..70_000,
        with_huge in 0u8..2,
        n in 40usize..160,
        k in 2usize..6,
        seed in 0u64..10_000,
    ) {
        let mut cards = vec![wide_card, narrow_card];
        if with_huge == 1 {
            cards.push(huge_card);
        }
        let columns = seeded_columns(&cards, n, seed | 1);
        let refs: Vec<&CodedColumn> = columns.iter().collect();
        let positions: Vec<usize> = (0..n).collect();
        let matrix = PackedMatrix::from_columns(&refs, &positions).expect("packable");
        prop_assert!(!matrix.is_u8(), "cardinalities {cards:?} must promote to u32");
        let space = OneHotSpace::from_columns(&refs);
        let points = space.encode_positions(&refs, &positions);
        let reference = kmeans(&points, space.dim(), &packed_config(k, seed, 1)).unwrap();
        let a = kmeans_digest(&reference);
        for threads in [1usize, 2, 8] {
            let packed = kmeans_packed(&matrix, &packed_config(k, seed, threads)).unwrap();
            prop_assert_eq!(
                &kmeans_digest(&packed),
                &a,
                "u32 packed kernel at {} threads diverged from the one-hot reference",
                threads
            );
        }
    }

    /// A/B digest for the chunked merge: row counts straddling multiples
    /// of the 256-row minimum chunk land the final chunk short (uneven
    /// boundaries), and the per-chunk integer partials must still merge
    /// to the sequential bytes at every thread count.
    #[test]
    fn chunked_merge_is_byte_identical_across_uneven_boundaries(
        n in 512usize..1300,
        k in 2usize..7,
        seed in 0u64..10_000,
    ) {
        let columns = seeded_columns(&[7, 4, 3], n, seed.wrapping_add(17) | 1);
        let refs: Vec<&CodedColumn> = columns.iter().collect();
        let positions: Vec<usize> = (0..n).collect();
        let matrix = PackedMatrix::from_columns(&refs, &positions).expect("packable");
        let a = kmeans_digest(&kmeans_packed(&matrix, &packed_config(k, seed, 1)).unwrap());
        for threads in [2usize, 8] {
            let b = kmeans_digest(&kmeans_packed(&matrix, &packed_config(k, seed, threads)).unwrap());
            prop_assert_eq!(
                &b, &a,
                "{} rows at {} threads: chunked merge diverged from sequential",
                n, threads
            );
        }
    }
}

#[test]
fn few_pivot_values_route_spare_threads_into_partition_chunking() {
    // End-to-end coverage of the intra-partition parallel path: with only
    // two pivot values and eight requested threads, the builder hands the
    // spare threads to the clustering kernel, whose partitions (≥ 1024
    // rows each) split into multiple chunks — and the build must still be
    // byte-identical to sequential.
    use dbexplorer::table::{DataType, Field, TableBuilder, Value};
    let mut b = TableBuilder::new(vec![
        Field::new("Pivot", DataType::Categorical),
        Field::new("Cat", DataType::Categorical),
        Field::new("Cat2", DataType::Categorical),
        Field::new("Num", DataType::Int),
    ])
    .expect("schema");
    for i in 0..2600usize {
        b.push_row(vec![
            Value::Str(format!("p{}", i % 2)),
            Value::Str(format!("c{}", (i / 3) % 5)),
            Value::Str(format!("d{}", (i * 7) % 4)),
            Value::Int(((i * 37) % 100) as i64 - 50),
        ])
        .expect("row");
    }
    let table = b.finish();
    let view = table.full_view();
    let sequential = build_cad_view(&view, &request_with_threads("Pivot", 1)).expect("sequential");
    let reference = digest(&sequential);
    for threads in [2, 8] {
        let parallel =
            build_cad_view(&view, &request_with_threads("Pivot", threads)).expect("parallel");
        assert_eq!(
            digest(&parallel),
            reference,
            "{threads}-thread chunked build diverged from sequential"
        );
    }
}

#[test]
fn caller_thread_stages_still_see_faults_under_parallelism() {
    // The pivot codec is built on the caller's thread even at threads > 1,
    // so an armed `codec::build` fails the build the same way it does
    // sequentially (a typed error, not a panic).
    let table = UsedCarsGenerator::new(19).generate(500);
    let view = table.full_view();
    let _codec = dbexplorer::stats::fault::scoped("codec::build");
    let err = build_cad_view(&view, &request_with_threads("Make", 4));
    assert!(err.is_err(), "pivot codec fault must surface at any thread count");
}
