//! The packed-code kernels against their one-hot reference oracle.
//!
//! The contract is *bit-identity*, not approximation: for any input, the
//! packed k-means / mini-batch / out-of-sample-assignment paths must
//! return exactly the assignments, centroids (to the float bit), sizes,
//! inertia bits, and iteration counts of the sparse reference
//! implementations. Random fixtures cover NULLs, duplicate rows, empty
//! rows, tiny n, and the `u8 → u32` width promotion above 255 (and above
//! 65,535) distinct values per attribute. The packed k-means walks each
//! distinct row once with its multiplicity as a weight, so duplicate-heavy
//! fixtures (few distinct rows, fewer distinct rows than `k`, all rows
//! identical or all distinct) check that weighting at several thread
//! counts.

use dbex_cluster::kmeans::{assign_all_packed, kmeans, kmeans_packed, KMeansConfig};
use dbex_cluster::minibatch::{mini_batch_kmeans, mini_batch_kmeans_packed, MiniBatchConfig};
use dbex_cluster::packed::PackedMatrix;
use dbex_cluster::{KMeansResult, OneHotSpace};
use dbex_stats::discretize::{AttributeCodec, CodedColumn};
use dbex_table::dict::NULL_CODE;
use proptest::prelude::*;
use std::collections::HashSet;

/// Builds coded columns with the given cardinalities from explicit codes
/// (`None` = NULL), rows in row-major order.
fn columns_from(cards: &[usize], rows: &[Vec<Option<u32>>]) -> Vec<CodedColumn> {
    cards
        .iter()
        .enumerate()
        .map(|(a, &card)| CodedColumn {
            attr_index: a,
            codec: AttributeCodec::Categorical {
                labels: (0..card).map(|i| format!("v{i}")).collect(),
            },
            codes: rows
                .iter()
                .map(|r| r[a].map_or(NULL_CODE, |c| c))
                .collect(),
        })
        .collect()
}

/// A seeded xorshift stream for the fixtures.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Deterministic pseudo-random rows over the given cardinalities, with a
/// NULL probability of roughly 1/8.
fn random_rows(cards: &[usize], n: usize, seed: u64) -> Vec<Vec<Option<u32>>> {
    let mut next = xorshift(seed);
    (0..n)
        .map(|_| {
            cards
                .iter()
                .map(|&card| {
                    let r = next();
                    if r.is_multiple_of(8) {
                        None
                    } else {
                        Some((r % card as u64) as u32)
                    }
                })
                .collect()
        })
        .collect()
}

fn assert_bit_identical(packed: &KMeansResult, reference: &KMeansResult, ctx: &str) {
    assert_eq!(packed.assignments, reference.assignments, "{ctx}: assignments");
    assert_eq!(packed.sizes, reference.sizes, "{ctx}: sizes");
    assert_eq!(packed.iterations, reference.iterations, "{ctx}: iterations");
    assert_eq!(
        packed.inertia.to_bits(),
        reference.inertia.to_bits(),
        "{ctx}: inertia {} vs {}",
        packed.inertia,
        reference.inertia
    );
    assert_eq!(packed.centroids.len(), reference.centroids.len(), "{ctx}: k");
    for (c, (p, r)) in packed.centroids.iter().zip(&reference.centroids).enumerate() {
        let pb: Vec<u64> = p.iter().map(|v| v.to_bits()).collect();
        let rb: Vec<u64> = r.iter().map(|v| v.to_bits()).collect();
        assert_eq!(pb, rb, "{ctx}: centroid {c}");
    }
}

/// Every row of `templates` at least once, then random picks up to `n`
/// rows, in a seeded shuffled order.
fn repeat_shuffled(templates: &[Vec<Option<u32>>], n: usize, seed: u64) -> Vec<Vec<Option<u32>>> {
    let mut next = xorshift(seed);
    let mut rows: Vec<Vec<Option<u32>>> = templates.to_vec();
    while rows.len() < n {
        rows.push(templates[(next() % templates.len() as u64) as usize].clone());
    }
    for i in (1..rows.len()).rev() {
        rows.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    rows
}

/// Packed k-means at 1, 2 and 4 threads against the one-hot reference.
/// The packed kernel must walk exactly the distinct rows; the reference
/// walks every point.
fn check_weighted(cards: &[usize], rows: &[Vec<Option<u32>>], k: usize, seed: u64) {
    let columns = columns_from(cards, rows);
    let refs: Vec<&CodedColumn> = columns.iter().collect();
    let positions: Vec<usize> = (0..rows.len()).collect();
    let space = OneHotSpace::from_columns(&refs);
    let points = space.encode_positions(&refs, &positions);
    let matrix = PackedMatrix::from_columns(&refs, &positions)
        .unwrap_or_else(|| panic!("cards {cards:?} must pack"));
    let distinct = rows.iter().collect::<HashSet<_>>().len();
    for plus_plus in [true, false] {
        let cfg = KMeansConfig {
            k,
            max_iters: 15,
            seed,
            plus_plus,
            threads: 1,
        };
        let reference = kmeans(&points, space.dim(), &cfg).unwrap();
        assert_eq!(reference.distinct_rows, rows.len());
        for threads in [1, 2, 4] {
            let packed = kmeans_packed(
                &matrix,
                &KMeansConfig {
                    threads,
                    ..cfg.clone()
                },
            )
            .unwrap();
            let ctx = format!("t={threads} pp={plus_plus} k={k} distinct={distinct}");
            assert_bit_identical(&packed, &reference, &ctx);
            assert_eq!(packed.distinct_rows, distinct, "{ctx}: distinct_rows");
        }
    }
}

/// Runs both paths over the same data and checks bit-identity of k-means,
/// mini-batch, and out-of-sample assignment.
fn check_equivalence(cards: &[usize], rows: &[Vec<Option<u32>>], k: usize, seed: u64) {
    let columns = columns_from(cards, rows);
    let refs: Vec<&CodedColumn> = columns.iter().collect();
    let positions: Vec<usize> = (0..rows.len()).collect();
    let space = OneHotSpace::from_columns(&refs);
    let points = space.encode_positions(&refs, &positions);
    let matrix = PackedMatrix::from_columns(&refs, &positions)
        .unwrap_or_else(|| panic!("cards {cards:?} must pack"));
    assert_eq!(matrix.dim(), space.dim());

    for plus_plus in [true, false] {
        let cfg = KMeansConfig {
            k,
            max_iters: 12,
            seed,
            plus_plus,
            threads: 1,
        };
        let reference = kmeans(&points, space.dim(), &cfg).unwrap();
        let packed = kmeans_packed(&matrix, &cfg).unwrap();
        assert_bit_identical(&packed, &reference, &format!("kmeans pp={plus_plus}"));
        let threaded = kmeans_packed(
            &matrix,
            &KMeansConfig {
                threads: 3,
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_bit_identical(&threaded, &reference, &format!("kmeans t=3 pp={plus_plus}"));
        assert_eq!(
            assign_all_packed(&reference, &matrix),
            reference.assign_all(&points),
            "assign_all pp={plus_plus}"
        );
    }

    let mb = MiniBatchConfig {
        k,
        batch_size: 16,
        batches: 12,
        seed,
    };
    let reference = mini_batch_kmeans(&points, space.dim(), &mb).unwrap();
    let packed = mini_batch_kmeans_packed(&matrix, &mb).unwrap();
    assert_bit_identical(&packed, &reference, "mini_batch");
}

#[test]
fn packed_kmeans_matches_reference_small_cardinalities() {
    let cards = [5, 3, 7, 2];
    for seed in 0..6u64 {
        let rows = random_rows(&cards, 120, seed + 1);
        check_equivalence(&cards, &rows, 4, seed);
    }
}

#[test]
fn packed_kmeans_matches_reference_with_all_null_rows() {
    let cards = [4, 4];
    let mut rows = random_rows(&cards, 40, 3);
    rows[0] = vec![None, None];
    rows[17] = vec![None, None];
    rows[39] = vec![None, None];
    check_equivalence(&cards, &rows, 3, 9);
}

#[test]
fn packed_kmeans_matches_reference_fewer_points_than_k() {
    let cards = [3, 3];
    let rows = random_rows(&cards, 4, 5);
    check_equivalence(&cards, &rows, 9, 2);
}

#[test]
fn width_promotion_keeps_kernels_exact_above_255_values() {
    // Cardinality 300 forces u32 storage, as does one past 65,535 values;
    // distances must not corrupt.
    for cards in [&[300, 4][..], &[300, 66_000, 4]] {
        for seed in 0..3u64 {
            let rows = random_rows(cards, 150, seed + 11);
            let columns = columns_from(cards, &rows);
            let refs: Vec<&CodedColumn> = columns.iter().collect();
            let matrix =
                PackedMatrix::from_columns(&refs, &(0..rows.len()).collect::<Vec<_>>()).unwrap();
            assert!(
                !matrix.is_u8(),
                "cardinalities {cards:?} must promote to u32"
            );
            check_equivalence(cards, &rows, 5, seed);
        }
    }
}

#[test]
fn empty_input_matches_reference() {
    let cards = [3usize, 2];
    let columns = columns_from(&cards, &[]);
    let refs: Vec<&CodedColumn> = columns.iter().collect();
    let matrix = PackedMatrix::from_columns(&refs, &[]).unwrap();
    let cfg = KMeansConfig {
        k: 3,
        ..KMeansConfig::default()
    };
    let reference = kmeans(&[], 5, &cfg).unwrap();
    let packed = kmeans_packed(&matrix, &cfg).unwrap();
    assert_bit_identical(&packed, &reference, "empty");
}

#[test]
fn weighted_kmeans_few_distinct_rows_shuffled() {
    let cards = [6, 4, 3];
    for seed in 0..4u64 {
        let templates = random_rows(&cards, 7, seed + 21);
        check_weighted(&cards, &repeat_shuffled(&templates, 900, seed), 5, seed);
    }
}

#[test]
fn weighted_kmeans_fewer_distinct_rows_than_k_reseeds() {
    let cards = [5, 5];
    let templates = vec![
        vec![Some(0), Some(1)],
        vec![Some(3), Some(4)],
        vec![Some(2), Some(2)],
    ];
    for seed in 0..4u64 {
        check_weighted(&cards, &repeat_shuffled(&templates, 120, seed), 8, seed);
    }
}

#[test]
fn weighted_kmeans_all_rows_identical() {
    let cards = [4, 3];
    let rows = vec![vec![Some(2), Some(1)]; 300];
    for k in [1, 3, 6] {
        check_weighted(&cards, &rows, k, 5);
    }
}

#[test]
fn weighted_kmeans_all_rows_distinct() {
    // 30 × 25 = 750 distinct rows: more than two 256-row chunks, so the
    // 2- and 4-thread runs split the distinct-row walk.
    let cards = [30, 25];
    let templates: Vec<Vec<Option<u32>>> = (0..30u32)
        .flat_map(|a| (0..25u32).map(move |b| vec![Some(a), Some(b)]))
        .collect();
    let rows = repeat_shuffled(&templates, templates.len(), 17);
    check_weighted(&cards, &rows, 6, 3);
}

#[test]
fn weighted_kmeans_duplicates_with_null_codes() {
    let cards = [5, 4, 3];
    let templates = vec![
        vec![None, Some(1), Some(2)],
        vec![Some(4), None, None],
        vec![None, None, None],
        vec![Some(0), Some(3), None],
        vec![Some(0), Some(3), Some(1)],
    ];
    for seed in 0..4u64 {
        check_weighted(&cards, &repeat_shuffled(&templates, 700, seed), 4, seed);
    }
}

#[test]
fn weighted_kmeans_duplicates_after_width_promotion() {
    let cards = [300, 4];
    let mut templates = random_rows(&cards, 40, 29);
    templates.push(vec![Some(299), Some(3)]);
    templates.push(vec![Some(299), None]);
    let rows = repeat_shuffled(&templates, 1200, 8);
    let columns = columns_from(&cards, &rows);
    let refs: Vec<&CodedColumn> = columns.iter().collect();
    let matrix = PackedMatrix::from_columns(&refs, &(0..rows.len()).collect::<Vec<_>>()).unwrap();
    assert!(!matrix.is_u8(), "cardinality 300 must promote to u32");
    check_weighted(&cards, &rows, 7, 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Duplicate-heavy inputs: a handful of template rows (NULLs
    /// included, attribute 0 straddling the u8/u32 boundary) repeated in
    /// shuffled order, with `k` often above the distinct count.
    #[test]
    fn weighted_kmeans_matches_reference_on_duplicate_heavy_inputs(
        card0 in 250usize..300,
        raw in prop::collection::vec((0u32..300, 0u32..6, 0u32..10), 1..14),
        n in 20usize..400,
        k in 1usize..10,
        seed in 0u64..1000,
    ) {
        let cards = [card0, 6];
        let templates: Vec<Vec<Option<u32>>> = raw
            .iter()
            .map(|&(c0, c1, null_sel)| {
                vec![
                    if null_sel % 3 == 0 { None } else { Some(c0 % card0 as u32) },
                    if null_sel % 4 == 1 { None } else { Some(c1) },
                ]
            })
            .collect();
        check_weighted(&cards, &repeat_shuffled(&templates, n, seed), k, seed);
    }

    /// Satellite: arbitrary inputs spanning the u8/u32 promotion boundary.
    /// Attribute 0's cardinality ranges across 255/256 so some cases pack
    /// as u8 and others must promote; either way the packed kernels must
    /// equal the one-hot reference bit for bit.
    #[test]
    fn packed_distance_equals_onehot_distance_on_arbitrary_inputs(
        card0 in 250usize..300,
        card1 in 2usize..6,
        raw in prop::collection::vec((0u32..300, 0u32..6, 0u32..8), 6..60),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let cards = [card0, card1];
        let rows: Vec<Vec<Option<u32>>> = raw
            .iter()
            .map(|&(c0, c1, null_sel)| {
                vec![
                    if null_sel == 0 { None } else { Some(c0 % card0 as u32) },
                    if null_sel == 1 { None } else { Some(c1 % card1 as u32) },
                ]
            })
            .collect();
        check_equivalence(&cards, &rows, k, seed);
    }
}
