//! Explicit SIMD variants of the packed k-means strip-add kernel.
//!
//! [`accumulate_int_dots_with`] is the innermost loop of the packed assignment
//! step: for every active one-hot dimension of a row it adds a contiguous
//! `dot_stride(k)`-wide strip of the transposed centroid-count LUT into
//! the per-centroid dot accumulators. The accumulation is pure u32
//! integer arithmetic — associative, so lane order is free — which lets
//! each vector variant produce **bit-identical** dots to the scalar
//! reference (kept always-compiled below, and still pinned against the
//! one-hot oracle by the kmeans tests).
//!
//! Dispatch comes from [`dbex_stats::simd::dispatch`] (runtime feature
//! detection + the `DBEX_SIMD` override); the `*_with` variant takes an
//! explicit [`SimdDispatch`] so A/B tests can exercise every path in one
//! process.
//!
//! The other half of the fused assign+update loop — the centroid
//! histogram scatter `sums[best][d] += w` — indexes arbitrary dimensions
//! per row and stays scalar: x86 gains gather/scatter for this shape only
//! at AVX-512, which the fleet baseline does not assume. Instead the
//! scatter is *incremental* ([`assign_scatter_rows_with`]): only rows
//! whose assignment changed emit wrapping deltas against the previous
//! pass, so the scatter cost decays with Lloyd convergence while the LUT
//! strip adds keep the vector width.

use dbex_stats::simd::SimdDispatch;

/// Lane width of the integer dot strips: the LUT stride is padded to a
/// multiple of this so the strip adds can walk fixed-size chunks with no
/// scalar remainder loop. Eight u32 lanes is one 256-bit vector (or two
/// 128-bit ones), and the fig8 shape (k = 15 → stride 16) fits in two.
pub(crate) const DOT_STRIP: usize = 8;

/// Rounds a centroid count up to the padded LUT stride.
#[inline]
pub(crate) fn dot_stride(k: usize) -> usize {
    k.div_ceil(DOT_STRIP).max(1) * DOT_STRIP
}

/// `dot[c] = Σ_{d∈dims} lut[d·ks + c]` over a row's pre-flattened active
/// one-hot dimensions, where `ks = dot.len()` is the padded LUT stride
/// (`dot_stride(k)`; padding lanes accumulate zeros). Strides that are
/// not a multiple of [`DOT_STRIP`] fall back to scalar.
///
/// The dispatch is an explicit argument so row loops resolve it once per
/// chunk — per-row resolution costs an atomic load and a call that LLVM
/// cannot unswitch out of the hot loop.
#[inline]
pub(crate) fn accumulate_int_dots_with(
    d: SimdDispatch,
    dims: &[u32],
    lut: &[u32],
    dot: &mut [u32],
) {
    match d {
        #[cfg(target_arch = "x86_64")]
        SimdDispatch::Avx2 if dot.len().is_multiple_of(DOT_STRIP) => {
            // SAFETY: Avx2 is only selected when the CPU reports the avx2
            // feature (dbex_stats::simd::detected clamps DBEX_SIMD).
            unsafe { accumulate_int_dots_avx2(dims, lut, dot) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdDispatch::Sse2 if dot.len().is_multiple_of(DOT_STRIP) => {
            // SAFETY: SSE2 is the x86_64 baseline — always available.
            unsafe { accumulate_int_dots_sse2(dims, lut, dot) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdDispatch::Neon if dot.len().is_multiple_of(DOT_STRIP) => {
            accumulate_int_dots_neon(dims, lut, dot)
        }
        _ => accumulate_int_dots_scalar(dims, lut, dot),
    }
}

/// The scalar reference: zero the accumulators, then per active dimension
/// add the k-wide LUT strip chunk by chunk. Exactly the integers every
/// vector variant computes.
#[inline]
pub(crate) fn accumulate_int_dots_scalar(dims: &[u32], lut: &[u32], dot: &mut [u32]) {
    let ks = dot.len();
    for v in dot.iter_mut() {
        *v = 0;
    }
    for &d in dims {
        let base = d as usize * ks;
        let strip = &lut[base..base + ks];
        for (acc, s) in dot
            .chunks_exact_mut(DOT_STRIP)
            .zip(strip.chunks_exact(DOT_STRIP))
        {
            for i in 0..DOT_STRIP {
                acc[i] += s[i];
            }
        }
    }
}

/// AVX2: accumulators live in 256-bit registers across the whole `dims`
/// walk — 16 lanes (two registers) per pass, so the common CAD shape
/// (k ≤ 16 → stride 16) runs in a single pass with zero accumulator
/// memory traffic. Strips are taken through bounds-checked slices, so an
/// out-of-range dimension panics exactly like the scalar path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_int_dots_avx2(dims: &[u32], lut: &[u32], dot: &mut [u32]) {
    use std::arch::x86_64::*;
    let ks = dot.len();
    let mut c = 0usize;
    while c + 2 * DOT_STRIP <= ks {
        // SAFETY: each load reads 8 u32 from inside the bounds-checked
        // 16-lane `strip` slice; the stores write inside `dot`
        // (c + 16 <= ks = dot.len()). loadu/storeu are unaligned-safe.
        unsafe {
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            for &d in dims {
                let base = d as usize * ks + c;
                let strip = &lut[base..base + 2 * DOT_STRIP];
                let p = strip.as_ptr();
                acc0 = _mm256_add_epi32(acc0, _mm256_loadu_si256(p as *const __m256i));
                acc1 = _mm256_add_epi32(acc1, _mm256_loadu_si256(p.add(8) as *const __m256i));
            }
            _mm256_storeu_si256(dot.as_mut_ptr().add(c) as *mut __m256i, acc0);
            _mm256_storeu_si256(dot.as_mut_ptr().add(c + 8) as *mut __m256i, acc1);
        }
        c += 2 * DOT_STRIP;
    }
    if c < ks {
        // The stride is a multiple of 8, so what remains is one 8-lane chunk.
        // SAFETY: as above with an 8-lane strip slice; c + 8 <= ks.
        unsafe {
            let mut acc = _mm256_setzero_si256();
            for &d in dims {
                let base = d as usize * ks + c;
                let strip = &lut[base..base + DOT_STRIP];
                acc = _mm256_add_epi32(acc, _mm256_loadu_si256(strip.as_ptr() as *const __m256i));
            }
            _mm256_storeu_si256(dot.as_mut_ptr().add(c) as *mut __m256i, acc);
        }
    }
}

/// SSE2: same register-resident structure at 128-bit width — 8 lanes (two
/// registers) per pass over `dims`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn accumulate_int_dots_sse2(dims: &[u32], lut: &[u32], dot: &mut [u32]) {
    use std::arch::x86_64::*;
    let ks = dot.len();
    let mut c = 0usize;
    while c < ks {
        // SAFETY: each load reads 4 u32 from inside the bounds-checked
        // 8-lane `strip` slice; stores write inside `dot` (c + 8 <= ks,
        // since ks is a multiple of 8). Unaligned ops throughout.
        unsafe {
            let mut acc0 = _mm_setzero_si128();
            let mut acc1 = _mm_setzero_si128();
            for &d in dims {
                let base = d as usize * ks + c;
                let strip = &lut[base..base + DOT_STRIP];
                let p = strip.as_ptr();
                acc0 = _mm_add_epi32(acc0, _mm_loadu_si128(p as *const __m128i));
                acc1 = _mm_add_epi32(acc1, _mm_loadu_si128(p.add(4) as *const __m128i));
            }
            _mm_storeu_si128(dot.as_mut_ptr().add(c) as *mut __m128i, acc0);
            _mm_storeu_si128(dot.as_mut_ptr().add(c + 4) as *mut __m128i, acc1);
        }
        c += DOT_STRIP;
    }
}

/// NEON: 8 lanes (two 128-bit registers) per pass, mirroring the SSE2
/// shape. NEON is baseline on aarch64, so no runtime gate is needed.
#[cfg(target_arch = "aarch64")]
fn accumulate_int_dots_neon(dims: &[u32], lut: &[u32], dot: &mut [u32]) {
    use std::arch::aarch64::*;
    let ks = dot.len();
    let mut c = 0usize;
    while c < ks {
        // SAFETY: each vld1q_u32 reads 4 u32 from inside the
        // bounds-checked 8-lane `strip` slice; vst1q_u32 writes inside
        // `dot` (c + 8 <= ks, ks a multiple of 8).
        unsafe {
            let mut acc0 = vdupq_n_u32(0);
            let mut acc1 = vdupq_n_u32(0);
            for &d in dims {
                let base = d as usize * ks + c;
                let strip = &lut[base..base + DOT_STRIP];
                let p = strip.as_ptr();
                acc0 = vaddq_u32(acc0, vld1q_u32(p));
                acc1 = vaddq_u32(acc1, vld1q_u32(p.add(4)));
            }
            vst1q_u32(dot.as_mut_ptr().add(c), acc0);
            vst1q_u32(dot.as_mut_ptr().add(c + 4), acc1);
        }
        c += DOT_STRIP;
    }
}

/// First-minimum of the canonical clamped histogram distance over all
/// candidates: `argmin_c (norms[c] − 2·dot[c]·invs[c] + len).max(0)`,
/// strict-less first-min ties — the assignment step's other hot loop.
///
/// The distances are f64, but each candidate's value is an *independent
/// per-lane expression*: the vector variants evaluate exactly the scalar
/// operation sequence (`(norms − (2·dotf)·invs) + len`, then clamp) in
/// each lane, and the u32→f64 conversions are exact, so every lane bit
/// equals its scalar counterpart. Only the argmin is a cross-lane
/// reduction, and it stays a scalar first-min scan over the lane values,
/// preserving the tie-break. (The clamp cannot produce `-0.0`: `norms`
/// are sums of squares and `len ≥ 0`, so `max` is unambiguous.)
///
/// Like [`accumulate_int_dots_with`], takes the dispatch explicitly so
/// callers hoist the resolution out of their row loops.
#[inline]
pub(crate) fn nearest_from_int_dots_with(
    d: SimdDispatch,
    norms: &[f64],
    invs: &[f64],
    dot: &[u32],
    len: f64,
) -> (usize, f64) {
    match d {
        #[cfg(target_arch = "x86_64")]
        SimdDispatch::Avx2 if invs.len() >= norms.len() && dot.len() >= norms.len() => {
            // SAFETY: Avx2 is only selected when the CPU reports the avx2
            // feature (dbex_stats::simd::detected clamps DBEX_SIMD).
            unsafe { nearest_int_avx2(norms, invs, dot, len) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdDispatch::Sse2 if invs.len() >= norms.len() && dot.len() >= norms.len() => {
            // SAFETY: SSE2 is the x86_64 baseline — always available.
            unsafe { nearest_int_sse2(norms, invs, dot, len) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdDispatch::Neon if invs.len() >= norms.len() && dot.len() >= norms.len() => {
            nearest_int_neon(norms, invs, dot, len)
        }
        _ => nearest_int_scalar(norms, invs, dot, len, 0, 0, f64::INFINITY),
    }
}

/// The scalar reference (and the vector variants' tail loop): first-min
/// scan from `start` carrying the running best state.
#[inline]
fn nearest_int_scalar(
    norms: &[f64],
    invs: &[f64],
    dot: &[u32],
    len: f64,
    start: usize,
    mut best: usize,
    mut best_d: f64,
) -> (usize, f64) {
    for (c, ((&n2, &iv), &dt)) in norms.iter().zip(invs).zip(dot).enumerate().skip(start) {
        let d = (n2 - 2.0 * f64::from(dt) * iv + len).max(0.0);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// AVX2: four candidate distances per 256-bit op. The exact u32→f64
/// conversion flips the sign bit (`u xor 2³¹` reinterpreted as i32 is
/// `u − 2³¹`), converts, and adds `2³¹` back — both steps exact in f64,
/// so every lane bit-equals `f64::from(u)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn nearest_int_avx2(norms: &[f64], invs: &[f64], dot: &[u32], len: f64) -> (usize, f64) {
    use std::arch::x86_64::*;
    let k = norms.len();
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    let mut c = 0usize;
    // SAFETY: every load reads 4 elements from inside the bounds-checked
    // slices below (c + 4 <= k and invs/dot are at least k long, checked
    // by the dispatcher). loadu/storeu are unaligned-safe.
    unsafe {
        let two = _mm256_set1_pd(2.0);
        let lenv = _mm256_set1_pd(len);
        let zero = _mm256_setzero_pd();
        let sign = _mm_set1_epi32(i32::MIN);
        let two31 = _mm256_set1_pd(2_147_483_648.0);
        while c + 4 <= k {
            let du = _mm_loadu_si128(dot[c..c + 4].as_ptr() as *const __m128i);
            let dotf = _mm256_add_pd(_mm256_cvtepi32_pd(_mm_xor_si128(du, sign)), two31);
            let t = _mm256_mul_pd(
                _mm256_mul_pd(two, dotf),
                _mm256_loadu_pd(invs[c..c + 4].as_ptr()),
            );
            let dv = _mm256_max_pd(
                _mm256_add_pd(_mm256_sub_pd(_mm256_loadu_pd(norms[c..c + 4].as_ptr()), t), lenv),
                zero,
            );
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), dv);
            for (j, &dj) in lanes.iter().enumerate() {
                if dj < best_d {
                    best_d = dj;
                    best = c + j;
                }
            }
            c += 4;
        }
    }
    nearest_int_scalar(norms, invs, dot, len, c, best, best_d)
}

/// SSE2: two candidate distances per 128-bit op, same exact-conversion
/// trick as the AVX2 path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn nearest_int_sse2(norms: &[f64], invs: &[f64], dot: &[u32], len: f64) -> (usize, f64) {
    use std::arch::x86_64::*;
    let k = norms.len();
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    let mut c = 0usize;
    // SAFETY: every load reads 2 elements from inside the bounds-checked
    // slices below (c + 2 <= k; invs/dot at least k long, checked by the
    // dispatcher). _mm_loadl_epi64 reads exactly 8 bytes (two u32).
    unsafe {
        let two = _mm_set1_pd(2.0);
        let lenv = _mm_set1_pd(len);
        let zero = _mm_setzero_pd();
        let sign = _mm_set1_epi32(i32::MIN);
        let two31 = _mm_set1_pd(2_147_483_648.0);
        while c + 2 <= k {
            let du = _mm_loadl_epi64(dot[c..c + 2].as_ptr() as *const __m128i);
            let dotf = _mm_add_pd(_mm_cvtepi32_pd(_mm_xor_si128(du, sign)), two31);
            let t = _mm_mul_pd(_mm_mul_pd(two, dotf), _mm_loadu_pd(invs[c..c + 2].as_ptr()));
            let dv = _mm_max_pd(
                _mm_add_pd(_mm_sub_pd(_mm_loadu_pd(norms[c..c + 2].as_ptr()), t), lenv),
                zero,
            );
            let mut lanes = [0.0f64; 2];
            _mm_storeu_pd(lanes.as_mut_ptr(), dv);
            for (j, &dj) in lanes.iter().enumerate() {
                if dj < best_d {
                    best_d = dj;
                    best = c + j;
                }
            }
            c += 2;
        }
    }
    nearest_int_scalar(norms, invs, dot, len, c, best, best_d)
}

/// NEON: two candidate distances per 128-bit op. `vcvtq_f64_u64` over the
/// widened u32s is the exact unsigned conversion directly.
#[cfg(target_arch = "aarch64")]
fn nearest_int_neon(norms: &[f64], invs: &[f64], dot: &[u32], len: f64) -> (usize, f64) {
    use std::arch::aarch64::*;
    let k = norms.len();
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    let mut c = 0usize;
    // SAFETY: every vld1 reads 2 elements from inside the bounds-checked
    // slices below (c + 2 <= k; invs/dot at least k long, checked by the
    // dispatcher). NEON is baseline on aarch64.
    unsafe {
        let two = vdupq_n_f64(2.0);
        let lenv = vdupq_n_f64(len);
        let zero = vdupq_n_f64(0.0);
        while c + 2 <= k {
            let du = vld1_u32(dot[c..c + 2].as_ptr());
            let dotf = vcvtq_f64_u64(vmovl_u32(du));
            let t = vmulq_f64(vmulq_f64(two, dotf), vld1q_f64(invs[c..c + 2].as_ptr()));
            let dv = vmaxq_f64(
                vaddq_f64(vsubq_f64(vld1q_f64(norms[c..c + 2].as_ptr()), t), lenv),
                zero,
            );
            let mut lanes = [0.0f64; 2];
            vst1q_f64(lanes.as_mut_ptr(), dv);
            for (j, &dj) in lanes.iter().enumerate() {
                if dj < best_d {
                    best_d = dj;
                    best = c + j;
                }
            }
            c += 2;
        }
    }
    nearest_int_scalar(norms, invs, dot, len, c, best, best_d)
}

/// Batched fused assignment: for every row in `rows`, accumulate the
/// integer dots against `lut` and push `(nearest centroid, clamped
/// distance)` — the per-row composition of [`accumulate_int_dots_with`]
/// and [`nearest_from_int_dots_with`], but on the wide x86 paths the dot
/// buffer never touches memory: the strip accumulators stay in vector
/// registers through conversion, distance, and a vector argmin, and the
/// centroid constants load once per call instead of once per row.
///
/// Contract: `norms` and `invs` are padded to the LUT stride
/// (`dot_stride(k)`) with `(f64::INFINITY, 0.0)`. A padding lane then
/// evaluates to `(∞ − dot·0) + len = ∞`, which can never win either the
/// strict-less scalar scan or the vector min, so the padded scan returns
/// exactly the k-lane result.
///
/// Bit-identity of the fused paths:
/// * the integer dots are the same associative u32 sums;
/// * `inv2 = 2·inv` is exact (power-of-two scale), so `dotf·(2·inv)`
///   rounds the same real product as the scalar `(2·dotf)·inv`;
/// * every lane evaluates the canonical expression in the scalar order;
/// * the vector argmin takes the lane-wise min (same value as the scalar
///   scan's minimum) and then picks the **first** lane equal to it —
///   exactly the index the strict-less first-min scan returns. Distances
///   are never NaN (all inputs finite, padding is +∞), so min/cmp
///   ordering quirks don't apply.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assign_rows_with(
    d: SimdDispatch,
    row_dims: &[u32],
    row_ends: &[u32],
    rows: std::ops::Range<usize>,
    lut: &[u32],
    norms: &[f64],
    invs: &[f64],
    out: &mut Vec<(usize, f64)>,
) {
    assign_rows_sink(d, row_dims, row_ends, rows, lut, norms, invs, |_, _, best, best_d| {
        out.push((best, best_d))
    });
}

/// [`assign_rows_with`] fused with an **incremental** Lloyd update
/// scatter: per row, the nearest centroid goes into `part_assign`, and —
/// only when it differs from `prev[row]` — the row moves between
/// clusters in the flattened `k × dim` wrapping-delta histogram
/// `part_sums`/`part_counts` (add to the new cluster, subtract from the
/// old; `prev[row] == usize::MAX` marks "not yet assigned", first
/// iteration, which only adds). A row stands for `weights[row]`
/// identical tuples, so it moves that many members at once. Applying
/// the merged deltas to the caller's running sums reproduces the
/// from-scratch scatter exactly: `u32` wrapping add/sub is a commutative
/// group, so `old_sums + (adds − subs)` equals the direct regrouped sum
/// bit for bit, in any chunk order and for any grouping of identical
/// tuples into weighted rows — while rows that kept their cluster (the
/// vast majority once Lloyd starts converging) cost no scatter work at
/// all.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assign_scatter_rows_with(
    d: SimdDispatch,
    row_dims: &[u32],
    row_ends: &[u32],
    rows: std::ops::Range<usize>,
    lut: &[u32],
    norms: &[f64],
    invs: &[f64],
    dim: usize,
    weights: &[u32],
    prev: &[usize],
    part_assign: &mut Vec<usize>,
    part_counts: &mut [u32],
    part_sums: &mut [u32],
) {
    // One bounds pass over the range's dims hoists the per-increment
    // checks out of the histogram scatter (same shape as the dispatcher's
    // `lut_ok` scan): with every dim < `dim` and a full `k × dim` delta
    // matrix, `c·dim + dd` stays in bounds for every `c` the checked
    // `part_counts[c]` index admits.
    let scatter_ok = part_sums.len() >= part_counts.len().saturating_mul(dim)
        && dims_range(row_ends, &rows)
            .and_then(|(lo, hi)| row_dims.get(lo..hi))
            .is_some_and(|dims| dims.iter().all(|&dd| (dd as usize) < dim));
    if scatter_ok {
        assign_rows_sink(d, row_dims, row_ends, rows, lut, norms, invs, |i, dims, best, _| {
            part_assign.push(best);
            let old = prev[i];
            if old != best {
                let w = weights[i];
                part_counts[best] = part_counts[best].wrapping_add(w);
                let nb = best * dim;
                // SAFETY (both loops): `scatter_ok` verified `dd < dim` for
                // every dim in the range and `part_sums.len() ≥
                // part_counts.len()·dim`; the checked `part_counts[c]`
                // indexes above bound `best` and `old`, so
                // `c·dim + dd < (c + 1)·dim ≤ part_sums.len()`.
                if old == usize::MAX {
                    for &dd in dims {
                        let s = unsafe { part_sums.get_unchecked_mut(nb + dd as usize) };
                        *s = s.wrapping_add(w);
                    }
                } else {
                    part_counts[old] = part_counts[old].wrapping_sub(w);
                    let ob = old * dim;
                    for &dd in dims {
                        let s = unsafe { part_sums.get_unchecked_mut(nb + dd as usize) };
                        *s = s.wrapping_add(w);
                        let s = unsafe { part_sums.get_unchecked_mut(ob + dd as usize) };
                        *s = s.wrapping_sub(w);
                    }
                }
            }
        });
    } else {
        assign_rows_sink(d, row_dims, row_ends, rows, lut, norms, invs, |i, dims, best, _| {
            part_assign.push(best);
            let old = prev[i];
            if old != best {
                let w = weights[i];
                part_counts[best] = part_counts[best].wrapping_add(w);
                let sum = &mut part_sums[best * dim..(best + 1) * dim];
                for &dd in dims {
                    sum[dd as usize] = sum[dd as usize].wrapping_add(w);
                }
                if old != usize::MAX {
                    part_counts[old] = part_counts[old].wrapping_sub(w);
                    let sum = &mut part_sums[old * dim..(old + 1) * dim];
                    for &dd in dims {
                        sum[dd as usize] = sum[dd as usize].wrapping_sub(w);
                    }
                }
            }
        });
    }
}

/// Shared dispatch for the batched kernels. The sink — called as
/// `sink(row, dims, best, best_d)` in row order — is a generic parameter
/// so it inlines into the vector row loops.
#[allow(clippy::too_many_arguments)]
fn assign_rows_sink<F: FnMut(usize, &[u32], usize, f64)>(
    d: SimdDispatch,
    row_dims: &[u32],
    row_ends: &[u32],
    rows: std::ops::Range<usize>,
    lut: &[u32],
    norms: &[f64],
    invs: &[f64],
    sink: F,
) {
    let stride = norms.len();
    // One bounds pass over the range's dims hoists every per-strip check
    // out of the vector kernels: when the largest dim's LUT strip fits,
    // the kernels may load strips unchecked (their safety contract).
    let lut_ok = dims_range(row_ends, &rows)
        .and_then(|(lo, hi)| row_dims.get(lo..hi))
        .is_some_and(|dims| {
            let max = dims.iter().copied().max();
            max.is_none_or(|m| (m as usize + 1) * stride <= lut.len())
        });
    match d {
        #[cfg(target_arch = "x86_64")]
        SimdDispatch::Avx2 if stride == 8 && invs.len() == stride && lut_ok => {
            // SAFETY: Avx2 is only selected when the CPU reports the avx2
            // feature (dbex_stats::simd::detected clamps DBEX_SIMD), and
            // `lut_ok` establishes the kernel's strip-bounds contract.
            unsafe { assign_rows_avx2::<1, F>(row_dims, row_ends, rows, lut, norms, invs, sink) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdDispatch::Avx2 if stride == 16 && invs.len() == stride && lut_ok => {
            // SAFETY: as above.
            unsafe { assign_rows_avx2::<2, F>(row_dims, row_ends, rows, lut, norms, invs, sink) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdDispatch::Sse2 if stride == 8 && invs.len() == stride && lut_ok => {
            // SAFETY: SSE2 is the x86_64 baseline — always available;
            // `lut_ok` establishes the kernel's strip-bounds contract.
            unsafe { assign_rows_sse2::<1, F>(row_dims, row_ends, rows, lut, norms, invs, sink) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdDispatch::Sse2 if stride == 16 && invs.len() == stride && lut_ok => {
            // SAFETY: as above.
            unsafe { assign_rows_sse2::<2, F>(row_dims, row_ends, rows, lut, norms, invs, sink) }
        }
        // Scalar, NEON, and uncommon strides: the two-step kernels per row
        // (identical results — the padded lanes lose every comparison).
        _ => {
            let mut sink = sink;
            let mut dot = vec![0u32; stride];
            for i in rows {
                let start = if i == 0 { 0 } else { row_ends[i - 1] as usize };
                let dims = &row_dims[start..row_ends[i] as usize];
                accumulate_int_dots_with(d, dims, lut, &mut dot);
                let (best, best_d) =
                    nearest_from_int_dots_with(d, norms, invs, &dot, dims.len() as f64);
                sink(i, dims, best, best_d);
            }
        }
    }
}

/// CSR dim-slice bounds `[lo, hi)` covered by `rows`, or `None` when the
/// range is empty or `row_ends` doesn't reach it.
fn dims_range(row_ends: &[u32], rows: &std::ops::Range<usize>) -> Option<(usize, usize)> {
    if rows.is_empty() {
        return None;
    }
    let lo = if rows.start == 0 {
        0
    } else {
        *row_ends.get(rows.start - 1)? as usize
    };
    let hi = *row_ends.get(rows.end - 1)? as usize;
    Some((lo, hi))
}

/// AVX2 fused row assignment for stride `8·N` (`N` = number of 256-bit
/// integer accumulators, 1 or 2 — every CAD shape, since k ≤ 16).
///
/// # Safety
///
/// Requires avx2, and every dim `d` in the range's CSR slice must satisfy
/// `(d + 1) · 8N ≤ lut.len()` — the dispatcher's `lut_ok` scan — so the
/// strip loads can skip per-dim bounds checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn assign_rows_avx2<const N: usize, F: FnMut(usize, &[u32], usize, f64)>(
    row_dims: &[u32],
    row_ends: &[u32],
    rows: std::ops::Range<usize>,
    lut: &[u32],
    norms: &[f64],
    invs: &[f64],
    mut sink: F,
) {
    use std::arch::x86_64::*;
    let ks = N * 8;
    // SAFETY: intrinsics require avx2 and the strip loads rely on the
    // caller's `(d + 1)·ks ≤ lut.len()` contract (see # Safety); all other
    // loads read from inside bounds-checked slices; loadu is
    // unaligned-safe.
    unsafe {
        let sign = _mm_set1_epi32(i32::MIN);
        let two31 = _mm256_set1_pd(2_147_483_648.0);
        let zero = _mm256_setzero_pd();
        let two = _mm256_set1_pd(2.0);
        // Centroid constants: 2N quads of norms and pre-doubled inverses.
        let mut normv = [zero; 4];
        let mut inv2v = [zero; 4];
        for q in 0..2 * N {
            normv[q] = _mm256_loadu_pd(norms[4 * q..4 * q + 4].as_ptr());
            inv2v[q] = _mm256_mul_pd(two, _mm256_loadu_pd(invs[4 * q..4 * q + 4].as_ptr()));
        }
        for i in rows {
            let start = if i == 0 { 0 } else { row_ends[i - 1] as usize };
            let dims = &row_dims[start..row_ends[i] as usize];
            let mut acc = [_mm256_setzero_si256(); N];
            for &d in dims {
                let strip = lut.as_ptr().add(d as usize * ks);
                for (t, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_epi32(
                        *a,
                        _mm256_loadu_si256(strip.add(8 * t) as *const __m256i),
                    );
                }
            }
            let lenv = _mm256_set1_pd(dims.len() as f64);
            let mut dv = [zero; 4];
            for q in 0..2 * N {
                let du = if q % 2 == 0 {
                    _mm256_castsi256_si128(acc[q / 2])
                } else {
                    _mm256_extracti128_si256::<1>(acc[q / 2])
                };
                let dotf = _mm256_add_pd(_mm256_cvtepi32_pd(_mm_xor_si128(du, sign)), two31);
                let t = _mm256_mul_pd(dotf, inv2v[q]);
                dv[q] = _mm256_max_pd(_mm256_add_pd(_mm256_sub_pd(normv[q], t), lenv), zero);
            }
            let mut m = dv[0];
            for &d4 in dv.iter().take(2 * N).skip(1) {
                m = _mm256_min_pd(m, d4);
            }
            let m2 = _mm_min_pd(_mm256_castpd256_pd128(m), _mm256_extractf128_pd::<1>(m));
            let best_d = _mm_cvtsd_f64(_mm_min_sd(m2, _mm_unpackhi_pd(m2, m2)));
            // Branchless first-index-of-min: one equality mask per quad,
            // packed into a 16-bit word whose lowest set bit is the first
            // lane equal to the global minimum.
            let mb = _mm256_set1_pd(best_d);
            let mut mask16 = 0u32;
            for (q, &d4) in dv.iter().take(2 * N).enumerate() {
                let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(d4, mb)) as u32;
                mask16 |= mask << (4 * q);
            }
            let best = mask16.trailing_zeros() as usize;
            sink(i, dims, best, best_d);
        }
    }
}

/// SSE2 fused row assignment for stride `8·N` — the 128-bit mirror of
/// [`assign_rows_avx2`]: 2N integer accumulators, 4N f64 pairs.
///
/// # Safety
///
/// Same contract as [`assign_rows_avx2`] (SSE2 baseline instead of avx2):
/// every dim `d` in the range's CSR slice must satisfy
/// `(d + 1) · 8N ≤ lut.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn assign_rows_sse2<const N: usize, F: FnMut(usize, &[u32], usize, f64)>(
    row_dims: &[u32],
    row_ends: &[u32],
    rows: std::ops::Range<usize>,
    lut: &[u32],
    norms: &[f64],
    invs: &[f64],
    mut sink: F,
) {
    use std::arch::x86_64::*;
    let ks = N * 8;
    // SAFETY: SSE2 is the x86_64 baseline; the strip loads rely on the
    // caller's `(d + 1)·ks ≤ lut.len()` contract (see # Safety); all other
    // loads read from inside bounds-checked slices; loadu is
    // unaligned-safe.
    unsafe {
        let sign = _mm_set1_epi32(i32::MIN);
        let two31 = _mm_set1_pd(2_147_483_648.0);
        let zero = _mm_setzero_pd();
        let two = _mm_set1_pd(2.0);
        let mut normv = [zero; 8];
        let mut inv2v = [zero; 8];
        for q in 0..4 * N {
            normv[q] = _mm_loadu_pd(norms[2 * q..2 * q + 2].as_ptr());
            inv2v[q] = _mm_mul_pd(two, _mm_loadu_pd(invs[2 * q..2 * q + 2].as_ptr()));
        }
        for i in rows {
            let start = if i == 0 { 0 } else { row_ends[i - 1] as usize };
            let dims = &row_dims[start..row_ends[i] as usize];
            let mut acc = [_mm_setzero_si128(); 4];
            for &d in dims {
                let strip = lut.as_ptr().add(d as usize * ks);
                for (t, a) in acc.iter_mut().enumerate().take(2 * N) {
                    *a = _mm_add_epi32(
                        *a,
                        _mm_loadu_si128(strip.add(4 * t) as *const __m128i),
                    );
                }
            }
            let lenv = _mm_set1_pd(dims.len() as f64);
            let mut dv = [zero; 8];
            for q in 0..4 * N {
                let pair = if q % 2 == 0 {
                    acc[q / 2]
                } else {
                    // Move the high two u32s into the low half for cvt.
                    _mm_shuffle_epi32::<0b_11_10>(acc[q / 2])
                };
                let dotf = _mm_add_pd(_mm_cvtepi32_pd(_mm_xor_si128(pair, sign)), two31);
                dv[q] = _mm_max_pd(
                    _mm_add_pd(_mm_sub_pd(normv[q], _mm_mul_pd(dotf, inv2v[q])), lenv),
                    zero,
                );
            }
            let mut m = dv[0];
            for &d2 in dv.iter().take(4 * N).skip(1) {
                m = _mm_min_pd(m, d2);
            }
            let best_d = _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)));
            // Branchless first-index-of-min, as in the AVX2 path.
            let mb = _mm_set1_pd(best_d);
            let mut mask16 = 0u32;
            for (q, &d2) in dv.iter().take(4 * N).enumerate() {
                let mask = _mm_movemask_pd(_mm_cmpeq_pd(d2, mb)) as u32;
                mask16 |= mask << (2 * q);
            }
            let best = mask16.trailing_zeros() as usize;
            sink(i, dims, best, best_d);
        }
    }
}

/// k-means++ seeding helper: `acc[i] += (col[i] == t)` over one
/// column-major attribute slice. The caller skips NULL seed codes, and a
/// NULL cell can never equal a non-NULL `t`, so the accumulated byte is
/// exactly the matching-non-NULL-cell count `packed_sparse_dist2` walks
/// row-wise (attrs ≤ 255 keeps it from wrapping).
pub(crate) fn byte_eq_accumulate(d: SimdDispatch, col: &[u8], t: u8, acc: &mut [u8]) {
    match d {
        #[cfg(target_arch = "x86_64")]
        SimdDispatch::Avx2 => {
            // SAFETY: Avx2 is only selected when the CPU reports the avx2
            // feature (dbex_stats::simd::detected clamps DBEX_SIMD).
            unsafe { byte_eq_accumulate_avx2(col, t, acc) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdDispatch::Sse2 => {
            // SAFETY: SSE2 is the x86_64 baseline — always available.
            unsafe { byte_eq_accumulate_sse2(col, t, acc) }
        }
        _ => byte_eq_accumulate_scalar(col, t, acc),
    }
}

/// The scalar reference (and every path's tail loop).
#[inline]
pub(crate) fn byte_eq_accumulate_scalar(col: &[u8], t: u8, acc: &mut [u8]) {
    for (a, &c) in acc.iter_mut().zip(col) {
        *a += u8::from(c == t);
    }
}

/// AVX2: 32 cells per op — `cmpeq` yields 0xFF (= −1) on match, so
/// subtracting the mask adds one to every matching accumulator.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn byte_eq_accumulate_avx2(col: &[u8], t: u8, acc: &mut [u8]) {
    use std::arch::x86_64::*;
    let n = acc.len().min(col.len());
    let mut i = 0usize;
    // SAFETY: each load/store covers 32 bytes inside the bounds-checked
    // slices below; loadu/storeu are unaligned-safe.
    unsafe {
        let tv = _mm256_set1_epi8(t as i8);
        while i + 32 <= n {
            let c = _mm256_loadu_si256(col[i..i + 32].as_ptr() as *const __m256i);
            let a = _mm256_loadu_si256(acc[i..i + 32].as_ptr() as *const __m256i);
            let m = _mm256_cmpeq_epi8(c, tv);
            _mm256_storeu_si256(
                acc[i..i + 32].as_mut_ptr() as *mut __m256i,
                _mm256_sub_epi8(a, m),
            );
            i += 32;
        }
    }
    byte_eq_accumulate_scalar(&col[i..n], t, &mut acc[i..n]);
}

/// SSE2: 16 cells per op, same mask-subtract trick.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn byte_eq_accumulate_sse2(col: &[u8], t: u8, acc: &mut [u8]) {
    use std::arch::x86_64::*;
    let n = acc.len().min(col.len());
    let mut i = 0usize;
    // SAFETY: each load/store covers 16 bytes inside the bounds-checked
    // slices below; loadu/storeu are unaligned-safe.
    unsafe {
        let tv = _mm_set1_epi8(t as i8);
        while i + 16 <= n {
            let c = _mm_loadu_si128(col[i..i + 16].as_ptr() as *const __m128i);
            let a = _mm_loadu_si128(acc[i..i + 16].as_ptr() as *const __m128i);
            let m = _mm_cmpeq_epi8(c, tv);
            _mm_storeu_si128(acc[i..i + 16].as_mut_ptr() as *mut __m128i, _mm_sub_epi8(a, m));
            i += 16;
        }
    }
    byte_eq_accumulate_scalar(&col[i..n], t, &mut acc[i..n]);
}

/// k-means++ seeding helper: fold this round's distances into the
/// running per-row minimum — `d2[i] = min(d2[i], lens[i] + len_last −
/// 2·common[i])`. Every distance is a small non-negative integer
/// (`common ≤ min(lens[i], len_last)`), so the f64 conversion is exact
/// and the vector `min` matches the scalar strict-less update bit for
/// bit (ties keep an identical value either way).
pub(crate) fn seed_min_update(
    d: SimdDispatch,
    common: &[u8],
    lens: &[u32],
    len_last: u32,
    d2: &mut [f64],
) {
    match d {
        #[cfg(target_arch = "x86_64")]
        SimdDispatch::Avx2 => {
            // SAFETY: Avx2 is only selected when the CPU reports the avx2
            // feature (dbex_stats::simd::detected clamps DBEX_SIMD).
            unsafe { seed_min_update_avx2(common, lens, len_last, d2) }
        }
        _ => seed_min_update_scalar(common, lens, len_last, d2),
    }
}

/// The scalar reference (and the vector path's tail loop) — the same
/// update `packed_seed_plus_plus` performs row-wise.
#[inline]
pub(crate) fn seed_min_update_scalar(common: &[u8], lens: &[u32], len_last: u32, d2: &mut [f64]) {
    for ((&c, &l), slot) in common.iter().zip(lens).zip(d2.iter_mut()) {
        let d = f64::from(l + len_last - 2 * u32::from(c));
        if d < *slot {
            *slot = d;
        }
    }
}

/// AVX2: eight rows per pass — widen the byte counts, do the distance in
/// i32 (exact, values ≤ 510), convert, and `min` into the running d2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn seed_min_update_avx2(common: &[u8], lens: &[u32], len_last: u32, d2: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = d2.len().min(common.len()).min(lens.len());
    let mut i = 0usize;
    // SAFETY: every load/store covers 8 (or 4 for the f64 halves) lanes
    // inside the bounds-checked slices below; loadu/storeu are
    // unaligned-safe. _mm_loadl_epi64 reads exactly 8 bytes.
    unsafe {
        let lb = _mm256_set1_epi32(len_last as i32);
        while i + 8 <= n {
            let c8 = _mm_loadl_epi64(common[i..i + 8].as_ptr() as *const __m128i);
            let c32 = _mm256_cvtepu8_epi32(c8);
            let l32 = _mm256_loadu_si256(lens[i..i + 8].as_ptr() as *const __m256i);
            let di = _mm256_sub_epi32(_mm256_add_epi32(l32, lb), _mm256_slli_epi32::<1>(c32));
            let lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(di));
            let hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(di));
            let d2lo = _mm256_loadu_pd(d2[i..i + 4].as_ptr());
            let d2hi = _mm256_loadu_pd(d2[i + 4..i + 8].as_ptr());
            _mm256_storeu_pd(d2[i..i + 4].as_mut_ptr(), _mm256_min_pd(lo, d2lo));
            _mm256_storeu_pd(d2[i + 4..i + 8].as_mut_ptr(), _mm256_min_pd(hi, d2hi));
            i += 8;
        }
    }
    seed_min_update_scalar(&common[i..n], &lens[i..n], len_last, &mut d2[i..n]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random LUT/dims without an RNG dependency.
    fn fixture(k: usize, dim: usize) -> (Vec<u32>, Vec<u32>, usize) {
        let ks = dot_stride(k);
        let mut lut = vec![0u32; dim * ks];
        for (i, v) in lut.iter_mut().enumerate() {
            // Zero the padding lanes like build_int_lut does.
            if i % ks < k {
                *v = ((i * 2654435761) % 1000) as u32;
            }
        }
        let dims: Vec<u32> = (0..dim).filter(|d| d % 3 != 1).map(|d| d as u32).collect();
        (lut, dims, ks)
    }

    #[test]
    fn every_dispatch_matches_scalar() {
        for k in [1usize, 2, 7, 8, 9, 15, 16, 17, 24, 31, 40] {
            let (lut, dims, ks) = fixture(k, 57);
            let mut want = vec![0u32; ks];
            accumulate_int_dots_scalar(&dims, &lut, &mut want);
            for d in [
                SimdDispatch::Scalar,
                SimdDispatch::Sse2,
                SimdDispatch::Avx2,
                SimdDispatch::Neon,
            ] {
                let mut dot = vec![u32::MAX; ks]; // must be fully overwritten
                accumulate_int_dots_with(d, &dims, &lut, &mut dot);
                assert_eq!(dot, want, "k={k} dispatch={d:?}");
            }
        }
    }

    #[test]
    fn nearest_matches_scalar_bits_and_tiebreaks() {
        for k in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 40] {
            // Deterministic candidates with realistic magnitudes, plus
            // dot values above i32::MAX to exercise the exact unsigned
            // conversion in the vector paths.
            let mut norms: Vec<f64> = (0..k)
                .map(|c| ((c * 2654435761) % 997) as f64 / 7.0)
                .collect();
            let mut invs: Vec<f64> = (0..k).map(|c| 1.0 / ((c % 13) + 1) as f64).collect();
            let mut dot: Vec<u32> = (0..k)
                .map(|c| ((c as u64 * 0x9E37_79B9) % u64::from(u32::MAX)) as u32)
                .collect();
            if k >= 4 {
                // A forced exact tie: the scan must keep the first index.
                norms[3] = norms[1];
                invs[3] = invs[1];
                dot[3] = dot[1];
            }
            for len in [0.0f64, 5.0, 10.0] {
                let want = nearest_int_scalar(&norms, &invs, &dot, len, 0, 0, f64::INFINITY);
                for d in [
                    SimdDispatch::Scalar,
                    SimdDispatch::Sse2,
                    SimdDispatch::Avx2,
                    SimdDispatch::Neon,
                ] {
                    let got = nearest_from_int_dots_with(d, &norms, &invs, &dot, len);
                    assert_eq!(got.0, want.0, "k={k} len={len} dispatch={d:?}: index");
                    assert_eq!(
                        got.1.to_bits(),
                        want.1.to_bits(),
                        "k={k} len={len} dispatch={d:?}: distance bits {} vs {}",
                        got.1,
                        want.1
                    );
                }
            }
        }
    }

    #[test]
    fn empty_dims_zero_the_accumulators() {
        let (lut, _, ks) = fixture(15, 8);
        for d in [
            SimdDispatch::Scalar,
            SimdDispatch::Sse2,
            SimdDispatch::Avx2,
            SimdDispatch::Neon,
        ] {
            let mut dot = vec![7u32; ks];
            accumulate_int_dots_with(d, &[], &lut, &mut dot);
            assert_eq!(dot, vec![0u32; ks], "{d:?}");
        }
    }

    const ALL_DISPATCHES: [SimdDispatch; 4] = [
        SimdDispatch::Scalar,
        SimdDispatch::Sse2,
        SimdDispatch::Avx2,
        SimdDispatch::Neon,
    ];

    #[test]
    fn seeding_kernels_match_scalar_across_dispatches() {
        // Lengths straddle the 16/32-lane vector chunks to hit the tails.
        for n in [0usize, 1, 7, 16, 31, 32, 33, 100] {
            let col: Vec<u8> = (0..n).map(|i| ((i * 7) % 5) as u8).collect();
            let lens: Vec<u32> = (0..n).map(|i| 1 + (i % 9) as u32).collect();
            let common0: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
            let mut want_acc = common0.clone();
            byte_eq_accumulate_scalar(&col, 3, &mut want_acc);
            // A partially-minimized d2 (some +inf, some finite, one exact
            // tie with the incoming distance) checks min/tie behavior.
            let d2_init: Vec<f64> = (0..n)
                .map(|i| match i % 3 {
                    0 => f64::INFINITY,
                    1 => 2.0,
                    _ => f64::from(lens[i] + 4 - 2 * u32::from(common0[i])),
                })
                .collect();
            let mut want_d2 = d2_init.clone();
            seed_min_update_scalar(&common0, &lens, 4, &mut want_d2);
            for d in ALL_DISPATCHES {
                let mut acc = common0.clone();
                byte_eq_accumulate(d, &col, 3, &mut acc);
                assert_eq!(acc, want_acc, "n={n} dispatch={d:?}: byte counts");
                let mut d2 = d2_init.clone();
                seed_min_update(d, &common0, &lens, 4, &mut d2);
                let want_bits: Vec<u64> = want_d2.iter().map(|v| v.to_bits()).collect();
                let got_bits: Vec<u64> = d2.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got_bits, want_bits, "n={n} dispatch={d:?}: d2 bits");
            }
        }
    }

    /// Applying the wrapping deltas of two successive passes (centroids
    /// change in between) reproduces the from-scratch histogram of the
    /// final assignment, on every dispatch, with every row counted
    /// `weights[row]` times.
    #[test]
    fn scatter_deltas_reproduce_from_scratch_histogram() {
        let k = 3usize;
        let dim = 8usize;
        let ks = dot_stride(k); // 8 → the stride-8 vector kernels run
        let rows: Vec<Vec<u32>> = (0..12)
            .map(|i| (0..dim as u32).filter(|d| (i + d) % 3 != 1).collect())
            .collect();
        let mut row_dims = Vec::new();
        let mut row_ends = Vec::new();
        for r in &rows {
            row_dims.extend_from_slice(r);
            row_ends.push(row_dims.len() as u32);
        }
        let weights: Vec<u32> = (0..rows.len() as u32).map(|i| 1 + i % 4).collect();
        let lut_for = |salt: u32| {
            let mut lut = vec![0u32; dim * ks];
            for (i, v) in lut.iter_mut().enumerate() {
                if i % ks < k {
                    *v = ((i as u32).wrapping_mul(2654435761).wrapping_add(salt)) % 50;
                }
            }
            lut
        };
        let consts_for = |lut: &[u32]| {
            // Arbitrary-but-valid padded centroid constants.
            let mut norms: Vec<f64> = (0..k).map(|c| f64::from(lut[c] % 7) + 0.5).collect();
            let mut invs: Vec<f64> = (0..k).map(|c| 1.0 / f64::from(1 + (c as u32))).collect();
            norms.resize(ks, f64::INFINITY);
            invs.resize(ks, 0.0);
            (norms, invs)
        };
        for d in ALL_DISPATCHES {
            let mut running = vec![0u32; k * dim];
            let mut counts = vec![0u32; k];
            let mut prev = vec![usize::MAX; rows.len()];
            for pass in 0..2 {
                let lut = lut_for(pass * 31 + 7);
                let (norms, invs) = consts_for(&lut);
                let mut part_assign = Vec::new();
                let mut part_counts = vec![0u32; k];
                let mut part_sums = vec![0u32; k * dim];
                assign_scatter_rows_with(
                    d,
                    &row_dims,
                    &row_ends,
                    0..rows.len(),
                    &lut,
                    &norms,
                    &invs,
                    dim,
                    &weights,
                    &prev,
                    &mut part_assign,
                    &mut part_counts,
                    &mut part_sums,
                );
                for (c, pc) in counts.iter_mut().zip(&part_counts) {
                    *c = c.wrapping_add(*pc);
                }
                for (s, ds) in running.iter_mut().zip(&part_sums) {
                    *s = s.wrapping_add(*ds);
                }
                // Brute-force regroup of the new assignment.
                let mut want_sums = vec![0u32; k * dim];
                let mut want_counts = vec![0u32; k];
                for ((r, &c), &w) in rows.iter().zip(&part_assign).zip(&weights) {
                    want_counts[c] += w;
                    for &dd in r {
                        want_sums[c * dim + dd as usize] += w;
                    }
                }
                assert_eq!(counts, want_counts, "pass={pass} dispatch={d:?}: counts");
                assert_eq!(running, want_sums, "pass={pass} dispatch={d:?}: sums");
                prev = part_assign;
            }
        }
    }
}
