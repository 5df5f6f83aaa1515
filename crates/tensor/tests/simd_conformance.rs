//! SIMD ↔ scalar conformance suite.
//!
//! Two guarantees are pinned here:
//!
//! 1. **f16 conformance** — the vectorized converters agree with the
//!    canonical [`F16`] bit algorithms on *every* representable input:
//!    all 65,536 half bit patterns for `to_f32`, and the full
//!    round-to-nearest-even edge catalogue (subnormals, halfway cases,
//!    ±inf, NaN canonicalization, the MAX→inf rounding carry) for
//!    `from_f32`.
//! 2. **Bit-identity** — every kernel produces byte-identical results
//!    under the scalar and the auto-detected SIMD backend, in both FMA
//!    states. This is what keeps elastic resume and the strategy
//!    equivalence tests exact across heterogeneous fleets.
//!
//! Backend forcing mutates process-global state, so every test funnels
//! through a mutex-guarded helper that restores auto dispatch on exit.
//!
//! The explicit-SIMD paths use raw intrinsics Miri cannot interpret, so
//! the whole suite is compiled out under Miri (the scalar algorithms
//! they are compared against are covered by the unit tests in-crate).
#![cfg(not(miri))]

use proptest::prelude::*;
use zi_sync::{Mutex, OnceLock};

use zi_tensor::f16::F16;
use zi_tensor::ops;
use zi_tensor::simd::{self, AdamParams, Backend};
use zi_tensor::Tensor;

/// Serialize tests that flip the global backend/FMA overrides.
fn with_backend<T>(b: Option<Backend>, fma: Option<bool>, f: impl FnOnce() -> T) -> T {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    let _g = GUARD.get_or_init(|| Mutex::new(())).lock();
    simd::force_backend(b);
    simd::force_fma(fma);
    let out = f();
    simd::force_backend(None);
    simd::force_fma(None);
    out
}

/// Deterministic pseudo-random f32s spanning many exponent ranges.
fn lcg_f32s(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Mix wide exponents in: every 7th value is scaled far up/down.
            let u = (state >> 33) as u32;
            let base = (u as f32 / u32::MAX as f32) * 8.0 - 4.0;
            match state % 7 {
                0 => base * 1e-6,
                1 => base * 1e6,
                _ => base,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Satellite: exhaustive f16 conformance.

#[test]
fn f16_to_f32_agrees_on_all_65536_bit_patterns() {
    // One pass through every half bit pattern, converted as a single
    // slice so the vector body (not just the tail) sees all of them.
    let halves: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
    let mut out = vec![0f32; halves.len()];
    with_backend(None, None, || simd::f16_to_f32_slice(&halves, &mut out));
    for (h, got) in halves.iter().zip(&out) {
        let want = h.to_f32();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "pattern {:#06x}: simd {got:?} vs scalar {want:?}",
            h.to_bits()
        );
    }
}

#[test]
fn f16_from_f32_round_to_nearest_even_edges() {
    let mut cases: Vec<f32> = vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7f800001), // signaling-ish NaN payload
        f32::from_bits(0xffc01234), // negative NaN payload
        65504.0,                    // F16::MAX
        65503.0,                    // rounds down to MAX
        65519.9,                    // just under the halfway-to-inf point
        65520.0,                    // halfway: RN-even carries into infinity
        65521.0,                    // above halfway: infinity
        1e6,
        -1e6,
        f32::MAX,
        f32::MIN_POSITIVE,          // f32 normal far below half subnormals
        f32::from_bits(1),          // smallest f32 subnormal
        -f32::from_bits(1),
    ];
    // Half subnormal boundaries: 2^-24 (smallest), 1023*2^-24 (largest),
    // the flush-to-zero threshold 2^-25 and its neighbours.
    cases.extend([
        2.0f32.powi(-24),
        -(2.0f32.powi(-24)),
        1023.0 * 2.0f32.powi(-24),
        2.0f32.powi(-25),           // exactly half the smallest subnormal: RN-even → 0
        2.0f32.powi(-25) * 1.0000001, // just above: rounds to the smallest subnormal
        2.0f32.powi(-26),           // flushes to (signed) zero
        -(2.0f32.powi(-26)),
        3.0 * 2.0f32.powi(-25),     // halfway between subnormals 1 and 2 → even (2)
    ]);
    // Normal-range halfway cases around 1.0.
    cases.extend([
        1.0 + 2.0f32.powi(-11),       // halfway, even mantissa stays
        1.0 + 3.0 * 2.0f32.powi(-11), // halfway, odd mantissa rounds up
        1.0 + 2.0f32.powi(-10),       // representable exactly
    ]);
    // Subnormal→normal boundary.
    cases.extend([2.0f32.powi(-14), 2.0f32.powi(-14) * 0.9999999]);
    // And a broad random sweep for everything in between.
    cases.extend(lcg_f32s(4096, 0x5eed));

    let mut out = vec![F16::ZERO; cases.len()];
    with_backend(None, None, || simd::f32_to_f16_slice(&cases, &mut out));
    for (x, got) in cases.iter().zip(&out) {
        let want = F16::from_f32(*x);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "input {x:?} ({:#010x}): simd {:#06x} vs scalar {:#06x}",
            x.to_bits(),
            got.to_bits(),
            want.to_bits()
        );
    }
}

#[test]
fn f16_nan_payloads_canonicalize_identically() {
    // Every NaN must collapse to sign | 0x7e00 on both paths.
    let nans: Vec<f32> = (0..64)
        .flat_map(|i| {
            let payload = 1u32 << (i % 23).max(1);
            [
                f32::from_bits(0x7f80_0000 | payload),
                f32::from_bits(0xff80_0000 | payload),
            ]
        })
        .collect();
    let mut out = vec![F16::ZERO; nans.len()];
    with_backend(None, None, || simd::f32_to_f16_slice(&nans, &mut out));
    for (x, h) in nans.iter().zip(&out) {
        let sign = (x.to_bits() >> 16) as u16 & 0x8000;
        assert_eq!(h.to_bits(), sign | 0x7e00, "NaN {:#010x}", x.to_bits());
    }
}

#[test]
#[ignore = "exhaustive 2^32 sweep; run explicitly with --ignored"]
fn f16_from_f32_agrees_on_every_f32_bit_pattern() {
    let mut batch = vec![0f32; 1 << 16];
    let mut simd_out = vec![F16::ZERO; batch.len()];
    for hi in 0..=u16::MAX {
        for (lo, x) in batch.iter_mut().enumerate() {
            *x = f32::from_bits(((hi as u32) << 16) | lo as u32);
        }
        with_backend(None, None, || simd::f32_to_f16_slice(&batch, &mut simd_out));
        for (x, got) in batch.iter().zip(&simd_out) {
            assert_eq!(got.to_bits(), F16::from_f32(*x).to_bits(), "input {:#010x}", x.to_bits());
        }
    }
}

// ---------------------------------------------------------------------------
// Satellite: SIMD ↔ scalar bit-identity for the compute kernels.

/// Run `f` under forced-scalar and auto dispatch and assert the outputs
/// are byte-identical, in both FMA states.
fn assert_backend_bit_identity<T: PartialEq + std::fmt::Debug>(
    name: &str,
    f: impl Fn() -> T,
) {
    for fma in [false, true] {
        let scalar = with_backend(Some(Backend::Scalar), Some(fma), &f);
        let auto = with_backend(None, Some(fma), &f);
        assert_eq!(scalar, auto, "{name}: scalar vs auto diverged (fma={fma})");
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn matmul_variants_are_bit_identical_across_backends() {
    // Odd sizes exercise every edge tile and vector tail; (64, 96, 80)
    // crosses the parallel-dispatch threshold and the strip-packing row
    // count, (9, 300, 40) the k-panel of the AVX2 driver.
    for (m, k, n) in [(3, 5, 7), (17, 33, 29), (64, 96, 80), (9, 300, 40)] {
        let a = Tensor::from_vec(&[m, k], lcg_f32s(m * k, 11)).unwrap();
        let b = Tensor::from_vec(&[k, n], lcg_f32s(k * n, 22)).unwrap();
        let bt = Tensor::from_vec(&[n, k], lcg_f32s(n * k, 33)).unwrap();
        let am = Tensor::from_vec(&[k, m], lcg_f32s(k * m, 44)).unwrap();
        assert_backend_bit_identity(&format!("matmul {m}x{k}x{n}"), || {
            bits(&ops::matmul(&a, &b).unwrap())
        });
        assert_backend_bit_identity(&format!("matmul_nt {m}x{k}x{n}"), || {
            bits(&ops::matmul_nt(&a, &bt).unwrap())
        });
        assert_backend_bit_identity(&format!("matmul_tn {m}x{k}x{n}"), || {
            bits(&ops::matmul_tn(&am, &b).unwrap())
        });
    }
}

// ---------------------------------------------------------------------------
// Satellite: the GEMM tile kernels against the canonical row algorithm.

/// `acc + a·b`, fused under the FMA knob: the update of every GEMM
/// element, written out here so the reference shares no code with the
/// kernels under test.
fn ref_madd(acc: f32, a: f32, b: f32, fma: bool) -> f32 {
    if fma { a.mul_add(b, acc) } else { acc + a * b }
}

/// The canonical row algorithm of `C = A·B`: each output row starts at
/// zero and takes one k-sequential pass per row of `B`.
#[allow(clippy::too_many_arguments)]
fn ref_gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    b: &[f32],
    ldb: usize,
    fma: bool,
) -> Vec<u32> {
    let mut out = vec![0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * a_rs + p * a_ks];
            for j in 0..n {
                out[i * n + j] = ref_madd(out[i * n + j], av, b[p * ldb + j], fma);
            }
        }
    }
    out.iter().map(|v| v.to_bits()).collect()
}

/// The canonical dot of `C = A·Bᵀ`: element `p` accumulates into lane
/// `p % 8`, the lanes collapse with the fixed `sum8` tree.
#[allow(clippy::too_many_arguments)]
fn ref_gemm_nt(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    fma: bool,
) -> Vec<u32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut l = [0f32; 8];
            for p in 0..k {
                l[p % 8] = ref_madd(l[p % 8], a[i * lda + p], b[j * ldb + p], fma);
            }
            let sum = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
            out.push(sum.to_bits());
        }
    }
    out
}

/// A `rows`×`cols` matrix stored with leading dimension `ld`, the gap
/// columns filled with NaN so a kernel that strays outside its view
/// poisons its output.
fn padded(rows: usize, cols: usize, ld: usize, seed: u64) -> Vec<f32> {
    let vals = lcg_f32s(rows * cols, seed);
    let mut out = vec![f32::NAN; rows * ld];
    for r in 0..rows {
        out[r * ld..r * ld + cols].copy_from_slice(&vals[r * cols..(r + 1) * cols]);
    }
    out
}

/// The `m`×`n` block of a padded output as bits, after checking that the
/// gap columns still hold the sentinel they were filled with.
fn unpad(c: &[f32], m: usize, n: usize, ldc: usize) -> Vec<u32> {
    for (i, v) in c.iter().enumerate() {
        let inside = i % ldc < n;
        assert!(inside || v.to_bits() == SENTINEL.to_bits(), "wrote outside the C view at {i}");
    }
    (0..m).flat_map(|i| c[i * ldc..i * ldc + n].iter().map(|v| v.to_bits())).collect()
}

const SENTINEL: f32 = -12345.0;

/// Tile, vector, strip-packing and edge boundaries of the kernels.
const DIMS: [usize; 13] = [0, 1, 3, 4, 5, 15, 16, 17, 31, 63, 64, 65, 130];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every GEMM variant, on strided views with leading dimensions
    /// larger than the width, equals the canonical row algorithm bit for
    /// bit — under forced-scalar and auto dispatch, in both FMA states —
    /// and the pool-split `ops` entry points equal the one-call kernel.
    #[test]
    fn gemm_variants_match_the_canonical_row_algorithm(
        mi in 0usize..13,
        ni in 0usize..13,
        ki in 0usize..13,
        pad in 1usize..4,
        seed in 0u64..1000,
    ) {
        let (m, n, k) = (DIMS[mi], DIMS[ni], DIMS[ki]);
        let (lda, ldb, ldbt, ldat, ldc) = (k + pad, n + 2 * pad, k + 3 * pad, m + pad, n + pad);
        let a = padded(m, k, lda, seed);
        let b = padded(k, n, ldb, seed + 1);
        let bt = padded(n, k, ldbt, seed + 2);
        let at = padded(k, m, ldat, seed + 3);
        for fma in [false, true] {
            let want_nn = ref_gemm(m, n, k, &a, lda, 1, &b, ldb, fma);
            let want_tn = ref_gemm(m, n, k, &at, 1, ldat, &b, ldb, fma);
            let want_nt = ref_gemm_nt(m, n, k, &a, lda, &bt, ldbt, fma);
            for backend in [Some(Backend::Scalar), None] {
                let (nn, tn, nt) = with_backend(backend, Some(fma), || {
                    let mut c = vec![SENTINEL; m * ldc];
                    simd::gemm(m, n, k, &a, lda, 1, &b, ldb, &mut c, ldc);
                    let nn = unpad(&c, m, n, ldc);
                    c.fill(SENTINEL);
                    simd::gemm(m, n, k, &at, 1, ldat, &b, ldb, &mut c, ldc);
                    let tn = unpad(&c, m, n, ldc);
                    c.fill(SENTINEL);
                    simd::gemm_nt(m, n, k, &a, lda, &bt, ldbt, &mut c, ldc);
                    (nn, tn, unpad(&c, m, n, ldc))
                });
                let tag = format!("{m}x{n}x{k} {backend:?} fma={fma}");
                prop_assert_eq!(&nn, &want_nn, "gemm {}", tag);
                prop_assert_eq!(&tn, &want_tn, "gemm, transposed A {}", tag);
                prop_assert_eq!(&nt, &want_nt, "gemm_nt {}", tag);
            }
            // The tensor entry points hand one row range to each pool
            // thread; the bytes must not depend on the split. (`Tensor`
            // has no zero-width matrices: `as_2d` divides by the width.)
            if m * n * k == 0 {
                continue;
            }
            let dense = |rows: usize, cols: usize, src: &[f32], ld: usize| {
                let data = (0..rows).flat_map(|r| src[r * ld..r * ld + cols].to_vec()).collect();
                Tensor::from_vec(&[rows, cols], data).unwrap()
            };
            let (ta, tb) = (dense(m, k, &a, lda), dense(k, n, &b, ldb));
            let (tbt, tat) = (dense(n, k, &bt, ldbt), dense(k, m, &at, ldat));
            let (nn, nt, tn) = with_backend(None, Some(fma), || {
                (
                    bits(&ops::matmul(&ta, &tb).unwrap()),
                    bits(&ops::matmul_nt(&ta, &tbt).unwrap()),
                    bits(&ops::matmul_tn(&tat, &tb).unwrap()),
                )
            });
            prop_assert_eq!(&nn, &want_nn, "matmul {}x{}x{} fma={}", m, n, k, fma);
            prop_assert_eq!(&nt, &want_nt, "matmul_nt {}x{}x{} fma={}", m, n, k, fma);
            prop_assert_eq!(&tn, &want_tn, "matmul_tn {}x{}x{} fma={}", m, n, k, fma);
        }
    }
}

#[test]
fn gelu_and_backward_are_bit_identical_across_backends() {
    let x = Tensor::from_vec(&[61, 37], lcg_f32s(61 * 37, 55)).unwrap();
    let dy = Tensor::from_vec(&[61, 37], lcg_f32s(61 * 37, 66)).unwrap();
    assert_backend_bit_identity("gelu", || bits(&ops::gelu(&x)));
    assert_backend_bit_identity("gelu_backward", || {
        bits(&ops::gelu_backward(&x, &dy).unwrap())
    });
}

#[test]
fn layernorm_and_backward_are_bit_identical_across_backends() {
    for n in [8usize, 13, 64, 100] {
        let rows = 9;
        let x = Tensor::from_vec(&[rows, n], lcg_f32s(rows * n, 77)).unwrap();
        let gamma: Vec<f32> = lcg_f32s(n, 88);
        let beta: Vec<f32> = lcg_f32s(n, 99);
        let dy = Tensor::from_vec(&[rows, n], lcg_f32s(rows * n, 111)).unwrap();
        assert_backend_bit_identity(&format!("layernorm n={n}"), || {
            let (out, stats) = ops::layernorm(&x, &gamma, &beta, 1e-5).unwrap();
            (
                bits(&out),
                stats.mean.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                stats.rstd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        });
        assert_backend_bit_identity(&format!("layernorm_backward n={n}"), || {
            let (_, stats) = ops::layernorm(&x, &gamma, &beta, 1e-5).unwrap();
            let (dx, dgamma, dbeta) = ops::layernorm_backward(&x, &dy, &gamma, &stats).unwrap();
            (
                bits(&dx),
                dgamma.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                dbeta.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        });
    }
}

#[test]
fn adam_chunk_is_bit_identical_across_backends() {
    for n in [7usize, 64, 1000] {
        let params = AdamParams {
            beta1: 0.9,
            beta2: 0.999,
            one_minus_beta1: 0.1,
            one_minus_beta2: 0.001,
            bc1: 1.0 - 0.9f32.powi(3),
            bc2: 1.0 - 0.999f32.powi(3),
            lr: 1e-3,
            eps: 1e-8,
            weight_decay: 0.01,
        };
        let master0 = lcg_f32s(n, 123);
        let m0 = lcg_f32s(n, 234);
        let v0: Vec<f32> = lcg_f32s(n, 345).iter().map(|v| v.abs()).collect();
        let grad = lcg_f32s(n, 456);
        assert_backend_bit_identity(&format!("adam_chunk n={n}"), || {
            let mut master = master0.clone();
            let mut m = m0.clone();
            let mut v = v0.clone();
            let mut publish = vec![0f32; n];
            simd::adam_chunk(&params, &mut master, &mut m, &mut v, &grad, Some(&mut publish));
            [master, m, v, publish]
                .map(|vs| vs.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        });
    }
}

#[test]
fn microkernels_are_bit_identical_across_backends() {
    // The kernel entry points themselves, below the `ops` wrappers: a
    // 133-long dot (16 vector steps + a 5-element tail) alone and as a
    // 5×7 tile block, a strided 5×37 `C = A·B` (full, half and scalar
    // column tiles; one full and one edge row tile) read as `A` and as
    // `Aᵀ`, and the lane sum.
    let x = lcg_f32s(5 * 140, 3);
    let w = lcg_f32s(7 * 150, 4);
    assert_backend_bit_identity("dot", || {
        let mut c = [0f32; 1];
        simd::gemm_nt(1, 1, 133, &x, 140, &w, 150, &mut c, 1);
        c[0].to_bits()
    });
    assert_backend_bit_identity("dot tiles", || {
        let mut c = vec![0f32; 5 * 9];
        simd::gemm_nt(5, 7, 133, &x, 140, &w, 150, &mut c, 9);
        c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    });
    assert_backend_bit_identity("vec_sum", || simd::vec_sum(&x[..133]).to_bits());
    let b = lcg_f32s(133 * 40, 5);
    assert_backend_bit_identity("tile", || {
        let mut c = vec![0f32; 5 * 41];
        simd::gemm(5, 37, 133, &x, 140, 1, &b, 40, &mut c, 41);
        c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    });
    assert_backend_bit_identity("tile, transposed A", || {
        let mut c = vec![0f32; 5 * 41];
        simd::gemm(5, 37, 133, &w, 1, 7, &b, 40, &mut c, 41);
        c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    });
}

#[test]
fn exp_slice_is_bit_identical_across_backends() {
    // Odd length exercises the vector tail; the catalogue covers both
    // clamp edges, the subnormal-adjacent floor, zeros, +inf (clamps to
    // 87 like the min lane op defines) and the exact-zero side below −87.
    let mut x = lcg_f32s(203, 13);
    x.extend([
        0.0,
        -0.0,
        1.0,
        -1.0,
        86.9,
        -86.9,
        87.0,
        -87.0,
        100.0,
        -100.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -87.33, // past the natural f32 underflow point: exactly zero
        17.3,
        -45.6,
    ]);
    assert_backend_bit_identity("exp_slice", || {
        let mut v = x.clone();
        simd::exp_slice(&mut v);
        v.iter().map(|e| e.to_bits()).collect::<Vec<_>>()
    });
    // Sanity anchors (identity is the contract, but e^x should still be
    // recognizably e^x).
    let mut probe = vec![0.0f32, 1.0, -1.0];
    with_backend(Some(Backend::Scalar), None, || simd::exp_slice(&mut probe));
    assert_eq!(probe[0], 1.0);
    assert!((probe[1] - std::f32::consts::E).abs() < 1e-5);
    assert!((probe[2] - 1.0 / std::f32::consts::E).abs() < 1e-6);
}

#[test]
fn masked_logits_become_exact_zeros_never_subnormals() {
    // Below the clamp the exp kernel returns +0.0, not e^-87: the floor
    // would turn subnormal as soon as softmax divides it by a row sum
    // above 1.4. 19 columns put masked entries in the vector body and in
    // the scalar tail.
    let n = 19;
    let mut row: Vec<f32> = (0..n).map(|j| (j as f32 * 0.37).sin() * 3.0).collect();
    let masked = [2usize, 9, 10, 17, 18];
    for (t, &j) in masked.iter().enumerate() {
        row[j] = if t % 2 == 0 { f32::NEG_INFINITY } else { -1e9 };
    }
    let logits = Tensor::from_vec(&[1, n], row).unwrap();
    for backend in [Some(Backend::Scalar), None] {
        let p = with_backend(backend, None, || {
            let mut p = logits.clone();
            ops::softmax_rows(&mut p);
            p
        });
        for (j, v) in p.data().iter().enumerate() {
            assert!(!v.is_subnormal(), "{backend:?}: p[{j}] = {v:e} is subnormal");
            assert_eq!(masked.contains(&j), v.to_bits() == 0, "{backend:?}: p[{j}] = {v:e}");
        }
        let (_, grad) =
            with_backend(backend, None, || ops::cross_entropy(&logits, &[0]).unwrap());
        assert!(grad.data().iter().all(|g| !g.is_subnormal()), "{backend:?}: subnormal in dlogits");
    }
    assert_backend_bit_identity("masked softmax", || {
        let mut p = logits.clone();
        ops::softmax_rows(&mut p);
        bits(&p)
    });
}

#[test]
fn softmax_and_cross_entropy_are_bit_identical_across_backends() {
    // 31 columns: each row crosses the 8-wide vector body and lands a
    // 7-element tail in exp_slice.
    let (rows, n) = (9, 31);
    let logits = Tensor::from_vec(&[rows, n], lcg_f32s(rows * n, 14)).unwrap();
    let targets: Vec<usize> = (0..rows).map(|r| (r * 11) % n).collect();
    assert_backend_bit_identity("softmax_rows", || {
        let mut p = logits.clone();
        ops::softmax_rows(&mut p);
        bits(&p)
    });
    assert_backend_bit_identity("cross_entropy", || {
        let (loss, grad) = ops::cross_entropy(&logits, &targets).unwrap();
        (loss.to_bits(), bits(&grad))
    });
}

#[test]
fn fma_knob_defaults_to_bit_identical_canonical_path() {
    // With the knob untouched, forced-scalar and auto must agree AND
    // match the explicit fma=false path: FMA contraction is opt-in.
    let x = lcg_f32s(97, 8);
    let w = lcg_f32s(97, 9);
    let dot = || {
        let mut c = [0f32; 1];
        simd::gemm_nt(1, 1, 97, &x, 97, &w, 97, &mut c, 1);
        c[0].to_bits()
    };
    let default_auto = with_backend(None, None, dot);
    let plain_scalar = with_backend(Some(Backend::Scalar), Some(false), dot);
    assert_eq!(default_auto, plain_scalar, "default dispatch must be the unfused canonical path");
}
