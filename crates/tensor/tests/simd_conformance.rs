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
//!    under the scalar and the auto-detected SIMD backend, and the GEMM
//!    and Adam kernels equal unfused references written out here (no
//!    multiply-add is ever contracted). This is what keeps elastic resume
//!    and the strategy equivalence tests exact across heterogeneous
//!    fleets.
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
use zi_tensor::simd::{self, AdamParams, Backend, GradScale, PublishTo};
use zi_tensor::Tensor;

/// Serialize tests that flip the global backend override.
fn with_backend<T>(b: Option<Backend>, f: impl FnOnce() -> T) -> T {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    let _g = GUARD.get_or_init(|| Mutex::new(())).lock();
    simd::force_backend(b);
    let out = f();
    simd::force_backend(None);
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
    with_backend(None, || simd::f16_to_f32_slice(&halves, &mut out));
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
    with_backend(None, || simd::f32_to_f16_slice(&cases, &mut out));
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
    with_backend(None, || simd::f32_to_f16_slice(&nans, &mut out));
    for (x, h) in nans.iter().zip(&out) {
        let sign = (x.to_bits() >> 16) as u16 & 0x8000;
        assert_eq!(h.to_bits(), sign | 0x7e00, "NaN {:#010x}", x.to_bits());
    }
}

/// Assert the dispatched f32 → f16 conversion of `xs` equals
/// [`F16::from_f32`] on every element.
fn assert_f16_conversions(xs: &[f32]) {
    let mut out = vec![F16::ZERO; xs.len()];
    with_backend(None, || simd::f32_to_f16_slice(xs, &mut out));
    for (x, got) in xs.iter().zip(&out) {
        let want = F16::from_f32(*x);
        assert_eq!(got.to_bits(), want.to_bits(), "input {:#010x}", x.to_bits());
    }
}

#[test]
fn f16_from_f32_agrees_on_a_2_pow_24_pattern_stride() {
    // Every 256th bit pattern, offset so the low byte varies too: all
    // signs and exponents, mantissas spread across their range.
    let xs: Vec<f32> = (0..1u32 << 24).map(|k| f32::from_bits(k << 8 | (k * 37) & 0xff)).collect();
    for chunk in xs.chunks(1 << 20) {
        assert_f16_conversions(chunk);
    }
}

#[test]
fn f16_from_f32_agrees_on_every_exponents_rounding_boundaries() {
    // For every sign and exponent, the mantissas around each bit
    // position that a conversion may round at — the normal halfway bit
    // and each subnormal shift's — just below, on and above the halfway
    // point, under even and odd kept bits.
    let mut xs = Vec::new();
    for sign in [0u32, 1 << 31] {
        for exp in 0..=255u32 {
            for b in 0..23u32 {
                let half = 1u32 << b;
                for low in [half - 1, half, half + 1] {
                    for high in [0, 2 << b, 0x007f_ffff & !((2 << b) - 1)] {
                        xs.push(f32::from_bits(sign | exp << 23 | ((high | low) & 0x007f_ffff)));
                    }
                }
            }
        }
    }
    assert_f16_conversions(&xs);
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
        with_backend(None, || simd::f32_to_f16_slice(&batch, &mut simd_out));
        for (x, got) in batch.iter().zip(&simd_out) {
            assert_eq!(got.to_bits(), F16::from_f32(*x).to_bits(), "input {:#010x}", x.to_bits());
        }
    }
}

// ---------------------------------------------------------------------------
// Satellite: SIMD ↔ scalar bit-identity for the compute kernels.

/// Run `f` under forced-scalar and auto dispatch and assert the outputs
/// are byte-identical.
fn assert_backend_bit_identity<T: PartialEq + std::fmt::Debug>(
    name: &str,
    f: impl Fn() -> T,
) {
    let scalar = with_backend(Some(Backend::Scalar), &f);
    let auto = with_backend(None, &f);
    assert_eq!(scalar, auto, "{name}: scalar vs auto diverged");
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

/// `acc + a·b`, the product rounded before the add: the update of every
/// GEMM element, written out here so the reference shares no code with
/// the kernels under test.
fn ref_madd(acc: f32, a: f32, b: f32) -> f32 {
    acc + a * b
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
) -> Vec<u32> {
    let mut out = vec![0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * a_rs + p * a_ks];
            for j in 0..n {
                out[i * n + j] = ref_madd(out[i * n + j], av, b[p * ldb + j]);
            }
        }
    }
    out.iter().map(|v| v.to_bits()).collect()
}

/// The canonical dot of `C = A·Bᵀ`: element `p` accumulates into lane
/// `p % 8`, the lanes collapse with the fixed `sum8` tree.
fn ref_gemm_nt(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
) -> Vec<u32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut l = [0f32; 8];
            for p in 0..k {
                l[p % 8] = ref_madd(l[p % 8], a[i * lda + p], b[j * ldb + p]);
            }
            let sum = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
            out.push(sum.to_bits());
        }
    }
    out
}

/// A `rows`×`cols` matrix stored with leading dimension `ld`, the gap
/// columns filled with NaN and `PAD` guard NaNs before its first row and
/// after its last, so a kernel that strays outside its view — sideways,
/// above or below — poisons its output. [`view`] is the matrix itself.
fn padded(rows: usize, cols: usize, ld: usize, seed: u64) -> Vec<f32> {
    let vals = lcg_f32s(rows * cols, seed);
    let mut out = vec![f32::NAN; rows * ld];
    for r in 0..rows {
        out[r * ld..r * ld + cols].copy_from_slice(&vals[r * cols..(r + 1) * cols]);
    }
    padded_f32s(&out)
}

/// The matrix a guarded buffer holds, without its guards.
fn view(buf: &[f32]) -> &[f32] {
    &buf[PAD..buf.len() - PAD]
}

/// An `m`-row output of leading dimension `ldc`, every element and the
/// `PAD` guards around it `SENTINEL`; the kernel writes [`view`] of it.
fn guarded_c(m: usize, ldc: usize) -> Vec<f32> {
    vec![SENTINEL; m * ldc + 2 * PAD]
}

/// The `m`×`n` block of a guarded output as bits, after checking that the
/// guards and the gap columns still hold the sentinel they were filled
/// with.
fn unpad(c: &[f32], m: usize, n: usize, ldc: usize) -> Vec<u32> {
    let mut guards = c[..PAD].iter().chain(&c[c.len() - PAD..]);
    assert!(guards.all(|v| v.to_bits() == SENTINEL.to_bits()), "wrote past the C view's ends");
    let c = view(c);
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
    /// larger than the width and guard zones above and below every
    /// operand, equals the canonical row algorithm bit for bit — under
    /// forced-scalar and auto dispatch — and the pool-split `ops` entry
    /// points equal the one-call kernel.
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
        let (a, b) = (padded(m, k, lda, seed), padded(k, n, ldb, seed + 1));
        let (bt, at) = (padded(n, k, ldbt, seed + 2), padded(k, m, ldat, seed + 3));
        let (a, b, bt, at) = (view(&a), view(&b), view(&bt), view(&at));
        let want_nn = ref_gemm(m, n, k, a, lda, 1, b, ldb);
        let want_tn = ref_gemm(m, n, k, at, 1, ldat, b, ldb);
        let want_nt = ref_gemm_nt(m, n, k, a, lda, bt, ldbt);
        for backend in [Some(Backend::Scalar), None] {
            let (nn, tn, nt) = with_backend(backend, || {
                let mut c = guarded_c(m, ldc);
                let inner = PAD..PAD + m * ldc;
                simd::gemm(m, n, k, a, lda, 1, b, ldb, &mut c[inner.clone()], ldc);
                let nn = unpad(&c, m, n, ldc);
                c.fill(SENTINEL);
                simd::gemm(m, n, k, at, 1, ldat, b, ldb, &mut c[inner.clone()], ldc);
                let tn = unpad(&c, m, n, ldc);
                c.fill(SENTINEL);
                simd::gemm_nt(m, n, k, a, lda, bt, ldbt, &mut c[inner], ldc);
                (nn, tn, unpad(&c, m, n, ldc))
            });
            let tag = format!("{m}x{n}x{k} {backend:?}");
            prop_assert_eq!(&nn, &want_nn, "gemm {}", tag);
            prop_assert_eq!(&tn, &want_tn, "gemm, transposed A {}", tag);
            prop_assert_eq!(&nt, &want_nt, "gemm_nt {}", tag);
        }
        // The tensor entry points hand one row range to each pool
        // thread; the bytes must not depend on the split. (`Tensor`
        // has no zero-width matrices: `as_2d` divides by the width.)
        if m * n * k == 0 {
            return;
        }
        let dense = |rows: usize, cols: usize, src: &[f32], ld: usize| {
            let data = (0..rows).flat_map(|r| src[r * ld..r * ld + cols].to_vec()).collect();
            Tensor::from_vec(&[rows, cols], data).unwrap()
        };
        let (ta, tb) = (dense(m, k, a, lda), dense(k, n, b, ldb));
        let (tbt, tat) = (dense(n, k, bt, ldbt), dense(k, m, at, ldat));
        let (nn, nt, tn) = with_backend(None, || {
            (
                bits(&ops::matmul(&ta, &tb).unwrap()),
                bits(&ops::matmul_nt(&ta, &tbt).unwrap()),
                bits(&ops::matmul_tn(&tat, &tb).unwrap()),
            )
        });
        prop_assert_eq!(&nn, &want_nn, "matmul {}x{}x{}", m, n, k);
        prop_assert_eq!(&nt, &want_nt, "matmul_nt {}x{}x{}", m, n, k);
        prop_assert_eq!(&tn, &want_tn, "matmul_tn {}x{}x{}", m, n, k);
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

fn adam_params(grad_scale: GradScale) -> AdamParams {
    AdamParams {
        beta1: 0.9,
        beta2: 0.999,
        one_minus_beta1: 0.1,
        one_minus_beta2: 0.001,
        bc1: 1.0 - 0.9f32.powi(3),
        bc2: 1.0 - 0.999f32.powi(3),
        lr: 1e-3,
        eps: 1e-8,
        weight_decay: 0.01,
        grad_scale,
    }
}

#[test]
fn adam_chunk_is_bit_identical_across_backends() {
    for n in [7usize, 64, 1000] {
        let params = adam_params(GradScale::Div(3.0));
        let master0 = lcg_f32s(n, 123);
        let m0 = lcg_f32s(n, 234);
        let v0: Vec<f32> = lcg_f32s(n, 345).iter().map(|v| v.abs()).collect();
        let grad = lcg_f32s(n, 456);
        assert_backend_bit_identity(&format!("adam_chunk n={n}"), || {
            let mut master = master0.clone();
            let mut m = m0.clone();
            let mut v = v0.clone();
            let mut publish = vec![0f32; n];
            let mut crcs = [1, 2, 3, 4];
            let publish_to = PublishTo::F32(&mut publish);
            simd::adam_chunk(&params, &mut master, &mut m, &mut v, &grad, publish_to, Some(&mut crcs));
            let [master, m, v, publish] =
                [master, m, v, publish].map(|vs| vs.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            (master, m, v, publish, crcs)
        });
    }
}

/// One Adam element written out in the kernel's order, sharing no code
/// with it: the gradient averaged, both moments, their bias corrections,
/// the update with decoupled weight decay, the step. With `fused`, the
/// two moment updates contract into one rounding each (`mul_add`) —
/// the variant the kernels must *not* compute.
fn ref_adam_one(p: &AdamParams, master: f32, m: f32, v: f32, g: f32, fused: bool) -> [f32; 3] {
    let g = match p.grad_scale {
        GradScale::One => g,
        GradScale::Mul(r) => g * r,
        GradScale::Div(d) => g / d,
    };
    let (m, v) = if fused {
        (m.mul_add(p.beta1, p.one_minus_beta1 * g), (p.one_minus_beta2 * g).mul_add(g, p.beta2 * v))
    } else {
        (p.beta1 * m + p.one_minus_beta1 * g, p.beta2 * v + (p.one_minus_beta2 * g) * g)
    };
    let m_hat = m / p.bc1;
    let v_hat = v / p.bc2;
    let update = m_hat / (v_hat.sqrt() + p.eps) + p.weight_decay * master;
    [master - p.lr * update, m, v]
}

#[test]
fn adam_chunk_matches_an_unfused_per_element_reference() {
    // Backend against backend cannot see both backends start to contract
    // the moment updates; a reference written out here can, and the
    // fused variant it also computes proves the inputs tell the two
    // apart. Both kernel shapes are checked: the plain update and the
    // publishing, checksumming one.
    let scales = [GradScale::One, GradScale::average_over(4.0), GradScale::average_over(3.0)];
    let mut fused_differs = false;
    for n in (0..=33).chain([1000]) {
        for (k, &scale) in scales.iter().enumerate() {
            let p = adam_params(scale);
            let seed = 7 * n as u64 + k as u64;
            let master0 = lcg_f32s(n, seed);
            let m0 = lcg_f32s(n, seed + 1);
            let v0: Vec<f32> = lcg_f32s(n, seed + 2).iter().map(|v| v.abs()).collect();
            let grad = lcg_f32s(n, seed + 3);
            let reference = |fused: bool| -> Vec<[u32; 3]> {
                let one = |i: usize| ref_adam_one(&p, master0[i], m0[i], v0[i], grad[i], fused);
                (0..n).map(|i| one(i).map(f32::to_bits)).collect()
            };
            let want = reference(false);
            fused_differs |= reference(true) != want;
            for backend in [Some(Backend::Scalar), None] {
                for publish in [false, true] {
                    let got = with_backend(backend, || {
                        let (mut master, mut m, mut v) = (master0.clone(), m0.clone(), v0.clone());
                        let (mut out, mut crcs) = (vec![F16::ZERO; n], [0; 4]);
                        let (to, crcs) = match publish {
                            true => (PublishTo::F16(&mut out), Some(&mut crcs)),
                            false => (PublishTo::None, None),
                        };
                        simd::adam_chunk(&p, &mut master, &mut m, &mut v, &grad, to, crcs);
                        (0..n).map(|i| [master[i], m[i], v[i]].map(f32::to_bits)).collect::<Vec<_>>()
                    });
                    assert_eq!(got, want, "n={n} {scale:?} {backend:?} publish={publish}");
                }
            }
        }
    }
    assert!(fused_differs, "no input tells the fused moment updates from the unfused ones");
}

/// The bytes of `x` as stored.
fn le_bytes(x: &[f32]) -> Vec<u8> {
    x.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// A buffer of `n` values with `PAD` sentinel NaNs on either side, so a
/// kernel that reads past its slice sees a NaN and one that writes past
/// it breaks the sentinel.
const PAD: usize = 9;
const NAN_SENTINEL: u32 = 0x7fa5_5a5a;

fn padded_f32s(vals: &[f32]) -> Vec<f32> {
    let pad = [f32::from_bits(NAN_SENTINEL); PAD];
    pad.iter().chain(vals).chain(&pad).copied().collect()
}

fn assert_pads_intact(buf: &[f32], what: &str) {
    let (head, tail) = (&buf[..PAD], &buf[buf.len() - PAD..]);
    assert!(
        head.iter().chain(tail).all(|x| x.to_bits() == NAN_SENTINEL),
        "{what}: the kernel wrote outside its slice"
    );
}

/// Master values that stress the publish conversion and the update:
/// NaNs with payloads, infinities, f32 and f16 subnormals, values that
/// round to f16 MAX or overflow it, signed zeros.
fn hostile_masters(n: usize, seed: u64) -> Vec<f32> {
    let specials = [
        f32::NAN,
        f32::from_bits(0xffc0_1234),
        f32::from_bits(0x7f80_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        -f32::from_bits(0x0040_0000),
        2.0f32.powi(-24),
        3.0 * 2.0f32.powi(-25),
        65519.0,
        65520.0,
        -0.0,
        0.0,
    ];
    lcg_f32s(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, x)| if i % 3 == 1 { specials[(i / 3) % specials.len()] } else { x })
        .collect()
}

/// One fused pass against the unfused composition it replaces: the
/// gradient averaged, the plain update ([`simd::adam_chunk`] with no
/// publish and no checksums, as `adam_update_chunk` runs it), then
/// `f32_to_f16_slice` (or a copy) of the new masters, then `crc32_update`
/// over each stream's bytes — byte for byte, checksums included, on
/// sentinel-padded buffers, in the backend in force.
fn fused_matches_composition(n: usize, scale: GradScale, half: bool, seed: u64) {
    let p = adam_params(scale);
    let master0 = hostile_masters(n, seed);
    let m0 = lcg_f32s(n, seed + 1);
    let v0: Vec<f32> = lcg_f32s(n, seed + 2).iter().map(|v| v.abs()).collect();
    let mut grad = lcg_f32s(n, seed + 3);
    if let Some(g) = grad.get_mut(2) {
        *g = f32::from_bits(0x0000_0007); // a subnormal gradient
    }
    let crcs0 = [0, 0xdead_beef, 7, 0x1234_5678];
    let id = format!("n={n} {scale:?} half={half} backend={:?}", simd::backend());

    // Fused, on padded buffers.
    let (mut master, mut m, mut v) = (padded_f32s(&master0), padded_f32s(&m0), padded_f32s(&v0));
    let g = padded_f32s(&grad);
    let mut out32 = padded_f32s(&vec![0.0; n]);
    let mut out16 = vec![F16::from_bits(0x5a5a); n + 2 * PAD];
    let mut crcs = crcs0;
    let inner = PAD..PAD + n;
    let publish = if half {
        PublishTo::F16(&mut out16[inner.clone()])
    } else {
        PublishTo::F32(&mut out32[inner.clone()])
    };
    simd::adam_chunk(
        &p,
        &mut master[inner.clone()],
        &mut m[inner.clone()],
        &mut v[inner.clone()],
        &g[inner.clone()],
        publish,
        Some(&mut crcs),
    );
    for (buf, what) in [(&master, "master"), (&m, "m"), (&v, "v"), (&out32, "publish")] {
        assert_pads_intact(buf, &format!("{id} {what}"));
    }
    let pads16 = out16[..PAD].iter().chain(&out16[PAD + n..]);
    assert!(pads16.into_iter().all(|h| h.to_bits() == 0x5a5a), "{id}: f16 publish overran");

    // Unfused.
    let plain = adam_params(GradScale::One);
    let averaged: Vec<f32> = grad.iter().map(|&x| scale.apply(x)).collect();
    let (mut um, mut umm, mut uv) = (master0.clone(), m0.clone(), v0.clone());
    simd::adam_chunk(&plain, &mut um, &mut umm, &mut uv, &averaged, PublishTo::None, None);
    let publish_bytes = if half {
        let mut h = vec![F16::ZERO; n];
        simd::f32_to_f16_slice(&um, &mut h);
        h.iter().flat_map(|h| h.to_bits().to_le_bytes()).collect()
    } else {
        le_bytes(&um)
    };
    let streams = [le_bytes(&um), le_bytes(&umm), le_bytes(&uv), publish_bytes.clone()];
    let want_crcs: Vec<u32> =
        streams.iter().zip(crcs0).map(|(bytes, crc)| simd::crc32_update(crc, bytes)).collect();

    assert_eq!(le_bytes(&master[inner.clone()]), streams[0], "{id}: master");
    assert_eq!(le_bytes(&m[inner.clone()]), streams[1], "{id}: m");
    assert_eq!(le_bytes(&v[inner.clone()]), streams[2], "{id}: v");
    let got_publish: Vec<u8> = if half {
        out16[inner.clone()].iter().flat_map(|h| h.to_bits().to_le_bytes()).collect()
    } else {
        le_bytes(&out32[inner])
    };
    assert_eq!(got_publish, publish_bytes, "{id}: publish");
    assert_eq!(crcs.to_vec(), want_crcs, "{id}: checksums");
}

#[test]
fn fused_adam_kernel_matches_the_unfused_composition_on_both_backends() {
    let scales = [GradScale::One, GradScale::average_over(4.0), GradScale::average_over(3.0)];
    for backend in [Some(Backend::Scalar), None] {
        with_backend(backend, || {
            for n in (0..=33).chain([65_536]) {
                for (k, &scale) in scales.iter().enumerate() {
                    for half in [true, false] {
                        fused_matches_composition(n, scale, half, 31 * n as u64 + k as u64);
                    }
                }
            }
        });
    }
}

#[test]
fn fused_adam_kernel_without_checksums_or_publish_is_the_plain_update() {
    // The resident-record form: same stored state, checksums untouched.
    for n in [0usize, 5, 8, 133] {
        assert_backend_bit_identity(&format!("plain n={n}"), || {
            let p = adam_params(GradScale::average_over(2.0));
            let (mut master, mut m) = (hostile_masters(n, 1), lcg_f32s(n, 2));
            let mut v: Vec<f32> = lcg_f32s(n, 3).iter().map(|v| v.abs()).collect();
            let grad = lcg_f32s(n, 4);
            simd::adam_chunk(&p, &mut master, &mut m, &mut v, &grad, PublishTo::None, None);
            [master, m, v].map(|vs| le_bytes(&vs))
        });
    }
}

#[test]
fn crc32_and_f16_conversions_are_bit_identical_across_backends() {
    // The dispatch test: forcing the scalar backend changes no byte of a
    // checksum or a conversion.
    let bytes: Vec<u8> = lcg_f32s(30_000, 77).iter().flat_map(|v| v.to_le_bytes()).collect();
    for len in [0usize, 1, 7, 8, 255, 768, 769, 3 * 8192 + 5, bytes.len()] {
        assert_backend_bit_identity(&format!("crc32 len={len}"), || simd::crc32(&bytes[3..3 + len - len.min(3)]));
    }
    let xs = hostile_masters(1031, 9);
    assert_backend_bit_identity("f32_to_f16", || {
        let mut h = vec![F16::ZERO; xs.len()];
        simd::f32_to_f16_slice(&xs, &mut h);
        h.iter().map(|h| h.to_bits()).collect::<Vec<_>>()
    });
    let hs: Vec<F16> = (0..=u16::MAX).step_by(7).map(F16::from_bits).collect();
    assert_backend_bit_identity("f16_to_f32", || {
        let mut out = vec![0f32; hs.len()];
        simd::f16_to_f32_slice(&hs, &mut out);
        out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    });
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
    with_backend(Some(Backend::Scalar), || simd::exp_slice(&mut probe));
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
        let p = with_backend(backend, || {
            let mut p = logits.clone();
            ops::softmax_rows(&mut p);
            p
        });
        for (j, v) in p.data().iter().enumerate() {
            assert!(!v.is_subnormal(), "{backend:?}: p[{j}] = {v:e} is subnormal");
            assert_eq!(masked.contains(&j), v.to_bits() == 0, "{backend:?}: p[{j}] = {v:e}");
        }
        let (_, grad) =
            with_backend(backend, || ops::cross_entropy(&logits, &[0]).unwrap());
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

// ---------------------------------------------------------------------------
// fp16 parameter operands: decoded as consumed, the bits of decode-then-f32.

/// The decode working buffer in f32 elements: where the fp16 operand
/// kernels cut their blocks.
const DECODE_ELEMS: usize = ops::DECODE_BYTES / 4;

/// `n` halves: the f16 rounding of a wide random stream, with every fifth
/// one a special — ±0, the smallest and largest subnormals of either
/// sign, ±Inf and NaNs (quiet, signalling, negative, with payloads).
fn hostile_halves(n: usize, seed: u64) -> Vec<F16> {
    const SPECIALS: [u16; 11] =
        [0x0000, 0x8000, 0x0001, 0x8001, 0x03ff, 0x83ff, 0x7c00, 0xfc00, 0x7e00, 0x7d01, 0xfe37];
    lcg_f32s(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, x)| if i % 5 == 2 { F16::from_bits(SPECIALS[(i / 5) % SPECIALS.len()]) } else { F16::from_f32(x) })
        .collect()
}

/// An fp16 tensor of `shape`, and its decode to f32 by the canonical
/// per-element conversion (no kernel under test involved).
fn fp16_and_decoded(shape: &[usize], seed: u64) -> (Tensor, Tensor) {
    let halves = hostile_halves(shape.iter().product(), seed);
    let decoded = halves.iter().map(|h| h.to_f32()).collect();
    (Tensor::from_f16(shape, halves).unwrap(), Tensor::from_vec(shape, decoded).unwrap())
}

/// `run(fp16 operands)` equals `run(their f32 decode)` byte for byte on
/// the scalar backend and the auto-detected one, which agree.
fn assert_fp16_operand_is_its_decode<T: PartialEq + std::fmt::Debug>(
    name: &str,
    run: impl Fn(bool) -> T,
) {
    for backend in [Some(Backend::Scalar), None] {
        let (half, full) = with_backend(backend, || (run(true), run(false)));
        assert_eq!(half, full, "{name} ({backend:?}): the fp16 operand is not its decode");
    }
    assert_backend_bit_identity(name, || run(true));
}

#[test]
fn fp16_operands_equal_their_f32_decode_in_every_consumer() {
    // The GEMMs at odd shapes and at the decode buffer's block edges: one
    // block, whole register tiles of rows or columns with an odd
    // remainder, and blocks narrower than a tile (k past DECODE_ELEMS/16).
    let wide = DECODE_ELEMS / 33;
    for (m, k, n) in [
        (3, 5, 7),
        (17, 33, 29),
        (5, 33, wide + 9),
        (5, 33, 2 * (wide - wide % 16) + 1),
        (7, DECODE_ELEMS / 10 + 3, 23),
        (1, DECODE_ELEMS, 3),
    ] {
        let a = Tensor::from_vec(&[m, k], lcg_f32s(m * k, 5)).unwrap();
        let (bt16, bt32) = fp16_and_decoded(&[n, k], 6);
        assert_fp16_operand_is_its_decode(&format!("matmul_nt {m}x{k}x{n}"), |half| {
            bits(&ops::matmul_nt(&a, if half { &bt16 } else { &bt32 }).unwrap())
        });
        let dy = Tensor::from_vec(&[m, n], lcg_f32s(m * n, 7)).unwrap();
        assert_fp16_operand_is_its_decode(&format!("matmul {m}x{n}x{k}"), |half| {
            bits(&ops::matmul(&dy, if half { &bt16 } else { &bt32 }).unwrap())
        });
    }
    // A row or column longer than the buffer is a typed error, never a
    // partial product.
    let (long, _) = fp16_and_decoded(&[2, DECODE_ELEMS + 1], 8);
    let a = Tensor::from_vec(&[1, DECODE_ELEMS + 1], lcg_f32s(DECODE_ELEMS + 1, 9)).unwrap();
    assert!(ops::matmul_nt(&a, &long).is_err());
    let (tall, _) = fp16_and_decoded(&[DECODE_ELEMS + 1, 2], 10);
    assert!(ops::matmul(&a, &tall).is_err());

    // Embedding: both tables fp16, odd widths, a token stream longer than
    // the position table.
    for h in [1usize, 13, 256] {
        let (vocab, seq) = (7, 5);
        let (wte16, wte32) = fp16_and_decoded(&[vocab, h], 11);
        let (wpe16, wpe32) = fp16_and_decoded(&[seq, h], 12);
        let tokens: Vec<usize> = (0..11).map(|i| (i * 3 + 1) % vocab).collect();
        assert_fp16_operand_is_its_decode(&format!("embedding h={h}"), |half| {
            let (wte, wpe) = if half { (&wte16, &wpe16) } else { (&wte32, &wpe32) };
            bits(&ops::embedding(wte, wpe, &tokens).unwrap())
        });
    }

    // Bias and layer norm: odd widths, the whole buffer, and past it.
    for n in [1usize, 13, 100, DECODE_ELEMS / 2] {
        let rows = 3;
        let x = Tensor::from_vec(&[rows, n], lcg_f32s(rows * n, 13)).unwrap();
        let dy = Tensor::from_vec(&[rows, n], lcg_f32s(rows * n, 14)).unwrap();
        let (g16, g32) = fp16_and_decoded(&[n], 15);
        let (b16, b32) = fp16_and_decoded(&[n], 16);
        assert_fp16_operand_is_its_decode(&format!("add_bias n={n}"), |half| {
            let mut y = x.clone();
            ops::add_bias(&mut y, if half { &b16 } else { &b32 }).unwrap();
            bits(&y)
        });
        assert_fp16_operand_is_its_decode(&format!("layernorm n={n}"), |half| {
            let (g, b) = if half { (&g16, &b16) } else { (&g32, &b32) };
            let (y, stats) = ops::layernorm(&x, g, b, 1e-5).unwrap();
            let (dx, dg, db) = ops::layernorm_backward(&x, &dy, g, &stats).unwrap();
            let stat_bits = stats.mean.iter().chain(&stats.rstd).map(|v| v.to_bits()).collect::<Vec<_>>();
            let grad_bits = dg.iter().chain(&db).map(|v| v.to_bits()).collect::<Vec<_>>();
            (bits(&y), stat_bits, bits(&dx), grad_bits)
        });
    }
    let x = Tensor::from_vec(&[1, DECODE_ELEMS + 1], lcg_f32s(DECODE_ELEMS + 1, 17)).unwrap();
    let (g, _) = fp16_and_decoded(&[DECODE_ELEMS + 1], 18);
    assert!(ops::layernorm(&x, &g, &g, 1e-5).is_err(), "γ and β past the buffer");
}
