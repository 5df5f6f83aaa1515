//! AVX2 (+ optional FMA) backend for x86_64.
//!
//! Every kernel here mirrors the canonical algorithm in
//! [`super::scalar`] lane for lane: the 8-lane accumulators are real
//! 256-bit registers, reductions store the register and reuse
//! [`scalar::sum8`]/[`scalar::dot_tail`] so remainders and reduction
//! trees are literally the same code, and fused multiply-add is only
//! emitted in the `fma = true` variants (the `ZI_SIMD_FMA=1` knob).
//! The f16 conversions use integer bit manipulation rather than
//! hardware `F16C` because the scalar [`crate::f16::F16`] conversion
//! canonicalizes NaN payloads on `from_f32`, and hardware `vcvtps2ph`
//! does not.
//!
//! # Safety
//!
//! All `pub` functions require AVX2 (and, when `fma = true`, FMA) to be
//! supported; `super::backend()` guarantees this before dispatching.

#![allow(unsafe_op_in_unsafe_fn)]
// Register tiles are const-sized arrays whose index is also the pointer
// offset of the row/vector it holds; an iterator would hide that pairing.
#![allow(clippy::needless_range_loop)]

use core::arch::x86_64::*;

use super::{scalar, AdamParams, LANES};
use crate::f16::F16;

// ---------------------------------------------------------------------------
// f16 conversion

/// Bulk f16 → f32, bit-identical to [`F16::to_f32`] for all 65,536
/// input patterns (exact conversion, NaN payloads shifted into place).
#[target_feature(enable = "avx2")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
pub unsafe fn f16_to_f32(src: &[F16], dst: &mut [f32]) {
    let n = src.len();
    let sp = src.as_ptr() as *const __m128i;
    let dp = dst.as_mut_ptr();
    let two_neg24 = _mm256_set1_ps(f32::from_bits(0x3380_0000)); // 2^-24
    let mut i = 0;
    while i + LANES <= n {
        let h = _mm256_cvtepu16_epi32(_mm_loadu_si128(sp.byte_add(i * 2)));
        let sign = _mm256_slli_epi32::<16>(_mm256_and_si256(h, _mm256_set1_epi32(0x8000)));
        let hab = _mm256_and_si256(h, _mm256_set1_epi32(0x7fff));
        let mant = _mm256_and_si256(h, _mm256_set1_epi32(0x3ff));
        // Normal: shift exponent+mantissa into f32 position, rebias 15→127.
        let normal = _mm256_add_epi32(_mm256_slli_epi32::<13>(hab), _mm256_set1_epi32(0x3800_0000));
        // Inf/NaN: f32 exponent all-ones, payload shifted (matches scalar).
        let ext = _mm256_or_si256(_mm256_set1_epi32(0x7f80_0000), _mm256_slli_epi32::<13>(mant));
        // Subnormal (and zero): exact value mant * 2^-24.
        let subf = _mm256_mul_ps(_mm256_cvtepi32_ps(mant), two_neg24);
        let m_ext = _mm256_cmpgt_epi32(hab, _mm256_set1_epi32(0x7bff));
        let m_sub = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x400), hab);
        let mut res = _mm256_blendv_epi8(normal, ext, m_ext);
        res = _mm256_blendv_epi8(res, _mm256_castps_si256(subf), m_sub);
        res = _mm256_or_si256(res, sign);
        _mm256_storeu_ps(dp.add(i), _mm256_castsi256_ps(res));
        i += LANES;
    }
    scalar::f16_to_f32(&src[i..], &mut dst[i..]);
}

/// Bulk f32 → f16, bit-identical to [`F16::from_f32`] for every input:
/// round-to-nearest-even with natural carry into the exponent
/// (MAX → inf), canonical quiet NaN, signed-zero underflow.
#[target_feature(enable = "avx2")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
pub unsafe fn f32_to_f16(src: &[f32], dst: &mut [F16]) {
    let n = src.len();
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr() as *mut __m128i;
    let one = _mm256_set1_epi32(1);
    let mut i = 0;
    while i + LANES <= n {
        let bits = _mm256_castps_si256(_mm256_loadu_ps(sp.add(i)));
        let sign = _mm256_and_si256(_mm256_srli_epi32::<16>(bits), _mm256_set1_epi32(0x8000));
        let hab = _mm256_and_si256(bits, _mm256_set1_epi32(0x7fff_ffff));

        // Normal candidate: out = (hab >> 13) - (112 << 10), then RN-even on
        // the 13 dropped bits; the +1 carry ripples into the exponent, so
        // rounding up from MAX yields infinity exactly like the scalar path.
        let out_n = _mm256_sub_epi32(_mm256_srli_epi32::<13>(hab), _mm256_set1_epi32(112 << 10));
        let rem_n = _mm256_and_si256(hab, _mm256_set1_epi32(0x1fff));
        let odd_n = _mm256_cmpeq_epi32(_mm256_and_si256(out_n, one), one);
        let inc_n = _mm256_or_si256(
            _mm256_cmpgt_epi32(rem_n, _mm256_set1_epi32(0x1000)),
            _mm256_and_si256(_mm256_cmpeq_epi32(rem_n, _mm256_set1_epi32(0x1000)), odd_n),
        );
        let out_n = _mm256_sub_epi32(out_n, inc_n); // mask is -1 ⇒ subtract to add 1

        // Subnormal candidate: value = (mant | implicit) >> (126 - exp) with
        // RN-even on the dropped bits. Shift counts are capped at 31 so very
        // small inputs (including f32 subnormals) cleanly flush to zero.
        let full = _mm256_or_si256(
            _mm256_and_si256(bits, _mm256_set1_epi32(0x007f_ffff)),
            _mm256_set1_epi32(0x0080_0000),
        );
        let ts = _mm256_sub_epi32(_mm256_set1_epi32(126), _mm256_srli_epi32::<23>(hab));
        let ts = _mm256_min_epu32(ts, _mm256_set1_epi32(31));
        let out_s = _mm256_srlv_epi32(full, ts);
        let pow = _mm256_sllv_epi32(one, ts);
        let rem_s = _mm256_and_si256(full, _mm256_sub_epi32(pow, one));
        let half_s = _mm256_srli_epi32::<1>(pow);
        let odd_s = _mm256_cmpeq_epi32(_mm256_and_si256(out_s, one), one);
        let inc_s = _mm256_or_si256(
            _mm256_cmpgt_epi32(rem_s, half_s),
            _mm256_and_si256(_mm256_cmpeq_epi32(rem_s, half_s), odd_s),
        );
        let out_s = _mm256_sub_epi32(out_s, inc_s);

        let m_sub = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3880_0000), hab);
        let m_over = _mm256_cmpgt_epi32(hab, _mm256_set1_epi32(0x477f_ffff));
        let m_nan = _mm256_cmpgt_epi32(hab, _mm256_set1_epi32(0x7f80_0000));
        let mut out = _mm256_blendv_epi8(out_n, out_s, m_sub);
        out = _mm256_blendv_epi8(out, _mm256_set1_epi32(0x7c00), m_over);
        out = _mm256_blendv_epi8(out, _mm256_set1_epi32(0x7e00), m_nan);
        out = _mm256_or_si256(out, sign);

        // Pack 8×u32 (≤ 0xffff) → 8×u16 and fix the cross-lane order.
        let packed = _mm256_packus_epi32(out, out);
        let packed = _mm256_permute4x64_epi64::<0b00_00_10_00>(packed);
        _mm_storeu_si128(dp.byte_add(i * 2), _mm256_castsi256_si128(packed));
        i += LANES;
    }
    scalar::f32_to_f16(&src[i..], &mut dst[i..]);
}

// ---------------------------------------------------------------------------
// GEMM tile kernels

/// k-panel of the `C = A·B` driver: a `GEMM_KC`×16 strip of `B` (16 KB)
/// stays in L1 while every row tile of `C` passes over it.
const GEMM_KC: usize = 256;

/// A strip of `B` is packed once more than two row tiles will read it;
/// below that the copy costs more than it saves.
const PACK_MIN_ROWS: usize = 2 * scalar::GEMM_MR;

/// `A` rows per block of the `C = A·Bᵀ` driver are chosen so the block
/// (`rows × k` floats) stays in L1 while the rows of `B` stream past it.
const NT_BLOCK_BYTES: usize = 24 * 1024;
/// Rows of `A` / rows of `B` whose lane accumulators one `A·Bᵀ` tile
/// keeps live (4×2 accumulators + 4 `A` vectors + 1 `B` vector).
const NT_MR: usize = 4;
const NT_NC: usize = 2;

/// Vector mirror of [`scalar::madd`].
#[inline(always)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(avx2[,fma])` caller, which every
// call site in this module is.
unsafe fn madd<const FMA: bool>(acc: __m256, a: __m256, b: __m256) -> __m256 {
    if FMA {
        _mm256_fmadd_ps(a, b, acc)
    } else {
        _mm256_add_ps(acc, _mm256_mul_ps(a, b))
    }
}

/// One `MR`×(`NV`·8) register tile of `C = A·B` over `k` steps: the
/// block of `C` lives in `MR·NV` registers for the whole loop (loaded
/// first when `resume`, i.e. on every k-panel after the first), each
/// step broadcasts `MR` elements of `A` against `NV` vectors of `B`.
/// Per element this is [`scalar::madd`] in `k` order — the canonical
/// chain. Edge tiles are this same body at a smaller `MR`/`NV`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(avx2[,fma])` caller, which every
// call site in this module is. The caller guarantees `a`, `b`, `c`
// address an `MR`×`k`, `k`×(`NV`·8), `MR`×(`NV`·8) block at the given
// strides.
unsafe fn tile<const FMA: bool, const MR: usize, const NV: usize>(
    k: usize,
    a: *const f32,
    a_rs: usize,
    a_ks: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
    resume: bool,
) {
    let mut acc = [[_mm256_setzero_ps(); NV]; MR];
    if resume {
        for i in 0..MR {
            for v in 0..NV {
                acc[i][v] = _mm256_loadu_ps(c.add(i * ldc + v * LANES));
            }
        }
    }
    for p in 0..k {
        let bp = b.add(p * ldb);
        let mut bv = [_mm256_setzero_ps(); NV];
        for v in 0..NV {
            bv[v] = _mm256_loadu_ps(bp.add(v * LANES));
        }
        let ap = a.add(p * a_ks);
        for i in 0..MR {
            let av = _mm256_set1_ps(*ap.add(i * a_rs));
            for v in 0..NV {
                acc[i][v] = madd::<FMA>(acc[i][v], av, bv[v]);
            }
        }
    }
    for i in 0..MR {
        for v in 0..NV {
            _mm256_storeu_ps(c.add(i * ldc + v * LANES), acc[i][v]);
        }
    }
}

/// One k-panel of one `NV`·8-column strip of `B`, copied out so every
/// row tile reads it contiguous and cache-line aligned: walked in place,
/// `k` rows of a wide `B` alias into a few L1 sets and half the
/// unaligned vector loads split a line.
#[repr(align(64))]
struct PackedStrip([f32; GEMM_KC * scalar::GEMM_NR]);

/// All row tiles of one `NV`·8-column strip of `C` over one k-panel.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
// SAFETY: as [`tile`], for an `m`-row strip; `packed` is writable
// scratch of one [`PackedStrip`], `k` ≤ [`GEMM_KC`].
unsafe fn strip<const FMA: bool, const NV: usize>(
    m: usize,
    k: usize,
    a: *const f32,
    a_rs: usize,
    a_ks: usize,
    mut b: *const f32,
    mut ldb: usize,
    c: *mut f32,
    ldc: usize,
    resume: bool,
    packed: *mut f32,
) {
    if m > PACK_MIN_ROWS {
        for p in 0..k {
            for v in 0..NV {
                let row = _mm256_loadu_ps(b.add(p * ldb + v * LANES));
                _mm256_store_ps(packed.add((p * NV + v) * LANES), row);
            }
        }
        (b, ldb) = (packed, NV * LANES);
    }
    let mut i = 0;
    while i + scalar::GEMM_MR <= m {
        tile::<FMA, 4, NV>(k, a.add(i * a_rs), a_rs, a_ks, b, ldb, c.add(i * ldc), ldc, resume);
        i += scalar::GEMM_MR;
    }
    let (a, c) = (a.add(i * a_rs), c.add(i * ldc));
    match m - i {
        3 => tile::<FMA, 3, NV>(k, a, a_rs, a_ks, b, ldb, c, ldc, resume),
        2 => tile::<FMA, 2, NV>(k, a, a_rs, a_ks, b, ldb, c, ldc, resume),
        1 => tile::<FMA, 1, NV>(k, a, a_rs, a_ks, b, ldb, c, ldc, resume),
        _ => {}
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(avx2[,fma])` caller. Operand
// bounds are [`gemm`]'s.
unsafe fn gemm_body<const FMA: bool>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let wide = n - n % LANES;
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let mut packed = std::mem::MaybeUninit::<PackedStrip>::uninit();
    let pk = std::ptr::addr_of_mut!((*packed.as_mut_ptr()).0) as *mut f32;
    let mut p0 = 0;
    while p0 < k {
        let kc = GEMM_KC.min(k - p0);
        let (ap, bp) = (ap.add(p0 * a_ks), bp.add(p0 * ldb));
        let mut j = 0;
        while j + scalar::GEMM_NR <= wide {
            strip::<FMA, 2>(m, kc, ap, a_rs, a_ks, bp.add(j), ldb, cp.add(j), ldc, p0 > 0, pk);
            j += scalar::GEMM_NR;
        }
        if j < wide {
            strip::<FMA, 1>(m, kc, ap, a_rs, a_ks, bp.add(j), ldb, cp.add(j), ldc, p0 > 0, pk);
        }
        p0 += kc;
    }
    // Columns past the last full vector: the scalar tile kernel.
    if wide < n {
        scalar::gemm(m, n - wide, k, a, a_rs, a_ks, &b[wide..], ldb, &mut c[wide..], ldc, FMA);
    }
}

#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
unsafe fn gemm_plain(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    gemm_body::<false>(m, n, k, a, a_rs, a_ks, b, ldb, c, ldc)
}

#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
unsafe fn gemm_fma(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    gemm_body::<true>(m, n, k, a, a_rs, a_ks, b, ldb, c, ldc)
}

/// `C = A·B` on the register tile kernel; numerics match
/// [`scalar::gemm`], whose operand layout and bounds this shares
/// (`m`, `n`, `k` ≥ 1, checked by `super::gemm`).
#[allow(clippy::too_many_arguments)]
// SAFETY: forwards to `target_feature` kernels — the caller must ensure
// AVX2 (and FMA when `fma` is true) support, as `super::backend()` does,
// and that the slices cover the strided operands, as `super::gemm` does.
pub unsafe fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    fma: bool,
) {
    if fma {
        gemm_fma(m, n, k, a, a_rs, a_ks, b, ldb, c, ldc)
    } else {
        gemm_plain(m, n, k, a, a_rs, a_ks, b, ldb, c, ldc)
    }
}

/// One `MR`×`NC` tile of `C = A·Bᵀ`: the canonical 8-lane dot shape with
/// `MR·NC` outputs' lane accumulators live at once, so each vector of
/// `A` is loaded once per `NC` outputs and each vector of `B` once per
/// `MR`. Every output then finishes exactly like [`scalar::dot`]: shared
/// tail into the low lanes, [`scalar::sum8`] tree.
#[inline(always)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(avx2[,fma])` caller. The caller
// guarantees `a`/`b` address `MR`/`NC` rows of `k` floats and `c` an
// `MR`×`NC` block at the given strides.
unsafe fn dot_tile<const FMA: bool, const MR: usize, const NC: usize>(
    k: usize,
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
) {
    let mut acc = [[_mm256_setzero_ps(); NC]; MR];
    let body = k - k % LANES;
    let mut p = 0;
    while p < body {
        let mut xv = [_mm256_setzero_ps(); MR];
        for i in 0..MR {
            xv[i] = _mm256_loadu_ps(a.add(i * lda + p));
        }
        for j in 0..NC {
            let wv = _mm256_loadu_ps(b.add(j * ldb + p));
            for i in 0..MR {
                acc[i][j] = madd::<FMA>(acc[i][j], xv[i], wv);
            }
        }
        p += LANES;
    }
    for i in 0..MR {
        let x_tail = std::slice::from_raw_parts(a.add(i * lda + body), k - body);
        for j in 0..NC {
            let w_tail = std::slice::from_raw_parts(b.add(j * ldb + body), k - body);
            let mut lanes = [0f32; LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc[i][j]);
            scalar::dot_tail(&mut lanes, x_tail, w_tail, FMA);
            *c.add(i * ldc + j) = scalar::sum8(lanes);
        }
    }
}

/// The `A` row tiles of one block against `NC` rows of `B`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
// SAFETY: as [`dot_tile`], for an `m`-row block.
unsafe fn dot_rows<const FMA: bool, const NC: usize>(
    m: usize,
    k: usize,
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
) {
    let mut i = 0;
    while i + NT_MR <= m {
        dot_tile::<FMA, 4, NC>(k, a.add(i * lda), lda, b, ldb, c.add(i * ldc), ldc);
        i += NT_MR;
    }
    let (a, c) = (a.add(i * lda), c.add(i * ldc));
    match m - i {
        3 => dot_tile::<FMA, 3, NC>(k, a, lda, b, ldb, c, ldc),
        2 => dot_tile::<FMA, 2, NC>(k, a, lda, b, ldb, c, ldc),
        1 => dot_tile::<FMA, 1, NC>(k, a, lda, b, ldb, c, ldc),
        _ => {}
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(avx2[,fma])` caller. Operand
// bounds are [`gemm_nt`]'s.
unsafe fn gemm_nt_body<const FMA: bool>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let block = (NT_BLOCK_BYTES / (4 * k) / NT_MR).max(1) * NT_MR;
    let mut i0 = 0;
    while i0 < m {
        let rows = block.min(m - i0);
        let (ap, cp) = (ap.add(i0 * lda), cp.add(i0 * ldc));
        let mut j = 0;
        while j + NT_NC <= n {
            dot_rows::<FMA, 2>(rows, k, ap, lda, bp.add(j * ldb), ldb, cp.add(j), ldc);
            j += NT_NC;
        }
        if j < n {
            dot_rows::<FMA, 1>(rows, k, ap, lda, bp.add(j * ldb), ldb, cp.add(j), ldc);
        }
        i0 += rows;
    }
}

#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
unsafe fn gemm_nt_plain(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    gemm_nt_body::<false>(m, n, k, a, lda, b, ldb, c, ldc)
}

#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
unsafe fn gemm_nt_fma(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    gemm_nt_body::<true>(m, n, k, a, lda, b, ldb, c, ldc)
}

/// `C = A·Bᵀ` on the dot tile kernel; numerics match
/// [`scalar::gemm_nt`], whose operand layout and bounds this shares
/// (`m`, `n`, `k` ≥ 1, checked by `super::gemm_nt`).
#[allow(clippy::too_many_arguments)]
// SAFETY: forwards to `target_feature` kernels — the caller must ensure
// AVX2 (and FMA when `fma` is true) support, as `super::backend()` does,
// and that the slices cover the strided operands, as `super::gemm_nt` does.
pub unsafe fn gemm_nt(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    fma: bool,
) {
    if fma {
        gemm_nt_fma(m, n, k, a, lda, b, ldb, c, ldc)
    } else {
        gemm_nt_plain(m, n, k, a, lda, b, ldb, c, ldc)
    }
}

/// Canonical 8-lane sum.
#[target_feature(enable = "avx2")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
pub unsafe fn vec_sum(x: &[f32]) -> f32 {
    let n = x.len();
    let xp = x.as_ptr();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + LANES <= n {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(xp.add(i)));
        i += LANES;
    }
    let mut lanes = [0f32; LANES];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    for (j, &v) in x[i..].iter().enumerate() {
        lanes[j] += v;
    }
    scalar::sum8(lanes)
}

#[target_feature(enable = "avx2")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
unsafe fn vec_center_sumsq(x: &[f32], mean: f32) -> f32 {
    let n = x.len();
    let xp = x.as_ptr();
    let mv = _mm256_set1_ps(mean);
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + LANES <= n {
        let d = _mm256_sub_ps(_mm256_loadu_ps(xp.add(i)), mv);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        i += LANES;
    }
    let mut lanes = [0f32; LANES];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    for (j, &v) in x[i..].iter().enumerate() {
        let d = v - mean;
        lanes[j] += d * d;
    }
    scalar::sum8(lanes)
}

// ---------------------------------------------------------------------------
// gelu

/// Vector mirror of [`scalar::exp_approx`] (plain mul/add, never FMA).
#[inline(always)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(avx2[,fma])` caller, which every
// call site in this module is.
unsafe fn exp_approx_v(z: __m256) -> __m256 {
    let y = _mm256_mul_ps(z, _mm256_set1_ps(std::f32::consts::LOG2_E));
    let kf = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(y);
    let r = _mm256_sub_ps(y, kf);
    let w = _mm256_mul_ps(r, _mm256_set1_ps(std::f32::consts::LN_2));
    let mut p = _mm256_set1_ps(1.0 / 720.0);
    for c in [1.0 / 120.0, 1.0 / 24.0, 1.0 / 6.0, 0.5, 1.0, 1.0] {
        p = _mm256_add_ps(_mm256_mul_ps(p, w), _mm256_set1_ps(c));
    }
    let k = _mm256_cvtps_epi32(kf);
    let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        k,
        _mm256_set1_epi32(127),
    )));
    _mm256_mul_ps(p, scale)
}

/// Elementwise in-place `x[i] = e^{x[i]}`, mirror of [`scalar::exp`]
/// (same upper clamp, same polynomial, plain mul/add, and the same exact
/// `+0.0` below the lower clamp via compare + and-not).
#[target_feature(enable = "avx2")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
pub unsafe fn exp(x: &mut [f32]) {
    let n = x.len();
    let p = x.as_mut_ptr();
    let clamp = _mm256_set1_ps(scalar::EXP_CLAMP);
    let nclamp = _mm256_set1_ps(-scalar::EXP_CLAMP);
    let mut i = 0;
    while i + LANES <= n {
        let z = _mm256_loadu_ps(p.add(i));
        let below = _mm256_cmp_ps::<_CMP_LT_OQ>(z, nclamp);
        // The lower clamp only keeps `exp_approx_v` in range for lanes
        // the and-not then zeroes.
        let e = exp_approx_v(_mm256_max_ps(_mm256_min_ps(z, clamp), nclamp));
        _mm256_storeu_ps(p.add(i), _mm256_andnot_ps(below, e));
        i += LANES;
    }
    scalar::exp(&mut x[i..]);
}

/// Vector mirror of [`scalar::tanh_half_approx`].
#[inline(always)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(avx2[,fma])` caller, which every
// call site in this module is.
unsafe fn tanh_half_v(z: __m256) -> __m256 {
    let clamp = _mm256_set1_ps(18.0);
    let z = _mm256_max_ps(_mm256_min_ps(z, clamp), _mm256_sub_ps(_mm256_setzero_ps(), clamp));
    let e = exp_approx_v(z);
    let one = _mm256_set1_ps(1.0);
    _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one))
}

#[inline(always)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(avx2[,fma])` caller, which every
// call site in this module is.
unsafe fn gelu_t_v(x: __m256) -> (__m256, __m256) {
    let x2 = _mm256_mul_ps(x, x);
    let x3 = _mm256_mul_ps(x2, x);
    let inner = _mm256_mul_ps(
        _mm256_set1_ps(scalar::GELU_C),
        _mm256_add_ps(x, _mm256_mul_ps(_mm256_set1_ps(scalar::GELU_A), x3)),
    );
    let t = tanh_half_v(_mm256_add_ps(inner, inner));
    (t, x2)
}

/// Elementwise GELU (tanh approximation).
#[target_feature(enable = "avx2")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
pub unsafe fn gelu(x: &[f32], out: &mut [f32]) {
    let n = x.len();
    let xp = x.as_ptr();
    let op = out.as_mut_ptr();
    let one = _mm256_set1_ps(1.0);
    let halfv = _mm256_set1_ps(0.5);
    let mut i = 0;
    while i + LANES <= n {
        let xv = _mm256_loadu_ps(xp.add(i));
        let (t, _) = gelu_t_v(xv);
        let r = _mm256_mul_ps(_mm256_mul_ps(halfv, xv), _mm256_add_ps(one, t));
        _mm256_storeu_ps(op.add(i), r);
        i += LANES;
    }
    scalar::gelu(&x[i..], &mut out[i..]);
}

/// Elementwise `out[i] = dy[i] * gelu'(x[i])`.
#[target_feature(enable = "avx2")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
pub unsafe fn gelu_grad(x: &[f32], dy: &[f32], out: &mut [f32]) {
    let n = x.len();
    let xp = x.as_ptr();
    let gp = dy.as_ptr();
    let op = out.as_mut_ptr();
    let one = _mm256_set1_ps(1.0);
    let halfv = _mm256_set1_ps(0.5);
    let c = _mm256_set1_ps(scalar::GELU_C);
    let a3 = _mm256_set1_ps(3.0 * scalar::GELU_A);
    let mut i = 0;
    while i + LANES <= n {
        let xv = _mm256_loadu_ps(xp.add(i));
        let (t, x2) = gelu_t_v(xv);
        let dinner = _mm256_mul_ps(c, _mm256_add_ps(one, _mm256_mul_ps(a3, x2)));
        let sech2 = _mm256_sub_ps(one, _mm256_mul_ps(t, t));
        let grad = _mm256_add_ps(
            _mm256_mul_ps(halfv, _mm256_add_ps(one, t)),
            _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(halfv, xv), sech2), dinner),
        );
        _mm256_storeu_ps(op.add(i), _mm256_mul_ps(_mm256_loadu_ps(gp.add(i)), grad));
        i += LANES;
    }
    scalar::gelu_grad(&x[i..], &dy[i..], &mut out[i..]);
}

// ---------------------------------------------------------------------------
// layernorm

/// One row of layer normalization; returns `(mean, rstd)`.
#[target_feature(enable = "avx2")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
pub unsafe fn layernorm_row(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
) -> (f32, f32) {
    let n = x.len();
    let inv_n = 1.0 / n as f32;
    let mean = vec_sum(x) * inv_n;
    let var = vec_center_sumsq(x, mean) * inv_n;
    let rstd = 1.0 / (var + eps).sqrt();
    let mv = _mm256_set1_ps(mean);
    let rv = _mm256_set1_ps(rstd);
    let xp = x.as_ptr();
    let gp = gamma.as_ptr();
    let bp = beta.as_ptr();
    let op = out.as_mut_ptr();
    let mut j = 0;
    while j + LANES <= n {
        let xh = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xp.add(j)), mv), rv);
        let r = _mm256_add_ps(
            _mm256_mul_ps(xh, _mm256_loadu_ps(gp.add(j))),
            _mm256_loadu_ps(bp.add(j)),
        );
        _mm256_storeu_ps(op.add(j), r);
        j += LANES;
    }
    for jj in j..n {
        out[jj] = ((x[jj] - mean) * rstd) * gamma[jj] + beta[jj];
    }
    (mean, rstd)
}

/// One row of the layer-norm backward pass; numerics match
/// [`scalar::layernorm_backward_row`].
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
// SAFETY: forwards to `target_feature` kernels — the caller must ensure
// AVX2 (and FMA when `fma` is true) support, as `super::backend()` does.
pub unsafe fn layernorm_backward_row(
    x: &[f32],
    dy: &[f32],
    gamma: &[f32],
    mean: f32,
    rstd: f32,
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let n = x.len();
    let mv = _mm256_set1_ps(mean);
    let rv = _mm256_set1_ps(rstd);
    let xp = x.as_ptr();
    let yp = dy.as_ptr();
    let gp = gamma.as_ptr();
    let dgp = dgamma.as_mut_ptr();
    let dbp = dbeta.as_mut_ptr();
    let mut va = _mm256_setzero_ps();
    let mut vb = _mm256_setzero_ps();
    let mut i = 0;
    while i + LANES <= n {
        let xh = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xp.add(i)), mv), rv);
        let dyv = _mm256_loadu_ps(yp.add(i));
        let dyg = _mm256_mul_ps(dyv, _mm256_loadu_ps(gp.add(i)));
        va = _mm256_add_ps(va, dyg);
        vb = _mm256_add_ps(vb, _mm256_mul_ps(dyg, xh));
        let dg = _mm256_add_ps(_mm256_loadu_ps(dgp.add(i)), _mm256_mul_ps(dyv, xh));
        _mm256_storeu_ps(dgp.add(i), dg);
        let db = _mm256_add_ps(_mm256_loadu_ps(dbp.add(i)), dyv);
        _mm256_storeu_ps(dbp.add(i), db);
        i += LANES;
    }
    let mut la = [0f32; LANES];
    let mut lb = [0f32; LANES];
    _mm256_storeu_ps(la.as_mut_ptr(), va);
    _mm256_storeu_ps(lb.as_mut_ptr(), vb);
    for j in i..n {
        let xhat = (x[j] - mean) * rstd;
        let dyg = dy[j] * gamma[j];
        la[j - i] += dyg;
        lb[j - i] += dyg * xhat;
        dgamma[j] += dy[j] * xhat;
        dbeta[j] += dy[j];
    }
    let inv_n = 1.0 / n as f32;
    let s1 = inv_n * scalar::sum8(la);
    let s2 = inv_n * scalar::sum8(lb);
    let s1v = _mm256_set1_ps(s1);
    let s2v = _mm256_set1_ps(s2);
    let dxp = dx.as_mut_ptr();
    let mut j = 0;
    while j + LANES <= n {
        let xh = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xp.add(j)), mv), rv);
        let dyg = _mm256_mul_ps(_mm256_loadu_ps(yp.add(j)), _mm256_loadu_ps(gp.add(j)));
        let r = _mm256_mul_ps(
            rv,
            _mm256_sub_ps(_mm256_sub_ps(dyg, s1v), _mm256_mul_ps(xh, s2v)),
        );
        _mm256_storeu_ps(dxp.add(j), r);
        j += LANES;
    }
    for jj in j..n {
        let xhat = (x[jj] - mean) * rstd;
        let dyg = dy[jj] * gamma[jj];
        dx[jj] = rstd * ((dyg - s1) - xhat * s2);
    }
}

// ---------------------------------------------------------------------------
// adam

#[inline(always)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(avx2[,fma])` caller, which every
// call site in this module is.
unsafe fn adam_body<const FMA: bool>(
    p: &AdamParams,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    publish: Option<&mut [f32]>,
) {
    let n = master.len();
    let b1 = _mm256_set1_ps(p.beta1);
    let b2 = _mm256_set1_ps(p.beta2);
    let omb1 = _mm256_set1_ps(p.one_minus_beta1);
    let omb2 = _mm256_set1_ps(p.one_minus_beta2);
    let bc1 = _mm256_set1_ps(p.bc1);
    let bc2 = _mm256_set1_ps(p.bc2);
    let lr = _mm256_set1_ps(p.lr);
    let eps = _mm256_set1_ps(p.eps);
    let wd = _mm256_set1_ps(p.weight_decay);
    let mp = master.as_mut_ptr();
    let mmp = m.as_mut_ptr();
    let vp = v.as_mut_ptr();
    let gp = grad.as_ptr();
    let pubp = publish.as_ref().map(|s| s.as_ptr() as *mut f32);
    let mut i = 0;
    while i + LANES <= n {
        let g = _mm256_loadu_ps(gp.add(i));
        let mo = _mm256_loadu_ps(mmp.add(i));
        let vo = _mm256_loadu_ps(vp.add(i));
        let po = _mm256_loadu_ps(mp.add(i));
        let (mn, vn) = if FMA {
            let mn = _mm256_fmadd_ps(mo, b1, _mm256_mul_ps(omb1, g));
            let vn = _mm256_fmadd_ps(_mm256_mul_ps(omb2, g), g, _mm256_mul_ps(b2, vo));
            (mn, vn)
        } else {
            let mn = _mm256_add_ps(_mm256_mul_ps(b1, mo), _mm256_mul_ps(omb1, g));
            let vn = _mm256_add_ps(
                _mm256_mul_ps(b2, vo),
                _mm256_mul_ps(_mm256_mul_ps(omb2, g), g),
            );
            (mn, vn)
        };
        _mm256_storeu_ps(mmp.add(i), mn);
        _mm256_storeu_ps(vp.add(i), vn);
        let m_hat = _mm256_div_ps(mn, bc1);
        let v_hat = _mm256_div_ps(vn, bc2);
        let den = _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps);
        let update = _mm256_add_ps(_mm256_div_ps(m_hat, den), _mm256_mul_ps(wd, po));
        let pn = _mm256_sub_ps(po, _mm256_mul_ps(lr, update));
        _mm256_storeu_ps(mp.add(i), pn);
        if let Some(out) = pubp {
            _mm256_storeu_ps(out.add(i), pn);
        }
        i += LANES;
    }
    for j in i..n {
        scalar::adam_one(p, &mut master[j], &mut m[j], &mut v[j], grad[j], FMA);
        if let Some(out) = pubp {
            *out.add(j) = master[j];
        }
    }
}

#[target_feature(enable = "avx2")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
unsafe fn adam_plain(
    p: &AdamParams,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    publish: Option<&mut [f32]>,
) {
    adam_body::<false>(p, master, m, v, grad, publish)
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/FMA before dispatch.
unsafe fn adam_fma(
    p: &AdamParams,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    publish: Option<&mut [f32]>,
) {
    adam_body::<true>(p, master, m, v, grad, publish)
}

/// Elementwise Adam chunk update with optional fused publish.
// SAFETY: forwards to `target_feature` kernels — the caller must ensure
// AVX2 (and FMA when `fma` is true) support, as `super::backend()` does.
pub unsafe fn adam_chunk(
    p: &AdamParams,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    publish: Option<&mut [f32]>,
    fma: bool,
) {
    if fma {
        adam_fma(p, master, m, v, grad, publish)
    } else {
        adam_plain(p, master, m, v, grad, publish)
    }
}
