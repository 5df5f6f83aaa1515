//! AVX2 (+ F16C, SSE 4.2) backend for x86_64.
//!
//! Every kernel here mirrors the canonical algorithm in
//! [`super::scalar`] lane for lane: the 8-lane accumulators are real
//! 256-bit registers, reductions store the register and reuse
//! [`scalar::sum8`]/[`scalar::dot_tail`] so remainders and reduction
//! trees are literally the same code, and every multiply-add is a
//! `vmulps` then a `vaddps` — no kernel enables or emits fused
//! multiply-add.
//! The f16 conversions are the F16C instructions plus a NaN fix-up:
//! the scalar [`crate::f16::F16`] conversion canonicalizes NaN payloads
//! on `from_f32` and keeps a signaling NaN's payload on `to_f32`, where
//! the hardware keeps the one and quiets the other, so the NaN lanes are
//! patched to the scalar bits (every other lane already agrees: the
//! conformance suite checks all 2¹⁶ and all 2³² inputs). CRC32-C is the
//! SSE 4.2 `crc32` instruction, and the fused Adam kernel runs it on the
//! bytes it stores while the divider works.
//!
//! # Safety
//!
//! All `pub` functions require AVX2, F16C and SSE 4.2 to be supported;
//! `super::backend()` guarantees this before dispatching.

#![allow(unsafe_op_in_unsafe_fn)]
// Register tiles are const-sized arrays whose index is also the pointer
// offset of the row/vector it holds; an iterator would hide that pairing.
#![allow(clippy::needless_range_loop)]

use core::arch::x86_64::*;

use zi_sync::OnceLock;

use super::{scalar, AdamParams, GradScale, PublishTo, LANES};
use crate::f16::F16;

// ---------------------------------------------------------------------------
// f16 conversion

/// Bulk f16 → f32 with F16C `vcvtph2ps`, bit-identical to
/// [`F16::to_f32`] for all 65,536 input patterns: the conversion is
/// exact, and the one difference — the hardware quiets a signaling NaN,
/// the scalar path shifts its payload into place unchanged — is undone
/// by clearing the quiet bit on the NaN lanes whose input lacked it.
#[target_feature(enable = "avx2,f16c")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/F16C before dispatch.
pub unsafe fn f16_to_f32(src: &[F16], dst: &mut [f32]) {
    let n = src.len();
    let sp = src.as_ptr() as *const __m128i;
    let dp = dst.as_mut_ptr();
    let quiet = _mm256_set1_epi32(0x0040_0000);
    let mut i = 0;
    while i + LANES <= n {
        let h = _mm_loadu_si128(sp.byte_add(i * 2));
        let f = _mm256_castps_si256(_mm256_cvtph_ps(h));
        let h = _mm256_cvtepu16_epi32(h);
        let nan = _mm256_cmpgt_epi32(_mm256_and_si256(h, _mm256_set1_epi32(0x7fff)), _mm256_set1_epi32(0x7c00));
        // Quiet bit the hardware set but the input's payload did not have.
        let added = _mm256_and_si256(_mm256_andnot_si256(_mm256_slli_epi32::<13>(h), quiet), nan);
        _mm256_storeu_ps(dp.add(i), _mm256_castsi256_ps(_mm256_xor_si256(f, added)));
        i += LANES;
    }
    scalar::f16_to_f32(&src[i..], &mut dst[i..]);
}

/// Eight f32 lanes to f16 with F16C `vcvtps2ph` (round-to-nearest-even,
/// natural carry into the exponent, signed-zero underflow), NaN payloads
/// then dropped to the canonical quiet NaN `sign | 0x7e00` that
/// [`F16::from_f32`] produces.
#[inline(always)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(avx2,f16c)` caller.
unsafe fn to_f16(x: __m256) -> __m128i {
    let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x);
    let abs = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fff_ffff));
    let nan = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(0x7f80_0000));
    let nan = _mm_packs_epi32(_mm256_castsi256_si128(nan), _mm256_extracti128_si256::<1>(nan));
    _mm_andnot_si128(_mm_and_si128(nan, _mm_set1_epi16(0x01ff)), h)
}

/// Bulk f32 → f16, bit-identical to [`F16::from_f32`] for every input
/// (see [`to_f16`]).
#[target_feature(enable = "avx2,f16c")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/F16C before dispatch.
pub unsafe fn f32_to_f16(src: &[f32], dst: &mut [F16]) {
    let n = src.len();
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr() as *mut __m128i;
    let mut i = 0;
    while i + LANES <= n {
        _mm_storeu_si128(dp.byte_add(i * 2), to_f16(_mm256_loadu_ps(sp.add(i))));
        i += LANES;
    }
    scalar::f32_to_f16(&src[i..], &mut dst[i..]);
}

// ---------------------------------------------------------------------------
// CRC32-C

/// Lane lengths of the interleaved [`crc32c`], longest first: a buffer
/// is consumed three lanes at a time at the first length that still
/// fits, so everything but a tail shorter than `3 * 256` bytes runs three
/// `crc32` chains at once.
const CRC_LANES: [usize; 2] = [8192, 256];

/// For each of [`CRC_LANES`]: `table[k][b]` is the CRC register
/// `b << 8k` advanced over one lane of zero bytes. The register update
/// is linear over GF(2), so a register advanced over `lane` bytes of
/// *data* is [`advance`] of it XOR the register of those bytes started
/// from zero — which is what lets three lanes be checksummed
/// independently.
fn lane_tables() -> &'static [[[u32; 256]; 4]; 2] {
    static LANE_TABLES: OnceLock<[[[u32; 256]; 4]; 2]> = OnceLock::new();
    LANE_TABLES.get_or_init(|| {
        let t = &scalar::crc_tables()[0];
        CRC_LANES.map(|lane| {
            // The image of each register bit, by running the byte-wise
            // recurrence over `lane` zero bytes.
            let basis: [u32; 32] = std::array::from_fn(|bit| {
                (0..lane).fold(1u32 << bit, |c, _| t[(c & 0xff) as usize] ^ (c >> 8))
            });
            let image = |reg: u32| {
                (0..32).filter(|bit| reg >> bit & 1 != 0).fold(0, |acc, bit| acc ^ basis[bit])
            };
            std::array::from_fn(|k| std::array::from_fn(|b| image((b as u32) << (8 * k))))
        })
    })
}

/// Advance the CRC register `c` over the lane of zeros `table` encodes.
fn advance(table: &[[u32; 256]; 4], c: u64) -> u64 {
    let c = c as u32;
    u64::from(
        table[0][(c & 0xff) as usize]
            ^ table[1][((c >> 8) & 0xff) as usize]
            ^ table[2][((c >> 16) & 0xff) as usize]
            ^ table[3][(c >> 24) as usize],
    )
}

/// CRC32-C with the SSE 4.2 `crc32` instruction, bit-identical to
/// [`scalar::crc32c`]. The instruction has a 3-cycle latency and a
/// 1-cycle throughput, so one dependent chain runs at a third of what
/// the unit can do: long inputs are cut into three lanes checksummed in
/// one interleaved loop and recombined through precomputed "advance by
/// one lane of zeros" tables (the zlib / iSCSI technique), 8 bytes at a
/// time; the rest runs on one chain.
#[target_feature(enable = "sse4.2")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies SSE 4.2 before dispatch.
pub unsafe fn crc32c(crc: u32, mut data: &[u8]) -> u32 {
    let mut c = u64::from(!crc);
    for (lane, table) in CRC_LANES.into_iter().zip(lane_tables()) {
        while data.len() >= 3 * lane {
            let (head, rest) = data.split_at(3 * lane);
            let (a, bc) = head.split_at(lane);
            let (b, c_lane) = bc.split_at(lane);
            let (mut c1, mut c2) = (0u64, 0u64);
            let lanes = a.as_chunks::<8>().0.iter().zip(b.as_chunks::<8>().0).zip(c_lane.as_chunks::<8>().0);
            for ((x, y), z) in lanes {
                c = _mm_crc32_u64(c, u64::from_le_bytes(*x));
                c1 = _mm_crc32_u64(c1, u64::from_le_bytes(*y));
                c2 = _mm_crc32_u64(c2, u64::from_le_bytes(*z));
            }
            c = advance(table, c) ^ c1;
            c = advance(table, c) ^ c2;
            data = rest;
        }
    }
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        c = _mm_crc32_u64(c, u64::from_le_bytes(*w));
    }
    let mut c = c as u32;
    for &b in tail {
        c = _mm_crc32_u8(c, b);
    }
    !c
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
// only be inlined into a `target_feature(avx2)` caller, which every call
// site in this module is.
unsafe fn madd(acc: __m256, a: __m256, b: __m256) -> __m256 {
    _mm256_add_ps(acc, _mm256_mul_ps(a, b))
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
// only be inlined into a `target_feature(avx2)` caller, which every
// call site in this module is. The caller guarantees `a`, `b`, `c`
// address an `MR`×`k`, `k`×(`NV`·8), `MR`×(`NV`·8) block at the given
// strides.
unsafe fn tile<const MR: usize, const NV: usize>(
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
                acc[i][v] = madd(acc[i][v], av, bv[v]);
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
unsafe fn strip<const NV: usize>(
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
        tile::<4, NV>(k, a.add(i * a_rs), a_rs, a_ks, b, ldb, c.add(i * ldc), ldc, resume);
        i += scalar::GEMM_MR;
    }
    let (a, c) = (a.add(i * a_rs), c.add(i * ldc));
    match m - i {
        3 => tile::<3, NV>(k, a, a_rs, a_ks, b, ldb, c, ldc, resume),
        2 => tile::<2, NV>(k, a, a_rs, a_ks, b, ldb, c, ldc, resume),
        1 => tile::<1, NV>(k, a, a_rs, a_ks, b, ldb, c, ldc, resume),
        _ => {}
    }
}

/// `C = A·B` on the register tile kernel; numerics match
/// [`scalar::gemm`], whose operand layout and bounds this shares
/// (`m`, `n`, `k` ≥ 1, checked by `super::gemm`).
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it, as `super::backend()` does, and that the slices cover
// the strided operands, as `super::gemm` does.
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
            strip::<2>(m, kc, ap, a_rs, a_ks, bp.add(j), ldb, cp.add(j), ldc, p0 > 0, pk);
            j += scalar::GEMM_NR;
        }
        if j < wide {
            strip::<1>(m, kc, ap, a_rs, a_ks, bp.add(j), ldb, cp.add(j), ldc, p0 > 0, pk);
        }
        p0 += kc;
    }
    // Columns past the last full vector: the scalar tile kernel.
    if wide < n {
        scalar::gemm(m, n - wide, k, a, a_rs, a_ks, &b[wide..], ldb, &mut c[wide..], ldc);
    }
}

/// One `MR`×`NC` tile of `C = A·Bᵀ`: the canonical 8-lane dot shape with
/// `MR·NC` outputs' lane accumulators live at once, so each vector of
/// `A` is loaded once per `NC` outputs and each vector of `B` once per
/// `MR`. Every output then finishes exactly like [`scalar::dot`]: shared
/// tail into the low lanes, [`scalar::sum8`] tree.
#[inline(always)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(avx2)` caller. The caller
// guarantees `a`/`b` address `MR`/`NC` rows of `k` floats and `c` an
// `MR`×`NC` block at the given strides.
unsafe fn dot_tile<const MR: usize, const NC: usize>(
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
                acc[i][j] = madd(acc[i][j], xv[i], wv);
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
            scalar::dot_tail(&mut lanes, x_tail, w_tail);
            *c.add(i * ldc + j) = scalar::sum8(lanes);
        }
    }
}

/// The `A` row tiles of one block against `NC` rows of `B`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
// SAFETY: as [`dot_tile`], for an `m`-row block.
unsafe fn dot_rows<const NC: usize>(
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
        dot_tile::<4, NC>(k, a.add(i * lda), lda, b, ldb, c.add(i * ldc), ldc);
        i += NT_MR;
    }
    let (a, c) = (a.add(i * lda), c.add(i * ldc));
    match m - i {
        3 => dot_tile::<3, NC>(k, a, lda, b, ldb, c, ldc),
        2 => dot_tile::<2, NC>(k, a, lda, b, ldb, c, ldc),
        1 => dot_tile::<1, NC>(k, a, lda, b, ldb, c, ldc),
        _ => {}
    }
}

/// `C = A·Bᵀ` on the dot tile kernel; numerics match
/// [`scalar::gemm_nt`], whose operand layout and bounds this shares
/// (`m`, `n`, `k` ≥ 1, checked by `super::gemm_nt`).
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it, as `super::backend()` does, and that the slices cover
// the strided operands, as `super::gemm_nt` does.
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
) {
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let block = (NT_BLOCK_BYTES / (4 * k) / NT_MR).max(1) * NT_MR;
    let mut i0 = 0;
    while i0 < m {
        let rows = block.min(m - i0);
        let (ap, cp) = (ap.add(i0 * lda), cp.add(i0 * ldc));
        let mut j = 0;
        while j + NT_NC <= n {
            dot_rows::<2>(rows, k, ap, lda, bp.add(j * ldb), ldb, cp.add(j), ldc);
            j += NT_NC;
        }
        if j < n {
            dot_rows::<1>(rows, k, ap, lda, bp.add(j * ldb), ldb, cp.add(j), ldc);
        }
        i0 += rows;
    }
}

/// Canonical 8-lane sum.
#[target_feature(enable = "avx2")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2 before dispatch.
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
// CPU supports it; `super::backend()` verifies AVX2 before dispatch.
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
// only be inlined into a `target_feature(avx2)` caller, which every
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
// CPU supports it; `super::backend()` verifies AVX2 before dispatch.
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
// only be inlined into a `target_feature(avx2)` caller, which every
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
// only be inlined into a `target_feature(avx2)` caller, which every
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
// CPU supports it; `super::backend()` verifies AVX2 before dispatch.
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
// CPU supports it; `super::backend()` verifies AVX2 before dispatch.
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

/// `v` with every NaN lane the canonical quiet NaN, as
/// [`scalar::canonical_nan`] leaves it.
#[inline(always)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(avx2)` caller, which every call
// site in this module is.
unsafe fn canonical_nan_v(v: __m256) -> __m256 {
    _mm256_blendv_ps(v, _mm256_set1_ps(f32::NAN), _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v))
}

/// One row of layer normalization; returns `(mean, rstd)`.
#[target_feature(enable = "avx2")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2 before dispatch.
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
        _mm256_storeu_ps(op.add(j), canonical_nan_v(r));
        j += LANES;
    }
    for jj in j..n {
        out[jj] = scalar::canonical_nan(((x[jj] - mean) * rstd) * gamma[jj] + beta[jj]);
    }
    (scalar::canonical_nan(mean), scalar::canonical_nan(rstd))
}

/// One row of the layer-norm backward pass; numerics match
/// [`scalar::layernorm_backward_row`].
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2 before dispatch.
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
        _mm256_storeu_ps(dgp.add(i), canonical_nan_v(dg));
        let db = _mm256_add_ps(_mm256_loadu_ps(dbp.add(i)), dyv);
        _mm256_storeu_ps(dbp.add(i), canonical_nan_v(db));
        i += LANES;
    }
    let mut la = [0f32; LANES];
    let mut lb = [0f32; LANES];
    _mm256_storeu_ps(la.as_mut_ptr(), va);
    _mm256_storeu_ps(lb.as_mut_ptr(), vb);
    scalar::layernorm_backward_tail(x, dy, gamma, mean, rstd, i, &mut la, &mut lb, dgamma, dbeta);
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
        _mm256_storeu_ps(dxp.add(j), canonical_nan_v(r));
        j += LANES;
    }
    for jj in j..n {
        let xhat = (x[jj] - mean) * rstd;
        let dyg = dy[jj] * gamma[jj];
        dx[jj] = scalar::canonical_nan(rstd * ((dyg - s1) - xhat * s2));
    }
}

// ---------------------------------------------------------------------------
// adam

/// Extend the CRC registers of master, m, v and the `OUT` publish over
/// the block of [`LANES`] elements at `at` that the kernel has stored.
#[inline(always)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(sse4.2)` caller; the four
// streams must hold the block at `at`.
unsafe fn crc_block<const OUT: u8>(
    mut c: [u64; 4],
    master: *const f32,
    m: *const f32,
    v: *const f32,
    out: *const u8,
    at: usize,
) -> [u64; 4] {
    let word = |base: *const u8, k: usize| (base as *const u64).add(k).read_unaligned();
    for k in 0..LANES / 2 {
        c[0] = _mm_crc32_u64(c[0], word(master.add(at) as *const u8, k));
        c[1] = _mm_crc32_u64(c[1], word(m.add(at) as *const u8, k));
        c[2] = _mm_crc32_u64(c[2], word(v.add(at) as *const u8, k));
    }
    let (width, words) = match OUT {
        OUT_F16 => (2, LANES / 4),
        OUT_F32 => (4, LANES / 2),
        _ => (0, 0),
    };
    for k in 0..words {
        c[3] = _mm_crc32_u64(c[3], word(out.add(at * width), k));
    }
    c
}

/// Publish kinds of [`adam_body`]'s `OUT`.
const OUT_NONE: u8 = 0;
const OUT_F32: u8 = 1;
const OUT_F16: u8 = 2;

/// The fused loop, one instance per checksum setting and publish kind
/// (`OUT`: none, fp32 to `out`, fp16 to `out`), so no instance tests a
/// setting per iteration.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
// SAFETY: `inline(always)` helper with no feature gate of its own — must
// only be inlined into a `target_feature(avx2,f16c,sse4.2)` caller,
// which every call site in this module is; `out` must be valid for
// `master.len()` elements of the `OUT` kind.
unsafe fn adam_body<const CRC: bool, const OUT: u8>(
    p: &AdamParams,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    out: *mut u8,
    crcs: &mut [u32; 4],
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
    let (mul, div) = match p.grad_scale {
        GradScale::One => (None, None),
        GradScale::Mul(r) => (Some(_mm256_set1_ps(r)), None),
        GradScale::Div(d) => (None, Some(_mm256_set1_ps(d))),
    };
    let mp = master.as_mut_ptr();
    let mmp = m.as_mut_ptr();
    let vp = v.as_mut_ptr();
    let gp = grad.as_ptr();
    // The running registers (inverted CRCs) of master, m, v and publish.
    let mut c = crcs.map(|crc| u64::from(!crc));
    let mut i = 0;
    while i + LANES <= n {
        let mut g = _mm256_loadu_ps(gp.add(i));
        if let Some(r) = mul {
            g = _mm256_mul_ps(g, r);
        } else if let Some(d) = div {
            g = _mm256_div_ps(g, d);
        }
        let mo = _mm256_loadu_ps(mmp.add(i));
        let vo = _mm256_loadu_ps(vp.add(i));
        let po = _mm256_loadu_ps(mp.add(i));
        let mn = _mm256_add_ps(_mm256_mul_ps(b1, mo), _mm256_mul_ps(omb1, g));
        let vn = _mm256_add_ps(_mm256_mul_ps(b2, vo), _mm256_mul_ps(_mm256_mul_ps(omb2, g), g));
        _mm256_storeu_ps(mmp.add(i), mn);
        _mm256_storeu_ps(vp.add(i), vn);
        let m_hat = _mm256_div_ps(mn, bc1);
        let v_hat = _mm256_div_ps(vn, bc2);
        let den = _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps);
        let update = _mm256_add_ps(_mm256_div_ps(m_hat, den), _mm256_mul_ps(wd, po));
        let pn = _mm256_sub_ps(po, _mm256_mul_ps(lr, update));
        _mm256_storeu_ps(mp.add(i), pn);
        if OUT == OUT_F16 {
            _mm_storeu_si128(out.add(i * 2) as *mut __m128i, to_f16(pn));
        } else if OUT == OUT_F32 {
            _mm256_storeu_ps(out.add(i * 4) as *mut f32, pn);
        }
        // The checksums ride the divider's latency: the `crc32` port is
        // otherwise idle while the divides and the root retire. They run
        // one block behind, over bytes stored an iteration ago, so they
        // wait on nothing of this iteration's long dependency chain and
        // retire at once instead of crowding it out of the reorder buffer.
        if CRC && i > 0 {
            c = crc_block::<OUT>(c, mp, mmp, vp, out, i - LANES);
        }
        i += LANES;
    }
    if CRC && i > 0 {
        c = crc_block::<OUT>(c, mp, mmp, vp, out, i - LANES);
    }
    for j in i..n {
        scalar::adam_one(p, &mut master[j], &mut m[j], &mut v[j], p.grad_scale.apply(grad[j]));
        let (bits, h) = (master[j].to_bits(), F16::from_f32(master[j]).to_bits());
        if OUT == OUT_F16 {
            (out as *mut u16).add(j).write_unaligned(h);
        } else if OUT == OUT_F32 {
            (out as *mut u32).add(j).write_unaligned(bits);
        }
        if CRC {
            for (reg, word) in c.iter_mut().zip([bits, m[j].to_bits(), v[j].to_bits()]) {
                *reg = u64::from(_mm_crc32_u32(*reg as u32, word));
            }
            if OUT == OUT_F16 {
                c[3] = u64::from(_mm_crc32_u16(c[3] as u32, h));
            } else if OUT == OUT_F32 {
                c[3] = u64::from(_mm_crc32_u32(c[3] as u32, bits));
            }
        }
    }
    if CRC {
        *crcs = c.map(|reg| !(reg as u32));
    }
}

/// The fused Adam kernel (see [`super::adam_chunk`]): one pass that
/// scales the gradient, updates the three streams, publishes, and
/// chains each stream's CRC32-C over the bytes just stored, through the
/// [`adam_body`] instance for this call's settings.
#[target_feature(enable = "avx2,f16c,sse4.2")]
// SAFETY: gated on the `target_feature` above — the caller must ensure the
// CPU supports it; `super::backend()` verifies AVX2/F16C/SSE4.2 before dispatch.
pub unsafe fn adam_chunk(
    p: &AdamParams,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    publish: PublishTo<'_>,
    crcs: Option<&mut [u32; 4]>,
) {
    let (kind, out) = match publish {
        PublishTo::None => (OUT_NONE, std::ptr::null_mut()),
        PublishTo::F32(out) => (OUT_F32, out.as_mut_ptr() as *mut u8),
        PublishTo::F16(out) => (OUT_F16, out.as_mut_ptr() as *mut u8),
    };
    let mut unused = [0; 4];
    let (on, crcs) = match crcs {
        Some(crcs) => (true, crcs),
        None => (false, &mut unused),
    };
    match (on, kind) {
        (false, OUT_NONE) => adam_body::<false, OUT_NONE>(p, master, m, v, grad, out, crcs),
        (false, OUT_F32) => adam_body::<false, OUT_F32>(p, master, m, v, grad, out, crcs),
        (false, _) => adam_body::<false, OUT_F16>(p, master, m, v, grad, out, crcs),
        (true, OUT_NONE) => adam_body::<true, OUT_NONE>(p, master, m, v, grad, out, crcs),
        (true, OUT_F32) => adam_body::<true, OUT_F32>(p, master, m, v, grad, out, crcs),
        (true, _) => adam_body::<true, OUT_F16>(p, master, m, v, grad, out, crcs),
    }
}
