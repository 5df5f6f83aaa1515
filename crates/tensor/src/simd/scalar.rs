//! Canonical scalar backend.
//!
//! These kernels *define* the numerics of the SIMD layer: every other
//! backend must reproduce them bit for bit (see the module docs in
//! [`super`]). To make that possible on 8-wide hardware, reductions here
//! are written over [`LANES`] explicit virtual lanes with the fixed
//! [`sum8`] reduction tree rather than a natural sequential loop —
//! "scalar" names the instruction set, not the algorithm shape. Every
//! multiply-add rounds the product before the add, never fused: the one
//! numerics mode the SIMD backends reproduce.

use zi_sync::OnceLock;

use crate::f16::F16;
use super::{AdamParams, PublishTo, LANES};

/// log2(e), for range reduction in [`exp_approx`].
const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// ln(2), for range reduction in [`exp_approx`].
const LN_2: f32 = std::f32::consts::LN_2;
/// `tanh` argument clamp: beyond ±18, `(e^z-1)/(e^z+1)` is ±1.0 in f32.
const TANH_CLAMP: f32 = 18.0;

/// GELU tanh-approximation constants (same values the pre-SIMD kernels
/// used, kept so tolerance-based model tests keep passing).
pub(crate) const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
/// Cubic coefficient of the GELU tanh approximation.
pub(crate) const GELU_A: f32 = 0.044_715;
const GELU_3A: f32 = 3.0 * GELU_A;

// Taylor coefficients 1/k! for e^w on |w| <= ln(2)/2.
const EXP_C2: f32 = 0.5;
const EXP_C3: f32 = 1.0 / 6.0;
const EXP_C4: f32 = 1.0 / 24.0;
const EXP_C5: f32 = 1.0 / 120.0;
const EXP_C6: f32 = 1.0 / 720.0;

/// Mirror of SIMD `min(a, b)` (`vminps`): returns `b` when unordered or
/// equal. Differs from `f32::min` on NaN handling, so backends must use
/// this, never `f32::min`.
#[inline(always)]
pub(crate) fn mirror_min(a: f32, b: f32) -> f32 {
    if a < b { a } else { b }
}

/// Mirror of SIMD `max(a, b)` (`vmaxps`); see [`mirror_min`].
#[inline(always)]
pub(crate) fn mirror_max(a: f32, b: f32) -> f32 {
    if a > b { a } else { b }
}

/// The fixed reduction tree every backend uses to collapse 8 lanes:
/// pairwise low-half/high-half adds, exactly the shape of a 256-bit
/// `extractf128` + `movehl` + shuffle reduction.
#[inline(always)]
pub fn sum8(l: [f32; LANES]) -> f32 {
    let a0 = l[0] + l[4];
    let a1 = l[1] + l[5];
    let a2 = l[2] + l[6];
    let a3 = l[3] + l[7];
    (a0 + a2) + (a1 + a3)
}

// ---------------------------------------------------------------------------
// f16 conversion

/// Canonical bulk f32 → f16 (delegates to [`F16::from_f32`]).
pub fn f32_to_f16(src: &[f32], dst: &mut [F16]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = F16::from_f32(s);
    }
}

/// Canonical bulk f16 → f32 (delegates to [`F16::to_f32`]).
pub fn f16_to_f32(src: &[F16], dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s.to_f32();
    }
}

// ---------------------------------------------------------------------------
// GEMM tile kernels

/// Rows of `C` one register tile of the GEMM kernels covers.
pub(crate) const GEMM_MR: usize = 4;
/// Columns of `C` one register tile covers (two 8-lane vectors).
pub(crate) const GEMM_NR: usize = 2 * LANES;

/// `acc + a·b`, the product rounded before the add — the one update
/// every GEMM output element goes through, once per `k` step in `k`
/// order.
#[inline(always)]
pub(crate) fn madd(acc: f32, a: f32, b: f32) -> f32 {
    acc + a * b
}

/// `C[m,n] = A·B` with `A(i,p) = a[i*a_rs + p*a_ks]` (row stride, k
/// stride: one body serves `A` and `Aᵀ`), `B(p,j) = b[p*ldb + j]` and
/// `C(i,j) = c[i*ldc + j]`.
///
/// The canonical tile algorithm: a [`GEMM_MR`]×[`GEMM_NR`] block of `C`
/// starts at `+0.0`, stays in registers across the whole `k` loop and
/// takes one [`madd`] per element per `k` step. Tiling only picks which
/// elements share a register block — each element's operation chain is
/// `((0 + a₀b₀) + a₁b₁) + …`, the same on every backend.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
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
    for i0 in (0..m).step_by(GEMM_MR) {
        let mr = GEMM_MR.min(m - i0);
        for j0 in (0..n).step_by(GEMM_NR) {
            let nr = GEMM_NR.min(n - j0);
            let mut acc = [[0f32; GEMM_NR]; GEMM_MR];
            for p in 0..k {
                let b_row = &b[p * ldb + j0..p * ldb + j0 + nr];
                for (i, acc_row) in acc[..mr].iter_mut().enumerate() {
                    let av = a[(i0 + i) * a_rs + p * a_ks];
                    for (t, &bv) in acc_row.iter_mut().zip(b_row) {
                        *t = madd(*t, av, bv);
                    }
                }
            }
            for (i, acc_row) in acc[..mr].iter().enumerate() {
                let at = (i0 + i) * ldc + j0;
                c[at..at + nr].copy_from_slice(&acc_row[..nr]);
            }
        }
    }
}

/// Accumulate the tail elements `x·w` (fewer than [`LANES`] of them)
/// into lanes `0..len`, one element per lane — shared by all backends
/// so remainders agree.
#[inline(always)]
pub(crate) fn dot_tail(lanes: &mut [f32; LANES], x: &[f32], w: &[f32]) {
    for (lane, (&xv, &wv)) in lanes.iter_mut().zip(x.iter().zip(w)) {
        *lane = madd(*lane, xv, wv);
    }
}

/// Canonical 8-lane dot product: the element of [`gemm_nt`].
pub fn dot(x: &[f32], w: &[f32]) -> f32 {
    let mut lanes = [0f32; LANES];
    let body = x.len() - x.len() % LANES;
    for (xc, wc) in x[..body].chunks_exact(LANES).zip(w[..body].chunks_exact(LANES)) {
        for j in 0..LANES {
            lanes[j] = madd(lanes[j], xc[j], wc[j]);
        }
    }
    dot_tail(&mut lanes, &x[body..], &w[body..]);
    sum8(lanes)
}

/// `C[m,n] = A·Bᵀ` with `A(i,p) = a[i*lda + p]`, `B(j,p) = b[j*ldb + p]`:
/// every output element is one [`dot`] — eight lane accumulators over
/// `k`, the shared tail, the [`sum8`] tree.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt(
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
    for i in 0..m {
        let x = &a[i * lda..i * lda + k];
        for j in 0..n {
            c[i * ldc + j] = dot(x, &b[j * ldb..j * ldb + k]);
        }
    }
}

/// Canonical 8-lane sum.
pub fn vec_sum(x: &[f32]) -> f32 {
    let mut lanes = [0f32; LANES];
    let mut i = 0;
    while i + LANES <= x.len() {
        for j in 0..LANES {
            lanes[j] += x[i + j];
        }
        i += LANES;
    }
    for (j, &v) in x[i..].iter().enumerate() {
        lanes[j] += v;
    }
    sum8(lanes)
}

/// Canonical 8-lane sum of squared deviations from `mean`.
pub(crate) fn vec_center_sumsq(x: &[f32], mean: f32) -> f32 {
    let mut lanes = [0f32; LANES];
    let mut i = 0;
    while i + LANES <= x.len() {
        for j in 0..LANES {
            let d = x[i + j] - mean;
            lanes[j] += d * d;
        }
        i += LANES;
    }
    for (j, &v) in x[i..].iter().enumerate() {
        let d = v - mean;
        lanes[j] += d * d;
    }
    sum8(lanes)
}

// ---------------------------------------------------------------------------
// gelu

/// `e^z` for `|z| <= TANH_CLAMP`, from exactly-rounded ops in a fixed
/// order: range-reduce with round-ties-even (the SIMD rounding mode),
/// degree-6 Taylor Horner on the remainder, exponent-bits scale.
#[inline(always)]
pub(crate) fn exp_approx(z: f32) -> f32 {
    let y = z * LOG2_E;
    let kf = y.round_ties_even();
    let r = y - kf;
    let w = r * LN_2;
    let mut p = EXP_C6;
    p = p * w + EXP_C5;
    p = p * w + EXP_C4;
    p = p * w + EXP_C3;
    p = p * w + EXP_C2;
    p = p * w + 1.0;
    p = p * w + 1.0;
    // kf ∈ [-26, 26] here, so `as i32` is exact and matches cvtps2dq.
    let scale = f32::from_bits(((kf as i32 + 127) as u32) << 23);
    p * scale
}

/// Argument clamp for the standalone exp kernel: keeps the
/// range-reduction exponent `k + 127` of [`exp_approx`] inside
/// `(0, 255)` so the exponent-bits scale never wraps (`e^-87 ≈ 1.6e-38`
/// is the last value above the normal-number floor).
pub(crate) const EXP_CLAMP: f32 = 87.0;

/// `e^z` over the full f32 range: [`exp_approx`] with the argument
/// clamped to +[`EXP_CLAMP`], and exactly `+0.0` below −[`EXP_CLAMP`] —
/// a floor of `e^-87` would turn into a subnormal as soon as softmax
/// divides it by a row sum above 1.4, and arithmetic on subnormals runs
/// on the CPU's microcode-assist path. The one scalar element every
/// backend's exp kernel must reproduce bit for bit.
#[inline(always)]
pub(crate) fn exp_one(z: f32) -> f32 {
    if z < -EXP_CLAMP {
        return 0.0;
    }
    exp_approx(mirror_min(z, EXP_CLAMP))
}

/// Elementwise in-place `x[i] = e^{x[i]}` (clamped, shared polynomial):
/// the lane kernel behind softmax and cross-entropy.
pub fn exp(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = exp_one(*v);
    }
}

/// `tanh(z/2)` via `(e^z - 1) / (e^z + 1)` with `z` clamped to ±[`TANH_CLAMP`].
/// Division is correctly rounded on every backend, so this is exact-match.
#[inline(always)]
pub(crate) fn tanh_half_approx(z: f32) -> f32 {
    let z = mirror_max(mirror_min(z, TANH_CLAMP), -TANH_CLAMP);
    let e = exp_approx(z);
    (e - 1.0) / (e + 1.0)
}

/// One GELU element, tanh approximation.
#[inline(always)]
pub(crate) fn gelu_one(x: f32) -> f32 {
    let x2 = x * x;
    let x3 = x2 * x;
    let inner = GELU_C * (x + GELU_A * x3);
    let t = tanh_half_approx(inner + inner);
    (0.5 * x) * (1.0 + t)
}

/// Derivative of [`gelu_one`] at `x`.
#[inline(always)]
pub(crate) fn gelu_grad_one(x: f32) -> f32 {
    let x2 = x * x;
    let x3 = x2 * x;
    let inner = GELU_C * (x + GELU_A * x3);
    let t = tanh_half_approx(inner + inner);
    let dinner = GELU_C * (1.0 + GELU_3A * x2);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + ((0.5 * x) * sech2) * dinner
}

/// Elementwise GELU over a slice.
pub fn gelu(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = gelu_one(v);
    }
}

/// Elementwise `out[i] = dy[i] * gelu'(x[i])`.
pub(crate) fn gelu_grad(x: &[f32], dy: &[f32], out: &mut [f32]) {
    for ((o, &v), &g) in out.iter_mut().zip(x).zip(dy) {
        *o = g * gelu_grad_one(v);
    }
}

// ---------------------------------------------------------------------------
// layernorm

/// `v`, or the canonical quiet NaN when `v` is a NaN: which payload an
/// operation on a NaN returns is not fixed, so every NaN layernorm writes
/// is this one, in every backend.
#[inline(always)]
pub(crate) fn canonical_nan(v: f32) -> f32 {
    if v.is_nan() { f32::NAN } else { v }
}

/// One row of layer normalization; returns `(mean, rstd)`.
pub(crate) fn layernorm_row(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
) -> (f32, f32) {
    let inv_n = 1.0 / x.len() as f32;
    let mean = vec_sum(x) * inv_n;
    let var = vec_center_sumsq(x, mean) * inv_n;
    let rstd = 1.0 / (var + eps).sqrt();
    for (j, o) in out.iter_mut().enumerate() {
        *o = canonical_nan(((x[j] - mean) * rstd) * gamma[j] + beta[j]);
    }
    (canonical_nan(mean), canonical_nan(rstd))
}

/// One row of the layer-norm backward pass: 8-lane reductions of
/// `dy*gamma` and `dy*gamma*xhat`, dgamma/dbeta accumulation, then the
/// dx formula `rstd * ((dyg - s1) - xhat * s2)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn layernorm_backward_row(
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
    let mut la = [0f32; LANES];
    let mut lb = [0f32; LANES];
    let mut i = 0;
    while i + LANES <= n {
        for j in 0..LANES {
            let xhat = (x[i + j] - mean) * rstd;
            let dyg = dy[i + j] * gamma[i + j];
            la[j] += dyg;
            lb[j] += dyg * xhat;
            dgamma[i + j] = canonical_nan(dgamma[i + j] + dy[i + j] * xhat);
            dbeta[i + j] = canonical_nan(dbeta[i + j] + dy[i + j]);
        }
        i += LANES;
    }
    layernorm_backward_tail(x, dy, gamma, mean, rstd, i, &mut la, &mut lb, dgamma, dbeta);
    let inv_n = 1.0 / n as f32;
    let s1 = inv_n * sum8(la);
    let s2 = inv_n * sum8(lb);
    for (j, o) in dx.iter_mut().enumerate() {
        let xhat = (x[j] - mean) * rstd;
        let dyg = dy[j] * gamma[j];
        *o = canonical_nan(rstd * ((dyg - s1) - xhat * s2));
    }
}

/// The elements from `i` on (fewer than [`LANES`]) of the layer-norm
/// backward's reductions and dgamma/dbeta accumulation.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn layernorm_backward_tail(
    x: &[f32],
    dy: &[f32],
    gamma: &[f32],
    mean: f32,
    rstd: f32,
    i: usize,
    la: &mut [f32; LANES],
    lb: &mut [f32; LANES],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    for j in i..x.len() {
        let xhat = (x[j] - mean) * rstd;
        let dyg = dy[j] * gamma[j];
        la[j - i] += dyg;
        lb[j - i] += dyg * xhat;
        dgamma[j] = canonical_nan(dgamma[j] + dy[j] * xhat);
        dbeta[j] = canonical_nan(dbeta[j] + dy[j]);
    }
}

// ---------------------------------------------------------------------------
// adam

/// One element of the Adam update; op order matches the pre-SIMD
/// `update_one` exactly so checkpoint streams stay bit-compatible.
#[inline(always)]
pub(crate) fn adam_one(p: &AdamParams, master: &mut f32, m: &mut f32, v: &mut f32, g: f32) {
    let m_new = p.beta1 * *m + p.one_minus_beta1 * g;
    let v_new = p.beta2 * *v + (p.one_minus_beta2 * g) * g;
    *m = m_new;
    *v = v_new;
    let m_hat = m_new / p.bc1;
    let v_hat = v_new / p.bc2;
    let update = m_hat / (v_hat.sqrt() + p.eps) + p.weight_decay * *master;
    *master -= p.lr * update;
}

/// Elementwise Adam over a chunk: the gradient scaled by
/// [`AdamParams::grad_scale`], the new masters also written to
/// `publish`, and — with `crcs` — the CRC32-C of every stream extended
/// over the bytes stored (master, momentum, variance, publish).
pub fn adam_chunk(
    p: &AdamParams,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    mut publish: PublishTo<'_>,
    crcs: Option<&mut [u32; 4]>,
) {
    for i in 0..master.len() {
        adam_one(p, &mut master[i], &mut m[i], &mut v[i], p.grad_scale.apply(grad[i]));
    }
    match &mut publish {
        PublishTo::None => {}
        PublishTo::F32(out) => out.copy_from_slice(master),
        PublishTo::F16(out) => f32_to_f16(master, out),
    }
    if let Some(crcs) = crcs {
        for (crc, stream) in crcs.iter_mut().zip([&*master, &*m, &*v]) {
            *crc = crc32c(*crc, f32_bytes(stream));
        }
        crcs[3] = match &publish {
            PublishTo::None => crcs[3],
            PublishTo::F32(out) => crc32c(crcs[3], f32_bytes(out)),
            PublishTo::F16(out) => crc32c(crcs[3], f16_bytes(out)),
        };
    }
}

/// The bytes of `x` as stored (little-endian on every supported target).
fn f32_bytes(x: &[f32]) -> &[u8] {
    // SAFETY: `u8` has no alignment requirement and every byte of an
    // initialized `f32` slice is initialized; the view borrows `x`.
    unsafe { std::slice::from_raw_parts(x.as_ptr().cast::<u8>(), std::mem::size_of_val(x)) }
}

/// The bytes of `x` as stored; see [`f32_bytes`].
fn f16_bytes(x: &[F16]) -> &[u8] {
    // SAFETY: `F16` is a `repr(transparent)` `u16`; as for `f32_bytes`.
    unsafe { std::slice::from_raw_parts(x.as_ptr().cast::<u8>(), std::mem::size_of_val(x)) }
}

// ---------------------------------------------------------------------------
// CRC32-C

/// Table 0 is the classic byte-at-a-time table of CRC32-C (Castagnoli,
/// reflected polynomial 0x82F63B78); table `k` maps a byte to its CRC
/// contribution from `k` positions deeper in the input.
pub(crate) fn crc_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0x82f6_3b78 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        for i in 0..256usize {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xff) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// Canonical CRC32-C, software slicing-by-8: folds 8 input bytes per
/// iteration through eight independent table lookups. `crc` is the CRC
/// of the bytes that precede `data` (0 for none).
pub(crate) fn crc32c(crc: u32, data: &[u8]) -> u32 {
    let t = crc_tables();
    let mut c = !crc;
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}
