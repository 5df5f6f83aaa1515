//! NEON backend for aarch64.
//!
//! NEON registers are 128-bit, so lane-structured kernels model the
//! canonical 8-lane shape (see [`super::scalar`]) as two 4-wide
//! registers. Only the Adam chunk update is hand-vectorized here; FMA
//! (`vfmaq_f32`) is used only in its `fma = true` variant, mirroring
//! `f32::mul_add` in the scalar backend. The GEMM tile kernels, the f16
//! conversions and the exp/gelu/layernorm row kernels dispatch to the
//! scalar backend (see `super`): the scalar tile kernel is elementwise
//! IEEE arithmetic over fixed-size register blocks, which the compiler
//! vectorizes for NEON without changing a single rounding.

use core::arch::aarch64::*;

use super::{scalar, AdamParams};

/// Elementwise Adam chunk update with optional fused publish.
// SAFETY: NEON is baseline on aarch64, so the intrinsics are always
// available; `unsafe fn` only mirrors the cross-backend kernel signature.
pub unsafe fn adam_chunk(
    p: &AdamParams,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    publish: Option<&mut [f32]>,
    fma: bool,
) {
    // SAFETY: all pointer arithmetic stays within the slice bounds checked
    // by the surrounding loop conditions (chunks of 4/8 lanes + scalar tail).
    unsafe {
        let n = master.len();
        let b1 = vdupq_n_f32(p.beta1);
        let b2 = vdupq_n_f32(p.beta2);
        let omb1 = vdupq_n_f32(p.one_minus_beta1);
        let omb2 = vdupq_n_f32(p.one_minus_beta2);
        let bc1 = vdupq_n_f32(p.bc1);
        let bc2 = vdupq_n_f32(p.bc2);
        let lr = vdupq_n_f32(p.lr);
        let eps = vdupq_n_f32(p.eps);
        let wd = vdupq_n_f32(p.weight_decay);
        let mp = master.as_mut_ptr();
        let mmp = m.as_mut_ptr();
        let vp = v.as_mut_ptr();
        let gp = grad.as_ptr();
        let pubp = publish.as_ref().map(|s| s.as_ptr() as *mut f32);
        let mut i = 0;
        while i + 4 <= n {
            let g = vld1q_f32(gp.add(i));
            let mo = vld1q_f32(mmp.add(i));
            let vo = vld1q_f32(vp.add(i));
            let po = vld1q_f32(mp.add(i));
            let (mn, vn) = if fma {
                let mn = vfmaq_f32(vmulq_f32(omb1, g), mo, b1);
                let vn = vfmaq_f32(vmulq_f32(b2, vo), vmulq_f32(omb2, g), g);
                (mn, vn)
            } else {
                let mn = vaddq_f32(vmulq_f32(b1, mo), vmulq_f32(omb1, g));
                let vn = vaddq_f32(vmulq_f32(b2, vo), vmulq_f32(vmulq_f32(omb2, g), g));
                (mn, vn)
            };
            vst1q_f32(mmp.add(i), mn);
            vst1q_f32(vp.add(i), vn);
            let m_hat = vdivq_f32(mn, bc1);
            let v_hat = vdivq_f32(vn, bc2);
            let den = vaddq_f32(vsqrtq_f32(v_hat), eps);
            let update = vaddq_f32(vdivq_f32(m_hat, den), vmulq_f32(wd, po));
            let pn = vsubq_f32(po, vmulq_f32(lr, update));
            vst1q_f32(mp.add(i), pn);
            if let Some(out) = pubp {
                vst1q_f32(out.add(i), pn);
            }
            i += 4;
        }
        for j in i..n {
            scalar::adam_one(p, &mut master[j], &mut m[j], &mut v[j], grad[j], fma);
            if let Some(out) = pubp {
                *out.add(j) = master[j];
            }
        }
    }
}
