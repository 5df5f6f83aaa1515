//! Runtime-dispatched SIMD kernel layer.
//!
//! Every bulk numeric kernel in the workspace (f16↔f32 conversion, the
//! GEMM tile kernels, gelu/layernorm row kernels, the Adam update)
//! funnels through this module, which selects an instruction-set backend
//! once at startup and dispatches each call to it:
//!
//! * **`Backend::Avx2`** — 256-bit `std::arch` kernels on x86_64 when the
//!   CPU reports AVX2 (FMA additionally gated, see below).
//! * **`Backend::Scalar`** — always available, and the *canonical
//!   semantics*: every SIMD backend is written to be **bit-identical** to
//!   the scalar backend, element for element.
//!
//! # The bit-identity contract
//!
//! Elastic resume (DESIGN.md §6) and checkpoint equivalence tests assert
//! bit-for-bit reproducibility of training. A restart may land on a
//! machine with different SIMD support, so backends must not be allowed
//! to change numerics. Two rules make that hold:
//!
//! 1. **Reductions have a fixed lane shape.** Dot products and row sums
//!    accumulate into [`LANES`] = 8 virtual lanes in a defined order and
//!    reduce with [`scalar::sum8`]'s fixed tree, in *every* backend —
//!    the scalar backend emulates the lanes, the AVX2 backend *is* the
//!    lanes.
//! 2. **No FMA contraction by default.** Fused multiply-add changes
//!    rounding, so fused kernels are gated behind the explicit
//!    `ZI_SIMD_FMA=1` knob ([`fma_enabled`]). When the knob is on, the
//!    scalar backend mirrors fusion with `f32::mul_add`, so SIMD/scalar
//!    equivalence holds in both knob positions — only results *across*
//!    knob settings differ.
//!
//! Transcendentals (`gelu`'s tanh) use a shared polynomial
//! ([`scalar::tanh_approx`]) built from exactly-rounded ops in a fixed
//! order, never `libm`, so they are bit-identical across backends too.
//!
//! # Forcing a backend
//!
//! `ZI_SIMD=scalar|avx2|auto` pins the selection at startup (an
//! unsupported choice falls back to scalar); tests and benches can also
//! call [`force_backend`] to switch at runtime. `ZI_SIMD_FMA=1` opts into
//! fused kernels; [`force_fma`] overrides programmatically.

use zi_sync::atomic::{AtomicU8, Ordering};
use zi_sync::OnceLock;

use crate::f16::F16;

pub mod scalar;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

/// Virtual lane count every backend's reductions are defined over.
pub const LANES: usize = 8;

/// Instruction-set backend for the kernel layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar kernels (the canonical semantics).
    Scalar,
    /// 256-bit AVX2 kernels (x86_64).
    Avx2,
}

impl Backend {
    /// Stable lowercase label (`ZI_SIMD` accepts these).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// 0 = no override, 1 = scalar, 2 = avx2.
static BACKEND_OVERRIDE: AtomicU8 = AtomicU8::new(0);
/// 0 = env-configured, 1 = forced off, 2 = forced on.
static FMA_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// True when this CPU can run the [`Backend::Avx2`] kernels.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when fused kernels are runnable under the selected backend
/// (scalar always can; AVX2 needs the `fma` feature bit).
fn fma_supported(b: Backend) -> bool {
    match b {
        Backend::Scalar => true,
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                false
            }
        }
    }
}

/// Startup selection: `ZI_SIMD` env override, else best detected.
fn detect() -> Backend {
    let requested = std::env::var("ZI_SIMD").unwrap_or_default();
    match requested.as_str() {
        "scalar" => return Backend::Scalar,
        "avx2" if avx2_supported() => return Backend::Avx2,
        "avx2" | "neon" => {
            eprintln!("zi-tensor: ZI_SIMD={requested} unsupported on this CPU; using scalar");
            return Backend::Scalar;
        }
        _ => {}
    }
    if avx2_supported() {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

/// The backend every dispatching kernel routes to right now.
///
/// Selection happens once (env + CPUID) and is cached; [`force_backend`]
/// overrides it afterwards. Forcing a backend the current CPU cannot run
/// silently degrades to scalar at dispatch time.
pub fn backend() -> Backend {
    match BACKEND_OVERRIDE.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 if avx2_supported() => Backend::Avx2,
        2 => Backend::Scalar,
        _ => {
            static DETECTED: OnceLock<Backend> = OnceLock::new();
            *DETECTED.get_or_init(detect)
        }
    }
}

/// Pin (or with `None`, un-pin) the dispatch backend at runtime.
///
/// For tests and benches that compare backends on one machine; normal
/// code configures via `ZI_SIMD` instead.
pub fn force_backend(b: Option<Backend>) {
    let v = match b {
        None => 0,
        Some(Backend::Scalar) => 1,
        Some(Backend::Avx2) => 2,
    };
    BACKEND_OVERRIDE.store(v, Ordering::Relaxed);
}

/// True when kernels may contract multiply-add (the `ZI_SIMD_FMA=1`
/// knob, or a [`force_fma`] override). Off by default: fusion changes
/// rounding, and the default path must stay bit-identical across
/// backends and machines.
pub fn fma_enabled() -> bool {
    let want = match FMA_OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            static ENV: OnceLock<bool> = OnceLock::new();
            *ENV.get_or_init(|| std::env::var("ZI_SIMD_FMA").is_ok_and(|v| v == "1"))
        }
    };
    want && fma_supported(backend())
}

/// Pin (or with `None`, un-pin) the FMA knob at runtime (tests/benches).
pub fn force_fma(on: Option<bool>) {
    FMA_OVERRIDE.store(match on { None => 0, Some(false) => 1, Some(true) => 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Dispatching kernels. Each wrapper validates lengths once, then routes
// to the selected backend; `_ =>` lands on scalar, which is always
// correct (the canonical semantics).

macro_rules! dispatch {
    ($avx2:expr, $scalar:expr) => {{
        match backend() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `backend()` only returns Avx2 when CPUID reports it.
            Backend::Avx2 => unsafe { $avx2 },
            _ => $scalar,
        }
    }};
}

/// Bulk f32 → f16 conversion (round-to-nearest-even, NaNs canonicalized
/// exactly like [`F16::from_f32`]).
pub fn f32_to_f16_slice(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "f32→f16 length mismatch");
    dispatch!(
        x86::f32_to_f16(src, dst),
        scalar::f32_to_f16(src, dst)
    )
}

/// Bulk f16 → f32 conversion (exact).
pub fn f16_to_f32_slice(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "f16→f32 length mismatch");
    dispatch!(
        x86::f16_to_f32(src, dst),
        scalar::f16_to_f32(src, dst)
    )
}

/// `C[m,n] = A·B` over strided views: `A(i,p) = a[i*a_rs + p*a_ks]`
/// (so `a_rs = lda, a_ks = 1` reads `A` and `a_rs = 1, a_ks = lda` reads
/// `Aᵀ`), `B(p,j) = b[p*ldb + j]`, `C(i,j) = c[i*ldc + j]`. A view is a
/// slice starting at the block's first element plus a leading
/// dimension, so a head of a fused QKV matrix or a row range of an
/// output needs no copy. `C` is overwritten; with `k == 0` it is zeroed.
///
/// Backend and FMA knob are resolved once, here; the backend then runs
/// its register-tile kernel over the whole problem (see
/// [`scalar::gemm`] for the canonical per-element chain).
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
    if gemm_is_trivial(m, n, k, c, ldc) {
        return;
    }
    assert!(view_fits(a.len(), m, a_rs, k, a_ks), "gemm: A view out of bounds");
    assert!(view_fits(b.len(), k, ldb, n, 1), "gemm: B view out of bounds");
    let fma = fma_enabled();
    dispatch!(
        x86::gemm(m, n, k, a, a_rs, a_ks, b, ldb, c, ldc, fma),
        scalar::gemm(m, n, k, a, a_rs, a_ks, b, ldb, c, ldc, fma)
    )
}

/// `C[m,n] = A·Bᵀ` over strided views: `A(i,p) = a[i*lda + p]`,
/// `B(j,p) = b[j*ldb + p]`, `C(i,j) = c[i*ldc + j]`. Every output is the
/// canonical 8-lane dot product ([`scalar::dot`]). `C` is overwritten;
/// with `k == 0` it is zeroed.
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
    if gemm_is_trivial(m, n, k, c, ldc) {
        return;
    }
    assert!(view_fits(a.len(), m, lda, k, 1), "gemm_nt: A view out of bounds");
    assert!(view_fits(b.len(), n, ldb, k, 1), "gemm_nt: B view out of bounds");
    let fma = fma_enabled();
    dispatch!(
        x86::gemm_nt(m, n, k, a, lda, b, ldb, c, ldc, fma),
        scalar::gemm_nt(m, n, k, a, lda, b, ldb, c, ldc, fma)
    )
}

/// True when the strided `rows`×`cols` view (both ≥ 1) with element
/// `(i, j)` at `i*rs + j*cs` lies inside a slice of `len` elements. The
/// SIMD backends index through raw pointers on the strength of this
/// check, so the span is computed without wrapping.
fn view_fits(len: usize, rows: usize, rs: usize, cols: usize, cs: usize) -> bool {
    let last = (rows - 1).checked_mul(rs).zip((cols - 1).checked_mul(cs));
    last.and_then(|(r, c)| r.checked_add(c)).is_some_and(|last| last < len)
}

/// Shared front of the GEMM entry points: checks the `C` view and
/// settles the shapes no kernel needs to see — an empty output, and
/// `k == 0`, where the product is all zeros. Returns true when it did;
/// otherwise `m`, `n`, `k` are all ≥ 1, which the backends rely on.
fn gemm_is_trivial(m: usize, n: usize, k: usize, c: &mut [f32], ldc: usize) -> bool {
    if m == 0 || n == 0 {
        return true;
    }
    assert!(ldc >= n && view_fits(c.len(), m, ldc, n, 1), "gemm: C view out of bounds");
    if k == 0 {
        for row in c.chunks_mut(ldc).take(m) {
            row[..n].fill(0.0);
        }
    }
    k == 0
}

/// Elementwise in-place `x[i] = e^{x[i]}` with the shared lane
/// polynomial ([`scalar::exp_one`]: argument clamped to 87 above, exactly
/// `+0.0` below −87): the exp kernel behind softmax and cross-entropy.
/// Bit-identical across backends like every other kernel here.
pub fn exp_slice(x: &mut [f32]) {
    dispatch!(x86::exp(x), scalar::exp(x))
}

/// Elementwise tanh-approximation GELU.
pub fn gelu_slice(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "gelu length mismatch");
    dispatch!(x86::gelu(x, out), scalar::gelu(x, out))
}

/// Elementwise GELU backward: `out[i] = dy[i] * gelu'(x[i])`.
pub fn gelu_grad_slice(x: &[f32], dy: &[f32], out: &mut [f32]) {
    assert!(x.len() == dy.len() && dy.len() == out.len(), "gelu_grad length mismatch");
    dispatch!(
        x86::gelu_grad(x, dy, out),
        scalar::gelu_grad(x, dy, out)
    )
}

/// One row of layer normalization; returns `(mean, rstd)`.
pub fn layernorm_row(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
) -> (f32, f32) {
    assert!(
        x.len() == gamma.len() && x.len() == beta.len() && x.len() == out.len(),
        "layernorm_row length mismatch"
    );
    dispatch!(
        x86::layernorm_row(x, gamma, beta, eps, out),
        scalar::layernorm_row(x, gamma, beta, eps, out)
    )
}

/// One row of the layer-norm backward pass. Accumulates into
/// `dgamma`/`dbeta` and writes `dx`.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_backward_row(
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
    assert!(
        dy.len() == n && gamma.len() == n && dx.len() == n && dgamma.len() == n && dbeta.len() == n,
        "layernorm_backward_row length mismatch"
    );
    dispatch!(
        x86::layernorm_backward_row(x, dy, gamma, mean, rstd, dx, dgamma, dbeta),
        scalar::layernorm_backward_row(x, dy, gamma, mean, rstd, dx, dgamma, dbeta)
    )
}

/// Hyperparameters for one Adam chunk update, with the per-step bias
/// corrections folded in. Shared by every backend.
#[derive(Debug, Clone, Copy)]
pub struct AdamParams {
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// `1 - β₁`.
    pub one_minus_beta1: f32,
    /// `1 - β₂`.
    pub one_minus_beta2: f32,
    /// Bias-correction denominator `1 - β₁^t`.
    pub bc1: f32,
    /// Bias-correction denominator `1 - β₂^t`.
    pub bc2: f32,
    /// Learning rate.
    pub lr: f32,
    /// Denominator epsilon.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
}

/// Elementwise Adam update of one chunk, optionally publishing the new
/// master values in the same pass.
pub fn adam_chunk(
    p: &AdamParams,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    publish: Option<&mut [f32]>,
) {
    let n = master.len();
    assert!(m.len() == n && v.len() == n && grad.len() == n, "adam_chunk length mismatch");
    if let Some(ref pb) = publish {
        assert_eq!(pb.len(), n, "adam_chunk publish length mismatch");
    }
    let fma = fma_enabled();
    dispatch!(
        x86::adam_chunk(p, master, m, v, grad, publish, fma),
        scalar::adam_chunk(p, master, m, v, grad, publish, fma)
    )
}

/// Canonical 8-lane sum of a slice (used by layernorm statistics).
pub fn vec_sum(x: &[f32]) -> f32 {
    dispatch!(x86::vec_sum(x), scalar::vec_sum(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_labels_round_trip_env_names() {
        assert_eq!(Backend::Scalar.label(), "scalar");
        assert_eq!(Backend::Avx2.label(), "avx2");
    }

    /// The dispatch gate: with no override in force the process runs the
    /// AVX2 kernels exactly when the CPU has them ([`avx2_supported`] is
    /// `is_x86_feature_detected!("avx2")`) and `ZI_SIMD` does not say
    /// otherwise — a dispatch layer stuck on scalar passes every
    /// bit-identity test, so this is the one place that would notice.
    /// One test owns the process-wide override; a second one reading
    /// `backend()` beside it would race.
    #[test]
    fn force_backend_overrides_and_clears() {
        force_backend(Some(Backend::Scalar));
        assert_eq!(backend(), Backend::Scalar);
        // Forcing a backend the CPU lacks degrades to scalar.
        force_backend(Some(Backend::Avx2));
        assert_eq!(backend() == Backend::Avx2, avx2_supported());
        force_backend(None);
        // `ZI_SIMD` outranks detection (CI's scalar-forced pass sets it);
        // a backend this build does not have is the scalar fallback.
        let env = std::env::var("ZI_SIMD").unwrap_or_default();
        let pinned_scalar = matches!(env.as_str(), "scalar" | "neon");
        assert_eq!(backend() == Backend::Avx2, avx2_supported() && !pinned_scalar);
    }

    #[test]
    fn fma_knob_defaults_off_and_forces_on() {
        force_fma(Some(false));
        assert!(!fma_enabled());
        force_fma(Some(true));
        // Honored unless the backend cannot fuse.
        if fma_supported(backend()) {
            assert!(fma_enabled());
        }
        force_fma(None);
    }
}
