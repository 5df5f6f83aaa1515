//! Runtime-dispatched SIMD kernel layer.
//!
//! Every bulk numeric kernel in the workspace (f16↔f32 conversion, the
//! GEMM tile kernels, gelu/layernorm row kernels, the fused Adam update,
//! the CRC32-C checksum) funnels through this module, which selects an
//! instruction-set backend once at startup and dispatches each call to
//! it:
//!
//! * **`Backend::Avx2`** — 256-bit `std::arch` kernels on x86_64 when the
//!   CPU reports AVX2, F16C and SSE 4.2.
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
//! 2. **No FMA contraction.** A fused multiply-add rounds once where a
//!    multiply then an add rounds twice, so the two give different bits.
//!    Every kernel rounds the product before the add; there is one
//!    numerics mode and no knob.
//!
//! Transcendentals (`gelu`'s tanh) use a shared polynomial
//! ([`scalar::tanh_approx`]) built from exactly-rounded ops in a fixed
//! order, never `libm`, so they are bit-identical across backends too.
//!
//! # Forcing a backend
//!
//! `ZI_SIMD=scalar|avx2|auto` pins the selection at startup (an
//! unsupported choice falls back to scalar); tests and benches can also
//! call [`force_backend`] to switch at runtime.

use zi_sync::atomic::{AtomicU8, Ordering};
use zi_sync::OnceLock;

use zi_types::DType;

use crate::f16::F16;

pub mod scalar;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

/// Virtual lane count every backend's reductions are defined over.
pub(crate) const LANES: usize = 8;

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

/// True when this CPU can run the [`Backend::Avx2`] kernels: AVX2 for
/// the vector bodies, F16C for the half conversions and SSE 4.2 for the
/// `crc32` instruction. A CPU that lacks any of them runs the scalar
/// kernels.
pub(crate) fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("f16c")
            && std::arch::is_x86_feature_detected!("sse4.2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
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

// ---------------------------------------------------------------------------
// Dispatching kernels. Each wrapper validates lengths once, then routes
// to the selected backend; `_ =>` lands on scalar, which is always
// correct (the canonical semantics).

macro_rules! dispatch {
    ($avx2:expr, $scalar:expr) => {{
        match backend() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `backend()` only returns Avx2 when CPUID reports
            // AVX2, F16C and SSE 4.2.
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

/// Exact f16 → f32 conversion of the `rows × cols` view `A(i, j) =
/// src[i*ld + j]` into `dst`, row-major and packed (`ld = cols`): a block
/// of columns of a wider fp16 matrix, one dispatch for all its rows.
pub fn f16_to_f32_rows(src: &[F16], ld: usize, rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(dst.len(), rows * cols, "f16→f32 block length mismatch");
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(ld >= cols && view_fits(src.len(), rows, ld, cols, 1), "f16→f32 block out of bounds");
    let lines = dst.chunks_exact_mut(cols).enumerate().map(|(i, out)| (&src[i * ld..i * ld + cols], out));
    dispatch!(
        lines.for_each(|(src, out)| x86::f16_to_f32(src, out)),
        lines.for_each(|(src, out)| scalar::f16_to_f32(src, out))
    )
}

/// `C[m,n] = A·B` over strided views: `A(i,p) = a[i*a_rs + p*a_ks]`
/// (so `a_rs = lda, a_ks = 1` reads `A` and `a_rs = 1, a_ks = lda` reads
/// `Aᵀ`), `B(p,j) = b[p*ldb + j]`, `C(i,j) = c[i*ldc + j]`. A view is a
/// slice starting at the block's first element plus a leading
/// dimension, so a head of a fused QKV matrix or a row range of an
/// output needs no copy. `C` is overwritten; with `k == 0` it is zeroed.
///
/// The backend is resolved once, here; it then runs its register-tile
/// kernel over the whole problem (see [`scalar::gemm`] for the canonical
/// per-element chain).
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
    dispatch!(
        x86::gemm(m, n, k, a, a_rs, a_ks, b, ldb, c, ldc),
        scalar::gemm(m, n, k, a, a_rs, a_ks, b, ldb, c, ldc)
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
    dispatch!(
        x86::gemm_nt(m, n, k, a, lda, b, ldb, c, ldc),
        scalar::gemm_nt(m, n, k, a, lda, b, ldb, c, ldc)
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
pub(crate) fn gelu_slice(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "gelu length mismatch");
    dispatch!(x86::gelu(x, out), scalar::gelu(x, out))
}

/// Elementwise GELU backward: `out[i] = dy[i] * gelu'(x[i])`.
pub(crate) fn gelu_grad_slice(x: &[f32], dy: &[f32], out: &mut [f32]) {
    assert!(x.len() == dy.len() && dy.len() == out.len(), "gelu_grad length mismatch");
    dispatch!(
        x86::gelu_grad(x, dy, out),
        scalar::gelu_grad(x, dy, out)
    )
}

/// One row of layer normalization; returns `(mean, rstd)`.
pub(crate) fn layernorm_row(
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
    assert!(
        dy.len() == n && gamma.len() == n && dx.len() == n && dgamma.len() == n && dbeta.len() == n,
        "layernorm_backward_row length mismatch"
    );
    dispatch!(
        x86::layernorm_backward_row(x, dy, gamma, mean, rstd, dx, dgamma, dbeta),
        scalar::layernorm_backward_row(x, dy, gamma, mean, rstd, dx, dgamma, dbeta)
    )
}

/// How the Adam kernel turns an accumulated gradient into the average
/// it applies: the sum over `count` contributions (ranks × accumulated
/// micro-batches) divided by `count`, element by element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GradScale {
    /// One contribution: the gradient as it is.
    One,
    /// Multiply by the exact reciprocal of a power-of-two count.
    Mul(f32),
    /// Divide by the count.
    Div(f32),
}

impl GradScale {
    /// The average over `count` contributions. `x·2⁻ᵏ` and `x / 2ᵏ` are
    /// the same correctly rounded value, so a power-of-two count costs a
    /// multiply instead of a divide; `x / 1` is `x`, so one contribution
    /// costs nothing. Either way every bit equals `x / count`.
    pub fn average_over(count: f32) -> GradScale {
        let recip = 1.0 / count;
        if count == 1.0 {
            GradScale::One
        } else if count.is_normal() && count.to_bits() & 0x007f_ffff == 0 && recip.is_normal() {
            GradScale::Mul(recip)
        } else {
            GradScale::Div(count)
        }
    }

    /// `g` scaled: the one scalar definition every backend mirrors.
    #[inline(always)]
    pub fn apply(self, g: f32) -> f32 {
        match self {
            GradScale::One => g,
            GradScale::Mul(r) => g * r,
            GradScale::Div(d) => g / d,
        }
    }
}

/// Hyperparameters for one Adam chunk update, with the per-step bias
/// corrections and gradient average folded in. Shared by every backend.
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
    /// Applied to each gradient element before the update.
    pub grad_scale: GradScale,
}

/// Where [`adam_chunk`] also writes the updated master values.
pub enum PublishTo<'a> {
    /// Nowhere.
    None,
    /// A copy in fp32.
    F32(&'a mut [f32]),
    /// Converted to fp16, bit-identical to [`F16::from_f32`].
    F16(&'a mut [F16]),
}

impl<'a> PublishTo<'a> {
    /// The kernel's view of `bytes`, the storage of values in `dtype`;
    /// `None` when they cannot be viewed in place (misaligned, or a
    /// big-endian target).
    pub fn encoded(dtype: DType, bytes: &'a mut [u8]) -> Option<PublishTo<'a>> {
        match dtype {
            DType::F32 => crate::storage::bytes_as_f32_mut(bytes).map(PublishTo::F32),
            DType::F16 => crate::storage::bytes_as_f16_mut(bytes).map(PublishTo::F16),
        }
    }

    fn len(&self) -> Option<usize> {
        match self {
            PublishTo::None => None,
            PublishTo::F32(out) => Some(out.len()),
            PublishTo::F16(out) => Some(out.len()),
        }
    }
}

/// Elementwise Adam update of one chunk in one pass over its bytes: each
/// gradient scaled by `p.grad_scale`, master, momentum and variance
/// updated in place, the new masters also written to `publish`, and —
/// with `crcs` — the running CRC32-C of each stream (`[master, m, v,
/// publish]`, each the [`crc32`] of the stream's bytes so far, 0 for
/// none) extended over the bytes just stored, exactly as
/// [`crc32_update`] over each slice afterwards would. A streamed
/// optimizer record so checksums its write without reading it again.
pub fn adam_chunk(
    p: &AdamParams,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    publish: PublishTo<'_>,
    crcs: Option<&mut [u32; 4]>,
) {
    let n = master.len();
    assert!(m.len() == n && v.len() == n && grad.len() == n, "adam_chunk length mismatch");
    assert!(publish.len().is_none_or(|len| len == n), "adam_chunk publish length mismatch");
    dispatch!(
        x86::adam_chunk(p, master, m, v, grad, publish, crcs),
        scalar::adam_chunk(p, master, m, v, grad, publish, crcs)
    )
}

/// CRC32-C of `data` (Castagnoli, reflected polynomial 0x82F63B78, as
/// used by iSCSI, ext4 and btrfs) — chosen over the zip/png CRC32
/// because x86-64 runs it in hardware (the SSE 4.2 `crc32` instruction),
/// which keeps verifying a read a small fraction of the copy it already
/// paid. Every backend computes the same function; the on-device format
/// of `zi-nvme`'s checkpoint store depends on it.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extend a CRC32-C over more bytes: `crc` is the checksum of everything
/// before `data` (0 for nothing), the result the checksum of both — so
/// an extent written as in-order chunks gets the same whole-extent CRC
/// as one written at once, without a second pass over it.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    dispatch!(x86::crc32c(crc, data), scalar::crc32c(crc, data))
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
    /// AVX2 kernels exactly when the CPU has them ([`avx2_supported`]:
    /// AVX2, F16C and SSE 4.2 all detected) and `ZI_SIMD` does not say
    /// otherwise — a dispatch layer stuck on scalar passes every
    /// bit-identity test, so this is the one place that would notice.
    /// One test owns the process-wide override; a second one reading
    /// `backend()` beside it would race.
    #[test]
    fn force_backend_overrides_and_clears() {
        #[cfg(target_arch = "x86_64")]
        if avx2_supported() {
            assert!(std::arch::is_x86_feature_detected!("f16c"));
            assert!(std::arch::is_x86_feature_detected!("sse4.2"));
        }
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

    /// Reference byte-at-a-time CRC32-C.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let t = &scalar::crc_tables()[0];
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = t[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    /// A CRC32-C implementation: `crc_update(crc, data)`.
    type CrcFn = fn(u32, &[u8]) -> u32;

    /// Every CRC32-C this CPU can run, by name: the canonical software
    /// path, the dispatched one, and the `crc32`-instruction path itself
    /// when the CPU has it (whatever `ZI_SIMD` selects).
    fn crc_paths() -> Vec<(&'static str, CrcFn)> {
        let mut paths: Vec<(&'static str, CrcFn)> =
            vec![("scalar", scalar::crc32c), ("dispatch", crc32_update)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: feature presence checked immediately above.
            paths.push(("sse4.2", |crc, data| unsafe { x86::crc32c(crc, data) }));
        }
        paths
    }

    /// Deterministic pseudo-random bytes.
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC32-C check values (RFC 3720 appendix B.4 et al.).
        for (name, crc) in crc_paths() {
            assert_eq!(crc(0, b"123456789"), 0xe306_9283, "{name}");
            assert_eq!(crc(0, b""), 0, "{name}");
            assert_eq!(crc(0, &[0u8; 32]), 0x8a91_36aa, "{name}");
            assert_eq!(crc(0, &[0xffu8; 32]), 0x62a8_ab43, "{name}");
        }
        assert_eq!(crc32(b"123456789"), 0xe306_9283);
    }

    #[test]
    fn crc32_interleaved_lanes_match_the_bytewise_reference() {
        // Every length through several short-lane triples and tails ...
        let data = noise(4096, 1);
        for len in 0..=4096 {
            let want = crc32c_bytewise(&data[..len]);
            for (name, crc) in crc_paths() {
                assert_eq!(crc(0, &data[..len]), want, "{name} len {len}");
            }
        }
        // ... and a spread of long ones: long-lane triples, then short
        // ones, then the single-stream tail, at odd alignments.
        let big = noise((4 << 20) + 5, 2);
        let mut state = 3u64;
        let mut lens = vec![3 * 8192 - 1, 3 * 8192, 3 * 8192 + 1, 6 * 8192 + 3 * 256 + 7, 4 << 20];
        for _ in 0..8 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lens.push((state >> 33) as usize % (4 << 20));
        }
        for len in lens {
            let at = len % 5;
            let slice = &big[at..at + len];
            let want = crc32c_bytewise(slice);
            for (name, crc) in crc_paths() {
                assert_eq!(crc(0, slice), want, "{name} len {len} at offset {at}");
            }
        }
    }

    #[test]
    fn crc32_update_split_at_every_offset_equals_the_one_shot_checksum() {
        let data = noise(1024, 4);
        let whole = crc32c_bytewise(&data);
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            for (name, crc) in crc_paths() {
                assert_eq!(crc(crc(0, a), b), whole, "{name} cut at {cut}");
            }
        }
        // A long buffer cut inside and between its lanes.
        let data = noise(3 * 8192 + 3 * 256 + 11, 5);
        let whole = crc32c_bytewise(&data);
        for cut in [1, 255, 256, 8191, 8192, 8193, 2 * 8192, 3 * 8192, 3 * 8192 + 300, data.len() - 1] {
            let (a, b) = data.split_at(cut);
            for (name, crc) in crc_paths() {
                assert_eq!(crc(crc(0, a), b), whole, "{name} cut at {cut}");
            }
        }
    }

    #[test]
    fn crc32_chunked_updates_equal_the_one_shot_checksum() {
        let data: Vec<u8> = (0..4099u32).map(|i| (i.wrapping_mul(131) >> 2) as u8).collect();
        let whole = crc32(&data);
        for chunk in [1usize, 7, 8, 64, 1000, 4099] {
            for (name, crc) in crc_paths() {
                assert_eq!(data.chunks(chunk).fold(0, crc), whole, "{name} chunk size {chunk}");
            }
        }
        assert_eq!(crc32_update(whole, &[]), whole, "empty update is the identity");
    }

    #[test]
    fn crc32_is_sensitive_to_single_bit_flips() {
        let clean = vec![0x5au8; 4096];
        let base = crc32(&clean);
        for byte in [0usize, 1, 2047, 4095] {
            for bit in 0..8 {
                let mut dirty = clean.clone();
                dirty[byte] ^= 1 << bit;
                assert_ne!(crc32(&dirty), base, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn grad_scale_average_equals_division_bit_for_bit() {
        assert_eq!(GradScale::average_over(1.0), GradScale::One);
        assert_eq!(GradScale::average_over(8.0), GradScale::Mul(0.125));
        assert_eq!(GradScale::average_over(3.0), GradScale::Div(3.0));
        let mut xs: Vec<f32> = noise(4 * 4096, 6)
            .as_chunks::<4>()
            .0
            .iter()
            .map(|b| f32::from_le_bytes(*b))
            .filter(|x| x.is_finite())
            .collect();
        xs.extend([0.0, -0.0, f32::MAX, f32::MIN_POSITIVE, f32::from_bits(1), -f32::from_bits(3)]);
        for count in [1.0f32, 2.0, 3.0, 4.0, 6.0, 8.0, 64.0, 1024.0] {
            let scale = GradScale::average_over(count);
            for &x in &xs {
                assert_eq!(scale.apply(x).to_bits(), (x / count).to_bits(), "{x:e} / {count}");
            }
        }
    }

    /// `PAD` sentinel NaNs on either side of every slice a kernel is
    /// handed: a read past its end sees a NaN, a write past it breaks a
    /// sentinel.
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

    /// The slice inside a padded buffer.
    fn inner(buf: &[f32]) -> &[f32] {
        &buf[PAD..buf.len() - PAD]
    }

    fn inner_mut(buf: &mut [f32]) -> &mut [f32] {
        let end = buf.len() - PAD;
        &mut buf[PAD..end]
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// `n` values in [-4, 4), and with `hostile` every third one a NaN
    /// (two payloads), an infinity, an f32 subnormal or a signed zero.
    fn inputs(n: usize, seed: u64, hostile: bool) -> Vec<f32> {
        let specials = [
            f32::NAN,
            f32::from_bits(0xffc0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 2.0,
            0.0,
            -0.0,
        ];
        let bytes = noise(4 * n, seed);
        let value = |i: usize| {
            let word = u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap());
            (word >> 8) as f32 / (1u32 << 21) as f32 - 4.0
        };
        (0..n)
            .map(|i| {
                if hostile && i % 3 == 1 { specials[(i / 3) % specials.len()] } else { value(i) }
            })
            .collect()
    }

    /// Every length through the vector tails, and one hidden-size row.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=33).chain([256])
    }

    /// `run` on the scalar kernels and, when this CPU has them, on the
    /// AVX2 ones (`run(true)`): the same bits.
    fn on_both_backends<T: PartialEq + std::fmt::Debug>(what: &str, run: impl Fn(bool) -> T) {
        let scalar = run(false);
        #[cfg(target_arch = "x86_64")]
        if avx2_supported() {
            assert_eq!(run(true), scalar, "{what}: the backends differ");
        }
    }

    #[test]
    fn gelu_kernels_stay_in_their_slices_and_agree_bit_for_bit() {
        for (n, hostile) in lengths().flat_map(|n| [(n, false), (n, true)]) {
            let [x, dy] = [1, 2].map(|seed| padded_f32s(&inputs(n, seed, hostile)));
            let tag = format!("n={n} hostile={hostile}");
            on_both_backends(&format!("gelu {tag}"), |avx2| {
                let mut out = padded_f32s(&vec![0.0; n]);
                match avx2 {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `on_both_backends` passes `true` only when
                    // `avx2_supported()`.
                    true => unsafe { x86::gelu(inner(&x), inner_mut(&mut out)) },
                    _ => scalar::gelu(inner(&x), inner_mut(&mut out)),
                }
                assert_pads_intact(&out, &format!("gelu {tag} avx2={avx2}"));
                bits(inner(&out))
            });
            on_both_backends(&format!("gelu backward {tag}"), |avx2| {
                let mut out = padded_f32s(&vec![0.0; n]);
                match avx2 {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: as above.
                    true => unsafe { x86::gelu_grad(inner(&x), inner(&dy), inner_mut(&mut out)) },
                    _ => scalar::gelu_grad(inner(&x), inner(&dy), inner_mut(&mut out)),
                }
                assert_pads_intact(&out, &format!("gelu backward {tag} avx2={avx2}"));
                bits(inner(&out))
            });
        }
    }

    #[test]
    fn layernorm_kernels_stay_in_their_slices_and_agree_bit_for_bit() {
        for (n, hostile) in lengths().flat_map(|n| [(n, false), (n, true)]) {
            let [x, gamma, beta, dy] =
                [3, 4, 5, 6].map(|seed| padded_f32s(&inputs(n, seed, hostile)));
            let tag = format!("n={n} hostile={hostile}");
            on_both_backends(&format!("layernorm {tag}"), |avx2| {
                let mut out = padded_f32s(&vec![0.0; n]);
                let (xs, g, b, o) = (inner(&x), inner(&gamma), inner(&beta), inner_mut(&mut out));
                let (mean, rstd) = match avx2 {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: as in the GELU test.
                    true => unsafe { x86::layernorm_row(xs, g, b, 1e-5, o) },
                    _ => scalar::layernorm_row(xs, g, b, 1e-5, o),
                };
                assert_pads_intact(&out, &format!("layernorm {tag} avx2={avx2}"));
                // The backward pass, from these statistics, into zeroed
                // parameter gradients.
                let [mut dx, mut dgamma, mut dbeta] = [0; 3].map(|_| padded_f32s(&vec![0.0; n]));
                let (dys, dxs) = (inner(&dy), inner_mut(&mut dx));
                let (dg, db) = (inner_mut(&mut dgamma), inner_mut(&mut dbeta));
                match avx2 {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: as above.
                    true => unsafe {
                        x86::layernorm_backward_row(xs, dys, g, mean, rstd, dxs, dg, db)
                    },
                    _ => scalar::layernorm_backward_row(xs, dys, g, mean, rstd, dxs, dg, db),
                }
                for (buf, name) in [(&dx, "dx"), (&dgamma, "dgamma"), (&dbeta, "dbeta")] {
                    assert_pads_intact(buf, &format!("layernorm {name} {tag} avx2={avx2}"));
                }
                let grads = [&dx, &dgamma, &dbeta].map(|buf| bits(inner(buf)));
                (bits(inner(&out)), mean.to_bits(), rstd.to_bits(), grads)
            });
        }
    }
}
