//! Compute kernels for a GPT-like transformer.
//!
//! These are the "CUDA kernels" of the reproduction. The inner loops
//! are vectorized through the runtime-dispatched [`crate::simd`] layer
//! (AVX2 with a canonical scalar fallback — see DESIGN.md §10),
//! and large kernels are tiled across the bounded [`crate::pool`]
//! worker pool built on `zi-sync` primitives, so the scheduling is
//! model-checkable under `zi-check`. Each forward kernel has a matching
//! hand-derived backward. All backends produce bit-identical results by
//! construction; `ZI_SIMD=scalar` forces the fallback for debugging.
//!
//! # Parameter operands
//!
//! The operands a parameter feeds — the `B` of [`matmul`] and
//! [`matmul_nt`], the tables of [`embedding`], the bias of [`add_bias`]
//! and the γ/β of [`layernorm`] and [`layernorm_backward`] — may be fp16,
//! as the GPU tier stores a parameter. An fp16 operand is decoded a block
//! at a time into the calling thread's working buffer of
//! [`DECODE_BYTES`]: a GEMM splits its output rows over the kernel pool
//! in one dispatch, as for f32, and each row range decodes the blocks of
//! `B` it consumes into its own share of the buffer; an f32 operand is
//! read in place with no decode step. The decode is exact, so an fp16
//! operand gives the bits of its f32 decode.

use std::cell::RefCell;

use zi_types::{Error, Result};

use crate::pool;
use crate::simd;
use crate::tensor::{Elems, Tensor};

/// Threshold below which matmuls run sequentially (pool scheduling
/// overhead dominates for the tiny models used in tests).
const PAR_FLOP_THRESHOLD: usize = 1 << 18;

/// Elementwise kernels (gelu) go parallel above this element count.
const ELEMWISE_PAR_THRESHOLD: usize = 1 << 15;

/// Chunk size (elements) for parallel elementwise kernels.
const ELEMWISE_CHUNK: usize = 1 << 13;

/// Rows per pool task for the parallel layernorm forward.
const LN_ROWS_PER_TASK: usize = 8;

/// Bytes of the working buffer an fp16 operand is decoded into, a block
/// at a time: one buffer per thread that submits a kernel over one (a
/// training rank's), shared out among the row ranges of a GEMM, which the
/// training engine charges to the rank's GPU pool while a parameter is
/// gathered.
pub const DECODE_BYTES: usize = 128 * 1024;

/// [`DECODE_BYTES`] in f32 elements.
const DECODE_ELEMS: usize = DECODE_BYTES / 4;

thread_local! {
    /// This thread's decode working buffer, sized at its first use.
    static DECODED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `f` over this thread's decode working buffer, [`DECODE_ELEMS`] long.
/// No kernel calls another while it holds the buffer, and the pool runs
/// only the submitter's own tasks on it (which reach it through disjoint
/// shares, never through this borrow), so the borrow never nests.
fn with_decode_buffer<R>(f: impl FnOnce(&mut [f32]) -> R) -> R {
    DECODED.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.resize(DECODE_ELEMS, 0.0);
        f(&mut buf)
    })
}

/// The typed error for an fp16 operand piece the working buffer cannot
/// hold whole.
fn past_decode_buffer(what: &str, elems: usize) -> Error {
    Error::shape(format!(
        "{what}: {elems} fp16 elements needed at once, past the {DECODE_ELEMS}-element decode buffer"
    ))
}

/// `f` over `operands` as f32: an f32 one in place, the fp16 ones decoded
/// side by side into the working buffer, which must hold them all.
fn as_f32<const N: usize, R>(
    what: &str,
    operands: [Elems<'_>; N],
    f: impl FnOnce([&[f32]; N]) -> R,
) -> Result<R> {
    let halves: usize = operands.iter().filter(|e| matches!(e, Elems::F16(_))).map(Elems::len).sum();
    if halves > DECODE_ELEMS {
        return Err(past_decode_buffer(what, halves));
    }
    let decode = |buf: &mut [f32]| {
        let mut rest = buf;
        let views = operands.map(|operand| match operand {
            Elems::F32(v) => v,
            Elems::F16(h) => {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(h.len());
                simd::f16_to_f32_slice(h, head);
                rest = tail;
                &*head
            }
        });
        f(views)
    };
    if halves == 0 {
        return Ok(decode(&mut []));
    }
    Ok(with_decode_buffer(decode))
}

/// How many of an fp16 operand's `lines` (rows of `len` elements, or
/// columns of `len` rows) a share of `room` elements holds: all of them
/// when they fit, else whole register tiles' worth.
fn lines_per_block(what: &str, lines: usize, len: usize, room: usize) -> Result<usize> {
    let fit = room / len.max(1);
    if fit == 0 {
        return Err(past_decode_buffer(what, len));
    }
    let tile = simd::scalar::GEMM_NR;
    Ok(if fit >= lines { lines } else if fit >= tile { fit - fit % tile } else { fit })
}

/// How `for_row_ranges` splits `rows` output rows, `work` multiply-adds
/// each: rows per range, and whether the ranges go to the pool.
fn row_split(rows: usize, work: usize) -> (usize, bool) {
    let parallel = rows.saturating_mul(work) >= PAR_FLOP_THRESHOLD;
    let threads = if parallel { pool::global().workers() + 1 } else { 1 };
    // Whole register tiles per range, so only the last range has edge rows.
    (rows.div_ceil(threads).next_multiple_of(simd::scalar::GEMM_MR), parallel)
}

/// Run `gemm(first_row, block)` over the row-major `[rows, n]` output
/// `out`: as one call, or — when the FLOP volume `rows·work` (`work` the
/// multiply-adds of one row) clears the threshold and the pool has
/// workers — as one contiguous row range per participating thread
/// (workers + the submitter). Rows of a GEMM are independent, so the
/// split never changes a byte.
fn for_row_ranges<F>(out: &mut [f32], n: usize, work: usize, gemm: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        return;
    }
    let (per, parallel) = row_split(out.len() / n, work);
    pool::for_chunks(out, per * n, parallel, |i, block| gemm(i * per, block));
}

/// How a GEMM's `B` operand is laid out: `[n, k]` (`C = A·Bᵀ`, a block is
/// rows of `B`, contiguous) or `[k, n]` (`C = A·B`, a block is columns).
#[derive(Clone, Copy)]
enum BLayout {
    Rows,
    Cols,
}

/// [`for_row_ranges`] over a GEMM whose `B` (`n` output columns, `k` deep)
/// may be fp16: `gemm(first_row, j0, cols, bv, ldb, block)` computes the
/// output columns `[j0, j0 + cols)` of a row range from the `k × cols`
/// view `bv` of `B`. An f32 `B` is one block read in place. An fp16 one
/// is walked in blocks, each row range decoding the blocks it consumes
/// into its own share of the working buffer — in the one pool dispatch
/// of the GEMM, so a block costs no dispatch of its own.
fn for_b_blocks<G>(what: &str, out: &mut [f32], n: usize, k: usize, b: Elems<'_>, layout: BLayout, gemm: G) -> Result<()>
where
    G: Fn(usize, usize, usize, &[f32], usize, &mut [f32]) + Sync,
{
    let whole_ld = match layout {
        BLayout::Rows => k,
        BLayout::Cols => n,
    };
    let halves = match b {
        Elems::F32(bv) => {
            for_row_ranges(out, n, k * n, |row, block| gemm(row, 0, n, bv, whole_ld, block));
            return Ok(());
        }
        Elems::F16(halves) => halves,
    };
    if out.is_empty() {
        return Ok(());
    }
    let rows = out.len() / n;
    let (mut per, mut parallel) = row_split(rows, k * n);
    if k * rows.div_ceil(per) > DECODE_ELEMS {
        // Shares too small for one line each: one range takes it all, so
        // what fits never depends on the pool's width.
        (per, parallel) = (rows, false);
    }
    let share = DECODE_ELEMS / rows.div_ceil(per);
    let lines = lines_per_block(what, n, k, share)?;
    with_decode_buffer(|buf| {
        let shares = pool::SendPtr::new(buf.as_mut_ptr());
        pool::for_chunks(out, per * n, parallel, |i, block| {
            let row = i * per;
            // SAFETY: range `i` alone takes elements `[i·share,
            // (i+1)·share)` of the buffer, which the ranges never exceed
            // in number, and the buffer outlives the dispatch.
            let mine = unsafe { std::slice::from_raw_parts_mut(shares.get().add(i * share), share) };
            for j0 in (0..n).step_by(lines) {
                let cols = lines.min(n - j0);
                let bv = &mut mine[..k * cols];
                let ldb = match layout {
                    BLayout::Rows => {
                        simd::f16_to_f32_slice(&halves[j0 * k..(j0 + cols) * k], bv);
                        k
                    }
                    BLayout::Cols => {
                        simd::f16_to_f32_rows(&halves[j0..], n, k, cols, bv);
                        cols
                    }
                };
                gemm(row, j0, cols, bv, ldb, block);
            }
        });
    });
    Ok(())
}

/// `C[m,n] = A[m,k] * B[k,n]`. `B` may be fp16: decoded by blocks of
/// columns.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = a.as_2d();
    let (kb, n) = b.as_2d();
    if ka != kb {
        return Err(Error::shape(format!("matmul inner dims {ka} vs {kb}")));
    }
    let mut out = vec![0f32; m * n];
    let adata = a.data();
    for_b_blocks("matmul", &mut out, n, ka, b.elems(), BLayout::Cols, |row, j0, cols, bv, ldb, block| {
        let rows = block.len() / n;
        simd::gemm(rows, cols, ka, &adata[row * ka..], ka, 1, bv, ldb, &mut block[j0..], n);
    })?;
    Tensor::from_vec(&[m, n], out)
}

/// `C[m,n] = A[m,k] * B[n,k]^T` (B stored row-major as `[n,k]`).
///
/// This is the PyTorch `Linear` convention: `y = x W^T`. Both operands
/// are traversed unit-stride, so each output element is a SIMD dot
/// product. `B` may be fp16: decoded by blocks of rows.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = a.as_2d();
    let (n, kb) = b.as_2d();
    if ka != kb {
        return Err(Error::shape(format!("matmul_nt inner dims {ka} vs {kb}")));
    }
    let mut out = vec![0f32; m * n];
    let adata = a.data();
    for_b_blocks("matmul_nt", &mut out, n, ka, b.elems(), BLayout::Rows, |row, j0, rows, bv, ldb, block| {
        let m = block.len() / n;
        simd::gemm_nt(m, rows, ka, &adata[row * ka..], ka, bv, ldb, &mut block[j0..], n);
    })?;
    Tensor::from_vec(&[m, n], out)
}

/// `C[k,n] = A[m,k]^T * B[m,n]` — used for weight gradients (`dW = dy^T x`).
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.as_2d();
    let (mb, n) = b.as_2d();
    if m != mb {
        return Err(Error::shape(format!("matmul_tn outer dims {m} vs {mb}")));
    }
    let mut out = vec![0f32; k * n];
    let (adata, bdata) = (a.data(), b.data());
    // Output row `r` reads column `r` of A: the transposed view of the
    // same tile kernel `matmul` runs.
    for_row_ranges(&mut out, n, m * n, |row, block| {
        simd::gemm(block.len() / n, n, m, &adata[row..], 1, k, bdata, n, block, n);
    });
    Tensor::from_vec(&[k, n], out)
}

/// Add a bias row-vector (f32 or fp16) to every row of `x` in place.
pub fn add_bias<'b>(x: &mut Tensor, bias: impl Into<Elems<'b>>) -> Result<()> {
    let (_, n) = x.as_2d();
    let bias = bias.into();
    if bias.len() != n {
        return Err(Error::shape(format!("bias len {} vs row width {n}", bias.len())));
    }
    let rows = x.data_mut();
    as_f32("add_bias", [bias], |[bias]| {
        for row in rows.chunks_exact_mut(n) {
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    })
}

/// Token plus position embedding: row `r` of the result is row
/// `tokens[r]` of `table` (`[vocab, h]`) plus row `r % seq` of
/// `positions` (`[seq, h]`), either table f32 or fp16. A token row is
/// decoded straight into the output, a position row through the working
/// buffer.
pub fn embedding(table: &Tensor, positions: &Tensor, tokens: &[usize]) -> Result<Tensor> {
    let (vocab, h) = table.as_2d();
    let (seq, hp) = positions.as_2d();
    if hp != h || seq == 0 {
        return Err(Error::shape(format!("embedding: table width {h}, positions {:?}", positions.shape())));
    }
    let mut out = vec![0f32; tokens.len() * h];
    let (table, positions) = (table.elems(), positions.elems());
    for (r, (&tok, dst)) in tokens.iter().zip(out.chunks_exact_mut(h.max(1))).enumerate() {
        if tok >= vocab {
            return Err(Error::InvalidArgument(format!("token {tok} out of vocab {vocab}")));
        }
        table.decode_into(tok * h, dst);
        as_f32("embedding", [positions.slice((r % seq) * h, h)], |[pos]| {
            for (d, w) in dst.iter_mut().zip(pos) {
                *d += w;
            }
        })?;
    }
    Tensor::from_vec(&[tokens.len(), h], out)
}

/// Sum of each column — the bias gradient for a linear layer.
pub fn column_sums(x: &Tensor) -> Vec<f32> {
    let (_, n) = x.as_2d();
    let mut out = vec![0f32; n];
    for row in x.data().chunks_exact(n) {
        for (o, v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
    out
}

/// Elementwise GELU forward.
pub fn gelu(x: &Tensor) -> Tensor {
    let xd = x.data();
    let mut data = vec![0f32; xd.len()];
    pool::for_chunks(
        &mut data,
        ELEMWISE_CHUNK,
        xd.len() >= ELEMWISE_PAR_THRESHOLD,
        |i, out_chunk| {
            let start = i * ELEMWISE_CHUNK;
            simd::gelu_slice(&xd[start..start + out_chunk.len()], out_chunk);
        },
    );
    Tensor::from_vec(x.shape(), data).expect("same shape")
}

/// Elementwise GELU backward: `dx = dy * gelu'(x)`.
pub fn gelu_backward(x: &Tensor, dy: &Tensor) -> Result<Tensor> {
    if x.shape() != dy.shape() {
        return Err(Error::shape("gelu_backward shape mismatch"));
    }
    let xd = x.data();
    let dyd = dy.data();
    let mut data = vec![0f32; xd.len()];
    pool::for_chunks(
        &mut data,
        ELEMWISE_CHUNK,
        xd.len() >= ELEMWISE_PAR_THRESHOLD,
        |i, out_chunk| {
            let start = i * ELEMWISE_CHUNK;
            let end = start + out_chunk.len();
            simd::gelu_grad_slice(&xd[start..end], &dyd[start..end], out_chunk);
        },
    );
    Tensor::from_vec(x.shape(), data)
}

/// Saved statistics from a layer-norm forward pass, needed by its backward.
#[derive(Debug, Clone)]
pub struct LayerNormStats {
    /// Per-row mean.
    pub mean: Vec<f32>,
    /// Per-row reciprocal standard deviation.
    pub rstd: Vec<f32>,
}

/// Layer normalization over the last dimension with affine parameters
/// (each f32 or fp16).
pub fn layernorm<'p>(
    x: &Tensor,
    gamma: impl Into<Elems<'p>>,
    beta: impl Into<Elems<'p>>,
    eps: f32,
) -> Result<(Tensor, LayerNormStats)> {
    let (rows, n) = x.as_2d();
    let (gamma, beta) = (gamma.into(), beta.into());
    if gamma.len() != n || beta.len() != n {
        return Err(Error::shape(format!(
            "layernorm: width {n} but gamma {} beta {}",
            gamma.len(),
            beta.len()
        )));
    }
    let mut out = vec![0f32; rows * n];
    let mut mean = vec![0f32; rows];
    let mut rstd = vec![0f32; rows];
    let xd = x.data();
    let mean_ptr = pool::SendPtr::new(mean.as_mut_ptr());
    let rstd_ptr = pool::SendPtr::new(rstd.as_mut_ptr());
    as_f32("layernorm", [gamma, beta], |[gamma, beta]| {
        pool::for_chunks(
            &mut out,
            LN_ROWS_PER_TASK * n,
            rows * n >= ELEMWISE_PAR_THRESHOLD,
            |task, out_block| {
                let r0 = task * LN_ROWS_PER_TASK;
                for (i, row_out) in out_block.chunks_exact_mut(n).enumerate() {
                    let r = r0 + i;
                    let (m, rs) = simd::layernorm_row(&xd[r * n..(r + 1) * n], gamma, beta, eps, row_out);
                    // SAFETY: each task writes a disjoint range of rows.
                    unsafe {
                        *mean_ptr.get().add(r) = m;
                        *rstd_ptr.get().add(r) = rs;
                    }
                }
            },
        )
    })?;
    Ok((Tensor::from_vec(x.shape(), out)?, LayerNormStats { mean, rstd }))
}

/// Layer-norm backward (`gamma` f32 or fp16). Returns `(dx, dgamma,
/// dbeta)`.
///
/// Rows run sequentially (vectorized within each row) because
/// `dgamma`/`dbeta` accumulate across rows and their accumulation order
/// is part of the bit-identity contract.
pub fn layernorm_backward<'p>(
    x: &Tensor,
    dy: &Tensor,
    gamma: impl Into<Elems<'p>>,
    stats: &LayerNormStats,
) -> Result<(Tensor, Vec<f32>, Vec<f32>)> {
    let (rows, n) = x.as_2d();
    if dy.shape() != x.shape() {
        return Err(Error::shape("layernorm_backward shape mismatch"));
    }
    let mut dx = vec![0f32; rows * n];
    let mut dgamma = vec![0f32; n];
    let mut dbeta = vec![0f32; n];
    as_f32("layernorm_backward", [gamma.into()], |[gamma]| {
        for r in 0..rows {
            simd::layernorm_backward_row(
                &x.data()[r * n..(r + 1) * n],
                &dy.data()[r * n..(r + 1) * n],
                gamma,
                stats.mean[r],
                stats.rstd[r],
                &mut dx[r * n..(r + 1) * n],
                &mut dgamma,
                &mut dbeta,
            );
        }
    })?;
    Ok((Tensor::from_vec(x.shape(), dx)?, dgamma, dbeta))
}

/// Numerically stable softmax of one row, in place.
///
/// The exponentials go through [`simd::exp_slice`] — the shared lane
/// polynomial — so softmax (and [`cross_entropy`], which routes through
/// here) is bit-identical across SIMD backends like every other kernel.
/// An entry more than 87 below the row maximum (a `-inf` mask) comes out
/// exactly `0.0`, never a subnormal.
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for v in row.iter_mut() {
        *v -= max;
    }
    simd::exp_slice(row);
    let mut sum = 0f32;
    for &v in row.iter() {
        sum += v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Row-wise [`softmax_row`] over the last dimension, in place.
pub fn softmax_rows(x: &mut Tensor) {
    let (_, n) = x.as_2d();
    for row in x.data_mut().chunks_exact_mut(n) {
        softmax_row(row);
    }
}

/// Mean cross-entropy between row-wise logits and integer targets.
///
/// Returns `(loss, dlogits)` where `dlogits` is the gradient of the mean
/// loss with respect to the logits. Zero rows have no mean and are an
/// error.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> Result<(f32, Tensor)> {
    let (rows, n) = logits.as_2d();
    if targets.len() != rows {
        return Err(Error::shape(format!(
            "cross_entropy: {rows} rows but {} targets",
            targets.len()
        )));
    }
    if rows == 0 {
        return Err(Error::InvalidArgument("cross_entropy: no rows to average the loss over".into()));
    }
    let mut probs = logits.clone();
    softmax_rows(&mut probs);
    let mut loss = 0f32;
    let inv_rows = 1.0 / rows as f32;
    let mut grad = probs.clone();
    for (r, &t) in targets.iter().enumerate() {
        if t >= n {
            return Err(Error::InvalidArgument(format!("target {t} out of {n} classes")));
        }
        let p = probs.data()[r * n + t].max(1e-30);
        loss -= p.ln();
        grad.data_mut()[r * n + t] -= 1.0;
    }
    grad.scale(inv_rows);
    Ok((loss * inv_rows, grad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], v: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, v).unwrap()
    }

    #[test]
    fn matmul_small() {
        let a = t(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = t(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_shape_checked() {
        let a = t(&[2, 3], vec![0.; 6]);
        let b = t(&[2, 2], vec![0.; 4]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = t(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let w = t(&[4, 3], (0..12).map(|i| i as f32 * 0.5).collect());
        // Transpose w manually and compare.
        let mut wt = vec![0f32; 12];
        for i in 0..4 {
            for j in 0..3 {
                wt[j * 4 + i] = w.data()[i * 3 + j];
            }
        }
        let expect = matmul(&a, &t(&[3, 4], wt)).unwrap();
        let got = matmul_nt(&a, &w).unwrap();
        assert_eq!(got.shape(), expect.shape());
        for (g, e) in got.data().iter().zip(expect.data()) {
            assert!((g - e).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = t(&[3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let b = t(&[3, 4], (0..12).map(|i| i as f32).collect());
        let mut at = vec![0f32; 6];
        for i in 0..3 {
            for j in 0..2 {
                at[j * 3 + i] = a.data()[i * 2 + j];
            }
        }
        let expect = matmul(&t(&[2, 3], at), &b).unwrap();
        let got = matmul_tn(&a, &b).unwrap();
        assert_eq!(got.shape(), expect.shape());
        for (g, e) in got.data().iter().zip(expect.data()) {
            assert!((g - e).abs() < 1e-5);
        }
    }

    #[test]
    fn bias_and_column_sums() {
        let mut x = t(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        add_bias(&mut x, &[10., 20., 30.][..]).unwrap();
        assert_eq!(x.data(), &[11., 22., 33., 14., 25., 36.]);
        assert_eq!(column_sums(&x), vec![25., 47., 69.]);
        assert!(add_bias(&mut x, &[1., 2.][..]).is_err());
    }

    #[test]
    fn gelu_known_values() {
        assert!((simd::scalar::gelu_one(0.0)).abs() < 1e-7);
        assert!((simd::scalar::gelu_one(100.0) - 100.0).abs() < 1e-3);
        assert!(simd::scalar::gelu_one(-100.0).abs() < 1e-3);
        // gelu(1) ≈ 0.8412
        assert!((simd::scalar::gelu_one(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_polynomial_tracks_libm_tanh() {
        // The shared-polynomial tanh must stay within float tolerance of
        // the libm reference across the active range.
        const C: f32 = 0.797_884_6;
        let mut x = -8.0f32;
        while x <= 8.0 {
            let reference = 0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh());
            let got = simd::scalar::gelu_one(x);
            assert!(
                (got - reference).abs() <= 2e-6 * (1.0 + reference.abs()),
                "x={x}: {got} vs {reference}"
            );
            x += 0.0137;
        }
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let fd = (simd::scalar::gelu_one(x + h) - simd::scalar::gelu_one(x - h)) / (2.0 * h);
            assert!((simd::scalar::gelu_grad_one(x) - fd).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let x = t(&[2, 4], vec![1., 2., 3., 4., -1., 0., 1., 2.]);
        let gamma = vec![1.0; 4];
        let beta = vec![0.0; 4];
        let (y, _) = layernorm(&x, &gamma, &beta, 1e-5).unwrap();
        for row in y.data().chunks(4) {
            let m: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / 4.0;
            assert!(m.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_backward_matches_finite_difference() {
        let n = 5;
        let x = Tensor::randn_seeded(&[2, n], 7, 1.0);
        let gamma: Vec<f32> = (0..n).map(|i| 0.5 + i as f32 * 0.1).collect();
        let beta: Vec<f32> = (0..n).map(|i| i as f32 * 0.05).collect();
        let dy = Tensor::randn_seeded(&[2, n], 13, 1.0);
        let (_, stats) = layernorm(&x, &gamma, &beta, 1e-5).unwrap();
        let (dx, dgamma, dbeta) = layernorm_backward(&x, &dy, &gamma, &stats).unwrap();

        let loss = |xx: &Tensor, gg: &[f32], bb: &[f32]| -> f32 {
            let (y, _) = layernorm(xx, gg, bb, 1e-5).unwrap();
            y.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum()
        };
        let h = 1e-3;
        // Check a few dx entries.
        for idx in [0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += h;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= h;
            let fd = (loss(&xp, &gamma, &beta) - loss(&xm, &gamma, &beta)) / (2.0 * h);
            assert!((dx.data()[idx] - fd).abs() < 1e-2, "dx[{idx}] {} vs {fd}", dx.data()[idx]);
        }
        // And dgamma/dbeta entries.
        for idx in [0usize, 2, 4] {
            let mut gp = gamma.clone();
            gp[idx] += h;
            let mut gm = gamma.clone();
            gm[idx] -= h;
            let fd = (loss(&x, &gp, &beta) - loss(&x, &gm, &beta)) / (2.0 * h);
            assert!((dgamma[idx] - fd).abs() < 1e-2);

            let mut bp = beta.clone();
            bp[idx] += h;
            let mut bm = beta.clone();
            bm[idx] -= h;
            let fd = (loss(&x, &gamma, &bp) - loss(&x, &gamma, &bm)) / (2.0 * h);
            assert!((dbeta[idx] - fd).abs() < 1e-2);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut x = t(&[2, 3], vec![1., 2., 3., 1000., 1000., 1000.]);
        softmax_rows(&mut x);
        for row in x.data().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| p.is_finite() && p >= 0.0));
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Tensor::randn_seeded(&[3, 4], 11, 1.0);
        let targets = [1usize, 3, 0];
        let (_, grad) = cross_entropy(&logits, &targets).unwrap();
        let h = 1e-3;
        for idx in [0usize, 5, 11] {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += h;
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= h;
            let (lp_loss, _) = cross_entropy(&lp, &targets).unwrap();
            let (lm_loss, _) = cross_entropy(&lm, &targets).unwrap();
            let fd = (lp_loss - lm_loss) / (2.0 * h);
            assert!((grad.data()[idx] - fd).abs() < 1e-3);
        }
    }

    #[test]
    fn cross_entropy_validates_targets() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(cross_entropy(&logits, &[0]).is_err());
        assert!(cross_entropy(&logits, &[0, 9]).is_err());
    }

    #[test]
    fn cross_entropy_of_zero_rows_is_an_error_not_a_nan() {
        // The mean over no rows would be 0 · (1/0) = NaN.
        let logits = Tensor::zeros(&[0, 3]);
        assert!(matches!(cross_entropy(&logits, &[]), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn parallel_and_sequential_matmul_agree() {
        // Force a size above the threshold and compare against a manual
        // triple loop.
        let m = 64;
        let k = 64;
        let n = 80;
        let a = Tensor::randn_seeded(&[m, k], 3, 1.0);
        let b = Tensor::randn_seeded(&[k, n], 4, 1.0);
        let c = matmul(&a, &b).unwrap();
        for &(i, j) in &[(0usize, 0usize), (m - 1, n - 1), (17, 33)] {
            let mut acc = 0f32;
            for kk in 0..k {
                acc += a.data()[i * k + kk] * b.data()[kk * n + j];
            }
            assert!((c.data()[i * n + j] - acc).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_handles_zero_rows_densely() {
        // The old kernels skipped zero multiplicands; the SIMD kernels
        // must handle all-zero and sparse inputs just as correctly.
        let m = 9;
        let k = 33;
        let n = 17;
        let mut av = vec![0f32; m * k];
        // Leave row 0 and column 3 zero, scatter values elsewhere.
        for i in 1..m {
            for kk in 0..k {
                if kk != 3 {
                    av[i * k + kk] = (i * 31 + kk * 7) as f32 * 0.01 - 1.5;
                }
            }
        }
        let a = t(&[m, k], av);
        let b = Tensor::randn_seeded(&[k, n], 21, 1.0);
        let c = matmul(&a, &b).unwrap();
        let mut expect = vec![0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let v = a.data()[i * k + kk];
                for j in 0..n {
                    expect[i * n + j] += v * b.data()[kk * n + j];
                }
            }
        }
        for (g, e) in c.data().iter().zip(&expect) {
            assert!((g - e).abs() < 1e-4);
        }
        assert!(c.data()[..n].iter().all(|&v| v == 0.0), "zero row stays zero");
    }

    #[test]
    fn matmul_matches_naive_on_awkward_sizes() {
        // Sizes straddling tile, vector and k-panel boundaries: 1, exact
        // multiples, off-by-one, and k past one panel of the AVX2 driver.
        for &(m, k, n) in
            &[(1usize, 65usize, 3usize), (64, 64, 64), (65, 127, 66), (3, 200, 5), (7, 600, 41)]
        {
            let a = Tensor::randn_seeded(&[m, k], 11, 1.0);
            let b = Tensor::randn_seeded(&[k, n], 13, 1.0);
            let got = matmul(&a, &b).unwrap();
            let mut expect = vec![0f32; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let av = a.data()[i * k + kk];
                    for j in 0..n {
                        expect[i * n + j] += av * b.data()[kk * n + j];
                    }
                }
            }
            for (g, e) in got.data().iter().zip(&expect) {
                assert!((g - e).abs() < 1e-3, "({m},{k},{n})");
            }
        }
    }
}
