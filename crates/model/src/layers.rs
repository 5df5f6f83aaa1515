//! Transformer layers with hand-derived backward passes.
//!
//! Layers are pure functions over explicitly passed parameter tensors;
//! [`crate::param::Bracket`] gathers those tensors for the runner in
//! [`crate::gpt`]. Parameter/gradient vectors use a fixed documented
//! order so the bracket can zip them with a module's `ParamId`s.

use zi_tensor::{ops, simd, Tensor};
use zi_types::{Error, Result};

/// Shape configuration shared by all blocks of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockConfig {
    /// Hidden dimension (`hd` in the paper).
    pub hidden: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Micro-batch size.
    pub batch: usize,
    /// Sequence length.
    pub seq: usize,
}

impl BlockConfig {
    /// Per-head dimension.
    pub(crate) fn head_dim(&self) -> usize {
        assert!(self.hidden.is_multiple_of(self.heads), "hidden must divide by heads");
        self.hidden / self.heads
    }

    /// Rows of the token matrix (`batch * seq`).
    pub fn rows(&self) -> usize {
        self.batch * self.seq
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// `y = x W^T + b` with `W: [out, in]` (PyTorch convention).
pub(crate) fn linear_forward(w: &Tensor, b: &Tensor, x: &Tensor) -> Result<Tensor> {
    let mut y = ops::matmul_nt(x, w)?;
    ops::add_bias(&mut y, b.data())?;
    Ok(y)
}

/// Backward of [`linear_forward`]; returns `(dx, dw, db)`.
pub(crate) fn linear_backward(w: &Tensor, x: &Tensor, dy: &Tensor) -> Result<(Tensor, Tensor, Tensor)> {
    let dx = ops::matmul(dy, w)?;
    let dw = ops::matmul_tn(dy, x)?;
    let db = Tensor::from_vec(&[w.shape()[0]], ops::column_sums(dy))?;
    Ok((dx, dw, db))
}

// ---------------------------------------------------------------------------
// Causal multi-head self-attention
// ---------------------------------------------------------------------------

/// Activations saved by the attention forward pass for its backward.
#[derive(Debug, Clone)]
pub(crate) struct AttnSaved {
    /// Input to the fused QKV projection.
    x: Tensor,
    /// Fused QKV output `[rows, 3*hidden]`.
    qkv: Tensor,
    /// Post-softmax attention probabilities, one `[seq, seq]` tensor per
    /// `(batch, head)` pair in row-major `(b, h)` order; the masked upper
    /// triangle is exactly zero.
    probs: Vec<Tensor>,
    /// Concatenated per-head context `[rows, hidden]` (input to out-proj).
    context: Tensor,
}

/// Query rows per kernel call. Causal row `i` attends to keys `0..=i`
/// only, so the rows `[i0, i0 + R)` run their GEMMs over the first
/// `i0 + R` keys and nothing to the right of the block is computed,
/// multiplied or accumulated. Inside the block's own `R` columns the
/// masked probabilities are exact zeros (a `±0` product never changes a
/// non-zero accumulator), which is what the rounding-up to `R` costs.
const ATTN_ROW_BLOCK: usize = 8;

/// Offset of head `h` of batch `b` in a `[rows, width]` matrix whose
/// heads sit side by side in `dh`-column groups: the `[seq, dh]` block
/// is the strided view starting here with leading dimension `width`.
fn head_offset(cfg: &BlockConfig, width: usize, b: usize, h: usize) -> usize {
    b * cfg.seq * width + h * cfg.head_dim()
}

/// Per-head causal `softmax(Q Kᵀ / √dh) V` over the fused `qkv`
/// (`[rows, 3*hidden]`, read in place through strided views). Returns
/// the concatenated context `[rows, hidden]` and one `[seq, seq]`
/// probability matrix per `(batch, head)` whose upper triangle is
/// exactly zero.
fn attention_heads_forward(cfg: &BlockConfig, qkv: &Tensor) -> (Tensor, Vec<Tensor>) {
    let (d, dh, seq) = (cfg.hidden, cfg.head_dim(), cfg.seq);
    let ld = 3 * d;
    let scale = 1.0 / (dh as f32).sqrt();
    let qkv = qkv.data();
    let mut context = Tensor::zeros(&[cfg.rows(), d]);
    let mut probs = Vec::with_capacity(cfg.batch * cfg.heads);
    for b in 0..cfg.batch {
        for h in 0..cfg.heads {
            let at = head_offset(cfg, ld, b, h);
            let (q, k, v) = (&qkv[at..], &qkv[at + d..], &qkv[at + 2 * d..]);
            let out = &mut context.data_mut()[head_offset(cfg, d, b, h)..];
            let mut p = vec![0f32; seq * seq];
            for i0 in (0..seq).step_by(ATTN_ROW_BLOCK) {
                let rows = ATTN_ROW_BLOCK.min(seq - i0);
                let keys = i0 + rows;
                let p_rows = &mut p[i0 * seq..];
                simd::gemm_nt(rows, keys, dh, &q[i0 * ld..], ld, k, ld, p_rows, seq);
                for (r, row) in p_rows.chunks_mut(seq).take(rows).enumerate() {
                    let (live, masked) = row[..keys].split_at_mut(i0 + r + 1);
                    for s in live.iter_mut() {
                        *s *= scale;
                    }
                    ops::softmax_row(live);
                    masked.fill(0.0);
                }
                simd::gemm(rows, dh, keys, p_rows, seq, 1, v, ld, &mut out[i0 * d..], d);
            }
            probs.push(Tensor::from_vec(&[seq, seq], p).expect("probs shape"));
        }
    }
    (context, probs)
}

/// Backward of [`attention_heads_forward`]: `d(qkv)` from `d(context)`,
/// written straight into the heads' column groups of one
/// `[rows, 3*hidden]` matrix.
fn attention_heads_backward(
    cfg: &BlockConfig,
    qkv: &Tensor,
    probs: &[Tensor],
    dcontext: &Tensor,
) -> Tensor {
    let (d, dh, seq) = (cfg.hidden, cfg.head_dim(), cfg.seq);
    let ld = 3 * d;
    let scale = 1.0 / (dh as f32).sqrt();
    let (qkv, dcontext) = (qkv.data(), dcontext.data());
    let mut dqkv = Tensor::zeros(&[cfg.rows(), ld]);
    // dP for one block of query rows, and dS for one head. Only the
    // lower triangle of `ds` is ever written: the masked half stays the
    // exact zero it was allocated as, for every head.
    let mut dp = vec![0f32; ATTN_ROW_BLOCK * seq];
    let mut ds = vec![0f32; seq * seq];
    for b in 0..cfg.batch {
        for h in 0..cfg.heads {
            let at = head_offset(cfg, ld, b, h);
            let (q, k, v) = (&qkv[at..], &qkv[at + d..], &qkv[at + 2 * d..]);
            let dout = &dcontext[head_offset(cfg, d, b, h)..];
            let p = probs[b * cfg.heads + h].data();
            // dQ, dK, dV of this head start at columns 0, d, 2d from here.
            let dhead = &mut dqkv.data_mut()[at..];
            // By query rows, keys 0..=i: dP = dO Vᵀ, the softmax backward
            // dS = P ∘ (dP − rowsum(dP ∘ P)) (scaled), then dQ = dS K.
            for i0 in (0..seq).step_by(ATTN_ROW_BLOCK) {
                let rows = ATTN_ROW_BLOCK.min(seq - i0);
                let keys = i0 + rows;
                simd::gemm_nt(rows, keys, dh, &dout[i0 * d..], d, v, ld, &mut dp, seq);
                for r in 0..rows {
                    let (i, live) = (i0 + r, i0 + r + 1);
                    let prow = &p[i * seq..i * seq + live];
                    let dprow = &dp[r * seq..r * seq + live];
                    let dot: f32 = prow.iter().zip(dprow).map(|(a, b)| a * b).sum();
                    for (j, o) in ds[i * seq..i * seq + live].iter_mut().enumerate() {
                        *o = (prow[j] * (dprow[j] - dot)) * scale;
                    }
                }
                let dq = &mut dhead[i0 * ld..];
                simd::gemm(rows, dh, keys, &ds[i0 * seq..], seq, 1, k, ld, dq, ld);
            }
            // By key rows, queries i ≥ j: dK = dSᵀ Q and dV = Pᵀ dO, the
            // transposed views starting on the diagonal.
            for j0 in (0..seq).step_by(ATTN_ROW_BLOCK) {
                let cols = ATTN_ROW_BLOCK.min(seq - j0);
                let queries = seq - j0;
                let (ds_t, p_t) = (&ds[j0 * seq + j0..], &p[j0 * seq + j0..]);
                let dkv = &mut dhead[j0 * ld..];
                simd::gemm(cols, dh, queries, ds_t, 1, seq, &q[j0 * ld..], ld, &mut dkv[d..], ld);
                let dv = &mut dkv[2 * d..];
                simd::gemm(cols, dh, queries, p_t, 1, seq, &dout[j0 * d..], d, dv, ld);
            }
        }
    }
    dqkv
}

/// Causal self-attention forward.
///
/// `qkv_w: [3*hidden, hidden]`, `proj_w: [hidden, hidden]`.
pub(crate) fn attention_forward(
    cfg: &BlockConfig,
    qkv_w: &Tensor,
    qkv_b: &Tensor,
    proj_w: &Tensor,
    proj_b: &Tensor,
    x: &Tensor,
) -> Result<(Tensor, AttnSaved)> {
    // The input width is the QKV weight's column count, which exceeds
    // `cfg.hidden` under tensor-slicing model parallelism (x stays full
    // width while the heads are local).
    if x.as_2d() != (cfg.rows(), qkv_w.shape()[1]) {
        return Err(Error::shape(format!(
            "attention input {:?}, expected [{}, {}]",
            x.shape(),
            cfg.rows(),
            qkv_w.shape()[1]
        )));
    }
    let qkv = linear_forward(qkv_w, qkv_b, x)?;
    let (context, probs) = attention_heads_forward(cfg, &qkv);
    let y = linear_forward(proj_w, proj_b, &context)?;
    Ok((y, AttnSaved { x: x.clone(), qkv, probs, context }))
}

/// Gradients of the attention parameters, in fetch order
/// `[qkv_w, qkv_b, proj_w, proj_b]`.
pub(crate) struct AttnGrads {
    /// d(qkv weight).
    pub qkv_w: Tensor,
    /// d(qkv bias).
    pub qkv_b: Tensor,
    /// d(out-proj weight).
    pub proj_w: Tensor,
    /// d(out-proj bias).
    pub proj_b: Tensor,
}

/// Causal self-attention backward; returns `(dx, grads)`.
pub(crate) fn attention_backward(
    cfg: &BlockConfig,
    qkv_w: &Tensor,
    proj_w: &Tensor,
    saved: &AttnSaved,
    dy: &Tensor,
) -> Result<(Tensor, AttnGrads)> {
    let (dcontext, dproj_w, dproj_b) = linear_backward(proj_w, &saved.context, dy)?;
    let dqkv = attention_heads_backward(cfg, &saved.qkv, &saved.probs, &dcontext);
    let (dx, dqkv_w, dqkv_b) = linear_backward(qkv_w, &saved.x, &dqkv)?;
    Ok((dx, AttnGrads { qkv_w: dqkv_w, qkv_b: dqkv_b, proj_w: dproj_w, proj_b: dproj_b }))
}

// ---------------------------------------------------------------------------
// MLP (fc1 -> GELU -> fc2)
// ---------------------------------------------------------------------------

/// Activations saved by the MLP forward pass.
#[derive(Debug, Clone)]
pub(crate) struct MlpSaved {
    x: Tensor,
    /// Pre-GELU activations (`fc1` output).
    h1: Tensor,
    /// Post-GELU activations (`fc2` input).
    a: Tensor,
}

/// MLP forward: `fc2(gelu(fc1(x)))`, `fc1_w: [4h, h]`, `fc2_w: [h, 4h]`.
pub(crate) fn mlp_forward(
    fc1_w: &Tensor,
    fc1_b: &Tensor,
    fc2_w: &Tensor,
    fc2_b: &Tensor,
    x: &Tensor,
) -> Result<(Tensor, MlpSaved)> {
    let h1 = linear_forward(fc1_w, fc1_b, x)?;
    let a = ops::gelu(&h1);
    let y = linear_forward(fc2_w, fc2_b, &a)?;
    Ok((y, MlpSaved { x: x.clone(), h1, a }))
}

/// MLP gradients in fetch order `[fc1_w, fc1_b, fc2_w, fc2_b]`.
pub(crate) struct MlpGrads {
    /// d(fc1 weight).
    pub fc1_w: Tensor,
    /// d(fc1 bias).
    pub fc1_b: Tensor,
    /// d(fc2 weight).
    pub fc2_w: Tensor,
    /// d(fc2 bias).
    pub fc2_b: Tensor,
}

/// MLP backward; returns `(dx, grads)`.
pub(crate) fn mlp_backward(
    fc1_w: &Tensor,
    fc2_w: &Tensor,
    saved: &MlpSaved,
    dy: &Tensor,
) -> Result<(Tensor, MlpGrads)> {
    let (da, dfc2_w, dfc2_b) = linear_backward(fc2_w, &saved.a, dy)?;
    let dh1 = ops::gelu_backward(&saved.h1, &da)?;
    let (dx, dfc1_w, dfc1_b) = linear_backward(fc1_w, &saved.x, &dh1)?;
    Ok((dx, MlpGrads { fc1_w: dfc1_w, fc1_b: dfc1_b, fc2_w: dfc2_w, fc2_b: dfc2_b }))
}

// ---------------------------------------------------------------------------
// Transformer block (pre-LN)
// ---------------------------------------------------------------------------

/// One block's gathered parameter tensors in canonical order — the order
/// its module plan lists them and [`block_backward`] returns their
/// gradients: `ln1_g, ln1_b, qkv_w [3h, h], qkv_b, proj_w [h, h], proj_b,
/// ln2_g, ln2_b, fc1_w [4h, h], fc1_b, fc2_w [h, 4h], fc2_b`.
fn block_params(params: &[Tensor]) -> Result<&[Tensor; 12]> {
    params.try_into().map_err(|_| {
        Error::shape(format!("a block takes 12 parameter tensors, got {}", params.len()))
    })
}

/// Activations saved by a block forward pass (the tensor-sliced block of
/// [`crate::mp`] saves the same six).
pub struct BlockSaved {
    pub(crate) x: Tensor,
    pub(crate) ln1_stats: ops::LayerNormStats,
    pub(crate) attn: AttnSaved,
    pub(crate) res1: Tensor,
    pub(crate) ln2_stats: ops::LayerNormStats,
    pub(crate) mlp: MlpSaved,
}

const LN_EPS: f32 = 1e-5;

/// Pre-LN transformer block forward:
/// `x + Attn(LN1(x))` then `+ MLP(LN2(·))`, over the block's twelve
/// parameter tensors in canonical order.
pub fn block_forward(
    cfg: &BlockConfig,
    params: &[Tensor],
    x: &Tensor,
) -> Result<(Tensor, BlockSaved)> {
    let [ln1_g, ln1_b, qkv_w, qkv_b, proj_w, proj_b, ln2_g, ln2_b, fc1_w, fc1_b, fc2_w, fc2_b] =
        block_params(params)?;
    let (ln1_out, ln1_stats) = ops::layernorm(x, ln1_g.data(), ln1_b.data(), LN_EPS)?;
    let (attn_out, attn_saved) = attention_forward(cfg, qkv_w, qkv_b, proj_w, proj_b, &ln1_out)?;
    let mut res1 = x.clone();
    res1.add_assign(&attn_out)?;
    let (ln2_out, ln2_stats) = ops::layernorm(&res1, ln2_g.data(), ln2_b.data(), LN_EPS)?;
    let (mlp_out, mlp_saved) = mlp_forward(fc1_w, fc1_b, fc2_w, fc2_b, &ln2_out)?;
    let mut y = res1.clone();
    y.add_assign(&mlp_out)?;
    Ok((
        y,
        BlockSaved { x: x.clone(), ln1_stats, attn: attn_saved, res1, ln2_stats, mlp: mlp_saved },
    ))
}

/// Block backward; returns `(dx, grads)` with grads in canonical order.
pub fn block_backward(
    cfg: &BlockConfig,
    params: &[Tensor],
    saved: &BlockSaved,
    dy: &Tensor,
) -> Result<(Tensor, Vec<Tensor>)> {
    let [ln1_g, _, qkv_w, _, proj_w, _, ln2_g, _, fc1_w, _, fc2_w, _] = block_params(params)?;
    // y = res1 + mlp(ln2(res1))
    let (dln2_out, mlp_grads) = mlp_backward(fc1_w, fc2_w, &saved.mlp, dy)?;
    let (dres1_from_ln2, dln2_g, dln2_b) =
        ops::layernorm_backward(&saved.res1, &dln2_out, ln2_g.data(), &saved.ln2_stats)?;
    let mut dres1 = dy.clone();
    dres1.add_assign(&dres1_from_ln2)?;

    // res1 = x + attn(ln1(x))
    let (dln1_out, attn_grads) = attention_backward(cfg, qkv_w, proj_w, &saved.attn, &dres1)?;
    let (dx_from_ln1, dln1_g, dln1_b) =
        ops::layernorm_backward(&saved.x, &dln1_out, ln1_g.data(), &saved.ln1_stats)?;
    let mut dx = dres1.clone();
    dx.add_assign(&dx_from_ln1)?;

    let h = cfg.hidden;
    let grads = vec![
        Tensor::from_vec(&[h], dln1_g)?,
        Tensor::from_vec(&[h], dln1_b)?,
        attn_grads.qkv_w,
        attn_grads.qkv_b,
        attn_grads.proj_w,
        attn_grads.proj_b,
        Tensor::from_vec(&[h], dln2_g)?,
        Tensor::from_vec(&[h], dln2_b)?,
        mlp_grads.fc1_w,
        mlp_grads.fc1_b,
        mlp_grads.fc2_w,
        mlp_grads.fc2_b,
    ];
    Ok((dx, grads))
}

// ---------------------------------------------------------------------------
// Embedding (token + learned position) and tied LM head
// ---------------------------------------------------------------------------

/// Token + position embedding forward. `wte: [vocab, h]`, `wpe: [seq, h]`.
pub fn embedding_forward(
    cfg: &BlockConfig,
    wte: &Tensor,
    wpe: &Tensor,
    tokens: &[usize],
) -> Result<Tensor> {
    let h = cfg.hidden;
    let vocab = wte.shape()[0];
    if tokens.len() != cfg.rows() {
        return Err(Error::shape(format!(
            "embedding: {} tokens for {} rows",
            tokens.len(),
            cfg.rows()
        )));
    }
    let mut out = vec![0f32; cfg.rows() * h];
    for (r, &tok) in tokens.iter().enumerate() {
        if tok >= vocab {
            return Err(Error::InvalidArgument(format!("token {tok} out of vocab {vocab}")));
        }
        let pos = r % cfg.seq;
        let dst = &mut out[r * h..(r + 1) * h];
        dst.copy_from_slice(&wte.data()[tok * h..(tok + 1) * h]);
        for (d, w) in dst.iter_mut().zip(&wpe.data()[pos * h..(pos + 1) * h]) {
            *d += w;
        }
    }
    Tensor::from_vec(&[cfg.rows(), h], out)
}

/// Embedding backward: scatter-add into `(dwte, dwpe)`.
pub fn embedding_backward(
    cfg: &BlockConfig,
    vocab: usize,
    tokens: &[usize],
    dy: &Tensor,
) -> Result<(Tensor, Tensor)> {
    let h = cfg.hidden;
    let mut dwte = Tensor::zeros(&[vocab, h]);
    let mut dwpe = Tensor::zeros(&[cfg.seq, h]);
    for (r, &tok) in tokens.iter().enumerate() {
        let pos = r % cfg.seq;
        let src = &dy.data()[r * h..(r + 1) * h];
        for (d, s) in dwte.data_mut()[tok * h..(tok + 1) * h].iter_mut().zip(src) {
            *d += s;
        }
        for (d, s) in dwpe.data_mut()[pos * h..(pos + 1) * h].iter_mut().zip(src) {
            *d += s;
        }
    }
    Ok((dwte, dwpe))
}

/// Tied LM head forward: `logits = x wte^T`.
pub fn lm_head_forward(wte: &Tensor, x: &Tensor) -> Result<Tensor> {
    ops::matmul_nt(x, wte)
}

/// Tied LM head backward; returns `(dx, dwte)`.
pub fn lm_head_backward(wte: &Tensor, x: &Tensor, dlogits: &Tensor) -> Result<(Tensor, Tensor)> {
    let dx = ops::matmul(dlogits, wte)?;
    let dwte = ops::matmul_tn(dlogits, x)?;
    Ok((dx, dwte))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BlockConfig {
        BlockConfig { hidden: 4, heads: 2, batch: 2, seq: 3 }
    }

    fn seeded(shape: &[usize], seed: u64) -> Tensor {
        Tensor::randn_seeded(shape, seed, 0.4)
    }

    fn seeded_block(c: &BlockConfig, seed: u64) -> Vec<Tensor> {
        let h = c.hidden;
        vec![
            Tensor::from_vec(&[h], vec![1.0; h]).unwrap(),
            Tensor::zeros(&[h]),
            seeded(&[3 * h, h], seed),
            seeded(&[3 * h], seed + 1),
            seeded(&[h, h], seed + 2),
            seeded(&[h], seed + 3),
            Tensor::from_vec(&[h], vec![1.0; h]).unwrap(),
            Tensor::zeros(&[h]),
            seeded(&[4 * h, h], seed + 4),
            seeded(&[4 * h], seed + 5),
            seeded(&[h, 4 * h], seed + 6),
            seeded(&[h], seed + 7),
        ]
    }

    #[test]
    fn linear_backward_matches_finite_difference() {
        let w = seeded(&[3, 4], 1);
        let b = seeded(&[3], 2);
        let x = seeded(&[2, 4], 3);
        let dy = seeded(&[2, 3], 4);
        let (dx, dw, db) = linear_backward(&w, &x, &dy).unwrap();
        let loss = |w: &Tensor, b: &Tensor, x: &Tensor| -> f32 {
            let y = linear_forward(w, b, x).unwrap();
            y.data().iter().zip(dy.data()).map(|(a, g)| a * g).sum()
        };
        let h = 1e-3;
        for idx in [0usize, 5, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += h;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= h;
            let fd = (loss(&w, &b, &xp) - loss(&w, &b, &xm)) / (2.0 * h);
            assert!((dx.data()[idx] - fd).abs() < 1e-2);
        }
        for idx in [0usize, 6, 11] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += h;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= h;
            let fd = (loss(&wp, &b, &x) - loss(&wm, &b, &x)) / (2.0 * h);
            assert!((dw.data()[idx] - fd).abs() < 1e-2);
        }
        for idx in [0usize, 2] {
            let mut bp = b.clone();
            bp.data_mut()[idx] += h;
            let mut bm = b.clone();
            bm.data_mut()[idx] -= h;
            let fd = (loss(&w, &bp, &x) - loss(&w, &bm, &x)) / (2.0 * h);
            assert!((db.data()[idx] - fd).abs() < 1e-2);
        }
    }

    #[test]
    fn attention_is_causal() {
        let c = cfg();
        let qkv_w = seeded(&[3 * c.hidden, c.hidden], 10);
        let qkv_b = Tensor::zeros(&[3 * c.hidden]);
        let proj_w = seeded(&[c.hidden, c.hidden], 11);
        let proj_b = Tensor::zeros(&[c.hidden]);
        let x1 = seeded(&[c.rows(), c.hidden], 12);
        // Perturb only the last position of each sequence; earlier outputs
        // must not change.
        let mut x2 = x1.clone();
        for b in 0..c.batch {
            let row = b * c.seq + (c.seq - 1);
            for j in 0..c.hidden {
                x2.data_mut()[row * c.hidden + j] += 1.0;
            }
        }
        let (y1, _) = attention_forward(&c, &qkv_w, &qkv_b, &proj_w, &proj_b, &x1).unwrap();
        let (y2, _) = attention_forward(&c, &qkv_w, &qkv_b, &proj_w, &proj_b, &x2).unwrap();
        for b in 0..c.batch {
            for t in 0..c.seq - 1 {
                let row = b * c.seq + t;
                for j in 0..c.hidden {
                    let i = row * c.hidden + j;
                    assert!(
                        (y1.data()[i] - y2.data()[i]).abs() < 1e-6,
                        "future token leaked into position {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn attention_backward_matches_finite_difference() {
        let c = cfg();
        let qkv_w = seeded(&[3 * c.hidden, c.hidden], 20);
        let qkv_b = seeded(&[3 * c.hidden], 21);
        let proj_w = seeded(&[c.hidden, c.hidden], 22);
        let proj_b = seeded(&[c.hidden], 23);
        let x = seeded(&[c.rows(), c.hidden], 24);
        let dy = seeded(&[c.rows(), c.hidden], 25);

        let (_, saved) = attention_forward(&c, &qkv_w, &qkv_b, &proj_w, &proj_b, &x).unwrap();
        let (dx, grads) = attention_backward(&c, &qkv_w, &proj_w, &saved, &dy).unwrap();

        let loss = |qw: &Tensor, x: &Tensor| -> f32 {
            let (y, _) = attention_forward(&c, qw, &qkv_b, &proj_w, &proj_b, x).unwrap();
            y.data().iter().zip(dy.data()).map(|(a, g)| a * g).sum()
        };
        let h = 1e-3;
        for idx in [0usize, 9, 23] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += h;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= h;
            let fd = (loss(&qkv_w, &xp) - loss(&qkv_w, &xm)) / (2.0 * h);
            assert!((dx.data()[idx] - fd).abs() < 2e-2, "dx[{idx}]: {} vs {fd}", dx.data()[idx]);
        }
        for idx in [0usize, 17, 40] {
            let mut wp = qkv_w.clone();
            wp.data_mut()[idx] += h;
            let mut wm = qkv_w.clone();
            wm.data_mut()[idx] -= h;
            let fd = (loss(&wp, &x) - loss(&wm, &x)) / (2.0 * h);
            assert!(
                (grads.qkv_w.data()[idx] - fd).abs() < 2e-2,
                "dqkv_w[{idx}]: {} vs {fd}",
                grads.qkv_w.data()[idx]
            );
        }
    }

    /// The `[seq, dh]` block of `src` at column `col` of `batch`, copied out.
    fn copy_head(src: &Tensor, cfg: &BlockConfig, batch: usize, col: usize) -> Tensor {
        let dh = cfg.head_dim();
        let width = src.shape()[1];
        let mut out = Vec::with_capacity(cfg.seq * dh);
        for t in 0..cfg.seq {
            let at = (batch * cfg.seq + t) * width + col;
            out.extend_from_slice(&src.data()[at..at + dh]);
        }
        Tensor::from_vec(&[cfg.seq, dh], out).unwrap()
    }

    fn add_head(dst: &mut Tensor, src: &Tensor, cfg: &BlockConfig, batch: usize, col: usize) {
        let dh = cfg.head_dim();
        let width = dst.shape()[1];
        for t in 0..cfg.seq {
            let at = (batch * cfg.seq + t) * width + col;
            for (d, s) in dst.data_mut()[at..at + dh].iter_mut().zip(&src.data()[t * dh..]) {
                *d += s;
            }
        }
    }

    /// The masked-dense formulation of the attention heads, built from
    /// the plain matmuls on copied-out heads: full `[seq, seq]` scores,
    /// masked logits at `-inf` (exactly-zero probabilities), every
    /// product and sum over the masked half carried out. Returns
    /// `(context, probs, dqkv)`.
    fn dense_heads(
        cfg: &BlockConfig,
        qkv: &Tensor,
        dcontext: &Tensor,
    ) -> (Tensor, Vec<Tensor>, Tensor) {
        let (d, dh, seq) = (cfg.hidden, cfg.head_dim(), cfg.seq);
        let scale = 1.0 / (dh as f32).sqrt();
        let mut context = Tensor::zeros(&[cfg.rows(), d]);
        let mut dqkv = Tensor::zeros(&[cfg.rows(), 3 * d]);
        let mut probs = Vec::new();
        for b in 0..cfg.batch {
            for h in 0..cfg.heads {
                let q = copy_head(qkv, cfg, b, h * dh);
                let k = copy_head(qkv, cfg, b, d + h * dh);
                let v = copy_head(qkv, cfg, b, 2 * d + h * dh);
                let mut p = ops::matmul_nt(&q, &k).unwrap();
                p.scale(scale);
                for i in 0..seq {
                    p.data_mut()[i * seq + i + 1..(i + 1) * seq].fill(f32::NEG_INFINITY);
                }
                ops::softmax_rows(&mut p);
                add_head(&mut context, &ops::matmul(&p, &v).unwrap(), cfg, b, h * dh);

                let doh = copy_head(dcontext, cfg, b, h * dh);
                let dv = ops::matmul_tn(&p, &doh).unwrap();
                let dp = ops::matmul_nt(&doh, &v).unwrap();
                let mut ds = Tensor::zeros(&[seq, seq]);
                for i in 0..seq {
                    let prow = &p.data()[i * seq..(i + 1) * seq];
                    let dprow = &dp.data()[i * seq..(i + 1) * seq];
                    let dot: f32 = prow.iter().zip(dprow).map(|(a, b)| a * b).sum();
                    for j in 0..seq {
                        ds.data_mut()[i * seq + j] = prow[j] * (dprow[j] - dot);
                    }
                }
                ds.scale(scale);
                add_head(&mut dqkv, &ops::matmul(&ds, &k).unwrap(), cfg, b, h * dh);
                add_head(&mut dqkv, &ops::matmul_tn(&ds, &q).unwrap(), cfg, b, d + h * dh);
                add_head(&mut dqkv, &dv, cfg, b, 2 * d + h * dh);
                probs.push(p);
            }
        }
        (context, probs, dqkv)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn causal_attention_equals_the_masked_dense_reference_bit_for_bit() {
        // (seq, dh, heads, batch, input width): one row, a ragged row
        // block, the two benchmark models' head shapes, and a
        // tensor-sliced block whose input is wider than its local heads.
        for &(seq, dh, heads, batch, width) in &[
            (1usize, 8usize, 2usize, 2usize, 16usize),
            (5, 8, 2, 2, 16),
            (16, 64, 2, 1, 128),
            (64, 32, 2, 2, 64),
            (13, 8, 2, 1, 32),
        ] {
            let c = BlockConfig { hidden: heads * dh, heads, batch, seq };
            let qkv_w = seeded(&[3 * c.hidden, width], 80);
            let qkv_b = seeded(&[3 * c.hidden], 81);
            let proj_w = seeded(&[width, c.hidden], 82);
            let proj_b = seeded(&[width], 83);
            let x = seeded(&[c.rows(), width], 84);
            let dy = seeded(&[c.rows(), width], 85);

            let (y, saved) = attention_forward(&c, &qkv_w, &qkv_b, &proj_w, &proj_b, &x).unwrap();
            let (dx, grads) = attention_backward(&c, &qkv_w, &proj_w, &saved, &dy).unwrap();

            let qkv = linear_forward(&qkv_w, &qkv_b, &x).unwrap();
            let (dcontext, dproj_w, dproj_b) =
                linear_backward(&proj_w, &saved.context, &dy).unwrap();
            let (context, probs, dqkv) = dense_heads(&c, &qkv, &dcontext);
            let want_y = linear_forward(&proj_w, &proj_b, &context).unwrap();
            let (want_dx, dqkv_w, dqkv_b) = linear_backward(&qkv_w, &x, &dqkv).unwrap();

            let tag = format!("seq {seq} dh {dh}");
            assert_eq!(bits(&saved.context), bits(&context), "{tag}: context");
            for (got, want) in saved.probs.iter().zip(&probs) {
                assert_eq!(bits(got), bits(want), "{tag}: probs");
            }
            let got_dqkv = attention_heads_backward(&c, &saved.qkv, &saved.probs, &dcontext);
            assert_eq!(bits(&got_dqkv), bits(&dqkv), "{tag}: dqkv");
            assert_eq!(bits(&y), bits(&want_y), "{tag}: y");
            assert_eq!(bits(&dx), bits(&want_dx), "{tag}: dx");
            assert_eq!(bits(&grads.qkv_w), bits(&dqkv_w), "{tag}: dqkv_w");
            assert_eq!(bits(&grads.qkv_b), bits(&dqkv_b), "{tag}: dqkv_b");
            assert_eq!(bits(&grads.proj_w), bits(&dproj_w), "{tag}: dproj_w");
            assert_eq!(bits(&grads.proj_b), bits(&dproj_b), "{tag}: dproj_b");
        }
    }

    #[test]
    fn attention_of_a_seeded_gpt_carries_no_subnormals() {
        // Block 0 of a seeded model at the dense benchmark's shape. A
        // masked probability that is a tiny number instead of a zero
        // (e^-87 / rowsum) is a subnormal, and so is everything it is
        // multiplied into: up to 2016 of the 4096 entries of every head's
        // `P`, and through them `context` and `dqkv`.
        use crate::gpt::{GptConfig, GptModel};
        use crate::param::{DenseStore, ParamStore};
        let cfg = GptConfig { vocab: 256, hidden: 192, layers: 1, heads: 6, seq: 64, seed: 1 };
        let model = GptModel::new(cfg);
        let mut store = DenseStore::new(model.registry());
        let mut fetch = |module: usize| -> Vec<Tensor> {
            model.plans()[module].own_params.iter().map(|&id| store.get(id).unwrap()).collect()
        };
        let embed = fetch(0);
        let block = fetch(1);
        let [ln1_g, ln1_b, qkv_w, qkv_b, proj_w, proj_b, ..] = &block[..] else {
            panic!("a block has twelve parameters");
        };
        let c = BlockConfig { hidden: cfg.hidden, heads: cfg.heads, batch: 2, seq: cfg.seq };
        let tokens: Vec<usize> = (0..c.rows()).map(|i| (i * 7 + 1) % cfg.vocab).collect();
        let x = embedding_forward(&c, &embed[0], &embed[1], &tokens).unwrap();
        let (ln1, _) = ops::layernorm(&x, ln1_g.data(), ln1_b.data(), LN_EPS).unwrap();

        let (_, saved) =
            attention_forward(&c, qkv_w, qkv_b, proj_w, proj_b, &ln1).unwrap();
        let dy = seeded(&[c.rows(), c.hidden], 90);
        let (dcontext, _, _) = linear_backward(proj_w, &saved.context, &dy).unwrap();
        let dqkv = attention_heads_backward(&c, &saved.qkv, &saved.probs, &dcontext);

        let subnormals = |t: &Tensor| t.data().iter().filter(|v| v.is_subnormal()).count();
        for (i, probs) in saved.probs.iter().enumerate() {
            assert_eq!(subnormals(probs), 0, "head {i}: subnormal probabilities");
            for r in 0..c.seq {
                let masked = &probs.data()[r * c.seq + r + 1..(r + 1) * c.seq];
                assert!(masked.iter().all(|v| v.to_bits() == 0), "head {i} row {r}: mask not +0.0");
            }
        }
        assert_eq!(subnormals(&saved.context), 0, "subnormals in context");
        assert_eq!(subnormals(&dqkv), 0, "subnormals in dqkv");
    }

    #[test]
    fn mlp_backward_matches_finite_difference() {
        let h = 4;
        let fc1_w = seeded(&[4 * h, h], 30);
        let fc1_b = seeded(&[4 * h], 31);
        let fc2_w = seeded(&[h, 4 * h], 32);
        let fc2_b = seeded(&[h], 33);
        let x = seeded(&[3, h], 34);
        let dy = seeded(&[3, h], 35);
        let (_, saved) = mlp_forward(&fc1_w, &fc1_b, &fc2_w, &fc2_b, &x).unwrap();
        let (dx, grads) = mlp_backward(&fc1_w, &fc2_w, &saved, &dy).unwrap();
        let loss = |f1: &Tensor, x: &Tensor| -> f32 {
            let (y, _) = mlp_forward(f1, &fc1_b, &fc2_w, &fc2_b, x).unwrap();
            y.data().iter().zip(dy.data()).map(|(a, g)| a * g).sum()
        };
        let hh = 1e-3;
        for idx in [0usize, 7, 11] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += hh;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= hh;
            let fd = (loss(&fc1_w, &xp) - loss(&fc1_w, &xm)) / (2.0 * hh);
            assert!((dx.data()[idx] - fd).abs() < 2e-2);
        }
        for idx in [0usize, 31, 63] {
            let mut wp = fc1_w.clone();
            wp.data_mut()[idx] += hh;
            let mut wm = fc1_w.clone();
            wm.data_mut()[idx] -= hh;
            let fd = (loss(&wp, &x) - loss(&wm, &x)) / (2.0 * hh);
            assert!((grads.fc1_w.data()[idx] - fd).abs() < 2e-2);
        }
    }

    #[test]
    fn block_backward_matches_finite_difference() {
        let c = cfg();
        let p = seeded_block(&c, 40);
        let x = seeded(&[c.rows(), c.hidden], 50);
        assert!(block_forward(&c, &p[1..], &x).is_err(), "11 tensors are not a block");
        let dy = seeded(&[c.rows(), c.hidden], 51);
        let (_, saved) = block_forward(&c, &p, &x).unwrap();
        let (dx, grads) = block_backward(&c, &p, &saved, &dy).unwrap();
        assert_eq!(grads.len(), p.len());

        let loss = |x: &Tensor| -> f32 {
            let (y, _) = block_forward(&c, &p, x).unwrap();
            y.data().iter().zip(dy.data()).map(|(a, g)| a * g).sum()
        };
        let h = 1e-3;
        for idx in [0usize, 10, 23] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += h;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= h;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * h);
            assert!((dx.data()[idx] - fd).abs() < 3e-2, "dx[{idx}]: {} vs {fd}", dx.data()[idx]);
        }
        // Gradient shapes must match canonical parameter shapes.
        assert_eq!(grads[2].shape(), &[3 * c.hidden, c.hidden]);
        assert_eq!(grads[8].shape(), &[4 * c.hidden, c.hidden]);
        assert_eq!(grads[10].shape(), &[c.hidden, 4 * c.hidden]);
    }

    #[test]
    fn embedding_round_trip_and_grads() {
        let c = cfg();
        let vocab = 7;
        let wte = seeded(&[vocab, c.hidden], 60);
        let wpe = seeded(&[c.seq, c.hidden], 61);
        let tokens = vec![1usize, 2, 3, 4, 5, 6];
        let x = embedding_forward(&c, &wte, &wpe, &tokens).unwrap();
        assert_eq!(x.shape(), &[c.rows(), c.hidden]);
        // Row r = wte[token] + wpe[pos].
        let r = 4; // batch 1, pos 1, token 5
        for j in 0..c.hidden {
            let expect = wte.data()[5 * c.hidden + j] + wpe.data()[c.hidden + j];
            assert!((x.data()[r * c.hidden + j] - expect).abs() < 1e-6);
        }
        let dy = seeded(&[c.rows(), c.hidden], 62);
        let (dwte, dwpe) = embedding_backward(&c, vocab, &tokens, &dy).unwrap();
        // Token 0 never appears: zero grad.
        assert!(dwte.data()[..c.hidden].iter().all(|&v| v == 0.0));
        // Position 0 receives grads from both sequences.
        for j in 0..c.hidden {
            let expect = dy.data()[j] + dy.data()[3 * c.hidden + j];
            assert!((dwpe.data()[j] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn embedding_rejects_bad_tokens() {
        let c = cfg();
        let wte = seeded(&[4, c.hidden], 1);
        let wpe = seeded(&[c.seq, c.hidden], 2);
        assert!(embedding_forward(&c, &wte, &wpe, &[0, 1, 2, 3, 9, 0]).is_err());
        assert!(embedding_forward(&c, &wte, &wpe, &[0, 1]).is_err());
    }

    #[test]
    fn lm_head_ties_to_embedding() {
        let vocab = 5;
        let h = 4;
        let wte = seeded(&[vocab, h], 70);
        let x = seeded(&[3, h], 71);
        let logits = lm_head_forward(&wte, &x).unwrap();
        assert_eq!(logits.shape(), &[3, vocab]);
        let dlogits = seeded(&[3, vocab], 72);
        let (dx, dwte) = lm_head_backward(&wte, &x, &dlogits).unwrap();
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(dwte.shape(), wte.shape());
        // Finite difference on one weight entry.
        let loss = |w: &Tensor| -> f32 {
            let y = lm_head_forward(w, &x).unwrap();
            y.data().iter().zip(dlogits.data()).map(|(a, g)| a * g).sum()
        };
        let hh = 1e-3;
        let mut wp = wte.clone();
        wp.data_mut()[6] += hh;
        let mut wm = wte.clone();
        wm.data_mut()[6] -= hh;
        let fd = (loss(&wp) - loss(&wm)) / (2.0 * hh);
        assert!((dwte.data()[6] - fd).abs() < 1e-2);
    }
}
