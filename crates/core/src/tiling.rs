//! Memory-centric tiling (paper Sec. 5.1.3).
//!
//! A huge linear operator `y = x W^T + b` is represented as a
//! mathematically equivalent sequence of smaller linears over row-tiles of
//! `W`. Combined with ZeRO-3's fetch/release pattern, only one tile's
//! parameters occupy GPU working memory at a time, so the operator's
//! memory footprint shrinks proportionally to the tile count — the
//! mechanism that lets ZeRO-Infinity train hidden sizes that fragmented
//! GPU memory could never hold in one piece (Fig. 6b), without model
//! parallelism.

use zi_comm::partition_range;
use zi_model::{Bracket, ModulePlan, NoopObserver, ParamId, ParamRegistry, ParamStore};
use zi_tensor::{ops, Tensor};
use zi_trace::Category;
use zi_types::{Error, Result};

/// A linear layer whose weight is split into `tiles` row groups, each a
/// separately registered (and therefore separately fetched/offloaded)
/// parameter.
#[derive(Debug, Clone)]
pub struct TiledLinear {
    /// One module per tile, then the bias: the fetch units.
    plans: Vec<ModulePlan>,
    in_dim: usize,
    out_dim: usize,
}

/// Copy columns `[c0, c1)` of a `[m, width]` tensor into a new tensor.
fn slice_cols(x: &Tensor, c0: usize, c1: usize) -> Result<Tensor> {
    let (m, width) = x.as_2d();
    let mut out = vec![0f32; m * (c1 - c0)];
    for r in 0..m {
        out[r * (c1 - c0)..(r + 1) * (c1 - c0)]
            .copy_from_slice(&x.data()[r * width + c0..r * width + c1]);
    }
    Tensor::from_vec(&[m, c1 - c0], out)
}

/// Write `src` into columns `[c0, ...)` of `dst`.
fn write_cols(dst: &mut Tensor, src: &Tensor, c0: usize) {
    let (m, width) = dst.as_2d();
    let (ms, ws) = src.as_2d();
    assert_eq!(m, ms, "row mismatch in write_cols");
    for r in 0..m {
        dst.data_mut()[r * width + c0..r * width + c0 + ws]
            .copy_from_slice(&src.data()[r * ws..(r + 1) * ws]);
    }
}

impl TiledLinear {
    /// Register a tiled `[out_dim, in_dim]` linear in `registry`.
    ///
    /// Tile `t` owns the weight rows `partition_range(out_dim, tiles, t)`.
    pub fn register(
        registry: &mut ParamRegistry,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        tiles: usize,
        seed: u64,
        scale: f32,
    ) -> Result<Self> {
        if tiles == 0 || tiles > out_dim {
            return Err(Error::InvalidArgument(format!(
                "tiling factor {tiles} invalid for {out_dim} output rows"
            )));
        }
        let module = |name: String, id: ParamId| ModulePlan {
            name,
            own_params: vec![id],
            external_params: vec![],
        };
        let mut plans = Vec::with_capacity(tiles + 1);
        for t in 0..tiles {
            let rows = partition_range(out_dim, tiles, t).len();
            let tile = format!("{name}.tile{t}");
            let id =
                registry.register(format!("{tile}.weight"), &[rows, in_dim], seed + t as u64, scale, 0.0);
            plans.push(module(tile, id));
        }
        let bias = registry.register(format!("{name}.bias"), &[out_dim], 0, 0.0, 0.0);
        plans.push(module(format!("{name}.bias"), bias));
        Ok(TiledLinear { plans, in_dim, out_dim })
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.plans.len() - 1
    }

    /// Forward pass: tiles are fetched, used and released strictly one at
    /// a time, bounding working memory to a single tile.
    pub fn forward(&self, store: &mut dyn ParamStore, x: &Tensor) -> Result<Tensor> {
        let (m, k) = x.as_2d();
        if k != self.in_dim {
            return Err(Error::shape(format!(
                "tiled linear input width {k}, expected {}",
                self.in_dim
            )));
        }
        let tracer = store.tracer().cloned();
        let mut obs = NoopObserver;
        let mut ctx = Bracket::new(store, &mut obs, &self.plans, 0);
        let mut y = Tensor::zeros(&[m, self.out_dim]);
        for t in 0..self.tiles() {
            let yt = ctx.forward(t, |p| {
                // Per-tile compute, spanned so the trace shows each
                // tile's matmul hiding the next tile's fetch.
                let w = &p[0];
                let mut span =
                    tracer.as_ref().map(|tr| tr.span(Category::Compute, "tile_matmul"));
                if let Some(s) = &mut span {
                    s.set_bytes((w.numel() * 4) as u64);
                    // 2 flops (mul + add) per weight element per input row.
                    s.set_flops(2 * (w.numel() * m) as u64);
                    s.set_id(self.plans[t].own_params[0].0 as u64);
                }
                ops::matmul_nt(x, w)
            })?;
            write_cols(&mut y, &yt, partition_range(self.out_dim, self.tiles(), t).start);
        }
        ctx.forward(self.tiles(), |p| ops::add_bias(&mut y, p[0].data()))?;
        Ok(y)
    }

    /// Backward pass: deposits per-tile weight gradients and the bias
    /// gradient into `store`, returning `dx`.
    pub fn backward(
        &self,
        store: &mut dyn ParamStore,
        x: &Tensor,
        dy: &Tensor,
    ) -> Result<Tensor> {
        let (m, k) = x.as_2d();
        let (mdy, out) = dy.as_2d();
        if mdy != m || out != self.out_dim || k != self.in_dim {
            return Err(Error::shape("tiled linear backward shape mismatch"));
        }
        let tracer = store.tracer().cloned();
        let mut obs = NoopObserver;
        let mut ctx = Bracket::new(store, &mut obs, &self.plans, 0);
        let mut dx = Tensor::zeros(&[m, self.in_dim]);
        for t in 0..self.tiles() {
            let range = partition_range(self.out_dim, self.tiles(), t);
            let dyt = slice_cols(dy, range.start, range.end)?;
            ctx.backward(t, |p| {
                let w = &p[0];
                let mut span =
                    tracer.as_ref().map(|tr| tr.span(Category::Compute, "tile_matmul_bwd"));
                if let Some(s) = &mut span {
                    s.set_bytes((w.numel() * 4) as u64);
                    // dx and dw matmuls: 2 * 2 flops per weight element per row.
                    s.set_flops(4 * (w.numel() * m) as u64);
                    s.set_id(self.plans[t].own_params[0].0 as u64);
                }
                dx.add_assign(&ops::matmul(&dyt, w)?)?;
                Ok(((), vec![ops::matmul_tn(&dyt, x)?]))
            })?;
        }
        ctx.backward_unfetched(self.tiles(), || {
            Ok(vec![Tensor::from_vec(&[self.out_dim], ops::column_sums(dy))?])
        })?;
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use crate::engine::ZeroEngine;
    use crate::offload::NodeResources;
    use zi_memory::NodeMemorySpec;
    use zi_model::DenseStore;
    use zi_optim::AdamConfig;

    /// All parameter ids, tiles then bias.
    fn param_ids(tl: &TiledLinear) -> Vec<ParamId> {
        tl.plans.iter().flat_map(|plan| plan.own_params.iter().copied()).collect()
    }

    fn tile_ids(tl: &TiledLinear) -> Vec<ParamId> {
        param_ids(tl)[..tl.tiles()].to_vec()
    }

    fn bias_id(tl: &TiledLinear) -> ParamId {
        param_ids(tl)[tl.tiles()]
    }

    /// Reference: dense untiled linear built from the same tile values.
    fn assemble_dense_weight(
        store: &mut dyn ParamStore,
        tl: &TiledLinear,
    ) -> (Tensor, Tensor) {
        let mut rows: Vec<f32> = Vec::new();
        for tid in tile_ids(tl) {
            let w = store.get(tid).unwrap();
            rows.extend_from_slice(w.data());
            store.release(tid).unwrap();
        }
        let w = Tensor::from_vec(&[tl.out_dim, tl.in_dim], rows).unwrap();
        let b = store.get(bias_id(tl)).unwrap();
        store.release(bias_id(tl)).unwrap();
        (w, b)
    }

    #[test]
    fn tiled_forward_matches_dense() {
        let mut reg = ParamRegistry::new();
        let tl = TiledLinear::register(&mut reg, "big", 6, 10, 4, 77, 0.3).unwrap();
        let mut store = DenseStore::new(&reg);
        let x = Tensor::randn_seeded(&[5, 6], 9, 0.5);
        let y = tl.forward(&mut store, &x).unwrap();
        let (w, b) = assemble_dense_weight(&mut store, &tl);
        let mut expect = ops::matmul_nt(&x, &w).unwrap();
        ops::add_bias(&mut expect, b.data()).unwrap();
        assert_eq!(y.shape(), expect.shape());
        for (a, e) in y.data().iter().zip(expect.data()) {
            assert!((a - e).abs() < 1e-5);
        }
    }

    #[test]
    fn tiled_backward_matches_dense() {
        let mut reg = ParamRegistry::new();
        let tl = TiledLinear::register(&mut reg, "big", 4, 6, 3, 78, 0.3).unwrap();
        let mut store = DenseStore::new(&reg);
        let x = Tensor::randn_seeded(&[3, 4], 10, 0.5);
        let dy = Tensor::randn_seeded(&[3, 6], 11, 0.5);
        let dx = tl.backward(&mut store, &x, &dy).unwrap();

        // Dense reference.
        let (w, _) = assemble_dense_weight(&mut store, &tl);
        let expect_dx = ops::matmul(&dy, &w).unwrap();
        for (a, e) in dx.data().iter().zip(expect_dx.data()) {
            assert!((a - e).abs() < 1e-5);
        }
        let expect_dw = ops::matmul_tn(&dy, &x).unwrap();
        // Stitch tile grads back together and compare.
        let mut got_rows: Vec<f32> = Vec::new();
        for tid in tile_ids(&tl) {
            got_rows.extend_from_slice(store.grad(tid).unwrap().data());
        }
        for (a, e) in got_rows.iter().zip(expect_dw.data()) {
            assert!((a - e).abs() < 1e-5);
        }
        let expect_db = ops::column_sums(&dy);
        for (a, e) in store.grad(bias_id(&tl)).unwrap().data().iter().zip(&expect_db) {
            assert!((a - e).abs() < 1e-5);
        }
    }

    #[test]
    fn tiling_survives_fragmented_gpu_memory() {
        // Fig. 6b in miniature: pre-fragment GPU memory so that no
        // contiguous allocation above `chunk` bytes succeeds. The untiled
        // operator OOMs; 4-way tiling fits.
        let out_dim = 64usize;
        let in_dim = 64usize;
        let full_bytes = (out_dim * in_dim * 4) as u64; // 16 KiB gathered
        let spec = NodeMemorySpec::test_spec(1, 4 * full_bytes, 1 << 22, 1 << 22);

        let run = |tiles: usize| -> Result<()> {
            let node = NodeResources::in_memory(&spec, 1);
            // Fragment: largest contiguous block is half the full weight.
            node.hierarchy.prefragment_gpu(0, full_bytes / 2);
            let mut reg = ParamRegistry::new();
            let tl =
                TiledLinear::register(&mut reg, "huge", in_dim, out_dim, tiles, 5, 0.1)?;
            let mut eng = ZeroEngine::new(
                &reg,
                Strategy::infinity_cpu().with_f32_params(),
                node.offload_manager(),
                node.group.communicator(0),
                AdamConfig::default(),
            )?;
            let x = Tensor::randn_seeded(&[2, in_dim], 3, 0.1);
            let y = tl.forward(&mut eng, &x)?;
            let dy = Tensor::randn_seeded(&[2, out_dim], 4, 0.1);
            let _dx = tl.backward(&mut eng, &x, &dy)?;
            drop(y);
            eng.dispose()?;
            Ok(())
        };

        let untiled = run(1);
        assert!(untiled.is_err(), "untiled op must OOM under fragmentation");
        assert!(untiled.unwrap_err().is_oom());
        run(4).expect("4-way tiling must fit in fragmented memory");
    }

    #[test]
    fn invalid_tile_counts_rejected() {
        let mut reg = ParamRegistry::new();
        assert!(TiledLinear::register(&mut reg, "x", 4, 4, 0, 1, 0.1).is_err());
        assert!(TiledLinear::register(&mut reg, "x", 4, 4, 5, 1, 0.1).is_err());
    }

    #[test]
    fn uneven_tiles_cover_all_rows() {
        let mut reg = ParamRegistry::new();
        // 10 rows over 3 tiles: 4, 3, 3.
        let tl = TiledLinear::register(&mut reg, "odd", 2, 10, 3, 1, 0.1).unwrap();
        let mut store = DenseStore::new(&reg);
        let x = Tensor::randn_seeded(&[1, 2], 2, 1.0);
        let y = tl.forward(&mut store, &x).unwrap();
        assert_eq!(y.shape(), &[1, 10]);
        // Every output column influenced by some weight (no zero gaps
        // beyond chance): compare against dense assembly.
        let (w, b) = assemble_dense_weight(&mut store, &tl);
        let mut expect = ops::matmul_nt(&x, &w).unwrap();
        ops::add_bias(&mut expect, b.data()).unwrap();
        for (a, e) in y.data().iter().zip(expect.data()) {
            assert!((a - e).abs() < 1e-5);
        }
    }
}
