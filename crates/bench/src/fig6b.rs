//! Fig. 6b on the real engine: maximum hidden size vs tiling factor under
//! pre-fragmented GPU memory.
//!
//! The paper pre-fragments GPU memory into 2 GB chunks so no allocation
//! above 2 GB succeeds, then trains a single-layer transformer with
//! growing hidden sizes and tiling factors. We run the same experiment at
//! 1/8192 scale (256 KiB fragments, hidden sizes in the hundreds) on the
//! actual `ZeroEngine` + `TiledLinear` machinery: the *ratios* between
//! tiling factors are scale-free.

use zero_infinity::{Strategy, TiledLinear, ZeroEngine};
use zi_memory::NodeMemorySpec;
use zi_model::ParamRegistry;
use zi_optim::AdamConfig;
use zi_tensor::Tensor;
use zi_types::Result;

/// Fragment size, the scaled-down analogue of the paper's 2 GB chunks.
pub const FRAGMENT_BYTES: u64 = 256 * 1024;

/// The strategy the sweep trains under: parameters offloaded to CPU
/// memory and gathered in their fp16 storage dtype.
pub fn sweep_strategy() -> Strategy {
    Strategy::infinity_cpu()
}

/// One row of the Fig. 6b sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig6bRow {
    /// Tiling factor.
    pub tiles: usize,
    /// Largest hidden size that trains without OOM.
    pub max_hidden: usize,
}

/// Can a single `hidden -> 4*hidden` linear layer (the transformer's
/// largest operator, Eq. 4) run forward+backward with `tiles`-way
/// memory-centric tiling when no GPU allocation above
/// [`FRAGMENT_BYTES`] can succeed?
pub fn layer_fits(hidden: usize, tiles: usize) -> Result<bool> {
    // Plenty of total memory everywhere; the *fragmentation* is the
    // constraint, exactly as in the paper's setup.
    let spec = NodeMemorySpec::test_spec(1, 1 << 28, 1 << 28, 1 << 28);
    let node = zero_infinity::NodeResources::in_memory(&spec, 1);
    node.hierarchy.prefragment_gpu(0, FRAGMENT_BYTES);

    let mut reg = ParamRegistry::new();
    let tl = TiledLinear::register(&mut reg, "ffn", hidden, 4 * hidden, tiles, 7, 0.02)?;
    let mut engine = ZeroEngine::new(
        &reg,
        sweep_strategy(),
        node.offload_manager(),
        node.group.communicator(0),
        AdamConfig::default(),
    )?;

    let x = Tensor::randn_seeded(&[2, hidden], 3, 0.1);
    let run = (|| -> Result<()> {
        let y = tl.forward(&mut engine, &x)?;
        let dy = Tensor::randn_seeded(&[2, 4 * hidden], 4, 0.1);
        let _dx = tl.backward(&mut engine, &x, &dy)?;
        drop(y);
        engine.step()?;
        Ok(())
    })();
    match run {
        Ok(()) => Ok(true),
        Err(e) if e.is_oom() => Ok(false),
        Err(e) => Err(e),
    }
}

/// Largest hidden size (from a doubling sweep starting at 64) that trains
/// with the given tiling factor.
pub fn max_hidden_size(tiles: usize) -> Result<usize> {
    let mut best = 0;
    let mut hidden = 64;
    while hidden <= 8192 {
        if layer_fits(hidden, tiles.min(4 * hidden))? {
            best = hidden;
            hidden *= 2;
        } else {
            break;
        }
    }
    Ok(best)
}

/// The full Fig. 6b sweep over tiling factors.
pub fn fig6b_rows() -> Result<Vec<Fig6bRow>> {
    [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|tiles| Ok(Fig6bRow { tiles, max_hidden: max_hidden_size(tiles)? }))
        .collect()
}

/// Sanity check used by benches: a tiled and untiled layer produce the
/// same output on an unfragmented engine.
pub fn tiled_untiled_agree(hidden: usize) -> Result<bool> {
    let spec = NodeMemorySpec::test_spec(1, 1 << 28, 1 << 28, 1 << 28);
    let node = zero_infinity::NodeResources::in_memory(&spec, 1);
    let mut reg = ParamRegistry::new();
    let tiled = TiledLinear::register(&mut reg, "t", hidden, 4 * hidden, 4, 7, 0.02)?;
    let untiled = TiledLinear::register(&mut reg, "u", hidden, 4 * hidden, 1, 7, 0.02)?;
    let mut engine = ZeroEngine::new(
        &reg,
        Strategy::infinity_cpu().with_f32_params(),
        node.offload_manager(),
        node.group.communicator(0),
        AdamConfig::default(),
    )?;
    let x = Tensor::randn_seeded(&[2, hidden], 3, 0.1);
    let yt = tiled.forward(&mut engine, &x)?;
    let yu = untiled.forward(&mut engine, &x)?;
    // Same seeds per tile differ from the single-tile layout, so compare
    // only shapes and finiteness here; exact math equivalence is covered
    // by the tiling unit tests against a shared parameter set.
    Ok(yt.shape() == yu.shape() && yt.data().iter().all(|v| v.is_finite()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiling_raises_the_hidden_ceiling() {
        let h1 = max_hidden_size(1).unwrap();
        let h4 = max_hidden_size(4).unwrap();
        let h16 = max_hidden_size(16).unwrap();
        assert!(h1 > 0, "untiled must fit something");
        assert!(h4 > h1, "4-way tiling must beat untiled: {h1} vs {h4}");
        assert!(h16 > h4, "16-way tiling must beat 4-way: {h4} vs {h16}");
        // Paper shape: 16-way tiling reaches ~8x the untiled hidden size
        // (8K -> 64K). Under our scaled fragments the ratio is the claim.
        assert!(h16 / h1 >= 4, "16-way/untiled ratio {} too small", h16 / h1);
    }

    #[test]
    fn tiled_layer_is_well_formed() {
        assert!(tiled_untiled_agree(128).unwrap());
    }
}
