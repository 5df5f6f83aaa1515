//! Adam with fp32 master weights, monolithic or chunked.
//!
//! The elementwise update runs through the runtime-dispatched SIMD
//! layer in `zi-tensor` (`ZI_SIMD=scalar` forces the canonical scalar
//! backend; all backends are bit-identical) and large chunks are split
//! across the `zi-sync`-based kernel worker pool. [`adam_update`] is the
//! one-pass form a streamed optimizer record takes: gradient average,
//! update, fp16 publish and the checksums of every byte it stores.

use zi_tensor::pool::{self, SendPtr};
use zi_tensor::simd::{self, AdamParams, GradScale, PublishTo};

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator epsilon.
    pub eps: f32,
    /// Decoupled weight decay (AdamW style).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }
}

/// Minimum elements per worker-pool task for the parallel update path.
const PAR_CHUNK: usize = 16 * 1024;

/// Fold a config, step and gradient average into the per-chunk SIMD
/// kernel parameters.
#[inline]
fn kernel_params(cfg: &AdamConfig, step: u64, grad_scale: GradScale) -> AdamParams {
    assert!(step >= 1, "Adam step is 1-based");
    let (bc1, bc2) = bias_corrections(cfg, step);
    AdamParams {
        beta1: cfg.beta1,
        beta2: cfg.beta2,
        one_minus_beta1: 1.0 - cfg.beta1,
        one_minus_beta2: 1.0 - cfg.beta2,
        bc1,
        bc2,
        lr: cfg.lr,
        eps: cfg.eps,
        weight_decay: cfg.weight_decay,
        grad_scale,
    }
}

/// Elementwise Adam update of one contiguous chunk of optimizer state.
///
/// `step` is the 1-based optimizer step shared by every chunk of the same
/// logical step. Because Adam is elementwise, updating a shard in chunks
/// is bit-identical to a monolithic update — the property the NVMe
/// streaming optimizer step relies on (verified by tests below).
pub fn adam_update_chunk(
    cfg: &AdamConfig,
    step: u64,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
) {
    adam_update(cfg, step, GradScale::One, master, m, v, grad, PublishTo::None, None);
}

/// [`adam_update_chunk`] fused with publication: the updated master value
/// is written into `publish` in the same elementwise pass, saving the
/// streaming optimizer step a separate copy traversal per chunk.
pub fn adam_update_chunk_publish(
    cfg: &AdamConfig,
    step: u64,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    publish: &mut [f32],
) {
    let publish = PublishTo::F32(publish);
    adam_update(cfg, step, GradScale::One, master, m, v, grad, publish, None);
}

/// The general update: `grad` (an accumulated sum) averaged by `scale`,
/// the new masters also written to `publish`, and with `crcs` the
/// running CRC32-C of master, momentum, variance and publish extended
/// over the bytes stored ([`simd::adam_chunk`]). With checksums it is one
/// pass on this thread — a streamed NVMe record checksums its write
/// without reading it again; without them and with no fp16 publish,
/// large chunks are split across the kernel worker pool (Adam is
/// elementwise, so any split is bit-identical to monolithic).
#[allow(clippy::too_many_arguments)]
pub fn adam_update(
    cfg: &AdamConfig,
    step: u64,
    scale: GradScale,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    publish: PublishTo<'_>,
    crcs: Option<&mut [u32; 4]>,
) {
    let p = kernel_params(cfg, step, scale);
    let n = master.len();
    assert!(m.len() == n && v.len() == n && grad.len() == n, "adam_update length mismatch");
    let tasks = n.div_ceil(PAR_CHUNK);
    let split = crcs.is_none() && tasks >= 2 && pool::global().workers() > 0;
    let pubp = match publish {
        PublishTo::None if split => None,
        PublishTo::F32(out) if split => {
            assert_eq!(out.len(), n, "adam_update publish length mismatch");
            Some(SendPtr::new(out.as_mut_ptr()))
        }
        publish => return simd::adam_chunk(&p, master, m, v, grad, publish, crcs),
    };
    let mp = SendPtr::new(master.as_mut_ptr());
    let mmp = SendPtr::new(m.as_mut_ptr());
    let vp = SendPtr::new(v.as_mut_ptr());
    let gp = SendPtr::new(grad.as_ptr() as *mut f32);
    pool::global().run(tasks, &move |i| {
        let start = i * PAR_CHUNK;
        let len = PAR_CHUNK.min(n - start);
        // SAFETY: task indices are distinct so the [start, start+len)
        // ranges are disjoint; the exclusive borrows outlive run().
        unsafe {
            let master = std::slice::from_raw_parts_mut(mp.get().add(start), len);
            let m = std::slice::from_raw_parts_mut(mmp.get().add(start), len);
            let v = std::slice::from_raw_parts_mut(vp.get().add(start), len);
            let grad = std::slice::from_raw_parts(gp.get().add(start), len);
            let publish = match pubp {
                Some(pp) => PublishTo::F32(std::slice::from_raw_parts_mut(pp.get().add(start), len)),
                None => PublishTo::None,
            };
            simd::adam_chunk(&p, master, m, v, grad, publish, None);
        }
    });
}

/// Bias-correction denominators shared by every chunk of one step.
#[inline]
fn bias_corrections(cfg: &AdamConfig, step: u64) -> (f32, f32) {
    (1.0 - cfg.beta1.powi(step as i32), 1.0 - cfg.beta2.powi(step as i32))
}

/// Optimizer state for one parameter shard: fp32 master copy, momentum and
/// variance, 12 bytes/element here plus the fp16 param and grad held by
/// the engine — the paper's 20 bytes/parameter (Sec. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct AdamShard {
    /// fp32 master weights.
    pub master: Vec<f32>,
    /// First moment.
    pub m: Vec<f32>,
    /// Second moment.
    pub v: Vec<f32>,
    /// Completed optimizer steps.
    pub step: u64,
}

impl AdamShard {
    /// Fresh state initialized from the fp32 master values.
    pub fn new(init_master: &[f32]) -> Self {
        AdamShard {
            master: init_master.to_vec(),
            m: vec![0.0; init_master.len()],
            v: vec![0.0; init_master.len()],
            step: 0,
        }
    }

    /// Number of elements in the shard.
    pub fn numel(&self) -> usize {
        self.master.len()
    }

    /// Monolithic update with `grad`; bumps the step count.
    pub fn step_full(&mut self, cfg: &AdamConfig, grad: &[f32]) {
        self.step += 1;
        adam_update_chunk(cfg, self.step, &mut self.master, &mut self.m, &mut self.v, grad);
    }

    /// Begin a logical step for chunked updates; returns the step number to
    /// pass to [`adam_update_chunk`] for every chunk of this step.
    pub fn begin_step(&mut self) -> u64 {
        self.step += 1;
        self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AdamShard {
        /// Update the `[start, start+len)` element range during a chunked
        /// step.
        fn step_chunk(&mut self, cfg: &AdamConfig, start: usize, grad_chunk: &[f32]) {
            let end = start + grad_chunk.len();
            adam_update_chunk(
                cfg,
                self.step,
                &mut self.master[start..end],
                &mut self.m[start..end],
                &mut self.v[start..end],
                grad_chunk,
            );
        }
    }

    fn grads(n: usize, seed: u64) -> Vec<f32> {
        (0..n).map(|i| (((i as u64 * 31 + seed * 17 + 3) % 97) as f32 - 48.0) / 50.0).collect()
    }

    #[test]
    fn single_element_matches_hand_computation() {
        let cfg = AdamConfig { lr: 0.1, beta1: 0.9, beta2: 0.99, eps: 1e-8, weight_decay: 0.0 };
        let mut s = AdamShard::new(&[1.0]);
        s.step_full(&cfg, &[0.5]);
        // m = 0.05, v = 0.0025; mhat = 0.5, vhat = 0.25
        // p = 1 - 0.1 * 0.5 / (0.5 + 1e-8) ≈ 0.9
        assert!((s.master[0] - 0.9).abs() < 1e-5, "got {}", s.master[0]);
        assert!((s.m[0] - 0.05).abs() < 1e-7);
        assert!((s.v[0] - 0.0025).abs() < 1e-7);
    }

    #[test]
    fn chunked_equals_monolithic() {
        let cfg = AdamConfig::default();
        let n = 1000;
        let init: Vec<f32> = (0..n).map(|i| i as f32 / 100.0).collect();
        let mut mono = AdamShard::new(&init);
        let mut chunked = AdamShard::new(&init);
        for step in 0..5u64 {
            let g = grads(n, step);
            mono.step_full(&cfg, &g);
            chunked.begin_step();
            let mut start = 0;
            // Uneven chunk sizes on purpose.
            for chunk in [137usize, 263, 300, 250, 50] {
                chunked.step_chunk(&cfg, start, &g[start..start + chunk]);
                start += chunk;
            }
            assert_eq!(start, n);
        }
        assert_eq!(mono.master, chunked.master, "chunked Adam must be bit-identical");
        assert_eq!(mono.m, chunked.m);
        assert_eq!(mono.v, chunked.v);
        assert_eq!(mono.step, chunked.step);
    }

    #[test]
    fn publish_fused_kernel_matches_plain() {
        let cfg = AdamConfig::default();
        for n in [100usize, PAR_CHUNK + 50] {
            let init: Vec<f32> = (0..n).map(|i| (i % 7) as f32 * 0.3).collect();
            let g = grads(n, 2);
            let mut plain = AdamShard::new(&init);
            plain.step_full(&cfg, &g);
            let mut fused = AdamShard::new(&init);
            let mut published = vec![0f32; n];
            adam_update_chunk_publish(
                &cfg,
                1,
                &mut fused.master,
                &mut fused.m,
                &mut fused.v,
                &g,
                &mut published,
            );
            assert_eq!(plain.master, fused.master, "n={n}");
            assert_eq!(plain.m, fused.m);
            assert_eq!(plain.v, fused.v);
            assert_eq!(published, fused.master, "publish must mirror the new master");
        }
    }

    /// Bytes of `x` as stored.
    fn bytes(x: &[f32]) -> Vec<u8> {
        x.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn one_pass_record_update_equals_average_update_encode_and_checksum() {
        let cfg = AdamConfig { weight_decay: 0.01, ..Default::default() };
        for (n, count) in [(37usize, 2.0f32), (PAR_CHUNK + 50, 6.0)] {
            let init: Vec<f32> = (0..n).map(|i| (i % 11) as f32 * 0.25 - 1.0).collect();
            let sums = grads(n, 3);
            // Unfused: average, update, encode, checksum each stream.
            let mut plain = AdamShard::new(&init);
            plain.begin_step();
            plain.step_chunk(&cfg, 0, &sums.iter().map(|g| g / count).collect::<Vec<_>>());
            let mut half = vec![zi_tensor::F16::ZERO; n];
            simd::f32_to_f16_slice(&plain.master, &mut half);
            let half_bytes: Vec<u8> = half.iter().flat_map(|h| h.to_bits().to_le_bytes()).collect();
            // One pass.
            let mut fused = AdamShard::new(&init);
            let (mut published, mut crcs) = (vec![zi_tensor::F16::ZERO; n], [0u32; 4]);
            let scale = GradScale::average_over(count);
            let to = PublishTo::F16(&mut published);
            let (master, m, v) = (&mut fused.master, &mut fused.m, &mut fused.v);
            adam_update(&cfg, 1, scale, master, m, v, &sums, to, Some(&mut crcs));
            assert_eq!((&plain.master, &plain.m, &plain.v), (&fused.master, &fused.m, &fused.v));
            assert_eq!(published, half, "n={n}: publish");
            let want = [bytes(&plain.master), bytes(&plain.m), bytes(&plain.v), half_bytes]
                .map(|b| simd::crc32(&b));
            assert_eq!(crcs, want, "n={n}: checksums");
            // Without checksums a large chunk takes the pool split: same bits.
            let mut split = AdamShard::new(&init);
            let mut copy = vec![0f32; n];
            let (master, m, v) = (&mut split.master, &mut split.m, &mut split.v);
            adam_update(&cfg, 1, scale, master, m, v, &sums, PublishTo::F32(&mut copy), None);
            assert_eq!((&plain.master, &plain.m, &plain.v), (&split.master, &split.m, &split.v));
            assert_eq!(copy, plain.master);
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(p) = 0.5 * (p - 3)^2 per coordinate.
        let cfg = AdamConfig { lr: 0.1, ..Default::default() };
        let mut s = AdamShard::new(&[0.0, 10.0, -5.0]);
        for _ in 0..500 {
            let g: Vec<f32> = s.master.iter().map(|&p| p - 3.0).collect();
            s.step_full(&cfg, &g);
        }
        for &p in &s.master {
            assert!((p - 3.0).abs() < 0.05, "converged to {p}");
        }
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let cfg = AdamConfig { lr: 0.1, weight_decay: 0.1, ..Default::default() };
        let mut s = AdamShard::new(&[4.0]);
        for _ in 0..200 {
            s.step_full(&cfg, &[0.0]);
        }
        assert!(s.master[0].abs() < 1.0, "decay should pull toward 0: {}", s.master[0]);
    }

    #[test]
    fn parallel_path_matches_sequential() {
        let cfg = AdamConfig::default();
        let n = PAR_CHUNK + 100; // force the pool path
        let init: Vec<f32> = (0..n).map(|i| (i % 13) as f32 * 0.1).collect();
        let g = grads(n, 5);
        let mut par = AdamShard::new(&init);
        par.step_full(&cfg, &g);
        // Sequential by splitting into sub-PAR_CHUNK chunks.
        let mut seq = AdamShard::new(&init);
        seq.begin_step();
        let mut start = 0;
        while start < n {
            let end = (start + 1000).min(n);
            seq.step_chunk(&cfg, start, &g[start..end]);
            start = end;
        }
        assert_eq!(par.master, seq.master);
    }
}
