//! Training-state checkpointing: save and restore a rank's complete
//! engine state (fp32 master weights, Adam moments, step counts).
//!
//! Real large-model training jobs checkpoint constantly; the paper's
//! open-source implementation inherits DeepSpeed's checkpointing. Here
//! each rank serializes only its own optimizer shard — the same
//! no-replication principle as training itself — so checkpoint size per
//! rank is `~12 bytes × params / dp` regardless of model scale.
//!
//! `load_state` republishes parameter storage from the restored masters;
//! for replicated-parameter strategies with a partitioned optimizer
//! (ZeRO-1/2) that involves an allgather, so **every rank must call
//! `load_state` collectively**, just like training.
//!
//! ## Blob format (version 2)
//!
//! ```text
//! magic        8 B   "ZINFCKP1"
//! format       1 B   = 2
//! rank         u64   saving rank
//! world        u64   dp world size at save time
//! partitioned  u8    1 if optimizer state is sharded across ranks
//! count        u64   number of parameter records
//! per record:
//!   step   u64       Adam step count for this parameter
//!   numel  u64       full (unpartitioned) element count
//!   master u64 + f32×n   length-prefixed fp32 master values
//!   m      u64 + f32×n   first Adam moment
//!   v      u64 + f32×n   second Adam moment
//! ```
//!
//! All integers little-endian. Version 1 (no format byte, no world /
//! partitioned / numel fields) is rejected with a typed
//! [`Error::VersionMismatch`]. Recording `world` and per-record `numel`
//! is what makes elastic world-shrink possible: a full set of rank blobs
//! is exactly the padded concatenation of every parameter's master/moment
//! vectors, so [`reshard_checkpoint_blobs`] can re-run the
//! bandwidth-centric partitioning at a different dp degree without
//! touching an engine.

use zi_comm::Partitioner;
use zi_types::{Error, Result};

use crate::engine::ZeroEngine;

/// Magic header for checkpoint blobs.
const MAGIC: &[u8; 8] = b"ZINFCKP1";

/// Blob format version this build reads and writes.
pub const CHECKPOINT_FORMAT: u8 = 2;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, vals: &[f32]) {
    put_u64(out, vals.len() as u64);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| Error::InvalidArgument("checkpoint length overflow".into()))?;
        if end > self.buf.len() {
            return Err(Error::InvalidArgument("checkpoint truncated".into()));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f32s(&mut self) -> Result<Vec<f32>> {
        // The length is untrusted (a corrupt blob can claim anything):
        // the multiply must not overflow and the following bounds check
        // in `take` must reject lengths beyond the buffer.
        let n = usize::try_from(self.u64()?)
            .map_err(|_| Error::InvalidArgument("checkpoint run length overflows usize".into()))?;
        let nbytes = n
            .checked_mul(4)
            .ok_or_else(|| Error::InvalidArgument("checkpoint run length overflows usize".into()))?;
        let bytes = self.take(nbytes)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Serialized form of one parameter's optimizer shard.
pub(crate) struct ParamRecord {
    pub step: u64,
    /// Full (unpartitioned) element count of the parameter.
    pub numel: u64,
    pub master: Vec<f32>,
    pub m: Vec<f32>,
    pub v: Vec<f32>,
}

/// A parsed checkpoint blob: header plus per-parameter records.
struct Blob {
    rank: usize,
    world: usize,
    partitioned: bool,
    records: Vec<ParamRecord>,
}

fn write_blob(b: &Blob) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(CHECKPOINT_FORMAT);
    put_u64(&mut out, b.rank as u64);
    put_u64(&mut out, b.world as u64);
    out.push(u8::from(b.partitioned));
    put_u64(&mut out, b.records.len() as u64);
    for r in &b.records {
        put_u64(&mut out, r.step);
        put_u64(&mut out, r.numel);
        put_f32s(&mut out, &r.master);
        put_f32s(&mut out, &r.m);
        put_f32s(&mut out, &r.v);
    }
    out
}

/// The data-parallel world size a checkpoint blob was saved at.
pub(crate) fn checkpoint_world(bytes: &[u8]) -> Result<usize> {
    Ok(parse_blob(bytes)?.world)
}

fn parse_blob(bytes: &[u8]) -> Result<Blob> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(Error::InvalidArgument("not a zero-infinity checkpoint".into()));
    }
    let format = r.u8()?;
    if format != CHECKPOINT_FORMAT {
        return Err(Error::VersionMismatch {
            context: "checkpoint blob format".into(),
            found: format as u32,
            expected: CHECKPOINT_FORMAT as u32,
        });
    }
    let rank = r.u64()? as usize;
    let world = r.u64()? as usize;
    if world == 0 || rank >= world {
        return Err(Error::InvalidArgument(format!(
            "checkpoint header claims rank {rank} of world {world}"
        )));
    }
    let partitioned = match r.u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(Error::InvalidArgument(format!(
                "checkpoint partitioned flag must be 0 or 1, got {other}"
            )))
        }
    };
    let count = usize::try_from(r.u64()?)
        .map_err(|_| Error::InvalidArgument("checkpoint record count overflows usize".into()))?;
    // A record is ≥ 40 bytes; reject counts the buffer cannot hold
    // before allocating.
    if count > bytes.len() / 40 + 1 {
        return Err(Error::InvalidArgument("checkpoint record count exceeds blob size".into()));
    }
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let step = r.u64()?;
        let numel = r.u64()?;
        let master = r.f32s()?;
        let m = r.f32s()?;
        let v = r.f32s()?;
        if m.len() != master.len() || v.len() != master.len() {
            return Err(Error::InvalidArgument("inconsistent moment lengths".into()));
        }
        records.push(ParamRecord { step, numel, master, m, v });
    }
    if !r.done() {
        return Err(Error::InvalidArgument("trailing bytes in checkpoint".into()));
    }
    Ok(Blob { rank, world, partitioned, records })
}

/// Re-run the bandwidth-centric partitioning of a complete set of rank
/// checkpoints at a different data-parallel degree.
///
/// `blobs[r]` must be rank `r`'s blob from one consistent version (all
/// saved by the same `world = blobs.len()` run). Returns `new_world`
/// blobs that a `new_world`-rank engine group loads exactly as if it had
/// saved them itself — the core of elastic world-shrink recovery: the
/// padded concatenation of every rank's shard of a parameter *is* the
/// full fp32 vector, so re-partitioning is pure data movement, no
/// engine required.
pub fn reshard_checkpoint_blobs(blobs: &[Vec<u8>], new_world: usize) -> Result<Vec<Vec<u8>>> {
    if blobs.is_empty() || new_world == 0 {
        return Err(Error::IncompatibleWorld {
            from: blobs.len(),
            to: new_world,
            context: "reshard needs ≥1 source blob and ≥1 target rank".into(),
        });
    }
    let old_world = blobs.len();
    let parsed: Vec<Blob> = blobs.iter().map(|b| parse_blob(b)).collect::<Result<_>>()?;
    let first = &parsed[0];
    for (r, b) in parsed.iter().enumerate() {
        if b.rank != r || b.world != old_world {
            return Err(Error::InvalidArgument(format!(
                "blob {r} claims rank {} of world {} (expected rank {r} of {old_world})",
                b.rank, b.world
            )));
        }
        if b.partitioned != first.partitioned || b.records.len() != first.records.len() {
            return Err(Error::InvalidArgument(format!(
                "blob {r} layout disagrees with rank 0"
            )));
        }
    }

    let count = first.records.len();
    let mut out: Vec<Blob> = (0..new_world)
        .map(|r| Blob {
            rank: r,
            world: new_world,
            partitioned: first.partitioned,
            records: Vec::with_capacity(count),
        })
        .collect();

    for j in 0..count {
        let step = first.records[j].step;
        let numel = first.records[j].numel;
        for (r, b) in parsed.iter().enumerate() {
            let rec = &b.records[j];
            if rec.step != step || rec.numel != numel {
                return Err(Error::InvalidArgument(format!(
                    "param {j}: rank {r} disagrees on step/numel"
                )));
            }
        }
        if first.partitioned {
            // Concatenate rank-ordered shards into the padded full
            // vector, truncate the padding, then re-pad and split at the
            // new degree.
            let numel_us = numel as usize;
            let old_part = Partitioner::new(old_world);
            let shard_len = old_part.shard_len(numel_us);
            let mut full = [Vec::new(), Vec::new(), Vec::new()];
            for b in &parsed {
                let rec = &b.records[j];
                for (acc, vals) in full.iter_mut().zip([&rec.master, &rec.m, &rec.v]) {
                    if vals.len() != shard_len {
                        return Err(Error::IncompatibleWorld {
                            from: old_world,
                            to: new_world,
                            context: format!(
                                "param {j}: shard of {} elements, expected {shard_len} \
                                 for a world-{old_world} partitioning",
                                vals.len()
                            ),
                        });
                    }
                    acc.extend_from_slice(vals);
                }
            }
            let new_part = Partitioner::new(new_world);
            let new_shard = new_part.shard_len(numel_us);
            let mut shards = full.map(|mut acc| {
                acc.truncate(numel_us);
                acc.resize(new_part.padded_len(numel_us), 0.0);
                acc
            });
            for nb in out.iter_mut() {
                let r = nb.rank;
                let range = r * new_shard..(r + 1) * new_shard;
                nb.records.push(ParamRecord {
                    step,
                    numel,
                    master: shards[0][range.clone()].to_vec(),
                    m: shards[1][range.clone()].to_vec(),
                    v: shards[2][range].to_vec(),
                });
            }
            // Drop the working buffers eagerly for large models.
            shards = [Vec::new(), Vec::new(), Vec::new()];
            let _ = shards;
        } else {
            // Replicated optimizer state: every rank holds the full
            // vectors (identical by construction — gradients are
            // allreduced), so each new rank takes a surviving copy.
            for nb in out.iter_mut() {
                let src = &parsed[nb.rank % old_world].records[j];
                nb.records.push(ParamRecord {
                    step,
                    numel,
                    master: src.master.clone(),
                    m: src.m.clone(),
                    v: src.v.clone(),
                });
            }
        }
    }
    Ok(out.iter().map(write_blob).collect())
}

impl ZeroEngine {
    /// Serialize this rank's training state (master weights, Adam moments,
    /// per-parameter step counts). Pending gradients are not saved — call
    /// after `step()`, as real training loops do.
    pub fn save_state(&self) -> Result<Vec<u8>> {
        let blob = Blob {
            rank: self.rank(),
            world: self.world_size(),
            partitioned: self.strategy().partition_optimizer,
            records: self.export_optimizer_records()?,
        };
        Ok(write_blob(&blob))
    }

    /// Restore state produced by [`ZeroEngine::save_state`] on the same
    /// rank with the same registry, world size and strategy. Collective
    /// for replicated-parameter strategies.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<()> {
        let blob = parse_blob(bytes)?;
        if blob.rank != self.rank() {
            return Err(Error::InvalidArgument(format!(
                "checkpoint from rank {} loaded on rank {}",
                blob.rank,
                self.rank()
            )));
        }
        if blob.world != self.world_size() {
            return Err(Error::IncompatibleWorld {
                from: blob.world,
                to: self.world_size(),
                context: "checkpoint world does not match engine world (reshard it first)".into(),
            });
        }
        if blob.partitioned != self.strategy().partition_optimizer {
            return Err(Error::InvalidArgument(
                "checkpoint optimizer partitioning disagrees with engine strategy".into(),
            ));
        }
        if blob.records.len() != self.param_count() {
            return Err(Error::InvalidArgument(format!(
                "checkpoint has {} params, engine has {}",
                blob.records.len(),
                self.param_count()
            )));
        }
        self.import_optimizer_records(blob.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use crate::engine::ZeroEngine;
    use crate::offload::NodeResources;
    use crate::trainer::{synthetic_batch, train_dense_baseline};
    use zi_memory::NodeMemorySpec;
    use zi_model::{GptConfig, GptModel, RunOptions};
    use zi_optim::AdamConfig;

    fn node() -> NodeResources {
        NodeResources::in_memory(&NodeMemorySpec::test_spec(1, 1 << 24, 1 << 26, 1 << 26), 1)
    }

    fn engine_for(node: &NodeResources, model: &GptModel, strategy: Strategy) -> ZeroEngine {
        ZeroEngine::new(
            model.registry(),
            strategy,
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig { lr: 0.02, ..Default::default() },
        )
        .expect("engine")
    }

    fn run_steps(
        model: &GptModel,
        engine: &mut ZeroEngine,
        cfg: &GptConfig,
        from: usize,
        to: usize,
    ) -> Vec<f32> {
        let opts = RunOptions::default();
        let mut losses = Vec::new();
        for step in from..to {
            let (tokens, targets) = synthetic_batch(cfg, 1, step);
            losses
                .push(model.train_step(engine, &tokens, &targets, &opts).expect("train step"));
            engine.step().expect("step");
        }
        losses
    }

    #[test]
    fn resume_reproduces_continuous_run() {
        for strategy in [
            Strategy::infinity_nvme().with_f32_params(),
            Strategy::zero_2().with_f32_params(),
            Strategy::data_parallel().with_f32_params(),
        ] {
            let cfg = GptConfig::tiny();
            let model = GptModel::new(cfg);

            // Continuous 5-step run.
            let n1 = node();
            let mut cont = engine_for(&n1, &model, strategy);
            let cont_losses = run_steps(&model, &mut cont, &cfg, 0, 5);

            // 3 steps, save, fresh engine, load, 2 more steps.
            let n2 = node();
            let mut first = engine_for(&n2, &model, strategy);
            run_steps(&model, &mut first, &cfg, 0, 3);
            let blob = first.save_state().expect("save");
            first.dispose().expect("dispose");

            let n3 = node();
            let mut resumed = engine_for(&n3, &model, strategy);
            resumed.load_state(&blob).expect("load");
            let resumed_losses = run_steps(&model, &mut resumed, &cfg, 3, 5);

            assert_eq!(
                &cont_losses[3..],
                &resumed_losses[..],
                "{}: resume diverged",
                strategy.name
            );
        }
    }

    #[test]
    fn resumed_state_matches_dense_baseline() {
        let cfg = GptConfig::tiny();
        let adam = AdamConfig { lr: 0.02, ..Default::default() };
        let (base, _) = train_dense_baseline(&cfg, 1, 5, adam, false).unwrap();

        let model = GptModel::new(cfg);
        let n = node();
        let mut eng = engine_for(&n, &model, Strategy::infinity_cpu().with_f32_params());
        let mut losses = run_steps(&model, &mut eng, &cfg, 0, 2);
        let blob = eng.save_state().unwrap();
        eng.dispose().unwrap();

        let n2 = node();
        let mut eng2 = engine_for(&n2, &model, Strategy::infinity_cpu().with_f32_params());
        eng2.load_state(&blob).unwrap();
        losses.extend(run_steps(&model, &mut eng2, &cfg, 2, 5));
        for (a, b) in losses.iter().zip(&base) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn corrupted_checkpoints_are_rejected() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let n = node();
        let mut eng = engine_for(&n, &model, Strategy::zero_3().with_f32_params());
        let blob = eng.save_state().unwrap();

        // Bad magic.
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(eng.load_state(&bad).is_err());
        // Truncated.
        assert!(eng.load_state(&blob[..blob.len() - 3]).is_err());
        // Trailing garbage.
        let mut long = blob.clone();
        long.push(0);
        assert!(eng.load_state(&long).is_err());
        // Every single-bit flip anywhere in the header region must be
        // rejected or load as a valid (possibly different) checkpoint —
        // never panic.
        for byte in 0..34.min(blob.len()) {
            let mut flip = blob.clone();
            flip[byte] ^= 1;
            let _ = eng.load_state(&flip);
        }
        // Valid blob still loads after the failed attempts.
        assert!(eng.load_state(&blob).is_ok());
    }

    #[test]
    fn stale_format_version_is_typed() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let n = node();
        let mut eng = engine_for(&n, &model, Strategy::zero_3().with_f32_params());
        let mut blob = eng.save_state().unwrap();
        blob[8] = 1; // format byte follows the 8-byte magic
        match eng.load_state(&blob) {
            Err(Error::VersionMismatch { found: 1, expected, .. }) => {
                assert_eq!(expected, CHECKPOINT_FORMAT as u32);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn hostile_length_fields_do_not_panic() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let n = node();
        let mut eng = engine_for(&n, &model, Strategy::zero_3().with_f32_params());
        let blob = eng.save_state().unwrap();

        // First f32 run length lives right after the fixed header and the
        // first record's step+numel. Overwrite it with values that would
        // overflow `n * 4` or exhaust memory if trusted.
        let len_off = 8 + 1 + 8 + 8 + 1 + 8 + 8 + 8;
        for hostile in [u64::MAX, u64::MAX / 2, 1u64 << 62, u64::MAX / 4 + 1] {
            let mut bad = blob.clone();
            bad[len_off..len_off + 8].copy_from_slice(&hostile.to_le_bytes());
            assert!(eng.load_state(&bad).is_err(), "length {hostile:#x} must be rejected");
        }
        // Hostile record count: claims more records than the blob holds.
        let count_off = 8 + 1 + 8 + 8 + 1;
        let mut bad = blob.clone();
        bad[count_off..count_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(eng.load_state(&bad).is_err());
    }

    #[test]
    fn wrong_model_shape_rejected() {
        let n = node();
        let small = GptModel::new(GptConfig::tiny());
        let eng = engine_for(&n, &small, Strategy::zero_3().with_f32_params());
        let blob = eng.save_state().unwrap();

        let big_cfg = GptConfig { layers: 3, ..GptConfig::tiny() };
        let big = GptModel::new(big_cfg);
        let n2 = node();
        let mut eng2 = engine_for(&n2, &big, Strategy::zero_3().with_f32_params());
        assert!(eng2.load_state(&blob).is_err());
    }

    /// Train `steps` at `world` ranks with `chunk`-element optimizer
    /// records, first restoring `resume` (one blob per rank) when given:
    /// rank 0's losses as bits, and every rank's saved state.
    fn run_world(
        world: usize,
        chunk: usize,
        resume: Option<&[Vec<u8>]>,
        steps: std::ops::Range<usize>,
    ) -> (Vec<u32>, Vec<Vec<u8>>) {
        let cfg = GptConfig::tiny();
        let spec = NodeMemorySpec::test_spec(world, 1 << 24, 1 << 26, 1 << 26);
        let node = zi_sync::Arc::new(NodeResources::in_memory(&spec, world));
        let handles: Vec<_> = (0..world)
            .map(|rank| {
                let node = zi_sync::Arc::clone(&node);
                let blob = resume.map(|blobs| blobs[rank].clone());
                let steps = steps.clone();
                zi_sync::thread::spawn(move || {
                    let model = GptModel::new(cfg);
                    let mut engine = ZeroEngine::new(
                        model.registry(),
                        Strategy::infinity_nvme().with_optimizer_chunk(chunk),
                        node.offload_manager(),
                        node.group.communicator(rank),
                        AdamConfig { lr: 0.02, ..Default::default() },
                    )
                    .expect("engine");
                    if let Some(blob) = blob {
                        engine.load_state(&blob).expect("load");
                    }
                    let rows = cfg.seq;
                    let losses: Vec<u32> = steps
                        .map(|step| {
                            let (tokens, targets) = synthetic_batch(&cfg, world, step);
                            let mine = rank * rows..(rank + 1) * rows;
                            let loss = model
                                .train_step(
                                    &mut engine,
                                    &tokens[mine.clone()],
                                    &targets[mine],
                                    &RunOptions::default(),
                                )
                                .expect("train step");
                            assert!(engine.step().expect("step"));
                            loss.to_bits()
                        })
                        .collect();
                    let blob = engine.save_state().expect("save");
                    engine.dispose().expect("dispose");
                    (losses, blob)
                })
            })
            .collect();
        let mut ranks: Vec<_> = handles.into_iter().map(|h| h.join().expect("rank thread")).collect();
        let losses = std::mem::take(&mut ranks[0].0);
        (losses, ranks.into_iter().map(|(_, blob)| blob).collect())
    }

    /// How an engine packs short parameters into shared records and
    /// interleaves master, momentum and variance on its tier is its own
    /// business: a checkpoint carries none of it.
    #[test]
    fn the_record_layout_never_reaches_a_checkpoint() {
        // At world 2 the tiny model's shards are 4 to 64 elements. Records
        // of one element pack nothing; of 7, the fourteen 4-element layer
        // norms and biases share records, six straddling two; of 64, every
        // shard but `wte`'s packs; one record holds everything. The same
        // training saves the unpacked run's bytes under each.
        let (losses, saved) = run_world(2, 1, None, 0..3);
        for chunk in [7, 64, usize::MAX] {
            assert_eq!(run_world(2, chunk, None, 0..3), (losses.clone(), saved.clone()), "{chunk}");
        }
        // Saved under 7-element records, restored under 64-element ones,
        // which pack other members, training goes on as if never
        // interrupted.
        let (uninterrupted, end) = run_world(2, 1, None, 0..5);
        let packed = run_world(2, 7, None, 0..3).1;
        assert_eq!(run_world(2, 64, Some(&packed), 3..5), (uninterrupted[3..].to_vec(), end));
        // Through a reshard to three ranks as well: whatever record size
        // the new engines stream at, and whatever it packs, they continue
        // alike.
        let three = reshard_checkpoint_blobs(&packed, 3).expect("reshard");
        let same = run_world(3, 1, Some(&three), 3..5);
        assert_eq!(run_world(3, 7, Some(&three), 3..5), same);
        assert_eq!(run_world(3, 64, Some(&three), 3..5), same);
    }

    /// A record whose momentum or variance is not the shard's length is
    /// refused before any parameter's state is overwritten.
    #[test]
    fn a_short_or_long_moment_is_typed_and_overwrites_nothing() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let n = node();
        let mut eng = engine_for(&n, &model, Strategy::infinity_nvme());
        run_steps(&model, &mut eng, &cfg, 0, 2);
        let saved = eng.save_state().expect("save");
        let last = eng.param_count() - 1;
        let damage: [fn(&mut ParamRecord); 4] = [
            |r| r.m.truncate(r.m.len() - 1),
            |r| r.m.push(0.0),
            |r| r.v.truncate(r.v.len() - 1),
            |r| r.v.push(0.0),
        ];
        for hurt in damage {
            // Every record differs from the engine's state, the last one
            // is malformed: a record-at-a-time import would have
            // overwritten all the others by the time it got there.
            let mut blob = parse_blob(&saved).expect("parse");
            for rec in &mut blob.records {
                rec.master.iter_mut().for_each(|x| *x += 1.0);
            }
            hurt(&mut blob.records[last]);
            let err = eng.load_state(&write_blob(&blob)).expect_err("malformed record");
            assert!(matches!(err, Error::InvalidArgument(_)), "got {err}");
            assert_eq!(eng.save_state().expect("save"), saved, "a refused import changed state");
        }
        eng.dispose().expect("dispose");
    }

    /// Resharding synthetic partitioned blobs reproduces the padded
    /// concat/split math exactly.
    #[test]
    fn reshard_repartitions_masters_exactly() {
        let numel = 10usize; // old world 4 → shard_len 3, padded 12
        let old_world = 4;
        let full: Vec<f32> = (0..numel).map(|i| i as f32 + 0.5).collect();
        let old_part = Partitioner::new(old_world);
        let mut padded = full.clone();
        padded.resize(old_part.padded_len(numel), 0.0);
        let blobs: Vec<Vec<u8>> = (0..old_world)
            .map(|r| {
                let range = old_part.shard_range(numel, r);
                let shard = padded[range].to_vec();
                write_blob(&Blob {
                    rank: r,
                    world: old_world,
                    partitioned: true,
                    records: vec![ParamRecord {
                        step: 7,
                        numel: numel as u64,
                        master: shard.clone(),
                        m: shard.iter().map(|v| v * 2.0).collect(),
                        v: shard.iter().map(|v| v * 3.0).collect(),
                    }],
                })
            })
            .collect();

        for new_world in [3usize, 2, 1, 5] {
            let out = reshard_checkpoint_blobs(&blobs, new_world).expect("reshard");
            assert_eq!(out.len(), new_world);
            let new_part = Partitioner::new(new_world);
            let mut recovered = Vec::new();
            for (r, blob) in out.iter().enumerate() {
                let b = parse_blob(blob).expect("parse resharded");
                assert_eq!((b.rank, b.world, b.partitioned), (r, new_world, true));
                assert_eq!(b.records.len(), 1);
                let rec = &b.records[0];
                assert_eq!((rec.step, rec.numel), (7, numel as u64));
                assert_eq!(rec.master.len(), new_part.shard_len(numel));
                for ((mv, m2), v3) in rec.master.iter().zip(&rec.m).zip(&rec.v) {
                    assert_eq!(*m2, mv * 2.0);
                    assert_eq!(*v3, mv * 3.0);
                }
                recovered.extend_from_slice(&rec.master);
            }
            recovered.truncate(numel);
            assert_eq!(recovered, full, "new_world {new_world}");
        }
    }

    #[test]
    fn reshard_rejects_inconsistent_sets() {
        let mk = |rank: usize, world: usize, step: u64| {
            write_blob(&Blob {
                rank,
                world,
                partitioned: true,
                records: vec![ParamRecord {
                    step,
                    numel: 4,
                    master: vec![0.0; 2],
                    m: vec![0.0; 2],
                    v: vec![0.0; 2],
                }],
            })
        };
        // Blob count disagrees with recorded world.
        assert!(reshard_checkpoint_blobs(&[mk(0, 2, 1)], 1).is_err());
        // Ranks out of order.
        assert!(reshard_checkpoint_blobs(&[mk(1, 2, 1), mk(0, 2, 1)], 1).is_err());
        // Step mismatch across ranks (mixed versions).
        assert!(reshard_checkpoint_blobs(&[mk(0, 2, 1), mk(1, 2, 2)], 1).is_err());
        // Consistent set passes.
        assert!(reshard_checkpoint_blobs(&[mk(0, 2, 1), mk(1, 2, 1)], 1).is_ok());
    }

    /// Incompatible targets come back as the typed `IncompatibleWorld`
    /// error, not a catch-all, even for hostile shard payloads.
    #[test]
    fn reshard_incompatible_targets_are_typed() {
        let mk = |rank: usize, world: usize, shard: usize| {
            write_blob(&Blob {
                rank,
                world,
                partitioned: true,
                records: vec![ParamRecord {
                    step: 1,
                    numel: 4,
                    master: vec![0.0; shard],
                    m: vec![0.0; shard],
                    v: vec![0.0; shard],
                }],
            })
        };

        // Zero target ranks / empty source set.
        match reshard_checkpoint_blobs(&[mk(0, 1, 4)], 0) {
            Err(Error::IncompatibleWorld { from: 1, to: 0, .. }) => {}
            other => panic!("expected IncompatibleWorld for new_world 0, got {other:?}"),
        }
        match reshard_checkpoint_blobs(&[], 3) {
            Err(Error::IncompatibleWorld { from: 0, to: 3, .. }) => {}
            other => panic!("expected IncompatibleWorld for empty set, got {other:?}"),
        }

        // Hostile shard layout: blob claims world 2 (shard_len 2 for
        // numel 4) but carries 3-element shards. The layout cannot be a
        // world-2 partitioning, so growing it to 3 must fail typed.
        let hostile = vec![mk(0, 2, 3), mk(1, 2, 3)];
        match reshard_checkpoint_blobs(&hostile, 3) {
            Err(Error::IncompatibleWorld { from: 2, to: 3, ref context }) => {
                assert!(context.contains("expected 2"), "context: {context}");
            }
            other => panic!("expected IncompatibleWorld for bad shard len, got {other:?}"),
        }

        // Engine-side world mismatch on load is typed the same way.
        let model = GptModel::new(GptConfig::tiny());
        let n = node();
        let mut eng = engine_for(&n, &model, Strategy::data_parallel().with_f32_params());
        let mut wrong_world = parse_blob(&eng.save_state().unwrap()).unwrap();
        wrong_world.world = 2;
        match eng.load_state(&write_blob(&wrong_world)) {
            Err(Error::IncompatibleWorld { from: 2, to: 1, .. }) => {}
            other => panic!("expected IncompatibleWorld on world-mismatched load, got {other:?}"),
        }

        // Malformed-but-compatible inputs stay InvalidArgument: the
        // rank-order violation is a caller bug, not a layout limit.
        match reshard_checkpoint_blobs(&[mk(1, 2, 2), mk(0, 2, 2)], 1) {
            Err(Error::InvalidArgument(_)) => {}
            other => panic!("expected InvalidArgument for rank disorder, got {other:?}"),
        }
    }
}
