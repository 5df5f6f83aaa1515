//! Layer probes: direct calls into one layer's public functions, timed
//! from outside, each reported beside the bound it should approach.
//!
//! A probe answers "how fast is this layer on its own, and how far from
//! the machine is it" — the number a change to that layer moves first.
//! Whether the end-to-end step then moves is the workloads' business.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::bind::{
    self, AdamProbe, BResult, Collective, CommProbe, MemoryProbe, NvmeProbe, OffloadProbe,
    StoreProbe, TensorProbe,
};
use crate::stats::median;
use crate::workloads::{BackendKind, THROTTLE_BYTES_PER_SEC};

/// Timed iterations of a probe after [`WARMUP`] untimed ones.
const ITERS: usize = 30;
/// Probes that move tens of MB per call get fewer, or the probe pass
/// would outlast the workload it annotates.
const HEAVY_ITERS: usize = 10;
const WARMUP: usize = 3;

/// Median wall seconds of `f` over `iters` calls after warm-up.
fn time<E>(iters: usize, mut f: impl FnMut() -> Result<(), E>) -> Result<f64, E> {
    for _ in 0..WARMUP {
        f()?;
    }
    let mut secs = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f()?;
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&secs))
}

fn time_ok(iters: usize, mut f: impl FnMut()) -> f64 {
    time::<()>(iters, || {
        f();
        Ok(())
    })
    .expect("infallible probe")
}

// ---------------------------------------------------------------------
// machine.*: the bounds, and the noise reference
// ---------------------------------------------------------------------

const CANARY_ITERS: u64 = 30_000_000;

/// A fixed, single-threaded, register-only dependency chain: its time
/// moves only when the core is slowed or shared, never with the code
/// under test. Milliseconds.
pub fn canary_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..CANARY_ITERS {
        // The shift-xor keeps the recurrence from folding into a closed form.
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 29;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

const MEMCPY_BYTES: usize = 64 << 20;

fn memcpy_gbps() -> f64 {
    let src = vec![1u8; MEMCPY_BYTES];
    let mut dst = vec![0u8; MEMCPY_BYTES];
    let secs = time_ok(ITERS, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    MEMCPY_BYTES as f64 / secs / 1e9
}

const FMA_ROUNDS: usize = 2_000_000;
const FMA_ACCS: usize = 10;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
/// # Safety
/// The caller must have checked that the CPU supports AVX2 and FMA.
unsafe fn fma_rounds_avx2(rounds: usize) -> f32 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_ps(black_box(1.000_001));
    let b = _mm256_set1_ps(black_box(1e-7));
    // Ten independent chains cover the FMA latency × two issue ports.
    let mut acc = [_mm256_set1_ps(1.0); FMA_ACCS];
    for _ in 0..rounds {
        for v in acc.iter_mut() {
            *v = _mm256_fmadd_ps(*v, a, b);
        }
    }
    let mut sum = acc[0];
    for v in &acc[1..] {
        sum = _mm256_add_ps(sum, *v);
    }
    let mut lanes = [0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
    lanes.iter().sum()
}

fn fma_rounds_portable(rounds: usize) -> f32 {
    let (a, b) = (black_box(1.000_001f32), black_box(1e-7f32));
    let mut acc = [[1.0f32; 8]; FMA_ACCS];
    for _ in 0..rounds {
        for v in acc.iter_mut() {
            for x in v.iter_mut() {
                *x = *x * a + b;
            }
        }
    }
    acc.iter().flatten().sum()
}

/// Register-resident multiply-add throughput of one core, GFLOP/s, and
/// the kernel that measured it.
fn fma_peak_gflops() -> (f64, &'static str) {
    let flops = (FMA_ROUNDS * FMA_ACCS * 8 * 2) as f64;
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: AVX2 and FMA support was checked on the line above.
        let secs = time_ok(ITERS, || {
            black_box(unsafe { fma_rounds_avx2(FMA_ROUNDS) });
        });
        return (flops / secs / 1e9, "avx2+fma");
    }
    let secs = time_ok(ITERS, || {
        black_box(fma_rounds_portable(FMA_ROUNDS));
    });
    (flops / secs / 1e9, "portable")
}

// ---------------------------------------------------------------------
// The probe pass
// ---------------------------------------------------------------------

/// One achieved ÷ bound pair, printed with both terms.
pub struct Fraction {
    pub name: &'static str,
    pub achieved: f64,
    pub bound: f64,
    pub unit: &'static str,
    pub what: &'static str,
}

impl Fraction {
    pub fn value(&self) -> f64 {
        if self.bound > 0.0 {
            self.achieved / self.bound
        } else {
            0.0
        }
    }
}

#[derive(Default)]
pub struct ProbeReport {
    /// `(metric name, value)`, in the order measured.
    pub values: Vec<(&'static str, f64)>,
    pub fractions: Vec<Fraction>,
    pub fma_kernel: &'static str,
}

impl ProbeReport {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn fraction(&mut self, f: Fraction) {
        self.values.push((f.name, f.value()));
        self.fractions.push(f);
    }
}

fn gb(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

const QD: usize = 8;
const QD_BLOCK: usize = 256 << 10;
const QD_OPS: usize = 64;
const SMALL_OPS: usize = 50;
const SMALL_BLOCK: usize = 4 << 10;
const THROTTLE_OPS: usize = 32;
const CKPT_BYTES: usize = 30_000_000;
const COMM_ELEMS_1M: usize = 1 << 20;
const COMM_ELEMS_4K: usize = 1 << 10;
const POOL_DISPATCHES: usize = 100;
const MEMORY_OPS: usize = 1000;

fn nvme_probes(r: &mut ProbeReport, scratch: &Path) -> BResult<()> {
    let mem = NvmeProbe::new(BackendKind::Mem, scratch)?;
    mem.fill(QD, QD_BLOCK)?;
    let secs = time(ITERS, || {
        mem.queue_depth_run(SMALL_OPS, 1, SMALL_BLOCK, false)
    })?;
    r.put("nvme.engine.op_overhead_us", secs / SMALL_OPS as f64 * 1e6);
    let secs = time(ITERS, || mem.queue_depth_run(QD_OPS, QD, QD_BLOCK, false))?;
    r.put("nvme.engine.read_gbps_qd8", gb(QD_OPS * QD_BLOCK, secs));
    let secs = time(ITERS, || mem.write_batch(QD, QD_BLOCK))?;
    r.put("nvme.engine.write_gbps_qd8", gb(QD * QD_BLOCK, secs));

    let file = NvmeProbe::new(BackendKind::File, scratch)?;
    file.fill(QD, QD_BLOCK)?;
    let secs = time(ITERS, || file.queue_depth_run(QD_OPS, QD, QD_BLOCK, false))?;
    r.put(
        "nvme.engine.file_read_gbps_qd8",
        gb(QD_OPS * QD_BLOCK, secs),
    );
    let secs = time(ITERS, || file.write_batch(QD, QD_BLOCK))?;
    r.put("nvme.engine.file_write_gbps_qd8", gb(QD * QD_BLOCK, secs));

    let slow = NvmeProbe::new(BackendKind::Throttled, scratch)?;
    slow.fill(QD, QD_BLOCK)?;
    let secs = time(HEAVY_ITERS, || {
        slow.queue_depth_run(THROTTLE_OPS, QD, QD_BLOCK, true)
    })?;
    r.fraction(Fraction {
        name: "nvme.engine.throttle_fraction",
        achieved: gb(THROTTLE_OPS * QD_BLOCK, secs),
        bound: NvmeProbe::WORKERS as f64 * THROTTLE_BYTES_PER_SEC / 1e9,
        unit: "GB/s",
        what: "mixed 256 KB QD8 on the throttled device vs workers x line rate",
    });
    Ok(())
}

fn store_probes(r: &mut ProbeReport) -> BResult<()> {
    let mut store = StoreProbe::new(CKPT_BYTES)?;
    let secs = time(HEAVY_ITERS, || store.save())?;
    r.put("nvme.store.save_mbps", CKPT_BYTES as f64 / secs / 1e6);
    let mut stalls = Vec::with_capacity(HEAVY_ITERS);
    for _ in 0..HEAVY_ITERS {
        let payload = store.payload_clone();
        let t = Instant::now();
        store.save_async(payload)?;
        stalls.push(t.elapsed().as_secs_f64() * 1e3);
        store.drain()?;
    }
    r.put("nvme.store.save_async_stall_ms", median(&stalls));
    Ok(())
}

fn comm_probes(r: &mut ProbeReport, memcpy_gbps: f64) -> BResult<()> {
    let comm = CommProbe::new();
    let med = |op, elems, calls: usize| -> BResult<f64> {
        let secs = comm.run(op, elems, calls + WARMUP)?;
        Ok(median(&secs[WARMUP..]))
    };
    let bytes_1m = COMM_ELEMS_1M * 4;
    let ag = med(Collective::Allgather, COMM_ELEMS_1M, ITERS)?;
    r.put("comm.allgather_gbps_1m", gb(bytes_1m, ag));
    r.put(
        "comm.reduce_scatter_gbps_1m",
        gb(
            bytes_1m,
            med(Collective::ReduceScatter, COMM_ELEMS_1M, ITERS)?,
        ),
    );
    r.put(
        "comm.allreduce_gbps_1m",
        gb(bytes_1m, med(Collective::Allreduce, COMM_ELEMS_1M, ITERS)?),
    );
    r.put(
        "comm.allgather_us_4k",
        med(Collective::Allgather, COMM_ELEMS_4K, ITERS)? * 1e6,
    );
    r.put("comm.barrier_us", med(Collective::Barrier, 0, ITERS)? * 1e6);
    r.fraction(Fraction {
        name: "comm.allgather_memcpy_fraction",
        achieved: gb(bytes_1m, ag),
        bound: memcpy_gbps,
        unit: "GB/s",
        what: "4 MB shard gathered per rank vs one memcpy of the same bytes",
    });
    Ok(())
}

fn offload_probes(r: &mut ProbeReport, scratch: &Path) -> BResult<()> {
    let off = OffloadProbe::new(scratch)?;
    let bytes = OffloadProbe::BYTES;
    let secs = time(HEAVY_ITERS, || off.store(false).map(|b| off.free(b)))?;
    r.put("core.offload.store_gbps", gb(bytes, secs));

    let mut buf = off.store(false)?;
    let load = time(HEAVY_ITERS, || off.load(&buf))?;
    r.put("core.offload.load_gbps", gb(bytes, load));
    let write = time(HEAVY_ITERS, || off.overwrite(&mut buf))?;
    let secs = time(HEAVY_ITERS, || off.overwrite_async(&mut buf))?;
    r.put("core.offload.overwrite_async_gbps", gb(bytes, secs));
    off.free(buf);

    let split = off.store(true)?;
    let secs = time(HEAVY_ITERS, || off.load(&split))?;
    r.put("core.offload.split_load_gbps", gb(bytes, secs));
    off.free(split);

    off.raw_fill()?;
    let raw_read = time(HEAVY_ITERS, || off.raw_read())?;
    let raw_write = time(HEAVY_ITERS, || off.raw_write())?;
    // A tax is time over time, so the raw engine is the *achieved* floor:
    // 1.0 means the manager adds nothing to the engine underneath it.
    r.fraction(Fraction {
        name: "core.offload.load_tax",
        achieved: load * 1e3,
        bound: raw_read * 1e3,
        unit: "ms",
        what: "load_placed of 8 MiB vs raw NvmeEngine reads of the same bytes",
    });
    r.fraction(Fraction {
        name: "core.offload.write_tax",
        achieved: write * 1e3,
        bound: raw_write * 1e3,
        unit: "ms",
        what: "overwrite_placed of 8 MiB vs raw NvmeEngine writes of the same bytes",
    });
    Ok(())
}

/// Run every probe once. `scratch` holds the file-backed device.
pub fn run_all(scratch: &Path) -> BResult<ProbeReport> {
    let mut r = ProbeReport::default();

    let memcpy = memcpy_gbps();
    r.put("machine.memcpy_gbps", memcpy);
    let (fma, kernel) = fma_peak_gflops();
    r.fma_kernel = kernel;
    r.put("machine.fma_peak_gflops", fma);
    r.put(
        "machine.canary_ms",
        time_ok(5, || {
            black_box(canary_ms());
        }) * 1e3,
    );

    let mut t = TensorProbe::new();
    let flops = TensorProbe::matmul_flops();
    let nn = flops / time_ok(ITERS, || t.matmul()) / 1e9;
    r.put("tensor.simd.matmul_gflops", nn);
    r.put(
        "tensor.simd.matmul_nt_gflops",
        flops / time_ok(ITERS, || t.matmul_nt()) / 1e9,
    );
    r.put(
        "tensor.simd.matmul_tn_gflops",
        flops / time_ok(ITERS, || t.matmul_tn()) / 1e9,
    );
    let threads = bind::kernel_pool_workers() + 1;
    r.fraction(Fraction {
        name: "tensor.simd.matmul_peak_fraction",
        achieved: nn,
        bound: fma * threads as f64,
        unit: "GFLOP/s",
        what: "128x192x768 matmul vs one-core FMA peak x (pool workers + 1)",
    });
    let elems = TensorProbe::ELEMS;
    // One f32 stream in, one out.
    r.put(
        "tensor.simd.gelu_gbps",
        gb(8 * elems, time_ok(ITERS, || t.gelu())),
    );
    r.put(
        "tensor.simd.layernorm_gbps",
        gb(8 * elems, time_ok(ITERS, || t.layernorm())),
    );
    // 2 bytes on one side, 4 on the other.
    r.put(
        "tensor.simd.f16_to_f32_gbps",
        gb(6 * elems, time_ok(ITERS, || t.f16_to_f32())),
    );
    r.put(
        "tensor.simd.f32_to_f16_gbps",
        gb(6 * elems, time_ok(ITERS, || t.f32_to_f16())),
    );
    let secs = time_ok(ITERS, || {
        for _ in 0..POOL_DISPATCHES {
            t.pool_dispatch();
        }
    });
    r.put(
        "tensor.pool.dispatch_us",
        secs / POOL_DISPATCHES as f64 * 1e6,
    );
    let inline = time_ok(ITERS, || t.tiled_matmul(false));
    let pooled = time_ok(ITERS, || t.tiled_matmul(true));
    r.put("tensor.pool.matmul_speedup_2t", inline / pooled);

    let mut adam = AdamProbe::new();
    let adam_gbps = gb(
        AdamProbe::ELEMS * AdamProbe::BYTES_PER_ELEM,
        time_ok(ITERS, || adam.run()),
    );
    r.put("optim.adam_publish_gbps", adam_gbps);
    r.fraction(Fraction {
        name: "optim.adam_memcpy_fraction",
        achieved: adam_gbps,
        // memcpy reads and writes every byte it copies.
        bound: 2.0 * memcpy,
        unit: "GB/s",
        what: "fused Adam+publish traffic (32 B/elem) vs memcpy traffic (read+write)",
    });

    nvme_probes(&mut r, scratch)?;
    store_probes(&mut r)?;
    comm_probes(&mut r, memcpy)?;

    let mem = MemoryProbe::new();
    let secs = time_ok(ITERS, || {
        for _ in 0..MEMORY_OPS {
            mem.pinned_checkout();
        }
    });
    r.put("memory.pinned.checkout_us", secs / MEMORY_OPS as f64 * 1e6);
    let secs = time(ITERS, || (0..MEMORY_OPS).try_for_each(|_| mem.alloc_free()))?;
    r.put("memory.pool.alloc_free_us", secs / MEMORY_OPS as f64 * 1e6);

    offload_probes(&mut r, scratch)?;
    Ok(r)
}
