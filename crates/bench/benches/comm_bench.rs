//! Bandwidth-centric partitioning micro-benchmark (paper Sec. 6.1,
//! Fig. 6c).
//!
//! Compares the two ways of getting an offloaded parameter to every GPU:
//! * **broadcast-based** (ZeRO-Offload style): one owner materializes the
//!   full parameter, everyone else receives it;
//! * **allgather-based** (ZeRO-Infinity): every rank contributes its
//!   1/dp shard.
//!
//! With real NCCL the volumes match; the win in the paper comes from the
//! slow-memory hop. Here we attach that hop: the owner (broadcast) reads
//! the whole parameter from the shared in-memory NVMe device, while the
//! allgather path reads only 1/dp per rank, in parallel.

use zi_sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use zi_comm::CommGroup;
use zi_nvme::{MemBackend, NvmeEngine, StorageBackend};

const PARAM_BYTES: usize = 1 << 20;

fn run_world(world: usize, broadcast: bool, eng: &Arc<NvmeEngine>) {
    let group = CommGroup::new(world);
    let mut handles = Vec::new();
    for (rank, comm) in group.communicators().into_iter().enumerate() {
        let eng = Arc::clone(eng);
        handles.push(zi_sync::thread::spawn(move || {
            if broadcast {
                // Rank 0 reads the full parameter from slow memory, then
                // broadcasts.
                let payload = if rank == 0 {
                    let t = eng.submit_read(0, PARAM_BYTES);
                    eng.wait(t).unwrap().unwrap()
                } else {
                    Vec::new()
                };
                let out = comm.broadcast_bytes(0, &payload);
                criterion::black_box(out.unwrap().len());
            } else {
                // Every rank reads its own shard in parallel, then
                // allgathers.
                let shard = PARAM_BYTES / world;
                let t = eng.submit_read((rank * shard) as u64, shard);
                let mine = eng.wait(t).unwrap().unwrap();
                let out = comm.allgather_bytes(&mine);
                criterion::black_box(out.unwrap().len());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

fn bench_fetch_styles(c: &mut Criterion) {
    let backend = Arc::new(MemBackend::new());
    backend.write_at(0, &vec![3u8; PARAM_BYTES]).unwrap();
    let eng = Arc::new(NvmeEngine::new(
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        8,
    ));

    let mut group = c.benchmark_group("offload_fetch");
    group.throughput(Throughput::Bytes(PARAM_BYTES as u64));
    group.sample_size(10);
    for world in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("broadcast", world),
            &world,
            |b, &w| b.iter(|| run_world(w, true, &eng)),
        );
        group.bench_with_input(
            BenchmarkId::new("allgather", world),
            &world,
            |b, &w| b.iter(|| run_world(w, false, &eng)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fetch_styles);
criterion_main!(benches);
