//! Trace-accounting invariants: the zi-trace event stream and counters
//! must agree with each other, with the NVMe engine's own `IoStats`,
//! and with the wall-clock structure of a training run — otherwise the
//! overlap-efficiency report is measuring fiction.

use zi_sync::Arc;

use zero_infinity::{
    train_gpt_env, NodeResources, Strategy, TrainEnv, TrainSpec, ZeroEngine,
};
use zi_comm::CommConfig;
use zi_memory::NodeMemorySpec;
use zi_model::{GptConfig, ParamRegistry, ParamStore};
use zi_nvme::{MemBackend, RetryPolicy, StorageBackend};
use zi_optim::AdamConfig;
use zi_tensor::Tensor;
use zi_trace::export::{chrome_trace_json, parse_chrome_trace};
use zi_trace::report::OverlapReport;
use zi_trace::{Category, CounterSnapshot, Event, Tracer};

const STEPS: usize = 3;
const WORLD: usize = 2;

/// Run a traced 2-rank NVMe-offloaded training session and hand back
/// its complete event stream and counters.
fn traced_train() -> (Vec<Event>, CounterSnapshot) {
    let tracer = Tracer::new();
    let spec = TrainSpec {
        steps: STEPS,
        ..TrainSpec::test_default(GptConfig::tiny(), Strategy::infinity_nvme(), WORLD)
    };
    let env = TrainEnv { tracer: Some(tracer.clone()), ..TrainEnv::new(Arc::new(MemBackend::new())) };
    let out = train_gpt_env(&spec, env).expect("traced train run");
    assert_eq!(out.losses.len(), STEPS);
    (tracer.take_events(), tracer.snapshot())
}

fn span_bytes(events: &[Event], pred: impl Fn(&Event) -> bool) -> u64 {
    events.iter().filter(|e| pred(e)).map(|e| e.bytes).sum()
}

#[test]
fn counters_agree_with_the_event_stream() {
    let (events, snap) = traced_train();
    assert_eq!(snap.events_dropped, 0, "default rings must hold a tiny run without drops");

    // Every hop category (and the compute that hides them) shows up.
    for cat in [
        Category::NcTransfer,
        Category::CgTransfer,
        Category::Allgather,
        Category::ReduceScatter,
        Category::Compute,
        Category::OptimStep,
    ] {
        assert!(
            events.iter().any(|e| e.cat == cat),
            "no {} events in a full NVMe-offloaded run",
            cat.label()
        );
    }

    // Counter bytes and span bytes are recorded at the same call sites;
    // with zero drops they must agree exactly, hop by hop.
    let nc_read = span_bytes(&events, |e| e.cat == Category::NcTransfer && e.name == "nc.read");
    let nc_write = span_bytes(&events, |e| e.cat == Category::NcTransfer && e.name == "nc.write");
    let cg = span_bytes(&events, |e| e.cat == Category::CgTransfer);
    let gg = span_bytes(&events, |e| e.cat == Category::Allgather);
    let rs = span_bytes(&events, |e| e.cat == Category::ReduceScatter);
    assert_eq!(snap.nc_read_bytes, nc_read, "nc read counter disagrees with nc.read spans");
    assert_eq!(snap.nc_write_bytes, nc_write, "nc write counter disagrees with nc.write spans");
    assert_eq!(snap.cg_bytes, cg, "cg counter disagrees with cg.upload spans");
    assert_eq!(snap.gg_bytes, gg, "gg counter disagrees with allgather spans");
    assert_eq!(snap.rs_bytes, rs, "rs counter disagrees with reduce-scatter spans");
    assert!(nc_read > 0 && cg > 0 && gg > 0 && rs > 0, "a real run moves bytes on every hop");

    // Prefetch accounting is self-consistent: late demand fetches are a
    // subset of hits, and every hit was a previously issued load.
    assert!(snap.prefetch_late <= snap.prefetch_hits);
    assert!(snap.prefetch_hits <= snap.prefetch_issued);
}

/// The timeline a user opens is the run that happened: the Chrome export
/// of a real two-rank offloaded session re-parses, no event falls out on
/// the way, and each hop the report is about (nc, cg, gg) is on it with
/// exactly the spans the tracer recorded.
#[test]
fn chrome_export_of_a_training_run_reparses_with_every_hop() {
    let (events, snap) = traced_train();
    let trace = parse_chrome_trace(&chrome_trace_json(&events, &snap))
        .expect("the exported Chrome trace must re-parse");
    assert_eq!(trace.spans.len(), events.len(), "events lost or invented by the export");
    for cat in [
        Category::NcTransfer,
        Category::CgTransfer,
        Category::Allgather,
        Category::ReduceScatter,
    ] {
        let recorded = events.iter().filter(|e| e.cat == cat && e.dur_ns > 0).count();
        assert!(recorded > 0, "no {} span in a full NVMe-offloaded run", cat.label());
        assert_eq!(trace.span_count(cat), recorded, "{} spans changed in the export", cat.label());
    }
    assert_eq!(trace.counter("nc_read_bytes"), Some(snap.nc_read_bytes as f64));
    assert_eq!(trace.counter("gg_bytes"), Some(snap.gg_bytes as f64));
}

#[test]
fn trace_counters_match_nvme_io_stats() {
    const NUMEL: usize = 1 << 14;
    let spec = NodeMemorySpec::test_spec(1, 1 << 24, 1 << 26, 1 << 26);
    let tracer = Tracer::new();
    let node = NodeResources::with_backend_policy_comm_tracer(
        &spec,
        1,
        Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
        RetryPolicy::default(),
        CommConfig::default(),
        tracer.clone(),
    );
    let mut reg = ParamRegistry::new();
    let id = reg.register("p", &[NUMEL], 3, 0.1, 0.0);
    let mut engine = ZeroEngine::new(
        &reg,
        Strategy::infinity_nvme().with_optimizer_chunk(1 << 12),
        node.offload_manager(),
        node.group.communicator(0),
        AdamConfig::default(),
    )
    .expect("engine");
    // Construction and restore carry what they wrote on their spans: the
    // span, the nc.write spans and the counter agree.
    let wrote = |name: &str, before: u64| {
        let (events, counted) = (tracer.take_events(), tracer.snapshot().nc_write_bytes - before);
        let spans = |want: &str| span_bytes(&events, |e| e.name == want);
        assert_eq!((spans(name), spans("nc.write")), (counted, counted), "{name}");
    };
    wrote("engine.init", 0);
    let grad = Tensor::randn_seeded(&[NUMEL], 5, 0.1);
    for _ in 0..3 {
        engine.add_grad(id, &grad).expect("grad");
        engine.step().expect("step");
    }
    let (blob, _) = (engine.save_state().expect("save"), tracer.take_events());
    let before = tracer.snapshot().nc_write_bytes;
    engine.load_state(&blob).expect("restore");
    wrote("engine.import", before);
    drop(engine);
    // Quiesce the whole device before comparing books.
    node.nvme.barrier().expect("barrier");

    let io = node.nvme.stats();
    let snap = tracer.snapshot();
    assert!(io.bytes_read > 0 && io.bytes_written > 0, "the run must exercise the device");
    assert_eq!(snap.nc_read_bytes, io.bytes_read, "tracer nc reads != engine IoStats reads");
    assert_eq!(snap.nc_write_bytes, io.bytes_written, "tracer nc writes != engine IoStats writes");
    assert_eq!(snap.io_in_flight, 0, "in-flight gauge must return to zero after a flush");
    assert!(snap.io_in_flight_peak > 0, "gauge high-water mark never moved");
}

#[test]
fn per_step_span_wallclock_fits_the_step_windows() {
    let (events, _) = traced_train();
    let report = OverlapReport::from_events(&events);
    assert_eq!(report.steps.len(), STEPS, "one report entry per optimizer step");
    assert!(!report.is_empty());

    let mut prev_start = 0u64;
    for (i, s) in report.steps.iter().enumerate() {
        assert_eq!(s.step, i as u64, "step ids must be dense and ordered");
        assert!(s.end_ns > s.start_ns, "step {i} window is empty");
        assert!(s.start_ns >= prev_start, "step windows must not run backwards");
        prev_start = s.start_ns;

        let window = s.end_ns - s.start_ns;
        // Union wall-clock of any span family clipped to the window can
        // never exceed the window itself — the tolerance side of "span
        // sums match the step duration".
        assert!(s.compute_ns > 0, "step {i} recorded no compute");
        assert!(s.compute_ns <= window, "step {i} compute union exceeds its window");
        for h in &s.hops {
            assert!(h.hidden_ns <= h.busy_ns, "step {i} hop {} hides more than it is busy", h.hop);
            assert!(h.busy_ns <= window, "step {i} hop {} busier than the whole step", h.hop);
        }
        // Each step gathers parameters and uploads them to the GPU.
        assert!(s.hops[1].bytes > 0, "step {i} moved no cg bytes");
        assert!(s.hops[2].bytes > 0, "step {i} moved no gg bytes");
    }

    // Whole-run totals dominate any single step's clipped view.
    for (hop_idx, total) in report.totals.iter().enumerate() {
        assert!(total.hidden_ns <= total.busy_ns);
        for s in &report.steps {
            assert!(s.hops[hop_idx].bytes <= total.bytes);
        }
        let eff = total.efficiency();
        assert!((0.0..=1.0).contains(&eff), "efficiency must be a fraction, got {eff}");
    }
}
