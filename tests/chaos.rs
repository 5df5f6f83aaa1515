//! Chaos suite: training under injected storage faults.
//!
//! The resilience contract (DESIGN.md, "Failure model & recovery") in
//! executable form:
//!
//! * **Soak** — a full multi-rank training run over a device that
//!   randomly fails reads and writes, tears writes and injects latency
//!   spikes must finish with a loss trajectory *bit-for-bit equal* to
//!   the fault-free run: every transient fault is absorbed by the retry
//!   layer, none escape to training code.
//! * **Retry policy properties** — backoff schedules are deterministic,
//!   monotone nondecreasing and bounded by `max_backoff`, for arbitrary
//!   policies.
//! * **Elasticity** — a rank killed mid-collective surfaces as a typed
//!   [`zi_types::Error::RankFailed`] on every survivor within the
//!   collective deadline (never a hang), and a session with recovery
//!   budget shrinks the world by one, re-partitions optimizer state from
//!   the last durable checkpoint and trains to completion with the same
//!   trajectory as a fresh session resumed from that checkpoint.
//! * **World grow & composed chaos** — a replacement rank joining after
//!   a kill grows the world back without spending recovery budget, and
//!   a [`zi_chaos::ChaosPlan`] composes device deaths, rank kills,
//!   joins, delays and corruption on one deterministic, seed-replayable
//!   timeline whose event log must accept the session's outcome.

use zi_sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use zero_infinity::{train_gpt, train_gpt_env, Strategy, TrainEnv, TrainSpec};
use zi_model::GptConfig;
use zi_nvme::{FaultPlan, FaultProfile, FaultyBackend, MemBackend, RetryPolicy};

fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        // Generous attempt budget: with per-op fault probability p, the
        // chance any single request exhausts 8 attempts is p^8 — at
        // p = 0.05 that is ~4e-11, so a soak of a few thousand ops gives
        // up with probability ~1e-7 (a give-up under multi-rank training
        // would strand sibling ranks in a collective).
        max_attempts: 8,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(2),
        deadline: Duration::from_secs(30),
        jitter_seed: 0x000c_4a05,
    }
}

fn soak_spec() -> TrainSpec {
    let cfg = GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 13 };
    let mut spec = TrainSpec::test_default(cfg, Strategy::infinity_nvme().with_f32_params(), 2);
    spec.steps = 5;
    spec
}

/// Training over a lossy-but-alive device is numerically invisible:
/// same losses as the fault-free run, every fault absorbed by a retry,
/// zero requests given up, no degradation.
#[test]
fn chaos_soak_transient_faults_are_invisible() {
    let spec = soak_spec();
    let reference = train_gpt(&spec).expect("fault-free run");

    // Transient-only profile: torn writes heal on rewrite and spikes
    // only delay, so nothing here can corrupt state or kill the device.
    // (Bit-flips are exercised separately — they are *silent* faults,
    // repaired by the checksum layer, not the retry layer.)
    let profile = FaultProfile {
        read_fault: 0.05,
        write_fault: 0.05,
        torn_write: 0.03,
        latency_spike: 0.02,
        spike: Duration::from_micros(200),
        ..FaultProfile::quiet(0xdead_beef)
    };
    let plan = FaultPlan::probabilistic(profile);
    let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan.clone()));
    let env = TrainEnv { policy: chaos_policy(), ..TrainEnv::new(backend) };
    let out = train_gpt_env(&spec, env).expect("chaos run");

    let injected = plan.injected();
    assert!(
        injected.total_faults() > 0,
        "soak must actually inject faults, got {injected:?}"
    );
    assert!(out.health.io.retries > 0, "faults must be absorbed by retries");
    assert_eq!(out.health.io.gave_up, 0, "no request may exhaust its retry budget");
    assert!(!out.degraded, "transient faults must not degrade the device");
    assert_eq!(out.recoveries, 0, "transient faults must not force a restart");
    assert_eq!(
        out.losses, reference.losses,
        "chaos trajectory must equal the fault-free trajectory bit for bit"
    );
}

/// Silent read corruption (bit-flips in transit) is repaired end to end
/// by the checksum layer without changing training numerics.
#[test]
fn chaos_soak_bitflips_are_repaired_by_checksums() {
    // Records of 64 elements: each rank streams many records per step, so
    // a burst of flips spreads over reads. (At the default chunk the tiny
    // model's whole per-rank state is one packed record, and a burst
    // longer than a read's re-reads is, by design, unrecoverable.)
    let mut spec = soak_spec();
    spec.strategy = spec.strategy.with_optimizer_chunk(64);
    let reference = train_gpt(&spec).expect("fault-free run");

    let plan = FaultPlan::new();
    // Corrupt a handful of early reads; the device data stays clean, so
    // every flip is repairable by a verified re-read.
    plan.bitflip_next_reads(5);
    let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan.clone()));
    let env = TrainEnv { policy: chaos_policy(), ..TrainEnv::new(backend) };
    let out = train_gpt_env(&spec, env).expect("bitflip run");

    assert_eq!(plan.injected().bitflips, 5, "all scripted flips must fire");
    assert!(
        out.health.corruptions_recovered > 0,
        "checksum layer must detect and repair flips: {:?}",
        out.health
    );
    assert_eq!(out.health.corruptions_unrecovered, 0);
    assert_eq!(out.losses, reference.losses, "repaired flips must be invisible");
}

/// The pipelined optimizer step (deep read pipeline + async
/// write-behind) keeps the full resilience contract: transient faults
/// and torn writes injected mid-step are absorbed by the retry layer,
/// the trajectory equals the fault-free run bit for bit, and nothing
/// gives up or degrades.
#[test]
fn chaos_pipelined_step_survives_transient_faults() {
    // Deep pipeline + tiny chunks: many concurrent in-flight requests
    // per step, so injected faults land on pipelined reads and
    // write-behind writes, not just on parameter traffic.
    let mut spec = soak_spec();
    spec.strategy = spec
        .strategy
        .with_optimizer_chunk(64)
        .with_step_pipeline_depth(3);
    let reference = train_gpt(&spec).expect("fault-free run");

    let profile = FaultProfile {
        read_fault: 0.05,
        write_fault: 0.05,
        torn_write: 0.03,
        latency_spike: 0.02,
        spike: Duration::from_micros(200),
        ..FaultProfile::quiet(0x00ff_10ad)
    };
    let plan = FaultPlan::probabilistic(profile);
    let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan.clone()));
    let env = TrainEnv { policy: chaos_policy(), ..TrainEnv::new(backend) };
    let out = train_gpt_env(&spec, env).expect("chaos run");

    assert!(plan.injected().total_faults() > 0, "soak must inject faults");
    assert!(out.health.io.retries > 0, "faults must be absorbed by retries");
    assert_eq!(out.health.io.gave_up, 0, "no request may exhaust its retry budget");
    assert!(!out.degraded, "transient faults must not degrade the device");
    assert_eq!(
        out.losses, reference.losses,
        "pipelined chaos trajectory must equal the fault-free trajectory bit for bit"
    );
}

mod adaptive {
    use super::*;
    use zi_adapt::{Decision, ResetReason};

    /// Dead-device retries resolve instantly (the engine fail-fast latch
    /// sets after the first give-up); keep the budget small so the
    /// give-up itself is quick too.
    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(50),
            deadline: Duration::from_secs(5),
            jitter_seed: 7,
        }
    }

    /// Deliberately bad starting knobs (sequential step, no prefetch,
    /// single write-behind slot) so the controller has somewhere to go.
    fn adaptive_spec() -> TrainSpec {
        let cfg = GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 61 };
        let strategy = Strategy::infinity_nvme()
            .with_f32_params()
            .with_step_pipeline_depth(1)
            .with_write_behind(1);
        let mut spec = TrainSpec::test_default(cfg, strategy, 1);
        spec.steps = 12;
        spec.prefetch_window = 0;
        spec.checkpoint_every = 2;
        spec.max_recoveries = 2;
        spec.adaptive = true;
        spec
    }

    /// NVMe→CPU failover without a restart: the device is dead before
    /// the first store, so every shard gracefully lands on CPU and the
    /// controller simply tunes the degraded regime it finds itself in.
    /// The restart budget stays untouched and the knob moves remain
    /// numerically invisible.
    #[test]
    fn adaptive_run_retunes_through_graceful_failover() {
        let spec = adaptive_spec();
        let reference = train_gpt(&TrainSpec { adaptive: false, ..spec }).unwrap();

        let plan = FaultPlan::new();
        plan.kill();
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan));
        let env = TrainEnv { policy: fast_policy(), ..TrainEnv::new(backend) };
        let out = train_gpt_env(&spec, env).unwrap();

        assert!(out.degraded, "run must report the failover");
        assert!(out.health.failovers > 0, "stores must have failed over to CPU");
        assert_eq!(out.recoveries, 0, "graceful failover must not spend the restart budget");
        assert_eq!(out.losses, reference.losses, "retuning must not change numerics");

        let tuned = out.tuned.expect("adaptive run reports final knobs");
        assert!(tuned.step_pipeline_depth >= 1);
        assert!(
            out.decisions
                .iter()
                .any(|e| matches!(e.decision, Decision::Probe { .. })),
            "the controller must actually search the degraded regime: {:?}",
            out.decisions
        );
    }

    /// NVMe death mid-run: one checkpoint restart (well inside the
    /// budget) brings the session back on a CPU-degraded node, the
    /// controller logs the regime reset and rebuilds its search from a
    /// fresh baseline, and the recovered trajectory is bit-for-bit the
    /// fault-free one.
    #[test]
    fn adaptive_controller_reconverges_after_midrun_failover() {
        let spec = adaptive_spec();
        let reference = train_gpt(&TrainSpec { adaptive: false, ..spec }).unwrap();

        // Calibrate the kill point on a fault-free instrumented device.
        // Adaptive op counts drift a little run to run (prefetch issue
        // depends on measured timings), so kill early — past the first
        // stores, with most of the run still ahead.
        let quiet = FaultPlan::new();
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), quiet.clone()));
        let env = TrainEnv { policy: fast_policy(), ..TrainEnv::new(backend) };
        train_gpt_env(&spec, env).unwrap();
        let total_ops = quiet.ops_seen();
        assert!(total_ops > 0);

        let plan = FaultPlan::new();
        plan.kill_after_ops(total_ops * 3 / 10);
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan.clone()));
        let env = TrainEnv { policy: fast_policy(), ..TrainEnv::new(backend) };
        let out = train_gpt_env(&spec, env).unwrap();

        assert!(plan.injected().dead_rejections > 0, "the device really died");
        assert!(out.recoveries >= 1, "mid-run death must force a restart");
        assert!(
            out.recoveries <= spec.max_recoveries,
            "the restart budget must hold"
        );
        assert!(out.degraded, "the replacement run must distrust the device");
        assert_eq!(out.losses, reference.losses, "recovery + retuning must be invisible");

        // The decision log spans both attempts: the reset marks the
        // regime change, and a fresh baseline after it proves the
        // search actually restarted instead of trusting stale measures.
        let reset = out
            .decisions
            .iter()
            .position(|e| {
                matches!(
                    e.decision,
                    Decision::RegimeReset { reason: ResetReason::CheckpointRestart }
                )
            })
            .expect("the restart must be logged as a regime reset");
        assert!(
            out.decisions[reset + 1..]
                .iter()
                .any(|e| matches!(e.decision, Decision::Baseline { .. })),
            "the controller must re-measure a baseline after the reset: {:?}",
            out.decisions
        );
        assert!(out.tuned.is_some(), "the session still reports final knobs");
    }
}

mod elasticity {
    use super::*;
    use zi_sync::time::Instant;
    use zero_infinity::{
        decode_checkpoint_payload, encode_checkpoint_payload, reshard_checkpoint_blobs,
        train_gpt_env, TrainEnv,
    };
    use zi_comm::CommFaultPlan;
    use zi_nvme::CheckpointStore;

    fn elastic_spec(world: usize) -> TrainSpec {
        let cfg = GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 47 };
        let mut spec =
            TrainSpec::test_default(cfg, Strategy::infinity_nvme().with_f32_params(), world);
        spec.steps = 6;
        spec.checkpoint_every = 2;
        spec.max_recoveries = 1;
        spec.collective_deadline = Duration::from_secs(10);
        spec
    }

    /// A rank killed mid-run with no recovery budget fails the session
    /// with a typed rank failure on a bounded clock — no survivor hangs.
    #[test]
    fn rank_kill_surfaces_as_typed_error_not_a_hang() {
        let mut spec = elastic_spec(3);
        spec.max_recoveries = 0;
        spec.checkpoint_every = 0;
        let faults = CommFaultPlan::new();
        faults.kill_rank_after_ops(1, 5);
        let mut env = TrainEnv::new(Arc::new(MemBackend::new()));
        env.comm_faults = faults.clone();
        let started = Instant::now();
        let err = match train_gpt_env(&spec, env) {
            Err(e) => e,
            Ok(_) => panic!("a killed rank must fail the session"),
        };
        assert!(err.is_rank_failure(), "expected a rank failure, got {err}");
        assert_eq!(faults.injected().rank_deaths, 1, "the scripted death must fire");
        // Coordinated abort wakes blocked peers immediately; the deadline
        // is only the backstop. Either way the session ends well inside
        // one deadline plus scheduling slack.
        assert!(
            started.elapsed() < spec.collective_deadline + Duration::from_secs(5),
            "rank death took {:?} to surface",
            started.elapsed()
        );
    }

    /// The end-to-end elasticity contract: kill one of four ranks
    /// mid-run; the survivors re-partition optimizer state from the
    /// last durable checkpoint, shrink to a 3-rank group and train to
    /// completion — and the recovered trajectory is bit-for-bit the one
    /// a fresh 3-rank session produces when resumed from the same
    /// re-sharded checkpoint.
    #[test]
    fn rank_death_mid_run_shrinks_world_and_matches_fresh_resume() {
        let spec = elastic_spec(4);
        let victim = 2usize;

        // Calibrate: count the victim's collective entries in a
        // fault-free run, then schedule its death at ~55% of them —
        // past the step-2 durable checkpoint, before the step-4 one.
        let quiet = CommFaultPlan::new();
        let mut env = TrainEnv::new(Arc::new(MemBackend::new()));
        env.comm_faults = quiet.clone();
        train_gpt_env(&spec, env).expect("calibration run");
        let total_ops = quiet.ops_seen(victim);
        assert!(total_ops > 0);

        let faults = CommFaultPlan::new();
        faults.kill_rank_after_ops(victim, total_ops * 55 / 100);
        let store = CheckpointStore::new(Arc::new(MemBackend::new()), 4, 2).unwrap();
        let mut env = TrainEnv::new(Arc::new(MemBackend::new()));
        env.comm_faults = faults.clone();
        env.store = Some(store.clone());
        let out = train_gpt_env(&spec, env).expect("elastic run must complete");

        assert_eq!(faults.injected().rank_deaths, 1, "the scripted death must fire");
        assert_eq!(out.recoveries, 1, "one recovery, the elastic one");
        assert_eq!(out.final_world, 3, "the session must finish on 3 ranks");
        assert_eq!(out.elastic.len(), 1);
        let ev = &out.elastic[0];
        assert_eq!(ev.from_world, 4);
        assert_eq!(ev.to_world, 3);
        assert_eq!(ev.failed_rank, Some(victim), "the latch must blame the victim");
        let v = ev.resumed_from_step.expect("a durable checkpoint must exist at the kill");
        assert!(v >= 2 && v < spec.steps, "kill landed at checkpoint {v}");
        assert_eq!(v % spec.checkpoint_every, 0);
        assert_eq!(out.losses.len(), spec.steps);

        // Fresh-resume reference: replay the fault-free 4-rank prefix up
        // to step v, re-shard its checkpoint 4 -> 3 by hand through the
        // public API, publish it into a fresh store, and run a clean
        // 3-rank session from it.
        let mut prefix_spec = elastic_spec(4);
        prefix_spec.steps = v;
        let prefix_store = CheckpointStore::new(Arc::new(MemBackend::new()), 4, 2).unwrap();
        let mut env = TrainEnv::new(Arc::new(MemBackend::new()));
        env.store = Some(prefix_store.clone());
        train_gpt_env(&prefix_spec, env).expect("prefix run");
        assert_eq!(prefix_store.latest_complete(4).unwrap(), Some(v as u64));

        let mut blobs = Vec::new();
        let mut saved_losses = Vec::new();
        for rank in 0..4 {
            let payload = prefix_store.load(rank, v as u64).unwrap();
            let (blob, losses) = decode_checkpoint_payload(&payload).unwrap();
            if rank == 0 {
                saved_losses = losses;
            }
            blobs.push(blob);
        }
        let resharded = reshard_checkpoint_blobs(&blobs, 3).unwrap();
        let fresh_store = CheckpointStore::new(Arc::new(MemBackend::new()), 3, 2).unwrap();
        for (rank, blob) in resharded.iter().enumerate() {
            let payload = encode_checkpoint_payload(blob, &saved_losses);
            fresh_store.save(rank, v as u64, &payload).unwrap();
        }

        let fresh_spec = elastic_spec(3);
        let mut env = TrainEnv::new(Arc::new(MemBackend::new()));
        env.store = Some(fresh_store);
        let fresh = train_gpt_env(&fresh_spec, env).expect("fresh 3-rank resume");
        assert!(fresh.elastic.is_empty());
        assert_eq!(
            fresh.losses, out.losses,
            "shrink-to-survivors must match fresh-from-checkpoint bit for bit"
        );
        for (a, b) in fresh.final_params.iter().zip(&out.final_params) {
            assert_eq!(a.data(), b.data(), "final params must match exactly");
        }
    }

}

mod orchestrator {
    use super::*;
    use zero_infinity::{train_gpt_env, TrainEnv, TrainOutcome};
    use zi_chaos::{
        check_outcome, ChaosConfig, ChaosEvent, ChaosPlan, FiredEvent, SessionSummary,
    };
    use zi_nvme::CheckpointStore;

    /// Eight steps with durable checkpoints at versions 3 and 6: a kill
    /// armed at step 4 lands past the v3 save and before the v6 one, so
    /// the elastic transitions below always reshard version 3.
    fn grow_spec() -> TrainSpec {
        let cfg = GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 47 };
        let mut spec =
            TrainSpec::test_default(cfg, Strategy::infinity_nvme().with_f32_params(), 4);
        spec.steps = 8;
        spec.checkpoint_every = 3;
        spec.max_recoveries = 1;
        spec.collective_deadline = Duration::from_secs(10);
        spec
    }

    /// Wire one [`ChaosPlan`] into every plane the trainer exposes: its
    /// storage fault plan under the offload backend, its comm fault plan
    /// into the collectives, and the plan itself as the step-indexed
    /// event source.
    fn chaos_env(plan: &ChaosPlan) -> TrainEnv {
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan.storage_plan()));
        let mut env = TrainEnv::new(backend);
        env.policy = chaos_policy();
        env.comm_faults = plan.comm_plan();
        env.chaos = Some(plan.clone());
        env
    }

    fn summarize(spec: &TrainSpec, out: &TrainOutcome) -> SessionSummary {
        SessionSummary {
            initial_world: spec.world,
            final_world: out.final_world,
            recoveries: out.recoveries,
            elastic: out.elastic.iter().map(|e| (e.from_world, e.to_world)).collect(),
            completed: out.losses.len() == spec.steps,
        }
    }

    /// The world-grow contract end to end: one of four ranks is killed
    /// mid-run (shrink to 3, resharding the last durable checkpoint),
    /// then a replacement joins one step later (grow back to 4,
    /// resharding the *same* durable version — the 3-rank attempt never
    /// reached its next checkpoint). The grow consumes no recovery
    /// budget, and the final trajectory is bit-for-bit the uninterrupted
    /// 4-rank run's.
    #[test]
    fn rank_death_then_rejoin_grows_back_and_matches_uninterrupted_run() {
        let spec = grow_spec(); // max_recoveries = 1: the grow must be free
        let reference = train_gpt(&spec).expect("uninterrupted 4-rank run");

        let plan = ChaosPlan::new();
        plan.schedule(4, ChaosEvent::RankKill { rank: 2 });
        plan.schedule(5, ChaosEvent::RankJoin { ranks: 1 });
        let out = train_gpt_env(&spec, chaos_env(&plan)).expect("elastic grow run");

        assert_eq!(out.recoveries, 1, "the kill spends the only budget; the grow is free");
        assert_eq!(out.final_world, 4, "the joiner must be folded back in");
        assert_eq!(out.elastic.len(), 2, "exactly one shrink and one grow: {:?}", out.elastic);
        let shrink = &out.elastic[0];
        assert_eq!((shrink.from_world, shrink.to_world), (4, 3));
        assert_eq!(shrink.failed_rank, Some(2), "the shrink must blame the victim");
        assert_eq!(shrink.resumed_from_step, Some(3), "v3 is durable at the kill");
        let grow = &out.elastic[1];
        assert_eq!((grow.from_world, grow.to_world), (3, 4));
        assert_eq!(grow.failed_rank, None, "nothing fails on a grow");
        assert_eq!(
            grow.resumed_from_step,
            Some(3),
            "the grow reshards the same durable version the shrink used"
        );
        assert_eq!(out.losses, reference.losses, "grow-back must be numerically invisible");
        for (a, b) in reference.final_params.iter().zip(&out.final_params) {
            assert_eq!(a.data(), b.data(), "final params must match the uninterrupted run");
        }
        check_outcome(&plan.log(), &summarize(&spec, &out))
            .expect("outcome must be consistent with the armed schedule");
    }

    /// A composed schedule across all three fault planes in one session:
    /// silent read corruption, a permanent device death, a collective
    /// delay burst, a rank kill and a replacement join. The session
    /// absorbs the lot — corruption via CRC re-reads, the dead device
    /// via degraded CPU placement (at most one restart), the kill via an
    /// elastic shrink and the join via a free grow — and the event log
    /// accepts the outcome.
    #[test]
    fn composed_schedule_across_all_fault_planes_completes_consistently() {
        let mut spec = grow_spec();
        spec.max_recoveries = 2; // the kill, plus at most one device restart
        let plan = ChaosPlan::new();
        plan.schedule(1, ChaosEvent::Corruption { reads: 2 });
        plan.schedule(2, ChaosEvent::DeviceFail);
        plan.schedule(3, ChaosEvent::CommDelay { rank: 1, ops: 2, micros: 100 });
        plan.schedule(4, ChaosEvent::RankKill { rank: 2 });
        plan.schedule(5, ChaosEvent::RankJoin { ranks: 1 });
        let out = train_gpt_env(&spec, chaos_env(&plan)).expect("composed run completes");

        assert_eq!(out.losses.len(), spec.steps);
        assert!(out.degraded, "the dead device must leave the session degraded");
        assert!(
            (1..=2).contains(&out.recoveries),
            "the kill costs one recovery, the device death at most one more: {}",
            out.recoveries
        );
        let transitions: Vec<_> =
            out.elastic.iter().map(|e| (e.from_world, e.to_world)).collect();
        assert_eq!(transitions, vec![(4, 3), (3, 4)], "shrink on the kill, grow on the join");
        assert_eq!(out.final_world, 4);
        // Health counters are per-attempt (the final node may be fully
        // CPU-degraded with no NVMe reads at all), so corruption is
        // checked at the plan: the flips fired, and whatever attempt saw
        // them left nothing unrecovered.
        assert!(
            plan.storage_plan().injected().bitflips >= 1,
            "the corruption burst must fire before the device dies: {:?}",
            plan.storage_plan().injected()
        );
        assert_eq!(out.health.corruptions_unrecovered, 0);
        assert_eq!(plan.comm_plan().injected().rank_deaths, 1, "the scripted kill fired");
        assert!(plan.comm_plan().injected().delays >= 1, "the delay burst fired");
        assert_eq!(plan.log().len(), 5, "every scheduled event armed");
        check_outcome(&plan.log(), &summarize(&spec, &out))
            .expect("outcome must be consistent with the armed schedule");
    }

    /// A device death and a rank kill armed in the *same* step window.
    /// Which plane surfaces first is genuinely racy (the storage error
    /// may preempt the shrink or vice versa), so this pins the invariant
    /// class only: bounded typed recovery, a world no smaller than the
    /// kills allow, and an outcome the event log accepts.
    #[test]
    fn device_death_and_rank_kill_in_same_window_stay_bounded() {
        let mut spec = grow_spec();
        spec.max_recoveries = 2;
        let plan = ChaosPlan::new();
        plan.schedule(3, ChaosEvent::DeviceFail);
        plan.schedule(3, ChaosEvent::RankKill { rank: 1 });
        let out = train_gpt_env(&spec, chaos_env(&plan)).expect("combined-window run");

        assert_eq!(out.losses.len(), spec.steps);
        assert!(out.degraded, "the device really died");
        assert!(
            (1..=2).contains(&out.recoveries),
            "two disruptions, at most two recoveries: {}",
            out.recoveries
        );
        assert!(
            matches!(out.final_world, 3 | 4),
            "one kill shrinks by at most one rank: {}",
            out.final_world
        );
        check_outcome(&plan.log(), &summarize(&spec, &out))
            .expect("outcome must be consistent with the armed schedule");
    }

    /// The same-window composition on a *split* optimizer placement
    /// (250‰ of every NVMe-tier shard in CPU DRAM): the device death
    /// lands while the pipelined step is streaming the CPU and NVMe
    /// halves of each shard concurrently, and a rank kill arms in the
    /// same window. The split must not add failure modes: the invariant
    /// class stays exactly the single-path one — bounded typed
    /// recovery, a world no smaller than the kills allow, a session the
    /// event log accepts — and the degraded survivors keep training,
    /// which is only possible if the NVMe-resident halves were
    /// collapsed onto CPU rather than dropped. (Bit-identical resume of
    /// a split shard is pinned by the single-rank trainer regression
    /// test, where no world shrink muddies the trajectory.)
    #[test]
    fn device_death_and_rank_kill_with_split_placement_stay_bounded() {
        let mut spec = grow_spec();
        spec.strategy = spec.strategy.with_optimizer_cpu_permille(250);
        spec.max_recoveries = 2;

        let plan = ChaosPlan::new();
        plan.schedule(3, ChaosEvent::DeviceFail);
        plan.schedule(3, ChaosEvent::RankKill { rank: 1 });
        let out = train_gpt_env(&spec, chaos_env(&plan)).expect("split combined-window run");

        assert_eq!(out.losses.len(), spec.steps, "every step must complete");
        assert!(out.degraded, "the device really died");
        assert!(
            (1..=2).contains(&out.recoveries),
            "two disruptions, at most two recoveries: {}",
            out.recoveries
        );
        assert!(
            matches!(out.final_world, 3 | 4),
            "one kill shrinks by at most one rank: {}",
            out.final_world
        );
        assert!(
            out.health.failovers > 0,
            "post-death stores from split shards must land on CPU"
        );
        check_outcome(&plan.log(), &summarize(&spec, &out))
            .expect("outcome must be consistent with the armed schedule");
    }

    /// One seed, two sessions: the schedule, the fired event sequence
    /// and the loss trajectory all replay identically — the property the
    /// soak below leans on when it prints `ZI_CHAOS_SEED` on failure.
    #[test]
    fn seeded_chaos_replays_identical_event_sequence_end_to_end() {
        let config = ChaosConfig {
            steps: 8,
            world: 4,
            device_fail: 0.0, // keep both runs completing for the comparison
            rank_kill: 0.25,
            rank_join: 0.25,
            comm_delay: 0.3,
            corruption: 0.15,
            max_kills: 1,
            max_joins: 1,
        };
        let seed = 0x0be5_7a11u64;
        let run = || {
            let plan = ChaosPlan::seeded(seed, &config);
            let mut spec = grow_spec();
            spec.checkpoint_every = 2;
            spec.max_recoveries = 3;
            // Slots for the largest world the schedule may grow to.
            let store = CheckpointStore::new(
                Arc::new(MemBackend::new()),
                config.world + config.max_joins,
                2,
            )
            .unwrap();
            let mut env = chaos_env(&plan);
            env.store = Some(store);
            let out = train_gpt_env(&spec, env).expect("seeded run completes");
            (plan.events(), plan.log(), summarize(&spec, &out), out.losses)
        };
        let (events_a, log_a, summary_a, losses_a) = run();
        let (events_b, log_b, summary_b, losses_b) = run();

        assert!(!events_a.is_empty(), "this seed must generate a schedule");
        assert_eq!(events_a, events_b, "the schedule is a pure function of the seed");
        let identities =
            |log: &[FiredEvent]| log.iter().map(|f| (f.step, f.event)).collect::<Vec<_>>();
        assert_eq!(
            identities(&log_a),
            identities(&log_b),
            "the fired sequence must replay identically"
        );
        check_outcome(&log_a, &summary_a).expect("first run consistent");
        check_outcome(&log_b, &summary_b).expect("second run consistent");
        assert_eq!(losses_a, losses_b, "same seed, same trajectory");
    }

    /// Elevated-rate soak for the CI chaos stage (`scripts/ci.sh` runs
    /// this under a hard wall-clock timeout): a full composed schedule —
    /// device death, rank kills, joins, delay bursts, read corruption —
    /// generated from `ZI_CHAOS_SEED` (decimal or 0x-hex; defaulted
    /// here). The invariant is *bounded, typed failure*: the session
    /// either completes with an outcome its own event log accepts, or
    /// surfaces a classified error — never a hang, never a panic. Every
    /// assertion prints the seed, so any finding replays exactly.
    #[test]
    #[ignore = "elevated-rate soak; run via the scripts/ci.sh chaos stage"]
    fn chaos_soak_composed_schedules_stay_typed_and_bounded() {
        let seed = ChaosPlan::seed_from_env(0x5eed_cafe);
        let config = ChaosConfig {
            steps: 8,
            world: 4,
            device_fail: 0.08,
            rank_kill: 0.18,
            rank_join: 0.18,
            comm_delay: 0.25,
            corruption: 0.12,
            max_kills: 2,
            max_joins: 2,
        };
        let plan = ChaosPlan::seeded(seed, &config);

        let mut spec = grow_spec();
        spec.checkpoint_every = 1;
        spec.max_recoveries = 4;
        spec.collective_deadline = Duration::from_secs(5);
        // Provision the durable store for the largest world the schedule
        // may grow to, so no generated join can strand the session on
        // `IncompatibleWorld`.
        let store = CheckpointStore::new(
            Arc::new(MemBackend::new()),
            config.world + config.max_joins,
            2,
        )
        .unwrap();
        let mut env = chaos_env(&plan);
        env.store = Some(store);

        match train_gpt_env(&spec, env) {
            Ok(out) => {
                assert_eq!(
                    out.losses.len(),
                    spec.steps,
                    "truncated trajectory; replay with ZI_CHAOS_SEED={seed:#018x}"
                );
                if let Err(finding) = check_outcome(&plan.log(), &summarize(&spec, &out)) {
                    panic!(
                        "outcome inconsistent with the armed schedule: {finding}\n\
                         log: {:?}\nreplay with ZI_CHAOS_SEED={seed:#018x}",
                        plan.log()
                    );
                }
            }
            Err(e) => {
                assert!(
                    e.is_rank_failure() || e.is_device_failure() || e.is_membership_change(),
                    "soak must fail with a classified error, got {e}; \
                     replay with ZI_CHAOS_SEED={seed:#018x}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Backoff schedules never exceed `max_backoff` and never shrink as
    /// attempts accumulate (exponential growth dominates the jitter).
    #[test]
    fn backoff_is_monotone_and_bounded(
        base_us in 1u64..5_000,
        max_us in 1u64..100_000,
        seed in 0u64..u64::MAX,
    ) {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_micros(base_us),
            max_backoff: Duration::from_micros(max_us),
            deadline: Duration::from_secs(1),
            jitter_seed: seed,
        };
        let mut prev = Duration::ZERO;
        for attempt in 1..=12u32 {
            let b = policy.backoff(attempt);
            prop_assert!(b <= policy.max_backoff, "attempt {}: {:?} over cap", attempt, b);
            prop_assert!(b >= prev, "attempt {}: {:?} < {:?}", attempt, b, prev);
            prev = b;
        }
    }

    /// The jittered schedule is a pure function of (policy, attempt):
    /// re-running a failed workload replays identical timing.
    #[test]
    fn backoff_is_deterministic(seed in 0u64..u64::MAX, attempt in 1u32..24) {
        let mk = || RetryPolicy { jitter_seed: seed, ..RetryPolicy::default() };
        prop_assert_eq!(mk().backoff(attempt), mk().backoff(attempt));
    }

    /// Different seeds draw different jitter (the seed stream is not
    /// constant), while staying within the monotone envelope. Attempts
    /// are kept below the point where the default policy's `max_backoff`
    /// cap collapses every schedule to the same value.
    #[test]
    fn jitter_varies_across_seeds(attempt in 2u32..6) {
        let backoffs: Vec<Duration> = (0u64..32)
            .map(|seed| {
                RetryPolicy { jitter_seed: seed, ..RetryPolicy::default() }.backoff(attempt)
            })
            .collect();
        let first = backoffs[0];
        prop_assert!(
            backoffs.iter().any(|b| *b != first),
            "32 seeds all produced {:?} at attempt {}",
            first,
            attempt
        );
    }
}
