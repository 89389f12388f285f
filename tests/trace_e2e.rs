//! End-to-end checks of the tracing layer (DESIGN.md §10) against real
//! tuning runs: JSONL round-trips, span nesting under the scoped-thread
//! fan-out, counter accuracy against known eval/retry counts from a
//! seeded faulty run, and the span-totals-vs-`IterationTiming` contract.

use dbsim::{FaultPlan, InstanceType, KnobSet, WorkloadSpec};
use restune::core::acquisition::AcquisitionOptimizer;
use restune::prelude::*;
use std::sync::{Mutex, MutexGuard};
use trace::{SpanEvent, TraceSnapshot};

/// The collector is process-global and the test harness runs on parallel
/// threads: every test here records into it, so they serialize on one lock.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn quick_config(seed: u64) -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 300, n_local: 60, local_sigma: 0.08 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 15, ..Default::default() },
        dynamic_samples: 12,
        seed,
        ..Default::default()
    }
}

fn env_with(seed: u64, plan: Option<FaultPlan>) -> TuningEnvironment {
    let mut b = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(seed);
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    b.build()
}

#[test]
fn thirty_iteration_span_totals_match_iteration_timing_sums() {
    let _g = trace_lock();
    trace::enable();
    trace::reset();
    let mut session = TuningSession::new(env_with(11, None), quick_config(11));
    let mut sums = [0.0_f64; 5];
    let mut replay_sim = 0.0;
    for _ in 0..30 {
        let t = session.step().timing;
        sums[0] += t.meta_data_processing_s;
        sums[1] += t.model_update_s;
        sums[2] += t.gp_fit_s;
        sums[3] += t.weight_update_s;
        sums[4] += t.recommendation_s;
        replay_sim += t.replay_s;
    }
    let snap = trace::snapshot();
    trace::reset();
    trace::disable();
    // IterationTiming is *derived from* the spans (the same finish_s()
    // values), so the acceptance bound of 1% is loose — these are exact.
    let phases =
        ["meta_data_processing", "model_update", "gp_fit", "weight_update", "recommendation"];
    for (phase, sum) in phases.iter().zip(sums) {
        let total = snap.total_for(phase);
        assert!(
            (total - sum).abs() <= 0.01 * sum.max(1e-12),
            "{phase}: span total {total} vs timing sum {sum}"
        );
    }
    // replay_s is simulated seconds; the histogram carries the same values.
    let h = snap.hist("replay.sim_s").expect("replay histogram");
    assert_eq!(h.count, 30);
    assert!((h.sum - replay_sim).abs() < 1e-9);
    // One root span per iteration, phases nested beneath it.
    let agg = snap.span_agg();
    assert_eq!(agg["iteration"].count, 30);
    assert_eq!(agg["iteration/model_update/gp_fit"].count, 30);
    assert_eq!(snap.counter("loop.iterations"), 30);
}

#[test]
fn parallel_path_nests_scoped_thread_spans_under_their_phases() {
    let _g = trace_lock();
    trace::enable();
    trace::reset();
    let mut config = quick_config(5);
    config.init_iters = 2;
    // Meta-boosted session so per-learner dynamic-weight draws fan out on
    // scoped threads (inline draws would produce the same paths).
    let characterizer = workload::WorkloadCharacterizer::train_default(3);
    let mut repo = restune::core::repository::DataRepository::new();
    for (i, spec) in WorkloadSpec::twitter_variations().into_iter().take(2).enumerate() {
        let mut dbms = dbsim::SimulatedDbms::new(InstanceType::A, spec, 60 + i as u64);
        repo.add(restune::core::repository::TaskRecord::collect(
            &mut dbms,
            &KnobSet::case_study(),
            ResourceKind::Cpu,
            &characterizer,
            12,
            80 + i as u64,
        ));
    }
    let learners = repo.base_learners(&gp::GpConfig::fixed(), |_| true);
    let mf = characterizer.embed_workload(&WorkloadSpec::twitter(), 1).probs;
    trace::reset(); // drop events from repository collection
    let mut session =
        TuningSession::with_base_learners(env_with(5, None), config, learners, mf);
    for _ in 0..6 {
        session.step();
    }
    let snap = trace::snapshot();
    trace::reset();
    trace::disable();
    let agg = snap.span_agg();
    // The three metric GPs fit on scoped threads but aggregate under the
    // ambient gp_fit path via context propagation.
    for metric in ["fit_res", "fit_tps", "fit_lat"] {
        let path = format!("iteration/model_update/gp_fit/{metric}");
        assert_eq!(agg[&path].count, 6, "missing per-metric fit spans at {path}");
    }
    // Per-learner posterior draws (4 dynamic iterations x 3 learners: 2 base
    // + target) under the weight_update path.
    let draws = &agg["iteration/model_update/weight_update/learner_draws"];
    assert_eq!(draws.count, 4 * 3);
    // Candidate scoring chunks under the recommendation path.
    let scored = agg
        .iter()
        .filter(|(p, _)| p.as_str().starts_with("iteration/recommendation/score_candidates"))
        .map(|(_, a)| a.count)
        .sum::<u64>();
    assert!(scored >= 6, "expected chunk-scoring spans, got {scored}");
    assert_eq!(snap.counter("acq.candidates_scored"), 6 * 360);
}

#[test]
fn counters_match_known_eval_and_retry_counts_from_a_seeded_faulty_run() {
    let _g = trace_lock();
    trace::enable();
    trace::reset();
    let iters = 25;
    let plan = FaultPlan::none().with_transient_rate(0.25).with_seed(0xFA);
    let outcome = TuningSession::new(env_with(3, Some(plan)), quick_config(3)).run(iters);
    let snap = trace::snapshot();
    trace::reset();
    trace::disable();
    // Resolution-level counters mirror FailureCounts exactly.
    assert_eq!(snap.counter("replay.crash") as usize, outcome.failures.crashes);
    assert_eq!(snap.counter("replay.timeout") as usize, outcome.failures.timeouts);
    assert_eq!(snap.counter("replay.partial") as usize, outcome.failures.partials);
    assert_eq!(snap.counter("replay.retries") as usize, outcome.failures.retries);
    assert!(outcome.failures.retries > 0, "a 25% fault rate over 25 iters should retry");
    // Attempt-level eval count: the default-config evaluation at session
    // build, plus one attempt per iteration, plus one per retry.
    assert_eq!(
        snap.counter("dbsim.evals") as usize,
        1 + iters + outcome.failures.retries
    );
    assert_eq!(snap.counter("loop.iterations") as usize, iters);
    // Fault-kind attempt counters cover at least every resolved failure.
    assert!(
        snap.counter("dbsim.outcome.crash") as usize >= outcome.failures.crashes,
        "attempt-level crashes must include resolution-level ones"
    );
}

#[test]
fn pooled_worker_reuse_does_not_leak_span_paths_across_task_boundaries() {
    let _g = trace_lock();
    trace::enable();
    trace::reset();
    // A coordinator opens the fleet root span and hands its context to one
    // persistent worker thread, which runs two tasks back to back — the
    // pool-reuse shape. Task 1 misbehaves: an inner span is leaked (as after
    // a panic unwound past it), so the worker's path stack still holds
    // `fleet/tenant/iteration` when the task ends.
    let root = trace::span!("fleet");
    let ctx = trace::current_context();
    std::thread::spawn(move || {
        {
            let _t1 = trace::task_scope(&ctx, 1);
            let tenant_span = trace::span!("tenant");
            let leaked = trace::span!("iteration");
            std::mem::forget(leaked);
            drop(tenant_span);
        }
        // Task 2 reuses the worker. The task boundary must have cleared the
        // residue: its spans are rooted at the handed-off context, not under
        // task 1's abandoned path.
        {
            let _t2 = trace::task_scope(&ctx, 2);
            let tenant_span = trace::span!("tenant");
            let iter_span = trace::span!("iteration");
            drop(iter_span);
            drop(tenant_span);
        }
    })
    .join()
    .expect("worker");
    drop(root);
    let snap = trace::snapshot();
    trace::reset();
    trace::disable();
    assert_eq!(snap.tasks(), vec![1, 2]);
    // Task 1's closed span recorded at its true path; the leaked span never
    // produced an event (it never closed) and never prefixed anyone else.
    let t1: Vec<&str> = snap.spans_for_task(1).iter().map(|e| e.path.as_str()).collect();
    assert_eq!(t1, vec!["fleet/tenant"]);
    let t2: Vec<&str> = snap.spans_for_task(2).iter().map(|e| e.path.as_str()).collect();
    assert_eq!(t2, vec!["fleet/tenant/iteration", "fleet/tenant"]);
    // The coordinator's root span is untouched by the workers' stack churn.
    let roots: Vec<&SpanEvent> = snap.spans.iter().filter(|e| e.path == "fleet").collect();
    assert_eq!(roots.len(), 1);
    assert_eq!(TraceSnapshot::task_of(roots[0]), None);
}

#[test]
fn fleet_run_emits_a_complete_span_tree_per_tenant() {
    use restune::core::fleet::{mix_seed, FleetConfig, FleetService, Tenant};

    let _g = trace_lock();
    trace::enable();
    trace::reset();
    const ITERS: usize = 4;
    const SLICE: usize = 2;
    let n_tenants = 4u64;
    let tenants: Vec<Tenant> = (0..n_tenants)
        .map(|id| {
            let seed = mix_seed(0x7E57, id);
            let env = TuningEnvironment::builder()
                .instance(InstanceType::A)
                .workload(WorkloadSpec::fleet_tenant(id))
                .resource(ResourceKind::Cpu)
                .knob_set(KnobSet::cpu())
                .seed(seed)
                .build();
            let mut config = quick_config(seed);
            config.optimizer =
                AcquisitionOptimizer { n_candidates: 80, n_local: 20, local_sigma: 0.1 };
            config.init_iters = 2;
            Tenant::restune(id, format!("tenant-{id}"), env, config, ITERS)
        })
        .collect();
    let out = FleetService::new(FleetConfig { workers: 2, slice: SLICE, shards: 4 })
        .run(tenants);
    let snap = trace::snapshot();
    trace::reset();
    trace::disable();
    assert_eq!(out.tenants.len(), n_tenants as usize);
    // The shared collector slices back into one complete tree per tenant,
    // even though two workers interleaved four tenants' slices.
    assert_eq!(snap.tasks(), (0..n_tenants).collect::<Vec<_>>());
    for id in 0..n_tenants {
        let spans = snap.spans_for_task(id);
        for ev in &spans {
            assert!(
                ev.path == "fleet/tenant" || ev.path.starts_with("fleet/tenant/"),
                "tenant {id} span escaped its tree: {}",
                ev.path
            );
        }
        let at = |path: &str| spans.iter().filter(|e| e.path == path).count();
        assert_eq!(at("fleet/tenant/iteration"), ITERS, "tenant {id} iteration spans");
        assert_eq!(at("fleet/tenant/iteration/model_update/gp_fit"), ITERS, "tenant {id}");
        assert_eq!(at("fleet/tenant/iteration/recommendation"), ITERS, "tenant {id}");
        // One `tenant` span per scheduled slice of the iteration budget.
        assert_eq!(at("fleet/tenant"), ITERS.div_ceil(SLICE), "tenant {id} slice spans");
    }
    // Exactly one untagged root span from the coordinating thread.
    let agg = snap.span_agg();
    assert_eq!(agg["fleet"].count, 1);
}

#[test]
fn real_run_snapshot_survives_a_jsonl_round_trip() {
    let _g = trace_lock();
    trace::enable();
    trace::reset();
    let plan = FaultPlan::none().with_transient_rate(0.2).with_seed(1);
    TuningSession::new(env_with(9, Some(plan)), quick_config(9)).run(8);
    let snap = trace::snapshot();
    trace::reset();
    trace::disable();
    let text = snap.to_jsonl().expect("render jsonl");
    let back = TraceSnapshot::from_jsonl(&text).expect("parse jsonl");
    assert_eq!(back, snap, "round-trip must preserve events exactly");
    assert_eq!(back.span_agg(), snap.span_agg());
    assert_eq!(back.counters, snap.counters);
    assert_eq!(back.hists, snap.hists);
}
