//! Cross-crate observability acceptance tests: decision traces on the
//! paper's Fig. 9 GPS network, budget-capped decisions checked against a
//! tree-walk SPRT reference, and the session's kernel profiler.

use uncertain_suite::gps::{uncertain_speed, GeoCoordinate, GpsReading, MPS_TO_MPH};
use uncertain_suite::stats::{SequentialTest, TestDecision};
use uncertain_suite::{EvalConfig, Session, StoppingReason, TraceLog, Uncertain};

/// The Fig. 9 network: the GPS-Walking speed conditional, two readings a
/// second apart at walking pace.
fn fig9_gps_condition() -> uncertain_suite::Uncertain<bool> {
    let start = GeoCoordinate::new(47.6, -122.3);
    let end = start.destination(3.0 / MPS_TO_MPH, 90.0);
    let a = GpsReading::new(start, 4.0).expect("valid accuracy");
    let b = GpsReading::new(end, 4.0).expect("valid accuracy");
    uncertain_speed(&a, &b, 1.0).lt(4.0)
}

#[test]
fn gps_decision_trace_matches_the_reported_outcome_exactly() {
    let log = TraceLog::new();
    let mut session = Session::seeded(42).with_recorder(log.clone());
    let cond = fig9_gps_condition();

    let outcome = session.evaluate(&cond, 0.5);
    let traces = log.take();
    assert_eq!(traces.len(), 1, "one decision, one trace");
    let trace = &traces[0];

    // The acceptance bar: the trace's cumulative sample count agrees with
    // the evaluator's reported outcome exactly, not approximately.
    assert_eq!(trace.samples, outcome.samples);
    assert_eq!(trace.estimate, outcome.estimate);
    let last = trace.batches.last().expect("a decided trace has batches");
    assert_eq!(last.samples, trace.samples);
    assert_eq!(last.successes, trace.successes);
    assert!(
        trace
            .batches
            .windows(2)
            .all(|w| w[0].samples < w[1].samples),
        "trajectory is strictly cumulative"
    );
    // The verdict, restated by the trace.
    assert_eq!(
        trace.stopping,
        if outcome.accepted {
            StoppingReason::Accepted
        } else {
            StoppingReason::Rejected
        }
    );
    assert!(trace.completed());
    // The trajectory ended by crossing the boundary it reports.
    assert!(trace.upper > 0.0 && trace.lower < 0.0);
    assert!(
        last.llr >= trace.upper || last.llr <= trace.lower,
        "a conclusive decision's final LLR sits on or past a boundary"
    );
    // Replaying the same decision with no recorder installed is bitwise
    // unaffected by tracing.
    let mut untraced = Session::seeded(42);
    assert_eq!(untraced.evaluate(&cond, 0.5), outcome);
}

#[test]
fn budget_capped_decision_traces_and_matches_a_treewalk_reference() {
    // A fair coin tested with a narrow indifference region: the LLR walk
    // needs an ~74-sample imbalance to cross a boundary, so it runs into
    // the 1000-sample cap and falls back to the empirical estimate.
    let cfg = EvalConfig {
        delta: 0.01,
        ..EvalConfig::default()
    };
    let cond = Uncertain::bernoulli(0.5).unwrap();
    const SEED: u64 = 7;

    let log = TraceLog::new();
    let mut planned = Session::sequential(SEED)
        .with_config(cfg)
        .with_recorder(log.clone());
    let outcome = planned.try_evaluate(&cond, 0.5, &cfg).unwrap();

    // Tree-walk reference: a second sequential session with the same seed
    // consumes the identical sample stream one interpreted draw at a
    // time, fed through a hand-built copy of the same sequential test.
    let mut interpreter = Session::sequential(SEED).with_config(cfg);
    let test = SequentialTest::with_params(
        0.5,
        cfg.delta,
        cfg.alpha,
        cfg.beta,
        cfg.batch,
        cfg.max_samples,
    )
    .unwrap();
    let reference = test.run_batched(|k| (0..k).map(|_| interpreter.sample(&cond)).collect());

    assert_eq!(outcome.samples, reference.samples);
    assert_eq!(outcome.estimate.to_bits(), reference.estimate.to_bits());
    assert_eq!(
        outcome.accepted,
        reference.decision == TestDecision::AcceptAlternative
    );
    assert!(!outcome.conclusive, "the cap was hit before a verdict");
    assert!(!reference.conclusive);

    let traces = log.take();
    assert_eq!(traces.len(), 1);
    let trace = &traces[0];
    assert_eq!(trace.stopping, StoppingReason::BudgetCapped);
    assert_eq!(trace.samples, cfg.max_samples);
    assert_eq!(trace.batches.len(), cfg.max_samples / cfg.batch);
    assert_eq!(trace.successes, reference.successes);
    // Budget-capped means the whole trajectory stayed inside the
    // boundaries — otherwise the test would have stopped there.
    assert!(trace
        .batches
        .iter()
        .all(|p| p.llr < trace.upper && p.llr > trace.lower));
}

#[test]
fn session_kernel_profile_attributes_cost_across_the_gps_network() {
    let start = GeoCoordinate::new(47.6, -122.3);
    let end = start.destination(3.0 / MPS_TO_MPH, 90.0);
    let a = GpsReading::new(start, 4.0).expect("valid accuracy");
    let b = GpsReading::new(end, 4.0).expect("valid accuracy");
    let speed = uncertain_speed(&a, &b, 1.0);

    const N: usize = 200;
    let mut profiled = Session::sequential(9);
    let profile = profiled
        .kernel_profile(&speed, N)
        .expect("the speed network lowers");

    assert_eq!(profile.samples, N as u64);
    assert!(profile.post_opt_instrs() <= profile.pre_opt_instrs);
    // Exclusive timings: the total is the sum of the instruction costs.
    assert_eq!(
        profile.total_ns(),
        profile.instrs.iter().map(|i| i.ns).sum::<u64>()
    );
    // The GPS error model's leaves: a Rayleigh radius and a Uniform angle
    // per reading.
    let kinds: Vec<String> = profile.by_leaf_kind().into_iter().map(|k| k.kind).collect();
    for kind in ["Rayleigh", "Uniform"] {
        assert!(kinds.iter().any(|k| k == kind), "{kind} missing: {kinds:?}");
    }
    // Every instruction is labelled with its own node's label, and the
    // optimized tape's mnemonics are pinned: each fix's two leaves and
    // destination latitude, then the longitudes, the haversine and the
    // scaling to mph.
    let network = speed.network();
    for instr in &profile.instrs {
        let node = network
            .node(instr.node)
            .expect("profiled node is in the network");
        assert_eq!(instr.label, node.label, "instruction {instr:?}");
    }
    let fix = [
        "leaf_vec", "unary", "unary", "unary", "leaf_vec", "unary", "unary", "binary", "unary",
        "muladd", "unary",
    ];
    let rest = [
        "binary", "unary", "unary", "unary", "unary", "binary", "unary", "binary", "unary",
        "unary", "binary", "binary", "unary", "unary", "binary", "unary", "unary", "binary",
        "binary", "unary", "binary", "unary", "unary", "binary", "binary", "muladd", "unary",
        "unary", "unary", "unary", "unary",
    ];
    let ops: Vec<&str> = profile.instrs.iter().map(|i| i.op).collect();
    assert_eq!(ops, [&fix[..], &fix[..], &rest[..]].concat());
    assert_eq!(
        (profile.pre_opt_instrs, profile.post_opt_instrs()),
        (56, 53)
    );
    // The profile consumed exactly the seeds an unprofiled batch of N
    // rows would: the stream continues bit for bit.
    let mut plain = Session::sequential(9);
    plain.samples(&speed, N);
    assert_eq!(profiled.joint_samples(), plain.joint_samples());
    let next: Vec<u64> = profiled
        .samples(&speed, 10)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let twin: Vec<u64> = plain
        .samples(&speed, 10)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(next, twin);
}
