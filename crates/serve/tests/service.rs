//! Behavioral tests of the sharded evaluation service: request/response
//! round-trips against reference sessions, backpressure, shutdown
//! draining, and metrics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use uncertain_core::{EvalStrategy, ServeError, Session, Uncertain};
use uncertain_serve::{tenant_seed, ServeConfig, Service};

fn decisive() -> Uncertain<bool> {
    Uncertain::bernoulli(0.9).unwrap()
}

#[test]
fn evaluate_matches_a_reference_session_bitwise() {
    let config = ServeConfig::default().with_shards(2).with_seed(11);
    let service = Service::start(config.clone());
    let client = service.client();
    let cond = decisive();

    let tenant = 5;
    let served: Vec<_> = (0..6)
        .map(|_| client.evaluate(tenant, &cond, 0.5).unwrap())
        .collect();
    service.shutdown();

    let mut reference = Session::seeded(tenant_seed(11, tenant)).with_config(config.eval);
    for outcome in served {
        assert_eq!(outcome, reference.evaluate(&cond, 0.5));
    }
}

#[test]
fn pr_is_the_boolean_view_of_evaluate() {
    let service = Service::start(ServeConfig::default().with_shards(1).with_seed(3));
    let client = service.client();
    let likely = Uncertain::bernoulli(0.9).unwrap();
    let unlikely = Uncertain::bernoulli(0.1).unwrap();
    assert!(client.pr(1, &likely, 0.5).unwrap());
    assert!(!client.pr(1, &unlikely, 0.5).unwrap());
    service.shutdown();
}

#[test]
fn e_matches_a_reference_session_for_single_chunk_requests() {
    let config = ServeConfig::default().with_shards(4).with_seed(29);
    let service = Service::start(config.clone());
    let client = service.client();
    let x = Uncertain::normal(3.0, 1.0).unwrap();

    let tenant = 8;
    let mean = client.e(tenant, &x, 1000).unwrap();
    service.shutdown();

    // Requests under one chunk (4096 samples) are a single session query.
    let mut reference = Session::seeded(tenant_seed(29, tenant)).with_config(config.eval);
    let expected = reference.samples(&x, 1000).iter().sum::<f64>() / 1000.0;
    assert_eq!(mean.to_bits(), expected.to_bits());
}

#[test]
fn stats_returns_a_real_summary() {
    let service = Service::start(ServeConfig::default().with_seed(4));
    let client = service.client();
    let x = Uncertain::normal(10.0, 2.0).unwrap();
    let summary = client.stats(7, &x, 4000).unwrap();
    assert!((summary.mean() - 10.0).abs() < 0.2);
    assert!((summary.std_dev() - 2.0).abs() < 0.2);
    service.shutdown();
}

#[test]
fn invalid_requests_report_invalid_not_panic() {
    let service = Service::start(ServeConfig::default());
    let client = service.client();
    let cond = decisive();
    assert!(matches!(
        client.evaluate(1, &cond, 1.5),
        Err(ServeError::Invalid(_))
    ));
    let x = Uncertain::normal(0.0, 1.0).unwrap();
    assert!(matches!(client.e(1, &x, 0), Err(ServeError::Invalid(_))));
    // The shard survives invalid requests.
    assert!(client.evaluate(1, &cond, 0.5).is_ok());
    service.shutdown();
}

#[test]
fn full_queue_rejects_instead_of_buffering() {
    // One shard, queue depth 1: occupy the worker with a slow request,
    // park a second in the queue, and the third must be shed.
    let service = Service::start(
        ServeConfig::default()
            .with_shards(1)
            .with_queue_depth(1)
            .with_seed(5),
    );
    let slow = Uncertain::from_fn("slow", |rng| {
        std::thread::sleep(Duration::from_millis(2));
        rng.next_u32() & 1 == 0
    });
    let in_flight = {
        let client = service.client();
        let slow = slow.clone();
        std::thread::spawn(move || {
            client.evaluate_within(1, &slow, 0.5, Duration::from_millis(400))
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    let queued = {
        let client = service.client();
        let slow = slow.clone();
        std::thread::spawn(move || {
            client.evaluate_within(1, &slow, 0.5, Duration::from_millis(400))
        })
    };
    std::thread::sleep(Duration::from_millis(50));

    let client = service.client();
    let shed = client.evaluate(1, &decisive(), 0.5);
    assert_eq!(shed, Err(ServeError::QueueFull));
    assert_eq!(service.metrics().rejected(), 1);

    // The slow requests themselves resolve (verdict or timeout), and the
    // service stays usable.
    let _ = in_flight.join().unwrap();
    let _ = queued.join().unwrap();
    assert!(client.evaluate(1, &decisive(), 0.5).is_ok());
    service.shutdown();
}

#[test]
fn shutdown_drains_admitted_requests_and_refuses_new_ones() {
    let service = Service::start(ServeConfig::default().with_shards(2).with_seed(6));
    let x = Uncertain::normal(0.0, 1.0).unwrap();

    // Park several requests (some queued behind each other), then shut
    // down while they are in flight: every admitted request must get a
    // real answer, never a Shutdown error.
    let workers: Vec<_> = (0..6)
        .map(|tenant| {
            let client = service.client();
            let x = x.clone();
            std::thread::spawn(move || client.e(tenant, &x, 200_000))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(20));

    let late_client = service.client();
    let metrics = service.shutdown();
    for w in workers {
        let result = w.join().unwrap();
        match result {
            Ok(mean) => assert!(mean.abs() < 0.1),
            Err(e) => panic!("admitted request was dropped at shutdown: {e}"),
        }
    }
    assert_eq!(metrics.requests(), 6);

    let refused = late_client.e(0, &x, 10);
    assert_eq!(refused, Err(ServeError::Shutdown));
}

#[test]
fn metrics_count_decisions_samples_and_cache_reuse() {
    let config = ServeConfig::default().with_shards(2).with_seed(8);
    let service = Service::start(config);
    let client = service.client();
    let cond = decisive();
    for tenant in 0..4 {
        for _ in 0..5 {
            client.evaluate(tenant, &cond, 0.5).unwrap();
        }
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.requests(), 20);
    assert_eq!(metrics.decisions(), 20);
    assert!(
        metrics.sprt_samples() >= 20 * 10,
        "each decision draws >= one batch"
    );
    assert_eq!(metrics.timeouts(), 0);
    assert_eq!(metrics.rejected(), 0);
    // The tenants of a shard share its session: each of the 2 shards
    // compiles the plan once; the other 18 requests hit.
    let cache = metrics.cache();
    assert_eq!(cache.misses, 2, "one compile per shard");
    assert_eq!(cache.hits, 18);
    assert!(metrics.cache_hit_rate() > 0.75);
    assert!(metrics.decisions_per_sec() > 0.0);
    assert_eq!(metrics.queue_depths().iter().sum::<usize>(), 0);
}

#[test]
fn tenants_of_a_shard_share_one_compiled_network() {
    // Eight tenants ask one network of a one-shard service: it compiles
    // once, and every tenant still draws its own stream.
    let config = ServeConfig::default().with_shards(1).with_seed(31);
    let service = Service::start(config.clone());
    let client = service.client();
    let cond = Uncertain::bernoulli(0.7).unwrap();
    let served: Vec<Vec<_>> = (0..3)
        .map(|_| {
            (0..8)
                .map(|tenant| client.evaluate(tenant, &cond, 0.5).unwrap())
                .collect()
        })
        .collect();
    let metrics = service.shutdown();
    assert_eq!(metrics.cache().misses, 1, "one compile for all tenants");
    assert_eq!(metrics.cache().hits, 23);

    for tenant in 0..8 {
        let mut reference = Session::seeded(tenant_seed(31, tenant)).with_config(config.eval);
        for round in &served {
            assert_eq!(round[tenant as usize], reference.evaluate(&cond, 0.5));
        }
    }
}

#[test]
fn empty_sample_requests_are_invalid_under_every_strategy() {
    // A Gaussian network, which `Auto` answers in closed form: `n = 0`
    // must be refused the same way whichever backend would have answered,
    // and must not move the tenant's stream.
    let config = ServeConfig::default().with_shards(1).with_seed(37);
    let service = Service::start(config.clone());
    let client = service.client();
    let x = Uncertain::normal(3.0, 1.0).unwrap();
    let tenant = 6;
    let mut refusals = Vec::new();
    for strategy in [EvalStrategy::SamplingOnly, EvalStrategy::Auto] {
        refusals.push(client.e_with_strategy(tenant, &x, 0, strategy).unwrap_err());
        refusals.push(
            client
                .stats_with_strategy(tenant, &x, 0, strategy)
                .unwrap_err(),
        );
    }
    let next = client.e(tenant, &x, 100).unwrap();
    service.shutdown();

    assert!(
        matches!(refusals[0], ServeError::Invalid(_)),
        "{refusals:?}"
    );
    assert!(refusals.iter().all(|r| r == &refusals[0]), "{refusals:?}");
    let mut reference = Session::seeded(tenant_seed(37, tenant)).with_config(config.eval);
    let expected = reference.samples(&x, 100).iter().sum::<f64>() / 100.0;
    assert_eq!(next.to_bits(), expected.to_bits());
}

#[test]
fn pipelined_submission_matches_blocking_calls_bitwise() {
    // A window of in-flight submit_evaluate calls must produce, in order,
    // exactly the replies the blocking API would — pipelining changes
    // scheduling, never results.
    let config = ServeConfig::default().with_shards(2).with_seed(21);
    let cond = Uncertain::bernoulli(0.7).unwrap();
    const N: usize = 32;

    let pipelined: Vec<_> = {
        let service = Service::start(config.clone());
        let client = service.client();
        let pending: Vec<_> = (0..N)
            .map(|i| {
                client
                    .submit_evaluate(i as u64 % 4, &cond, 0.5, None)
                    .unwrap()
            })
            .collect();
        let out = pending.into_iter().map(|p| p.wait().unwrap()).collect();
        service.shutdown();
        out
    };
    let blocking: Vec<_> = {
        let service = Service::start(config);
        let client = service.client();
        let out = (0..N)
            .map(|i| client.evaluate(i as u64 % 4, &cond, 0.5).unwrap())
            .collect();
        service.shutdown();
        out
    };
    assert_eq!(pipelined, blocking);
}

#[test]
fn tenants_are_isolated_from_each_others_traffic() {
    // Tenant A's results must not depend on how much traffic tenant B
    // sends in between.
    let config = ServeConfig::default().with_shards(2).with_seed(9);
    let cond = decisive();

    let quiet = {
        let service = Service::start(config.clone());
        let client = service.client();
        let r: Vec<_> = (0..4)
            .map(|_| client.evaluate(100, &cond, 0.5).unwrap())
            .collect();
        service.shutdown();
        r
    };
    let noisy = {
        let service = Service::start(config.clone());
        let client = service.client();
        let mut r = Vec::new();
        for _ in 0..4 {
            for other in 0..20 {
                client.evaluate(other, &cond, 0.5).unwrap();
            }
            r.push(client.evaluate(100, &cond, 0.5).unwrap());
        }
        service.shutdown();
        r
    };
    assert_eq!(quiet, noisy);
}

#[test]
fn a_panicking_request_is_invalid_and_its_shard_keeps_serving() {
    // Each run sends tenant 1 three requests, each followed by probes for
    // tenants 1 and 2 on the same shard: a traced decision and a
    // 10 000-sample `e` on a variable whose `condition_on` runs out of its
    // rejection budget (a panic in the tree-walk), and a 10 000-sample `e`
    // over an untagged closure that fails on some rows (a panic inside the
    // kernel). The panicking run's requests panic; its twin's complete.
    let x = Uncertain::normal(0.0, 1.0).unwrap();
    let probe = Uncertain::normal(0.05, 1.0).unwrap().gt(0.0);
    let run = |panics: bool| {
        let conditioned = x.condition_on(move |_| !panics, 4);
        let armed = Arc::new(AtomicBool::new(panics));
        let lifted = {
            let armed = Arc::clone(&armed);
            x.map("bounded", move |v| {
                assert!(
                    v < 2.0 || !armed.load(Ordering::Relaxed),
                    "row out of range"
                );
                v
            })
        };
        let service = Service::start(ServeConfig::default().with_shards(1).with_seed(21));
        let client = service.client();
        let probes = || {
            [1, 2].map(|tenant| {
                let decided = client.pr(tenant, &probe, 0.5).unwrap();
                (decided, client.evaluate(tenant, &probe, 0.5).unwrap())
            })
        };
        let pending = client
            .submit_evaluate_traced(1, &conditioned.gt(0.0), 0.5, None)
            .unwrap();
        let trace_id = pending.trace_id().unwrap();
        let decision = pending.wait_traced().map(|_| ());
        let after_decision = probes();
        let mean = client.e(1, &conditioned, 10_000).map(|_| ());
        let after_mean = probes();
        let lifted_mean = client.e(1, &lifted, 10_000).map(|_| ());
        // The same tape again with the closure disarmed, on the kernel
        // scratch the panic left fitted to it.
        armed.store(false, Ordering::Relaxed);
        let rerun = client.e(1, &lifted, 10_000).unwrap().to_bits();
        let after_lift = probes();
        let trace = service.trace(trace_id).map(|t| (t.status, t.error));
        service.shutdown();
        (
            [decision, mean, lifted_mean],
            trace,
            rerun,
            [after_decision, after_mean, after_lift],
        )
    };

    let (results, trace, rerun, after_panics) = run(true);
    for result in results {
        assert!(matches!(result, Err(ServeError::Invalid(_))), "{result:?}");
    }
    assert_eq!(trace, Some(("invalid", true)), "errors are always retained");

    // The same requests completing leave every tenant's stream where the
    // panicking ones did.
    let (results, _, rerun_after_completion, after_completions) = run(false);
    assert_eq!(results, [Ok(()), Ok(()), Ok(())]);
    assert_eq!(rerun, rerun_after_completion);
    assert_eq!(after_panics, after_completions);
}

#[test]
fn requests_run_on_named_shard_threads() {
    // A panic caught on a shard prints the thread's name, so an operator
    // can tell which shard it hit.
    let seen = Arc::new(Mutex::new(Vec::new()));
    let named = {
        let seen = Arc::clone(&seen);
        Uncertain::normal(0.0, 1.0)
            .unwrap()
            .map("record", move |v| {
                let name = std::thread::current().name().map(str::to_owned);
                seen.lock().expect("no recorder panics").push(name);
                v
            })
    };
    let service = Service::start(ServeConfig::default().with_shards(2).with_seed(5));
    let client = service.client();
    for tenant in 0..4 {
        client.e(tenant, &named, 16).unwrap();
    }
    service.shutdown();
    let seen = seen.lock().expect("no recorder panics");
    assert!(!seen.is_empty());
    for name in seen.iter() {
        assert!(
            name.as_deref().is_some_and(|n| n.starts_with("shard-")),
            "{name:?}"
        );
    }
}
