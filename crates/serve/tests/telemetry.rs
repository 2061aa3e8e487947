//! Telemetry tests of the service: request-phase latency histograms,
//! plan-cache gauge freshness under load, and Prometheus exposition.

use std::time::Duration;
use uncertain_core::Uncertain;
use uncertain_obs::PromWriter;
use uncertain_serve::{ServeClient, ServeConfig, Service};

fn decisive() -> Uncertain<bool> {
    Uncertain::bernoulli(0.9).unwrap()
}

#[test]
fn request_phase_histograms_cover_every_request() {
    let service = Service::start(ServeConfig::default().with_shards(2).with_seed(13));
    let client = service.client();
    let cond = decisive();
    const N: u64 = 20;
    for tenant in 0..4 {
        for _ in 0..N / 4 {
            client.evaluate(tenant, &cond, 0.5).unwrap();
        }
    }
    let metrics = service.shutdown();

    // Every answered request was dequeued once and executed once, so each
    // phase histogram saw exactly one observation per request.
    assert_eq!(metrics.queue_wait().count, N);
    assert_eq!(metrics.compile().count, N);
    assert_eq!(metrics.sampling().count, N);
    // Each shard's first request compiled the plan and spent real time
    // doing so, while the warm requests recorded an exact zero.
    assert!(metrics.compile().max > 0, "cold-cache compiles took time");
    assert!(
        metrics.compile().p50 == 0,
        "most requests hit the plan cache and compiled nothing, p50 = {}",
        metrics.compile().p50
    );
    assert!(metrics.sampling().sum > 0, "SPRT decisions drew samples");
    // Phase split is consistent per shard: sampling excludes compile.
    for shard in &metrics.shards {
        assert_eq!(shard.queue_wait.count, shard.requests);
        assert_eq!(shard.compile.count, shard.sampling.count);
    }
}

#[test]
fn cache_gauges_are_fresh_at_request_boundaries_under_load() {
    // A shard that never goes idle must still publish its plan-cache
    // gauges after each request — not only when its queue drains.
    let service = Service::start(ServeConfig::default().with_shards(1).with_seed(17));
    let client = service.client();
    let slow = Uncertain::from_fn("slow", |rng| {
        std::thread::sleep(Duration::from_millis(2));
        rng.next_u32() % 10 < 9
    });

    // Three pipelined requests keep the worker continuously busy: it goes
    // straight from one to the next without an idle boundary.
    let pending: Vec<_> = (0..3)
        .map(|_| client.submit_evaluate(1, &slow, 0.5, None).unwrap())
        .collect();
    let mut pending = pending.into_iter();
    pending.next().unwrap().wait().unwrap();
    pending.next().unwrap().wait().unwrap();
    // The second reply precedes the worker's boundary publication by a
    // hair; give it a moment, while the third request keeps it busy.
    std::thread::sleep(Duration::from_millis(20));

    let metrics = service.metrics();
    assert!(
        metrics.cache().misses >= 1,
        "the session's plan compile is already visible"
    );
    pending.next().unwrap().wait().unwrap();
    service.shutdown();
}

#[test]
fn prometheus_rendering_reports_the_scrape_series() {
    let service = Service::start(ServeConfig::default().with_shards(2).with_seed(19));
    let client = service.client();
    let cond = decisive();
    for tenant in 0..4 {
        client.evaluate(tenant, &cond, 0.5).unwrap();
    }
    let metrics = service.shutdown();
    let body = metrics.render_prometheus();

    assert!(body.contains("# TYPE uncertain_requests_total counter"));
    assert!(body.contains("uncertain_requests_total 4\n"));
    assert!(body.contains("uncertain_decisions_total 4\n"));
    assert!(body.contains("# TYPE uncertain_queue_wait_ns summary"));
    assert!(body.contains("uncertain_queue_wait_ns{quantile=\"0.99\"}"));
    assert!(body.contains("uncertain_queue_wait_ns_count 4\n"));
    assert!(body.contains("uncertain_compile_ns_count 4\n"));
    assert!(body.contains("uncertain_sampling_ns_count 4\n"));
    // Each shard compiles the network once for all of its tenants.
    assert!(body.contains("uncertain_plan_cache_misses_total 2\n"));
    // One queue-depth series per shard, all drained.
    assert!(body.contains("uncertain_queue_depth{shard=\"0\"} 0\n"));
    assert!(body.contains("uncertain_queue_depth{shard=\"1\"} 0\n"));
    // Every series the exposition format requires is newline-terminated.
    assert!(body.ends_with('\n'));
}

#[test]
fn event_loop_counters_reach_the_scrape_and_labels_stay_escaped() {
    let service = Service::start(
        ServeConfig::builder()
            .shards(2)
            .seed(23)
            .event_loops(1)
            .bind_addr("127.0.0.1:0")
            .build()
            .expect("valid config"),
    );
    let listener = service.listen().expect("listen");
    let client = ServeClient::connect(listener.local_addr()).expect("connect");
    let cond = decisive();
    // Pipelined submits give the coalescer a chance to batch replies.
    let pending: Vec<_> = (0..8)
        .map(|t| client.submit_evaluate(t, &cond, 0.5, None).expect("submit"))
        .collect();
    for p in pending {
        p.wait().expect("evaluate");
    }
    drop(client);
    drop(listener);
    let metrics = service.shutdown();
    let body = metrics.render_prometheus();

    // The event-loop counters all reach the scrape, typed and sampled.
    for series in [
        "uncertain_net_accept_stalls_total",
        "uncertain_net_event_loop_wakeups_total",
        "uncertain_net_partial_reads_total",
        "uncertain_net_writev_batches_total",
        "uncertain_net_connections_registered_total",
    ] {
        assert!(
            body.contains(&format!("# TYPE {series} counter")),
            "missing TYPE line for {series}"
        );
        assert!(
            body.lines().any(|l| {
                l.strip_prefix(series)
                    .and_then(|rest| rest.strip_prefix(' '))
                    .is_some_and(|v| v.parse::<u64>().is_ok())
            }),
            "missing sample line for {series}"
        );
    }
    // One registered connection, one event loop that provably woke up.
    assert!(body.contains("uncertain_net_connections_registered_total 1\n"));
    assert!(!body.contains("uncertain_net_event_loop_wakeups_total 0\n"));

    // A hostile label value must not be able to terminate the quoted
    // string or inject a sample line — the same writer the service's
    // scrape uses escapes it.
    let mut w = PromWriter::new();
    let hostile = "evil\"} 1\nuncertain_net_accept_stalls_total 9999\\";
    w.gauge_per(
        "uncertain_probe",
        "escape probe",
        "shard",
        &[(hostile.to_string(), 1.0)],
    );
    let rendered = w.finish();
    assert!(
        rendered.contains(
            "uncertain_probe{shard=\"evil\\\"} 1\\nuncertain_net_accept_stalls_total 9999\\\\\"} 1\n"
        ),
        "label value was not escaped: {rendered}"
    );
    assert!(
        !rendered.contains("\nuncertain_net_accept_stalls_total 9999"),
        "hostile label injected a fresh sample line"
    );
}
