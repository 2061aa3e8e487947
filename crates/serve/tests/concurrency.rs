//! The service's concurrency contract, tested under real thread
//! interleaving (run these under `RUST_TEST_THREADS=4` in CI):
//!
//! 1. one tenant's requests from two client handles never interleave
//!    within an SPRT decision,
//! 2. per-tenant results are bitwise identical for any shard count (a
//!    shard's one session serving however many tenants hash to it),
//! 3. deadline expiry returns `Timeout` without poisoning the shard or
//!    the tenant's stream.

use std::time::Duration;
use uncertain_core::{EvalConfig, HypothesisOutcome, ServeError, Session, Uncertain};
use uncertain_serve::{tenant_seed, ServeConfig, Service};

fn decisive() -> Uncertain<bool> {
    Uncertain::bernoulli(0.9).unwrap()
}

/// Sort key for comparing outcome multisets.
fn key(o: &HypothesisOutcome) -> (usize, u64, bool, bool) {
    (o.samples, o.estimate.to_bits(), o.accepted, o.conclusive)
}

#[test]
fn same_tenant_requests_from_two_handles_never_interleave() {
    // Every request from either handle is one whole SPRT decision = one
    // session query. If two decisions ever interleaved their sample draws,
    // the observed outcomes could not all come from the reference stream
    // of whole queries 0..2K — so multiset equality against that stream
    // is exactly the non-interleaving property.
    let config = ServeConfig::default().with_shards(2).with_seed(77);
    let service = Service::start(config.clone());
    // Varied sample counts per decision make interleaving detectable.
    let cond = Uncertain::bernoulli(0.7).unwrap();
    const K: usize = 24;
    let tenant = 13;

    let handles: Vec<_> = (0..2)
        .map(|_| {
            let client = service.client();
            let cond = cond.clone();
            std::thread::spawn(move || {
                (0..K)
                    .map(|_| client.evaluate(tenant, &cond, 0.5).unwrap())
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut observed: Vec<HypothesisOutcome> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    service.shutdown();

    let mut reference = Session::seeded(tenant_seed(77, tenant)).with_config(config.eval);
    let mut expected: Vec<HypothesisOutcome> =
        (0..2 * K).map(|_| reference.evaluate(&cond, 0.5)).collect();

    observed.sort_by_key(key);
    expected.sort_by_key(key);
    assert_eq!(observed, expected);
}

#[test]
fn per_tenant_results_are_identical_across_shard_counts() {
    // 16 tenants: the 1-shard run seeks its one session through all of
    // them, the 4-shard run splits them four ways. Results must not
    // notice — a tenant's stream is its seed and its query cursor, and
    // tenant seeds are independent of topology.
    let cond = decisive();
    let x = Uncertain::normal(5.0, 2.0).unwrap();
    let run = |shards: usize| -> Vec<Vec<u64>> {
        let service = Service::start(ServeConfig::default().with_shards(shards).with_seed(1234));
        let client = service.client();
        let results = (0..16u64)
            .map(|tenant| {
                let mut bits = Vec::new();
                for _ in 0..3 {
                    let o = client.evaluate(tenant, &cond, 0.5).unwrap();
                    bits.push(o.samples as u64);
                    bits.push(o.estimate.to_bits());
                    bits.push(u64::from(client.pr(tenant, &cond, 0.5).unwrap()));
                    bits.push(client.e(tenant, &x, 500).unwrap().to_bits());
                }
                bits
            })
            .collect();
        service.shutdown();
        results
    };

    let one = run(1);
    let two = run(2);
    let four = run(4);
    assert_eq!(one, two);
    assert_eq!(one, four);
}

#[test]
fn deadline_expiry_returns_timeout_without_poisoning_the_shard() {
    let config = ServeConfig::default().with_shards(1).with_seed(55);
    let service = Service::start(config.clone());
    let client = service.client();
    let tenant = 2;

    // (a) Expired while queued: rejected before touching the session, so
    // no query index is consumed.
    let queue_expired = client.evaluate_within(tenant, &decisive(), 0.5, Duration::ZERO);
    assert_eq!(queue_expired, Err(ServeError::Timeout));

    // (b) Expired mid-SPRT: a conditional pinned at its threshold with
    // slow leaves cannot decide before the deadline; the shard aborts at a
    // batch boundary. The aborted decision consumes exactly one query.
    let slow_marginal = Uncertain::from_fn("slow coin", |rng| {
        std::thread::sleep(Duration::from_millis(1));
        rng.next_u32() & 1 == 0
    });
    let no_cap = EvalConfig::default().with_max_samples(10_000_000);
    let service2 = Service::start(
        ServeConfig::default()
            .with_shards(1)
            .with_seed(55)
            .with_eval(no_cap),
    );
    let client2 = service2.client();
    let aborted = client2.evaluate_within(tenant, &slow_marginal, 0.5, Duration::from_millis(30));
    assert_eq!(aborted, Err(ServeError::Timeout));

    // (c) The tenant's stream is exactly one query further along, and the
    // shard keeps answering — for this tenant and others.
    let cond = decisive();
    let after = client2.evaluate(tenant, &cond, 0.5).unwrap();
    let mut reference = Session::seeded(tenant_seed(55, tenant)).with_config(no_cap);
    reference.resume_at(1);
    assert_eq!(after, reference.evaluate(&cond, 0.5));
    assert!(client2.pr(99, &cond, 0.5).unwrap());
    assert_eq!(service2.metrics().timeouts(), 1);
    service2.shutdown();

    // Back on the first service: the queue-expired request left tenant 2
    // at query 0, exactly as if it had never been admitted.
    let first_real = client.evaluate(tenant, &cond, 0.5).unwrap();
    let mut untouched = Session::seeded(tenant_seed(55, tenant)).with_config(config.eval);
    assert_eq!(first_real, untouched.evaluate(&cond, 0.5));
    assert_eq!(service.metrics().timeouts(), 1);
    service.shutdown();
}

#[test]
fn timed_out_e_requests_keep_the_chunk_cursor_deterministic() {
    // An aborted multi-chunk `e` advances the cursor to where a completed
    // one would have, so the next request is bitwise unaffected.
    let slow = Uncertain::from_fn("slow value", |rng| {
        std::thread::sleep(Duration::from_micros(50));
        rng.next_u32() as f64
    });
    let fast = Uncertain::normal(1.0, 0.5).unwrap();
    let tenant = 4;
    let service = Service::start(ServeConfig::default().with_shards(1).with_seed(91));
    let client = service.client();

    // 3 chunks of 4096; at ~50µs per sample the deadline hits mid-run.
    let aborted = client.e_within(tenant, &slow, 3 * 4096, Duration::from_millis(40));
    assert_eq!(aborted, Err(ServeError::Timeout));
    let after = client.e(tenant, &fast, 100).unwrap();
    service.shutdown();

    // Reference: the aborted request consumed its full 3 query indices.
    let mut reference = Session::seeded(tenant_seed(91, tenant));
    reference.resume_at(3);
    let expected = reference.samples(&fast, 100).iter().sum::<f64>() / 100.0;
    assert_eq!(after.to_bits(), expected.to_bits());
}
