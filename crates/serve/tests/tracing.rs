//! End-to-end tests of request tracing: a traced TCP request must yield
//! one connected span tree whose id round-trips the wire and is served by
//! `GET /traces/<id>`; tracing must never change what is computed; the
//! flight recorder must retain errors unconditionally; and a shadow audit
//! must check an exact verdict without touching the tenant's stream.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use uncertain_core::{EvalConfig, EvalStrategy, Provenance, Uncertain};
use uncertain_obs::{trace_to_json, AttrValue};
use uncertain_serve::{
    Request, RequestKind, RequestTrace, Response, ServeClient, ServeConfig, ServeError, Service,
    TcpTransport, TraceContext, Transport,
};

/// A network with shared sub-expressions and enough variety that traced
/// requests exercise compile + SPRT sampling.
fn evidence() -> Uncertain<bool> {
    evidence_below(4.0)
}

/// [`evidence`] with its first comparison's bound as a parameter: each
/// bound is a distinct network with its own compiled kernel.
fn evidence_below(bound: f64) -> Uncertain<bool> {
    let x = Uncertain::normal(0.0, 1.0).unwrap();
    let y = Uncertain::uniform(-1.0, 2.0).unwrap();
    let sum = &x + &y;
    (&sum + &x).lt(bound) & (sum * 2.0).gt(-8.0) & Uncertain::bernoulli(0.95).unwrap()
}

fn expr() -> Uncertain<f64> {
    let x = Uncertain::normal(3.0, 1.0).unwrap();
    let r = Uncertain::rayleigh(2.0).unwrap();
    (&x * &x + r).sqrt()
}

/// The value of attribute `key` on `trace`'s span `name`.
fn span_attr(trace: &RequestTrace, name: &str, key: &str) -> Option<AttrValue> {
    let span = trace.spans.iter().find(|s| s.name == name)?;
    span.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.clone())
}

/// One bounded HTTP GET against the service's port, returning the raw
/// response (status line + headers + body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    response
}

#[test]
fn traced_tcp_requests_build_a_connected_span_tree_served_over_http() {
    const TENANTS: u64 = 5;
    // Each tenant asks its own network, so its first request compiles a
    // kernel (the compile span must appear) and its second, asking the
    // same network again, hits the shard's plan cache.
    let config = ServeConfig::builder()
        .shards(2)
        .seed(2014)
        .bind_addr("127.0.0.1:0")
        .build()
        .expect("valid config");
    let service = Service::start(config);
    let listener = service.listen().expect("listen");
    let addr = listener.local_addr();
    let tcp = ServeClient::connect_pooled(addr, 2).expect("connect");

    let conds: Vec<_> = (0..TENANTS)
        .map(|tenant| evidence_below(4.0 + tenant as f64 / 8.0))
        .collect();
    let mut traced_ids = Vec::new();
    let mut outcomes = Vec::new();
    let mut repeat_ids = Vec::new();
    for round in 0..2 {
        for tenant in 0..TENANTS {
            let (outcome, echoed) = tcp
                .evaluate_traced(tenant, &conds[tenant as usize], 0.5)
                .expect("traced evaluate");
            assert!(outcome.samples > 0, "this network needs sampling");
            let id = echoed.expect("traced replies echo the trace id");
            if round == 0 {
                traced_ids.push((tenant, id));
                outcomes.push(outcome);
            } else {
                repeat_ids.push(id);
            }
        }
    }

    // Each first-round trace: fetch it back over HTTP by the id the
    // *client* observed — the round-trip the wire header exists for.
    for &(tenant, id) in &traced_ids {
        let response = http_get(addr, &format!("/traces/{id}"));
        assert!(
            response.starts_with("HTTP/1.1 200 OK"),
            "trace {id} not retained: {response:.120}"
        );
        let body = response
            .split("\r\n\r\n")
            .nth(1)
            .expect("body after headers");
        assert!(body.contains(&format!("\"trace_id\":{id}")));
        assert!(body.contains(&format!("\"tenant\":{tenant}")));

        // The span tree is connected: exactly one root (parent 0 — the
        // client sent no parent span), and every other span parented at
        // an id that exists in the same trace.
        let trace = service.trace(id).expect("trace retained server-side");
        assert_eq!(trace.trace_id, id);
        let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(roots.len(), 1, "one connected tree");
        assert_eq!(roots[0].name, "request");
        for span in &trace.spans {
            if span.parent != 0 {
                assert!(
                    trace.spans.iter().any(|s| s.id == span.parent),
                    "span {} is orphaned",
                    span.name
                );
            }
            assert!(span.end_ns >= span.start_ns);
        }
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"queue"), "queue span missing: {names:?}");
        assert!(
            names.contains(&"compile"),
            "a network's first request compiles it: {names:?}"
        );
        assert!(names.contains(&"decide"), "decide span missing: {names:?}");
        // The SPRT's own record of the decision rides along, whole.
        let decision = trace.decision.as_ref().expect("a sampled decision");
        assert_eq!(decision.samples, outcomes[tenant as usize].samples);
        assert_eq!(
            decision.batches.last().map(|b| b.samples),
            Some(decision.samples)
        );
        assert!(
            body.contains("\"decision\":{\"root\":"),
            "the record is served as trace_to_json prints it: {body:.200}"
        );
        assert!(body.contains(&format!("\"decision\":{}}}", trace_to_json(decision))));
    }

    // The second round repeats each network: the decoded-graph cache hands
    // the shard the same nodes, so its plan cache hits and nothing
    // compiles. The recorder keeps the first 8 traces of each window, so
    // at least 3 of these are retained.
    let repeats: Vec<_> = repeat_ids
        .iter()
        .filter_map(|&id| service.trace(id))
        .collect();
    assert!(repeats.len() >= 3, "{} repeats retained", repeats.len());
    for trace in &repeats {
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert!(
            !names.contains(&"compile"),
            "a repeated network hits the shard's plan cache: {names:?}"
        );
    }

    // The JSON-lines listing serves the retained set, newest last.
    let listing = http_get(addr, "/traces");
    assert!(listing.starts_with("HTTP/1.1 200 OK"));
    assert!(listing.contains("application/x-ndjson"));
    let body = listing.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(
        body.lines().count() >= traced_ids.len(),
        "all first-round traces retained under the default policy"
    );

    // /health answers liveness; an unknown id 404s.
    let health = http_get(addr, "/health");
    assert!(health.starts_with("HTTP/1.1 200 OK"));
    assert!(health.contains("\"status\":\"ok\""));
    let missing = http_get(addr, "/traces/1");
    assert!(missing.starts_with("HTTP/1.1 404"), "got: {missing:.80}");

    let metrics = service.metrics();
    assert_eq!(metrics.flight.offered, 2 * TENANTS);
    assert!(metrics.flight.retained >= traced_ids.len() as u64);

    listener.shutdown();
    service.shutdown();
}

#[test]
fn traced_sample_requests_report_their_samples_and_backend() {
    // The typed client traces only `evaluate`, so these go through the
    // transport with a sampled context, as a remote caller's would.
    let config = ServeConfig::builder()
        .shards(1)
        .seed(5)
        .bind_addr("127.0.0.1:0")
        .build()
        .expect("valid config");
    let service = Service::start(config.clone());
    let twin = Service::start(config);
    let listener = service.listen().expect("listen");
    let tcp = TcpTransport::connect(listener.local_addr()).expect("connect");
    let traced = |kind: RequestKind, strategy: Option<EvalStrategy>| {
        let reply = tcp
            .submit(Request {
                tenant: 2,
                kind,
                timeout: None,
                strategy,
                trace: Some(TraceContext::root()),
            })
            .expect("admitted")
            .recv()
            .expect("a reply");
        let id = reply.trace_id.expect("traced replies echo the trace id");
        let trace = service.trace(id).expect("a window's first traces are kept");
        (reply.result.expect("answered"), trace)
    };

    // 5 000 samples are two chunks on the kernel: one `sample` span
    // counts them all, and no decision record exists.
    let (reply, trace) = traced(
        RequestKind::E {
            expr: expr(),
            n: 5000,
        },
        None,
    );
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["request", "queue", "compile", "sample"]);
    assert_eq!(
        span_attr(&trace, "sample", "samples"),
        Some(AttrValue::U64(5000))
    );
    assert_eq!(
        span_attr(&trace, "sample", "exact"),
        Some(AttrValue::Bool(false))
    );
    assert!(!trace.exact && trace.decision.is_none());
    let Response::Mean(mean) = reply else {
        panic!("{reply:?}")
    };
    let plain = twin.client().e(2, &expr(), 5000).expect("untraced e");
    assert_eq!(mean.to_bits(), plain.to_bits(), "tracing changed a mean");

    // A linear-Gaussian network under `Auto` is answered in closed form.
    let gaussian = &Uncertain::normal(1.0, 2.0).unwrap() + &Uncertain::normal(0.5, 1.0).unwrap();
    for kind in [
        RequestKind::E {
            expr: gaussian.clone(),
            n: 100,
        },
        RequestKind::Stats {
            expr: gaussian.clone(),
            n: 100,
        },
    ] {
        let (_, trace) = traced(kind, Some(EvalStrategy::Auto));
        assert_eq!(
            span_attr(&trace, "sample", "samples"),
            Some(AttrValue::U64(0))
        );
        assert_eq!(
            span_attr(&trace, "sample", "exact"),
            Some(AttrValue::Bool(true))
        );
        assert!(trace.exact, "{:?}", trace.kind);
    }

    listener.shutdown();
    service.shutdown();
    twin.shutdown();
}

#[test]
fn tracing_never_changes_what_is_computed() {
    // Identical services; one answers every request traced, the other
    // untraced. Decisions, means, and summaries must be bitwise equal —
    // tracing observes the sample stream, it never participates in it.
    let config = ServeConfig::builder()
        .shards(2)
        .seed(77)
        .build()
        .expect("valid config");
    let traced_service = Service::start(config.clone());
    let plain_service = Service::start(config);
    let traced = traced_service.client();
    let plain = plain_service.client();

    let cond = evidence();
    let expr = expr();
    for tenant in 0..4u64 {
        for _round in 0..3 {
            let (a, id) = traced
                .evaluate_traced(tenant, &cond, 0.5)
                .expect("traced evaluate");
            let b = plain.evaluate(tenant, &cond, 0.5).expect("plain evaluate");
            assert_eq!(a, b, "tracing changed a verdict (tenant {tenant})");
            assert!(id.is_some());

            // Interleave sampling queries so any perturbation of the
            // cursor or stream would surface downstream too.
            let ma = traced.e(tenant, &expr, 500).expect("traced-service e");
            let mb = plain.e(tenant, &expr, 500).expect("plain-service e");
            assert_eq!(ma.to_bits(), mb.to_bits());
        }
    }

    assert!(traced_service.metrics().flight.offered >= 12);
    assert_eq!(plain_service.metrics().flight.offered, 0);
    traced_service.shutdown();
    plain_service.shutdown();
}

#[test]
fn errors_are_always_retained_by_the_flight_recorder() {
    let service = Service::start(ServeConfig::default().with_shards(1).with_seed(9));
    let client = service.client();

    let expr = expr();
    let pending = client
        .submit_evaluate_traced(1, &evidence(), 0.5, Some(Duration::from_millis(0)))
        .expect("submit");
    let submitted = pending.trace_id().expect("submitted under a trace id");
    let err = pending.wait_traced().expect_err("0ms deadline must expire");
    assert_eq!(err, ServeError::Timeout);

    let trace = service
        .trace(submitted)
        .expect("timeout traces are retained unconditionally");
    assert_eq!(trace.status, "timeout");
    assert!(trace.error);

    // The tenant's stream is untouched by the traced failure: results
    // keep matching a fresh reference service.
    let reference = Service::start(ServeConfig::default().with_shards(1).with_seed(9));
    let a = client.e(1, &expr, 400).expect("after failure");
    let b = reference.client().e(1, &expr, 400).expect("reference");
    assert_eq!(a.to_bits(), b.to_bits());

    service.shutdown();
    reference.shutdown();
}

#[test]
fn a_shadow_audit_checks_an_exact_verdict_without_touching_the_stream() {
    // Two services that differ only in their audit fraction; the tenant
    // sends a traced exact decision, then requests that sample.
    let run = |audit_fraction: f64| {
        let config = ServeConfig::builder()
            .shards(1)
            .seed(41)
            .eval(EvalConfig::default().with_strategy(EvalStrategy::Auto))
            .audit_fraction(audit_fraction)
            .build()
            .expect("valid config");
        let service = Service::start(config);
        let client = service.client();
        let tenant = 3;
        // Pr[N(0, 1) < 3] ≈ 0.9987, far from the 0.5 threshold.
        let gaussian = Uncertain::normal(0.0, 1.0).unwrap().lt(3.0);
        let (exact, id) = client
            .evaluate_traced(tenant, &gaussian, 0.5)
            .expect("traced evaluate");
        let trace = service
            .trace(id.expect("traced replies echo the trace id"))
            .expect("a window's first trace is retained");
        let next = (
            client.evaluate(tenant, &evidence(), 0.5).expect("evaluate"),
            client.e(tenant, &expr(), 500).expect("e").to_bits(),
        );
        service.shutdown();
        (exact, trace, next)
    };

    let (exact, trace, next) = run(1.0);
    assert!(
        matches!(exact.provenance, Provenance::Exact { .. }),
        "{exact:?}"
    );
    assert!(exact.accepted);
    assert!(!trace.audit_mismatch);
    let audit = trace
        .spans
        .iter()
        .find(|s| s.name == "audit")
        .expect("the exact verdict was audited");
    let attr = |key: &str| {
        audit
            .attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(attr("mismatch"), Some(AttrValue::Bool(false)));
    assert!(
        matches!(attr("shadow_samples"), Some(AttrValue::U64(n)) if n > 0),
        "{:?}",
        audit.attrs
    );

    let (unaudited, plain_trace, plain_next) = run(0.0);
    assert_eq!(exact, unaudited);
    assert!(plain_trace.spans.iter().all(|s| s.name != "audit"));
    assert_eq!(next, plain_next, "the audit left the tenant's stream alone");
}
