//! End-to-end tests of the TCP transport: remote decisions must be
//! bitwise identical to in-process ones, hostile frames must be rejected
//! without harming the service, and the metrics endpoint must answer a
//! plain HTTP scrape.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use uncertain_core::{Uncertain, WireError, WireGraph};
use uncertain_serve::{ServeClient, ServeConfig, ServeError, Service};

/// A wire-expressible evidence network with shared sub-expressions, so
/// the round-trip also covers correlation-preserving decode.
fn evidence() -> Uncertain<bool> {
    let x = Uncertain::normal(0.0, 1.0).unwrap();
    let y = Uncertain::uniform(-1.0, 2.0).unwrap();
    let sum = &x + &y;
    (&sum + &x).lt(4.0) & (sum * 2.0).gt(-8.0) & Uncertain::bernoulli(0.95).unwrap()
}

fn expr() -> Uncertain<f64> {
    let x = Uncertain::normal(3.0, 1.0).unwrap();
    let r = Uncertain::rayleigh(2.0).unwrap();
    (&x * &x + r).sqrt()
}

fn service_pair(shards: usize) -> (Service, Service) {
    // Every tenant switch seeks the shard's one session to another
    // tenant's stream: the remote path must stay bitwise correct through
    // it.
    let config = ServeConfig::builder()
        .shards(shards)
        .seed(2014)
        .bind_addr("127.0.0.1:0")
        .build()
        .expect("valid config");
    (Service::start(config.clone()), Service::start(config))
}

#[test]
fn tcp_results_are_bitwise_identical_to_in_process() {
    const TENANTS: u64 = 6;
    for shards in [1usize, 2, 4] {
        let (reference, remote) = service_pair(shards);
        let listener = remote.listen().expect("listen");
        let local = reference.client();
        let tcp = ServeClient::connect_pooled(listener.local_addr(), 2).expect("connect");

        let cond = evidence();
        let expr = expr();
        for _round in 0..3 {
            for tenant in 0..TENANTS {
                let a = local.evaluate(tenant, &cond, 0.5).expect("local evaluate");
                let b = tcp.evaluate(tenant, &cond, 0.5).expect("tcp evaluate");
                assert_eq!(a, b, "outcome diverged (shards={shards}, tenant={tenant})");

                let ma = local.e(tenant, &expr, 700).expect("local e");
                let mb = tcp.e(tenant, &expr, 700).expect("tcp e");
                assert_eq!(
                    ma.to_bits(),
                    mb.to_bits(),
                    "mean diverged (shards={shards}, tenant={tenant})"
                );

                let sa = local.stats(tenant, &expr, 300).expect("local stats");
                let sb = tcp.stats(tenant, &expr, 300).expect("tcp stats");
                assert_eq!(
                    sa, sb,
                    "summary diverged (shards={shards}, tenant={tenant})"
                );
            }
        }

        let remote_metrics = remote.metrics();
        assert!(remote_metrics.net.frames_in >= TENANTS * 9);
        assert_eq!(remote_metrics.net.frames_in, remote_metrics.net.frames_out);
        // Two networks, each decoded once and compiled at most once per
        // shard: the tenants of a shard share its kernels.
        assert!(
            remote_metrics.cache().misses <= 2 * shards as u64,
            "{:?}",
            remote_metrics.cache()
        );
        listener.shutdown();
        remote.shutdown();
        reference.shutdown();
    }
}

/// Raw-socket framing helpers for the hostile-bytes tests.
fn send_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .and_then(|()| stream.write_all(payload))
        .expect("frame write");
}

fn recv_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("frame length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("frame payload");
    payload
}

#[test]
fn malformed_frames_get_error_replies_and_the_service_survives() {
    let service = Service::start(ServeConfig::default().with_shards(1).with_seed(7));
    let listener = service.listen().expect("listen");
    let addr = listener.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"UNC1").expect("magic");

    // Garbage after a valid correlation id: correlated error reply, and
    // the connection stays usable.
    let mut garbage = 42u64.to_le_bytes().to_vec();
    garbage.extend_from_slice(&[0xFF; 9]);
    send_frame(&mut stream, &garbage);
    let reply = recv_frame(&mut stream);
    assert_eq!(u64::from_le_bytes(reply[..8].try_into().unwrap()), 42);
    assert_eq!(reply[8], 0, "error replies echo no trace id");
    assert_ne!(reply[9], 0, "garbage must not decode to a success");

    // A hand-assembled request on the same connection: kind 2, which no
    // longer exists, gets a correlated malformed-frame reply; the same
    // frame as kind 1 (Evaluate) succeeds.
    let cond = Uncertain::bernoulli(0.9).unwrap();
    let frame = |id: u64, kind: u8| {
        let mut frame = Vec::new();
        frame.extend_from_slice(&id.to_le_bytes());
        frame.extend_from_slice(&1u64.to_le_bytes()); // tenant
        frame.extend_from_slice(&0u64.to_le_bytes()); // no deadline
        frame.push(0); // strategy: inherit
        frame.push(0); // trace: none
        frame.push(kind);
        frame.extend_from_slice(&0.5f64.to_le_bytes()); // threshold
        frame.extend_from_slice(&WireGraph::from_bool(&cond).unwrap().to_bytes());
        frame
    };
    send_frame(&mut stream, &frame(43, 2));
    let (id, _, result) =
        uncertain_serve::wire::decode_response(&recv_frame(&mut stream)).expect("a reply");
    assert_eq!(id, 43);
    assert!(
        matches!(result, Err(ServeError::Wire(WireError::Malformed(_)))),
        "{result:?}"
    );
    send_frame(&mut stream, &frame(44, 1));
    let reply = recv_frame(&mut stream);
    assert_eq!(u64::from_le_bytes(reply[..8].try_into().unwrap()), 44);
    assert_eq!(reply[8], 0, "untraced replies carry no trace echo");
    assert_eq!(reply[9], 0, "valid request must succeed");
    assert_eq!(reply[10], 1, "Evaluate replies are outcomes");
    // After the 8-byte threshold comes the verdict.
    assert_eq!(reply[19], 1, "Pr[bernoulli(0.9)] > 0.5 holds");
    drop(stream);

    // A frame that claims more bytes than it delivers: the server closes
    // that connection...
    let mut truncated = TcpStream::connect(addr).expect("connect");
    truncated.write_all(b"UNC1").expect("magic");
    truncated.write_all(&100u32.to_le_bytes()).expect("length");
    truncated.write_all(&[0u8; 10]).expect("partial payload");
    drop(truncated);

    // ...and an oversized length prefix likewise...
    let mut oversized = TcpStream::connect(addr).expect("connect");
    oversized.write_all(b"UNC1").expect("magic");
    oversized
        .write_all(&u32::MAX.to_le_bytes())
        .expect("length");
    oversized.flush().expect("flush");
    let mut end = Vec::new();
    let _ = oversized.read_to_end(&mut end); // server hangs up
    assert!(end.is_empty());

    // ...while the service keeps serving fresh connections.
    let tcp = ServeClient::connect(addr).expect("connect");
    assert!(tcp.pr(9, &cond, 0.5).expect("post-hostility request"));

    let metrics = service.metrics();
    assert!(metrics.net.wire_errors >= 1, "hostility must be counted");
    assert!(metrics.net.accepted >= 4);
    listener.shutdown();
    service.shutdown();
}

#[test]
fn a_graph_too_deep_to_drop_is_malformed_and_the_service_survives() {
    let service = Service::start(ServeConfig::default().with_shards(1).with_seed(7));
    let listener = service.listen().expect("listen");
    let mut stream = TcpStream::connect(listener.local_addr()).expect("connect");
    stream.write_all(b"UNC1").expect("magic");

    // An `e` over 40 000 levels of negation, written byte by byte: 240 KB,
    // far under the frame cap, and deep enough that dropping the decoded
    // network would overflow a default thread stack.
    const LEVELS: u32 = 40_000;
    let mut deep = Vec::new();
    deep.extend_from_slice(&44u64.to_le_bytes()); // id
    deep.extend_from_slice(&1u64.to_le_bytes()); // tenant
    deep.extend_from_slice(&0u64.to_le_bytes()); // no deadline
    deep.push(0); // strategy: inherit
    deep.push(0); // trace: none
    deep.push(3); // kind: E
    deep.extend_from_slice(&100u64.to_le_bytes()); // n
    deep.extend_from_slice(&[1, 0]); // graph version 1, f64 root
    deep.extend_from_slice(&LEVELS.to_le_bytes());
    deep.extend_from_slice(&[1, 1]); // a Gaussian leaf
    deep.extend_from_slice(&0.0f64.to_le_bytes());
    deep.extend_from_slice(&1.0f64.to_le_bytes());
    for child in 0..LEVELS - 1 {
        deep.extend_from_slice(&[4, 1]); // negate
        deep.extend_from_slice(&child.to_le_bytes());
    }
    send_frame(&mut stream, &deep);
    let (id, _, result) =
        uncertain_serve::wire::decode_response(&recv_frame(&mut stream)).expect("a reply");
    assert_eq!(id, 44);
    assert!(
        matches!(result, Err(ServeError::Wire(WireError::Malformed(_)))),
        "{result:?}"
    );

    // The service answers the next request.
    let cond = Uncertain::bernoulli(0.9).unwrap();
    let tcp = ServeClient::connect(listener.local_addr()).expect("connect");
    assert!(tcp.pr(1, &cond, 0.5).expect("post-hostility request"));
    listener.shutdown();
    service.shutdown();
}

#[test]
fn http_scrape_returns_prometheus_metrics() {
    let service = Service::start(ServeConfig::default().with_shards(2).with_seed(3));
    let listener = service.listen().expect("listen");

    // Put some work through first so counters are non-trivial.
    let tcp = ServeClient::connect(listener.local_addr()).expect("connect");
    let cond = evidence();
    tcp.evaluate(5, &cond, 0.5).expect("decision");

    let mut stream = TcpStream::connect(listener.local_addr()).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("response");
    assert!(body.starts_with("HTTP/1.1 200 OK"), "got: {body:.80}");
    assert!(body.contains("uncertain_requests_total"));
    assert!(body.contains("uncertain_net_frames_in_total"));
    assert!(body.contains("uncertain_net_http_scrapes_total 1"));
    listener.shutdown();
    service.shutdown();
}

/// Repeats `try_once`, a 1 ms, 30M-sample `e`, until `service`'s shard has
/// executed one try, which its deadline then aborted mid-run. The shard counts
/// executed requests in its sampling histogram before it replies. A try
/// that expires while still queued consumes no query index, so the
/// retries cannot move the tenant's stream.
fn abort_one_mid_run(service: &Service, mut try_once: impl FnMut() -> Result<f64, ServeError>) {
    let executed = || service.metrics().shards[0].sampling.count;
    let before = executed();
    for _ in 0..100 {
        let err = try_once().expect_err("a 30M-sample request cannot finish in 1ms");
        assert_eq!(err, ServeError::Timeout);
        if executed() > before {
            return;
        }
    }
    panic!("100 tries all expired in the shard queue; none was aborted mid-run");
}

#[test]
fn deadlines_cross_the_wire_and_abort_cooperatively() {
    let service = Service::start(ServeConfig::default().with_shards(1).with_seed(11));
    let listener = service.listen().expect("listen");
    let tcp = ServeClient::connect(listener.local_addr()).expect("connect");

    let expr = expr();
    let within_1ms = Duration::from_millis(1);
    abort_one_mid_run(&service, || tcp.e_within(1, &expr, 30_000_000, within_1ms));

    // A mid-run abort consumes the whole request's query indices wherever
    // it landed, so the next request matches in-process exactly.
    let reference = Service::start(ServeConfig::default().with_shards(1).with_seed(11));
    let local = reference.client();
    abort_one_mid_run(&reference, || {
        local.e_within(1, &expr, 30_000_000, within_1ms)
    });
    let a = local.e(1, &expr, 500).expect("local");
    let b = tcp.e(1, &expr, 500).expect("tcp");
    assert_eq!(a.to_bits(), b.to_bits());

    listener.shutdown();
    service.shutdown();
    reference.shutdown();
}

#[test]
fn queue_backpressure_maps_to_queue_full_over_the_wire() {
    let config = ServeConfig::builder()
        .shards(1)
        .queue_depth(1)
        .seed(5)
        .build()
        .expect("valid config");
    let service = Service::start(config);
    let listener = service.listen().expect("listen");
    let tcp = ServeClient::connect(listener.local_addr()).expect("connect");

    let expr = expr();
    let pending: Vec<_> = (0..32)
        .map(|_| tcp.submit_e(1, &expr, 1_000_000, None).expect("submit"))
        .collect();
    let results: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();
    assert!(
        results.iter().any(|r| r.is_ok()),
        "some requests must execute"
    );
    assert!(
        results.iter().any(|r| r == &Err(ServeError::QueueFull)),
        "a depth-1 queue under a 32-deep burst must shed load"
    );
    listener.shutdown();
    service.shutdown();
}

#[test]
fn listener_shutdown_drains_inflight_replies() {
    let service = Service::start(ServeConfig::default().with_shards(2).with_seed(21));
    let listener = service.listen().expect("listen");
    let tcp = ServeClient::connect_pooled(listener.local_addr(), 2).expect("connect");

    let expr = expr();
    let pending: Vec<_> = (0..16)
        .map(|t| tcp.submit_e(t, &expr, 50_000, None).expect("submit"))
        .collect();
    listener.shutdown();
    // Every already-admitted request still gets a real reply (the writer
    // drains before the socket closes); nothing hangs.
    for p in pending {
        match p.wait() {
            Ok(m) => assert!(m.is_finite()),
            // A reply can race the half-close; it must fail loudly, not hang.
            Err(ServeError::Transport(_)) | Err(ServeError::Shutdown) => {}
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    // The service itself is still alive for in-process use.
    assert!(service
        .client()
        .e(3, &expr, 100)
        .expect("in-process")
        .is_finite());
    service.shutdown();
}
