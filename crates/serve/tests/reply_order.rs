//! Reply order on one TCP connection: replies leave as they complete, so
//! a fast request never waits behind another tenant's slow one, while
//! each tenant's replies still arrive in its submission order.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use uncertain_core::{HypothesisOutcome, ServeError, Session, Uncertain};
use uncertain_serve::wire::{self, MAGIC};
use uncertain_serve::{
    shard_of, tenant_seed, Request, RequestKind, Response, ServeConfig, Service,
};

const SEED: u64 = 2014;
const SHARDS: usize = 2;

fn config() -> ServeConfig {
    ServeConfig::builder()
        .shards(SHARDS)
        .seed(SEED)
        .bind_addr("127.0.0.1:0")
        .build()
        .expect("valid config")
}

/// The first `count` tenants that hash to `shard`.
fn tenants_on(shard: usize, count: usize) -> Vec<u64> {
    (0..)
        .filter(|&t| shard_of(t, SHARDS) == shard)
        .take(count)
        .collect()
}

fn cond() -> Uncertain<bool> {
    Uncertain::bernoulli(0.9).unwrap()
}

/// A sum of many leaves, so each sample is slow and a request that runs
/// for a while still buffers few samples.
fn heavy() -> Uncertain<f64> {
    (1..=24)
        .map(|i| Uncertain::normal(i as f64, 1.0).unwrap())
        .reduce(|a, b| a + b)
        .unwrap()
}

fn frame(id: u64, tenant: u64, kind: RequestKind) -> Vec<u8> {
    let payload = wire::encode_request(
        id,
        &Request {
            tenant,
            kind,
            timeout: None,
            strategy: None,
            trace: None,
        },
    )
    .expect("encode");
    let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&payload);
    framed
}

/// Opens a raw connection and writes the preamble and every frame in one
/// write, so the server decodes them back to back.
fn send_all(addr: SocketAddr, frames: &[Vec<u8>]) -> TcpStream {
    let mut bytes = Vec::from(MAGIC);
    for f in frames {
        bytes.extend_from_slice(f);
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&bytes).expect("write frames");
    stream
}

fn read_reply(stream: &mut TcpStream) -> (u64, Result<Response, ServeError>) {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("reply length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("reply payload");
    let (id, _trace, result) = wire::decode_response(&payload).expect("decode reply");
    (id, result)
}

#[test]
fn a_fast_reply_is_not_held_behind_another_tenants_slow_request() {
    let service = Service::start(config());
    let listener = service.listen().expect("listen");
    let slow = tenants_on(0, 1)[0];
    let fast = tenants_on(1, 1)[0];

    // The `e` samples for a few hundred ms in a debug build; the
    // decision on the other shard takes microseconds.
    let mut stream = send_all(
        listener.local_addr(),
        &[
            frame(
                1,
                slow,
                RequestKind::E {
                    expr: heavy(),
                    n: 100_000,
                },
            ),
            frame(
                2,
                fast,
                RequestKind::Evaluate {
                    cond: cond(),
                    threshold: 0.5,
                },
            ),
        ],
    );
    let (first, result) = read_reply(&mut stream);
    assert_eq!(first, 2, "the fast reply waited behind the slow request");
    assert!(matches!(result, Ok(Response::Outcome(_))), "{result:?}");
    let (second, result) = read_reply(&mut stream);
    assert_eq!(second, 1);
    assert!(matches!(result, Ok(Response::Mean(_))), "{result:?}");

    drop(stream);
    listener.shutdown();
    service.shutdown();
}

#[test]
fn each_tenants_replies_keep_its_submission_order_and_bits() {
    const ROUNDS: u64 = 10;
    let config = config();
    let service = Service::start(config.clone());
    let listener = service.listen().expect("listen");
    let tenants: Vec<u64> = tenants_on(0, 2)
        .into_iter()
        .chain(tenants_on(1, 2))
        .collect();

    // Ids rise in submission order; the frames interleave the tenants.
    let mut frames = Vec::new();
    let mut tenant_of = HashMap::new();
    for round in 0..ROUNDS {
        for (i, &tenant) in tenants.iter().enumerate() {
            let id = round * tenants.len() as u64 + i as u64 + 1;
            tenant_of.insert(id, tenant);
            let kind = RequestKind::Evaluate {
                cond: cond(),
                threshold: 0.5,
            };
            frames.push(frame(id, tenant, kind));
        }
    }
    let mut stream = send_all(listener.local_addr(), &frames);
    let mut replies: HashMap<u64, Vec<(u64, HypothesisOutcome)>> = HashMap::new();
    for _ in 0..frames.len() {
        let (id, result) = read_reply(&mut stream);
        let Ok(Response::Outcome(outcome)) = result else {
            panic!("request {id}: {result:?}");
        };
        replies
            .entry(tenant_of[&id])
            .or_default()
            .push((id, outcome));
    }
    drop(stream);
    listener.shutdown();
    service.shutdown();

    let cond = cond();
    for tenant in tenants {
        let got = &replies[&tenant];
        assert_eq!(got.len(), ROUNDS as usize, "tenant {tenant}");
        assert!(
            got.windows(2).all(|w| w[0].0 < w[1].0),
            "tenant {tenant}'s replies left submission order: {:?}",
            got.iter().map(|(id, _)| id).collect::<Vec<_>>()
        );
        let mut reference = Session::seeded(tenant_seed(SEED, tenant)).with_config(config.eval);
        for (id, outcome) in got {
            assert_eq!(
                *outcome,
                reference.evaluate(&cond, 0.5),
                "tenant {tenant}, request {id}"
            );
        }
    }
}
