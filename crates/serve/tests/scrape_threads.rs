//! A scrape client that never finishes its request head costs the server
//! a socket, not a thread: the event loop collects HTTP heads itself.
//!
//! This test counts the whole process's threads, so it lives alone in its
//! own integration-test binary.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;

use uncertain_serve::{ServeConfig, Service};

const PARKED: usize = 16;

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Waits until the service has counted `open` connections, so every
/// parked head has reached its event loop before threads are counted.
fn await_open(service: &Service, open: usize) {
    for _ in 0..500 {
        if service.metrics().net.connections_open == open {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("the listener never saw {open} open connections");
}

#[test]
fn unfinished_scrape_heads_hold_no_threads() {
    let service = Service::start(
        ServeConfig::builder()
            .shards(2)
            .bind_addr("127.0.0.1:0")
            .build()
            .expect("valid config"),
    );
    let listener = service.listen().expect("listen");
    let addr = listener.local_addr();
    let before = threads();

    let mut parked: Vec<TcpStream> = (0..PARKED)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: local")
                .expect("partial head");
            stream
        })
        .collect();
    await_open(&service, PARKED);
    // Give a thread-per-scrape server time to have spawned its threads.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let during = threads();
    assert!(
        during <= before + 1,
        "{PARKED} unfinished heads grew the process from {before} to {during} threads"
    );

    for stream in &mut parked {
        stream.write_all(b"host\r\n\r\n").expect("finish head");
    }
    for stream in &mut parked {
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(
            response.starts_with("HTTP/1.1 200 OK"),
            "got: {response:.80}"
        );
    }
    drop(parked);
    listener.shutdown();
    assert_eq!(service.shutdown().net.http_scrapes, PARKED as u64);
}
