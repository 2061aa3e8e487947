//! A connection that never says what it is — a preamble cut short, or a
//! `GET ` whose head never ends — is closed without a response 2 s after
//! accept, so silent sockets cannot hold descriptors until the fd limit
//! turns honest clients away. A head that does finish is still answered.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use uncertain_serve::{ServeConfig, Service};

/// Reads until EOF and returns what arrived, failing if the server holds
/// the connection open past `within`.
fn read_to_eof(stream: &mut TcpStream, within: Duration) -> Vec<u8> {
    stream
        .set_read_timeout(Some(within))
        .expect("set read timeout");
    let mut got = Vec::new();
    stream
        .read_to_end(&mut got)
        .expect("the server closes the connection in time");
    got
}

#[test]
fn connections_that_never_finish_their_head_are_closed() {
    let service = Service::start(
        ServeConfig::builder()
            .shards(1)
            .event_loops(1)
            .bind_addr("127.0.0.1:0")
            .build()
            .expect("valid config"),
    );
    let listener = service.listen().expect("listen");
    let addr = listener.local_addr();
    let start = Instant::now();

    let mut silent = TcpStream::connect(addr).expect("connect silent");
    silent.write_all(b"UN").expect("half a preamble");
    let mut unfinished = TcpStream::connect(addr).expect("connect unfinished");
    unfinished
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: local")
        .expect("partial head");

    // An honest scrape on the same loop is still answered.
    let mut honest = TcpStream::connect(addr).expect("connect honest");
    honest
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: local\r\n\r\n")
        .expect("full head");
    let reply = read_to_eof(&mut honest, Duration::from_secs(5));
    assert!(
        reply.starts_with(b"HTTP/1.1 200"),
        "honest scrape: {:?}",
        String::from_utf8_lossy(&reply[..reply.len().min(64)])
    );

    for (name, stream) in [("silent", &mut silent), ("unfinished", &mut unfinished)] {
        let got = read_to_eof(stream, Duration::from_secs(4));
        assert!(got.is_empty(), "{name} got a response: {got:?}");
    }
    let waited = start.elapsed();
    assert!(
        waited < Duration::from_secs(4),
        "closed after {waited:?}, not about 2 s"
    );

    let deadline = Instant::now() + Duration::from_secs(2);
    while service.metrics().net.connections_open > 0 {
        assert!(
            Instant::now() < deadline,
            "connections_open never fell to 0"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(service.metrics().net.closed >= 3);
}
