//! Accept-path degradation under file-descriptor exhaustion: when
//! `accept` fails with `EMFILE`, the listener must pause (counted in
//! `accept_stalls`), survive, and pick the pending connection up once
//! descriptors free up — instead of spinning or dying.
//!
//! This test lowers `RLIMIT_NOFILE` for the whole process, so it lives
//! alone in its own integration-test binary.

#![cfg(target_os = "linux")]
#![warn(clippy::undocumented_unsafe_blocks)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::FromRawFd;
use std::time::{Duration, Instant};

use uncertain_core::Uncertain;
use uncertain_serve::wire::{self, MAGIC};
use uncertain_serve::{Request, RequestKind, ServeClient, ServeConfig, Service};

const RLIMIT_NOFILE: i32 = 7;
const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;

#[repr(C)]
#[derive(Clone, Copy)]
struct RLimit {
    cur: u64,
    max: u64,
}

#[repr(C)]
struct SockAddrIn {
    family: u16,
    /// Network byte order.
    port: u16,
    /// Network byte order.
    addr: u32,
    zero: [u8; 8],
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
}

/// Restores the saved fd limit on drop, so a failing assertion cannot
/// leave the process crippled for the harness's own teardown.
struct LimitGuard(RLimit);

impl Drop for LimitGuard {
    fn drop(&mut self) {
        // SAFETY: `&self.0` points to a live `RLimit` laid out as
        // `struct rlimit`, which `setrlimit` only reads.
        unsafe { setrlimit(RLIMIT_NOFILE, &self.0) };
    }
}

fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("proc fd dir")
        .count() as u64
}

#[test]
fn fd_exhaustion_pauses_accepting_and_recovers() {
    let service = Service::start(
        ServeConfig::builder()
            .shards(1)
            .seed(2014)
            .event_loops(1)
            .bind_addr("127.0.0.1:0")
            .build()
            .expect("valid config"),
    );
    let listener = service.listen().expect("listen");
    let addr = listener.local_addr();
    let SocketAddr::V4(v4) = addr else {
        panic!("loopback listener is v4");
    };

    // Baseline round-trip: everything the service needs (event loop,
    // wake pipes, shard channels) is already allocated.
    let client = ServeClient::connect(addr).expect("baseline connect");
    client
        .evaluate(1, &Uncertain::bernoulli(0.9).unwrap(), 0.5)
        .expect("baseline evaluate");
    drop(client);

    // The client socket is created *before* the limit drops — connect(2)
    // on an existing fd allocates nothing, while the server's accept(2)
    // must allocate and will hit EMFILE.
    // SAFETY: `socket` takes no pointers; the returned fd is owned here
    // until `from_raw_fd` below hands it to a `TcpStream`.
    let fd = unsafe { socket(AF_INET, SOCK_STREAM, 0) };
    assert!(fd >= 0, "pre-created client socket");

    let mut old = RLimit { cur: 0, max: 0 };
    // SAFETY: `&mut old` points to a live `RLimit` laid out as
    // `struct rlimit`, which `getrlimit` fills in.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut old) }, 0);
    let _guard = LimitGuard(old);
    let lowered = RLimit {
        cur: open_fds(),
        max: old.max,
    };
    assert_eq!(
        // SAFETY: `&lowered` points to a live `struct rlimit`, only read.
        unsafe { setrlimit(RLIMIT_NOFILE, &lowered) },
        0,
        "lower fd limit to current usage"
    );

    let sockaddr = SockAddrIn {
        family: AF_INET as u16,
        port: v4.port().to_be(),
        addr: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    assert_eq!(
        // SAFETY: `fd` is the open socket created above, and the pointer
        // and length describe exactly `sockaddr`, a live `repr(C)`
        // `struct sockaddr_in` that `connect` only reads.
        unsafe { connect(fd, &sockaddr, std::mem::size_of::<SockAddrIn>() as u32) },
        0,
        "handshake completes in the backlog even though accept cannot run"
    );

    // The listener's readiness fires, accept fails with EMFILE, and the
    // loop must record the stall and pause rather than spin or die.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if service.metrics().net.accept_stalls > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "accept stall was never recorded");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Free descriptors again; within one backoff the loop resumes and
    // the parked connection gets accepted and served.
    // SAFETY: `&old` points to a live `struct rlimit`, only read.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &old) }, 0);

    // SAFETY: `fd` is an open, connected socket that nothing else owns or
    // closes, so the stream becomes its sole owner.
    let mut stream = unsafe { TcpStream::from_raw_fd(fd) };
    stream.write_all(&MAGIC).expect("preamble");
    let payload = wire::encode_request(
        11,
        &Request {
            tenant: 2,
            kind: RequestKind::Evaluate {
                cond: Uncertain::bernoulli(0.9).unwrap(),
                threshold: 0.5,
            },
            timeout: None,
            strategy: None,
            trace: None,
        },
    )
    .expect("encode");
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .expect("frame length");
    stream.write_all(&payload).expect("frame payload");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut len = [0u8; 4];
    stream
        .read_exact(&mut len)
        .expect("parked connection served");
    let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut reply).expect("reply payload");
    let (id, _trace, result) = wire::decode_response(&reply).expect("decode reply");
    assert_eq!(id, 11);
    result.expect("decision over the recovered connection");
    drop(stream);

    // Fresh connections work again too.
    let client = ServeClient::connect(addr).expect("post-recovery connect");
    client
        .evaluate(3, &Uncertain::bernoulli(0.9).unwrap(), 0.5)
        .expect("post-recovery evaluate");
    drop(client);
    drop(listener);

    let metrics = service.shutdown();
    assert!(metrics.net.accept_stalls >= 1);
}
