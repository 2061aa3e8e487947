//! The TCP edge: [`Listener`] (server side) and [`TcpTransport`] (client
//! side) speaking the frame protocol of [`crate::wire`].
//!
//! # Server
//!
//! [`Service::listen`](crate::Service::listen) binds the config's
//! `bind_addr` nonblocking and drives every connection from a fixed pool
//! of `config.event_loops` event-loop threads using OS readiness polling
//! ([`crate::poll`]: epoll on Linux, `poll(2)` elsewhere). Loop 0 owns
//! the listening socket and hands accepted connections round-robin across
//! the pool, so 1024 open connections cost the same number of threads as
//! 8 — the property that keeps throughput flat under connection fan-in
//! (the old design spawned a reader/writer thread pair per connection and
//! collapsed under scheduler pressure at high counts).
//!
//! Each connection is a small state machine owned by exactly one loop:
//!
//! * **Preamble** — the first 4 bytes sniff the protocol: the `UNC1`
//!   magic starts the binary request loop; `GET ` hands the socket to a
//!   short-lived blocking thread that serves one HTTP request (`/health`,
//!   `/traces`, `/traces/<id>`, else the Prometheus scrape) and closes.
//!   One port, both protocols — no second listener to firewall.
//! * **Binary** — reads are drained to `WouldBlock` into an incremental
//!   [`FrameDecoder`](crate::wire::FrameDecoder) that tolerates arbitrary
//!   partial reads; each complete frame is admitted through the same
//!   [`ChannelTransport`] the in-process client uses, so queue
//!   backpressure surfaces as [`ServeError::QueueFull`], deadlines are
//!   anchored at admission, and per-tenant FIFO plus bitwise determinism
//!   are inherited rather than re-implemented. A completion hook attached
//!   at admission pokes the owning loop's wakeup pipe when the shard
//!   sends the reply, so reply readiness costs O(completions), never a
//!   per-connection blocked thread.
//! * **Replies** flow back in **submission order** per connection (front
//!   of the in-flight queue only), keeping the protocol state small at
//!   the cost of head-of-line blocking on one connection; clients that
//!   care use a pooled transport, where tenants hash across sockets. All
//!   replies ready at once are encoded into one buffer and flushed with a
//!   single write — writev-style coalescing for pipelined workloads.
//!
//! When `accept` fails with `EMFILE`/`ENFILE` the loop pauses accepting
//! with a short backoff (counted in `accept_stalls`) instead of dying;
//! pending connections are picked up when fds free up.
//!
//! Decoded query graphs are cached keyed by their raw bytes: a repeated
//! query hits the cache and reuses the *same* rebuilt `Uncertain` nodes,
//! so the shards' per-tenant plan caches stay hot across requests exactly
//! as they do in-process (a fresh decode per frame would mint fresh node
//! identities and recompile every plan every time).
//!
//! # Shutdown
//!
//! [`Listener::shutdown`] (or drop) sets the stop flag and pokes every
//! loop's wakeup pipe. Each loop closes the listener, stops reading from
//! its connections, keeps pumping until every already-admitted reply has
//! been flushed, then closes the sockets and exits. In-flight work is
//! drained, not dropped — the same contract
//! [`Service::shutdown`](crate::Service::shutdown) gives the in-process
//! path.

use std::collections::{HashMap, VecDeque};
use std::io::{BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uncertain_core::{ServeError, Uncertain, WireError, WireGraph};

use crate::metrics::NetStats;
use crate::mix64;
use crate::poll::{Interest, PollEvent, Poller};
use crate::service::Inner;
use crate::transport::{
    ChannelTransport, CompletionHook, Reply, ReplyReceiver, Request, RequestKind, Transport,
};
use crate::wire::{self, FrameDecoder, WireBody, MAGIC, MAX_FRAME};

fn io_err(context: &str, e: std::io::Error) -> ServeError {
    ServeError::Transport(format!("{context}: {e}"))
}

// ---------------------------------------------------------------------------
// Server-side decoded-graph cache
// ---------------------------------------------------------------------------

/// Decoded queries keyed by their raw graph bytes, shared by every
/// connection of one listener. Bounded: at capacity each insert evicts
/// the oldest entry (correctness is unaffected — a re-decoded graph
/// samples bitwise identically; only plan-cache warmth resets).
const GRAPH_CACHE_CAP: usize = 4096;

enum CachedQuery {
    Bool(Uncertain<bool>),
    F64(Uncertain<f64>),
}

/// All of the cache's allocator work — decoding a graph and dropping an
/// evicted one — happens under its lock. Letting the two event loops do
/// it concurrently was measured on `tcp_gps_stream` (2-CPU host, 50 s
/// runs): peak RSS rose by 4–5 MiB with drops outside the lock and by
/// 7–10 MiB with decodes outside it, as the loops' allocator arenas
/// fragmented, and queries/s did not move resolvably. Evicting one graph
/// holds the lock for microseconds.
#[derive(Default)]
struct GraphCache {
    inner: Mutex<GraphCacheInner>,
}

#[derive(Default)]
struct GraphCacheInner {
    map: HashMap<Arc<[u8]>, CachedQuery>,
    /// The map's keys in insertion order, oldest first.
    order: VecDeque<Arc<[u8]>>,
}

impl GraphCacheInner {
    /// Caches `query` under `bytes`, evicting the oldest entry at
    /// capacity.
    fn insert(&mut self, bytes: &[u8], query: CachedQuery) {
        if self.map.len() >= GRAPH_CACHE_CAP {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
        let key: Arc<[u8]> = bytes.into();
        self.order.push_back(Arc::clone(&key));
        self.map.insert(key, query);
    }
}

impl GraphCache {
    fn query_bool(&self, bytes: &[u8]) -> Result<Uncertain<bool>, ServeError> {
        let mut cache = self.inner.lock().expect("graph cache lock");
        if let Some(CachedQuery::Bool(q)) = cache.map.get(bytes) {
            return Ok(q.clone());
        }
        let q = WireGraph::from_bytes(bytes)?.decode_bool()?;
        cache.insert(bytes, CachedQuery::Bool(q.clone()));
        Ok(q)
    }

    fn query_f64(&self, bytes: &[u8]) -> Result<Uncertain<f64>, ServeError> {
        let mut cache = self.inner.lock().expect("graph cache lock");
        if let Some(CachedQuery::F64(q)) = cache.map.get(bytes) {
            return Ok(q.clone());
        }
        let q = WireGraph::from_bytes(bytes)?.decode_f64()?;
        cache.insert(bytes, CachedQuery::F64(q.clone()));
        Ok(q)
    }
}

// ---------------------------------------------------------------------------
// Event-loop plumbing
// ---------------------------------------------------------------------------

/// Poller token of the listening socket (loop 0 only).
const LISTENER_TOKEN: u64 = 0;
/// Poller token of each loop's wakeup pipe read half.
const WAKE_TOKEN: u64 = 1;
/// First token handed to a connection.
const CONN_BASE: u64 = 2;

/// How long the accept loop backs off after fd exhaustion before retrying.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// The cross-thread face of one event loop: shard workers (completion
/// hooks) and the accepting loop talk to it through this, never touching
/// loop-owned state. Every mutation is followed by a byte down the wakeup
/// pipe so the loop notices without polling its mailboxes.
struct LoopShared {
    /// Write half of the wakeup pipe; nonblocking, so a full pipe (wakeup
    /// already pending) is a no-op rather than a stall.
    wake_tx: UnixStream,
    /// Tokens of connections with a newly completed reply.
    ready: Mutex<Vec<u64>>,
    /// Connections accepted by loop 0 and assigned to this loop.
    incoming: Mutex<Vec<TcpStream>>,
}

impl LoopShared {
    fn notify(&self, token: u64) {
        self.ready.lock().expect("ready list lock").push(token);
        self.poke();
    }

    fn push_conn(&self, stream: TcpStream) {
        self.incoming
            .lock()
            .expect("incoming list lock")
            .push(stream);
        self.poke();
    }

    fn poke(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// The completion hook one connection attaches to every admission: the
/// shard worker fires it right after sending the reply, which queues the
/// connection for a reply pump on its owning loop.
struct ConnHook {
    shared: Arc<LoopShared>,
    token: u64,
}

impl CompletionHook for ConnHook {
    fn on_reply(&self) {
        self.shared.notify(self.token);
    }
}

/// One in-flight request on a connection, in submission order. Replies
/// are drained only from the front, which is what gives the remote client
/// in-order replies without a reordering buffer.
enum Entry {
    /// Admitted to a shard; the reply will arrive on the receiver.
    Pending(u64, ReplyReceiver),
    /// Failed before admission (decode error, QueueFull, Shutdown) — the
    /// error reply is already materialized.
    Ready(u64, Reply),
}

enum ConnState {
    /// Collecting the 4-byte protocol preamble.
    Preamble(Vec<u8>),
    /// Binary frame protocol.
    Binary,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    decoder: FrameDecoder,
    inflight: VecDeque<Entry>,
    /// Encoded-but-unflushed reply bytes; `outpos` is the flushed prefix.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Reply frames encoded since the last flush attempt, for the
    /// writev-batching counter.
    pending_frames: usize,
    /// Read side finished (EOF, protocol error, or listener drain): no
    /// more frames in; flush what's owed, then close.
    closing: bool,
    /// Socket is unusable (I/O error or hard hangup): drop immediately.
    dead: bool,
    /// `GET ` preamble seen — hand off to a blocking HTTP thread with
    /// these already-read bytes.
    handoff: Option<Vec<u8>>,
    /// What the poller is currently watching this fd for.
    interest: Interest,
    hook: Arc<ConnHook>,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.outpos == self.outbuf.len()
    }

    fn desired_interest(&self) -> Interest {
        match (self.closing, self.flushed()) {
            (false, true) => Interest::READ,
            (false, false) => Interest::READ_WRITE,
            (true, false) => Interest::WRITE,
            // Draining: nothing socket-side to wait for — the next event
            // is a completion hook poke (or a hangup, always reported).
            (true, true) => Interest::NONE,
        }
    }
}

struct EventLoop {
    poller: Poller,
    wake_rx: UnixStream,
    shared: Arc<LoopShared>,
    /// Every loop's shared face, for round-robin handoff (loop 0).
    all: Arc<Vec<Arc<LoopShared>>>,
    /// The listening socket; only loop 0 has one, dropped at drain.
    listener: Option<TcpListener>,
    /// Backoff deadline while accepting is paused on fd exhaustion.
    accept_paused_until: Option<Instant>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    rr: usize,
    stop: Arc<AtomicBool>,
    draining: bool,
    transport: ChannelTransport,
    inner: Arc<Inner>,
    cache: Arc<GraphCache>,
    net: Arc<NetStats>,
    /// Blocking HTTP handler threads, joined on loop exit (finished ones
    /// are reaped every tick).
    http_handles: Vec<JoinHandle<()>>,
    read_buf: Vec<u8>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            let timeout = if self.draining {
                // Safety heartbeat: completion pokes are the real signal,
                // the tick just bounds the damage if one is ever lost.
                Some(Duration::from_millis(25))
            } else {
                self.accept_paused_until
                    .map(|until| until.saturating_duration_since(Instant::now()))
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                // A broken poller would otherwise spin; back off hard.
                std::thread::sleep(Duration::from_millis(1));
            }
            if self.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if let Some(until) = self.accept_paused_until {
                if !self.draining && Instant::now() >= until {
                    self.resume_accept();
                }
            }

            let mut accept_ready = false;
            let mut woke = false;
            let mut to_read: Vec<u64> = Vec::new();
            let mut to_write: Vec<u64> = Vec::new();
            let mut to_hup: Vec<u64> = Vec::new();
            for ev in &events {
                match ev.token {
                    LISTENER_TOKEN => accept_ready = true,
                    WAKE_TOKEN => woke = true,
                    token => {
                        if ev.readable {
                            to_read.push(token);
                        }
                        if ev.writable {
                            to_write.push(token);
                        }
                        if ev.hup {
                            to_hup.push(token);
                        }
                    }
                }
            }
            if woke {
                self.drain_wake_pipe();
            }
            // Snapshot the mailboxes *after* draining the pipe: anything
            // pushed later leaves a byte behind and wakes the next tick.
            let notified = std::mem::take(&mut *self.shared.ready.lock().expect("ready list lock"));
            let incoming =
                std::mem::take(&mut *self.shared.incoming.lock().expect("incoming list lock"));

            if !events.is_empty() || !notified.is_empty() || !incoming.is_empty() {
                self.net.event_loop_wakeups.inc();
            }

            if accept_ready {
                self.accept_burst();
            }
            for stream in incoming {
                self.register_conn(stream);
            }
            for token in to_read {
                self.on_conn_event(token, true);
            }
            for token in notified {
                self.on_conn_event(token, false);
            }
            for token in to_write {
                self.on_conn_event(token, false);
            }
            // A hard hangup means the peer is gone both ways: a draining
            // connection can never deliver its remaining replies, so drop
            // it now instead of spinning on the always-reported condition.
            for token in to_hup {
                if self.conns.get(&token).is_some_and(|c| c.closing || c.dead) {
                    if let Some(conn) = self.conns.remove(&token) {
                        self.close_conn(conn);
                    }
                }
            }

            self.reap_http_handles();
            if self.draining && self.conns.is_empty() {
                break;
            }
        }
        for handle in self.http_handles.drain(..) {
            let _ = handle.join();
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    // -- accept path --------------------------------------------------------

    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.net.accepted.inc();
                    self.net.connections_open.inc();
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() || self.draining {
                        self.net.connections_open.dec();
                        self.net.closed.inc();
                        continue;
                    }
                    let i = self.rr % self.all.len();
                    self.rr += 1;
                    self.all[i].push_conn(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if is_fd_exhaustion(&e) => {
                    // Out of fds: pause accepting instead of dying. The
                    // backlog holds pending connections; accepting
                    // resumes after the backoff, when closes have
                    // hopefully freed descriptors.
                    self.net.accept_stalls.inc();
                    self.pause_accept();
                    return;
                }
                // Transient per-connection failures (ECONNABORTED and
                // kin): readiness re-fires if more are pending.
                Err(_) => return,
            }
        }
    }

    fn pause_accept(&mut self) {
        if let Some(listener) = &self.listener {
            let _ = self.poller.remove(listener.as_raw_fd());
        }
        self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
    }

    fn resume_accept(&mut self) {
        self.accept_paused_until = None;
        if let Some(listener) = &self.listener {
            let _ = self
                .poller
                .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ);
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if self.draining {
            self.net.connections_open.dec();
            self.net.closed.inc();
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            self.net.connections_open.dec();
            self.net.closed.inc();
            return;
        }
        self.net.connections_registered.inc();
        let hook = Arc::new(ConnHook {
            shared: Arc::clone(&self.shared),
            token,
        });
        self.conns.insert(
            token,
            Conn {
                stream,
                state: ConnState::Preamble(Vec::with_capacity(4)),
                decoder: FrameDecoder::new(),
                inflight: VecDeque::new(),
                outbuf: Vec::new(),
                outpos: 0,
                pending_frames: 0,
                closing: false,
                dead: false,
                handoff: None,
                interest: Interest::READ,
                hook,
            },
        );
        // Level-triggered polling reports any bytes that raced ahead of
        // the registration on the next wait — no explicit kick needed.
    }

    // -- connection events --------------------------------------------------

    /// Runs one connection through read → pump → flush and re-files it
    /// (or closes / hands it off). Taking the connection out of the map
    /// keeps the borrow checker out of the way of `&mut self` helpers.
    fn on_conn_event(&mut self, token: u64, readable: bool) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if readable && !conn.closing && !conn.dead {
            self.conn_read(&mut conn);
        }
        self.pump(&mut conn);
        if !conn.dead {
            self.flush(&mut conn);
        }

        if let Some(leftover) = conn.handoff.take() {
            self.http_handoff(conn, leftover);
            return;
        }
        if conn.dead || (conn.closing && conn.inflight.is_empty() && conn.flushed()) {
            self.close_conn(conn);
            return;
        }
        let desired = conn.desired_interest();
        if desired != conn.interest {
            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, desired);
            conn.interest = desired;
        }
        self.conns.insert(token, conn);
    }

    fn close_conn(&mut self, conn: Conn) {
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        self.net.connections_open.dec();
        self.net.closed.inc();
        // Dropping the stream closes the fd; dropping pending entries
        // drops their receivers — a shard reply to one simply vanishes,
        // same as the old per-connection writer dying mid-drain.
    }

    fn http_handoff(&mut self, conn: Conn, leftover: Vec<u8>) {
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        let stream = conn.stream;
        let _ = stream.set_nonblocking(false);
        // Counted before the handler runs so the scrape body it renders
        // already includes this scrape.
        self.net.http_scrapes.inc();
        let inner = Arc::clone(&self.inner);
        let net = Arc::clone(&self.net);
        self.http_handles.push(std::thread::spawn(move || {
            serve_scrape(stream, leftover, &inner);
            net.connections_open.dec();
            net.closed.inc();
        }));
    }

    fn reap_http_handles(&mut self) {
        let mut i = 0;
        while i < self.http_handles.len() {
            if self.http_handles[i].is_finished() {
                let _ = self.http_handles.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
    }

    /// Drains the socket to `WouldBlock`, feeding the preamble sniffer
    /// and then the incremental frame decoder.
    fn conn_read(&mut self, conn: &mut Conn) {
        loop {
            let n = match (&conn.stream).read(&mut self.read_buf) {
                Ok(0) => {
                    // EOF. Mid-frame (or mid-preamble with bytes already
                    // consumed into a frame) is a protocol error; at a
                    // frame boundary it is a clean half-close.
                    conn.closing = true;
                    if matches!(conn.state, ConnState::Binary) && conn.decoder.mid_frame() {
                        self.net.wire_errors.inc();
                    }
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if matches!(conn.state, ConnState::Binary) && conn.decoder.mid_frame() {
                        self.net.partial_reads.inc();
                    }
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.net.wire_errors.inc();
                    conn.dead = true;
                    return;
                }
            };
            let mut chunk = &self.read_buf[..n];
            if let ConnState::Preamble(pre) = &mut conn.state {
                let need = 4 - pre.len();
                let take = need.min(chunk.len());
                pre.extend_from_slice(&chunk[..take]);
                chunk = &chunk[take..];
                if pre.len() < 4 {
                    continue;
                }
                if pre[..4] == MAGIC {
                    conn.state = ConnState::Binary;
                } else if &pre[..4] == b"GET " {
                    conn.handoff = Some(chunk.to_vec());
                    return;
                } else {
                    self.net.wire_errors.inc();
                    conn.dead = true;
                    return;
                }
            }
            conn.decoder.push(chunk);
            self.drain_frames(conn);
            if conn.closing || conn.dead {
                return;
            }
        }
    }

    /// Admits every complete frame buffered in the connection's decoder.
    fn drain_frames(&mut self, conn: &mut Conn) {
        loop {
            let payload = match conn.decoder.next_frame() {
                Ok(Some(payload)) => payload,
                Ok(None) => return,
                Err(_) => {
                    // An oversized length prefix leaves the stream
                    // unsynchronized: stop reading, flush what is owed,
                    // close.
                    self.net.wire_errors.inc();
                    conn.closing = true;
                    return;
                }
            };
            self.net.frames_in.inc();
            if payload.len() < 8 {
                // No correlation id to reply to.
                self.net.wire_errors.inc();
                conn.closing = true;
                return;
            }
            let id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            let hook: Arc<dyn CompletionHook> = conn.hook.clone();
            match decode_and_submit(&payload[8..], &self.transport, &self.cache, Some(hook)) {
                Ok(rx) => conn.inflight.push_back(Entry::Pending(id, rx)),
                Err(e) => {
                    if matches!(e, ServeError::Wire(_)) {
                        self.net.wire_errors.inc();
                    }
                    conn.inflight
                        .push_back(Entry::Ready(id, Reply::bare(Err(e))));
                }
            }
        }
    }

    /// Encodes every reply that is ready *at the front* of the in-flight
    /// queue into the connection's write buffer. Stopping at the first
    /// still-pending entry is what preserves submission-order replies.
    fn pump(&mut self, conn: &mut Conn) {
        loop {
            let Some(front) = conn.inflight.front_mut() else {
                return;
            };
            let (id, reply) = match front {
                Entry::Ready(..) => match conn.inflight.pop_front() {
                    Some(Entry::Ready(id, reply)) => (id, reply),
                    _ => unreachable!("front was Ready"),
                },
                Entry::Pending(id, rx) => match rx.try_recv() {
                    Ok(reply) => {
                        let id = *id;
                        conn.inflight.pop_front();
                        (id, reply)
                    }
                    Err(TryRecvError::Empty) => return,
                    Err(TryRecvError::Disconnected) => {
                        let id = *id;
                        conn.inflight.pop_front();
                        (
                            id,
                            Reply::bare(Err(ServeError::Transport("shard worker exited".into()))),
                        )
                    }
                },
            };
            let payload = wire::encode_response(id, &reply.result, reply.trace_id);
            // Counted before the flush: once the peer can observe the
            // reply, a metrics snapshot must already include it.
            self.net.frames_out.inc();
            conn.outbuf
                .extend_from_slice(&(payload.len() as u32).to_le_bytes());
            conn.outbuf.extend_from_slice(&payload);
            conn.pending_frames += 1;
        }
    }

    /// Writes the buffered replies out, coalescing every frame encoded
    /// since the last flush into as few syscalls as the socket allows.
    fn flush(&mut self, conn: &mut Conn) {
        if conn.flushed() {
            conn.pending_frames = 0;
            return;
        }
        if conn.pending_frames >= 2 {
            self.net.writev_batches.inc();
        }
        conn.pending_frames = 0;
        while conn.outpos < conn.outbuf.len() {
            match (&conn.stream).write(&conn.outbuf[conn.outpos..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => conn.outpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.flushed() {
            conn.outbuf.clear();
            conn.outpos = 0;
        } else if conn.outpos >= 64 * 1024 {
            conn.outbuf.drain(..conn.outpos);
            conn.outpos = 0;
        }
    }

    // -- drain --------------------------------------------------------------

    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            if self.accept_paused_until.is_none() {
                let _ = self.poller.remove(listener.as_raw_fd());
            }
            self.accept_paused_until = None;
        }
        // Stop reading everywhere; idle connections close immediately,
        // the rest pump their remaining replies out first.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            conn.closing = true;
            self.pump(&mut conn);
            if !conn.dead {
                self.flush(&mut conn);
            }
            if conn.dead || (conn.inflight.is_empty() && conn.flushed()) {
                self.close_conn(conn);
                continue;
            }
            let desired = conn.desired_interest();
            if desired != conn.interest {
                let _ = self.poller.modify(conn.stream.as_raw_fd(), token, desired);
                conn.interest = desired;
            }
            self.conns.insert(token, conn);
        }
    }
}

fn is_fd_exhaustion(e: &std::io::Error) -> bool {
    // EMFILE (per-process fd limit) = 24, ENFILE (system table) = 23 on
    // every unix this builds for.
    matches!(e.raw_os_error(), Some(24) | Some(23))
}

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

/// A service's open TCP port. Returned by
/// [`Service::listen`](crate::Service::listen); dropping it (or calling
/// [`Listener::shutdown`]) closes the network edge while leaving the
/// service itself running.
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    loops: Vec<JoinHandle<()>>,
    shared: Vec<Arc<LoopShared>>,
}

impl Listener {
    pub(crate) fn bind(inner: Arc<Inner>) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(inner.config.bind_addr.as_str())
            .map_err(|e| io_err("bind failed", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| io_err("nonblocking listener", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| io_err("no local addr", e))?;
        let stop = Arc::new(AtomicBool::new(false));
        let cache = Arc::new(GraphCache::default());
        let n_loops = inner.config.event_loops.max(1);

        let mut shared = Vec::with_capacity(n_loops);
        let mut wake_halves = Vec::with_capacity(n_loops);
        for _ in 0..n_loops {
            let (wake_tx, wake_rx) = UnixStream::pair().map_err(|e| io_err("wakeup pipe", e))?;
            wake_tx
                .set_nonblocking(true)
                .map_err(|e| io_err("wakeup pipe", e))?;
            wake_rx
                .set_nonblocking(true)
                .map_err(|e| io_err("wakeup pipe", e))?;
            shared.push(Arc::new(LoopShared {
                wake_tx,
                ready: Mutex::new(Vec::new()),
                incoming: Mutex::new(Vec::new()),
            }));
            wake_halves.push(wake_rx);
        }
        let all = Arc::new(shared.clone());

        let mut listener_slot = Some(listener);
        let mut loops = Vec::with_capacity(n_loops);
        for (index, wake_rx) in wake_halves.into_iter().enumerate() {
            let mut poller = Poller::new().map_err(|e| io_err("poller", e))?;
            poller
                .add(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)
                .map_err(|e| io_err("poller", e))?;
            let listener = if index == 0 {
                listener_slot.take()
            } else {
                None
            };
            if let Some(l) = &listener {
                poller
                    .add(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                    .map_err(|e| io_err("poller", e))?;
            }
            let event_loop = EventLoop {
                poller,
                wake_rx,
                shared: Arc::clone(&shared[index]),
                all: Arc::clone(&all),
                listener,
                accept_paused_until: None,
                conns: HashMap::new(),
                next_token: CONN_BASE,
                rr: 0,
                stop: Arc::clone(&stop),
                draining: false,
                transport: ChannelTransport::new(Arc::clone(&inner)),
                inner: Arc::clone(&inner),
                cache: Arc::clone(&cache),
                net: Arc::clone(&inner.net),
                http_handles: Vec::new(),
                read_buf: vec![0u8; 64 * 1024],
            };
            loops.push(std::thread::spawn(move || event_loop.run()));
        }
        Ok(Self {
            addr,
            stop,
            loops,
            shared,
        })
    }

    /// The address actually bound — the way to learn the port after
    /// binding `"127.0.0.1:0"`.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains in-flight replies, and joins the event
    /// loops. Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.stop_impl();
    }

    fn stop_impl(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        for s in &self.shared {
            s.poke();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

// ---------------------------------------------------------------------------
// HTTP side of the port
// ---------------------------------------------------------------------------

/// How many retained traces one `GET /traces` response returns, newest
/// last. The flight recorder's default ring is the same size, so this is
/// "everything retained" under the default config.
const TRACES_LIMIT: usize = 256;

/// Serves one HTTP request and closes. The `GET ` preamble has already
/// been consumed (any bytes read past it arrive as `leftover`), so the
/// head starts with the path, which routes:
///
/// * `/health` — liveness JSON (uptime, request totals, trace buffer).
/// * `/traces` — the flight recorder's retained traces as JSON-lines,
///   newest last.
/// * `/traces/<id>` — one retained trace by decimal id, or 404.
/// * anything else (canonically `/metrics`) — the Prometheus scrape body.
fn serve_scrape(mut stream: TcpStream, leftover: Vec<u8>, inner: &Inner) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    fn head_complete(seen: &[u8]) -> bool {
        seen.windows(4).any(|w| w == b"\r\n\r\n")
    }
    let mut seen = leftover;
    let mut byte = [0u8; 1];
    while seen.len() < 8192 && !head_complete(&seen) {
        match stream.read(&mut byte) {
            Ok(1) => seen.push(byte[0]),
            _ => break,
        }
    }
    let head = String::from_utf8_lossy(&seen);
    let path = head.split_whitespace().next().unwrap_or("");
    let (status, content_type, body) = match path {
        "/health" => {
            let m = inner.metrics();
            let accepting = inner.accepting.load(Ordering::SeqCst);
            (
                "200 OK",
                "application/json",
                format!(
                    "{{\"status\":\"{}\",\"uptime_seconds\":{:.3},\"shards\":{},\
                     \"requests\":{},\"timeouts\":{},\"rejected\":{},\
                     \"traces_buffered\":{}}}\n",
                    if accepting { "ok" } else { "draining" },
                    m.elapsed.as_secs_f64(),
                    m.shards.len(),
                    m.requests(),
                    m.timeouts(),
                    m.rejected(),
                    m.flight.buffered,
                ),
            )
        }
        "/traces" => {
            let mut body = String::new();
            for t in inner.flight.recent(TRACES_LIMIT) {
                body.push_str(&uncertain_obs::request_trace_to_json(&t));
                body.push('\n');
            }
            ("200 OK", "application/x-ndjson", body)
        }
        _ if path.starts_with("/traces/") => {
            match path["/traces/".len()..]
                .parse::<u64>()
                .ok()
                .and_then(|id| inner.flight.get(id))
            {
                Some(t) => {
                    let mut body = uncertain_obs::request_trace_to_json(&t);
                    body.push('\n');
                    ("200 OK", "application/json", body)
                }
                None => (
                    "404 Not Found",
                    "application/json",
                    "{\"error\":\"trace not retained\"}\n".to_string(),
                ),
            }
        }
        _ => (
            "200 OK",
            "text/plain; version=0.0.4",
            inner.metrics().render_prometheus(),
        ),
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Decodes one request body and admits it through the shard queues,
/// attaching the connection's completion hook so the owning event loop is
/// poked when the reply lands. Admission failures (`QueueFull`,
/// `Shutdown`) and decode failures come back as the error the remote
/// caller should see.
fn decode_and_submit(
    body: &[u8],
    transport: &ChannelTransport,
    cache: &GraphCache,
    hook: Option<Arc<dyn CompletionHook>>,
) -> Result<ReplyReceiver, ServeError> {
    let request = wire::decode_request_body(body)?;
    let kind = match request.body {
        WireBody::Evaluate { threshold, graph } => RequestKind::Evaluate {
            cond: cache.query_bool(&graph)?,
            threshold,
        },
        WireBody::Pr { threshold, graph } => RequestKind::Pr {
            cond: cache.query_bool(&graph)?,
            threshold,
        },
        WireBody::E { n, graph } => RequestKind::E {
            expr: cache.query_f64(&graph)?,
            n: usize::try_from(n)
                .map_err(|_| WireError::Malformed(format!("sample count {n} overflows")))?,
        },
        WireBody::Stats { n, graph } => RequestKind::Stats {
            expr: cache.query_f64(&graph)?,
            n: usize::try_from(n)
                .map_err(|_| WireError::Malformed(format!("sample count {n} overflows")))?,
        },
    };
    // The deadline crossed relative; anchor it here, at admission — the
    // queue wait counts against it exactly as it does in-process.
    let timeout = (request.deadline_ms > 0).then(|| Duration::from_millis(request.deadline_ms));
    transport.submit_hooked(
        Request {
            tenant: request.tenant,
            kind,
            timeout,
            strategy: request.strategy,
            trace: request.trace,
        },
        hook,
    )
}

// ---------------------------------------------------------------------------
// Client-side TCP transport
// ---------------------------------------------------------------------------

/// In-flight requests awaiting replies on one connection, keyed by
/// correlation id.
type PendingMap = Arc<Mutex<HashMap<u64, SyncSender<Reply>>>>;

struct ClientConn {
    /// Kept for the half-close on drop; all writes go through `writer`.
    stream: TcpStream,
    writer: Mutex<BufWriter<TcpStream>>,
    pending: PendingMap,
    alive: Arc<AtomicBool>,
    reader: Mutex<Option<JoinHandle<()>>>,
}

/// A [`Transport`] over one or more pipelined TCP connections to a
/// [`Service::listen`](crate::Service::listen) port.
///
/// Requests are written as frames tagged with a correlation id; a demux
/// thread per connection routes response frames back to their waiting
/// [`Pending`](crate::Pending) handles, so any number of requests can be
/// in flight at once. Tenants are hashed to a fixed connection of the
/// pool: combined with the server's per-connection in-order replies and
/// the shard queues' FIFO, a tenant's requests still execute — and
/// complete — in submission order, while distinct tenants spread across
/// sockets.
///
/// If a connection dies, every request in flight on it fails with
/// [`ServeError::Transport`], and later submits routed to it fail fast
/// the same way; other connections of the pool are unaffected.
pub struct TcpTransport {
    conns: Vec<ClientConn>,
    next_id: AtomicU64,
}

impl TcpTransport {
    /// One connection to `addr` (see [`TcpTransport::connect_pooled`]).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ServeError> {
        Self::connect_pooled(addr, 1)
    }

    /// A pool of `connections` connections to `addr`, each with its own
    /// demux thread; tenants are hashed across the pool.
    pub fn connect_pooled<A: ToSocketAddrs>(
        addr: A,
        connections: usize,
    ) -> Result<Self, ServeError> {
        if connections == 0 {
            return Err(ServeError::Transport(
                "a transport pool needs at least one connection".into(),
            ));
        }
        let conns = (0..connections)
            .map(|_| Self::open(&addr))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            conns,
            next_id: AtomicU64::new(1),
        })
    }

    fn open<A: ToSocketAddrs>(addr: &A) -> Result<ClientConn, ServeError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect failed", e))?;
        let _ = stream.set_nodelay(true);
        let mut writer = BufWriter::new(stream.try_clone().map_err(|e| io_err("clone failed", e))?);
        writer
            .write_all(&MAGIC)
            .and_then(|()| writer.flush())
            .map_err(|e| io_err("preamble write failed", e))?;
        let pending: PendingMap = Arc::new(Mutex::new(HashMap::new()));
        let alive = Arc::new(AtomicBool::new(true));
        let reader = {
            let mut read_stream = stream.try_clone().map_err(|e| io_err("clone failed", e))?;
            let pending = Arc::clone(&pending);
            let alive = Arc::clone(&alive);
            std::thread::spawn(move || {
                while let Ok(Some(payload)) = wire::read_frame(&mut read_stream) {
                    let Ok((id, trace_id, result)) = wire::decode_response(&payload) else {
                        // An undecodable reply means the stream is no
                        // longer trustworthy.
                        break;
                    };
                    if let Some(tx) = pending.lock().expect("pending map lock").remove(&id) {
                        let _ = tx.send(Reply { result, trace_id });
                    }
                }
                alive.store(false, Ordering::SeqCst);
                // Fail everything still waiting on this socket.
                let drained: Vec<_> = pending
                    .lock()
                    .expect("pending map lock")
                    .drain()
                    .map(|(_, tx)| tx)
                    .collect();
                for tx in drained {
                    let _ = tx.send(Reply::bare(Err(ServeError::Transport(
                        "connection closed".into(),
                    ))));
                }
            })
        };
        Ok(ClientConn {
            stream,
            writer: Mutex::new(writer),
            pending,
            alive,
            reader: Mutex::new(Some(reader)),
        })
    }
}

impl Transport for TcpTransport {
    fn submit(&self, request: Request) -> Result<ReplyReceiver, ServeError> {
        let conn = &self.conns[(mix64(request.tenant) % self.conns.len() as u64) as usize];
        if !conn.alive.load(Ordering::SeqCst) {
            return Err(ServeError::Transport("connection closed".into()));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let payload = wire::encode_request(id, &request)?;
        debug_assert!(payload.len() <= MAX_FRAME);
        let (tx, rx) = mpsc::sync_channel(1);
        conn.pending
            .lock()
            .expect("pending map lock")
            .insert(id, tx);
        // The frame write is atomic under the writer lock; registering the
        // pending entry first means a fast reply can never miss its slot.
        let write = {
            let mut w = conn.writer.lock().expect("writer lock");
            wire::write_frame(&mut *w, &payload).and_then(|()| w.flush())
        };
        if let Err(e) = write {
            conn.pending.lock().expect("pending map lock").remove(&id);
            conn.alive.store(false, Ordering::SeqCst);
            let _ = conn.stream.shutdown(Shutdown::Both);
            return Err(io_err("request write failed", e));
        }
        Ok(rx)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        for conn in &self.conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
            if let Some(handle) = conn.reader.lock().expect("reader handle lock").take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(i: usize) -> Vec<u8> {
        let q = Uncertain::normal(i as f64, 1.0).unwrap().gt(0.0);
        WireGraph::from_bool(&q).unwrap().to_bytes()
    }

    #[test]
    fn graph_cache_evicts_the_oldest_entry_at_capacity() {
        let cache = GraphCache::default();
        let k = 3;
        let graphs: Vec<Vec<u8>> = (0..GRAPH_CACHE_CAP + k).map(graph).collect();
        for bytes in &graphs {
            cache.query_bool(bytes).unwrap();
        }
        {
            let inner = cache.inner.lock().unwrap();
            assert_eq!(inner.map.len(), GRAPH_CACHE_CAP);
            assert_eq!(inner.order.len(), GRAPH_CACHE_CAP);
            for (i, bytes) in graphs.iter().enumerate() {
                assert_eq!(inner.map.contains_key(&bytes[..]), i >= k, "graph {i}");
            }
        }
        // A hit hands back the cached graph itself (one root `NodeId`);
        // the other value type of the same bytes is a decode error.
        let newest = graphs.last().unwrap();
        let id = cache.query_bool(newest).unwrap().id();
        assert_eq!(cache.query_bool(newest).unwrap().id(), id);
        assert!(cache.query_f64(newest).is_err());
    }
}
