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
//! Each connection is a small state machine owned by exactly one loop,
//! the only thread that reads or writes its bytes:
//!
//! * **Preamble** — the first 4 bytes sniff the protocol: the `UNC1`
//!   magic starts the binary request loop, `GET ` an HTTP request. One
//!   port, both protocols — no second listener to firewall. A connection
//!   that has not sent its preamble, or after `GET ` its whole head,
//!   within 2 s of accept is closed without a response.
//! * **Binary** — reads are drained to `WouldBlock` into an incremental
//!   [`FrameDecoder`] that tolerates arbitrary partial reads; each
//!   complete frame is admitted through the same
//!   [`ChannelTransport`] admission the in-process client uses, so queue
//!   backpressure surfaces as [`ServeError::QueueFull`], deadlines are
//!   anchored at admission, and per-tenant FIFO plus bitwise determinism
//!   are inherited rather than re-implemented.
//! * **Replies** — the shard posts each reply straight into the mailbox
//!   of the connection's loop, writing a wake byte only if the mailbox
//!   was empty. Replies leave as they complete (clients match them by
//!   correlation id), so a fast request never waits behind another
//!   tenant's slow one; a tenant's replies keep its submission order (one
//!   shard FIFO, one mailbox), and refusals reply at once. All replies
//!   ready at once are flushed with a single write.
//! * **HTTP** — the loop collects the head (to `\r\n\r\n`, 8 KiB or
//!   EOF), answers from its path (`/health`, `/traces`, `/traces/<id>`,
//!   else the Prometheus scrape) and closes once flushed: a client that
//!   never finishes its head holds a socket, never a thread.
//!
//! When `accept` fails with `EMFILE`/`ENFILE` the loop pauses accepting
//! with a short backoff (counted in `accept_stalls`) instead of dying;
//! pending connections are picked up when fds free up.
//!
//! Decoded query graphs are cached keyed by their raw bytes: a repeated
//! query hits the cache and reuses the *same* rebuilt `Uncertain` nodes,
//! so each shard's plan cache stays hot across requests exactly as it
//! does in-process (a fresh decode per frame would mint fresh node
//! identities and recompile every plan every time).
//!
//! # Shutdown
//!
//! [`Listener::shutdown`] (or drop) sets the stop flag and pokes every
//! loop's wakeup pipe. Each loop closes the listener, stops reading from
//! its connections, keeps delivering until every already-admitted reply
//! has been flushed, then closes the sockets and exits. In-flight work is
//! drained, not dropped — the same contract
//! [`Service::shutdown`](crate::Service::shutdown) gives the in-process
//! path.

use std::collections::{HashMap, VecDeque};
use std::io::{BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uncertain_core::{ServeError, Uncertain, WireError, WireGraph};

use crate::metrics::NetStats;
use crate::mix64;
use crate::poll::{Interest, PollEvent, Poller};
use crate::service::Inner;
use crate::transport::{
    ChannelTransport, Reply, ReplyReceiver, ReplySlot, Request, RequestKind, Transport,
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
/// samples bitwise identically; only the shard's plan cache misses it).
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

/// The longest HTTP request head the loop collects; a longer one is
/// answered from its first 8 KiB.
const HTTP_HEAD_MAX: usize = 8192;

/// How long a connection may take to say what it is: to send its 4-byte
/// preamble and, after `GET `, its whole HTTP head. One still unsure after
/// this is closed without a response, so silent sockets cannot pile up
/// until the fd limit turns honest clients away. Binary connections past
/// their preamble have no deadline: pooled clients idle legitimately.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// The cross-thread face of one event loop: shard workers (replies) and
/// the accepting loop (new connections) post into its mailbox, never
/// touching loop-owned state.
struct LoopShared {
    /// Write half of the wakeup pipe; nonblocking, so a full pipe (wakeup
    /// already pending) is a no-op rather than a stall.
    wake_tx: UnixStream,
    mailbox: Mutex<Mailbox>,
}

/// What other threads have posted to a loop since it last looked.
#[derive(Default)]
struct Mailbox {
    /// `(connection token, request id, reply)`, in the order posted.
    replies: Vec<(u64, u64, Reply)>,
    /// Connections accepted by loop 0 and assigned to this loop.
    incoming: Vec<TcpStream>,
}

impl Mailbox {
    fn is_empty(&self) -> bool {
        self.replies.is_empty() && self.incoming.is_empty()
    }
}

impl LoopShared {
    /// A loop's shared face, and the read half of its wakeup pipe.
    fn new() -> Result<(Self, UnixStream), ServeError> {
        let (wake_tx, wake_rx) = UnixStream::pair().map_err(|e| io_err("wakeup pipe", e))?;
        for half in [&wake_tx, &wake_rx] {
            half.set_nonblocking(true)
                .map_err(|e| io_err("wakeup pipe", e))?;
        }
        let shared = Self {
            wake_tx,
            mailbox: Mutex::default(),
        };
        Ok((shared, wake_rx))
    }

    /// The mailbox, locked. Every post is one push, so a poisoned lock
    /// still guards a valid mailbox; recovering it keeps `ConnReply`'s
    /// `Drop` from panicking.
    fn mailbox(&self) -> MutexGuard<'_, Mailbox> {
        self.mailbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Posts into the mailbox, writing the wake byte only if the mailbox
    /// was empty. A non-empty mailbox has its byte already on the way: the
    /// loop drains the pipe *before* it takes the mailbox, so a byte it
    /// consumed is always followed by a take of every post it announced.
    fn post(&self, put: impl FnOnce(&mut Mailbox)) {
        let was_empty = {
            let mut mailbox = self.mailbox();
            let was_empty = mailbox.is_empty();
            put(&mut mailbox);
            was_empty
        };
        if was_empty {
            self.poke();
        }
    }

    fn poke(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// The reply slot of a request admitted from a TCP connection: the shard
/// posts the reply to the connection's loop, under the connection's token
/// and the request's id.
pub(crate) struct ConnReply {
    /// `None` once posted (or withdrawn), so `Drop` posts only for a slot
    /// that was dropped unsent.
    shared: Option<Arc<LoopShared>>,
    token: u64,
    id: u64,
}

impl ConnReply {
    /// Posts the reply to the connection's loop, once.
    pub(crate) fn send(&mut self, reply: Reply) {
        if let Some(shared) = self.shared.take() {
            let (token, id) = (self.token, self.id);
            shared.post(|mailbox| mailbox.replies.push((token, id, reply)));
        }
    }

    /// Takes back the slot of a refused request without posting: the loop
    /// encodes the refusal itself, at once.
    fn withdraw(mut self) {
        self.shared = None;
    }
}

impl Drop for ConnReply {
    /// A slot dropped unsent means its shard worker died with the job:
    /// post a transport error in the reply's place, so the connection is
    /// still answered and a draining one still closes.
    fn drop(&mut self) {
        if self.shared.is_some() {
            self.send(Reply::bare(Err(ServeError::Transport(
                "shard worker exited".into(),
            ))));
        }
    }
}

enum ConnState {
    /// Collecting the 4-byte protocol preamble.
    Preamble(Vec<u8>),
    /// Binary frame protocol.
    Binary,
    /// HTTP: collecting the request head that follows `GET `.
    Http(Vec<u8>),
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// The poller token, also the address shards post replies to.
    token: u64,
    state: ConnState,
    decoder: FrameDecoder,
    /// Requests admitted to a shard whose replies have not arrived yet.
    inflight: usize,
    /// Encoded-but-unflushed reply bytes; `outpos` is the flushed prefix.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Reply frames encoded since the last flush attempt, for the
    /// writev-batching counter.
    pending_frames: usize,
    /// Read side finished (EOF, protocol error, answered HTTP head, or
    /// listener drain): no more bytes in; flush what's owed, then close.
    closing: bool,
    /// Socket is unusable (I/O error or hard hangup): drop immediately.
    dead: bool,
    /// What the poller is currently watching this fd for.
    interest: Interest,
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
            // is a posted reply (or a hangup, always reported).
            (true, true) => Interest::NONE,
        }
    }

    /// Encodes one reply frame into the write buffer.
    fn push_reply(&mut self, net: &NetStats, id: u64, reply: &Reply) {
        let payload = wire::encode_response(id, &reply.result, reply.trace_id);
        // Counted before the flush: once the peer can observe the reply, a
        // metrics snapshot must already include it.
        net.frames_out.inc();
        self.outbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.outbuf.extend_from_slice(&payload);
        self.pending_frames += 1;
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
    /// `(deadline, token)` of each connection by registration, hence by
    /// deadline: when it must have left `Preamble` and `Http`.
    head_deadlines: VecDeque<(Instant, u64)>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    rr: usize,
    stop: Arc<AtomicBool>,
    draining: bool,
    transport: ChannelTransport,
    inner: Arc<Inner>,
    cache: Arc<GraphCache>,
    net: Arc<NetStats>,
    read_buf: Vec<u8>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            let timeout = if self.draining {
                // Safety heartbeat: posted replies are the real signal,
                // the tick just bounds the damage if a wake is ever lost.
                Some(Duration::from_millis(25))
            } else {
                let head = self.head_deadlines.front().map(|&(deadline, _)| deadline);
                let now = Instant::now();
                self.accept_paused_until
                    .into_iter()
                    .chain(head)
                    .min()
                    .map(|until| until.saturating_duration_since(now))
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
            // Take the mailbox *after* draining the pipe: a post into the
            // emptied mailbox writes a fresh byte and wakes the next tick.
            let mail = std::mem::take(&mut *self.shared.mailbox());

            if !events.is_empty() || !mail.is_empty() {
                self.net.event_loop_wakeups.inc();
            }

            if accept_ready {
                self.accept_burst();
            }
            for stream in mail.incoming {
                self.register_conn(stream);
            }
            let replied = self.deliver(mail.replies);
            for token in to_read {
                self.on_conn_event(token, true);
            }
            for token in replied.into_iter().chain(to_write) {
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
            self.expire_heads();

            if self.draining && self.conns.is_empty() {
                break;
            }
        }
    }

    /// Closes, without a response, each connection whose head deadline
    /// has passed while it is still in `Preamble` or `Http` and not yet
    /// answered.
    fn expire_heads(&mut self) {
        let now = Instant::now();
        while let Some(&(deadline, token)) = self.head_deadlines.front() {
            if deadline > now {
                break;
            }
            self.head_deadlines.pop_front();
            let unsure = self.conns.get(&token).is_some_and(|c| {
                !c.closing && matches!(c.state, ConnState::Preamble(_) | ConnState::Http(_))
            });
            if unsure {
                if let Some(conn) = self.conns.remove(&token) {
                    self.close_conn(conn);
                }
            }
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

    /// Encodes each posted reply into its connection's write buffer, in
    /// the order posted, and returns the connections it touched, each
    /// once. A reply for a connection that has since closed is dropped.
    fn deliver(&mut self, replies: Vec<(u64, u64, Reply)>) -> Vec<u64> {
        let mut touched = Vec::new();
        for (token, id, reply) in replies {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            conn.inflight -= 1;
            conn.push_reply(&self.net, id, &reply);
            touched.push(token);
        }
        touched.sort_unstable();
        touched.dedup();
        touched
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
                    self.all[i].post(|mailbox| mailbox.incoming.push(stream));
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
        self.head_deadlines
            .push_back((Instant::now() + HEAD_DEADLINE, token));
        self.conns.insert(
            token,
            Conn {
                stream,
                token,
                state: ConnState::Preamble(Vec::with_capacity(4)),
                decoder: FrameDecoder::new(),
                inflight: 0,
                outbuf: Vec::new(),
                outpos: 0,
                pending_frames: 0,
                closing: false,
                dead: false,
                interest: Interest::READ,
            },
        );
        // Level-triggered polling reports any bytes that raced ahead of
        // the registration on the next wait — no explicit kick needed.
    }

    // -- connection events --------------------------------------------------

    /// Runs one connection through read → flush and re-files it (or
    /// closes it). Taking the connection out of the map keeps the borrow
    /// checker out of the way of `&mut self` helpers.
    fn on_conn_event(&mut self, token: u64, readable: bool) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if readable && !conn.closing && !conn.dead {
            self.conn_read(&mut conn);
        }
        if !conn.dead {
            self.flush(&mut conn);
        }

        if conn.dead || (conn.closing && conn.inflight == 0 && conn.flushed()) {
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
        // Dropping the connection closes its socket before the gauge
        // falls, so `connections_open` never reads 0 while a socket is
        // still open. A reply still owed to it is dropped on arrival.
        drop(conn);
        self.net.connections_open.dec();
        self.net.closed.inc();
    }

    /// Drains the socket to `WouldBlock`, feeding the preamble sniffer
    /// and then the incremental frame decoder or the HTTP head.
    fn conn_read(&mut self, conn: &mut Conn) {
        loop {
            let n = match (&conn.stream).read(&mut self.read_buf) {
                Ok(0) => {
                    // EOF. Mid-frame (or mid-preamble with bytes already
                    // consumed into a frame) is a protocol error; at a
                    // frame boundary it is a clean half-close. An HTTP
                    // head cut short is answered as it stands.
                    conn.closing = true;
                    match conn.state {
                        ConnState::Binary if conn.decoder.mid_frame() => {
                            self.net.wire_errors.inc();
                        }
                        ConnState::Http(_) => self.answer_http(conn),
                        _ => {}
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
                    conn.state = ConnState::Http(Vec::new());
                } else {
                    self.net.wire_errors.inc();
                    conn.dead = true;
                    return;
                }
            }
            if let ConnState::Http(head) = &mut conn.state {
                // Only the bytes that could complete a terminator with
                // the new ones need scanning again.
                let from = head.len().saturating_sub(3);
                let take = chunk.len().min(HTTP_HEAD_MAX - head.len());
                head.extend_from_slice(&chunk[..take]);
                if head.len() == HTTP_HEAD_MAX || head[from..].windows(4).any(|w| w == b"\r\n\r\n")
                {
                    self.answer_http(conn);
                    return;
                }
                continue;
            }
            conn.decoder.push(chunk);
            self.drain_frames(conn);
            if conn.closing || conn.dead {
                return;
            }
        }
    }

    /// Answers a finished (or cut-short) HTTP head: the response goes into
    /// the write buffer and the connection closes once it is flushed.
    fn answer_http(&self, conn: &mut Conn) {
        let ConnState::Http(head) = &conn.state else {
            return;
        };
        // Counted before rendering, so a scrape body counts itself.
        self.net.http_scrapes.inc();
        conn.outbuf = http_response(head, &self.inner);
        conn.closing = true;
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
            let admitted = decode_request(&payload[8..], &self.cache).and_then(|request| {
                let reply = ConnReply {
                    shared: Some(Arc::clone(&self.shared)),
                    token: conn.token,
                    id,
                };
                self.transport
                    .admit(request, ReplySlot::Conn(reply))
                    .map_err(|(e, slot)| {
                        if let ReplySlot::Conn(reply) = slot {
                            reply.withdraw();
                        }
                        e
                    })
            });
            match admitted {
                Ok(()) => conn.inflight += 1,
                Err(e) => {
                    if matches!(e, ServeError::Wire(_)) {
                        self.net.wire_errors.inc();
                    }
                    conn.push_reply(&self.net, id, &Reply::bare(Err(e)));
                }
            }
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
        // the rest wait for their remaining replies and flush them first.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.closing = true;
            }
            self.on_conn_event(token, false);
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
            let (loop_shared, wake_rx) = LoopShared::new()?;
            shared.push(Arc::new(loop_shared));
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
                head_deadlines: VecDeque::new(),
                conns: HashMap::new(),
                next_token: CONN_BASE,
                rr: 0,
                stop: Arc::clone(&stop),
                draining: false,
                transport: ChannelTransport::new(Arc::clone(&inner)),
                inner: Arc::clone(&inner),
                cache: Arc::clone(&cache),
                net: Arc::clone(&inner.net),
                read_buf: vec![0u8; 64 * 1024],
            };
            loops.push(
                std::thread::Builder::new()
                    .name(format!("loop-{index}"))
                    .spawn(move || event_loop.run())
                    .expect("failed to spawn an event loop thread"),
            );
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

/// The whole HTTP response to one request head. The `GET ` preamble has
/// already been consumed, so the head starts with the path, which routes:
///
/// * `/health` — liveness JSON (uptime, request totals, trace buffer).
/// * `/traces` — the flight recorder's retained traces as JSON-lines,
///   newest last.
/// * `/traces/<id>` — one retained trace by decimal id, or 404.
/// * anything else (canonically `/metrics`) — the Prometheus scrape body.
fn http_response(head: &[u8], inner: &Inner) -> Vec<u8> {
    let head = String::from_utf8_lossy(head);
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
    let mut response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    response.extend_from_slice(body.as_bytes());
    response
}

/// Decodes one request body, resolving its graph through the cache. A
/// decode failure comes back as the error the remote caller should see.
fn decode_request(body: &[u8], cache: &GraphCache) -> Result<Request, ServeError> {
    let request = wire::decode_request_body(body)?;
    let kind = match request.body {
        WireBody::Evaluate { threshold, graph } => RequestKind::Evaluate {
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
    // The deadline crossed relative; admission anchors it — the queue
    // wait counts against it exactly as it does in-process.
    let timeout = (request.deadline_ms > 0).then(|| Duration::from_millis(request.deadline_ms));
    Ok(Request {
        tenant: request.tenant,
        kind,
        timeout,
        strategy: request.strategy,
        trace: request.trace,
    })
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
/// in flight at once, and the server writes each reply as it completes.
/// Tenants are hashed to a fixed connection of the pool: combined with
/// the shard queues' FIFO, a tenant's requests still execute in
/// submission order, while distinct tenants spread across sockets.
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
            std::thread::Builder::new()
                .name("client-reader".into())
                .spawn(move || {
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
                .expect("failed to spawn a client reader thread")
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
    use crate::transport::Response;

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

    #[test]
    fn a_reply_slot_dropped_unsent_posts_the_worker_exit_error() {
        let (shared, wake_rx) = LoopShared::new().unwrap();
        let shared = Arc::new(shared);
        let slot = |token, id| ConnReply {
            shared: Some(Arc::clone(&shared)),
            token,
            id,
        };
        slot(3, 11).send(Reply::bare(Ok(Response::Mean(1.5))));
        drop(slot(7, 42));
        slot(9, 5).withdraw();

        let mail = std::mem::take(&mut *shared.mailbox());
        assert!(mail.incoming.is_empty());
        let posted: Vec<_> = mail
            .replies
            .into_iter()
            .map(|(token, id, reply)| (token, id, reply.result))
            .collect();
        assert_eq!(
            posted,
            [
                (3, 11, Ok(Response::Mean(1.5))),
                (
                    7,
                    42,
                    Err(ServeError::Transport("shard worker exited".into()))
                ),
            ]
        );
        // Only the post into the empty mailbox wrote a wake byte.
        let mut buf = [0u8; 8];
        assert_eq!((&wake_rx).read(&mut buf).unwrap(), 1);
    }
}
