//! The closed-loop TCP load generator and the in-process replay it is
//! checked against.
//!
//! One generator thread drives every client socket through the serve
//! crate's readiness poller. Each slot of a [`Source`] has exactly one
//! request in flight; its id on the wire is the slot index, so replies on
//! a pipelined connection may arrive in any order. Requests are encoded
//! with the public `wire::encode_request` and replies decoded with
//! `FrameDecoder` + `wire::decode_response`, which is what lets the
//! traced mode time the frame codec from outside. A client that re-asks
//! an identical question (see [`Source::repeats`]) reuses the frame it
//! encoded the first time, as `bench_net`'s generator does, so the one
//! generator thread is not what limits the service.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use uncertain_core::{HypothesisOutcome, ServeError};
use uncertain_serve::poll::{Interest, PollEvent, Poller};
use uncertain_serve::wire::{self, FrameDecoder, MAGIC};
use uncertain_serve::{Request, RequestKind, Response, ServeConfig, Service};

use crate::inputs::{Query, Source};
use crate::stats::{fold, Reservoir, Windows};
use crate::trace::Tracer;

/// Latency samples kept by a measured phase (8 MiB, written up front).
pub const RESERVOIR: usize = 1 << 20;

/// Every successful query of one tenant, in its stream order: the tags a
/// replay must re-ask and the folded outcomes it must reproduce. A
/// tenant's tags only grow, so they are kept as LEB128 deltas, about a
/// byte per query.
#[derive(Default, Clone)]
pub struct TenantLog {
    pub fp: u64,
    deltas: Vec<u8>,
    last: u64,
    len: usize,
}

/// A read position in a [`TenantLog`].
#[derive(Default, Clone, Copy)]
pub struct TagCursor {
    pos: usize,
    last: u64,
}

impl TenantLog {
    fn push(&mut self, tag: u64) {
        let mut d = tag
            .checked_sub(self.last)
            .expect("a tenant's tags only grow");
        self.last = tag;
        self.len += 1;
        loop {
            let byte = (d & 0x7F) as u8;
            d >>= 7;
            if d == 0 {
                self.deltas.push(byte);
                return;
            }
            self.deltas.push(byte | 0x80);
        }
    }

    /// Queries logged.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The tag at `cur`, advancing it; `None` past the end.
    pub fn next_tag(&self, cur: &mut TagCursor) -> Option<u64> {
        let mut d = 0u64;
        let mut shift = 0;
        loop {
            let byte = *self.deltas.get(cur.pos)?;
            cur.pos += 1;
            d |= u64::from(byte & 0x7F) << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                cur.last += d;
                return Some(cur.last);
            }
        }
    }
}

pub type Tenants = BTreeMap<u64, TenantLog>;

/// Why a request failed.
#[derive(Default, Debug, Clone, Copy)]
pub struct Failures {
    pub queue_full: u64,
    pub timeout: u64,
    pub wire: u64,
    pub transport: u64,
    pub other: u64,
}

impl Failures {
    fn count(&mut self, e: &ServeError) {
        match e {
            ServeError::QueueFull => self.queue_full += 1,
            ServeError::Timeout => self.timeout += 1,
            ServeError::Wire(_) => self.wire += 1,
            ServeError::Transport(_) | ServeError::Shutdown => self.transport += 1,
            _ => self.other += 1,
        }
    }
}

/// A completed query, kept only in traced phases.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub tenant: u64,
    pub tag: u64,
    pub req: u64,
    pub outcome: HypothesisOutcome,
    /// Span ids of the request's `wire.frame_encode` and `net.rtt`, where
    /// shadow spans attach.
    pub encode_span: u32,
    pub rtt_span: u32,
    pub rtt_ns: u64,
    /// Whether the request's frame was encoded (not reused) on the way out.
    pub encoded: bool,
}

/// What one phase of the closed loop measured.
pub struct Phase {
    pub attempted: u64,
    pub ok: u64,
    pub failures: Failures,
    pub latency: Reservoir,
    /// Windowed figures of a measured phase.
    pub windows: Option<Windows>,
    /// SPRT samples per successful decision → count.
    pub samples: BTreeMap<usize, u64>,
    pub inconclusive: u64,
    pub exact: u64,
    pub request_bytes: u64,
    pub elapsed: Duration,
    pub done: Vec<Done>,
    /// Where every answer is known in advance (the analytic workload),
    /// its estimate bits, and how many answers differed.
    pub expect_estimate: Option<u64>,
    pub estimate_mismatches: u64,
}

impl Phase {
    /// A phase keeping up to `latencies` latency samples.
    pub fn with_capacity(latencies: usize) -> Self {
        Self {
            attempted: 0,
            ok: 0,
            failures: Failures::default(),
            latency: Reservoir::new(latencies),
            windows: None,
            samples: BTreeMap::new(),
            inconclusive: 0,
            exact: 0,
            request_bytes: 0,
            elapsed: Duration::ZERO,
            done: Vec::new(),
            expect_estimate: None,
            estimate_mismatches: 0,
        }
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }
}

/// When a phase stops issuing new requests.
#[derive(Clone, Copy)]
pub enum Until {
    /// Every slot has completed this many queries in the phase.
    Each(u64),
    /// The clock has passed this instant.
    Deadline(Instant),
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    outpos: usize,
    decoder: FrameDecoder,
    interest: Interest,
    alive: bool,
}

impl Conn {
    /// Writes what the socket takes; `Err` means the connection is gone.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.outpos < self.out.len() {
            match (&self.stream).write(&self.out[self.outpos..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.outpos = 0;
        Ok(())
    }
}

#[derive(Default)]
struct Slot {
    conn: usize,
    busy: bool,
    retired: bool,
    tenant: u64,
    tag: u64,
    req: u64,
    done_in_phase: u64,
    prev: Option<HypothesisOutcome>,
    build_start: u64,
    t0: u64,
    t_sent: u64,
    encoded: bool,
}

/// Client side of the closed loop: the sockets, one slot per source slot
/// (slot `s` rides connection `s % connections`), and the tenants' logs.
pub struct Client {
    conns: Vec<Conn>,
    slots: Vec<Slot>,
    poller: Poller,
    events: Vec<PollEvent>,
    scratch: Vec<u8>,
    epoch: Instant,
    next_req: u64,
    /// Reusable request frames by `(slot, tenant)`.
    frames: HashMap<(usize, u64), Vec<u8>>,
    pub tenants: Tenants,
}

impl Client {
    /// Opens `connections` sockets to `addr` for `slots` slots. Span times
    /// are nanoseconds since `epoch`, the origin of any tracer passed to
    /// [`Client::run`].
    pub fn connect(
        addr: SocketAddr,
        connections: usize,
        slots: usize,
        epoch: Instant,
    ) -> std::io::Result<Self> {
        let mut poller = Poller::new()?;
        let mut conns = Vec::with_capacity(connections);
        for c in 0..connections {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.write_all(&MAGIC)?;
            stream.set_nonblocking(true)?;
            poller.add(stream.as_raw_fd(), c as u64, Interest::READ)?;
            conns.push(Conn {
                stream,
                out: Vec::new(),
                outpos: 0,
                decoder: FrameDecoder::new(),
                interest: Interest::READ,
                alive: true,
            });
        }
        Ok(Self {
            conns,
            slots: (0..slots)
                .map(|s| Slot {
                    conn: s % connections,
                    ..Slot::default()
                })
                .collect(),
            poller,
            events: Vec::new(),
            scratch: vec![0u8; 64 * 1024],
            epoch,
            next_req: 1,
            frames: HashMap::new(),
            tenants: Tenants::new(),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Closes every socket.
    pub fn close(&mut self) {
        for c in &self.conns {
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Runs the closed loop until `until`, then drains the requests in
    /// flight. With a tracer, every request leaves a `query` span tree.
    pub fn run(
        &mut self,
        src: &mut dyn Source,
        until: Until,
        phase: &mut Phase,
        mut tracer: Option<&mut Tracer>,
    ) {
        let start = Instant::now();
        for s in &mut self.slots {
            s.done_in_phase = 0;
        }
        for slot in 0..self.slots.len() {
            self.issue(slot, src, until, phase);
        }
        for c in 0..self.conns.len() {
            if self.conns[c].alive && self.conns[c].flush().is_err() {
                self.fail_connection(c, phase);
            }
        }
        while self.slots.iter().any(|s| s.busy) {
            self.poller
                .wait(&mut self.events, Some(Duration::from_millis(50)))
                .expect("client poll");
            for i in 0..self.events.len() {
                let ev = self.events[i];
                let c = ev.token as usize;
                if !self.conns[c].alive {
                    continue;
                }
                let mut broken = false;
                if ev.readable || ev.hup {
                    broken |= self.read(c, src, until, phase, &mut tracer);
                }
                if !broken && self.conns[c].flush().is_err() {
                    broken = true;
                }
                if broken {
                    self.fail_connection(c, phase);
                    continue;
                }
                let conn = &mut self.conns[c];
                let want = if conn.outpos < conn.out.len() {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                if want != conn.interest {
                    self.poller
                        .modify(conn.stream.as_raw_fd(), c as u64, want)
                        .expect("reregister client socket");
                    conn.interest = want;
                }
            }
        }
        phase.elapsed += start.elapsed();
    }

    fn wants_more(&self, slot: usize, until: Until) -> bool {
        let s = &self.slots[slot];
        if s.retired || !self.conns[s.conn].alive {
            return false;
        }
        match until {
            Until::Each(n) => s.done_in_phase < n,
            Until::Deadline(d) => Instant::now() < d,
        }
    }

    fn issue(&mut self, slot: usize, src: &mut dyn Source, until: Until, phase: &mut Phase) {
        if !self.wants_more(slot, until) {
            return;
        }
        let build_start = self.now();
        let prev = self.slots[slot].prev.take();
        let Query {
            tenant,
            tag,
            cond,
            threshold,
            strategy,
        } = src.next(slot, prev.as_ref());
        let t0 = self.now();
        phase.attempted += 1;
        let key = (slot, tenant);
        let reuse = src.repeats();
        let cached = reuse && self.frames.contains_key(&key);
        let fresh = if cached {
            None
        } else {
            let request = Request {
                tenant,
                kind: RequestKind::Evaluate { cond, threshold },
                timeout: None,
                strategy,
                trace: None,
            };
            match wire::encode_request(slot as u64, &request) {
                Ok(payload) => {
                    let mut frame = Vec::with_capacity(4 + payload.len());
                    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                    frame.extend_from_slice(&payload);
                    Some(frame)
                }
                Err(e) => {
                    // Not wire-expressible: a benchmark input bug. Count it
                    // and retire the slot rather than spin on the same input.
                    phase.failures.count(&e);
                    self.slots[slot].retired = true;
                    return;
                }
            }
        };
        if reuse {
            if let Some(frame) = fresh.clone() {
                self.frames.insert(key, frame);
            }
        }
        let frame = fresh.as_deref().unwrap_or_else(|| &self.frames[&key]);
        let conn = &mut self.conns[self.slots[slot].conn];
        conn.out.extend_from_slice(frame);
        phase.request_bytes += frame.len() as u64;
        let t_sent = self.now();
        let req = self.next_req;
        self.next_req += 1;
        let s = &mut self.slots[slot];
        s.busy = true;
        s.tenant = tenant;
        s.tag = tag;
        s.req = req;
        s.build_start = build_start;
        s.t0 = t0;
        s.t_sent = t_sent;
        s.encoded = !cached;
    }

    /// Reads and handles every complete reply on connection `c`; returns
    /// whether the connection broke.
    fn read(
        &mut self,
        c: usize,
        src: &mut dyn Source,
        until: Until,
        phase: &mut Phase,
        tracer: &mut Option<&mut Tracer>,
    ) -> bool {
        loop {
            let n = match (&self.conns[c].stream).read(&mut self.scratch) {
                Ok(0) => return true,
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            };
            self.conns[c].decoder.push(&self.scratch[..n]);
            loop {
                let frame = match self.conns[c].decoder.next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(_) => return true,
                };
                let t_rx = self.now();
                let Ok((id, _trace, result)) = wire::decode_response(&frame) else {
                    return true;
                };
                let t_done = self.now();
                let slot = id as usize;
                if slot >= self.slots.len() || !self.slots[slot].busy {
                    return true;
                }
                self.complete(slot, result, t_rx, t_done, phase, tracer);
                self.issue(slot, src, until, phase);
            }
        }
    }

    fn complete(
        &mut self,
        slot: usize,
        result: Result<Response, ServeError>,
        t_rx: u64,
        t_done: u64,
        phase: &mut Phase,
        tracer: &mut Option<&mut Tracer>,
    ) {
        let s = &mut self.slots[slot];
        s.busy = false;
        s.done_in_phase += 1;
        let outcome = match result {
            Ok(Response::Outcome(o)) => o,
            Ok(_) => {
                phase.failures.other += 1;
                return;
            }
            Err(e) => {
                phase.failures.count(&e);
                return;
            }
        };
        s.prev = Some(outcome);
        phase.ok += 1;
        phase.latency.push(t_done - s.t0);
        if let Some(w) = phase.windows.as_mut() {
            w.push(t_done, t_done - s.t0);
        }
        *phase.samples.entry(outcome.samples).or_insert(0) += 1;
        phase.inconclusive += u64::from(!outcome.conclusive);
        phase.exact += u64::from(outcome.provenance.is_exact());
        if phase
            .expect_estimate
            .is_some_and(|bits| bits != outcome.estimate.to_bits())
        {
            phase.estimate_mismatches += 1;
        }
        let log = self.tenants.entry(s.tenant).or_default();
        fold(&mut log.fp, outcome.samples, outcome.estimate.to_bits());
        log.push(s.tag);
        if let Some(t) = tracer.as_deref_mut() {
            t.span(s.req, 0, "app.build", s.build_start, s.t0);
            let root = t.span(s.req, 0, "query", s.t0, t_done);
            let encode_span = t.span(s.req, root, "wire.frame_encode", s.t0, s.t_sent);
            let rtt_span = t.span(s.req, root, "net.rtt", s.t_sent, t_rx);
            t.span(s.req, root, "wire.frame_decode", t_rx, t_done);
            phase.done.push(Done {
                tenant: s.tenant,
                tag: s.tag,
                req: s.req,
                outcome,
                encode_span,
                rtt_span,
                rtt_ns: t_rx - s.t_sent,
                encoded: s.encoded,
            });
        }
    }

    fn fail_connection(&mut self, c: usize, phase: &mut Phase) {
        let conn = &mut self.conns[c];
        conn.alive = false;
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        for s in self.slots.iter_mut().filter(|s| s.conn == c && s.busy) {
            s.busy = false;
            phase.failures.transport += 1;
        }
    }
}

/// Start and end, in nanoseconds since the epoch, of in-process round
/// trips by `(tenant, tag)`.
pub type RoundTrips = BTreeMap<(u64, u64), (u64, u64)>;

/// Re-asks every logged query in-process on a fresh service with
/// `config`, keeping up to `window` requests in flight (at most one per
/// tenant, in each tenant's order), and returns each tenant's folded
/// fingerprint, plus the in-process round trip (start and end, in
/// nanoseconds since `epoch`) of every `(tenant, tag)` in `timed`.
pub fn replay_in_process(
    config: ServeConfig,
    src: &mut dyn Source,
    tenants: &Tenants,
    window: usize,
    timed: &BTreeSet<(u64, u64)>,
    epoch: Instant,
) -> (BTreeMap<u64, u64>, RoundTrips) {
    let service = Service::start(config);
    let client = service.client();
    let mut cursor: BTreeMap<u64, TagCursor> =
        tenants.keys().map(|&t| (t, TagCursor::default())).collect();
    let mut ready: VecDeque<u64> = tenants
        .iter()
        .filter(|(_, l)| l.len() > 0)
        .map(|(&t, _)| t)
        .collect();
    let mut fps: BTreeMap<u64, u64> = tenants.keys().map(|&t| (t, 0)).collect();
    let mut rtts = BTreeMap::new();
    let mut inflight = VecDeque::new();
    let now = || epoch.elapsed().as_nanos() as u64;
    loop {
        while inflight.len() < window {
            let Some(tenant) = ready.pop_front() else {
                break;
            };
            let cur = cursor.get_mut(&tenant).expect("known tenant");
            let tag = tenants[&tenant]
                .next_tag(cur)
                .expect("ready tenants have tags");
            let q = src.rebuild(tenant, tag);
            let t0 = now();
            let pending = match q.strategy {
                Some(s) => {
                    client.submit_evaluate_with_strategy(tenant, &q.cond, q.threshold, None, s)
                }
                None => client.submit_evaluate(tenant, &q.cond, q.threshold, None),
            };
            inflight.push_back((tenant, tag, t0, pending));
        }
        let Some((tenant, tag, t0, pending)) = inflight.pop_front() else {
            break;
        };
        let result = pending.and_then(|p| p.wait());
        let t1 = now();
        let fp = fps.get_mut(&tenant).expect("known tenant");
        match result {
            Ok(o) => fold(fp, o.samples, o.estimate.to_bits()),
            // A replay failure can never match the logged stream.
            Err(_) => *fp ^= 0xDEAD,
        }
        if timed.contains(&(tenant, tag)) {
            rtts.insert((tenant, tag), (t0, t1));
        }
        if cursor[&tenant].pos < tenants[&tenant].deltas.len() {
            ready.push_back(tenant);
        }
    }
    service.shutdown();
    (fps, rtts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_log_round_trips_growing_tags() {
        let tags = [0u64, 2, 3, 200, 70_000, 70_001, u64::from(u32::MAX) * 9];
        let mut log = TenantLog::default();
        for &t in &tags {
            log.push(t);
        }
        assert_eq!(log.len(), tags.len());
        let mut cur = TagCursor::default();
        let back: Vec<u64> = std::iter::from_fn(|| log.next_tag(&mut cur)).collect();
        assert_eq!(back, tags);
    }
}
