//! The binary frame format of the TCP transport.
//!
//! A connection opens with the 4-byte magic `UNC1`, then carries
//! length-prefixed frames in both directions: `[len: u32 LE][payload]`,
//! with `len` capped at [`MAX_FRAME`] so a hostile length prefix cannot
//! make the peer allocate unboundedly.
//!
//! **Request payload** (client → server):
//!
//! ```text
//! [id: u64]                correlation id, echoed in the response
//! [tenant: u64]            whose seeded session executes the request
//! [deadline_ms: u64]       relative deadline; 0 = use the server default
//! [strategy: u8]           0 inherit | 1 Auto | 2 SamplingOnly | 3 ExactOnly
//! [trace: u8]              0 none | bit0 context follows, bit1 sampled
//!   [trace_id: u64]        present iff bit0 — the trace this request joins
//!   [parent_span: u64]     present iff bit0 — caller span to nest under
//! [kind: u8]               1 Evaluate | 3 E | 4 Stats
//! [threshold: f64]         kind 1
//! [n: u64]                 kinds 3–4
//! [graph bytes]            a `WireGraph` encoding, to end of payload
//! ```
//!
//! The deadline crosses the wire *relative* (milliseconds from admission),
//! not as a wall-clock instant, so client and server clocks never need to
//! agree; the server anchors it at admission, feeding the same cooperative
//! deadline path in-process requests use.
//!
//! **Response payload** (server → client):
//!
//! ```text
//! [id: u64]
//! [trace: u8]              0 none | 1 trace id follows
//!   [trace_id: u64]        present iff 1 — echo of the request's trace id
//! [status: u8]
//! status 0 (ok):    [kind: u8][typed payload]         — see `Response`
//! status 1..=7:     a `ServeError`, some with a string payload
//! ```
//!
//! The trace context rides the request so one trace id names the whole
//! journey of a request — client, wire, shard — and the reply echoes it
//! so the client can fetch the server-side span tree from `/traces/<id>`
//! without any side channel.
//!
//! Strings are `[len: u32 LE][utf8]`. Every decoder in this module returns
//! [`WireError`] instead of panicking, whatever the bytes; the graph
//! payload gets the same treatment from `WireGraph::from_bytes`.

use std::io::{self, Read, Write};

use uncertain_core::{
    EvalStrategy, ExactMethod, HypothesisOutcome, Provenance, ServeError, WireGraph,
};
use uncertain_obs::TraceContext;
use uncertain_stats::{StatsError, Summary};

use crate::transport::{Request, RequestKind, Response};
use uncertain_core::WireError;

/// Connection preamble of the binary protocol. An HTTP `GET ` in its place
/// routes the connection to the metrics endpoint instead.
pub const MAGIC: [u8; 4] = *b"UNC1";

/// Upper bound on one frame's payload. Large enough for a `stats` reply
/// carrying ~2M observations; small enough that a corrupt length prefix
/// cannot balloon memory.
pub const MAX_FRAME: usize = 16 << 20;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one `[len][payload]` frame. Does not flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME, "oversized outbound frame");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame. `Ok(None)` is a clean close (EOF at a frame
/// boundary); EOF mid-frame or an oversized length prefix is an error.
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let mut rest = [0u8; 3];
    r.read_exact(&mut rest)?;
    let len = u32::from_le_bytes([first[0], rest[0], rest[1], rest[2]]) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Incremental twin of `read_frame` for nonblocking sockets.
///
/// A blocking reader can `read_exact` its way through a frame; an
/// event-loop connection instead receives bytes in whatever chunks the
/// kernel delivers and must resume mid-frame across poll wakeups. Bytes
/// go in via [`push`](Self::push); complete frames come out of
/// [`next_frame`](Self::next_frame), which applies the same [`MAX_FRAME`]
/// cap as the blocking reader — and applies it to the *length prefix*,
/// before any payload arrives, so a hostile header is rejected without
/// buffering a byte of its claimed payload.
///
/// The split between arriving chunks is invisible in the output: for any
/// byte stream, the sequence of frames (and the error, if the stream is
/// corrupt) is identical to what repeated `read_frame` calls would
/// produce. A proptest in this module pins that equivalence over
/// arbitrary split points.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received bytes to the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame payload, if the buffered bytes
    /// hold one. `Ok(None)` means "need more bytes"; an error means the
    /// stream is corrupt (oversized length prefix) and the connection
    /// should be dropped — the decoder makes no progress past it.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let hdr = &self.buf[self.pos..self.pos + 4];
        let len = u32::from_le_bytes(hdr.try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Malformed(format!(
                "frame length {len} exceeds the {MAX_FRAME}-byte cap"
            )));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        let payload = self.buf[start..start + len].to_vec();
        self.pos = start + len;
        self.compact();
        Ok(Some(payload))
    }

    /// Whether undecoded bytes are buffered — i.e. the stream stopped
    /// mid-frame. EOF with `mid_frame()` is a protocol error (the peer
    /// died inside a frame); EOF without is a clean close, exactly
    /// mirroring `read_frame`'s `Ok(None)`-vs-error distinction.
    pub fn mid_frame(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        // Reclaim consumed prefix bytes once they dominate the buffer, so
        // a long-lived connection doesn't grow its buffer without bound
        // while amortizing the memmove across many frames.
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// Byte-level reader (the serve-side twin of core's graph reader)
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string payload is not UTF-8".into()))
    }

    fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload".into()))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

// Kind 2 stays unassigned: the client's `pr` sends kind 1, and a frame
// that still asks for a bare verdict is rejected as malformed, not misread.
const KIND_EVALUATE: u8 = 1;
const KIND_E: u8 = 3;
const KIND_STATS: u8 = 4;

/// A decoded request header plus its still-encoded graph payload. The
/// graph bytes stay raw here so the server can use them as a cache key and
/// decode each distinct graph once (keeping the shards' plan caches hot
/// across requests — a fresh decode per frame would mint fresh node ids
/// and defeat them).
pub(crate) struct WireRequest {
    pub(crate) tenant: u64,
    /// Relative deadline in milliseconds; 0 = none carried.
    pub(crate) deadline_ms: u64,
    /// Per-request strategy override; `None` inherits the server config.
    pub(crate) strategy: Option<EvalStrategy>,
    /// Wire-propagated trace context; `None` for untraced requests.
    pub(crate) trace: Option<TraceContext>,
    pub(crate) body: WireBody,
}

// Trace-context flag byte: bit 0 = a context (trace id + parent span)
// follows, bit 1 = the context is sampled. Legal values are 0 (none),
// 1 (context, unsampled — ids propagate for reply echo only), and
// 3 (context, sampled).
const TRACE_PRESENT: u8 = 0b01;
const TRACE_SAMPLED: u8 = 0b10;

fn put_trace_context(out: &mut Vec<u8>, trace: Option<&TraceContext>) {
    match trace {
        None => out.push(0),
        Some(ctx) => {
            let mut flags = TRACE_PRESENT;
            if ctx.sampled {
                flags |= TRACE_SAMPLED;
            }
            out.push(flags);
            out.extend_from_slice(&ctx.trace_id.to_le_bytes());
            out.extend_from_slice(&ctx.parent_span.to_le_bytes());
        }
    }
}

fn decode_trace_context(r: &mut Reader<'_>) -> Result<Option<TraceContext>, WireError> {
    let flags = r.u8()?;
    if flags == 0 {
        return Ok(None);
    }
    if flags & TRACE_PRESENT == 0 || flags & !(TRACE_PRESENT | TRACE_SAMPLED) != 0 {
        return Err(WireError::Malformed(format!(
            "unknown trace flag byte {flags}"
        )));
    }
    Ok(Some(TraceContext {
        trace_id: r.u64()?,
        parent_span: r.u64()?,
        sampled: flags & TRACE_SAMPLED != 0,
    }))
}

const STRATEGY_INHERIT: u8 = 0;
const STRATEGY_AUTO: u8 = 1;
const STRATEGY_SAMPLING_ONLY: u8 = 2;
const STRATEGY_EXACT_ONLY: u8 = 3;

fn encode_strategy(strategy: Option<EvalStrategy>) -> u8 {
    match strategy {
        None => STRATEGY_INHERIT,
        Some(EvalStrategy::Auto) => STRATEGY_AUTO,
        Some(EvalStrategy::SamplingOnly) => STRATEGY_SAMPLING_ONLY,
        Some(EvalStrategy::ExactOnly) => STRATEGY_EXACT_ONLY,
    }
}

fn decode_strategy(byte: u8) -> Result<Option<EvalStrategy>, WireError> {
    match byte {
        STRATEGY_INHERIT => Ok(None),
        STRATEGY_AUTO => Ok(Some(EvalStrategy::Auto)),
        STRATEGY_SAMPLING_ONLY => Ok(Some(EvalStrategy::SamplingOnly)),
        STRATEGY_EXACT_ONLY => Ok(Some(EvalStrategy::ExactOnly)),
        other => Err(WireError::Malformed(format!(
            "unknown strategy byte {other}"
        ))),
    }
}

pub(crate) enum WireBody {
    Evaluate { threshold: f64, graph: Vec<u8> },
    E { n: u64, graph: Vec<u8> },
    Stats { n: u64, graph: Vec<u8> },
}

/// Encodes one request as a frame payload. Fails only if the query graph
/// is not wire-expressible.
pub fn encode_request(id: u64, request: &Request) -> Result<Vec<u8>, ServeError> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&request.tenant.to_le_bytes());
    // A zero relative deadline means "none"; clamp an explicit
    // `Duration::ZERO` up to 1 ms so it still crosses as a deadline.
    let deadline_ms = request
        .timeout
        .map(|t| (t.as_millis().min(u64::MAX as u128) as u64).max(1))
        .unwrap_or(0);
    out.extend_from_slice(&deadline_ms.to_le_bytes());
    out.push(encode_strategy(request.strategy));
    put_trace_context(&mut out, request.trace.as_ref());
    // `RequestKind` is `#[non_exhaustive]`; in-crate the wildcard is
    // unreachable today, but it is the designed behavior for a request
    // kind this wire version cannot express.
    #[allow(unreachable_patterns)]
    match &request.kind {
        RequestKind::Evaluate { cond, threshold } => {
            out.push(KIND_EVALUATE);
            out.extend_from_slice(&threshold.to_le_bytes());
            out.extend_from_slice(&WireGraph::from_bool(cond)?.to_bytes());
        }
        RequestKind::E { expr, n } => {
            out.push(KIND_E);
            out.extend_from_slice(&(*n as u64).to_le_bytes());
            out.extend_from_slice(&WireGraph::from_f64(expr)?.to_bytes());
        }
        RequestKind::Stats { expr, n } => {
            out.push(KIND_STATS);
            out.extend_from_slice(&(*n as u64).to_le_bytes());
            out.extend_from_slice(&WireGraph::from_f64(expr)?.to_bytes());
        }
        _ => {
            return Err(ServeError::Wire(WireError::Unsupported(
                "request kind unknown to this wire version".into(),
            )))
        }
    }
    if out.len() > MAX_FRAME {
        return Err(ServeError::Wire(WireError::Malformed(format!(
            "encoded request ({} bytes) exceeds the frame cap",
            out.len()
        ))));
    }
    Ok(out)
}

/// Decodes a request payload *after* its 8-byte correlation id (which the
/// server peels off first so even malformed requests get a correlated
/// error reply).
pub(crate) fn decode_request_body(bytes: &[u8]) -> Result<WireRequest, WireError> {
    let mut r = Reader::new(bytes);
    let tenant = r.u64()?;
    let deadline_ms = r.u64()?;
    let strategy = decode_strategy(r.u8()?)?;
    let trace = decode_trace_context(&mut r)?;
    let kind = r.u8()?;
    let body = match kind {
        KIND_EVALUATE => WireBody::Evaluate {
            threshold: r.f64()?,
            graph: r.rest().to_vec(),
        },
        KIND_E => WireBody::E {
            n: r.u64()?,
            graph: r.rest().to_vec(),
        },
        KIND_STATS => WireBody::Stats {
            n: r.u64()?,
            graph: r.rest().to_vec(),
        },
        other => {
            return Err(WireError::Malformed(format!(
                "unknown request kind {other}"
            )))
        }
    };
    Ok(WireRequest {
        tenant,
        deadline_ms,
        strategy,
        trace,
        body,
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

const STATUS_OK: u8 = 0;
const STATUS_TIMEOUT: u8 = 1;
const STATUS_QUEUE_FULL: u8 = 2;
const STATUS_SHUTDOWN: u8 = 3;
const STATUS_INVALID: u8 = 4;
const STATUS_WIRE_UNSUPPORTED: u8 = 5;
const STATUS_WIRE_TRUNCATED: u8 = 6;
const STATUS_WIRE_MALFORMED: u8 = 7;
const STATUS_TRANSPORT: u8 = 8;

// Payload kind 2, a bare verdict, stays unassigned with request kind 2.
const OK_OUTCOME: u8 = 1;
const OK_MEAN: u8 = 3;
const OK_SUMMARY: u8 = 4;

// Provenance of an `OK_OUTCOME` reply: how the verdict was produced.
// 0 means sampled (the outcome's `samples` field holds the draw count);
// nonzero names the analytic method that answered with zero samples.
const PROV_SAMPLED: u8 = 0;
const PROV_BETA_CHAIN: u8 = 1;
const PROV_GAUSSIAN_CDF: u8 = 2;
const PROV_MOMENT: u8 = 3;

fn encode_provenance(p: Provenance) -> u8 {
    match p {
        Provenance::Sampled { .. } => PROV_SAMPLED,
        Provenance::Exact {
            method: ExactMethod::BetaChain,
        } => PROV_BETA_CHAIN,
        Provenance::Exact {
            method: ExactMethod::GaussianCdf,
        } => PROV_GAUSSIAN_CDF,
        Provenance::Exact {
            method: ExactMethod::Moment,
        } => PROV_MOMENT,
    }
}

fn decode_provenance(byte: u8, samples: usize) -> Result<Provenance, WireError> {
    match byte {
        PROV_SAMPLED => Ok(Provenance::Sampled { samples }),
        PROV_BETA_CHAIN => Ok(Provenance::Exact {
            method: ExactMethod::BetaChain,
        }),
        PROV_GAUSSIAN_CDF => Ok(Provenance::Exact {
            method: ExactMethod::GaussianCdf,
        }),
        PROV_MOMENT => Ok(Provenance::Exact {
            method: ExactMethod::Moment,
        }),
        other => Err(WireError::Malformed(format!(
            "unknown provenance byte {other}"
        ))),
    }
}

/// Encodes one reply — success or error — as a frame payload.
/// `trace_echo` is the request's trace id, echoed so a traced client can
/// pair its reply with the server-side span tree.
pub(crate) fn encode_response(
    id: u64,
    result: &Result<Response, ServeError>,
    trace_echo: Option<u64>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&id.to_le_bytes());
    match trace_echo {
        None => out.push(0),
        Some(trace_id) => {
            out.push(1);
            out.extend_from_slice(&trace_id.to_le_bytes());
        }
    }
    // As in `encode_request`: the `Ok(_)` wildcard is today-unreachable
    // forward compatibility for response kinds newer than this encoder.
    #[allow(unreachable_patterns)]
    match result {
        Ok(Response::Outcome(o)) => {
            out.push(STATUS_OK);
            out.push(OK_OUTCOME);
            out.extend_from_slice(&o.threshold.to_le_bytes());
            out.push(o.accepted as u8);
            out.push(o.conclusive as u8);
            out.extend_from_slice(&(o.samples as u64).to_le_bytes());
            out.extend_from_slice(&o.estimate.to_le_bytes());
            out.push(encode_provenance(o.provenance));
        }
        Ok(Response::Mean(m)) => {
            out.push(STATUS_OK);
            out.push(OK_MEAN);
            out.extend_from_slice(&m.to_le_bytes());
        }
        Ok(Response::Summary(s)) => {
            out.push(STATUS_OK);
            out.push(OK_SUMMARY);
            out.extend_from_slice(&s.mean().to_le_bytes());
            out.extend_from_slice(&s.variance().to_le_bytes());
            let values = s.sorted_values();
            out.extend_from_slice(&(values.len() as u64).to_le_bytes());
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Ok(_) => {
            // A response kind this wire version cannot express: report it
            // as a wire failure rather than silently dropping the reply.
            out.push(STATUS_WIRE_UNSUPPORTED);
            put_string(&mut out, "response kind unknown to this wire version");
        }
        Err(ServeError::Timeout) => out.push(STATUS_TIMEOUT),
        Err(ServeError::QueueFull) => out.push(STATUS_QUEUE_FULL),
        Err(ServeError::Shutdown) => out.push(STATUS_SHUTDOWN),
        Err(ServeError::Invalid(e)) => {
            out.push(STATUS_INVALID);
            put_string(&mut out, e.what());
        }
        Err(ServeError::Wire(WireError::Unsupported(label))) => {
            out.push(STATUS_WIRE_UNSUPPORTED);
            put_string(&mut out, label);
        }
        Err(ServeError::Wire(WireError::Truncated)) => out.push(STATUS_WIRE_TRUNCATED),
        Err(ServeError::Wire(WireError::Malformed(msg))) => {
            out.push(STATUS_WIRE_MALFORMED);
            put_string(&mut out, msg);
        }
        Err(ServeError::Wire(_)) => {
            out.push(STATUS_WIRE_MALFORMED);
            put_string(&mut out, "wire error unknown to this wire version");
        }
        Err(ServeError::Transport(msg)) => {
            out.push(STATUS_TRANSPORT);
            put_string(&mut out, msg);
        }
        Err(_) => {
            out.push(STATUS_TRANSPORT);
            put_string(&mut out, "error kind unknown to this wire version");
        }
    }
    out
}

/// Decodes one reply payload into its correlation id, the echoed trace
/// id (if the request carried one), and the result.
#[allow(clippy::type_complexity)]
pub fn decode_response(
    bytes: &[u8],
) -> Result<(u64, Option<u64>, Result<Response, ServeError>), WireError> {
    let mut r = Reader::new(bytes);
    let id = r.u64()?;
    let trace_echo = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        other => {
            return Err(WireError::Malformed(format!(
                "unknown trace echo byte {other}"
            )))
        }
    };
    let status = r.u8()?;
    let result = match status {
        STATUS_OK => Ok(decode_ok(&mut r)?),
        STATUS_TIMEOUT => Err(ServeError::Timeout),
        STATUS_QUEUE_FULL => Err(ServeError::QueueFull),
        STATUS_SHUTDOWN => Err(ServeError::Shutdown),
        STATUS_INVALID => Err(ServeError::Invalid(StatsError::new(r.string()?))),
        STATUS_WIRE_UNSUPPORTED => Err(ServeError::Wire(WireError::Unsupported(r.string()?))),
        STATUS_WIRE_TRUNCATED => Err(ServeError::Wire(WireError::Truncated)),
        STATUS_WIRE_MALFORMED => Err(ServeError::Wire(WireError::Malformed(r.string()?))),
        STATUS_TRANSPORT => Err(ServeError::Transport(r.string()?)),
        other => {
            return Err(WireError::Malformed(format!(
                "unknown response status {other}"
            )))
        }
    };
    r.finish()?;
    Ok((id, trace_echo, result))
}

fn decode_ok(r: &mut Reader<'_>) -> Result<Response, WireError> {
    match r.u8()? {
        OK_OUTCOME => {
            let threshold = r.f64()?;
            let accepted = decode_bool(r.u8()?)?;
            let conclusive = decode_bool(r.u8()?)?;
            let samples = r.u64()? as usize;
            let estimate = r.f64()?;
            let provenance = decode_provenance(r.u8()?, samples)?;
            Ok(Response::Outcome(HypothesisOutcome {
                threshold,
                accepted,
                conclusive,
                samples,
                estimate,
                provenance,
            }))
        }
        OK_MEAN => Ok(Response::Mean(r.f64()?)),
        OK_SUMMARY => {
            let mean = r.f64()?;
            let variance = r.f64()?;
            let count = r.u64()? as usize;
            // Bound the allocation by what the frame can actually hold.
            if count > bytes_remaining(r) / 8 + 1 {
                return Err(WireError::Truncated);
            }
            let mut sorted = Vec::with_capacity(count);
            for _ in 0..count {
                sorted.push(r.f64()?);
            }
            let summary = Summary::from_parts(sorted, mean, variance)
                .map_err(|e| WireError::Malformed(e.to_string()))?;
            Ok(Response::Summary(summary))
        }
        other => Err(WireError::Malformed(format!(
            "unknown success payload kind {other}"
        ))),
    }
}

fn bytes_remaining(r: &Reader<'_>) -> usize {
    r.bytes.len() - r.pos
}

fn decode_bool(byte: u8) -> Result<bool, WireError> {
    match byte {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(WireError::Malformed(format!(
            "boolean byte must be 0 or 1, got {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uncertain_core::Uncertain;

    fn roundtrip_response(result: Result<Response, ServeError>) -> Result<Response, ServeError> {
        let bytes = encode_response(99, &result, None);
        let (id, echo, decoded) = decode_response(&bytes).expect("well-formed reply");
        assert_eq!(id, 99);
        assert_eq!(echo, None);
        decoded
    }

    #[test]
    fn responses_roundtrip_bitwise() {
        let outcome = HypothesisOutcome {
            threshold: 0.9,
            accepted: true,
            conclusive: false,
            samples: 4242,
            estimate: 0.912_345_678_9,
            provenance: Provenance::Sampled { samples: 4242 },
        };
        assert_eq!(
            roundtrip_response(Ok(Response::Outcome(outcome))),
            Ok(Response::Outcome(outcome))
        );
        let mean = std::f64::consts::PI;
        match roundtrip_response(Ok(Response::Mean(mean))) {
            Ok(Response::Mean(m)) => assert_eq!(m.to_bits(), mean.to_bits()),
            other => panic!("wrong decode: {other:?}"),
        }
        let summary = Summary::from_slice(&[3.0, 1.0, 2.0, 2.5]).unwrap();
        assert_eq!(
            roundtrip_response(Ok(Response::Summary(summary.clone()))),
            Ok(Response::Summary(summary))
        );
    }

    #[test]
    fn errors_roundtrip() {
        for err in [
            ServeError::Timeout,
            ServeError::QueueFull,
            ServeError::Shutdown,
            ServeError::Invalid(StatsError::new("bad threshold")),
            ServeError::Wire(WireError::Unsupported("from_fn leaf".into())),
            ServeError::Wire(WireError::Truncated),
            ServeError::Wire(WireError::Malformed("nope".into())),
            ServeError::Transport("connection reset".into()),
        ] {
            assert_eq!(roundtrip_response(Err(err.clone())), Err(err));
        }
    }

    #[test]
    fn requests_roundtrip_through_header_decode() {
        let cond = Uncertain::normal(0.0, 1.0).unwrap().gt(0.5);
        let request = Request {
            tenant: 7,
            kind: RequestKind::Evaluate {
                cond: cond.clone(),
                threshold: 0.9,
            },
            timeout: Some(std::time::Duration::from_millis(250)),
            strategy: Some(EvalStrategy::Auto),
            trace: None,
        };
        let payload = encode_request(11, &request).expect("expressible");
        assert_eq!(u64::from_le_bytes(payload[..8].try_into().unwrap()), 11);
        let decoded = decode_request_body(&payload[8..]).expect("well-formed");
        assert_eq!(decoded.tenant, 7);
        assert_eq!(decoded.deadline_ms, 250);
        assert_eq!(decoded.strategy, Some(EvalStrategy::Auto));
        match decoded.body {
            WireBody::Evaluate { threshold, graph } => {
                assert_eq!(threshold, 0.9);
                assert_eq!(graph, WireGraph::from_bool(&cond).unwrap().to_bytes());
            }
            _ => panic!("wrong request kind"),
        }
    }

    #[test]
    fn strategy_and_provenance_roundtrip() {
        // Every strategy override crosses the request header intact.
        for strategy in [
            None,
            Some(EvalStrategy::Auto),
            Some(EvalStrategy::SamplingOnly),
            Some(EvalStrategy::ExactOnly),
        ] {
            let request = Request {
                tenant: 3,
                kind: RequestKind::Evaluate {
                    cond: Uncertain::bernoulli(0.5).unwrap(),
                    threshold: 0.5,
                },
                timeout: None,
                strategy,
                trace: None,
            };
            let payload = encode_request(1, &request).expect("expressible");
            let decoded = decode_request_body(&payload[8..]).expect("well-formed");
            assert_eq!(decoded.strategy, strategy);
        }
        // Every exact method crosses the outcome payload intact.
        for method in [
            ExactMethod::BetaChain,
            ExactMethod::GaussianCdf,
            ExactMethod::Moment,
        ] {
            let outcome = HypothesisOutcome {
                threshold: 0.5,
                accepted: true,
                conclusive: true,
                samples: 0,
                estimate: 0.75,
                provenance: Provenance::Exact { method },
            };
            assert_eq!(
                roundtrip_response(Ok(Response::Outcome(outcome))),
                Ok(Response::Outcome(outcome))
            );
        }
    }

    #[test]
    fn opaque_graphs_fail_request_encode() {
        let opaque = Uncertain::from_fn("custom", |rng| {
            use rand::Rng;
            rng.gen::<f64>()
        });
        let request = Request {
            tenant: 0,
            kind: RequestKind::E {
                expr: opaque,
                n: 16,
            },
            timeout: None,
            strategy: None,
            trace: None,
        };
        assert!(matches!(
            encode_request(0, &request),
            Err(ServeError::Wire(WireError::Unsupported(_)))
        ));
    }

    #[test]
    fn trace_context_roundtrips_the_request_header() {
        for (ctx, label) in [
            (
                Some(TraceContext {
                    trace_id: 0xDEAD_BEEF_CAFE_F00D,
                    parent_span: 7,
                    sampled: true,
                }),
                "sampled",
            ),
            (
                Some(TraceContext {
                    trace_id: 42,
                    parent_span: 0,
                    sampled: false,
                }),
                "unsampled",
            ),
            (None, "absent"),
        ] {
            let request = Request {
                tenant: 9,
                kind: RequestKind::Evaluate {
                    cond: Uncertain::bernoulli(0.5).unwrap(),
                    threshold: 0.5,
                },
                timeout: None,
                strategy: None,
                trace: ctx,
            };
            let payload = encode_request(2, &request).expect("expressible");
            let decoded = decode_request_body(&payload[8..]).expect("well-formed");
            assert_eq!(decoded.trace, ctx, "{label}");
        }
    }

    #[test]
    fn trace_echo_roundtrips_the_response() {
        let bytes = encode_response(4, &Ok(Response::Mean(1.5)), Some(0x1234_5678));
        let (id, echo, decoded) = decode_response(&bytes).expect("well-formed");
        assert_eq!(id, 4);
        assert_eq!(echo, Some(0x1234_5678));
        assert_eq!(decoded, Ok(Response::Mean(1.5)));
    }

    #[test]
    fn bad_trace_flag_bytes_are_malformed_not_panics() {
        // A well-formed traced request, then corrupt its trace flag byte
        // (offset: id 8 + tenant 8 + deadline 8 + strategy 1 = byte 25).
        let request = Request {
            tenant: 1,
            kind: RequestKind::Evaluate {
                cond: Uncertain::bernoulli(0.5).unwrap(),
                threshold: 0.5,
            },
            timeout: None,
            strategy: None,
            trace: Some(TraceContext {
                trace_id: 1,
                parent_span: 0,
                sampled: true,
            }),
        };
        let mut payload = encode_request(0, &request).expect("expressible");
        assert_eq!(payload[25], TRACE_PRESENT | TRACE_SAMPLED);
        payload[25] = 0xFF;
        assert!(matches!(
            decode_request_body(&payload[8..]),
            Err(WireError::Malformed(_))
        ));
        // Flag bit1 without bit0 (sampled-but-no-context) is also illegal.
        payload[25] = TRACE_SAMPLED;
        assert!(decode_request_body(&payload[8..]).is_err());
        // And a bad response echo byte is malformed too.
        let mut reply = encode_response(0, &Ok(Response::Mean(0.0)), Some(3));
        reply[8] = 9;
        assert!(matches!(
            decode_response(&reply),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        let hostile = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut cursor = io::Cursor::new(hostile.to_vec());
        assert!(read_frame(&mut cursor).is_err(), "oversize cap");

        // EOF mid-frame is an error, not a clean close.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, b"full frame").unwrap();
        truncated.truncate(7);
        let mut cursor = io::Cursor::new(truncated);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn incremental_decoder_matches_blocking_reader_byte_by_byte() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"alpha").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, &[7u8; 300]).unwrap();

        // Worst-case fragmentation: one byte per push.
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for b in &stream {
            dec.push(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], b"alpha");
        assert_eq!(frames[1], b"");
        assert_eq!(frames[2], vec![7u8; 300]);
        assert!(!dec.mid_frame(), "stream ended at a frame boundary");
    }

    #[test]
    fn incremental_decoder_rejects_oversize_before_payload_arrives() {
        let mut dec = FrameDecoder::new();
        dec.push(&((MAX_FRAME + 1) as u32).to_le_bytes());
        assert!(dec.next_frame().is_err(), "hostile prefix, zero payload");
    }

    #[test]
    fn incremental_decoder_reports_mid_frame_state() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"cut short").unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..stream.len() - 2]);
        assert_eq!(dec.next_frame().unwrap(), None, "incomplete");
        assert!(dec.mid_frame(), "EOF here would be a protocol error");
        dec.push(&stream[stream.len() - 2..]);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"cut short");
        assert!(!dec.mid_frame());
    }

    #[test]
    fn incremental_decoder_compacts_consumed_prefix() {
        // Many frames through one decoder must not grow the buffer
        // linearly with bytes ever received.
        let mut frame = Vec::new();
        write_frame(&mut frame, &[9u8; 1024]).unwrap();
        let mut dec = FrameDecoder::new();
        for _ in 0..256 {
            dec.push(&frame);
            assert_eq!(dec.next_frame().unwrap().unwrap(), vec![9u8; 1024]);
        }
        assert_eq!(dec.buffered(), 0);
        assert!(
            dec.buf.capacity() < 64 * 1024,
            "buffer kept growing: {} bytes after 256 KiB-scale frames",
            dec.buf.capacity()
        );
    }

    proptest! {
        /// The incremental decoder is bitwise equivalent to the blocking
        /// `read_frame` oracle on the same byte stream, however the
        /// stream is split into `push` chunks: same frames in the same
        /// order, and corrupt streams fail at the same frame index.
        #[test]
        fn incremental_decoder_matches_one_shot_oracle(
            payload_lens in proptest::collection::vec(0usize..200, 0..8),
            corrupt_flag in 0u8..2,
            splits in proptest::collection::vec(1usize..64, 1..32),
        ) {
            let corrupt = corrupt_flag == 1;
            let mut stream = Vec::new();
            for &len in &payload_lens {
                write_frame(&mut stream, &vec![0xAB; len]).unwrap();
            }
            if corrupt {
                // A frame whose length prefix exceeds the cap: both
                // decoders must reject it after the good frames.
                stream.extend_from_slice(&((MAX_FRAME + 1) as u32).to_le_bytes());
            }

            // Oracle: the blocking reader over the whole stream.
            let mut oracle_frames = Vec::new();
            let mut cursor = io::Cursor::new(stream.clone());
            let oracle_err = loop {
                match read_frame(&mut cursor) {
                    Ok(Some(f)) => oracle_frames.push(f),
                    Ok(None) => break false,
                    Err(_) => break true,
                }
            };

            // Subject: the incremental decoder fed arbitrary chunks.
            let mut dec = FrameDecoder::new();
            let mut dec_frames = Vec::new();
            let mut dec_err = false;
            let mut offset = 0;
            let mut split_iter = splits.iter().cycle();
            'feed: while offset < stream.len() {
                let take = (*split_iter.next().unwrap()).min(stream.len() - offset);
                dec.push(&stream[offset..offset + take]);
                offset += take;
                loop {
                    match dec.next_frame() {
                        Ok(Some(f)) => dec_frames.push(f),
                        Ok(None) => break,
                        Err(_) => {
                            dec_err = true;
                            break 'feed;
                        }
                    }
                }
            }

            prop_assert_eq!(dec_frames, oracle_frames);
            prop_assert_eq!(dec_err, oracle_err);
        }

        /// Every strict prefix of a well-formed response payload decodes
        /// to an error, never a panic or a bogus success.
        #[test]
        fn response_prefixes_never_panic(cut in 0usize..64) {
            let summary = Summary::from_slice(&[1.0, 2.0, 3.0]).unwrap();
            let bytes = encode_response(5, &Ok(Response::Summary(summary)), Some(17));
            let cut = cut.min(bytes.len().saturating_sub(1));
            prop_assert!(decode_response(&bytes[..cut]).is_err());
        }

        /// Arbitrary byte soup never panics the response decoder.
        #[test]
        fn response_decoder_survives_noise(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
            let _ = decode_response(&bytes);
        }

        /// Arbitrary byte soup never panics the request decoder.
        #[test]
        fn request_decoder_survives_noise(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
            let _ = decode_request_body(&bytes);
        }

        /// Scalar replies round-trip bitwise for arbitrary floats
        /// (including negative zero; NaN compares by bit pattern).
        #[test]
        fn means_roundtrip_bitwise(bits in 0u64..=u64::MAX) {
            let m = f64::from_bits(bits);
            let bytes = encode_response(1, &Ok(Response::Mean(m)), Some(bits));
            let (_, echo, decoded) = decode_response(&bytes).unwrap();
            prop_assert_eq!(echo, Some(bits));
            match decoded {
                Ok(Response::Mean(d)) => prop_assert_eq!(d.to_bits(), bits),
                other => return Err(TestCaseError::fail(format!("wrong decode: {other:?}"))),
            }
        }
    }
}
