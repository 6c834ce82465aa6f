//! The wire protocol: versioned, length-prefixed frames carrying one-line
//! requests and text responses.
//!
//! A **frame** is a single ASCII digit naming the protocol version
//! ([`PROTO_VERSION`]), the ASCII decimal byte length of the payload, a
//! newline, then exactly that many payload bytes. The header stays
//! human-typable (`115\n` is "version 1, 15 bytes") and the payload is the
//! existing text formats (request lines, `.sched` artifacts, metrics
//! JSON), so a session can be driven or inspected with standard tools.
//! A well-formed frame of any *other* version is consumed and rejected
//! with a typed `VersionMismatch` — gateway↔node and client↔gateway
//! frames can evolve without silent misparses.
//!
//! Request payloads are a single line:
//!
//! ```text
//! SCHEDULE optflow size=64 iters=3 levels=2 freq=1324,5010 deadline_ms=500
//! FETCH <32 hex>                     peer read-through: raw artifact or NOT_FOUND
//! DIGEST                             anti-entropy: the node's live key set
//! SYNC                               anti-entropy: run one repair round now
//! DRAIN <addr> [off]                 gateway admin: (un)drain a node
//! STATS
//! PING
//! SHUTDOWN
//! ```
//!
//! Response payloads are a status line plus an optional body:
//!
//! ```text
//! OK HIT key=<32 hex> launches=<n>   (body: the .sched text)
//! OK ARTIFACT key=<32 hex>           (body: the raw artifact text)
//! OK DIGEST count=<n>                (body: one 32-hex key per line)
//! OK SYNCED pulled=<p> failed=<f> peers=<n>
//! OK DRAINED node=<addr> draining=<true|false>
//! OK STATS                           (body: metrics JSON)
//! OK PONG
//! OK BYE
//! ERR <CODE> <message>
//! ```
//!
//! **Request frame cap.** Every request is one short line, so a
//! server-side decoder built with [`FrameDecoder::for_requests`] caps
//! request payloads at [`MAX_REQUEST_FRAME`], checked as soon as the frame
//! header is read: an over-cap frame is never buffered — the decoder
//! discards its payload as it streams in (framing stays intact) and
//! reports [`DecodeEvent::Oversized`] so the server can answer with a
//! typed error instead of first allocating up to [`MAX_FRAME`] bytes.

use std::io::{self, BufRead, Write};

use crate::key::CacheKey;
use crate::service::{Outcome, ScheduleRequest, ScheduleResponse, SvcError, WorkloadSpec};

/// The protocol version this build speaks, written as the leading byte of
/// every frame header. Bump it when the meaning of any frame changes; a
/// peer of another version is answered with `ERR VERSION` and dropped
/// instead of misparsed.
pub const PROTO_VERSION: u8 = 1;

/// Largest accepted frame payload (64 MiB) — far above any real schedule,
/// small enough that a malformed header cannot ask the server to allocate
/// unbounded memory.
pub const MAX_FRAME: usize = 64 << 20;

/// Largest accepted request payload on a server-side decoder built with
/// [`FrameDecoder::for_requests`]. Every request is one short line, so
/// 4 KiB is orders of magnitude of slack — and rejecting above it means a
/// hostile peer cannot make the server allocate [`MAX_FRAME`] bytes.
pub const MAX_REQUEST_FRAME: usize = 4096;

/// Longest accepted frame header (decimal digits between the version byte
/// and the newline).
const MAX_HEADER_DIGITS: usize = 20;

fn bad(m: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, m)
}

/// The error a reader surfaces for a well-formed frame of a foreign
/// protocol version ([`io::ErrorKind::Unsupported`], so transport errors
/// and version skew stay distinguishable).
fn version_error(got: u8) -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        format!("peer speaks protocol version {got}, this build speaks {PROTO_VERSION}"),
    )
}

/// Writes one frame.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] when the payload exceeds [`MAX_FRAME`];
/// otherwise any transport error.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the {MAX_FRAME}-byte limit", payload.len()),
        ));
    }
    writeln!(w, "{PROTO_VERSION}{}", payload.len())?;
    w.write_all(payload)?;
    w.flush()
}

/// One completed unit of [`FrameDecoder`] output.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeEvent {
    /// A complete frame of the supported version.
    Frame(Vec<u8>),
    /// A well-formed frame of a foreign version; its payload was consumed
    /// and discarded so the stream stays framed, and the caller can answer
    /// with a typed [`SvcError::VersionMismatch`] before closing.
    BadVersion {
        /// The version byte the peer sent.
        got: u8,
    },
    /// A frame whose declared payload exceeds [`MAX_REQUEST_FRAME`] on a
    /// capped decoder ([`FrameDecoder::for_requests`]). The payload was
    /// consumed and discarded — never buffered — so the stream stays
    /// framed and the server can answer with a typed
    /// [`SvcError::BadRequest`].
    Oversized {
        /// The payload length the frame header declared.
        declared: usize,
    },
}

#[derive(Debug)]
enum DecodeState {
    /// Waiting for the version byte of the next frame.
    Version,
    /// Version consumed; accumulating length digits up to the newline.
    Length { version: u8, digits: Vec<u8> },
    /// Header complete; consuming payload bytes.
    Payload { version: u8, expected: usize, got: Vec<u8> },
    /// An over-cap frame: consuming (and dropping) the payload remainder
    /// so the stream stays framed.
    Discard { declared: usize, remaining: usize },
}

/// An incremental frame decoder: feed it whatever bytes a non-blocking
/// read produced, collect completed frames. This is the piece a readiness
/// event loop needs — no thread may block inside a half-received frame,
/// so all parser state lives here between reads. The blocking readers
/// ([`read_frame`], [`read_frame_polled`]) are thin drivers over it.
#[derive(Debug)]
pub struct FrameDecoder {
    state: DecodeState,
    frame_cap: Option<usize>,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder at a frame boundary capped only by [`MAX_FRAME`] (the
    /// right choice for response streams, where artifacts are the norm).
    pub fn new() -> Self {
        FrameDecoder { state: DecodeState::Version, frame_cap: None }
    }

    /// A decoder for server-side request streams: payloads are held to
    /// [`MAX_REQUEST_FRAME`]. An over-cap frame is consumed without
    /// buffering and reported as [`DecodeEvent::Oversized`].
    pub fn for_requests() -> Self {
        FrameDecoder { state: DecodeState::Version, frame_cap: Some(MAX_REQUEST_FRAME) }
    }

    /// Whether at least one byte of the current frame has been consumed —
    /// the flag that separates an *idle* peer (fine to wait on forever)
    /// from a *stalled* one (worth a deadline).
    pub fn mid_frame(&self) -> bool {
        !matches!(self.state, DecodeState::Version)
    }

    /// How many payload bytes the current frame still needs, when the
    /// decoder is inside a payload. Callers reading from a shared stream
    /// use it to cap reads at the frame boundary.
    pub fn payload_wanted(&self) -> Option<usize> {
        match &self.state {
            DecodeState::Payload { expected, got, .. } => Some(expected - got.len()),
            DecodeState::Discard { remaining, .. } => Some(*remaining),
            _ => None,
        }
    }

    /// Consumes `bytes`, appending every completed frame to `events`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on a malformed header (non-digit
    /// where a digit belongs, empty or oversized length). The decoder is
    /// unusable afterwards — the stream has lost framing and must be
    /// dropped.
    pub fn feed(&mut self, mut bytes: &[u8], events: &mut Vec<DecodeEvent>) -> io::Result<()> {
        while !bytes.is_empty() {
            match &mut self.state {
                DecodeState::Version => {
                    let b = bytes[0];
                    bytes = &bytes[1..];
                    if !b.is_ascii_digit() {
                        return Err(bad(format!("malformed frame version byte 0x{b:02x}")));
                    }
                    self.state = DecodeState::Length { version: b - b'0', digits: Vec::new() };
                }
                DecodeState::Length { version, digits } => {
                    let b = bytes[0];
                    bytes = &bytes[1..];
                    if b == b'\n' {
                        if digits.is_empty() {
                            return Err(bad("empty frame length".into()));
                        }
                        let len: usize = std::str::from_utf8(digits)
                            .ok()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| bad("unparseable frame length".into()))?;
                        if len > MAX_FRAME {
                            return Err(bad(format!(
                                "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
                            )));
                        }
                        let version = *version;
                        // Foreign-version payloads are consumed and dropped
                        // wholesale by `complete`, so the cap only concerns
                        // our own version.
                        let over_cap =
                            version == PROTO_VERSION && self.frame_cap.is_some_and(|cap| len > cap);
                        if over_cap {
                            self.state = DecodeState::Discard { declared: len, remaining: len };
                        } else if len == 0 {
                            events.push(Self::complete(version, Vec::new()));
                            self.state = DecodeState::Version;
                        } else {
                            self.state = DecodeState::Payload {
                                version,
                                expected: len,
                                got: Vec::with_capacity(len.min(64 << 10)),
                            };
                        }
                    } else if !b.is_ascii_digit() || digits.len() >= MAX_HEADER_DIGITS {
                        return Err(bad(format!("malformed frame header byte 0x{b:02x}")));
                    } else {
                        digits.push(b);
                    }
                }
                DecodeState::Payload { version, expected, got } => {
                    let take = (*expected - got.len()).min(bytes.len());
                    got.extend_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                    if got.len() == *expected {
                        let payload = std::mem::take(got);
                        events.push(Self::complete(*version, payload));
                        self.state = DecodeState::Version;
                    }
                }
                DecodeState::Discard { declared, remaining } => {
                    let take = (*remaining).min(bytes.len());
                    bytes = &bytes[take..];
                    *remaining -= take;
                    if *remaining == 0 {
                        events.push(DecodeEvent::Oversized { declared: *declared });
                        self.state = DecodeState::Version;
                    }
                }
            }
        }
        Ok(())
    }

    fn complete(version: u8, payload: Vec<u8>) -> DecodeEvent {
        if version == PROTO_VERSION {
            DecodeEvent::Frame(payload)
        } else {
            DecodeEvent::BadVersion { got: version }
        }
    }
}

/// Reads one frame; `Ok(None)` on a clean end-of-stream (EOF before the
/// first header byte).
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for malformed or oversized headers and
/// for EOF mid-frame; [`io::ErrorKind::Unsupported`] for a well-formed
/// frame of a foreign protocol version (consumed, so the caller may still
/// answer on the stream); otherwise any transport error (including
/// `WouldBlock`/`TimedOut` from a read timeout, which callers polling an
/// idle connection should treat as "no frame yet").
pub fn read_frame<R: BufRead>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    read_frame_polled(r, |_, e| Err(e))
}

/// Reads one frame from a stream with a read timeout, retrying timed-out
/// reads **without losing partial progress** — a `WouldBlock` surfacing
/// mid-header or mid-payload leaves all parser state in the
/// [`FrameDecoder`] this reader drives.
///
/// On every `WouldBlock`/`TimedOut` read, `on_block(mid_frame, err)` is
/// consulted: return `Ok(())` to retry the read (the socket's own read
/// timeout paces the polling), or `Err(..)` to abort with that error.
/// `mid_frame` is true once at least one byte of the current frame has
/// been consumed.
///
/// # Errors
///
/// As [`read_frame`], plus whatever `on_block` returns to abort.
pub fn read_frame_polled<R: BufRead>(
    r: &mut R,
    mut on_block: impl FnMut(bool, io::Error) -> io::Result<()>,
) -> io::Result<Option<Vec<u8>>> {
    let mut dec = FrameDecoder::new();
    let mut events = Vec::new();
    let mut scratch = [0u8; 8192];
    loop {
        // Never read past the current frame: one byte at a time through the
        // header, then exactly the payload remainder (the BufRead amortizes
        // the byte-sized reads).
        let want = dec.payload_wanted().map_or(1, |n| n.clamp(1, scratch.len()));
        match r.read(&mut scratch[..want]) {
            Ok(0) => {
                if !dec.mid_frame() {
                    return Ok(None);
                }
                return Err(bad("end of stream inside a frame".into()));
            }
            Ok(n) => {
                dec.feed(&scratch[..n], &mut events)?;
                if let Some(ev) = events.pop() {
                    match ev {
                        DecodeEvent::Frame(p) => return Ok(Some(p)),
                        DecodeEvent::BadVersion { got } => return Err(version_error(got)),
                        // Unreachable: the blocking readers drive an
                        // uncapped decoder.
                        DecodeEvent::Oversized { declared } => {
                            return Err(bad(format!("oversized frame ({declared} bytes)")));
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                on_block(dec.mid_frame(), e)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Request a schedule.
    Schedule(ScheduleRequest),
    /// Peer read-through: fetch the raw artifact of a content key, if this
    /// node's cache holds it. The receiver does **no** computation and no
    /// verification — the fetching peer re-verifies against its own
    /// request context before serving or storing the artifact.
    Fetch(CacheKey),
    /// Anti-entropy: ask for the node's live cache key set (one key per
    /// body line in the response) so a replica peer can pull what it is
    /// missing.
    Digest,
    /// Anti-entropy: run one repair round against the node's configured
    /// peers right now and report what it pulled.
    Sync,
    /// Gateway admin: drain (`on == true`) or restore (`on == false`) a
    /// node. A draining node keeps being health-probed but receives no new
    /// traffic.
    Drain {
        /// The node address exactly as listed in the gateway config.
        node: String,
        /// `true` to drain, `false` to restore.
        on: bool,
    },
    /// Request the metrics registry as JSON.
    Stats,
    /// Liveness check.
    Ping,
    /// Ask the server to stop accepting connections and shut down.
    Shutdown,
}

impl Request {
    /// Whether retrying this request after a transport failure is safe.
    /// Scheduling is a pure function of its inputs,
    /// `FETCH`/`DIGEST`/`STATS`/`PING` are read-only,
    /// `SYNC` converges toward the same state however often it runs, and
    /// `DRAIN` sets a flag to an absolute value; `SHUTDOWN` is not
    /// idempotent — a retry could reach (and kill) a freshly restarted
    /// server.
    pub fn is_idempotent(&self) -> bool {
        match self {
            Request::Schedule(_)
            | Request::Fetch(_)
            | Request::Digest
            | Request::Sync
            | Request::Drain { .. }
            | Request::Stats
            | Request::Ping => true,
            Request::Shutdown => false,
        }
    }

    /// Renders the request line.
    pub fn to_line(&self) -> String {
        match self {
            Request::Schedule(req) => {
                let mut line =
                    format!("SCHEDULE {} freq={},{}", req.workload, req.gpu_mhz, req.mem_mhz);
                if let Some(ms) = req.deadline_ms {
                    line.push_str(&format!(" deadline_ms={ms}"));
                }
                line
            }
            Request::Fetch(key) => format!("FETCH {key}"),
            Request::Digest => "DIGEST".into(),
            Request::Sync => "SYNC".into(),
            Request::Drain { node, on } => {
                format!("DRAIN {node}{}", if *on { "" } else { " off" })
            }
            Request::Stats => "STATS".into(),
            Request::Ping => "PING".into(),
            Request::Shutdown => "SHUTDOWN".into(),
        }
    }

    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        self.to_line().into_bytes()
    }

    /// Parses a request line.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed line.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.split_first() {
            Some((&"SCHEDULE", rest)) => {
                let mut gpu_mhz = None;
                let mut mem_mhz = None;
                let mut deadline_ms = None;
                let mut workload_tokens = Vec::new();
                for tok in rest {
                    if let Some(v) = tok.strip_prefix("freq=") {
                        let (g, m) = v
                            .split_once(',')
                            .ok_or_else(|| format!("freq must be gpu,mem MHz, got '{v}'"))?;
                        gpu_mhz = Some(g.parse().map_err(|_| format!("bad gpu MHz in '{tok}'"))?);
                        mem_mhz = Some(m.parse().map_err(|_| format!("bad mem MHz in '{tok}'"))?);
                    } else if let Some(v) = tok.strip_prefix("deadline_ms=") {
                        deadline_ms =
                            Some(v.parse().map_err(|_| format!("bad deadline in '{tok}'"))?);
                    } else {
                        workload_tokens.push(*tok);
                    }
                }
                let workload = WorkloadSpec::parse(&workload_tokens)?;
                let defaults = ScheduleRequest::new(workload);
                Ok(Request::Schedule(ScheduleRequest {
                    workload,
                    gpu_mhz: gpu_mhz.unwrap_or(defaults.gpu_mhz),
                    mem_mhz: mem_mhz.unwrap_or(defaults.mem_mhz),
                    deadline_ms,
                }))
            }
            Some((&"FETCH", [key])) => {
                let key = key.parse().map_err(|_| format!("bad cache key '{key}'"))?;
                Ok(Request::Fetch(key))
            }
            Some((&"DIGEST", [])) => Ok(Request::Digest),
            Some((&"SYNC", [])) => Ok(Request::Sync),
            Some((&"DRAIN", rest)) => match rest {
                [node] | [node, "on"] => Ok(Request::Drain { node: (*node).to_string(), on: true }),
                [node, "off"] => Ok(Request::Drain { node: (*node).to_string(), on: false }),
                _ => Err("DRAIN takes a node address and an optional on|off".into()),
            },
            Some((&"STATS", [])) => Ok(Request::Stats),
            Some((&"PING", [])) => Ok(Request::Ping),
            Some((&"SHUTDOWN", [])) => Ok(Request::Shutdown),
            Some((&verb, _)) => Err(format!("unknown or malformed request '{verb}'")),
            None => Err("empty request".into()),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed payload.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "request is not UTF-8".to_string())?;
        Self::parse_line(text.lines().next().unwrap_or(""))
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A served schedule.
    Schedule(ScheduleResponse),
    /// A raw artifact answering a [`Request::Fetch`].
    Artifact {
        /// The content key the artifact is stored under.
        key: CacheKey,
        /// The artifact's exact bytes as stored.
        text: String,
    },
    /// The node's live cache key set answering a [`Request::Digest`].
    Digest(Vec<CacheKey>),
    /// Result of a [`Request::Sync`] repair round.
    Synced {
        /// Artifacts pulled from peers and stored this round.
        pulled: u64,
        /// Keys that could not be pulled (transport, parse, or store).
        failed: u64,
        /// Peers consulted.
        peers: usize,
    },
    /// Acknowledgement of a [`Request::Drain`].
    Drained {
        /// The node address as listed in the gateway config.
        node: String,
        /// The node's draining flag after applying the request.
        draining: bool,
    },
    /// The metrics registry as JSON.
    Stats(String),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Acknowledgement of [`Request::Shutdown`].
    Bye,
    /// The request failed.
    Err(SvcError),
}

impl Response {
    /// Encodes the response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Schedule(r) => format!(
                "OK {} key={} launches={}\n{}",
                r.outcome.as_str(),
                r.key,
                r.launches,
                r.text
            )
            .into_bytes(),
            Response::Artifact { key, text } => {
                format!("OK ARTIFACT key={key}\n{text}").into_bytes()
            }
            Response::Digest(keys) => {
                let mut out = format!("OK DIGEST count={}", keys.len());
                for key in keys {
                    out.push('\n');
                    out.push_str(&key.to_string());
                }
                out.into_bytes()
            }
            Response::Synced { pulled, failed, peers } => {
                format!("OK SYNCED pulled={pulled} failed={failed} peers={peers}").into_bytes()
            }
            Response::Drained { node, draining } => {
                format!("OK DRAINED node={node} draining={draining}").into_bytes()
            }
            Response::Stats(json) => format!("OK STATS\n{json}").into_bytes(),
            Response::Pong => b"OK PONG".to_vec(),
            Response::Bye => b"OK BYE".to_vec(),
            Response::Err(e) => {
                let msg = match e {
                    SvcError::BadRequest(m) | SvcError::Pipeline(m) | SvcError::Internal(m) => {
                        m.clone()
                    }
                    SvcError::VersionMismatch { got, expected } => {
                        format!("got={got} expected={expected}")
                    }
                    _ => String::new(),
                };
                // The message must stay on the status line.
                let msg = msg.replace('\n', " ");
                format!("ERR {} {msg}", e.code()).trim_end().to_string().into_bytes()
            }
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed payload.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "response is not UTF-8".to_string())?;
        let (status, body) = match text.split_once('\n') {
            Some((s, b)) => (s, b),
            None => (text, ""),
        };
        let tokens: Vec<&str> = status.split_whitespace().collect();
        match tokens.as_slice() {
            ["OK", "PONG"] => Ok(Response::Pong),
            ["OK", "BYE"] => Ok(Response::Bye),
            ["OK", "STATS"] => Ok(Response::Stats(body.to_string())),
            ["OK", "ARTIFACT", key] => {
                let key = key
                    .strip_prefix("key=")
                    .and_then(|k| k.parse().ok())
                    .ok_or_else(|| format!("bad key field '{key}'"))?;
                Ok(Response::Artifact { key, text: body.to_string() })
            }
            ["OK", "DIGEST", count] => {
                let count: usize = count
                    .strip_prefix("count=")
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("bad count field '{count}'"))?;
                let mut keys = Vec::with_capacity(count.min(1 << 16));
                for line in body.lines().filter(|l| !l.is_empty()) {
                    keys.push(line.parse().map_err(|_| format!("bad digest key '{line}'"))?);
                }
                if keys.len() != count {
                    return Err(format!(
                        "digest declared {count} keys but the body carries {}",
                        keys.len()
                    ));
                }
                Ok(Response::Digest(keys))
            }
            ["OK", "SYNCED", pulled, failed, peers] => {
                let pulled = pulled
                    .strip_prefix("pulled=")
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("bad pulled field '{pulled}'"))?;
                let failed = failed
                    .strip_prefix("failed=")
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("bad failed field '{failed}'"))?;
                let peers = peers
                    .strip_prefix("peers=")
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("bad peers field '{peers}'"))?;
                Ok(Response::Synced { pulled, failed, peers })
            }
            ["OK", "DRAINED", node, draining] => {
                let node = node
                    .strip_prefix("node=")
                    .ok_or_else(|| format!("bad node field '{node}'"))?
                    .to_string();
                let draining = draining
                    .strip_prefix("draining=")
                    .and_then(|b| b.parse().ok())
                    .ok_or_else(|| format!("bad draining field '{draining}'"))?;
                Ok(Response::Drained { node, draining })
            }
            ["OK", outcome, key, launches] => {
                let outcome = Outcome::from_str_token(outcome)
                    .ok_or_else(|| format!("unknown outcome '{outcome}'"))?;
                let key = key
                    .strip_prefix("key=")
                    .and_then(|k| k.parse().ok())
                    .ok_or_else(|| format!("bad key field '{key}'"))?;
                let launches = launches
                    .strip_prefix("launches=")
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("bad launches field '{launches}'"))?;
                Ok(Response::Schedule(ScheduleResponse {
                    outcome,
                    key,
                    launches,
                    text: body.to_string(),
                }))
            }
            ["ERR", code, rest @ ..] => {
                Ok(Response::Err(SvcError::from_code(code, &rest.join(" "))))
            }
            _ => Err(format!("malformed status line '{status}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::CacheKey;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn frames_carry_the_version_byte() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(buf, b"15\nhello", "version byte, length, newline, payload");
    }

    #[test]
    fn foreign_version_frames_are_consumed_and_reported() {
        // A well-formed version-2 frame: its payload must be consumed (the
        // stream stays framed for the error reply) and the error typed.
        let mut r = Cursor::new(b"25\nhello15\nworld".to_vec());
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{err}");
        assert!(err.to_string().contains("version 2"), "{err}");
        // The next (version-1) frame on the same stream still decodes.
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"world");
    }

    #[test]
    fn malformed_frames_are_rejected() {
        for bad in ["x\nzz", "1\nab", "1x5\nab", "199999999999999999999999\n", "\n"] {
            let mut r = Cursor::new(bad.as_bytes().to_vec());
            assert!(read_frame(&mut r).is_err(), "{bad:?} should be rejected");
        }
        // Oversized declared length.
        let mut r = Cursor::new(format!("1{}\n", MAX_FRAME + 1).into_bytes());
        assert!(read_frame(&mut r).is_err());
        // Oversized write.
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME + 1]).is_err());
    }

    #[test]
    fn decoder_reassembles_frames_from_arbitrary_chunking() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first frame").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"second, longer frame with\nnewlines\n").unwrap();
        for chunk in [1usize, 2, 3, 7, wire.len()] {
            let mut dec = FrameDecoder::new();
            let mut events = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.feed(piece, &mut events).unwrap();
            }
            assert_eq!(
                events,
                vec![
                    DecodeEvent::Frame(b"first frame".to_vec()),
                    DecodeEvent::Frame(Vec::new()),
                    DecodeEvent::Frame(b"second, longer frame with\nnewlines\n".to_vec()),
                ],
                "chunk size {chunk}"
            );
            assert!(!dec.mid_frame(), "decoder back at a frame boundary");
        }
    }

    #[test]
    fn decoder_flags_mid_frame_and_foreign_versions() {
        let mut dec = FrameDecoder::new();
        let mut events = Vec::new();
        assert!(!dec.mid_frame());
        dec.feed(b"1", &mut events).unwrap();
        assert!(dec.mid_frame(), "version byte consumed");
        dec.feed(b"5\nhel", &mut events).unwrap();
        assert!(dec.mid_frame(), "payload incomplete");
        assert_eq!(dec.payload_wanted(), Some(2));
        dec.feed(b"lo", &mut events).unwrap();
        assert_eq!(events, vec![DecodeEvent::Frame(b"hello".to_vec())]);
        assert!(!dec.mid_frame());

        events.clear();
        dec.feed(b"73\nxyz", &mut events).unwrap();
        assert_eq!(events, vec![DecodeEvent::BadVersion { got: 7 }]);
        assert!(!dec.mid_frame(), "foreign frame fully consumed");
    }

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Schedule(ScheduleRequest {
                workload: WorkloadSpec::OptFlow { size: 64, iters: 3, levels: 2 },
                gpu_mhz: 1324.0,
                mem_mhz: 5010.0,
                deadline_ms: Some(250),
            }),
            Request::Schedule(ScheduleRequest::new(WorkloadSpec::OptFlow {
                size: 512,
                iters: 30,
                levels: 3,
            })),
            Request::Fetch(CacheKey { hi: 0xfeed, lo: 0xbeef }),
            Request::Digest,
            Request::Sync,
            Request::Drain { node: "127.0.0.1:4100".into(), on: true },
            Request::Drain { node: "127.0.0.1:4100".into(), on: false },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            let decoded = Request::decode(&req.encode()).unwrap();
            assert_eq!(decoded, req, "{}", req.to_line());
        }
        // `DRAIN <addr> on` is accepted as the explicit spelling.
        assert_eq!(
            Request::parse_line("DRAIN 10.0.0.1:4100 on").unwrap(),
            Request::Drain { node: "10.0.0.1:4100".into(), on: true }
        );
    }

    #[test]
    fn schedule_request_defaults_apply() {
        let req = Request::parse_line("SCHEDULE optflow size=64 iters=3 levels=2").unwrap();
        let Request::Schedule(req) = req else { panic!("not a schedule request") };
        assert_eq!(req.gpu_mhz, 1324.0);
        assert_eq!(req.mem_mhz, 5010.0);
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn bad_requests_are_rejected() {
        for bad in [
            "",
            "FETCH optflow",
            "FETCH",
            "PUT 0123456789abcdef0123456789abcdef",
            "SCHEDULE mandelbrot",
            "SCHEDULE optflow freq=fast,5010",
            "SCHEDULE optflow freq=1324",
            "SCHEDULE optflow deadline_ms=soon",
            "PING extra",
            "STATS now",
            "DIGEST all",
            "SYNC now",
            "DRAIN",
            "DRAIN node1 maybe",
        ] {
            assert!(Request::parse_line(bad).is_err(), "{bad:?} should be rejected");
        }
        assert!(Request::decode(&[0xff, 0xfe]).is_err(), "non-UTF-8 rejected");
    }

    /// A reader that interleaves `WouldBlock` pauses between the chunks of
    /// a frame, like a socket with a read timeout receiving a slow sender.
    struct Trickle {
        chunks: Vec<Vec<u8>>,
        next: usize,
        blocked: bool,
    }

    impl std::io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.next >= self.chunks.len() {
                return Ok(0);
            }
            if !self.blocked {
                self.blocked = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
            }
            self.blocked = false;
            let chunk = &self.chunks[self.next];
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n == chunk.len() {
                self.next += 1;
            } else {
                self.chunks[self.next] = chunk[n..].to_vec();
            }
            Ok(n)
        }
    }

    #[test]
    fn polled_reads_survive_mid_frame_timeouts_without_losing_bytes() {
        // "15\nhello" delivered one byte at a time, a WouldBlock before each.
        let bytes = b"15\nhello";
        let r =
            Trickle { chunks: bytes.iter().map(|&b| vec![b]).collect(), next: 0, blocked: false };
        let mut blocks = 0u32;
        let mut mid_frames = 0u32;
        let mut reader = std::io::BufReader::with_capacity(1, r);
        let payload = read_frame_polled(&mut reader, |mid, _e| {
            blocks += 1;
            if mid {
                mid_frames += 1;
            }
            Ok(())
        })
        .unwrap()
        .unwrap();
        assert_eq!(payload, b"hello");
        assert!(blocks >= bytes.len() as u32, "one block per byte at least: {blocks}");
        assert!(mid_frames >= blocks - 1, "all but the first block are mid-frame");
    }

    #[test]
    fn polled_reads_abort_when_the_callback_says_so() {
        let r = Trickle { chunks: vec![b"15\nhe".to_vec()], next: 0, blocked: false };
        let mut reader = std::io::BufReader::with_capacity(1, r);
        // Allow two blocks, then give up: simulates a stall deadline.
        let mut budget = 2u32;
        let err = read_frame_polled(&mut reader, |_mid, e| {
            if budget == 0 {
                return Err(e);
            }
            budget -= 1;
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn idempotency_flags() {
        assert!(Request::Ping.is_idempotent());
        assert!(Request::Stats.is_idempotent());
        assert!(Request::Fetch(CacheKey { hi: 1, lo: 2 }).is_idempotent());
        assert!(Request::Schedule(ScheduleRequest::new(WorkloadSpec::OptFlow {
            size: 64,
            iters: 3,
            levels: 2
        }))
        .is_idempotent());
        assert!(Request::Digest.is_idempotent());
        assert!(Request::Sync.is_idempotent());
        assert!(Request::Drain { node: "n".into(), on: true }.is_idempotent());
        assert!(!Request::Shutdown.is_idempotent());
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Schedule(ScheduleResponse {
                outcome: Outcome::Hit,
                key: CacheKey { hi: 0xdead_beef, lo: 0x1234 },
                launches: 7,
                text: "# schedule\nlaunch k0: all\n".to_string(),
            }),
            Response::Artifact {
                key: CacheKey { hi: 5, lo: 6 },
                text: "# schedule\nlaunch k1: all\n".to_string(),
            },
            Response::Digest(vec![]),
            Response::Digest(vec![CacheKey { hi: 0xdead, lo: 0xbeef }, CacheKey { hi: 1, lo: 2 }]),
            Response::Synced { pulled: 12, failed: 1, peers: 2 },
            Response::Drained { node: "127.0.0.1:4100".into(), draining: true },
            Response::Drained { node: "127.0.0.1:4101".into(), draining: false },
            Response::Stats("{\"requests\": 3}".to_string()),
            Response::Pong,
            Response::Bye,
            Response::Err(SvcError::Shed),
            Response::Err(SvcError::DeadlineExceeded),
            Response::Err(SvcError::NotFound),
            Response::Err(SvcError::VersionMismatch { got: 2, expected: 1 }),
            Response::Err(SvcError::BadRequest("size must be in 16..=2048".into())),
            Response::Err(SvcError::Pipeline("tiling failed".into())),
            Response::Err(SvcError::Internal("injected fault: pipeline.schedule".into())),
            Response::Schedule(ScheduleResponse {
                outcome: Outcome::DegradedUntiled,
                key: CacheKey { hi: 3, lo: 4 },
                launches: 12,
                text: "# untiled\n".to_string(),
            }),
            Response::Schedule(ScheduleResponse {
                outcome: Outcome::PeerFill,
                key: CacheKey { hi: 8, lo: 9 },
                launches: 4,
                text: "# peer\n".to_string(),
            }),
        ];
        for resp in resps {
            let decoded = Response::decode(&resp.encode()).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn digest_count_must_match_the_body() {
        let err =
            Response::decode(b"OK DIGEST count=2\n00000000000000000000000000000001").unwrap_err();
        assert!(err.contains("declared 2"), "{err}");
    }

    #[test]
    fn oversized_control_frames_are_discarded_not_buffered() {
        // Every request is held to the same cap, whatever it leads with:
        // a padded control line, an unknown verb carrying an artifact
        // body, and a `SCHEDULE` line padded past 4 KiB.
        let put = format!("PUT {}\n# schedule\n", CacheKey { hi: 1, lo: 2 });
        for lead in [&b"PING "[..], put.as_bytes(), b"SCHEDULE optflow size=64 "] {
            let declared = MAX_REQUEST_FRAME + 1;
            let mut wire = format!("{PROTO_VERSION}{declared}\n").into_bytes();
            let mut payload = lead.to_vec();
            payload.resize(declared, b'x');
            wire.extend_from_slice(&payload);
            // A well-formed frame behind the oversized one must still
            // decode: the discard keeps the stream framed.
            write_frame(&mut wire, b"PING").unwrap();

            for chunk in [1usize, 7, wire.len()] {
                let mut dec = FrameDecoder::for_requests();
                let mut events = Vec::new();
                for piece in wire.chunks(chunk) {
                    dec.feed(piece, &mut events).unwrap();
                    // Never buffered: the header alone condemns the frame.
                    let buffering = matches!(
                        dec.state,
                        DecodeState::Payload { expected, .. } if expected == declared
                    );
                    assert!(!buffering, "an over-cap payload must not be buffered");
                }
                assert_eq!(
                    events,
                    vec![DecodeEvent::Oversized { declared }, DecodeEvent::Frame(b"PING".to_vec())],
                    "chunk size {chunk}, lead {:?}",
                    String::from_utf8_lossy(lead)
                );
                assert!(!dec.mid_frame(), "back at a frame boundary");
            }
        }
    }

    #[test]
    fn in_budget_control_frames_pass_a_budgeted_decoder_untouched() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"STATS").unwrap();
        write_frame(&mut wire, b"DIGEST").unwrap();
        let mut dec = FrameDecoder::for_requests();
        let mut events = Vec::new();
        dec.feed(&wire, &mut events).unwrap();
        assert_eq!(
            events,
            vec![DecodeEvent::Frame(b"STATS".to_vec()), DecodeEvent::Frame(b"DIGEST".to_vec()),]
        );
    }

    #[test]
    fn schedule_response_body_is_byte_exact() {
        let text = "line one\n\nline three with  spaces\n".to_string();
        let resp = Response::Schedule(ScheduleResponse {
            outcome: Outcome::Miss,
            key: CacheKey { hi: 1, lo: 2 },
            launches: 1,
            text: text.clone(),
        });
        let Response::Schedule(back) = Response::decode(&resp.encode()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(back.text, text);
    }
}
