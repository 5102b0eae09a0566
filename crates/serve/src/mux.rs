//! Nonblocking per-connection framing for the worker-pool server.
//!
//! Each accepted socket becomes a [`Conn`]: a nonblocking stream plus an
//! accumulation buffer that survives between worker visits. A worker
//! drains whatever bytes are readable *right now* ([`Conn::fill`]),
//! pops any complete frames ([`Conn::next_frame`]), and puts the
//! connection back on the shared ready queue — a connection that is
//! idle, or mid-frame on a slow link, costs the pool nothing but its
//! buffer. This is what lets a 4-thread pool hold hundreds of analyst
//! connections where the old thread-per-connection front-end pinned one
//! OS thread each.
//!
//! A frame is split off the buffer without copying its body: once the
//! length prefix has arrived the buffer reserves exactly the declared
//! frame, and a complete frame leaves as a [`Bytes`] that takes the
//! buffer's allocation over; only bytes read past it (a pipelined next
//! frame) are copied into a fresh buffer. The reservation is bounded by
//! the frame cap and is only address space until bytes arrive.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use bytes::Bytes;

use crate::proto::{ProtoError, MAX_FRAME_BYTES};

/// Consecutive `WouldBlock` naps tolerated while writing one response
/// before the peer is declared dead (×[`WRITE_NAP`] ≈ 10 s).
const WRITE_STALL_LIMIT: u32 = 100_000;

/// Nap between write retries on a full socket buffer.
const WRITE_NAP: Duration = Duration::from_micros(100);

/// One multiplexed connection: a nonblocking socket plus the partial
/// frame bytes read so far.
pub(crate) struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Adopt an accepted socket into the multiplexed set.
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Drain readable bytes into the frame buffer without ever blocking.
    /// Returns `(made_progress, closed)`. Reading stops once a full
    /// maximal frame is buffered so a fire-hose peer cannot run the
    /// buffer past one frame cap of lookahead.
    pub(crate) fn fill(&mut self, scratch: &mut [u8]) -> (bool, bool) {
        let mut progress = false;
        loop {
            if self.buf.len() > MAX_FRAME_BYTES + 4 {
                break;
            }
            match self.stream.read(scratch) {
                Ok(0) => return (progress, true),
                Ok(n) => {
                    self.buf.extend_from_slice(&scratch[..n]);
                    self.reserve_frame();
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return (progress, true),
            }
        }
        (progress, false)
    }

    /// Once the buffer holds a length prefix within the frame cap, make
    /// room for exactly the frame it declares, so the buffer never grows
    /// past it by doubling.
    fn reserve_frame(&mut self) {
        if let Some(declared) = self.declared() {
            let frame = 4 + declared;
            if declared <= MAX_FRAME_BYTES && self.buf.capacity() < frame {
                self.buf.reserve_exact(frame - self.buf.len());
            }
        }
    }

    /// The body length the buffered length prefix declares.
    fn declared(&self) -> Option<usize> {
        let prefix = self.buf.get(..4)?;
        Some(u32::from_le_bytes(prefix.try_into().expect("4-byte prefix")) as usize)
    }

    /// Pop the next complete sealed frame body, if one is fully
    /// buffered. A hostile length prefix (over the frame cap) is a
    /// protocol error — the caller answers once and hangs up, exactly
    /// like the blocking reader did.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Bytes>, ProtoError> {
        let Some(declared) = self.declared() else {
            return Ok(None);
        };
        if declared > MAX_FRAME_BYTES {
            return Err(ProtoError::Oversized {
                declared,
                limit: MAX_FRAME_BYTES,
            });
        }
        if self.buf.len() < 4 + declared {
            return Ok(None);
        }
        // The frame takes the buffer's allocation over; only the
        // lookahead behind it moves to a new buffer.
        let lookahead = self.buf[4 + declared..].to_vec();
        let mut frame = std::mem::replace(&mut self.buf, lookahead);
        frame.truncate(4 + declared);
        self.reserve_frame();
        Ok(Some(Bytes::from(frame).slice(4..)))
    }

    /// Write one whole response frame, riding out `WouldBlock` with
    /// short naps (the socket is nonblocking). At most one response
    /// chunk is ever in flight per connection, so this bounds a worker's
    /// stall on a non-draining peer the same way the old blocking write
    /// timeout did.
    pub(crate) fn write_frame(&mut self, frame: &Bytes) -> std::io::Result<()> {
        let mut off = 0usize;
        let mut stalls = 0u32;
        while off < frame.len() {
            match self.stream.write(&frame[off..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "peer stopped accepting bytes mid-frame",
                    ))
                }
                Ok(n) => {
                    off += n;
                    stalls = 0;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    stalls += 1;
                    if stalls >= WRITE_STALL_LIMIT {
                        return Err(std::io::Error::new(
                            ErrorKind::TimedOut,
                            "peer stalled draining a response",
                        ));
                    }
                    std::thread::sleep(WRITE_NAP);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn partial_frames_accumulate_across_fills() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut peer = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut conn = Conn::new(accepted).unwrap();
        let mut scratch = vec![0u8; 4096];

        let body = b"sealed-bytes";
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(body);

        // Deliver the frame one byte at a time: every prefix parse must
        // say "not yet" without consuming anything.
        for (i, b) in wire.iter().enumerate() {
            peer.write_all(&[*b]).unwrap();
            peer.flush().unwrap();
            // Wait for the byte to arrive (loopback is fast but async).
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                let (progress, closed) = conn.fill(&mut scratch);
                assert!(!closed);
                if progress || std::time::Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            let got = conn.next_frame().unwrap();
            if i + 1 < wire.len() {
                assert!(got.is_none(), "frame complete too early at byte {i}");
            } else {
                assert_eq!(got.unwrap().as_slice(), body);
            }
        }
    }

    /// A connected peer socket and the server side's `Conn`.
    fn connected() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (peer, Conn::new(accepted).unwrap())
    }

    /// Fill `conn` until it buffers `len` bytes (or five seconds pass).
    fn fill_to(conn: &mut Conn, len: usize) {
        let mut scratch = vec![0u8; 4096];
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while conn.buf.len() < len && std::time::Instant::now() < deadline {
            conn.fill(&mut scratch);
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    #[test]
    fn frames_leave_without_copying_and_lookahead_survives() {
        let (mut peer, mut conn) = connected();
        let bodies: [&[u8]; 3] = [&[7u8; 10_000], b"second", b"third frame"];
        let mut wire = Vec::new();
        for body in bodies {
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(body);
        }
        peer.write_all(&wire).unwrap();
        peer.flush().unwrap();
        fill_to(&mut conn, wire.len());
        assert_eq!(conn.buf.len(), wire.len(), "all three frames buffered");

        let first_at = conn.buf.as_ptr();
        let first = conn.next_frame().unwrap().unwrap();
        assert_eq!(first.as_slice(), bodies[0]);
        assert_eq!(
            first.as_ptr(),
            first_at.wrapping_add(4),
            "the body was not copied"
        );
        for body in &bodies[1..] {
            assert_eq!(conn.next_frame().unwrap().unwrap().as_slice(), *body);
        }
        assert!(conn.next_frame().unwrap().is_none());
        assert!(conn.buf.is_empty());
    }

    #[test]
    fn a_length_prefix_reserves_exactly_its_frame() {
        let (mut peer, mut conn) = connected();
        let declared = 100_000usize;
        peer.write_all(&(declared as u32).to_le_bytes()).unwrap();
        peer.write_all(&[1u8; 10]).unwrap();
        peer.flush().unwrap();
        fill_to(&mut conn, 14);
        // `reserve_exact` may round up, but never toward a doubling.
        let capacity = conn.buf.capacity();
        assert!(
            (4 + declared..4 + declared + 4096).contains(&capacity),
            "{capacity}"
        );
        assert!(conn.next_frame().unwrap().is_none());
    }

    #[test]
    fn hostile_length_prefix_is_a_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut peer = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut conn = Conn::new(accepted).unwrap();
        let mut scratch = vec![0u8; 4096];

        peer.write_all(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes())
            .unwrap();
        peer.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while conn.buf.len() < 4 && std::time::Instant::now() < deadline {
            conn.fill(&mut scratch);
            std::thread::sleep(Duration::from_micros(50));
        }
        assert!(matches!(
            conn.next_frame(),
            Err(ProtoError::Oversized { .. })
        ));
    }
}
