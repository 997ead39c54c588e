//! Length-prefixed, checksummed frames over a byte stream.
//!
//! One frame is `[len: u32 LE][crc32(payload): u32 LE][payload]`, the same
//! armor `vo-store` wraps around WAL records — and the checksum is the same
//! [`vo_store::crc32::crc32`]. `len` counts payload bytes only, so a reader
//! can reject an oversized frame from the eight-byte header **before**
//! allocating anything: a fabricated 4 GiB length costs the attacker a
//! typed error, not the server's memory.
//!
//! Two readers live here. [`read_frame`] is the strict, blocking one the
//! client uses: any stall is an I/O error. [`read_frame_cancellable`] is
//! the server's: it tolerates unlimited idle time *between* frames (polling
//! a stop flag each tick so shutdown is prompt), but once the first byte of
//! a frame arrives the peer has `patience` to deliver the rest — a
//! slow-loris connection is cut off, it cannot park a worker forever.

use crate::{NetError, NetResult};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::time::{Duration, Instant};
use vo_store::crc32::crc32;

/// Default cap on a single frame's payload: 1 MiB.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Header size: 4 bytes of length + 4 bytes of CRC.
pub const HEADER_BYTES: usize = 8;

/// Write one frame; returns the total bytes put on the wire.
///
/// Header and payload go out in one vectored write, so on a `TCP_NODELAY`
/// socket a frame is one segment, not a header segment and then a payload
/// segment the reader wakes up for again. A short write continues where it
/// stopped.
///
/// Rejects a payload over `max` locally — a peer honoring the same cap
/// would refuse it anyway, better to fail before transmitting.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: usize) -> NetResult<usize> {
    if payload.len() > max {
        return Err(NetError::FrameTooLarge {
            bytes: payload.len() as u64,
            max: max as u64,
        });
    }
    let mut header = [0u8; HEADER_BYTES];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    let mut parts = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut unwritten = &mut parts[..];
    while !unwritten.is_empty() {
        match w.write_vectored(unwritten) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut unwritten, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(HEADER_BYTES + payload.len())
}

/// Read one frame, strictly: block until a full frame arrives or the
/// stream errors. `Ok(None)` means the peer closed cleanly *between*
/// frames; a close mid-frame is [`NetError::Truncated`].
pub fn read_frame(r: &mut impl Read, max: usize) -> NetResult<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER_BYTES];
    match read_full(r, &mut header)? {
        Fill::Eof { got: 0 } => return Ok(None),
        Fill::Eof { got } => {
            return Err(NetError::Truncated {
                expected: HEADER_BYTES - got,
                got,
            })
        }
        Fill::Done => {}
    }
    let (len, crc) = decode_header(&header, max)?;
    let mut payload = vec![0u8; len];
    match read_full(r, &mut payload)? {
        Fill::Eof { got } => {
            return Err(NetError::Truncated {
                expected: len - got,
                got,
            })
        }
        Fill::Done => {}
    }
    check_crc(&payload, crc)?;
    Ok(Some(payload))
}

/// What [`read_frame_cancellable`] observed.
#[derive(Debug)]
pub enum ServerRead {
    /// A complete, checksum-verified payload.
    Frame(Vec<u8>),
    /// The peer closed cleanly between frames.
    Closed,
    /// The stop flag went up while the connection was idle.
    Stopped,
}

/// Read one frame from a stream whose read timeout is set to a short tick.
///
/// Between frames the connection may idle forever — every tick the `stop`
/// callback is polled so server shutdown does not wait on quiet clients.
/// Once a frame has started, the peer has `patience` to finish it;
/// exceeding that is an I/O timeout error (the connection is torn down).
pub fn read_frame_cancellable(
    r: &mut impl Read,
    max: usize,
    patience: Duration,
    stop: &dyn Fn() -> bool,
) -> NetResult<ServerRead> {
    let mut header = [0u8; HEADER_BYTES];
    let mut started: Option<Instant> = None;
    match read_full_patient(r, &mut header, patience, stop, &mut started)? {
        Patient::Eof { got: 0 } => return Ok(ServerRead::Closed),
        Patient::Eof { got } => {
            return Err(NetError::Truncated {
                expected: HEADER_BYTES - got,
                got,
            })
        }
        Patient::Stopped => return Ok(ServerRead::Stopped),
        Patient::Done => {}
    }
    let (len, crc) = decode_header(&header, max)?;
    let mut payload = vec![0u8; len];
    match read_full_patient(r, &mut payload, patience, stop, &mut started)? {
        Patient::Eof { got } => {
            return Err(NetError::Truncated {
                expected: len - got,
                got,
            })
        }
        // Mid-frame stop: the frame will never be served; treat as stop.
        Patient::Stopped => return Ok(ServerRead::Stopped),
        Patient::Done => {}
    }
    check_crc(&payload, crc)?;
    Ok(ServerRead::Frame(payload))
}

fn decode_header(header: &[u8; HEADER_BYTES], max: usize) -> NetResult<(usize, u32)> {
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as u64;
    if len > max as u64 {
        return Err(NetError::FrameTooLarge {
            bytes: len,
            max: max as u64,
        });
    }
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    Ok((len as usize, crc))
}

fn check_crc(payload: &[u8], expected: u32) -> NetResult<()> {
    let found = crc32(payload);
    if found != expected {
        return Err(NetError::CrcMismatch { expected, found });
    }
    Ok(())
}

enum Fill {
    Done,
    Eof { got: usize },
}

fn read_full(r: &mut impl Read, buf: &mut [u8]) -> NetResult<Fill> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Ok(Fill::Eof { got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Fill::Done)
}

enum Patient {
    Done,
    Eof { got: usize },
    Stopped,
}

fn read_full_patient(
    r: &mut impl Read,
    buf: &mut [u8],
    patience: Duration,
    stop: &dyn Fn() -> bool,
    started: &mut Option<Instant>,
) -> NetResult<Patient> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Ok(Patient::Eof { got }),
            Ok(n) => {
                got += n;
                started.get_or_insert_with(Instant::now);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if stop() {
                    return Ok(Patient::Stopped);
                }
                if let Some(t0) = *started {
                    if t0.elapsed() > patience {
                        return Err(NetError::Io(std::io::Error::new(
                            ErrorKind::TimedOut,
                            "peer stalled mid-frame",
                        )));
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Patient::Done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload, DEFAULT_MAX_FRAME_BYTES).unwrap();
        out
    }

    #[test]
    fn roundtrip_including_empty_and_back_to_back() {
        let mut wire = Vec::new();
        for payload in [&b""[..], b"x", b"{\"id\":1}", &[0u8; 4096]] {
            write_frame(&mut wire, payload, DEFAULT_MAX_FRAME_BYTES).unwrap();
        }
        let mut r = Cursor::new(wire);
        for payload in [&b""[..], b"x", b"{\"id\":1}", &[0u8; 4096]] {
            let got = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
            assert_eq!(got, payload);
        }
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .is_none());
    }

    #[test]
    fn a_frame_is_one_write_and_survives_short_ones() {
        /// Takes at most `cap` bytes per write, counting the writes.
        struct Trickle {
            out: Vec<u8>,
            cap: usize,
            writes: usize,
        }
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
                self.writes += 1;
                let before = self.out.len();
                for buf in bufs {
                    let room = self.cap - (self.out.len() - before);
                    self.out.extend_from_slice(&buf[..buf.len().min(room)]);
                }
                Ok(self.out.len() - before)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let payload = b"{\"id\":1}";
        let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&crc32(payload).to_le_bytes());
        expected.extend_from_slice(payload);
        for (cap, writes) in [(usize::MAX, 1), (3, 6)] {
            let mut w = Trickle {
                out: Vec::new(),
                cap,
                writes: 0,
            };
            write_frame(&mut w, payload, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(w.out, expected, "cap {cap}");
            assert_eq!(w.writes, writes, "cap {cap}");
        }
    }

    #[test]
    fn fabricated_length_is_rejected_from_the_header_alone() {
        // A header announcing u32::MAX bytes: the reader must error without
        // attempting the allocation (the "payload" here is 3 bytes).
        let mut wire = u32::MAX.to_le_bytes().to_vec();
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        match read_frame(&mut Cursor::new(wire), DEFAULT_MAX_FRAME_BYTES) {
            Err(NetError::FrameTooLarge { bytes, max }) => {
                assert_eq!(bytes, u64::from(u32::MAX));
                assert_eq!(max, DEFAULT_MAX_FRAME_BYTES as u64);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_write_is_rejected_locally() {
        let mut sink = Vec::new();
        match write_frame(&mut sink, &[0u8; 100], 64) {
            Err(NetError::FrameTooLarge {
                bytes: 100,
                max: 64,
            }) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert!(sink.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn crc_bit_flip_is_detected() {
        let mut wire = frame_bytes(b"important payload");
        let last = wire.len() - 1;
        wire[last] ^= 0x40; // flip one payload bit
        match read_frame(&mut Cursor::new(wire), DEFAULT_MAX_FRAME_BYTES) {
            Err(NetError::CrcMismatch { expected, found }) => assert_ne!(expected, found),
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_reports_missing_bytes() {
        // Cut mid-payload.
        let wire = frame_bytes(b"0123456789");
        let cut = &wire[..HEADER_BYTES + 4];
        match read_frame(&mut Cursor::new(cut.to_vec()), DEFAULT_MAX_FRAME_BYTES) {
            Err(NetError::Truncated {
                expected: 6,
                got: 4,
            }) => {}
            other => panic!("expected Truncated{{6,4}}, got {other:?}"),
        }
        // Cut mid-header.
        let cut = &wire[..3];
        match read_frame(&mut Cursor::new(cut.to_vec()), DEFAULT_MAX_FRAME_BYTES) {
            Err(NetError::Truncated {
                expected: 5,
                got: 3,
            }) => {}
            other => panic!("expected Truncated{{5,3}}, got {other:?}"),
        }
    }

    /// Deterministic fuzz: feed 500 random byte soups to the reader. Every
    /// outcome must be a typed error or a clean EOF — never a panic, and
    /// never an allocation beyond the frame cap (enforced by using a tiny
    /// cap so a "successful" giant length would OOM loudly if attempted).
    #[test]
    fn random_garbage_never_panics() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            // xorshift64* — deterministic, no external PRNG.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545f4914f6cdd1d)
        };
        for round in 0..500 {
            let len = (next() % 64) as usize;
            let soup: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
            let mut r = Cursor::new(soup);
            loop {
                match read_frame(&mut r, 1 << 16) {
                    Ok(Some(_)) => continue, // a soup can legitimately frame-decode
                    Ok(None) => break,
                    Err(
                        NetError::FrameTooLarge { .. }
                        | NetError::CrcMismatch { .. }
                        | NetError::Truncated { .. },
                    ) => break,
                    Err(other) => panic!("round {round}: unexpected error {other:?}"),
                }
            }
        }
    }

    #[test]
    fn cancellable_reader_honors_stop_while_idle() {
        // A reader that always times out, as an idle socket would.
        struct AlwaysTimeout;
        impl Read for AlwaysTimeout {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(ErrorKind::WouldBlock, "tick"))
            }
        }
        let out = read_frame_cancellable(
            &mut AlwaysTimeout,
            DEFAULT_MAX_FRAME_BYTES,
            Duration::from_secs(5),
            &|| true,
        )
        .unwrap();
        assert!(matches!(out, ServerRead::Stopped));
    }

    #[test]
    fn cancellable_reader_cuts_off_a_stalled_frame() {
        // Half a header, then silence: patience must expire with an error
        // rather than parking forever.
        struct Stall {
            fed: bool,
        }
        impl Read for Stall {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.fed {
                    Err(std::io::Error::new(ErrorKind::WouldBlock, "tick"))
                } else {
                    self.fed = true;
                    buf[..4].copy_from_slice(&8u32.to_le_bytes());
                    Ok(4)
                }
            }
        }
        let out = read_frame_cancellable(
            &mut Stall { fed: false },
            DEFAULT_MAX_FRAME_BYTES,
            Duration::from_millis(0),
            &|| false,
        );
        match out {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), ErrorKind::TimedOut),
            other => panic!("expected timeout, got {other:?}"),
        }
    }
}
