//! The wire format: one frame per request and per response.
//!
//! ```text
//! +---------+-------------------+------------------+
//! | version |   payload length  |     payload      |
//! | 1 byte  | u32, big-endian   | UTF-8, length B  |
//! +---------+-------------------+------------------+
//! ```
//!
//! The version byte is [`PROTOCOL_VERSION`]; payloads longer than the
//! receiver's limit (the server uses
//! [`ServerConfig::max_frame_bytes`](crate::ServerConfig), the client
//! [`MAX_FRAME_BYTES`]) are rejected.
//!
//! [`write_frame`] sends the header and the payload in one vectored
//! write. One decoder reads frames for both ends: the client through
//! [`read_frame`], the server through `decode`, which tells a
//! malformed frame the connection survives from one that ends it. Both
//! ends feed it a buffered reader, so a frame that arrived whole costs
//! one read from the socket.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

/// Protocol version carried as every frame's first byte.
pub const PROTOCOL_VERSION: u8 = 1;

/// Largest payload either side accepts by default (1 MiB).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Write one frame: the 5-byte header (version byte, big-endian length)
/// and the payload in one vectored write, then flush. Only a short
/// write costs another call.
///
/// # Errors
///
/// Propagates I/O errors; a payload over `u32::MAX` bytes is
/// `InvalidInput`.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds u32::MAX bytes",
        )
    })?;
    let [a, b, c, d] = len.to_be_bytes();
    let header = [PROTOCOL_VERSION, a, b, c, d];
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload.as_bytes())];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write the whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Why [`decode`] returned no frame.
#[derive(Debug)]
pub(crate) enum Fault {
    /// The leading byte is not [`PROTOCOL_VERSION`]; only that byte was
    /// consumed, so decoding can resume at the next one.
    Version(u8),
    /// The header declares more than the limit; only the header was
    /// consumed, and the payload still waits in the stream.
    Oversized { len: usize, limit: usize },
    /// A whole frame whose payload is not UTF-8.
    NotUtf8,
    /// EOF inside a frame: the byte stream can no longer be trusted.
    Torn(String),
    /// The transport failed.
    Io(io::Error),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Version(byte) => write!(f, "unsupported protocol version 0x{byte:02x}"),
            Fault::Oversized { len, limit } => {
                write!(f, "frame length {len} exceeds the {limit}-byte limit")
            }
            Fault::NotUtf8 => f.write_str("frame payload is not valid UTF-8"),
            Fault::Torn(message) => f.write_str(message),
            Fault::Io(e) => e.fmt(f),
        }
    }
}

impl From<Fault> for io::Error {
    fn from(fault: Fault) -> io::Error {
        match fault {
            Fault::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Read into `buf` until it is full or the stream ends; the count read.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Decode the frame at the head of `r`. `Ok(None)` is a clean EOF
/// before a frame started. Over a buffered reader a frame costs one
/// read from the underlying stream, or none when an earlier read
/// already brought it in.
pub(crate) fn decode(r: &mut impl Read, max_bytes: usize) -> Result<Option<String>, Fault> {
    let mut version = [0u8; 1];
    if fill(r, &mut version).map_err(Fault::Io)? == 0 {
        return Ok(None);
    }
    if version[0] != PROTOCOL_VERSION {
        return Err(Fault::Version(version[0]));
    }
    let mut len_bytes = [0u8; 4];
    if fill(r, &mut len_bytes).map_err(Fault::Io)? < len_bytes.len() {
        return Err(Fault::Torn("truncated frame header".into()));
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > max_bytes {
        return Err(Fault::Oversized {
            len,
            limit: max_bytes,
        });
    }
    let mut payload = vec![0u8; len];
    let got = fill(r, &mut payload).map_err(Fault::Io)?;
    if got < len {
        return Err(Fault::Torn(format!(
            "truncated frame payload ({got} of {len} bytes)"
        )));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| Fault::NotUtf8)
}

/// Read one frame, blocking until it arrives. `Ok(None)` means the
/// peer closed the connection cleanly before a frame started. Hand it
/// a buffered reader to read a frame in one call on the stream.
///
/// # Errors
///
/// A wrong version byte, a declared length over `max_bytes`, a
/// non-UTF-8 payload, or EOF inside a frame is `InvalidData`; transport
/// failures propagate as-is.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> io::Result<Option<String>> {
    Ok(decode(r, max_bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "corr Children.ID -> ID").unwrap();
        assert_eq!(buf[0], PROTOCOL_VERSION);
        let mut r = buf.as_slice();
        let got = read_frame(&mut r, MAX_FRAME_BYTES).unwrap();
        assert_eq!(got.as_deref(), Some("corr Children.ID -> ID"));
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap(), None, "EOF");
    }

    #[test]
    fn empty_payload_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "").unwrap();
        let got = read_frame(&mut buf.as_slice(), MAX_FRAME_BYTES).unwrap();
        assert_eq!(got.as_deref(), Some(""));
    }

    /// A writer that records every call and accepts at most `per_call`
    /// bytes of it.
    struct Counting {
        bytes: Vec<u8>,
        calls: usize,
        per_call: usize,
    }

    impl Counting {
        fn new(per_call: usize) -> Counting {
            Counting {
                bytes: Vec::new(),
                calls: 0,
                per_call,
            }
        }
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.per_call);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.per_call;
            for buf in bufs {
                let n = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.per_call - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_makes_one_write_call() {
        for payload in ["corr Children.ID -> ID", ""] {
            let mut w = Counting::new(usize::MAX);
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.calls, 1, "{payload:?}");
            let mut want = Vec::new();
            write_frame(&mut want, payload).unwrap();
            assert_eq!(w.bytes, want);
        }
    }

    #[test]
    fn write_frame_finishes_over_one_byte_writes() {
        let mut w = Counting::new(1);
        write_frame(&mut w, "status").unwrap();
        assert_eq!(w.calls, 5 + "status".len());
        let got = read_frame(&mut w.bytes.as_slice(), MAX_FRAME_BYTES).unwrap();
        assert_eq!(got.as_deref(), Some("status"));
    }

    #[test]
    fn bad_version_and_truncation_are_invalid_data() {
        let err = read_frame(&mut [0xffu8, 0, 0, 0, 0].as_slice(), 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("0xff"), "{err}");

        let err = read_frame(&mut [PROTOCOL_VERSION, 0, 0].as_slice(), 16).unwrap_err();
        assert!(err.to_string().contains("truncated frame header"), "{err}");

        let mut torn = Vec::new();
        write_frame(&mut torn, "hello").unwrap();
        torn.truncate(torn.len() - 2);
        let err = read_frame(&mut torn.as_slice(), 16).unwrap_err();
        assert!(err.to_string().contains("truncated frame payload"), "{err}");
    }

    #[test]
    fn oversized_and_non_utf8_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "0123456789").unwrap();
        let err = read_frame(&mut buf.as_slice(), 4).unwrap_err();
        assert!(
            err.to_string().contains("exceeds the 4-byte limit"),
            "{err}"
        );

        let bad = [PROTOCOL_VERSION, 0, 0, 0, 2, 0xc3, 0x28];
        let err = read_frame(&mut bad.as_slice(), 16).unwrap_err();
        assert!(err.to_string().contains("not valid UTF-8"), "{err}");
    }
}
