//! Length-prefixed framing over a byte stream.
//!
//! Every message on a wire link travels as one frame: a 4-byte
//! big-endian payload length followed by the payload itself. The length
//! is validated against [`MAX_FRAME_BYTES`] *before* any allocation, so a
//! malicious or corrupted peer cannot make a reader balloon memory by
//! announcing a huge frame.

use crate::error::WireError;
use std::io::{self, IoSlice, Read, Write};

/// Hard cap on a frame payload (1 MiB).
///
/// Protocol messages are tiny — the word model bounds them by a few
/// hundred bytes (see [`crate::budget`]) — so the cap is purely a
/// robustness guard against garbage length prefixes.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Writes one frame (`4-byte BE length ‖ payload`) and flushes. The
/// length prefix and the payload go down in one vectored write, so on a
/// `TCP_NODELAY` socket a frame is one segment, not a 4-byte one and
/// then the rest; a short write is resumed where it stopped.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge { len: payload.len(), max: MAX_FRAME_BYTES });
    }
    let len = u32::try_from(payload.len()).expect("cap fits in u32").to_be_bytes();
    let mut frame = [IoSlice::new(&len), IoSlice::new(payload)];
    let mut rest = &mut frame[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads one frame into `payload`, enforcing the size cap before any
/// buffer growth.
///
/// `payload` is cleared and then filled with exactly the frame's bytes;
/// its capacity is reused across calls, so a steady-state read loop
/// performs no allocation once the scratch buffer has grown to the
/// largest frame seen (regression-tested below).
pub fn read_frame<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> Result<(), WireError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge { len, max: MAX_FRAME_BYTES });
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        let mut payload = Vec::new();
        read_frame(&mut r, &mut payload).unwrap();
        assert_eq!(payload, b"hello");
        read_frame(&mut r, &mut payload).unwrap();
        assert_eq!(payload, b"");
        assert!(matches!(read_frame(&mut r, &mut payload), Err(WireError::PeerClosed)));
    }

    #[test]
    fn steady_state_reads_reuse_scratch_capacity() {
        // Regression for the per-frame `vec![0u8; len]`: once the scratch
        // has grown to the largest frame seen, subsequent reads must not
        // reallocate (same backing pointer, same capacity).
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0xabu8; 512]).unwrap();
        for k in 0..32u8 {
            write_frame(&mut wire, &[k; 64]).unwrap();
        }
        let mut r = &wire[..];
        let mut payload = Vec::new();
        read_frame(&mut r, &mut payload).unwrap();
        assert_eq!(payload.len(), 512);
        let (ptr, cap) = (payload.as_ptr(), payload.capacity());
        for k in 0..32u8 {
            read_frame(&mut r, &mut payload).unwrap();
            assert_eq!(payload, [k; 64]);
            assert_eq!(payload.as_ptr(), ptr, "scratch was reallocated");
            assert_eq!(payload.capacity(), cap);
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = &buf[..];
        let mut payload = Vec::new();
        match read_frame(&mut r, &mut payload) {
            Err(WireError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_BYTES);
                assert_eq!(payload.capacity(), 0, "rejected frame must not grow the scratch");
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_peer_closed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"onl");
        let mut r = &buf[..];
        let mut payload = Vec::new();
        assert!(matches!(read_frame(&mut r, &mut payload), Err(WireError::PeerClosed)));
    }

    /// A socket-like sink that counts the writes it is handed: each one
    /// is a syscall, and on a `TCP_NODELAY` socket a segment.
    #[derive(Default)]
    struct Syscalls {
        bytes: Vec<u8>,
        writes: usize,
    }
    impl Write for Syscalls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.write(buf)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.write_vectored(bufs)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut sink = Syscalls::default();
        write_frame(&mut sink, b"reply").unwrap();
        assert_eq!(sink.writes, 1, "length prefix and payload in one write");
        assert_eq!(sink.bytes, b"\0\0\0\x05reply");
    }

    #[test]
    fn oversized_write_rejected() {
        let big = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut sink = Vec::new();
        assert!(matches!(write_frame(&mut sink, &big), Err(WireError::FrameTooLarge { .. })));
        assert!(sink.is_empty(), "nothing written for a rejected frame");
    }
}
