//! Length-prefixed framing over a byte stream.
//!
//! Every message — request or response — is one frame: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! The prefix makes message boundaries explicit on a stream transport,
//! so a reader never has to scan for delimiters inside JSON, and a
//! too-large length is rejected *before* any allocation.
//!
//! ## Trace carriage
//!
//! A frame may carry a trace id between the length prefix and the
//! payload. The high bit of the length word ([`TRACE_FLAG`]) signals an
//! 8-byte big-endian trace id follows the prefix; [`MAX_FRAME`] is far
//! below 2³¹, so the bit is never ambiguous with a legal length. Old
//! peers never set the bit, which keeps plain and traced frames freely
//! interleavable on one connection — the daemon echoes a request's
//! trace id on its response frame, so a client can correlate replies
//! with the server-side span trees it later fetches.

use std::io::{self, Read, Write};

/// Hard ceiling on one frame's payload. A serving request is a few
/// hundred bytes; even a full-model METRICS dump is well under a
/// megabyte. Anything larger is a protocol error or an attack, not a
/// query — refuse it before allocating.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Length-word bit marking a frame that carries an 8-byte trace id
/// between the prefix and the payload.
pub const TRACE_FLAG: u32 = 0x8000_0000;

/// Most payload bytes reserved before any of them arrive. Larger frames
/// grow the buffer as their bytes come in, so a peer that announces
/// [`MAX_FRAME`] and stalls pins at most this much per connection.
const PAYLOAD_RESERVE: usize = 64 * 1024;

/// Write one frame: 4-byte big-endian length, then the payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    write_frame_traced(w, payload, None)
}

/// [`write_frame`], optionally carrying a trace id in the frame header.
pub fn write_frame_traced<W: Write>(
    w: &mut W,
    payload: &[u8],
    trace_id: Option<u64>,
) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    match trace_id {
        None => w.write_all(&(payload.len() as u32).to_be_bytes())?,
        Some(id) => {
            w.write_all(&(payload.len() as u32 | TRACE_FLAG).to_be_bytes())?;
            w.write_all(&id.to_be_bytes())?;
        }
    }
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame, discarding any trace id. Returns `Ok(None)` on clean
/// end-of-stream (the peer closed between frames); an EOF mid-frame is
/// an error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    Ok(read_frame_traced(r)?.map(|(payload, _)| payload))
}

/// [`read_frame`], surfacing the trace id when the frame carries one.
pub fn read_frame_traced<R: Read>(r: &mut R) -> io::Result<Option<(Vec<u8>, Option<u64>)>> {
    let mut len_buf = [0u8; 4];
    // A clean close lands here with zero bytes; anything partial is torn.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed inside a frame header",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let raw = u32::from_be_bytes(len_buf);
    let trace_id = if raw & TRACE_FLAG != 0 {
        let mut id_buf = [0u8; 8];
        r.read_exact(&mut id_buf)?;
        Some(u64::from_be_bytes(id_buf))
    } else {
        None
    };
    let len = (raw & !TRACE_FLAG) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame (max {MAX_FRAME})"),
        ));
    }
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_RESERVE));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream closed inside a frame payload",
        ));
    }
    Ok(Some((payload, trace_id)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"{\"k\":1}").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"k\":1}");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_and_torn_frames_are_rejected() {
        // Announced length beyond the cap.
        let mut evil = Vec::new();
        evil.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let mut r = &evil[..];
        assert!(read_frame(&mut r).is_err());

        // Stream truncated inside the header.
        let torn = [0u8, 0];
        let mut r = &torn[..];
        assert!(read_frame(&mut r).is_err());

        // Stream truncated inside the payload.
        let mut short = Vec::new();
        short.extend_from_slice(&8u32.to_be_bytes());
        short.extend_from_slice(b"abc");
        let mut r = &short[..];
        assert!(read_frame(&mut r).is_err());
    }

    /// A reader over fixed bytes that records the largest buffer it was
    /// handed.
    struct Recording<'a> {
        data: &'a [u8],
        largest: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn announced_length_is_not_allocated_before_the_payload_arrives() {
        let mut stalled = (MAX_FRAME as u32).to_be_bytes().to_vec();
        stalled.extend_from_slice(b"abc");
        let mut r = Recording {
            data: &stalled,
            largest: 0,
        };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            r.largest <= PAYLOAD_RESERVE,
            "reader was handed a {}-byte buffer",
            r.largest
        );
    }

    #[test]
    fn traced_frames_round_trip_and_interleave_with_plain_ones() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame_traced(&mut buf, b"traced", Some(0xdead_beef_1234_5678)).unwrap();
        write_frame(&mut buf, b"plain").unwrap();
        write_frame_traced(&mut buf, b"", Some(0)).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame_traced(&mut r).unwrap().unwrap(),
            (b"traced".to_vec(), Some(0xdead_beef_1234_5678))
        );
        assert_eq!(
            read_frame_traced(&mut r).unwrap().unwrap(),
            (b"plain".to_vec(), None)
        );
        assert_eq!(
            read_frame_traced(&mut r).unwrap().unwrap(),
            (Vec::new(), Some(0))
        );
        assert!(read_frame_traced(&mut r).unwrap().is_none());
    }

    #[test]
    fn plain_reader_skips_trace_headers_cleanly() {
        // A trace-unaware read of a traced frame still yields the right
        // payload (the id is consumed and dropped, not misparsed).
        let mut buf: Vec<u8> = Vec::new();
        write_frame_traced(&mut buf, b"payload", Some(42)).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"payload");
    }

    #[test]
    fn torn_trace_header_is_an_error() {
        let mut torn = Vec::new();
        torn.extend_from_slice(&TRACE_FLAG.to_be_bytes());
        torn.extend_from_slice(&[1, 2, 3]); // only 3 of 8 id bytes
        let mut r = &torn[..];
        assert!(read_frame_traced(&mut r).is_err());
    }

    use proptest::prelude::*;

    /// A payload length as announced on the wire: anything a 31-bit
    /// word can say, lengths around [`MAX_FRAME`], or small ones whose
    /// payload bytes actually follow.
    fn announced_len() -> impl Strategy<Value = u32> {
        let max = MAX_FRAME as u32;
        prop_oneof![0u32..=!TRACE_FLAG, (max - 2)..=(max + 2), 0u32..300]
    }

    /// One [`read_frame_traced`] result, with the error reduced to its kind.
    type Outcome = Result<Option<(Vec<u8>, Option<u64>)>, io::ErrorKind>;

    /// What [`read_frame_traced`] must make of `bytes`: one header (with
    /// its trace id when `TRACE_FLAG` is set) then the payload.
    fn expected(bytes: &[u8]) -> Outcome {
        if bytes.is_empty() {
            return Ok(None);
        }
        let Some(word) = bytes.get(..4) else {
            return Err(io::ErrorKind::UnexpectedEof);
        };
        let raw = u32::from_be_bytes(word.try_into().unwrap());
        let (header, trace_id) = if raw & TRACE_FLAG != 0 {
            let Some(id) = bytes.get(4..12) else {
                return Err(io::ErrorKind::UnexpectedEof);
            };
            (12, Some(u64::from_be_bytes(id.try_into().unwrap())))
        } else {
            (4, None)
        };
        let len = (raw & !TRACE_FLAG) as usize;
        if len > MAX_FRAME {
            return Err(io::ErrorKind::InvalidData);
        }
        match bytes.get(header..header + len) {
            Some(payload) => Ok(Some((payload.to_vec(), trace_id))),
            None => Err(io::ErrorKind::UnexpectedEof),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes end every read in a frame or an error, never a
        /// panic.
        #[test]
        fn arbitrary_bytes_never_panic_the_reader(
            bytes in proptest::collection::vec(0u8..=255, 0..600),
        ) {
            let mut r = &bytes[..];
            // A frame consumes at least its 4-byte header, so this ends.
            while let Ok(Some(_)) = read_frame_traced(&mut r) {}
        }

        /// A frame torn anywhere — in the length word, the trace id or the
        /// payload — is an error; a whole one under the cap decodes to
        /// exactly its payload and trace id.
        #[test]
        fn torn_and_whole_frames_decode_as_announced(
            len in announced_len(),
            traced in proptest::bool::ANY,
            id in 0u64..=u64::MAX,
            body in proptest::collection::vec(0u8..=255, 0..300),
            cut in 0usize..=usize::MAX,
        ) {
            let raw = if traced { len | TRACE_FLAG } else { len };
            let mut bytes = raw.to_be_bytes().to_vec();
            if traced {
                bytes.extend_from_slice(&id.to_be_bytes());
            }
            bytes.extend_from_slice(&body);
            bytes.truncate(cut % (bytes.len() + 1));
            let got = read_frame_traced(&mut &bytes[..]).map_err(|e| e.kind());
            prop_assert_eq!(got, expected(&bytes));
        }

        /// A frame that announces more bytes than follow ends in
        /// `UnexpectedEof`, and the reader is never handed a buffer sized
        /// by the announced length.
        #[test]
        fn short_frames_never_reserve_the_announced_length(
            len in prop_oneof![1u32..4096, 1u32..=MAX_FRAME as u32],
            traced in proptest::bool::ANY,
            sent in 0usize..4096,
        ) {
            prop_assume!(sent < len as usize);
            let raw = if traced { len | TRACE_FLAG } else { len };
            let mut bytes = raw.to_be_bytes().to_vec();
            if traced {
                bytes.extend_from_slice(&7u64.to_be_bytes());
            }
            bytes.resize(bytes.len() + sent, b'[');
            let mut r = Recording {
                data: &bytes,
                largest: 0,
            };
            let got = read_frame_traced(&mut r).map_err(|e| e.kind());
            prop_assert_eq!(got, Err(io::ErrorKind::UnexpectedEof));
            prop_assert!(
                r.largest <= PAYLOAD_RESERVE,
                "reader was handed a {}-byte buffer",
                r.largest
            );
        }
    }
}
