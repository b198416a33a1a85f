//! Shared wire-format primitives: LEB128 varints and FNV-1a checksums.
//!
//! The repo has two on-disk formats built from the same primitives — the
//! `dc_workloads` trace format and the `dc_durable` write-ahead log /
//! checkpoint files. Both encode integers as LEB128 varints and guard every
//! frame with a running 64-bit FNV-1a checksum; this module is the single
//! definition both serialize against, so the two formats cannot drift apart
//! byte-wise (a trace op record and a WAL op record are the same bytes).

use std::io;

/// Maximum encoded length of a `u64` LEB128 varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Running 64-bit FNV-1a hash over a byte stream.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }

    /// Feeds `bytes` into the running hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01B3);
        }
    }

    /// The current hash value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0
    }

    /// One-shot hash of a complete byte slice.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.update(bytes);
        h.value()
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Encodes `value` as a LEB128 varint into a fixed buffer; returns the
/// buffer and the number of significant bytes.
#[inline]
pub fn varint_encode(mut value: u64) -> ([u8; MAX_VARINT_LEN], usize) {
    let mut buf = [0u8; MAX_VARINT_LEN];
    let mut len = 0;
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf[len] = byte;
            len += 1;
            return (buf, len);
        }
        buf[len] = byte | 0x80;
        len += 1;
    }
}

/// Appends the LEB128 encoding of `value` to `buf`, a byte at a time: a
/// checkpoint pushes two varints per edge, and a variable-length copy out of
/// [`varint_encode`]'s buffer cost it twice as much.
#[inline]
pub fn push_varint(buf: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        buf.push(value as u8 | 0x80);
        value >>= 7;
    }
    buf.push(value as u8);
}

/// Decodes one LEB128 varint by pulling bytes from `next`.
///
/// Fails with the error `next` produced (typically `UnexpectedEof` on a
/// truncated stream) or with `InvalidData` if the encoding overflows `u64`.
#[inline]
pub fn varint_decode(mut next: impl FnMut() -> io::Result<u8>) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = next()?;
        value |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflows u64",
            ));
        }
    }
}

/// Decodes one varint from `buf` starting at `*pos`, advancing `*pos` past
/// it. Returns `None` if the slice ends mid-varint or the value overflows.
#[inline]
pub fn varint_decode_slice(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        value |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_representative_values() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &values {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let (bytes, len) = varint_encode(v);
            assert_eq!(buf, bytes[..len], "the two encoders disagree on {v}");
            // Streaming decoder.
            let mut it = buf.iter().copied();
            let decoded = varint_decode(|| {
                it.next()
                    .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))
            })
            .unwrap();
            assert_eq!(decoded, v);
            // Slice decoder, and it must consume exactly the encoding.
            let mut pos = 0;
            assert_eq!(varint_decode_slice(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_encoding_is_minimal_and_bounded() {
        assert_eq!(varint_encode(0).1, 1);
        assert_eq!(varint_encode(127).1, 1);
        assert_eq!(varint_encode(128).1, 2);
        assert_eq!(varint_encode(u64::MAX).1, MAX_VARINT_LEN);
    }

    #[test]
    fn truncated_varint_reports_eof() {
        let mut buf = Vec::new();
        push_varint(&mut buf, 1 << 40);
        buf.pop(); // drop the terminating byte
        let mut it = buf.iter().copied();
        let err = varint_decode(|| {
            it.next()
                .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut pos = 0;
        assert_eq!(varint_decode_slice(&buf, &mut pos), None);
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0x80u8; 10]; // continuation forever
        let mut it = buf.iter().copied().chain(std::iter::repeat(0x80));
        let err = varint_decode(|| Ok(it.next().unwrap())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(Fnv64::hash(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(Fnv64::hash(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(Fnv64::hash(b"foobar"), 0x8594_4171_F739_67E8);
        // Incremental == one-shot.
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.value(), Fnv64::hash(b"foobar"));
    }
}
