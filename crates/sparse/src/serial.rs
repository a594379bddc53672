//! Minimal binary (de)serialization: `put_*` writers over `Vec<u8>` and one
//! bounded [`Reader`] over `&[u8]`.
//!
//! The look-alike embedding store and the model save/load path need a
//! compact on-disk format; the approved dependency list has no serde binary
//! backend, so a small explicit format is defined here:
//!
//! ```text
//! [magic u32][version u16][payload...]
//! ```
//!
//! Payload encoders exist for `Vec<f32>`, `Vec<u64>`, strings, and
//! [`CsrMatrix`]. All integers are little-endian.
//!
//! Every file-format decoder in the workspace reads through [`Reader`]. Its
//! accessors return [`DecodeError`] instead of panicking, and
//! [`Reader::count`] is the only place a length read from input becomes a
//! `usize`: it is rejected unless that many elements fit in the bytes still
//! present, so no decoder allocates, loops or multiplies on an unchecked
//! length. Dimensions that size nothing by themselves come from
//! [`Reader::usize`] and are checked against the decoded arrays with
//! [`expect_len`].

use crate::csr::CsrMatrix;

/// Magic bytes prefixed to every serialized artifact ("FVAE").
pub const MAGIC: u32 = 0x4656_4145;
/// Current format version.
pub const VERSION: u16 = 1;

/// Errors produced when decoding.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the declared payload.
    Truncated,
    /// The magic prefix did not match.
    BadMagic,
    /// The format version is unsupported.
    BadVersion(u16),
    /// A structural invariant failed (e.g. CSR validation).
    Invalid(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::BadMagic => write!(f, "bad magic prefix"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Invalid(msg) => write!(f, "invalid payload: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// 256-entry lookup table for the reflected CRC-32/IEEE polynomial
/// (0xEDB88320), built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, the zlib/PNG variant) of `data`.
///
/// Used to checksum on-disk artifacts; the approved dependency list has no
/// checksum crate, so the classic reflected table-driven form lives here.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Appends one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f32`.
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f64`.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Writes the artifact header.
pub fn put_header(buf: &mut Vec<u8>) {
    put_u32(buf, MAGIC);
    put_u16(buf, VERSION);
}

/// Writes a length-prefixed `f32` slice.
pub fn put_f32_slice(buf: &mut Vec<u8>, data: &[f32]) {
    put_u64(buf, data.len() as u64);
    buf.reserve(data.len() * 4);
    for &v in data {
        put_f32(buf, v);
    }
}

/// Writes a length-prefixed `u64` slice.
pub fn put_u64_slice(buf: &mut Vec<u8>, data: &[u64]) {
    put_u64(buf, data.len() as u64);
    buf.reserve(data.len() * 8);
    for &v in data {
        put_u64(buf, v);
    }
}

/// Writes length-prefixed raw bytes.
pub fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) {
    put_u64(buf, data.len() as u64);
    buf.extend_from_slice(data);
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

fn to_usize(v: u64) -> Result<usize, DecodeError> {
    usize::try_from(v).map_err(|_| DecodeError::Invalid(format!("{v} does not fit in usize")))
}

/// Checks that a decoded array of `len` elements is exactly the product of
/// `dims` (dimensions read from input), computing the product without
/// overflow; `what` becomes the [`DecodeError::Invalid`] message.
pub fn expect_len(len: usize, dims: &[usize], what: &str) -> Result<(), DecodeError> {
    let product = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
    if product == Some(len) {
        Ok(())
    } else {
        Err(DecodeError::Invalid(what.into()))
    }
}

/// Bounded read cursor over a byte slice: the one reader behind every file
/// format. Each accessor consumes from the front and returns
/// [`DecodeError::Truncated`] when the bytes are not there.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over all of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(DecodeError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, tail) = self.buf.split_first_chunk::<N>().ok_or(DecodeError::Truncated)?;
        self.buf = tail;
        Ok(*head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        self.array().map(f32::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads a `u64` field holding a dimension or scalar count. Unlike
    /// [`Reader::count`] the value is bounded by nothing: check it against
    /// decoded data with [`expect_len`] before it sizes or indexes anything.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        to_usize(self.u64()?)
    }

    /// Reads and checks a `[magic u32][version u16]` header.
    pub fn header(&mut self, magic: u32, version: u16) -> Result<(), DecodeError> {
        if self.u32()? != magic {
            return Err(DecodeError::BadMagic);
        }
        match self.u16()? {
            v if v == version => Ok(()),
            v => Err(DecodeError::BadVersion(v)),
        }
    }

    /// Reads a `u64` element count that is followed by that many elements
    /// of at least `elem_bytes` encoded bytes each, and rejects it unless
    /// `count × elem_bytes` fits in the bytes still present. A returned
    /// count is therefore safe to allocate for and to loop over.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, DecodeError> {
        assert!(elem_bytes > 0, "a zero-sized element bounds nothing");
        let n = usize::try_from(self.u64()?).map_err(|_| DecodeError::Truncated)?;
        match n.checked_mul(elem_bytes) {
            Some(bytes) if bytes <= self.buf.len() => Ok(n),
            _ => Err(DecodeError::Truncated),
        }
    }

    /// Consumes `n` fixed-width elements (no length prefix).
    fn elems<T: 'a, const N: usize>(
        &mut self,
        n: usize,
        from_le: fn([u8; N]) -> T,
    ) -> Result<impl ExactSizeIterator<Item = T> + 'a, DecodeError> {
        let bytes = self.take(n.checked_mul(N).ok_or(DecodeError::Truncated)?)?;
        Ok(bytes.chunks_exact(N).map(move |c| from_le(c.try_into().expect("chunk is N bytes"))))
    }

    /// Reads `n` little-endian `f32`s with no length prefix (a row whose
    /// width the format stores elsewhere).
    pub fn f32_row(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = f32> + 'a, DecodeError> {
        self.elems(n, f32::from_le_bytes)
    }

    /// Reads a length-prefixed `f32` vector.
    pub fn f32s(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.count(4)?;
        Ok(self.elems(n, f32::from_le_bytes)?.collect())
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn u32s(&mut self) -> Result<Vec<u32>, DecodeError> {
        let n = self.count(4)?;
        Ok(self.elems(n, u32::from_le_bytes)?.collect())
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>, DecodeError> {
        let n = self.count(8)?;
        Ok(self.elems(n, u64::from_le_bytes)?.collect())
    }

    /// Reads a length-prefixed `u64` vector of dimensions or offsets.
    pub fn usizes(&mut self) -> Result<Vec<usize>, DecodeError> {
        let n = self.count(8)?;
        self.elems(n, u64::from_le_bytes)?.map(to_usize).collect()
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let bytes = self.bytes()?.to_vec();
        String::from_utf8(bytes).map_err(|e| DecodeError::Invalid(e.to_string()))
    }

    /// Ends decoding; any byte left over is an error.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(DecodeError::Invalid(format!("{n} trailing bytes"))),
        }
    }
}

/// Serializes a CSR matrix (header + payload) into a standalone buffer.
pub fn encode_csr(m: &CsrMatrix) -> Vec<u8> {
    let (_, indptr, indices, _) = m.raw_parts();
    let mut buf = Vec::with_capacity(32 + indices.len() * 8 + indptr.len() * 8);
    put_header(&mut buf);
    encode_csr_payload(&mut buf, m);
    buf
}

/// Appends a CSR matrix payload (no header) to an existing buffer; the
/// composite-artifact counterpart of [`encode_csr`].
pub fn encode_csr_payload(buf: &mut Vec<u8>, m: &CsrMatrix) {
    let (n_cols, indptr, indices, values) = m.raw_parts();
    put_u64(buf, n_cols as u64);
    put_u64(buf, indptr.len() as u64);
    for &p in indptr {
        put_u64(buf, p as u64);
    }
    put_u64(buf, indices.len() as u64);
    for &ix in indices {
        put_u32(buf, ix);
    }
    put_f32_slice(buf, values);
}

/// Deserializes a CSR matrix written by [`encode_csr`].
pub fn decode_csr(buf: &[u8]) -> Result<CsrMatrix, DecodeError> {
    let mut r = Reader::new(buf);
    r.header(MAGIC, VERSION)?;
    let m = decode_csr_payload(&mut r)?;
    r.finish()?;
    Ok(m)
}

/// Reads a CSR payload written by [`encode_csr_payload`].
pub fn decode_csr_payload(r: &mut Reader<'_>) -> Result<CsrMatrix, DecodeError> {
    let n_cols = r.usize()?;
    let indptr = r.usizes()?;
    let indices = r.u32s()?;
    let values = r.f32s()?;
    CsrMatrix::from_raw_parts_checked(n_cols, indptr, indices, values)
        .map_err(DecodeError::Invalid)
}

impl CsrMatrix {
    /// Fallible variant of [`CsrMatrix::from_raw_parts`] for decoding paths.
    pub fn from_raw_parts_checked(
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, String> {
        let m = Self::from_raw_parts_unchecked(n_cols, indptr, indices, values);
        m.validate()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;

    fn sample() -> CsrMatrix {
        let mut b = CsrBuilder::new(10);
        b.push_row(&[1, 5, 9], &[1.0, 0.5, 2.0]);
        b.push_row(&[], &[]);
        b.push_row(&[0], &[3.0]);
        b.build()
    }

    #[test]
    fn csr_roundtrip() {
        let m = sample();
        let bytes = encode_csr(&m);
        let back = decode_csr(&bytes).expect("decode");
        assert_eq!(back, m);
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let bytes = encode_csr(&sample());
        assert_eq!(decode_csr(&bytes[..bytes.len() - 3]), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xdeadbeef);
        put_u16(&mut buf, VERSION);
        assert_eq!(decode_csr(&buf), Err(DecodeError::BadMagic));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, MAGIC);
        put_u16(&mut buf, 99);
        assert_eq!(decode_csr(&buf), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn f32_and_u64_and_string_roundtrip() {
        let mut buf = Vec::new();
        put_f32_slice(&mut buf, &[1.5, -2.25]);
        put_u64_slice(&mut buf, &[7, u64::MAX]);
        put_string(&mut buf, "kandian");
        put_bytes(&mut buf, &[9, 8]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.f32s().expect("f32"), vec![1.5, -2.25]);
        assert_eq!(r.u64s().expect("u64"), vec![7, u64::MAX]);
        assert_eq!(r.string().expect("string"), "kandian");
        assert_eq!(r.bytes().expect("bytes"), &[9, 8]);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from the CRC-32/IEEE check suite (zlib's crc32).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_every_single_byte_flip() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32(&data);
        for pos in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[pos] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "flip at {pos}:{bit} undetected");
            }
        }
    }

    #[test]
    fn empty_slices_roundtrip() {
        let mut buf = Vec::new();
        put_f32_slice(&mut buf, &[]);
        assert_eq!(Reader::new(&buf).f32s().expect("empty"), Vec::<f32>::new());
    }

    /// `read` must succeed on exactly `width` bytes (consuming them all) and
    /// on more, and report `Truncated` on every shorter input.
    fn check_fixed<T: std::fmt::Debug>(
        width: usize,
        read: impl Fn(&mut Reader<'_>) -> Result<T, DecodeError>,
    ) {
        let data = [0x5Au8; 16];
        for have in [0, 1, width - 1] {
            if have < width {
                let mut r = Reader::new(&data[..have]);
                assert_eq!(read(&mut r).map(|_| ()), Err(DecodeError::Truncated), "{have}/{width}");
            }
        }
        let mut r = Reader::new(&data[..width]);
        read(&mut r).expect("exact width");
        assert_eq!(r.remaining(), 0);
        let mut r = Reader::new(&data[..width + 1]);
        read(&mut r).expect("one spare byte");
        assert_eq!(r.remaining(), 1);
    }

    #[test]
    fn every_fixed_width_accessor_is_bounded() {
        check_fixed(1, |r| r.u8());
        check_fixed(2, |r| r.u16());
        check_fixed(4, |r| r.u32());
        check_fixed(8, |r| r.u64());
        check_fixed(4, |r| r.f32());
        check_fixed(8, |r| r.f64());
        check_fixed(8, |r| r.usize());
        check_fixed(5, |r| r.take(5).map(<[u8]>::len));
        check_fixed(12, |r| r.f32_row(3).map(|row| row.len()));
        // A row width whose byte size overflows is truncation, not a panic.
        assert!(Reader::new(&[0; 16]).f32_row(usize::MAX / 2).is_err());
        assert_eq!(Reader::new(&[]).take(0), Ok(&[][..]));
    }

    #[test]
    fn every_length_prefixed_reader_is_bounded() {
        fn body(n: u64, elem: usize) -> Vec<u8> {
            let mut buf = n.to_le_bytes().to_vec();
            buf.resize(8 + n as usize * elem, 1);
            buf
        }
        type Read = fn(&mut Reader<'_>) -> Result<usize, DecodeError>;
        for (elem, read) in [
            (4usize, (|r| r.f32s().map(|v| v.len())) as Read),
            (4, |r| r.u32s().map(|v| v.len())),
            (8, |r| r.u64s().map(|v| v.len())),
            (8, |r| r.usizes().map(|v| v.len())),
            (1, |r| r.bytes().map(<[u8]>::len)),
            (1, |r| r.string().map(|v| v.len())),
        ] {
            let full = body(3, elem);
            assert_eq!(read(&mut Reader::new(&full)), Ok(3));
            assert_eq!(read(&mut Reader::new(&full[..full.len() - 1])), Err(DecodeError::Truncated));
            assert_eq!(read(&mut Reader::new(&full[..8])), Err(DecodeError::Truncated));
            assert_eq!(read(&mut Reader::new(&full[..7])), Err(DecodeError::Truncated));
        }
        let mut bad_utf8 = body(2, 1);
        bad_utf8[8] = 0xFF;
        assert!(matches!(Reader::new(&bad_utf8).string(), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn count_rejects_at_the_checked_mul_boundary() {
        let with_prefix = |n: u64, payload: usize| {
            let mut buf = n.to_le_bytes().to_vec();
            buf.resize(8 + payload, 0);
            buf
        };
        // Exactly fitting, one element too many, and zero.
        assert_eq!(Reader::new(&with_prefix(3, 12)).count(4), Ok(3));
        assert_eq!(Reader::new(&with_prefix(4, 15)).count(4), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&with_prefix(0, 0)).count(4), Ok(0));
        // count × elem_bytes wraps to a small number: 2^61 × 8 == 0 mod 2^64,
        // (2^62 + 1) × 4 == 4. Both must be rejected, not wrapped.
        assert_eq!(Reader::new(&with_prefix(1 << 61, 64)).count(8), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&with_prefix((1 << 62) + 1, 64)).count(4), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&with_prefix(u64::MAX, 64)).count(1), Err(DecodeError::Truncated));
        // Largest product that does not overflow still has to fit.
        assert_eq!(
            Reader::new(&with_prefix(u64::MAX / 8, 64)).count(8),
            Err(DecodeError::Truncated)
        );
        // The prefix itself is bounded.
        assert_eq!(Reader::new(&[0; 7]).count(1), Err(DecodeError::Truncated));
    }

    #[test]
    fn header_and_finish() {
        let mut buf = Vec::new();
        put_header(&mut buf);
        for cut in 0..6 {
            assert_eq!(Reader::new(&buf[..cut]).header(MAGIC, VERSION), Err(DecodeError::Truncated));
        }
        let mut r = Reader::new(&buf);
        assert_eq!(r.header(MAGIC, VERSION), Ok(()));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(Reader::new(&buf).header(MAGIC + 1, VERSION), Err(DecodeError::BadMagic));
        assert_eq!(Reader::new(&buf).header(MAGIC, 2), Err(DecodeError::BadVersion(VERSION)));
        assert!(matches!(Reader::new(&buf).finish(), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn expect_len_checks_the_product_without_overflow() {
        assert_eq!(expect_len(12, &[3, 4], "m"), Ok(()));
        assert_eq!(expect_len(0, &[0, usize::MAX], "m"), Ok(()));
        assert_eq!(expect_len(12, &[3, 5], "m"), Err(DecodeError::Invalid("m".into())));
        // 2^62 × 4 wraps to 0; it must not match a zero-length array.
        assert_eq!(expect_len(0, &[1 << 62, 4], "m"), Err(DecodeError::Invalid("m".into())));
    }
}
