//! The byte codec behind every on-disk record: the result cache's entries
//! ([`crate::cache`]) and the study database's records
//! ([`crate::studydb`]).
//!
//! Fixed little-endian layout; `f64` round-trips by bit pattern (NaN gap
//! payloads included), so `decode(encode(x)).digest() == x.digest()`.
//! Every layout opens with the same 16-byte header, and those without a
//! semantic digest of their own close with an FNV-64 trailer:
//!
//! ```text
//! MWCC study entry:  magic | version | key | digest | body
//! MWCU unit entry:   magic | version | key | body | fnv64(all before)
//! MWCS sweep entry:  magic | version | key | body | fnv64(all before)
//! MWDB study record: magic | version | len | payload | fnv64(payload)
//! ```
//!
//! A study entry has no trailer: decoding rebuilds the study and checks
//! its [`crate::Characterization::digest`] against the stored one, which
//! catches every corruption in one pass over the bytes; a checksum would
//! be a second pass over a multi-megabyte entry on every warm load.

use crate::pipeline::Fnv1a;

/// Length of the `magic | version | word` header every layout opens with.
pub(crate) const HEADER_LEN: usize = 4 + 4 + 8;
/// Length of the FNV-64 trailer of a sealed layout.
pub(crate) const TRAILER_LEN: usize = 8;

/// FNV-1a over `bytes`: the trailer checksum.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Split a sealed buffer into the bytes its trailer covers and the
/// trailer itself. `None` when the buffer is too short or the checksum
/// does not match.
pub(crate) fn unseal(bytes: &[u8]) -> Option<(&[u8], u64)> {
    let body_len = bytes.len().checked_sub(TRAILER_LEN)?;
    let (body, tail) = bytes.split_at(body_len);
    let stored = u64::from_le_bytes(tail.try_into().ok()?);
    (fnv64(body) == stored).then_some((body, stored))
}

/// Little-endian writer.
#[derive(Default)]
pub(crate) struct Enc(pub(crate) Vec<u8>);

impl Enc {
    /// A buffer opening with the `magic | version | word` header; `word`
    /// is the key of a cache entry and the payload length of a DB record.
    pub(crate) fn header(magic: &[u8; 4], version: u32, word: u64) -> Self {
        let mut e = Enc::default();
        e.raw(magic);
        e.u32(version);
        e.u64(word);
        e
    }

    /// Append the FNV-64 trailer over every byte from offset `from` on,
    /// and hand back the finished buffer.
    pub(crate) fn seal(mut self, from: usize) -> Vec<u8> {
        let sum = fnv64(&self.0[from..]);
        self.u64(sum);
        self.0
    }

    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.raw(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader: every accessor returns `None`
/// instead of panicking on a short or lying buffer.
pub(crate) struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(b: &'a [u8]) -> Self {
        Dec { b, pos: 0 }
    }

    /// Check the `magic | version` of a header and return its `word`.
    pub(crate) fn header(&mut self, magic: &[u8; 4], version: u32) -> Option<u64> {
        if self.take(4)? != magic || self.u32()? != version {
            return None;
        }
        self.u64()
    }

    pub(crate) fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    pub(crate) fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.usize()?;
        if len > self.remaining() {
            return None;
        }
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}
