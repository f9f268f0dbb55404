//! Minimal length-prefixed little-endian byte codec.
//!
//! Shared by the artifact-cache serialisers in this crate and its
//! dependants (`encoders`, `shallow`, `core`). The format is purely
//! positional — every reader must consume fields in the exact order the
//! writer emitted them — and decoding never panics: all failures surface
//! as `Err(String)` so a corrupt on-disk artifact degrades to a rebuild.

/// Append-only little-endian byte sink.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write a raw `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f32` as its little-endian bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its little-endian bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32` length prefix followed by the raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Write a string as a length-prefixed UTF-8 byte run.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Cursor over an encoded buffer; every accessor checks bounds.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        if end > self.bytes.len() {
            return Err(format!("truncated: need {n} bytes at offset {}", self.pos));
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read a raw `u8`.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Read a one-byte `bool`, rejecting values other than 0/1.
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("invalid bool byte {v}")),
        }
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("take returned 2 bytes")))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take returned 4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take returned 8 bytes")))
    }

    /// Read an `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("take returned 4 bytes")))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("take returned 8 bytes")))
    }

    /// Read a `u32`-length-prefixed byte run.
    pub fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|e| format!("invalid utf-8: {e}"))
    }

    /// Read a `u64` element count, bounds-checked against the bytes that
    /// could possibly remain (each element needs at least `min_elem_bytes`).
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, String> {
        let n = self.u64()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(format!("implausible element count {n} for {remaining} bytes"));
        }
        Ok(n)
    }

    /// Error unless the buffer was consumed exactly.
    pub fn finish(self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes", self.bytes.len() - self.pos))
        }
    }
}

/// One row of a row run — `u64 n`, then `n` rows back to back — the
/// layout of every row-chunked payload: packet records, shallow feature
/// rows and token rows.
pub trait Row: Sized {
    /// Fewest bytes one row encodes to; bounds the count a reader trusts.
    const MIN_BYTES: usize;
    /// Append this row.
    fn write(&self, w: &mut ByteWriter);
    /// Read one row.
    fn read(r: &mut ByteReader) -> Result<Self, String>;
}

/// Encode a row run.
pub fn rows_to_bytes<R: Row>(rows: &[R]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(rows.len() as u64);
    for row in rows {
        row.write(&mut w);
    }
    w.into_bytes()
}

/// Decode a [`rows_to_bytes`] run (rejects trailing bytes).
pub fn rows_from_bytes<R: Row>(bytes: &[u8]) -> Result<Vec<R>, String> {
    let mut r = ByteReader::new(bytes);
    let n = r.count(R::MIN_BYTES)?;
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        rows.push(R::read(&mut r).map_err(|e| format!("row {i}: {e}"))?);
    }
    r.finish()?;
    Ok(rows)
}

/// A feature row: its `f32` bit patterns.
impl<const N: usize> Row for [f32; N] {
    const MIN_BYTES: usize = 4 * N;
    fn write(&self, w: &mut ByteWriter) {
        for &v in self {
            w.f32(v);
        }
    }
    fn read(r: &mut ByteReader) -> Result<[f32; N], String> {
        let mut row = [0.0f32; N];
        for v in &mut row {
            *v = r.f32()?;
        }
        Ok(row)
    }
}

/// A token row: a `u64` length, then the raw `u32` tokens.
impl Row for Vec<u32> {
    const MIN_BYTES: usize = 8;
    fn write(&self, w: &mut ByteWriter) {
        w.u64(self.len() as u64);
        for &t in self {
            w.u32(t);
        }
    }
    fn read(r: &mut ByteReader) -> Result<Vec<u32>, String> {
        let len = r.count(4)?;
        let mut row = Vec::with_capacity(len);
        for _ in 0..len {
            row.push(r.u32()?);
        }
        Ok(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_kind() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(65535);
        w.u32(123_456);
        w.u64(u64::MAX - 1);
        w.f32(1.5);
        w.f64(-0.125);
        w.bytes(&[1, 2, 3]);
        w.str("héllo");
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 65535);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_garbage_error_out() {
        let mut w = ByteWriter::new();
        w.u64(42);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf[..5]);
        assert!(r.u64().is_err());
        let mut r = ByteReader::new(&buf);
        assert!(r.bool().is_err(), "42 is not a bool byte");
        let mut r = ByteReader::new(&buf);
        r.u32().unwrap();
        assert!(r.finish().is_err(), "trailing bytes must be rejected");
    }

    #[test]
    fn row_runs_round_trip_and_refuse_truncation() {
        let tokens = vec![vec![1u32, 2, 65535], vec![], vec![7]];
        let bytes = rows_to_bytes(&tokens);
        assert_eq!(rows_from_bytes::<Vec<u32>>(&bytes).unwrap(), tokens);
        assert!(rows_from_bytes::<Vec<u32>>(&bytes[..bytes.len() - 2]).is_err());
        assert!(rows_from_bytes::<Vec<u32>>(&[0xff; 9]).is_err());

        let features = vec![[1.5f32, -0.0, f32::NAN], [0.0, 2.0, 3.0]];
        let bytes = rows_to_bytes(&features);
        let back = rows_from_bytes::<[f32; 3]>(&bytes).unwrap();
        let bits = |rows: &[[f32; 3]]| -> Vec<u32> {
            rows.iter().flatten().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&back), bits(&features));
        assert!(rows_from_bytes::<[f32; 3]>(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn implausible_counts_are_rejected() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX / 2);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert!(r.count(8).is_err());
    }
}
