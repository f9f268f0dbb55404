//! The one checksummed file envelope and the one atomic-publish rule
//! shared by every on-disk format in the workspace: frozen models
//! (`DBFZ`), artifact-cache files (`DBAF` v2) and shard runs (`DBSR`).
//! DESIGN.md "On-disk formats" draws the three layouts.
//!
//! Every file opens with the same header (all integers little-endian):
//!
//! `magic(4) · u32 version · u32 key_len · key`
//!
//! The key is the full canonical identity of the contents, so a file is
//! never served for the wrong model kind, artifact or shard slot. The
//! single-payload layout ([`seal`]/[`open`], used by `DBFZ`) follows
//! the header with `u64 payload_len · payload · u64 fnv64(everything
//! before)`.
//!
//! Files are published through [`AtomicFile`]: bytes go to a temp
//! sibling unique to this process and write (`<file>.<pid>.<seq>.tmp`),
//! which is flushed, fsynced and renamed over the target. A reader sees
//! the old file or the new one, never a torn one; two writers never
//! share a temp file; and loaders never read `*.tmp`.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cap on elements decoded into one buffer, so a corrupt length field
/// that survives the checksum (i.e. a deliberately crafted file) cannot
/// request an absurd allocation.
pub(crate) const MAX_ELEMS: u64 = 1 << 28;

/// Cap on a header key, checked before allocating for it.
const MAX_KEY_LEN: usize = 1 << 16;

/// Streaming FNV-1a 64 — the checksum of every envelope. Stable across
/// Rust releases, platforms and processes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv::default()
    }

    /// Fold `bytes` into the hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of one byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// Write the shared header `magic · u32 version · u32 key_len · key`.
pub fn write_header(
    w: &mut impl Write,
    magic: &[u8; 4],
    version: u32,
    key: &str,
) -> io::Result<()> {
    w.write_all(magic)?;
    w.write_all(&version.to_le_bytes())?;
    w.write_all(&(key.len() as u32).to_le_bytes())?;
    w.write_all(key.as_bytes())
}

/// Read and check the shared header against `magic` and `version`,
/// returning the stored key (callers compare it with the key they
/// want). Consumes exactly the header's bytes from `r`.
pub fn read_header(r: &mut impl Read, magic: &[u8; 4], version: u32) -> Result<String, String> {
    let mut fixed = [0u8; 12];
    r.read_exact(&mut fixed).map_err(|e| format!("truncated header: {e}"))?;
    if &fixed[0..4] != magic {
        return Err(format!("bad magic (not a {} file)", String::from_utf8_lossy(magic)));
    }
    let stored = u32::from_le_bytes(fixed[4..8].try_into().expect("4 bytes"));
    if stored != version {
        return Err(format!("unsupported {} version {stored}", String::from_utf8_lossy(magic)));
    }
    let key_len = u32::from_le_bytes(fixed[8..12].try_into().expect("4 bytes")) as usize;
    if key_len > MAX_KEY_LEN {
        return Err(format!("implausible key length {key_len}"));
    }
    let mut key = vec![0u8; key_len];
    r.read_exact(&mut key).map_err(|e| format!("truncated key: {e}"))?;
    String::from_utf8(key).map_err(|_| "key is not UTF-8".to_string())
}

/// The error for a header whose key is not the one asked for.
pub fn key_mismatch(stored: &str, wanted: &str) -> String {
    format!("key mismatch: file is '{stored}', wanted '{wanted}'")
}

/// Wrap `payload` in the single-payload layout under `key`.
pub fn seal(magic: &[u8; 4], version: u32, key: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + key.len() + 28);
    write_header(&mut out, magic, version, key).expect("writing to a Vec cannot fail");
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = fnv64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Unwrap a single-payload envelope, verifying checksum, magic, version
/// and key in one checksum pass. Returns the payload, borrowed.
pub fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u32,
    key: &str,
) -> Result<&'a [u8], String> {
    if bytes.len() < 8 {
        return Err("truncated: shorter than the checksum".to_string());
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    if fnv64(body) != u64::from_le_bytes(tail.try_into().expect("8-byte tail")) {
        return Err("checksum mismatch".to_string());
    }
    let mut r = body;
    let stored = read_header(&mut r, magic, version)?;
    if stored != key {
        return Err(key_mismatch(&stored, key));
    }
    let mut p = PayloadReader::new(r);
    let payload_len = p.u64()?;
    let payload = p.take(usize::try_from(payload_len).map_err(|_| "payload too large")?)?;
    p.finish()?;
    Ok(payload)
}

/// Sequence number making temp names unique among this process's
/// concurrent writers (the pid separates processes).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A file being written under a unique temp sibling
/// `<file>.<pid>.<seq>.tmp`; [`AtomicFile::commit`] publishes it at the
/// final path in one rename. Dropped uncommitted (an error, a panic),
/// it removes its temp file, so the final path only ever holds a
/// complete file.
pub struct AtomicFile {
    file: Option<BufWriter<File>>,
    tmp: PathBuf,
    path: PathBuf,
    renamed: bool,
}

impl AtomicFile {
    /// Start writing the file that will be published at `path`.
    pub fn create(path: &Path) -> io::Result<AtomicFile> {
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".{}.{seq}.tmp", std::process::id()));
        let tmp = path.with_file_name(name);
        let file = File::create(&tmp)?;
        Ok(AtomicFile {
            file: Some(BufWriter::with_capacity(1 << 16, file)),
            tmp,
            path: path.to_path_buf(),
            renamed: false,
        })
    }

    /// Flush, fsync and rename the temp file over the final path, then
    /// fsync the directory so the rename itself is durable.
    pub fn commit(mut self) -> io::Result<()> {
        let file = self.file.take().expect("commit runs once");
        let file = file.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&self.tmp, &self.path)?;
        self.renamed = true;
        match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => File::open(dir)?.sync_all(),
            _ => Ok(()),
        }
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.as_mut().expect("written only before commit").write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.as_mut().expect("written only before commit").flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.renamed {
            std::fs::remove_file(&self.tmp).ok();
        }
    }
}

/// Publish `bytes` at `path` through an [`AtomicFile`].
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = AtomicFile::create(path)?;
    f.write_all(bytes)?;
    f.commit()
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

/// Little-endian payload writer for envelope bodies.
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// Empty writer.
    pub fn new() -> PayloadWriter {
        PayloadWriter::default()
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f32` as its raw bits (bit-exact round-trip).
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append an `f64` as its raw bits.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a length-prefixed (u32) UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed (u64) `f32` slice.
    pub fn f32s(&mut self, vs: &[f32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f32(v);
        }
    }

    /// Append a length-prefixed (u64) `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    /// Append a length-prefixed (u64) `u16` slice.
    pub fn u16s(&mut self, vs: &[u16]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u16(v);
        }
    }

    /// Append a length-prefixed (u64) `i8` slice (raw two's-complement
    /// bytes).
    pub fn i8s(&mut self, vs: &[i8]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.buf.push(v as u8);
        }
    }
}

/// Little-endian payload reader; every accessor fails loudly on
/// truncation instead of guessing.
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Reader over a decoded payload.
    pub fn new(bytes: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { bytes, pos: 0 }
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| format!("payload truncated at offset {}", self.pos))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read an `f32` from its raw bits.
    pub fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Read an `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length (u64) and check it is a sane element count.
    pub fn read_len(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        if n > MAX_ELEMS {
            return Err(format!("implausible element count {n}"));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed (u32) UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        if n as u64 > MAX_ELEMS {
            return Err(format!("implausible string length {n}"));
        }
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".to_string())
    }

    /// Read a length-prefixed (u64) `f32` slice.
    pub fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let n = self.read_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f32()?);
        }
        Ok(out)
    }

    /// Read a length-prefixed (u64) `f64` slice.
    pub fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let n = self.read_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Read a length-prefixed (u64) `u16` slice.
    pub fn u16s(&mut self) -> Result<Vec<u16>, String> {
        let n = self.read_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u16()?);
        }
        Ok(out)
    }

    /// Read a length-prefixed (u64) `i8` slice.
    pub fn i8s(&mut self) -> Result<Vec<i8>, String> {
        let n = self.read_len()?;
        let bytes = self.take(n)?;
        Ok(bytes.iter().map(|&b| b as i8).collect())
    }

    /// Fail if undecoded bytes remain — a payload must be consumed
    /// exactly, or the file was written by something else.
    pub fn finish(&self) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(format!("{} trailing bytes after payload", self.bytes.len() - self.pos));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_streams_like_the_one_shot_hash() {
        let mut h = Fnv::new();
        h.update(b"ab");
        h.update(b"c");
        assert_eq!(h.finish(), fnv64(b"abc"));
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c, "published FNV-1a 64 test vector");
    }

    #[test]
    fn concurrent_writers_use_distinct_temp_files() {
        let dir = std::env::temp_dir().join("debunk-envelope-writers");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        let mut a = AtomicFile::create(&path).unwrap();
        let mut b = AtomicFile::create(&path).unwrap();
        a.write_all(b"from a").unwrap();
        b.write_all(b"from b").unwrap();
        a.commit().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"from a");
        b.commit().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"from b");
        atomic_write(&path, b"third").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"third");
        // An uncommitted writer leaves neither a temp file nor a target.
        let mut c = AtomicFile::create(&dir.join("never.bin")).unwrap();
        c.write_all(b"lost").unwrap();
        drop(c);
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["out.bin"], "no temp sibling and no uncommitted target remain");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reader_rejects_trailing_bytes_and_bad_lengths() {
        let mut w = PayloadWriter::new();
        w.f32s(&[1.0, 2.0]);
        w.u8(0); // trailing byte
        let sealed = seal(b"TEST", 1, "blob", &w.into_bytes());
        let mut r = PayloadReader::new(open(&sealed, b"TEST", 1, "blob").unwrap());
        let _ = r.f32s().unwrap();
        assert!(r.finish().is_err(), "trailing bytes must be refused");
        // implausible lengths are rejected before allocating
        let mut w = PayloadWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(PayloadReader::new(&bytes).read_len().is_err());
        let mut header = Vec::new();
        write_header(&mut header, b"TEST", 2, "").unwrap();
        header[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_header(&mut &header[..], b"TEST", 2).unwrap_err().contains("implausible"));
    }
}
