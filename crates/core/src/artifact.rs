//! Content-addressed artifact cache: the one build-once store of a run.
//!
//! Every expensive product — the generated/cleaned/parsed dataset,
//! whole-dataset token matrices, shallow feature matrices, split index
//! sets, pre-trained encoders, concluded cell outputs — is keyed by a
//! *content address*: a stable fingerprint of everything that determines
//! its bytes (dataset kind, seed, scale, tokenizer configuration,
//! feature configuration, split policy, pre-training provenance). Two
//! tiers sit behind one lookup:
//!
//! - an in-memory tier of `Arc`s with *single-flight* builds: concurrent
//!   misses for the same key block on one build instead of duplicating
//!   it (`Mutex<HashMap<_, Arc<OnceLock<_>>>>`);
//! - an optional on-disk tier under `--cache-dir`, serving byte-identical
//!   artifacts across processes.
//!
//! Invalidation is *key change, never mutation*: an artifact file is
//! written once under its fingerprint and never rewritten — a different
//! configuration is a different key, so stale data cannot be served.
//! A corrupt, truncated or mismatched file is ignored with a warning and
//! the artifact is rebuilt; a wrong record can never be returned because
//! the envelope carries the full canonical key and a checksum over the
//! payload.

use crate::obs::ObsSink;
use nn::envelope::{self, AtomicFile, PayloadReader};
use std::any::Any;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use traffic_synth::stream::fnv64;

/// A cacheable prepare-stage product: a stage name plus a row-group
/// codec. `from_groups` of `to_groups(x)` must reproduce `x` exactly —
/// loaded artifacts substitute for built ones byte-for-byte downstream.
pub trait Artifact: Send + Sync + Sized + 'static {
    /// Stage name, part of the content address (e.g. `"prepared"`).
    const STAGE: &'static str;

    /// Split the payload into the row groups of its envelope.
    /// Row-chunked artifacts emit one group per chunk of rows, so the
    /// disk tier can be written streamingly and warm readers can touch
    /// only the groups they need; a single-payload artifact emits
    /// [`single_group`].
    fn to_groups(&self) -> Vec<RowGroup>;

    /// Rebuild from row-group payloads; must invert
    /// [`Artifact::to_groups`]. Any inconsistency is an error, never a
    /// guess.
    fn from_groups(groups: Vec<Vec<u8>>) -> Result<Self, String>;
}

/// The groups of a single-payload artifact: one `rows: 0` group
/// holding all of `bytes`.
pub fn single_group(bytes: Vec<u8>) -> Vec<RowGroup> {
    vec![RowGroup { rows: 0, bytes }]
}

/// Decode a [`single_group`] artifact with `decode`. The lone group is
/// decoded in place, so a large artifact never exists twice in memory;
/// any other group count is refused.
pub fn from_single_group<A>(
    groups: Vec<Vec<u8>>,
    decode: impl FnOnce(&[u8]) -> Result<A, String>,
) -> Result<A, String> {
    match groups.as_slice() {
        [one] => decode(one),
        _ => Err(format!("expected one row group, found {}", groups.len())),
    }
}

/// Default number of logical rows per row group, shared by the grouped
/// artifact codecs and the chunked out-of-core prepare path.
pub const ROW_GROUP_ROWS: usize = 4096;

/// One row group of a v2 envelope: a self-contained byte chunk plus the
/// number of logical rows it encodes (0 when "rows" doesn't apply).
#[derive(Debug, Clone)]
pub struct RowGroup {
    /// Logical rows (records / token rows / feature rows) in the group.
    pub rows: u64,
    /// Self-contained encoded bytes of the group.
    pub bytes: Vec<u8>,
}

/// Counters describing how the cache served requests (mirrored into
/// `run-manifest.json` so warm runs are auditable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactStats {
    /// Requests served from the in-memory `Arc` tier.
    pub mem_hits: usize,
    /// Requests served by decoding an on-disk artifact.
    pub disk_hits: usize,
    /// Requests that ran the builder (cold misses).
    pub builds: usize,
}

/// One memory-tier slot: cloned out of the map lock, initialised (at
/// most once) outside it.
type Slot = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// Two-tier content-addressed cache with single-flight builds. The
/// default is a memory-only cache (no `--cache-dir`).
pub struct ArtifactCache {
    dir: Option<PathBuf>,
    slots: Mutex<HashMap<u64, Slot>>,
    mem_hits: AtomicUsize,
    disk_hits: AtomicUsize,
    builds: AtomicUsize,
    /// Event sink for the cache's disk-tier chatter; swapped in by the
    /// runner when a traced session starts.
    obs: Mutex<Arc<ObsSink>>,
}

impl Default for ArtifactCache {
    fn default() -> ArtifactCache {
        ArtifactCache::new(None)
    }
}

impl ArtifactCache {
    /// New cache; `dir` enables the on-disk tier.
    pub fn new(dir: Option<PathBuf>) -> ArtifactCache {
        ArtifactCache {
            dir,
            slots: Mutex::new(HashMap::new()),
            mem_hits: AtomicUsize::new(0),
            disk_hits: AtomicUsize::new(0),
            builds: AtomicUsize::new(0),
            obs: Mutex::new(crate::obs::global()),
        }
    }

    /// The cache's event sink.
    pub fn obs(&self) -> Arc<ObsSink> {
        self.obs.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Install a session's event sink on this cache.
    pub fn set_obs(&self, sink: Arc<ObsSink>) {
        *self.obs.lock().unwrap_or_else(|e| e.into_inner()) = sink;
    }

    /// The memory-tier slot for `fingerprint`, created empty on first use.
    fn slot(&self, fingerprint: u64) -> Slot {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).entry(fingerprint).or_default().clone()
    }

    /// The configured disk-tier directory, if any.
    pub fn dir(&self) -> Option<&PathBuf> {
        self.dir.as_ref()
    }

    /// Count a disk-tier hit established outside [`ArtifactCache::lookup`]
    /// — the out-of-core warm path validates an artifact's v2 frame
    /// (header/footer/trailer checksums) without decoding its body into
    /// memory, which is still a disk-tier serve for accounting purposes.
    pub(crate) fn note_disk_hit(&self) {
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> ArtifactStats {
        ArtifactStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
        }
    }

    /// Get the artifact addressed by `parts` (joined with `A::STAGE`
    /// into the canonical key), building it with `build` at most once
    /// per process. Concurrent callers for the same key block until the
    /// first build finishes; different keys proceed in parallel. The
    /// time a caller spends blocked on another thread's build goes to
    /// the sink's `wait` stage — observability only, never counted in
    /// [`ArtifactStats`].
    pub fn get_or_build<A: Artifact>(&self, parts: &[&str], build: impl FnOnce() -> A) -> Arc<A> {
        let key = canonical_key(A::STAGE, parts);
        let fingerprint = fingerprint(&key);
        let slot = self.slot(fingerprint);
        let ready = slot.get().is_some();
        let started = Instant::now();
        let mut invoked = false;
        let any = slot
            .get_or_init(|| {
                invoked = true;
                Arc::new(self.load_or_build(&key, fingerprint, build)) as Arc<dyn Any + Send + Sync>
            })
            .clone();
        if !invoked {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            if !ready {
                self.obs().add_stage("wait", started.elapsed().as_secs_f64());
            }
        }
        // The fingerprint covers the canonical key, which starts with the
        // stage, and each stage has exactly one payload type — so a
        // downcast failure is only reachable through a 64-bit collision
        // between different keys.
        any.downcast::<A>().expect("artifact stage/type mismatch")
    }

    /// Look up the artifact addressed by `parts` without building —
    /// memory tier first, then disk (a disk hit is promoted into the
    /// memory tier). Used by stages whose build path cannot be a plain
    /// closure (cell execution owns journaling and retries).
    pub fn lookup<A: Artifact>(&self, parts: &[&str]) -> Option<Arc<A>> {
        let key = canonical_key(A::STAGE, parts);
        let fingerprint = fingerprint(&key);
        let slot = self.slot(fingerprint);
        if let Some(any) = slot.get() {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return Some(any.clone().downcast::<A>().expect("artifact stage/type mismatch"));
        }
        let dir = self.dir.as_ref()?;
        let path = dir.join(file_name(A::STAGE, fingerprint));
        match read_from_disk::<A>(&path, &key)? {
            Ok(value) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                let any =
                    slot.get_or_init(|| Arc::new(value) as Arc<dyn Any + Send + Sync>).clone();
                Some(any.downcast::<A>().expect("artifact stage/type mismatch"))
            }
            Err(e) => {
                self.obs().warn(
                    "artifact",
                    &format!("  [artifact] ignoring {}: {e}", path.display()),
                    &[("path", path.display().to_string().into())],
                );
                None
            }
        }
    }

    /// Insert a freshly built artifact under `parts`, populating both
    /// tiers. Counts as a build. Returns the cached `Arc` (an earlier
    /// racing insert wins, preserving single-flight sharing).
    pub fn store<A: Artifact>(&self, parts: &[&str], value: A) -> Arc<A> {
        let key = canonical_key(A::STAGE, parts);
        let fingerprint = fingerprint(&key);
        self.builds.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot(fingerprint);
        let any = slot.get_or_init(|| Arc::new(value) as Arc<dyn Any + Send + Sync>).clone();
        let arc = any.downcast::<A>().expect("artifact stage/type mismatch");
        self.save_to_disk(&key, fingerprint, arc.as_ref());
        arc
    }

    fn save_to_disk<A: Artifact>(&self, key: &str, fingerprint: u64, value: &A) {
        let Some(dir) = &self.dir else { return };
        let path = dir.join(file_name(A::STAGE, fingerprint));
        let saved = self.writer_at(key, path.clone()).and_then(|mut w| {
            for g in value.to_groups() {
                w.push_group(g.rows, &g.bytes)?;
            }
            w.seal()
        });
        match saved {
            Ok(_) => self.obs().debug(
                "artifact",
                &format!("  [artifact] saved {}", path.display()),
                &[("path", path.display().to_string().into())],
            ),
            Err(e) => self.obs().warn(
                "artifact",
                &format!("  [artifact] could not save {}: {e}", path.display()),
                &[("path", path.display().to_string().into())],
            ),
        }
    }

    fn load_or_build<A: Artifact>(
        &self,
        key: &str,
        fingerprint: u64,
        build: impl FnOnce() -> A,
    ) -> A {
        let Some(dir) = self.dir.clone() else {
            self.builds.fetch_add(1, Ordering::Relaxed);
            return build();
        };
        let path = dir.join(file_name(A::STAGE, fingerprint));
        // Cross-process single-flight: the in-memory tier already
        // guarantees one build per process; the `.lock` sibling extends
        // that across processes sharing one --cache-dir. Exactly one
        // process acquires the lock and builds; everyone else waits for
        // the tmp+rename publication and serves it as a disk hit. A lock
        // whose holder died (SIGKILL mid-build) is stolen, so a crashed
        // builder never wedges its siblings.
        let mut waited = Duration::ZERO;
        let mut warned_corrupt = false;
        loop {
            match read_from_disk::<A>(&path, key) {
                Some(Ok(value)) => {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    self.obs().debug(
                        "artifact",
                        &format!("  [artifact] loaded {}", path.display()),
                        &[("path", path.display().to_string().into())],
                    );
                    return value;
                }
                Some(Err(e)) if !warned_corrupt => {
                    warned_corrupt = true;
                    self.obs().warn(
                        "artifact",
                        &format!("  [artifact] ignoring {}: {e}", path.display()),
                        &[("path", path.display().to_string().into())],
                    );
                }
                Some(Err(_)) | None => {}
            }
            if let Some(_guard) = PathLock::try_acquire(&path) {
                // Re-probe under the lock: the previous holder may have
                // published between our probe and the acquisition. A
                // corrupt file falls through to the rebuild (the rename
                // below replaces it) — refuse-or-rebuild, cross-process.
                if let Some(Ok(value)) = read_from_disk::<A>(&path, key) {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return value;
                }
                self.builds.fetch_add(1, Ordering::Relaxed);
                let value = build();
                self.save_to_disk(key, fingerprint, &value);
                return value;
            }
            // Lock held elsewhere: steal it if the holder is dead,
            // otherwise wait for its publication.
            if !PathLock::steal_if_stale(&path) {
                std::thread::sleep(LOCK_POLL);
                waited += LOCK_POLL;
                if waited.as_millis() % 5000 < LOCK_POLL.as_millis() {
                    self.obs().info(
                        "artifact",
                        &format!(
                            "  [artifact] waiting {:.0?} for a sibling process to build {}",
                            waited,
                            path.display()
                        ),
                        &[("path", path.display().to_string().into())],
                    );
                }
            }
        }
    }
}

/// One disk probe: `None` when the file is absent, `Some(Err)` when it
/// exists but fails to read or decode (corrupt / torn / mis-keyed, or
/// any envelope other than v2).
fn read_from_disk<A: Artifact>(path: &Path, key: &str) -> Option<Result<A, String>> {
    if !path.exists() {
        return None;
    }
    Some(RowGroupFile::open(path, key).and_then(|mut f| f.decode::<A>()))
}

// ---------------------------------------------------------------------
// Cross-process build locks
// ---------------------------------------------------------------------

/// How often waiters re-probe a held lock / unpublished artifact.
const LOCK_POLL: Duration = Duration::from_millis(10);

/// Cross-process single-flight lock for one on-disk file: a sibling
/// `<file>.lock` created with `O_EXCL` (`create_new`) holding the
/// owner's PID and start time ([`owner_record`]). Released by `Drop` —
/// including on panic unwind — so only a killed process leaves a lock
/// behind, and that lock is detectably stale because its holder no
/// longer runs, even once another process has reused its PID.
struct PathLock {
    path: PathBuf,
}

impl PathLock {
    /// The lock path guarding `target` (`<target>.lock`).
    fn lock_path(target: &Path) -> PathBuf {
        let mut name = target.file_name().unwrap_or_default().to_os_string();
        name.push(".lock");
        target.with_file_name(name)
    }

    /// Try to take the lock guarding `target`; `None` means some other
    /// process (or another cache instance in this one) holds it.
    fn try_acquire(target: &Path) -> Option<PathLock> {
        let path = PathLock::lock_path(target);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).ok();
        }
        match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                use std::io::Write as _;
                // Losing the owner write only costs stale-detection
                // precision (the age backstop still applies), never
                // correctness — the O_EXCL create is the lock. One
                // write, so no reader sees half a start time.
                let _ = f.write_all(owner_record().as_bytes());
                let _ = f.flush();
                Some(PathLock { path })
            }
            Err(_) => None,
        }
    }

    /// Remove the lock guarding `target` if its holder crashed (recorded
    /// PID no longer alive, or PID unreadable and the file abandoned).
    /// Returns whether a stale lock was actually removed. Concurrent
    /// stealers race through a rename — exactly one wins; losers simply
    /// retry their wait loop.
    fn steal_if_stale(target: &Path) -> bool {
        let path = PathLock::lock_path(target);
        if !lock_is_stale(&path) {
            return false;
        }
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".stale.{}", std::process::id()));
        let grave = path.with_file_name(name);
        if std::fs::rename(&path, &grave).is_ok() {
            std::fs::remove_file(&grave).ok();
            true
        } else {
            false
        }
    }
}

impl Drop for PathLock {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// The fields of `/proc/<pid>/stat` from field 3 (the state) on: they
/// follow the last `)`, since the command name may itself contain
/// parentheses.
fn proc_stat_fields(stat: &str) -> Option<std::str::SplitWhitespace<'_>> {
    stat.rfind(')').map(|i| stat[i + 1..].split_whitespace())
}

/// A process's start time in clock ticks since boot (field 22 of
/// `/proc/<pid>/stat`), or `None` without procfs. A PID names a process
/// only until it exits; the PID and its start time together name one
/// process for as long as the host runs.
pub(crate) fn pid_start_time(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // field 3 is the first after the `)`, so field 22 is the 20th
    proc_stat_fields(&stat)?.nth(19)?.parse().ok()
}

/// What a build lock holds: this process's PID, then its start time
/// when procfs reports one.
fn owner_record() -> String {
    let pid = std::process::id();
    match pid_start_time(pid) {
        Some(start) => format!("{pid} {start}"),
        None => pid.to_string(),
    }
}

/// Best-effort liveness probe via procfs; without procfs every PID
/// counts as dead, so callers that can do better check for procfs first.
///
/// A killed process whose parent never reaps it keeps its `/proc/<pid>`
/// entry as a zombie, so existence alone is not liveness: the state
/// field of `/proc/<pid>/stat` must not be `Z` or `X`. With `start`
/// (the holder's [`pid_start_time`] as recorded), a process that
/// started at another time reused the PID and does not count; without,
/// the PID alone decides.
pub(crate) fn pid_alive(pid: u32, start: Option<u64>) -> bool {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return false;
    };
    let Some(mut fields) = proc_stat_fields(&stat) else {
        return false;
    };
    if matches!(fields.next(), None | Some("Z" | "X")) {
        return false;
    }
    // the state was field 3, so field 22 is the 19th after it
    start.is_none_or(|start| fields.nth(18).and_then(|t| t.parse::<u64>().ok()) == Some(start))
}

/// A build lock's holder as `(pid, start time)`; a record from before
/// start times were written holds the PID alone.
fn parse_owner(content: &str) -> Option<(u32, Option<u64>)> {
    let mut fields = content.split_whitespace();
    let pid = fields.next()?.parse().ok()?;
    let start = match fields.next() {
        Some(t) => Some(t.parse().ok()?),
        None => None,
    };
    fields.next().is_none().then_some((pid, start))
}

fn lock_is_stale(lock: &Path) -> bool {
    match std::fs::read_to_string(lock) {
        Ok(content) => match parse_owner(&content) {
            Some((pid, start)) => {
                if Path::new("/proc/self").exists() {
                    !pid_alive(pid, start)
                } else {
                    // No procfs: fall back to an age backstop generous
                    // enough for any real build.
                    older_than(lock, Duration::from_secs(600))
                }
            }
            // Owner not written yet (holder between create and write) or
            // damaged: stale only once clearly abandoned.
            None => older_than(lock, Duration::from_secs(10)),
        },
        // Already gone — nothing to steal.
        Err(_) => false,
    }
}

fn older_than(path: &Path, age: Duration) -> bool {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .map(|elapsed| elapsed > age)
        .unwrap_or(false)
}

/// Canonical key string: the stage plus every fingerprint part,
/// `|`-joined with escaping-free parts (callers pass hex/enum tags).
fn canonical_key(stage: &str, parts: &[&str]) -> String {
    let mut key = String::from(stage);
    for p in parts {
        key.push('|');
        key.push_str(p);
    }
    key
}

/// The file-name fingerprint of a canonical key.
fn fingerprint(key: &str) -> u64 {
    fnv64(&[key.as_bytes()])
}

fn file_name(stage: &str, fingerprint: u64) -> String {
    format!("art-{stage}-{fingerprint:016x}.bin")
}

/// The canonical key string for an artifact addressed by `parts` —
/// what the envelope stores and [`RowGroupFile::open`] verifies.
/// Exposed for out-of-core readers that open artifact files directly.
pub fn artifact_key<A: Artifact>(parts: &[&str]) -> String {
    canonical_key(A::STAGE, parts)
}

const MAGIC: &[u8; 4] = b"DBAF";
const VERSION_V2: u32 = 2;
/// Fixed trailer size of a v2 envelope (see the byte diagram below).
const TRAILER_LEN: usize = 48;

// ---------------------------------------------------------------------
// DBAF envelopes
// ---------------------------------------------------------------------
//
// The shared `nn::envelope` header under magic "DBAF" and the canonical
// key, then the v2 row-group layout (DESIGN.md "On-disk formats"). Any
// other version, such as the v1 single-payload envelope written before
// row groups, is refused and rebuilt:
//
//   header  := "DBAF" | u32 version=2 | u32 key_len | key
//   body    := group[0] | group[1] | ... | group[n-1]      (contiguous)
//   footer  := u32 n_groups
//            | n × { u64 offset | u64 len | u64 rows | u64 fnv64(group) }
//            | u64 total_rows
//   trailer := u64 header_len | u64 footer_off | u64 footer_len
//            | u64 fnv64(header) | u64 fnv64(footer)
//            | u64 fnv64(previous 40 trailer bytes)            (48 bytes)
//
// The fixed-size trailer at the end of the file lets a reader locate
// and verify the header and footer with three bounded reads, then fetch
// (and checksum) only the row groups it needs — the warm "mmap" path
// ([`RowGroupFile`]) never touches the rest of the body. Validation is
// strict: offsets must tile the body exactly (first group at
// `header_len`, each group ending where the next begins, the last at
// `footer_off`) and per-group rows must sum to `total_rows`, so
// truncated, bit-flipped, duplicated or reordered groups are refused —
// never mis-decoded.

/// Byte-offset directory entry for one row group of a v2 envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMeta {
    /// Absolute byte offset of the group in the file.
    pub offset: u64,
    /// Encoded byte length of the group.
    pub len: u64,
    /// Logical rows in the group.
    pub rows: u64,
    /// FNV-64 of the group bytes.
    pub fnv: u64,
}

fn footer_bytes(groups: &[GroupMeta], total_rows: u64) -> Vec<u8> {
    let mut f = Vec::with_capacity(4 + groups.len() * 32 + 8);
    f.extend_from_slice(&(groups.len() as u32).to_le_bytes());
    for g in groups {
        f.extend_from_slice(&g.offset.to_le_bytes());
        f.extend_from_slice(&g.len.to_le_bytes());
        f.extend_from_slice(&g.rows.to_le_bytes());
        f.extend_from_slice(&g.fnv.to_le_bytes());
    }
    f.extend_from_slice(&total_rows.to_le_bytes());
    f
}

fn trailer_bytes(
    header_len: u64,
    footer_off: u64,
    footer_len: u64,
    header: &[u8],
    footer: &[u8],
) -> [u8; TRAILER_LEN] {
    let mut t = [0u8; TRAILER_LEN];
    t[0..8].copy_from_slice(&header_len.to_le_bytes());
    t[8..16].copy_from_slice(&footer_off.to_le_bytes());
    t[16..24].copy_from_slice(&footer_len.to_le_bytes());
    t[24..32].copy_from_slice(&envelope::fnv64(header).to_le_bytes());
    t[32..40].copy_from_slice(&envelope::fnv64(footer).to_le_bytes());
    let check = envelope::fnv64(&t[..40]);
    t[40..48].copy_from_slice(&check.to_le_bytes());
    t
}

/// Verify and parse a v2 footer slice against the frame geometry.
fn check_footer(footer: &[u8], header_len: u64, footer_off: u64) -> Result<Vec<GroupMeta>, String> {
    let mut r = PayloadReader::new(footer);
    let n_groups = r.u32()? as usize;
    if footer.len() != 4 + n_groups * 32 + 8 {
        return Err(format!("footer length {} does not fit {n_groups} groups", footer.len()));
    }
    let mut groups = Vec::with_capacity(n_groups);
    let mut expect = header_len;
    let mut sum_rows = 0u64;
    for i in 0..n_groups {
        let g = GroupMeta { offset: r.u64()?, len: r.u64()?, rows: r.u64()?, fnv: r.u64()? };
        // Groups must tile the body contiguously and in order — this is
        // what refuses duplicated, reordered or overlapping groups.
        if g.offset != expect {
            return Err(format!("group {i} at offset {} (expected {expect})", g.offset));
        }
        expect =
            g.offset.checked_add(g.len).ok_or_else(|| format!("group {i} length overflows"))?;
        sum_rows =
            sum_rows.checked_add(g.rows).ok_or_else(|| format!("group {i} row count overflows"))?;
        groups.push(g);
    }
    if expect != footer_off {
        return Err(format!("body ends at {expect}, footer starts at {footer_off}"));
    }
    let total_rows = r.u64()?;
    if sum_rows != total_rows {
        return Err(format!("group rows sum to {sum_rows}, footer claims {total_rows}"));
    }
    Ok(groups)
}

/// Verify the self-checksummed trailer and return
/// `(header_len, footer_off, footer_len, header_fnv, footer_fnv)`.
fn parse_trailer(t: &[u8; TRAILER_LEN]) -> Result<(u64, u64, u64, u64, u64), String> {
    let stored = u64::from_le_bytes(t[40..48].try_into().expect("8 bytes"));
    if envelope::fnv64(&t[..40]) != stored {
        return Err("trailer checksum mismatch".to_string());
    }
    Ok((
        u64::from_le_bytes(t[0..8].try_into().expect("8 bytes")),
        u64::from_le_bytes(t[8..16].try_into().expect("8 bytes")),
        u64::from_le_bytes(t[16..24].try_into().expect("8 bytes")),
        u64::from_le_bytes(t[24..32].try_into().expect("8 bytes")),
        u64::from_le_bytes(t[32..40].try_into().expect("8 bytes")),
    ))
}

/// Lazy reader over an on-disk v2 artifact: opens with three bounded
/// reads (trailer, header, footer — the file's "map"), then fetches and
/// checksums row groups individually on demand. This is the warm-path
/// working-set mechanism: a reader that needs only some groups never
/// touches the others' bytes (the positioned-read equivalent of an
/// `mmap` + page-fault walk, without unsafe code).
pub struct RowGroupFile {
    file: std::fs::File,
    path: PathBuf,
    groups: Vec<GroupMeta>,
    total_rows: u64,
}

impl RowGroupFile {
    /// Open `path` and validate its frame against `key`. Header, footer
    /// and trailer are fully verified here; group bodies are verified
    /// lazily by [`RowGroupFile::read_group`].
    pub fn open(path: &std::path::Path, key: &str) -> Result<RowGroupFile, String> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = std::fs::File::open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let io = |e: std::io::Error| format!("cannot read {}: {e}", path.display());
        let file_len = file.metadata().map_err(io)?.len();
        if file_len < TRAILER_LEN as u64 {
            return Err("truncated: shorter than the v2 trailer".to_string());
        }
        let mut trailer = [0u8; TRAILER_LEN];
        file.seek(SeekFrom::End(-(TRAILER_LEN as i64))).map_err(io)?;
        file.read_exact(&mut trailer).map_err(io)?;
        let (header_len, footer_off, footer_len, header_fnv, footer_fnv) = parse_trailer(&trailer)?;
        if footer_off.checked_add(footer_len).and_then(|e| e.checked_add(TRAILER_LEN as u64))
            != Some(file_len)
        {
            return Err("trailer geometry does not match file length".to_string());
        }
        if header_len > footer_off {
            return Err("header overlaps footer".to_string());
        }
        if header_len > (1 << 20) || footer_len > (1 << 30) {
            return Err("implausible header/footer length".to_string());
        }
        let mut header = vec![0u8; header_len as usize];
        file.seek(SeekFrom::Start(0)).map_err(io)?;
        file.read_exact(&mut header).map_err(io)?;
        if envelope::fnv64(&header) != header_fnv {
            return Err("header checksum mismatch".to_string());
        }
        let mut rest = &header[..];
        let stored = envelope::read_header(&mut rest, MAGIC, VERSION_V2)?;
        if stored != key {
            return Err(envelope::key_mismatch(&stored, key));
        }
        if !rest.is_empty() {
            return Err("trailing bytes after header key".to_string());
        }
        let mut footer = vec![0u8; footer_len as usize];
        file.seek(SeekFrom::Start(footer_off)).map_err(io)?;
        file.read_exact(&mut footer).map_err(io)?;
        if envelope::fnv64(&footer) != footer_fnv {
            return Err("footer checksum mismatch".to_string());
        }
        let groups = check_footer(&footer, header_len, footer_off)?;
        let total_rows = groups.iter().map(|g| g.rows).sum();
        Ok(RowGroupFile { file, path: path.to_path_buf(), groups, total_rows })
    }

    /// Number of row groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Directory entry of group `i`.
    pub fn group_meta(&self, i: usize) -> GroupMeta {
        self.groups[i]
    }

    /// Sum of logical rows across all groups.
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Read and checksum-verify group `i` — the only call that touches
    /// body bytes.
    pub fn read_group(&mut self, i: usize) -> Result<Vec<u8>, String> {
        use std::io::{Read, Seek, SeekFrom};
        let g = self.groups[i];
        let io = |e: std::io::Error| format!("cannot read {}: {e}", self.path.display());
        let mut bytes = vec![0u8; g.len as usize];
        self.file.seek(SeekFrom::Start(g.offset)).map_err(io)?;
        self.file.read_exact(&mut bytes).map_err(io)?;
        if envelope::fnv64(&bytes) != g.fnv {
            return Err(format!("row group {i} checksum mismatch"));
        }
        Ok(bytes)
    }

    /// Read every group and rebuild the artifact (a fully verified
    /// decode through the lazy path).
    pub fn decode<A: Artifact>(&mut self) -> Result<A, String> {
        let mut groups = Vec::with_capacity(self.groups.len());
        for i in 0..self.groups.len() {
            groups.push(self.read_group(i)?);
        }
        A::from_groups(groups)
    }
}

/// Streaming v2 writer: groups are appended one at a time (bounded
/// memory — the whole artifact never exists in RAM), then `finish`
/// seals footer + trailer and publishes the file atomically. Obtained
/// from [`ArtifactCache::group_writer`].
pub struct ArtifactGroupWriter<'a> {
    cache: &'a ArtifactCache,
    file: AtomicFile,
    path: PathBuf,
    pos: u64,
    header: Vec<u8>,
    metas: Vec<GroupMeta>,
    total_rows: u64,
}

impl<'a> ArtifactGroupWriter<'a> {
    /// Append one row group.
    pub fn push_group(&mut self, rows: u64, bytes: &[u8]) -> Result<(), String> {
        self.metas.push(GroupMeta {
            offset: self.pos,
            len: bytes.len() as u64,
            rows,
            fnv: envelope::fnv64(bytes),
        });
        self.total_rows += rows;
        self.file
            .write_all(bytes)
            .map_err(|e| format!("cannot write {}: {e}", self.path.display()))?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Seal the envelope (footer + trailer) and publish it at the final
    /// path. A failed or abandoned writer leaves only its own `.tmp`
    /// sibling behind for as long as it lives, which loaders never read.
    fn seal(mut self) -> Result<PathBuf, String> {
        let footer = footer_bytes(&self.metas, self.total_rows);
        let trailer = trailer_bytes(
            self.header.len() as u64,
            self.pos,
            footer.len() as u64,
            &self.header,
            &footer,
        );
        self.file
            .write_all(&footer)
            .and_then(|()| self.file.write_all(&trailer))
            .and_then(|()| self.file.commit())
            .map_err(|e| format!("cannot publish {}: {e}", self.path.display()))?;
        Ok(self.path)
    }

    /// Seal and publish the envelope, and count the build. The artifact
    /// becomes visible to `lookup`/`load_or_build` atomically.
    pub fn finish(self) -> Result<PathBuf, String> {
        let cache = self.cache;
        let path = self.seal()?;
        cache.builds.fetch_add(1, Ordering::Relaxed);
        cache.obs().debug(
            "artifact",
            &format!("  [artifact] streamed {}", path.display()),
            &[("path", path.display().to_string().into())],
        );
        Ok(path)
    }
}

impl ArtifactCache {
    /// The on-disk path the artifact addressed by `parts` would live
    /// at, if a disk tier is configured (the file may not exist yet).
    pub fn artifact_path<A: Artifact>(&self, parts: &[&str]) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        Some(dir.join(file_name(A::STAGE, fingerprint(&canonical_key(A::STAGE, parts)))))
    }

    /// Begin streaming the v2 artifact addressed by `parts` into the
    /// disk tier, group by group. Errors when the cache has no disk
    /// tier — streaming writes exist precisely to avoid materialising
    /// the artifact in memory, so there is nothing useful to do without
    /// a disk.
    pub fn group_writer<A: Artifact>(
        &self,
        parts: &[&str],
    ) -> Result<ArtifactGroupWriter<'_>, String> {
        let path =
            self.artifact_path::<A>(parts).ok_or("group_writer needs a disk tier (--cache-dir)")?;
        self.writer_at(&canonical_key(A::STAGE, parts), path)
    }

    fn writer_at(&self, key: &str, path: PathBuf) -> Result<ArtifactGroupWriter<'_>, String> {
        let dir = path.parent().expect("artifact paths live in the cache dir");
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut header = Vec::new();
        envelope::write_header(&mut header, MAGIC, VERSION_V2, key)
            .expect("writing to a Vec cannot fail");
        let mut file = AtomicFile::create(&path)
            .map_err(|e| format!("cannot create a temp file for {}: {e}", path.display()))?;
        file.write_all(&header).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(ArtifactGroupWriter {
            cache: self,
            file,
            path,
            pos: header.len() as u64,
            header,
            metas: Vec::new(),
            total_rows: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[derive(Debug)]
    struct Blob(Vec<u8>);

    impl Artifact for Blob {
        const STAGE: &'static str = "test-blob";
        fn to_groups(&self) -> Vec<RowGroup> {
            single_group(self.0.clone())
        }
        fn from_groups(groups: Vec<Vec<u8>>) -> Result<Blob, String> {
            from_single_group(groups, |bytes| Ok(Blob(bytes.to_vec())))
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn memory_tier_is_single_flight_under_concurrency() {
        let cache = ArtifactCache::new(None);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    cache.get_or_build::<Blob>(&["k"], || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window: every thread reaches the
                        // slot before the first build finishes.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Blob(vec![7])
                    });
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "concurrent misses share one build");
        let stats = cache.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.mem_hits, 7);
    }

    /// A caller blocked on another thread's in-flight build records the
    /// blocked time under the sink's `wait` stage; the builder and a
    /// later hit on the finished slot record none, and the hit/build
    /// counters are what they were without the stage.
    #[test]
    fn blocking_on_an_in_flight_build_is_timed_as_a_wait() {
        let cache = ArtifactCache::new(None);
        let sink = Arc::new(ObsSink::stderr(crate::obs::LogFormat::Text));
        cache.set_obs(sink.clone());
        let building = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                cache.get_or_build::<Blob>(&["k"], || {
                    building.wait();
                    // Long enough that the waiter reaches the slot while
                    // this build is still in flight.
                    std::thread::sleep(Duration::from_millis(100));
                    Blob(vec![1])
                })
            });
            building.wait();
            let value = cache.get_or_build::<Blob>(&["k"], || panic!("the build is shared"));
            assert_eq!(value.0, vec![1]);
        });
        let (count, secs) = sink.stage("wait").expect("the waiter recorded a wait");
        assert_eq!(count, 1, "only the blocked caller waits");
        assert!(secs > 0.0, "blocked time recorded: {secs}");
        cache.get_or_build::<Blob>(&["k"], || panic!("the slot is full"));
        assert_eq!(sink.stage("wait").map(|(n, _)| n), Some(1), "a ready hit waits for nothing");
        assert_eq!(cache.stats(), ArtifactStats { mem_hits: 2, disk_hits: 0, builds: 1 });
    }

    /// Two cache instances over one directory are two processes,
    /// conceptually: no shared memory tier, coordination only through
    /// the `.lock` sibling. A concurrent cold miss must build exactly
    /// once across both.
    #[test]
    fn disk_tier_is_single_flight_across_cache_instances() {
        let dir = temp_dir("debunk-artifact-xproc-flight");
        let a = ArtifactCache::new(Some(dir.clone()));
        let b = ArtifactCache::new(Some(dir.clone()));
        let builds = AtomicUsize::new(0);
        let build = || {
            builds.fetch_add(1, Ordering::SeqCst);
            // Widen the race window so the loser reaches the lock while
            // the winner is still building.
            std::thread::sleep(Duration::from_millis(50));
            Blob(vec![11])
        };
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(a.get_or_build::<Blob>(&["k"], build).0, vec![11]));
            s.spawn(|| assert_eq!(b.get_or_build::<Blob>(&["k"], build).0, vec![11]));
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "one build across both instances");
        assert_eq!(a.stats().builds + b.stats().builds, 1);
        assert_eq!(a.stats().disk_hits + b.stats().disk_hits, 1, "the loser got a disk hit");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".lock") || n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "locks and temp files cleaned up: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A lock left behind by a SIGKILLed builder (its PID no longer
    /// exists) must be stolen, not waited on forever.
    #[test]
    fn stale_build_lock_from_a_dead_pid_is_taken_over() {
        let dir = temp_dir("debunk-artifact-stale-lock");
        std::fs::create_dir_all(&dir).unwrap();
        let key = canonical_key(Blob::STAGE, &["k"]);
        let path = dir.join(file_name(Blob::STAGE, fingerprint(&key)));
        // u32::MAX is far above any kernel pid_max, so this holder can
        // never be alive.
        std::fs::write(PathLock::lock_path(&path), u32::MAX.to_string()).unwrap();

        let cache = ArtifactCache::new(Some(dir.clone()));
        let value = cache.get_or_build::<Blob>(&["k"], || Blob(vec![3]));
        assert_eq!(value.0, vec![3], "takeover let the build proceed");
        assert_eq!(cache.stats().builds, 1);
        assert!(!PathLock::lock_path(&path).exists(), "stolen lock removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A build process that died unreaped lingers as a zombie: its
    /// `/proc/<pid>` entry exists, yet it will never release the lock.
    #[test]
    fn build_lock_held_by_a_zombie_is_stale() {
        use std::time::{Duration, Instant};
        let dir = temp_dir("debunk-artifact-zombie-lock");
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("art-test-blob-0000000000000000.bin");
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let stat = format!("/proc/{}/stat", child.id());
        let deadline = Instant::now() + Duration::from_secs(10);
        while !std::fs::read_to_string(&stat).is_ok_and(|s| s.contains(") Z ")) {
            assert!(Instant::now() < deadline, "child never became a zombie");
            std::thread::sleep(Duration::from_millis(10));
        }
        std::fs::write(PathLock::lock_path(&target), child.id().to_string()).unwrap();
        let stolen = PathLock::steal_if_stale(&target);
        child.wait().unwrap();
        assert!(stolen, "a zombie holder's lock must be taken over");
        assert!(!PathLock::lock_path(&target).exists(), "stolen lock removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A lock naming our own PID with another start time was left by
    /// an earlier process that had this PID: stale. With our own start
    /// time it is ours: live. A PID-only record keeps the PID check.
    #[test]
    fn build_lock_from_a_reused_pid_is_stale() {
        let dir = temp_dir("debunk-artifact-reused-pid-lock");
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("art-test-blob-0000000000000000.bin");
        let lock = PathLock::lock_path(&target);
        let pid = std::process::id();
        let start = pid_start_time(pid).expect("procfs reports our start time");
        std::fs::write(&lock, format!("{pid} {start}")).unwrap();
        assert!(!lock_is_stale(&lock), "our own pid and start time are live");
        std::fs::write(&lock, pid.to_string()).unwrap();
        assert!(!lock_is_stale(&lock), "a pid-only record falls back to the pid check");
        std::fs::write(&lock, format!("{pid} {}", start + 1)).unwrap();
        assert!(lock_is_stale(&lock), "a reused pid's lock is stale");
        assert!(PathLock::steal_if_stale(&target), "and is taken over");
        assert!(!lock.exists(), "stolen lock removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The owner record is `<pid> <start time>` and round-trips.
    #[test]
    fn owner_record_names_this_process() {
        let pid = std::process::id();
        assert_eq!(parse_owner(&owner_record()), Some((pid, pid_start_time(pid))));
        assert!(pid_alive(pid, pid_start_time(pid)));
        assert_eq!(parse_owner("12 x"), None, "a damaged start time is no owner");
        assert_eq!(parse_owner("12 34 56"), None);
    }

    /// A live holder's lock is NOT stolen: stale detection keys on PID
    /// liveness, and our own PID is alive by definition.
    #[test]
    fn live_lock_is_not_stolen() {
        let dir = temp_dir("debunk-artifact-live-lock");
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("art-test-blob-0000000000000000.bin");
        let guard = PathLock::try_acquire(&target).expect("uncontended acquire");
        assert!(PathLock::try_acquire(&target).is_none(), "second acquire blocked");
        assert!(!PathLock::steal_if_stale(&target), "live lock must not be stolen");
        drop(guard);
        assert!(PathLock::try_acquire(&target).is_some(), "released lock reacquirable");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn same_key_shares_one_arc_and_different_keys_differ() {
        let cache = ArtifactCache::new(None);
        let a = cache.get_or_build::<Blob>(&["x", "1"], || Blob(vec![1]));
        let b = cache.get_or_build::<Blob>(&["x", "1"], || Blob(vec![2]));
        assert!(Arc::ptr_eq(&a, &b), "same key, same Arc");
        assert_eq!(b.0, vec![1], "second builder never ran");
        let c = cache.get_or_build::<Blob>(&["x", "2"], || Blob(vec![3]));
        assert_eq!(c.0, vec![3], "different key builds");
    }

    #[test]
    fn disk_tier_round_trips_across_cache_instances() {
        let dir = temp_dir("debunk-artifact-roundtrip");
        let first = ArtifactCache::new(Some(dir.clone()));
        first.get_or_build::<Blob>(&["k"], || Blob(vec![1, 2, 3]));
        assert_eq!(first.stats().builds, 1);

        let second = ArtifactCache::new(Some(dir.clone()));
        let loaded =
            second.get_or_build::<Blob>(&["k"], || panic!("must load from disk, not rebuild"));
        assert_eq!(loaded.0, vec![1, 2, 3]);
        assert_eq!(second.stats(), ArtifactStats { mem_hits: 0, disk_hits: 1, builds: 0 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_or_truncated_files_rebuild_with_a_warning_never_wrong_bytes() {
        let dir = temp_dir("debunk-artifact-corrupt");
        ArtifactCache::new(Some(dir.clone())).get_or_build::<Blob>(&["k"], || Blob(vec![9; 64]));
        let path = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let good = std::fs::read(&path).unwrap();

        // Every single-byte corruption and every truncation must be
        // detected and fall back to the builder, not decode wrongly.
        for variant in 0..3 {
            let mut bad = good.clone();
            match variant {
                0 => bad[good.len() / 2] ^= 0xff,  // flip payload byte
                1 => bad.truncate(good.len() / 2), // truncate
                _ => bad.clear(),                  // empty file
            }
            std::fs::write(&path, &bad).unwrap();
            let cache = ArtifactCache::new(Some(dir.clone()));
            let rebuilt = cache.get_or_build::<Blob>(&["k"], || Blob(vec![9; 64]));
            assert_eq!(rebuilt.0, vec![9; 64], "variant {variant} must rebuild");
            assert_eq!(cache.stats().builds, 1, "variant {variant} fell back to the builder");
        }

        // A file stored under a colliding name but a different canonical
        // key is rejected by the key check.
        std::fs::write(&path, &good).unwrap();
        let cache = ArtifactCache::new(Some(dir.clone()));
        cache.get_or_build::<Blob>(&["k"], || panic!("intact file must load"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lookup_store_round_trips_both_tiers() {
        let dir = temp_dir("debunk-artifact-lookup");
        let cache = ArtifactCache::new(Some(dir.clone()));
        assert!(cache.lookup::<Blob>(&["k"]).is_none(), "cold lookup misses");
        let stored = cache.store(&["k"], Blob(vec![4, 2]));
        let mem = cache.lookup::<Blob>(&["k"]).expect("memory tier hit");
        assert!(Arc::ptr_eq(&stored, &mem));
        assert_eq!(cache.stats(), ArtifactStats { mem_hits: 1, disk_hits: 0, builds: 1 });

        let second = ArtifactCache::new(Some(dir.clone()));
        let disk = second.lookup::<Blob>(&["k"]).expect("disk tier hit");
        assert_eq!(disk.0, vec![4, 2]);
        assert_eq!(second.stats(), ArtifactStats { mem_hits: 0, disk_hits: 1, builds: 0 });
        // A promoted disk hit is served from memory afterwards.
        second.lookup::<Blob>(&["k"]).unwrap();
        assert_eq!(second.stats().mem_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A row-chunked artifact: each chunk is one group, groups carry
    /// their element counts as rows.
    #[derive(Debug, PartialEq)]
    struct Chunks(Vec<Vec<u8>>);

    impl Artifact for Chunks {
        const STAGE: &'static str = "test-chunks";
        fn to_groups(&self) -> Vec<RowGroup> {
            self.0
                .iter()
                .map(|c| {
                    let mut b = (c.len() as u32).to_le_bytes().to_vec();
                    b.extend_from_slice(c);
                    RowGroup { rows: c.len() as u64, bytes: b }
                })
                .collect()
        }
        fn from_groups(groups: Vec<Vec<u8>>) -> Result<Chunks, String> {
            let mut chunks = Vec::with_capacity(groups.len());
            for g in groups {
                if g.len() < 4 {
                    return Err("group shorter than its length prefix".to_string());
                }
                let n = u32::from_le_bytes(g[0..4].try_into().expect("4 bytes")) as usize;
                if g.len() != 4 + n {
                    return Err("group length prefix mismatch".to_string());
                }
                chunks.push(g[4..].to_vec());
            }
            Ok(Chunks(chunks))
        }
    }

    /// Two writers streaming the same key at once (two processes
    /// preparing into one --cache-dir) each write their own temp file;
    /// both publish, and the survivor is a complete, decodable file.
    #[test]
    fn concurrent_group_writers_for_one_key_both_publish() {
        let dir = temp_dir("debunk-artifact-two-writers");
        let cache = ArtifactCache::new(Some(dir.clone()));
        let value = Chunks(vec![vec![5; 10], vec![6; 20], vec![7; 30]]);
        let mut a = cache.group_writer::<Chunks>(&["k"]).unwrap();
        let mut b = cache.group_writer::<Chunks>(&["k"]).unwrap();
        for g in value.to_groups() {
            a.push_group(g.rows, &g.bytes).unwrap();
            b.push_group(g.rows, &g.bytes).unwrap();
        }
        let path = a.finish().expect("first writer publishes");
        assert_eq!(b.finish().expect("second writer publishes"), path);
        let mut f = RowGroupFile::open(&path, "test-chunks|k").unwrap();
        assert_eq!(f.decode::<Chunks>().unwrap(), value);
        let tmp_left = std::fs::read_dir(&dir)
            .unwrap()
            .any(|e| e.unwrap().path().extension() == Some("tmp".as_ref()));
        assert!(!tmp_left, "no temp sibling may remain");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn row_group_file_reads_single_groups_lazily() {
        let dir = temp_dir("debunk-artifact-rgf");
        let cache = ArtifactCache::new(Some(dir.clone()));
        let value = Chunks(vec![vec![1; 8], vec![], vec![2; 16]]);
        cache.store(&["k"], Chunks(value.0.clone()));
        let path = cache.artifact_path::<Chunks>(&["k"]).unwrap();

        let mut f = RowGroupFile::open(&path, "test-chunks|k").unwrap();
        assert_eq!(f.n_groups(), 3, "group boundaries survive, empty group included");
        assert_eq!(f.total_rows(), 24);
        assert_eq!(f.read_group(2).unwrap()[4..], [2; 16]);
        assert_eq!(f.decode::<Chunks>().unwrap(), value);
        let err = RowGroupFile::open(&path, "test-chunks|other").err().expect("wrong key");
        assert!(err.contains("key mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
