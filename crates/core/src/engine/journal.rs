//! Crash-safe run journal: an append-only, line-oriented JSONL log of
//! every cell a suite run starts, finishes or fails, plus the atomic
//! `run-manifest.json` summary.
//!
//! Why this exists: a multi-minute `repro all` sweep used to be all or
//! nothing — a panic in one cell, a SIGKILL, or a power cut lost every
//! finished cell. The journal records each cell's identity hash
//! (experiment id + task/model/setting + derived seed), its status
//! transitions (`started` → `done`/`failed`) with attempt counts, and
//! the finished [`CellOutput`]. On `--resume`, completed cells are
//! replayed from the journal byte-identically (the PR 1 determinism
//! contract holds at any `--jobs`) and only missing or failed cells
//! execute.
//!
//! Format notes:
//!
//! - One JSON object per line, appended with a single `write` + flush,
//!   so a crash can only damage the final line. The loader tolerates a
//!   truncated final line (the in-flight cell simply re-runs) but
//!   rejects corruption anywhere else with a line-numbered error.
//! - The first line is a `run` header carrying the run fingerprint
//!   (seed, scale, budget, hyper-parameters). Resuming under a
//!   different configuration is a hard error, not a silent mix of
//!   incompatible cells. Each resumed session appends another header,
//!   leaving an audit trail of attempts.
//! - Serialisation is hand-rolled and deterministic: `u64` values are
//!   fixed-width hex strings (JSON numbers lose precision past 2^53),
//!   floats use the shortest round-trip form, and wall-clock timings
//!   are zeroed before a `done` entry is written — journal bytes never
//!   depend on scheduling or the clock, matching the record contract.

use crate::artifact::{from_single_group, single_group, Artifact, RowGroup};
use crate::engine::registry::{CellOutput, RecordStats};
use crate::engine::runner::RunSummary;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use traffic_synth::stream::fnv64;

/// Journal file name under `--out-dir`.
pub const JOURNAL_FILE: &str = "journal.jsonl";
/// Manifest file name under `--out-dir`.
pub const MANIFEST_FILE: &str = "run-manifest.json";

// ---------------------------------------------------------------------------
// Deterministic JSON helpers (shared with the record writer in `report`)
// ---------------------------------------------------------------------------

/// Escape a string into a JSON string literal (without the quotes).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` the way serde_json/Ryu does for the values that occur
/// here: integral values keep one decimal (`1.0`), everything else uses
/// the shortest string that parses back to the same bits. Non-finite
/// values (a diverged fold) become `null` rather than invalid JSON.
pub fn format_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e16 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// A parsed JSON value. Only what the journal and manifest need — no
/// serde dependency, so the journal stays functional (and testable) in
/// minimal environments and its byte format is fully pinned down here.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String literal.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse one JSON document. Fails with a human-readable reason on any
/// malformed input; never panics, whatever the bytes (corrupt journals
/// are exactly the input this must survive).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let bytes = s.as_bytes();
    let mut p = Parser { bytes, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.depth > 32 {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte 0x{b:02x} at offset {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        match text.parse::<f64>() {
            // `from_str` maps overflow to ±inf; JSON has no infinities,
            // so an overflowing literal is corrupt, not a huge value.
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(format!("invalid number '{text}' at offset {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: journal writes only BMP
                            // escapes, but corrupt bytes may not.
                            let c = char::from_u32(cp).unwrap_or('\u{fffd}');
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar; the input is a &str so
                    // boundaries are valid by construction.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "non-utf8".to_string())?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "non-utf8 \\u escape".to_string())?;
        let cp = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end - 1; // caller advances one more
        Ok(cp)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cell identity and journal entries
// ---------------------------------------------------------------------------

/// Stable identity of one cell: the `ResultRecord` coordinates plus the
/// derived cell seed. The hash of this is the journal's cell key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellId {
    /// Experiment id, e.g. "table3".
    pub experiment: String,
    /// Task name.
    pub task: String,
    /// Model name.
    pub model: String,
    /// Setting.
    pub setting: String,
    /// The cell's derived seed (see `RunContext::cell_seed`).
    pub seed: u64,
}

impl CellId {
    /// Identity hash used as the journal key. Seed participates, so a
    /// journal written under one base seed never replays into another.
    pub fn hash(&self) -> u64 {
        fnv64(&[
            self.experiment.as_bytes(),
            self.task.as_bytes(),
            self.model.as_bytes(),
            self.setting.as_bytes(),
            format!("{:016x}", self.seed).as_bytes(),
        ])
    }
}

/// One journal line.
#[derive(Debug, Clone)]
pub enum JournalEntry {
    /// Session header: every session (fresh or resumed) appends one.
    Run {
        /// Hash of the run configuration (seed, scale, budget, cfg).
        fingerprint: u64,
    },
    /// A cell attempt began.
    Started {
        /// Cell identity hash.
        cell: u64,
        /// 1-based attempt number, cumulative across resumes.
        attempt: u32,
        /// Full identity, for humans reading the journal.
        id: CellId,
    },
    /// A cell attempt finished; `output` has wall-clock timings zeroed.
    Done {
        /// Cell identity hash.
        cell: u64,
        /// Attempt that succeeded.
        attempt: u32,
        /// The finished output (replayed on `--resume`).
        output: CellOutput,
    },
    /// A cell attempt failed (panic payload or soft-timeout message).
    Failed {
        /// Cell identity hash.
        cell: u64,
        /// Attempt that failed.
        attempt: u32,
        /// Captured panic payload or timeout description.
        error: String,
    },
}

fn output_to_json(out: &CellOutput) -> String {
    let mut s = String::from("{\"stats\":");
    match &out.stats {
        // Timings are zeroed at append time; only the deterministic
        // metrics are stored.
        Some(st) => {
            s.push_str(&format!(
                "{{\"accuracy\":{},\"macro_f1\":{}}}",
                format_f64(st.accuracy),
                format_f64(st.macro_f1)
            ));
        }
        None => s.push_str("null"),
    }
    s.push_str(",\"values\":[");
    for (i, (k, v)) in out.values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("[\"{}\",{}]", escape_json(k), format_f64(*v)));
    }
    s.push_str("],\"lines\":[");
    for (i, line) in out.lines.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\"", escape_json(line)));
    }
    s.push_str("]}");
    s
}

fn output_from_json(j: &Json) -> Result<CellOutput, String> {
    let stats = match j.get("stats").ok_or("missing 'stats'")? {
        Json::Null => None,
        st => Some(RecordStats::of(field_f64(st, "accuracy")?, field_f64(st, "macro_f1")?)),
    };
    let mut values = Vec::new();
    if let Json::Arr(items) = j.get("values").ok_or("missing 'values'")? {
        for item in items {
            match item {
                Json::Arr(pair) if pair.len() == 2 => {
                    let k = pair[0].str().ok_or("value key not a string")?.to_string();
                    let v = match &pair[1] {
                        Json::Num(n) => *n,
                        Json::Null => f64::NAN,
                        _ => return Err("value entry not a number".to_string()),
                    };
                    values.push((k, v));
                }
                _ => return Err("malformed values entry".to_string()),
            }
        }
    } else {
        return Err("'values' not an array".to_string());
    }
    let mut lines = Vec::new();
    if let Json::Arr(items) = j.get("lines").ok_or("missing 'lines'")? {
        for item in items {
            lines.push(item.str().ok_or("line not a string")?.to_string());
        }
    } else {
        return Err("'lines' not an array".to_string());
    }
    Ok(CellOutput { stats, values, lines })
}

/// Successful cell outputs are themselves content-addressed artifacts:
/// keyed by (run fingerprint, cell identity), they let a warm
/// `--cache-dir` run replay finished cells across *processes*, exactly
/// like `--resume` replays them from the journal within one output
/// directory. The payload reuses the journal's deterministic JSON codec
/// (timings zeroed before store), so a cached cell is byte-identical to
/// an executed one.
impl Artifact for CellOutput {
    const STAGE: &'static str = "cell";

    fn to_groups(&self) -> Vec<RowGroup> {
        single_group(output_to_json(self).into_bytes())
    }

    fn from_groups(groups: Vec<Vec<u8>>) -> Result<CellOutput, String> {
        from_single_group(groups, |bytes| {
            let s = std::str::from_utf8(bytes).map_err(|e| format!("not utf-8: {e}"))?;
            output_from_json(&parse_json(s)?)
        })
    }
}

fn field_f64(j: &Json, key: &str) -> Result<f64, String> {
    match j.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        Some(Json::Null) => Ok(f64::NAN),
        _ => Err(format!("missing or non-numeric '{key}'")),
    }
}

fn field_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key).and_then(Json::str).ok_or_else(|| format!("missing or non-string '{key}'"))
}

fn field_hex64(j: &Json, key: &str) -> Result<u64, String> {
    let s = field_str(j, key)?;
    u64::from_str_radix(s, 16).map_err(|_| format!("'{key}' is not a hex u64"))
}

fn field_attempt(j: &Json) -> Result<u32, String> {
    let n = j.get("attempt").and_then(Json::num).ok_or("missing 'attempt'")?;
    if n.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&n) {
        return Err("'attempt' out of range".to_string());
    }
    Ok(n as u32)
}

impl JournalEntry {
    /// Serialise to one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            JournalEntry::Run { fingerprint } => {
                format!("{{\"status\":\"run\",\"version\":1,\"fingerprint\":\"{fingerprint:016x}\"}}")
            }
            JournalEntry::Started { cell, attempt, id } => format!(
                "{{\"status\":\"started\",\"cell\":\"{cell:016x}\",\"attempt\":{attempt},\
                 \"experiment\":\"{}\",\"task\":\"{}\",\"model\":\"{}\",\"setting\":\"{}\",\
                 \"seed\":\"{:016x}\"}}",
                escape_json(&id.experiment),
                escape_json(&id.task),
                escape_json(&id.model),
                escape_json(&id.setting),
                id.seed,
            ),
            JournalEntry::Done { cell, attempt, output } => format!(
                "{{\"status\":\"done\",\"cell\":\"{cell:016x}\",\"attempt\":{attempt},\"output\":{}}}",
                output_to_json(output)
            ),
            JournalEntry::Failed { cell, attempt, error } => format!(
                "{{\"status\":\"failed\",\"cell\":\"{cell:016x}\",\"attempt\":{attempt},\
                 \"error\":\"{}\"}}",
                escape_json(error)
            ),
        }
    }

    /// Parse one journal line.
    pub fn from_line(line: &str) -> Result<JournalEntry, String> {
        let j = parse_json(line)?;
        match field_str(&j, "status")? {
            "run" => Ok(JournalEntry::Run { fingerprint: field_hex64(&j, "fingerprint")? }),
            "started" => Ok(JournalEntry::Started {
                cell: field_hex64(&j, "cell")?,
                attempt: field_attempt(&j)?,
                id: CellId {
                    experiment: field_str(&j, "experiment")?.to_string(),
                    task: field_str(&j, "task")?.to_string(),
                    model: field_str(&j, "model")?.to_string(),
                    setting: field_str(&j, "setting")?.to_string(),
                    seed: field_hex64(&j, "seed")?,
                },
            }),
            "done" => Ok(JournalEntry::Done {
                cell: field_hex64(&j, "cell")?,
                attempt: field_attempt(&j)?,
                output: output_from_json(j.get("output").ok_or("missing 'output'")?)?,
            }),
            "failed" => Ok(JournalEntry::Failed {
                cell: field_hex64(&j, "cell")?,
                attempt: field_attempt(&j)?,
                error: field_str(&j, "error")?.to_string(),
            }),
            other => Err(format!("unknown status '{other}'")),
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a journal could not be opened or replayed.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(PathBuf, io::Error),
    /// A non-final line failed to parse — the file was edited or the
    /// storage corrupted it; resuming would silently lose cells.
    Corrupt {
        /// Journal path.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// Parser diagnosis.
        reason: String,
    },
    /// The file has entries but no `run` header line first.
    MissingHeader(PathBuf),
    /// The journal was written under a different configuration.
    FingerprintMismatch {
        /// Journal path.
        path: PathBuf,
        /// Fingerprint of the current run.
        expected: u64,
        /// Fingerprint found in the journal.
        found: u64,
    },
    /// Two `done` entries for the same cell disagree — the journal is
    /// not a record of one deterministic run and must not be replayed.
    ConflictingDone {
        /// Journal path.
        path: PathBuf,
        /// 1-based line number of the second, conflicting entry.
        line: usize,
        /// Cell identity hash.
        cell: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(path, e) => write!(f, "journal {}: {e}", path.display()),
            JournalError::Corrupt { path, line, reason } => {
                write!(f, "journal {} line {line} is corrupt: {reason}", path.display())
            }
            JournalError::MissingHeader(path) => {
                write!(f, "journal {} has no run header line", path.display())
            }
            JournalError::FingerprintMismatch { path, expected, found } => write!(
                f,
                "journal {} was written by a different run configuration \
                 (journal fingerprint {found:016x}, this run is {expected:016x}); \
                 rerun without --resume or use a fresh --out dir",
                path.display()
            ),
            JournalError::ConflictingDone { path, line, cell } => write!(
                f,
                "journal {} line {line} has a conflicting 'done' entry for cell {cell:016x}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

// ---------------------------------------------------------------------------
// Replay state
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct CellState {
    attempts: u32,
    done: Option<(CellOutput, String)>, // output + its serialised form
    last_error: Option<String>,
}

/// Replay state folded from a journal: which cells finished (and their
/// outputs), and how many attempts each cell has consumed.
#[derive(Debug, Default)]
pub struct JournalState {
    cells: HashMap<u64, CellState>,
}

impl JournalState {
    /// Fold journal `content` (the raw file bytes as UTF-8) into replay
    /// state, validating the header against `fingerprint`.
    pub fn parse(
        content: &str,
        path: &Path,
        fingerprint: u64,
    ) -> Result<JournalState, JournalError> {
        let mut state = JournalState::default();
        // A line is complete only if newline-terminated; a crash mid-
        // append leaves a partial final fragment which is not replayed.
        let complete_len = content.rfind('\n').map(|i| i + 1).unwrap_or(0);
        let complete = &content[..complete_len];
        let n_lines = complete.lines().count();
        let mut saw_header = false;
        for (idx, line) in complete.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let entry = match JournalEntry::from_line(line) {
                Ok(e) => e,
                // A parse failure on the final complete line is the
                // crash-truncation case (the newline made it to disk
                // but the line body did not, or vice versa): drop it.
                Err(_) if idx + 1 == n_lines => break,
                Err(reason) => {
                    return Err(JournalError::Corrupt {
                        path: path.to_path_buf(),
                        line: idx + 1,
                        reason,
                    })
                }
            };
            match entry {
                JournalEntry::Run { fingerprint: found } => {
                    if found != fingerprint {
                        return Err(JournalError::FingerprintMismatch {
                            path: path.to_path_buf(),
                            expected: fingerprint,
                            found,
                        });
                    }
                    saw_header = true;
                }
                _ if !saw_header => return Err(JournalError::MissingHeader(path.to_path_buf())),
                JournalEntry::Started { cell, attempt, .. } => {
                    let c = state.cells.entry(cell).or_default();
                    c.attempts = c.attempts.max(attempt);
                }
                JournalEntry::Done { cell, attempt, output } => {
                    let serialized = output_to_json(&output);
                    let c = state.cells.entry(cell).or_default();
                    c.attempts = c.attempts.max(attempt);
                    match &c.done {
                        // Duplicated identical entries are harmless
                        // (e.g. a replayed block of the file); a
                        // disagreement means the journal lies.
                        Some((_, prev)) if *prev != serialized => {
                            return Err(JournalError::ConflictingDone {
                                path: path.to_path_buf(),
                                line: idx + 1,
                                cell,
                            });
                        }
                        Some(_) => {}
                        None => c.done = Some((output, serialized)),
                    }
                }
                JournalEntry::Failed { cell, attempt, error } => {
                    let c = state.cells.entry(cell).or_default();
                    c.attempts = c.attempts.max(attempt);
                    c.last_error = Some(error);
                }
            }
        }
        Ok(state)
    }

    /// The finished output for a cell, if the journal has one.
    pub fn done_output(&self, cell: u64) -> Option<&CellOutput> {
        self.cells.get(&cell).and_then(|c| c.done.as_ref()).map(|(out, _)| out)
    }

    /// Attempts already consumed by a cell (0 if never started).
    pub fn attempts(&self, cell: u64) -> u32 {
        self.cells.get(&cell).map(|c| c.attempts).unwrap_or(0)
    }

    /// Last recorded failure for a cell, if any.
    pub fn last_error(&self, cell: u64) -> Option<&str> {
        self.cells.get(&cell).and_then(|c| c.last_error.as_deref())
    }

    /// Number of cells with a finished output.
    pub fn n_done(&self) -> usize {
        self.cells.values().filter(|c| c.done.is_some()).count()
    }
}

// ---------------------------------------------------------------------------
// The journal itself
// ---------------------------------------------------------------------------

/// Append-only journal writer. Thread-safe: worker threads append
/// concurrently; each entry is a single buffered write + flush.
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
}

impl Journal {
    /// Start a fresh journal at `path` (truncating any previous one)
    /// and write the session header.
    pub fn create(path: &Path, fingerprint: u64) -> Result<Journal, JournalError> {
        let file = File::create(path).map_err(|e| JournalError::Io(path.to_path_buf(), e))?;
        let journal = Journal { file: Mutex::new(file), path: path.to_path_buf() };
        journal
            .append(&JournalEntry::Run { fingerprint })
            .map_err(|e| JournalError::Io(path.to_path_buf(), e))?;
        Ok(journal)
    }

    /// Open `path` for resumption: fold its entries into replay state
    /// (validating the fingerprint), then reopen in append mode and log
    /// a fresh session header. A missing or empty file resumes as a
    /// fresh run.
    pub fn resume(path: &Path, fingerprint: u64) -> Result<(Journal, JournalState), JournalError> {
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(JournalError::Io(path.to_path_buf(), e)),
        };
        let state = JournalState::parse(&content, path, fingerprint)?;
        // A crash can leave a half-written final line. Trim the file to
        // its last complete line before appending, or the next entry
        // would fuse with the fragment into a corrupt line that poisons
        // every later resume.
        let complete = content.rfind('\n').map_or(0, |i| i + 1);
        if complete < content.len() {
            let file = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| JournalError::Io(path.to_path_buf(), e))?;
            file.set_len(complete as u64).map_err(|e| JournalError::Io(path.to_path_buf(), e))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| JournalError::Io(path.to_path_buf(), e))?;
        let journal = Journal { file: Mutex::new(file), path: path.to_path_buf() };
        journal
            .append(&JournalEntry::Run { fingerprint })
            .map_err(|e| JournalError::Io(path.to_path_buf(), e))?;
        Ok((journal, state))
    }

    /// Append one entry: a single `write` of the full line, flushed, so
    /// concurrent appends never interleave and a crash can only damage
    /// the final line.
    pub fn append(&self, entry: &JournalEntry) -> io::Result<()> {
        let mut line = entry.to_line();
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(line.as_bytes())?;
        file.flush()
    }

    /// Journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stable hash of the journal's current on-disk contents (recorded
    /// in the manifest so a journal/manifest pair is self-checking).
    pub fn content_hash(&self) -> io::Result<u64> {
        let content = std::fs::read_to_string(&self.path)?;
        Ok(fnv64(&[content.as_bytes()]))
    }
}

// ---------------------------------------------------------------------------
// Run manifest
// ---------------------------------------------------------------------------

/// Summary of one suite run, written atomically as
/// `run-manifest.json` under `--out-dir`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// Cells the run scheduled.
    pub cells_total: usize,
    /// Cells with a finished output (including replayed ones).
    pub cells_done: usize,
    /// Cells that exhausted their attempts (panic or timeout).
    pub cells_failed: usize,
    /// Cells replayed from the journal instead of executed.
    pub cells_resumed: usize,
    /// Identities of failed cells, `experiment/task/model/setting`.
    pub failed_cells: Vec<String>,
    /// Result-record or manifest write failures (empty on a clean run).
    pub record_write_errors: Vec<String>,
    /// Artifact-cache requests served from the in-memory tier.
    pub artifact_mem_hits: usize,
    /// Artifact-cache requests served from the `--cache-dir` disk tier.
    pub artifact_disk_hits: usize,
    /// Artifact-cache cold misses that ran a builder.
    pub artifact_builds: usize,
    /// Hash of the journal contents at manifest-write time.
    pub journal_hash: u64,
}

impl RunManifest {
    /// Pretty JSON rendering (deterministic, 2-space indent).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"cells_total\": {},\n", self.cells_total));
        s.push_str(&format!("  \"cells_done\": {},\n", self.cells_done));
        s.push_str(&format!("  \"cells_failed\": {},\n", self.cells_failed));
        s.push_str(&format!("  \"cells_resumed\": {},\n", self.cells_resumed));
        let list = |items: &[String]| -> String {
            if items.is_empty() {
                "[]".to_string()
            } else {
                let body: Vec<String> =
                    items.iter().map(|i| format!("    \"{}\"", escape_json(i))).collect();
                format!("[\n{}\n  ]", body.join(",\n"))
            }
        };
        s.push_str(&format!("  \"failed_cells\": {},\n", list(&self.failed_cells)));
        s.push_str(&format!("  \"record_write_errors\": {},\n", list(&self.record_write_errors)));
        s.push_str(&format!("  \"artifact_mem_hits\": {},\n", self.artifact_mem_hits));
        s.push_str(&format!("  \"artifact_disk_hits\": {},\n", self.artifact_disk_hits));
        s.push_str(&format!("  \"artifact_builds\": {},\n", self.artifact_builds));
        s.push_str(&format!("  \"journal_hash\": \"{:016x}\"\n", self.journal_hash));
        s.push('}');
        s
    }

    /// Parse a manifest previously written by [`RunManifest::to_json`].
    pub fn from_json(s: &str) -> Result<RunManifest, String> {
        let j = parse_json(s)?;
        let count = |key: &str| -> Result<usize, String> {
            let n = j.get(key).and_then(Json::num).ok_or(format!("missing '{key}'"))?;
            if n.fract() != 0.0 || n < 0.0 {
                return Err(format!("'{key}' is not a count"));
            }
            Ok(n as usize)
        };
        let strings = |key: &str| -> Result<Vec<String>, String> {
            match j.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|i| i.str().map(String::from).ok_or(format!("non-string in '{key}'")))
                    .collect(),
                _ => Err(format!("missing '{key}'")),
            }
        };
        Ok(RunManifest {
            cells_total: count("cells_total")?,
            cells_done: count("cells_done")?,
            cells_failed: count("cells_failed")?,
            cells_resumed: count("cells_resumed")?,
            failed_cells: strings("failed_cells")?,
            record_write_errors: strings("record_write_errors")?,
            artifact_mem_hits: count("artifact_mem_hits")?,
            artifact_disk_hits: count("artifact_disk_hits")?,
            artifact_builds: count("artifact_builds")?,
            journal_hash: field_hex64(&j, "journal_hash")?,
        })
    }

    /// Write the manifest atomically under `dir`; returns its path.
    pub fn write_atomic(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(MANIFEST_FILE);
        let mut body = self.to_json();
        body.push('\n');
        nn::envelope::atomic_write(&path, body.as_bytes())?;
        Ok(path)
    }

    /// Write the manifest of `summary` atomically under `dir`. Its path
    /// lands in `summary.manifest_path`, a failed write in
    /// `summary.record_write_errors`.
    pub fn write_summary(summary: &mut RunSummary, journal_hash: u64, dir: &Path) {
        let manifest = RunManifest {
            cells_total: summary.cells_total,
            cells_done: summary.cells_done,
            cells_failed: summary.cells_failed,
            cells_resumed: summary.cells_resumed,
            failed_cells: summary.failed_cells.clone(),
            record_write_errors: summary.record_write_errors.clone(),
            artifact_mem_hits: summary.artifacts.mem_hits,
            artifact_disk_hits: summary.artifacts.disk_hits,
            artifact_builds: summary.artifacts.builds,
            journal_hash,
        };
        match manifest.write_atomic(dir) {
            Ok(path) => summary.manifest_path = Some(path),
            Err(e) => summary
                .record_write_errors
                .push(format!("{}: {e}", dir.join(MANIFEST_FILE).display())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_output() -> CellOutput {
        CellOutput {
            stats: Some(RecordStats {
                accuracy: 0.875,
                macro_f1: 0.8612345678901234,
                train_secs: 0.0,
                infer_secs: 0.0,
            }),
            values: vec![("bins".to_string(), 7.0), ("q\"uote".to_string(), -0.125)],
            lines: vec!["line one".to_string(), "tab\there".to_string()],
        }
    }

    fn sample_id(n: u64) -> CellId {
        CellId {
            experiment: "table3".to_string(),
            task: "TLS-120".to_string(),
            model: format!("model-{n}"),
            setting: "per-flow/frozen".to_string(),
            seed: 0xdead_beef ^ n,
        }
    }

    fn sample_journal(fingerprint: u64, n_cells: u64) -> (Vec<CellId>, String) {
        let mut content = JournalEntry::Run { fingerprint }.to_line() + "\n";
        let ids: Vec<CellId> = (0..n_cells).map(sample_id).collect();
        for id in &ids {
            let h = id.hash();
            content +=
                &(JournalEntry::Started { cell: h, attempt: 1, id: id.clone() }.to_line() + "\n");
            content += &(JournalEntry::Done { cell: h, attempt: 1, output: sample_output() }
                .to_line()
                + "\n");
        }
        (ids, content)
    }

    #[test]
    fn entries_round_trip_through_lines() {
        let id = sample_id(3);
        let entries = [
            JournalEntry::Run { fingerprint: 0x0123_4567_89ab_cdef },
            JournalEntry::Started { cell: id.hash(), attempt: 2, id: id.clone() },
            JournalEntry::Done { cell: id.hash(), attempt: 2, output: sample_output() },
            JournalEntry::Failed {
                cell: id.hash(),
                attempt: 1,
                error: "panic: index 9 out of bounds\nwith \"newline\"".to_string(),
            },
        ];
        for entry in &entries {
            let line = entry.to_line();
            assert!(!line.contains('\n'), "journal lines are single lines: {line}");
            let back = JournalEntry::from_line(&line).expect("parse own serialization");
            // CellOutput lacks PartialEq on purpose (it holds f64s with
            // possible NaN); compare by serialized form instead.
            assert_eq!(back.to_line(), line);
        }
    }

    #[test]
    fn state_replays_done_cells() {
        let (ids, content) = sample_journal(42, 3);
        let state = JournalState::parse(&content, Path::new("j"), 42).expect("valid journal");
        assert_eq!(state.n_done(), 3);
        for id in &ids {
            let out = state.done_output(id.hash()).expect("cell done");
            assert_eq!(output_to_json(out), output_to_json(&sample_output()));
            assert_eq!(state.attempts(id.hash()), 1);
        }
        assert!(state.done_output(0x1234).is_none(), "unknown cells are not done");
    }

    #[test]
    fn truncated_final_line_is_tolerated_at_every_cut() {
        let (_, content) = sample_journal(7, 2);
        assert!(content.is_ascii(), "sample journal is ASCII so every cut is a char boundary");
        let full = JournalState::parse(&content, Path::new("j"), 7).unwrap().n_done();
        assert_eq!(full, 2);
        for cut in 0..content.len() {
            let partial = &content[..cut];
            match JournalState::parse(partial, Path::new("j"), 7) {
                Ok(state) => assert!(state.n_done() <= full),
                Err(e) => {
                    // Only the header-line cuts may fail, and only with
                    // the clear missing-header diagnosis.
                    assert!(
                        matches!(e, JournalError::MissingHeader(_)),
                        "cut at {cut}: unexpected error {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicated_done_lines_are_harmless_but_conflicts_are_fatal() {
        let (ids, content) = sample_journal(9, 2);
        let done_line =
            JournalEntry::Done { cell: ids[0].hash(), attempt: 1, output: sample_output() }
                .to_line();
        let dup = format!("{content}{done_line}\n");
        let state = JournalState::parse(&dup, Path::new("j"), 9).expect("duplicate done is fine");
        assert_eq!(state.n_done(), 2);

        let mut conflicting = sample_output();
        if let Some(st) = &mut conflicting.stats {
            st.accuracy += 0.5;
        }
        let bad = JournalEntry::Done { cell: ids[0].hash(), attempt: 2, output: conflicting };
        let evil = format!("{content}{}\n", bad.to_line());
        // Trailing-line tolerance must not mask the conflict: pad with a
        // subsequent valid line so the conflict is not final.
        let evil = format!("{evil}{}\n", JournalEntry::Run { fingerprint: 9 }.to_line());
        match JournalState::parse(&evil, Path::new("j"), 9) {
            Err(JournalError::ConflictingDone { cell, .. }) => assert_eq!(cell, ids[0].hash()),
            other => panic!("expected ConflictingDone, got {other:?}"),
        }
    }

    #[test]
    fn started_without_done_consumes_attempts_but_reruns() {
        let id = sample_id(0);
        let h = id.hash();
        let mut content = JournalEntry::Run { fingerprint: 1 }.to_line() + "\n";
        content +=
            &(JournalEntry::Started { cell: h, attempt: 1, id: id.clone() }.to_line() + "\n");
        content += &(JournalEntry::Failed { cell: h, attempt: 1, error: "panic: x".into() }
            .to_line()
            + "\n");
        content += &(JournalEntry::Started { cell: h, attempt: 2, id }.to_line() + "\n");
        let state = JournalState::parse(&content, Path::new("j"), 1).unwrap();
        assert_eq!(state.n_done(), 0, "no done entry, cell must re-run");
        assert_eq!(state.attempts(h), 2, "attempt count survives the crash");
        assert_eq!(state.last_error(h), Some("panic: x"));
    }

    #[test]
    fn corrupt_middle_line_is_a_clear_error() {
        let (_, content) = sample_journal(5, 2);
        let mut lines: Vec<&str> = content.lines().collect();
        lines[2] = "{\"status\":\"done\",garbage";
        let broken = lines.join("\n") + "\n";
        match JournalState::parse(&broken, Path::new("j"), 5) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected Corrupt at line 3, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_mismatch_refuses_replay() {
        let (_, content) = sample_journal(11, 1);
        match JournalState::parse(&content, Path::new("j"), 12) {
            Err(JournalError::FingerprintMismatch { expected, found, .. }) => {
                assert_eq!((expected, found), (12, 11));
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }

    #[test]
    fn journal_file_round_trips_and_resumes() {
        let dir = std::env::temp_dir().join("debunk-journal-roundtrip-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);

        let id = sample_id(1);
        let h = id.hash();
        let journal = Journal::create(&path, 77).unwrap();
        journal.append(&JournalEntry::Started { cell: h, attempt: 1, id: id.clone() }).unwrap();
        journal
            .append(&JournalEntry::Done { cell: h, attempt: 1, output: sample_output() })
            .unwrap();
        drop(journal);

        let (journal2, state) = Journal::resume(&path, 77).unwrap();
        assert_eq!(state.n_done(), 1);
        assert!(state.done_output(h).is_some());
        drop(journal2);
        // The resumed session appended a second header.
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.matches("\"status\":\"run\"").count(), 2);

        // Resuming a missing journal is a fresh run, not an error.
        let missing = dir.join("missing.jsonl");
        let (_, empty) = Journal::resume(&missing, 77).unwrap();
        assert_eq!(empty.n_done(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cell_output_artifact_codec_round_trips() {
        let out = sample_output();
        let groups = out.to_groups();
        assert_eq!((groups.len(), groups[0].rows), (1, 0), "one rows-0 group");
        let bytes = groups[0].bytes.clone();
        let back = CellOutput::from_groups(vec![bytes.clone()]).unwrap();
        assert_eq!(output_to_json(&back), output_to_json(&out));
        assert!(CellOutput::from_groups(vec![bytes[..bytes.len() - 2].to_vec()]).is_err());
        assert!(CellOutput::from_groups(vec![b"{\"stats\":null}".to_vec()]).is_err());
        assert!(CellOutput::from_groups(vec![bytes.clone(), bytes]).is_err(), "two groups");
        assert!(CellOutput::from_groups(Vec::new()).is_err(), "no group");
    }

    #[test]
    fn manifest_round_trips_and_writes_atomically() {
        let dir = std::env::temp_dir().join("debunk-manifest-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = RunManifest {
            cells_total: 21,
            cells_done: 19,
            cells_failed: 2,
            cells_resumed: 7,
            failed_cells: vec!["table3/TLS-120/ET-BERT/per-flow".to_string()],
            record_write_errors: vec!["results/table3.json: permission denied".to_string()],
            artifact_mem_hits: 31,
            artifact_disk_hits: 4,
            artifact_builds: 9,
            journal_hash: 0xfeed_f00d_dead_beef,
        };
        let back = RunManifest::from_json(&manifest.to_json()).expect("parse own json");
        assert_eq!(back, manifest);

        let path = manifest.write_atomic(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), MANIFEST_FILE);
        let on_disk = RunManifest::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(on_disk, manifest);
        let tmp_left = std::fs::read_dir(&dir)
            .unwrap()
            .any(|e| e.unwrap().path().extension() == Some("tmp".as_ref()));
        assert!(!tmp_left, "no temp sibling may remain");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_parser_survives_garbage() {
        for garbage in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1e999999}",
            "nulll",
            "\u{7f}\u{1}",
            "{\"\\u12\":1}",
            "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]",
        ] {
            assert!(parse_json(garbage).is_err(), "garbage must error: {garbage:?}");
        }
        let ok = parse_json("{\"a\": [1, -2.5, \"x\\ny\", null, true]}").unwrap();
        assert_eq!(
            ok.get("a").unwrap(),
            &Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2.5),
                Json::Str("x\ny".to_string()),
                Json::Null,
                Json::Bool(true),
            ])
        );
    }

    #[test]
    fn f64_formatting_round_trips() {
        for v in [0.0, -0.0, 1.0, 97.5, 0.8612345678901234, -13.25, 1e-9, 123456789.125] {
            let s = format_f64(v);
            let back: f64 = s.parse().expect("formatted float parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s} must round-trip exactly");
        }
        assert_eq!(format_f64(1.0), "1.0", "integral floats keep one decimal");
        assert_eq!(format_f64(f64::NAN), "null");
        assert_eq!(format_f64(f64::INFINITY), "null");
    }
}
