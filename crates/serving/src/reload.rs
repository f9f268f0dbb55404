//! Model hot-reload: swap a freshly exported [`ModelBundle`] into a
//! running serve loop at a deterministic packet-sequence boundary,
//! without dropping a single tracked flow.
//!
//! Two sources feed the same epoch machinery:
//!
//! - **Planned** boundaries (`serve run --reload-at SEQ:DIR`): the
//!   bundle is loaded and validated before the first packet, and takes
//!   effect exactly at packet `SEQ`. This is the reproducible form — a
//!   live run replayed with its recorded boundaries is byte-identical.
//! - **Live** watching (`serve run --reload-dir DIR`): a background
//!   thread polls `DIR` for new bundle subdirectories, loads and
//!   validates each candidate fully off the hot path, and hands the
//!   engine an `Arc<ModelBundle>`; the engine binds it to the next
//!   unprocessed packet's sequence number (recorded in the serving
//!   metrics as `reloads.boundaries`, so the run can be replayed as a
//!   planned one).
//!
//! Crash-only semantics: a candidate that fails to load (truncated,
//! corrupt, wrong dims) or is incompatible with the active policy
//! (e.g. routes to `encoder_int8` the candidate lacks) is refused and
//! the old bundle keeps serving. A half-written export is never read:
//! [`ModelBundle::save`] writes every artifact via tmp+rename and
//! `labels.txt` last, so the watcher treats `labels.txt` as the
//! completeness gate.

use crate::bundle::ModelBundle;
use crate::engine::{validate_targets, EpochBundle, ServeStats};
use crate::policy::Policy;
use debunk_core::obs::{ObsSink, Value};
use std::collections::{BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the directory watcher hands the engine.
pub enum LiveMsg {
    /// A fully loaded, self-consistent candidate bundle.
    Bundle(Arc<ModelBundle>, String),
    /// A candidate that failed to load; named so the refusal is
    /// observable (counted + warned) without stopping the stream.
    Refused {
        /// Candidate directory name.
        origin: String,
        /// Load error.
        error: String,
    },
}

/// A reload decision due before processing a packet.
enum ReloadAction<'a> {
    /// Install `bundle` for every flow retired at `boundary` or later.
    Apply {
        /// Packet sequence number where the new epoch starts.
        boundary: u64,
        /// The new epoch's bundle.
        bundle: EpochBundle<'a>,
        /// Where the bundle came from (directory name).
        origin: String,
    },
    /// Candidate rejected; the current bundle keeps serving.
    Refuse {
        /// Candidate directory name.
        origin: String,
        /// Why it was refused.
        error: String,
    },
}

/// Where reloads come from during a serve run.
pub enum ReloadSource<'a> {
    /// No reloading: one bundle serves the whole stream (epoch 0).
    None,
    /// Boundaries fixed up front, sorted by sequence number.
    Planned(VecDeque<(u64, EpochBundle<'a>, String)>),
    /// Candidates arriving from a watcher thread; each binds to the
    /// next unprocessed packet when it is picked up.
    Live(Receiver<LiveMsg>),
}

impl<'a> ReloadSource<'a> {
    /// A planned source from `(boundary, bundle, origin)` triples
    /// (sorted here; callers may pass any order).
    pub fn planned(mut entries: Vec<(u64, EpochBundle<'a>, String)>) -> ReloadSource<'a> {
        entries.sort_by_key(|(b, _, _)| *b);
        ReloadSource::Planned(entries.into())
    }

    /// Reloads due before processing packet `seq`, as the applied
    /// `(boundary, bundle)` pairs in order; every decision (applied or
    /// refused) is counted in `stats` and logged to `sink`. The
    /// inline loop installs the pairs as epochs, the sharded dispatcher
    /// broadcasts them. At end of stream, call once more with the flush
    /// sequence — the packet count — so boundaries landing exactly
    /// there still cover flushed flows.
    pub(crate) fn poll(
        &mut self,
        seq: u64,
        policy: &Policy,
        stats: &mut ServeStats,
        sink: &ObsSink,
    ) -> Vec<(u64, EpochBundle<'a>)> {
        self.due(seq, policy)
            .into_iter()
            .filter_map(|action| match action {
                ReloadAction::Apply { boundary, bundle, origin } => {
                    stats.reload_boundaries.push(boundary);
                    sink.info(
                        "serve",
                        "bundle reloaded",
                        &[("boundary", Value::U64(boundary)), ("origin", Value::Str(origin))],
                    );
                    Some((boundary, bundle))
                }
                ReloadAction::Refuse { origin, error } => {
                    stats.reloads_refused += 1;
                    sink.warn(
                        "serve",
                        "reload candidate refused; old bundle keeps serving",
                        &[("origin", Value::Str(origin)), ("error", Value::Str(error))],
                    );
                    None
                }
            })
            .collect()
    }

    /// Decisions due before packet `seq`: planned boundaries at or
    /// below `seq` fire in order; live arrivals are validated against
    /// `policy` and bound to `seq`. Empty (and allocation-free) when
    /// nothing is due.
    fn due(&mut self, seq: u64, policy: &Policy) -> Vec<ReloadAction<'a>> {
        let mut actions = Vec::new();
        match self {
            ReloadSource::None => {}
            ReloadSource::Planned(queue) => {
                while queue.front().is_some_and(|(b, _, _)| *b <= seq) {
                    let (boundary, bundle, origin) = queue.pop_front().expect("front checked");
                    actions.push(ReloadAction::Apply { boundary, bundle, origin });
                }
            }
            ReloadSource::Live(rx) => loop {
                match rx.try_recv() {
                    Ok(LiveMsg::Bundle(bundle, origin)) => {
                        match validate_targets(&bundle, policy) {
                            Ok(()) => actions.push(ReloadAction::Apply {
                                boundary: seq,
                                bundle: EpochBundle::Owned(bundle),
                                origin,
                            }),
                            Err(error) => actions.push(ReloadAction::Refuse { origin, error }),
                        }
                    }
                    Ok(LiveMsg::Refused { origin, error }) => {
                        actions.push(ReloadAction::Refuse { origin, error });
                    }
                    Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                }
            },
        }
        actions
    }
}

/// Handle to a live `--reload-dir` watcher thread. Dropping the handle
/// (or calling [`ReloadWatcher::stop`]) stops the thread; the engine
/// only ever sees the channel.
pub struct ReloadWatcher {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ReloadWatcher {
    /// Watch `dir` for new bundle subdirectories, polling every
    /// `poll_ms`. Subdirectories already present at start are treated
    /// as seen (they are the "current" state, not a reload); each new
    /// one is loaded once — completely off the serve hot path — and
    /// sent as a [`LiveMsg`]. A candidate is only considered once its
    /// `labels.txt` exists ([`ModelBundle::save`] writes it last), so a
    /// half-written export is invisible rather than corrupt.
    pub fn spawn(dir: PathBuf, poll_ms: u64) -> (ReloadWatcher, Receiver<LiveMsg>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || watch_loop(&dir, poll_ms, &tx, &stop2));
        (ReloadWatcher { stop, handle: Some(handle) }, rx)
    }

    /// Stop the watcher thread and wait for it.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReloadWatcher {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Candidate subdirectories of `dir` whose `labels.txt` gate exists,
/// sorted by name for a deterministic pickup order.
fn complete_candidates(dir: &std::path::Path) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return found };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() && path.join("labels.txt").is_file() {
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                found.insert(name.to_string());
            }
        }
    }
    found
}

fn watch_loop(dir: &std::path::Path, poll_ms: u64, tx: &Sender<LiveMsg>, stop: &AtomicBool) {
    // Pre-existing bundles are the baseline, not reload candidates.
    let mut seen = complete_candidates(dir);
    while !stop.load(Ordering::Relaxed) {
        for name in complete_candidates(dir) {
            if !seen.insert(name.clone()) {
                continue;
            }
            let msg = match ModelBundle::load(&dir.join(&name)) {
                Ok(bundle) => LiveMsg::Bundle(Arc::new(bundle), name),
                Err(error) => LiveMsg::Refused { origin: name, error },
            };
            if tx.send(msg).is_err() {
                return; // engine gone; stop watching
            }
        }
        std::thread::sleep(Duration::from_millis(poll_ms.max(1)));
    }
}
