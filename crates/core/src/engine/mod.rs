//! Experiment engine: registry-driven orchestration of the paper's
//! tables, figures and ablations.
//!
//! The engine replaces the former `repro` binary's private `Ctx` state
//! with reusable subsystems:
//!
//! - [`context::RunContext`] — shared run state: the dataset
//!   [`crate::pipeline::TaskCache`] and its [`crate::artifact`] cache
//!   (which also holds pre-trained encoders, keyed by provenance), and
//!   the per-cell seed derivation that makes cells order-independent;
//! - [`registry::Experiment`] / [`registry::Registry`] — every
//!   table/figure/ablation is an object exposing its grid of
//!   [`registry::CellSpec`]s plus a `render` step, registered under a
//!   stable id;
//! - [`runner`] — executes a registered experiment's cells, serially or
//!   on a thread pool (`--jobs N`), emitting bit-identical
//!   [`crate::report::ResultRecord`] JSON either way — with per-cell
//!   panic isolation, bounded retries and a soft time budget;
//! - [`journal`] — the append-only JSONL run journal and the atomically
//!   written `run-manifest.json` that make `--resume` possible;
//! - [`suite`] — the 21 concrete experiments ported from `repro`.
//!
//! Front-end binaries (`repro`, the calibration probes) are thin
//! wrappers over `Registry::run(filter, &RunContext, &RunOptions)`.

pub mod context;
pub mod distrib;
pub mod journal;
pub mod registry;
pub mod runner;
pub mod suite;

pub use context::{EncoderSpec, Preset, RunContext};
pub use distrib::{run_coordinator, run_worker, CoordinatorOptions};
pub use journal::{
    CellId, Journal, JournalEntry, JournalError, JournalState, RunManifest, JOURNAL_FILE,
    MANIFEST_FILE,
};
pub use registry::{CellOutput, CellSpec, Experiment, RecordStats, Registry};
pub use runner::{run_experiment, start_session, RunError, RunOptions, RunSession, RunSummary};
pub use suite::default_registry;
