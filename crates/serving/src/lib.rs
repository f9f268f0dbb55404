//! Online flow classification on top of frozen model exports.
//!
//! The train side of the repo (`encoders`, `shallow`, `nn`) fits
//! models; this crate is the inference side: it loads checksummed
//! frozen artifacts ([`bundle::ModelBundle`]), assembles live packets
//! into flows ([`flow::FlowTable`]), routes each flow through a user
//! policy ([`policy::Policy`]) when it opens, classifies it when it
//! retires, and emits a deterministic JSONL
//! verdict stream ([`engine::serve_stream`]). The `serve` binary wraps
//! the two entry points: `serve export` trains and freezes a bundle,
//! `serve run` replays packets against one.
//!
//! Nothing in this crate can train — that split is the point: a
//! serving deploy carries no optimiser, no labels, no gradient code,
//! and refuses corrupt or mismatched artifacts at load time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod engine;
pub mod flow;
mod metrics;
pub mod policy;
pub mod reload;
pub mod shard;
pub mod source;

pub use bundle::ModelBundle;
pub use engine::{serve, serve_stream, EpochBundle, ServeOptions, ServeStats};
pub use flow::{FlowTable, TrackedFlow, MAX_STORED_PACKETS};
pub use policy::{Policy, PolicyError, Rule};
pub use reload::{LiveMsg, ReloadSource, ReloadWatcher};
pub use shard::flow_shard;
pub use source::{from_pcap_bytes, from_pcap_file, throttle, ReplayPacket, SynthSpec};
