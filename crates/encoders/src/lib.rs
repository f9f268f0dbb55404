//! # encoders
//!
//! Architectural analogues of the six representation-learning traffic
//! encoders the paper evaluates (§3, §5): **ET-BERT**, **YaTC**,
//! **NetMamba**, **TrafficFormer**, **netFound**, and the paper's own
//! **Pcap-Encoder**.
//!
//! ## Substitution note (see DESIGN.md)
//!
//! The originals are 100M+-parameter transformers; here each model is a
//! *token-embedding encoder*: the model-specific part is the **input
//! preparation and tokenisation** (which bytes/fields each paper feeds
//! its model, including its anonymisation rules), followed by a shared
//! embedding + mean-pooling backbone (`nn::Embedding`) that can be
//! pre-trained with the model's pretext objective, *frozen* (encode
//! only) or *unfrozen* (gradients flow into the table).
//!
//! This preserves what the paper's argument needs:
//! - encoders ingesting encrypted bytes can only learn flow-ID
//!   shortcuts, because payload tokens are label-independent noise;
//! - pre-training on payload reconstruction cannot inject class signal;
//! - Pcap-Encoder's header-semantics pre-training makes its *frozen*
//!   embedding linearly expose header fields;
//! - unfreezing lets any encoder memorise implicit flow IDs when the
//!   split allows them to leak.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod frozen;
pub mod model;
pub mod pcap_encoder;
pub mod pool;
pub mod pretrain;
pub mod qa;
pub mod tokenize;
pub mod tokenizer;

pub use checkpoint::PretrainKey;
pub use frozen::FrozenInt8Encoder;
pub use model::{EncodeScratch, EncoderModel, ModelKind};
pub use pcap_encoder::{PcapEncoderVariant, PretrainPhases};
pub use tokenizer::TokenizerConfig;
