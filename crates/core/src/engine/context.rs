//! Shared run state handed to every experiment cell.

use crate::artifact::{from_single_group, single_group, Artifact, ArtifactCache, RowGroup};
use crate::experiment::{build_encoder, CellConfig};
use crate::obs::ObsSink;
use crate::pipeline::{PreparedTask, TaskCache};
use dataset::Task;
use encoders::checkpoint::PretrainKey;
use encoders::model::{EncoderModel, ModelKind};
use encoders::pcap_encoder::{pretrain_pcap_encoder, PcapEncoderVariant, PretrainBudget};
use nn::envelope::{PayloadReader, PayloadWriter};
use std::path::PathBuf;
use std::sync::Arc;
use traffic_synth::stream::fnv64;

/// Compute-budget preset shared by `repro` and the calibration probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Smoke-test budget: tiny epochs and sample caps.
    Fast,
    /// The recorded configuration — every phenomenon at
    /// single-core-friendly cost.
    Medium,
    /// Paper-faithful folds and caps.
    Full,
}

impl Preset {
    /// Parse a `--budget` value.
    pub fn parse(name: &str) -> Option<Preset> {
        match name {
            "fast" => Some(Preset::Fast),
            "medium" => Some(Preset::Medium),
            "full" => Some(Preset::Full),
            _ => None,
        }
    }

    /// Preset name as accepted by `--budget`.
    pub fn name(&self) -> &'static str {
        match self {
            Preset::Fast => "fast",
            Preset::Medium => "medium",
            Preset::Full => "full",
        }
    }

    /// Default dataset scale for the preset.
    pub fn default_scale(&self) -> f64 {
        match self {
            Preset::Fast => 0.4,
            Preset::Medium => 0.7,
            Preset::Full => 1.0,
        }
    }

    /// Cell hyper-parameters and pre-training budget for the preset.
    pub fn config(&self, seed: u64) -> (CellConfig, PretrainBudget) {
        let mut cfg = CellConfig { seed, ..Default::default() };
        let budget = match self {
            Preset::Fast => {
                cfg.frozen_epochs = 10;
                cfg.unfrozen_epochs = 5;
                cfg.kfolds = 2;
                cfg.max_train = 1500;
                cfg.max_test = 1500;
                PretrainBudget { corpus_flows: 60, ae_epochs: 1, qa_epochs: 2, lr: 0.01 }
            }
            Preset::Medium => {
                cfg.frozen_epochs = 30;
                cfg.unfrozen_epochs = 20;
                cfg.kfolds = 2;
                cfg.max_train = 8000;
                cfg.max_test = 3000;
                PretrainBudget { corpus_flows: 150, ae_epochs: 1, qa_epochs: 3, lr: 0.01 }
            }
            Preset::Full => {
                cfg.kfolds = 3;
                PretrainBudget { corpus_flows: 200, ae_epochs: 2, qa_epochs: 4, lr: 0.01 }
            }
        };
        (cfg, budget)
    }
}

/// What kind of encoder a cell wants from the [`RunContext`] cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EncoderSpec {
    /// A standard model, optionally pre-trained with its paper
    /// objective (Tables 3–9).
    Standard {
        /// Which model.
        kind: ModelKind,
        /// Run the pretext phases?
        pretrained: bool,
    },
    /// A Pcap-Encoder pre-training variant (Table 11).
    PcapVariant(PcapEncoderVariant),
}

impl EncoderSpec {
    /// Shorthand for a pre-trained standard encoder.
    pub fn pretrained(kind: ModelKind) -> EncoderSpec {
        EncoderSpec::Standard { kind, pretrained: true }
    }

    /// Shorthand for a randomly-initialised standard encoder.
    pub fn fresh(kind: ModelKind) -> EncoderSpec {
        EncoderSpec::Standard { kind, pretrained: false }
    }

    /// Display name (model or variant).
    pub fn name(&self) -> &'static str {
        match self {
            EncoderSpec::Standard { kind, .. } => kind.name(),
            EncoderSpec::PcapVariant(v) => v.name(),
        }
    }

    /// Full pre-training identity for this spec under a budget + seed.
    pub fn pretrain_key(&self, budget: PretrainBudget, seed: u64) -> PretrainKey {
        match *self {
            EncoderSpec::Standard { kind, pretrained } => PretrainKey {
                model: kind.name().to_string(),
                pretrained,
                variant: None,
                budget,
                seed,
            },
            EncoderSpec::PcapVariant(v) => PretrainKey {
                model: ModelKind::PcapEncoder.name().to_string(),
                pretrained: true,
                variant: Some(v),
                budget,
                seed,
            },
        }
    }

    fn build(&self, budget: PretrainBudget, seed: u64) -> EncoderModel {
        match *self {
            EncoderSpec::Standard { kind, pretrained } => {
                build_encoder(kind, pretrained, budget, seed)
            }
            EncoderSpec::PcapVariant(v) => pretrain_pcap_encoder(v, budget, seed).model,
        }
    }
}

/// A pre-trained encoder is an ordinary artifact keyed by its
/// pre-training provenance; the payload is the encoder's binary
/// checkpoint (augment seed + DBFZ export payload), so any other bytes
/// under the key are refused and rebuilt, never mis-decoded.
impl Artifact for EncoderModel {
    const STAGE: &'static str = "encoder";
    fn to_groups(&self) -> Vec<RowGroup> {
        let mut w = PayloadWriter::new();
        self.write_checkpoint(&mut w);
        single_group(w.into_bytes())
    }
    fn from_groups(groups: Vec<Vec<u8>>) -> Result<EncoderModel, String> {
        from_single_group(groups, |bytes| {
            let mut r = PayloadReader::new(bytes);
            let model = EncoderModel::read_checkpoint(&mut r);
            let model = model.and_then(|m| r.finish().map(|()| m));
            model.map_err(|e| format!("encoder payload: {e}"))
        })
    }
}

/// Shared state for one engine run: configuration plus the artifact
/// cache (datasets, encoders, cell outputs) every cell draws from.
/// Immutable from the cells' point of view, so cells can execute
/// concurrently.
pub struct RunContext {
    /// Base seed for the whole run (`--seed`).
    pub seed: u64,
    /// Dataset scale multiplier (`--scale`).
    pub scale: f64,
    /// Pre-training budget for encoders built on demand.
    pub budget: PretrainBudget,
    /// Baseline cell hyper-parameters; the runner derives a per-cell
    /// copy with an independent seed (see [`RunContext::cell_seed`]).
    pub cfg: CellConfig,
    tasks: TaskCache,
}

impl RunContext {
    /// New context from explicit configuration.
    pub fn new(seed: u64, scale: f64, budget: PretrainBudget, cfg: CellConfig) -> RunContext {
        RunContext { seed, scale, budget, cfg, tasks: TaskCache::new() }
    }

    /// The content-addressed artifact cache backing dataset preparation,
    /// pre-trained encoders and (through the runner) deterministic
    /// cell-output replay.
    pub fn artifacts(&self) -> &Arc<ArtifactCache> {
        self.tasks.artifacts()
    }

    /// The run's out-of-band event/metrics sink (see [`crate::obs`]),
    /// held by the artifact cache; the process-global stderr sink until
    /// the runner installs a session's.
    pub fn obs(&self) -> Arc<ObsSink> {
        self.artifacts().obs()
    }

    /// Install `sink` as the run's sink, so every component a cell
    /// touches reports to the same place. Called by the runner when a
    /// session starts.
    pub fn set_obs(&self, sink: Arc<ObsSink>) {
        self.artifacts().set_obs(sink);
    }

    /// New context from a [`Preset`]. `scale` overrides the preset's
    /// default dataset scale when given.
    pub fn from_preset(preset: Preset, seed: u64, scale: Option<f64>) -> RunContext {
        let (cfg, budget) = preset.config(seed);
        RunContext::new(seed, scale.unwrap_or_else(|| preset.default_scale()), budget, cfg)
    }

    /// Enable the on-disk cache tier under `dir` (`--cache-dir`), so a
    /// warm second run loads datasets, encoders and cells from disk.
    pub fn with_cache_dir(mut self, dir: PathBuf) -> RunContext {
        let obs = self.obs();
        self.tasks = TaskCache::with_artifacts(Arc::new(ArtifactCache::new(Some(dir))));
        self.set_obs(obs);
        self
    }

    /// Prepared (generated + cleaned + parsed) dataset for a task,
    /// memoised process-wide.
    pub fn prep(&self, task: Task) -> PreparedTask {
        self.tasks.get(task, self.seed, self.scale)
    }

    /// Encoder for `spec` under the run's pre-training budget: an
    /// `"encoder"` artifact keyed by its provenance, so it is built at
    /// most once per provenance (across processes sharing a cache
    /// directory, too) and a memory or disk hit logs no `[pretrain]`
    /// line.
    pub fn encoder(&self, spec: EncoderSpec) -> EncoderModel {
        self.encoder_with_budget(spec, self.budget)
    }

    /// Same as [`RunContext::encoder`] with an explicit budget (the
    /// calibration probes sweep budgets).
    pub fn encoder_with_budget(&self, spec: EncoderSpec, budget: PretrainBudget) -> EncoderModel {
        let provenance = spec.pretrain_key(budget, self.pretrain_seed()).provenance();
        let model = self.artifacts().get_or_build::<EncoderModel>(&[&provenance], || {
            let obs = self.obs();
            obs.info(
                "pretrain",
                &format!("  [pretrain] {provenance}"),
                &[("provenance", provenance.clone().into())],
            );
            obs.time_stage("pretrain", || spec.build(budget, self.pretrain_seed()))
        });
        EncoderModel::clone(&model)
    }

    /// Seed used for encoder pre-training (kept distinct from the cell
    /// seeds, matching the original `repro` convention).
    pub fn pretrain_seed(&self) -> u64 {
        self.seed ^ 0xabc
    }

    /// Identity of the whole run's configuration, stamped into the
    /// journal header. Resuming under a different seed/scale/budget
    /// would silently mix incompatible cells into one record set, so
    /// the journal refuses to replay across fingerprints.
    pub fn run_fingerprint(&self) -> u64 {
        fnv64(&[
            format!("{:016x}", self.seed).as_bytes(),
            format!("{:016x}", self.scale.to_bits()).as_bytes(),
            format!("{:?}", self.budget).as_bytes(),
            format!("{:?}", self.cfg).as_bytes(),
        ])
    }

    /// Independent seed for one cell, derived by hashing the cell's
    /// identity rather than threading one mutable RNG through
    /// sequential calls. This is what makes cells order-independent:
    /// a cell gets the same seed whether it runs first, last, or on a
    /// worker thread. (Fold-level seeds are derived from this inside
    /// `run_cell` by adding the fold index.) An ablation arm is seeded
    /// with its control's identity instead of its own
    /// ([`CellSpec::arm_of`](crate::engine::registry::CellSpec::arm_of)).
    pub fn cell_seed(&self, experiment: &str, task: &str, model: &str, setting: &str) -> u64 {
        fnv64(&[experiment.as_bytes(), task.as_bytes(), model.as_bytes(), setting.as_bytes()])
            ^ self.seed
    }

    /// Per-cell configuration: the shared hyper-parameters with the
    /// cell's derived seed.
    pub fn cell_config(
        &self,
        experiment: &str,
        task: &str,
        model: &str,
        setting: &str,
    ) -> CellConfig {
        CellConfig { seed: self.cell_seed(experiment, task, model, setting), ..self.cfg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_round_trips_names() {
        for p in [Preset::Fast, Preset::Medium, Preset::Full] {
            assert_eq!(Preset::parse(p.name()), Some(p));
        }
        assert_eq!(Preset::parse("warp"), None);
    }

    #[test]
    fn cell_seeds_are_order_independent_and_distinct() {
        let ctx = RunContext::from_preset(Preset::Fast, 42, None);
        let a = ctx.cell_seed("table3", "TLS-120", "ET-BERT", "per-flow/frozen");
        let b = ctx.cell_seed("table3", "TLS-120", "ET-BERT", "per-flow/frozen");
        assert_eq!(a, b, "same identity, same seed");
        let c = ctx.cell_seed("table3", "TLS-120", "YaTC", "per-flow/frozen");
        assert_ne!(a, c, "different model, different seed");
        let d = RunContext::from_preset(Preset::Fast, 43, None).cell_seed(
            "table3",
            "TLS-120",
            "ET-BERT",
            "per-flow/frozen",
        );
        assert_ne!(a, d, "different base seed, different cell seed");
    }

    #[test]
    fn encoder_specs_have_distinct_provenance() {
        let budget = PretrainBudget::default();
        let a = EncoderSpec::pretrained(ModelKind::EtBert).pretrain_key(budget, 1);
        let b = EncoderSpec::fresh(ModelKind::EtBert).pretrain_key(budget, 1);
        let c = EncoderSpec::PcapVariant(PcapEncoderVariant::QaOnly).pretrain_key(budget, 1);
        assert_ne!(a.provenance(), b.provenance());
        assert_ne!(a.provenance(), c.provenance());
    }
}
