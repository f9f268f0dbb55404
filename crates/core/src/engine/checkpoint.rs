//! Process-wide pre-trained-encoder cache with optional on-disk
//! checkpoints.
//!
//! Every encoder build is keyed by its pre-training provenance
//! ([`encoders::checkpoint::PretrainKey`]). Within a process each
//! provenance is built at most once, even when cells request it
//! concurrently from worker threads; with a cache directory configured
//! (`--cache-dir`) the built encoder is also persisted, so subsequent
//! invocations skip pre-training entirely — no `[pretrain]` log line is
//! emitted for a checkpoint served from memory or disk.

use crate::artifact::PathLock;
use crate::obs::ObsSink;
use encoders::checkpoint::{load_checkpoint, save_checkpoint, PretrainKey};
use encoders::model::EncoderModel;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Build-once encoder cache, optionally backed by a checkpoint dir.
pub struct EncoderStore {
    cache_dir: Option<PathBuf>,
    slots: Mutex<HashMap<u64, Arc<OnceLock<EncoderModel>>>>,
}

impl EncoderStore {
    /// New store; `cache_dir` enables on-disk checkpoints.
    pub fn new(cache_dir: Option<PathBuf>) -> EncoderStore {
        EncoderStore { cache_dir, slots: Mutex::new(HashMap::new()) }
    }

    /// Get the encoder for `key`, building it with `build` at most once
    /// per process. Concurrent callers for the *same* key block until
    /// the first build finishes; callers for different keys proceed in
    /// parallel.
    pub fn get_or_build(
        &self,
        key: &PretrainKey,
        obs: &ObsSink,
        build: impl FnOnce() -> EncoderModel,
    ) -> EncoderModel {
        let slot = self.slots.lock().entry(key.cache_key()).or_default().clone();
        slot.get_or_init(|| self.load_or_build(key, obs, build)).clone()
    }

    fn load_or_build(
        &self,
        key: &PretrainKey,
        obs: &ObsSink,
        build: impl FnOnce() -> EncoderModel,
    ) -> EncoderModel {
        let Some(dir) = self.cache_dir.clone() else {
            obs.info(
                "checkpoint",
                &format!("  [pretrain] {}", key.provenance()),
                &[("provenance", key.provenance().into())],
            );
            return obs.time_stage("pretrain", build);
        };
        let path = dir.join(key.file_name());
        // Cross-process single-flight, same protocol as the artifact
        // cache (crate::artifact::PathLock): with several worker
        // processes sharing one --cache-dir, exactly one pre-trains each
        // provenance; the rest wait for the tmp+rename publication and
        // load it. A lock whose holder died is stolen.
        let mut build = Some(build);
        let mut warned_corrupt = false;
        loop {
            if path.exists() {
                match load_checkpoint(&path, key) {
                    Ok(model) => {
                        obs.debug(
                            "checkpoint",
                            &format!("  [checkpoint] loaded {}", path.display()),
                            &[("path", path.display().to_string().into())],
                        );
                        return model;
                    }
                    Err(e) if !warned_corrupt => {
                        warned_corrupt = true;
                        obs.warn(
                            "checkpoint",
                            &format!("  [checkpoint] ignoring {}: {e}", path.display()),
                            &[("path", path.display().to_string().into())],
                        );
                    }
                    Err(_) => {}
                }
            }
            if let Some(_guard) = PathLock::try_acquire(&path) {
                // Re-probe under the lock: the previous holder may have
                // published while we acquired. A corrupt checkpoint
                // falls through to the rebuild, which replaces it.
                if path.exists() {
                    if let Ok(model) = load_checkpoint(&path, key) {
                        return model;
                    }
                }
                obs.info(
                    "checkpoint",
                    &format!("  [pretrain] {}", key.provenance()),
                    &[("provenance", key.provenance().into())],
                );
                let model =
                    obs.time_stage("pretrain", build.take().expect("builder invoked at most once"));
                // save_checkpoint publishes atomically, so a crash
                // mid-save never leaves a torn checkpoint at the final
                // path for the loader to trust.
                let saved = std::fs::create_dir_all(&dir)
                    .and_then(|()| save_checkpoint(&path, key, &model));
                match saved {
                    Ok(()) => obs.debug(
                        "checkpoint",
                        &format!("  [checkpoint] saved {}", path.display()),
                        &[("path", path.display().to_string().into())],
                    ),
                    Err(e) => obs.warn(
                        "checkpoint",
                        &format!("  [checkpoint] could not save {}: {e}", path.display()),
                        &[("path", path.display().to_string().into())],
                    ),
                }
                return model;
            }
            if !PathLock::steal_if_stale(&path) {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encoders::model::ModelKind;
    use encoders::pcap_encoder::PretrainBudget;

    fn key(seed: u64) -> PretrainKey {
        PretrainKey {
            model: "ET-BERT".into(),
            pretrained: false,
            variant: None,
            budget: PretrainBudget::default(),
            seed,
        }
    }

    #[test]
    fn builds_once_per_key() {
        let store = EncoderStore::new(None);
        let obs = crate::obs::global();
        let mut builds = 0;
        for _ in 0..3 {
            store.get_or_build(&key(1), &obs, || {
                builds += 1;
                EncoderModel::new(ModelKind::EtBert, 1)
            });
        }
        assert_eq!(builds, 1);
        store.get_or_build(&key(2), &obs, || {
            builds += 1;
            EncoderModel::new(ModelKind::EtBert, 2)
        });
        assert_eq!(builds, 2, "a different key builds again");
    }

    #[test]
    fn disk_cache_survives_store_restart() {
        let dir = std::env::temp_dir().join("debunk-encoder-store-test");
        std::fs::remove_dir_all(&dir).ok();
        let k = key(7);
        let obs = crate::obs::global();
        let first = EncoderStore::new(Some(dir.clone()))
            .get_or_build(&k, &obs, || EncoderModel::new(ModelKind::EtBert, 7));
        // A fresh store (fresh process, conceptually) must load from
        // disk instead of invoking the builder.
        let second = EncoderStore::new(Some(dir.clone()))
            .get_or_build(&k, &obs, || panic!("must not re-pretrain: checkpoint exists"));
        assert_eq!(first.to_json(), second.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }
}
