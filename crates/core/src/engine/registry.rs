//! The `Experiment` trait and the registry all tables/figures/ablations
//! register into.

use crate::engine::context::RunContext;
use crate::engine::journal::CellId;
use crate::experiment::{CellConfig, CellResult};
use crate::shallow_baselines::ShallowResult;
use std::sync::Arc;

/// Accuracy/F1/timing statistics of one executed cell. Fractions are in
/// `[0, 1]`; timings are real wall-clock seconds and are kept in memory
/// only — the runner zeroes them in serialised records so that result
/// JSON is bit-identical across serial and parallel runs.
#[derive(Debug, Clone, Copy)]
pub struct RecordStats {
    /// Mean test accuracy.
    pub accuracy: f64,
    /// Mean test macro-F1.
    pub macro_f1: f64,
    /// Wall-clock training seconds.
    pub train_secs: f64,
    /// Wall-clock inference seconds.
    pub infer_secs: f64,
}

impl RecordStats {
    /// Stats carrying metrics only, with wall-clock fields already
    /// zeroed — the form every serialised record and journal entry must
    /// take.
    pub fn of(accuracy: f64, macro_f1: f64) -> RecordStats {
        RecordStats { accuracy, macro_f1, train_secs: 0.0, infer_secs: 0.0 }
    }

    /// Copy with every wall-clock field zeroed. The single place the
    /// record contract's timing-zeroing lives: a future timing field
    /// added here is zeroed for the runner, the journal and the suite
    /// at once, so it cannot leak scheduling-dependent bytes into
    /// deterministic outputs.
    pub fn zero_wallclock(self) -> RecordStats {
        RecordStats::of(self.accuracy, self.macro_f1)
    }
}

impl From<&CellResult> for RecordStats {
    fn from(c: &CellResult) -> RecordStats {
        RecordStats {
            accuracy: c.accuracy,
            macro_f1: c.macro_f1,
            train_secs: c.train_secs,
            infer_secs: c.infer_secs,
        }
    }
}

impl From<&ShallowResult> for RecordStats {
    fn from(r: &ShallowResult) -> RecordStats {
        RecordStats {
            accuracy: r.accuracy,
            macro_f1: r.macro_f1,
            train_secs: r.train_secs,
            infer_secs: r.infer_secs,
        }
    }
}

/// Everything a cell hands back to its experiment's `render` step.
#[derive(Debug, Clone, Default)]
pub struct CellOutput {
    /// Core metrics, when the cell trains a classifier.
    pub stats: Option<RecordStats>,
    /// Named auxiliary values (histogram bins, feature importances,
    /// dataset counts, …) for render steps that need more than metrics.
    pub values: Vec<(String, f64)>,
    /// Pre-rendered text blocks (e.g. cleaning reports).
    pub lines: Vec<String>,
}

impl CellOutput {
    /// Output carrying only metrics.
    pub fn stats(stats: RecordStats) -> CellOutput {
        CellOutput { stats: Some(stats), ..Default::default() }
    }

    /// Output carrying only named values.
    pub fn values(values: Vec<(String, f64)>) -> CellOutput {
        CellOutput { values, ..Default::default() }
    }

    /// Output of a skipped or text-only cell.
    pub fn empty() -> CellOutput {
        CellOutput::default()
    }

    /// Copy with wall-clock timings zeroed via
    /// [`RecordStats::zero_wallclock`], matching the record contract:
    /// journal and cache bytes never depend on scheduling or the clock.
    pub fn zero_wallclock(&self) -> CellOutput {
        CellOutput { stats: self.stats.map(RecordStats::zero_wallclock), ..self.clone() }
    }
}

impl From<CellResult> for CellOutput {
    fn from(c: CellResult) -> CellOutput {
        CellOutput::stats(RecordStats::from(&c))
    }
}

impl From<ShallowResult> for CellOutput {
    fn from(r: ShallowResult) -> CellOutput {
        CellOutput::stats(RecordStats::from(&r))
    }
}

/// The work function of one cell. Receives the shared context plus the
/// cell's own [`CellConfig`] (same hyper-parameters as the run, with
/// the cell's independently derived seed).
pub type CellFn = Arc<dyn Fn(&RunContext, &CellConfig) -> CellOutput + Send + Sync>;

/// One schedulable unit of an experiment: its identity (task, model,
/// setting — the `ResultRecord` coordinates) plus the work function.
#[derive(Clone)]
pub struct CellSpec {
    /// Task name, e.g. "TLS-120".
    pub task: String,
    /// Model name, e.g. "ET-BERT".
    pub model: String,
    /// Setting, e.g. "per-flow/frozen".
    pub setting: String,
    /// Whether the runner should serialise this cell's stats as a
    /// [`crate::report::ResultRecord`] (matching which cells the
    /// original `repro` recorded).
    pub emit_record: bool,
    /// `(task, model, setting)` of the control cell whose seed this
    /// cell takes (see [`CellSpec::arm_of`]); `None` seeds the cell
    /// from its own identity.
    pub seed_as: Option<(String, String, String)>,
    /// The work function.
    pub run: CellFn,
}

impl CellSpec {
    /// A record-emitting cell.
    pub fn new(
        task: impl Into<String>,
        model: impl Into<String>,
        setting: impl Into<String>,
        run: impl Fn(&RunContext, &CellConfig) -> CellOutput + Send + Sync + 'static,
    ) -> CellSpec {
        CellSpec {
            task: task.into(),
            model: model.into(),
            setting: setting.into(),
            emit_record: true,
            seed_as: None,
            run: Arc::new(run),
        }
    }

    /// This cell as an ablation arm of `control`: it takes the
    /// control's seed, so both draw the same samples, folds and head
    /// initialisation and differ only in the factor the ablation
    /// varies.
    pub fn arm_of(self, control: &CellSpec) -> CellSpec {
        let seed_as = (control.task.clone(), control.model.clone(), control.setting.clone());
        CellSpec { seed_as: Some(seed_as), ..self }
    }

    /// The cell's configuration (with its derived seed) and its journal
    /// identity within experiment `exp_id`.
    pub fn identity(&self, exp_id: &str, ctx: &RunContext) -> (CellConfig, CellId) {
        let (task, model, setting) = match &self.seed_as {
            Some((task, model, setting)) => (task, model, setting),
            None => (&self.task, &self.model, &self.setting),
        };
        let cfg = ctx.cell_config(exp_id, task, model, setting);
        let id = CellId {
            experiment: exp_id.to_string(),
            task: self.task.clone(),
            model: self.model.clone(),
            setting: self.setting.clone(),
            seed: cfg.seed,
        };
        (cfg, id)
    }

    /// A cell whose output feeds `render` only (no serialised record).
    pub fn silent(
        task: impl Into<String>,
        model: impl Into<String>,
        setting: impl Into<String>,
        run: impl Fn(&RunContext, &CellConfig) -> CellOutput + Send + Sync + 'static,
    ) -> CellSpec {
        CellSpec { emit_record: false, ..CellSpec::new(task, model, setting, run) }
    }
}

/// One table, figure or ablation of the evaluation.
pub trait Experiment: Send + Sync {
    /// Stable id used on the command line (e.g. "table3").
    fn id(&self) -> &'static str;

    /// One-line description for `--list`.
    fn description(&self) -> &'static str;

    /// The experiment's grid of cells. Cells must be independent: the
    /// runner may execute them in any order, concurrently.
    fn cells(&self, ctx: &RunContext) -> Vec<CellSpec>;

    /// Render tables/charts to stdout from the collected outputs, which
    /// arrive in the same order as [`Experiment::cells`] returned them.
    fn render(&self, ctx: &RunContext, outputs: &[CellOutput]);
}

/// Registry of all experiments, in `all`-execution order.
#[derive(Default)]
pub struct Registry {
    experiments: Vec<Box<dyn Experiment>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register an experiment. Panics on a duplicate id — that is a
    /// programming error in the suite.
    pub fn register(&mut self, exp: Box<dyn Experiment>) {
        assert!(self.get(exp.id()).is_none(), "duplicate experiment id: {}", exp.id());
        self.experiments.push(exp);
    }

    /// Look an experiment up by id.
    pub fn get(&self, id: &str) -> Option<&dyn Experiment> {
        self.experiments.iter().find(|e| e.id() == id).map(|e| e.as_ref())
    }

    /// All registered ids, in `all`-execution order.
    pub fn ids(&self) -> Vec<&'static str> {
        self.experiments.iter().map(|e| e.id()).collect()
    }

    /// Iterate over registered experiments in `all`-execution order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Experiment> {
        self.experiments.iter().map(|e| e.as_ref())
    }

    /// Run `filter` ("all" or one experiment id) under `ctx` in a
    /// single crash-safe session: an `all` sweep shares one journal and
    /// one manifest, so a killed sweep resumes from whichever cell it
    /// reached. Errors only when the run cannot *start* (unknown id,
    /// unusable journal); cell failures are isolated and land in the
    /// returned [`RunSummary`](crate::engine::runner::RunSummary).
    pub fn run(
        &self,
        filter: &str,
        ctx: &RunContext,
        opts: &crate::engine::runner::RunOptions,
    ) -> Result<crate::engine::runner::RunSummary, crate::engine::runner::RunError> {
        use crate::engine::runner::{start_session, RunError};
        if filter != "all" && self.get(filter).is_none() {
            return Err(RunError::UnknownExperiment(filter.to_string()));
        }
        let session = start_session(ctx, opts)?;
        for exp in self.iter() {
            if filter == "all" || exp.id() == filter {
                session.run_experiment(exp, ctx, opts);
            }
        }
        Ok(session.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy(&'static str);
    impl Experiment for Dummy {
        fn id(&self) -> &'static str {
            self.0
        }
        fn description(&self) -> &'static str {
            "dummy"
        }
        fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
            Vec::new()
        }
        fn render(&self, _ctx: &RunContext, _outputs: &[CellOutput]) {}
    }

    #[test]
    fn registry_preserves_order_and_rejects_unknown() {
        let mut r = Registry::new();
        r.register(Box::new(Dummy("b")));
        r.register(Box::new(Dummy("a")));
        assert_eq!(r.ids(), vec!["b", "a"]);
        assert!(r.get("a").is_some());
        assert!(r.get("zzz").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate experiment id")]
    fn duplicate_registration_panics() {
        let mut r = Registry::new();
        r.register(Box::new(Dummy("x")));
        r.register(Box::new(Dummy("x")));
    }
}
