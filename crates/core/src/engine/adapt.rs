//! Online α/β adaptation for production serving: the feedback loop
//! that turns per-query training (§4.2) into a continuously-refit
//! deployment-level predictor.
//!
//! The realist trains Models α and β from scratch on every query's
//! small random sample. A serving deployment sees thousands of
//! queries against one graph, so it can do better: harvest the
//! [`FeedbackRow`]s every served query already produces (features,
//! chosen method, ground-truth verdict, steps — the ladder's stage 3
//! is exact, so labels are never guesses), pool them in a bounded
//! reservoir, and periodically refit the two forests on the pooled
//! sample. The refit models then *replace* the per-query fit
//! (`TrainedSession::apply_adapted`)
//! while budgets and plans still come from each query's own training
//! pass — adaptation moves prediction quality, never exactness.
//!
//! **ε-exploration.** Feedback harvested only from predictor-chosen
//! methods is biased: Model α never observes the counterfactual arm.
//! A configurable ε fraction of admitted queries therefore bypasses
//! the predictor entirely and runs a uniformly-drawn method
//! (written into the run's spec at admission); their rows carry
//! `explored = true` so accuracy metrics can skip them while the
//! fitter still benefits from the unbiased labels.
//!
//! **Determinism.** Admission (the ε draws) and reservoir sampling use
//! two independent `SplitMix64` streams seeded from
//! [`AdaptiveConfig::seed`], feedback is drained in *submission order*
//! (a [`BTreeMap`]-backed reorder buffer keyed by admission sequence
//! number), and each refit's forest seed is a pure function of the
//! config seed and the model version — so the same feedback stream
//! yields bit-identical refit models regardless of worker count or
//! completion order.
//!
//! **Drift.** A graph update
//! ([`PsiService::apply_update`](super::service::PsiService::apply_update))
//! calls `AdaptiveState::note_drift`: the reservoir is cleared (its
//! rows describe the previous epoch's graph), the installed models
//! are dropped (per-query training takes over, which is always
//! correct), and a forced refit window opens — the first cadence-free
//! refit fires as soon as [`MIN_REFIT_SAMPLES`] fresh-epoch rows have
//! accumulated.

use std::collections::BTreeMap;
use std::sync::Arc;

use psi_ml::forest::{ForestConfig, RandomForest};
use psi_ml::{Classifier, Dataset};
use psi_obs::{timed, Counter, Phase, Recorder};

use crate::report::FeedbackRow;

/// Fewest pooled rows a refit will fit on: below this the forests
/// would memorize noise and the per-query models are strictly better.
pub const MIN_REFIT_SAMPLES: usize = 8;

/// Configuration of the online adaptation loop. Constructed via
/// [`DeploymentSpec::adaptive`](crate::engine::deploy::DeploymentSpec::adaptive)
/// (off by default — frozen deployments stay bit-identical).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Refit every `cadence` absorbed queries; `0` = refit only inside
    /// the forced window a graph update opens.
    pub cadence: u64,
    /// Fraction of admitted queries (in `[0, 1]`) that bypass Model α
    /// and run a uniformly-drawn method — the bandit-style exploration
    /// floor keeping the feedback distribution unbiased.
    pub epsilon: f64,
    /// Reservoir bound: at most this many feedback rows are retained,
    /// uniformly sampled over the current epoch's stream.
    pub capacity: usize,
    /// Seed of the deterministic ε / reservoir / refit randomness.
    pub seed: u64,
}

impl AdaptiveConfig {
    /// Adaptation with the given cadence and exploration floor,
    /// default reservoir capacity (4096) and seed.
    pub fn new(cadence: u64, epsilon: f64) -> Self {
        Self {
            cadence,
            epsilon: epsilon.clamp(0.0, 1.0),
            capacity: 4096,
            seed: 0xADA9_175E,
        }
    }

    /// Override the reservoir capacity (minimum 1).
    pub fn capacity(mut self, n: usize) -> Self {
        self.capacity = n.max(1);
        self
    }

    /// Override the randomness seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// The collection-only variant a sharded deployment installs on
    /// its shards: rows accumulate into per-shard reservoirs, but ε
    /// draws and cadence refits belong to the coordinator. (A shard can
    /// still self-refit inside a post-drift forced window — a useful
    /// local stopgap until the coordinator's merged refit lands.)
    pub(crate) fn collect_only(&self) -> Self {
        Self {
            cadence: 0,
            epsilon: 0.0,
            ..*self
        }
    }
}

/// One refit's output: the pooled-feedback forests, the feature width
/// they were fitted on, and a monotone version number.
#[derive(Debug, Clone)]
pub struct AdaptedModels {
    pub(crate) alpha: RandomForest,
    pub(crate) beta: Option<RandomForest>,
    pub(crate) dim: usize,
    pub(crate) version: u64,
}

impl AdaptedModels {
    /// Feature width (`label_count + 1`) the forests expect.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Monotone refit version (1 = first refit of the deployment).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether this refit produced a plan model (requires ≥ 2 distinct
    /// plan labels in the pooled feedback).
    pub fn has_beta(&self) -> bool {
        self.beta.is_some()
    }
}

/// Observable state of one adaptation loop, returned by
/// [`PsiService::adaptive_stats`](super::service::PsiService::adaptive_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Feedback rows absorbed (before reservoir eviction), lifetime.
    pub feedback_samples: u64,
    /// Refits performed.
    pub refits: u64,
    /// Queries routed through the ε-exploration floor.
    pub exploration_runs: u64,
    /// Rows currently held in the reservoir.
    pub reservoir: usize,
    /// Graph epoch (increments on every drift notification).
    pub epoch: u64,
    /// Version of the most recently fitted models (0 = none yet).
    pub model_version: u64,
}

/// SplitMix64 — tiny, deterministic, dependency-free PRNG for the ε
/// draws, reservoir eviction, and refit seeds.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero. The modulo bias is
    /// negligible for the tiny ranges used here (2, reservoir sizes).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What admission decided for one submitted query.
pub(crate) struct Admission {
    /// Submission sequence number; hand it back to
    /// [`AdaptiveState::absorb`] with the query's feedback (empty on
    /// failure paths) so the reorder buffer can drain.
    pub(crate) seq: u64,
    /// `Some(method)` when the ε floor routed this query to a forced
    /// uniform method.
    pub(crate) explore: Option<u8>,
    /// Currently installed models to attach to the run, if any.
    pub(crate) models: Option<Arc<AdaptedModels>>,
}

/// The mutable core of one adaptation loop. Owned behind a mutex by
/// each shard of a [`PsiService`](super::service::PsiService) — in
/// collect-only mode when the deployment has more than one shard.
pub(crate) struct AdaptiveState {
    cfg: AdaptiveConfig,
    forest: ForestConfig,
    dim: usize,
    /// ε draws — submit-side stream.
    explore_rng: SplitMix64,
    /// Reservoir eviction — drain-side stream, independent of the
    /// submit side so pipelined submission cannot interleave the two.
    sample_rng: SplitMix64,
    epoch: u64,
    reservoir: Vec<FeedbackRow>,
    /// Rows offered to the reservoir this epoch (reservoir-sampling
    /// denominator).
    seen: u64,
    submit_seq: u64,
    next_drain: u64,
    /// Reorder buffer: feedback arrives in completion order, is
    /// absorbed in submission order.
    pending: BTreeMap<u64, Vec<FeedbackRow>>,
    since_refit: u64,
    refit_forced: bool,
    models: Option<Arc<AdaptedModels>>,
    stats: AdaptiveStats,
}

impl AdaptiveState {
    pub(crate) fn new(cfg: AdaptiveConfig, dim: usize, forest: ForestConfig) -> Self {
        let explore_rng = SplitMix64::new(cfg.seed);
        let sample_rng = SplitMix64::new(cfg.seed ^ 0x5EED_F00D_CAFE_D00D);
        Self {
            cfg,
            forest,
            dim,
            explore_rng,
            sample_rng,
            epoch: 0,
            reservoir: Vec::new(),
            seen: 0,
            submit_seq: 0,
            next_drain: 0,
            pending: BTreeMap::new(),
            since_refit: 0,
            refit_forced: false,
            models: None,
            stats: AdaptiveStats::default(),
        }
    }

    /// Admit one query: assign its sequence number, draw the ε floor,
    /// and snapshot the installed models.
    pub(crate) fn admit(&mut self, rec: &dyn Recorder) -> Admission {
        let seq = self.submit_seq;
        self.submit_seq += 1;
        let explore = if self.cfg.epsilon > 0.0 && self.explore_rng.next_f64() < self.cfg.epsilon {
            self.stats.exploration_runs += 1;
            rec.add(Counter::ExplorationRuns, 1);
            Some(self.explore_rng.below(2) as u8)
        } else {
            None
        };
        Admission {
            seq,
            explore,
            models: self.models.clone(),
        }
    }

    /// Hand back one admitted query's feedback (empty on failure
    /// paths — every admitted `seq` MUST be absorbed exactly once or
    /// the reorder buffer stalls). Queued rows drain in submission
    /// order; a refit fires when the cadence (or a forced drift
    /// window) is due and the reservoir holds enough samples.
    pub(crate) fn absorb(&mut self, seq: u64, rows: Vec<FeedbackRow>, rec: &dyn Recorder) {
        self.pending.insert(seq, rows);
        while let Some(rows) = self.pending.remove(&self.next_drain) {
            self.next_drain += 1;
            self.absorb_rows(rows, rec);
        }
    }

    fn absorb_rows(&mut self, rows: Vec<FeedbackRow>, rec: &dyn Recorder) {
        let mut kept = 0u64;
        for row in rows {
            if row.features.len() != self.dim {
                // A pre-drift query completing after the epoch turned:
                // its features describe the old signature layout.
                continue;
            }
            kept += 1;
            self.seen += 1;
            if self.reservoir.len() < self.cfg.capacity {
                self.reservoir.push(row);
            } else {
                // Classic reservoir sampling: uniform over the epoch's
                // stream regardless of stream length.
                let j = self.sample_rng.below(self.seen);
                if (j as usize) < self.cfg.capacity {
                    self.reservoir[j as usize] = row;
                }
            }
        }
        if kept > 0 {
            self.stats.feedback_samples += kept;
            rec.add(Counter::FeedbackSamples, kept);
        }
        self.since_refit += 1;
        let due =
            (self.cfg.cadence > 0 && self.since_refit >= self.cfg.cadence) || self.refit_forced;
        if due && self.reservoir.len() >= MIN_REFIT_SAMPLES {
            self.refit(rec);
        }
    }

    /// Refit α (and β when the pooled plans are diverse enough) on the
    /// reservoir, inside a [`Phase::Refit`] span. The forest seed is a
    /// pure function of the config seed and the new version, so
    /// identical reservoirs give identical models.
    pub(crate) fn refit(&mut self, rec: &dyn Recorder) {
        let version = self.stats.model_version + 1;
        let seed = self.cfg.seed ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let fitted = timed(rec, Phase::Refit, || {
            fit_feedback_models(&self.reservoir, self.dim, self.forest, seed, version)
        });
        if let Some(m) = fitted {
            self.models = Some(Arc::new(m));
            self.stats.refits += 1;
            self.stats.model_version = version;
            rec.add(Counter::Refits, 1);
        }
        self.since_refit = 0;
        self.refit_forced = false;
    }

    /// The graph changed underneath the deployment: clear the (now
    /// stale) reservoir, drop the installed models — per-query
    /// training takes over, which is always correct for the new
    /// epoch — record the new feature width, and open a forced refit
    /// window.
    pub(crate) fn note_drift(&mut self, dim: usize) {
        self.epoch += 1;
        self.stats.epoch = self.epoch;
        self.dim = dim;
        self.reservoir.clear();
        self.seen = 0;
        self.models = None;
        self.refit_forced = true;
        self.since_refit = 0;
    }

    /// Snapshot of the current reservoir (the sharded coordinator
    /// gathers these for its merged refit).
    pub(crate) fn rows(&self) -> Vec<FeedbackRow> {
        self.reservoir.clone()
    }

    #[cfg(test)]
    pub(crate) fn models(&self) -> Option<Arc<AdaptedModels>> {
        self.models.clone()
    }

    pub(crate) fn stats(&self) -> AdaptiveStats {
        AdaptiveStats {
            reservoir: self.reservoir.len(),
            ..self.stats
        }
    }
}

/// Fit α (and β when ≥ 2 distinct plan labels are present) on a pooled
/// feedback sample. `None` when fewer than [`MIN_REFIT_SAMPLES`] rows
/// match the expected feature width. Deterministic in
/// `(rows, dim, forest, seed)`.
pub(crate) fn fit_feedback_models(
    rows: &[FeedbackRow],
    dim: usize,
    forest: ForestConfig,
    seed: u64,
    version: u64,
) -> Option<AdaptedModels> {
    let usable: Vec<&FeedbackRow> = rows.iter().filter(|r| r.features.len() == dim).collect();
    if usable.len() < MIN_REFIT_SAMPLES {
        return None;
    }
    let mut rng = SplitMix64::new(seed);
    let mut alpha_ds = Dataset::with_capacity(dim, usable.len());
    for r in &usable {
        alpha_ds.push(&r.features, r.valid as usize);
    }
    let mut alpha = RandomForest::new(forest);
    alpha.fit(&alpha_ds, rng.next_u64());
    // β labels are plan *positions* within a session's sampled plan
    // vector (position 0 = the heuristic order), which is the only
    // plan identity stable across queries; a single-plan feedback pool
    // carries no signal, so β is skipped and sessions keep their own.
    let mut plans: Vec<usize> = usable.iter().map(|r| r.plan).collect();
    plans.sort_unstable();
    plans.dedup();
    let beta = (plans.len() >= 2).then(|| {
        let mut beta_ds = Dataset::with_capacity(dim, usable.len());
        for r in &usable {
            beta_ds.push(&r.features, r.plan);
        }
        let mut f = RandomForest::new(forest);
        f.fit(&beta_ds, rng.next_u64());
        f
    });
    Some(AdaptedModels {
        alpha,
        beta,
        dim,
        version,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_obs::NoopRecorder;

    fn row(node: u32, sig: f32, valid: bool, plan: usize) -> FeedbackRow {
        FeedbackRow {
            node,
            features: vec![sig, 1.0 - sig, sig * 0.5],
            method: u8::from(!valid),
            plan,
            explored: false,
            valid,
            steps: 10,
        }
    }

    fn state(cfg: AdaptiveConfig) -> AdaptiveState {
        AdaptiveState::new(cfg, 3, ForestConfig::default())
    }

    #[test]
    fn reservoir_is_bounded_and_absorb_reorders_by_seq() {
        let mut st = state(AdaptiveConfig::new(0, 0.0).capacity(16));
        let rec = NoopRecorder;
        // Deliver completions out of submission order; the drain must
        // still advance exactly once per seq.
        let mut seqs: Vec<u64> = (0..40).map(|_| st.admit(&rec).seq).collect();
        seqs.reverse();
        for s in seqs {
            st.absorb(s, vec![row(s as u32, 0.1, s % 2 == 0, 0)], &rec);
        }
        let stats = st.stats();
        assert_eq!(stats.feedback_samples, 40);
        assert_eq!(stats.reservoir, 16, "reservoir stays at capacity");
        assert!(st.pending.is_empty(), "reorder buffer fully drained");
    }

    #[test]
    fn exploration_floor_rate_is_roughly_epsilon() {
        let mut st = state(AdaptiveConfig::new(0, 0.25));
        let rec = NoopRecorder;
        let n = 4000;
        let mut explored = 0usize;
        for _ in 0..n {
            if st.admit(&rec).explore.is_some() {
                explored += 1;
            }
        }
        let rate = explored as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "ε rate {rate} far from 0.25");
        assert_eq!(st.stats().exploration_runs, explored as u64);
    }

    #[test]
    fn cadence_triggers_deterministic_refits() {
        let feed = |st: &mut AdaptiveState| {
            let rec = NoopRecorder;
            for i in 0..30u64 {
                let seq = st.admit(&rec).seq;
                st.absorb(
                    seq,
                    vec![
                        row(i as u32 * 2, (i % 7) as f32 / 7.0, i % 3 == 0, 0),
                        row(i as u32 * 2 + 1, (i % 5) as f32 / 5.0, i % 2 == 0, 1),
                    ],
                    &rec,
                );
            }
        };
        let mut a = state(AdaptiveConfig::new(10, 0.0));
        let mut b = state(AdaptiveConfig::new(10, 0.0));
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a.stats().refits, 3, "one refit per 10 absorbed queries");
        assert_eq!(a.stats(), b.stats());
        let (ma, mb) = (a.models().unwrap(), b.models().unwrap());
        assert_eq!(ma.version(), mb.version());
        assert!(ma.has_beta(), "two distinct plan labels ⇒ β fitted");
        // Identical reservoirs + identical seeds ⇒ identical forests.
        let probe = [0.3f32, 0.7, 0.15];
        assert_eq!(
            ma.alpha.predict_proba(&probe),
            mb.alpha.predict_proba(&probe)
        );
    }

    #[test]
    fn drift_clears_state_and_forces_a_refit_window() {
        let rec = NoopRecorder;
        let mut st = state(AdaptiveConfig::new(1000, 0.0));
        for i in 0..MIN_REFIT_SAMPLES as u64 + 2 {
            let seq = st.admit(&rec).seq;
            st.absorb(seq, vec![row(i as u32, 0.2, i % 2 == 0, 0)], &rec);
        }
        assert_eq!(st.stats().refits, 0, "cadence 1000 not reached");
        st.note_drift(3);
        assert_eq!(st.stats().epoch, 1);
        assert_eq!(st.stats().reservoir, 0, "stale rows dropped");
        assert!(st.models().is_none(), "stale models dropped");
        // Fresh-epoch rows trip the forced window as soon as the floor
        // is met, ignoring the cadence.
        for i in 0..MIN_REFIT_SAMPLES as u64 {
            let seq = st.admit(&rec).seq;
            st.absorb(seq, vec![row(i as u32, 0.4, i % 2 == 0, 0)], &rec);
        }
        assert_eq!(st.stats().refits, 1, "forced window refits without cadence");
        assert!(st.models().is_some());
    }

    #[test]
    fn stale_shaped_rows_are_filtered() {
        let rec = NoopRecorder;
        let mut st = state(AdaptiveConfig::new(0, 0.0));
        let seq = st.admit(&rec).seq;
        let mut bad = row(1, 0.5, true, 0);
        bad.features = vec![0.5; 7]; // wrong width
        st.absorb(seq, vec![bad, row(2, 0.5, true, 0)], &rec);
        assert_eq!(st.stats().feedback_samples, 1);
        assert_eq!(st.stats().reservoir, 1);
    }

    #[test]
    fn fit_feedback_models_needs_enough_rows_and_is_deterministic() {
        let rows: Vec<FeedbackRow> =
            (0..20).map(|i| row(i, (i % 9) as f32 / 9.0, i % 2 == 0, (i % 2) as usize)).collect();
        assert!(
            fit_feedback_models(&rows[..MIN_REFIT_SAMPLES - 1], 3, ForestConfig::default(), 1, 1)
                .is_none()
        );
        let a = fit_feedback_models(&rows, 3, ForestConfig::default(), 42, 1).unwrap();
        let b = fit_feedback_models(&rows, 3, ForestConfig::default(), 42, 1).unwrap();
        let probe = [0.4f32, 0.6, 0.2];
        assert_eq!(a.alpha.predict_proba(&probe), b.alpha.predict_proba(&probe));
        assert_eq!(a.dim(), 3);
        assert_eq!(a.version(), 1);
    }
}
