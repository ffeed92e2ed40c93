//! [`Session`]: a model plus its tuned threshold plus cached inference
//! plans, behind a batched scoring API.
//!
//! A session records each example's eval-mode scoring graph on a
//! forward-only tape ([`Tape::inference`]) and replays that tape as
//! recorded through the arena executor's cached inference plans:
//! parameters enter as placeholders (no per-call weight cloning, unlike
//! eager tapes) and node values live in one planned arena (no per-node
//! heap allocation). Scores are bitwise identical to the model's eager
//! `predict` path — same graph, same kernels, same evaluation order — so a
//! session is a drop-in, faster scorer. The certified tape optimiser
//! (`hiergat_nn::optimize`) is not on this path: nearly every scored pair
//! has a graph geometry the session has not seen, so optimising each tape
//! costs more than replaying it saves, and its rewrites are bitwise-exact,
//! so it would change no score.
//!
//! [`Session::score_batch`] fans examples out over the `parallel` pool
//! (`HIERGAT_THREADS` governs the width) through one helper shared by the
//! f32 and quantised paths: a serial slot for small batches plus one slot
//! per worker. Each slot keeps its own executor across calls. Every
//! executor's plan cache is keyed by the graph's shape signature and holds
//! at most `CACHE_CAP` = 256 entries, clearing at the cap, so a session
//! replays a compiled plan whenever a pair's record geometry repeats;
//! [`Session::stats`] counts those hits and misses. Every example is
//! scored independently, so results never depend on the chunk geometry
//! and a 1-thread and an 8-thread run are bitwise identical.

use crate::model::{ErModel, Example, InputError};
use hiergat_nn::{
    ArenaExecutor, QuantConfig, QuantError, QuantExecutor, QuantPlan, QuantStore, QuantStoreReport,
    Tape,
};
use std::sync::Mutex;

/// An inference session over one model.
pub struct Session {
    model: Box<dyn ErModel>,
    threshold: f32,
    serial: ArenaExecutor,
    workers: Vec<ArenaExecutor>,
    /// Examples scored on the f32 path since the last [`Self::reset_stats`].
    calls: u64,
    quant: Option<QuantState>,
}

/// Plan-cache behaviour of a session's f32 scoring path, summed over the
/// serial slot and every worker slot (see [`Session::stats`]). Every
/// scored example is one plan lookup, so `plan_hits + plan_misses ==
/// calls`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Examples scored.
    pub calls: u64,
    /// Examples whose graph shape already had a cached inference plan.
    pub plan_hits: u64,
    /// Examples that built (and cached) a new inference plan.
    pub plan_misses: u64,
}

impl SessionStats {
    /// Share of plan lookups that hit the cache (0 before any call).
    pub fn plan_hit_rate(&self) -> f64 {
        let lookups = self.plan_hits + self.plan_misses;
        if lookups == 0 {
            0.0
        } else {
            self.plan_hits as f64 / lookups as f64
        }
    }
}

/// Quantised-session state: the immutable audit-driven weight store plus
/// per-thread executors (the serial one and one per batch-worker slot),
/// mirroring the f32 worker layout.
struct QuantState {
    store: QuantStore,
    exec: QuantExecutor,
    workers: Vec<QuantExecutor>,
}

/// What [`Session::quantise`] did: weight-byte accounting from the
/// rejecting quantiser plus the arena footprint of the quantised plan for
/// the priming example's graph shape, next to the f32 plan it replaces.
#[derive(Debug, Clone, Copy)]
pub struct QuantReport {
    /// Per-parameter class counts and byte totals.
    pub weights: QuantStoreReport,
    /// Class-arena bytes of the quantised inference plan.
    pub arena_bytes: u64,
    /// Arena bytes of the f32 inference plan for the same graph shape.
    pub f32_arena_bytes: u64,
    /// Live activation nodes stored `(int8, f16, f32)`.
    pub class_nodes: (usize, usize, usize),
}

/// Records `ex`'s scoring graph on an inference tape and replays it as
/// recorded through `exec`, returning the match probability per output.
fn score_one(model: &dyn ErModel, exec: &mut ArenaExecutor, ex: Example<'_>) -> Vec<f32> {
    let n = ex.n_outputs();
    let mut t = Tape::inference();
    let probs = model.record_scores(&mut t, ex);
    // The probability node is row-major `n x 2`; column 1 is P(match).
    let mut buf = vec![0.0f32; n * 2];
    exec.infer_into(&t, probs, model.params(), &mut buf);
    (0..n).map(|i| buf[i * 2 + 1]).collect()
}

/// The quantised twin of [`score_one`]: replays the as-recorded inference
/// tape through the class-arena executor.
fn score_one_quant(
    model: &dyn ErModel,
    exec: &mut QuantExecutor,
    qstore: &QuantStore,
    ex: Example<'_>,
) -> Vec<f32> {
    let n = ex.n_outputs();
    let mut t = Tape::inference();
    let probs = model.record_scores(&mut t, ex);
    let mut buf = vec![0.0f32; n * 2];
    exec.infer_into(&t, probs, model.params(), qstore, &mut buf)
        .expect("quantised inference on an audited model");
    (0..n).map(|i| buf[i * 2 + 1]).collect()
}

/// Scores `examples` in input order: serially on `serial` when the pool is
/// 1-wide or the batch is small (keeping that slot's caches warm),
/// otherwise in one contiguous chunk per worker slot, growing `workers` to
/// the pool width.
fn fan_out<'e, W: Default + Send>(
    serial: &mut W,
    workers: &mut Vec<W>,
    examples: &[Example<'e>],
    score: impl Fn(&mut W, Example<'e>) -> Vec<f32> + Sync,
) -> Vec<Vec<f32>> {
    let width = parallel::current_split().max(1);
    if width == 1 || examples.len() < 2 * width {
        return examples.iter().map(|ex| score(serial, *ex)).collect();
    }
    if workers.len() < width {
        workers.resize_with(width, W::default);
    }
    let mut out: Vec<Vec<f32>> = vec![Vec::new(); examples.len()];
    let chunk = examples.len().div_ceil(width);
    // One job per worker slot: its persistent state plus the slice of
    // outputs/examples it owns. The Mutex hands each spawned task
    // exclusive access to its own job.
    type Job<'j, 'e, W> = Mutex<(&'j mut W, &'j mut [Vec<f32>], &'j [Example<'e>])>;
    let jobs: Vec<Job<'_, 'e, W>> = workers
        .iter_mut()
        .zip(out.chunks_mut(chunk))
        .zip(examples.chunks(chunk))
        .map(|((worker, slots), exs)| Mutex::new((worker, slots, exs)))
        .collect();
    parallel::run(jobs.len(), |i| {
        let mut job = jobs[i].lock().expect("session job lock");
        let (worker, slots, exs) = &mut *job;
        for (slot, ex) in slots.iter_mut().zip(exs.iter()) {
            *slot = score(worker, *ex);
        }
    });
    out
}

impl Session {
    /// Wraps a model, adopting its persisted decision threshold.
    pub fn new(model: Box<dyn ErModel>) -> Self {
        let threshold = model.decision_threshold();
        Self {
            model,
            threshold,
            serial: ArenaExecutor::new(),
            workers: Vec::new(),
            calls: 0,
            quant: None,
        }
    }

    /// Quantises the session's weights post-training, driven by the absint
    /// feasibility table: the audit proves a value interval per tensor of
    /// `ex`'s scoring graph, every parameter it classifies int8/f16 is
    /// re-encoded through the rejecting quantiser, and subsequent scoring
    /// replays tapes through the class-arena executor (dequant-free int8
    /// matmul where both operands are int8). Fails — leaving the session
    /// un-quantised — if the audit finds numerical-safety issues or any
    /// weight escapes its proven interval.
    pub fn quantise(
        &mut self,
        ex: Example<'_>,
        cfg: &QuantConfig,
    ) -> Result<QuantReport, QuantError> {
        let mut t = Tape::inference();
        let probs = self.model.record_scores(&mut t, ex);
        let (store, _audit) = QuantStore::build(&t, probs, self.model.params(), cfg)?;
        // Prime the plan for this graph shape so the report carries real
        // arena numbers (and the first score call replays instantly).
        let mut exec = QuantExecutor::new();
        let plan: &QuantPlan = exec.plan_for(&t, probs, self.model.params(), &store)?;
        let report = QuantReport {
            weights: store.report(),
            arena_bytes: plan.arena_bytes(),
            f32_arena_bytes: plan.f32_arena_bytes(),
            class_nodes: plan.class_nodes(),
        };
        self.quant = Some(QuantState { store, exec, workers: Vec::new() });
        Ok(report)
    }

    /// Whether scoring goes through the quantised executor.
    pub fn is_quantised(&self) -> bool {
        self.quant.is_some()
    }

    /// Capacity of the quantised serial scoring arenas, in bytes (`None`
    /// until [`Self::quantise`] succeeds).
    pub fn quantised_arena_bytes(&self) -> Option<u64> {
        self.quant.as_ref().map(|q| q.exec.arena_capacity_bytes())
    }

    /// The wrapped model.
    pub fn model(&self) -> &dyn ErModel {
        &*self.model
    }

    /// The session's decision threshold (`score >= threshold` ⇒ match).
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Overrides the decision threshold for this session.
    pub fn set_threshold(&mut self, threshold: f32) {
        self.threshold = threshold;
    }

    /// Capacity of the serial scoring arena, in bytes (grows to the largest
    /// inference plan seen; 0 before the first call).
    pub fn arena_capacity_bytes(&self) -> u64 {
        self.serial.arena_capacity_bytes()
    }

    /// Calls and plan-cache hits and misses of the f32 scoring path since
    /// the session was built or [`Self::reset_stats`] last ran. A quantised
    /// session's calls are not counted.
    pub fn stats(&self) -> SessionStats {
        let mut stats = SessionStats { calls: self.calls, ..SessionStats::default() };
        for exec in std::iter::once(&self.serial).chain(&self.workers) {
            let (hits, misses) = exec.plan_counts();
            stats.plan_hits += hits;
            stats.plan_misses += misses;
        }
        stats
    }

    /// Zeroes [`Self::stats`]; cached plans stay.
    pub fn reset_stats(&mut self) {
        self.calls = 0;
        for exec in std::iter::once(&mut self.serial).chain(&mut self.workers) {
            exec.reset_plan_counts();
        }
    }

    /// Checks every entity of `pairs` against the model's input contract
    /// (see [`ErModel::check_entity`]) before anything is recorded, then
    /// scores them like [`Self::score_pairs`].
    ///
    /// # Errors
    /// The first pair whose entities the model cannot read, e.g. one with
    /// a different attribute count than the model was built for.
    pub fn try_score_pairs(
        &mut self,
        pairs: &[hiergat_data::EntityPair],
    ) -> Result<Vec<f32>, InputError> {
        for pair in pairs {
            self.model.check_entity(&pair.left)?;
            self.model.check_entity(&pair.right)?;
        }
        Ok(self.score_pairs(pairs))
    }

    /// Scores one example: match probability per output. Bitwise identical
    /// to the model's eager `predict` until [`Self::quantise`], after which
    /// scores come from the quantised executor (within the acceptance
    /// harness's F1 delta of f32, not bitwise).
    pub fn score(&mut self, ex: Example<'_>) -> Vec<f32> {
        if let Some(q) = self.quant.as_mut() {
            return score_one_quant(&*self.model, &mut q.exec, &q.store, ex);
        }
        self.calls += 1;
        score_one(&*self.model, &mut self.serial, ex)
    }

    /// Interval abstract-interpretation audit of the scoring graph this
    /// session executes (see [`ErModel::audit`]).
    pub fn audit(
        &self,
        ex: Example<'_>,
        cfg: &hiergat_nn::AbsintConfig,
    ) -> hiergat_nn::AuditReport {
        self.model.audit(ex, cfg)
    }

    /// Boolean decisions for one example at the session threshold.
    pub fn decide(&mut self, ex: Example<'_>) -> Vec<bool> {
        let threshold = self.threshold;
        self.score(ex).into_iter().map(|s| s >= threshold).collect()
    }

    /// Scores a batch in parallel over the shared thread pool. Output
    /// order matches input order; values are independent of the pool
    /// width (each example's graph is scored in isolation).
    pub fn score_batch(&mut self, examples: &[Example<'_>]) -> Vec<Vec<f32>> {
        let model = &*self.model;
        if let Some(q) = self.quant.as_mut() {
            let qstore = &q.store;
            return fan_out(&mut q.exec, &mut q.workers, examples, |exec, ex| {
                score_one_quant(model, exec, qstore, ex)
            });
        }
        self.calls += examples.len() as u64;
        fan_out(&mut self.serial, &mut self.workers, examples, |exec, ex| {
            score_one(model, exec, ex)
        })
    }

    /// Convenience over [`Self::score_batch`] for pairwise models: one
    /// match probability per pair.
    pub fn score_pairs(&mut self, pairs: &[hiergat_data::EntityPair]) -> Vec<f32> {
        let examples: Vec<Example<'_>> = pairs.iter().map(Example::Pair).collect();
        self.score_batch(&examples)
            .into_iter()
            .map(|mut v| {
                debug_assert_eq!(v.len(), 1);
                v.pop().unwrap_or_default()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{BuildContext, ModelRegistry};
    use hiergat_data::MagellanDataset;
    use hiergat_lm::LmTier;

    #[test]
    fn session_scores_match_eager_predictions_bitwise() {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let pair = ds.train.first().expect("pair");
        let reg = ModelRegistry::builtin();
        let spec = reg.get("hiergat").expect("spec");
        let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
        let model = spec.build(&cx);
        let eager = model.predict(Example::Pair(pair));
        let mut session = Session::new(model);
        for _ in 0..2 {
            let scored = session.score(Example::Pair(pair));
            assert_eq!(scored.len(), eager.len());
            for (s, e) in scored.iter().zip(&eager) {
                assert_eq!(s.to_bits(), e.to_bits(), "session must match eager bitwise");
            }
        }
        assert!(session.arena_capacity_bytes() > 0);
    }

    #[test]
    fn batch_scores_match_serial_scores_and_preserve_order() {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let pairs = &ds.train[..ds.train.len().min(12)];
        let reg = ModelRegistry::builtin();
        let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
        let mut session = Session::new(reg.get("deepmatcher").expect("spec").build(&cx));
        let batched = session.score_pairs(pairs);
        for (pair, score) in pairs.iter().zip(&batched) {
            let serial = session.score(Example::Pair(pair));
            assert_eq!(serial[0].to_bits(), score.to_bits());
        }
    }

    #[test]
    fn session_audit_proves_probability_node_inside_unit_interval() {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let pair = ds.train.first().expect("pair");
        let reg = ModelRegistry::builtin();
        let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
        let session = Session::new(reg.get("hiergat").expect("spec").build(&cx));
        let report =
            session.audit(Example::Pair(pair), &hiergat_nn::AbsintConfig::symbolic(8.0, 4.0));
        // The scoring graph ends in a softmax: the audited root must be
        // proven finite, NaN-free, and inside [0, 1].
        let root = report.ranges.last().expect("root range");
        assert!(root.finite && root.nan_free, "softmax output must be proven safe");
        assert!(root.lo >= 0.0 && root.hi <= 1.0 + 1e-3, "probabilities in [0,1]: {root:?}");
        assert!(report.is_clean_at(hiergat_nn::Severity::Warn), "{report}");
    }

    #[test]
    fn stats_count_one_plan_lookup_per_call_at_widths_1_and_8() {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let pairs = &ds.train[..ds.train.len().min(24)];
        assert!(pairs.len() >= 16, "need a batch wide enough to fan out at width 8");
        let reg = ModelRegistry::builtin();
        let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
        for width in [1, 8] {
            parallel::with_threads(width, || {
                let mut session = Session::new(reg.get("deepmatcher").expect("spec").build(&cx));
                assert_eq!(session.stats(), SessionStats::default());
                session.score_pairs(pairs);
                session.score_pairs(pairs);
                session.score(Example::Pair(&pairs[0]));
                let stats = session.stats();
                let calls = 2 * pairs.len() as u64 + 1;
                assert_eq!(stats.calls, calls, "width {width}");
                assert_eq!(stats.plan_hits + stats.plan_misses, calls, "width {width}: {stats:?}");
                assert!(stats.plan_hits > 0, "width {width}: repeated shapes must hit");
                session.reset_stats();
                assert_eq!(session.stats(), SessionStats::default(), "width {width}");
                session.score(Example::Pair(&pairs[0]));
                let again = session.stats();
                assert_eq!((again.calls, again.plan_hits, again.plan_misses), (1, 1, 0));
            });
        }
    }

    #[test]
    fn mismatched_arity_is_refused_before_recording() {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let pair = ds.train.first().expect("pair");
        let reg = ModelRegistry::builtin();
        let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) + 1 };
        let mut session = Session::new(reg.get("hiergat").expect("spec").build(&cx));
        let err = session.try_score_pairs(std::slice::from_ref(pair)).expect_err("arity differs");
        assert_eq!(
            err,
            InputError::Arity {
                entity: pair.left.id.clone(),
                expected: ds.arity().max(1) + 1,
                found: pair.left.arity(),
            }
        );
        assert_eq!(session.stats().calls, 0, "nothing is recorded after a refusal");
    }

    #[test]
    fn quantised_session_shrinks_storage_and_stays_close_to_f32() {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let pairs = &ds.train[..ds.train.len().min(8)];
        let reg = ModelRegistry::builtin();
        let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
        let mut session = Session::new(reg.get("hiergat").expect("spec").build(&cx));
        let f32_scores = session.score_pairs(pairs);
        let report = session
            .quantise(Example::Pair(&pairs[0]), &QuantConfig::default())
            .expect("audit-clean model must quantise");
        assert!(session.is_quantised());
        assert!(
            report.arena_bytes < report.f32_arena_bytes,
            "quantised arena {} must undercut f32 arena {}",
            report.arena_bytes,
            report.f32_arena_bytes
        );
        assert!(
            report.weights.bytes_quantised < report.weights.bytes_f32,
            "weight bytes must shrink: {report:?}"
        );
        assert!(report.weights.int8_params + report.weights.f16_params > 0, "{report:?}");
        let q_scores = session.score_pairs(pairs);
        for (q, f) in q_scores.iter().zip(&f32_scores) {
            assert!((q - f).abs() < 0.05, "quantised score {q} drifted from f32 score {f}");
        }
        // Serial and batch replay agree on the quantised path too.
        for (pair, batch) in pairs.iter().zip(&q_scores) {
            let serial = session.score(Example::Pair(pair));
            assert_eq!(serial[0].to_bits(), batch.to_bits());
        }
    }

    #[test]
    fn decide_applies_the_session_threshold() {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let pair = ds.train.first().expect("pair");
        let reg = ModelRegistry::builtin();
        let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
        let mut session = Session::new(reg.get("dm+").expect("spec").build(&cx));
        let score = session.score(Example::Pair(pair))[0];
        session.set_threshold(score);
        assert!(session.decide(Example::Pair(pair))[0], "score == threshold is a match");
        session.set_threshold(score + f32::EPSILON.max(score * 1e-6));
        assert!(!session.decide(Example::Pair(pair))[0]);
    }
}
