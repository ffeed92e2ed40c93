//! Quantisation acceptance gate: every model in [`ModelRegistry::builtin`]
//! must survive post-training quantisation driven by the absint feasibility
//! table.
//!
//! Per model, mirroring the `hiergat quantise` CLI gate: (a) Magellan F1 on
//! a pooled evaluation split stays within `F1_DELTA` of the f32 session;
//! (b) the quantised activation arena never exceeds the f32 inference
//! arena, and the session's total footprint (arena + weights) strictly
//! shrinks; (c) quantised scoring is deterministic — bitwise identical
//! across repeated calls and across kernel-pool widths 1 and 8.
//!
//! `ci.sh` runs this suite under `HIERGAT_THREADS=1` and `=8` and again
//! under `--features simd`; the width sweep inside uses
//! `parallel::with_threads`, so every gate also exercises nested-width
//! behaviour.

use hiergat_data::{CollectiveDataset, MagellanDataset, PairDataset};
use hiergat_lm::LmTier;
use hiergat_metrics::Confusion;
use hiergat_nn::QuantConfig;
use hiergat_runtime::{BuildContext, Example, ModelKind, ModelRegistry, Session};

/// Accepted |F1(quantised) - F1(f32)|. Matches the `hiergat quantise`
/// default: one flipped decision at the pooled gate split's positive
/// count (~10 positives) moves F1 by ~0.1, so the gate absorbs a single
/// flip and fails on anything systematic.
const F1_DELTA: f64 = 0.10;

struct Fixture {
    ds: PairDataset,
    ds_c: CollectiveDataset,
}

impl Fixture {
    fn load() -> Self {
        let kind = MagellanDataset::FodorsZagats;
        Self { ds: kind.load(0.15), ds_c: kind.load_collective(0.15) }
    }

    fn context(&self, kind: ModelKind) -> BuildContext {
        let arity = match kind {
            ModelKind::Pairwise => self.ds.arity().max(1),
            ModelKind::Collective => {
                self.ds_c.train.first().map_or(1, |ex| ex.query.attrs.len().max(1))
            }
        };
        BuildContext { tier: LmTier::MiniDistil, arity }
    }

    /// Pooled evaluation split with ground-truth labels in output order.
    /// Every split is pooled because the gate checks the quantisation
    /// contract, not generalisation — the small Magellan test splits make
    /// F1 far too coarse on their own.
    fn eval(&self, kind: ModelKind) -> (Vec<Example<'_>>, Vec<bool>) {
        match kind {
            ModelKind::Pairwise => {
                let pool: Vec<&hiergat_data::EntityPair> =
                    [&self.ds.train, &self.ds.valid, &self.ds.test].into_iter().flatten().collect();
                let pairs = &pool[..pool.len().min(64)];
                (
                    pairs.iter().map(|p| Example::Pair(p)).collect(),
                    pairs.iter().map(|p| p.label).collect(),
                )
            }
            ModelKind::Collective => {
                let pool =
                    if self.ds_c.test.is_empty() { &self.ds_c.train } else { &self.ds_c.test };
                let exs = &pool[..pool.len().min(6)];
                (
                    exs.iter().map(Example::Collective).collect(),
                    exs.iter().flat_map(|e| e.labels.iter().copied()).collect(),
                )
            }
        }
    }

    /// A small scoring batch for the determinism sweeps.
    fn batch(&self, kind: ModelKind) -> Vec<Example<'_>> {
        match kind {
            ModelKind::Pairwise => self.ds.train.iter().take(8).map(Example::Pair).collect(),
            ModelKind::Collective => {
                self.ds_c.train.iter().take(3).map(Example::Collective).collect()
            }
        }
    }
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn f1(scores: &[f32], labels: &[bool], threshold: f32) -> f64 {
    let preds: Vec<bool> = scores.iter().map(|s| *s >= threshold).collect();
    Confusion::from_predictions(&preds, labels).pr_f1().f1
}

#[test]
fn every_registry_model_quantises_within_the_f1_and_storage_gates() {
    let fx = Fixture::load();
    for spec in ModelRegistry::builtin().specs() {
        let (examples, labels) = fx.eval(spec.kind());
        assert!(!examples.is_empty(), "{}: empty evaluation pool", spec.name());
        let mut session = Session::new(spec.build(&fx.context(spec.kind())));
        let threshold = session.threshold();
        let f32_scores: Vec<f32> = session.score_batch(&examples).into_iter().flatten().collect();
        assert_eq!(f32_scores.len(), labels.len(), "{}", spec.name());

        let report = session
            .quantise(examples[0], &QuantConfig::default())
            .unwrap_or_else(|e| panic!("{}: quantise failed: {e}", spec.name()));
        assert!(session.is_quantised(), "{}", spec.name());
        let q_scores: Vec<f32> = session.score_batch(&examples).into_iter().flatten().collect();

        // F1 gate: quantised decisions must track the f32 session's.
        let delta = f1(&q_scores, &labels, threshold) - f1(&f32_scores, &labels, threshold);
        assert!(
            delta.abs() <= F1_DELTA,
            "{}: quantised F1 drifted {delta:+.3} (gate {F1_DELTA})",
            spec.name()
        );

        // Storage gate: the activation arena must never grow (graphs whose
        // live peak is audit-opaque — e.g. GCN's division-normalised
        // adjacency products — bottom out at exact equality), and the
        // session's total footprint must strictly shrink.
        assert!(
            report.arena_bytes <= report.f32_arena_bytes,
            "{}: quantised arena {} B exceeds f32 arena {} B",
            spec.name(),
            report.arena_bytes,
            report.f32_arena_bytes
        );
        assert!(
            report.arena_bytes + report.weights.bytes_quantised
                < report.f32_arena_bytes + report.weights.bytes_f32,
            "{}: total footprint did not shrink (arena {} + weights {} vs {} + {})",
            spec.name(),
            report.arena_bytes,
            report.weights.bytes_quantised,
            report.f32_arena_bytes,
            report.weights.bytes_f32
        );
        // The serial executor owns at least the report's arena once it has
        // replayed a score (batch scoring fans out to pool-worker executors,
        // so only a serial call is guaranteed to touch this arena); the
        // capacity is a peak across every shape replayed so far.
        session.score(examples[0]);
        let live = session.quantised_arena_bytes().unwrap_or(0);
        assert!(
            live >= report.arena_bytes,
            "{}: live arena {} B below the reported plan {} B",
            spec.name(),
            live,
            report.arena_bytes
        );
        // The audit classified at least one parameter below f32, otherwise
        // the "quantised" session is a no-op wearing the label.
        assert!(
            report.weights.int8_params + report.weights.f16_params > 0,
            "{}: feasibility table demoted nothing below f32",
            spec.name()
        );
    }
}

#[test]
fn quantised_scoring_is_deterministic_across_widths() {
    let fx = Fixture::load();
    for spec in ModelRegistry::builtin().specs() {
        let batch = fx.batch(spec.kind());
        // One batch scored at a given pool width.
        let scored = |width: usize| -> Vec<Vec<u32>> {
            let mut session = Session::new(spec.build(&fx.context(spec.kind())));
            session
                .quantise(batch[0], &QuantConfig::default())
                .unwrap_or_else(|e| panic!("{}: quantise failed: {e}", spec.name()));
            parallel::with_threads(width, || session.score_batch(&batch))
                .iter()
                .map(|scores| bits(scores))
                .collect()
        };
        let baseline = scored(1);
        assert_eq!(baseline, scored(8), "{}: scores depend on pool width", spec.name());
        // Repeated scoring through the cached quantised plan replays
        // bitwise, and quantising does not disturb later f32 comparisons.
        let mut session = Session::new(spec.build(&fx.context(spec.kind())));
        session
            .quantise(batch[0], &QuantConfig::default())
            .unwrap_or_else(|e| panic!("{}: quantise failed: {e}", spec.name()));
        let first: Vec<Vec<u32>> = session.score_batch(&batch).iter().map(|s| bits(s)).collect();
        let second: Vec<Vec<u32>> = session.score_batch(&batch).iter().map(|s| bits(s)).collect();
        assert_eq!(first, second, "{}: quantised replay diverged", spec.name());
        assert_eq!(first, baseline, "{}: fresh quantised session diverged", spec.name());
    }
}
