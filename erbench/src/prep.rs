//! Builds the fixed band model once, with the `benches/resolve.rs`
//! recipe: band pairs mined from a disjoint seed-7 corpus twice the size
//! of the `resolve_band` corpus, a miniature LM pre-trained on their
//! training split, HierGAT trained for 6 epochs, and the decision
//! threshold re-tuned for clustering (the lowest threshold with
//! precision >= 0.97). The result is saved with `save_model`; runs load
//! it and never retrain.
//!
//! One step differs from the bench: the threshold is placed on every
//! band pair of a separate seed-8 corpus of `resolve_band`'s size
//! (about 10^4 pairs), not on the 239-pair validation split. On the
//! validation split the 0.97-precision cut lands at 0.9992, whose
//! precision on a `resolve_band` corpus is only 0.65; that band then
//! lowers cluster F1 by about 0.013 against cosine-only resolve.

use crate::common::{
    band_pairs, corpus, labelled_pair, source_config, CALIBRATION_SEED, TRAIN_SEED,
};
use crate::workloads::BAND_RECORDS;
use hiergat::{save_model, score_pairs, train_pairwise, HierGat, HierGatConfig};
use hiergat_blocking::TfIdfCandidates;
use hiergat_data::{EntityPair, PairDataset};
use hiergat_lm::{corpus_from_entities, pretrain, LmTier, PretrainConfig};
use std::path::Path;

const POOL_CAP: usize = 1_200;
const EPOCHS: usize = 6;
const PRECISION_FLOOR: f64 = 0.97;

/// The lowest threshold whose precision on `pairs` clears `floor` (ties
/// broken toward higher recall); just above the top score if none does.
fn precision_floor_threshold(scores: &[f32], pairs: &[EntityPair], floor: f64) -> f32 {
    let mut ranked: Vec<(f32, bool)> =
        scores.iter().copied().zip(pairs.iter().map(|p| p.label)).collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut best = ranked.first().map_or(1.0, |&(s, _)| s + 1e-3);
    let (mut tp, mut fp) = (0u64, 0u64);
    for i in 0..ranked.len() {
        if ranked[i].1 {
            tp += 1;
        } else {
            fp += 1;
        }
        if i + 1 < ranked.len() && ranked[i + 1].0 == ranked[i].0 {
            continue;
        }
        if tp as f64 / (tp + fp) as f64 >= floor {
            best = ranked[i].0;
        }
    }
    best
}

pub fn build_band_model(out: &Path) -> Result<(), String> {
    let train_corpus = corpus(BAND_RECORDS * 2, TRAIN_SEED);
    let src = TfIdfCandidates::fit_dedup(&train_corpus, &source_config());
    let pool: Vec<EntityPair> = band_pairs(&src)
        .into_iter()
        .take(POOL_CAP)
        .map(|e| labelled_pair(&train_corpus, e))
        .collect();
    let ds = PairDataset::split_3_1_1("synth-resolve", pool, 0xE5);
    let entities: Vec<_> =
        ds.train.iter().flat_map(|p| [p.left.clone(), p.right.clone()]).collect();
    let lm_corpus = corpus_from_entities(entities.iter());
    let pre = pretrain(LmTier::MiniDistil.config(), &lm_corpus, &PretrainConfig::default()).store;
    let mut model = HierGat::new(
        HierGatConfig::pairwise().with_tier(LmTier::MiniDistil).with_epochs(EPOCHS),
        ds.arity().max(1),
    );
    model.load_pretrained(&pre);
    let report = train_pairwise(&mut model, &ds);
    let calib_corpus = corpus(BAND_RECORDS, CALIBRATION_SEED);
    let calib_src = TfIdfCandidates::fit_dedup(&calib_corpus, &source_config());
    let calib: Vec<EntityPair> =
        band_pairs(&calib_src).into_iter().map(|e| labelled_pair(&calib_corpus, e)).collect();
    // Eager scores: bitwise what a session would produce.
    let (calib_scores, _) = score_pairs(&model, &calib);
    let threshold = precision_floor_threshold(&calib_scores, &calib, PRECISION_FLOOR);
    model.set_decision_threshold(threshold);
    save_model(&model, out).map_err(|e| format!("cannot save band model: {e}"))?;
    eprintln!(
        "band model: {} train / {} calibration pairs, test F1 {:.3}, cluster-safe threshold {threshold:.6}, saved to {}",
        ds.train.len(),
        calib.len(),
        report.test_f1,
        out.display()
    );
    Ok(())
}
