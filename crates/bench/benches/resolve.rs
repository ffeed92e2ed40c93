//! Corpus-scale streaming resolve benchmark (DESIGN.md §18).
//!
//! Emits `BENCH_resolve.json` in the repo root with two experiments:
//!
//! * **scale** — the full streaming pipeline (sharded TF-IDF blocking →
//!   cosine cascade → union-find clustering) over a synthetic DI2KG-style
//!   corpus, 10^6 records by default. Reports throughput (entities/s,
//!   candidates/s), a peak-RSS proxy (fitted index + largest in-flight
//!   batch + clustering state — the pair matrix is never materialised),
//!   and pairwise cluster P/R/F1 against the generator's gold ids.
//! * **band** — the full trio on a smaller corpus: a HierGAT session,
//!   trained on pairs drawn from a *disjoint* corpus seed, adjudicates
//!   the ambiguous cosine band. Reports model call counts and the
//!   cluster F1 with and without the model so the cascade's contribution
//!   is visible.
//!
//! Sizing: `HIERGAT_RESOLVE_ENTITIES` pins the scale corpus directly;
//! otherwise 10^6 × `HIERGAT_BENCH_SCALE`. `run_benches.sh` holds the
//! output to entities/s and cluster-F1 floors.

use hiergat::{train_pairwise, HierGat, HierGatConfig};
use hiergat_bench::{banner, bench_epochs, bench_scale, pretrain_for};
use hiergat_blocking::{FitStats, TfIdfCandidates, TfIdfSourceConfig};
use hiergat_data::{CorpusConfig, EntityPair, PairDataset, SynthCorpus};
use hiergat_lm::LmTier;
use hiergat_metrics::{pairwise_cluster_metrics, PrF1};
use hiergat_runtime::{resolve, HierGatPairwise, Resolution, ResolveConfig, Session};
use std::time::Instant;

/// Cosine-only operating point for small corpora (≤ a few thousand
/// records) from the DESIGN.md §18 threshold sweep.
const COSINE_ACCEPT: f32 = 0.55;
/// Scale-corpus operating point. The optimal accept is scale-dependent:
/// with 10^5+ products drawn from a finite lexicon, distinct products
/// increasingly share brand/name tokens, and transitive closure amplifies
/// every false merge — 0.55 holds F1 0.85 at 3k records but collapses to
/// precision 0.15 at 1M, while 0.7 holds F1 0.82–0.91 from 10k to 1M.
const SCALE_ACCEPT: f32 = 0.7;
/// Cascade operating point: auto-accept at the tuned cosine threshold,
/// model adjudicates the band *below* it — the model can only add recall
/// the cosine stage dropped, never lose pairs cosine would have kept.
const BAND_ACCEPT: f32 = COSINE_ACCEPT;
const BAND: (f32, f32) = (0.4, COSINE_ACCEPT);

fn scale_entities() -> usize {
    if let Some(n) = std::env::var("HIERGAT_RESOLVE_ENTITIES").ok().and_then(|v| v.parse().ok()) {
        return n;
    }
    // Floor of 10k: SCALE_ACCEPT is tuned for collision rates at 10^4+.
    ((1_000_000f64 * bench_scale()) as usize).max(10_000)
}

fn corpus(n: usize, seed: u64) -> SynthCorpus {
    SynthCorpus::new(CorpusConfig { n_records: n, copies: 3, family_size: 4, seed })
}

fn source_config() -> TfIdfSourceConfig {
    TfIdfSourceConfig {
        top_n: 8,
        min_score: 0.15,
        n_shards: 8,
        max_df: Some(0.01),
        fit_chunk: 8192,
    }
}

struct Run {
    fit_secs: f64,
    fit_stats: FitStats,
    index_bytes: u64,
    resolution: Resolution,
    pr: PrF1,
}

fn run_resolve(corpus: &SynthCorpus, session: Option<&mut Session>, cfg: &ResolveConfig) -> Run {
    let fit_start = Instant::now();
    let src = TfIdfCandidates::fit_dedup(corpus, &source_config());
    let fit_secs = fit_start.elapsed().as_secs_f64();
    let fit_stats = src.fit_stats();
    let index_bytes = src.memory_bytes();
    let resolution = resolve(&src, corpus, session, cfg);
    let pr = pairwise_cluster_metrics(&resolution.labels, &corpus.gold_labels()).pr_f1();
    Run { fit_secs, fit_stats, index_bytes, resolution, pr }
}

/// Labeled pairs mined from the cosine band of a corpus — exactly the
/// distribution the session will adjudicate at resolve time. Blocking is
/// run on the training corpus, candidate pairs with cosine in [`BAND`]
/// are collected, and the generator's gold ids supply labels (noisy
/// copies of one product → positive; vocabulary-sharing siblings →
/// negative).
fn band_pair_pool(corpus: &SynthCorpus, cap: usize) -> Vec<EntityPair> {
    use hiergat_blocking::CandidateSource;
    let src = TfIdfCandidates::fit_dedup(corpus, &source_config());
    let mut edges: Vec<(u32, u32)> = Vec::new();
    src.for_each_batch(1024, |batch| {
        for qc in batch {
            for c in &qc.candidates {
                if c.score >= BAND.0 && c.score < BAND.1 {
                    edges.push((qc.query.min(c.id) as u32, qc.query.max(c.id) as u32));
                }
            }
        }
    });
    edges.sort_unstable();
    edges.dedup();
    edges
        .iter()
        .take(cap)
        .map(|&(a, b)| {
            EntityPair::new(
                corpus.entity(a as usize),
                corpus.entity(b as usize),
                corpus.gold(a as usize) == corpus.gold(b as usize),
            )
        })
        .collect()
}

/// The lowest threshold whose precision on `pairs` clears `floor`
/// (ties broken toward higher recall). Falls back to just above the top
/// score — "accept nothing" — if no cut qualifies.
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
        // Only cut *between* distinct scores: a threshold cannot split ties.
        if i + 1 < ranked.len() && ranked[i + 1].0 == ranked[i].0 {
            continue;
        }
        if tp as f64 / (tp + fp) as f64 >= floor {
            best = ranked[i].0;
        }
    }
    best
}

fn main() {
    banner("resolve: corpus-scale streaming pipeline (DESIGN.md section 18)");

    // --- scale experiment: cosine-only cascade at full corpus size -----
    let n = scale_entities();
    println!("  scale corpus: {n} records (copies=3, family=4, seed=11)");
    let big = corpus(n, 11);
    let cfg = ResolveConfig { batch_size: 2048, accept: SCALE_ACCEPT, ..ResolveConfig::default() };
    let scale = run_resolve(&big, None, &cfg);
    let s = &scale.resolution.stats;
    // Clustering state: labels (u32) + union-find parent (u32) + rank (u8).
    let cluster_bytes = (n as u64) * 9;
    let peak_rss = scale.index_bytes + s.batch_peak_bytes + cluster_bytes;
    let entities_per_s = n as f64 / (scale.fit_secs + s.total_secs);
    let candidates_per_s = s.candidates as f64 / s.total_secs;
    println!(
        "  fit {:.1}s (vocabulary {:.2}s, transform + index {:.2}s)  resolve {:.1}s  \
         {:.0} entities/s  {:.0} candidates/s",
        scale.fit_secs,
        scale.fit_stats.vocab_secs,
        scale.fit_stats.transform_secs,
        s.total_secs,
        entities_per_s,
        candidates_per_s
    );
    println!(
        "  clusters {}  P {:.3}  R {:.3}  F1 {:.3}  peak-RSS proxy {:.1} MB",
        s.clusters,
        scale.pr.precision,
        scale.pr.recall,
        scale.pr.f1,
        peak_rss as f64 / 1e6
    );

    // --- band experiment: trained session adjudicates the ambiguous band
    // Floor of 1200: below ~1k records the max_df=0.01 stop-term cutoff
    // (df <= 12 docs) prunes discriminative brand/category tokens and the
    // cosine stage collapses, which measures the pruner, not the cascade.
    let band_n = ((4_000f64 * bench_scale()) as usize).clamp(1_200, 20_000);
    let small = corpus(band_n, 11);
    // Disjoint seed (no leakage), sized at 2× the eval corpus: the band's
    // positive/negative mix tracks the product-collision rate, which grows
    // with corpus size — training on a much smaller corpus leaves the
    // threshold miscalibrated (too few negative band pairs to tune on),
    // so the training band must be at least as collision-rich as eval.
    let train_corpus = corpus((band_n * 2).max(2_400), 7);
    let ds = PairDataset::split_3_1_1("synth-resolve", band_pair_pool(&train_corpus, 1_200), 0xE5);
    let pre = pretrain_for(&ds, LmTier::MiniDistil);
    let mut model = HierGat::new(
        HierGatConfig::pairwise().with_tier(LmTier::MiniDistil).with_epochs(bench_epochs()),
        ds.arity().max(1),
    );
    model.load_pretrained(&pre);
    let report = train_pairwise(&mut model, &ds);
    println!(
        "  band model: trained on seed-7 pairs, pair test F1 {:.3} (threshold {:.2})",
        report.test_f1,
        model.decision_threshold()
    );

    let cosine_small =
        run_resolve(&small, None, &ResolveConfig { accept: COSINE_ACCEPT, ..cfg.clone() });
    let mut session = Session::new(Box::new(HierGatPairwise(model)));
    // Re-tune the decision threshold for *clustering*: the training-time
    // threshold maximises pair F1, but transitive closure amplifies every
    // false accept (one bad edge chains two clusters), so the band wants
    // the precision-biased operating point — the lowest validation
    // threshold with precision >= 0.97.
    let valid_scores = session.score_pairs(&ds.valid);
    session.set_threshold(precision_floor_threshold(&valid_scores, &ds.valid, 0.97));
    println!("  cluster-safe threshold {:.2}", session.threshold());
    let band_cfg =
        ResolveConfig { batch_size: 512, score_chunk: 128, accept: BAND_ACCEPT, band: Some(BAND) };
    let band = run_resolve(&small, Some(&mut session), &band_cfg);
    let b = &band.resolution.stats;
    println!(
        "  band corpus {band_n}: cosine-only F1 {:.3} vs band F1 {:.3} \
         (model scored {} pairs, accepted {}, {} skipped as connected)",
        cosine_small.pr.f1, band.pr.f1, b.model_scored, b.model_accepted, b.band_skipped_connected
    );

    let json = format!(
        "{{\n  \"entities\": {n},\n  \"fit_secs\": {:.3},\n  \
         \"fit_vocab_secs\": {:.3},\n  \"fit_transform_secs\": {:.3},\n  \"resolve_secs\": {:.3},\n  \
         \"entities_per_s\": {:.1},\n  \"candidates_per_s\": {:.1},\n  \
         \"candidates\": {},\n  \"cosine_accepted\": {},\n  \"merges\": {},\n  \
         \"clusters\": {},\n  \"index_bytes\": {},\n  \"batch_peak_bytes\": {},\n  \
         \"peak_rss_proxy_bytes\": {},\n  \"cluster_precision\": {:.4},\n  \
         \"cluster_recall\": {:.4},\n  \"cluster_f1\": {:.4},\n  \"band\": {{\n    \
         \"entities\": {band_n},\n    \"model_pair_test_f1\": {:.4},\n    \
         \"model_scored\": {},\n    \"model_accepted\": {},\n    \
         \"band_skipped_connected\": {},\n    \"scoring_secs\": {:.3},\n    \
         \"cosine_f1\": {:.4},\n    \"band_f1\": {:.4}\n  }}\n}}\n",
        scale.fit_secs,
        scale.fit_stats.vocab_secs,
        scale.fit_stats.transform_secs,
        s.total_secs,
        entities_per_s,
        candidates_per_s,
        s.candidates,
        s.cosine_accepted,
        s.merges,
        s.clusters,
        scale.index_bytes,
        s.batch_peak_bytes,
        peak_rss,
        scale.pr.precision,
        scale.pr.recall,
        scale.pr.f1,
        report.test_f1,
        b.model_scored,
        b.model_accepted,
        b.band_skipped_connected,
        b.scoring_secs,
        cosine_small.pr.f1,
        band.pr.f1,
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_resolve.json");
    std::fs::write(&out, &json).expect("write BENCH_resolve.json");
    println!("  wrote {}", out.display());
}
