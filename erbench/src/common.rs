//! Inputs, operating points and small helpers shared by the workloads.

use hiergat_blocking::{CandidateSource, TfIdfCandidates, TfIdfSourceConfig};
use hiergat_data::{CorpusConfig, EntityPair, SynthCorpus};
use hiergat_runtime::{HierGatPairwise, Session};
use std::path::Path;

/// Cosine-only operating point of `resolve_corpus` (the scale point of
/// `benches/resolve.rs`).
pub const CORPUS_ACCEPT: f32 = 0.7;
/// Cosine accept and model band of `resolve_band` and of the pair pool
/// `score_repeat` draws from (the band point of `benches/resolve.rs`).
pub const BAND_ACCEPT: f32 = 0.55;
pub const BAND: (f32, f32) = (0.4, BAND_ACCEPT);
/// Corpus seeds of the band model's training data and of its threshold
/// calibration band. Workload corpora are derived from `--seed` through
/// [`corpus_seed`], which never yields either.
pub const TRAIN_SEED: u64 = 7;
pub const CALIBRATION_SEED: u64 = 8;

/// The blocking configuration of `benches/resolve.rs`.
pub fn source_config() -> TfIdfSourceConfig {
    TfIdfSourceConfig {
        top_n: 8,
        min_score: 0.15,
        n_shards: 8,
        max_df: Some(0.01),
        fit_chunk: 8192,
    }
}

/// Maps a run seed to a corpus seed with its top bit set, so a workload
/// corpus never shares records with the band model's training or
/// calibration corpus.
pub fn corpus_seed(seed: u64) -> u64 {
    splitmix64(seed ^ 0x00E7_BE4C_4B00_0000) | 1 << 63
}

pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn corpus(n: usize, seed: u64) -> SynthCorpus {
    SynthCorpus::new(CorpusConfig { n_records: n, copies: 3, family_size: 4, seed })
}

/// Distinct normalised candidate pairs of a fitted source whose cosine
/// lies in [`BAND`], in ascending `(a, b)` order.
pub fn band_pairs(src: &TfIdfCandidates) -> Vec<(u32, u32)> {
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
}

pub fn labelled_pair(corpus: &SynthCorpus, (a, b): (u32, u32)) -> EntityPair {
    let (a, b) = (a as usize, b as usize);
    EntityPair::new(corpus.entity(a), corpus.entity(b), corpus.gold(a) == corpus.gold(b))
}

/// Loads the fixed band model checkpoint.
pub fn load_model(model_dir: &Path) -> Result<HierGatPairwise, String> {
    hiergat::load_model(model_dir)
        .map(HierGatPairwise)
        .map_err(|e| format!("cannot load band model from {}: {e}", model_dir.display()))
}

/// Loads the fixed band model into a fresh session.
pub fn load_session(model_dir: &Path) -> Result<Session, String> {
    Ok(Session::new(Box::new(load_model(model_dir)?)))
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a digest of a label vector.
pub fn label_digest(labels: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for l in labels {
        for b in l.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Records whose label breaks the canonical form: every cluster is
/// labelled by its smallest member, so the first record carrying a label
/// must be that label, and no label may point past its record.
pub fn non_canonical_labels(labels: &[u32]) -> u64 {
    let mut seen = vec![false; labels.len()];
    let mut bad = 0;
    for (i, &l) in labels.iter().enumerate() {
        let l = l as usize;
        if l > i || l >= labels.len() {
            bad += 1;
        } else if !seen[l] {
            seen[l] = true;
            if l != i {
                bad += 1;
            }
        }
    }
    bad
}

/// Size of the largest cluster.
pub fn largest_cluster(labels: &[u32]) -> u64 {
    let mut sizes = vec![0u64; labels.len()];
    for &l in labels {
        if let Some(s) = sizes.get_mut(l as usize) {
            *s += 1;
        }
    }
    sizes.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_labels_are_min_members() {
        assert_eq!(non_canonical_labels(&[0, 0, 2, 0, 2]), 0);
        // Record 1 is labelled by a larger member.
        assert_eq!(non_canonical_labels(&[0, 3, 2, 3]), 1);
        assert_eq!(largest_cluster(&[0, 0, 2, 0, 2]), 3);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn corpus_seed_never_hits_the_model_seeds() {
        for s in 0..10_000 {
            assert!(![TRAIN_SEED, CALIBRATION_SEED].contains(&corpus_seed(s)));
        }
    }
}
