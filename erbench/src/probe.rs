//! Measurement wrappers around the pipeline's public seams.
//!
//! Each wrapper implements the same trait as the thing it wraps and adds
//! counters, so the resolve loop and the session run unchanged code
//! paths. They are used only with `--trace 1`; untraced runs drive the
//! plain corpus, source and model.

use crate::trace::Tracer;
use hiergat_blocking::{Candidate, CandidateSource, EntityStore, QueryCandidates};
use hiergat_data::{Entity, EntityPair};
use hiergat_nn::{
    AbsintConfig, AuditReport, GraphReport, LintReport, ParamStore, PlanReport, Tape, Var,
};
use hiergat_runtime::{ErModel, Example, ModelKind};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Shared counters of one traced iteration. Thread times are sums over
/// every thread that ran the wrapped call.
#[derive(Default)]
pub struct Probe {
    pub render_calls: AtomicU64,
    pub render_ns: AtomicU64,
    pub fill_ns: AtomicU64,
    pub record_calls: AtomicU64,
    pub record_ns: AtomicU64,
    pub tape_nodes: AtomicU64,
    pub repeat_geometry: AtomicU64,
    geometries: Mutex<HashSet<u64>>,
    captured: Mutex<Option<Vec<EntityPair>>>,
}

impl Probe {
    /// Counters only; scored pairs are not kept.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Counters plus a copy of every pair the model records, for the `nn`
    /// stage trace to replay.
    pub fn capturing() -> Arc<Self> {
        let p = Self::default();
        *p.captured.lock().expect("probe lock") = Some(Vec::new());
        Arc::new(p)
    }

    pub fn take_captured(&self) -> Vec<EntityPair> {
        self.captured.lock().expect("probe lock").take().unwrap_or_default()
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// An [`EntityStore`] that counts and times renders.
pub struct ProbeStore<'a> {
    pub inner: &'a dyn EntityStore,
    pub probe: Arc<Probe>,
}

impl EntityStore for ProbeStore<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn entity(&self, i: usize) -> Entity {
        let t = Instant::now();
        let e = self.inner.entity(i);
        self.probe.render_ns.fetch_add(ns_since(t), Ordering::Relaxed);
        self.probe.render_calls.fetch_add(1, Ordering::Relaxed);
        e
    }
}

/// Gold-standard bookkeeping for blocking quality: distinct normalised
/// candidate pairs, how many of them are true matches, and the precision
/// of the pairs the cosine stage accepts outright.
pub struct BlockingQuality<'g> {
    gold: &'g [u32],
    accept: f32,
    seen: HashSet<u64>,
    matched: u64,
    accepted: HashSet<u64>,
    accepted_matched: u64,
}

impl<'g> BlockingQuality<'g> {
    pub fn new(gold: &'g [u32], accept: f32) -> Self {
        Self {
            gold,
            accept,
            seen: HashSet::new(),
            matched: 0,
            accepted: HashSet::new(),
            accepted_matched: 0,
        }
    }

    pub fn observe(&mut self, query: usize, c: &Candidate) {
        if c.id == query {
            return;
        }
        let (a, b) = (query.min(c.id), query.max(c.id));
        let key = (a as u64) << 32 | b as u64;
        let is_match = self.gold[a] == self.gold[b];
        if self.seen.insert(key) && is_match {
            self.matched += 1;
        }
        if c.score >= self.accept && self.accepted.insert(key) && is_match {
            self.accepted_matched += 1;
        }
    }

    /// Share of all gold match pairs that appear among the candidates.
    pub fn pair_completeness(&self) -> f64 {
        ratio(self.matched, gold_pairs(self.gold))
    }

    /// Share of distinct candidate pairs that are gold matches.
    pub fn pair_quality(&self) -> f64 {
        ratio(self.matched, self.seen.len() as u64)
    }

    /// Share of distinct cosine-accepted pairs that are gold matches.
    pub fn accept_precision(&self) -> f64 {
        ratio(self.accepted_matched, self.accepted.len() as u64)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Number of unordered record pairs that share a gold cluster.
pub fn gold_pairs(gold: &[u32]) -> u64 {
    let mut sizes = std::collections::HashMap::<u32, u64>::new();
    for &g in gold {
        *sizes.entry(g).or_default() += 1;
    }
    sizes.values().map(|&k| k * k.saturating_sub(1) / 2).sum()
}

/// Callback-side timings of one traced resolve.
#[derive(Default, Debug, Clone, Copy)]
pub struct SourceTimes {
    /// Wall time of the whole `for_each_batch` stream.
    pub stream_s: f64,
    /// Wall time spent inside the caller's callback (cascade, band
    /// scoring, union-find).
    pub callback_s: f64,
}

/// A [`CandidateSource`] that times `fill_candidates` (summed over pool
/// threads) and the caller's batch callback separately, and feeds the
/// stream into [`BlockingQuality`]. Its `for_each_batch` is the trait's
/// default loop with timers added; the wrapped source must not override
/// `for_each_batch` (today's `TfIdfCandidates` does not) or the traced
/// stream would differ from the measured one. The traced run checks that
/// its labels equal the untraced run's.
pub struct ProbeSource<'a, 'g, S> {
    pub inner: &'a S,
    pub probe: Arc<Probe>,
    pub quality: Mutex<BlockingQuality<'g>>,
    pub times: Mutex<SourceTimes>,
    pub tracer: &'a Tracer,
}

impl<S: CandidateSource> CandidateSource for ProbeSource<'_, '_, S> {
    fn n_queries(&self) -> usize {
        self.inner.n_queries()
    }

    fn fill_candidates(&self, query: usize, out: &mut Vec<Candidate>) {
        let t = Instant::now();
        self.inner.fill_candidates(query, out);
        self.probe.fill_ns.fetch_add(ns_since(t), Ordering::Relaxed);
    }

    fn for_each_batch<F: FnMut(&[QueryCandidates])>(&self, batch_size: usize, mut f: F) {
        assert!(batch_size > 0, "batch size must be positive");
        let stream = Instant::now();
        let mut callback_s = 0.0;
        let mut quality_s = 0.0;
        let n = self.n_queries();
        let mut start = 0;
        while start < n {
            let end = (start + batch_size).min(n);
            let ids: Vec<usize> = (start..end).collect();
            let batch: Vec<QueryCandidates> = parallel::par_map(&ids, |&q| {
                let mut candidates = Vec::new();
                self.fill_candidates(q, &mut candidates);
                QueryCandidates { query: q, candidates }
            });
            let tq = Instant::now();
            {
                let mut quality = self.quality.lock().expect("quality lock");
                for qc in &batch {
                    for c in &qc.candidates {
                        quality.observe(qc.query, c);
                    }
                }
            }
            quality_s += tq.elapsed().as_secs_f64();
            let span = self.tracer.span("resolve.batch");
            let tc = Instant::now();
            f(&batch);
            callback_s += tc.elapsed().as_secs_f64();
            drop(span);
            start = end;
        }
        let mut times = self.times.lock().expect("times lock");
        // Gold bookkeeping is the benchmark's own work: keep it out of
        // both the retrieval and the callback figures.
        times.stream_s += stream.elapsed().as_secs_f64() - quality_s;
        times.callback_s += callback_s;
    }
}

/// Shape fingerprint of a recorded tape: node count plus every node's
/// value shape. Two pairs with equal fingerprints record the same graph
/// geometry (the model's op sequence is a function of the shapes).
pub fn geometry_key(t: &Tape) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.len().hash(&mut h);
    for i in 0..t.len() {
        if let Some(v) = t.try_node_value(i) {
            v.shape().hash(&mut h);
        }
    }
    h.finish()
}

/// An [`ErModel`] that times `record_scores` and counts recorded nodes
/// and repeated geometries; everything else delegates.
pub struct ProbeModel {
    pub inner: Box<dyn ErModel>,
    pub probe: Arc<Probe>,
}

impl ErModel for ProbeModel {
    fn kind(&self) -> ModelKind {
        self.inner.kind()
    }
    fn params(&self) -> &ParamStore {
        self.inner.params()
    }
    fn record_scores(&self, t: &mut Tape, ex: Example<'_>) -> Var {
        let start = Instant::now();
        let v = self.inner.record_scores(t, ex);
        self.probe.record_ns.fetch_add(ns_since(start), Ordering::Relaxed);
        let p = &self.probe;
        p.record_calls.fetch_add(1, Ordering::Relaxed);
        p.tape_nodes.fetch_add(t.len() as u64, Ordering::Relaxed);
        if !p.geometries.lock().expect("probe lock").insert(geometry_key(t)) {
            p.repeat_geometry.fetch_add(1, Ordering::Relaxed);
        }
        if let (Example::Pair(pair), Some(out)) =
            (ex, p.captured.lock().expect("probe lock").as_mut())
        {
            out.push(pair.clone());
        }
        v
    }
    fn predict(&self, ex: Example<'_>) -> Vec<f32> {
        self.inner.predict(ex)
    }
    fn analyze(&self, ex: Example<'_>) -> GraphReport {
        self.inner.analyze(ex)
    }
    fn lint_training(&self, ex: Example<'_>) -> LintReport {
        self.inner.lint_training(ex)
    }
    fn plan_training(&self, ex: Example<'_>) -> PlanReport {
        self.inner.plan_training(ex)
    }
    fn decision_threshold(&self) -> f32 {
        self.inner.decision_threshold()
    }
    fn audit(&self, ex: Example<'_>, cfg: &AbsintConfig) -> AuditReport {
        self.inner.audit(ex, cfg)
    }
}
