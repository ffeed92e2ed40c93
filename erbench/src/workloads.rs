//! The three workloads. Each returns an [`Outcome`]: counts of attempted
//! and failed operations (records and pairs), the named output checks,
//! and the metrics of its mode (end-to-end untraced, per-layer traced).

use crate::common::*;
use crate::nntrace::{NnStats, NnTrace};
use crate::probe::{BlockingQuality, Probe, ProbeModel, ProbeSource, ProbeStore, SourceTimes};
use crate::trace::Tracer;
use hiergat_blocking::{EntityStore, TfIdfCandidates, UnionFind};
use hiergat_data::{EntityPair, SynthCorpus};
use hiergat_metrics::pairwise_cluster_metrics;
use hiergat_runtime::{resolve, Example, Resolution, ResolveConfig, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records in the `resolve_corpus` corpus.
pub const CORPUS_RECORDS: usize = 200_000;
/// Records in the `resolve_band` corpus.
pub const BAND_RECORDS: usize = 12_000;
/// Records of the corpus whose cosine band `score_repeat` draws its pair
/// pool from (for a given seed, the `resolve_band` corpus).
pub const POOL_RECORDS: usize = BAND_RECORDS;
const POOL_PAIRS: usize = 64;
const CALL_PAIRS: usize = 32;
/// Pairs checked against eager `predict` per `score_repeat` run.
const EAGER_SAMPLE: usize = 16;
/// Calls of the traced `score_repeat` burst (after its warm-up).
const TRACE_CALLS: usize = 64;
/// Set-up repetitions of the resolve workloads (corpus handle and gold
/// labels, plus model load and session build for `resolve_band`), and
/// the pause before each. A set-up takes milliseconds, so the pauses
/// spread the samples over seconds and a short burst of load on the
/// machine moves few of them.
const RESOLVE_SETUPS: usize = 41;
const SETUP_GAP: Duration = Duration::from_millis(100);
/// Set-up repetitions of `score_repeat` (each loads and warms a session).
const REPEAT_SETUPS: usize = 5;
/// Fresh band sessions kept from set-up for the timed iterations.
const SPARE_SESSIONS: usize = 4;
/// Band F1 may trail the cosine-only F1 on the same source by this much.
const BAND_F1_SLACK: f64 = 0.005;

pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub model_dir: &'a Path,
    pub tracer: &'a Tracer,
}

impl Ctx<'_> {
    fn records(&self, n: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(300)
    }
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub notes: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn check(&mut self, name: impl Into<String>, ok: bool, failures: u64) {
        self.checks.push((name.into(), ok));
        if !ok {
            self.failed += failures.max(1);
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

struct ResolveSpec {
    records: usize,
    cfg: ResolveConfig,
    model: bool,
}

fn resolve_spec(workload: &str, ctx: &Ctx<'_>) -> ResolveSpec {
    if workload == "resolve_corpus" {
        ResolveSpec {
            records: ctx.records(CORPUS_RECORDS),
            cfg: ResolveConfig {
                batch_size: 2048,
                accept: CORPUS_ACCEPT,
                ..ResolveConfig::default()
            },
            model: false,
        }
    } else {
        ResolveSpec {
            records: ctx.records(BAND_RECORDS),
            cfg: ResolveConfig {
                batch_size: 512,
                score_chunk: 128,
                accept: BAND_ACCEPT,
                band: Some(BAND),
            },
            model: true,
        }
    }
}

/// One untraced fit + resolve.
struct Iteration {
    src: TfIdfCandidates,
    res: Resolution,
    fit_s: f64,
    resolve_s: f64,
}

impl Iteration {
    fn entities_per_s(&self) -> f64 {
        self.res.labels.len() as f64 / (self.fit_s + self.resolve_s)
    }

    /// Model-scored pairs per second of scoring when a model runs, else
    /// candidate pairs the cosine cascade judged per second of resolve.
    fn pairs_per_s(&self) -> f64 {
        let s = &self.res.stats;
        if s.model_scored > 0 {
            s.model_scored as f64 / s.scoring_secs
        } else {
            s.candidates as f64 / self.resolve_s
        }
    }
}

fn run_iteration(
    corpus: &SynthCorpus,
    session: Option<&mut Session>,
    cfg: &ResolveConfig,
) -> Iteration {
    let t0 = Instant::now();
    let src = TfIdfCandidates::fit_dedup(corpus, &source_config());
    let fit_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let res = resolve(&src, corpus, session, cfg);
    let resolve_s = t1.elapsed().as_secs_f64();
    Iteration { src, res, fit_s, resolve_s }
}

/// Set-up of a resolve workload: the corpus handle, its gold labels and
/// (band) the model load plus session build.
fn resolve_setup(
    ctx: &Ctx<'_>,
    spec: &ResolveSpec,
) -> Result<(f64, SynthCorpus, Vec<u32>, Vec<Session>), String> {
    let mut times = Vec::new();
    let mut sessions = Vec::new();
    let mut kept = None;
    for _ in 0..RESOLVE_SETUPS {
        std::thread::sleep(SETUP_GAP);
        let t = Instant::now();
        let c = corpus(spec.records, corpus_seed(ctx.seed));
        let gold = c.gold_labels();
        let session = if spec.model { Some(load_session(ctx.model_dir)?) } else { None };
        times.push(t.elapsed().as_secs_f64());
        // A few fresh sessions cover the timed iterations; more load later.
        sessions.extend(session.filter(|_| sessions.len() < SPARE_SESSIONS));
        kept.get_or_insert((c, gold));
    }
    let (c, gold) = kept.expect("at least one set-up");
    Ok((median(&times), c, gold, sessions))
}

fn next_session(
    ctx: &Ctx<'_>,
    spec: &ResolveSpec,
    spare: &mut Vec<Session>,
) -> Result<Option<Session>, String> {
    if !spec.model {
        return Ok(None);
    }
    match spare.pop() {
        Some(s) => Ok(Some(s)),
        None => load_session(ctx.model_dir).map(Some),
    }
}

fn check_labels(out: &mut Outcome, labels: &[u32], first_digest: &mut Option<u64>) {
    let bad = non_canonical_labels(labels);
    out.check("labels are canonical min-members", bad == 0, bad);
    let d = label_digest(labels);
    match first_digest {
        None => *first_digest = Some(d),
        Some(f) => out.check("labels identical across iterations", *f == d, labels.len() as u64),
    }
}

fn cluster_f1(labels: &[u32], gold: &[u32]) -> f64 {
    pairwise_cluster_metrics(labels, gold).pr_f1().f1
}

/// `resolve_band`'s quality gate: the band may not lose more than
/// [`BAND_F1_SLACK`] F1 against cosine-only resolve on the same source.
fn band_check(
    out: &mut Outcome,
    src: &TfIdfCandidates,
    c: &SynthCorpus,
    gold: &[u32],
    band_f1: f64,
) {
    let cfg = ResolveConfig { accept: BAND_ACCEPT, band: None, ..ResolveConfig::default() };
    let cos = resolve(src, c, None, &cfg);
    let cos_f1 = cluster_f1(&cos.labels, gold);
    out.notes.push(format!("band F1 {band_f1:.4} vs cosine-only F1 {cos_f1:.4}"));
    out.check(
        format!("band F1 {band_f1:.4} >= cosine-only F1 {cos_f1:.4} - {BAND_F1_SLACK}"),
        band_f1 >= cos_f1 - BAND_F1_SLACK,
        1,
    );
}

pub fn resolve_workload(workload: &str, ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let spec = resolve_spec(workload, ctx);
    let (setup_s, c, gold, mut spare) = resolve_setup(ctx, &spec)?;
    if ctx.tracer.enabled() {
        return resolve_traced(ctx, &spec, &c, &gold, &mut spare);
    }
    let mut out = Outcome::default();
    let (mut ent, mut pairs, mut call_ms) = (Vec::new(), Vec::new(), Vec::new());
    // The first iteration's labels (and, for the band check, its source);
    // resolve_corpus drops each index before fitting the next.
    let mut first: Option<(Vec<u32>, Option<TfIdfCandidates>)> = None;
    let mut digest = None;
    let start = Instant::now();
    while first.is_none() || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut session = next_session(ctx, &spec, &mut spare)?;
        let it = run_iteration(&c, session.as_mut(), &spec.cfg);
        drop(session);
        ent.push(it.entities_per_s());
        pairs.push(it.pairs_per_s());
        call_ms.push((it.fit_s + it.resolve_s) * 1e3);
        check_labels(&mut out, &it.res.labels, &mut digest);
        out.attempted += it.res.labels.len() as u64 + it.res.stats.model_scored;
        out.notes.push(format!(
            "iteration: fit {:.3}s resolve {:.3}s candidates {} model_scored {} scoring {:.3}s",
            it.fit_s,
            it.resolve_s,
            it.res.stats.candidates,
            it.res.stats.model_scored,
            it.res.stats.scoring_secs
        ));
        if first.is_none() {
            first = Some((it.res.labels, spec.model.then_some(it.src)));
        }
    }
    let (labels, src) = first.expect("one iteration ran");
    let f1 = cluster_f1(&labels, &gold);
    out.notes.push(format!("label digest {:016x}", digest.unwrap_or(0)));
    out.notes.push(format!("{} iterations: the call quantiles have that many samples", ent.len()));
    if let Some(src) = src {
        band_check(&mut out, &src, &c, &gold, f1);
    }
    out.metric("entities_per_s", median(&ent), "1/s");
    out.metric("pairs_per_s", median(&pairs), "1/s");
    out.metric("cluster_f1", f1, "ratio");
    // A resolve workload's call is one fit + resolve of the corpus.
    out.metric("score_call_p50_ms", quantile(&call_ms, 0.5), "ms");
    out.metric("score_call_p99_ms", quantile(&call_ms, 0.99), "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("setup_s", setup_s, "s");
    Ok(out)
}

fn probe_session(ctx: &Ctx<'_>, probe: &Arc<Probe>) -> Result<Session, String> {
    let inner = Box::new(load_model(ctx.model_dir)?);
    Ok(Session::new(Box::new(ProbeModel { inner, probe: Arc::clone(probe) })))
}

fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (untraced - traced) / untraced * 100.0
    } else {
        0.0
    }
}

fn nn_metrics(out: &mut Outcome, st: &NnStats, valid: bool) {
    let per_pair = |x: u64| if st.pairs == 0 { 0.0 } else { x as f64 / st.pairs as f64 };
    // Without a model (resolve_corpus) nothing is traced or compared.
    if st.pairs > 0 {
        out.check("nn trace scores bitwise equal Session::score_pairs", valid, 1);
    }
    // Invalid per-layer nn numbers are reported as NaN-free sentinels: -1.
    let v = |x: f64| if valid { x } else { -1.0 };
    out.metric("nn.trace_valid", f64::from(u8::from(valid)), "bool");
    out.metric("nn.record_thread_s", v(st.record_s), "s");
    out.metric("nn.optimize_thread_s", v(st.optimize_s), "s");
    out.metric("nn.plan_thread_s", v(st.plan_s), "s");
    out.metric("nn.replay_thread_s", v(st.replay_s), "s");
    out.metric("nn.opt_cache_hit_rate", v(st.opt_hit_rate()), "ratio");
    out.metric("nn.plan_cache_hit_rate", v(st.plan_hit_rate()), "ratio");
    out.metric("nn.opt_cache_misses", v(st.opt_misses as f64), "count");
    out.metric("nn.plan_cache_misses", v(st.plan_misses as f64), "count");
    out.metric("tensor.allocs_per_pair", v(per_pair(st.allocs)), "count");
    out.metric("tensor.alloc_bytes_per_pair", v(per_pair(st.alloc_bytes)), "B");
    out.metric("tensor.flops_per_pair", v(per_pair(st.flops)), "flop");
    let gflops = if st.replay_s > 0.0 { st.flops as f64 / st.replay_s * 1e-9 } else { 0.0 };
    out.metric("tensor.replay_gflops", v(gflops), "GFLOP/s");
}

fn core_metrics(out: &mut Outcome, p: &Probe, base: [u64; 4]) {
    let calls = Probe::get(&p.record_calls) - base[0];
    let per = |x: u64| if calls == 0 { 0.0 } else { x as f64 / calls as f64 };
    out.metric("core.record_calls", calls as f64, "count");
    out.metric("core.record_thread_s", (Probe::get(&p.record_ns) - base[1]) as f64 * 1e-9, "s");
    out.metric("core.tape_nodes_per_pair", per(Probe::get(&p.tape_nodes) - base[2]), "count");
    out.metric(
        "core.repeat_geometry_share",
        per(Probe::get(&p.repeat_geometry) - base[3]),
        "ratio",
    );
}

fn snapshot(p: &Probe) -> [u64; 4] {
    let g = |c: &AtomicU64| Probe::get(c);
    [g(&p.record_calls), g(&p.record_ns), g(&p.tape_nodes), g(&p.repeat_geometry)]
}

/// Traced resolve: an iteration through every probe between two untraced
/// ones (the overhead baseline), then the `nn` stage trace over the pairs
/// the session scored.
fn resolve_traced(
    ctx: &Ctx<'_>,
    spec: &ResolveSpec,
    c: &SynthCorpus,
    gold: &[u32],
    spare: &mut Vec<Session>,
) -> Result<Outcome, String> {
    let tr = ctx.tracer;
    let mut out = Outcome::default();
    let width = parallel::current_split().max(1);
    // Untraced iterations before and after the traced one: their mean
    // rates are the overhead baseline, free of first-iteration warm-up.
    let mut untraced = || -> Result<Iteration, String> {
        let _s = tr.span("untraced_iteration");
        let mut session = next_session(ctx, spec, spare)?;
        Ok(run_iteration(c, session.as_mut(), &spec.cfg))
    };
    let base = untraced()?;

    let probe = if spec.model { Probe::capturing() } else { Probe::new() };
    let store = ProbeStore { inner: c, probe: Arc::clone(&probe) };
    let mut session = if spec.model { Some(probe_session(ctx, &probe)?) } else { None };
    let iter_span = tr.span("traced_iteration");
    let t0 = Instant::now();
    let src = {
        let _s = tr.span("fit");
        TfIdfCandidates::fit_dedup(&store, &source_config())
    };
    let fit_s = t0.elapsed().as_secs_f64();
    let (fit_renders, fit_render_ns) =
        (Probe::get(&probe.render_calls), Probe::get(&probe.render_ns));
    let psrc = ProbeSource {
        inner: &src,
        probe: Arc::clone(&probe),
        quality: std::sync::Mutex::new(BlockingQuality::new(gold, spec.cfg.accept)),
        times: std::sync::Mutex::new(SourceTimes::default()),
        tracer: tr,
    };
    let t1 = Instant::now();
    let res = {
        let _s = tr.span("resolve");
        resolve(&psrc, &store as &dyn EntityStore, session.as_mut(), &spec.cfg)
    };
    let resolve_s = t1.elapsed().as_secs_f64();
    drop(iter_span);
    let s = res.stats;
    let n = res.labels.len() as u64;
    out.attempted += 2 * n + s.model_scored;
    let traced_ent = n as f64 / (fit_s + resolve_s);
    let traced_pairs = if s.model_scored > 0 {
        s.model_scored as f64 / s.scoring_secs
    } else {
        s.candidates as f64 / resolve_s
    };

    let after = untraced()?;
    let base_ent = (base.entities_per_s() + after.entities_per_s()) / 2.0;
    let base_pairs = (base.pairs_per_s() + after.pairs_per_s()) / 2.0;
    drop(after);
    check_labels(&mut out, &base.res.labels, &mut None);
    let traced_same = label_digest(&res.labels) == label_digest(&base.res.labels);
    out.check("traced labels equal untraced labels", traced_same, n);
    let renders = Probe::get(&probe.render_calls);
    out.check(
        format!("render calls {renders} = 2n + 2*model_scored"),
        renders == 2 * n + 2 * s.model_scored,
        1,
    );

    // nn stage trace over the scored pairs, in a stable order and in
    // `score_chunk`-sized calls.
    let mut pairs = probe.take_captured();
    pairs.sort_by(|a, b| (&a.left.id, &a.right.id).cmp(&(&b.left.id, &b.right.id)));
    let calls: Vec<&[EntityPair]> = pairs.chunks(spec.cfg.score_chunk).collect();
    let (nn, valid) = if spec.model {
        let model = load_model(ctx.model_dir)?;
        let (scores, st) = {
            let _s = tr.span("nn_trace");
            NnTrace::new().run(&model, &calls)
        };
        // Every call, the short last one too, against a fresh session.
        let _s = tr.span("nn_trace_check");
        let mut check = next_session(ctx, spec, spare)?.expect("band workloads have a model");
        let bad: u64 = calls
            .iter()
            .zip(&scores)
            .map(|(call, got)| bitwise_mismatches(&check.score_pairs(call), got))
            .sum();
        (st, bad == 0 && scores.len() == calls.len())
    } else {
        (NnStats::default(), true)
    };

    let times = *psrc.times.lock().expect("times lock");
    let q = psrc.quality.lock().expect("quality lock");
    let ns = |x: u64| x as f64 * 1e-9;
    out.metric("run.traced_wall_s", fit_s + resolve_s, "s");
    out.metric("trace.entities_per_s_overhead_pct", overhead_pct(base_ent, traced_ent), "%");
    out.metric("trace.pairs_per_s_overhead_pct", overhead_pct(base_pairs, traced_pairs), "%");
    out.metric("trace.spans", tr.spans().len() as f64, "count");
    out.metric("data.render_calls_per_record", renders as f64 / n as f64, "count");
    out.metric("data.render_thread_s", ns(Probe::get(&probe.render_ns)), "s");
    out.metric("blocking.fit_s", fit_s, "s");
    out.metric("blocking.fit_share", fit_s / (fit_s + resolve_s), "ratio");
    out.metric("blocking.fit_self_s", fit_s - ns(fit_render_ns) / width as f64, "s");
    out.metric("blocking.fit_render_calls", fit_renders as f64, "count");
    out.metric("text.index_bytes", src.memory_bytes() as f64, "B");
    out.metric("text.postings", src.index().n_postings() as f64, "count");
    out.metric("text.vocab_terms", src.tfidf().vocab_size() as f64, "count");
    out.metric("text.pruned_terms", src.index().pruned_terms() as f64, "count");
    out.metric("blocking.retrieve_s", times.stream_s - times.callback_s, "s");
    out.metric("blocking.fill_thread_s", ns(Probe::get(&probe.fill_ns)), "s");
    out.metric("blocking.candidates", s.candidates as f64, "count");
    out.metric("blocking.pair_completeness", q.pair_completeness(), "ratio");
    out.metric("blocking.pair_quality", q.pair_quality(), "ratio");
    out.metric("runtime.cascade_s", times.callback_s - s.scoring_secs, "s");
    out.metric("runtime.cosine_accepted", s.cosine_accepted as f64, "count");
    out.metric("runtime.cosine_accept_precision", q.accept_precision(), "ratio");
    out.metric("runtime.merges", s.merges as f64, "count");
    out.metric("runtime.clusters", s.clusters as f64, "count");
    out.metric("runtime.largest_cluster", largest_cluster(&res.labels) as f64, "count");
    out.metric("runtime.model_scored", s.model_scored as f64, "count");
    out.metric("runtime.model_accepted", s.model_accepted as f64, "count");
    out.metric("runtime.band_skipped_connected", s.band_skipped_connected as f64, "count");
    out.metric("runtime.score_s", s.scoring_secs, "s");
    let arena = session.as_ref().map_or(0, Session::arena_capacity_bytes).max(nn.arena_bytes);
    out.metric("runtime.arena_bytes", arena as f64, "B");
    core_metrics(&mut out, &probe, [0; 4]);
    nn_metrics(&mut out, &nn, valid);
    out.notes.push(format!("label digest {:016x}", label_digest(&res.labels)));
    Ok(out)
}

/// `score_repeat` inputs: the labelled pool, the fixed call batches, and
/// the pool corpus with its fitted source (for the F1 figure).
struct RepeatInputs {
    corpus: SynthCorpus,
    src: TfIdfCandidates,
    pool: Vec<EntityPair>,
    pool_edges: Vec<(u32, u32)>,
    batches: Vec<Vec<EntityPair>>,
}

fn repeat_inputs(ctx: &Ctx<'_>) -> Result<RepeatInputs, String> {
    let c = corpus(ctx.records(POOL_RECORDS), corpus_seed(ctx.seed));
    let src = TfIdfCandidates::fit_dedup(&c, &source_config());
    let mut edges = band_pairs(&src);
    if edges.len() < POOL_PAIRS {
        return Err(format!("pool corpus has {} band pairs, need {POOL_PAIRS}", edges.len()));
    }
    // Stratified by pair text length: one pair from each of POOL_PAIRS
    // equal slices of the length-sorted band, so every seed's pool spans
    // the band's length (and so graph size) distribution. `pool[i]` is
    // the pair of rank i.
    let mut rng = StdRng::seed_from_u64(splitmix64(ctx.seed));
    let mut by_len: Vec<(usize, (u32, u32))> = edges
        .iter()
        .map(|&(a, b)| {
            let len =
                c.entity(a as usize).full_text().len() + c.entity(b as usize).full_text().len();
            (len, (a, b))
        })
        .collect();
    by_len.sort_unstable();
    let slice = by_len.len() / POOL_PAIRS;
    edges = (0..POOL_PAIRS).map(|i| by_len[i * slice + rng.gen_range(0..slice)].1).collect();
    let pool: Vec<EntityPair> = edges.iter().map(|&e| labelled_pair(&c, e)).collect();
    // Four batches with the same length mix, so no batch sets the tail
    // alone: ranks split by parity, then by rank mod 4 in {0, 3} vs
    // {1, 2}. Each batch is ordered so the two halves a two-wide pool
    // splits it into take alternate ranks.
    let batch = |keep: fn(usize) -> bool| -> Vec<EntityPair> {
        let ranks: Vec<usize> = (0..POOL_PAIRS).filter(|&i| keep(i)).collect();
        let (even, odd): (Vec<_>, Vec<_>) = ranks.iter().enumerate().partition(|(j, _)| j % 2 == 0);
        even.into_iter().chain(odd).map(|(_, &i)| pool[i].clone()).collect()
    };
    let batches = vec![
        batch(|i| i % 2 == 0),
        batch(|i| i % 2 == 1),
        batch(|i| matches!(i % 4, 0 | 3)),
        batch(|i| matches!(i % 4, 1 | 2)),
    ];
    Ok(RepeatInputs { corpus: c, src, pool, pool_edges: edges, batches })
}

/// Cluster F1 of the pool corpus: cosine-only resolve at the band
/// accept, plus every pool pair the session accepts.
fn repeat_f1(inp: &RepeatInputs, pool_scores: &[f32], threshold: f32) -> f64 {
    let cfg = ResolveConfig { accept: BAND_ACCEPT, band: None, ..ResolveConfig::default() };
    let cos = resolve(&inp.src, &inp.corpus, None, &cfg);
    let mut uf = UnionFind::new(cos.labels.len());
    for (i, &l) in cos.labels.iter().enumerate() {
        uf.union(i, l as usize);
    }
    for (&(a, b), &s) in inp.pool_edges.iter().zip(pool_scores) {
        if s >= threshold {
            uf.union(a as usize, b as usize);
        }
    }
    cluster_f1(&uf.labels(), &inp.corpus.gold_labels())
}

fn bitwise_mismatches(a: &[f32], b: &[f32]) -> u64 {
    a.iter().zip(b).filter(|(x, y)| x.to_bits() != y.to_bits()).count() as u64
        + a.len().abs_diff(b.len()) as u64
}

pub fn score_repeat(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let inp = repeat_inputs(ctx)?;
    let mut out = Outcome::default();
    // Set-up: model load + session build + one warm-up pass over every
    // call batch, whose scores become the reference for every round.
    let mut times = Vec::new();
    let mut warm: Option<(Session, Vec<Vec<f32>>)> = None;
    for _ in 0..REPEAT_SETUPS {
        let t = Instant::now();
        let mut s = load_session(ctx.model_dir)?;
        let refs: Vec<Vec<f32>> = inp.batches.iter().map(|b| s.score_pairs(b)).collect();
        times.push(t.elapsed().as_secs_f64());
        // The first session runs the loop; later ones are only compared.
        match &warm {
            None => warm = Some((s, refs)),
            Some((_, first)) => {
                let bad: u64 = first.iter().zip(&refs).map(|(a, b)| bitwise_mismatches(a, b)).sum();
                out.check("warm-up scores identical across sessions", bad == 0, bad);
            }
        }
    }
    let setup_s = median(&times);
    let (mut session, refs) = warm.expect("at least one set-up");
    // Eager reference on a sample of the pool.
    let pool_scores = session.score_pairs(&inp.pool);
    let eager_bad: u64 = inp.pool[..EAGER_SAMPLE]
        .iter()
        .zip(&pool_scores)
        .filter(|(p, s)| session.model().predict(Example::Pair(p))[0].to_bits() != s.to_bits())
        .count() as u64;
    out.attempted += EAGER_SAMPLE as u64;
    out.check("session scores bitwise equal eager predict", eager_bad == 0, eager_bad);

    if ctx.tracer.enabled() {
        return repeat_traced(ctx, &inp, &refs, session, out);
    }
    let (lat, bad) = repeat_loop(&mut session, &inp.batches, &refs, |k, start| {
        k < inp.batches.len() || start.elapsed().as_secs_f64() < ctx.seconds
    });
    out.attempted += (lat.len() * CALL_PAIRS) as u64;
    out.check("repeated rounds bitwise identical", bad == 0, bad);
    let f1 = repeat_f1(&inp, &pool_scores, session.threshold());
    // Median call: robust to a burst of machine noise.
    let pairs_per_s = CALL_PAIRS as f64 / (quantile(&lat, 0.5) * 1e-3);
    out.notes.push(format!(
        "{} calls of {CALL_PAIRS} pairs: the call quantiles have that many samples",
        lat.len()
    ));
    out.metric("entities_per_s", 2.0 * pairs_per_s, "1/s");
    out.metric("pairs_per_s", pairs_per_s, "1/s");
    out.metric("cluster_f1", f1, "ratio");
    out.metric("score_call_p50_ms", quantile(&lat, 0.5), "ms");
    out.metric("score_call_p99_ms", quantile(&lat, 0.99), "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("setup_s", setup_s, "s");
    Ok(out)
}

/// Closed loop of `score_pairs` calls over the fixed batches while
/// `go(calls_so_far, start)` holds; returns per-call ms and the number of
/// scores that differ bitwise from the warm-up reference.
fn repeat_loop(
    session: &mut Session,
    batches: &[Vec<EntityPair>],
    refs: &[Vec<f32>],
    go: impl Fn(usize, Instant) -> bool,
) -> (Vec<f64>, u64) {
    let mut lat = Vec::new();
    let mut bad = 0;
    let start = Instant::now();
    while go(lat.len(), start) {
        let k = lat.len() % batches.len();
        let t = Instant::now();
        let scores = session.score_pairs(&batches[k]);
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        bad += bitwise_mismatches(&scores, &refs[k]);
    }
    (lat, bad)
}

fn repeat_traced(
    ctx: &Ctx<'_>,
    inp: &RepeatInputs,
    refs: &[Vec<f32>],
    mut session: Session,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let tr = ctx.tracer;
    let calls = |k: usize, _: Instant| k < TRACE_CALLS;
    let (base_lat, bad) = {
        let _s = tr.span("untraced_burst");
        repeat_loop(&mut session, &inp.batches, refs, calls)
    };
    out.check("repeated rounds bitwise identical", bad == 0, bad);

    let probe = Probe::new();
    let mut traced = probe_session(ctx, &probe)?;
    for b in &inp.batches {
        traced.score_pairs(b);
    }
    let base = snapshot(&probe);
    let (lat, bad) = {
        let _s = tr.span("traced_burst");
        repeat_loop(&mut traced, &inp.batches, refs, calls)
    };
    out.attempted += 3 * (TRACE_CALLS * CALL_PAIRS) as u64;
    out.check("traced rounds bitwise identical", bad == 0, bad);

    let (after_lat, bad) = {
        let _s = tr.span("untraced_burst");
        repeat_loop(&mut session, &inp.batches, refs, calls)
    };
    out.check("repeated rounds bitwise identical", bad == 0, bad);

    let model = load_model(ctx.model_dir)?;
    let mut nn = NnTrace::new();
    let warm: Vec<&[EntityPair]> = inp.batches.iter().map(Vec::as_slice).collect();
    nn.run(&model, &warm);
    let round: Vec<&[EntityPair]> = (0..TRACE_CALLS).map(|k| warm[k % warm.len()]).collect();
    let (scores, st) = {
        let _s = tr.span("nn_trace");
        nn.run(&model, &round)
    };
    let valid =
        scores.iter().enumerate().all(|(k, s)| bitwise_mismatches(s, &refs[k % refs.len()]) == 0);
    // The trace warmed its caches on the same batches, so a miss here
    // means a geometry was not cached or its entry was lost.
    out.check(
        format!(
            "nn trace: no cache misses after warm-up ({} optimiser, {} plan)",
            st.opt_misses, st.plan_misses
        ),
        st.opt_misses == 0 && st.plan_misses == 0,
        st.opt_misses.max(st.plan_misses),
    );

    let rate = |l: &[f64]| (l.len() * CALL_PAIRS) as f64 / (l.iter().sum::<f64>() * 1e-3);
    let base_rate = (rate(&base_lat) + rate(&after_lat)) / 2.0;
    let score_s = lat.iter().sum::<f64>() * 1e-3;
    out.metric("run.traced_wall_s", score_s, "s");
    out.metric("trace.entities_per_s_overhead_pct", overhead_pct(base_rate, rate(&lat)), "%");
    out.metric("trace.pairs_per_s_overhead_pct", overhead_pct(base_rate, rate(&lat)), "%");
    out.metric("trace.spans", tr.spans().len() as f64, "count");
    // No corpus, blocking or clustering runs here.
    for (name, unit) in [
        ("data.render_calls_per_record", "count"),
        ("data.render_thread_s", "s"),
        ("blocking.fit_s", "s"),
        ("blocking.fit_share", "ratio"),
        ("blocking.fit_self_s", "s"),
        ("blocking.fit_render_calls", "count"),
        ("text.index_bytes", "B"),
        ("text.postings", "count"),
        ("text.vocab_terms", "count"),
        ("text.pruned_terms", "count"),
        ("blocking.retrieve_s", "s"),
        ("blocking.fill_thread_s", "s"),
        ("blocking.candidates", "count"),
        ("blocking.pair_completeness", "ratio"),
        ("blocking.pair_quality", "ratio"),
        ("runtime.cascade_s", "s"),
        ("runtime.cosine_accepted", "count"),
        ("runtime.cosine_accept_precision", "ratio"),
        ("runtime.merges", "count"),
        ("runtime.clusters", "count"),
        ("runtime.largest_cluster", "count"),
    ] {
        out.metric(name, 0.0, unit);
    }
    out.metric("runtime.model_scored", (TRACE_CALLS * CALL_PAIRS) as f64, "count");
    // Every traced round is bitwise equal to its warm-up reference.
    let threshold = traced.threshold();
    let accepted = |k: usize| refs[k % refs.len()].iter().filter(|&&s| s >= threshold).count();
    out.metric(
        "runtime.model_accepted",
        (0..TRACE_CALLS).map(accepted).sum::<usize>() as f64,
        "count",
    );
    out.metric("runtime.band_skipped_connected", 0.0, "count");
    out.metric("runtime.score_s", score_s, "s");
    out.metric(
        "runtime.arena_bytes",
        traced.arena_capacity_bytes().max(st.arena_bytes) as f64,
        "B",
    );
    core_metrics(&mut out, &probe, base);
    nn_metrics(&mut out, &st, valid);
    Ok(out)
}
