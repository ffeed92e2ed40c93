//! The `nn` stage trace: scores pairs through the same public functions
//! `Session` uses — `Tape::inference`, `ErModel::record_scores`,
//! `optimize_with_cache` at `OptimizeConfig::hot()`, then
//! `ArenaExecutor::infer_into` — with a timer around each stage, and the
//! same fan-out (`parallel::current_split()` worker slots, each with its
//! own executor and optimiser cache; small calls run on a separate serial
//! slot). Planning is split out of replay by calling
//! `ArenaExecutor::infer_report` first, which builds (or finds) the plan
//! that `infer_into` then replays.
//!
//! A hit is a lookup after which the cache holds as many entries as
//! before; a miss adds one (or resets a cache at its cap). The scores are
//! returned so callers can check them bitwise against
//! `Session::score_pairs`: if they differ, the trace no longer follows
//! the session and its numbers are reported as invalid.

use hiergat_data::EntityPair;
use hiergat_nn::{
    cost_analysis, optimize_with_cache, ArenaExecutor, OptimizeConfig, OptimizerCache, Tape,
};
use hiergat_runtime::{ErModel, Example};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Default)]
struct Slot {
    exec: ArenaExecutor,
    cache: OptimizerCache,
}

/// Stage totals; thread times are summed over slots.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NnStats {
    pub pairs: u64,
    pub record_s: f64,
    pub optimize_s: f64,
    pub plan_s: f64,
    pub replay_s: f64,
    pub opt_calls: u64,
    pub opt_hits: u64,
    pub opt_misses: u64,
    pub plan_calls: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub flops: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub arena_bytes: u64,
}

impl NnStats {
    fn add(&mut self, o: &NnStats) {
        self.pairs += o.pairs;
        self.record_s += o.record_s;
        self.optimize_s += o.optimize_s;
        self.plan_s += o.plan_s;
        self.replay_s += o.replay_s;
        self.opt_calls += o.opt_calls;
        self.opt_hits += o.opt_hits;
        self.opt_misses += o.opt_misses;
        self.plan_calls += o.plan_calls;
        self.plan_hits += o.plan_hits;
        self.plan_misses += o.plan_misses;
        self.flops += o.flops;
    }

    pub fn opt_hit_rate(&self) -> f64 {
        rate(self.opt_hits, self.opt_calls)
    }

    pub fn plan_hit_rate(&self) -> f64 {
        rate(self.plan_hits, self.plan_calls)
    }

    /// Both caches' hits and misses add up to their lookups.
    #[cfg(test)]
    pub fn counters_consistent(&self) -> bool {
        self.opt_hits + self.opt_misses == self.opt_calls
            && self.plan_hits + self.plan_misses == self.plan_calls
            && self.opt_calls == self.pairs
            && self.plan_calls == self.pairs
    }
}

fn rate(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn score_one(model: &dyn ErModel, slot: &mut Slot, pair: &EntityPair, st: &mut NnStats) -> f32 {
    let t0 = Instant::now();
    let mut t = Tape::inference();
    let probs = model.record_scores(&mut t, Example::Pair(pair));
    let t1 = Instant::now();
    let (opt_before, plans_before) = (slot.cache.len(), slot.exec.plans_cached());
    let opt =
        optimize_with_cache(&mut slot.cache, t, probs, model.params(), &OptimizeConfig::hot());
    let t2 = Instant::now();
    let _ = slot.exec.infer_report(opt.tape, opt.root);
    let t3 = Instant::now();
    let mut buf = [0.0f32; 2];
    slot.exec.infer_into(opt.tape, opt.root, model.params(), &mut buf);
    let t4 = Instant::now();
    st.flops += cost_analysis(opt.tape, 1).total_flops;
    st.pairs += 1;
    st.record_s += (t1 - t0).as_secs_f64();
    st.optimize_s += (t2 - t1).as_secs_f64();
    st.plan_s += (t3 - t2).as_secs_f64();
    st.replay_s += (t4 - t3).as_secs_f64();
    st.opt_calls += 1;
    st.plan_calls += 1;
    if slot.cache.len() == opt_before {
        st.opt_hits += 1;
    } else {
        st.opt_misses += 1;
    }
    if slot.exec.plans_cached() == plans_before {
        st.plan_hits += 1;
    } else {
        st.plan_misses += 1;
    }
    buf[1]
}

/// Per-slot state that persists across calls, like a session's.
#[derive(Default)]
pub struct NnTrace {
    serial: Slot,
    workers: Vec<Slot>,
}

impl NnTrace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Scores each call's pairs with `Session::score_batch`'s layout and
    /// returns the scores per call plus the stage totals.
    pub fn run(
        &mut self,
        model: &dyn ErModel,
        calls: &[&[EntityPair]],
    ) -> (Vec<Vec<f32>>, NnStats) {
        let before = hiergat_tensor::alloc_stats();
        let mut total = NnStats::default();
        let mut out = Vec::with_capacity(calls.len());
        let workers = parallel::current_split().max(1);
        for pairs in calls {
            if workers == 1 || pairs.len() < 2 * workers {
                let mut st = NnStats::default();
                out.push(
                    pairs.iter().map(|p| score_one(model, &mut self.serial, p, &mut st)).collect(),
                );
                total.add(&st);
                continue;
            }
            while self.workers.len() < workers {
                self.workers.push(Slot::default());
            }
            let chunk = pairs.len().div_ceil(workers);
            let mut scores = vec![0.0f32; pairs.len()];
            type Job<'j> = Mutex<(&'j mut Slot, &'j mut [f32], &'j [EntityPair], NnStats)>;
            let jobs: Vec<Job<'_>> = self
                .workers
                .iter_mut()
                .zip(scores.chunks_mut(chunk))
                .zip(pairs.chunks(chunk))
                .map(|((slot, outs), ps)| Mutex::new((slot, outs, ps, NnStats::default())))
                .collect();
            parallel::run(jobs.len(), |i| {
                let mut job = jobs[i].lock().expect("nn trace job lock");
                let (slot, outs, ps, st) = &mut *job;
                for (o, p) in outs.iter_mut().zip(ps.iter()) {
                    *o = score_one(model, slot, p, st);
                }
            });
            for job in jobs {
                total.add(&job.into_inner().expect("nn trace job lock").3);
            }
            out.push(scores);
        }
        let allocs = hiergat_tensor::alloc_stats().since(before);
        total.allocs = allocs.count;
        total.alloc_bytes = allocs.bytes;
        total.arena_bytes = std::iter::once(&self.serial)
            .chain(&self.workers)
            .map(|s| s.exec.arena_capacity_bytes())
            .max()
            .unwrap_or(0);
        (out, total)
    }
}
