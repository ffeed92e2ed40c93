//! `erbench`: the repository benchmark (see `BENCHMARK.json` and
//! `erbench/NOTES.md`).
//!
//! ```text
//! erbench --workload NAME --seed N --seconds S --trace 0|1 --model DIR
//! erbench prep-model --out DIR
//! ```
//!
//! Workloads: `resolve_corpus`, `resolve_band`, `score_repeat`. With
//! `--trace 0` the last stdout line is a JSON object holding every
//! end-to-end metric; with `--trace 1` it holds every per-layer metric and
//! the span file is written at exit, under `$CARGO_TARGET_DIR/erbench/`
//! (default `.bench_build`). The exit code is 1 when an output
//! check fails and 2 on a usage or input error.

mod common;
mod nntrace;
mod prep;
mod probe;
#[cfg(test)]
mod selftest;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Ctx, Outcome};

/// Pool width: at most two threads, fewer on a smaller machine.
const MAX_THREADS: usize = 2;

const END_TO_END: &[&str] = &[
    "entities_per_s",
    "pairs_per_s",
    "cluster_f1",
    "score_call_p50_ms",
    "score_call_p99_ms",
    "peak_rss_mb",
    "setup_s",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    model: PathBuf,
    /// Span file path; `None` means the default under the target dir.
    /// Set only by the self-tests, as is `scale`.
    spans: Option<PathBuf>,
    /// Corpus size factor; the declared workloads run at 1.
    scale: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        model: PathBuf::new(),
        spans: None,
        scale: 1.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: &String| v.parse::<f64>().map_err(|_| format!("bad value {v:?} for {flag}"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => a.seconds = num(value()?)?,
            "--trace" => a.trace = value()? == "1",
            "--model" => a.model = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !["resolve_corpus", "resolve_band", "score_repeat"].contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if a.model.as_os_str().is_empty() {
        return Err("--model DIR is required".to_string());
    }
    Ok(a)
}

fn json_result(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { format!("{value:?}") } else { "null".to_string() };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let tracer = Tracer::new(args.trace);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        model_dir: &args.model,
        tracer: &tracer,
    };
    let out = {
        let _run = tracer.span("run");
        match args.workload.as_str() {
            "score_repeat" => workloads::score_repeat(&ctx)?,
            w => workloads::resolve_workload(w, &ctx)?,
        }
    };
    if args.trace {
        let path = args.spans.clone().unwrap_or_else(|| {
            let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
            PathBuf::from(dir).join(format!("erbench/spans-{}-{}.json", args.workload, args.seed))
        });
        tracer
            .write(&path)
            .map_err(|e| format!("cannot write span file {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    } else {
        let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END, "every workload reports every end-to-end metric");
    }
    Ok(out)
}

fn main() -> ExitCode {
    let width = std::thread::available_parallelism().map_or(1, usize::from).min(MAX_THREADS);
    // Before the pool's first use: it sizes itself from this variable.
    std::env::set_var("HIERGAT_THREADS", width.to_string());
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("prep-model") {
        let out = match argv.get(1..) {
            Some([flag, dir]) if flag == "--out" => PathBuf::from(dir),
            _ => {
                eprintln!("usage: erbench prep-model --out DIR");
                return ExitCode::from(2);
            }
        };
        return match prep::build_band_model(&out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("note: pool width {}", parallel::current_split());
    for note in &out.notes {
        eprintln!("note: {note}");
    }
    for (name, ok) in &out.checks {
        eprintln!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    let correct = out.failed == 0 && out.checks.iter().all(|c| c.1);
    println!("{}", json_result(&out, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
