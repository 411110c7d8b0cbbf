//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload revive|sweep|serve --seed N --seconds S --trace 0|1
//!           --bin-dir DIR [--work-dir DIR] [--rustc VERSION]
//! ```
//!
//! One run generates the workload's inputs from the seed (set up at
//! least three times; the median set-up time is reported), measures for
//! the given seconds, checks every output, scores the catalog sweep for
//! the fidelity metrics, and prints one JSON result as its last line of
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A per-run record (phases, total,
//! queue high-water mark, machine fingerprint, seed and input sizes) goes
//! to standard error and is appended to `records.jsonl` in the work
//! directory; a traced run also writes its spans there.

mod inputs;
mod json;
mod metrics;
mod procs;
mod revive;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use spans::Tracer;
use stats::{median, p50, Tail};

/// Fewest set-ups per run; the median is `setup_s`.
const SETUP_REPEATS: usize = 3;
/// A run sets up again until its set-ups took this long in all, so a
/// fraction-of-a-second set-up still gets a steady median.
const SETUP_MIN_TOTAL_S: f64 = 2.0;
/// Fewest sweep passes a run measures, whatever `--seconds` says.
const MIN_SWEEP_PASSES: usize = 4;

#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub bin_dir: PathBuf,
    pub work: PathBuf,
    pub rustc: String,
}

impl Ctx {
    pub fn cli(&self) -> PathBuf {
        self.bin_dir.join("tracetracker")
    }

    pub fn serve_bin(&self) -> PathBuf {
        self.bin_dir.join("tt-serve")
    }

    fn parse(argv: &[String]) -> Result<Ctx, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name, value);
        }
        let get = |name: &str| {
            flags
                .get(name)
                .copied()
                .ok_or_else(|| format!("--{name} is required"))
        };
        let workload = get("workload")?.to_string();
        if !["revive", "sweep", "serve"].contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; expected revive | sweep | serve"
            ));
        }
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|_| "--seconds: expected a number".to_string())?;
        Ok(Ctx {
            workload,
            seed: get("seed")?
                .parse()
                .map_err(|_| "--seed: expected an integer".to_string())?,
            seconds,
            traced: match get("trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
            },
            bin_dir: PathBuf::from(get("bin-dir")?),
            work: PathBuf::from(flags.get("work-dir").copied().unwrap_or(".bench_work")),
            rustc: flags.get("rustc").copied().unwrap_or("unknown").to_string(),
        })
    }
}

/// What a workload's measurement hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Workload-computed end-to-end metrics (all but set-up and fidelity).
    pub e2e: Vec<(&'static str, f64)>,
    pub tail: Option<Tail>,
    pub layers: BTreeMap<String, f64>,
    pub overhead: Option<f64>,
    pub inputs: Vec<(&'static str, f64)>,
}

/// Per span name, the median over `runs` of each run's summed self time,
/// as `<name>_s`.
pub fn layer_medians(tracer: &Tracer, runs: &[u32]) -> BTreeMap<String, f64> {
    let by_run = spans::self_time_by_run(tracer.spans());
    let mut names: Vec<&String> = runs
        .iter()
        .filter_map(|r| by_run.get(r))
        .flat_map(|m| m.keys())
        .collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let per_run: Vec<f64> = runs
                .iter()
                .map(|r| {
                    by_run
                        .get(r)
                        .and_then(|m| m.get(name))
                        .map_or(0.0, |d| d.as_secs_f64())
                })
                .collect();
            (format!("{name}_s"), median(&per_run))
        })
        .collect()
}

/// Machine fingerprint for the run record.
fn fingerprint(rustc: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut o = Json::object();
    o.num("nproc", nproc as f64)
        .str("cpu_model", &cpu)
        .str("rustc", rustc)
        .str("os", std::env::consts::OS)
        .str("arch", std::env::consts::ARCH);
    o.finish()
}

enum Prepared {
    Revive(revive::Input),
    Sweep(Vec<sweep::Case>),
    Serve(serve::Input),
}

fn setup(ctx: &Ctx, tracer: &mut Tracer) -> std::io::Result<Prepared> {
    Ok(match ctx.workload.as_str() {
        "revive" => Prepared::Revive(revive::setup(ctx, tracer)?),
        "serve" => Prepared::Serve(serve::setup(ctx, tracer)?),
        _ => Prepared::Sweep(sweep::setup(ctx.seed, sweep::REQUESTS, tracer)),
    })
}

/// The sweep workload: untraced passes (and, in a traced run, traced
/// passes between them) until the deadline and at least
/// [`MIN_SWEEP_PASSES`]. Every pass must reproduce the first pass's
/// scores exactly.
fn run_sweep(
    ctx: &Ctx,
    cases: &[sweep::Case],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Option<sweep::Scores> {
    out.inputs = vec![
        ("traces", 2.0 * cases.len() as f64),
        (
            "records",
            cases
                .iter()
                .map(|c| c.old.len() + c.new.len())
                .sum::<usize>() as f64,
        ),
    ];
    let started = Instant::now();
    let mut first: Option<sweep::Scores> = None;
    let mut check = |scores: sweep::Scores, out: &mut Outcome| {
        out.attempted += 1;
        match &first {
            None => first = Some(scores),
            Some(f) => out.failed += u64::from(*f != scores),
        }
    };
    let (mut pass_ms, mut workload_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_pass = Vec::new();
    let (mut traced_runs, mut groups) = (Vec::new(), Vec::new());
    let mut records = 0;
    while pass_ms.len() < MIN_SWEEP_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        tracer.set_enabled(false);
        let t = Instant::now();
        let (scores, stats) = sweep::pass(cases, tracer);
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        workload_ms.extend(&stats.workload_ms);
        per_pass.push(stats.workload_ms);
        records = stats.records_reconstructed;
        check(scores, out);
        if ctx.traced {
            tracer.set_enabled(true);
            traced_runs.push(tracer.next_run());
            let t = Instant::now();
            let (scores, stats) = sweep::pass(cases, tracer);
            traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            groups.push(stats.groups as f64);
            check(scores, out);
            tracer.set_enabled(false);
        }
    }
    let pass = p50(&pass_ms);
    out.e2e = vec![
        ("throughput_rec_s", records as f64 / (pass / 1e3)),
        (
            "req_s",
            workload_ms.len() as f64 / (pass_ms.iter().sum::<f64>() / 1e3),
        ),
        ("p50_ms", p50(&workload_ms)),
        ("tail_ms", stats::slowest_tenth(&per_pass)),
        (
            "peak_rss_mb",
            procs::peak_rss_kib(std::process::id()).unwrap_or(0) as f64 / 1024.0,
        ),
    ];
    if ctx.traced {
        out.layers = layer_medians(tracer, &traced_runs);
        out.layers.insert("infer.groups".into(), median(&groups));
        out.overhead = Some(median(&traced_ms) / pass);
    }
    first
}

fn run(ctx: &Ctx) -> std::io::Result<String> {
    std::fs::create_dir_all(&ctx.work)?;
    let mut tracer = Tracer::new(ctx.traced);
    let mut phases: Vec<(String, f64)> = Vec::new();

    let mut setup_s = Vec::new();
    let mut setup_runs = Vec::new();
    let mut prepared = None;
    while setup_s.len() < SETUP_REPEATS || setup_s.iter().sum::<f64>() < SETUP_MIN_TOTAL_S {
        // The previous set-up (and its daemon) goes before the next starts.
        drop(prepared.take());
        setup_runs.push(tracer.next_run());
        let t = Instant::now();
        prepared = Some(setup(ctx, &mut tracer)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("the set-up loop runs at least once");
    for (i, s) in setup_s.iter().enumerate() {
        phases.push((format!("setup.{i}"), *s));
    }

    let mut out = Outcome::default();
    let t = Instant::now();
    let fidelity = match &prepared {
        Prepared::Revive(input) => {
            revive::run(ctx, input, &mut tracer, &mut out)?;
            None
        }
        Prepared::Serve(input) => {
            serve::run(ctx, input, &mut tracer, &mut out)?;
            None
        }
        Prepared::Sweep(cases) => run_sweep(ctx, cases, &mut tracer, &mut out),
    };
    phases.push(("measure".into(), t.elapsed().as_secs_f64()));
    drop(prepared);

    // The fidelity yardsticks are scored on the catalog sweep in every
    // run; the sweep workload already has them from its own passes.
    let t = Instant::now();
    let fidelity = match fidelity {
        Some(scores) => scores,
        None => {
            let enabled = tracer.enabled();
            tracer.set_enabled(false);
            let cases = sweep::setup(ctx.seed, sweep::REQUESTS, &mut tracer);
            let scores = sweep::pass(&cases, &mut tracer).0;
            tracer.set_enabled(enabled);
            scores
        }
    };
    phases.push(("fidelity".into(), t.elapsed().as_secs_f64()));

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    values.insert("setup_s".into(), p50(&setup_s));
    for (name, v) in &out.e2e {
        values.insert((*name).into(), *v);
    }
    values.insert("idle_freq_acc".into(), fidelity.idle_freq_acc);
    values.insert("idle_period_acc".into(), fidelity.idle_period_acc);
    values.insert("tt_wins".into(), fidelity.tt_wins as f64);
    values.insert("tt_tintt_err_us".into(), fidelity.tt_tintt_err_us);
    if ctx.traced {
        values.extend(
            layer_medians(&tracer, &setup_runs)
                .into_iter()
                .filter(|(k, _)| k.starts_with("setup.")),
        );
        values.extend(out.layers.clone());
        if let Some(x) = out.overhead {
            values.insert("trace.overhead_ratio".into(), x);
        }
        let spans = ctx
            .work
            .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
        tracer.write_jsonl(&spans)?;
    }

    let table = if ctx.traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut metrics_json = Json::object();
    for (name, unit) in table {
        let mut m = Json::object();
        m.num("value", values.get(*name).copied().unwrap_or(0.0))
            .str("unit", unit);
        metrics_json.raw(name, &m.finish());
    }
    let metrics_json = metrics_json.finish();

    // The run record: per-phase durations, a derived total, the queue
    // high-water mark, the machine fingerprint, seed and input sizes.
    let mut phase_json = Json::object();
    for (name, s) in &phases {
        phase_json.num(name, *s);
    }
    let mut input_json = Json::object();
    for (name, v) in &out.inputs {
        input_json.num(name, *v);
    }
    let mut record = Json::object();
    record
        .str("workload", &ctx.workload)
        .raw("seed", &ctx.seed.to_string())
        .bool("traced", ctx.traced)
        .raw("phases_s", &phase_json.finish())
        .num("total_s", phases.iter().map(|p| p.1).sum())
        .num(
            "queue_high_water",
            out.layers
                .get("pipeline.queue_high_water")
                .copied()
                .unwrap_or(f64::NAN),
        )
        .raw("fingerprint", &fingerprint(&ctx.rustc))
        .raw("inputs", &input_json.finish())
        .num("attempted", out.attempted as f64)
        .num("failed", out.failed as f64);
    if let Some(t) = out.tail {
        record
            .num("tail_percentile", t.percentile)
            .num("tail_samples", t.samples as f64)
            .bool("tail_qualified", t.qualified);
    }
    let best_methods = fidelity
        .errors_ns
        .iter()
        .map(|e| {
            let best = (0..5).min_by_key(|&i| e[i]).unwrap_or(0);
            format!("\"{}\"", sweep::METHODS[best])
        })
        .collect::<Vec<_>>()
        .join(", ");
    record
        .raw("best_method_per_workload", &format!("[{best_methods}]"))
        .raw("metrics", &metrics_json);
    let record = record.finish();
    eprintln!("[RUN] {record}");
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(ctx.work.join("records.jsonl"))?;
    writeln!(log, "{record}")?;

    let mut result = Json::object();
    result
        .bool("correct", out.failed == 0)
        .num("attempted", out.attempted as f64)
        .num("failed", out.failed as f64)
        .raw("metrics", &metrics_json);
    Ok(result.finish())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match Ctx::parse(&argv) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&ctx) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} workload failed: {e}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}
