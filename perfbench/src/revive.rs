//! `revive`: the paper's headline job at production scale.
//!
//! One unit is one `tracetracker reconstruct OLD.csv --out NEW.csv
//! --method tracetracker --device array --then-replay --mode open`
//! process at default parallelism, over a 1M-record MSNFS trace taken on
//! the 2007 HDD with device timing. Every NEW.csv must match the digest
//! of a `--materialized --parallel 1` reference made during set-up.
//!
//! The traced unit runs the same job in process, one layer at a time
//! (CSV decode, TraceTracker reconstruction, sequential and sharded
//! open-loop replay, CSV encode), then once more as the fused
//! `Pipeline` with a flight recorder for the executor's own split.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use tracetracker::core::{Reconstructor, TraceTracker};
use tracetracker::device::presets;
use tracetracker::sim::StreamReplay;
use tracetracker::sim::{quiescent_cuts, replay, replay_sharded, ReplayConfig, Schedule};
use tracetracker::trace::format::csv::write_csv;
use tracetracker::{FlightRecorder, Pipeline};

use crate::inputs::{self, file_digest, sub_seed};
use crate::spans::Tracer;
use crate::stats::{median, p50, tail};
use crate::{layer_medians, Ctx, Outcome};

pub const WORKLOAD: &str = "MSNFS";
pub const RECORDS: usize = 1_000_000;

#[derive(Debug)]
pub struct Input {
    dir: PathBuf,
    old_csv: PathBuf,
    bytes: u64,
    reference: u64,
}

impl Input {
    fn path(&self, name: &str) -> String {
        self.dir.join(name).display().to_string()
    }

    /// The CLI arguments of one job writing to `out`.
    fn job_args(&self, out: &str) -> Vec<String> {
        [
            "reconstruct",
            &self.old_csv.display().to_string(),
            "--out",
            out,
            "--method",
            "tracetracker",
            "--device",
            "array",
            "--then-replay",
            "--mode",
            "open",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect()
    }
}

pub fn setup(ctx: &Ctx, tracer: &mut Tracer) -> std::io::Result<Input> {
    let dir = ctx.work.join("revive");
    std::fs::create_dir_all(&dir)?;
    let old = inputs::old_trace(WORKLOAD, RECORDS, sub_seed(ctx.seed, 1), tracer);
    let old_csv = dir.join("old.csv");
    let span = tracer.begin("setup.write");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&old_csv)?);
    write_csv(&old, &mut out).map_err(std::io::Error::other)?;
    // Written back now, so the write-back does not land in the
    // measured jobs.
    out.into_inner()
        .map_err(std::io::IntoInnerError::into_error)?
        .sync_all()?;
    tracer.end(span);
    let mut input = Input {
        bytes: std::fs::metadata(&old_csv)?.len(),
        old_csv,
        dir,
        reference: 0,
    };
    let span = tracer.begin("setup.reference");
    let reference = input.path("reference.csv");
    let mut args = input.job_args(&reference);
    args.extend(["--materialized", "--parallel", "1"].map(String::from));
    crate::procs::run_ok(&ctx.cli(), &args)?;
    input.reference = file_digest(reference.as_ref())?;
    std::fs::remove_file(&reference)?;
    tracer.end(span);
    Ok(input)
}

/// One CLI job: `Some((wall ms, peak RSS KiB))` when its output matched
/// the reference.
fn job(ctx: &Ctx, input: &Input) -> std::io::Result<Option<(f64, u64)>> {
    let out = input.path("new.csv");
    let finished = crate::procs::run(&ctx.cli(), &input.job_args(&out))?;
    let ok = finished.status.success() && file_digest(out.as_ref())? == input.reference;
    // Removing the output drops its dirty pages before they are written
    // back during the next job.
    std::fs::remove_file(&out)?;
    Ok(ok.then_some((finished.wall.as_secs_f64() * 1e3, finished.peak_rss_kib)))
}

/// Per-layer counts of one traced unit.
#[derive(Debug, Default)]
struct Counts {
    cuts: f64,
    partitions: f64,
    ns_per_op: f64,
    pipeline: BTreeMap<String, f64>,
}

/// Sharded replay's partition count for `cuts` (the coalescing rule of
/// `tt_sim`'s sharded core: a partition closes at the first cut after it
/// holds `ops ÷ (4 × workers)` operations; one partition means the
/// sequential fallback).
pub fn partitions(cuts: &[usize], ops: usize, workers: usize) -> usize {
    let min_len = (ops / (workers.max(1) * 4)).max(1);
    let mut start = 0;
    let mut parts = 1;
    for &cut in cuts {
        if cut - start >= min_len {
            parts += 1;
            start = cut;
        }
    }
    if workers <= 1 || parts < 2 {
        1
    } else {
        parts
    }
}

/// The traced unit: every layer of the job on its own, then the fused
/// pipeline. `false` when an output disagreed with the reference.
fn traced_unit(input: &Input, tracer: &mut Tracer) -> std::io::Result<(bool, Counts)> {
    let err = std::io::Error::other;
    let mut counts = Counts::default();
    let unit = tracer.begin("revive.job");
    let old = tracer
        .time("decode.csv", || {
            Pipeline::from_path(&input.old_csv)
                .chunk_size(tracetracker::trace::source::DEFAULT_CHUNK)
                .collect()
        })
        .map_err(err)?;
    let rebuilt = tracer.time("reconstruct.tracetracker", || {
        TraceTracker::new().reconstruct(&old, &mut presets::intel_750_array())
    });
    let schedule = Schedule::open_loop(&rebuilt, 1.0);
    let cuts = quiescent_cuts(&presets::intel_750_array(), schedule.ops()).unwrap_or_default();
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    counts.cuts = cuts.len() as f64;
    counts.partitions = partitions(&cuts, schedule.len(), workers) as f64;
    let config = ReplayConfig::default();
    tracetracker::par::set_threads(1);
    let started = Instant::now();
    let sequential = tracer.time("replay.open_seq", || {
        replay(&mut presets::intel_750_array(), &schedule, "new", config)
    });
    counts.ns_per_op = started.elapsed().as_nanos() as f64 / schedule.len().max(1) as f64;
    tracetracker::par::set_threads(0);
    let sharded = tracer.time("replay.open_sharded", || {
        replay_sharded(&mut presets::intel_750_array(), &schedule, "new", config)
    });
    let mut ok = sharded.trace == sequential.trace;
    let staged = input.path("staged.csv");
    tracer.time("encode.csv", || -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&staged)?);
        write_csv(&sharded.trace, &mut out).map_err(err)?;
        out.flush()
    })?;
    std::fs::remove_file(&staged)?;
    drop((rebuilt, schedule, sequential, sharded));

    let recorder = Arc::new(FlightRecorder::new());
    let fused = input.path("fused.csv");
    let mut reconstruct_device = presets::intel_750_array();
    let mut replay_device = presets::intel_750_array();
    tracer
        .time("pipeline.fused", || {
            Pipeline::from_trace(old)
                .chunk_size(tracetracker::trace::source::DEFAULT_CHUNK)
                .flight_recorder(&recorder)
                .reconstruct(&mut reconstruct_device, TraceTracker::new())
                .replay(
                    &mut replay_device,
                    StreamReplay::OpenLoop { time_scale: 1.0 },
                )
                .write_path(&fused)
        })
        .map_err(err)?;
    tracer.end(unit);
    ok &= file_digest(fused.as_ref())? == input.reference;
    std::fs::remove_file(&fused)?;
    let log = recorder.flight_log();
    let mut high_water = 0;
    for stage in &log.stages {
        high_water = high_water.max(stage.queue_high_water);
        if matches!(stage.stage.as_str(), "reconstruct" | "replay") {
            let key = |field: &str| format!("pipeline.{}.{field}", stage.stage);
            counts
                .pipeline
                .insert(key("busy_s"), stage.busy.as_secs_f64());
            counts
                .pipeline
                .insert(key("send_wait_s"), stage.send_wait.as_secs_f64());
            counts
                .pipeline
                .insert(key("recv_wait_s"), stage.recv_wait.as_secs_f64());
        }
    }
    counts
        .pipeline
        .insert("pipeline.queue_high_water".into(), high_water as f64);
    Ok((ok, counts))
}

pub fn run(
    ctx: &Ctx,
    input: &Input,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> std::io::Result<()> {
    out.inputs = vec![
        ("records", RECORDS as f64),
        ("csv_bytes", input.bytes as f64),
    ];
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut traced_walls = Vec::new();
    let mut counts = Vec::new();
    let mut traced_runs = Vec::new();
    while walls.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
        out.attempted += 1;
        match job(ctx, input)? {
            Some((wall, kib)) => {
                walls.push(wall);
                rss.push(kib as f64);
            }
            None => out.failed += 1,
        }
        if ctx.traced {
            out.attempted += 1;
            traced_runs.push(tracer.next_run());
            let t = Instant::now();
            let (ok, c) = traced_unit(input, tracer)?;
            traced_walls.push(t.elapsed().as_secs_f64() * 1e3);
            out.failed += u64::from(!ok);
            counts.push(c);
        }
    }
    let job_ms = p50(&walls);
    let t = tail(&walls);
    out.e2e = vec![
        ("throughput_rec_s", RECORDS as f64 / (job_ms / 1e3)),
        (
            "req_s",
            walls.len() as f64 / (walls.iter().sum::<f64>() / 1e3),
        ),
        ("p50_ms", job_ms),
        ("tail_ms", t.value),
        ("peak_rss_mb", median(&rss) / 1024.0),
    ];
    out.tail = Some(t);
    if ctx.traced {
        out.layers = layer_medians(tracer, &traced_runs);
        let pick = |f: &dyn Fn(&Counts) -> f64| median(&counts.iter().map(f).collect::<Vec<_>>());
        out.layers.insert("replay.cuts".into(), pick(&|c| c.cuts));
        out.layers
            .insert("replay.partitions".into(), pick(&|c| c.partitions));
        out.layers
            .insert("replay.ns_per_op".into(), pick(&|c| c.ns_per_op));
        let keys: Vec<String> = counts[0].pipeline.keys().cloned().collect();
        for key in keys {
            let v = pick(&|c| c.pipeline.get(&key).copied().unwrap_or(0.0));
            out.layers.insert(key, v);
        }
        out.overhead = Some(median(&traced_walls) / job_ms);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::partitions;

    #[test]
    fn partitions_coalesce_cuts() {
        // 100 ops, 2 workers: partitions need >= 12 ops each.
        assert_eq!(partitions(&[5, 12, 20, 30, 90], 100, 2), 4);
        assert_eq!(partitions(&[5, 12, 20, 30, 90], 100, 1), 1);
        assert_eq!(partitions(&[], 100, 2), 1);
    }
}
