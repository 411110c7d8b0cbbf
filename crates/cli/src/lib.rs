#![forbid(unsafe_code)]
//! # tt-cli — command-line front end
//!
//! The `tracetracker` binary: generate catalog workloads, inspect and
//! convert trace files, run the timing inference, reconstruct traces for a
//! target device, and verify the inference by idle injection.
//!
//! ```text
//! tracetracker catalog
//! tracetracker generate --workload MSNFS --requests 10000 --out old.csv
//! tracetracker stats old.csv --groups
//! tracetracker infer old.csv --json
//! tracetracker reconstruct old.csv --method tracetracker --device array --out new.csv
//! tracetracker verify old.csv --period 10ms --fraction 0.1
//! tracetracker convert old.csv old.blk
//! ```
//!
//! The argument layer is hand-rolled (no CLI dependency): see [`args`].

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod io;

use args::{ArgError, Args};

/// Top-level usage text.
pub const USAGE: &str = "\
tracetracker — hardware/software co-evaluation for I/O workload reconstruction

USAGE:
    tracetracker <COMMAND> [ARGS]

COMMANDS:
    catalog                           list the 31-workload Table I catalog
    devices                           list the preset device registry
    generate    --workload W [--requests N] [--seed S]
                [--device hdd|wd-blue|ssd|array] [--timing] [--out FILE]
    stats       TRACE [--groups] [--json]
                summary statistics of a trace file (--json prints the
                exact body tt-serve's /stats endpoint answers with)
    infer       TRACE [--json]        run the timing inference
    reconstruct TRACE --out FILE [--method tracetracker|dynamic|revision|
                acceleration|fixed-th] [--device D] [--factor N]
                [--threshold DUR] [--then-replay] [--mode open|closed]
                [--time-scale F] [--fused|--materialized]
    replay      TRACE [TRACE...] [--device D] [--mode open|closed]
                [--time-scale F] [--parallel N] [--out FILE]
                [--fault-plan latency-spike|throttling|errors|mixed]
                [--fault-seed S] [--on-error abort|skip:N|quarantine]
                one input: single-stream replay; several: CONCURRENT
                replay on the one shared device, reported per stream.
                --fault-plan wraps the device in a deterministic seeded
                fault layer (same name+seed = byte-identical output);
                --on-error sets the input error budget: skip:N tolerates
                up to N malformed text records (quarantine: unlimited),
                reporting the skip count — the default aborts on the
                first bad record
    verify      TRACE [--period DUR] [--fraction F] [--seed S]
    convert     IN [IN...] OUT        convert between formats; several
                inputs are fan-in merged in arrival order
    serve       --root DIR [--init] [--addr A] [--workers N]
                run the resident analysis daemon (see `serve --help`)

Trace-consuming commands also take the pipeline knobs
    --parallel N      worker threads for grouping/inference (0 =
                      default: TT_THREADS or all cores; 1 = sequential;
                      bit-identical results at every count; replay is
                      always sequential)
    --parallel auto   use all cores AND let the pipeline tune its own
                      chunk size and channel capacity from a calibration
                      prefix (explicit --chunk-size still wins; outputs
                      stay bit-identical to any fixed setting)
    --chunk-size N    records per streamed read chunk (default 65536)
stats/reconstruct/replay/convert take the observability knob
    --timings         print the run's flight log to stderr: one
                      `timings: {json}` line plus a per-stage table of
                      busy / blocked-send / blocked-recv time, records,
                      chunks, and queue high-water marks
multi-stage chains (reconstruct --then-replay) the executor knobs
    --fused           pipeline stages on worker threads through bounded
                      channels, never materialising the intermediate
                      trace (the default; identical results either way)
    --materialized    run stage-at-a-time, collecting between stages
and the analysis commands (stats/infer/verify) the mmap knobs
    --mmap            analyse .ttb inputs via the zero-copy mapped view
                      (the default; identical results either way)
    --no-mmap         force the bulk-read load path instead

Trace files: the extension selects the format, case-insensitively
(.blk = blkparse text; .csv/.txt/.trace = SNIA-style CSV; .ttb = binary
columnar cache; anything else is an error).";

/// Dispatches a full command line (without the program name).
///
/// # Errors
///
/// Returns [`ArgError`] with a user-facing message on any usage or I/O
/// problem.
pub fn dispatch(argv: &[String]) -> Result<(), ArgError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(ArgError(USAGE.to_string()));
    };
    // The daemon owns its flag grammar (switches like --init would parse
    // as value flags here); hand the rest of the line over verbatim.
    if command == "serve" {
        return tt_serve::run_cli(rest).map_err(|e| ArgError(e.to_string()));
    }
    let switches: &[&str] = match command.as_str() {
        "generate" => &["timing"],
        "stats" => &["groups", "json", "mmap", "no-mmap", "timings"],
        "infer" => &["json", "mmap", "no-mmap"],
        "verify" => &["mmap", "no-mmap"],
        "reconstruct" => &["then-replay", "fused", "materialized", "timings"],
        "replay" => &["timings"],
        "convert" => &["timings"],
        _ => &[],
    };
    let args = Args::parse(rest, switches)?;
    match command.as_str() {
        "catalog" => commands::catalog_cmd(&args),
        "devices" => commands::devices_cmd(&args),
        "generate" => commands::generate(&args),
        "stats" => commands::stats(&args),
        "infer" => commands::infer_cmd(&args),
        "reconstruct" => commands::reconstruct(&args),
        "replay" => commands::replay_cmd(&args),
        "verify" => commands::verify(&args),
        "convert" => commands::convert(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(ArgError(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn empty_command_line_shows_usage() {
        let err = dispatch(&[]).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = dispatch(&raw(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn help_succeeds() {
        dispatch(&raw(&["help"])).unwrap();
    }

    #[test]
    fn catalog_succeeds() {
        dispatch(&raw(&["catalog"])).unwrap();
    }
}
