//! `serve`: the resident daemon under two closed-loop clients.
//!
//! Set-up starts `tt-serve --workers 2` on loopback over a fresh
//! repository and ingests four 250k-record traces (CFS, prxy, webusers,
//! homes) over HTTP. Each client then sends, one connection per request
//! (the daemon answers `Connection: close`), a seeded shuffle of a fixed
//! 20-request cycle: 3 stats, 3 group, 6 infer, 2 verify, 4
//! `replay?device=array&mode=open` and 2 PUT-ingests of a fresh
//! 50k-record CSV, each followed by its DELETE. `stats` and `infer`
//! bodies must be byte-equal to `tracetracker stats|infer --json` on the
//! repository's own file.
//!
//! The traced run alternates untraced and traced rounds of one cycle per
//! client; after each traced round the benchmark times, in process, the
//! layer calls the daemon makes per request (mmap open, grouping,
//! inference, verification, CSV decode and TTB encode).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use tracetracker::core::{infer_columns, verify_injection, InferenceConfig, VerifyConfig};
use tracetracker::trace::format::csv::read_csv;
use tracetracker::trace::format::ttb::write_ttb;
use tracetracker::trace::time::SimDuration;
use tracetracker::trace::{GroupedTrace, MmapTrace};

use crate::inputs::{self, sub_seed};
use crate::spans::Tracer;
use crate::stats::{median, p50, tail};
use crate::{layer_medians, Ctx, Outcome};

pub const TRACES: [&str; 4] = ["CFS", "prxy", "webusers", "homes"];
pub const TRACE_RECORDS: usize = 250_000;
pub const INGEST_RECORDS: usize = 50_000;
/// Workloads the ingest payloads are drawn from.
const INGEST_SOURCES: [&str; 4] = ["DAP", "ikki", "src1", "24HR"];
const CLIENTS: usize = 2;
/// Fewest requests an untraced run measures, whatever `--seconds` says.
const MIN_REQUESTS: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Stats,
    Group,
    Infer,
    Verify,
    Replay,
    Ingest,
    Delete,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Stats => "stats",
            Kind::Group => "group",
            Kind::Infer => "infer",
            Kind::Verify => "verify",
            Kind::Replay => "replay",
            Kind::Ingest => "ingest",
            Kind::Delete => "delete",
        }
    }
}

/// One client's cycle before shuffling (an ingest brings its DELETE).
const CYCLE: [(Kind, usize); 6] = [
    (Kind::Stats, 3),
    (Kind::Group, 3),
    (Kind::Infer, 6),
    (Kind::Verify, 2),
    (Kind::Replay, 4),
    (Kind::Ingest, 2),
];

/// A running `tt-serve`; dropping it shuts the daemon down and waits for
/// it.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    // Held open so the daemon's exit message never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn start(program: &Path, root: &Path) -> std::io::Result<Daemon> {
        let root = root.display().to_string();
        let args = [
            "--root",
            &root,
            "--init",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ];
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other("tt-serve stdout not captured"));
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "tt-serve did not start: {line:?}"
            )));
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    fn peak_rss_kib(&self) -> Option<u64> {
        crate::procs::peak_rss_kib(self.child.id())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = request(self.addr, "POST", "/api/v1/shutdown", &[]);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP exchange on a fresh connection.
struct Reply {
    status: u16,
    body: Vec<u8>,
    start: Instant,
    connected: Instant,
    end: Instant,
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let end = Instant::now();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without a header end"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("response without a status"))?;
    Ok(Reply {
        status,
        body: raw[split + 4..].to_vec(),
        start,
        connected,
        end,
    })
}

#[derive(Debug)]
pub struct Input {
    daemon: Daemon,
    root: PathBuf,
    /// `(stats, infer)` bodies of `tracetracker … --json` per trace.
    references: Vec<(Vec<u8>, Vec<u8>)>,
    payloads: Vec<Vec<u8>>,
    csv_bytes: usize,
}

pub fn setup(ctx: &Ctx, tracer: &mut Tracer) -> std::io::Result<Input> {
    let root = ctx.work.join("serve-repo");
    if root.exists() {
        std::fs::remove_dir_all(&root)?;
    }
    let daemon = Daemon::start(&ctx.serve_bin(), &root)?;
    let mut csv_bytes = 0;
    for (i, name) in TRACES.iter().enumerate() {
        let trace = inputs::old_trace(
            name,
            TRACE_RECORDS,
            sub_seed(ctx.seed, 10 + i as u64),
            tracer,
        );
        let body = inputs::csv_bytes(&trace);
        csv_bytes += body.len();
        let span = tracer.begin("setup.ingest");
        let reply = request(
            daemon.addr,
            "PUT",
            &format!("/api/v1/traces/{name}?format=csv"),
            &body,
        )?;
        tracer.end(span);
        if reply.status != 201 {
            return Err(std::io::Error::other(format!(
                "ingesting {name}: HTTP {}",
                reply.status
            )));
        }
    }
    let span = tracer.begin("setup.reference");
    let mut references = Vec::new();
    for name in TRACES {
        let file = root
            .join("traces")
            .join(format!("{name}.ttb"))
            .display()
            .to_string();
        let stats = crate::procs::run_ok(&ctx.cli(), &["stats", &file, "--json"])?.stdout;
        let infer = crate::procs::run_ok(&ctx.cli(), &["infer", &file, "--json"])?.stdout;
        references.push((stats, infer));
    }
    tracer.end(span);
    let payloads = INGEST_SOURCES
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let trace =
                inputs::old_trace(w, INGEST_RECORDS, sub_seed(ctx.seed, 20 + i as u64), tracer);
            inputs::csv_bytes(&trace)
        })
        .collect();
    Ok(Input {
        daemon,
        root,
        references,
        payloads,
        csv_bytes,
    })
}

/// xorshift64* stream for the request shuffle.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

/// One finished request as the client saw it.
#[derive(Debug)]
struct Sample {
    kind: Kind,
    start: Instant,
    connected: Instant,
    end: Instant,
    status: u16,
    ok: bool,
    records: usize,
}

/// One closed-loop client: whole shuffled cycles until `stop` says so
/// (checked before every request).
struct Client<'a> {
    id: usize,
    input: &'a Input,
    rng: Rng,
    sent: usize,
    /// Requests sent so far per kind: each kind walks the traces (and
    /// payloads) round-robin, so a cycle's work does not depend on the
    /// seed's shuffle.
    per_kind: [usize; 7],
}

impl Client<'_> {
    fn cycle(&mut self, stop: &dyn Fn() -> bool, out: &mut Vec<Sample>) -> std::io::Result<bool> {
        let mut kinds: Vec<Kind> = CYCLE
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, self.rng.below(i + 1));
        }
        for kind in kinds {
            if stop() {
                return Ok(false);
            }
            let n = self.sent;
            self.sent += 1;
            let k = self.per_kind[kind as usize];
            self.per_kind[kind as usize] += 1;
            let t = (k + self.id) % TRACES.len();
            let name = TRACES[t];
            let (method, path, body, records) = match kind {
                Kind::Ingest => {
                    let fresh = format!("ingest-{}-{n}", self.id);
                    let body = &self.input.payloads[k % self.input.payloads.len()];
                    let path = format!("/api/v1/traces/{fresh}?format=csv");
                    ("PUT", path, body.as_slice(), INGEST_RECORDS)
                }
                Kind::Replay => {
                    let path = format!("/api/v1/traces/{name}/replay?device=array&mode=open");
                    ("GET", path, &[][..], TRACE_RECORDS)
                }
                _ => {
                    let path = format!("/api/v1/traces/{name}/{}", kind.label());
                    ("GET", path, &[][..], TRACE_RECORDS)
                }
            };
            let reply = request(self.input.daemon.addr, method, &path, body)?;
            let refs = &self.input.references[t];
            let ok = match kind {
                Kind::Ingest => reply.status == 201,
                Kind::Stats => reply.status == 200 && reply.body == refs.0,
                Kind::Infer => reply.status == 200 && reply.body == refs.1,
                _ => reply.status == 200 && !reply.body.is_empty(),
            };
            out.push(Sample {
                kind,
                start: reply.start,
                connected: reply.connected,
                end: reply.end,
                status: reply.status,
                ok,
                records,
            });
            if kind == Kind::Ingest {
                let fresh = format!("/api/v1/traces/ingest-{}-{n}", self.id);
                let reply = request(self.input.daemon.addr, "DELETE", &fresh, &[])?;
                out.push(Sample {
                    kind: Kind::Delete,
                    start: reply.start,
                    connected: reply.connected,
                    end: reply.end,
                    status: reply.status,
                    ok: reply.status == 200,
                    records: 0,
                });
            }
        }
        Ok(true)
    }
}

/// Runs both clients concurrently, each for `cycles` whole cycles (or,
/// with `None`, until `deadline`).
fn drive(
    clients: &mut [Client<'_>],
    cycles: Option<usize>,
    deadline: Instant,
) -> std::io::Result<Vec<Sample>> {
    let results: Vec<std::io::Result<Vec<Sample>>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let stop = || cycles.is_none() && Instant::now() >= deadline;
                    for _ in 0..cycles.unwrap_or(usize::MAX) {
                        if !client.cycle(&stop, &mut samples)? {
                            break;
                        }
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("client panicked")))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// The daemon's per-request layer calls, timed in process on the
/// repository's files.
fn probes(input: &Input, tracer: &mut Tracer) -> std::io::Result<usize> {
    let err = std::io::Error::other;
    let mut groups = 0;
    for name in TRACES {
        let file = input.root.join("traces").join(format!("{name}.ttb"));
        let mapped = tracer
            .time("decode.mmap_open", || MmapTrace::open(&file))
            .map_err(err)?;
        let grouped = tracer.time("group", || GroupedTrace::build_columns(mapped.columns()));
        groups += grouped.group_count();
        tracer.time("infer", || {
            infer_columns(mapped.columns(), &InferenceConfig::default())
        });
        let owned = mapped.to_trace();
        tracer.time("verify", || {
            verify_injection(
                &owned,
                SimDuration::from_msecs(10),
                &VerifyConfig::default(),
            )
        });
    }
    for (i, payload) in input.payloads.iter().enumerate() {
        let name = format!("probe-{i}");
        let trace = tracer
            .time("decode.csv", || read_csv(payload.as_slice(), &name))
            .map_err(err)?;
        let mut buf = Vec::new();
        tracer
            .time("encode.ttb", || write_ttb(&trace, &mut buf))
            .map_err(err)?;
    }
    Ok(groups)
}

pub fn run(
    ctx: &Ctx,
    input: &Input,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> std::io::Result<()> {
    out.inputs = vec![
        ("traces", TRACES.len() as f64),
        ("records", (TRACES.len() * TRACE_RECORDS) as f64),
        ("csv_bytes", input.csv_bytes as f64),
        ("ingest_records", INGEST_RECORDS as f64),
    ];
    let mut clients: Vec<Client<'_>> = (0..CLIENTS)
        .map(|id| Client {
            id,
            input,
            rng: Rng(sub_seed(ctx.seed, 30 + id as u64) | 1),
            sent: 0,
            per_kind: [0; 7],
        })
        .collect();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(ctx.seconds);
    let mut samples = Vec::new();
    let mut round_ms = (Vec::new(), Vec::new());
    let mut traced_runs = Vec::new();
    let mut groups = Vec::new();
    if ctx.traced {
        while round_ms.1.is_empty() || Instant::now() < deadline {
            tracer.set_enabled(false);
            let t = Instant::now();
            samples.extend(drive(&mut clients, Some(1), deadline)?);
            round_ms.0.push(t.elapsed().as_secs_f64() * 1e3);

            tracer.set_enabled(true);
            traced_runs.push(tracer.next_run());
            let t = Instant::now();
            let round = tracer.begin("round");
            let batch = drive(&mut clients, Some(1), deadline)?;
            for s in &batch {
                let request =
                    tracer.record(&format!("serve.{}", s.kind.label()), s.start, s.end, None);
                tracer.record("serve.connect", s.start, s.connected, Some(request));
            }
            groups.push(probes(input, tracer)? as f64);
            tracer.end(round);
            round_ms.1.push(t.elapsed().as_secs_f64() * 1e3);
            samples.extend(batch);
        }
        tracer.set_enabled(false);
    } else {
        while samples.len() < MIN_REQUESTS || Instant::now() < deadline {
            let until = if samples.len() < MIN_REQUESTS {
                deadline.max(Instant::now() + Duration::from_secs(1))
            } else {
                deadline
            };
            samples.extend(drive(&mut clients, None, until)?);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let latency: Vec<f64> = ok.iter().map(|s| ms(s.start, s.end)).collect();
    let t = tail(&latency);
    out.e2e = vec![
        (
            "throughput_rec_s",
            ok.iter().map(|s| s.records).sum::<usize>() as f64 / elapsed,
        ),
        ("req_s", ok.len() as f64 / elapsed),
        ("p50_ms", p50(&latency)),
        ("tail_ms", t.value),
        (
            "peak_rss_mb",
            input.daemon.peak_rss_kib().unwrap_or(0) as f64 / 1024.0,
        ),
    ];
    out.tail = Some(t);
    if ctx.traced {
        out.layers = layer_medians(tracer, &traced_runs);
        out.layers.insert("infer.groups".into(), median(&groups));
        let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in tracer.spans() {
            if let Some(kind) = s.name.strip_prefix("serve.") {
                by_kind
                    .entry(kind)
                    .or_default()
                    .push(s.duration().as_secs_f64() * 1e3);
            }
        }
        for (kind, v) in by_kind {
            let key = if kind == "connect" {
                "serve.connect_ms".to_string()
            } else {
                format!("serve.{kind}.p50_ms")
            };
            out.layers.insert(key, median(&v));
        }
        let shed = samples.iter().filter(|s| s.status == 503).count();
        out.layers.insert("serve.shed_503".into(), shed as f64);
        out.overhead = Some(median(&round_ms.1) / median(&round_ms.0));
    }
    Ok(())
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}
