//! Golden replay digests: the device models and the replay core must not
//! change a single output bit without this test being re-recorded on
//! purpose.
//!
//! Each case replays (or reconstructs) a seeded 20k-record MSNFS trace and
//! folds every output record — arrival, LBA, sectors, op, and the D/C
//! timing when recorded — plus (for replays) every service decomposition
//! and the makespan into a 64-bit FNV-1a digest.
//! The expected digests were recorded before the table-driven flash kernel
//! landed; a performance change that alters any of them altered the
//! simulated device, not just its speed.

use std::sync::OnceLock;

use tracetracker::prelude::*;

/// Input size of every case.
const REQUESTS: usize = 20_000;
/// Generator seed of the input trace.
const SEED: u64 = 0x60_1DE7;

/// `(case, digest)` for `replay` on each device × loop mode × timing.
/// `timing` means the input trace carries device timing **and** the
/// replay records it.
const REPLAY_GOLDEN: &[(&str, u64)] = &[
    ("hdd/open/timing=false", 0xc82b129140e7cb01),
    ("hdd/open/timing=true", 0x0b424c53f526e5f2),
    ("hdd/closed/timing=false", 0x342b09a7a312bad4),
    ("hdd/closed/timing=true", 0xd8be9825c2ef60b1),
    ("ssd/open/timing=false", 0xe41327d9ab578292),
    ("ssd/open/timing=true", 0x0a46737819bea108),
    ("ssd/closed/timing=false", 0x28784fb7678332d0),
    ("ssd/closed/timing=true", 0x31199cdc18f8798f),
    ("array/open/timing=false", 0x6116f5071e637318),
    ("array/open/timing=true", 0x465090bd97a3f518),
    ("array/closed/timing=false", 0xa5d51819d1ce8c61),
    ("array/closed/timing=true", 0xfb178e76b19e48ad),
];

/// `(method, digest)` for each reconstruction method onto `array`.
const RECONSTRUCT_GOLDEN: &[(&str, u64)] = &[
    ("TraceTracker", 0xa9fbb7dfe6eb064f),
    ("Dynamic", 0x5ca2706c0fc3c138),
    ("Fixed-th", 0xa7cc59e177c359e3),
    ("Revision", 0x8b3ac20bcae20e6a),
    ("Acceleration", 0xebadc83699d5c18b),
];

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of a trace's records (and an extra trailing word).
fn digest(trace: &Trace, extra: u64) -> u64 {
    let mut h = Fnv::new();
    h.word(trace.len() as u64);
    for rec in trace.iter_records() {
        h.word(rec.arrival.as_nanos());
        h.word(rec.lba);
        h.word(u64::from(rec.sectors));
        h.word(u64::from(rec.op.is_write()));
        match rec.timing {
            Some(t) => {
                h.word(1);
                h.word(t.issue.as_nanos());
                h.word(t.complete.as_nanos());
            }
            None => h.word(0),
        }
    }
    h.word(extra);
    h.0
}

/// The seeded input trace, materialised on the OLD-node disk with
/// (`timed`) or without device timing.
fn input(timed: bool) -> &'static Trace {
    static TIMED: OnceLock<Trace> = OnceLock::new();
    static UNTIMED: OnceLock<Trace> = OnceLock::new();
    let cell = if timed { &TIMED } else { &UNTIMED };
    cell.get_or_init(|| {
        let entry = catalog::find("MSNFS").expect("workload in catalog");
        let session = generate_session("MSNFS", &entry.profile, REQUESTS, SEED);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, timed).trace
    })
}

/// Compares `(case, actual)` pairs against `golden`, printing every
/// actual digest in the constant's own syntax on mismatch so a deliberate
/// model change can be re-recorded by copying the output.
fn check(label: &str, golden: &[(&str, u64)], actual: &[(String, u64)]) {
    let expected: Vec<(String, u64)> = golden.iter().map(|&(c, d)| (c.to_string(), d)).collect();
    if expected != actual {
        let mut listing = String::new();
        for (case, d) in actual {
            listing.push_str(&format!("    (\"{case}\", 0x{d:016x}),\n"));
        }
        panic!("{label} digests changed; actual:\n{listing}");
    }
}

#[test]
fn replay_digests_match_golden() {
    let mut actual = Vec::new();
    for device in ["hdd", "ssd", "array"] {
        for closed in [false, true] {
            for timed in [false, true] {
                let old = input(timed);
                let config = ReplayConfig {
                    record_device_timing: timed,
                    ..ReplayConfig::default()
                };
                let schedule = if closed {
                    Schedule::closed_loop(old)
                } else {
                    Schedule::open_loop(old, 1.0)
                };
                let mut dev = presets::by_name(device).expect("preset");
                let out = replay(&mut *dev, &schedule, "golden", config);

                // The sink-streamed and record-source-streamed paths run
                // the same core and must agree with the schedule replay.
                let mut dev = presets::by_name(device).expect("preset");
                let mut sink = TraceSink::new(TraceMeta::named("golden"));
                let ops = schedule.ops().iter().copied();
                replay_into(&mut *dev, ops, config, &mut sink, 997).expect("in-memory replay");
                let label = format!("{device} closed={closed} timing={timed}");
                assert_eq!(sink.into_trace().columns(), out.trace.columns(), "{label}");
                let style = if closed {
                    StreamReplay::ClosedLoop
                } else {
                    StreamReplay::OpenLoop { time_scale: 1.0 }
                };
                let mut dev = presets::by_name(device).expect("preset");
                let mut streamed = TraceSink::new(TraceMeta::named("golden"));
                let mut source = tracetracker::trace::sink::TraceSource::new(old);
                replay_source_into(&mut *dev, &mut source, style, 313, config, &mut streamed)
                    .expect("in-memory replay");
                assert_eq!(
                    streamed.into_trace().columns(),
                    out.trace.columns(),
                    "{label}"
                );

                // Fold every service decomposition in too, so cases whose
                // records carry no timing still pin the device model.
                let mut h = Fnv::new();
                for o in &out.outcomes {
                    h.word(o.queue_wait.as_nanos());
                    h.word(o.channel_delay.as_nanos());
                    h.word(o.device_time.as_nanos());
                }
                h.word(out.makespan.as_nanos());
                let mode = if closed { "closed" } else { "open" };
                let case = format!("{device}/{mode}/timing={timed}");
                actual.push((case, digest(&out.trace, h.0)));
            }
        }
    }
    check("replay", REPLAY_GOLDEN, &actual);
}

#[test]
fn reconstruction_digests_match_golden() {
    let old = input(true);
    let methods: [Box<dyn Reconstructor>; 5] = [
        Box::new(TraceTracker::new()),
        Box::new(Dynamic::new()),
        Box::new(FixedThreshold::paper_default()),
        Box::new(Revision::new()),
        Box::new(Acceleration::x100()),
    ];
    let mut actual = Vec::new();
    for method in &methods {
        let mut dev = presets::intel_750_array();
        let new = method.reconstruct(old, &mut dev);
        actual.push((method.name().to_string(), digest(&new, 0)));
    }
    check("reconstruction", RECONSTRUCT_GOLDEN, &actual);
}
