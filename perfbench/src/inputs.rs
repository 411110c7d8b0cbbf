//! Seeded input generation and output digests.

use std::io::Read;
use std::path::Path;

use tracetracker::device::presets;
use tracetracker::trace::format::csv::write_csv;
use tracetracker::trace::Trace;
use tracetracker::workloads::{catalog, generate_session, WorkloadSet};

use crate::spans::Tracer;

/// Derives the seed of sub-input `index` from the run's seed
/// (SplitMix64), so inputs never share a stream.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An OLD trace of `workload`: `requests` requests of a seeded session
/// materialised on the 2007 HDD, with device timing when the workload's
/// collection recorded it.
pub fn old_trace(workload: &str, requests: usize, seed: u64, tracer: &mut Tracer) -> Trace {
    let entry = catalog::find(workload).expect("benchmark workloads are catalog names");
    let session = tracer.time("setup.generate", || {
        generate_session(workload, &entry.profile, requests, seed)
    });
    let timing = matches!(entry.set, WorkloadSet::Msps | WorkloadSet::Msrc);
    tracer.time("setup.materialize", || {
        session
            .materialize(&mut presets::enterprise_hdd_2007(), timing)
            .trace
    })
}

/// `trace` as CSV text.
pub fn csv_bytes(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    write_csv(trace, &mut out).expect("writing CSV to memory cannot fail");
    out
}

/// FNV-1a digest of a file's bytes.
pub fn file_digest(path: &Path) -> std::io::Result<u64> {
    let mut file = std::fs::File::open(path)?;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = vec![0u8; 1 << 20];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(digest);
        }
        for &b in &buf[..n] {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let mut tr = Tracer::new(false);
        for workload in ["MSNFS", "webusers"] {
            let a = csv_bytes(&old_trace(workload, 2_000, 7, &mut tr));
            let b = csv_bytes(&old_trace(workload, 2_000, 7, &mut tr));
            let c = csv_bytes(&old_trace(workload, 2_000, 8, &mut tr));
            assert_eq!(a, b, "{workload}: same seed, same bytes");
            assert_ne!(a, c, "{workload}: another seed, other bytes");
        }
        let cases = |seed| {
            crate::sweep::setup(seed, 300, &mut Tracer::new(false))
                .iter()
                .map(|c| (csv_bytes(&c.old), csv_bytes(&c.new)))
                .collect::<Vec<_>>()
        };
        assert_eq!(cases(3), cases(3));
    }

    #[test]
    fn sub_seeds_differ() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
    }
}
