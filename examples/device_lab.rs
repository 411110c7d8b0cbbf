//! Device-model laboratory: latency and bandwidth of every preset.
//!
//! ```sh
//! cargo run --example device_lab
//! ```
//!
//! Exercises the HDD and flash-array models directly — the substrate the
//! co-evaluation runs on — and prints the microbenchmarks a storage person
//! would ask for first: random/sequential 4 KiB latency and streaming
//! bandwidth, per device. The closing summary is computed from the
//! measured table.

use tracetracker::prelude::*;

/// Mean latency of `count` operations laid out by `lba_of`.
fn latency_us(
    device: &mut dyn BlockDevice,
    op: OpType,
    sectors: u32,
    count: u64,
    lba_of: impl Fn(u64) -> u64,
) -> f64 {
    device.reset();
    let mut clock = SimInstant::ZERO;
    let mut total = SimDuration::ZERO;
    for i in 0..count {
        let out = device.service(&IoRequest::new(op, lba_of(i), sectors), clock);
        total += out.slat();
        clock = out.complete_at(clock) + SimDuration::from_msecs(1); // quiesce
    }
    total.as_usecs_f64() / count as f64
}

/// Streaming bandwidth in MB/s using back-to-back 256 KiB requests.
fn bandwidth_mb_s(device: &mut dyn BlockDevice, op: OpType) -> f64 {
    device.reset();
    let sectors = 512u32; // 256 KiB
    let count = 512u64;
    let mut clock = SimInstant::ZERO;
    for i in 0..count {
        let out = device.service(&IoRequest::new(op, i * u64::from(sectors), sectors), clock);
        clock = out.complete_at(clock);
    }
    let bytes = u64::from(sectors) * 512 * count;
    bytes as f64 / clock.as_secs_f64() / 1e6
}

/// One measured row of the table.
struct Row {
    name: &'static str,
    rand_us: f64,
    seq_us: f64,
    read_mb_s: f64,
    write_mb_s: f64,
}

/// The row maximising (or, with `lowest`, minimising) `key`.
fn extreme<'a>(rows: &'a [Row], key: impl Fn(&Row) -> f64, lowest: bool) -> &'a Row {
    let pick = |a: &'a Row, b: &'a Row| {
        let better = if lowest {
            key(b) < key(a)
        } else {
            key(b) > key(a)
        };
        if better {
            b
        } else {
            a
        }
    };
    rows.iter()
        .reduce(pick)
        .expect("the registry lists devices")
}

fn main() {
    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>12}",
        "device", "4K rand read", "4K seq read", "read MB/s", "write MB/s"
    );
    // One row per device in the shared name→device registry — the same
    // list the CLI's `--device` flag resolves against.
    let mut rows = Vec::new();
    for &name in presets::names() {
        let mut device = presets::by_name(name).expect("registry name resolves");
        let device = device.as_mut();
        let row = Row {
            name,
            rand_us: latency_us(device, OpType::Read, 8, 200, |i| {
                (i * 7_919_999 + 13) % 400_000_000
            }),
            seq_us: latency_us(device, OpType::Read, 8, 200, |i| 1_000_000 + i * 8),
            read_mb_s: bandwidth_mb_s(device, OpType::Read),
            write_mb_s: bandwidth_mb_s(device, OpType::Write),
        };
        println!(
            "{:<10} {:>12.0}us {:>12.1}us {:>12.0} {:>12.0}",
            row.name, row.rand_us, row.seq_us, row.read_mb_s, row.write_mb_s
        );
        rows.push(row);
    }

    // The conclusions below are read off the table, not assumed.
    let slow = extreme(&rows, |r| r.rand_us, false);
    let fast = extreme(&rows, |r| r.rand_us, true);
    println!(
        "\nRandom 4 KiB reads: {:.0}us on {} vs {:.0}us on {} ({:.0}x apart).",
        slow.rand_us,
        slow.name,
        fast.rand_us,
        fast.name,
        slow.rand_us / fast.rand_us
    );
    let reader = extreme(&rows, |r| r.read_mb_s, false);
    let writer = extreme(&rows, |r| r.write_mb_s, false);
    println!(
        "Back-to-back 256 KiB requests, one outstanding: best read {:.0} MB/s ({}), \
         best write {:.0} MB/s ({}).",
        reader.read_mb_s, reader.name, writer.write_mb_s, writer.name
    );
    if let Some(array) = rows.iter().find(|r| r.name == "array") {
        println!(
            "At that queue depth the array reaches {:.0}% of the paper's 9 GB/s read \
             and {:.0}% of its 4 GB/s write.",
            array.read_mb_s / 9_000.0 * 100.0,
            array.write_mb_s / 4_000.0 * 100.0
        );
    }
}
