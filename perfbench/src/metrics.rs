//! The benchmark's metric tables: every name the run prints, with its
//! unit. `BENCHMARK.json` lists the same names (a test holds them equal).

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rec_s", "rec/s"),
    ("req_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("idle_freq_acc", "%"),
    ("idle_period_acc", "%"),
    ("tt_wins", "count"),
    ("tt_tintt_err_us", "us"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // tt-trace
    ("decode.csv_s", "s"),
    ("encode.csv_s", "s"),
    ("decode.mmap_open_s", "s"),
    ("encode.ttb_s", "s"),
    ("group_s", "s"),
    // tt-core
    ("infer_s", "s"),
    ("infer.groups", "count"),
    ("reconstruct.tracetracker_s", "s"),
    ("reconstruct.dynamic_s", "s"),
    ("reconstruct.fixed-th_s", "s"),
    ("reconstruct.revision_s", "s"),
    ("reconstruct.acceleration_s", "s"),
    ("verify_s", "s"),
    // tt-sim / tt-device
    ("replay.open_seq_s", "s"),
    ("replay.open_sharded_s", "s"),
    ("replay.cuts", "count"),
    ("replay.partitions", "count"),
    ("replay.ns_per_op", "ns"),
    // facade Pipeline (from its FlightLog)
    ("pipeline.reconstruct.busy_s", "s"),
    ("pipeline.reconstruct.send_wait_s", "s"),
    ("pipeline.reconstruct.recv_wait_s", "s"),
    ("pipeline.replay.busy_s", "s"),
    ("pipeline.replay.send_wait_s", "s"),
    ("pipeline.replay.recv_wait_s", "s"),
    ("pipeline.queue_high_water", "count"),
    // tt-serve, timed at the client
    ("serve.stats.p50_ms", "ms"),
    ("serve.group.p50_ms", "ms"),
    ("serve.infer.p50_ms", "ms"),
    ("serve.verify.p50_ms", "ms"),
    ("serve.replay.p50_ms", "ms"),
    ("serve.ingest.p50_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.shed_503", "count"),
    // tt-workloads and set-up
    ("setup.generate_s", "s"),
    ("setup.materialize_s", "s"),
    ("setup.ingest_s", "s"),
    ("setup.reference_s", "s"),
    // the traced run itself
    ("trace.overhead_ratio", "x"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `true` when `name` matches `[A-Za-z0-9_.-]+`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("bad name") && !valid_name("p50/ms") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = &text[text.find(&format!("\"{section}\"")).expect(section)..];
            let body = &body[..body.find(']').expect("section end")];
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, table.len(), "{section}: count");
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section}: missing {entry}");
            }
        }
    }
}
