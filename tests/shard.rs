//! Facade-level knob-invariance properties of replay: `Pipeline` replay
//! stages and the `MultiPipeline` per-stream fan-outs must be
//! bit-identical to their sequential references at every worker count.
//! Pipeline replay stages run the sequential core at every count;
//! `replay_each` and the stage-less terminals fan out across streams.
//! The worker knob trades cores for wall-clock, never results.

use tracetracker::prelude::*;

fn revived(workload: &str, n: usize, seed: u64) -> Trace {
    let entry = catalog::find(workload).expect("workload in catalog");
    let session = generate_session(workload, &entry.profile, n, seed);
    let mut old_node = presets::enterprise_hdd_2007();
    let old = session.materialize(&mut old_node, false).trace;
    let mut array = presets::intel_750_array();
    Pipeline::from_trace(old)
        .reconstruct(&mut array, TraceTracker::new())
        .collect()
        .expect("in-memory reconstruction cannot fail")
}

#[test]
fn pipeline_replay_stage_is_identical_at_every_worker_count() {
    let trace = revived("MSNFS", 800, 41);
    for mode in [
        StreamReplay::OpenLoop { time_scale: 1.0 },
        StreamReplay::ClosedLoop,
    ] {
        let mut dev = presets::intel_750_array();
        let reference = Pipeline::from_trace_ref(&trace)
            .parallel(1)
            .replay(&mut dev, mode)
            .collect()
            .unwrap();
        for workers in [0usize, 2, 4, 8] {
            let mut dev = presets::intel_750_array();
            let sharded = Pipeline::from_trace_ref(&trace)
                .parallel(workers)
                .replay(&mut dev, mode)
                .collect()
                .unwrap();
            assert_eq!(sharded, reference, "workers={workers} mode={mode:?}");
        }
    }
    tt_par::set_threads(0);
}

#[test]
fn fused_chain_with_sharded_replay_matches_materialized() {
    let entry = catalog::find("webusers").unwrap();
    let session = generate_session("webusers", &entry.profile, 600, 42);
    let mut node = presets::enterprise_hdd_2007();
    let old = session.materialize(&mut node, false).trace;

    let mut d1 = presets::intel_750_array();
    let mut r1 = presets::intel_750_array();
    let reference = Pipeline::from_trace_ref(&old)
        .parallel(1)
        .materialize()
        .reconstruct(&mut d1, TraceTracker::new())
        .replay(&mut r1, StreamReplay::OpenLoop { time_scale: 1.0 })
        .collect()
        .unwrap();

    let mut d2 = presets::intel_750_array();
    let mut r2 = presets::intel_750_array();
    let fused = Pipeline::from_trace_ref(&old)
        .parallel(4)
        .reconstruct(&mut d2, TraceTracker::new())
        .replay(&mut r2, StreamReplay::OpenLoop { time_scale: 1.0 })
        .collect()
        .unwrap();
    assert_eq!(fused, reference);
    tt_par::set_threads(0);
}

#[test]
fn replay_each_matches_single_stream_replays() {
    let traces = vec![
        revived("MSNFS", 300, 43),
        revived("webusers", 250, 44),
        revived("homes", 200, 45),
    ];
    let mode = StreamReplay::OpenLoop { time_scale: 1.0 };
    let reference: Vec<Trace> = traces
        .iter()
        .map(|t| {
            let mut dev = presets::intel_750_array();
            Pipeline::from_trace_ref(t)
                .parallel(1)
                .replay(&mut dev, mode)
                .collect()
                .unwrap()
        })
        .collect();
    for workers in [0usize, 1, 4] {
        let solos = Pipeline::from_trace_refs(&traces)
            .parallel(workers)
            .replay_each(|| Box::new(presets::intel_750_array()), mode)
            .unwrap();
        assert_eq!(solos.len(), traces.len());
        for ((outcome, expect), input) in solos.iter().zip(&reference).zip(&traces) {
            assert_eq!(&outcome.trace, expect, "workers={workers}");
            assert_eq!(outcome.outcomes.len(), input.len());
        }
    }
    tt_par::set_threads(0);
}

#[test]
fn replay_each_rejects_a_concurrent_stage() {
    let traces = vec![revived("MSNFS", 50, 46)];
    let mut dev = presets::intel_750_array();
    let err = Pipeline::from_trace_refs(&traces)
        .replay_concurrent(&mut dev, StreamReplay::ClosedLoop)
        .replay_each(
            || Box::new(presets::intel_750_array()),
            StreamReplay::ClosedLoop,
        )
        .unwrap_err();
    assert!(err.to_string().contains("replay_each"), "{err}");
}

#[test]
fn stageless_fanouts_are_identical_at_every_worker_count() {
    let traces = vec![revived("MSNFS", 200, 47), revived("webusers", 150, 48)];
    let reference = Pipeline::from_trace_refs(&traces)
        .parallel(1)
        .collect_all()
        .unwrap();
    let fanned = Pipeline::from_trace_refs(&traces)
        .parallel(4)
        .collect_all()
        .unwrap();
    assert_eq!(fanned, reference);

    let dir = std::env::temp_dir();
    let paths = [dir.join("tt_shard_ws0.ttb"), dir.join("tt_shard_ws1.csv")];
    let stats = Pipeline::from_trace_refs(&traces)
        .parallel(4)
        .write_paths(&paths)
        .unwrap();
    assert_eq!(stats.len(), 2);
    for (path, expect) in paths.iter().zip(&reference) {
        let back = Pipeline::from_path(path).collect().unwrap();
        assert_eq!(back.records(), expect.records());
        std::fs::remove_file(path).ok();
    }
    tt_par::set_threads(0);
}
