//! Compare all five reconstruction methods against the real target system.
//!
//! ```sh
//! cargo run --example method_comparison
//! ```
//!
//! Reproduces the paper's §V "Comparisons" narrative on one workload: the
//! NEW trace (the same user session actually run on the flash array) is the
//! reference; each reconstruction method transforms the OLD trace and is
//! scored on how close its inter-arrival times land.

use tracetracker::core::report::{GapBreakdown, GapStats};
use tracetracker::prelude::*;

fn main() {
    // Ground truth: one session, materialised on both storage generations.
    let entry = catalog::find("webusers").expect("webusers in catalog");
    let session = generate_session("webusers", &entry.profile, 4_000, 7);

    let mut old_node = presets::enterprise_hdd_2007();
    let old = session.materialize(&mut old_node, false).trace;

    let mut new_node = presets::intel_750_array();
    let reference = session.materialize(&mut new_node, false).trace;

    println!("workload      : webusers ({} requests)", old.len());
    println!("OLD (hdd) span: {}", old.span());
    println!("NEW (ssd) span: {}\n", reference.span());

    let methods: Vec<Box<dyn Reconstructor>> = vec![
        Box::new(Acceleration::x100()),
        Box::new(Revision::new()),
        Box::new(FixedThreshold::paper_default()),
        Box::new(Dynamic::new()),
        Box::new(TraceTracker::new()),
    ];

    println!(
        "{:<14} {:>12} {:>9} {:>9} {:>9} {:>14}",
        "method", "span", "shorter", "equal", "longer", "mean |dTintt|"
    );
    let mut closest: Option<(&str, SimDuration)> = None;
    for method in &methods {
        let mut device = presets::intel_750_array();
        let reconstructed = method.reconstruct(&old, &mut device);
        let breakdown = GapBreakdown::compare(&reconstructed, &reference, 0.10);
        let stats = GapStats::compare(&reconstructed, &reference);
        println!(
            "{:<14} {:>12} {:>8.1}% {:>8.1}% {:>8.1}% {:>14}",
            method.name(),
            reconstructed.span().to_string(),
            breakdown.shorter * 100.0,
            breakdown.equal * 100.0,
            breakdown.longer * 100.0,
            stats.mean_abs.to_string(),
        );
        if closest.is_none_or(|(_, best)| stats.mean_abs < best) {
            closest = Some((method.name(), stats.mean_abs));
        }
    }

    if let Some((name, err)) = closest {
        println!("\nclosest to NEW: {name} (mean |dTintt| {err})");
    }
    println!(
        "Expected shape (paper Fig 3 / Fig 13): Acceleration and Revision \
         mostly 'shorter' (they lose idle)."
    );
}
