//! blktrace-style trace collection from replay events.

use tt_device::{IoRequest, ServiceOutcome};
use tt_trace::time::SimInstant;
use tt_trace::{BlockRecord, ServiceTiming, Trace, TraceMeta};

/// Assembles a [`Trace`] from replay observations, the way `blktrace`
/// assembles one from kernel events (paper §IV: "we collect the new block
/// trace using blktrace").
///
/// Each observation corresponds to the three blktrace actions:
/// * **Q** — block-layer arrival: the record's `arrival`;
/// * **D** — driver issue: `arrival + queue_wait`;
/// * **C** — completion: issue + `Tcdel` + `Tsdev`.
///
/// Device-side timing (D/C) is attached only when `record_device_timing` is
/// set — cleared, the collector produces the paper's "`Tsdev`-unknown"
/// trace class (FIU-style, Q events only).
///
/// # Examples
///
/// ```
/// use tt_device::{IoRequest, ServiceOutcome};
/// use tt_sim::Collector;
/// use tt_trace::{time::{SimDuration, SimInstant}, OpType};
///
/// let mut col = Collector::new(true);
/// let req = IoRequest::new(OpType::Read, 0, 8);
/// let out = ServiceOutcome::new(
///     SimDuration::ZERO,
///     SimDuration::from_usecs(10),
///     SimDuration::from_usecs(90),
/// );
/// col.observe(SimInstant::from_usecs(5), &req, &out);
/// let trace = col.finish("demo");
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.get(0).unwrap().device_time().unwrap().as_usecs_f64(), 100.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Collector {
    records: Vec<BlockRecord>,
    record_device_timing: bool,
}

impl Collector {
    /// Creates a collector; `record_device_timing` selects whether D/C
    /// events (i.e. [`ServiceTiming`]) are kept.
    #[must_use]
    pub fn new(record_device_timing: bool) -> Self {
        Collector {
            records: Vec::new(),
            record_device_timing,
        }
    }

    /// Builds the blktrace-style record for one serviced request: `Q` at
    /// `arrival`, and (when `with_timing`) `D` at `arrival + queue_wait`,
    /// `C` at issue + `Tcdel` + `Tsdev`.
    ///
    /// This is the one place replay observations become [`BlockRecord`]s —
    /// [`Collector::observe`] and the streaming replay paths
    /// ([`replay_into`](crate::replay_into) and friends) both call it, so
    /// collected and streamed records are identical by construction.
    #[must_use]
    pub fn record_for(
        arrival: SimInstant,
        request: &IoRequest,
        outcome: &ServiceOutcome,
        with_timing: bool,
    ) -> BlockRecord {
        let mut rec = BlockRecord::new(arrival, request.lba, request.sectors, request.op);
        if with_timing {
            let issue = arrival + outcome.queue_wait;
            rec = rec.with_timing(ServiceTiming::new(issue, issue + outcome.slat()));
        }
        rec
    }

    /// Records one serviced request.
    ///
    /// # Panics
    ///
    /// Panics if `arrival` precedes the previously observed arrival —
    /// replays emit requests in issue order.
    pub fn observe(&mut self, arrival: SimInstant, request: &IoRequest, outcome: &ServiceOutcome) {
        if let Some(last) = self.records.last() {
            assert!(
                arrival >= last.arrival,
                "observations must arrive in order ({arrival} after {})",
                last.arrival
            );
        }
        self.records.push(Collector::record_for(
            arrival,
            request,
            outcome,
            self.record_device_timing,
        ));
    }

    /// Number of observations so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Finalises the trace.
    #[must_use]
    pub fn finish(self, name: &str) -> Trace {
        Trace::from_records(
            TraceMeta::named(name).with_source("tt-sim collector"),
            self.records,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_trace::time::SimDuration;
    use tt_trace::OpType;

    fn outcome(queue_us: u64, cdel_us: u64, sdev_us: u64) -> ServiceOutcome {
        ServiceOutcome::new(
            SimDuration::from_usecs(queue_us),
            SimDuration::from_usecs(cdel_us),
            SimDuration::from_usecs(sdev_us),
        )
    }

    #[test]
    fn records_q_d_c_semantics() {
        let mut col = Collector::new(true);
        let req = IoRequest::new(OpType::Write, 100, 16);
        col.observe(SimInstant::from_usecs(50), &req, &outcome(5, 10, 85));
        let trace = col.finish("t");
        let rec = trace.get(0).unwrap();
        assert_eq!(rec.arrival, SimInstant::from_usecs(50)); // Q
        let timing = rec.timing.unwrap();
        assert_eq!(timing.issue, SimInstant::from_usecs(55)); // D = Q + queue
        assert_eq!(timing.complete, SimInstant::from_usecs(150)); // C
    }

    #[test]
    fn timing_suppressed_when_disabled() {
        let mut col = Collector::new(false);
        let req = IoRequest::new(OpType::Read, 0, 8);
        col.observe(SimInstant::ZERO, &req, &outcome(0, 10, 90));
        let trace = col.finish("t");
        assert!(trace.get(0).unwrap().timing.is_none());
        assert!(!trace.has_device_timing());
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_observation_panics() {
        let mut col = Collector::new(false);
        let req = IoRequest::new(OpType::Read, 0, 8);
        col.observe(SimInstant::from_usecs(10), &req, &outcome(0, 1, 1));
        col.observe(SimInstant::from_usecs(5), &req, &outcome(0, 1, 1));
    }

    #[test]
    fn len_and_empty_track_observations() {
        let mut col = Collector::new(false);
        assert!(col.is_empty());
        col.observe(
            SimInstant::ZERO,
            &IoRequest::new(OpType::Read, 0, 8),
            &outcome(0, 1, 1),
        );
        assert_eq!(col.len(), 1);
        assert!(!col.is_empty());
    }
}
