//! Per-pair session state: a bounded ingress queue with load shedding.
//!
//! One [`PairSession`] exists per directed vehicle pair (receiver,
//! sender). Its job is to absorb whatever the link delivers — stale,
//! out-of-order, duplicated, or simply too much — without ever blocking
//! the link thread, and to hand the compute pool only frames still worth
//! recovering. Everything it refuses is *counted*, never silently lost:
//! the conservation invariant
//!
//! ```text
//! submitted == processed + shed_total + queued
//! ```
//!
//! holds after every operation, and the load-shedding proptest pins it
//! under arbitrary interleavings.
//!
//! # Shedding policy
//!
//! At admission ([`PairSession::admit`]), in order:
//!
//! 1. **stale** — the frame's timestamp is older than `now − staleness`;
//! 2. **duplicate** — its sequence number equals the newest admitted one;
//! 3. **superseded** — its sequence number is below the newest admitted
//!    one (a late reordering the pipeline has already moved past);
//! 4. **overflow** — the queue is at capacity: the *oldest queued* frame
//!    is shed to make room, because the freshest pose estimate is always
//!    the most valuable one.
//!
//! At drain ([`PairSession::drain_due`]), staleness is re-checked against
//! the drain-time clock: frames that aged out while queued are shed as
//! stale rather than processed.

use bb_align::{PerceptionFrame, PoseTracker, Recovery};
use bba_geometry::Iso2;
use std::collections::VecDeque;
use std::sync::Arc;

/// Identifies one directed pairwise session: `receiver` recovers the pose
/// of `sender` from the frames `sender` transmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairId {
    /// The vehicle doing the recovering (the ego side).
    pub receiver: u32,
    /// The vehicle whose frames arrive over the link.
    pub sender: u32,
}

impl PairId {
    /// Creates a pair id.
    pub fn new(receiver: u32, sender: u32) -> Self {
        PairId { receiver, sender }
    }
}

/// One frame submission: the sender's perception frame plus the
/// receiver's own frame at the matching instant, ready for pairwise
/// recovery. Payloads are `Arc`-shared so a fleet fanning one frame out
/// to many sessions does not copy point clouds.
#[derive(Debug, Clone)]
pub struct FrameSubmission {
    /// Sender-side sequence number (monotonic per session on a healthy
    /// link; arbitrary under reordering/duplication).
    pub seq: u64,
    /// Capture timestamp (s, service clock).
    pub timestamp: f64,
    /// The receiver's own perception frame.
    pub ego: Arc<PerceptionFrame>,
    /// The sender's transmitted perception frame.
    pub other: Arc<PerceptionFrame>,
}

/// Session tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Maximum frames queued per session; an admission beyond this sheds
    /// the oldest queued frame (overflow).
    pub queue_capacity: usize,
    /// Maximum age (s) of a frame worth recovering; older frames are shed
    /// at admission and again at drain.
    pub staleness: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { queue_capacity: 4, staleness: 1.0 }
    }
}

impl SessionConfig {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on a zero queue capacity or non-positive staleness bound.
    pub fn validate(&self) {
        assert!(self.queue_capacity > 0, "queue capacity must be at least 1");
        assert!(self.staleness > 0.0, "staleness bound must be positive");
    }
}

/// Why (or that) an admission was accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Queued for the next batch.
    Admitted,
    /// Older than the staleness bound at arrival.
    ShedStale,
    /// Same sequence number as the newest admitted frame.
    ShedDuplicate,
    /// Sequence number below the newest admitted frame.
    ShedSuperseded,
    /// Place-descriptor similarity for the pair fell below the service
    /// gate: the vehicles almost certainly do not see the same scene, so
    /// the frame was refused before it reached the session queue.
    ShedGated,
}

/// Per-session accounting. All counters are cumulative over the session's
/// lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Frames offered to [`PairSession::admit`].
    pub submitted: u64,
    /// Frames handed to the compute pool by [`PairSession::drain_due`].
    pub processed: u64,
    /// Frames shed for age (at admission or at drain).
    pub shed_stale: u64,
    /// Frames shed as exact sequence duplicates.
    pub shed_duplicate: u64,
    /// Frames shed because a newer sequence number was already admitted.
    pub shed_superseded: u64,
    /// Frames shed to make room when the queue was full.
    pub shed_overflow: u64,
}

impl SessionStats {
    /// Total shed frames across all shed classes.
    pub fn shed_total(&self) -> u64 {
        self.shed_stale + self.shed_duplicate + self.shed_superseded + self.shed_overflow
    }
}

/// Mutable state of one pairwise session.
#[derive(Debug)]
pub struct PairSession {
    config: SessionConfig,
    queue: VecDeque<FrameSubmission>,
    /// Newest sequence number ever admitted (duplicate/superseded gate).
    newest_seq: Option<u64>,
    stats: SessionStats,
    /// Temporal warm-start tracker, fed by successful recoveries for this
    /// pair; `None` when warm starts are disabled service-wide.
    tracker: Option<PoseTracker>,
}

impl PairSession {
    /// An empty session without a warm-start tracker.
    pub fn new(config: SessionConfig) -> Self {
        config.validate();
        PairSession {
            config,
            queue: VecDeque::new(),
            newest_seq: None,
            stats: SessionStats::default(),
            tracker: None,
        }
    }

    /// An empty session carrying a per-pair warm-start tracker.
    pub fn with_tracker(config: SessionConfig) -> Self {
        PairSession { tracker: Some(PoseTracker::new()), ..Self::new(config) }
    }

    /// The tracker's confidence-gated pose prediction at `time`, if the
    /// session tracks poses and the track is still trustworthy.
    pub fn warm_prediction(&self, time: f64) -> Option<Iso2> {
        self.tracker.as_ref().and_then(|t| t.warm_prediction(time))
    }

    /// Feeds a completed recovery into the session's tracker. Only
    /// recoveries clearing the paper's success criterion train the track:
    /// a failed recovery must never teach the warm path a pose it would
    /// then re-verify against itself.
    pub fn observe_recovery(&mut self, time: f64, recovery: &Recovery) {
        if let Some(tracker) = &mut self.tracker {
            if recovery.is_success() {
                tracker.update(time, recovery);
            }
        }
    }

    /// Offers a frame. Never blocks: the frame is queued or shed in O(1)
    /// plus at most one overflow eviction.
    pub fn admit(&mut self, frame: FrameSubmission, now: f64) -> AdmitOutcome {
        self.stats.submitted += 1;
        if now - frame.timestamp > self.config.staleness {
            self.stats.shed_stale += 1;
            return AdmitOutcome::ShedStale;
        }
        if let Some(newest) = self.newest_seq {
            if frame.seq == newest {
                self.stats.shed_duplicate += 1;
                return AdmitOutcome::ShedDuplicate;
            }
            if frame.seq < newest {
                self.stats.shed_superseded += 1;
                return AdmitOutcome::ShedSuperseded;
            }
        }
        self.newest_seq = Some(frame.seq);
        if self.queue.len() >= self.config.queue_capacity {
            // Shed the oldest queued frame: the new one is fresher.
            self.queue.pop_front();
            self.stats.shed_overflow += 1;
        }
        self.queue.push_back(frame);
        AdmitOutcome::Admitted
    }

    /// Pops up to `max` frames still fresh at `now`, oldest first (so
    /// downstream consumers see sequence order). Frames that aged past
    /// the staleness bound while queued are shed, not returned. The
    /// returned frames count as processed.
    pub fn drain_due(&mut self, now: f64, max: usize) -> Vec<FrameSubmission> {
        let mut out = Vec::new();
        while out.len() < max {
            let Some(front) = self.queue.front() else { break };
            if now - front.timestamp > self.config.staleness {
                self.queue.pop_front();
                self.stats.shed_stale += 1;
                continue;
            }
            out.push(self.queue.pop_front().expect("front checked above"));
        }
        self.stats.processed += out.len() as u64;
        out
    }

    /// Current queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Cumulative accounting.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The conservation invariant every operation preserves; exposed so
    /// tests (and debug assertions) can pin it.
    pub fn is_conserved(&self) -> bool {
        let s = &self.stats;
        s.submitted == s.processed + s.shed_total() + self.queue.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_align::{BbAlign, BbAlignConfig};

    fn empty_frame() -> Arc<PerceptionFrame> {
        let engine = BbAlign::new(BbAlignConfig::test_small());
        Arc::new(engine.frame_from_parts(std::iter::empty(), std::iter::empty()))
    }

    fn submission(frame: &Arc<PerceptionFrame>, seq: u64, timestamp: f64) -> FrameSubmission {
        FrameSubmission { seq, timestamp, ego: Arc::clone(frame), other: Arc::clone(frame) }
    }

    fn session(capacity: usize, staleness: f64) -> PairSession {
        PairSession::new(SessionConfig { queue_capacity: capacity, staleness })
    }

    #[test]
    fn fresh_frames_are_admitted_in_order() {
        let f = empty_frame();
        let mut s = session(4, 1.0);
        for seq in 0..3 {
            assert_eq!(s.admit(submission(&f, seq, 0.0), 0.1), AdmitOutcome::Admitted);
        }
        assert_eq!(s.queue_len(), 3);
        let drained = s.drain_due(0.2, 10);
        assert_eq!(drained.iter().map(|d| d.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(s.is_conserved());
    }

    #[test]
    fn stale_frames_are_shed_at_admission() {
        let f = empty_frame();
        let mut s = session(4, 1.0);
        assert_eq!(s.admit(submission(&f, 0, 0.0), 2.0), AdmitOutcome::ShedStale);
        assert_eq!(s.stats().shed_stale, 1);
        assert_eq!(s.queue_len(), 0);
        assert!(s.is_conserved());
    }

    #[test]
    fn duplicates_and_reordered_frames_are_shed() {
        let f = empty_frame();
        let mut s = session(4, 10.0);
        assert_eq!(s.admit(submission(&f, 5, 0.0), 0.0), AdmitOutcome::Admitted);
        assert_eq!(s.admit(submission(&f, 5, 0.0), 0.0), AdmitOutcome::ShedDuplicate);
        assert_eq!(s.admit(submission(&f, 3, 0.0), 0.0), AdmitOutcome::ShedSuperseded);
        assert_eq!(s.admit(submission(&f, 6, 0.0), 0.0), AdmitOutcome::Admitted);
        let st = s.stats();
        assert_eq!((st.shed_duplicate, st.shed_superseded), (1, 1));
        assert!(s.is_conserved());
    }

    #[test]
    fn overflow_sheds_the_oldest_queued_frame() {
        let f = empty_frame();
        let mut s = session(2, 10.0);
        for seq in 0..4 {
            assert_eq!(s.admit(submission(&f, seq, 0.0), 0.0), AdmitOutcome::Admitted);
        }
        assert_eq!(s.queue_len(), 2);
        assert_eq!(s.stats().shed_overflow, 2);
        // The freshest two survive.
        let seqs: Vec<u64> = s.drain_due(0.0, 10).iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
        assert!(s.is_conserved());
    }

    #[test]
    fn frames_aging_out_in_the_queue_are_shed_at_drain() {
        let f = empty_frame();
        let mut s = session(4, 1.0);
        s.admit(submission(&f, 0, 0.0), 0.1);
        s.admit(submission(&f, 1, 2.0), 2.1);
        // At t=2.1 the seq-0 frame (stamped 0.0) is 2.1 s old — stale.
        let drained = s.drain_due(2.1, 10);
        assert_eq!(drained.iter().map(|d| d.seq).collect::<Vec<_>>(), vec![1]);
        assert_eq!(s.stats().shed_stale, 1);
        assert_eq!(s.stats().processed, 1);
        assert!(s.is_conserved());
    }

    #[test]
    fn drain_respects_the_batch_bound() {
        let f = empty_frame();
        let mut s = session(8, 10.0);
        for seq in 0..6 {
            s.admit(submission(&f, seq, 0.0), 0.0);
        }
        assert_eq!(s.drain_due(0.0, 2).len(), 2);
        assert_eq!(s.queue_len(), 4);
        assert!(s.is_conserved());
    }
}
