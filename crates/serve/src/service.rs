//! The pose service: batched admission, parallel recovery, full
//! observability.
//!
//! [`PoseService`] owns every pair's session, in one map ordered by pair
//! id behind one lock, and one shared [`BbAlign`] engine. The engine is
//! `&self` throughout, so its bounded `FftWorkspace` / stage-1 scratch
//! pools (and the process-wide FFT plan cache beneath them) are
//! automatically *service-wide*: a thousand sessions share one fixed set
//! of scratch buffers instead of allocating per pair.
//!
//! The service splits work into two non-blocking halves:
//!
//! * [`PoseService::submit`] — called from link threads; sheds or queues
//!   one frame under the session lock and returns immediately;
//! * [`PoseService::process_batch`] — called from the compute loop;
//!   drains one due frame per session in `(pair, seq)` order, groups the
//!   items that share a sending frame and fans the groups out over
//!   `bba_par::par_map`. Each work item derives its RNG from
//!   `(service seed, pair, seq)`, so results are bit-identical at any
//!   thread count and independent of arrival interleaving — the same
//!   determinism contract the rest of the workspace pins.

use crate::session::{AdmitOutcome, FrameSubmission, PairId, PairSession, SessionConfig};
use bb_align::{BbAlign, RecoverError, Recovery, RecoveryPath, RecoveryRequest};
use bba_obs::Recorder;
use bba_place::{PlaceDescriptor, PlaceIndex, PlaceMatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Frames drained from one session per batch. One keeps every session's
/// latency bounded under overload: a backlogged pair cannot crowd the
/// others out of a batch, and its queue sheds the oldest frames instead.
const SESSION_FRAMES_PER_BATCH: usize = 1;

/// Candidate-pair gating policy: refuse pairwise recovery when the place
/// descriptors say the two vehicles do not see the same scene.
///
/// The gate **fails open**: a pair where either side has no descriptor
/// yet (no frame seen, or descriptors simply not published) is admitted
/// normally, so enabling gating can only *remove* hopeless work, never
/// starve a legitimate pair of its first recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Minimum descriptor cosine similarity (in `[0, 1]`) for a pair to
    /// be admitted. Pairs strictly below are shed as
    /// [`AdmitOutcome::ShedGated`].
    pub min_similarity: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig { min_similarity: 0.5 }
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Per-session queue/staleness policy.
    pub session: SessionConfig,
    /// Seed mixed into every work item's RNG.
    pub seed: u64,
    /// Maintain a per-pair pose tracker and try the temporal warm start
    /// ([`BbAlign::recover_warm`]) before the cold pipeline. Predictions
    /// are read before the batch fans out and tracker updates are applied
    /// after it completes, in `(pair, seq)` order, so batches stay
    /// bit-identical at any thread count.
    pub warm_start: bool,
    /// Place-descriptor gating at admission; `None` (the default) admits
    /// every pair exactly as before gating existed.
    pub gate: Option<GateConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { session: SessionConfig::default(), seed: 0, warm_start: true, gate: None }
    }
}

/// The result of one batched recovery.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Which session produced it.
    pub pair: PairId,
    /// The frame's sequence number.
    pub seq: u64,
    /// The frame's capture timestamp (s).
    pub timestamp: f64,
    /// Wall-clock recovery latency (ms) — diagnostics only, never fed
    /// back into results. Items recovered together because they share a
    /// sending frame (see [`PoseService::process_batch`]) each get their
    /// group's wall time divided by the group's size, so the latencies of
    /// a batch sum to its recovery work and stay a per-recovery cost.
    pub latency_ms: f64,
    /// Which route produced the result: verified warm start, cold
    /// fallback seeded by a losing prediction, or plain cold recovery.
    pub path: RecoveryPath,
    /// The recovery, or why it failed.
    pub result: Result<Recovery, RecoverError>,
}

/// Service-wide accounting, folded over every live session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Live sessions.
    pub sessions: u64,
    /// Frames offered across all sessions.
    pub submitted: u64,
    /// Frames handed to the compute pool.
    pub processed: u64,
    /// Frames shed for age.
    pub shed_stale: u64,
    /// Frames shed as duplicates.
    pub shed_duplicate: u64,
    /// Frames shed as superseded reorderings.
    pub shed_superseded: u64,
    /// Frames shed by queue overflow.
    pub shed_overflow: u64,
    /// Frames refused by the place-descriptor gate before reaching any
    /// session.
    pub shed_gated: u64,
    /// Frames currently queued.
    pub queued: u64,
}

impl ServiceStats {
    /// Total shed frames.
    pub fn shed_total(&self) -> u64 {
        self.shed_stale
            + self.shed_duplicate
            + self.shed_superseded
            + self.shed_overflow
            + self.shed_gated
    }

    /// The service-wide conservation invariant: every submitted frame is
    /// processed, shed (counted once), or still queued.
    pub fn is_conserved(&self) -> bool {
        self.submitted == self.processed + self.shed_total() + self.queued
    }
}

/// A fleet-scale pose service multiplexing pairwise recovery sessions.
#[derive(Debug)]
pub struct PoseService {
    engine: Arc<BbAlign>,
    /// Every pair's session, created on first touch. Ordered by pair id,
    /// so a drain of at most one frame per session comes out in
    /// `(pair, seq)` order without a sort.
    sessions: Mutex<BTreeMap<PairId, PairSession>>,
    config: ServiceConfig,
    obs: Recorder,
    /// Latest place descriptor per vehicle, shared across every session.
    /// RwLock because `submit` only reads (similarity lookups) while
    /// descriptor publication writes; contention is one dot product long.
    place: RwLock<PlaceIndex>,
    /// Frames refused by the gate. Counted at the service level because
    /// gated frames never reach a session, so the per-session fold in
    /// [`PoseService::stats`] cannot see them.
    gated: AtomicU64,
}

/// Deterministic per-work-item RNG seed from (service seed, pair, seq):
/// splitmix64-style finalizer over the mixed words, so adjacent pairs and
/// sequence numbers land in unrelated streams.
fn item_seed(seed: u64, pair: PairId, seq: u64) -> u64 {
    let mut z = seed
        ^ ((pair.receiver as u64) << 32 | pair.sender as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ seq.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl PoseService {
    /// Creates a service around a shared engine.
    ///
    /// # Panics
    ///
    /// Panics when [`ServiceConfig::session`] is invalid (see
    /// [`SessionConfig::validate`]).
    pub fn new(engine: Arc<BbAlign>, config: ServiceConfig) -> Self {
        config.session.validate();
        PoseService {
            sessions: Mutex::new(BTreeMap::new()),
            engine,
            config,
            obs: Recorder::disabled(),
            place: RwLock::new(PlaceIndex::new()),
            gated: AtomicU64::new(0),
        }
    }

    /// Installs an observability recorder (builder style). The service
    /// records admission/shed counters, queue-depth and session gauges,
    /// and a per-recovery latency histogram; none of it influences
    /// results. The place index shares the recorder, adding
    /// `place.query` spans and `place.queries` / `place.updates`
    /// counters.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.place.get_mut().expect("place index lock poisoned").set_recorder(recorder.clone());
        self.obs = recorder;
        self
    }

    /// The shared recovery engine.
    pub fn engine(&self) -> &Arc<BbAlign> {
        &self.engine
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Publishes `vehicle`'s latest place descriptor, making it visible
    /// to the admission gate and to [`PoseService::candidate_pairs`].
    /// Extract it with `BbAlign::place_descriptor` from the same
    /// `Arc<PerceptionFrame>` the vehicle submits to its pairs: the MIM
    /// and keypoints computed for the descriptor stay with the frame and
    /// serve every pair it enters. Publication here is a write-locked
    /// upsert, no signal processing.
    pub fn update_descriptor(&self, vehicle: u32, descriptor: PlaceDescriptor) {
        self.place.write().expect("place index lock poisoned").update(vehicle, descriptor);
    }

    /// The `k` most plausible recovery partners for `receiver`, ranked by
    /// place-descriptor similarity. Empty when `receiver` has not
    /// published a descriptor yet.
    pub fn candidate_pairs(&self, receiver: u32, k: usize) -> Vec<PlaceMatch> {
        let place = self.place.read().expect("place index lock poisoned");
        match place.get(receiver) {
            Some(query) => place.top_k(query, k, Some(receiver)),
            None => Vec::new(),
        }
    }

    /// Offers a frame to `pair`'s session. Never blocks the caller: the
    /// frame is queued or shed under the session lock, and the outcome
    /// (including any overflow eviction it triggered) is counted in the
    /// metrics.
    ///
    /// With [`ServiceConfig::gate`] set, pairs whose published place
    /// descriptors fall below the similarity floor are refused here —
    /// before any session state is touched — as
    /// [`AdmitOutcome::ShedGated`]. Pairs the gate admits flow through
    /// the exact same session path as an ungated service, so admitted
    /// results are bit-identical with gating on or off.
    pub fn submit(&self, pair: PairId, frame: FrameSubmission, now: f64) -> AdmitOutcome {
        if let Some(gate) = &self.config.gate {
            let similarity = self
                .place
                .read()
                .expect("place index lock poisoned")
                .pair_similarity(pair.receiver, pair.sender);
            // Fail open: gate only when BOTH sides have descriptors.
            if let Some(s) = similarity {
                if s < gate.min_similarity {
                    self.gated.fetch_add(1, Ordering::Relaxed);
                    self.obs.incr("serve.submitted");
                    self.obs.incr("serve.shed_gated");
                    return AdmitOutcome::ShedGated;
                }
            }
        }
        let (outcome, overflowed) = {
            let mut sessions = self.sessions.lock().expect("session map lock poisoned");
            let session = sessions.entry(pair).or_insert_with(|| {
                if self.config.warm_start {
                    PairSession::with_tracker(self.config.session)
                } else {
                    PairSession::new(self.config.session)
                }
            });
            let before = session.stats().shed_overflow;
            let outcome = session.admit(frame, now);
            (outcome, session.stats().shed_overflow - before)
        };
        self.obs.incr("serve.submitted");
        match outcome {
            AdmitOutcome::Admitted => self.obs.incr("serve.admitted"),
            AdmitOutcome::ShedStale => self.obs.incr("serve.shed_stale"),
            AdmitOutcome::ShedDuplicate => self.obs.incr("serve.shed_duplicate"),
            AdmitOutcome::ShedSuperseded => self.obs.incr("serve.shed_superseded"),
            // Sessions never gate; the gate returned above.
            AdmitOutcome::ShedGated => unreachable!("gating happens before session admission"),
        }
        if overflowed > 0 {
            self.obs.add("serve.shed_overflow", overflowed);
        }
        outcome
    }

    /// Drains the oldest due frame of every session and recovers the
    /// batch on the parallel pool. Returns outcomes sorted by
    /// `(pair, seq)`; results are deterministic for a given
    /// `(service seed, pair, seq)` regardless of thread count or arrival
    /// order.
    ///
    /// Items that carry the same sending frame (the same
    /// `Arc<PerceptionFrame>` in [`FrameSubmission::other`]) are recovered
    /// together, in batch order, by one [`BbAlign::recover_group`] call:
    /// the frame is sampled and re-binned once for all of them, and each
    /// item's result is still bit for bit its lone recovery. Each group is
    /// one `bba_par::par_map` grain.
    ///
    /// With [`ServiceConfig::warm_start`] on, each work item first tries
    /// its session tracker's prediction, as [`BbAlign::recover_warm`]
    /// does. Predictions are read in the pass that drains, *before* the
    /// parallel fan-out (they are a function of previous batches only),
    /// and tracker updates are applied *after* it, serially in
    /// `(pair, seq)` order, so the warm path preserves the thread-count
    /// determinism contract.
    pub fn process_batch(&self, now: f64) -> Vec<RecoveryOutcome> {
        let mut sessions = self.sessions.lock().expect("session map lock poisoned");
        let mut batch = Vec::new();
        let mut predictions = Vec::new();
        for (&pair, session) in sessions.iter_mut() {
            for frame in session.drain_due(now, SESSION_FRAMES_PER_BATCH) {
                predictions.push(session.warm_prediction(frame.timestamp));
                batch.push((pair, frame));
            }
        }
        drop(sessions);
        // Groups of batch indices sharing a sending frame, in order of
        // first appearance: a function of the batch alone.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, (_, frame)) in batch.iter().enumerate() {
            let other = &frame.other;
            match groups.iter_mut().find(|g| Arc::ptr_eq(&batch[g[0]].1.other, other)) {
                Some(group) => group.push(i),
                None => groups.push(vec![i]),
            }
        }
        let seed = self.config.seed;
        let engine = &self.engine;
        let warm = self.config.warm_start;
        let grouped: Vec<Vec<RecoveryOutcome>> = bba_par::par_map(&groups, |group| {
            let mut rngs: Vec<StdRng> = group
                .iter()
                .map(|&i| StdRng::seed_from_u64(item_seed(seed, batch[i].0, batch[i].1.seq)))
                .collect();
            let mut requests: Vec<RecoveryRequest<'_, StdRng>> = group
                .iter()
                .zip(&mut rngs)
                .map(|(&i, rng)| RecoveryRequest {
                    ego: &batch[i].1.ego,
                    predicted: predictions[i].as_ref(),
                    rng,
                })
                .collect();
            let start = Instant::now();
            let results = engine.recover_group(&batch[group[0]].1.other, &mut requests, warm);
            let latency_ms = start.elapsed().as_secs_f64() * 1e3 / group.len() as f64;
            group
                .iter()
                .zip(results)
                .map(|(&i, result)| {
                    let (pair, frame) = &batch[i];
                    let (path, result) = match result {
                        Ok(w) => (w.path, Ok(w.recovery)),
                        Err(e) if predictions[i].is_some() => (RecoveryPath::ColdFallback, Err(e)),
                        Err(e) => (RecoveryPath::Cold, Err(e)),
                    };
                    RecoveryOutcome {
                        pair: *pair,
                        seq: frame.seq,
                        timestamp: frame.timestamp,
                        latency_ms,
                        path,
                        result,
                    }
                })
                .collect()
        });
        let mut slots: Vec<Option<RecoveryOutcome>> = vec![None; batch.len()];
        for (group, outcomes) in groups.iter().zip(grouped) {
            for (&i, outcome) in group.iter().zip(outcomes) {
                slots[i] = Some(outcome);
            }
        }
        let outcomes: Vec<RecoveryOutcome> =
            slots.into_iter().map(|o| o.expect("every item answered")).collect();
        // Tracker updates happen on the coordinating thread, in batch
        // (pair, seq) order: a deterministic function of deterministic
        // outcomes, whatever the thread count was above.
        let (session_count, queue_depth) = {
            let mut sessions = self.sessions.lock().expect("session map lock poisoned");
            if warm {
                for outcome in &outcomes {
                    if let Ok(recovery) = &outcome.result {
                        let session = sessions.get_mut(&outcome.pair).expect("sessions stay live");
                        session.observe_recovery(outcome.timestamp, recovery);
                    }
                }
            }
            (sessions.len(), sessions.values().map(PairSession::queue_len).sum::<usize>())
        };
        // Metrics are recorded from the coordinating thread, in batch
        // order, so snapshots are reproducible modulo the timings
        // themselves.
        self.obs.add("serve.processed", outcomes.len() as u64);
        for outcome in &outcomes {
            self.obs.observe("serve.recovery_ms", outcome.latency_ms);
            match outcome.path {
                RecoveryPath::WarmStart => {
                    self.obs.observe("serve.recovery_warm_ms", outcome.latency_ms)
                }
                _ => self.obs.observe("serve.recovery_cold_ms", outcome.latency_ms),
            }
            match &outcome.result {
                Ok(_) => self.obs.incr("serve.recovered"),
                Err(_) => self.obs.incr("serve.failed"),
            }
        }
        self.obs.gauge("serve.sessions", session_count as f64);
        self.obs.gauge("serve.queue_depth", queue_depth as f64);
        outcomes
    }

    /// Folds every session into service-wide accounting.
    pub fn stats(&self) -> ServiceStats {
        let sessions = self.sessions.lock().expect("session map lock poisoned");
        let mut stats = ServiceStats { sessions: sessions.len() as u64, ..Default::default() };
        for session in sessions.values() {
            let s = session.stats();
            stats.submitted += s.submitted;
            stats.processed += s.processed;
            stats.shed_stale += s.shed_stale;
            stats.shed_duplicate += s.shed_duplicate;
            stats.shed_superseded += s.shed_superseded;
            stats.shed_overflow += s.shed_overflow;
            stats.queued += session.queue_len() as u64;
        }
        drop(sessions);
        // Gated frames were refused before any session saw them: account
        // for both the submission and the shed at the service level so
        // conservation still balances.
        let gated = self.gated.load(Ordering::Relaxed);
        stats.submitted += gated;
        stats.shed_gated = gated;
        // Gauges published here too, so callers that only snapshot after
        // a stats() call still see current depth.
        self.obs.gauge("serve.sessions", stats.sessions as f64);
        self.obs.gauge("serve.queue_depth", stats.queued as f64);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_align::{BbAlignConfig, PerceptionFrame};

    fn service(session: SessionConfig) -> PoseService {
        let engine = Arc::new(BbAlign::new(BbAlignConfig::test_small()));
        PoseService::new(engine, ServiceConfig { session, seed: 7, ..Default::default() })
            .with_recorder(Recorder::enabled())
    }

    fn empty_frame(service: &PoseService) -> Arc<PerceptionFrame> {
        Arc::new(service.engine().frame_from_parts(std::iter::empty(), std::iter::empty()))
    }

    fn submission(frame: &Arc<PerceptionFrame>, seq: u64, timestamp: f64) -> FrameSubmission {
        FrameSubmission { seq, timestamp, ego: Arc::clone(frame), other: Arc::clone(frame) }
    }

    #[test]
    fn submissions_flow_through_to_batch_outcomes() {
        let svc = service(SessionConfig::default());
        let frame = empty_frame(&svc);
        for receiver in 0..3u32 {
            let pair = PairId::new(receiver, 9);
            assert_eq!(svc.submit(pair, submission(&frame, 0, 0.0), 0.0), AdmitOutcome::Admitted);
        }
        let outcomes = svc.process_batch(0.1);
        assert_eq!(outcomes.len(), 3);
        // Empty frames cannot recover, but orchestration still completes
        // and accounts for every frame.
        assert!(outcomes.iter().all(|o| o.result.is_err()));
        let stats = svc.stats();
        assert_eq!(stats.processed, 3);
        assert!(stats.is_conserved());
    }

    #[test]
    fn outcomes_are_sorted_and_deterministic_across_thread_counts() {
        let run = |threads: usize| {
            let svc = service(SessionConfig::default());
            let frame = empty_frame(&svc);
            // Submit in scrambled pair order.
            for &receiver in &[5u32, 1, 3, 2, 4] {
                svc.submit(PairId::new(receiver, 0), submission(&frame, 0, 0.0), 0.0);
            }
            let outcomes = bba_par::with_threads(threads, || svc.process_batch(0.0));
            outcomes.iter().map(|o| (o.pair, o.seq, o.result.clone())).collect::<Vec<_>>()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
        let pairs: Vec<u32> = serial.iter().map(|(p, _, _)| p.receiver).collect();
        assert_eq!(pairs, vec![1, 2, 3, 4, 5], "outcomes sorted by pair");
    }

    #[test]
    fn sessions_are_created_on_first_touch() {
        let svc = service(SessionConfig::default());
        let frame = empty_frame(&svc);
        assert_eq!(svc.stats().sessions, 0);
        svc.submit(PairId::new(0, 1), submission(&frame, 0, 0.0), 0.0);
        svc.submit(PairId::new(0, 1), submission(&frame, 1, 0.0), 0.0);
        svc.submit(PairId::new(1, 0), submission(&frame, 0, 0.0), 0.0);
        assert_eq!(svc.stats().sessions, 2);
    }

    #[test]
    fn a_batch_answers_the_oldest_due_frame_of_each_session() {
        let svc = service(SessionConfig::default());
        let frame = empty_frame(&svc);
        let pair = PairId::new(0, 1);
        for seq in 0..3 {
            assert_eq!(svc.submit(pair, submission(&frame, seq, 0.0), 0.0), AdmitOutcome::Admitted);
        }
        for (seq, queued) in [(0, 2), (1, 1), (2, 0)] {
            let answered: Vec<_> = svc.process_batch(0.0).iter().map(|o| (o.pair, o.seq)).collect();
            assert_eq!(answered, vec![(pair, seq)]);
            let stats = svc.stats();
            assert_eq!(stats.queued, queued);
            assert!(stats.is_conserved(), "{stats:?}");
        }
    }

    #[test]
    fn shed_frames_are_counted_in_the_snapshot() {
        let svc = service(SessionConfig { queue_capacity: 1, staleness: 1.0 });
        let frame = empty_frame(&svc);
        let pair = PairId::new(0, 1);
        svc.submit(pair, submission(&frame, 0, 0.0), 0.0); // admitted
        svc.submit(pair, submission(&frame, 0, 0.0), 0.0); // duplicate
        svc.submit(pair, submission(&frame, 1, 0.0), 0.0); // admitted, evicts seq 0
        svc.submit(pair, submission(&frame, 2, -5.0), 0.0); // stale
        let snap = svc.stats();
        assert_eq!(snap.shed_duplicate, 1);
        assert_eq!(snap.shed_overflow, 1);
        assert_eq!(snap.shed_stale, 1);
        assert!(snap.is_conserved());
        let metrics = svc.obs.snapshot();
        assert_eq!(metrics.counter("serve.submitted"), Some(4));
        assert_eq!(metrics.counter("serve.shed_duplicate"), Some(1));
        assert_eq!(metrics.counter("serve.shed_overflow"), Some(1));
        assert_eq!(metrics.counter("serve.shed_stale"), Some(1));
        assert_eq!(metrics.gauge("serve.queue_depth"), Some(1.0));
    }

    #[test]
    fn batch_records_latency_histogram_and_gauges() {
        let svc = service(SessionConfig::default());
        let frame = empty_frame(&svc);
        svc.submit(PairId::new(0, 1), submission(&frame, 0, 0.0), 0.0);
        svc.process_batch(0.0);
        let metrics = svc.obs.snapshot();
        let hist = metrics.value("serve.recovery_ms").expect("latency histogram");
        assert_eq!(hist.count, 1);
        assert!(hist.p99().is_some());
        assert_eq!(metrics.counter("serve.processed"), Some(1));
        assert_eq!(metrics.gauge("serve.sessions"), Some(1.0));
    }

    #[test]
    fn untrained_sessions_take_the_plain_cold_path() {
        // warm_start defaults on, but a session whose tracker never saw a
        // successful recovery has no prediction: every item must be plain
        // Cold (not ColdFallback) and the cold histogram must carry it.
        let svc = service(SessionConfig::default());
        let frame = empty_frame(&svc);
        svc.submit(PairId::new(0, 1), submission(&frame, 0, 0.0), 0.0);
        let outcomes = svc.process_batch(0.0);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].path, bb_align::RecoveryPath::Cold);
        let metrics = svc.obs.snapshot();
        assert_eq!(metrics.value("serve.recovery_cold_ms").map(|h| h.count), Some(1));
        assert!(metrics.value("serve.recovery_warm_ms").is_none());
    }

    fn descriptor(seed: u64) -> PlaceDescriptor {
        use bba_signal::{Grid, MaxIndexMap};
        let mut img = Grid::new(32, 32, 0.0);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for _ in 0..30 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state as usize >> 3) % 32;
            let v = (state as usize >> 23) % 32;
            for d in 0..6usize.min(32 - u.max(v)) {
                img[(u + d, v)] = 5.0;
            }
        }
        let mim = MaxIndexMap::compute(&img);
        PlaceDescriptor::from_mim(&mim, &bba_place::PlaceConfig::default())
    }

    fn gated_service(min_similarity: f64) -> PoseService {
        let engine = Arc::new(BbAlign::new(BbAlignConfig::test_small()));
        PoseService::new(
            engine,
            ServiceConfig {
                seed: 7,
                gate: Some(GateConfig { min_similarity }),
                ..Default::default()
            },
        )
        .with_recorder(Recorder::enabled())
    }

    #[test]
    fn gate_fails_open_without_descriptors() {
        let svc = gated_service(1.1); // impossible floor: everything with descriptors gates
        let frame = empty_frame(&svc);
        // Neither side published: admitted.
        assert_eq!(
            svc.submit(PairId::new(0, 1), submission(&frame, 0, 0.0), 0.0),
            AdmitOutcome::Admitted
        );
        // Only one side published: still admitted.
        svc.update_descriptor(0, descriptor(1));
        assert_eq!(
            svc.submit(PairId::new(0, 1), submission(&frame, 1, 0.0), 0.0),
            AdmitOutcome::Admitted
        );
        // Both sides published, similarity < 1.1: gated.
        svc.update_descriptor(1, descriptor(2));
        assert_eq!(
            svc.submit(PairId::new(0, 1), submission(&frame, 2, 0.0), 0.0),
            AdmitOutcome::ShedGated
        );
        let stats = svc.stats();
        assert_eq!(stats.shed_gated, 1);
        assert!(stats.is_conserved(), "gated frames must stay in the conservation balance");
    }

    #[test]
    fn gating_conserves_across_mixed_traffic() {
        // submitted == processed + shed (incl. gated) + queued, with the
        // gate refusing dissimilar pairs and admitting identical ones.
        let svc = gated_service(0.99);
        let frame = empty_frame(&svc);
        let same = descriptor(3);
        svc.update_descriptor(0, same.clone());
        svc.update_descriptor(1, same); // pair (0,1): similarity 1.0, admitted
        svc.update_descriptor(2, descriptor(4));
        svc.update_descriptor(3, descriptor(5)); // pair (2,3): dissimilar, gated
        let mut admitted = 0u64;
        let mut gated = 0u64;
        for seq in 0..5u64 {
            for &(r, s) in &[(0u32, 1u32), (2, 3)] {
                match svc.submit(PairId::new(r, s), submission(&frame, seq, 0.0), 0.0) {
                    AdmitOutcome::Admitted => admitted += 1,
                    AdmitOutcome::ShedGated => gated += 1,
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }
        assert_eq!(gated, 5, "every (2,3) submission should gate");
        let processed = svc.process_batch(0.0).len() as u64;
        let stats = svc.stats();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.shed_gated, 5);
        assert_eq!(
            stats.submitted,
            processed + stats.shed_total() + stats.queued,
            "conservation: submitted == processed + shed + queued"
        );
        assert_eq!(admitted, 5, "every (0,1) submission should be admitted");
        let metrics = svc.obs.snapshot();
        assert_eq!(metrics.counter("serve.submitted"), Some(10));
        assert_eq!(metrics.counter("serve.shed_gated"), Some(5));
    }

    #[test]
    fn admitted_results_are_bit_identical_with_gating_on() {
        // The gate must only filter; anything admitted takes the exact
        // ungated path. Compare outcome-for-outcome against a gate-free
        // service.
        let run = |gate: Option<GateConfig>| {
            let engine = Arc::new(BbAlign::new(BbAlignConfig::test_small()));
            let svc =
                PoseService::new(engine, ServiceConfig { seed: 7, gate, ..Default::default() });
            let d = descriptor(9);
            svc.update_descriptor(0, d.clone());
            svc.update_descriptor(1, d);
            let frame = empty_frame(&svc);
            svc.submit(PairId::new(0, 1), submission(&frame, 0, 0.25), 0.25);
            svc.process_batch(0.25)
                .into_iter()
                .map(|o| (o.pair, o.seq, o.path, o.result))
                .collect::<Vec<_>>()
        };
        let ungated = run(None);
        let gated = run(Some(GateConfig { min_similarity: 0.5 }));
        assert_eq!(ungated.len(), 1);
        assert_eq!(ungated, gated);
    }

    #[test]
    fn candidate_pairs_rank_by_descriptor_similarity() {
        let svc = gated_service(0.0);
        assert!(svc.candidate_pairs(0, 4).is_empty(), "no descriptor for the receiver yet");
        let d = descriptor(11);
        svc.update_descriptor(0, d.clone());
        svc.update_descriptor(1, d); // identical to receiver
        svc.update_descriptor(2, descriptor(12)); // different scene
        let ranked = svc.candidate_pairs(0, 4);
        assert_eq!(ranked.len(), 2, "the receiver itself is excluded");
        assert_eq!(ranked[0].vehicle, 1);
        assert!((ranked[0].similarity - 1.0).abs() < 1e-9);
        assert!(ranked[1].similarity <= ranked[0].similarity);
        assert!(ranked.iter().all(|m| m.vehicle != 0));
    }

    #[test]
    fn item_seeds_differ_across_pairs_and_seqs() {
        let a = item_seed(1, PairId::new(0, 1), 0);
        let b = item_seed(1, PairId::new(1, 0), 0);
        let c = item_seed(1, PairId::new(0, 1), 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
