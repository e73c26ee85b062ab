//! End-to-end and per-layer benchmark of the BB-Align pose-recovery stack.
//!
//! Two workloads drive the program through its production entry points
//! only (`BbAlign::{new, frame_from_parts, recover, place_descriptor}`,
//! `bb_align::wire`, `bba_link::{LinkEndpoint, SimChannel}` and
//! `bba_serve::PoseService`):
//!
//! * [`fleet_fanout`] — one frame per vehicle feeding every pair of
//!   eight-car fleets through a gated service;
//! * [`link_stream`] — 10 Hz streams over lossy links into a
//!   warm-starting service and late fusion.
//!
//! Every workload runs at thread budget 1. A workload's inputs form a
//! fixed pool of *units* (fleet ticks, stream groups); a run measures at
//! least one pass over the pool and keeps cycling through it until the
//! requested time has passed.
//!
//! Inputs come from the seed alone and are generated before any clock
//! starts. Every admission, shedding and staleness decision runs on the
//! scenario's virtual clock, so every quality figure and count repeats
//! exactly from run to run; only timings vary. See `NOTES.md`.

pub mod fleet_fanout;
pub mod host;
pub mod inputs;
pub mod link_stream;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;

use bb_align::{BbAlign, BbAlignConfig, PerceptionFrame, RecoverError, Recovery, RecoveryPath};
use bba_geometry::Iso2;
use bba_obs::Recorder;
use bba_serve::{AdmitOutcome, ServiceStats};
use stats::Digest;
use std::sync::Arc;
use trace::{RequestId, Tracer};

/// Translation error (m) above which a successful answer is a false
/// accept.
pub const FALSE_ACCEPT_M: f64 = 1.0;
/// Rotation error (degrees) above which a successful answer is a false
/// accept.
pub const FALSE_ACCEPT_DEG: f64 = 1.0;
/// A pose is on time when it is ready within this long after capture
/// (ms): one 10 Hz frame.
pub const ON_TIME_MS: f64 = 100.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One frame per vehicle fanned out to every pair of a gated fleet.
    FleetFanout,
    /// 10 Hz streams over lossy links into a warm-starting service.
    LinkStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::FleetFanout, Workload::LinkStream];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetFanout => "fleet_fanout",
            Workload::LinkStream => "link_stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The thread budget every workload runs at: 1. Single-pair work
    /// stays serial because `bba-par` spawns threads on every parallel
    /// call, which makes one stage-1 run several times slower at budget 2.
    /// `fleet_fanout` hands each worker whole recoveries and has identical
    /// outcomes at budget 2, but on a two-vCPU guest its timings there move
    /// with the hypervisor's steal time, too far to carry a bound (see
    /// `NOTES.md`).
    pub fn threads(self) -> usize {
        1
    }

    /// Units in the input pool of a full run: ticks for `fleet_fanout`,
    /// stream groups for `link_stream`. Each unit holds distinct seeded
    /// scenes, so a larger pool varies less from seed to seed. One pass
    /// over the pool takes 30–45 s on a two-vCPU x86-64 guest, depending
    /// on how busy its host is, against `BENCHMARK.json`'s `run_seconds`
    /// of 40: a run on a quiet host repeats part of the pool, and one on a
    /// host twice as slow still ends after one pass.
    pub fn units(self) -> usize {
        match self {
            Workload::FleetFanout => 5,
            Workload::LinkStream => 12,
        }
    }

    /// Generates `units` units of the workload's inputs for `seed`.
    pub fn prepare(self, seed: u64, units: usize) -> Box<dyn Bench> {
        match self {
            Workload::FleetFanout => Box::new(fleet_fanout::FleetFanout::generate(seed, units)),
            Workload::LinkStream => Box::new(link_stream::LinkStream::generate(seed, units)),
        }
    }
}

/// The engine configuration every workload uses: `BbAlignConfig::default()`,
/// a 256² raster at 0.8 m/px.
pub fn engine_config() -> BbAlignConfig {
    BbAlignConfig::default()
}

/// What a unit run needs besides the engine.
#[derive(Debug)]
pub struct EpisodeCtx<'a> {
    /// The benchmark's own spans (disabled outside traced runs).
    pub tracer: &'a Tracer,
    /// The program's recorder for services and links (disabled outside
    /// traced runs; the engine carries its own).
    pub recorder: &'a Recorder,
}

/// A prepared workload: generated inputs plus the code that drives them.
pub trait Bench {
    /// One pass over warm-up inputs (never part of a measured unit) that
    /// fills the engine's lazy caches and builds and drops whatever service
    /// or link a deployment would construct. Leaves no session or tracker
    /// state behind.
    fn warm_up(&self, engine: &Arc<BbAlign>);

    /// Units in the input pool.
    fn units(&self) -> usize;

    /// Runs unit `unit` (below [`Bench::units`]): every request of it once,
    /// on fresh service and link state, so a unit gives the same outcomes
    /// however often and in whatever order it runs.
    fn run_unit(&self, unit: usize, engine: &Arc<BbAlign>, ctx: &EpisodeCtx<'_>) -> Episode;

    /// A few `(receiver, sender)` frame pairs for the thread-budget replay.
    fn replay_pairs(&self, engine: &BbAlign) -> Vec<(PerceptionFrame, PerceptionFrame)>;
}

/// Why a request was refused before any recovery ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Refusal {
    /// Place-descriptor similarity below the service gate.
    Gated,
    /// Older than the session staleness bound.
    Stale,
    /// Same sequence number as the newest admitted frame.
    Duplicate,
    /// Overtaken by a newer frame of the same pair.
    Superseded,
    /// An admission outcome this benchmark does not know by name.
    Other,
}

impl Refusal {
    /// Maps a service admission outcome; `None` for `Admitted`.
    pub fn from_admit(outcome: AdmitOutcome) -> Option<Self> {
        match outcome {
            AdmitOutcome::Admitted => None,
            AdmitOutcome::ShedGated => Some(Refusal::Gated),
            AdmitOutcome::ShedStale => Some(Refusal::Stale),
            AdmitOutcome::ShedDuplicate => Some(Refusal::Duplicate),
            AdmitOutcome::ShedSuperseded => Some(Refusal::Superseded),
            #[allow(unreachable_patterns)]
            _ => Some(Refusal::Other),
        }
    }
}

/// A successful-or-not pose with its error against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Pose {
    /// The recovered sender→receiver transform.
    pub transform: Iso2,
    /// Stage-1 inliers.
    pub inliers_bv: usize,
    /// Stage-2 inliers.
    pub inliers_box: usize,
    /// `Recovery::is_success`.
    pub success: bool,
    /// Translation error (m).
    pub error_m: f64,
    /// Rotation error (degrees).
    pub error_deg: f64,
}

impl Pose {
    /// Reduces a recovery to what the metrics and digest need.
    pub fn new(recovery: &Recovery, truth: &Iso2) -> Self {
        let (error_m, error_rad) = recovery.transform.error_to(truth);
        Pose {
            transform: recovery.transform,
            inliers_bv: recovery.inliers_bv(),
            inliers_box: recovery.inliers_box(),
            success: recovery.is_success(),
            error_m,
            error_deg: error_rad.to_degrees(),
        }
    }

    /// A successful answer whose pose is wrong beyond the false-accept
    /// thresholds.
    pub fn is_false_accept(&self) -> bool {
        self.success && (self.error_m > FALSE_ACCEPT_M || self.error_deg > FALSE_ACCEPT_DEG)
    }
}

/// Report name of a recovery failure cause.
pub fn failure_cause(error: &RecoverError) -> &'static str {
    match error {
        RecoverError::NoKeypoints { .. } => "no_keypoints",
        RecoverError::NoMatches => "no_matches",
        RecoverError::NoConsensus(_) => "no_consensus",
        #[allow(unreachable_patterns)]
        _ => "other",
    }
}

/// An answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// End-to-end latency (ms) as each workload defines it: from capture
    /// until the pose is ready.
    pub latency_ms: f64,
    /// Wall time of the recovery call alone (ms).
    pub recovery_ms: f64,
    /// The route the engine took.
    pub path: RecoveryPath,
    /// The pose, or why recovery failed.
    pub result: Result<Pose, RecoverError>,
}

impl Answer {
    /// The pose when the answer passed `Recovery::is_success`.
    pub fn success(&self) -> Option<&Pose> {
        self.result.as_ref().ok().filter(|p| p.success)
    }
}

/// What became of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Fate {
    /// Recovery ran and answered (with a pose or an error).
    Answered(Answer),
    /// The service refused it.
    Refused(Refusal),
    /// The link never delivered it.
    Undelivered,
    /// The benchmark could not complete it (a wire or link error, or an
    /// answer that never came). Any such request fails the run.
    Failed(String),
}

/// One request and its fate.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// `(pair, seq)` identity.
    pub id: RequestId,
    /// What became of it.
    pub fate: Fate,
}

/// Link-layer counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkCounts {
    /// Frames handed to the sender endpoints.
    pub frames: usize,
    /// Data-direction datagrams offered to the channels, retransmissions
    /// included.
    pub datagrams: usize,
    /// Retransmission rounds fired by the senders.
    pub retransmits: usize,
    /// Frames the receivers reassembled in time.
    pub delivered: usize,
    /// Virtual capture→reassembly time of each delivered frame (ms).
    pub transit_ms: Vec<f64>,
}

/// Place-gating confusion counts (ordered pairs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlaceCounts {
    /// Pairs whose BEV discs overlap.
    pub overlapping: usize,
    /// Overlapping pairs the gate admitted.
    pub overlapping_admitted: usize,
    /// Pairs with no shared BEV area.
    pub disjoint: usize,
    /// Disjoint pairs the gate admitted.
    pub disjoint_admitted: usize,
}

/// Service-level counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeCounts {
    /// The service's own ledger at the end of the unit.
    pub stats: ServiceStats,
    /// `process_batch` calls that returned at least one item.
    pub batches: usize,
    /// Sum of item recovery times (ms).
    pub item_ms: f64,
    /// Wall time inside `process_batch` (ms).
    pub batch_ms: f64,
}

/// Everything one unit run produced, or a pass of them merged.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Every request, in a deterministic order.
    pub requests: Vec<Request>,
    /// Distinct vehicle-frames that needed a MIM (entered stage 1 or
    /// place extraction).
    pub mim_frames: usize,
    /// Encoded size of every frame put on the wire (bytes).
    pub wire_bytes: Vec<usize>,
    /// Link counts (`link_stream`).
    pub link: Option<LinkCounts>,
    /// Place-gating counts (`fleet_fanout`).
    pub place: Option<PlaceCounts>,
    /// Service counts (`fleet_fanout`, `link_stream`).
    pub serve: Option<ServeCounts>,
    /// Check violations found while running.
    pub violations: Vec<String>,
}

impl Episode {
    /// Digest of every answered pose's bits, keyed by each request's pair
    /// and position in the episode.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for (position, r) in self.requests.iter().enumerate() {
            let Fate::Answered(a) = &r.fate else { continue };
            d.u64(position as u64);
            d.u64(r.id.pair as u64);
            d.u64(a.path as u64);
            match &a.result {
                Ok(p) => {
                    d.f64(p.transform.yaw());
                    d.f64(p.transform.translation().x);
                    d.f64(p.transform.translation().y);
                    d.u64(p.inliers_bv as u64);
                    d.u64(p.inliers_box as u64);
                    d.u64(p.success as u64);
                }
                Err(e) => failure_cause(e).bytes().for_each(|b| d.u64(b as u64)),
            }
        }
        d.value()
    }

    /// Count of answered requests.
    pub fn answered(&self) -> usize {
        self.requests.iter().filter(|r| matches!(r.fate, Fate::Answered(_))).count()
    }

    /// The units of a pass as one episode: requests, sizes, transits and
    /// violations in unit order, counts summed.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a Episode>) -> Episode {
        fn add<T: Default>(sum: &mut Option<T>, part: &Option<T>, f: impl FnOnce(&mut T, &T)) {
            if let Some(part) = part {
                f(sum.get_or_insert_with(T::default), part);
            }
        }
        let mut out = Episode::default();
        for e in parts {
            out.requests.extend(e.requests.iter().cloned());
            out.mim_frames += e.mim_frames;
            out.wire_bytes.extend(&e.wire_bytes);
            add(&mut out.link, &e.link, |s, l| {
                s.frames += l.frames;
                s.datagrams += l.datagrams;
                s.retransmits += l.retransmits;
                s.delivered += l.delivered;
                s.transit_ms.extend(&l.transit_ms);
            });
            add(&mut out.place, &e.place, |s, p| {
                s.overlapping += p.overlapping;
                s.overlapping_admitted += p.overlapping_admitted;
                s.disjoint += p.disjoint;
                s.disjoint_admitted += p.disjoint_admitted;
            });
            add(&mut out.serve, &e.serve, |s, c| {
                let (a, b) = (&mut s.stats, &c.stats);
                a.sessions += b.sessions;
                a.submitted += b.submitted;
                a.processed += b.processed;
                a.shed_stale += b.shed_stale;
                a.shed_duplicate += b.shed_duplicate;
                a.shed_superseded += b.shed_superseded;
                a.shed_overflow += b.shed_overflow;
                a.shed_gated += b.shed_gated;
                a.queued += b.queued;
                s.batches += c.batches;
                s.item_ms += c.item_ms;
                s.batch_ms += c.batch_ms;
            });
            out.violations.extend(e.violations.iter().cloned());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_concatenates_requests_and_sums_counts() {
        let unit = |pair: u32, delivered: usize| Episode {
            requests: vec![Request { id: RequestId::new(pair, 0), fate: Fate::Undelivered }],
            mim_frames: 2,
            link: Some(LinkCounts {
                frames: 4,
                delivered,
                transit_ms: vec![1.0],
                ..Default::default()
            }),
            ..Default::default()
        };
        let merged = Episode::merge(&[unit(0, 3), Episode::default(), unit(1, 4)]);
        let pairs: Vec<u32> = merged.requests.iter().map(|r| r.id.pair).collect();
        assert_eq!(pairs, [0, 1]);
        assert_eq!(merged.mim_frames, 4);
        let link = merged.link.expect("link counts of both units");
        assert_eq!((link.frames, link.delivered, link.transit_ms.len()), (8, 7, 2));
        assert!(merged.place.is_none() && merged.serve.is_none());
    }
}
