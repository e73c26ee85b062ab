//! **bba-serve**: a fleet-scale pose service multiplexing many concurrent
//! pairwise BB-Align sessions.
//!
//! BB-Align's pitch is pose recovery cheap enough to run *continuously*
//! between many V2V pairs. This crate supplies the serving half of that
//! claim:
//!
//! * **Ordered sessions** ([`PoseService`]) — per-pair state in one map
//!   ordered by [`PairId`], created on first touch, so a batch drains in
//!   `(pair, seq)` order without a sort.
//! * **Load-shedding ingress** ([`PairSession`]) — bounded queues that
//!   drop stale, duplicate, superseded, or overflowing frames instead of
//!   ever blocking the link, with every shed frame counted exactly once
//!   (`submitted == processed + shed + queued`).
//! * **Batched recovery** ([`PoseService::process_batch`]) — drained
//!   frames fan out over `bba_par::par_map` against one shared
//!   [`bb_align::BbAlign`] engine, whose bounded workspace pools thereby
//!   become service-wide. Per-item RNGs derive from `(seed, pair, seq)`,
//!   so results are bit-identical at any thread count.
//! * **Fleet pose graph** ([`FleetPoseGraph`]) — pairwise recoveries
//!   chained into an N-vehicle graph with 3-cycle consistency checking
//!   and reconciliation that detects and excludes corrupted edges.
//! * **Candidate-pair gating** ([`GateConfig`]) — a service-owned
//!   [`bba_place::PlaceIndex`] of global place descriptors refuses pairs
//!   that cannot see the same scene before any recovery work is queued
//!   (`serve.shed_gated`), and ranks plausible partners via
//!   [`PoseService::candidate_pairs`]. The gate fails open and leaves
//!   admitted pairs bit-identical to an ungated service.
//! * **Observability** — `serve.*` counters/gauges plus a per-recovery
//!   latency histogram through `bba-obs`, quantile-queryable via
//!   [`bba_obs::HistSummary::p99`].
//!
//! # Example
//!
//! ```
//! use bba_serve::{FrameSubmission, PairId, PoseService, ServiceConfig};
//! use bb_align::{BbAlign, BbAlignConfig};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(BbAlign::new(BbAlignConfig::test_small()));
//! let service = PoseService::new(Arc::clone(&engine), ServiceConfig::default())
//!     .with_recorder(bba_obs::Recorder::enabled());
//! let frame = Arc::new(engine.frame_from_parts(std::iter::empty(), std::iter::empty()));
//! service.submit(
//!     PairId::new(0, 1),
//!     FrameSubmission { seq: 0, timestamp: 0.0, ego: frame.clone(), other: frame },
//!     0.0,
//! );
//! let outcomes = service.process_batch(0.1);
//! assert_eq!(outcomes.len(), 1);
//! assert!(service.stats().is_conserved());
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod service;
pub mod session;

pub use graph::{CycleError, FleetPoseGraph, PoseEdge, ReconcileReport};
pub use service::{GateConfig, PoseService, RecoveryOutcome, ServiceConfig, ServiceStats};
pub use session::{
    AdmitOutcome, FrameSubmission, PairId, PairSession, SessionConfig, SessionStats,
};
