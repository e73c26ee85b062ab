//! Fleet-scale integration: an N-vehicle platoon served through
//! `bba-serve`, chained into a cycle-consistent pose graph.
//!
//! This is the workspace-level proof of the serving layer's contract:
//! real scans, real recoveries, many concurrent sessions — and the
//! 3-cycle composition check that only exists once pairwise recoveries
//! are chained across a fleet.
//!
//! Nothing in production feeds `FleetPoseGraph`: until the service closes
//! cycles over a batch's accepted edges itself, this test is the graph's
//! only caller.

use bb_align::{BbAlign, BbAlignConfig, PerceptionFrame};
use bba_bev::BevConfig;
use bba_dataset::{AgentFrame, FleetDataset, FleetDatasetConfig};
use bba_geometry::{Iso2, Vec2};
use bba_obs::Recorder;
use bba_serve::{
    AdmitOutcome, FleetPoseGraph, FrameSubmission, PairId, PoseService, ServiceConfig,
    SessionConfig,
};
use std::sync::Arc;

/// The bench/link-harness fast configuration: 128² BV images, reduced
/// descriptor patch, lowered stage-1 threshold. Recovers reliably on
/// urban test scenes at a fraction of the production cost.
fn fast_engine() -> BbAlignConfig {
    let mut engine = BbAlignConfig {
        bev: BevConfig { range: 102.4, resolution: 1.6 }, // 128²
        min_inliers_bv: 10,
        ..BbAlignConfig::default()
    };
    engine.descriptor.patch_size = 24;
    engine.descriptor.grid_size = 4;
    engine
}

fn perception(engine: &BbAlign, agent: &AgentFrame) -> Arc<PerceptionFrame> {
    Arc::new(engine.frame_from_parts(
        agent.scan.points().iter().map(|p| p.position),
        agent.detections.iter().map(|d| (d.box3, d.confidence)),
    ))
}

/// The session pairs served over a 5-car platoon: adjacent plus
/// skip-one, giving the graph its 3-cycles.
const PLATOON_PAIRS: [(u32, u32); 7] = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4)];

#[test]
fn five_vehicle_platoon_yields_a_cycle_consistent_pose_graph() {
    let mut cfg = FleetDatasetConfig::test_small(5);
    // A tight platoon: 20 m gaps so skip-one pairs sit at 40 m, well
    // inside the engine's matching range.
    cfg.fleet.spacing = 20.0;
    cfg.fleet.scenario.agent_separation = 20.0;
    let mut ds = FleetDataset::new(cfg, 1);
    let frame = ds.next_frame();

    let engine = Arc::new(BbAlign::new(fast_engine()));
    let obs = Recorder::enabled();
    let service =
        PoseService::new(Arc::clone(&engine), ServiceConfig::default()).with_recorder(obs.clone());
    let frames: Vec<Arc<PerceptionFrame>> =
        frame.agents.iter().map(|a| perception(&engine, a)).collect();

    for &(i, j) in &PLATOON_PAIRS {
        let outcome = service.submit(
            PairId::new(i, j),
            FrameSubmission {
                seq: 0,
                timestamp: frame.time,
                ego: Arc::clone(&frames[i as usize]),
                other: Arc::clone(&frames[j as usize]),
            },
            frame.time,
        );
        assert_eq!(outcome, AdmitOutcome::Admitted);
    }
    let outcomes = service.process_batch(frame.time + 0.05);
    assert_eq!(outcomes.len(), PLATOON_PAIRS.len());

    // Chain successful recoveries into the fleet graph, gated on stage-2
    // consensus: a recovery whose box refinement found zero inlier pairs
    // is an unrefined stage-1 estimate and (empirically) where aliased
    // matches hide on repetitive along-road structure.
    let mut graph = FleetPoseGraph::new(5);
    let mut recovered = 0;
    for outcome in &outcomes {
        if let Ok(recovery) = &outcome.result {
            if recovery.inliers_box() == 0 {
                continue;
            }
            let weight = (recovery.inliers_bv() + recovery.inliers_box()) as f64;
            graph.add_recovery(outcome.pair, recovery.transform, weight);
            recovered += 1;
            // Every accepted edge must be close to the fleet ground
            // truth — serving is orchestration, not new numerics.
            let truth = ds.fleet().relative_pose(
                outcome.pair.receiver as usize,
                outcome.pair.sender as usize,
                frame.time,
            );
            let (dt, dr) = recovery.transform.error_to(&truth);
            assert!(
                dt < 3.5 && dr.to_degrees() < 6.0,
                "pair {:?}: edge error {dt:.2} m / {:.2}°",
                outcome.pair,
                dr.to_degrees()
            );
        }
    }
    assert!(recovered >= 5, "only {recovered}/7 platoon pairs recovered");

    // The acceptance check: 3-cycles must compose to ≈ identity.
    let (max_t, max_r) = graph
        .max_cycle_error()
        .expect("the platoon graph must contain at least one complete 3-cycle");
    assert!(
        max_t < 4.5 && max_r.to_degrees() < 8.0,
        "worst 3-cycle composition error {max_t:.2} m / {:.2}° exceeds threshold",
        max_r.to_degrees()
    );

    // Reconciliation on the healthy graph excludes nothing.
    let report = graph.clone().reconcile(4.5, 8f64.to_radians());
    assert!(report.excluded.is_empty(), "healthy graph lost edges: {:?}", report.excluded);

    // Now corrupt one edge the way a surviving alias would (low weight,
    // wrong transform) and demand reconciliation finds exactly it. Edge
    // (2,3) sits in the (2,3,4) cycle, so the corruption is observable.
    let mut corrupted = graph.clone();
    let truth_23 = ds.fleet().relative_pose(2, 3, frame.time);
    corrupted.add_edge(2, 3, truth_23.compose(&Iso2::new(0.4, Vec2::new(6.0, -3.0))), 5.0);
    let report = corrupted.reconcile(4.5, 8f64.to_radians());
    assert_eq!(report.excluded, vec![(2, 3)], "reconcile should excise the corrupted edge");
    // The fleet stays connected without it.
    let poses = corrupted.absolute_poses(0);
    let reachable = poses.iter().filter(|p| p.is_some()).count();
    assert_eq!(reachable, 5, "exclusion must not disconnect the platoon");

    // Shed accounting and conservation hold service-wide.
    let stats = service.stats();
    assert!(stats.is_conserved(), "service accounting violated: {stats:?}");
    let metrics = obs.snapshot();
    assert_eq!(metrics.counter("serve.processed"), Some(PLATOON_PAIRS.len() as u64));
    assert!(metrics.value("serve.recovery_ms").is_some(), "latency histogram missing");
}

#[test]
fn service_multiplexes_64_sessions_without_blocking_and_accounts_for_all_sheds() {
    // A deliberately tiny raster: this test exercises orchestration at
    // fleet scale (64 sessions, adversarial traffic), not matching
    // quality, so recoveries may fail fast.
    let mut cfg = BbAlignConfig::test_small();
    cfg.bev = BevConfig { range: 25.6, resolution: 1.6 }; // 32²
    cfg.descriptor.patch_size = 12;
    cfg.descriptor.grid_size = 4;
    let engine = Arc::new(BbAlign::new(cfg));
    let obs = Recorder::enabled();
    let service = PoseService::new(
        Arc::clone(&engine),
        ServiceConfig {
            session: SessionConfig { queue_capacity: 2, staleness: 0.5 },
            seed: 3,
            ..Default::default()
        },
    )
    .with_recorder(obs.clone());
    let frame = Arc::new(engine.frame_from_parts(std::iter::empty(), std::iter::empty()));

    let submission = |seq: u64, timestamp: f64| FrameSubmission {
        seq,
        timestamp,
        ego: Arc::clone(&frame),
        other: Arc::clone(&frame),
    };

    // 64 concurrent sessions: 8 receivers × 8 senders (minus self-pairs)
    // plus extras to cross 64.
    let mut pairs = Vec::new();
    for receiver in 0..9u32 {
        for sender in 0..9u32 {
            if receiver != sender && pairs.len() < 64 {
                pairs.push(PairId::new(receiver, sender));
            }
        }
    }
    assert_eq!(pairs.len(), 64);

    let mut submitted = 0u64;
    for round in 0..3u64 {
        let now = round as f64 * 0.1;
        for (k, &pair) in pairs.iter().enumerate() {
            // Fresh frame for every session...
            service.submit(pair, submission(round, now), now);
            submitted += 1;
            // ...plus adversarial traffic on a rotating subset: a
            // duplicate, and a stale frame from the distant past.
            if k % 4 == 0 {
                service.submit(pair, submission(round, now), now);
                service.submit(pair, submission(round + 100, now - 10.0), now);
                submitted += 2;
            }
        }
        let outcomes = service.process_batch(now + 0.01);
        assert!(!outcomes.is_empty());
    }

    let stats = service.stats();
    assert_eq!(stats.sessions, 64, "all 64 sessions must stay live");
    assert_eq!(stats.submitted, submitted);
    // Zero blocked sends is structural — every submit returned — and the
    // ledger proves nothing vanished: processed + shed + queued covers
    // every submission exactly.
    assert!(stats.is_conserved(), "conservation violated: {stats:?}");
    assert!(stats.shed_duplicate > 0 && stats.shed_stale > 0, "adversarial sheds must register");

    let snap = obs.snapshot();
    assert_eq!(snap.counter("serve.submitted"), Some(submitted));
    let shed_in_metrics = snap.counter("serve.shed_stale").unwrap_or(0)
        + snap.counter("serve.shed_duplicate").unwrap_or(0)
        + snap.counter("serve.shed_superseded").unwrap_or(0)
        + snap.counter("serve.shed_overflow").unwrap_or(0);
    assert_eq!(shed_in_metrics, stats.shed_total(), "metrics and ledger must agree on sheds");
    assert_eq!(snap.gauge("serve.sessions"), Some(64.0));
    let hist = snap.value("serve.recovery_ms").expect("recovery latency histogram");
    assert!(hist.p99().is_some(), "p99 must be derivable from the histogram");
}

#[test]
fn batched_service_recovery_is_deterministic_across_thread_counts() {
    let run = |threads: usize| {
        let mut cfg = FleetDatasetConfig::test_small(3);
        cfg.fleet.spacing = 20.0;
        cfg.fleet.scenario.agent_separation = 20.0;
        let mut ds = FleetDataset::new(cfg, 2);
        let frame = ds.next_frame();
        let engine = Arc::new(BbAlign::new(fast_engine()));
        let service = PoseService::new(Arc::clone(&engine), ServiceConfig::default());
        let frames: Vec<Arc<PerceptionFrame>> =
            frame.agents.iter().map(|a| perception(&engine, a)).collect();
        for &(i, j) in &[(0u32, 1u32), (1, 2), (0, 2)] {
            service.submit(
                PairId::new(i, j),
                FrameSubmission {
                    seq: 0,
                    timestamp: frame.time,
                    ego: Arc::clone(&frames[i as usize]),
                    other: Arc::clone(&frames[j as usize]),
                },
                frame.time,
            );
        }
        let outcomes = bba_par::with_threads(threads, || service.process_batch(frame.time));
        outcomes.into_iter().map(|o| (o.pair, o.result.map(|r| r.transform))).collect::<Vec<_>>()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel, "recovery must be bit-identical at any thread count");
}
