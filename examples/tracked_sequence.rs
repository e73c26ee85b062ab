//! Tracked pose recovery over a driving sequence on a curved road.
//!
//! ```bash
//! cargo run --release --example tracked_sequence
//! ```
//!
//! The paper recovers the pose per frame and names time efficiency as
//! future work. This demo shows the deployment pattern this repository
//! adds: per-frame recoveries feed a constant-velocity [`PoseTracker`]
//! which (a) smooths measurement noise, (b) gates out the occasional
//! aliased match, and (c) extrapolates between recoveries so fusion can
//! run at sensor rate while recovery runs at half rate. The curved road
//! makes the relative yaw drift continuously — the tracker must follow.

use bb_align::{BbAlign, BbAlignConfig, PoseTracker};
use bba_dataset::{Dataset, DatasetConfig};
use bba_scene::{ScenarioConfig, ScenarioPreset};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    const FRAMES: usize = 10;
    // A gentle 350 m-radius bend.
    let mut cfg = DatasetConfig::standard();
    cfg.scenario = ScenarioConfig::preset(ScenarioPreset::Suburban).with_curvature(1.0 / 350.0);
    cfg.frame_interval = 0.5;

    let aligner = BbAlign::new(BbAlignConfig::default());
    let mut tracker = PoseTracker::new();
    let mut dataset = Dataset::new(cfg, 321);
    let mut rng = StdRng::seed_from_u64(9);

    println!(
        "{:<6} {:>10} {:>16} {:>16} {:>14}",
        "t (s)", "true yaw°", "raw err (m/°)", "tracked (m/°)", "note"
    );
    for k in 0..FRAMES {
        let pair = dataset.next_pair().unwrap();
        let t = pair.time;

        // Run the full recovery only on every other frame (half duty
        // cycle); on skipped frames the tracker extrapolates.
        let note;
        if k % 2 == 0 {
            let ego = aligner.frame_from_parts(
                pair.ego.scan.points().iter().map(|p| p.position),
                pair.ego.detections.iter().map(|d| (d.box3, d.confidence)),
            );
            let other = aligner.frame_from_parts(
                pair.other.scan.points().iter().map(|p| p.position),
                pair.other.detections.iter().map(|d| (d.box3, d.confidence)),
            );
            match aligner.recover(&ego, &other, &mut rng) {
                Ok(recovery) => {
                    let verdict = tracker.update(t, &recovery);
                    let (rdt, rdr) = recovery.transform.error_to(&pair.true_relative);
                    let tracked = tracker.predict(t).unwrap();
                    let (tdt, tdr) = tracked.error_to(&pair.true_relative);
                    println!(
                        "{t:<6.1} {:>10.2} {:>9.2}/{:>5.2} {:>9.2}/{:>5.2} {:>14}",
                        pair.true_relative.yaw().to_degrees(),
                        rdt,
                        rdr.to_degrees(),
                        tdt,
                        tdr.to_degrees(),
                        format!("{verdict:?}"),
                    );
                    continue;
                }
                Err(_) => note = "recovery failed",
            }
        } else {
            note = "skipped (coast)";
        }
        match tracker.predict(t) {
            Some(tracked) => {
                let (tdt, tdr) = tracked.error_to(&pair.true_relative);
                println!(
                    "{t:<6.1} {:>10.2} {:>15} {:>9.2}/{:>5.2} {:>14}",
                    pair.true_relative.yaw().to_degrees(),
                    "-",
                    tdt,
                    tdr.to_degrees(),
                    note
                );
            }
            None => println!("{t:<6.1} (tracker not initialised)"),
        }
    }
    if let Some(v) = tracker.relative_velocity() {
        println!(
            "\nestimated relative velocity: ({:.2}, {:.2}) m/s — the other car pulls ahead.",
            v.x, v.y
        );
    }
}
