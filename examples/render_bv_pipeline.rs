//! Renders the stage-1 pipeline images — the repository's equivalent of
//! the paper's Fig. 4 (point cloud → BV image → MIM → match).
//!
//! ```bash
//! cargo run --release --example render_bv_pipeline
//! # → writes PGM images under ./bv_pipeline_out/
//! ```
//!
//! Outputs, for each car: the BV height map, the MIM amplitude map and the
//! MIM orientation-index map; plus the other car's BV image warped by the
//! recovered transform into the ego frame, overlaid on the ego image —
//! after a correct recovery the structures coincide.

use bb_align::{BbAlign, BbAlignConfig};
use bba_dataset::{Dataset, DatasetConfig};
use bba_signal::{write_pgm, FftWorkspace, Grid, LogGaborBank, MaxIndexMap};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

fn main() -> std::io::Result<()> {
    let out = Path::new("bv_pipeline_out");
    std::fs::create_dir_all(out)?;

    let mut dataset = Dataset::new(DatasetConfig::standard(), 42);
    let pair = dataset.next_pair().unwrap();
    let engine = BbAlignConfig::default();
    let aligner = BbAlign::new(engine.clone());

    let ego = aligner.frame_from_parts(
        pair.ego.scan.points().iter().map(|p| p.position),
        pair.ego.detections.iter().map(|d| (d.box3, d.confidence)),
    );
    let other = aligner.frame_from_parts(
        pair.other.scan.points().iter().map(|p| p.position),
        pair.other.detections.iter().map(|d| (d.box3, d.confidence)),
    );

    // Panels (a)/(d): BV height maps.
    write_pgm(ego.bev().grid(), out.join("ego_bv.pgm"))?;
    write_pgm(other.bev().grid(), out.join("other_bv.pgm"))?;

    // Panels (c)/(f): MIM maps.
    let h = engine.bev.image_size();
    let bank = LogGaborBank::new(h, h, engine.log_gabor.clone());
    let mut ws = FftWorkspace::new();
    for (name, frame) in [("ego", &ego), ("other", &other)] {
        let mim = MaxIndexMap::compute_with_workspace(frame.bev().grid(), &bank, &mut ws);
        write_pgm(&mim.amplitude, out.join(format!("{name}_mim_amplitude.pgm")))?;
        write_pgm(&mim.index.map(|&i| i as f64), out.join(format!("{name}_mim_index.pgm")))?;
    }

    // Panel (g): recovery + overlay.
    let mut rng = StdRng::seed_from_u64(7);
    match aligner.recover(&ego, &other, &mut rng) {
        Ok(recovery) => {
            let (dt, dr) = recovery.transform.error_to(&pair.true_relative);
            println!(
                "recovered {} (error {:.2} m / {:.2}°, Inliers_bv={}, Inliers_box={})",
                recovery.transform,
                dt,
                dr.to_degrees(),
                recovery.inliers_bv(),
                recovery.inliers_box()
            );
            // Warp the other image into the ego frame: ego structure at
            // intensity 1, warped other structure at 2, coincidence at 3.
            let bev = engine.bev;
            let mut overlay = Grid::new(h, h, 0.0f64);
            for (u, v, &x) in ego.bev().grid().iter_cells() {
                if x > 1e-9 {
                    overlay[(u, v)] = 1.0;
                }
            }
            for (u, v, &x) in other.bev().grid().iter_cells() {
                if x > 1e-9 {
                    let world = recovery.transform.apply(bev.pixel_center(u, v));
                    if let Some((eu, ev)) = bev.world_to_pixel(world) {
                        overlay[(eu, ev)] += 2.0;
                    }
                }
            }
            write_pgm(&overlay, out.join("overlay_recovered.pgm"))?;
            println!(
                "wrote {} — bright pixels are structure both cars agree on",
                out.join("overlay_recovered.pgm").display()
            );
        }
        Err(e) => println!("recovery failed: {e}"),
    }
    println!("all panels written to {}", out.display());
    Ok(())
}
