//! **Ablation** — rotation handling: hypothesis sweep vs fast zero-yaw
//! assumption.
//!
//! BB-Align must work "independently of prior pose information"; the
//! default sweeps 24 global rotation hypotheses. When the deployment knows
//! headings are roughly aligned (e.g. convoy following), a single
//! hypothesis suffices and is ~cheaper. This ablation quantifies the cost
//! of prior-free operation.

use bb_align::BbAlignConfig;
use bba_bench::cli;
use bba_bench::harness::compare_engines;
use bba_bench::report::banner;

fn main() {
    let opts =
        cli::parse(48, "ablation_rotation_strategy — full hypothesis sweep vs zero-yaw fast path");
    banner(
        "Ablation: rotation hypothesis sweep",
        &format!("{} frame pairs per variant (same-direction traffic)", opts.frames),
    );

    let full = BbAlignConfig::default();
    let single = BbAlignConfig { rotation_hypotheses: 1, ..BbAlignConfig::default() };

    compare_engines(
        &[("24 hypotheses (prior-free)", full), ("1 hypothesis (assume ~0 yaw)", single)],
        opts.frames,
        opts.seed,
    );

    println!(
        "\nexpected: identical accuracy on same-direction pairs (hypothesis 0 wins), at\n\
         the cost of visiting all 24 hypotheses: the `strong` exit needs half the\n\
         matches as inliers, which keep_top_k = 2 rarely allows, so the sweep seldom\n\
         stops early (losing hypotheses are pruned by their consensus bound instead\n\
         of solved); the single-hypothesis path fails on oncoming pairs."
    );
}
