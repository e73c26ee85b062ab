//! Self-test of the benchmark: single units must be deterministic, and
//! `fleet_fanout` must not depend on the thread budget.

use bb_align::BbAlign;
use bba_obs::Recorder;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::{engine_config, Episode, EpisodeCtx, Fate, Workload};
use std::sync::Arc;

/// Generates a one-unit pool of `workload` for `seed` and runs its unit
/// at `threads`, on a fresh engine.
fn episode(workload: Workload, seed: u64, threads: usize) -> Episode {
    let bench = workload.prepare(seed, 1);
    let engine = Arc::new(BbAlign::new(engine_config()));
    let (tracer, recorder) = (Tracer::disabled(), Recorder::disabled());
    let ctx = EpisodeCtx { tracer: &tracer, recorder: &recorder };
    bba_par::with_threads(threads, || bench.run_unit(0, &engine, &ctx))
}

/// Every request's fate with timings stripped: what must repeat exactly.
fn outcomes(e: &Episode) -> Vec<String> {
    e.requests
        .iter()
        .map(|r| match &r.fate {
            Fate::Answered(a) => format!("{:?} {:?} {:?}", r.id, a.path, a.result),
            other => format!("{:?} {other:?}", r.id),
        })
        .collect()
}

fn assert_clean(e: &Episode) {
    assert!(e.violations.is_empty(), "check violations: {:?}", e.violations);
    assert!(e.answered() > 0, "no request was answered");
    let failed: Vec<_> = e.requests.iter().filter(|r| matches!(r.fate, Fate::Failed(_))).collect();
    assert!(failed.is_empty(), "failed requests: {failed:?}");
}

#[test]
fn fleet_fanout_repeats_exactly_at_budgets_one_and_two() {
    let serial = episode(Workload::FleetFanout, 11, 1);
    let again = episode(Workload::FleetFanout, 11, 1);
    let wide = episode(Workload::FleetFanout, 11, 2);
    assert_clean(&serial);
    assert_eq!(serial.digest(), again.digest(), "two runs at budget 1");
    assert_eq!(serial.digest(), wide.digest(), "budget 1 against budget 2");
    assert_eq!(outcomes(&serial), outcomes(&wide));
    assert_eq!(serial.place, wide.place, "gate decisions depend on the budget");
    let stats = |e: &Episode| e.serve.as_ref().map(|s| s.stats);
    assert_eq!(stats(&serial), stats(&wide), "service ledger depends on the budget");
}

#[test]
fn link_stream_repeats_exactly() {
    let a = episode(Workload::LinkStream, 13, 1);
    let b = episode(Workload::LinkStream, 13, 1);
    assert_clean(&a);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(outcomes(&a), outcomes(&b));
    assert_eq!(a.link, b.link, "link delivery must follow the virtual clock only");
}

#[test]
fn different_seeds_give_different_inputs() {
    let a = episode(Workload::LinkStream, 21, 1);
    let b = episode(Workload::LinkStream, 22, 1);
    assert_ne!(a.digest(), b.digest());
}

#[test]
fn benchmark_json_names_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names = Workload::ALL.iter().map(|w| w.name());
    let metrics = END_TO_END.iter().chain(&PER_LAYER).map(|(name, _)| *name);
    for name in names.chain(metrics) {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name} missing from {path}");
    }
    let listed = json.matches("\"name\":").count();
    assert_eq!(listed, Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len());
}
