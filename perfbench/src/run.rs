//! One benchmark run: inputs, repeated set-up, the timed phase and, when
//! asked, the traced phase with its thread-budget replay.

use crate::host;
use crate::trace::{SpanRecord, Tracer};
use crate::{engine_config, Bench, Episode, EpisodeCtx, Workload};
use bb_align::{BbAlign, Recovery};
use bba_obs::{MetricsSnapshot, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Seed of every replayed recovery.
const REPLAY_SEED: u64 = 0x5EED_B0D6_E72E_9A11;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Add the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Wall time (s) the untraced phase of an untraced run keeps cycling
    /// through the pool for, after its first pass.
    pub seconds: f64,
    /// Units in the input pool (see [`Workload::units`]).
    pub units: usize,
}

impl Options {
    /// A run of `workload` over its own pool for `seconds`. A traced run
    /// measures exactly one pass over half the pool twice, untraced and
    /// traced, so its counts repeat exactly and it takes about as long as
    /// one pass over the full pool.
    pub fn new(workload: Workload, seed: u64, trace: bool, seconds: f64) -> Self {
        let full = workload.units();
        let units = if trace { full.div_ceil(2) } else { full };
        Options { workload, seed, trace, seconds, units }
    }
}

/// Refuses a thread budget above the host's available parallelism.
pub fn check_thread_budget(threads: usize, cores: usize) -> Result<(), String> {
    if threads > cores {
        return Err(format!("thread budget {threads} exceeds available_parallelism {cores}"));
    }
    Ok(())
}

/// One set-up: engine construction plus two identical warm-up passes.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Total wall time (s).
    pub total_s: f64,
    /// First warm-up pass minus the identical second one (s): the cost of
    /// the engine's lazy caches.
    pub lazy_init_s: f64,
}

/// A measured phase: one or more passes over the pool.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Every unit run as `(unit, episode)`, in the order they ran: the
    /// first pass visits every unit once in order, later passes repeat it
    /// until time runs out.
    pub runs: Vec<(usize, Episode)>,
    /// Units in one pass.
    pub units: usize,
    /// Wall time of the whole phase (s).
    pub wall_s: f64,
    /// Process CPU time over it (s).
    pub cpu_s: Option<f64>,
}

impl Phase {
    /// The first pass as one episode: every request of the pool exactly
    /// once, so its counts and quality figures repeat exactly.
    pub fn first_pass(&self) -> Episode {
        Episode::merge(self.runs[..self.units].iter().map(|(_, e)| e))
    }

    /// Every unit episode of the phase, repeats included.
    pub fn episodes(&self) -> impl Iterator<Item = &Episode> {
        self.runs.iter().map(|(_, e)| e)
    }
}

/// The thread-budget replay: a few cold recoveries at budget 1 and 2.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Recoveries replayed at each budget.
    pub recoveries: usize,
    /// Total recovery time at budget 1 (ms).
    pub budget1_ms: f64,
    /// Total recovery time at budget 2 (ms).
    pub budget2_ms: f64,
    /// `par.parallel_ops` counted at budget 2.
    pub budget2_parallel_ops: u64,
    /// Whether both budgets returned the same recoveries bit for bit.
    pub identical: bool,
}

/// The traced phase.
#[derive(Debug)]
pub struct Traced {
    /// One pass over the same units as the untraced phase, with every
    /// recorder on.
    pub phase: Phase,
    /// The benchmark's spans.
    pub spans: Vec<SpanRecord>,
    /// Program recorder before the phase.
    pub before: MetricsSnapshot,
    /// Program recorder after the phase.
    pub after: MetricsSnapshot,
    /// The replay, or why it was not run.
    pub replay: Result<Replay, String>,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Run {
    /// What was run.
    pub options: Options,
    /// Each set-up.
    pub setups: Vec<Setup>,
    /// The untraced phase.
    pub timed: Phase,
    /// Resident high-water mark above the post-input size (MiB).
    pub peak_rss_mib: Option<f64>,
    /// The traced phase, when asked for.
    pub traced: Option<Traced>,
}

fn setup(bench: &dyn Bench, recorder: Recorder) -> (Arc<BbAlign>, Setup) {
    let start = Instant::now();
    let engine = Arc::new(BbAlign::new(engine_config()).with_recorder(recorder));
    let first = Instant::now();
    bench.warm_up(&engine);
    let first = first.elapsed().as_secs_f64();
    let again = Instant::now();
    bench.warm_up(&engine);
    let again = again.elapsed().as_secs_f64();
    let setup = Setup { total_s: start.elapsed().as_secs_f64(), lazy_init_s: first - again };
    (engine, setup)
}

/// Runs one pass over the pool, then keeps cycling through it until
/// `seconds` of wall time have passed (one pass when `seconds` is 0).
fn phase(bench: &dyn Bench, engine: &Arc<BbAlign>, ctx: &EpisodeCtx<'_>, seconds: f64) -> Phase {
    let units = bench.units();
    let cpu = host::cpu_seconds();
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < units || start.elapsed().as_secs_f64() < seconds {
        let unit = runs.len() % units;
        runs.push((unit, bench.run_unit(unit, engine, ctx)));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu.zip(host::cpu_seconds()).map(|(a, b)| b - a);
    Phase { runs, units, wall_s, cpu_s }
}

/// Replays the workload's replay pairs at budgets 1 and 2; `recorder` is
/// the one installed in `bba-par`.
fn replay(bench: &dyn Bench, engine: &BbAlign, recorder: &Recorder) -> Result<Replay, String> {
    check_thread_budget(2, host::available_parallelism())?;
    let pairs = bench.replay_pairs(engine);
    let run = |threads: usize| -> (f64, Vec<Option<Recovery>>) {
        bba_par::with_threads(threads, || {
            let mut total_ms = 0.0;
            let results = pairs
                .iter()
                .map(|(ego, other)| {
                    let start = Instant::now();
                    let r = engine.recover(ego, other, &mut StdRng::seed_from_u64(REPLAY_SEED));
                    total_ms += start.elapsed().as_secs_f64() * 1e3;
                    r.ok()
                })
                .collect();
            (total_ms, results)
        })
    };
    let parallel_ops = || recorder.snapshot().counter("par.parallel_ops").unwrap_or(0);
    let (budget1_ms, serial) = run(1);
    let ops_before = parallel_ops();
    let (budget2_ms, parallel) = run(2);
    Ok(Replay {
        recoveries: pairs.len(),
        budget1_ms,
        budget2_ms,
        budget2_parallel_ops: parallel_ops() - ops_before,
        identical: serial == parallel,
    })
}

/// Runs `options`: generates inputs, sets up [`SETUPS`] times, runs the
/// untraced phase and, when tracing, the traced phase and the replay.
pub fn run(options: Options) -> Run {
    let bench = options.workload.prepare(options.seed, options.units);
    let rss_after_inputs = host::rss_mib();
    bba_par::with_threads(options.workload.threads(), || {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut engine = None;
        for _ in 0..SETUPS {
            drop(engine.take());
            let (e, s) = setup(&*bench, Recorder::disabled());
            setups.push(s);
            engine = Some(e);
        }
        let engine = engine.expect("at least one set-up");
        let (tracer, recorder) = (Tracer::disabled(), Recorder::disabled());
        let seconds = if options.trace { 0.0 } else { options.seconds };
        let ctx = EpisodeCtx { tracer: &tracer, recorder: &recorder };
        let timed = phase(&*bench, &engine, &ctx, seconds);
        let peak_rss_mib = host::peak_rss_mib().zip(rss_after_inputs).map(|(p, r)| p - r);
        let traced = options.trace.then(|| {
            let recorder = Recorder::enabled();
            let (traced_engine, _) = setup(&*bench, recorder.clone());
            let par_recorder = if bba_par::install_recorder(recorder.clone()) {
                Ok(recorder.clone())
            } else {
                Err("a bba-par recorder was installed earlier in this process".to_string())
            };
            let before = recorder.snapshot();
            let tracer = Tracer::enabled();
            let ctx = EpisodeCtx { tracer: &tracer, recorder: &recorder };
            let phase = phase(&*bench, &traced_engine, &ctx, 0.0);
            let after = recorder.snapshot();
            drop(traced_engine);
            let replay = par_recorder.and_then(|r| replay(&*bench, &engine, &r));
            Traced { phase, spans: tracer.spans(), before, after, replay }
        });
        Run { options, setups, timed, peak_rss_mib, traced }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_budget_above_the_cores_is_refused() {
        assert!(check_thread_budget(3, 2).is_err());
        assert!(check_thread_budget(2, 2).is_ok());
        assert!(check_thread_budget(1, 1).is_ok());
    }

    #[test]
    fn every_workload_budget_fits_one_core() {
        for w in Workload::ALL {
            assert!(check_thread_budget(w.threads(), 1).is_ok(), "{}", w.name());
        }
    }
}
