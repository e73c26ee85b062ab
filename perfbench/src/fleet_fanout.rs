//! `fleet_fanout`: one frame per vehicle feeding every pair of a fleet.
//!
//! Each fleet is the clustered suburbia of the `place_recognition`
//! experiment: the base pair plus two clusters of three, 10 m apart within
//! a cluster and 320 m between clusters, at 10 Hz. Per tick every vehicle
//! rasterises once and publishes its place descriptor; that one shared
//! frame is submitted to all seven peers' sessions of one gated
//! `PoseService` (warm start off) and one batch recovers what the gate
//! admitted. A unit is one tick of one service over [`FLEETS_PER_TICK`]
//! independently seeded fleets: consecutive 10 Hz ticks of one fleet
//! repeat nearly the same admissions, so a run spends its time on more
//! fleets and averages over their layouts. A request is one ordered
//! vehicle pair; its latency runs from the tick's scans to the batch
//! returning its outcome, so every answered pair of a tick has the same
//! latency. Request ids are `((fleet × 8 + receiver) × 8 + sender, 0)`,
//! numbering fleets across the whole pool, each fleet sending its frame 0;
//! tick-level spans use `(TICK, unit)`.

use crate::inputs::{self, mix, stream, FleetTick, PairInput, FLEET_VEHICLES};
use crate::trace::{RequestId, Tracer};
use crate::{
    engine_config, Answer, Bench, Episode, EpisodeCtx, Fate, PlaceCounts, Pose, Refusal, Request,
    ServeCounts,
};
use bb_align::{BbAlign, PerceptionFrame};
use bba_obs::Recorder;
use bba_place::PlaceConfig;
use bba_serve::{FrameSubmission, GateConfig, PairId, PoseService, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

/// Descriptor similarity gate: the threshold the `place_recognition`
/// experiment picked by Youden's J.
pub const GATE: f64 = 0.40;

/// Request-id pair of spans that belong to a whole tick.
pub const TICK: u32 = u32::MAX;

/// Fleets served by one tick. Every answered pair of a tick shares its
/// latency, and how many pairs the gate admits varies from fleet to
/// fleet; with several fleets per tick the tick times vary less, so the
/// median and tail latencies of a run move less with the seed.
pub const FLEETS_PER_TICK: usize = 4;

/// Generated `fleet_fanout` inputs.
#[derive(Debug)]
pub struct FleetFanout {
    seed: u64,
    fleets: Vec<FleetTick>,
    warmup: PairInput,
}

/// State of one unit.
struct Fanout<'a> {
    engine: &'a BbAlign,
    tracer: &'a Tracer,
    service: PoseService,
    place_config: PlaceConfig,
    place: PlaceCounts,
    serve: ServeCounts,
    episode: Episode,
}

impl Fanout<'_> {
    /// One tick over `ticks`, one per fleet, the first of them fleet
    /// `first` of the pool: every vehicle rasterises and publishes its
    /// descriptor, every frame goes to its seven fleet peers, and one batch
    /// recovers what the gate admitted.
    fn tick(&mut self, unit: usize, first: usize, ticks: &[FleetTick]) {
        // Every fleet sends its first frame.
        let seq = 0;
        let n = FLEET_VEHICLES;
        let (engine, tracer) = (self.engine, self.tracer);
        // Service ids number the tick's vehicles; span and request ids
        // number them across the pool.
        let vehicle = |f: usize, v: usize| (f * n + v) as u32;
        let in_pool = |id: u32| id + (first * n) as u32;
        let pair = |f: usize, i: usize, j: usize| in_pool(vehicle(f, i)) * n as u32 + j as u32;
        let tick_id = RequestId::new(TICK, unit as u64);
        let ordered = |f: usize| {
            (0..n).flat_map(move |i| (0..n).map(move |j| (f, i, j))).filter(|(_, i, j)| i != j)
        };
        let start = Instant::now();
        let mut fates: Vec<Option<Fate>> = vec![None; ticks.len() * n * n];
        let slot = |f: usize, i: usize, j: usize| (f * n + i) * n + j;
        tracer.time("fleet.tick", tick_id, None, |root| {
            let scans = ticks.iter().enumerate().flat_map(|(f, t)| {
                t.vehicles.iter().enumerate().map(move |(v, scan)| (f, v, scan))
            });
            let frames: Vec<(u32, Arc<PerceptionFrame>)> = scans
                .map(|(f, v, scan)| {
                    let id = RequestId::new(in_pool(vehicle(f, v)), seq);
                    let frame = tracer.time("bev.raster", id, root, |_| scan.rasterize(engine));
                    (vehicle(f, v), Arc::new(frame))
                })
                .collect();
            let descriptors = bba_par::par_map(&frames, |(v, frame)| {
                tracer.time("place.extract", RequestId::new(in_pool(*v), seq), root, |_| {
                    engine.place_descriptor(frame, &self.place_config)
                })
            });
            for ((v, _), descriptor) in frames.iter().zip(descriptors) {
                self.service.update_descriptor(*v, descriptor);
            }
            for (f, i, j) in (0..ticks.len()).flat_map(ordered) {
                let submission = FrameSubmission {
                    seq,
                    timestamp: ticks[f].time,
                    ego: Arc::clone(&frames[f * n + i].1),
                    other: Arc::clone(&frames[f * n + j].1),
                };
                let id = RequestId::new(pair(f, i, j), seq);
                let admit = tracer.time("serve.submit", id, root, |_| {
                    let pair = PairId::new(vehicle(f, i), vehicle(f, j));
                    self.service.submit(pair, submission, ticks[f].time)
                });
                let refusal = Refusal::from_admit(admit);
                let admitted = usize::from(refusal.is_none());
                if ticks[f].overlap[i * n + j] {
                    self.place.overlapping += 1;
                    self.place.overlapping_admitted += admitted;
                } else {
                    self.place.disjoint += 1;
                    self.place.disjoint_admitted += admitted;
                }
                fates[slot(f, i, j)] = refusal.map(Fate::Refused);
            }
            let now = ticks.iter().map(|t| t.time).fold(f64::NEG_INFINITY, f64::max);
            let batch_start = Instant::now();
            let outcomes =
                tracer.time("serve.batch", tick_id, root, |_| self.service.process_batch(now));
            self.serve.batch_ms += batch_start.elapsed().as_secs_f64() * 1e3;
            self.serve.batches += usize::from(!outcomes.is_empty());
            let latency_ms = start.elapsed().as_secs_f64() * 1e3;
            for o in outcomes {
                let (r, s) = (o.pair.receiver as usize, o.pair.sender as usize);
                let (f, i, j) = (r / n, r % n, s % n);
                self.serve.item_ms += o.latency_ms;
                let answer = Answer {
                    latency_ms,
                    recovery_ms: o.latency_ms,
                    path: o.path,
                    result: o.result.map(|res| Pose::new(&res, &ticks[f].truth[i * n + j])),
                };
                if fates[slot(f, i, j)].replace(Fate::Answered(answer)).is_some() {
                    let v = format!("pair {} answered after refusal", pair(f, i, j));
                    self.episode.violations.push(v);
                }
            }
        });
        for (f, i, j) in (0..ticks.len()).flat_map(ordered) {
            let fate = fates[slot(f, i, j)]
                .take()
                .unwrap_or_else(|| Fate::Failed("admitted but never answered".into()));
            self.episode.requests.push(Request { id: RequestId::new(pair(f, i, j), seq), fate });
        }
    }
}

impl FleetFanout {
    /// `ticks` units of [`FLEETS_PER_TICK`] seeded fleets each for `seed`.
    pub fn generate(seed: u64, ticks: usize) -> Self {
        let fleets = ticks * FLEETS_PER_TICK;
        FleetFanout {
            seed,
            fleets: inputs::fleet_ticks(seed, fleets, engine_config().bev.range),
            warmup: inputs::warmup_pair(),
        }
    }

    fn service(&self, unit: usize, engine: &Arc<BbAlign>, recorder: &Recorder) -> PoseService {
        let config = ServiceConfig {
            seed: mix(self.seed, stream::SERVICE, unit as u64),
            warm_start: false,
            gate: Some(GateConfig { min_similarity: GATE }),
            ..ServiceConfig::default()
        };
        PoseService::new(Arc::clone(engine), config).with_recorder(recorder.clone())
    }
}

impl Bench for FleetFanout {
    fn warm_up(&self, engine: &Arc<BbAlign>) {
        let frames =
            [&self.warmup.receiver, &self.warmup.sender].map(|s| Arc::new(s.rasterize(engine)));
        let place = PlaceConfig::default();
        bba_par::par_map(&frames, |f| engine.place_descriptor(f, &place));
        // No descriptors are published, so the gate fails open and both
        // directions reach the batch: two items, one per worker.
        let service = self.service(0, engine, &Recorder::disabled());
        for (r, s) in [(0, 1), (1, 0)] {
            let submission = FrameSubmission {
                seq: 0,
                timestamp: 0.0,
                ego: Arc::clone(&frames[r]),
                other: Arc::clone(&frames[s]),
            };
            service.submit(PairId::new(r as u32, s as u32), submission, 0.0);
        }
        service.process_batch(0.0);
    }

    fn units(&self) -> usize {
        self.fleets.len() / FLEETS_PER_TICK
    }

    fn run_unit(&self, unit: usize, engine: &Arc<BbAlign>, ctx: &EpisodeCtx<'_>) -> Episode {
        let mut fanout = Fanout {
            engine,
            tracer: ctx.tracer,
            service: self.service(unit, engine, ctx.recorder),
            place_config: PlaceConfig::default(),
            place: PlaceCounts::default(),
            serve: ServeCounts::default(),
            episode: Episode::default(),
        };
        let first = unit * FLEETS_PER_TICK;
        fanout.tick(unit, first, &self.fleets[first..first + FLEETS_PER_TICK]);
        let mut episode = fanout.episode;
        episode.mim_frames = FLEET_VEHICLES * FLEETS_PER_TICK;
        fanout.serve.stats = fanout.service.stats();
        if !fanout.serve.stats.is_conserved() {
            let v = format!("service ledger not conserved: {:?}", fanout.serve.stats);
            episode.violations.push(v);
        }
        episode.place = Some(fanout.place);
        episode.serve = Some(fanout.serve);
        episode
    }

    fn replay_pairs(&self, engine: &BbAlign) -> Vec<(PerceptionFrame, PerceptionFrame)> {
        // The base pair and one in-cluster pair of each cluster.
        let tick = &self.fleets[0];
        [(0, 1), (2, 3), (5, 6)]
            .iter()
            .map(|&(r, s)| (tick.vehicles[r].rasterize(engine), tick.vehicles[s].rasterize(engine)))
            .collect()
    }
}
