//! `link_stream`: steady-state operation over lossy links.
//!
//! Sender→receiver pairs on distinct seeded urban scenes (following
//! traffic) stream [`FRAMES`] frames each at 10 Hz. A unit is a group of
//! [`PAIRS_PER_UNIT`] pairs streaming at once over one virtual clock into
//! one service. Each tick both cars of a pair rasterise their scans; the sender
//! wire-encodes its frame and sends it through a `LinkEndpoint` over an
//! urban `SimChannel` (5% loss, 20±10 ms, reordering, duplicates,
//! 750 kB/s). Each frame the receiver reassembles is decoded, submitted to
//! one warm-starting `PoseService`, processed on arrival and passed to
//! late fusion. The loop is closed over virtual time: links, admission,
//! shedding and staleness all read the scenario clock, never the wall
//! clock. A request is one frame sent; its latency is the virtual transit
//! from capture to reassembly plus the wall time from decode to the fused
//! result. Request ids are `(pair, frame)`, numbering pairs across the
//! whole pool.

use crate::inputs::{self, mix, stream, PairInput, StreamFrame, FRAME_INTERVAL};
use crate::trace::{RequestId, Tracer};
use crate::{
    Answer, Bench, Episode, EpisodeCtx, Fate, LinkCounts, Pose, Refusal, Request, ServeCounts,
};
use bb_align::{wire, BbAlign, PerceptionFrame, RecoveryPath};
use bba_fusion::{FusionExperiment, FusionMethod};
use bba_link::{ChannelConfig, LinkEndpoint, ReceivedMessage, SessionConfig, SimChannel};
use bba_obs::Recorder;
use bba_serve::{FrameSubmission, PairId, PoseService, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Frames each pair streams: 0.4 s of 10 Hz operation. A pair whose first
/// recovery succeeds spends the other three frames warm; a pair whose
/// recoveries keep failing stays cold on every frame, and the number of
/// such pairs differs from seed to seed. Short streams over many pairs
/// bound what each such pair adds to a run's cost, so the figures vary
/// less from seed to seed.
pub const FRAMES: usize = 4;

/// Pairs streaming at once in one unit, over one virtual clock into one
/// service.
pub const PAIRS_PER_UNIT: usize = 10;

/// Request-id seq of spans that belong to a pair's link rather than to one
/// frame (`link.pump`).
pub const LINK_SPANS: u64 = u64::MAX;

/// Link pump steps per frame interval: endpoints look at their channels
/// every 10 ms of virtual time.
const PUMP_STEPS: usize = 10;

/// Virtual time (s) the links keep running after the last frame, longer
/// than the session's 0.45 s staleness bound, so every frame ends
/// delivered or definitively lost.
const DRAIN_S: f64 = 0.6;

/// One sender→receiver link: both endpoints and both channel directions.
struct Link {
    sender: LinkEndpoint,
    receiver: LinkEndpoint,
    forward: SimChannel,
    reverse: SimChannel,
}

impl Link {
    fn new(channel: ChannelConfig, seed: u64, recorder: &Recorder) -> Self {
        let mut sender = LinkEndpoint::new(SessionConfig::default());
        let mut receiver = LinkEndpoint::new(SessionConfig::default());
        sender.set_recorder(recorder.clone());
        receiver.set_recorder(recorder.clone());
        Link {
            sender,
            receiver,
            forward: SimChannel::new(channel, mix(seed, stream::RNG, 1)),
            reverse: SimChannel::new(channel, mix(seed, stream::RNG, 2)),
        }
    }

    /// Drives both endpoints at virtual time `now`; returns the frames the
    /// receiver completed.
    fn pump(&mut self, now: f64) -> Vec<ReceivedMessage> {
        let delivered = self.receiver.pump(now, &mut self.forward, &mut self.reverse);
        self.sender.pump(now, &mut self.reverse, &mut self.forward);
        delivered
    }
}

/// Generated `link_stream` inputs.
#[derive(Debug)]
pub struct LinkStream {
    seed: u64,
    streams: Vec<Vec<StreamFrame>>,
    warmup: PairInput,
}

impl LinkStream {
    /// `units` groups of [`PAIRS_PER_UNIT`] streams of [`FRAMES`] frames
    /// each for `seed`.
    pub fn generate(seed: u64, units: usize) -> Self {
        LinkStream {
            seed,
            streams: inputs::link_streams(seed, units * PAIRS_PER_UNIT, FRAMES),
            warmup: inputs::warmup_pair(),
        }
    }

    fn service(&self, unit: usize, engine: &Arc<BbAlign>, recorder: &Recorder) -> PoseService {
        let config = ServiceConfig {
            seed: mix(self.seed, stream::SERVICE, unit as u64),
            warm_start: true,
            ..ServiceConfig::default()
        };
        PoseService::new(Arc::clone(engine), config).with_recorder(recorder.clone())
    }
}

fn pair_id(p: usize) -> PairId {
    PairId::new(2 * p as u32, 2 * p as u32 + 1)
}

/// Receiver-side state of one episode.
struct Receiver<'a> {
    service: PoseService,
    fusion: FusionExperiment,
    fusion_rng: StdRng,
    tracer: &'a Tracer,
    /// Each receiver's own frames still young enough to be matched.
    own: Vec<VecDeque<(usize, Arc<PerceptionFrame>)>>,
    fates: Vec<Vec<Option<Fate>>>,
    serve: ServeCounts,
    transit_ms: Vec<f64>,
    violations: Vec<String>,
}

impl Receiver<'_> {
    /// Handles one reassembled frame of pair `p` on arrival.
    fn arrive(&mut self, p: usize, msg: ReceivedMessage, frame: &StreamFrame, id: RequestId) {
        let k = msg.msg_id as usize;
        self.transit_ms.push(msg.latency * 1e3);
        let tracer = self.tracer;
        let start = Instant::now();
        let fate = tracer.time("receive", id, None, |root| {
            let other =
                match tracer.time("wire.decode", id, root, |_| wire::decode_frame(&msg.payload)) {
                    Ok(f) => Arc::new(f),
                    Err(e) => return Fate::Failed(format!("wire decode: {e}")),
                };
            let Some(ego) = self.own[p].iter().find(|(i, _)| *i == k).map(|(_, f)| Arc::clone(f))
            else {
                return Fate::Failed(format!("own frame {k} expired before its peer frame"));
            };
            let submission = FrameSubmission { seq: k as u64, timestamp: msg.sent_at, ego, other };
            let admit = tracer.time("serve.submit", id, root, |_| {
                self.service.submit(pair_id(p), submission, msg.completed_at)
            });
            if let Some(refusal) = Refusal::from_admit(admit) {
                return Fate::Refused(refusal);
            }
            let batch_start = Instant::now();
            let mut outcomes = tracer
                .time("serve.batch", id, root, |_| self.service.process_batch(msg.completed_at));
            self.serve.batch_ms += batch_start.elapsed().as_secs_f64() * 1e3;
            self.serve.batches += usize::from(!outcomes.is_empty());
            if outcomes.len() != 1 || outcomes[0].pair != pair_id(p) || outcomes[0].seq != k as u64
            {
                return Fate::Failed(format!("frame {k} of pair {p}: batch of {}", outcomes.len()));
            }
            let outcome = outcomes.remove(0);
            self.serve.item_ms += outcome.latency_ms;
            let result = outcome.result.map(|r| Pose::new(&r, &frame.pair.truth));
            let pose = result.as_ref().ok().filter(|p| p.success).map(|p| p.transform);
            tracer.time("fusion.late", id, root, |_| {
                self.fusion.run_frame_link(&frame.fusion, pose.as_ref(), &mut self.fusion_rng)
            });
            let latency_ms = msg.latency * 1e3 + start.elapsed().as_secs_f64() * 1e3;
            Fate::Answered(Answer {
                latency_ms,
                recovery_ms: outcome.latency_ms,
                path: outcome.path,
                result,
            })
        });
        match self.fates[p].get_mut(k) {
            Some(slot @ None) => *slot = Some(fate),
            _ => self.violations.push(format!("pair {p} frame {k} delivered twice or unknown")),
        }
    }
}

impl Bench for LinkStream {
    fn warm_up(&self, engine: &Arc<BbAlign>) {
        let mut link = Link::new(ChannelConfig::ideal(), self.seed, &Recorder::disabled());
        let service = self.service(0, engine, &Recorder::disabled());
        let ego = Arc::new(self.warmup.receiver.rasterize(engine));
        let bytes = wire::encode_frame(&self.warmup.sender.rasterize(engine));
        link.sender
            .send_message(0.0, &bytes, &mut link.forward)
            .expect("a perception frame fits the wire");
        for msg in link.pump(0.0) {
            let other = Arc::new(wire::decode_frame(&msg.payload).expect("lossless round trip"));
            let submission =
                FrameSubmission { seq: 0, timestamp: 0.0, ego: Arc::clone(&ego), other };
            service.submit(pair_id(0), submission, 0.0);
            service.process_batch(0.0);
        }
    }

    fn units(&self) -> usize {
        self.streams.len() / PAIRS_PER_UNIT
    }

    fn run_unit(&self, unit: usize, engine: &Arc<BbAlign>, ctx: &EpisodeCtx<'_>) -> Episode {
        let tracer = ctx.tracer;
        let first = unit * PAIRS_PER_UNIT;
        let streams = &self.streams[first..first + PAIRS_PER_UNIT];
        let pairs = streams.len();
        let frames = streams[0].len();
        let request = |p: usize, k: usize| RequestId::new((first + p) as u32, k as u64);
        let mut links: Vec<Link> = (0..pairs)
            .map(|p| {
                Link::new(
                    ChannelConfig::urban(),
                    mix(self.seed, stream::LINK, (first + p) as u64),
                    ctx.recorder,
                )
            })
            .collect();
        let mut rx = Receiver {
            service: self.service(unit, engine, ctx.recorder),
            fusion: FusionExperiment::new(FusionMethod::Late),
            fusion_rng: StdRng::seed_from_u64(mix(self.seed, stream::FUSION, unit as u64)),
            tracer,
            own: vec![VecDeque::new(); pairs],
            fates: vec![vec![None; frames]; pairs],
            serve: ServeCounts::default(),
            transit_ms: Vec::new(),
            violations: Vec::new(),
        };
        // Own frames older than the link's staleness bound can no longer
        // meet their peer frame.
        let keep = (SessionConfig::default().stale_after / FRAME_INTERVAL).ceil() as usize + 1;
        let mut episode = Episode::default();
        let step = FRAME_INTERVAL / PUMP_STEPS as f64;

        let pump_all = |now: f64, links: &mut [Link], rx: &mut Receiver<'_>| {
            for (p, link) in links.iter_mut().enumerate() {
                let id = RequestId::new((first + p) as u32, LINK_SPANS);
                let delivered = tracer.time("link.pump", id, None, |_| link.pump(now));
                for msg in delivered {
                    let k = msg.msg_id as usize;
                    match streams[p].get(k) {
                        Some(frame) => rx.arrive(p, msg, frame, request(p, k)),
                        None => rx.violations.push(format!("pair {p}: unknown message {k}")),
                    }
                }
            }
        };

        let times: Vec<f64> = streams[0].iter().map(|f| f.time).collect();
        for (k, &t) in times.iter().enumerate() {
            for (p, link) in links.iter_mut().enumerate() {
                let frame = &streams[p][k];
                let id = request(p, k);
                let own =
                    tracer.time("bev.raster", id, None, |_| frame.pair.receiver.rasterize(engine));
                rx.own[p].push_back((k, Arc::new(own)));
                while rx.own[p].len() > keep {
                    rx.own[p].pop_front();
                }
                let sent = tracer.time("send", id, None, |root| {
                    let sender = tracer
                        .time("bev.raster", id, root, |_| frame.pair.sender.rasterize(engine));
                    let bytes =
                        tracer.time("wire.encode", id, root, |_| wire::encode_frame(&sender));
                    episode.wire_bytes.push(bytes.len());
                    tracer.time("link.send", id, root, |_| {
                        link.sender.send_message(t, &bytes, &mut link.forward)
                    })
                });
                match sent {
                    Ok(msg_id) if msg_id as usize == k => {}
                    Ok(msg_id) => {
                        rx.violations.push(format!("pair {p}: frame {k} sent as {msg_id}"))
                    }
                    Err(e) => rx.fates[p][k] = Some(Fate::Failed(format!("link encode: {e}"))),
                }
            }
            for s in 1..=PUMP_STEPS {
                pump_all(t + step * s as f64, &mut links, &mut rx);
            }
        }
        let last = times[frames - 1] + FRAME_INTERVAL;
        for s in 1..=(DRAIN_S / step).round() as usize {
            pump_all(last + step * s as f64, &mut links, &mut rx);
        }
        for (p, fates) in rx.fates.iter_mut().enumerate() {
            for (k, fate) in fates.iter_mut().enumerate() {
                let fate = fate.take().unwrap_or(Fate::Undelivered);
                episode.requests.push(Request { id: request(p, k), fate });
            }
        }
        let cold = episode
            .requests
            .iter()
            .filter(|r| matches!(&r.fate, Fate::Answered(a) if a.path != RecoveryPath::WarmStart));
        episode.mim_frames = 2 * cold.count();
        episode.link = Some(LinkCounts {
            frames: pairs * frames,
            datagrams: links.iter().map(|l| l.forward.stats().sent).sum(),
            retransmits: links.iter().map(|l| l.sender.stats().retransmits).sum(),
            delivered: links.iter().map(|l| l.receiver.stats().messages_delivered).sum(),
            transit_ms: std::mem::take(&mut rx.transit_ms),
        });
        rx.serve.stats = rx.service.stats();
        if !rx.serve.stats.is_conserved() {
            rx.violations.push(format!("service ledger not conserved: {:?}", rx.serve.stats));
        }
        episode.serve = Some(rx.serve);
        episode.violations = rx.violations;
        episode
    }

    fn replay_pairs(&self, engine: &BbAlign) -> Vec<(PerceptionFrame, PerceptionFrame)> {
        let firsts = self.streams.iter().take(3).map(|s| &s[0].pair);
        firsts.map(|p| (p.receiver.rasterize(engine), p.sender.rasterize(engine))).collect()
    }
}
