//! The traced run's layer replay: the served inputs again, this time
//! through each layer's public functions one call at a time, in the
//! workload's order and batch shapes. Its verdicts must equal the served
//! ones, so the per-layer times describe the work that was served.

use crate::inputs::Stream;
use crate::stats::{Identity, Verdict};
use crate::trace::Tracer;
use gestureprint_core::{GesturePrint, IdentificationMode};
use gp_codec::FrameDecoder;
use gp_net::{wire, ClientMsg};
use gp_pipeline::{LabeledSample, NoiseCanceler, OnlineSegmenter, Preprocessor};
use gp_radar::Frame;
use gp_rd::{OnlineRdSegmenter, RdFrame, RdLabeledSample, RdSegmentConfig};
use gp_store::{Identification, IdentityStore};
use std::collections::HashMap;
use std::hint::black_box;

/// At most this many kept segments go through the model layers.
pub const MODEL_CAP: usize = 256;

/// Served verdicts by `(session key, start, end)`.
pub type ServedIndex = HashMap<(usize, usize, usize), Verdict>;

/// What the replay saw.
#[derive(Debug, Default)]
pub struct ReplayOut {
    /// Segments closed.
    pub closed: usize,
    /// Segments noise canceling kept.
    pub kept: usize,
    /// Replayed verdicts compared against served ones.
    pub compared: usize,
    /// Of those, how many differed.
    pub mismatches: usize,
    /// Points per DBSCAN call.
    pub dbscan_points: Vec<f64>,
    /// Identifier groups per batch of the batch-8 pass.
    pub ui_groups: Vec<f64>,
}

impl ReplayOut {
    fn compare(
        &mut self,
        served: &ServedIndex,
        key: (usize, usize, usize),
        gesture: usize,
        user: usize,
        identity: Option<Identity>,
    ) {
        let Some(v) = served.get(&key) else { return };
        self.compared += 1;
        let same =
            v.gesture == gesture && v.user == user && identity.is_none_or(|i| i == v.identity);
        if !same {
            self.mismatches += 1;
        }
    }
}

/// Same tie rule as the system's own argmax (last maximum wins).
fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// Interleaves streams frame by frame, as the burst generator's first
/// pass does; a single stream replays in order.
fn interleaved(lens: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let longest = lens.iter().copied().max().unwrap_or(0);
    (0..longest).flat_map(move |i| {
        (0..lens.len())
            .filter(move |&s| i < lens[s])
            .map(move |s| (s, i))
    })
}

/// Point-cloud replay. `keys[s]` is the session whose served verdicts
/// stream `s` is compared against; `batch` is the workload's batch shape
/// for `infer_batch`; `store` adds the identify-mode embedding lookup.
#[allow(clippy::too_many_arguments)]
pub fn point(
    system: &GesturePrint,
    pre: &Preprocessor,
    streams: &[&Stream<Frame>],
    keys: &[usize],
    served: &ServedIndex,
    batch: usize,
    store: Option<&IdentityStore>,
    tracer: &mut Tracer,
) -> ReplayOut {
    let mut out = ReplayOut::default();
    let canceler = NoiseCanceler::new(pre.config().noise);
    let mut segmenters: Vec<OnlineSegmenter> = streams
        .iter()
        .map(|_| OnlineSegmenter::new(pre.config().segmenter.clone()))
        .collect();
    let lens: Vec<usize> = streams.iter().map(|s| s.frames.len()).collect();
    let mut samples: Vec<((usize, usize, usize), LabeledSample)> = Vec::new();
    for (s, i) in interleaved(&lens) {
        let frames = &streams[s].frames;
        let key = keys[s] as u64;
        let mut closed = tracer.span("pipeline.segment", 0, key, || {
            segmenters[s].push_frame(&frames[i])
        });
        if i + 1 == frames.len() && closed.is_none() {
            // The session's close flushes a gesture still open.
            closed = segmenters[s].finish();
        }
        let Some(seg) = closed else { continue };
        out.closed += 1;
        let window = &frames[seg.start..seg.end];
        let sample = tracer.span("pipeline.assemble", 0, key, || {
            pre.assemble(window, seg.start)
        });
        let aggregated = gp_radar::frame::aggregate(window);
        out.dbscan_points.push(aggregated.len() as f64);
        black_box(tracer.span("pointcloud.dbscan", 0, key, || canceler.clean(&aggregated)));
        if let Some(sample) = sample {
            out.kept += 1;
            if samples.len() < MODEL_CAP {
                samples.push((
                    (keys[s], seg.start, seg.end),
                    LabeledSample::from_sample(sample, 0, 0),
                ));
            }
        }
    }

    let gr = system.gesture_model();
    for (key, s) in &samples {
        let k = key.0 as u64;
        black_box(tracer.span("models.encode.b1", 0, k, || gr.encode_input(s)));
        let probs = tracer.span("core.gr.b1", 0, k, || gr.probabilities_batch(&[s]));
        let g = argmax(&probs[0]);
        black_box(tracer.span("core.ui.b1", 0, k, || {
            system.identifier_for(g).probabilities_batch(&[s])
        }));
    }
    for chunk in samples.chunks(8).filter(|c| c.len() == 8) {
        let refs: Vec<&LabeledSample> = chunk.iter().map(|(_, s)| s).collect();
        black_box(tracer.span("models.encode.b8", 0, 0, || {
            refs.iter().map(|s| gr.encode_input(s)).collect::<Vec<_>>()
        }));
        let probs = tracer.span("core.gr.b8", 0, 0, || gr.probabilities_batch(&refs));
        let mut groups: HashMap<usize, Vec<&LabeledSample>> = HashMap::new();
        for (s, p) in refs.iter().zip(&probs) {
            let g = argmax(p);
            let group = match system.mode() {
                IdentificationMode::Serialized => g,
                IdentificationMode::Parallel => 0,
            };
            groups.entry(group).or_default().push(s);
        }
        out.ui_groups.push(groups.len() as f64);
        black_box(tracer.span("core.ui.b8", 0, 0, || {
            groups
                .iter()
                .map(|(&g, members)| system.identifier_for(g).probabilities_batch(members))
                .collect::<Vec<_>>()
        }));
    }
    for chunk in samples.chunks(batch.max(1)) {
        let refs: Vec<&LabeledSample> = chunk.iter().map(|(_, s)| s).collect();
        let inferred = tracer.span("core.infer_batch", 0, 0, || system.infer_batch(&refs));
        for ((key, s), inference) in chunk.iter().zip(inferred) {
            let identity = store.map(|store| {
                let embedding = tracer.span("core.embedding", 0, key.0 as u64, || {
                    system.embedding_for_gesture(s, inference.gesture)
                });
                match embedding {
                    None => Identity::None,
                    Some(e) => match tracer
                        .span("store.identify", 0, key.0 as u64, || store.identify(&e))
                    {
                        Identification::Accepted(m) => crate::inputs::parse_user(&m.user)
                            .map_or(Identity::Rejected, Identity::Accepted),
                        Identification::Rejected(_) => Identity::Rejected,
                    },
                }
            });
            out.compare(served, *key, inference.gesture, inference.user, identity);
        }
    }
    out
}

/// Wire codec replay: `to_wire` and `from_wire::<ClientMsg>` on the
/// bytes of up to [`MODEL_CAP`] × 8 frames of each stream; every decode
/// must give back the frame sent.
pub fn wire(streams: &[&Stream<Frame>], tracer: &mut Tracer) -> usize {
    let mut mismatches = 0;
    for (s, stream) in streams.iter().enumerate() {
        for frame in stream.frames.iter().take(MODEL_CAP * 8) {
            let msg = ClientMsg::Frame(frame.clone());
            let bytes = tracer.span("net.encode", 0, s as u64, || {
                wire::to_wire(&msg, crate::setup::MAX_FRAME)
            });
            let decoded = tracer.span("net.decode", 0, s as u64, || {
                let mut decoder = FrameDecoder::new(crate::setup::MAX_FRAME);
                decoder.extend(&bytes);
                let payload = decoder.next().ok().flatten()?;
                wire::from_wire::<ClientMsg>(&payload).ok()
            });
            if decoded.as_ref() != Some(&msg) {
                mismatches += 1;
            }
        }
    }
    mismatches
}

/// Range-Doppler replay: RD segmentation, feature extraction and
/// per-sample RdNet inference.
pub fn rd(
    system: &GesturePrint,
    segmenter: &RdSegmentConfig,
    streams: &[&Stream<RdFrame>],
    keys: &[usize],
    served: &ServedIndex,
    tracer: &mut Tracer,
) -> ReplayOut {
    let mut out = ReplayOut::default();
    let features = system.gesture_model().rd_feature().clone();
    let mut segmenters: Vec<OnlineRdSegmenter> = streams
        .iter()
        .map(|_| OnlineRdSegmenter::new(segmenter.clone()))
        .collect();
    let lens: Vec<usize> = streams.iter().map(|s| s.frames.len()).collect();
    for (s, i) in interleaved(&lens) {
        let frames = &streams[s].frames;
        let key = keys[s] as u64;
        let mut closed = tracer.span("rd.segment", 0, key, || segmenters[s].push(&frames[i]));
        if i + 1 == frames.len() && closed.is_none() {
            // The session's close flushes a segment still open.
            closed = segmenters[s].finish();
        }
        let Some(seg) = closed else { continue };
        out.closed += 1;
        out.kept += 1;
        if out.kept > MODEL_CAP {
            continue;
        }
        let sample = RdLabeledSample::from_segment(frames, seg.start, seg.end, 0, 0);
        black_box(tracer.span("rd.extract", 0, key, || {
            gp_rd::extract_sample(&sample, &features)
        }));
        let inference = tracer.span("rd.infer", 0, key, || system.infer_rd(&sample));
        out.compare(
            served,
            (keys[s], seg.start, seg.end),
            inference.gesture,
            inference.user,
            None,
        );
    }
    out
}
