//! Workload inputs generated from the seed: training sets, served
//! streams with their ground truth, and the reference verdict of every
//! segment each stream produces.

use crate::stats::{ClosingMap, Identity, StreamSegmenter, Truth};
use gestureprint_core::GesturePrint;
use gp_datasets::{presets, Scale};
use gp_pipeline::{LabeledSample, OnlineSegmenter, Preprocessor};
use gp_radar::{Environment, Frame};
use gp_rd::{OnlineRdSegmenter, RdFrame, RdLabeledSample, RdSegmentConfig};
use gp_store::{EmbeddingGallery, Identification};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// ASL gestures in the GesturePrint vocabulary.
pub const GESTURES: usize = 15;

/// The two rooms of the paper's own dataset.
pub const ENVIRONMENTS: [Environment; 2] = [Environment::Office, Environment::MeetingRoom];

/// Frame interval of every generated stream (10 fps).
const FRAME_S: f64 = 0.1;

/// Derives an independent sub-seed (SplitMix64 finaliser).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// All gestures in a seeded order.
pub fn shuffled_gestures(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..GESTURES).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

/// What the reference pass expects for one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Recognised gesture.
    pub gesture: usize,
    /// Closed-set user.
    pub user: usize,
    /// Gallery outcome (identify-mode sessions only).
    pub identity: Identity,
}

/// One served stream of one cohort user.
#[derive(Debug, Clone)]
pub struct Stream<F> {
    /// The recording, timestamped on one 10 fps clock.
    pub frames: Vec<F>,
    /// Performed gestures.
    pub truth: Vec<Truth>,
    /// The performing cohort user.
    pub user: usize,
    /// Segments and their closing frames.
    pub map: ClosingMap,
    /// Reference verdict per segment of `map` (`None`: noise canceling
    /// rejects the segment, so no verdict is published).
    pub expected: Vec<Option<Expect>>,
}

impl<F> Stream<F> {
    /// With a `limit`, cuts the recording at the first stop point at or
    /// after `limit` frames, so the cut leaves no gesture half-seen.
    fn new<S: StreamSegmenter<Frame = F> + Clone>(
        mut frames: Vec<F>,
        mut truth: Vec<Truth>,
        user: usize,
        segmenter: S,
        limit: Option<usize>,
    ) -> Stream<F> {
        let map = ClosingMap::build(segmenter.clone(), &frames);
        let stop = limit.map_or(frames.len(), |l| map.next_stop(l.min(frames.len())));
        let map = if stop < frames.len() {
            frames.truncate(stop);
            truth.retain(|t| t.start < stop);
            ClosingMap::build(segmenter, &frames)
        } else {
            map
        };
        Stream {
            frames,
            truth,
            user,
            map,
            expected: Vec::new(),
        }
    }

    /// Verdicts expected from a session that replayed the first `k`
    /// frames, keyed on `session`.
    pub fn expected_verdicts(&self, session: usize, k: usize) -> Vec<crate::stats::Verdict> {
        let n = self.map.closed_within(k);
        self.map.closings[..n]
            .iter()
            .zip(&self.expected)
            .filter_map(|(c, e)| {
                e.map(|e| crate::stats::Verdict {
                    session,
                    start: c.start,
                    end: c.end,
                    gesture: e.gesture,
                    user: e.user,
                    identity: e.identity,
                })
            })
            .collect()
    }

    /// Segments whose verdict is published (not noise-rejected).
    pub fn kept(&self) -> usize {
        self.expected.iter().flatten().count()
    }
}

/// Training captures: `reps` repetitions of every gesture by each of
/// `users` cohort users (office, 1.2 m), each reduced to its dominant
/// segment.
pub fn point_training(
    seed: u64,
    users: usize,
    reps: usize,
    pre: &Preprocessor,
) -> Vec<LabeledSample> {
    let mut samples = Vec::new();
    for user in 0..users {
        for gesture in 0..GESTURES {
            for rep in 0..reps {
                let salt = ((user * GESTURES + gesture) * reps + rep) as u64;
                let (_, frames) = gp_testkit::capture(user, gesture, mix(seed, salt));
                if let Some(best) = pre
                    .process(&frames)
                    .into_iter()
                    .max_by_key(|s| s.duration_frames)
                {
                    samples.push(LabeledSample::from_sample(best, gesture, user));
                }
            }
        }
    }
    samples
}

/// A point-cloud stream of `user` performing one chunk per
/// `(environment, gesture order, seed)` back to back, cut near `limit`
/// frames when given.
pub fn point_stream(
    user: usize,
    chunks: &[(Environment, Vec<usize>, u64)],
    pre: &Preprocessor,
    limit: Option<usize>,
) -> Stream<Frame> {
    let mut frames: Vec<Frame> = Vec::new();
    let mut truth = Vec::new();
    for (env, order, seed) in chunks {
        let spec = presets::gestureprint(*env, Scale::Small);
        let chunk = gp_testkit::stream_capture(&spec, user, order, *seed);
        let base = frames.len();
        truth.extend(chunk.truth.iter().map(|t| Truth {
            start: base + t.start_frame,
            end: base + t.end_frame,
            gesture: t.gesture,
        }));
        frames.extend(
            chunk
                .frames
                .into_iter()
                .enumerate()
                .map(|(i, f)| Frame::new((base + i) as f64 * FRAME_S, f.cloud)),
        );
    }
    Stream::new(
        frames,
        truth,
        user,
        OnlineSegmenter::new(pre.config().segmenter.clone()),
        limit,
    )
}

/// One range-Doppler capture of `user` performing `gesture`.
#[derive(Debug, Clone)]
pub struct RdClip {
    /// Performed gesture.
    pub gesture: usize,
    /// Captured frames, timestamped from zero.
    pub frames: Vec<RdFrame>,
}

/// Range-Doppler training samples: `reps` repetitions of every gesture
/// by each of `users` cohort users, each reduced to its dominant
/// segment.
pub fn rd_training(seed: u64, users: usize, reps: usize) -> Vec<RdLabeledSample> {
    let mut samples = Vec::new();
    for user in 0..users {
        for gesture in 0..GESTURES {
            for rep in 0..reps {
                let salt = ((user * GESTURES + gesture) * reps + rep) as u64;
                samples.push(gp_testkit::rd_sample(user, gesture, mix(seed, salt)));
            }
        }
    }
    samples
}

/// `reps` range-Doppler clips of every gesture by `user`.
pub fn rd_clips(seed: u64, user: usize, reps: usize) -> Vec<RdClip> {
    let mut clips = Vec::new();
    for gesture in 0..GESTURES {
        for rep in 0..reps {
            let salt = ((user * GESTURES + gesture) * reps + rep) as u64;
            let (_, frames) = gp_testkit::rd_capture(user, gesture, mix(seed, salt));
            clips.push(RdClip { gesture, frames });
        }
    }
    clips
}

/// One capture as a stream; the whole capture is its ground-truth
/// interval.
pub fn rd_stream(user: usize, clip: &RdClip, segmenter: &RdSegmentConfig) -> Stream<RdFrame> {
    let truth = vec![Truth {
        start: 0,
        end: clip.frames.len(),
        gesture: clip.gesture,
    }];
    let segmenter = OnlineRdSegmenter::new(segmenter.clone());
    Stream::new(clip.frames.clone(), truth, user, segmenter, None)
}

/// Splits `items` over at most `threads` scoped threads, keeping order.
fn par_map<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    })
}

/// Parses the gallery label `user-K` back to `K`.
pub fn user_label(user: usize) -> String {
    format!("user-{user}")
}

fn identity_of(outcome: &Identification) -> Identity {
    match outcome {
        Identification::Accepted(m) => {
            parse_user(&m.user).map_or(Identity::Rejected, Identity::Accepted)
        }
        Identification::Rejected(_) => Identity::Rejected,
    }
}

/// `K` from a `user-K` gallery label.
pub fn parse_user(label: &str) -> Option<usize> {
    label.strip_prefix("user-")?.parse().ok()
}

/// Reference pass over point streams: the online segmenter's segments,
/// `Preprocessor::assemble`, then per-sample `GesturePrint::infer`
/// (and, with a gallery, the embedding lookup an identify-mode session
/// performs).
pub fn point_reference(
    streams: &mut [Stream<Frame>],
    system: &GesturePrint,
    pre: &Preprocessor,
    gallery: Option<&EmbeddingGallery>,
    threads: usize,
) {
    let jobs: Vec<(usize, usize)> = streams
        .iter()
        .enumerate()
        .flat_map(|(s, st)| (0..st.map.closings.len()).map(move |j| (s, j)))
        .collect();
    let shared: &[Stream<Frame>] = streams;
    let results = par_map(&jobs, threads, |&(s, j)| {
        let st = &shared[s];
        let c = st.map.closings[j];
        let sample = pre.assemble(&st.frames[c.start..c.end], c.start)?;
        let sample = LabeledSample::from_sample(sample, 0, 0);
        let inference = system.infer(&sample);
        let identity = match gallery {
            None => Identity::None,
            Some(g) => system
                .embedding_for_gesture(&sample, inference.gesture)
                .map_or(Identity::None, |e| identity_of(&g.identify(&e))),
        };
        Some(Expect {
            gesture: inference.gesture,
            user: inference.user,
            identity,
        })
    });
    for ((s, _), e) in jobs.into_iter().zip(results) {
        streams[s].expected.push(e);
    }
}

/// Reference pass over RD streams: online RD segmentation, the segment
/// window as a sample, then per-sample `GesturePrint::infer_rd`.
pub fn rd_reference(streams: &mut [Stream<RdFrame>], system: &GesturePrint, threads: usize) {
    let expected = par_map(streams, threads, |st| {
        st.map
            .closings
            .iter()
            .map(|c| {
                let inference = system.infer_rd(&RdLabeledSample::from_segment(
                    &st.frames, c.start, c.end, 0, 0,
                ));
                Some(Expect {
                    gesture: inference.gesture,
                    user: inference.user,
                    identity: Identity::None,
                })
            })
            .collect::<Vec<_>>()
    });
    for (st, e) in streams.iter_mut().zip(expected) {
        st.expected = e;
    }
}
