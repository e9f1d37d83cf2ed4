//! GesIDNet: multiscale set abstraction + attention-based multilevel
//! feature fusion (paper §IV-C, Fig. 5).
//!
//! The same architecture is trained twice — once with gesture labels for
//! recognition, once with user labels for identification. Its pieces:
//!
//! 1. **Set abstraction (SA1)** — farthest-point-sample `n₁` centroids;
//!    per centroid and per scale, group the nearest points within radius
//!    `dᵢ`, run a shared MLP and max-pool (PointNet++ MSG block). The
//!    per-scale features are concatenated (`f^s`).
//! 2. **Low level (l₁)** — a shared projection over SA1 features,
//!    max-pooled into the low-level global feature `F¹`.
//! 3. **SA2 + high level (l₂)** — a second abstraction over SA1
//!    centroids, pooled into the high-level global feature `F²`.
//! 4. **Attention fusion (Eqs. 2–3)** — at each level the *other* level's
//!    feature is resized by a Resizing Block (Linear+ReLU); a learned
//!    scoring layer `g(·)` assigns each candidate a logit and the
//!    softmax-weighted sum forms the fusion feature `Y^k`.
//! 5. **Heads + auxiliary loss** — `Y¹` feeds the primary classifier
//!    (P1), `Y²` the auxiliary one (P2); training minimises
//!    `CE(P1) + aux_weight·CE(P2)`, inference uses P1 (paper uses plain
//!    sum, i.e. `aux_weight = 1`).

use crate::features::{ModelInput, POINT_FEATURES};
use crate::mlp::{SharedMlp, SharedMlpTrace};
use crate::PointModel;
use gp_nn::{softmax, softmax_cross_entropy, Linear, Matrix, MaxPool, Parameterized, Relu};
use gp_pointcloud::neighbors::MultiBallQuery;
use gp_pointcloud::sampling::farthest_position_indices;
use gp_pointcloud::Vec3;
use rand::Rng;

/// One grouping scale of a set-abstraction block.
#[derive(Debug, Clone, PartialEq)]
pub struct SaScale {
    /// Ball-query radius `d` (m).
    pub radius: f64,
    /// Points per group `m`.
    pub max_points: usize,
    /// Hidden width of the shared MLP.
    pub hidden: usize,
    /// Output width of the shared MLP.
    pub out: usize,
}

/// GesIDNet hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GesIDNetConfig {
    /// Number of classes (gestures or users).
    pub classes: usize,
    /// SA1 centroid count `n₁`.
    pub sa1_centroids: usize,
    /// SA1 multiscale grouping configuration.
    pub sa1_scales: Vec<SaScale>,
    /// SA2 centroid count `n₂`.
    pub sa2_centroids: usize,
    /// SA2 grouping configuration.
    pub sa2_scale: SaScale,
    /// Low-level global feature width (`F¹`).
    pub low_dim: usize,
    /// High-level global feature width (`F²`).
    pub high_dim: usize,
    /// Hidden width of the classification heads.
    pub head_hidden: usize,
    /// Enables the attention fusion module (ablation: `false` uses
    /// `Y^k = F^k` directly, the paper's "w/o Feature Fusion" arm).
    pub fusion: bool,
    /// Weight of the auxiliary loss.
    pub aux_weight: f32,
}

impl GesIDNetConfig {
    /// The default configuration for `classes` outputs.
    pub fn for_classes(classes: usize) -> Self {
        GesIDNetConfig {
            classes,
            sa1_centroids: 24,
            sa1_scales: vec![
                SaScale {
                    radius: 0.3,
                    max_points: 8,
                    hidden: 24,
                    out: 32,
                },
                SaScale {
                    radius: 0.6,
                    max_points: 12,
                    hidden: 32,
                    out: 48,
                },
            ],
            sa2_centroids: 8,
            sa2_scale: SaScale {
                radius: 0.8,
                max_points: 6,
                hidden: 64,
                out: 96,
            },
            low_dim: 96,
            high_dim: 192,
            head_hidden: 64,
            fusion: true,
            aux_weight: 1.0,
        }
    }

    /// A tiny configuration for gradient tests.
    pub fn tiny(classes: usize) -> Self {
        GesIDNetConfig {
            classes,
            sa1_centroids: 4,
            sa1_scales: vec![SaScale {
                radius: 0.5,
                max_points: 3,
                hidden: 5,
                out: 6,
            }],
            sa2_centroids: 2,
            sa2_scale: SaScale {
                radius: 1.0,
                max_points: 2,
                hidden: 7,
                out: 8,
            },
            low_dim: 6,
            high_dim: 10,
            head_hidden: 5,
            fusion: true,
            aux_weight: 1.0,
        }
    }
}

/// Per-sample geometry of a batch: each sample's FPS centroids and
/// their counts.
struct BatchGeometry {
    centroids: Vec<Vec<Vec3>>,
    counts1: Vec<usize>,
}

/// Stacked SA2 grouping over the whole batch: the group rows, their
/// lengths, the per-sample SA2 centroid counts, and each stacked row's
/// source as a **global** row of the stacked `sa1_concat`.
struct Sa2Stack {
    stacked: Matrix,
    lens: Vec<usize>,
    counts2: Vec<usize>,
    members: Vec<usize>,
}

/// Trace of one set-abstraction stage (an SA1 scale or SA2) over
/// stacked groups: the shared MLP's input and activations, the group
/// lengths, and each group's segment-local pool argmaxes.
struct SaTrace {
    x: Matrix,
    mlp: SharedMlpTrace,
    lens: Vec<usize>,
    pool_args: Vec<Vec<usize>>,
}

/// Trace of one global-feature stage (`F¹` or `F²`): the projection's
/// activation and each sample's pool argmaxes.
struct GlobalTrace {
    act: Matrix,
    args: Vec<Vec<usize>>,
}

/// Attention-fusion intermediates at one level for a whole batch (row
/// `i` belongs to sample `i`): the raw other-level feature fed to the
/// Resizing Block, its output (`F^{l→k}`), the own level's feature
/// `F^k`, and the softmax weights over the two candidates.
struct BatchFusionTrace {
    other: Matrix,
    resized: Matrix,
    own: Matrix,
    weights: Vec<[f32; 2]>,
}

/// What a recording [`GesIDNet::forward`] keeps for the backward: every
/// intermediate, with all samples' rows stacked per stage, and the
/// training-only level-2 fusion `Y²` and auxiliary head P2.
struct BatchTrace {
    sa1: Vec<SaTrace>,
    sa1_concat: Matrix, // (Σ n₁) × c1
    counts1: Vec<usize>,
    low: GlobalTrace,
    sa2_members: Vec<usize>,
    sa2: SaTrace,
    sa2_out: Matrix, // (Σ n₂) × out
    counts2: Vec<usize>,
    high: GlobalTrace,
    fusion1: Option<BatchFusionTrace>,
    h1_act: Matrix,
    fusion2: Option<BatchFusionTrace>,
    y2: Matrix,
    h2_act_a: Matrix,
    h2_act_b: Matrix,
    logits2: Matrix,
}

/// The GesIDNet model.
#[derive(Debug, Clone)]
pub struct GesIDNet {
    config: GesIDNetConfig,
    sa1_mlps: Vec<SharedMlp>,
    low_proj: Linear,
    sa2_mlp: SharedMlp,
    high_proj: Linear,
    rb_low: Linear,  // high_dim → low_dim
    rb_high: Linear, // low_dim → high_dim
    g1: Linear,      // low_dim → 1
    g2: Linear,      // high_dim → 1
    head1_a: Linear,
    head1_b: Linear,
    head2_a: Linear,
    head2_b: Linear,
    head2_c: Linear,
}

impl GesIDNet {
    /// Creates a GesIDNet with seeded initialisation.
    pub fn new<R: Rng>(config: GesIDNetConfig, rng: &mut R) -> Self {
        let c1: usize = config.sa1_scales.iter().map(|s| s.out).sum();
        let sa1_mlps = config
            .sa1_scales
            .iter()
            .map(|s| SharedMlp::new(3 + POINT_FEATURES, s.hidden, s.out, rng))
            .collect();
        let sa2 = &config.sa2_scale;
        GesIDNet {
            sa1_mlps,
            low_proj: Linear::new(c1, config.low_dim, rng),
            sa2_mlp: SharedMlp::new(3 + c1, sa2.hidden, sa2.out, rng),
            high_proj: Linear::new(sa2.out, config.high_dim, rng),
            rb_low: Linear::new(config.high_dim, config.low_dim, rng),
            rb_high: Linear::new(config.low_dim, config.high_dim, rng),
            g1: Linear::new(config.low_dim, 1, rng),
            g2: Linear::new(config.high_dim, 1, rng),
            head1_a: Linear::new(config.low_dim, config.head_hidden, rng),
            head1_b: Linear::new(config.head_hidden, config.classes, rng),
            head2_a: Linear::new(config.high_dim, config.head_hidden * 2, rng),
            head2_b: Linear::new(config.head_hidden * 2, config.head_hidden, rng),
            head2_c: Linear::new(config.head_hidden, config.classes, rng),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GesIDNetConfig {
        &self.config
    }

    /// Per-sample geometry: each input's FPS centroids, read straight
    /// from its positions (grouping is geometry-dependent, so it cannot
    /// batch across distinct clouds — the MLPs can).
    fn batch_geometry(&self, inputs: &[&ModelInput]) -> BatchGeometry {
        let centroids: Vec<Vec<Vec3>> = inputs
            .iter()
            .map(|input| {
                farthest_position_indices(&input.positions, self.config.sa1_centroids)
                    .into_iter()
                    .map(|i| input.positions[i])
                    .collect()
            })
            .collect();
        let counts1 = centroids.iter().map(|c| c.len()).collect();
        BatchGeometry { centroids, counts1 }
    }

    /// SA2 grouping over SA1 centroids, stacked across the batch.
    /// Member indices are recorded as global `sa1_concat` rows so the
    /// backward pass can scatter gradients without per-sample offsets.
    fn stack_sa2(&self, geo: &BatchGeometry, sa1_concat: &Matrix) -> Sa2Stack {
        let cfg = &self.config;
        let sa2 = &cfg.sa2_scale;
        let sa2_width = 3 + sa1_concat.cols();
        let mut query = MultiBallQuery::new([(sa2.radius, sa2.max_points)]);
        let mut counts2: Vec<usize> = Vec::with_capacity(geo.centroids.len());
        let mut lens: Vec<usize> = Vec::new();
        let mut members_all: Vec<usize> = Vec::new();
        let mut rows: Vec<f32> = Vec::new();
        let mut row_off = 0; // this sample's first row within sa1_concat
        for (cents, &count1) in geo.centroids.iter().zip(&geo.counts1) {
            let c2_idx = farthest_position_indices(cents, cfg.sa2_centroids);
            counts2.push(c2_idx.len());
            for &ci in &c2_idx {
                let c = cents[ci];
                let members = &query.query(cents, c)[0];
                for &m in members {
                    push_member(&mut rows, cents[m] - c, sa2, sa1_concat.row(row_off + m));
                }
                lens.push(members.len());
                members_all.extend(members.iter().map(|&m| row_off + m));
            }
            row_off += count1;
        }
        Sa2Stack {
            stacked: Matrix::from_vec(rows.len() / sa2_width, sa2_width, rows),
            lens,
            counts2,
            members: members_all,
        }
    }

    /// The stacked forward, GesIDNet's one body for inference and
    /// training: the P1 logits and the fused features `Y¹` they were
    /// computed from, one row per input.
    ///
    /// Per scale, every group of every sample is stacked into one
    /// matrix, so each shared MLP runs as two big matmuls instead of
    /// `B × n₁` small ones, pooled per group by one segmented kernel.
    /// The projections, the attention fusion and the heads likewise run
    /// over all samples' rows at once. Every kernel computes each output
    /// row from its input rows alone, in the same operation order
    /// whatever the batch size, so each row is bit-identical to its
    /// input run as a batch of one.
    ///
    /// With `record` the forward also returns the backward's trace: it
    /// keeps every stage's intermediates and pool argmaxes, and runs the
    /// level-2 fusion `Y²` and the auxiliary head P2, which exist only
    /// for the training loss. Without it each stage drops its
    /// intermediates when it ends and pools without argmaxes, so
    /// inference pays for none of the recording.
    fn forward(
        &self,
        inputs: &[&ModelInput],
        record: bool,
    ) -> (Matrix, Matrix, Option<BatchTrace>) {
        let cfg = &self.config;
        let c1_dim: usize = cfg.sa1_scales.iter().map(|s| s.out).sum();
        let geo = self.batch_geometry(inputs);
        let total_c1: usize = geo.counts1.iter().sum();

        // --- SA1: per scale, stack every group of every sample -------
        let mut sa1_concat = Matrix::zeros(total_c1, c1_dim);
        let mut sa1 = Vec::new();
        let mut col_off = 0;
        let stacks = stack_sa1(inputs, &geo, &cfg.sa1_scales);
        for ((scale, mlp), (stacked, lens)) in cfg.sa1_scales.iter().zip(&self.sa1_mlps).zip(stacks)
        {
            let (pooled, trace) = sa_stage(mlp, stacked, lens, record);
            for r in 0..total_c1 {
                sa1_concat.row_mut(r)[col_off..col_off + scale.out].copy_from_slice(pooled.row(r));
            }
            col_off += scale.out;
            sa1.extend(trace);
        }

        // --- Low-level feature F1: one projection over all samples'
        // centroid rows, pooled per sample ----------------------------
        let (f1, low) = global_stage(&self.low_proj, &sa1_concat, &geo.counts1, record);

        // --- SA2 over SA1 centroids, stacked across the batch --------
        let sa2s = self.stack_sa2(&geo, &sa1_concat);
        let (sa2_out, sa2) = sa_stage(&self.sa2_mlp, sa2s.stacked, sa2s.lens, record);

        // --- High-level feature F2 -----------------------------------
        let (f2, high) = global_stage(&self.high_proj, &sa2_out, &sa2s.counts2, record);

        // --- Attention fusion (Eqs. 2–3) at level 1, batched: score
        // all samples' candidates with two multi-row passes of g, then
        // weight per row. Y¹ is the identification embedding. --------
        let (y1, fusion1) = self.fuse(&self.rb_low, &self.g1, &f2, &f1);

        // --- Primary head P1, the inference output -------------------
        let h1_act = self.head1_a.forward_relu(&y1);
        let logits = self.head1_b.forward(&h1_act);

        // Without `record` no stage kept a trace, and the forward ends
        // here.
        let (Some(low), Some(sa2), Some(high)) = (low, sa2, high) else {
            return (logits, y1, None);
        };

        // --- Y² and the auxiliary head P2, for the training loss -----
        let (y2, fusion2) = self.fuse(&self.rb_high, &self.g2, &f1, &f2);
        let h2_act_a = self.head2_a.forward_relu(&y2);
        let h2_act_b = self.head2_b.forward_relu(&h2_act_a);
        let logits2 = self.head2_c.forward(&h2_act_b);

        let trace = BatchTrace {
            sa1,
            sa1_concat,
            counts1: geo.counts1,
            low,
            sa2_members: sa2s.members,
            sa2,
            sa2_out,
            counts2: sa2s.counts2,
            high,
            fusion1,
            h1_act,
            fusion2,
            y2,
            h2_act_a,
            h2_act_b,
            logits2,
        };
        (logits, y1, Some(trace))
    }

    /// Attention fusion at one level, `Y^k` from `own = F^k` and the
    /// other level's feature, or `Y^k = F^k` when the ablation turns
    /// fusion off.
    fn fuse(
        &self,
        rb: &Linear,
        g: &Linear,
        other: &Matrix,
        own: &Matrix,
    ) -> (Matrix, Option<BatchFusionTrace>) {
        if self.config.fusion {
            let (y, t) = fuse_batch(rb, g, other, own);
            (y, Some(t))
        } else {
            (own.clone(), None)
        }
    }

    /// Backward of a recording [`GesIDNet::forward`] that returned
    /// `logits1`, `y1` and `t`: loss `CE(P1) + aux_weight·CE(P2)` per
    /// sample, then every Linear/ReLU backward runs once over all
    /// samples' stacked rows and every pooled gradient scatters through
    /// [`MaxPool::backward_segments`]. Gradients accumulate for the
    /// whole mini-batch; the caller takes one optimizer step. Returns
    /// the summed loss.
    fn backward_batch(
        &mut self,
        logits1: &Matrix,
        y1: &Matrix,
        t: &BatchTrace,
        labels: &[usize],
    ) -> f32 {
        let b = labels.len();
        let mut total_loss = 0.0f32;
        let mut g1m = Matrix::zeros(b, self.config.classes);
        let mut g2m = Matrix::zeros(b, self.config.classes);
        for (i, &label) in labels.iter().enumerate() {
            let (l1, grad1) = softmax_cross_entropy(logits1.row(i), label);
            let (l2, grad2) = softmax_cross_entropy(t.logits2.row(i), label);
            g1m.row_mut(i).copy_from_slice(&grad1);
            for (dst, g) in g2m.row_mut(i).iter_mut().zip(&grad2) {
                *dst = g * self.config.aux_weight;
            }
            total_loss += l1 + self.config.aux_weight * l2;
        }

        // Head 1 backward → dY1 (b × low_dim).
        let g = self.head1_b.backward(&t.h1_act, &g1m);
        let g = Relu.backward(&t.h1_act, g);
        let dy1 = self.head1_a.backward(y1, &g);

        // Head 2 backward → dY2 (b × high_dim).
        let g = self.head2_c.backward(&t.h2_act_b, &g2m);
        let g = Relu.backward(&t.h2_act_b, g);
        let g = self.head2_b.backward(&t.h2_act_a, &g);
        let g = Relu.backward(&t.h2_act_a, g);
        let dy2 = self.head2_a.backward(&t.y2, &g);

        // Fusion backward → dF1, dF2 (accumulated from both levels).
        let (df1, df2) = match (&t.fusion1, &t.fusion2) {
            (Some(t1), Some(t2)) => {
                let (d_other, d_own) =
                    fuse_backward_batch(&mut self.rb_low, &mut self.g1, t1, &dy1);
                let mut df2 = d_other;
                let mut df1 = d_own;
                let (d_other, d_own) =
                    fuse_backward_batch(&mut self.rb_high, &mut self.g2, t2, &dy2);
                df1.add_assign(&d_other);
                df2.add_assign(&d_own);
                (df1, df2)
            }
            _ => (dy1, dy2),
        };

        // High branch backward: F2 → sa2_out rows.
        let d_sa2_out =
            global_stage_backward(&mut self.high_proj, &t.sa2_out, &t.counts2, &t.high, &df2);

        // SA2 backward: one stacked MLP pass, then scatter into the
        // global SA1 concat rows each group gathered from.
        let g_group2 = sa_stage_backward(&mut self.sa2_mlp, &t.sa2, &d_sa2_out);
        let mut d_sa1_concat = Matrix::zeros(t.sa1_concat.rows(), t.sa1_concat.cols());
        for (r, &m) in t.sa2_members.iter().enumerate() {
            let src = g_group2.row(r);
            let dst = d_sa1_concat.row_mut(m);
            for (d, s) in dst.iter_mut().zip(&src[3..]) {
                *d += s;
            }
            // positional gradient (src[0..3]) stops here: point
            // coordinates are inputs, not parameters.
        }

        // Low branch backward: F1 → SA1 concat rows.
        let d_low =
            global_stage_backward(&mut self.low_proj, &t.sa1_concat, &t.counts1, &t.low, &df1);
        d_sa1_concat.add_assign(&d_low);

        // SA1 backward per scale: slice this scale's columns out of the
        // concat gradient and push all samples' groups through the
        // shared MLP in one stacked pass.
        let mut offset = 0;
        for (scale_i, scale) in self.config.sa1_scales.iter().enumerate() {
            let width = scale.out;
            let mut d_scale = Matrix::zeros(d_sa1_concat.rows(), width);
            for r in 0..d_sa1_concat.rows() {
                d_scale
                    .row_mut(r)
                    .copy_from_slice(&d_sa1_concat.row(r)[offset..offset + width]);
            }
            let _ = sa_stage_backward(&mut self.sa1_mlps[scale_i], &t.sa1[scale_i], &d_scale);
            offset += width;
        }

        total_loss
    }
}

/// Segmented max-pool. Only a recording forward computes the argmaxes:
/// [`MaxPool::forward_segments`] skips them, and inference runs it.
fn pool(x: &Matrix, lens: &[usize], record: bool) -> (Matrix, Option<Vec<Vec<usize>>>) {
    if record {
        let (pooled, args) = MaxPool.forward_segments_trace(x, lens);
        (pooled, Some(args))
    } else {
        (MaxPool.forward_segments(x, lens), None)
    }
}

/// A set-abstraction stage: the shared MLP over every stacked group
/// row, then one max-pool per group of `lens` rows. Without `record`
/// the MLP's activations are dropped here, at the end of the stage.
fn sa_stage(
    mlp: &SharedMlp,
    x: Matrix,
    lens: Vec<usize>,
    record: bool,
) -> (Matrix, Option<SaTrace>) {
    let acts = mlp.forward(&x);
    let (pooled, pool_args) = pool(&acts.out, &lens, record);
    let trace = pool_args.map(|pool_args| SaTrace {
        x,
        mlp: acts,
        lens,
        pool_args,
    });
    (pooled, trace)
}

/// Backward of [`sa_stage`]: the gradient w.r.t. its stacked group rows.
fn sa_stage_backward(mlp: &mut SharedMlp, t: &SaTrace, grad_out: &Matrix) -> Matrix {
    let g = MaxPool.backward_segments(&t.lens, &t.pool_args, grad_out);
    mlp.backward(&t.x, &t.mlp, g)
}

/// A global-feature stage (`F¹` or `F²`): projection and ReLU over every
/// row of `x`, then one max-pool per sample of `counts` rows. Without
/// `record` the activation is dropped here, at the end of the stage.
fn global_stage(
    proj: &Linear,
    x: &Matrix,
    counts: &[usize],
    record: bool,
) -> (Matrix, Option<GlobalTrace>) {
    let act = proj.forward_relu(x);
    let (pooled, args) = pool(&act, counts, record);
    (pooled, args.map(|args| GlobalTrace { act, args }))
}

/// Backward of [`global_stage`] over the same `x` and `counts`: the
/// gradient w.r.t. `x`.
fn global_stage_backward(
    proj: &mut Linear,
    x: &Matrix,
    counts: &[usize],
    t: &GlobalTrace,
    grad_out: &Matrix,
) -> Matrix {
    let g = MaxPool.backward_segments(counts, &t.args, grad_out);
    let g = Relu.backward(&t.act, g);
    proj.backward(x, &g)
}

/// Stacks every SA1 group of every sample, per scale, into a single
/// `(Σ group rows) × (3 + POINT_FEATURES)` matrix, plus the per-group
/// row counts (sample-major, then centroid order). One ball query per
/// centroid groups it at every scale.
fn stack_sa1(
    inputs: &[&ModelInput],
    geo: &BatchGeometry,
    scales: &[SaScale],
) -> Vec<(Matrix, Vec<usize>)> {
    let group_width = 3 + POINT_FEATURES;
    let groups: usize = geo.counts1.iter().sum();
    let mut query = MultiBallQuery::new(scales.iter().map(|s| (s.radius, s.max_points)));
    let mut stacks: Vec<(Vec<f32>, Vec<usize>)> = scales
        .iter()
        .map(|s| {
            let rows = Vec::with_capacity(groups * s.max_points * group_width);
            (rows, Vec::with_capacity(groups))
        })
        .collect();
    for (input, centroids) in inputs.iter().zip(&geo.centroids) {
        for &c in centroids {
            let members = query.query(&input.positions, c);
            for ((scale, members), (rows, lens)) in scales.iter().zip(members).zip(&mut stacks) {
                for &m in members {
                    push_member(rows, input.positions[m] - c, scale, input.points.row(m));
                }
                lens.push(members.len());
            }
        }
    }
    stacks
        .into_iter()
        .map(|(rows, lens)| {
            (
                Matrix::from_vec(rows.len() / group_width, group_width, rows),
                lens,
            )
        })
        .collect()
}

/// Appends one group row: the member's `offset` from its centroid,
/// normalised by the scale radius (standard PointNet++ conditioning),
/// then the member's `features`.
fn push_member(rows: &mut Vec<f32>, offset: Vec3, scale: &SaScale, features: &[f32]) {
    let d = offset * (1.0 / scale.radius);
    rows.extend_from_slice(&[d.x as f32, d.y as f32, d.z as f32]);
    rows.extend_from_slice(features);
}

/// Attention fusion (Eqs. 2–3), one row per sample: resize `other` to
/// `own`'s level via the RB, score both candidates with `g`, then
/// softmax-weight and sum each row independently. The RB and both
/// scoring passes run as multi-row kernels, so row `i` does not depend
/// on the other rows.
fn fuse_batch(rb: &Linear, g: &Linear, other: &Matrix, own: &Matrix) -> (Matrix, BatchFusionTrace) {
    let resized = rb.forward_relu(other);
    let scores_resized = g.forward(&resized); // b × 1
    let scores_own = g.forward(own); // b × 1
    let b = own.rows();
    let mut y = Matrix::zeros(b, own.cols());
    let mut weights = Vec::with_capacity(b);
    for r in 0..b {
        let w = softmax(&[scores_resized.at(r, 0), scores_own.at(r, 0)]);
        for (j, out) in y.row_mut(r).iter_mut().enumerate() {
            *out = w[0] * resized.at(r, j) + w[1] * own.at(r, j);
        }
        weights.push([w[0], w[1]]);
    }
    (
        y,
        BatchFusionTrace {
            other: other.clone(),
            resized,
            own: own.clone(),
            weights,
        },
    )
}

/// Backward of [`fuse_batch`]; returns `(d_other, d_own)` with one row
/// per sample. The attention-weight path (through the softmax over the
/// two candidate scores) is computed row-wise; the RB and `g` backward
/// passes run over all rows at once.
fn fuse_backward_batch(
    rb: &mut Linear,
    g: &mut Linear,
    t: &BatchFusionTrace,
    dy: &Matrix,
) -> (Matrix, Matrix) {
    let b = dy.rows();
    let mut d_resized = Matrix::zeros(b, t.resized.cols());
    let mut d_own = Matrix::zeros(b, t.own.cols());
    let mut da = Matrix::zeros(b, 1);
    let mut db = Matrix::zeros(b, 1);
    for r in 0..b {
        let [wa, wb] = t.weights[r];
        let dy_r = dy.row(r);
        // Direct path.
        for (d, v) in d_resized.row_mut(r).iter_mut().zip(dy_r) {
            *d = v * wa;
        }
        for (d, v) in d_own.row_mut(r).iter_mut().zip(dy_r) {
            *d = v * wb;
        }
        // Attention-weight path through the softmax over (a, b).
        let dwa: f32 = dy_r.iter().zip(t.resized.row(r)).map(|(d, v)| d * v).sum();
        let dwb: f32 = dy_r.iter().zip(t.own.row(r)).map(|(d, v)| d * v).sum();
        let common = wa * dwa + wb * dwb;
        da.set(r, 0, wa * (dwa - common));
        db.set(r, 0, wb * (dwb - common));
    }
    // Through g on both candidates, all rows at once.
    d_resized.add_assign(&g.backward(&t.resized, &da));
    d_own.add_assign(&g.backward(&t.own, &db));
    // Through the RB to the other level's raw feature.
    let g_rb = Relu.backward(&t.resized, d_resized);
    let d_other = rb.backward(&t.other, &g_rb);
    (d_other, d_own)
}

impl PointModel for GesIDNet {
    fn logits_and_embedding_batch(&self, inputs: &[ModelInput]) -> (Matrix, Option<Matrix>) {
        if inputs.is_empty() {
            return (
                Matrix::zeros(0, self.config.classes),
                Some(Matrix::zeros(0, self.config.low_dim)),
            );
        }
        let inputs: Vec<&ModelInput> = inputs.iter().collect();
        // The primary prediction P1 is the inference output (paper
        // §IV-C).
        let (logits, embeddings, _) = self.forward(&inputs, false);
        (logits, Some(embeddings))
    }

    fn train_step_batch(&mut self, inputs: &[&ModelInput], labels: &[usize]) -> f32 {
        assert_eq!(inputs.len(), labels.len(), "inputs/labels length mismatch");
        if inputs.is_empty() {
            return 0.0;
        }
        let (logits, y1, trace) = self.forward(inputs, true);
        let trace = trace.expect("a recording forward returns its trace");
        self.backward_batch(&logits, &y1, &trace, labels)
    }

    fn feature_taps(&self, input: &ModelInput) -> Option<(Vec<f32>, Vec<f32>, Vec<f32>)> {
        // The recording forward on a batch of one: F¹/F² are the fusion
        // inputs at their own level (or Y¹/Y² themselves without
        // fusion), so this also cross-checks the non-recording
        // forward's Y¹.
        let (_, y1, trace) = self.forward(&[input], true);
        let t = trace.expect("a recording forward returns its trace");
        let (f1, f2) = match (&t.fusion1, &t.fusion2) {
            (Some(t1), Some(t2)) => (t1.own.row(0).to_vec(), t2.own.row(0).to_vec()),
            _ => (y1.row(0).to_vec(), t.y2.row(0).to_vec()),
        };
        Some((f1, f2, y1.row(0).to_vec()))
    }
}

impl Parameterized for GesIDNet {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for m in &mut self.sa1_mlps {
            m.for_each_param(f);
        }
        self.low_proj.for_each_param(f);
        self.sa2_mlp.for_each_param(f);
        self.high_proj.for_each_param(f);
        self.rb_low.for_each_param(f);
        self.rb_high.for_each_param(f);
        self.g1.for_each_param(f);
        self.g2.for_each_param(f);
        self.head1_a.for_each_param(f);
        self.head1_b.for_each_param(f);
        self.head2_a.for_each_param(f);
        self.head2_b.for_each_param(f);
        self.head2_c.for_each_param(f);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&[f32])) {
        for m in &self.sa1_mlps {
            m.visit_params(f);
        }
        self.low_proj.visit_params(f);
        self.sa2_mlp.visit_params(f);
        self.high_proj.visit_params(f);
        self.rb_low.visit_params(f);
        self.rb_high.visit_params(f);
        self.g1.visit_params(f);
        self.g2.visit_params(f);
        self.head1_a.visit_params(f);
        self.head1_b.visit_params(f);
        self.head2_a.visit_params(f);
        self.head2_b.visit_params(f);
        self.head2_c.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{encode, FeatureConfig};
    use gp_nn::argmax;
    use gp_pointcloud::{Point, PointCloud};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_input(seed: u64, shift: f64) -> ModelInput {
        let cloud: PointCloud = (0..24)
            .map(|i| {
                let t = i as f64 * 0.4 + seed as f64;
                Point::new(
                    Vec3::new(
                        t.sin() * 0.3 + shift,
                        1.2 + t.cos() * 0.2,
                        1.0 + (t * 0.7).sin() * 0.3,
                    ),
                    (t * 1.3).sin(),
                    15.0,
                )
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        encode(
            &cloud,
            &[],
            &FeatureConfig {
                num_points: 24,
                ..FeatureConfig::default()
            },
            &mut rng,
        )
    }

    /// Logits and embeddings of a batch.
    fn batch_of(net: &GesIDNet, inputs: &[ModelInput]) -> (Matrix, Matrix) {
        let (logits, embeddings) = net.logits_and_embedding_batch(inputs);
        (logits, embeddings.expect("GesIDNet has an embedding"))
    }

    /// Logits and embedding of one input: a batch of one.
    fn logits_and_embedding_of(net: &GesIDNet, input: &ModelInput) -> (Vec<f32>, Vec<f32>) {
        let (logits, embeddings) = batch_of(net, std::slice::from_ref(input));
        (logits.row(0).to_vec(), embeddings.row(0).to_vec())
    }

    fn logits_of(net: &GesIDNet, input: &ModelInput) -> Vec<f32> {
        logits_and_embedding_of(net, input).0
    }

    /// One training step on one pair: a batch of one.
    fn step_one(net: &mut GesIDNet, input: &ModelInput, label: usize) -> f32 {
        net.train_step_batch(&[input], &[label])
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = GesIDNet::new(GesIDNetConfig::for_classes(7), &mut rng);
        let logits = logits_of(&net, &toy_input(1, 0.0));
        assert_eq!(logits.len(), 7);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic_inference() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = GesIDNet::new(GesIDNetConfig::for_classes(4), &mut rng);
        let input = toy_input(2, 0.0);
        assert_eq!(logits_of(&net, &input), logits_of(&net, &input));
    }

    #[test]
    fn train_step_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = GesIDNet::new(GesIDNetConfig::tiny(3), &mut rng);
        let mut adam = gp_nn::Adam::new(5e-3);
        let input = toy_input(3, 0.0);
        let first = step_one(&mut net, &input, 1);
        adam.begin_step();
        net.for_each_param(&mut |p, g| adam.update(p, g));
        let mut last = first;
        for _ in 0..60 {
            last = step_one(&mut net, &input, 1);
            adam.begin_step();
            net.for_each_param(&mut |p, g| adam.update(p, g));
        }
        assert!(
            last < first * 0.5,
            "loss should drop: first {first}, last {last}"
        );
    }

    #[test]
    fn learns_to_separate_two_blobs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = GesIDNet::new(GesIDNetConfig::tiny(2), &mut rng);
        let mut adam = gp_nn::Adam::new(5e-3);
        let data: Vec<(ModelInput, usize)> = (0..8)
            .map(|i| {
                let label = i % 2;
                (
                    toy_input(i as u64, if label == 0 { -0.5 } else { 0.5 }),
                    label,
                )
            })
            .collect();
        for _ in 0..80 {
            for (x, y) in &data {
                step_one(&mut net, x, *y);
                adam.begin_step();
                net.for_each_param(&mut |p, g| adam.update(p, g));
            }
        }
        let correct = data
            .iter()
            .filter(|(x, y)| argmax(&logits_of(&net, x)) == *y)
            .count();
        assert!(correct >= 7, "classification failed: {correct}/8");
    }

    #[test]
    fn forward_batch_bit_exact_with_per_sample_logits() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = GesIDNet::new(GesIDNetConfig::for_classes(5), &mut rng);
        for batch in 1..=4usize {
            let inputs: Vec<ModelInput> = (0..batch)
                .map(|k| toy_input(10 + k as u64, 0.1 * k as f64))
                .collect();
            let (batched, embeddings) = batch_of(&net, &inputs);
            assert_eq!(batched.rows(), batch);
            for (i, input) in inputs.iter().enumerate() {
                let (logits, embedding) = logits_and_embedding_of(&net, input);
                assert_eq!(batched.row(i), logits.as_slice(), "batch {batch} row {i}");
                assert_eq!(
                    embeddings.row(i),
                    embedding.as_slice(),
                    "batch {batch} embedding {i}"
                );
            }
        }
        let (logits, embeddings) = batch_of(&net, &[]);
        assert_eq!((logits.rows(), embeddings.rows()), (0, 0));
    }

    #[test]
    fn forward_batch_gives_duplicate_inputs_bit_identical_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = GesIDNet::new(GesIDNetConfig::for_classes(3), &mut rng);
        let a = toy_input(20, 0.0);
        let b = toy_input(21, 0.4);
        // Duplicates interleaved with distinct inputs must still land
        // each input's own logits in its own row.
        let inputs = vec![a.clone(), b.clone(), a.clone(), a, b];
        let (batched, embeddings) = batch_of(&net, &inputs);
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(batched.row(i), logits_of(&net, input).as_slice(), "row {i}");
        }
        assert_eq!(batched.row(0), batched.row(2));
        assert_eq!(batched.row(1), batched.row(4));
        assert_eq!(embeddings.row(0), embeddings.row(3));
        assert_ne!(embeddings.row(0), embeddings.row(1));
    }

    #[test]
    fn forward_batch_without_fusion_matches_too() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = GesIDNet::new(
            GesIDNetConfig {
                fusion: false,
                ..GesIDNetConfig::for_classes(3)
            },
            &mut rng,
        );
        let inputs: Vec<ModelInput> = (0..3).map(|k| toy_input(30 + k, 0.0)).collect();
        let (batched, embeddings) = batch_of(&net, &inputs);
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(batched.row(i), logits_of(&net, input).as_slice(), "row {i}");
            // Without fusion the embedding is the low-level feature F¹.
            let (low, _, fused) = net.feature_taps(input).unwrap();
            assert_eq!(fused, low);
            assert_eq!(embeddings.row(i), fused.as_slice(), "embedding {i}");
        }
    }

    #[test]
    fn fusion_ablation_changes_outputs() {
        let mut rng = StdRng::seed_from_u64(5);
        let with = GesIDNet::new(GesIDNetConfig::for_classes(3), &mut rng);
        let mut rng = StdRng::seed_from_u64(5);
        let without = GesIDNet::new(
            GesIDNetConfig {
                fusion: false,
                ..GesIDNetConfig::for_classes(3)
            },
            &mut rng,
        );
        let input = toy_input(6, 0.0);
        assert_ne!(logits_of(&with, &input), logits_of(&without, &input));
    }

    #[test]
    fn feature_taps_exposed() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = GesIDNet::new(GesIDNetConfig::for_classes(3), &mut rng);
        let input = toy_input(7, 0.0);
        let (low, high, fused) = net.feature_taps(&input).unwrap();
        assert_eq!(low.len(), net.config().low_dim);
        assert_eq!(high.len(), net.config().high_dim);
        assert_eq!(fused.len(), net.config().low_dim);
        // Inference hands back the same fused tap next to the logits.
        let (_, embedding) = logits_and_embedding_of(&net, &input);
        assert_eq!(embedding, fused);
    }

    fn grads_of(net: &mut GesIDNet) -> Vec<f32> {
        let mut g = Vec::new();
        net.for_each_param(&mut |_, gs| g.extend_from_slice(gs));
        g
    }

    #[test]
    fn batched_gradients_match_sequential_sum() {
        // One batched backward must accumulate the same total gradient
        // as per-sample steps (batches of one) over the batch. Not
        // bit-exact — stacking rows associates the float additions
        // differently — so compare with a relative tolerance.
        let mut rng = StdRng::seed_from_u64(12);
        let mut seq = GesIDNet::new(GesIDNetConfig::for_classes(3), &mut rng);
        let mut bat = seq.clone();
        let inputs: Vec<ModelInput> = (0..4).map(|k| toy_input(50 + k, 0.15 * k as f64)).collect();
        let labels = [0usize, 1, 2, 1];

        let mut seq_loss = 0.0f32;
        for (x, &y) in inputs.iter().zip(&labels) {
            seq_loss += step_one(&mut seq, x, y);
        }
        let refs: Vec<&ModelInput> = inputs.iter().collect();
        let bat_loss = bat.train_step_batch(&refs, &labels);

        assert!(
            (seq_loss - bat_loss).abs() <= 1e-4 * (1.0 + seq_loss.abs()),
            "loss: sequential {seq_loss} vs batched {bat_loss}"
        );
        let gs = grads_of(&mut seq);
        let gb = grads_of(&mut bat);
        assert_eq!(gs.len(), gb.len());
        let mut worst = 0.0f32;
        for (i, (s, b)) in gs.iter().zip(&gb).enumerate() {
            let rel = (s - b).abs() / (1e-4 + s.abs().max(b.abs()));
            assert!(
                rel < 1e-2,
                "grad {i}: sequential {s} vs batched {b} (rel {rel})"
            );
            worst = worst.max(rel);
        }
        assert!(worst.is_finite());
    }

    #[test]
    fn batched_gradients_match_sequential_without_fusion() {
        let mut rng = StdRng::seed_from_u64(13);
        let cfg = GesIDNetConfig {
            fusion: false,
            ..GesIDNetConfig::tiny(2)
        };
        let mut seq = GesIDNet::new(cfg, &mut rng);
        let mut bat = seq.clone();
        let inputs: Vec<ModelInput> = (0..3).map(|k| toy_input(60 + k, 0.2 * k as f64)).collect();
        let labels = [1usize, 0, 1];
        for (x, &y) in inputs.iter().zip(&labels) {
            step_one(&mut seq, x, y);
        }
        let refs: Vec<&ModelInput> = inputs.iter().collect();
        bat.train_step_batch(&refs, &labels);
        for (i, (s, b)) in grads_of(&mut seq)
            .iter()
            .zip(&grads_of(&mut bat))
            .enumerate()
        {
            let rel = (s - b).abs() / (1e-4 + s.abs().max(b.abs()));
            assert!(rel < 1e-2, "grad {i}: {s} vs {b}");
        }
    }

    #[test]
    fn batched_gradients_match_finite_differences() {
        // The backward checked against numeric differentiation of the
        // summed loss, for a batch of one (a single sample's step) and a
        // stacked batch of three. Spot-checks parameters
        // across all blocks of a tiny network.
        let inputs: Vec<ModelInput> = (0..3).map(|k| toy_input(70 + k, 0.1 * k as f64)).collect();
        let labels = [2usize, 0, 1];
        for batch in [1usize, 3] {
            let mut rng = StdRng::seed_from_u64(14);
            let mut net = GesIDNet::new(GesIDNetConfig::tiny(3), &mut rng);
            let refs: Vec<&ModelInput> = inputs[..batch].iter().collect();
            let labels = &labels[..batch];

            net.zero_grads();
            net.train_step_batch(&refs, labels);
            let analytic = grads_of(&mut net);

            let loss_of = |net: &GesIDNet| {
                let (logits1, _, t) = net.forward(&refs, true);
                let t = t.unwrap();
                let mut loss = 0.0f32;
                for (i, &label) in labels.iter().enumerate() {
                    let (l1, _) = softmax_cross_entropy(logits1.row(i), label);
                    let (l2, _) = softmax_cross_entropy(t.logits2.row(i), label);
                    loss += l1 + l2;
                }
                loss
            };

            let eps = 1e-2f32;
            let total = analytic.len();
            let step = (total / 60).max(1);
            let mut checked = 0;
            let mut failures = Vec::new();
            for idx in (0..total).step_by(step) {
                let nudge = |net: &mut GesIDNet, delta: f32| {
                    let mut pos = 0;
                    net.for_each_param(&mut |p, _| {
                        if idx >= pos && idx < pos + p.len() {
                            p[idx - pos] += delta;
                        }
                        pos += p.len();
                    });
                };
                nudge(&mut net, eps);
                let lp = loss_of(&net);
                nudge(&mut net, -2.0 * eps);
                let lm = loss_of(&net);
                nudge(&mut net, eps);
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic[idx];
                if (a - numeric).abs() > 4e-2 * (1.0 + numeric.abs()) {
                    failures.push((idx, a, numeric));
                }
                checked += 1;
            }
            assert!(checked > 20);
            assert!(
                failures.len() <= checked / 10,
                "batch {batch}: gradient mismatches: {failures:?}"
            );
        }
    }

    #[test]
    fn batched_training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut net = GesIDNet::new(GesIDNetConfig::tiny(2), &mut rng);
        let mut adam = gp_nn::Adam::new(5e-3);
        let inputs: Vec<ModelInput> = (0..4)
            .map(|i| toy_input(80 + i, if i % 2 == 0 { -0.5 } else { 0.5 }))
            .collect();
        let refs: Vec<&ModelInput> = inputs.iter().collect();
        let labels = [0usize, 1, 0, 1];
        let first = net.train_step_batch(&refs, &labels);
        adam.begin_step();
        net.for_each_param(&mut |p, g| adam.update(p, g));
        let mut last = first;
        for _ in 0..60 {
            last = net.train_step_batch(&refs, &labels);
            adam.begin_step();
            net.for_each_param(&mut |p, g| adam.update(p, g));
        }
        assert!(
            last < first * 0.5,
            "batched loss should drop: first {first}, last {last}"
        );
    }

    #[test]
    fn batched_training_matches_sequential_predictions() {
        // Train two clones of the same network on the same data with
        // the same optimizer cadence — one accumulating per-sample
        // steps (batches of one), one through the stacked batch step.
        // The gradient sums differ only in float association, so the
        // trained models must agree on every prediction and land at
        // close losses.
        let mut rng = StdRng::seed_from_u64(16);
        let mut seq = GesIDNet::new(GesIDNetConfig::tiny(2), &mut rng);
        let mut bat = seq.clone();
        let mut adam_seq = gp_nn::Adam::new(5e-3);
        let mut adam_bat = gp_nn::Adam::new(5e-3);
        let data: Vec<(ModelInput, usize)> = (0..8)
            .map(|i| {
                let label = i % 2;
                (
                    toy_input(90 + i as u64, if label == 0 { -0.5 } else { 0.5 }),
                    label,
                )
            })
            .collect();

        let mut seq_loss = 0.0f32;
        let mut bat_loss = 0.0f32;
        for _ in 0..25 {
            for chunk in data.chunks(4) {
                seq_loss = chunk.iter().map(|(x, y)| step_one(&mut seq, x, *y)).sum();
                adam_seq.begin_step();
                seq.for_each_param(&mut |p, g| adam_seq.update(p, g));

                let inputs: Vec<&ModelInput> = chunk.iter().map(|(x, _)| x).collect();
                let labels: Vec<usize> = chunk.iter().map(|(_, y)| *y).collect();
                bat_loss = bat.train_step_batch(&inputs, &labels);
                adam_bat.begin_step();
                bat.for_each_param(&mut |p, g| adam_bat.update(p, g));
            }
        }

        assert!(
            (seq_loss - bat_loss).abs() <= 0.05 * (1.0 + seq_loss.abs()),
            "final losses diverged: sequential {seq_loss} vs batched {bat_loss}"
        );
        for (i, (x, _)) in data.iter().enumerate() {
            assert_eq!(
                argmax(&logits_of(&seq, x)),
                argmax(&logits_of(&bat, x)),
                "prediction {i} diverged"
            );
        }
    }

    #[test]
    fn attention_weights_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(8);
        let rb = Linear::new(4, 3, &mut rng);
        let g = Linear::new(3, 1, &mut rng);
        let other = Matrix::from_rows(&[vec![0.5, -0.2, 0.1, 0.9], vec![-1.0, 2.0, 0.3, 0.0]]);
        let own = Matrix::from_rows(&[vec![1.0, 0.0, -1.0], vec![0.2, 0.4, 3.0]]);
        let (y, trace) = fuse_batch(&rb, &g, &other, &own);
        assert_eq!(y.rows(), 2);
        for w in &trace.weights {
            assert!((w[0] + w[1] - 1.0).abs() < 1e-6);
            assert!(w.iter().all(|w| (0.0..=1.0).contains(w)));
        }
    }
}
