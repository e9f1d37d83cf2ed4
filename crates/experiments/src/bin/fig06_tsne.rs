//! E13 — Fig. 6: t-SNE visualisation of GesIDNet features.
//!
//! Trains GesIDNet for both tasks, taps the low-level, high-level and
//! fusion features on test samples, embeds each set with t-SNE, and
//! writes CSVs. The paper's shape: fusion features cluster by class more
//! cleanly than either single level, especially for user identification.

use gestureprint_core::{train_classifier, TrainConfig};
use gp_datasets::{build, presets, BuildOptions, Scale};
use gp_eval::tsne::{tsne_2d, TsneConfig};
use gp_experiments::{parse_scale, split80, write_csv};
use gp_pipeline::LabeledSample;
use gp_radar::Environment;

fn main() {
    let scale = match parse_scale() {
        Scale::Paper => Scale::Paper,
        _ => Scale::Custom { users: 5, reps: 10 },
    };
    println!("== Fig. 6: t-SNE of GesIDNet features ==");
    let spec = presets::gestureprint(Environment::Office, scale);
    let ds = build(&spec, &BuildOptions::default());
    let samples: Vec<&LabeledSample> = ds.samples.iter().map(|s| &s.labeled).collect();
    let (train, test) = split80(&samples, 0x75E3);

    for (task, label_of) in [
        (
            "gesture",
            Box::new(|s: &LabeledSample| s.gesture) as Box<dyn Fn(&LabeledSample) -> usize>,
        ),
        ("user", Box::new(|s: &LabeledSample| s.user)),
    ] {
        let classes = if task == "gesture" {
            spec.set.gesture_count()
        } else {
            spec.users
        };
        let pairs: Vec<(&LabeledSample, usize)> = train.iter().map(|s| (*s, label_of(s))).collect();
        let model = train_classifier(&pairs, classes, &TrainConfig::default(), None);

        // Tap features on up to 150 test samples.
        let mut low = Vec::new();
        let mut high = Vec::new();
        let mut fused = Vec::new();
        let mut labels = Vec::new();
        for s in test.iter().take(150) {
            if let Some((l, h, f)) = model.feature_taps(s) {
                low.push(l.iter().map(|v| *v as f64).collect::<Vec<f64>>());
                high.push(h.iter().map(|v| *v as f64).collect());
                fused.push(f.iter().map(|v| *v as f64).collect());
                labels.push(label_of(s));
            }
        }
        println!("{task}: tapped {} samples", labels.len());
        let cfg = TsneConfig::default();
        for (level, feats) in [("low", &low), ("high", &high), ("fusion", &fused)] {
            let emb = tsne_2d(feats, &cfg);
            let rows: Vec<String> = emb
                .iter()
                .zip(&labels)
                .map(|(p, l)| format!("{l},{:.4},{:.4}", p[0], p[1]))
                .collect();
            let name = format!("fig06_{task}_{level}.csv");
            let path = write_csv(&name, "label,x,y", &rows).expect("csv");
            // Quick clustering quality indicator: mean intra-class vs
            // global distance ratio (lower = tighter clusters).
            let quality = cluster_quality(&emb, &labels);
            println!(
                "  {level:<6} → {} (separation score {quality:.3}; higher = better)",
                path.display()
            );
        }
    }
    println!("\npaper shape: fusion features form the clearest class clusters.");
}

/// Ratio of mean inter-class centroid distance to mean intra-class
/// spread in the 2-D embedding (higher = better separated).
fn cluster_quality(emb: &[[f64; 2]], labels: &[usize]) -> f64 {
    let classes: std::collections::BTreeSet<usize> = labels.iter().copied().collect();
    let mut centroids = Vec::new();
    let mut intra = 0.0;
    let mut count = 0usize;
    for &c in &classes {
        let pts: Vec<&[f64; 2]> = emb
            .iter()
            .zip(labels)
            .filter(|(_, l)| **l == c)
            .map(|(p, _)| p)
            .collect();
        if pts.is_empty() {
            continue;
        }
        let cx = pts.iter().map(|p| p[0]).sum::<f64>() / pts.len() as f64;
        let cy = pts.iter().map(|p| p[1]).sum::<f64>() / pts.len() as f64;
        for p in &pts {
            intra += ((p[0] - cx).powi(2) + (p[1] - cy).powi(2)).sqrt();
            count += 1;
        }
        centroids.push([cx, cy]);
    }
    let intra = intra / count.max(1) as f64;
    let mut inter = 0.0;
    let mut pairs = 0usize;
    for i in 0..centroids.len() {
        for j in i + 1..centroids.len() {
            inter += ((centroids[i][0] - centroids[j][0]).powi(2)
                + (centroids[i][1] - centroids[j][1]).powi(2))
            .sqrt();
            pairs += 1;
        }
    }
    let inter = inter / pairs.max(1) as f64;
    if intra > 0.0 {
        inter / intra
    } else {
        f64::INFINITY
    }
}
