//! E11 — Fig. 15: multi-person scenarios.
//!
//! Case (a): someone walks past behind the user. Case (b): someone else
//! performs gestures 1.5 m to the side. In both cases the DBSCAN-based
//! noise canceling must isolate the main (user) cluster.

use gp_datasets::BuildOptions;
use gp_experiments::write_csv;
use gp_kinematics::gestures::{GestureId, GestureSet};
use gp_kinematics::performance::PerformanceConfig;
use gp_kinematics::{Performance, UserProfile};
use gp_pipeline::{NoiseCanceler, Preprocessor, PreprocessorConfig, Segmenter};
use gp_pointcloud::Vec3;
use gp_radar::scene::{SceneEntity, Walker};
use gp_radar::{Environment, RadarSimulator, Scene};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("== Fig. 15: multi-person separation ==");
    let user = UserProfile::generate(0, 42);
    let other = UserProfile::generate(7, 42);
    let opts = BuildOptions::default();

    // Case (a): walker passes behind the user.
    let seed = 77u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let perf = Performance::new(&user, GestureSet::Asl15, GestureId(12), 1.2, &mut rng);
    let mut scene = Scene::for_performance(perf, Environment::MeetingRoom, seed);
    scene.push(SceneEntity::Walker(Walker {
        start: Vec3::new(-3.0, 3.2, 0.0),
        velocity: Vec3::new(1.1, 0.0, 0.0),
        height: 1.76,
        enter_time: 0.4,
    }));
    report_case("(a) walker behind user", &scene, seed, &opts);

    // Case (b): second performer 1.5 m to the side.
    let seed = 78u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let perf = Performance::new(&user, GestureSet::Asl15, GestureId(12), 1.2, &mut rng);
    let mut scene = Scene::for_performance(perf, Environment::MeetingRoom, seed);
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let interferer = Performance::with_config(
        &other,
        GestureSet::Asl15,
        GestureId(4),
        PerformanceConfig {
            distance: 1.6,
            lateral_offset: 2.4,
            ..Default::default()
        },
        &mut rng2,
    );
    scene.push(SceneEntity::Performer(Box::new(interferer)));
    report_case("(b) second performer at +2.4 m", &scene, seed, &opts);

    println!("\npaper shape: the main cluster tracks the user; other clusters are discarded.");
    println!("minimum separable distance is governed by DBSCAN D_max (§VII-1): performers");
    println!("closer than ≈2·D_max merge through their arm spans, as the paper acknowledges.");
}

fn report_case(label: &str, scene: &Scene, seed: u64, opts: &BuildOptions) {
    let mut sim = RadarSimulator::new(opts.radar.clone(), opts.backend, seed ^ 0x51B);
    let frames = sim.capture_scene(scene);
    let segments = Segmenter::default().segment(&frames);
    let Some(seg) = segments.iter().max_by_key(|s| s.len()) else {
        println!("{label}: no segment found");
        return;
    };
    let aggregated = gp_radar::frame::aggregate(&frames[seg.start..seg.end]);
    let canceler = NoiseCanceler::default();
    let clustering = canceler.clusters(&aggregated);
    let main = canceler.clean(&aggregated);
    let centroid = main.centroid().expect("main cluster non-empty");
    println!("\n{label}:");
    println!(
        "  aggregated {} points → {} clusters + {} noise",
        aggregated.len(),
        clustering.cluster_count(),
        clustering.noise_count()
    );
    println!(
        "  main cluster: {} points, centroid ({:.2}, {:.2}, {:.2})",
        main.len(),
        centroid.x,
        centroid.y,
        centroid.z
    );
    assert!(
        centroid.x.abs() < 0.7 && (centroid.y - 1.2).abs() < 0.8,
        "main cluster should track the user at (0, 1.2)"
    );
    // Export cluster assignments for plotting.
    let mut rows = Vec::new();
    for (i, p) in aggregated.iter().enumerate() {
        let cluster = match clustering.labels()[i] {
            gp_pointcloud::ClusterLabel::Cluster(id) => id as i64,
            gp_pointcloud::ClusterLabel::Noise => -1,
        };
        rows.push(format!(
            "{},{cluster},{:.3},{:.3},{:.3}",
            label.chars().nth(1).expect("label"),
            p.position.x,
            p.position.y,
            p.position.z
        ));
    }
    let name = if label.starts_with("(a)") {
        "fig15_case_a.csv"
    } else {
        "fig15_case_b.csv"
    };
    let p = write_csv(name, "case,cluster,x,y,z", &rows).expect("csv");
    println!("  csv: {}", p.display());

    // The full pipeline should also produce a clean sample.
    let samples = Preprocessor::new(PreprocessorConfig::default()).process(&frames);
    assert!(
        !samples.is_empty(),
        "pipeline should still yield the user's gesture"
    );
}
