//! Identity-store persistence benchmarks: gallery encode/decode through
//! both artifact formats, plus a committed size comparison.
//!
//! The criterion benchmarks time the hot persistence operations (what a
//! `gp_store::ArtifactRegistry::publish` pays per gallery checkpoint);
//! `size_report` then serialises deterministic galleries at several
//! population sizes through both envelope formats, proves the binary
//! round-trip is *bit-identical* to the JSON one, and writes the size
//! table as the committed `results/BENCH_store.json` artifact. The
//! report's inputs are fixed (seeded values, no timers), so the
//! committed file only changes when the schema or the codecs do.

use criterion::{criterion_group, Criterion};
use gestureprint_core::artifact::{kinds, Artifact, ArtifactFormat};
use gp_codec::{Decode, Encode, Value};
use gp_store::EmbeddingGallery;

/// Embedding dimension for every benchmark gallery — the GesIDNet
/// fusion feature width used across the serve benches.
const DIM: usize = 128;
/// Enrollments per user; >1 so persisted sums exercise real
/// accumulation, not single-sample templates.
const SAMPLES_PER_USER: usize = 4;

/// A deterministic gallery of `users` users: embeddings come from a
/// fixed-seed LCG, so every run on every machine builds the same bytes.
fn gallery(users: usize) -> EmbeddingGallery {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    };
    let mut g = EmbeddingGallery::new();
    for u in 0..users {
        let user = format!("user-{u:03}");
        for _ in 0..SAMPLES_PER_USER {
            let embedding: Vec<f32> = (0..DIM).map(|_| next()).collect();
            g.enroll(&user, &embedding).expect("enroll");
        }
    }
    g.set_threshold(1.5);
    g
}

fn bench_store(c: &mut Criterion) {
    let g = gallery(16);
    let payload = g.encode();
    let json = Artifact::new(kinds::GALLERY, payload.clone()).to_bytes();
    let binary = Artifact::new(kinds::GALLERY, payload).into_bytes_with(ArtifactFormat::Binary);

    let mut group = c.benchmark_group("store");
    group.bench_function("gallery_encode_json_16users", |b| {
        b.iter(|| Artifact::new(kinds::GALLERY, g.encode()).to_bytes())
    });
    group.bench_function("gallery_encode_binary_16users", |b| {
        b.iter(|| Artifact::new(kinds::GALLERY, g.encode()).into_bytes_with(ArtifactFormat::Binary))
    });
    group.bench_function("gallery_decode_json_16users", |b| {
        b.iter(|| {
            let artifact = Artifact::from_bytes(&json).expect("envelope");
            EmbeddingGallery::decode(&artifact.payload).expect("gallery")
        })
    });
    group.bench_function("gallery_decode_binary_16users", |b| {
        b.iter(|| {
            let artifact = Artifact::from_bytes(&binary).expect("envelope");
            EmbeddingGallery::decode(&artifact.payload).expect("gallery")
        })
    });
    group.finish();
}

/// Serialises deterministic galleries through both formats, verifies
/// the binary path decodes bit-identically to the JSON path, and
/// commits the size table as `results/BENCH_store.json`.
fn size_report() {
    let mut rows = Vec::new();
    println!("gallery artifact size, JSON vs binary envelope (dim {DIM}):");
    for users in [2usize, 8, 32, 128] {
        let g = gallery(users);
        let payload = g.encode();
        let json = Artifact::new(kinds::GALLERY, payload.clone()).to_bytes();
        let binary =
            Artifact::new(kinds::GALLERY, payload.clone()).into_bytes_with(ArtifactFormat::Binary);

        // Bit-identical: both envelopes reconstruct the exact payload
        // tree and the exact gallery (f64 sums included), and the
        // binary encoder is canonical — re-encoding reproduces bytes.
        let from_json = Artifact::from_bytes(&json).expect("json envelope");
        let from_binary = Artifact::from_bytes(&binary).expect("binary envelope");
        assert_eq!(from_json.payload, payload, "JSON round-trip drifted");
        assert_eq!(from_binary.payload, payload, "binary round-trip drifted");
        assert_eq!(
            EmbeddingGallery::decode(&from_binary.payload).expect("gallery decodes"),
            g,
            "binary decode must be bit-identical to the source gallery"
        );
        assert_eq!(
            from_binary.into_bytes_with(ArtifactFormat::Binary),
            binary,
            "binary envelope encoding must be canonical"
        );

        let ratio = binary.len() as f64 / json.len() as f64;
        println!(
            "  {users:>4} users ({:>4} samples): json {:>8} B | binary {:>8} B | {:.2}×",
            g.samples(),
            json.len(),
            binary.len(),
            ratio,
        );
        rows.push(Value::record([
            ("users", users.encode()),
            ("samples", g.samples().encode()),
            ("dim", DIM.encode()),
            ("json_bytes", json.len().encode()),
            ("binary_bytes", binary.len().encode()),
        ]));
    }

    let payload = Value::record([
        ("bench", Value::Str("store_gallery_size".into())),
        ("samples_per_user", SAMPLES_PER_USER.encode()),
        ("sizes", Value::Seq(rows)),
    ]);
    gp_bench::write_result(
        "BENCH_store.json",
        &Artifact::new(kinds::REPORT, payload).to_bytes(),
    );
}

criterion_group!(benches, bench_store);

fn main() {
    benches();
    size_report();
}
