//! Seeded workload inputs. The program under test only ever sees the
//! generated points; the ground truth stays here for the AMI.

use adawave_api::PointMatrix;
use adawave_core::AdaWaveConfig;
use adawave_data::synthetic::{synthetic_benchmark, SYNTHETIC_NOISE_LABEL};
use adawave_data::{shapes, Dataset, Rng};
use adawave_runtime::Runtime;

/// Input sizes: the full benchmark, or the seconds-long smoke check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny inputs that run every gate in seconds.
    Smoke,
}

/// Points per cluster of the Fig. 7 scene: 5 clusters plus 75% noise make
/// 20 rows per unit, so 40 000 gives the 800k-point scene.
const SCENE_PER_CLUSTER: usize = 40_000;

/// Points per blob of the 6-D scene: 3 blobs plus 75% noise make 12 rows
/// per unit, so 1 000 gives 12k points and about 0.8 s per fit on a 2-core
/// x86-64 host. At scale 16 one level leaves an 8^6 = 262 144-cell grid,
/// which the transform nearly fills at this size, so larger n adds little
/// transform work per point.
const BLOB_PER_CLUSTER: usize = 1_000;

/// The Fig. 7 scene (`synthetic_benchmark`) at 75% noise.
pub fn scene_2d(seed: u64, size: Size) -> Dataset {
    let per_cluster = match size {
        Size::Full => SCENE_PER_CLUSTER,
        Size::Smoke => 500,
    };
    synthetic_benchmark(75.0, per_cluster, seed)
}

/// Three 6-D Gaussian blobs on the diagonal plus 75% uniform noise, built
/// like `examples/high_dimensional.rs`.
pub fn blobs_6d(seed: u64, size: Size) -> Dataset {
    const DIMS: usize = 6;
    const NOISE_LABEL: usize = 3;
    let per_cluster = match size {
        Size::Full => BLOB_PER_CLUSTER,
        Size::Smoke => 300,
    };
    let mut rng = Rng::new(seed);
    let mut points = PointMatrix::with_capacity(DIMS, 12 * per_cluster);
    let mut labels = Vec::with_capacity(12 * per_cluster);
    for (label, center) in [0.25, 0.5, 0.75].into_iter().enumerate() {
        shapes::gaussian_blob(
            &mut points,
            &mut rng,
            &[center; DIMS],
            &[0.04; DIMS],
            per_cluster,
        );
        labels.extend(std::iter::repeat_n(label, per_cluster));
    }
    let noise = 9 * per_cluster;
    shapes::uniform_box(&mut points, &mut rng, &[0.0; DIMS], &[1.0; DIMS], noise);
    labels.extend(std::iter::repeat_n(NOISE_LABEL, noise));
    Dataset::new("blobs-6d", points, labels, Some(NOISE_LABEL))
}

/// The scene's label for noise points (excluded from the AMI).
pub fn noise_label(dataset: &Dataset) -> usize {
    dataset.noise_label.unwrap_or(SYNTHETIC_NOISE_LABEL)
}

/// The AdaWave configuration of a workload: scale 128 in 2-D, 16 in 6-D
/// (at the default 128 the 6-D transform runs to its 1M-cell budget).
pub fn config(dims: usize, runtime: Runtime) -> AdaWaveConfig {
    AdaWaveConfig::builder()
        .scale(if dims > 2 { 16 } else { 128 })
        .runtime(runtime)
        .build()
}

/// A seeded permutation of `0..n`.
pub fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    Rng::new(seed ^ 0x5eed_0f5e_7da7_a000).shuffle(&mut indices);
    indices
}

/// Every `step`-th row, starting at 0: a subset with the same mix of
/// clusters and noise as the whole.
pub fn strided(points: &PointMatrix, step: usize) -> PointMatrix {
    let indices: Vec<usize> = (0..points.len()).step_by(step.max(1)).collect();
    points.select(&indices)
}
