//! Workspace-level integration tests: the full AdaWave pipeline against the
//! ground truth of the paper's synthetic workloads, exercising every crate
//! together (data → grid → wavelet → core → metrics).

use adawave_api::ScratchDir;
use adawave_core::{AdaWave, AdaWaveConfig, ThresholdStrategy};
use adawave_data::synthetic::{synthetic_benchmark, SYNTHETIC_NOISE_LABEL};
use adawave_data::uci::roadmap_like;
use adawave_data::{csv, Dataset};
use adawave_metrics::{ami, ami_ignoring_noise, v_measure, NOISE_LABEL};

fn masked_ami(ds: &Dataset, labels: &[usize]) -> f64 {
    ami_ignoring_noise(&ds.labels, labels, SYNTHETIC_NOISE_LABEL)
}

#[test]
fn adawave_clusters_the_running_example_structure() {
    // A reduced copy of the running example (Fig. 1/2): 5 irregular
    // clusters at 50% noise. AdaWave must find at least the five clusters
    // (the paper: "correctly detects all the five clusters") and score well
    // on the non-noise points.
    let ds = synthetic_benchmark(50.0, 700, 42);
    let result = AdaWave::default().fit(ds.view()).expect("adawave");
    assert!(
        result.cluster_count() >= 4,
        "only {} clusters detected",
        result.cluster_count()
    );
    let score = masked_ami(&ds, &result.to_labels(NOISE_LABEL));
    assert!(score > 0.55, "AMI {score}");
    // Noise really is filtered: a sizeable share of the uniform noise ends
    // up in the noise cluster.
    assert!(result.noise_fraction() > 0.2);
}

#[test]
fn adawave_survives_extreme_noise_better_than_threshold_free_wavecluster() {
    // At 85% noise the fixed-threshold WaveCluster pipeline (threshold 0 =
    // pure coefficient denoising) merges everything; the adaptive threshold
    // keeps the clusters apart. This is the core claim of the paper.
    let ds = synthetic_benchmark(85.0, 700, 7);
    let adaptive = AdaWave::default().fit(ds.view()).expect("adawave");
    let fixed = AdaWave::new(
        AdaWaveConfig::builder()
            .threshold(ThresholdStrategy::Fixed(0.0))
            .build(),
    )
    .fit(ds.view())
    .expect("adawave fixed");
    let adaptive_score = masked_ami(&ds, &adaptive.to_labels(NOISE_LABEL));
    let fixed_score = masked_ami(&ds, &fixed.to_labels(NOISE_LABEL));
    assert!(
        adaptive_score > fixed_score + 0.1,
        "adaptive {adaptive_score} vs fixed {fixed_score}"
    );
    assert!(adaptive_score > 0.3, "adaptive {adaptive_score}");
}

#[test]
fn adawave_finds_dense_cities_in_the_roadmap_surrogate() {
    let ds = roadmap_like(25_000, 3);
    let result = AdaWave::default().fit(ds.view()).expect("adawave");
    assert!(
        result.cluster_count() >= 3,
        "found {} dense areas",
        result.cluster_count()
    );
    let score = ami(&ds.labels, &result.to_labels(NOISE_LABEL));
    assert!(score > 0.3, "AMI {score}");
    // The majority class (arterials/countryside) is treated as noise.
    assert!(result.noise_fraction() > 0.3);
}

#[test]
fn multi_resolution_results_are_consistent() {
    let ds = synthetic_benchmark(50.0, 400, 11);
    let adawave = AdaWave::default();
    let results = adawave
        .fit_multi_resolution(ds.view(), &[1, 2])
        .expect("multi-resolution");
    assert_eq!(results.len(), 2);
    // Level 2 works on a coarser grid: fewer surviving cells, and clusters
    // can only merge or stay, so no explosion in cluster count.
    assert!(results[1].stats().surviving_cells <= results[0].stats().surviving_cells);
    assert!(results[1].cluster_count() <= results[0].cluster_count() + 2);
    // Both levels still agree reasonably with each other on labels.
    let a = results[0].to_labels(NOISE_LABEL);
    let b = results[1].to_labels(NOISE_LABEL);
    assert!(v_measure(&a, &b) > 0.3);
}

#[test]
fn csv_roundtrip_then_cluster() {
    // Save a dataset to CSV, load it back, cluster it: exercises the I/O
    // path a downstream user would take.
    let ds = synthetic_benchmark(40.0, 200, 13);
    let scratch = ScratchDir::new("adawave-end-to-end");
    let path = scratch.join("dataset.csv");
    csv::save_csv(&ds, &path).expect("save");
    let loaded = csv::load_csv(&path).expect("load");
    assert_eq!(loaded.len(), ds.len());
    assert_eq!(loaded.dims(), 2);
    let result = AdaWave::default().fit(loaded.view()).expect("adawave");
    assert!(result.cluster_count() >= 3);
}

#[test]
fn noise_reassignment_protocol_produces_a_full_partition() {
    // The Table-I protocol: cluster, then assign detected noise to the
    // nearest cluster and score with plain AMI.
    let ds = synthetic_benchmark(30.0, 400, 17);
    let result = AdaWave::default().fit(ds.view()).expect("adawave");
    let full = result.assign_noise_to_nearest_centroid(ds.view());
    assert_eq!(full.len(), ds.len());
    let k = result.cluster_count().max(1);
    assert!(full.iter().all(|&l| l < k));
    let score = ami(&ds.labels, &full);
    assert!(score > 0.2, "AMI {score}");
}

#[test]
fn deterministic_across_runs_and_input_orderings() {
    let mut ds = synthetic_benchmark(60.0, 300, 19);
    let adawave = AdaWave::default();
    let first = adawave.fit(ds.view()).expect("adawave");
    let second = adawave.fit(ds.view()).expect("adawave");
    assert_eq!(first, second);

    // Reversing the point order permutes the assignment identically.
    ds.points.reverse_rows();
    let reversed = adawave.fit(ds.view()).expect("adawave");
    let mut realigned: Vec<Option<usize>> = reversed.assignment().to_vec();
    realigned.reverse();
    assert_eq!(first.assignment(), &realigned[..]);
}
