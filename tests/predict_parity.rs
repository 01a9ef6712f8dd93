//! Fit/predict parity for the two-stage contract: for every algorithm in
//! the standard registry, `fit_model` must return the same training labels
//! as `fit`, and predicting with the trained model on the training batch
//! must reproduce those labels *exactly* — native decision rules and
//! nearest-training-point fallbacks alike. Prediction must be bit-stable
//! across thread counts, enforce the `InvalidInput` contract on degenerate
//! batches, and survive a save → load → predict roundtrip label-
//! identically for the persistable models (AdaWave, k-means).

use adawave::{
    load_model, save_model, standard_registry, AlgorithmSpec, ClusterError, PointMatrix,
    PredictSupport,
};
use adawave_api::ScratchDir;
use adawave_data::{shapes, Rng};

/// Two blobs plus uniform background noise — the regime every algorithm
/// is meant to handle (same shape as the registry parity suite).
fn toy_points() -> PointMatrix {
    let mut rng = Rng::new(5);
    let mut points = PointMatrix::new(2);
    shapes::gaussian_blob(&mut points, &mut rng, &[0.25, 0.25], &[0.02, 0.02], 120);
    shapes::gaussian_blob(&mut points, &mut rng, &[0.75, 0.75], &[0.02, 0.02], 120);
    shapes::uniform_box(&mut points, &mut rng, &[0.0, 0.0], &[1.0, 1.0], 60);
    points
}

/// Per-algorithm parameters that make the toy dataset meaningful (mirrors
/// `tests/registry_parity.rs`).
fn spec(name: &str) -> AlgorithmSpec {
    let base = AlgorithmSpec::new(name);
    match name {
        "adawave" | "wavecluster" => base.with("scale", 32),
        "kmeans" | "em" | "stsc" | "ric" => base.with("k", 3).with("seed", 7),
        "dbscan" => base.with("eps", 0.08).with("min-points", 8),
        "skinnydip" | "unidip" | "dipmeans" => base.with("seed", 7),
        "optics" => base.with("eps", 0.08),
        "meanshift" => base.with("bandwidth", 0.1),
        "sync" => base.with("eps", 0.08),
        _ => base, // sting, clique: defaults
    }
}

#[test]
fn predict_on_the_training_set_reproduces_fit_labels_for_every_algorithm() {
    let registry = standard_registry();
    let points = toy_points();
    assert!(registry.len() >= 15, "registry shrank");
    for name in registry.names() {
        let outcome = registry
            .fit_model(&spec(name), points.view())
            .unwrap_or_else(|e| panic!("{name} fit_model: {e}"));
        // fit_model's labels equal fit's labels (fit is a shim or an
        // equivalent cheap path — never a different clustering).
        let fit_only = registry.fit(&spec(name), points.view()).unwrap();
        assert_eq!(outcome.clustering, fit_only, "{name}: fit vs fit_model");
        // The trained model reproduces the training labels exactly.
        let predicted = outcome.model.predict(points.view()).unwrap();
        assert_eq!(
            predicted, outcome.clustering,
            "{name}: predict on the training set diverged from the fit labels"
        );
        // predict_one uses the training clustering's own ids.
        for (i, p) in points.rows().enumerate().step_by(29) {
            assert_eq!(
                outcome.model.predict_one(p),
                outcome.clustering.label(i),
                "{name}: predict_one diverged at point {i}"
            );
        }
        assert_eq!(outcome.model.algorithm(), name, "{name}");
        assert_eq!(outcome.model.dims(), 2, "{name}");
        assert!(!outcome.model.summary().is_empty(), "{name}");
    }
}

#[test]
fn prediction_is_bit_identical_across_thread_counts() {
    let registry = standard_registry();
    let points = toy_points();
    for name in registry.names() {
        let baseline = registry
            .fit_model(&spec(name).with("threads", 1), points.view())
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .model
            .predict(points.view())
            .unwrap();
        for threads in [2usize, 4, 8] {
            let predicted = registry
                .fit_model(&spec(name).with("threads", threads), points.view())
                .unwrap_or_else(|e| panic!("{name} threads={threads}: {e}"))
                .model
                .predict(points.view())
                .unwrap();
            assert_eq!(
                predicted, baseline,
                "{name}: predict labels differ between 1 and {threads} threads"
            );
        }
    }
}

#[test]
fn degenerate_predict_inputs_preserve_the_invalid_input_contract() {
    let registry = standard_registry();
    let points = toy_points();
    let empty = PointMatrix::new(2);
    let zero_dim = PointMatrix::from_rows(vec![vec![], vec![]]).unwrap();
    let wrong_dims = PointMatrix::from_rows(vec![vec![0.5, 0.5, 0.5]]).unwrap();
    for name in registry.names() {
        let model = registry
            .fit_model(&spec(name), points.view())
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .model;
        for (what, batch) in [
            ("empty", &empty),
            ("zero-dimensional", &zero_dim),
            ("wrong-dimensionality", &wrong_dims),
        ] {
            assert!(
                matches!(
                    model.predict(batch.view()),
                    Err(ClusterError::InvalidInput { .. })
                ),
                "{name}: {what} predict input should be InvalidInput"
            );
        }
        // Single unanswerable points are noise, not errors.
        assert_eq!(model.predict_one(&[f64::NAN, 0.0]), None, "{name}");
        assert_eq!(model.predict_one(&[0.5]), None, "{name}: wrong dims");
    }
}

#[test]
fn save_load_predict_round_trips_label_identically_for_adawave_and_kmeans() {
    let registry = standard_registry();
    let points = toy_points();
    // Fresh out-of-sample points exercise the loaded model beyond the
    // training batch: near each blob center plus far outside the domain.
    let fresh = PointMatrix::from_rows(vec![
        vec![0.25, 0.26],
        vec![0.74, 0.75],
        vec![0.5, 0.5],
        vec![42.0, -42.0],
    ])
    .unwrap();
    let scratch = ScratchDir::new("adawave-predict-parity");
    for name in ["adawave", "kmeans"] {
        let outcome = registry.fit_model(&spec(name), points.view()).unwrap();
        let path = scratch.join(format!("{name}.awm"));
        save_model(&path, outcome.model.as_ref()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let loaded = load_model(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            loaded.predict(points.view()).unwrap(),
            outcome.clustering,
            "{name}: roundtripped model diverged on the training set"
        );
        assert_eq!(
            loaded.predict(fresh.view()).unwrap(),
            outcome.model.predict(fresh.view()).unwrap(),
            "{name}: roundtripped model diverged out of sample"
        );
    }
}

#[test]
fn registry_declares_native_vs_fallback_prediction_honestly() {
    let registry = standard_registry();
    let native = ["adawave", "kmeans", "em", "dipmeans", "meanshift", "unidip"];
    for entry in registry.entries() {
        let expected = if native.contains(&entry.name()) {
            PredictSupport::Native
        } else {
            PredictSupport::Fallback
        };
        assert_eq!(
            entry.predict_support(),
            expected,
            "{}: predict-support flag drifted from the documented table",
            entry.name()
        );
        // Fallback models say so in their summary; native ones never
        // claim to be fallbacks.
        let outcome = registry
            .fit_model(&spec(entry.name()), toy_points().view())
            .unwrap();
        let is_fallback = outcome.model.summary().contains("fallback");
        assert_eq!(
            is_fallback,
            expected == PredictSupport::Fallback,
            "{}: summary vs flag",
            entry.name()
        );
    }
}

#[test]
fn native_models_generalize_beyond_the_training_batch() {
    // Not a parity property, but the point of the redesign: a grid model
    // labels fresh in-cluster points without refitting and sends
    // out-of-domain points to noise.
    let registry = standard_registry();
    let points = toy_points();
    let outcome = registry
        .fit_model(
            &AlgorithmSpec::new("adawave").with("scale", 32),
            points.view(),
        )
        .unwrap();
    // The densest cells of each blob predict into a real cluster.
    let a = outcome.model.predict_one(&[0.25, 0.25]);
    let b = outcome.model.predict_one(&[0.75, 0.75]);
    assert!(a.is_some() && b.is_some());
    assert_ne!(a, b, "the two blobs map to different clusters");
    assert_eq!(
        outcome.model.predict_one(&[7.0, 7.0]),
        None,
        "out of domain"
    );
}
