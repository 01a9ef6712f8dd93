//! Parity tests for the unified clustering API: for every algorithm in the
//! standard registry, resolving it through [`adawave::AlgorithmRegistry`]
//! with `key=value` params must produce the *identical* [`Clustering`] as
//! calling the algorithm's function directly with the equivalent typed
//! config — plus error-path tests for unknown names and bad params, and
//! layout-parity tests proving the flat [`PointMatrix`] representation is
//! label-identical to the seed's nested-`Vec` fixtures after conversion.

use adawave::{
    standard_registry, AlgorithmSpec, ClusterError, Clustering, PointMatrix, PointsView,
};
use adawave_baselines::{
    clique, dbscan, dipmeans, em, kmeans, mean_shift, optics, ric, self_tuning_spectral, skinnydip,
    sting, sync_cluster, unidip, wavecluster, CliqueConfig, DbscanConfig, DipMeansConfig, EmConfig,
    KMeansConfig, MeanShiftConfig, OpticsConfig, RicConfig, SkinnyDipConfig, SpectralConfig,
    StingConfig, SyncConfig, WaveClusterConfig,
};
use adawave_core::{AdaWave, AdaWaveConfig};
use adawave_data::{shapes, Rng};

/// A small synthetic dataset with real structure: two blobs plus uniform
/// background noise, the regime every algorithm is meant to handle.
fn toy_points() -> PointMatrix {
    let mut rng = Rng::new(5);
    let mut points = PointMatrix::new(2);
    shapes::gaussian_blob(&mut points, &mut rng, &[0.25, 0.25], &[0.02, 0.02], 120);
    shapes::gaussian_blob(&mut points, &mut rng, &[0.75, 0.75], &[0.02, 0.02], 120);
    shapes::uniform_box(&mut points, &mut rng, &[0.0, 0.0], &[1.0, 1.0], 60);
    points
}

/// The direct-call twin of each registered algorithm, with the typed
/// config equivalent to the spec used in `registry_output_equals_direct_call`.
fn direct(name: &str, points: PointsView<'_>) -> Clustering {
    match name {
        "adawave" => AdaWave::new(AdaWaveConfig::builder().scale(32).build())
            .fit(points)
            .expect("adawave")
            .to_clustering(),
        "kmeans" => kmeans(points, &KMeansConfig::new(3, 7)).clustering,
        "dbscan" => dbscan(points, &DbscanConfig::new(0.08, 8)),
        "em" => em(points, &EmConfig::new(3, 7)).1,
        "wavecluster" => wavecluster(
            points,
            &WaveClusterConfig {
                scale: 32,
                ..Default::default()
            },
        ),
        "skinnydip" => skinnydip(
            points,
            &SkinnyDipConfig {
                seed: 7,
                ..Default::default()
            },
        ),
        "unidip" => {
            // The registry's unidip projects onto dimension 0 and assigns
            // each point to the first modal interval containing it.
            let config = SkinnyDipConfig {
                seed: 7,
                ..Default::default()
            };
            let values: Vec<f64> = points.rows().map(|p| p[0]).collect();
            let mut rng = Rng::new(config.seed);
            let intervals = unidip(&values, &config, &mut rng);
            Clustering::new(
                values
                    .iter()
                    .map(|&v| intervals.iter().position(|&(lo, hi)| v >= lo && v <= hi))
                    .collect(),
            )
        }
        "dipmeans" => dipmeans(
            points,
            &DipMeansConfig {
                seed: 7,
                ..Default::default()
            },
        ),
        "stsc" => self_tuning_spectral(
            points,
            &SpectralConfig {
                k: Some(3),
                seed: 7,
                ..Default::default()
            },
        ),
        "ric" => ric(points, &RicConfig::new(6, 7)), // k=3 doubled by protocol
        "optics" => optics(points, &OpticsConfig::new(0.16, 8, 0.08)),
        "meanshift" => mean_shift(points, &MeanShiftConfig::new(0.1)),
        "sync" => sync_cluster(points, &SyncConfig::new(0.08)),
        "sting" => sting(points, &StingConfig::new(5, 4)),
        "clique" => clique(points, &CliqueConfig::new(10, 0.01)),
        other => panic!(
            "algorithm '{other}' is registered but has no direct-call twin in this parity test; \
             add one so registry dispatch stays verified"
        ),
    }
}

/// The spec whose params mirror the typed configs in [`direct`].
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
fn registry_output_equals_direct_call_for_every_registered_algorithm() {
    let registry = standard_registry();
    let points = toy_points();
    assert!(
        registry.len() >= 15,
        "registry shrank: {:?}",
        registry.names()
    );
    for name in registry.names() {
        let via_registry = registry
            .fit(&spec(name), points.view())
            .unwrap_or_else(|e| panic!("{name} via registry: {e}"));
        let direct_result = direct(name, points.view());
        assert_eq!(
            via_registry, direct_result,
            "{name}: registry dispatch differs from the direct call"
        );
        assert_eq!(via_registry.len(), points.len(), "{name}");
    }
}

#[test]
fn flat_matrix_input_is_label_identical_to_converted_nested_fixtures() {
    // Layout parity: the seed stored fixtures as nested `Vec<Vec<f64>>`.
    // The first assert pins the load-bearing fact — converting a nested
    // fixture through the ingestion boundary (`PointMatrix::from_rows`)
    // reproduces the flat data bit-for-bit, so no algorithm can see a
    // different input. The fit loop then pins the second half of the
    // parity argument: every registered algorithm is deterministic on that
    // converted input, hence label-identical across the two fixture paths.
    let registry = standard_registry();
    let flat = toy_points();
    let nested: Vec<Vec<f64>> = flat.to_rows(); // the seed's fixture shape
    let converted = PointMatrix::from_rows(nested).expect("convert nested fixture");
    assert_eq!(flat, converted, "round-trip must preserve the data exactly");
    for name in registry.names() {
        let on_flat = registry
            .fit(&spec(name), flat.view())
            .unwrap_or_else(|e| panic!("{name} on flat: {e}"));
        let on_converted = registry
            .fit(&spec(name), converted.view())
            .unwrap_or_else(|e| panic!("{name} on converted: {e}"));
        assert_eq!(
            on_flat, on_converted,
            "{name}: labels differ between flat and converted nested input"
        );
    }
}

#[test]
fn every_algorithm_rejects_empty_and_zero_dimensional_input() {
    // The uniform empty-input contract introduced with the flat data
    // layer: dimension lives on the matrix, so empty input is a typed
    // error — never a `points[0]` panic — for every public entry point.
    let registry = standard_registry();
    let empty = PointMatrix::new(2);
    let zero_dim = PointMatrix::from_rows(vec![vec![], vec![]]).expect("zero-dim rows");
    for name in registry.names() {
        let clusterer = registry.resolve(&AlgorithmSpec::new(name)).unwrap();
        assert!(
            matches!(
                clusterer.fit(empty.view()),
                Err(ClusterError::InvalidInput { .. })
            ),
            "{name} should reject an empty point set"
        );
        assert!(
            matches!(
                clusterer.fit(zero_dim.view()),
                Err(ClusterError::InvalidInput { .. })
            ),
            "{name} should reject zero-dimensional points"
        );
    }
}

#[test]
fn resolved_clusterers_report_their_registry_name() {
    let registry = standard_registry();
    for name in registry.names() {
        let clusterer = registry.resolve(&AlgorithmSpec::new(name)).unwrap();
        assert_eq!(clusterer.name(), name);
        assert!(
            clusterer.describe().contains(name),
            "{}: describe() should mention the name",
            name
        );
    }
}

#[test]
fn unknown_algorithm_name_is_rejected_with_the_known_list() {
    let registry = standard_registry();
    let err = registry
        .resolve(&AlgorithmSpec::new("kmedoids"))
        .map(|_| ())
        .unwrap_err();
    match err {
        ClusterError::UnknownAlgorithm { name, known } => {
            assert_eq!(name, "kmedoids");
            assert!(known.contains(&"adawave".to_string()));
            assert!(known.contains(&"kmeans".to_string()));
        }
        other => panic!("expected UnknownAlgorithm, got {other:?}"),
    }
}

#[test]
fn bad_params_are_rejected_with_typed_errors() {
    let registry = standard_registry();

    // A key the algorithm does not declare.
    let err = registry
        .resolve(&AlgorithmSpec::new("kmeans").with("bandwidth", 0.5))
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::UnknownParam { ref param, .. } if param == "bandwidth"),
        "{err:?}"
    );
    // Quantization is f64-only, so `precision` is not a parameter.
    let err = registry
        .resolve(&AlgorithmSpec::new("adawave").with("precision", "f32"))
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::UnknownParam { ref param, .. } if param == "precision"),
        "{err:?}"
    );

    // A value that does not parse as the declared type.
    let err = registry
        .resolve(&AlgorithmSpec::new("dbscan").with("eps", "wide"))
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::InvalidParam { ref param, .. } if param == "eps"),
        "{err:?}"
    );

    // Registry-level validation applies to every algorithm uniformly.
    for name in registry.names() {
        assert!(registry
            .resolve(&AlgorithmSpec::new(name).with("definitely-not-a-param", 1))
            .is_err());
    }
}
