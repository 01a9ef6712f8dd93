//! End-to-end test of the `adawave` CLI: generate → cluster → evaluate,
//! exercising the same code paths as the binary but through the library so
//! no subprocess is needed.

use adawave_api::ScratchDir;
use adawave_cli::args::ParsedArgs;
use adawave_cli::commands::dispatch;

/// `name` inside the scratch directory, as a command-line operand.
fn file(dir: &ScratchDir, name: &str) -> String {
    dir.join(name).to_string_lossy().into_owned()
}

fn run(args: &[&str]) -> String {
    let parsed = ParsedArgs::parse(args.iter().copied()).expect("parse args");
    dispatch(&parsed).unwrap_or_else(|e| panic!("command {args:?} failed: {e}"))
}

#[test]
fn generate_cluster_evaluate_round_trip() {
    let dir = ScratchDir::new("adawave-cli-test-roundtrip");
    let data = file(&dir, "synthetic.csv");
    let labels = file(&dir, "labels.csv");

    // 1. generate a small synthetic dataset at 60% noise.
    let report = run(&[
        "generate",
        "--dataset",
        "synthetic",
        "--noise",
        "60",
        "--points-per-cluster",
        "400",
        "--seed",
        "5",
        "--out",
        &data,
    ]);
    assert!(report.contains("wrote"), "{report}");
    assert!(std::fs::metadata(&data).unwrap().len() > 1000);

    // 2. cluster it with AdaWave and write the labels file.
    let report = run(&[
        "cluster",
        "--input",
        &data,
        "--algorithm",
        "adawave",
        "--scale",
        "64",
        "--out",
        &labels,
    ]);
    assert!(report.contains("clusters"), "{report}");
    let label_lines = std::fs::read_to_string(&labels).unwrap().lines().count();
    // One label per point: 5 clusters x 400 points plus 60% noise.
    assert_eq!(label_lines, 5000);

    // 3. evaluate the predictions against the ground truth column. The CSV
    // format does not record which class is noise, so tell the evaluator
    // that the synthetic generator labels noise as class 5.
    let report = run(&[
        "evaluate",
        "--input",
        &data,
        "--labels",
        &labels,
        "--noise-label",
        "5",
    ]);
    assert!(report.contains("AMI"), "{report}");
    let ami_line = report
        .lines()
        .find(|l| l.starts_with("AMI (non-noise only)"))
        .expect("non-noise AMI line");
    let score: f64 = ami_line
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("parse AMI");
    assert!(score > 0.4, "end-to-end AMI {score}");
}

#[test]
fn cluster_with_a_baseline_and_reassign_noise() {
    let dir = ScratchDir::new("adawave-cli-test-baseline");
    let data = file(&dir, "blobs.csv");
    run(&[
        "generate",
        "--dataset",
        "synthetic",
        "--noise",
        "30",
        "--points-per-cluster",
        "200",
        "--seed",
        "9",
        "--out",
        &data,
    ]);
    let labels = file(&dir, "kmeans.csv");
    let report = run(&[
        "cluster",
        "--input",
        &data,
        "--algorithm",
        "kmeans",
        "--k",
        "5",
        "--out",
        &labels,
        "--reassign-noise",
    ]);
    assert!(report.contains("0 noise points"), "{report}");
    let text = std::fs::read_to_string(&labels).unwrap();
    assert!(!text.contains("noise"));
}

#[test]
fn sweep_command_prints_a_table() {
    let report = run(&[
        "sweep",
        "--noise",
        "40,80",
        "--points-per-cluster",
        "200",
        "--seed",
        "3",
        "--scale",
        "48",
    ]);
    assert!(report.contains("adawave"));
    assert!(report.contains("40"));
    assert!(report.contains("80"));
    assert_eq!(report.lines().count(), 3, "{report}");
}

#[test]
fn evaluate_rejects_mismatched_label_counts() {
    let dir = ScratchDir::new("adawave-cli-test-mismatch");
    let data = file(&dir, "data.csv");
    run(&["generate", "--dataset", "iris", "--out", &data]);
    let labels = file(&dir, "short.csv");
    std::fs::write(&labels, "0\n1\n").unwrap();
    let parsed = ParsedArgs::parse([
        "evaluate",
        "--input",
        data.as_str(),
        "--labels",
        labels.as_str(),
    ])
    .unwrap();
    assert!(dispatch(&parsed).is_err());
}

#[test]
fn missing_input_file_is_a_clean_error() {
    let parsed =
        ParsedArgs::parse(["cluster", "--input", "/definitely/not/a/real/file.csv"]).unwrap();
    let err = dispatch(&parsed).unwrap_err();
    assert!(err.to_string().contains("file.csv"));
}
