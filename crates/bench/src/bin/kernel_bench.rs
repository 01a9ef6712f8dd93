//! Raw-speed kernel microbenchmarks: what the shared autovectorized
//! distance/argmin kernels and the kd-index neighbor acceleration buy
//! over the scalar paths they replaced.
//!
//! Every timed claim is gated by an in-process parity assertion against an
//! embedded copy of the pre-optimization reference implementation: the
//! f64 kernels must be *bit-identical* to their scalar references and the
//! accelerated neighbor paths label-identical.
//!
//! Run with `cargo run --release -p adawave-bench --bin kernel_bench`
//! (writes `BENCH_kernels.json` into the current directory); pass
//! `--smoke` for a seconds-long variant that still runs every parity
//! assertion — the mode CI drives under multiple thread counts.

use std::time::Instant;

use adawave_api::{Model as _, PointsView};
use adawave_baselines::{dbscan, KdTree, NearestTrainingModel};
use adawave_core::{AdaWave, AdaWaveConfig};
use adawave_data::synthetic::synthetic_benchmark;
use adawave_linalg::{nearest_row, squared_distance};
use adawave_runtime::Runtime;

const REPEATS: usize = 7;

/// Best-of-`repeats` wall-clock seconds of `f`, with a sink guard so the
/// optimizer cannot delete the work.
fn best_of<F: FnMut() -> usize>(repeats: usize, mut f: F) -> f64 {
    let mut best = f64::MAX;
    let mut sink = 0usize;
    for _ in 0..repeats {
        let start = Instant::now();
        sink = sink.wrapping_add(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert!(sink < usize::MAX);
    best
}

/// The pre-optimization scalar Euclidean distance (the deleted local
/// `euclidean` of `optics.rs` / `metrics::internal`): a generic fold with
/// the square root taken per call.
fn scalar_euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// The pre-optimization squared distance: the same generic fold without
/// the root — what the old k-means assignment loop inlined.
fn scalar_squared(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f64>()
}

struct Row {
    kernel: &'static str,
    reference: &'static str,
    ref_seconds: f64,
    new_seconds: f64,
    parity: &'static str,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.ref_seconds / self.new_seconds
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (per_cluster, repeats) = if smoke { (250, 2) } else { (5_000, REPEATS) };
    // 5 clusters x per_cluster points + 75% noise: the same 100k-point
    // 2-d workload as the other BENCH_*.json files (smaller under --smoke).
    let ds = synthetic_benchmark(75.0, per_cluster, 42);
    let points = ds.view();
    let n = points.len();
    let mut rows: Vec<Row> = Vec::new();

    // ---- kernel 1: farthest-point scan with the root deferred ------------
    // The dunn-index / OPTICS core-distance rewrite: order statistics of
    // distances commute with sqrt, so the scan compares squared distances
    // and takes one root at the edge instead of n roots inside the loop.
    {
        let queries: Vec<&[f64]> = (0..8).map(|i| points.row(i * (n / 8))).collect();
        let reference = |q: &[f64]| {
            let mut max = 0.0f64;
            for p in points.rows() {
                let d = scalar_euclidean(q, p);
                if d > max {
                    max = d;
                }
            }
            max
        };
        let optimized = |q: &[f64]| {
            let mut max_sq = 0.0f64;
            for p in points.rows() {
                let d = squared_distance(q, p);
                if d > max_sq {
                    max_sq = d;
                }
            }
            max_sq.sqrt()
        };
        for &q in &queries {
            assert_eq!(
                reference(q).to_bits(),
                optimized(q).to_bits(),
                "distance-scan: deferred sqrt diverged"
            );
        }
        let ref_seconds = best_of(repeats, || {
            queries.iter().map(|&q| reference(q) as usize).sum()
        });
        let new_seconds = best_of(repeats, || {
            queries.iter().map(|&q| optimized(q) as usize).sum()
        });
        rows.push(Row {
            kernel: "distance-scan-sqrt-deferred",
            reference: "scalar euclidean with sqrt per pair",
            ref_seconds,
            new_seconds,
            parity: "bit-identical maxima on 8 query points",
        });
    }

    // ---- kernel 2: k-means assignment argmin ------------------------------
    // The old lloyd loop: generic scalar squared distance per centroid,
    // running argmin in the caller. The new path is the fused
    // dim-dispatched `nearest_row`.
    {
        let k = 16usize;
        let dims = points.dims();
        let centroids: Vec<f64> = (0..k)
            .flat_map(|c| points.row(c * (n / k)).to_vec())
            .collect();
        let reference = || {
            let mut assignment = Vec::with_capacity(n);
            for p in points.rows() {
                let mut best = 0usize;
                let mut best_d = f64::MAX;
                for (c, centroid) in centroids.chunks_exact(dims).enumerate() {
                    let d = scalar_squared(p, centroid);
                    if d < best_d {
                        best = c;
                        best_d = d;
                    }
                }
                assignment.push(best);
            }
            assignment
        };
        let optimized = || {
            let mut assignment = Vec::with_capacity(n);
            for p in points.rows() {
                let (best, _) = nearest_row(p, &centroids, dims).expect("k >= 1");
                assignment.push(best);
            }
            assignment
        };
        assert_eq!(
            reference(),
            optimized(),
            "kmeans-assign: fused argmin diverged"
        );
        let ref_seconds = best_of(repeats, || reference().len());
        let new_seconds = best_of(repeats, || optimized().len());
        rows.push(Row {
            kernel: "kmeans-assign-argmin",
            reference: "scalar per-centroid fold + caller argmin",
            ref_seconds,
            new_seconds,
            parity: "identical assignment over all points (k=16)",
        });
    }

    // ---- kernel 3: radius neighbor queries -------------------------------
    // The scalar path behind every O(n) neighborhood scan vs the kd-tree
    // the accelerated meanshift/sync/DBSCAN/spectral paths query.
    {
        let radius = 0.02f64;
        let query_count = if smoke { 64 } else { 512 };
        let tree = KdTree::build(points);
        let reference = |q: &[f64]| {
            let r2 = radius * radius;
            let mut out = Vec::new();
            for (i, p) in points.rows().enumerate() {
                if squared_distance(q, p) <= r2 {
                    out.push(i);
                }
            }
            out
        };
        for i in 0..query_count {
            let q = points.row(i * (n / query_count));
            let mut got = tree.within_radius(q, radius);
            got.sort_unstable();
            assert_eq!(got, reference(q), "within_radius: neighbor set diverged");
        }
        let ref_seconds = best_of(repeats, || {
            (0..query_count)
                .map(|i| reference(points.row(i * (n / query_count))).len())
                .sum()
        });
        let new_seconds = best_of(repeats, || {
            (0..query_count)
                .map(|i| {
                    tree.within_radius(points.row(i * (n / query_count)), radius)
                        .len()
                })
                .sum()
        });
        rows.push(Row {
            kernel: "radius-neighbor-query",
            reference: "linear scan over all points",
            ref_seconds,
            new_seconds,
            parity: "identical (sorted) neighbor sets on every query",
        });
    }

    // ---- kernel 4: cached kd-index serving -------------------------------
    // Pre-PR, `NearestTrainingModel::predict_one` (and the meanshift
    // model) rebuilt a kd-tree per query; the index is now built once at
    // fit/load time.
    {
        let training_n = n.min(10_000);
        let training = PointsView::from_flat(&points.as_slice()[..training_n * points.dims()], 2)
            .expect("prefix view");
        let clustering = dbscan(training, &adawave_baselines::DbscanConfig::new(0.02, 5));
        let model = NearestTrainingModel::new("dbscan", training, &clustering);
        let query_count = if smoke { 32 } else { 200 };
        let queries: Vec<&[f64]> = (0..query_count)
            .map(|i| points.row(n - 1 - i * (n / query_count - 1)))
            .collect();
        let reference = |q: &[f64]| {
            // The old serving path: index the training batch per query.
            let tree = KdTree::build(training);
            tree.nearest(q, 1)
                .first()
                .and_then(|&(i, _)| clustering.label(i))
        };
        for &q in &queries {
            assert_eq!(
                model.predict_one(q),
                reference(q),
                "cached-index serving diverged from per-query rebuild"
            );
        }
        let ref_seconds = best_of(repeats.min(3), || {
            queries.iter().filter(|&&q| reference(q).is_some()).count()
        });
        let new_seconds = best_of(repeats, || {
            queries
                .iter()
                .filter(|&&q| model.predict_one(q).is_some())
                .count()
        });
        rows.push(Row {
            kernel: "predict-cached-kd-index",
            reference: "kd-tree rebuilt per query (pre-PR serving path)",
            ref_seconds,
            new_seconds,
            parity: "identical labels on every query (10k training rows)",
        });
    }

    // ---- end-to-end sanity: the fixed-chunk determinism contract ----------
    // Not timed: a full fit at several thread counts must agree with the
    // sequential fit bit for bit — the bench fails loudly if a kernel
    // change broke that.
    {
        let config = |rt: Runtime| AdaWaveConfig::builder().scale(64).runtime(rt).build();
        let reference = AdaWave::new(config(Runtime::sequential()))
            .fit(points)
            .expect("fit");
        for threads in [2, 4] {
            let parallel = AdaWave::new(config(Runtime::with_threads(threads)))
                .fit(points)
                .expect("fit");
            assert_eq!(reference, parallel, "thread count changed the fit");
        }
    }

    println!(
        "kernel microbenchmarks on the {n}-point workload (best of {repeats}, smoke={smoke}):"
    );
    for r in &rows {
        println!(
            "  {:32} {:>9.4}s -> {:>9.4}s  ({:>6.2}x)  [{}]",
            r.kernel,
            r.ref_seconds,
            r.new_seconds,
            r.speedup(),
            r.parity,
        );
    }

    let host_cpus = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": {{ \"points\": {n}, \"dims\": 2, \"noise_percent\": 75.0, \"seed\": 42, \"repeats\": {repeats}, \"timing\": \"best-of\", \"smoke\": {smoke} }},\n"
    ));
    json.push_str(&format!(
        "  \"host\": {{ \"available_parallelism\": {host_cpus}, \"note\": \"every kernel here is timed sequentially, so the ratios transfer but absolute times are host-dependent\" }},\n"
    ));
    json.push_str("  \"claim\": \"each optimized kernel is timed against an embedded copy of the scalar path it replaced, and a parity assertion gates every timed claim: f64 kernels are bit-identical to their references and accelerated neighbor paths are label-identical\",\n");
    json.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"kernel\": \"{}\", \"reference\": \"{}\", \"reference_seconds\": {:.6}, \"optimized_seconds\": {:.6}, \"speedup\": {:.3}, \"parity\": \"{}\" }}{}\n",
            r.kernel,
            r.reference,
            r.ref_seconds,
            r.new_seconds,
            r.speedup(),
            r.parity,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if !smoke {
        std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
        println!("wrote BENCH_kernels.json (host cores: {host_cpus})");
    } else {
        println!("smoke mode: parity assertions passed, BENCH_kernels.json not rewritten");
    }
}
