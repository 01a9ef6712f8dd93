//! `fit_2d_noisy` and `fit_6d_noisy`: one-shot `AdaWave::fit`.
//!
//! The traced run rebuilds `fit` from the public calls of the grid and
//! core layers, one span per call, so each stage's time is measured where
//! the work happens. The rebuild must reproduce `AdaWave::fit` exactly
//! (labels and `GridStats`); that is the first correctness gate.

use std::time::Instant;

use adawave_api::PointsView;
use adawave_core::{sparse_wavelet_smooth_budgeted, AdaWave, AdaWaveResult, GridStats};
use adawave_data::Dataset;
use adawave_grid::{connected_components, BoundingBox, LookupTable};
use adawave_metrics::{ami_ignoring_noise, NOISE_LABEL};
use adawave_runtime::Runtime;

use crate::data::{self, Size};
use crate::report::Metrics;
use crate::stats::{median, tail, Tally};
use crate::trace::Tracer;
use crate::{setup_repeated, Opts};

/// Which fit workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scene {
    /// The 800k-point 2-D Fig. 7 scene at scale 128: point-bound.
    Noisy2d,
    /// Three 6-D blobs in 75% noise at scale 16: cell-bound.
    Noisy6d,
}

fn generate(scene: Scene, seed: u64, size: Size) -> Dataset {
    match scene {
        Scene::Noisy2d => data::scene_2d(seed, size),
        Scene::Noisy6d => data::blobs_6d(seed, size),
    }
}

/// What the rebuilt pipeline produces, for comparison with `fit`.
pub struct Rebuilt {
    /// Per-point cluster ids (`None` = noise).
    pub assignment: Vec<Option<usize>>,
    /// The pipeline statistics `fit` would report.
    pub stats: GridStats,
    /// Cells that received a cluster label.
    pub labeled_cells: usize,
}

/// `AdaWave::fit` rebuilt from public calls, each in its own span, all
/// under one `fit` span of a fresh operation.
pub fn traced_fit(
    adawave: &AdaWave,
    points: PointsView<'_>,
    t: &mut Tracer,
) -> Result<Rebuilt, String> {
    let config = adawave.config();
    t.next_op();
    t.span("fit", |t| {
        let bounds = t
            .span("grid.bounds", |_| BoundingBox::from_points(points))
            .map_err(|e| e.to_string())?;
        let quantizer = t
            .span("core.quantizer_for", |_| adawave.quantizer_for(&bounds))
            .map_err(|e| e.to_string())?;
        let (grid, cells) = t.span("grid.quantize", |_| {
            quantizer.quantize_with(points, config.runtime)
        });
        let lookup = t.span("grid.lookup_new", |_| {
            LookupTable::new(quantizer.codec().clone(), cells)
        });
        let (labels, down_codec, stats) = t.span("core.grid_stage", |t| {
            let kernel = config.wavelet.density_smoothing_kernel();
            let (mut transformed, down_codec) = t
                .span("core.transform", |_| {
                    sparse_wavelet_smooth_budgeted(
                        &grid,
                        quantizer.codec(),
                        &kernel,
                        config.boundary,
                        config.levels,
                        config.max_transformed_cells.max(1),
                    )
                })
                .map_err(|e| e.to_string())?;
            let transformed_cells = transformed.occupied_cells();
            let near_zero_removed = t.span("grid.prune", |_| {
                transformed.drop_near_zero(config.coefficient_epsilon)
                    + transformed.filter_below(0.0)
            });
            let (threshold, threshold_removed) = t.span("core.threshold", |_| {
                let threshold = config.threshold.choose(&transformed.sorted_densities());
                (threshold, transformed.filter_below(threshold))
            });
            let surviving_cells = transformed.occupied_cells();
            let labels = t.span("grid.components", |_| {
                connected_components(&transformed, &down_codec, config.connectivity)
            });
            let stats = GridStats {
                quantized_cells: grid.occupied_cells(),
                transformed_cells,
                near_zero_removed,
                threshold,
                threshold_removed,
                surviving_cells,
                intervals: quantizer.codec().all_intervals().to_vec(),
            };
            Ok::<_, String>((labels, down_codec, stats))
        })?;
        let assignment = t.span("grid.assign", |_| {
            lookup.assign_points(&labels, config.levels, &down_codec)
        });
        Ok(Rebuilt {
            assignment,
            stats,
            labeled_cells: labels.labeled_cells(),
        })
    })
}

fn matches(fit: &AdaWaveResult, rebuilt: &Rebuilt) -> bool {
    fit.assignment() == rebuilt.assignment.as_slice() && fit.stats() == &rebuilt.stats
}

fn seconds_of<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = std::hint::black_box(f());
    (result, start.elapsed().as_secs_f64())
}

/// Run a fit workload.
pub fn run(scene: Scene, opts: &Opts, metrics: &mut Metrics, tally: &mut Tally) {
    let (dataset, setup_s) = setup_repeated(|| generate(scene, opts.seed, opts.size));
    metrics.set("setup_s", setup_s);
    let points = dataset.view();
    let auto = AdaWave::new(data::config(points.dims(), Runtime::auto()));
    let sequential = AdaWave::new(data::config(points.dims(), Runtime::sequential()));

    // Correctness gates, before anything is timed.
    let fit = match auto.fit(points) {
        Ok(fit) => fit,
        Err(e) => {
            tally.gate(&format!("AdaWave::fit succeeds ({e})"), false);
            return;
        }
    };
    let rebuilt = traced_fit(&auto, points, &mut Tracer::new());
    tally.gate(
        "the rebuilt pipeline's labels and GridStats equal AdaWave::fit",
        rebuilt.as_ref().is_ok_and(|r| matches(&fit, r)),
    );
    tally.gate(
        "nproc-thread labels equal Runtime::sequential() labels",
        sequential.fit(points).is_ok_and(|s| s == fit),
    );
    let truth = &dataset.labels;
    metrics.set(
        "ami",
        ami_ignoring_noise(
            truth,
            &fit.to_labels(NOISE_LABEL),
            data::noise_label(&dataset),
        ),
    );
    metrics.note(format!(
        "op_* = one AdaWave::fit (fit_s); rows_per_s = points / median fit; n = {}, d = {}, {} threads",
        points.len(),
        points.dims(),
        Runtime::auto().threads()
    ));

    if opts.traced {
        traced_run(&auto, &sequential, &dataset, opts, metrics, tally);
        return;
    }
    let samples = sample_loop(opts, || {
        let (result, seconds) = seconds_of(|| auto.fit(points));
        tally.op(result.is_ok()).then_some(seconds)
    });
    set_op_metrics(metrics, &samples, "fit_s");
    metrics.set("rows_per_s", points.len() as f64 / median(&samples));
}

/// Per-stage medians over traced fits of `points`.
struct StageTimes {
    fit: f64,
    bounds: f64,
    quantize: f64,
    grid_stage: f64,
    transform: f64,
    threshold: f64,
    components: f64,
    assign: f64,
}

impl StageTimes {
    fn of(t: &Tracer) -> Self {
        let m = |name| median(&t.per_op_seconds(name));
        StageTimes {
            fit: m("fit"),
            bounds: m("grid.bounds"),
            quantize: m("grid.quantize"),
            grid_stage: m("core.grid_stage"),
            transform: m("core.transform"),
            threshold: m("core.threshold"),
            components: m("grid.components"),
            assign: m("grid.assign"),
        }
    }
}

fn traced_run(
    auto: &AdaWave,
    sequential: &AdaWave,
    dataset: &Dataset,
    opts: &Opts,
    metrics: &mut Metrics,
    tally: &mut Tally,
) {
    let points = dataset.view();
    let n = points.len() as f64;

    // Traced and untraced fits alternate, each going first in turn, so
    // their ratio is the tracing overhead under the same conditions.
    let mut tracer = Tracer::new();
    let mut untraced = Vec::new();
    let mut last = None;
    sample_loop(opts, || {
        let traced_first = untraced.len() % 2 == 1;
        if traced_first {
            last = traced_fit(auto, points, &mut tracer).ok();
        }
        let (result, seconds) = seconds_of(|| auto.fit(points));
        untraced.push(seconds);
        if !traced_first {
            last = traced_fit(auto, points, &mut tracer).ok();
        }
        tally
            .op(result.is_ok() && last.is_some())
            .then_some(seconds)
    });
    let Some(last) = last else { return };
    let s = StageTimes::of(&tracer);
    let m = last.stats.quantized_cells as f64;
    metrics.set("grid.bounds_s", s.bounds);
    metrics.set("grid.quantize_s", s.quantize);
    metrics.set("grid.assign_s", s.assign);
    metrics.set("grid.components_s", s.components);
    metrics.set("grid.quantize_ns_per_point", s.quantize * 1e9 / n);
    metrics.set("grid.assign_ns_per_point", s.assign * 1e9 / n);
    metrics.set("grid.occupied_cells", m);
    metrics.set("grid.labeled_cells", last.labeled_cells as f64);
    metrics.set("grid.point_share", (s.quantize + s.assign) / s.fit);
    metrics.set("core.transform_s", s.transform);
    metrics.set(
        "core.transformed_cells",
        last.stats.transformed_cells as f64,
    );
    metrics.set("core.transform_ns_per_cell", s.transform * 1e9 / m);
    metrics.set(
        "core.cell_survival_ratio",
        last.stats.surviving_cells as f64 / (last.stats.transformed_cells.max(1)) as f64,
    );
    metrics.set("core.threshold_s", s.threshold);
    metrics.set("core.grid_stage_s", s.grid_stage);
    metrics.set("core.transform_share", s.transform / s.fit);
    metrics.set("bench.trace_overhead", s.fit / median(&untraced));
    metrics.note(format!(
        "trace: {} traced fits; fit span median {:.6} s",
        tracer.per_op_seconds("fit").len(),
        s.fit
    ));
    opts.write_trace(&tracer);

    // §IV-E linearity: the per-point and per-cell costs at n/2 and n/4.
    for (step, [quantize_name, assign_name, cells_name, transform_name]) in [
        (
            2,
            [
                "grid.quantize_ns_per_point.n_div2",
                "grid.assign_ns_per_point.n_div2",
                "grid.occupied_cells.n_div2",
                "core.transform_ns_per_cell.n_div2",
            ],
        ),
        (
            4,
            [
                "grid.quantize_ns_per_point.n_div4",
                "grid.assign_ns_per_point.n_div4",
                "grid.occupied_cells.n_div4",
                "core.transform_ns_per_cell.n_div4",
            ],
        ),
    ] {
        let subset = data::strided(&dataset.points, step);
        let mut sweep = Tracer::new();
        let mut cells = 0.0;
        for _ in 0..SWEEP_REPEATS {
            let rebuilt = traced_fit(auto, subset.view(), &mut sweep);
            if tally.op(rebuilt.is_ok()) {
                cells = rebuilt.map_or(0.0, |r| r.stats.quantized_cells as f64);
            }
        }
        let s = StageTimes::of(&sweep);
        let rows = subset.len() as f64;
        metrics.set(quantize_name, s.quantize * 1e9 / rows);
        metrics.set(assign_name, s.assign * 1e9 / rows);
        metrics.set(cells_name, cells);
        metrics.set(transform_name, s.transform * 1e9 / cells.max(1.0));
    }

    // Runtime readout: sequential over nproc-thread time on the same points.
    let threads = Runtime::auto();
    let quantizer = auto
        .quantizer_for(&BoundingBox::from_points(points).expect("gated input has bounds"))
        .expect("gated input has a quantizer");
    let (mut quantize_seq, mut quantize_par, mut fit_seq, mut fit_par) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_REPEATS {
        quantize_seq.push(seconds_of(|| quantizer.quantize_with(points, Runtime::sequential())).1);
        quantize_par.push(seconds_of(|| quantizer.quantize_with(points, threads)).1);
        let (seq, seconds) = seconds_of(|| sequential.fit(points));
        fit_seq.push(seconds);
        let (par, seconds) = seconds_of(|| auto.fit(points));
        fit_par.push(seconds);
        tally.op(seq.is_ok() && par.is_ok());
    }
    metrics.set(
        "runtime.quantize_speedup",
        median(&quantize_seq) / median(&quantize_par),
    );
    metrics.set("runtime.fit_speedup", median(&fit_seq) / median(&fit_par));
}

/// Fewest timed operations in an untraced sample loop: enough for a p75
/// tail with ten samples beyond it even when one operation is slow.
const MIN_SAMPLES: usize = 41;

/// Fewest traced operations: the traced run reports medians only.
const MIN_TRACED_SAMPLES: usize = 11;

/// Call `op` until `opts.seconds` have passed and it ran at least
/// [`MIN_SAMPLES`] times ([`MIN_TRACED_SAMPLES`] when traced); collect the
/// durations it returns (`None` for a failed operation).
fn sample_loop(opts: &Opts, mut op: impl FnMut() -> Option<f64>) -> Vec<f64> {
    let min_runs = if opts.traced {
        MIN_TRACED_SAMPLES
    } else {
        MIN_SAMPLES
    };
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut runs = 0;
    while runs < min_runs || start.elapsed().as_secs_f64() < opts.seconds {
        samples.extend(op());
        runs += 1;
    }
    samples
}

/// Report `samples` (seconds) as `op_p50_ms` / `op_tail_ms`, noting the
/// tail's percentile and sample counts under the workload's own `name`.
fn set_op_metrics(metrics: &mut Metrics, samples: &[f64], name: &str) {
    let t = tail(samples);
    metrics.set("op_p50_ms", median(samples) * 1e3);
    metrics.set("op_tail_ms", t.value * 1e3);
    metrics.note(format!(
        "{name}: median {:.3} ms, p{} {:.3} ms ({} of {} samples beyond)",
        median(samples) * 1e3,
        t.percentile,
        t.value * 1e3,
        t.beyond,
        t.samples
    ));
}

/// Traced fits per size of the linearity sweep.
const SWEEP_REPEATS: usize = 3;

/// Alternating sequential / nproc-thread timings for the speed-ups.
const SPEEDUP_REPEATS: usize = 5;
