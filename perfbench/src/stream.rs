//! `stream_checkpoint`: the shard-ingest flow.
//!
//! The 800k-point 2-D scene, shuffled, goes as 8192-row batches into two
//! shard sessions that share a frozen domain (alternating batches). Each
//! session refits every 10 of its batches and checkpoints its accumulator
//! atomically every 200 000 of its rows. At the end the shards merge, the
//! merged session refits, and one checkpoint is restored. One such pass
//! is one operation of the throughput metric; every `refit()` is one
//! latency sample.

use std::path::{Path, PathBuf};
use std::time::Instant;

use adawave_api::{PointMatrix, PointsView};
use adawave_core::{AdaWave, AdaWaveConfig, AdaWaveResult};
use adawave_grid::BoundingBox;
use adawave_metrics::{ami_ignoring_noise, NOISE_LABEL};
use adawave_runtime::Runtime;
use adawave_stream::{load_accumulator, save_accumulator_atomic, StreamingAdaWave};

use crate::data::{self, Size};
use crate::report::Metrics;
use crate::stats::{median, Tally};
use crate::trace::{in_span, Tracer};
use crate::{setup_repeated, Opts};

const BATCH_ROWS: usize = 8_192;
const REFIT_EVERY_BATCHES: usize = 10;
const CHECKPOINT_EVERY_ROWS: usize = 200_000;
const SHARDS: usize = 2;

/// Fewest timed passes per run.
const MIN_PASSES: usize = 3;

/// Repeats of each single-call measurement of the traced run.
const CALL_REPEATS: usize = 5;

/// The generated stream and what the gates compare against.
struct Input {
    /// The shuffled scene in arrival order.
    points: PointMatrix,
    /// The frozen domain both shards share (the prescan bounds).
    domain: BoundingBox,
    /// The points in the merged session's order: shard 0's, then shard 1's.
    merged_points: PointMatrix,
    /// Ground truth in the merged order.
    merged_truth: Vec<usize>,
    noise_label: usize,
    /// Rows between a shard's checkpoints.
    checkpoint_every: usize,
}

fn shard_of(batch: usize) -> usize {
    batch % SHARDS
}

fn generate(opts: &Opts) -> Input {
    let dataset = data::scene_2d(opts.seed, opts.size);
    let order = data::shuffled_indices(dataset.len(), opts.seed);
    let points = dataset.points.select(&order);
    let domain = BoundingBox::from_points(points.view()).expect("the scene is non-empty");
    let merged_order: Vec<usize> = (0..SHARDS)
        .flat_map(|shard| {
            (0..points.len().div_ceil(BATCH_ROWS))
                .filter(move |&b| shard_of(b) == shard)
                .flat_map(|b| b * BATCH_ROWS..((b + 1) * BATCH_ROWS).min(order.len()))
        })
        .collect();
    Input {
        merged_points: points.select(&merged_order),
        merged_truth: merged_order
            .iter()
            .map(|&i| dataset.labels[order[i]])
            .collect(),
        points,
        domain,
        noise_label: data::noise_label(&dataset),
        // The smoke scene has 10k rows; it must still checkpoint.
        checkpoint_every: match opts.size {
            Size::Full => CHECKPOINT_EVERY_ROWS,
            Size::Smoke => 2_000,
        },
    }
}

/// What one pass leaves behind.
struct Pass {
    merged: StreamingAdaWave,
    result: AdaWaveResult,
    /// Shard 0's checkpoint as restored from disk.
    restored: StreamingAdaWave,
    /// Rows shard 0 had ingested at its last checkpoint.
    checkpoint_rows: usize,
    refit_seconds: Vec<f64>,
    seconds: f64,
}

fn timed_refit(
    session: &StreamingAdaWave,
    t: &mut Option<&mut Tracer>,
    tally: &mut Tally,
    samples: &mut Vec<f64>,
) -> Option<AdaWaveResult> {
    let start = Instant::now();
    let result = in_span(t, "stream.refit", || session.refit());
    samples.push(start.elapsed().as_secs_f64());
    tally.op(result.is_ok());
    result.ok()
}

/// One pass of the shard-ingest flow. `None` if a step failed (counted).
fn pass(
    input: &Input,
    config: &AdaWaveConfig,
    dir: &Path,
    tally: &mut Tally,
    mut t: Option<&mut Tracer>,
) -> Option<Pass> {
    if let Some(t) = t.as_deref_mut() {
        t.next_op();
    }
    let start = Instant::now();
    let new_shard = || StreamingAdaWave::with_domain(config.clone(), input.domain.clone());
    let mut shards = [new_shard().ok()?, new_shard().ok()?];
    let paths: Vec<PathBuf> = (0..SHARDS)
        .map(|s| dir.join(format!("shard{s}.acc")))
        .collect();
    let (mut batches, mut rows) = ([0usize; SHARDS], [0usize; SHARDS]);
    let mut checkpoint_rows = 0;
    let mut refit_seconds = Vec::new();
    let dims = input.points.dims();
    let flat = input.points.as_slice();
    for (b, chunk) in flat.chunks(BATCH_ROWS * dims).enumerate() {
        let s = shard_of(b);
        let batch = PointsView::from_flat(chunk, dims).expect("chunks hold whole rows");
        let ok = in_span(&mut t, "stream.ingest", || shards[s].ingest(batch)).is_ok();
        if !tally.op(ok) {
            return None;
        }
        batches[s] += 1;
        let before = rows[s];
        rows[s] += batch.len();
        if batches[s] % REFIT_EVERY_BATCHES == 0 {
            timed_refit(&shards[s], &mut t, tally, &mut refit_seconds)?;
        }
        if rows[s] / input.checkpoint_every > before / input.checkpoint_every {
            let saved = in_span(&mut t, "stream.checkpoint", || {
                save_accumulator_atomic(&paths[s], &shards[s])
            });
            if !tally.op(saved.is_ok()) {
                return None;
            }
            if s == 0 {
                checkpoint_rows = rows[s];
            }
        }
    }
    let [mut merged, other] = shards;
    let joined = in_span(&mut t, "stream.merge", || merged.merge(other));
    if !tally.op(joined.is_ok()) {
        return None;
    }
    let result = timed_refit(&merged, &mut t, tally, &mut refit_seconds)?;
    let restored = in_span(&mut t, "stream.restore", || load_accumulator(&paths[0]));
    if !tally.op(restored.is_ok()) {
        return None;
    }
    Some(Pass {
        merged,
        result,
        restored: restored.ok()?,
        checkpoint_rows,
        refit_seconds,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Run the stream workload.
pub fn run(opts: &Opts, metrics: &mut Metrics, tally: &mut Tally) {
    let (input, setup_s) = setup_repeated(|| generate(opts));
    metrics.set("setup_s", setup_s);
    let dir = opts.out_dir.join(format!("stream-{}", std::process::id()));
    if !tally.op(std::fs::create_dir_all(&dir).is_ok()) {
        return;
    }
    measure(&input, &dir, opts, metrics, tally);
    // Checkpoints are scratch; a leftover directory only wastes space.
    let _ = std::fs::remove_dir_all(&dir);
}

fn measure(input: &Input, dir: &Path, opts: &Opts, metrics: &mut Metrics, tally: &mut Tally) {
    let config = data::config(input.points.dims(), Runtime::auto());

    // Correctness gates, before anything is timed.
    let Some(first) = pass(input, &config, dir, tally, None) else {
        tally.gate("a stream pass completes", false);
        return;
    };
    let one_shot = AdaWave::new(config.clone()).fit(input.merged_points.view());
    tally.gate(
        "the merged shards' refit() equals AdaWave::fit over the same domain",
        one_shot.is_ok_and(|r| r == first.result),
    );
    let round_trip = StreamingAdaWave::restore(&first.merged.snapshot())
        .ok()
        .and_then(|s| s.refit().ok());
    tally.gate(
        "snapshot -> restore -> refit() gives identical labels",
        round_trip.is_some_and(|r| r.assignment() == first.result.assignment()),
    );
    tally.gate(
        "the restored checkpoint holds the rows ingested when it was written",
        first.restored.points_ingested() == first.checkpoint_rows && first.checkpoint_rows > 0,
    );
    let labels = first.result.to_labels(NOISE_LABEL);
    metrics.set(
        "ami",
        ami_ignoring_noise(&input.merged_truth, &labels, input.noise_label),
    );
    metrics.note(format!(
        "op_* = one refit() (refit_s); rows_per_s = rows / pass wall time (ingest_rows_per_s); \
         {} rows, {SHARDS} shards, {BATCH_ROWS}-row batches",
        input.points.len()
    ));

    if opts.traced {
        traced_run(input, &config, dir, first, opts, metrics, tally);
        return;
    }
    let start = Instant::now();
    let (mut refits, mut slowest, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        let Some(p) = pass(input, &config, dir, tally, None) else {
            // A failed pass still took time; stop rather than spin.
            if start.elapsed().as_secs_f64() >= opts.seconds {
                break;
            }
            continue;
        };
        slowest.push(p.refit_seconds.iter().copied().fold(0.0, f64::max));
        refits.extend(p.refit_seconds);
        passes.push(p.seconds);
    }
    // Refit cost grows with the rows a session holds, so a pass's refits
    // fall into a few size classes, the merged one the largest. A pooled
    // percentile would land between classes and jump with the pass count;
    // the tail is instead each pass's slowest refit, median over passes.
    metrics.set("op_p50_ms", median(&refits) * 1e3);
    metrics.set("op_tail_ms", median(&slowest) * 1e3);
    metrics.set("rows_per_s", input.points.len() as f64 / median(&passes));
    metrics.note(format!(
        "refit_s: median {:.3} ms of {} refits; tail {:.3} ms = median over {} passes of \
         each pass's slowest refit (the merged one, over every row); ingest_rows_per_s from \
         passes of median {:.3} s",
        median(&refits) * 1e3,
        refits.len(),
        median(&slowest) * 1e3,
        passes.len(),
        median(&passes)
    ));
}

fn traced_run(
    input: &Input,
    config: &AdaWaveConfig,
    dir: &Path,
    first: Pass,
    opts: &Opts,
    metrics: &mut Metrics,
    tally: &mut Tally,
) {
    // Traced and untraced passes alternate, each going first in turn;
    // their ratio is the overhead.
    let mut tracer = Tracer::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.len() < MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        let (plain, spanned) = if traced.len() % 2 == 0 {
            let plain = pass(input, config, dir, tally, None);
            (plain, pass(input, config, dir, tally, Some(&mut tracer)))
        } else {
            let spanned = pass(input, config, dir, tally, Some(&mut tracer));
            (pass(input, config, dir, tally, None), spanned)
        };
        match (plain, spanned) {
            (Some(plain), Some(spanned)) => {
                untraced.push(plain.seconds);
                traced.push(spanned.seconds);
            }
            _ if start.elapsed().as_secs_f64() >= opts.seconds => break,
            _ => {}
        }
    }
    let per_call = |name| median(&tracer.call_seconds(name));
    metrics.set(
        "stream.ingest_s",
        median(&tracer.per_op_seconds("stream.ingest")),
    );
    metrics.set("stream.ingest_rows", input.points.len() as f64);
    metrics.set("stream.outliers", first.merged.outlier_count() as f64);
    metrics.set("stream.checkpoint_s", per_call("stream.checkpoint"));
    metrics.set("stream.merge_s", per_call("stream.merge"));
    metrics.set("stream.restore_s", per_call("stream.restore"));
    metrics.set("grid.occupied_cells", first.merged.occupied_cells() as f64);
    metrics.set("bench.trace_overhead", median(&traced) / median(&untraced));

    // Single calls on the merged 800k-point session, one operation each.
    let merged = &first.merged;
    let (mut model_s, mut refit_s, mut snapshot_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..CALL_REPEATS {
        tracer.next_op();
        let start = Instant::now();
        let model = tracer.span("stream.refit_model", |_| merged.refit_model());
        model_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let refit = tracer.span("stream.refit", |_| merged.refit());
        refit_s.push(start.elapsed().as_secs_f64());
        tally.op(model.is_ok() && refit.is_ok());
        let start = Instant::now();
        bytes = tracer.span("stream.snapshot", |_| merged.snapshot()).len();
        snapshot_s.push(start.elapsed().as_secs_f64());
    }
    metrics.set("stream.refit_model_s", median(&model_s));
    metrics.set(
        "stream.refit_labels_s",
        (median(&refit_s) - median(&model_s)).max(0.0),
    );
    metrics.set("stream.snapshot_s", median(&snapshot_s));
    metrics.set("stream.snapshot_bytes", bytes as f64);
    opts.write_trace(&tracer);
}
