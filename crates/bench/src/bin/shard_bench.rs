//! Distributed-ingestion microbenchmark: what the versioned accumulator
//! artifacts cost, measured.
//!
//! The benchmark ingests the 100k-point synthetic workload at several
//! grid scales (so the occupied-cell count `m` — the payload size driver
//! — spans two orders of magnitude) and, at each scale, times
//!
//! * `snapshot` — serializing the accumulator payload to its versioned
//!   hex-float text form,
//! * `restore` — parsing that payload back into a live session, and
//! * `merge` — folding a restored half-shard into the other half,
//!
//! reporting each as cells/second. A fourth series measures the
//! *checkpoint overhead per ingested row*: the same batched ingest with
//! a [`Checkpointer`] flushing every N rows versus no checkpointing at
//! all, on the default scale.
//!
//! Parity is asserted in-process before anything is timed: the restored
//! session's refit and the two merged half-shards' refit must equal the
//! one-shot fit label for label, so the numbers cannot be produced by a
//! serializer that drifted.
//!
//! Run with `cargo run --release -p adawave-bench --bin shard_bench`
//! (writes `BENCH_shard.json` into the current directory); pass
//! `--smoke` for the seconds-long CI variant.

use std::time::Instant;

use adawave_api::{PointsView, ScratchDir};
use adawave_bench::report::format_table;
use adawave_core::{AdaWave, AdaWaveConfig};
use adawave_data::synthetic::synthetic_benchmark;
use adawave_grid::BoundingBox;
use adawave_stream::{Checkpointer, StreamingAdaWave};

const SCALES: &[u32] = &[16, 32, 64, 128];
const BATCH_ROWS: usize = 8_192;

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
    assert!(sink != usize::MAX);
    best
}

/// Ingest `points` in fixed batches into a fresh session over `domain`,
/// checkpointing every `every` rows when a path is given. Returns the
/// wall-clock seconds of the whole ingest.
fn timed_ingest(
    config: &AdaWaveConfig,
    domain: &BoundingBox,
    points: PointsView<'_>,
    checkpoint: Option<(&std::path::Path, usize)>,
) -> f64 {
    let dims = points.dims();
    let flat = points.as_slice();
    let n = points.len();
    let mut stream = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
    let mut checkpointer = checkpoint.map(|(path, every)| Checkpointer::new(path, every));
    let start = Instant::now();
    let mut lo = 0;
    while lo < n {
        let hi = (lo + BATCH_ROWS).min(n);
        let batch = PointsView::from_flat(&flat[lo * dims..hi * dims], dims).unwrap();
        let report = stream.ingest(batch).unwrap();
        if let Some(c) = checkpointer.as_mut() {
            c.observe(&stream, report.points).unwrap();
        }
        lo = hi;
    }
    if let Some(c) = checkpointer.as_mut() {
        c.flush(&stream).unwrap();
    }
    start.elapsed().as_secs_f64()
}

struct Row {
    scale: u32,
    cells: usize,
    payload_bytes: usize,
    snapshot_seconds: f64,
    restore_seconds: f64,
    merge_seconds: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (per_cluster, repeats) = if smoke { (250, 2) } else { (5_000, 5) };
    // The workload of the other BENCH files: 5 clusters + 75% noise.
    let ds = synthetic_benchmark(75.0, per_cluster, 42);
    let points = ds.view();
    let dims = points.dims();
    let total = points.len();
    let domain = BoundingBox::from_points(points).unwrap();
    let split = total / 2;

    let mut rows: Vec<Row> = Vec::with_capacity(SCALES.len());
    for &scale in SCALES {
        let config = AdaWaveConfig::builder().scale(scale).build();
        let mut whole = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
        whole.ingest(points).unwrap();
        let cells = whole.occupied_cells();

        // Two half-shards over the same frozen domain, for the merge
        // timing and the shard-parity assertion.
        let left_rows = PointsView::from_flat(&points.as_slice()[..split * dims], dims).unwrap();
        let right_rows = PointsView::from_flat(&points.as_slice()[split * dims..], dims).unwrap();
        let mut left = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
        left.ingest(left_rows).unwrap();
        let mut right = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
        right.ingest(right_rows).unwrap();

        // Parity gate: round-trip and two-shard merge must both refit to
        // the one-shot fit, label for label, before anything is timed.
        let fitted = AdaWave::new(config.clone()).fit(points).unwrap();
        let payload = whole.snapshot();
        let restored = StreamingAdaWave::restore(&payload).unwrap();
        assert_eq!(
            restored.refit().unwrap(),
            fitted,
            "restored refit diverged from one-shot fit at scale {scale}"
        );
        let mut merged = StreamingAdaWave::restore(&left.snapshot()).unwrap();
        merged
            .merge(StreamingAdaWave::restore(&right.snapshot()).unwrap())
            .unwrap();
        assert_eq!(
            merged.refit().unwrap(),
            fitted,
            "two-shard merge diverged from one-shot fit at scale {scale}"
        );

        let snapshot_seconds = best_of(repeats, || whole.snapshot().len());
        let restore_seconds = best_of(repeats, || {
            StreamingAdaWave::restore(&payload)
                .unwrap()
                .occupied_cells()
        });
        let left_payload = left.snapshot();
        let right_payload = right.snapshot();
        // The merge consumes its argument, so each repetition rebuilds
        // the operands from their payloads outside the timed region.
        let mut merge_seconds = f64::MAX;
        let mut sink = 0usize;
        for _ in 0..repeats {
            let mut base = StreamingAdaWave::restore(&left_payload).unwrap();
            let other = StreamingAdaWave::restore(&right_payload).unwrap();
            let start = Instant::now();
            base.merge(other).unwrap();
            merge_seconds = merge_seconds.min(start.elapsed().as_secs_f64());
            sink = sink.wrapping_add(base.occupied_cells());
        }
        assert!(sink != usize::MAX);

        rows.push(Row {
            scale,
            cells,
            payload_bytes: payload.len(),
            snapshot_seconds,
            restore_seconds,
            merge_seconds,
        });
    }

    // Checkpoint overhead per row, on the default scale: batched ingest
    // with an every-N checkpointer vs the same ingest without one.
    let config = AdaWaveConfig::default();
    let every = if smoke { 1_000 } else { 10_000 };
    let scratch = ScratchDir::new("adawave-shard-bench");
    let ckpt_path = scratch.join("checkpoint.awa");
    let mut plain_seconds = f64::MAX;
    let mut checkpointed_seconds = f64::MAX;
    for _ in 0..repeats {
        plain_seconds = plain_seconds.min(timed_ingest(&config, &domain, points, None));
        checkpointed_seconds = checkpointed_seconds.min(timed_ingest(
            &config,
            &domain,
            points,
            Some((&ckpt_path, every)),
        ));
    }
    let overhead_per_row = (checkpointed_seconds - plain_seconds).max(0.0) / total as f64;

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scale.to_string(),
                r.cells.to_string(),
                r.payload_bytes.to_string(),
                format!("{:.0}", r.cells as f64 / r.snapshot_seconds),
                format!("{:.0}", r.cells as f64 / r.restore_seconds),
                format!("{:.0}", r.cells as f64 / r.merge_seconds),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "scale",
                "occupied cells m",
                "payload bytes",
                "snapshot cells/s",
                "restore cells/s",
                "merge cells/s",
            ],
            &table,
        )
    );
    println!(
        "checkpoint every {every} rows: {:.1} ns/row overhead ({:.3}s vs {:.3}s over {total} rows)",
        overhead_per_row * 1e9,
        checkpointed_seconds,
        plain_seconds,
    );

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": {{ \"points\": {total}, \"dims\": {dims}, \"noise_percent\": 75.0, \"seed\": 42, \"batch_rows\": {BATCH_ROWS}, \"repeats\": {repeats}, \"timing\": \"best-of\", \"smoke\": {smoke} }},\n",
    ));
    json.push_str(&format!(
        "  \"host\": {{ \"available_parallelism\": {host_cpus}, \"note\": \"single-core container caveat: these are single-process serialization/merge costs; the distributed win (k shard processes ingesting concurrently) cannot show a wall-clock speedup on a one-core host\" }},\n",
    ));
    json.push_str("  \"claim\": \"accumulator artifacts cost O(m) to snapshot, restore and merge for m occupied cells (plus the per-point cell-key table), independent of how many points were ingested; checkpointing adds a bounded per-row overhead amortized over the flush interval\",\n");
    json.push_str("  \"parity\": \"asserted in-process before timing at every scale: snapshot->restore->refit and half-shard snapshot->restore->merge->refit both equal the one-shot AdaWave::fit labels exactly\",\n");
    json.push_str("  \"scales\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"scale\": {}, \"occupied_cells_m\": {}, \"payload_bytes\": {}, \"snapshot_seconds\": {:.6}, \"restore_seconds\": {:.6}, \"merge_seconds\": {:.6} }}{}\n",
            r.scale,
            r.cells,
            r.payload_bytes,
            r.snapshot_seconds,
            r.restore_seconds,
            r.merge_seconds,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"checkpoint\": {{ \"every_rows\": {every}, \"plain_ingest_seconds\": {plain_seconds:.6}, \"checkpointed_ingest_seconds\": {checkpointed_seconds:.6}, \"overhead_ns_per_row\": {:.1} }}\n",
        overhead_per_row * 1e9,
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
    println!("wrote BENCH_shard.json (host cores: {host_cpus})");
}
