//! Serving-daemon load benchmark: what `adawave serve` adds on top of the
//! in-process predict kernel.
//!
//! Trains the adawave and kmeans models on the synthetic workload, saves
//! them, serves them from a real `adawave-serve` daemon on a loopback
//! port, and hammers it with concurrent keep-alive HTTP clients:
//!
//! * **single-point requests** — end-to-end request latency (p50/p99)
//!   and requests/second, per client count, and
//! * **batch requests** — CSV rows in, labels out; points/second through
//!   the full HTTP + parse + predict + render path.
//!
//! Label parity against the in-process model is asserted before timing.
//! The container caveat is sharper here than for the other benches: with
//! one core, clients and server workers share it, so concurrency measures
//! protocol overhead and scheduling, not parallel speedup.
//!
//! Run with `cargo run --release -p adawave-bench --bin serve_bench`
//! (writes `BENCH_serve.json` into the current directory); pass `--smoke`
//! for a seconds-long variant driving the same code paths.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adawave::serve::Client;
use adawave::{
    model_loader, save_model, standard_registry, AlgorithmSpec, ModelStore, ServeConfig, Server,
};
use adawave_api::ScratchDir;
use adawave_bench::report::format_table;
use adawave_data::synthetic::synthetic_benchmark;

struct Row {
    algorithm: &'static str,
    clients: usize,
    single_requests: usize,
    single_per_second: f64,
    single_p50_micros: f64,
    single_p99_micros: f64,
    batch_rows: usize,
    batch_points_per_second: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (per_cluster, singles_per_client, batch_requests) = if smoke {
        (250, 100, 2)
    } else {
        (2_000, 1_500, 12)
    };
    let ds = synthetic_benchmark(75.0, per_cluster, 42);
    let points = ds.view();
    let n = points.len();

    // Train, persist, and keep the in-process models for the parity gate.
    let registry = standard_registry();
    let scratch = ScratchDir::new("adawave-serve-bench");
    let mut served: Vec<(&'static str, std::path::PathBuf, Box<dyn adawave::Model>)> = Vec::new();
    for (algorithm, spec) in [
        ("adawave", AlgorithmSpec::new("adawave")),
        (
            "kmeans",
            AlgorithmSpec::new("kmeans").with("k", 5).with("seed", 7),
        ),
    ] {
        let outcome = registry.fit_model(&spec, points).expect(algorithm);
        let path = scratch.join(format!("{algorithm}.awm"));
        save_model(&path, outcome.model.as_ref()).expect(algorithm);
        served.push((algorithm, path, outcome.model));
    }

    let store = Arc::new(ModelStore::new(model_loader()));
    for (algorithm, path, _) in &served {
        store.load(algorithm, path).expect(algorithm);
    }
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8, // enough for every client below to hold a worker
            ..ServeConfig::default()
        },
        Arc::clone(&store),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // The batch body: the full workload as CSV rows (built once).
    let batch_body: String = (0..n)
        .map(|i| {
            let row = points.row(i);
            let mut line = String::new();
            for (d, v) in row.iter().enumerate() {
                if d > 0 {
                    line.push(',');
                }
                line.push_str(&format!("{v:?}"));
            }
            line.push('\n');
            line
        })
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    for (algorithm, _, model) in &served {
        // Parity gate: the served answer must be byte-equivalent to the
        // in-process labels before any number counts.
        let expected = model.predict(points).expect(algorithm);
        let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connect");
        let response = client
            .post(
                &format!("/models/{algorithm}/predict-batch"),
                "text/csv",
                &batch_body,
            )
            .expect("batch request");
        assert_eq!(response.status, 200, "{}", response.body);
        let served_labels: Vec<Option<usize>> = response
            .body
            .lines()
            .skip(1)
            .map(|l| l.parse::<usize>().ok())
            .collect();
        assert_eq!(
            served_labels,
            expected.assignment(),
            "{algorithm}: served labels diverged from in-process predict"
        );

        for clients in [1usize, 4] {
            // Single-point latency under `clients` concurrent connections.
            let wall = Instant::now();
            // audit:allow(raw-thread) load-generator clients for the benchmark; no clustering result depends on them
            let mut latencies: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        scope.spawn(move || {
                            let mut client =
                                Client::connect(addr, Duration::from_secs(30)).expect("connect");
                            let mut latencies = Vec::with_capacity(singles_per_client);
                            for i in 0..singles_per_client {
                                let row = points.row((c * singles_per_client + i) % n);
                                let body = format!("{{\"point\": [{}, {}]}}", row[0], row[1]);
                                let start = Instant::now();
                                let response = client
                                    .post(
                                        &format!("/models/{algorithm}/predict"),
                                        "application/json",
                                        &body,
                                    )
                                    .expect("single request");
                                latencies.push(start.elapsed().as_secs_f64());
                                assert_eq!(response.status, 200, "{}", response.body);
                            }
                            latencies
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread"))
                    .collect()
            });
            let wall_seconds = wall.elapsed().as_secs_f64();
            latencies.sort_by(f64::total_cmp);
            let total_requests = clients * singles_per_client;

            // Batch throughput on one connection (per client count the
            // batch numbers barely move — it is one big request — so
            // measure it under the same concurrency for completeness).
            let batch_wall = Instant::now();
            let mut batch_client = Client::connect(addr, Duration::from_secs(30)).expect("connect");
            for _ in 0..batch_requests {
                let response = batch_client
                    .post(
                        &format!("/models/{algorithm}/predict-batch"),
                        "text/csv",
                        &batch_body,
                    )
                    .expect("batch request");
                assert_eq!(response.status, 200);
            }
            let batch_seconds = batch_wall.elapsed().as_secs_f64();

            rows.push(Row {
                algorithm,
                clients,
                single_requests: total_requests,
                single_per_second: total_requests as f64 / wall_seconds,
                single_p50_micros: percentile(&latencies, 0.50) * 1e6,
                single_p99_micros: percentile(&latencies, 0.99) * 1e6,
                batch_rows: n,
                batch_points_per_second: (n * batch_requests) as f64 / batch_seconds,
            });
        }
    }

    server.shutdown();
    server.join();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algorithm.to_string(),
                r.clients.to_string(),
                format!("{:.0}", r.single_per_second),
                format!("{:.0}", r.single_p50_micros),
                format!("{:.0}", r.single_p99_micros),
                format!("{:.0}", r.batch_points_per_second),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "model",
                "clients",
                "single req/s",
                "p50 (us)",
                "p99 (us)",
                "batch points/s"
            ],
            &table,
        )
    );

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": {{ \"points\": {n}, \"dims\": {}, \"noise_percent\": 75.0, \"seed\": 42, \"singles_per_client\": {singles_per_client}, \"batch_requests\": {batch_requests}, \"smoke\": {smoke} }},\n",
        points.dims(),
    ));
    json.push_str(&format!(
        "  \"host\": {{ \"available_parallelism\": {host_cpus}, \"note\": \"single-core container: HTTP clients and serve workers share the core, so concurrent-client numbers measure protocol+scheduling overhead, not parallel speedup; served labels are asserted identical to in-process predict before timing\" }},\n",
    ));
    json.push_str("  \"claim\": \"the serve daemon turns the in-process predict kernel into a measurable network service: keep-alive HTTP/1.1, worker pool, per-request latency percentiles, and batch label parity with the offline CLI\",\n");
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"algorithm\": \"{}\", \"clients\": {}, \"single_requests\": {}, \"single_requests_per_second\": {:.0}, \"single_p50_micros\": {:.1}, \"single_p99_micros\": {:.1}, \"batch_rows_per_request\": {}, \"batch_points_per_second\": {:.0} }}{}\n",
            r.algorithm,
            r.clients,
            r.single_requests,
            r.single_per_second,
            r.single_p50_micros,
            r.single_p99_micros,
            r.batch_rows,
            r.batch_points_per_second,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json (host cores: {host_cpus})");
}
