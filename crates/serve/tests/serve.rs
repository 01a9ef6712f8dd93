//! Integration tests over real TCP: the daemon under concurrent clients,
//! hot reload under load, keep-alive connections, and hostile bytes.
//!
//! The loader here parses a one-number file into a toy 1-d threshold
//! model — the serve crate never sees real model files (the umbrella
//! crate injects `load_model`); the real-model end-to-end path lives in
//! the workspace-root `serve_e2e` suite.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use adawave_api::ScratchDir;
use adawave_serve::{Client, Model, ModelLoader, ModelStore, ServeConfig, Server};

/// Label 0 below the cut, 1 at or above, noise for non-finite input.
struct Threshold {
    cut: f64,
}

impl Model for Threshold {
    fn algorithm(&self) -> &str {
        "threshold"
    }
    fn dims(&self) -> usize {
        1
    }
    fn predict_one(&self, point: &[f64]) -> Option<usize> {
        if point.len() != 1 || !point[0].is_finite() {
            return None;
        }
        Some(usize::from(point[0] >= self.cut))
    }
    fn summary(&self) -> String {
        format!("threshold at {}", self.cut)
    }
}

fn threshold_loader() -> ModelLoader {
    Arc::new(|path: &Path| {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let cut: f64 = text.trim().parse().map_err(|_| "bad file".to_string())?;
        Ok(Box::new(Threshold { cut }) as Box<dyn Model>)
    })
}

/// The threshold model's file inside a test's scratch directory.
const MODEL_FILE: &str = "cut.model";

/// A daemon on a free port serving one threshold model named `cut`,
/// loaded from [`MODEL_FILE`] in the returned scratch directory.
fn start(tag: &str, workers: usize) -> (Server, ScratchDir) {
    let scratch = ScratchDir::new(&format!("adawave-serve-{tag}"));
    let path = scratch.join(MODEL_FILE);
    std::fs::write(&path, "0.5").unwrap();
    let store = Arc::new(ModelStore::new(threshold_loader()));
    store.load("cut", &path).unwrap();
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            read_timeout: Duration::from_secs(2),
            ..ServeConfig::default()
        },
        store,
    )
    .unwrap();
    (server, scratch)
}

fn connect(server: &Server) -> Client {
    Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap()
}

#[test]
fn one_keep_alive_connection_carries_every_endpoint() {
    let (server, _scratch) = start("endpoints", 2);
    let mut client = connect(&server);

    let health = client.get("/health").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);

    let models = client.get("/models").unwrap();
    assert!(models.body.contains("\"name\":\"cut\""), "{}", models.body);

    let summary = client.get("/models/cut").unwrap();
    assert!(
        summary.body.contains("\"summary\":\"threshold at 0.5\""),
        "{}",
        summary.body
    );

    let single = client
        .post(
            "/models/cut/predict",
            "application/json",
            r#"{"point": [0.9]}"#,
        )
        .unwrap();
    assert_eq!(single.status, 200);
    assert!(single.body.contains("\"label\":1"), "{}", single.body);

    let batch = client
        .post("/models/cut/predict-batch", "text/csv", "0.1\n0.9\nnan\n")
        .unwrap();
    assert_eq!(batch.status, 200);
    assert_eq!(batch.body, "label\n0\n1\n\n");

    let missing = client.get("/models/cot").unwrap();
    assert_eq!(missing.status, 404);
    assert!(
        missing.body.contains("did you mean cut?"),
        "{}",
        missing.body
    );

    server.shutdown();
    server.join();
}

#[test]
fn concurrent_clients_get_byte_identical_responses_to_sequential() {
    // Keep-alive connections pin a worker for their lifetime, so size
    // the pool for the ground-truth connection plus every hammer thread.
    let (server, _scratch) = start("concurrent", 8);
    let requests: Vec<(String, String)> = (0..24)
        .map(|i| {
            let x = i as f64 / 24.0;
            (format!("{{\"point\": [{x}]}}"), format!("0.0\n{x}\n1.0\n"))
        })
        .collect();

    // Sequential ground truth on one connection.
    let mut client = connect(&server);
    let expected: Vec<(String, String)> = requests
        .iter()
        .map(|(single, batch)| {
            let s = client
                .post("/models/cut/predict", "application/json", single)
                .unwrap();
            let b = client
                .post("/models/cut/predict-batch", "text/csv", batch)
                .unwrap();
            assert_eq!((s.status, b.status), (200, 200));
            (s.body, b.body)
        })
        .collect();

    // N hammering threads, each running the full request list repeatedly.
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for _ in 0..6 {
            scope.spawn(|| {
                let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
                for _ in 0..3 {
                    for ((single, batch), (expected_single, expected_batch)) in
                        requests.iter().zip(&expected)
                    {
                        let s = client
                            .post("/models/cut/predict", "application/json", single)
                            .unwrap();
                        let b = client
                            .post("/models/cut/predict-batch", "text/csv", batch)
                            .unwrap();
                        assert_eq!(&s.body, expected_single, "single diverged under load");
                        assert_eq!(&b.body, expected_batch, "batch diverged under load");
                    }
                }
            });
        }
    });

    server.shutdown();
    server.join();
}

#[test]
fn hot_reload_under_load_never_mixes_model_versions() {
    // 4 hammer connections + 1 admin connection, each pinning a worker.
    let (server, scratch) = start("reload", 6);
    let addr = server.local_addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Version 1: cut 0.5 → 0.4 labels 0. Version 2+: cut 0.1 → 0.4
    // labels 1. Every response must be internally consistent — the
    // version it claims and the label that version's model gives.
    std::thread::scope(|scope| {
        let mut hammers = Vec::new();
        for _ in 0..4 {
            let stop = Arc::clone(&stop);
            hammers.push(scope.spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
                let mut checked = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let r = client
                        .post(
                            "/models/cut/predict",
                            "application/json",
                            r#"{"point": [0.4]}"#,
                        )
                        .unwrap();
                    assert_eq!(r.status, 200, "{}", r.body);
                    let old = r.body.contains("\"version\":1") && r.body.contains("\"label\":0");
                    let new = !r.body.contains("\"version\":1") && r.body.contains("\"label\":1");
                    assert!(old || new, "mixed-version response: {}", r.body);
                    checked += 1;
                }
                checked
            }));
        }

        // Retrain (rewrite the file) and hot-reload mid-hammering.
        std::thread::sleep(Duration::from_millis(50));
        std::fs::write(scratch.join(MODEL_FILE), "0.1").unwrap();
        let mut admin = Client::connect(addr, Duration::from_secs(5)).unwrap();
        let reload = admin
            .post("/admin/reload/cut", "application/json", "")
            .unwrap();
        assert_eq!(reload.status, 200, "{}", reload.body);
        assert!(reload.body.contains("\"version\":2"), "{}", reload.body);
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);

        let total: u32 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "hammers made no requests");
        // After the reload settles, everyone sees version 2.
        let r = admin
            .post(
                "/models/cut/predict",
                "application/json",
                r#"{"point": [0.4]}"#,
            )
            .unwrap();
        assert!(r.body.contains("\"version\":2"), "{}", r.body);
        assert!(r.body.contains("\"label\":1"), "{}", r.body);
    });

    server.shutdown();
    server.join();
}

#[test]
fn hostile_bytes_get_a_400_and_a_close_never_a_hang() {
    let (server, _scratch) = start("hostile", 2);
    let addr = server.local_addr();

    // Raw garbage instead of HTTP.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"EHLO not-http\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap(); // server closes after the 400
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    // A half-request then silence: the read timeout closes it (2s here)
    // instead of pinning a worker forever.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stalled.write_all(b"GET /health HTT").unwrap();
    let mut tail = Vec::new();
    stalled.read_to_end(&mut tail).unwrap(); // closed, not hung
                                             // And the daemon still answers healthy clients afterwards.
    let mut client = connect(&server);
    assert_eq!(client.get("/health").unwrap().status, 200);

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_stops_accepting_but_answers_queued_work() {
    let (server, _scratch) = start("shutdown", 2);
    let mut client = connect(&server);
    assert_eq!(client.get("/health").unwrap().status, 200);
    server.shutdown();
    server.join();
    assert!(
        Client::connect("127.0.0.1:1".parse().unwrap(), Duration::from_millis(100)).is_err(),
        "sanity: connecting to a dead port errors"
    );
}
