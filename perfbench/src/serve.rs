//! `serve_mixed`: an in-process `adawave-serve` daemon under open-loop
//! load.
//!
//! The daemon serves the `fit_2d_noisy` model on loopback with one worker
//! per core. One generator thread per core drives one keep-alive
//! connection each. Together they send requests on a fixed schedule of
//! [`RATE_PER_S`] requests per second, whether or not earlier answers
//! have arrived: single-point `predict`s, one 4096-row CSV
//! `predict-batch` per 500 requests and one `POST /admin/reload` per
//! second. Latency is timed from each request's due time, so a stall also
//! charges the requests queued behind it.
//!
//! The predict tail is taken per batch cycle (the 500 requests that hold
//! one batch): the slowest predict of each cycle, which is the one queued
//! behind the batch on its connection, median over the run's cycles. A
//! pooled p99 lies on the ramp of predicts queued behind batches, where it
//! moves about three times as much as the batch time does, and the host's
//! stalls come in bursts of 0.5 to 2 s that a pooled percentile cannot
//! shed.
//!
//! The traced run replays captured `predict` request bytes through the
//! server's own public stages (`read_request`, `Json::parse`,
//! `ModelStore::get`, `Model::predict_one`, `Json::render` and
//! `write_response` into a `Vec`), one span each.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adawave_api::{load_artifact, save_artifact, ArtifactKind, Model, PointMatrix};
use adawave_core::{AdaWave, AdaWaveModel};
use adawave_data::Dataset;
use adawave_metrics::{ami_ignoring_noise, NOISE_LABEL};
use adawave_runtime::Runtime;
use adawave_serve::http::{read_request, write_response, Response};
use adawave_serve::json::Json;
use adawave_serve::{Client, ModelLoader, ModelStore, ServeConfig, Server};

use crate::data::{self, Size};
use crate::report::Metrics;
use crate::stats::{median, median_window_max, Tally};
use crate::trace::{in_span, Tracer};
use crate::{setup_repeated, Opts};

/// The offered load, requests per second over all connections: about a
/// quarter of the closed-loop capacity of this traffic mix (about 38 000
/// requests per second on a 2-core x86-64 host). Fixed, so every run and
/// every commit sees the same schedule.
pub const RATE_PER_S: f64 = 9_000.0;
/// Rows of each `predict-batch` request.
const BATCH_ROWS: usize = 4_096;
/// One `predict-batch` per this many requests.
const BATCH_EVERY: usize = 500;
/// Distinct query points the single predicts cycle through.
const QUERIES: usize = 4_096;
/// Distinct batch bodies the batch requests cycle through.
const BATCHES: usize = 8;
/// Rows of the gate's one large batch, over which the AMI is computed.
const AMI_ROWS: usize = 65_536;
/// Captured requests replayed per round of the traced run.
const REPLAYS: usize = 2_000;
/// Repeats of each single-call measurement of the traced run.
const CALL_REPEATS: usize = 5;
/// The name the model is served under.
const MODEL: &str = "scene";
const MAX_BODY_BYTES: usize = 16 << 20;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything set up before the load starts.
struct Setup {
    dataset: Dataset,
    model: Arc<dyn Model>,
    model_path: PathBuf,
    store: Arc<ModelStore>,
    server: Server,
}

/// The model loader the daemon uses: the artifact layer plus
/// `AdaWaveModel::deserialize`.
fn loader() -> ModelLoader {
    Arc::new(|path: &Path| {
        let artifact = load_artifact(path, ArtifactKind::Model).map_err(|e| e.to_string())?;
        let model = AdaWaveModel::deserialize(&artifact.payload)?;
        Ok(Box::new(model) as Box<dyn Model>)
    })
}

fn save_model(path: &Path, model: &dyn Model) -> Result<(), String> {
    let payload = model.serialize().ok_or("the model does not serialize")?;
    save_artifact(path, ArtifactKind::Model, model.algorithm(), &payload).map_err(|e| e.to_string())
}

fn nproc() -> usize {
    Runtime::auto().threads()
}

/// Generate the scene, train and save the model, start the daemon.
fn set_up(opts: &Opts, model_path: &Path) -> Result<Setup, String> {
    let dataset = data::scene_2d(opts.seed, opts.size);
    let config = data::config(dataset.dims(), Runtime::auto());
    let (_, model) = AdaWave::new(config)
        .fit_with_model(dataset.view())
        .map_err(|e| e.to_string())?;
    save_model(model_path, &model)?;
    let store = Arc::new(ModelStore::new(loader()));
    store.load(MODEL, model_path)?;
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: nproc(),
            read_timeout: IO_TIMEOUT,
            max_body_bytes: MAX_BODY_BYTES,
        },
        Arc::clone(&store),
    )
    .map_err(|e| format!("cannot start the daemon: {e}"))?;
    Ok(Setup {
        dataset,
        model: Arc::new(model),
        model_path: model_path.to_path_buf(),
        store,
        server,
    })
}

/// The body of a single-point predict request.
fn predict_body(point: &[f64]) -> String {
    let coords = point.iter().map(|&v| Json::Number(v)).collect();
    Json::Object(vec![("point".to_string(), Json::Array(coords))]).render()
}

/// Rows as a CSV request body.
fn csv_body(points: &PointMatrix) -> String {
    let mut out = String::new();
    for row in points.rows() {
        let fields: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// The CSV labels document `predict-batch` answers with: a `label`
/// header, one label per line, noise as an empty line.
fn labels_csv(assignment: &[Option<usize>]) -> String {
    let mut out = String::from("label\n");
    for label in assignment {
        if let Some(l) = label {
            out.push_str(&l.to_string());
        }
        out.push('\n');
    }
    out
}

/// The label of a single-predict response body (`None` = noise), or an
/// error if the body is not a predict answer.
fn response_label(body: &str) -> Result<Option<usize>, String> {
    let doc = Json::parse(body)?;
    match doc.get("label") {
        Some(Json::Null) => Ok(None),
        Some(label) => label
            .as_f64()
            .map(|v| Some(v as usize))
            .ok_or_else(|| format!("label is not a number in {body}")),
        None => Err(format!("no label in {body}")),
    }
}

/// The request bytes a client sends for `POST path` (the same framing
/// as [`Client`]).
fn request_bytes(path: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: adawave\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Requests the load sends, prepared before timing.
struct Traffic {
    /// Single-predict bodies and the label each must get.
    queries: Vec<(String, Option<usize>)>,
    /// Batch bodies and the exact response body each must get.
    batches: Vec<(String, String)>,
}

fn sample_rows(points: &PointMatrix, rows: usize, rng: &mut adawave_data::Rng) -> Vec<usize> {
    (0..rows).map(|_| rng.below(points.len())).collect()
}

fn prepare(setup: &Setup, opts: &Opts) -> Traffic {
    let points = &setup.dataset.points;
    let mut rng = adawave_data::Rng::new(opts.seed ^ 0x5e7e_c0de);
    let queries = sample_rows(points, QUERIES, &mut rng)
        .into_iter()
        .map(|i| {
            let row = points.row(i);
            (predict_body(row), setup.model.predict_one(row))
        })
        .collect();
    let batches = (0..BATCHES)
        .map(|_| {
            let rows = points.select(&sample_rows(points, BATCH_ROWS, &mut rng));
            let expected = setup
                .model
                .predict(rows.view())
                .map(|c| labels_csv(c.assignment()))
                .unwrap_or_default();
            (csv_body(&rows), expected)
        })
        .collect();
    Traffic { queries, batches }
}

/// Run the serve workload.
pub fn run(opts: &Opts, metrics: &mut Metrics, tally: &mut Tally) {
    let dir = opts.out_dir.join(format!("serve-{}", std::process::id()));
    if !tally.op(std::fs::create_dir_all(&dir).is_ok()) {
        return;
    }
    let model_path = dir.join("scene.awm");
    let (setup, setup_s) = setup_repeated(|| set_up(opts, &model_path));
    metrics.set("setup_s", setup_s);
    match setup {
        Ok(setup) => measure(&setup, opts, metrics, tally),
        Err(e) => {
            tally.gate(&format!("the daemon starts ({e})"), false);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn measure(setup: &Setup, opts: &Opts, metrics: &mut Metrics, tally: &mut Tally) {
    let traffic = prepare(setup, opts);
    let addr = setup.server.local_addr();
    let Ok(mut client) = Client::connect(addr, IO_TIMEOUT) else {
        tally.gate("a client connects to the daemon", false);
        return;
    };
    let predict_path = format!("/models/{MODEL}/predict");
    let batch_path = format!("/models/{MODEL}/predict-batch");

    // Correctness gates, before anything is timed.
    let all_batches_match = traffic.batches.iter().all(|(body, expected)| {
        client
            .post(&batch_path, "text/csv", body)
            .is_ok_and(|r| r.status == 200 && r.body == *expected)
    });
    tally.gate(
        "served predict-batch bodies are byte-identical to Model::predict",
        all_batches_match,
    );
    let all_predicts_match = traffic.queries.iter().all(|(body, expected)| {
        client
            .post(&predict_path, "application/json", body)
            .is_ok_and(|r| r.status == 200 && response_label(&r.body) == Ok(*expected))
    });
    tally.gate(
        "single predicts match Model::predict_one",
        all_predicts_match,
    );
    let reload = client.post(&format!("/admin/reload/{MODEL}"), "application/json", "");
    tally.gate(
        "POST /admin/reload answers 200",
        reload.is_ok_and(|r| r.status == 200),
    );
    metrics.set(
        "ami",
        served_ami(setup, opts, &mut client, &batch_path, tally),
    );
    drop(client);
    metrics.note(format!(
        "op_* = one single-point predict, timed from its due time (predict_p50/tail); \
         rows_per_s = predict-batch rows / batch service time (batch_rows_per_s); \
         open loop at {RATE_PER_S} req/s over {} connections, {} workers",
        nproc(),
        setup.server.workers()
    ));

    let load = open_loop(setup, &traffic, opts.seconds, tally);
    let latencies: Vec<f64> = load.predicts.iter().map(|&(_, s)| s).collect();
    let p50 = median(&latencies);
    let cycles = load.cycles();
    let tail = median_window_max(&cycles);
    metrics.set("op_p50_ms", p50 * 1e3);
    metrics.set("op_tail_ms", tail * 1e3);
    metrics.note(format!(
        "predict: median {:.3} ms of {} samples; tail {:.3} ms = median over {} batch cycles \
         of {BATCH_EVERY} requests of each cycle's slowest predict (about p{:.1})",
        p50 * 1e3,
        latencies.len(),
        tail * 1e3,
        cycles.len(),
        100.0 * (1.0 - 1.0 / BATCH_EVERY as f64)
    ));
    metrics.set(
        "rows_per_s",
        BATCH_ROWS as f64 / median(&load.batch_service),
    );
    metrics.note(format!(
        "{} predicts, {} batches, {} reloads; generator lag mean {:.3} ms",
        latencies.len(),
        load.batch_service.len(),
        load.reloads,
        load.mean_lag_s() * 1e3
    ));
    if opts.traced {
        traced_run(setup, &traffic, &load, opts, metrics, tally);
    }
}

/// AMI of the served labels of one large batch against the ground truth.
fn served_ami(
    setup: &Setup,
    opts: &Opts,
    client: &mut Client,
    batch_path: &str,
    tally: &mut Tally,
) -> f64 {
    let points = &setup.dataset.points;
    let mut rng = adawave_data::Rng::new(opts.seed ^ 0xa111);
    let rows = match opts.size {
        Size::Full => AMI_ROWS,
        Size::Smoke => BATCH_ROWS,
    };
    let indices = sample_rows(points, rows, &mut rng);
    let batch = points.select(&indices);
    let Ok(response) = client.post(batch_path, "text/csv", &csv_body(&batch)) else {
        tally.gate("the AMI batch is answered", false);
        return 0.0;
    };
    let expected = setup
        .model
        .predict(batch.view())
        .map(|c| labels_csv(c.assignment()));
    tally.gate(
        "the AMI batch body is byte-identical to Model::predict",
        response.status == 200 && expected.is_ok_and(|e| e == response.body),
    );
    let labels: Vec<usize> = response
        .body
        .lines()
        .skip(1)
        .map(|line| line.parse().unwrap_or(NOISE_LABEL))
        .collect();
    let truth: Vec<usize> = indices.iter().map(|&i| setup.dataset.labels[i]).collect();
    if labels.len() != truth.len() {
        return 0.0;
    }
    ami_ignoring_noise(&truth, &labels, data::noise_label(&setup.dataset))
}

/// What the generators measured.
#[derive(Default)]
struct Load {
    /// Single predicts: (schedule slot, latency from due time in seconds).
    predicts: Vec<(usize, f64)>,
    /// Batch request service times (send to answer), seconds.
    batch_service: Vec<f64>,
    reloads: usize,
    /// Requests sent, and the sum of how late each was sent.
    sent: usize,
    lag_sum_s: f64,
}

impl Load {
    /// How late the generators sent a request, on average.
    fn mean_lag_s(&self) -> f64 {
        self.lag_sum_s / self.sent.max(1) as f64
    }

    /// Predict latencies grouped by batch cycle: each cycle starts with a
    /// batch slot and holds the predicts due until the next one.
    fn cycles(&self) -> Vec<Vec<f64>> {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for &(slot, seconds) in &self.predicts {
            let w = (slot + 1) / BATCH_EVERY;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(seconds);
        }
        windows
    }
}

/// One request of the schedule.
#[derive(Clone, Copy)]
enum Kind {
    Predict(usize),
    Batch(usize),
    Reload,
}

/// The kind of request slot `j` of a schedule at `rate` per second: every
/// [`BATCH_EVERY`]th slot is a batch, the first slot of each second after
/// the first is a reload, the rest are predicts.
fn slot_kind(j: usize, rate: f64) -> Kind {
    let per_second = rate.round().max(1.0) as usize;
    if j > 0 && j.is_multiple_of(per_second) {
        Kind::Reload
    } else if j % BATCH_EVERY == BATCH_EVERY - 1 {
        Kind::Batch(j / BATCH_EVERY)
    } else {
        Kind::Predict(j)
    }
}

/// Drive the daemon for `seconds` on the fixed schedule, one generator
/// thread and keep-alive connection per core; slot `j` goes to thread
/// `j % threads`.
fn open_loop(setup: &Setup, traffic: &Traffic, seconds: f64, tally: &mut Tally) -> Load {
    let threads = nproc();
    // At least two batches, so even a zero-second run crosses every path.
    let slots = ((RATE_PER_S * seconds).ceil() as usize).max(2 * BATCH_EVERY);
    let addr = setup.server.local_addr();
    let clients: Vec<Option<Client>> = (0..threads)
        .map(|_| Client::connect(addr, IO_TIMEOUT).ok())
        .collect();
    // Requests not answered by this deadline count as failed.
    let deadline = Duration::from_secs_f64(3.0 * seconds + 10.0);
    let epoch = Instant::now() + Duration::from_millis(20);
    let predict_path = format!("/models/{MODEL}/predict");
    let batch_path = format!("/models/{MODEL}/predict-batch");
    let reload_path = format!("/admin/reload/{MODEL}");

    let parts: Vec<(Load, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(first, client)| {
                let paths = (&predict_path, &batch_path, &reload_path);
                scope.spawn(move || {
                    let mut load = Load::default();
                    let mut tally = Tally::default();
                    let my_slots = (first..slots).step_by(threads);
                    let Some(mut client) = client else {
                        tally.attempted = my_slots.count() as u64;
                        tally.failed = tally.attempted;
                        return (load, tally);
                    };
                    for j in my_slots {
                        let due = epoch + Duration::from_secs_f64(j as f64 / RATE_PER_S);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        } else if now.duration_since(epoch) > deadline {
                            tally.op(false);
                            continue;
                        }
                        let sent = Instant::now();
                        load.lag_sum_s += sent.duration_since(due).as_secs_f64();
                        load.sent += 1;
                        let ok = match slot_kind(j, RATE_PER_S) {
                            Kind::Predict(q) => {
                                let (body, expected) = &traffic.queries[q % traffic.queries.len()];
                                let answer = client.post(paths.0, "application/json", body);
                                load.predicts.push((j, due.elapsed().as_secs_f64()));
                                answer.is_ok_and(|r| {
                                    r.status == 200 && response_label(&r.body) == Ok(*expected)
                                })
                            }
                            Kind::Batch(b) => {
                                let (body, expected) = &traffic.batches[b % traffic.batches.len()];
                                let answer = client.post(paths.1, "text/csv", body);
                                load.batch_service.push(sent.elapsed().as_secs_f64());
                                answer.is_ok_and(|r| r.status == 200 && r.body == *expected)
                            }
                            Kind::Reload => {
                                load.reloads += 1;
                                client
                                    .post(paths.2, "application/json", "")
                                    .is_ok_and(|r| r.status == 200)
                            }
                        };
                        tally.op(ok);
                    }
                    (load, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a generator thread panicked"))
            .collect()
    });
    let mut load = Load::default();
    for (part, part_tally) in parts {
        load.predicts.extend(part.predicts);
        load.batch_service.extend(part.batch_service);
        load.reloads += part.reloads;
        load.lag_sum_s += part.lag_sum_s;
        load.sent += part.sent;
        tally.attempted += part_tally.attempted;
        tally.failed += part_tally.failed;
    }
    load
}

/// Replay captured predict requests through the server's stages, inside
/// spans when `t` is given. Returns whether every answer was right.
fn replay(
    store: &ModelStore,
    requests: &[(Vec<u8>, Option<usize>)],
    mut t: Option<&mut Tracer>,
) -> bool {
    let mut all_ok = true;
    for (bytes, expected) in requests {
        if let Some(t) = t.as_deref_mut() {
            t.next_op();
        }
        let mut reader: &[u8] = bytes;
        let label = (|| {
            let request = in_span(&mut t, "serve.http_read", || {
                read_request(&mut reader, MAX_BODY_BYTES)
            })
            .ok()??;
            let point = in_span(&mut t, "serve.json_parse", || {
                let doc = Json::parse(request.body_text().ok()?).ok()?;
                doc.get("point")?
                    .as_array()?
                    .iter()
                    .map(Json::as_f64)
                    .collect::<Option<Vec<f64>>>()
            })?;
            let entry = in_span(&mut t, "serve.store_get", || store.get(MODEL))?;
            let label = in_span(&mut t, "serve.predict_one", || {
                entry.model.predict_one(&point)
            });
            let mut out = Vec::new();
            in_span(&mut t, "serve.render", || {
                let body = Json::Object(vec![
                    ("model".to_string(), Json::String(entry.name.clone())),
                    ("version".to_string(), Json::Number(entry.version as f64)),
                    (
                        "label".to_string(),
                        label.map_or(Json::Null, |l| Json::Number(l as f64)),
                    ),
                ])
                .render();
                write_response(&mut out, &Response::json(body))
            })
            .ok()?;
            Some(label)
        })();
        all_ok &= label == Some(*expected);
    }
    all_ok
}

fn traced_run(
    setup: &Setup,
    traffic: &Traffic,
    load: &Load,
    opts: &Opts,
    metrics: &mut Metrics,
    tally: &mut Tally,
) {
    let predict_path = format!("/models/{MODEL}/predict");
    let requests: Vec<(Vec<u8>, Option<usize>)> = traffic
        .queries
        .iter()
        .cycle()
        .take(REPLAYS)
        .map(|(body, expected)| {
            (
                request_bytes(&predict_path, "application/json", body),
                *expected,
            )
        })
        .collect();

    // Traced and untraced replays alternate; their ratio is the overhead.
    let mut tracer = Tracer::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for _ in 0..CALL_REPEATS {
        let start = Instant::now();
        tally.op(replay(&setup.store, &requests, None));
        untraced.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        tally.op(replay(&setup.store, &requests, Some(&mut tracer)));
        traced.push(start.elapsed().as_secs_f64());
    }
    let stage = |name| median(&tracer.per_op_seconds(name));
    let stages_us = [
        ("serve.http_read_us", stage("serve.http_read") * 1e6),
        ("serve.json_parse_us", stage("serve.json_parse") * 1e6),
        ("serve.render_us", stage("serve.render") * 1e6),
    ];
    let store_get_ns = stage("serve.store_get") * 1e9;
    let predict_one_ns = stage("serve.predict_one") * 1e9;
    for (name, value) in stages_us {
        metrics.set(name, value);
    }
    metrics.set("serve.store_get_ns", store_get_ns);
    metrics.set("serve.predict_one_ns", predict_one_ns);
    let in_process_us: f64 =
        stages_us.iter().map(|(_, v)| v).sum::<f64>() + (store_get_ns + predict_one_ns) * 1e-3;
    metrics.set(
        "serve.residual_us",
        median(&load.predicts.iter().map(|&(_, s)| s).collect::<Vec<_>>()) * 1e6 - in_process_us,
    );
    metrics.note(
        "serve.residual_us is derived: client p50 minus the in-process stage medians \
         (socket, scheduling and queueing)",
    );
    metrics.set("bench.trace_overhead", median(&traced) / median(&untraced));
    metrics.set("bench.generator_lag_ms", load.mean_lag_s() * 1e3);

    // Single calls: reload, batch predict, model save and load.
    tracer.next_op();
    let batch = setup
        .dataset
        .points
        .select(&(0..BATCH_ROWS.min(setup.dataset.len())).collect::<Vec<_>>());
    let scratch = setup.model_path.with_extension("resaved");
    for _ in 0..CALL_REPEATS {
        tally.op(tracer
            .span("serve.reload", |_| setup.store.reload(MODEL))
            .is_ok());
        tally.op(tracer
            .span("serve.batch_predict", |_| setup.model.predict(batch.view()))
            .is_ok());
        tally.op(tracer
            .span("api.save_model", |_| {
                save_model(&scratch, setup.model.as_ref())
            })
            .is_ok());
        tally.op(tracer
            .span("api.load_model", |_| loader()(&scratch))
            .is_ok());
    }
    let per_call = |name| median(&tracer.call_seconds(name));
    metrics.set("serve.reload_s", per_call("serve.reload"));
    metrics.set("serve.batch_predict_s", per_call("serve.batch_predict"));
    metrics.set("api.save_model_s", per_call("api.save_model"));
    metrics.set("api.load_model_s", per_call("api.load_model"));
    metrics.set(
        "api.model_bytes",
        std::fs::metadata(&setup.model_path).map_or(0.0, |m| m.len() as f64),
    );
    opts.write_trace(&tracer);
}
