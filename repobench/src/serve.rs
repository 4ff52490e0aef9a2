//! `serve_open`: open-loop Poisson traffic from one generator thread over
//! [`CONNECTIONS`] keep-alive connections to a `Server` with default
//! `ServeOptions`, at a nominal rate well under saturation, then up an
//! ascending ladder of rates.
//!
//! The seeded request mix: kernel-name `/predict` (featurize path),
//! raw 20-dim feature-vector `/predict` (bypasses featurize) and
//! `/predict/batch` with [`BATCH_ROWS`] rows. Latency runs from each
//! request's *intended* send instant, so a stalled server cannot hide its
//! queueing (coordinated omission). Every reply's `cores` must equal the
//! offline `EnergyPredictor` on the same input, and every batch must equal
//! its rows sent one at a time.

use crate::layers::Layers;
use crate::trace::{Trace, Tracer};
use crate::train::{prepare_cache, warm_options};
use crate::{median, quantile, Args, Report, Window};
use pulp_bench::serve::{ServeOptions, ServeState, Server, ShutdownHandle};
use pulp_energy::{static_feature_vector, EnergyPredictor, LabeledDataset, StaticFeatureSet};
use pulp_kernels::{all_samples, registry, KernelParams};
use pulp_ml::TreeParams;
use pulp_obs::MetricsRegistry;
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Keep-alive connections the generator spreads requests over.
const CONNECTIONS: usize = 2;
/// Nominal open-loop rate (req/s), well under saturation.
const NOMINAL_RPS: f64 = 1000.0;
/// Share of the run's seconds spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.45;
/// Ascending ladder rates (req/s) probed for `max_rps_at_slo`.
const LADDER: &[f64] = &[
    500.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 8000.0, 10000.0, 12000.0,
];
/// Share of the run's seconds spent on each ladder rung.
const RUNG_SHARE: f64 = 0.04;
/// The ladder's service-level objective on p99 latency (µs).
const SLO_US: f64 = 1000.0;
/// Bound on the generator's own p99 timer error (µs) past which the
/// nominal-rate latencies are not trusted: ten times the SLO means the host
/// stalled the generator, not that the server was slow.
const LATE_BOUND_US: f64 = 10_000.0;
/// The generator sleeps until this long before a send and spins the rest.
const SPIN_BEFORE_SEND: Duration = Duration::from_micros(200);
/// A request unanswered after this long is a miss.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);
/// Rows per `/predict/batch` request.
const BATCH_ROWS: usize = 16;
/// Distinct request bodies in the seeded pool.
const POOL: usize = 512;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 9;
/// Length of the serving probe of the other workloads' traced runs.
const PROBE_S: f64 = 1.0;

/// SplitMix64 — the seeded stream behind the pool and the schedules.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Exponential gap (ns) with mean `mean_ns`.
    fn gap_ns(&mut self, mean_ns: f64) -> u64 {
        let u = 1.0 - (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        (-u.ln() * mean_ns) as u64
    }
}

/// One pooled request: its wire bytes and the expected `cores` per row.
struct Body {
    /// `kernel`, `vector` or `batch`.
    kind: &'static str,
    request: Vec<u8>,
    expect: Vec<usize>,
    /// Single-row bodies of a batch, for the batch-vs-singles check.
    rows: Vec<String>,
    /// Kernel-name request: `(kernel index, params)`.
    kernel: Option<(usize, KernelParams)>,
}

fn post(path: &str, json: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: repobench\r\nContent-Length: {}\r\n\r\n{json}",
        json.len()
    )
    .into_bytes()
}

/// The seeded body pool: 45% kernel-name, 45% feature-vector, 10% batch.
fn build_pool(seed: u64, data: &LabeledDataset, predictor: &EnergyPredictor) -> Vec<Body> {
    let specs = all_samples();
    let defs = registry();
    let mut rng = Rng(seed ^ 0x005E_ED0F_5E7E);
    let oracle = |full: &[f64]| {
        predictor
            .predict_cores_from_static(full)
            .expect("20-dim static vector")
    };
    let row = |rng: &mut Rng| -> (String, usize, Option<(usize, KernelParams)>) {
        if rng.below(2) == 0 {
            let spec = specs[rng.below(specs.len())];
            let def = &defs[spec.kernel_index];
            let kernel = def.build(&spec.params()).expect("corpus sample builds");
            let json = format!(
                "{{\"kernel\": \"{}\", \"dtype\": \"{}\", \"size\": {}}}",
                def.name, spec.dtype, spec.payload_bytes
            );
            let cores = oracle(&static_feature_vector(&kernel));
            (json, cores, Some((spec.kernel_index, spec.params())))
        } else {
            let x = &data.samples[rng.below(data.len())].static_x;
            let cells: Vec<String> = x.iter().map(|v| format!("{v:?}")).collect();
            (
                format!("{{\"features\": [{}]}}", cells.join(", ")),
                oracle(x),
                None,
            )
        }
    };
    (0..POOL)
        .map(|_| {
            if rng.below(10) == 0 {
                let rows: Vec<(String, usize, _)> =
                    (0..BATCH_ROWS).map(|_| row(&mut rng)).collect();
                let items: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
                Body {
                    kind: "batch",
                    request: post(
                        "/predict/batch",
                        &format!("{{\"requests\": [{}]}}", items.join(", ")),
                    ),
                    expect: rows.iter().map(|r| r.1).collect(),
                    rows: rows.into_iter().map(|r| r.0).collect(),
                    kernel: None,
                }
            } else {
                let (json, cores, kernel) = row(&mut rng);
                Body {
                    kind: if kernel.is_some() { "kernel" } else { "vector" },
                    request: post("/predict", &json),
                    expect: vec![cores],
                    rows: Vec::new(),
                    kernel,
                }
            }
        })
        .collect()
}

/// Poisson arrivals at `rate` req/s for `secs`: `(offset ns, body)`.
fn schedule(seed: u64, rate: f64, secs: f64, pool: usize) -> Vec<(u64, usize)> {
    let mut rng = Rng(seed ^ rate.to_bits());
    let mean_ns = 1e9 / rate;
    let horizon = (secs * 1e9) as u64;
    let mut out = Vec::new();
    let mut t = rng.gap_ns(mean_ns);
    while t < horizon {
        out.push((t, rng.below(pool)));
        t += rng.gap_ns(mean_ns);
    }
    out
}

/// One keep-alive client connection.
struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Self {
        Self { addr, reader: None }
    }

    /// Sends one request and reads the reply `(status, body)`. A reused
    /// connection the server has closed is reopened once; a timeout is
    /// never retried.
    fn exchange(&mut self, request: &[u8]) -> std::io::Result<(u16, String)> {
        use std::io::ErrorKind::{BrokenPipe, ConnectionReset, UnexpectedEof};
        let reused = self.reader.is_some();
        match self.try_exchange(request) {
            Err(e)
                if reused && matches!(e.kind(), UnexpectedEof | BrokenPipe | ConnectionReset) =>
            {
                self.reader = None;
                self.try_exchange(request)
            }
            other => other,
        }
    }

    fn try_exchange(&mut self, request: &[u8]) -> std::io::Result<(u16, String)> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            self.reader = Some(BufReader::new(stream));
        }
        let reader = self.reader.as_mut().expect("connected");
        let result = (|| {
            reader.get_mut().write_all(request)?;
            read_response(reader)
        })();
        match result {
            Ok((status, body, keep)) => {
                if !keep {
                    self.reader = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                self.reader = None;
                Err(e)
            }
        }
    }
}

/// Reads one response: `(status, body, keep-alive)`.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, String, bool)> {
    let eof = || std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed");
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(eof());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "status line"))?;
    let (mut length, mut keep) = (0usize, true);
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(eof());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("connection") {
                keep = !value.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned(), keep))
}

/// Every `"cores":N` of a reply, in order.
fn cores_in(body: &str) -> Vec<usize> {
    body.match_indices("\"cores\":")
        .filter_map(|(i, key)| {
            let rest = body[i + key.len()..].trim_start();
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

/// What one open-loop drive brought back.
struct Load {
    /// Per completed-or-failed request, µs from intended send to reply.
    latency_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Generator timer error per send (µs).
    lateness_us: Vec<f64>,
    /// Seconds from the first intended send to the last reply.
    span_s: f64,
    /// Request kind per arrival, for the per-kind breakdown.
    kinds: Vec<&'static str>,
    /// Whole second of the schedule each request was due in.
    second: Vec<u64>,
}

impl Load {
    fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_us, q)
    }

    /// Achieved request rate over the drive.
    fn achieved_rps(&self) -> f64 {
        self.attempted as f64 / self.span_s.max(1e-9)
    }

    /// Median over the schedule's whole seconds of each second's p50:
    /// a host stall that spoils a few seconds of a run moves it less than
    /// the p50 over all requests.
    fn typical_p50_us(&self) -> f64 {
        let seconds = self.second.last().map_or(0, |s| s + 1);
        let per_second: Vec<f64> = (0..seconds)
            .filter_map(|sec| {
                let lat: Vec<f64> = self
                    .latency_us
                    .iter()
                    .zip(&self.second)
                    .filter(|(_, s)| **s == sec)
                    .map(|(l, _)| *l)
                    .collect();
                (lat.len() >= 100).then(|| median(&lat))
            })
            .collect();
        median(&per_second)
    }

    /// Median latency of the last tenth of the requests: a backlog that
    /// grows through the drive shows here first.
    fn tail_median_us(&self) -> f64 {
        let n = self.latency_us.len();
        median(&self.latency_us[n - n.div_ceil(10)..])
    }
}

/// What one connection thread brings back: `(arrival index, latency µs)`
/// per request, misses, and its spans when traced.
type ConnOutcome = (Vec<(usize, f64)>, u64, Option<Tracer>);

/// Drives `arrivals` open-loop from this thread over [`CONNECTIONS`]
/// connection threads. A request waits for a free connection; that wait
/// counts in its latency because latency runs from the intended send.
fn drive(
    addr: SocketAddr,
    pool: &Arc<Vec<Body>>,
    arrivals: &[(u64, usize)],
    origin: Option<Instant>,
    trace: &mut Trace,
) -> Load {
    let (free_tx, free_rx) = mpsc::channel::<usize>();
    let mut job_txs = Vec::new();
    let mut workers: Vec<JoinHandle<ConnOutcome>> = Vec::new();
    for c in 0..CONNECTIONS {
        let (tx, rx) = mpsc::channel::<(usize, Instant, usize)>();
        job_txs.push(tx);
        let free = free_tx.clone();
        let pool = Arc::clone(pool);
        free_tx.send(c).expect("free list");
        workers.push(std::thread::spawn(move || {
            let mut conn = Conn::new(addr);
            let mut tracer = origin.map(|o| Tracer::new(o, 300 + c as u32));
            let mut done = Vec::new();
            let mut failed = 0u64;
            for (i, intended, b) in rx {
                let body = &pool[b];
                let ok = match conn.exchange(&body.request) {
                    Ok((200, text)) => cores_in(&text) == body.expect,
                    _ => false,
                };
                let end = Instant::now();
                if let Some(t) = tracer.as_mut() {
                    t.record("bench.client.request", intended, end);
                }
                failed += u64::from(!ok);
                done.push((
                    i,
                    end.saturating_duration_since(intended).as_secs_f64() * 1e6,
                ));
                let _ = free.send(c);
            }
            (done, failed, tracer)
        }));
    }
    drop(free_tx);
    let start = Instant::now() + Duration::from_millis(2);
    let mut lateness_us = Vec::with_capacity(arrivals.len());
    for (i, &(offset, b)) in arrivals.iter().enumerate() {
        let intended = start + Duration::from_nanos(offset);
        // Sleep to just short of the send instant, then spin: the timer's
        // wake-up delay would otherwise be charged to the server, since
        // latency runs from the intended instant. Lateness is what remains
        // of the generator's own error, past `max(intended, now)`; waiting
        // for a free connection is the server's backpressure and already
        // counts in the latency.
        let due = intended.max(Instant::now());
        if let Some(nap) = due.checked_duration_since(Instant::now() + SPIN_BEFORE_SEND) {
            std::thread::sleep(nap);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        lateness_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        let c = free_rx.recv().expect("a connection frees up");
        job_txs[c]
            .send((i, intended, b))
            .expect("connection thread alive");
    }
    drop(job_txs);
    let mut latency = vec![0.0; arrivals.len()];
    let mut failed = 0;
    for w in workers {
        let (done, f, tracer) = w.join().expect("connection thread panicked");
        failed += f;
        for (i, us) in done {
            latency[i] = us;
        }
        if let Some(t) = tracer {
            trace.absorb(t);
        }
    }
    Load {
        latency_us: latency,
        attempted: arrivals.len() as u64,
        failed,
        lateness_us,
        span_s: start.elapsed().as_secs_f64(),
        kinds: arrivals.iter().map(|&(_, b)| pool[b].kind).collect(),
        second: arrivals.iter().map(|&(t, _)| t / 1_000_000_000).collect(),
    }
}

/// Counts a drive's misses and checks the generator kept its schedule.
fn account(report: &mut Report, load: &Load, what: &str) {
    report.checked(load.attempted, load.failed, what);
    let late = quantile(&load.lateness_us, 0.99);
    eprintln!(
        "[serve_open] {what}: {} requests, p50 {:.1}us p90 {:.1}us p99 {:.1}us, generator lateness p99 {late:.1}us",
        load.attempted,
        load.p(0.5),
        load.p(0.9),
        load.p(0.99)
    );
    for kind in ["kernel", "vector", "batch"] {
        let lat: Vec<f64> = load
            .latency_us
            .iter()
            .zip(&load.kinds)
            .filter(|(_, k)| **k == kind)
            .map(|(l, _)| *l)
            .collect();
        eprintln!(
            "    {kind:<6} {:>6} requests, p50 {:.1}us p99 {:.1}us",
            lat.len(),
            quantile(&lat, 0.5),
            quantile(&lat, 0.99)
        );
    }
}

/// Marks the run invalid when the generator itself kept the schedule so
/// badly that latencies measured from it are not trustworthy.
fn gate_lateness(report: &mut Report, load: &Load, what: &str) {
    let late = quantile(&load.lateness_us, 0.99);
    if late > LATE_BOUND_US {
        report.invalid.push(format!(
            "{what}: generator p99 lateness {late:.0}us exceeds {LATE_BOUND_US}us"
        ));
    }
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<()>,
}

impl Running {
    fn start(
        data: &LabeledDataset,
        predictor: EnergyPredictor,
        args: &Args,
    ) -> Result<Self, String> {
        let opts = warm_options(args)?;
        let state = ServeState::from_parts(predictor, data, MetricsRegistry::new(), &opts);
        let server = Server::bind_with("127.0.0.1:0", Arc::new(state), ServeOptions::default())
            .map_err(|e| format!("bind: {e}"))?;
        let (addr, handle) = (server.addr, server.shutdown_handle());
        let thread = std::thread::spawn(move || server.run());
        Ok(Self {
            addr,
            handle,
            thread,
        })
    }

    fn get(&self, path: &str) -> Result<String, String> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: repobench\r\n\r\n");
        match Conn::new(self.addr).exchange(request.as_bytes()) {
            Ok((200, body)) => Ok(body),
            Ok((status, _)) => Err(format!("GET {path}: status {status}")),
            Err(e) => Err(format!("GET {path}: {e}")),
        }
    }

    /// Graceful drain; returns once the event loop and workers are joined.
    fn stop(self) {
        self.handle.trigger();
        self.thread.join().expect("server thread panicked");
    }
}

fn train(data: &LabeledDataset) -> Result<EnergyPredictor, String> {
    EnergyPredictor::train(data, StaticFeatureSet::All, TreeParams::default())
        .map_err(|e| e.to_string())
}

/// Sends every batch's rows one at a time; returns (batches, mismatches).
fn batches_vs_singles(addr: SocketAddr, pool: &[Body]) -> (u64, u64) {
    let mut conn = Conn::new(addr);
    let batches: Vec<&Body> = pool.iter().filter(|b| !b.rows.is_empty()).collect();
    let bad = batches
        .iter()
        .filter(|b| {
            let singles: Vec<usize> = b
                .rows
                .iter()
                .filter_map(|json| match conn.exchange(&post("/predict", json)) {
                    Ok((200, text)) => cores_in(&text).first().copied(),
                    _ => None,
                })
                .collect();
            singles != b.expect
        })
        .count();
    (batches.len() as u64, bad as u64)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let reference = crate::sweep::Reference::load(args)?;
    prepare_cache(args)?;
    if args.trace {
        return run_traced(args, &reference);
    }
    let mut report = Report::default();
    // Set-up = time to first correct prediction: warm build, training,
    // bind, first `/predict`.
    let first_request = post(
        "/predict",
        "{\"kernel\": \"gemm\", \"dtype\": \"f32\", \"size\": 2048}",
    );
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let data = LabeledDataset::build(&warm_options(args)?).map_err(|e| e.to_string())?;
        let predictor = train(&data)?;
        let oracle = predictor.clone();
        let server = Running::start(&data, predictor, args)?;
        let reply = Conn::new(server.addr).exchange(&first_request);
        setups.push(t0.elapsed().as_secs_f64());
        let gemm = registry()
            .into_iter()
            .find(|d| d.name == "gemm")
            .expect("gemm is registered")
            .build(&KernelParams::new(kernel_ir::DType::F32, 2048))
            .map_err(|e| e.to_string())?;
        let want = oracle.predict_cores(&gemm);
        let ok = matches!(&reply, Ok((200, t)) if cores_in(t) == [want]);
        report.checked(1, u64::from(!ok), "first prediction");
        if rep + 1 < SETUP_REPS {
            server.stop();
        } else {
            live = Some((data, oracle, server));
        }
    }
    let (data, oracle, server) = live.expect("set-up ran");
    report.checked(
        448,
        reference.mismatches(&data),
        "warm dataset vs oracle digest",
    );
    report.setup(&setups);

    let pool = Arc::new(build_pool(args.seed, &data, &oracle));
    let window = Window::new(args.seconds);
    let mut none = Trace::default();
    let nominal = drive(
        server.addr,
        &pool,
        &schedule(args.seed, NOMINAL_RPS, args.seconds * NOMINAL_SHARE, POOL),
        None,
        &mut none,
    );
    account(&mut report, &nominal, "nominal");
    gate_lateness(&mut report, &nominal, "nominal");

    let rung_s = (args.seconds * RUNG_SHARE).max(0.5);
    let mut best = None;
    for &rate in LADDER {
        if !window.admits(rung_s * 2.0) {
            eprintln!("[serve_open] ladder stopped at {rate} req/s: window spent");
            break;
        }
        let load = drive(
            server.addr,
            &pool,
            &schedule(args.seed, rate, rung_s, POOL),
            None,
            &mut none,
        );
        account(&mut report, &load, &format!("ladder {rate} req/s"));
        let pass = load.failed == 0 && load.p(0.99) <= SLO_US && load.tail_median_us() <= SLO_US;
        if !pass {
            break;
        }
        best = Some(load.achieved_rps());
    }
    let (batches, bad) = batches_vs_singles(server.addr, &pool);
    report.checked(batches, bad, "batch equals its rows sent one at a time");
    server.stop();

    report.metric("latency_ms", nominal.typical_p50_us() / 1e3, "ms");
    eprintln!(
        "[serve_open] nominal: per-second p50 median {:.1}us, p50_us {:.1} p99_us {:.1} \
         ({} requests); max_rps_at_slo {:.1} req/s (p99 <= {SLO_US}us)",
        nominal.typical_p50_us(),
        nominal.p(0.5),
        nominal.p(0.99),
        nominal.attempted,
        best.unwrap_or(0.0)
    );
    Ok(report)
}

/// Per-layer figures of the serving path.
struct ServeLayers {
    /// Drive untraced first and report the tracing overhead (not in a
    /// probe).
    overhead: bool,
    traced_s: f64,
}

/// Traced run: open-loop serving at full scale, the other layers through
/// the ledger's probes.
fn run_traced(args: &Args, reference: &crate::sweep::Reference) -> Result<Report, String> {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let mut trace = Trace::default();
    let origin = Instant::now();
    let journal = args.work_dir.join("serve_open.journal.jsonl");
    let warm = crate::layers::journaled_build(&warm_options(args)?, &journal)?;
    report.checked(
        448,
        reference.mismatches(&warm.data),
        "warm dataset vs oracle digest",
    );
    layers.shards(&warm);
    layers.warm_build(&warm);
    crate::layers::probe_sim(reference, &mut layers, &mut report, origin, &mut trace);
    crate::layers::probe_ml(&warm.data, &mut layers, &mut report, origin, &mut trace);
    serve_layers(
        args,
        &warm.data,
        ServeLayers {
            overhead: true,
            traced_s: args.seconds * NOMINAL_SHARE,
        },
        &mut layers,
        &mut report,
        origin,
        &mut trace,
    )?;
    layers.finish(args, &trace, &mut report)?;
    Ok(report)
}

/// The serving probe of the other workloads' traced runs.
pub fn probe(
    args: &Args,
    data: &LabeledDataset,
    layers: &mut Layers,
    report: &mut Report,
    origin: Instant,
    trace: &mut Trace,
) -> Result<(), String> {
    serve_layers(
        args,
        data,
        ServeLayers {
            overhead: false,
            traced_s: PROBE_S,
        },
        layers,
        report,
        origin,
        trace,
    )
}

/// Trains, serves a traced open-loop drive at the nominal rate, then reads
/// the server's own flight recorder and metrics and times the featurize
/// path's public calls on the drive's kernel-name inputs.
fn serve_layers(
    args: &Args,
    data: &LabeledDataset,
    plan: ServeLayers,
    layers: &mut Layers,
    report: &mut Report,
    origin: Instant,
    trace: &mut Trace,
) -> Result<(), String> {
    let mut tracer = Tracer::new(origin, 400);
    let mut predictor = None;
    for _ in 0..5 {
        predictor = Some(tracer.time("core.predictor.train", || train(data))?);
    }
    let predictor = predictor.expect("trained");
    let pool = Arc::new(build_pool(args.seed, data, &predictor));
    let server = Running::start(data, predictor.clone(), args)?;
    let arrivals = schedule(args.seed, NOMINAL_RPS, plan.traced_s, POOL);
    let untraced = plan.overhead.then(|| {
        let load = drive(server.addr, &pool, &arrivals, None, &mut Trace::default());
        account(report, &load, "untraced nominal");
        load.typical_p50_us()
    });
    let load = drive(server.addr, &pool, &arrivals, Some(origin), trace);
    account(report, &load, "traced nominal");
    if plan.overhead {
        gate_lateness(report, &load, "traced nominal");
    }
    if let Some(u) = untraced {
        layers.set("trace.overhead_s", (load.typical_p50_us() - u) / 1e6);
    }

    // The server's own instruments: flight-recorder spans and counters.
    let spans = server.get("/debug/requests?n=256")?;
    let metrics = server.get("/metrics")?;
    let (batches, bad) = batches_vs_singles(server.addr, &pool);
    report.checked(batches, bad, "batch equals its rows sent one at a time");
    server.stop();
    let durations = flight_durations(&spans)?;
    let spans_of = |name: &str| -> Vec<f64> {
        durations
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, d)| *d)
            .collect()
    };
    // The recorder keeps whole microseconds; a mean keeps the digits a
    // median of small integers would lose.
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let queue_wait = spans_of("queue_wait");
    layers.set("bench.serve.queue_wait_p50_us", quantile(&queue_wait, 0.5));
    layers.set("bench.serve.queue_wait_p99_us", quantile(&queue_wait, 0.99));
    layers.set("bench.serve.parse_us", mean(spans_of("parse")));
    layers.set("bench.serve.predict_us", mean(spans_of("predict")));
    layers.set("bench.serve.write_us", mean(spans_of("write")));
    layers.set(
        "bench.serve.shed_total",
        metric_sum(&metrics, "pulp_serve_shed_total"),
    );
    layers.set(
        "bench.serve.timeouts_total",
        metric_sum(&metrics, "pulp_serve_timeouts_total"),
    );

    // The featurize path, call by call, on the drive's kernel-name inputs.
    let mut featurized = 0u64;
    let mut wrong = 0u64;
    for &(_, b) in &arrivals {
        let body = &pool[b];
        let Some((index, params)) = &body.kernel else {
            continue;
        };
        let name = registry()[*index].name;
        let def = tracer
            .time("kernels.registry", || {
                registry().into_iter().find(|d| d.name == name)
            })
            .expect("registered kernel");
        let kernel = tracer
            .time("kernels.build", || def.build(params))
            .map_err(|e| e.to_string())?;
        let full = tracer.time("core.features.static", || static_feature_vector(&kernel));
        let cores = tracer.time("core.predictor.predict_static", || {
            predictor.predict_cores_from_static(&full)
        });
        featurized += 1;
        wrong += u64::from(cores.ok() != Some(body.expect[0]));
    }
    report.checked(
        featurized,
        wrong,
        "offline featurize path vs expected cores",
    );

    // The flat arena alone, over every training row.
    let rows = data.static_rows();
    let flat = predictor.flat();
    let mut scratch = Vec::new();
    let passes: Vec<f64> = (0..101)
        .map(|_| {
            let t0 = Instant::now();
            for row in &rows {
                std::hint::black_box(flat.predict_with(&mut scratch, std::hint::black_box(row)));
            }
            t0.elapsed().as_nanos() as f64 / rows.len() as f64
        })
        .collect();
    let flat_ns = median(&passes);
    let flat_wrong = rows
        .iter()
        .filter(|r| predictor.predict_cores_from_static(r).ok() != Some(flat.predict(r) + 1))
        .count();
    report.checked(
        rows.len() as u64,
        flat_wrong as u64,
        "flat walk vs float tree",
    );
    layers.set("ml.flat.predict_ns_per_row", flat_ns);

    let mut own = Trace::default();
    own.absorb(tracer);
    let med_us = |layer: &str| median(&own.durations(layer)) / 1e3;
    layers.set(
        "core.predictor.train_ms",
        med_us("core.predictor.train") / 1e3,
    );
    layers.set("kernels.registry_us", med_us("kernels.registry"));
    layers.set("kernels.build_us", med_us("kernels.build"));
    layers.set("core.features.static_us", med_us("core.features.static"));
    layers.set(
        "core.predictor.predict_static_us",
        med_us("core.predictor.predict_static"),
    );
    trace.merge(own);
    Ok(())
}

/// `(span name, duration µs)` of every complete event in a Chrome trace
/// from `/debug/requests`.
fn flight_durations(json: &str) -> Result<Vec<(String, f64)>, String> {
    let root: Value = serde_json::from_str(json).map_err(|e| format!("/debug/requests: {e}"))?;
    let events = root
        .field("traceEvents")
        .and_then(Value::as_seq)
        .map_err(|e| format!("/debug/requests: {e}"))?;
    Ok(events
        .iter()
        .filter(|e| e.field("ph").and_then(Value::as_str).ok() == Some("X"))
        .filter_map(|e| {
            let name = e.field("name").and_then(Value::as_str).ok()?;
            let dur = e.field("dur").and_then(Value::as_f64).ok()?;
            Some((name.to_string(), dur))
        })
        .collect())
}

/// Sum of every sample of `name` in a Prometheus text exposition.
fn metric_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| l.starts_with(name) && l[name.len()..].starts_with([' ', '{']))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .fold(0.0, |a, b| a + b)
}
