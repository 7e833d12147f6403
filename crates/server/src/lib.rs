//! Generation-as-a-service: a dependency-free HTTP/1.1 front end over
//! the [`datasynth_core`] session API.
//!
//! The service holds a [`GraphRegistry`] of parsed, validated, analyzed
//! schemas and streams deterministic table data straight out of
//! [`Session::run_into`] — no files, no buffering of whole tables in
//! the response path, and byte-for-byte the same output the CLI writes
//! with `--out`.
//!
//! # Endpoints
//!
//! | Method | Path | Meaning |
//! |---|---|---|
//! | `POST` | `/graphs` | Register a schema (DSL text, or builder-JSON with `Content-Type: application/json`); returns its hash |
//! | `GET` | `/graphs` | List registered schemas |
//! | `GET` | `/graphs/{hash}` | Canonical DSL of one schema |
//! | `GET` | `/graphs/{hash}/tables/{table}.{csv\|jsonl}?seed=S[&shard=I/K]` | Stream one table (chunked) |
//! | `GET` | `/graphs/{hash}/ops?seed=S[&shard=I/K][&format=csv\|jsonl]` | Stream the temporal op log (chunked) |
//! | `GET` | `/graphs/{hash}/report?seed=S[&shard=I/K]` | Run without emitting and return the stable [`RunReport`] JSON |
//! | `GET` | `/metrics` | Prometheus text exposition of the shared registry |
//! | `GET` | `/healthz` | Liveness |
//!
//! # Concurrency model
//!
//! A fixed pool of worker threads `accept`s from one shared listener;
//! each connection is handled start-to-finish by its worker
//! (keep-alive included). A streaming request spawns one generation
//! thread bridged through a bounded channel ([`stream`]): the channel
//! depth is the whole backpressure story — a slow client blocks the
//! generator, a disconnected client aborts it. Concurrent runs divide
//! the configured generation-thread budget evenly (`budget /
//! active_runs`, floored at 1), mirroring the scheduler's own
//! per-task chunk-budget rule.
//!
//! [`Session::run_into`]: datasynth_core::Session::run_into
//! [`RunReport`]: datasynth_core::RunReport

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use datasynth_core::{GraphSink, PipelineError, RunReport, Session, TableFormat, TableSink};
use datasynth_lint::LintReport;
use datasynth_schema::parse_schema;
use datasynth_telemetry::json::{self, Json};
use datasynth_telemetry::MetricsRegistry;
use datasynth_temporal::{OpsFormat, TemporalSink};

pub mod http;
pub mod json_schema;
pub mod registry;
pub mod stream;

use http::{ParseError, Request};
use registry::{GraphEntry, GraphRegistry};

/// How long an idle keep-alive connection may sit between requests.
const KEEP_ALIVE_TIMEOUT: Duration = Duration::from_secs(5);

/// Cap on one blocking socket write; a client that stops reading for
/// this long gets its stream aborted instead of pinning a worker.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Server configuration; see [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:8840"` (`:0` picks a free port).
    pub addr: String,
    /// HTTP worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Generation-thread budget shared by all concurrent runs.
    pub gen_threads: usize,
    /// Schema cache capacity (FIFO eviction past it).
    pub max_graphs: usize,
}

impl ServerConfig {
    /// Defaults for `addr`: 4 workers, the machine's default thread
    /// count as generation budget, 64 cached schemas.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            workers: 4,
            gen_threads: datasynth_core::default_threads(),
            max_graphs: 64,
        }
    }
}

/// Shared state behind every worker.
struct ServerState {
    registry: GraphRegistry,
    metrics: Arc<MetricsRegistry>,
    gen_threads: usize,
    active_runs: AtomicUsize,
}

impl ServerState {
    fn count_request(&self, route: &'static str) {
        self.metrics
            .counter_with("datasynth_http_requests_total", Some(("route", route)))
            .inc();
    }

    fn count_response(&self, status: u16) {
        self.metrics
            .counter_with(
                "datasynth_http_responses_total",
                Some(("status", &status.to_string())),
            )
            .inc();
    }
}

/// Divides the generation budget while alive; created per run.
struct RunGuard<'s> {
    state: &'s ServerState,
}

impl<'s> RunGuard<'s> {
    /// Claim a run slot and return (guard, thread budget for this run).
    fn claim(state: &'s ServerState) -> (Self, usize) {
        let running = state.active_runs.fetch_add(1, Ordering::SeqCst) + 1;
        state
            .metrics
            .gauge("datasynth_server_active_runs")
            .set(running as u64);
        // The same rule the scheduler applies to concurrent tasks: an
        // even split of the budget, floored at one thread.
        let budget = (state.gen_threads / running).max(1);
        (RunGuard { state }, budget)
    }
}

impl Drop for RunGuard<'_> {
    fn drop(&mut self) {
        let running = self.state.active_runs.fetch_sub(1, Ordering::SeqCst) - 1;
        self.state
            .metrics
            .gauge("datasynth_server_active_runs")
            .set(running as u64);
    }
}

/// A running server; dropping it (or calling [`shutdown`](Self::shutdown))
/// stops the workers.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics registry all requests and runs record into.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.state.metrics)
    }

    /// Stop accepting, wake blocked workers, and join them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Block until the workers exit (i.e. until another thread calls
    /// shutdown or the process dies) — the CLI's serve-forever mode.
    pub fn join(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for w in self.workers.drain(..) {
            // A worker may be parked in accept(); nudge it with empty
            // connections until it notices the stop flag.
            while !w.is_finished() {
                let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(100));
                thread::sleep(Duration::from_millis(1));
            }
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Bind `config.addr` and start the worker pool; returns
    /// immediately with a [`ServerHandle`].
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        Self::start_with_metrics(config, Arc::new(MetricsRegistry::new()))
    }

    /// [`start`](Self::start) recording into a caller-supplied registry.
    pub fn start_with_metrics(
        config: ServerConfig,
        metrics: Arc<MetricsRegistry>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            registry: GraphRegistry::new(Arc::clone(&metrics), config.max_graphs),
            metrics,
            gen_threads: config.gen_threads.max(1),
            active_runs: AtomicUsize::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let listener = listener.try_clone()?;
                let state = Arc::clone(&state);
                let stop = Arc::clone(&stop);
                Ok(thread::Builder::new()
                    .name(format!("http-worker-{i}"))
                    .spawn(move || worker_loop(listener, state, stop))
                    .expect("spawn http worker"))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ServerHandle {
            addr,
            stop,
            workers,
            state,
        })
    }
}

fn worker_loop(listener: TcpListener, state: Arc<ServerState>, stop: Arc<AtomicBool>) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = handle_connection(stream, &state);
    }
}

/// Serve requests on one connection until it closes, errors, or asks to.
fn handle_connection(stream: TcpStream, state: &ServerState) -> io::Result<()> {
    stream.set_read_timeout(Some(KEEP_ALIVE_TIMEOUT))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        match http::read_request(&mut reader) {
            Err(ParseError::ConnectionClosed) => return Ok(()),
            Err(ParseError::Bad(status, msg)) => {
                state.count_request("malformed");
                return respond_error(&mut writer, state, status, &msg, false);
            }
            Ok(req) => {
                let keep_alive = req.keep_alive;
                handle_request(&mut writer, state, req)?;
                if !keep_alive {
                    return Ok(());
                }
            }
        }
    }
}

fn handle_request(w: &mut TcpStream, state: &ServerState, req: Request) -> io::Result<()> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["healthz"] => {
            state.count_request("healthz");
            match req.method.as_str() {
                "GET" => respond(w, state, 200, "text/plain; charset=utf-8", b"ok\n", &req),
                _ => respond_error(w, state, 405, "use GET", req.keep_alive),
            }
        }
        ["metrics"] => {
            state.count_request("metrics");
            match req.method.as_str() {
                "GET" => {
                    let body = state.metrics.snapshot().to_prometheus();
                    respond(
                        w,
                        state,
                        200,
                        "text/plain; version=0.0.4; charset=utf-8",
                        body.as_bytes(),
                        &req,
                    )
                }
                _ => respond_error(w, state, 405, "use GET", req.keep_alive),
            }
        }
        ["graphs"] => match req.method.as_str() {
            "POST" => {
                state.count_request("graphs_register");
                register_graph(w, state, &req)
            }
            "GET" => {
                state.count_request("graphs_list");
                list_graphs(w, state, &req)
            }
            _ => {
                state.count_request("graphs_register");
                respond_error(w, state, 405, "use GET or POST", req.keep_alive)
            }
        },
        ["graphs", hash] => {
            state.count_request("graph_get");
            match req.method.as_str() {
                "GET" => match lookup(state, hash) {
                    Ok(entry) => respond(
                        w,
                        state,
                        200,
                        "text/plain; charset=utf-8",
                        entry.dsl.as_bytes(),
                        &req,
                    ),
                    Err((status, msg)) => respond_error(w, state, status, &msg, req.keep_alive),
                },
                _ => respond_error(w, state, 405, "use GET", req.keep_alive),
            }
        }
        ["graphs", hash, "report"] => {
            state.count_request("graph_report");
            match req.method.as_str() {
                "GET" => run_report(w, state, &req, hash),
                _ => respond_error(w, state, 405, "use GET", req.keep_alive),
            }
        }
        ["graphs", hash, "tables", file] => {
            state.count_request("graph_table");
            match req.method.as_str() {
                "GET" => stream_table(w, state, &req, hash, file),
                _ => respond_error(w, state, 405, "use GET", req.keep_alive),
            }
        }
        ["graphs", hash, "ops"] => {
            state.count_request("graph_ops");
            match req.method.as_str() {
                "GET" => stream_ops(w, state, &req, hash),
                _ => respond_error(w, state, 405, "use GET", req.keep_alive),
            }
        }
        _ => {
            state.count_request("unknown");
            respond_error(
                w,
                state,
                404,
                &format!("no route for {}", req.path),
                req.keep_alive,
            )
        }
    }
}

/// `POST /graphs`: DSL text, or builder-JSON when the Content-Type says
/// JSON. 201 on first registration, 200 on a cache hit. Every cache miss
/// is linted before the schema is admitted: error-severity diagnostics
/// reject the registration with a 422 whose body is the lint report's
/// canonical JSON — byte-identical to `datasynth lint --format json` on
/// the same schema — emitted before any response headers commit.
fn register_graph(w: &mut TcpStream, state: &ServerState, req: &Request) -> io::Result<()> {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return respond_error(w, state, 400, "body is not UTF-8", req.keep_alive);
    };
    let is_json = req
        .header("content-type")
        .is_some_and(|ct| ct.to_ascii_lowercase().contains("json"));
    // The parse closure only runs on a cache miss, which is exactly when
    // lint must run; the report is smuggled out so the 422 body can carry
    // the diagnostics instead of a generic error envelope.
    let lint_report: std::cell::RefCell<Option<LintReport>> = std::cell::RefCell::new(None);
    let result = state.registry.register(body, |src| {
        let schema = if is_json {
            json_schema::schema_from_json(src)
                .map_err(|e| PipelineError::Invalid(format!("builder-JSON: {e}")))?
        } else {
            parse_schema(src)?
        };
        let report = datasynth_lint::lint(&schema);
        let rejected = report.has_errors();
        *lint_report.borrow_mut() = Some(report);
        if rejected {
            return Err(PipelineError::Invalid("schema rejected by lint".into()));
        }
        Ok(schema)
    });
    if let Some(report) = lint_report.into_inner() {
        for d in &report.diagnostics {
            state
                .metrics
                .counter_with("datasynth_lint_diagnostics_total", Some(("code", d.code)))
                .inc();
        }
        if report.has_errors() {
            return respond_json(w, state, 422, &report.to_json(), req);
        }
    }
    match result {
        Err(e) => respond_error(w, state, 422, &e.to_string(), req.keep_alive),
        Ok((entry, cached)) => {
            let schema = entry.synth.schema();
            let obj = Json::Obj(
                [
                    (
                        "hash".to_owned(),
                        Json::from(format!("{:016x}", entry.hash)),
                    ),
                    ("cached".to_owned(), Json::from(cached)),
                    ("graph".to_owned(), Json::from(schema.name.clone())),
                    (
                        "nodes".to_owned(),
                        Json::Arr(
                            schema
                                .nodes
                                .iter()
                                .map(|n| Json::from(n.name.clone()))
                                .collect(),
                        ),
                    ),
                    (
                        "edges".to_owned(),
                        Json::Arr(
                            schema
                                .edges
                                .iter()
                                .map(|e| Json::from(e.name.clone()))
                                .collect(),
                        ),
                    ),
                ]
                .into_iter()
                .collect(),
            );
            let status = if cached { 200 } else { 201 };
            respond_json(w, state, status, &obj.render(), req)
        }
    }
}

/// `GET /graphs`: the registered schemas, oldest first.
fn list_graphs(w: &mut TcpStream, state: &ServerState, req: &Request) -> io::Result<()> {
    let graphs = Json::Arr(
        state
            .registry
            .list()
            .iter()
            .map(|entry| {
                Json::Obj(
                    [
                        (
                            "hash".to_owned(),
                            Json::from(format!("{:016x}", entry.hash)),
                        ),
                        (
                            "graph".to_owned(),
                            Json::from(entry.synth.schema().name.clone()),
                        ),
                    ]
                    .into_iter()
                    .collect(),
                )
            })
            .collect(),
    );
    let obj = Json::Obj([("graphs".to_owned(), graphs)].into_iter().collect());
    respond_json(w, state, 200, &obj.render(), req)
}

/// Resolve `{hash}` path segments against the registry.
fn lookup(state: &ServerState, hash: &str) -> Result<Arc<GraphEntry>, (u16, String)> {
    let id = u64::from_str_radix(hash, 16)
        .map_err(|_| (400, format!("graph hash {hash:?} is not hex")))?;
    state
        .registry
        .get(id)
        .ok_or_else(|| (404, format!("no graph {hash}; POST /graphs first")))
}

/// Parse `?seed=` / `?shard=I/K` and mint a session that divides the
/// generation budget with every other in-flight run.
fn session_for<'e>(
    state: &ServerState,
    entry: &'e GraphEntry,
    req: &Request,
    budget: usize,
) -> Result<Session<'e>, (u16, String)> {
    let mut session = entry
        .synth
        .session_from(&entry.planned)
        .map_err(|e| (500, e.to_string()))?;
    if let Some(raw) = req.query("seed") {
        let seed = parse_seed(raw).ok_or_else(|| (400, format!("bad seed {raw:?}")))?;
        session = session.with_seed(seed);
    }
    session = session
        .with_threads(budget)
        .with_metrics(Arc::clone(&state.metrics));
    if let Some(raw) = req.query("shard") {
        let (index, count) = raw
            .split_once('/')
            .and_then(|(i, k)| Some((i.parse().ok()?, k.parse().ok()?)))
            .ok_or_else(|| (400, format!("bad shard {raw:?}; use I/K")))?;
        session = session
            .shard(index, count)
            .map_err(|e| (400, e.to_string()))?;
    }
    Ok(session)
}

/// Decimal or `0x`-prefixed hex.
fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// A sink that discards every event — drives a full run for its
/// [`RunReport`] alone (`GET .../report`).
struct DiscardSink;

impl GraphSink for DiscardSink {}

/// `GET /graphs/{hash}/report`: run the pipeline without emitting and
/// return the timing-free, thread-count-independent report JSON.
fn run_report(w: &mut TcpStream, state: &ServerState, req: &Request, hash: &str) -> io::Result<()> {
    let entry = match lookup(state, hash) {
        Ok(entry) => entry,
        Err((status, msg)) => return respond_error(w, state, status, &msg, req.keep_alive),
    };
    let (_guard, budget) = RunGuard::claim(state);
    let report: Result<RunReport, _> = match session_for(state, &entry, req, budget) {
        Ok(session) => session.run_into(&mut DiscardSink),
        Err((status, msg)) => return respond_error(w, state, status, &msg, req.keep_alive),
    };
    match report {
        Ok(report) => respond_json(w, state, 200, &report.to_json_stable(), req),
        Err(e) => respond_error(w, state, 500, &e.to_string(), req.keep_alive),
    }
}

/// `GET /graphs/{hash}/tables/{table}.{csv|jsonl}`: chunked stream of
/// one table, byte-identical to the CLI's file output.
fn stream_table(
    w: &mut TcpStream,
    state: &ServerState,
    req: &Request,
    hash: &str,
    file: &str,
) -> io::Result<()> {
    let entry = match lookup(state, hash) {
        Ok(entry) => entry,
        Err((status, msg)) => return respond_error(w, state, status, &msg, req.keep_alive),
    };
    let Some((table, ext)) = file.rsplit_once('.') else {
        return respond_error(
            w,
            state,
            404,
            &format!("{file:?}: want {{table}}.csv or {{table}}.jsonl"),
            req.keep_alive,
        );
    };
    let Some(format) = TableFormat::from_extension(ext) else {
        return respond_error(
            w,
            state,
            404,
            &format!("unknown format {ext:?}; use csv or jsonl"),
            req.keep_alive,
        );
    };
    let schema = entry.synth.schema();
    let known = schema.nodes.iter().any(|n| n.name == table)
        || schema.edges.iter().any(|e| e.name == table);
    if !known {
        return respond_error(
            w,
            state,
            404,
            &format!("no table {table:?} in graph {hash}"),
            req.keep_alive,
        );
    }

    let (_guard, budget) = RunGuard::claim(state);
    let session = match session_for(state, &entry, req, budget) {
        Ok(session) => session,
        Err((status, msg)) => return respond_error(w, state, status, &msg, req.keep_alive),
    };

    let (tx, rx) = stream::chunk_channel();
    let sink = TableSink::new(table, format, tx);
    let (report, bytes_sent) = stream_run(w, state, req, format, session, rx, sink)?;
    let rows = report.tables.get(table).map_or(0, |t| t.hi - t.lo);
    state
        .metrics
        .counter_with("datasynth_sink_rows_total", Some(("table", table)))
        .add(rows);
    state
        .metrics
        .counter_with("datasynth_sink_bytes_total", Some(("table", table)))
        .add(bytes_sent);
    http::finish_chunked(w)
}

/// The scoped-drain protocol of every streaming route. Commits the chunked
/// head — any later failure can only truncate the body (no terminal
/// chunk), which clients see as an aborted transfer rather than a silent
/// short file — then runs `session` into `sink` on this worker thread (a
/// `Session` is not `Send`) while a scoped thread drains what the sink
/// writes into `rx`'s channel onto the socket. When the client disconnects
/// the drain drops the receiver, the generator's next write fails with
/// BrokenPipe and the run aborts through the sink's normal error path; the
/// join reclaims the drain thread either way, so the pool slot frees
/// deterministically. `sink` comes by value because dropping it, and with
/// it the channel's sender, is what ends the drain. Returns the run's
/// report and the bytes sent; the caller accounts for them and then tells
/// the client the stream is whole ([`http::finish_chunked`]).
fn stream_run(
    w: &mut TcpStream,
    state: &ServerState,
    req: &Request,
    format: TableFormat,
    session: Session<'_>,
    rx: Receiver<Vec<u8>>,
    mut sink: impl GraphSink,
) -> io::Result<(RunReport, u64)> {
    state.count_response(200);
    http::write_chunked_head(w, 200, format.content_type(), req.keep_alive)?;

    let socket = &mut *w;
    let (run, bytes_sent) = thread::scope(|scope| {
        // Yields the bytes sent, or `None` once the client is gone —
        // returning early is what drops the receiver.
        let drain = scope.spawn(move || {
            let mut bytes_sent: u64 = 0;
            for chunk in rx {
                http::write_chunk(socket, &chunk).ok()?;
                bytes_sent += chunk.len() as u64;
            }
            Some(bytes_sent)
        });
        let run = session.run_into(&mut sink);
        drop(sink);
        (run, drain.join().expect("drain thread panicked"))
    });

    match (run, bytes_sent) {
        (Ok(report), Some(bytes_sent)) => Ok((report, bytes_sent)),
        _ => {
            state
                .metrics
                .counter("datasynth_http_streams_aborted_total")
                .inc();
            // The body is incomplete; the connection cannot be reused.
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "stream aborted before completion",
            ))
        }
    }
}

/// `GET /graphs/{hash}/ops`: chunked stream of the deterministic update
/// log, byte-identical to the CLI's `--ops` file output. `?format=`
/// selects csv (default) or jsonl; `?shard=I/K` streams one window of
/// the globally ordered log.
fn stream_ops(w: &mut TcpStream, state: &ServerState, req: &Request, hash: &str) -> io::Result<()> {
    let entry = match lookup(state, hash) {
        Ok(entry) => entry,
        Err((status, msg)) => return respond_error(w, state, status, &msg, req.keep_alive),
    };
    let raw = req.query("format").unwrap_or("csv");
    let Some(format) = OpsFormat::from_extension(raw) else {
        return respond_error(
            w,
            state,
            400,
            &format!("unknown ops format {raw:?}; use csv or jsonl"),
            req.keep_alive,
        );
    };

    let (_guard, budget) = RunGuard::claim(state);
    let session = match session_for(state, &entry, req, budget) {
        Ok(session) => session.with_ops(true),
        Err((status, msg)) => return respond_error(w, state, status, &msg, req.keep_alive),
    };
    // Sink construction validates the schema (it must carry temporal
    // annotations) before any header is committed, so a snapshot-only
    // schema gets a clean 422 instead of an aborted stream.
    let (tx, rx) = stream::chunk_channel();
    let sink = match TemporalSink::new(entry.synth.schema(), tx, format) {
        Ok(sink) => sink.with_metrics(Arc::clone(&state.metrics)),
        Err(e) => return respond_error(w, state, 422, &e.to_string(), req.keep_alive),
    };
    // The sink records its own $ops row/byte counters at finish.
    stream_run(w, state, req, format, session, rx, sink)?;
    http::finish_chunked(w)
}

fn respond(
    w: &mut TcpStream,
    state: &ServerState,
    status: u16,
    content_type: &str,
    body: &[u8],
    req: &Request,
) -> io::Result<()> {
    state.count_response(status);
    http::write_response(w, status, content_type, body, req.keep_alive)
}

fn respond_json(
    w: &mut TcpStream,
    state: &ServerState,
    status: u16,
    body: &str,
    req: &Request,
) -> io::Result<()> {
    respond(w, state, status, "application/json", body.as_bytes(), req)
}

fn respond_error(
    w: &mut TcpStream,
    state: &ServerState,
    status: u16,
    message: &str,
    keep_alive: bool,
) -> io::Result<()> {
    state.count_response(status);
    let mut body = String::from("{\"error\": ");
    json::write_str(&mut body, message);
    body.push_str("}\n");
    http::write_response(w, status, "application/json", body.as_bytes(), keep_alive)
}
