//! `rcp-serve`: `rcpd`, the partition-as-a-service daemon.
//!
//! The ROADMAP's production framing made the offline pipeline a batch
//! tool; this crate turns it into a long-running service.  A
//! zero-external-dep HTTP/1.1 server over [`std::net::TcpListener`]
//! accepts `.loop` sources plus parameter bindings and streams back
//! analyses, partitions, codegen listings and verified runs through the
//! staged `rcp-session` pipeline:
//!
//! | endpoint | method | body |
//! |---|---|---|
//! | `/v1/analyze` | POST | `{"source", "params", …}` → the `rcp analyze --json` payload |
//! | `/v1/partition` | POST | same → the `rcp partition --json` payload |
//! | `/v1/codegen` | POST | same → the `rcp codegen --json` payload |
//! | `/v1/run` | POST | same → the `rcp run --json` payload |
//! | `/v1/batch` | POST | `{"command", "entries": […]}`, sharded over `rcp-pool` |
//! | `/metrics` | GET | Prometheus text from the `rcp-trace` registry |
//! | `/healthz` | GET | liveness |
//! | `/admin/shutdown` | POST | authenticated graceful drain |
//!
//! Three properties the handlers guarantee (see `docs/SERVING.md`):
//!
//! * **Never a panic, never a dropped connection.**  Every failure is a
//!   structured JSON error body: malformed bodies are `400` (the typed
//!   `rcp-json` parse error), typed [`RcpError`]s map through
//!   [`status_for`], budget trips are `408` naming the stage, overload is
//!   a typed `429`/`503`, and a worker survives any request outcome.
//! * **Warm requests re-run no analysis.**  The content-addressed
//!   [`cache::AnalysisCache`] keys the canonicalized program text plus
//!   the analysis-relevant config; hits reuse the `Analyzed` stage and
//!   its per-binding partition memo.
//! * **The wire path is the CLI path.**  Handlers live in [`api`] and are
//!   the same functions `rcp analyze|partition|codegen|run` call, so a
//!   served body is bit-identical to the CLI's `--json` output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
pub mod http;

pub use api::{
    analyze_report, cmd_analyze, cmd_codegen, cmd_partition, cmd_run, codegen_report, error_json,
    params_object, partition_report, run_report, scheduled_for, Options, Report,
};

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cache::AnalysisCache;
use http::{Request, Response};
use rcp_json::{json, Json};
use rcp_session::{GranularityChoice, RcpError, Session};

/// How the daemon is configured (`rcp serve` / `rcpd` flags).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded admission queue depth; a full queue answers `429`.
    pub queue_capacity: usize,
    /// Analyses the content-addressed cache retains (LRU beyond that).
    pub cache_capacity: usize,
    /// Bearer token `POST /admin/shutdown` requires; `None` disables the
    /// endpoint (`403`).
    pub admin_token: Option<String>,
    /// Default per-request work budget when neither body nor header sets
    /// one.
    pub default_budget_work: Option<u64>,
    /// Default per-request deadline (ms) when neither body nor header
    /// sets one.
    pub default_budget_ms: Option<u64>,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 64,
            admin_token: None,
            default_budget_work: None,
            default_budget_ms: None,
            max_body_bytes: 1024 * 1024,
        }
    }
}

impl ServerConfig {
    /// Parses the `rcp serve` / `rcpd` flag vocabulary
    /// (`--addr`, `--workers`, `--queue-capacity`, `--cache-capacity`,
    /// `--admin-token`, `--budget-work`, `--budget-ms`) from an argument
    /// list.  Unknown flags are an error so typos fail loudly.
    pub fn from_args(args: &[String]) -> Result<ServerConfig, String> {
        let mut config = ServerConfig::default();
        let mut k = 0;
        while k < args.len() {
            let arg = &args[k];
            let mut value = || -> Result<&String, String> {
                k += 1;
                args.get(k).ok_or_else(|| format!("{arg} requires a value"))
            };
            match arg.as_str() {
                "--addr" => config.addr = value()?.clone(),
                "--admin-token" => config.admin_token = Some(value()?.clone()),
                "--workers" | "--queue-capacity" | "--cache-capacity" => {
                    let v = value()?;
                    let n: usize = v
                        .parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| format!("invalid {arg} value `{v}`"))?;
                    match arg.as_str() {
                        "--workers" => config.workers = n,
                        "--queue-capacity" => config.queue_capacity = n,
                        _ => config.cache_capacity = n,
                    }
                }
                "--budget-work" | "--budget-ms" => {
                    let v = value()?;
                    let n: u64 = v
                        .parse()
                        .map_err(|_| format!("invalid {arg} value `{v}`"))?;
                    if arg == "--budget-work" {
                        config.default_budget_work = Some(n);
                    } else {
                        config.default_budget_ms = Some(n);
                    }
                }
                other => return Err(format!("unknown option `{other}`")),
            }
            k += 1;
        }
        Ok(config)
    }
}

/// The HTTP status a typed [`RcpError`] maps to (the full table is pinned
/// in `docs/SERVING.md`): caller mistakes are `400`, lookups of names
/// that do not exist are `404`, a scheme that cannot express the program
/// is `422`, budget exhaustion is `408` (the body names the stage), and a
/// caught worker panic is the one genuine `500`.
pub fn status_for(error: &RcpError) -> u16 {
    match error {
        RcpError::Parse { .. }
        | RcpError::UnknownParameter { .. }
        | RcpError::MissingParameter { .. }
        | RcpError::UnboundVariable { .. }
        | RcpError::GranularityUnavailable { .. } => 400,
        RcpError::UnknownScheme { .. }
        | RcpError::UnknownWorkload { .. }
        | RcpError::UnknownCommand { .. } => 404,
        RcpError::PlanUnavailable { .. } | RcpError::SchemeUnsupported { .. } => 422,
        RcpError::BudgetExceeded { .. } => 408,
        RcpError::WorkerPanic { .. } => 500,
    }
}

// ---------------------------------------------------------------------------
// Bounded admission queue
// ---------------------------------------------------------------------------

struct QueueState {
    items: VecDeque<TcpStream>,
    draining: bool,
}

/// Why a connection was not admitted.
enum Admission {
    /// Queue at capacity: the caller should retry (429).
    Full,
    /// The server is draining: no new work (503).
    Draining,
}

struct Queue {
    state: Mutex<QueueState>,
    capacity: usize,
    /// Wakes workers blocked in [`Queue::pop`].  Strictly distinct from
    /// `drain_cv`: `push` signals with `notify_one`, and if drain-waiters
    /// shared this condvar that single wakeup could land on the
    /// [`Server::join`] thread instead of a worker — the drain-waiter
    /// re-checks its own predicate, sleeps again, and the queued
    /// connection is stranded until the *next* connection's notify
    /// arrives (a wrong-recipient lost wakeup, seen as a cold request
    /// hanging for the client's full read timeout).
    cv: Condvar,
    /// Wakes threads blocked in [`Queue::wait_drain`].
    drain_cv: Condvar,
}

impl Queue {
    fn new(capacity: usize) -> Self {
        Queue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                draining: false,
            }),
            capacity: capacity.max(1),
            cv: Condvar::new(),
            drain_cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn push(&self, stream: TcpStream) -> Result<(), (Admission, TcpStream)> {
        let mut state = self.lock();
        if state.draining {
            return Err((Admission::Draining, stream));
        }
        if state.items.len() >= self.capacity {
            return Err((Admission::Full, stream));
        }
        state.items.push_back(stream);
        rcp_trace::gauge("serve.queue.depth").set(state.items.len() as u64);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once draining and empty
    /// (the worker's signal to exit).
    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.lock();
        loop {
            if let Some(stream) = state.items.pop_front() {
                rcp_trace::gauge("serve.queue.depth").set(state.items.len() as u64);
                rcp_trace::counter("serve.queue.dequeued").inc();
                return Some(stream);
            }
            if state.draining {
                return None;
            }
            state = match self.cv.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    fn drain(&self) {
        self.lock().draining = true;
        self.cv.notify_all();
        self.drain_cv.notify_all();
    }

    fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Blocks until a drain is requested.
    fn wait_drain(&self) {
        let mut state = self.lock();
        while !state.draining {
            state = match self.drain_cv.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

struct Context {
    config: ServerConfig,
    cache: AnalysisCache,
    queue: Arc<Queue>,
}

fn error_body(status: u16, message: impl Into<String>) -> Response {
    Response::json(status, &json!({ "error": message.into() }))
}

fn rcp_error_response(error: &RcpError) -> Response {
    Response::json(status_for(error), &api::error_json(error))
}

/// The per-request options extracted from a JSON body plus budget
/// headers.
fn request_options(
    body: &Json,
    req: &Request,
    defaults: &ServerConfig,
) -> Result<Options, Response> {
    let mut opts = Options {
        budget_work: defaults.default_budget_work,
        budget_ms: defaults.default_budget_ms,
        ..Options::default()
    };
    if let Some(params) = body.get("params") {
        let Json::Object(entries) = params else {
            return Err(error_body(
                400,
                "`params` must be an object of NAME: integer",
            ));
        };
        for (name, value) in entries {
            let Some(v) = value.as_i64() else {
                return Err(error_body(
                    400,
                    format!("`params.{name}` must be an integer"),
                ));
            };
            opts.params.push((name.clone(), v));
        }
    }
    if let Some(threads) = body.get("threads") {
        match threads.as_u64() {
            Some(n) if n >= 1 => opts.threads = Some(n as usize),
            _ => return Err(error_body(400, "`threads` must be a positive integer")),
        }
    }
    if let Some(granularity) = body.get("granularity") {
        let text = granularity.as_str().unwrap_or_default();
        match GranularityChoice::parse(text) {
            Some(choice) => opts.granularity = choice,
            None => {
                return Err(error_body(
                    400,
                    format!("invalid `granularity` `{text}` (expected loop, stmt or auto)"),
                ))
            }
        }
    }
    if let Some(scheme) = body.get("scheme") {
        match scheme.as_str() {
            Some(name) => opts.scheme = Some(name.to_string()),
            None => return Err(error_body(400, "`scheme` must be a string")),
        }
    }
    for (field, slot) in [("budget_work", 0usize), ("budget_ms", 1)] {
        if let Some(value) = body.get(field) {
            let Some(n) = value.as_u64() else {
                return Err(error_body(
                    400,
                    format!("`{field}` must be a non-negative integer"),
                ));
            };
            if slot == 0 {
                opts.budget_work = Some(n);
            } else {
                opts.budget_ms = Some(n);
            }
        }
    }
    // Headers override config defaults but lose to explicit body fields.
    for (header, body_field, slot) in [
        ("x-rcp-budget-work", "budget_work", 0usize),
        ("x-rcp-budget-ms", "budget_ms", 1),
    ] {
        if body.get(body_field).is_none() {
            if let Some(raw) = req.header(header) {
                let Ok(n) = raw.parse::<u64>() else {
                    return Err(error_body(400, format!("invalid {header} header `{raw}`")));
                };
                if slot == 0 {
                    opts.budget_work = Some(n);
                } else {
                    opts.budget_ms = Some(n);
                }
            }
        }
    }
    if let Some(degrade) = body.get("degrade") {
        match degrade.as_bool() {
            Some(on) => opts.no_degrade = !on,
            None => return Err(error_body(400, "`degrade` must be a boolean")),
        }
    }
    Ok(opts)
}

/// The `.loop` source of a request — inline `source` or a bundled
/// `workload` name — plus the parameter defaults the request falls back
/// to (a workload's survey values; inline sources have none and must
/// bind every parameter themselves).
struct RequestSource {
    source: String,
    origin: String,
    default_params: &'static [(&'static str, i64)],
}

fn request_source(body: &Json) -> Result<RequestSource, Response> {
    match (body.get("source"), body.get("workload")) {
        (Some(source), None) => match source.as_str() {
            Some(text) => Ok(RequestSource {
                source: text.to_string(),
                origin: "<request>".to_string(),
                default_params: &[],
            }),
            None => Err(error_body(400, "`source` must be a string")),
        },
        (None, Some(workload)) => {
            let Some(name) = workload.as_str() else {
                return Err(error_body(400, "`workload` must be a string"));
            };
            match rcp_workloads::bundled_loop(name) {
                Some(bundled) => Ok(RequestSource {
                    source: bundled.source.to_string(),
                    origin: format!("{name}.loop"),
                    default_params: bundled.survey_params,
                }),
                None => Err(rcp_error_response(&RcpError::UnknownWorkload {
                    name: name.to_string(),
                })),
            }
        }
        _ => Err(error_body(
            400,
            "body must set exactly one of `source` (inline .loop text) or `workload` (bundled name)",
        )),
    }
}

/// Parses, canonicalizes and analyses through the content-addressed
/// cache.  The cached `Analyzed` is built with *no* parameter bindings;
/// the request's bindings are applied per call via `partition_with`.
fn analyzed_via_cache(
    ctx: &Context,
    source: &str,
    origin: &str,
    opts: &Options,
) -> Result<rcp_session::Analyzed, RcpError> {
    let program = rcp_lang::parse_program(source).map_err(|e| RcpError::parse(origin, e))?;
    let mut config = opts.to_config();
    config.params = Vec::new();
    let canonical = rcp_lang::pretty(&program);
    let key = cache::content_address(&canonical, &config);
    let (analyzed, _hit) = ctx
        .cache
        .get_or_insert_with(&key, || Session::with_config(config.clone()).load(program))?;
    Ok(analyzed)
}

/// Counts a request whose partition stage was materialised by an
/// O(pieces) [`rcp_core::SymbolicPlan`] instantiation — the
/// `serve.plan.instantiate` counter in `/metrics`.  The stage is memoised
/// per binding, so the lookup re-runs nothing.
fn note_plan_instantiate(analyzed: &rcp_session::Analyzed, overrides: &[(String, i64)]) {
    if let Ok(stage) = analyzed.partition_with(overrides) {
        if stage.instantiated() {
            rcp_trace::counter("serve.plan.instantiate").inc();
        }
    }
}

fn stage_response(ctx: &Context, command: &str, req: &Request, body: &Json) -> Response {
    let mut opts = match request_options(body, req, &ctx.config) {
        Ok(opts) => opts,
        Err(response) => return response,
    };
    let spec = match request_source(body) {
        Ok(spec) => spec,
        Err(response) => return response,
    };
    for (name, value) in spec.default_params {
        if !opts.params.iter().any(|(n, _)| n == name) {
            opts.params.push((name.to_string(), *value));
        }
    }
    let result = analyzed_via_cache(ctx, &spec.source, &spec.origin, &opts).and_then(|analyzed| {
        let report = match command {
            "analyze" => api::analyze_report(&analyzed, &opts.params),
            "partition" => api::partition_report(&analyzed, &opts.params),
            "codegen" => api::codegen_report(&analyzed),
            "run" => api::run_report(&analyzed, &opts.params),
            other => {
                return Err(RcpError::UnknownCommand {
                    name: other.to_string(),
                    known: vec!["analyze", "partition", "codegen", "run"],
                })
            }
        };
        if report.is_ok() && matches!(command, "partition" | "run") {
            note_plan_instantiate(&analyzed, &opts.params);
        }
        report
    });
    match result {
        Ok(report) => Response::json(200, &report.data),
        Err(error) => rcp_error_response(&error),
    }
}

/// Dedups a batch's entries by analysis content address and builds each
/// distinct `Analyzed` exactly once before the per-entry fan-out.  The
/// cache builds outside its lock (so a worker panic cannot poison it),
/// which means N concurrent misses on the same key would all run the
/// analysis; N bindings of one program are the common batch shape, so
/// pre-warming turns them into one build plus N−1 hits.  Entries that
/// fail to parse are skipped here and report their error in the fan-out.
fn prewarm_batch(ctx: &Context, req: &Request, entries: &[Json]) {
    let mut seen = std::collections::HashSet::new();
    let mut unique: Vec<(RequestSource, Options)> = Vec::new();
    let mut keyed = 0usize;
    for entry in entries {
        let (Ok(opts), Ok(spec)) = (
            request_options(entry, req, &ctx.config),
            request_source(entry),
        ) else {
            continue;
        };
        let Ok(program) = rcp_lang::parse_program(&spec.source) else {
            continue;
        };
        let mut config = opts.to_config();
        config.params = Vec::new();
        keyed += 1;
        if seen.insert(cache::content_address(&rcp_lang::pretty(&program), &config)) {
            unique.push((spec, opts));
        }
    }
    if keyed > unique.len() {
        rcp_trace::counter("serve.batch.deduped").add((keyed - unique.len()) as u64);
    }
    let threads = rcp_pool::available_threads().min(unique.len().max(1));
    rcp_pool::par_map(threads, &unique, |(spec, opts)| {
        let _ = analyzed_via_cache(ctx, &spec.source, &spec.origin, opts);
    });
}

fn batch_response(ctx: &Context, req: &Request, body: &Json) -> Response {
    let command = match body.get("command").map(|c| c.as_str()) {
        None => "analyze",
        Some(Some(name)) if ["analyze", "partition", "codegen", "run"].contains(&name) => name,
        Some(other) => {
            return error_body(
                400,
                format!(
                    "`command` must be analyze, partition, codegen or run (got {:?})",
                    other.unwrap_or("<non-string>")
                ),
            )
        }
    };
    let Some(entries) = body.get("entries").and_then(|e| e.as_array()) else {
        return error_body(400, "`entries` must be an array of request objects");
    };
    prewarm_batch(ctx, req, entries);
    // Shard the sweep over rcp-pool: entries fan out across the scoped
    // pool and come back in order, each independently a payload or a
    // structured error — one bad entry never sinks the batch.
    let threads = rcp_pool::available_threads().min(entries.len().max(1));
    let results = rcp_pool::par_map(threads, entries, |entry| {
        let response = stage_response(ctx, command, req, entry);
        let parsed =
            Json::parse(String::from_utf8_lossy(&response.body).trim_end()).unwrap_or(Json::Null);
        (response.status, parsed)
    });
    let n_errors = results.iter().filter(|(status, _)| *status >= 400).count();
    let rows: Vec<Json> = results
        .into_iter()
        .map(|(status, payload)| {
            json!({
                "status": status,
                "body": payload,
            })
        })
        .collect();
    Response::json(
        200,
        &json!({
            "command": command,
            "n_entries": rows.len(),
            "n_errors": n_errors,
            "results": Json::Array(rows),
        }),
    )
}

fn shutdown_response(ctx: &Context, req: &Request) -> Response {
    let Some(expected) = &ctx.config.admin_token else {
        return error_body(403, "shutdown is disabled: the server has no --admin-token");
    };
    let presented = req
        .header("authorization")
        .and_then(|v| v.strip_prefix("Bearer "))
        .or_else(|| req.header("x-admin-token"));
    if presented != Some(expected.as_str()) {
        return error_body(401, "missing or wrong admin token");
    }
    ctx.queue.drain();
    Response::json(200, &json!({ "draining": true }))
}

fn route(ctx: &Context, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(
            200,
            &json!({ "status": "ok", "draining": ctx.queue.draining() }),
        ),
        ("GET", "/metrics") => Response::text(200, rcp_trace::snapshot().to_prometheus()),
        ("POST", "/v1/analyze" | "/v1/partition" | "/v1/codegen" | "/v1/run" | "/v1/batch") => {
            let body = match Json::parse(String::from_utf8_lossy(&req.body).as_ref()) {
                Ok(body) => body,
                Err(e) => return error_body(400, format!("request body: {e}")),
            };
            match req.path.as_str() {
                "/v1/batch" => batch_response(ctx, req, &body),
                path => stage_response(ctx, &path["/v1/".len()..], req, &body),
            }
        }
        ("POST", "/admin/shutdown") => shutdown_response(ctx, req),
        (
            _,
            "/healthz" | "/metrics" | "/v1/analyze" | "/v1/partition" | "/v1/codegen" | "/v1/run"
            | "/v1/batch" | "/admin/shutdown",
        ) => error_body(405, format!("method {} not allowed here", req.method)),
        (_, path) => error_body(404, format!("no such endpoint `{path}`")),
    }
}

fn handle_connection(ctx: &Context, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let response = match http::read_request(&mut reader, ctx.config.max_body_bytes) {
        Ok(request) => {
            rcp_trace::counter("serve.requests.total").inc();
            let active = rcp_trace::gauge("serve.requests.active");
            active.add(1);
            // The session stack turns injected faults and budget trips
            // into typed errors; the unwind catch is the last-resort
            // belt-and-braces so a defect in *this* crate can never kill
            // a worker or strand a client without a response.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(ctx, &request)));
            active.sub(1);
            match outcome {
                Ok(response) => response,
                Err(_) => {
                    rcp_trace::counter("serve.requests.panicked").inc();
                    error_body(500, "internal error: request handler panicked")
                }
            }
        }
        Err(error) => error_body(error.status(), error.to_string()),
    };
    let _ = response.write_to(&mut writer);
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// A running `rcpd` instance: an accept thread, a worker pool draining
/// the bounded queue, and the shared analysis cache.
pub struct Server {
    addr: SocketAddr,
    queue: Arc<Queue>,
    stopped: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Closes a connection whose request was never read.  Closing a socket
/// with unread input makes the kernel answer with a reset, which can
/// destroy the response before the client reads it.  So the write side is
/// half-closed first and the client's bytes are discarded until it closes
/// its side — bounded in time and size, because the accept thread waits
/// here.
fn linger_close(stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut unread = std::io::Read::take(&stream, 64 * 1024);
    let _ = std::io::copy(&mut unread, &mut std::io::sink());
}

impl Server {
    /// Binds and starts serving; returns once the listener is live (the
    /// bound address is [`Server::addr`], useful with port `0`).
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(Queue::new(config.queue_capacity));
        let stopped = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(Context {
            cache: AnalysisCache::new(config.cache_capacity),
            config,
            queue: Arc::clone(&queue),
        });
        let mut workers = Vec::new();
        for k in 0..ctx.config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let ctx = Arc::clone(&ctx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rcpd-worker-{k}"))
                    .spawn(move || {
                        while let Some(stream) = queue.pop() {
                            handle_connection(&ctx, stream);
                        }
                    })?,
            );
        }
        let accept = {
            let queue = Arc::clone(&queue);
            let stopped = Arc::clone(&stopped);
            std::thread::Builder::new()
                .name("rcpd-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stopped.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        match queue.push(stream) {
                            Ok(()) => {}
                            Err((admission, mut stream)) => {
                                // Overload answers inline from the accept
                                // thread, without parsing the request: a
                                // typed body, never a silently dropped
                                // connection.
                                rcp_trace::counter("serve.requests.rejected").inc();
                                let (status, message) = match admission {
                                    Admission::Full => (429, "request queue is full, retry later"),
                                    Admission::Draining => (503, "server is draining for shutdown"),
                                };
                                let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                                let _ = error_body(status, message).write_to(&mut stream);
                                linger_close(stream);
                            }
                        }
                    }
                })?
        };
        Ok(Server {
            addr,
            queue,
            stopped,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain, as `POST /admin/shutdown` does: queued
    /// requests finish, workers then exit.
    pub fn shutdown(&self) {
        self.queue.drain();
    }

    /// True once a drain has been requested.
    pub fn draining(&self) -> bool {
        self.queue.draining()
    }

    /// Blocks until a drain is requested (via [`Server::shutdown`] or the
    /// admin endpoint), lets the workers finish the queued requests, then
    /// tears the accept loop down.  Returns when the last thread is gone.
    pub fn join(mut self) {
        self.queue.wait_drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.stopped.store(true, Ordering::SeqCst);
        // The accept thread blocks in `accept`; a throwaway connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Serializes tests that assert on the process-global `rcp-trace`
/// registry (counter deltas, gauge polling) — without it, parallel test
/// threads cross-talk through the shared metrics.
#[cfg(test)]
pub(crate) fn metrics_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use rcp_session::Config;
    use std::io::{Read as _, Write as _};
    use std::time::Instant;

    fn server() -> (Server, Client) {
        let server = Server::start(ServerConfig {
            admin_token: Some("sesame".to_string()),
            ..ServerConfig::default()
        })
        .unwrap();
        let client = Client::new(server.addr().to_string());
        (server, client)
    }

    fn example1() -> &'static str {
        rcp_workloads::bundled_loop("example1").unwrap().source
    }

    /// Panics if `cond` stays false for ten seconds.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn healthz_and_metrics_respond() {
        let _guard = metrics_test_lock();
        let (server, client) = server();
        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(
            health.json().unwrap().get("status").unwrap().as_str(),
            Some("ok")
        );
        let metrics = client.get("/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("rcp_serve_requests_total"));
        server.shutdown();
        server.join();
    }

    /// The binary's shape: the main thread parks in [`Server::join`]
    /// while requests arrive.  Regression test for a wrong-recipient
    /// lost wakeup — `push`'s `notify_one` on a condvar shared with
    /// `wait_drain` could wake the joining thread instead of a worker,
    /// stranding the queued connection until the next one arrived (the
    /// client saw its full read timeout; the in-process tests never
    /// noticed because none of them joined while requesting).
    #[test]
    fn requests_are_served_while_join_waits_for_drain() {
        let _guard = metrics_test_lock();
        let (server, client) = server();
        let joiner = std::thread::spawn(move || server.join());
        // Let join() park in its drain wait before the first connection.
        std::thread::sleep(Duration::from_millis(50));
        let client = client.with_timeout(Duration::from_secs(10));
        let reply = client
            .post("/v1/analyze", &json!({ "workload": "example1" }))
            .unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        // A second request too: the broken interleaving served request
        // N only once request N+1's notify arrived.
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        let drained = client
            .post_with_headers(
                "/admin/shutdown",
                &json!({}),
                &[("authorization".to_string(), "Bearer sesame".to_string())],
            )
            .unwrap();
        assert_eq!(drained.status, 200, "{}", drained.body);
        joiner.join().unwrap();
    }

    #[test]
    fn analyze_matches_the_cli_handler() {
        let _guard = metrics_test_lock();
        let (server, client) = server();
        let reply = client
            .post(
                "/v1/analyze",
                &json!({ "source": example1(), "params": json!({"N1": 10, "N2": 10}) }),
            )
            .unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        let opts = Options {
            params: vec![("N1".to_string(), 10), ("N2".to_string(), 10)],
            ..Options::default()
        };
        let direct = api::cmd_analyze(example1(), "example1.loop", &opts).unwrap();
        assert_eq!(reply.body, format!("{}\n", direct.data.pretty()));
        server.shutdown();
        server.join();
    }

    #[test]
    fn workload_requests_resolve_bundled_sources() {
        let _guard = metrics_test_lock();
        let (server, client) = server();
        let reply = client
            .post(
                "/v1/partition",
                &json!({ "workload": "example2", "params": json!({"N": 8}) }),
            )
            .unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        let body = reply.json().unwrap();
        assert_eq!(
            body.get("params").unwrap().get("N").unwrap().as_i64(),
            Some(8)
        );
        let missing = client
            .post("/v1/analyze", &json!({ "workload": "nope" }))
            .unwrap();
        assert_eq!(missing.status, 404);
        server.shutdown();
        server.join();
    }

    #[test]
    fn run_verifies_and_codegen_lists() {
        let _guard = metrics_test_lock();
        let (server, client) = server();
        let run = client
            .post("/v1/run", &json!({ "workload": "example1", "threads": 2 }))
            .unwrap();
        assert_eq!(run.status, 200, "{}", run.body);
        assert_eq!(
            run.json().unwrap().get("passed").unwrap().as_bool(),
            Some(true)
        );
        let codegen = client
            .post("/v1/codegen", &json!({ "workload": "example1" }))
            .unwrap();
        assert_eq!(codegen.status, 200, "{}", codegen.body);
        server.shutdown();
        server.join();
    }

    #[test]
    fn error_statuses_are_typed() {
        let _guard = metrics_test_lock();
        let (server, client) = server();
        for (body, status) in [
            (json!({}), 400),                                 // neither source nor workload
            (json!({ "source": "not a loop program" }), 400), // parse error
            (
                json!({ "workload": "example1", "params": json!({"Q": 1}) }),
                400,
            ), // unknown parameter
            (json!({ "workload": "example1", "scheme": "zig" }), 404), // unknown scheme
        ] {
            let reply = client.post("/v1/run", &body).unwrap();
            assert_eq!(reply.status, status, "{body:?} -> {}", reply.body);
            assert!(
                reply.json().unwrap().get("error").is_some(),
                "{}",
                reply.body
            );
        }
        let garbage = {
            // A raw non-JSON body exercises the hardened parser's 400.
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            write!(
                stream,
                "POST /v1/analyze HTTP/1.1\r\ncontent-length: 9\r\n\r\nnot json!"
            )
            .unwrap();
            let mut body = String::new();
            stream.read_to_string(&mut body).unwrap();
            body
        };
        assert!(garbage.starts_with("HTTP/1.1 400 "), "{garbage}");
        server.shutdown();
        server.join();
    }

    #[test]
    fn budget_header_trips_as_408() {
        let _guard = metrics_test_lock();
        let (server, client) = server();
        let reply = client
            .post_with_headers(
                "/v1/run",
                &json!({ "workload": "example1", "degrade": false }),
                &[("x-rcp-budget-work".to_string(), "1".to_string())],
            )
            .unwrap();
        assert_eq!(reply.status, 408, "{}", reply.body);
        assert!(reply.body.contains("budget"), "{}", reply.body);
        server.shutdown();
        server.join();
    }

    #[test]
    fn a_deferred_analysis_is_bounded_by_the_request_budget() {
        // Cholesky's Φ fits 5 000 work units but the per-binding analysis
        // behind `analyze` and `partition`'s validation does not: the
        // handlers report the trip and the server answers 408.  No other
        // test analyses this binding, whose cached solver verdicts would
        // make the analysis cheap.
        let _guard = metrics_test_lock();
        let params = [("NMAT", 3), ("M", 2), ("N", 5), ("NRHS", 1)];
        let analyzed = Session::with_config(Config::new().with_work_budget(5_000))
            .bundled("cholesky")
            .unwrap();
        let overrides: Vec<(String, i64)> =
            params.iter().map(|&(n, v)| (n.to_string(), v)).collect();
        for report in [
            api::analyze_report(&analyzed, &overrides),
            api::partition_report(&analyzed, &overrides),
        ] {
            assert!(
                matches!(report, Err(RcpError::BudgetExceeded { limit: 5_000, .. })),
                "{report:?}"
            );
        }
        let (server, client) = server();
        let body = json!({
            "workload": "cholesky",
            "params": Json::Object(params.iter().map(|&(n, v)| (n.to_string(), Json::Int(v))).collect()),
        });
        let budget = [("x-rcp-budget-work".to_string(), "5000".to_string())];
        for path in ["/v1/analyze", "/v1/partition"] {
            let reply = client.post_with_headers(path, &body, &budget).unwrap();
            assert_eq!(reply.status, 408, "{path}: {}", reply.body);
            assert!(reply.body.contains("budget"), "{}", reply.body);
        }
        let reply = client.post("/v1/analyze", &body).unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        server.shutdown();
        server.join();
    }

    #[test]
    fn a_sparse_write_pattern_is_refused_as_408_and_the_server_survives() {
        // A diagonal write at N = 100 000 spans a box of 10^10 cells: the
        // runtime refuses to lay it out instead of aborting the process.
        let _guard = metrics_test_lock();
        let (server, client) = server();
        let source = "PROGRAM sparse\nPARAM N\nDO I = 1, N\n  S: a(I, I) = b(I)\nENDDO\nEND\n";
        let reply = client
            .post(
                "/v1/run",
                &json!({ "source": source, "params": json!({ "N": 100000 }) }),
            )
            .unwrap();
        assert_eq!(reply.status, 408, "{}", reply.body);
        assert!(reply.body.contains("`execution`"), "{}", reply.body);
        let reply = client
            .post("/v1/run", &json!({ "workload": "example1" }))
            .unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        server.shutdown();
        server.join();
    }

    #[test]
    fn batch_shards_entries_and_isolates_errors() {
        let _guard = metrics_test_lock();
        let (server, client) = server();
        let reply = client
            .post(
                "/v1/batch",
                &json!({
                    "command": "analyze",
                    "entries": Json::Array(vec![
                        json!({ "workload": "example1" }),
                        json!({ "workload": "nope" }),
                        json!({ "workload": "example2" }),
                    ]),
                }),
            )
            .unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        let body = reply.json().unwrap();
        assert_eq!(body.get("n_entries").unwrap().as_u64(), Some(3));
        assert_eq!(body.get("n_errors").unwrap().as_u64(), Some(1));
        let results = body.get("results").unwrap().as_array().unwrap();
        assert_eq!(results[0].get("status").unwrap().as_u64(), Some(200));
        assert_eq!(results[1].get("status").unwrap().as_u64(), Some(404));
        assert_eq!(results[2].get("status").unwrap().as_u64(), Some(200));
        server.shutdown();
        server.join();
    }

    #[test]
    fn unknown_paths_and_methods_are_typed() {
        let _guard = metrics_test_lock();
        let (server, client) = server();
        assert_eq!(client.get("/nope").unwrap().status, 404);
        assert_eq!(client.post("/healthz", &json!({})).unwrap().status, 405);
        assert_eq!(client.get("/v1/analyze").unwrap().status, 405);
        server.shutdown();
        server.join();
    }

    #[test]
    fn admin_shutdown_requires_the_token() {
        let _guard = metrics_test_lock();
        let (server, client) = server();
        assert_eq!(
            client.post("/admin/shutdown", &json!({})).unwrap().status,
            401
        );
        let wrong = client.post_with_headers(
            "/admin/shutdown",
            &json!({}),
            &[("authorization".to_string(), "Bearer wrong".to_string())],
        );
        assert_eq!(wrong.unwrap().status, 401);
        assert!(!server.draining());
        let right = client.post_with_headers(
            "/admin/shutdown",
            &json!({}),
            &[("authorization".to_string(), "Bearer sesame".to_string())],
        );
        assert_eq!(right.unwrap().status, 200);
        assert!(server.draining());
        server.join();
    }

    #[test]
    fn shutdown_is_forbidden_without_a_configured_token() {
        let _guard = metrics_test_lock();
        let server = Server::start(ServerConfig::default()).unwrap();
        let client = Client::new(server.addr().to_string());
        assert_eq!(
            client.post("/admin/shutdown", &json!({})).unwrap().status,
            403
        );
        server.shutdown();
        server.join();
    }

    #[test]
    fn warm_requests_hit_the_cache_and_skip_analysis() {
        let _guard = metrics_test_lock();
        let (server, client) = server();
        let body = json!({ "workload": "tomcatv" });
        let cold = client.post("/v1/analyze", &body).unwrap();
        assert_eq!(cold.status, 200);
        let mark = rcp_trace::snapshot();
        let warm = client.post("/v1/analyze", &body).unwrap();
        assert_eq!(warm.status, 200);
        assert_eq!(warm.body, cold.body);
        let delta = rcp_trace::snapshot().delta_since(&mark);
        assert!(delta.counter("serve.cache.hits") >= 1);
        assert_eq!(
            delta.counter("depend.screen.pairs"),
            0,
            "warm request re-ran the screen"
        );
        server.shutdown();
        server.join();
    }

    /// A connection the worker blocks on: the request line is sent but
    /// the headers never end, so the worker sits in `read_request` until
    /// [`release`] sends the terminating blank line.
    fn stalled(addr: SocketAddr) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        stream.flush().unwrap();
        stream
    }

    /// Completes a [`stalled`] request and returns the raw response.
    fn release(mut stream: TcpStream) -> String {
        stream.write_all(b"\r\n").unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn overload_answers_429_and_drain_answers_503() {
        let _guard = metrics_test_lock();
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let client = Client::new(server.addr().to_string());
        let mark = rcp_trace::snapshot();
        // Wedge the single worker on a stalled request, then fill the
        // one-slot queue with a second, then watch the third bounce.
        let c1 = stalled(server.addr());
        wait_for("the worker to pick up the stalled request", || {
            rcp_trace::snapshot()
                .delta_since(&mark)
                .counter("serve.queue.dequeued")
                == 1
        });
        let c2 = stalled(server.addr());
        wait_for("the queue to hold the second request", || {
            rcp_trace::gauge("serve.queue.depth").get() == 1
        });
        let bounced = client.get("/healthz").unwrap();
        assert_eq!(bounced.status, 429, "{}", bounced.body);
        assert!(bounced.body.contains("queue"), "{}", bounced.body);
        // Drain: new connections get a 503, but the wedged and queued
        // requests still complete — that is what graceful means.
        server.shutdown();
        let refused = client.get("/healthz").unwrap();
        assert_eq!(refused.status, 503, "{}", refused.body);
        assert!(
            release(c1).starts_with("HTTP/1.1 200 "),
            "stalled request dropped by drain"
        );
        assert!(
            release(c2).starts_with("HTTP/1.1 200 "),
            "queued request dropped by drain"
        );
        server.join();
    }

    #[test]
    fn from_args_parses_the_flag_vocabulary() {
        let args: Vec<String> = [
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "2",
            "--queue-capacity",
            "8",
            "--cache-capacity",
            "16",
            "--admin-token",
            "t",
            "--budget-ms",
            "250",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let config = ServerConfig::from_args(&args).unwrap();
        assert_eq!(config.addr, "0.0.0.0:9000");
        assert_eq!(config.workers, 2);
        assert_eq!(config.queue_capacity, 8);
        assert_eq!(config.cache_capacity, 16);
        assert_eq!(config.admin_token.as_deref(), Some("t"));
        assert_eq!(config.default_budget_ms, Some(250));
        assert!(ServerConfig::from_args(&["--workers".to_string()]).is_err());
        assert!(ServerConfig::from_args(&["--workers".to_string(), "0".to_string()]).is_err());
        assert!(ServerConfig::from_args(&["--bogus".to_string()]).is_err());
    }
}
