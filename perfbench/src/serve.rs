//! `serve`: two client connections in closed loops against an in-process
//! rcpd (`rcp_serve::Server`, [`THREADS`] workers).  Every request
//! carries `"threads": 1`, so two concurrent runs never oversubscribe the
//! machine and every request of a program shares one cache entry.

use crate::plan::{self, Class, ServeOp, HIT_PROGRAMS};
use crate::spans::Recorder;
use crate::stats::{median, ratio};
use crate::{require, Outcome, Sample, THREADS};
use rcp_json::Json;
use rcp_serve::client::Client;
use rcp_serve::{Options, Server, ServerConfig};
use rcp_session::{Analyzed, Session};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Cache slots beyond the warm set.  Misses are one-shot and each
/// connection touches the whole warm set between two of its misses, so
/// with this much slack LRU only ever evicts miss entries and the
/// hit/miss/eviction counts repeat exactly.
const SLACK: usize = 16;

/// What a reply must satisfy.
#[derive(Clone)]
enum Expect {
    /// The exact body `rcp_serve::api` renders for the same request.
    Body(Arc<String>),
    /// A verified run: `"passed": true`.
    Passed,
}

struct Request {
    class: Class,
    path: &'static str,
    body: Json,
    expect: Expect,
}

pub struct Prepared {
    server: Server,
    lists: [Vec<Request>; 2],
    /// Requests of each command kind, for the instantiate share.
    partition_and_run: u64,
    misses: u64,
}

impl Prepared {
    /// Drains the server and waits for its threads.
    pub fn stop(self) {
        self.server.shutdown();
        self.server.join();
    }
}

fn source_of(op: &ServeOp) -> String {
    match (op.workload, &op.source) {
        (Some(name), _) => rcp_workloads::bundled_loop(name)
            .map(|b| b.source.to_string())
            .unwrap_or_default(),
        (None, Some(source)) => source.clone(),
        (None, None) => String::new(),
    }
}

fn request_json(op: &ServeOp) -> Json {
    let mut fields = Vec::new();
    match (op.workload, &op.source) {
        (Some(name), _) => fields.push(("workload".to_string(), Json::Str(name.to_string()))),
        (None, source) => fields.push((
            "source".to_string(),
            Json::Str(source.clone().unwrap_or_default()),
        )),
    }
    fields.push((
        "params".to_string(),
        Json::Object(
            op.params
                .iter()
                .map(|(name, v)| (name.clone(), Json::Int(*v)))
                .collect(),
        ),
    ));
    fields.push(("threads".to_string(), Json::Int(1)));
    Json::Object(fields)
}

/// Renders the bodies the server must return, through the same
/// `rcp_serve::api` report functions, on analyses built the way the
/// server builds its cache entries but in sessions of their own.  Only
/// bundled programs recur, so only their analyses and bodies are kept;
/// a `miss` nest's analysis is dropped once its body is rendered.
struct Bodies {
    analyzed: HashMap<&'static str, Analyzed>,
    bodies: HashMap<BodyKey, Arc<String>>,
}

/// A bundled request as far as its reply body goes: command, program,
/// bindings.
type BodyKey = (&'static str, &'static str, Vec<(String, i64)>);

fn analyze(source: &str) -> Result<Analyzed, String> {
    let mut config = Options {
        threads: Some(1),
        ..Options::default()
    }
    .to_config()
    .without_partition_reuse();
    config.params = Vec::new();
    let program = rcp_lang::parse_program(source).map_err(|e| e.to_string())?;
    Session::with_config(config)
        .load(program)
        .map_err(|e| e.to_string())
}

impl Bodies {
    fn expect(&mut self, op: &ServeOp) -> Result<Expect, String> {
        if op.command == "run" {
            return Ok(Expect::Passed);
        }
        let key = op
            .workload
            .map(|name| (op.command, name, op.params.clone()));
        if let Some(body) = key.as_ref().and_then(|key| self.bodies.get(key)) {
            return Ok(Expect::Body(body.clone()));
        }
        let analyzed = match op.workload {
            Some(name) => match self.analyzed.get(name) {
                Some(analyzed) => analyzed.clone(),
                None => {
                    let analyzed = analyze(&source_of(op))?;
                    self.analyzed.insert(name, analyzed.clone());
                    analyzed
                }
            },
            None => analyze(&source_of(op))?,
        };
        let report = match op.command {
            "analyze" => rcp_serve::analyze_report(&analyzed, &op.params),
            "partition" => rcp_serve::partition_report(&analyzed, &op.params),
            _ => rcp_serve::codegen_report(&analyzed),
        }
        .map_err(|e| format!("reference {} body: {e}", op.command))?;
        if op.command == "partition"
            && report.data.get("valid").and_then(Json::as_bool) != Some(true)
        {
            return Err(format!(
                "reference partition of {:?} is not valid",
                op.workload
            ));
        }
        let body = Arc::new(format!("{}\n", report.data.pretty()));
        if let Some(key) = key {
            self.bodies.insert(key, body.clone());
        }
        Ok(Expect::Body(body))
    }
}

fn path(command: &str) -> &'static str {
    match command {
        "analyze" => "/v1/analyze",
        "partition" => "/v1/partition",
        "codegen" => "/v1/codegen",
        _ => "/v1/run",
    }
}

fn check(reply: Result<rcp_serve::client::Reply, String>, expect: &Expect) -> Result<(), String> {
    let reply = reply?;
    if !reply.is_success() {
        return Err(format!(
            "status {}: {}",
            reply.status,
            reply.body.trim_end()
        ));
    }
    match expect {
        Expect::Body(body) if reply.body == **body => Ok(()),
        Expect::Body(_) => Err("body differs from the api report".to_string()),
        Expect::Passed => match reply.json()?.get("passed").and_then(Json::as_bool) {
            Some(true) => Ok(()),
            _ => Err(format!("run not verified: {}", reply.body.trim_end())),
        },
    }
}

pub fn setup(seed: u64, seconds: u64) -> Result<Prepared, String> {
    let plan = plan::serve_plan(seed, seconds);
    let mut bodies = Bodies {
        analyzed: HashMap::new(),
        bodies: HashMap::new(),
    };
    let mut build = |ops: &[ServeOp]| -> Result<Vec<Request>, String> {
        ops.iter()
            .map(|op| {
                Ok(Request {
                    class: op.class,
                    path: path(op.command),
                    body: request_json(op),
                    expect: bodies.expect(op)?,
                })
            })
            .collect()
    };
    let warm = build(&plan.warm)?;
    let lists = [build(&plan.lists[0])?, build(&plan.lists[1])?];
    drop(bodies);
    // The reference bodies must not leave the solver caches warm for the
    // server.
    rcp_intlin::reset_solver_cache();
    rcp_presburger::reset_emptiness_cache();
    let server = Server::start(ServerConfig {
        workers: THREADS,
        cache_capacity: HIT_PROGRAMS.len() + 1 + SLACK,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("starting rcpd: {e}"))?;
    let client = Client::new(server.addr().to_string());
    for request in &warm {
        if let Err(e) = check(client.post(request.path, &request.body), &request.expect) {
            server.shutdown();
            server.join();
            return Err(format!("warm-up request failed: {e}"));
        }
    }
    let count =
        |pred: &dyn Fn(&Request) -> bool| lists.iter().flatten().filter(|r| pred(r)).count() as u64;
    Ok(Prepared {
        partition_and_run: count(&|r| matches!(r.path, "/v1/partition" | "/v1/run")),
        misses: count(&|r| r.class == Class::Miss),
        server,
        lists,
    })
}

/// One connection's closed loop: each request waits for the previous reply.
fn connection(
    addr: &str,
    list: &[Request],
    first_id: usize,
    mut rec: Recorder,
) -> (Vec<Sample>, Recorder) {
    let client = Client::new(addr.to_string());
    let mut samples = Vec::with_capacity(list.len());
    for (k, request) in list.iter().enumerate() {
        let span = rec.begin(request.class.span(), first_id + k);
        let start = Instant::now();
        let reply = client.post(request.path, &request.body);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        rec.end(span);
        let verdict = check(reply, &request.expect);
        if let Err(e) = &verdict {
            eprintln!(
                "serve request {} ({}) failed: {e}",
                first_id + k,
                request.class.name()
            );
        }
        samples.push(Sample {
            class: request.class.name().to_string(),
            ms,
            ok: verdict.is_ok(),
        });
    }
    (samples, rec)
}

pub fn run(prepared: Prepared, rec: &mut Recorder) -> Result<Outcome, String> {
    let addr = prepared.server.addr().to_string();
    let mark = rcp_trace::snapshot();
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let mut first_id = 0;
        let handles: Vec<_> = prepared
            .lists
            .iter()
            .map(|list| {
                let (addr, fork) = (addr.as_str(), rec.fork());
                let handle = scope.spawn(move || connection(addr, list, first_id, fork));
                first_id += list.len();
                handle
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let timed_s = start.elapsed().as_secs_f64();
    let delta = rcp_trace::snapshot().delta_since(&mark);
    let Prepared {
        server,
        partition_and_run,
        misses,
        ..
    } = prepared;
    server.shutdown();
    server.join();

    let mut samples = Vec::new();
    for result in results {
        let (connection_samples, fork) = result.map_err(|_| "a client connection panicked")?;
        rec.absorb(fork);
        samples.extend(connection_samples);
    }
    let mut by_class: HashMap<&str, Vec<f64>> = HashMap::new();
    for sample in &samples {
        by_class.entry(&sample.class).or_default().push(sample.ms);
    }
    for class in Class::ALL {
        require(
            &format!("serve: {} requests", class.name()),
            by_class.get(class.name()).map_or(0, |v| v.len() as u64),
        )?;
    }
    let hits = delta.counter("serve.cache.hits");
    let cache_misses = delta.counter("serve.cache.misses");
    let evictions = delta.counter("serve.cache.evictions");
    let instantiate = delta.counter("serve.plan.instantiate");
    require("serve: cache evictions", evictions)?;
    require("serve: plan instantiations", instantiate)?;
    // The cache design above fixes these counts; anything else means a
    // warm entry was evicted and the run depended on interleaving.
    let expected_evictions = misses.saturating_sub(SLACK as u64);
    if cache_misses != misses || evictions != expected_evictions {
        return Err(format!(
            "cache counts depend on interleaving: {cache_misses} misses (expected {misses}), \
             {evictions} evictions (expected {expected_evictions})"
        ));
    }
    let mut layers = Vec::new();
    if rec.on() {
        for class in Class::ALL {
            let ms = by_class.get(class.name()).map_or(0.0, |v| median(v));
            layers.push((format!("serve.{}_ms", class.name()), ms, "ms"));
        }
        layers.extend([
            (
                "serve.cache.hit_ratio".to_string(),
                ratio(hits as f64, (hits + cache_misses) as f64),
                "ratio",
            ),
            (
                "serve.cache.evictions".to_string(),
                evictions as f64,
                "count",
            ),
            (
                "serve.plan.instantiate_share".to_string(),
                ratio(instantiate as f64, partition_and_run as f64),
                "share",
            ),
            (
                "serve.rejected".to_string(),
                (delta.counter("serve.requests.rejected")
                    + delta.counter("serve.requests.panicked")) as f64,
                "count",
            ),
        ]);
    }
    Ok(Outcome {
        timed_s,
        untimed: Vec::new(),
        layers,
        counts: vec![
            ("ops".to_string(), samples.len() as u64),
            ("serve.cache.hits".to_string(), hits),
            ("serve.cache.misses".to_string(), cache_misses),
            ("serve.cache.evictions".to_string(), evictions),
            ("serve.plan.instantiate".to_string(), instantiate),
        ],
        samples,
    })
}

#[cfg(test)]
impl Prepared {
    /// Replaces the expected body of the first checked-body request of
    /// the first connection.
    pub fn corrupt_expected_body(&mut self) {
        if let Some(request) = self.lists[0]
            .iter_mut()
            .find(|r| matches!(r.expect, Expect::Body(_)))
        {
            request.expect = Expect::Body(Arc::new("corrupt".to_string()));
        }
    }
}
