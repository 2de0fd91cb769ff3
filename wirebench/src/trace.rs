//! The traced run's in-process half: replays a workload's request
//! stream through each layer's public entry points, recording spans
//! around the calls. Nothing inside the program is instrumented; a
//! span covers exactly one call from here into a layer.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use tpn::{CompiledLoop, SchedulePolicy};
use tpn_service::protocol::{self, Request, Verb};
use tpn_service::{Service, ServiceConfig};

use crate::gen::Stream;

/// Requests whose spans the Chrome trace keeps; the metrics use all.
pub const CHROME_REQUESTS: u64 = 2_000;

/// One recorded call.
pub struct Span {
    pub name: &'static str,
    /// Stream index of the request the call served.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Spans and per-call counts, kept in memory until the run ends.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    pub counts: HashMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
            counts: HashMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`close`](Self::close) ends.
    fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, request, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    /// Records a span measured elsewhere (a transport round trip).
    pub fn record(&mut self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            request,
            start_ns,
            end_ns,
            parent: None,
        });
    }

    /// Records one per-call count.
    pub fn count(&mut self, name: &'static str, value: usize) {
        self.counts.entry(name).or_default().push(value as f64);
    }

    /// Durations of every span named `name`, microseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// The spans of the first [`CHROME_REQUESTS`] requests as Chrome
    /// trace-event JSON: one track per layer (the span name up to its
    /// last dot), the request index in `args`.
    pub fn chrome_json(&self) -> String {
        let mut layers: Vec<&str> = Vec::new();
        let mut events = Vec::new();
        for span in self.spans.iter().filter(|s| s.request < CHROME_REQUESTS) {
            let layer = span.name.rsplit_once('.').map_or(span.name, |(l, _)| l);
            let tid = match layers.iter().position(|&l| l == layer) {
                Some(tid) => tid,
                None => {
                    layers.push(layer);
                    layers.len() - 1
                }
            };
            let parent = span
                .parent
                .map_or("null".to_string(), |p| self.spans[p].name.to_string());
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\"args\":{{\"request\":{},\"parent\":\"{parent}\"}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.request,
            ));
        }
        for (tid, layer) in layers.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{layer}\"}}}}"
            ));
        }
        format!("{{\"traceEvents\":[{}]}}", events.join(",\n"))
    }
}

/// What the in-process replay measured.
pub struct Replay {
    /// Requests replayed (stream indices `0..n`).
    pub n: u64,
    /// Per request: the summed duration of the layer calls the server
    /// makes for it, microseconds.
    pub layer_sum_us: Vec<f64>,
    /// `Service::call` times over the same requests in a second pass
    /// that records no spans and runs no layer calls beside them, µs.
    pub untraced_call_us: Vec<f64>,
}

/// Spans whose time the server spends on a request. `service.call`
/// and `core.compile` repeat work their siblings already time.
const SERVER_LAYERS: [&str; 13] = [
    "service.protocol.parse_request",
    "service.protocol.cache_key",
    "lang.parse",
    "lang.lower",
    "dataflow.to_petri",
    "petri.critical_ratio",
    "sched.analytic_schedule",
    "sched.frustum",
    "sched.scp",
    "sched.replay_trace",
    "storage.minimize",
    "service.protocol.payload",
    "service.protocol.serialise",
];

fn new_service() -> Service {
    let config = ServiceConfig::builder()
        .journal(256)
        .build()
        .expect("the default service configuration is valid");
    Service::start(config)
}

/// Replays stream indices `0..` for up to `budget`, with spans. With
/// `probe_frustum`, frustum detection is also timed on every newly
/// compiled loop, beside the request (it is not part of the request's
/// layer sum): the way to see detection at a size whose wire stream
/// leaves it out.
pub fn replay(
    stream: &Stream,
    tracer: &mut Tracer,
    budget: Duration,
    probe_frustum: bool,
) -> Result<Replay, String> {
    let started = Instant::now();
    let service = new_service();
    let mut warmed: HashMap<u64, Arc<CompiledLoop>> = HashMap::new();
    let mut done = HashSet::new();
    let mut layer_sum_us = Vec::new();
    let mut n = 0;
    while n == 0 || started.elapsed() < budget {
        let root = tracer.spans.len();
        let compiled = replay_one(stream, n, tracer, &service, &mut warmed, &mut done)?;
        let sum_ns: u64 = tracer.spans[root..]
            .iter()
            .filter(|s| SERVER_LAYERS.contains(&s.name))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        layer_sum_us.push(sum_ns as f64 / 1e3);
        if let Some(lp) = compiled.filter(|_| probe_frustum) {
            time_frustum(tracer, n, root, &lp)?;
        }
        n += 1;
    }
    drop(warmed);
    drop(service);

    let untraced = new_service();
    let requests: Vec<Request> = (0..n)
        .map(|i| protocol::parse_request(&stream.line(i + 1, i)).expect("generated requests parse"))
        .collect();
    let mut untraced_call_us = Vec::with_capacity(requests.len());
    for request in requests {
        let started = Instant::now();
        untraced
            .call(request)
            .map_err(|e| format!("in-process call rejected: {e}"))?;
        untraced_call_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(Replay {
        n,
        layer_sum_us,
        untraced_call_us,
    })
}

/// Replays request `index` through the service and, beside it, through
/// each layer it touches, checking both render the same bytes. Returns
/// the loop when the front end compiled it for this request.
fn replay_one(
    stream: &Stream,
    index: u64,
    t: &mut Tracer,
    service: &Service,
    warmed: &mut HashMap<u64, Arc<CompiledLoop>>,
    done: &mut HashSet<(u64, Artifact)>,
) -> Result<Option<Arc<CompiledLoop>>, String> {
    let line = stream.line(index + 1, index);
    let root = t.open("request", index, None);
    let i = index;
    let req = t
        .span("service.protocol.parse_request", i, root, || {
            protocol::parse_request(&line)
        })
        .map_err(|e| format!("request {index} does not parse: {e}"))?;
    let key = t.span("service.protocol.cache_key", i, root, || {
        protocol::cache_key(&req.source, &req.options)
    });
    let response = t
        .span("service.call", i, root, || service.call(req.clone()))
        .map_err(|e| format!("in-process call rejected: {e}"))?;
    if !response.ok {
        return Err(format!(
            "request {index} failed in process: {}",
            response.line
        ));
    }

    let mut compiled = None;
    let lp = match warmed.get(&key).filter(|_| response.cache_hit) {
        Some(lp) => lp.clone(),
        None => {
            let lp = Arc::new(compile_by_layer(&req, i, root, t)?);
            if warmed.len() >= 4096 {
                warmed.clear();
                done.clear();
            }
            warmed.insert(key, lp.clone());
            done.retain(|(k, _)| *k != key);
            compiled = Some(lp.clone());
            lp
        }
    };
    verb_layers(&req, key, &lp, i, root, t, done)?;

    let rendered = match req.verb {
        Verb::Analyze => render(t, i, root, &req, || protocol::analyze_payload(&lp, None)),
        Verb::Schedule => render(t, i, root, &req, || {
            protocol::schedule_payload(&lp, req.depth, None)
        }),
        Verb::Scp => render(t, i, root, &req, || {
            protocol::schedule_payload(&lp, req.depth, None)
        }),
        Verb::Rate => render(t, i, root, &req, || {
            protocol::rate_payload(&lp, req.depth, None)
        }),
        Verb::Trace => render(t, i, root, &req, || {
            protocol::trace_payload(&lp, req.depth, None)
        }),
        Verb::Storage => render(t, i, root, &req, || protocol::storage_payload(&lp, None)),
        other => return Err(format!("verb {} is not replayed", other.as_str())),
    }?;
    if rendered != response.line {
        return Err(format!(
            "request {index}: layer-by-layer render differs from Service::call"
        ));
    }
    t.close(root);
    Ok(compiled)
}

/// Runs the front end one layer call at a time (a cache miss in the
/// server), then `CompiledLoop::from_source_with` as one call.
fn compile_by_layer(
    req: &Request,
    i: u64,
    root: usize,
    t: &mut Tracer,
) -> Result<CompiledLoop, String> {
    let err = |e: &dyn std::fmt::Display| format!("request {i}: {e}");
    let ast = t
        .span("lang.parse", i, root, || tpn::lang::parse(&req.source))
        .map_err(|e| err(&e))?;
    let sdsp = t
        .span("lang.lower", i, root, || tpn::lang::lower(&ast))
        .map_err(|e| err(&e))?;
    t.count("lang.nodes", sdsp.num_nodes());
    let pn = t.span("dataflow.to_petri", i, root, || {
        tpn::dataflow::to_petri::to_petri(&sdsp)
    });
    t.count("dataflow.places", pn.net.num_places());
    t.count("dataflow.transitions", pn.net.num_transitions());
    t.span("core.compile", i, root, || {
        CompiledLoop::from_source_with(&req.source, req.options.clone())
    })
    .map_err(|e| err(&e))
}

/// A memoized artifact of a compiled loop that a verb builds on first
/// use: the server pays for it once per cached loop.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Artifact {
    Ratio,
    Analytic,
    Frustum,
    Trace,
    Scp(u64),
    Storage,
}

/// Times the scheduling work `req` needs on `lp`, each artifact the
/// first time its loop needs it.
fn verb_layers(
    req: &Request,
    key: u64,
    lp: &CompiledLoop,
    i: u64,
    root: usize,
    t: &mut Tracer,
    done: &mut HashSet<(u64, Artifact)>,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| format!("request {i}: {e}");
    let artifact = match (req.verb, req.depth) {
        (Verb::Scp | Verb::Schedule | Verb::Rate | Verb::Trace, Some(depth)) => {
            Artifact::Scp(depth)
        }
        (Verb::Analyze | Verb::Rate, None) => Artifact::Ratio,
        (Verb::Schedule, None) if lp.engine() == SchedulePolicy::Frustum => Artifact::Frustum,
        (Verb::Schedule, None) => Artifact::Analytic,
        (Verb::Trace, None) => Artifact::Trace,
        (Verb::Storage, _) => Artifact::Storage,
        _ => return Ok(()),
    };
    if !done.insert((key, artifact)) {
        return Ok(());
    }
    let (sdsp, pn) = (lp.sdsp(), lp.petri_net());
    match artifact {
        Artifact::Scp(depth) => {
            let run = t
                .span("sched.scp", i, root, || lp.scp(depth))
                .map_err(|e| err(&e))?;
            t.count("sched.scp_instants", run.frustum.stats.instants as usize);
        }
        Artifact::Ratio => {
            t.span("petri.critical_ratio", i, root, || {
                tpn::petri::ratio::critical_ratio(&pn.net, &pn.marking)
            })
            .map_err(|e| err(&e))?;
        }
        Artifact::Frustum => time_frustum(t, i, root, lp)?,
        Artifact::Analytic => {
            t.span("sched.analytic_schedule", i, root, || {
                tpn::sched::analytic_schedule(sdsp, pn)
            })
            .map_err(|e| err(&e))?;
        }
        Artifact::Trace => {
            time_frustum(t, i, root, lp)?;
            let trace = lp.firing_trace().map_err(|e| err(&e))?;
            t.span("sched.replay_trace", i, root, || {
                tpn::sched::validate::replay_trace(&pn.net, &pn.marking, &trace)
            })
            .map_err(|e| err(&e))?;
        }
        Artifact::Storage => {
            t.span("storage.minimize", i, root, || lp.storage())
                .map_err(|e| err(&e))?;
        }
    }
    Ok(())
}

/// Times frustum detection on `lp`'s net, with its size counts.
fn time_frustum(t: &mut Tracer, i: u64, root: usize, lp: &CompiledLoop) -> Result<(), String> {
    let pn = lp.petri_net();
    let report = t
        .span("sched.frustum", i, root, || {
            tpn::sched::detect_frustum_eager(&pn.net, pn.marking.clone(), lp.budget())
        })
        .map_err(|e| format!("request {i}: {e}"))?;
    t.count("sched.frustum_instants", report.stats.instants as usize);
    t.count(
        "sched.frustum_firings",
        report.counts.iter().sum::<u64>() as usize,
    );
    Ok(())
}

/// Renders a payload from a warmed loop: one untimed build fills the
/// loop's memoized artifacts, then the build and the serialisation
/// into the response envelope are timed apart.
fn render<T: Serialize>(
    t: &mut Tracer,
    i: u64,
    root: usize,
    req: &Request,
    build: impl Fn() -> Result<T, tpn::Error>,
) -> Result<String, String> {
    build().map_err(|e| format!("request {i}: {e}"))?;
    let payload = t
        .span("service.protocol.payload", i, root, &build)
        .map_err(|e| format!("request {i}: {e}"))?;
    let line = t.span("service.protocol.serialise", i, root, || {
        let json = serde_json::to_string(&payload).expect("shim serializer is infallible");
        protocol::ok_envelope(req.v, req.id, req.verb, &json)
    });
    t.count("service.protocol.response_bytes", line.len());
    Ok(line)
}
