//! Wire-level benchmark of the `tpnc` compile service.
//!
//! ```text
//! wirebench --workload NAME --seed N --seconds S --trace 0|1 --tpnc PATH
//! ```
//!
//! Drives real `tpnc serve` / `tpnc route` children from this one
//! process and checks every response. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` is the separate traced run that
//! splits the workload into layers. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`. A
//! fuller run record (seed, core count, commit, toolchain, quartiles and
//! sample counts, books) is written to `wirebench/out`, and a traced run
//! also writes its spans there as Chrome trace-event JSON.

mod check;
mod client;
mod fleet;
mod gen;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use check::{Books, Checker, Verdict};
use client::{Exchange, Ids};
use fleet::{Fleet, Io};
use gen::{Stream, Workload, WARMUP_BASE};
use stats::{summarize, Summary};
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 21;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tpnc: PathBuf,
    out: PathBuf,
}

/// Where run records, traces and server logs go, relative to the
/// repository root the benchmark runs from.
const OUT_DIR: &str = "wirebench/out";

impl Args {
    fn parse() -> Result<Args, String> {
        let mut flags: HashMap<String, String> = HashMap::new();
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            flags.insert(flag, value);
        }
        let mut take = |key: &str| flags.remove(key).ok_or(format!("missing {key}"));
        let workload = take("--workload")?;
        let args = Args {
            workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?,
            seed: take("--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?,
            seconds: take("--seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
            trace: match take("--trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other}")),
            },
            tpnc: take("--tpnc")?.into(),
            out: OUT_DIR.into(),
        };
        match flags.keys().next() {
            Some(flag) => Err(format!("unknown flag {flag}")),
            None => Ok(args),
        }
    }

    fn stem(&self) -> String {
        format!(
            "{}-s{}-t{}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        )
    }
}

/// One reported metric, with the sample behind it when there is one.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    sample: Option<Summary>,
}

fn metric(name: &str, unit: &'static str, value: f64, sample: Option<Summary>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        sample,
    }
}

/// A finished run: metrics, the correctness verdict and record notes.
struct Report {
    metrics: Vec<Metric>,
    verdict: Verdict,
    notes: Vec<(String, String)>,
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wirebench: {e}");
            eprintln!(
                "usage: wirebench --workload NAME --seed N --seconds S --trace 0|1 --tpnc PATH"
            );
            std::process::exit(2);
        }
    };
    let outcome = fleet::become_subreaper()
        .and_then(|()| std::fs::create_dir_all(&args.out).map_err(|e| e.to_string()))
        .and_then(|()| {
            if args.trace {
                traced(&args)
            } else {
                measure(&args)
            }
        });
    match outcome {
        Ok(report) => finish(&args, &report),
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(1);
        }
    }
}

fn spawn(args: &Args) -> Result<(Fleet, f64), String> {
    let log = args.out.join(format!("{}.stderr.log", args.stem()));
    Fleet::stdio(&args.tpnc, &log)
}

/// Drives `workload`'s load on `fleet` from `t0` for `seconds`.
fn load(
    fleet: &mut Fleet,
    workload: Workload,
    stream: &Stream,
    ids: &mut Ids,
    t0: Instant,
    seconds: f64,
) -> Result<Vec<Exchange>, String> {
    let until = t0 + Duration::from_secs_f64(seconds);
    let depth = workload.in_flight();
    client::closed_loop(fleet, stream, ids, 0.., depth, Some(until), t0)
}

/// Requests sent before the measured phase, so the server's lazy set-up
/// is done and its cache already evicts.
fn warm_up(
    fleet: &mut Fleet,
    workload: Workload,
    stream: &Stream,
    ids: &mut Ids,
) -> Result<Vec<Exchange>, String> {
    let count = match workload {
        Workload::ColdStdio => 200,
        Workload::LargeStdio => 2,
    };
    let indices = WARMUP_BASE..WARMUP_BASE + count;
    let depth = workload.in_flight();
    client::closed_loop(fleet, stream, ids, indices, depth, None, Instant::now())
}

/// Books check on a fleet after `logs` were exchanged with it. An
/// imbalance is returned as a failure description.
fn books(fleet: &mut Fleet, logs: &[&[Exchange]]) -> Result<(Books, Option<String>), String> {
    let per_server = fleet
        .server_metrics()?
        .iter()
        .map(|line| Books::parse(line))
        .collect::<Result<Vec<_>, _>>()?;
    let total = Books::total(&per_server);
    let mut received = 0;
    let mut ok = 0;
    let mut rejections: HashMap<String, u64> = HashMap::new();
    for ex in logs
        .iter()
        .flat_map(|l| l.iter())
        .filter(|ex| ex.recv_ns.is_some())
    {
        received += 1;
        match &ex.error {
            None => ok += 1,
            Some(kind) => *rejections.entry(kind.clone()).or_default() += 1,
        }
    }
    let imbalance = total.reconcile(fleet.sent, received, ok, &rejections).err();
    Ok((total, imbalance))
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The untraced run: the end-to-end metrics.
fn measure(args: &Args) -> Result<Report, String> {
    let stream = Stream::new(args.workload, args.seed);
    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUPS {
        drop(fleet.take()); // stop the previous one first: it owns the socket paths
        let (f, setup) = spawn(args)?;
        setups.push(setup);
        fleet = Some(f);
    }
    let mut fleet = fleet.expect("at least one set-up");
    let mut ids = Ids::new();
    let warm = warm_up(&mut fleet, args.workload, &stream, &mut ids)?;
    let before = fleet.sample()?;
    let steal_before = fleet::host_steal();
    let t0 = Instant::now();
    let phase = load(
        &mut fleet,
        args.workload,
        &stream,
        &mut ids,
        t0,
        args.seconds as f64,
    )?;
    let steal = fleet::steal_share(steal_before, fleet::host_steal());
    let procs = fleet.sample()?;
    // The kernels `cycles_per_iter` is taken over that the measured phase
    // did not reach, sent after it, so the figure does not depend on
    // how many requests a run completes.
    let kernels = stream.kernel_indices();
    let answered: std::collections::HashSet<u64> = phase.iter().map(|ex| ex.index).collect();
    let rest: Vec<u64> = kernels
        .iter()
        .copied()
        .filter(|i| !answered.contains(i))
        .collect();
    let topped = client::closed_loop(
        &mut fleet,
        &stream,
        &mut ids,
        rest.into_iter(),
        args.workload.in_flight(),
        None,
        t0,
    )?;
    let (books, imbalance) = books(&mut fleet, &[&warm, &phase, &topped])?;
    drop(fleet);

    let check_started = Instant::now();
    let mut checker = Checker::new();
    let mut verdict = checker.check(&stream, &warm);
    verdict.merge(checker.check(&stream, &phase));
    verdict.merge(checker.check(&stream, &topped));
    if let Some(imbalance) = imbalance {
        verdict.fail(imbalance);
    }
    // A kernel request that failed is counted above; the figure is taken
    // over the rest.
    let iis: Vec<f64> = kernels
        .iter()
        .filter_map(|i| verdict.iis.get(i).copied())
        .collect();
    let check_seconds = check_started.elapsed().as_secs_f64();

    let done: Vec<&Exchange> = phase
        .iter()
        .filter(|ex| ex.recv_ns.is_some() && ex.error.is_none())
        .collect();
    let end_ns = done.iter().filter_map(|ex| ex.recv_ns).max().unwrap_or(1);
    let throughput = done.len() as f64 / (end_ns as f64 / 1e9);
    let latency = summarize(done.iter().filter_map(|ex| ex.latency_us()).collect());
    let setup = summarize(setups);
    let ii = summarize(iis.clone());
    let metrics = vec![
        metric(
            "throughput_rps",
            "req/s",
            throughput,
            Some(summarize(per_second(&done))),
        ),
        metric("latency_p50_us", "us", latency.p50, Some(latency)),
        metric("latency_tail_us", "us", latency.tail, Some(latency)),
        metric("setup_s", "s", setup.p50, Some(setup)),
        metric("peak_rss_mb", "MiB", procs.hwm_kib as f64 / 1024.0, None),
        metric("cycles_per_iter", "cycles", geomean(&iis), Some(ii)),
    ];
    let notes = vec![
        (
            "kernel_requests".into(),
            format!(
                "{}, {} sent after the measured phase",
                kernels.len(),
                topped.len()
            ),
        ),
        (
            "latency_tail_percentile".into(),
            latency.tail_pct.to_string(),
        ),
        ("latency_samples".into(), latency.n.to_string()),
        ("error_rate".into(), rate(&verdict).to_string()),
        ("oracle_checked".into(), checker.oracle_checked.to_string()),
        ("oracle_skipped".into(), checker.oracle_skipped.to_string()),
        ("check_seconds".into(), check_seconds.to_string()),
        ("host_steal_share".into(), steal.to_string()),
        ("books".into(), format!("{books:?}")),
        ("server_threads".into(), procs.threads.to_string()),
        (
            "server_cpu_us_per_req".into(),
            ((procs.cpu_us - before.cpu_us) as f64 / done.len().max(1) as f64).to_string(),
        ),
    ];
    Ok(Report {
        metrics,
        verdict,
        notes,
    })
}

/// Successful responses in each whole second of a measured phase.
fn per_second(done: &[&Exchange]) -> Vec<f64> {
    let mut counts: Vec<f64> = Vec::new();
    for ex in done {
        let second = (ex.recv_ns.unwrap_or(0) / 1_000_000_000) as usize;
        if counts.len() <= second {
            counts.resize(second + 1, 0.0);
        }
        counts[second] += 1.0;
    }
    counts.pop(); // the last second is partial
    counts
}

fn rate(verdict: &Verdict) -> f64 {
    verdict.failed as f64 / verdict.attempted.max(1) as f64
}

/// Reads `queue_wait_micros` of every completed event in `journal`
/// reply lines.
fn queue_waits(journals: &[String]) -> Vec<f64> {
    use tpn_service::protocol::{parse_json, JsonValue};
    let mut waits = Vec::new();
    for line in journals {
        let Ok(value) = parse_json(line) else {
            continue;
        };
        let Some(JsonValue::Arr(events)) = value.get("payload").and_then(|p| p.get("events"))
        else {
            continue;
        };
        for event in events {
            if let (Some(JsonValue::Num(wait)), Some(JsonValue::Str(outcome))) =
                (event.get("queue_wait_micros"), event.get("outcome"))
            {
                if outcome == "ok" {
                    waits.push(*wait);
                }
            }
        }
    }
    waits
}

/// Layer timings reported as p50, tail, call count and busy time.
const TIMED_LAYERS: [&str; 15] = [
    "service.protocol.parse_request",
    "service.protocol.cache_key",
    "service.protocol.payload",
    "service.protocol.serialise",
    "service.call",
    "core.compile",
    "lang.parse",
    "lang.lower",
    "dataflow.to_petri",
    "petri.critical_ratio",
    "sched.analytic_schedule",
    "sched.frustum",
    "sched.scp",
    "sched.replay_trace",
    "storage.minimize",
];

/// Per-call counts reported as their median.
const COUNTED: [&str; 7] = [
    "lang.nodes",
    "dataflow.places",
    "dataflow.transitions",
    "sched.frustum_instants",
    "sched.frustum_firings",
    "sched.scp_instants",
    "service.protocol.response_bytes",
];

fn timing(metrics: &mut Vec<Metric>, name: &str, sample: Vec<f64>) {
    let s = summarize(sample);
    metrics.push(metric(&format!("{name}_us.p50"), "us", s.p50, Some(s)));
    metrics.push(metric(&format!("{name}_us.tail"), "us", s.tail, Some(s)));
    metrics.push(metric(
        &format!("{name}_us.calls"),
        "count",
        s.n as f64,
        None,
    ));
    metrics.push(metric(
        &format!("{name}_us.busy_ms"),
        "ms",
        s.sum / 1e3,
        None,
    ));
}

/// The traced run: a loaded phase scraped from outside, an in-process
/// replay with spans, one-in-flight round trips over the transport and,
/// on `cold-stdio`, the router hop.
fn traced(args: &Args) -> Result<Report, String> {
    let stream = Stream::new(args.workload, args.seed);
    let seconds = args.seconds as f64;
    let t0 = Instant::now();
    let mut tracer = Tracer::new(t0);
    let mut checker = Checker::new();
    let mut verdict = Verdict::default();

    // Part 1: the workload's own load, observed through /proc and the
    // metrics and journal verbs.
    let (mut fleet, _) = spawn(args)?;
    let mut ids = Ids::new();
    let before = fleet.sample()?;
    let loaded = load(
        &mut fleet,
        args.workload,
        &stream,
        &mut ids,
        Instant::now(),
        0.35 * seconds,
    )?;
    let after = fleet.sample()?;
    let journals = fleet.server_journals()?;
    let (loaded_books, imbalance) = books(&mut fleet, &[&loaded])?;
    drop(fleet);
    verdict.merge(checker.check(&stream, &loaded));
    if let Some(imbalance) = imbalance {
        verdict.fail(imbalance);
    }
    let completed = loaded
        .iter()
        .filter(|ex| ex.error.is_none() && ex.recv_ns.is_some())
        .count();

    // Part 2: the same stream in process, layer by layer.
    let replay = trace::replay(
        &stream,
        &mut tracer,
        Duration::from_secs_f64(0.35 * seconds),
        args.workload == Workload::LargeStdio,
    )?;

    // Part 3: one request in flight over the real transport, from a
    // fresh fleet, over the replayed prefix.
    let (mut fleet, _) = spawn(args)?;
    let mut ids = Ids::new();
    let budget = Duration::from_secs_f64(0.3 * seconds);
    let prefix: Vec<u64> = (0..replay.n).collect();
    let stdio_budget = match args.workload {
        Workload::ColdStdio => budget / 2,
        _ => budget,
    };
    let first = client::closed_loop(
        &mut fleet,
        &stream,
        &mut ids,
        prefix.iter().copied(),
        1,
        Some(Instant::now() + stdio_budget),
        t0,
    )?;
    for ex in &first {
        tracer.record(
            "cli.round_trip",
            ex.index,
            ex.sent_ns,
            ex.recv_ns.unwrap_or(ex.sent_ns),
        );
    }
    let (_, imbalance) = books(&mut fleet, &[&first])?;
    drop(fleet);
    verdict.merge(checker.check(&stream, &first));
    if let Some(imbalance) = imbalance {
        verdict.fail(imbalance);
    }

    // Part 4, on cold-stdio only: the router hop, on a fresh
    // `tpnc route --shards 2`. No workload's end-to-end run goes through
    // the router: its latency tail swings with the shared host's speed
    // by more than any bound a benchmark may set.
    let route_hop = match args.workload {
        Workload::ColdStdio => route_hop(
            args,
            &stream,
            &prefix,
            budget / 2,
            &mut tracer,
            &mut checker,
            &mut verdict,
            t0,
        )?,
        _ => 0.0,
    };

    // The per-layer metrics.
    let mut metrics = Vec::new();
    for name in TIMED_LAYERS {
        timing(&mut metrics, name, tracer.durations(name));
    }
    timing(&mut metrics, "service.queue_wait", queue_waits(&journals));
    let rtt = tracer.durations("cli.round_trip");
    timing(&mut metrics, "cli.round_trip", rtt.clone());
    let call_p50 = summarize(tracer.durations("service.call")).p50;
    let p50 = |v: Vec<f64>| summarize(v).p50;
    let unattributed: Vec<f64> = first
        .iter()
        .filter_map(|ex| Some(ex.latency_us()? - replay.layer_sum_us.get(ex.index as usize)?))
        .collect();
    let hits = loaded_books.cache_hits as f64;
    let lookups = (loaded_books.cache_hits + loaded_books.cache_misses).max(1) as f64;
    let failures = |kind: &str| verdict.rejections.get(kind).copied().unwrap_or(0) as f64;
    metrics.extend([
        metric("cli.wire_us", "us", p50(rtt) - call_p50, None),
        metric("cli.route_hop_us", "us", route_hop, None),
        metric(
            "cli.server_cpu_us_per_req",
            "us",
            (after.cpu_us - before.cpu_us) as f64 / completed.max(1) as f64,
            None,
        ),
        metric("cli.threads", "count", after.threads as f64, None),
        metric("service.cache.hit_ratio", "ratio", hits / lookups, None),
        metric(
            "service.cache.entries",
            "count",
            loaded_books.cache_entries as f64,
            None,
        ),
        metric(
            "service.failed.overloaded",
            "count",
            failures("overloaded"),
            None,
        ),
        metric(
            "service.failed.rate_limited",
            "count",
            failures("rate_limited"),
            None,
        ),
        metric("service.failed.compile", "count", failures("compile"), None),
        metric(
            "service.failed.unavailable",
            "count",
            failures("unavailable"),
            None,
        ),
        metric("trace.unattributed_us", "us", p50(unattributed), None),
        metric(
            "trace.overhead_us",
            "us",
            call_p50 - p50(replay.untraced_call_us),
            None,
        ),
        metric("error_rate", "ratio", rate(&verdict), None),
    ]);
    for name in COUNTED {
        let sample = tracer.counts.get(name).cloned().unwrap_or_default();
        let unit = if name.ends_with("bytes") {
            "bytes"
        } else {
            "count"
        };
        let s = summarize(sample);
        metrics.push(metric(name, unit, s.p50, Some(s)));
    }

    let trace_path = args.out.join(format!("{}.trace.json", args.stem()));
    std::fs::write(&trace_path, tracer.chrome_json())
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    let notes = vec![
        ("replayed_requests".into(), replay.n.to_string()),
        ("round_trips".into(), first.len().to_string()),
        ("trace_file".into(), trace_path.display().to_string()),
        ("oracle_checked".into(), checker.oracle_checked.to_string()),
        ("oracle_skipped".into(), checker.oracle_skipped.to_string()),
        ("books".into(), format!("{loaded_books:?}")),
    ];
    Ok(Report {
        metrics,
        verdict,
        notes,
    })
}

/// Sends `prefix` through a fresh router once to fill the shards'
/// caches, then again through the router and straight to the shard the
/// router picks for each request, within `budget`. Returns the p50
/// difference between the routed and the direct round trips.
#[allow(clippy::too_many_arguments)]
fn route_hop(
    args: &Args,
    stream: &Stream,
    prefix: &[u64],
    budget: Duration,
    tracer: &mut Tracer,
    checker: &mut Checker,
    verdict: &mut Verdict,
    t0: Instant,
) -> Result<f64, String> {
    let log = args.out.join(format!("{}.route.stderr.log", args.stem()));
    let front = args.out.join(format!("r{}.sock", std::process::id()));
    let (mut fleet, _) = Fleet::route(&args.tpnc, &front, &log)?;
    let Io::Route { shards, .. } = &fleet.io else {
        unreachable!("Fleet::route returns a route fleet")
    };
    let shards = shards.clone();
    let mut ids = Ids::new();
    let until = Instant::now() + budget / 3;
    let fill = client::round_trips_socket(&front, stream, &mut ids, prefix, until, t0)?;
    let done: Vec<u64> = fill.iter().map(|ex| ex.index).collect();
    let until = Instant::now() + budget / 3;
    let routed = client::round_trips_socket(&front, stream, &mut ids, &done, until, t0)?;
    let mut direct = Vec::new();
    for (s, shard) in shards.iter().enumerate() {
        let mine: Vec<u64> = routed
            .iter()
            .map(|ex| ex.index)
            .filter(|&i| shard_of(stream, i, shards.len()) == s)
            .collect();
        let until = Instant::now() + budget / (3 * shards.len() as u32);
        direct.extend(client::round_trips_socket(
            shard, stream, &mut ids, &mine, until, t0,
        )?);
    }
    for (name, log) in [("cli.route_warm", &routed), ("cli.route_direct", &direct)] {
        for ex in log.iter() {
            tracer.record(name, ex.index, ex.sent_ns, ex.recv_ns.unwrap_or(ex.sent_ns));
        }
    }
    fleet.sent += (fill.len() + routed.len() + direct.len()) as u64;
    let (_, imbalance) = books(&mut fleet, &[&fill, &routed, &direct])?;
    drop(fleet);
    for log in [&fill, &routed, &direct] {
        verdict.merge(checker.check(stream, log));
    }
    if let Some(imbalance) = imbalance {
        verdict.fail(imbalance);
    }
    let p50 = |v: Vec<f64>| summarize(v).p50;
    Ok(p50(tracer.durations("cli.route_warm")) - p50(tracer.durations("cli.route_direct")))
}

/// The shard `tpnc route` forwards request `index` to.
fn shard_of(stream: &Stream, index: u64, shards: usize) -> usize {
    let request = tpn_service::protocol::parse_request(&stream.line(0, index))
        .expect("generated requests parse");
    (tpn_service::protocol::cache_key(&request.source, &request.options) % shards as u64) as usize
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    serde::write_json_string(s, &mut out);
    out
}

/// Writes the run record, prints the per-layer table and the result.
fn finish(args: &Args, report: &Report) {
    let correct = report.verdict.failed == 0;
    for sample in &report.verdict.samples {
        eprintln!("wirebench: FAILED {sample}");
    }
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut record = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"nproc\":{nproc},\"commit\":{},\"source_digest\":{},\"rustc\":{},\"run_seconds\":{},\"setups_per_run\":{SETUPS},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{{",
        json_str(args.workload.name()),
        args.seed,
        args.trace,
        json_str(&env("WIREBENCH_COMMIT")),
        json_str(&env("WIREBENCH_SOURCE")),
        json_str(&env("WIREBENCH_RUSTC")),
        args.seconds,
        report.verdict.attempted,
        report.verdict.failed,
        report.verdict.samples.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(","),
    );
    let rows: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let sample = m.sample.map_or(String::new(), |s| {
                format!(
                    ",\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"tail_percentile\":{}",
                    s.p50, s.q1, s.q3, s.n, s.tail_pct
                )
            });
            format!(
                "{}:{{\"value\":{},\"unit\":{}{sample}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    record.push_str(&rows.join(","));
    record.push_str("},\"notes\":{");
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    record.push_str(&notes.join(","));
    record.push_str("}}\n");
    let path = args.out.join(format!("{}.json", args.stem()));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("wirebench: writing {}: {e}", path.display());
    }

    println!("{:<44} {:>14} {:>8}", "metric", "value", "unit");
    for m in &report.metrics {
        println!("{:<44} {:>14.3} {:>8}", m.name, m.value, m.unit);
    }
    for (k, v) in &report.notes {
        println!("# {k}: {v}");
    }
    let result: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.verdict.attempted.max(1),
        report.verdict.failed,
        result.join(",")
    );
}
