//! The correctness gate and the books check.
//!
//! Every response must be byte-identical to what an in-process
//! [`Service::call`] renders for the same request. For small loops the
//! exact initiation interval of each `schedule` response and the rates
//! of each `rate` response must also equal the optimum found by
//! enumerating every simple cycle of the net
//! ([`tpn::petri::ratio::analyze_cycles`]), which shares no code with
//! the scheduler.

use std::collections::HashMap;

use tpn::petri::rational::Ratio;
use tpn_service::protocol::{self, JsonValue};
use tpn_service::{Service, ServiceConfig};

use crate::client::{split_id, tail_hash, Exchange};
use crate::gen::Stream;

/// Loops up to this many SDSP nodes are inside the oracle's gate.
const ORACLE_NODES: usize = 40;

/// Cycle-enumeration cap; a net with more simple cycles is outside the
/// gate.
const ORACLE_CYCLES: usize = 20_000;

/// Requests kept in flight at the reference service (below its
/// admission-queue capacity).
const BATCH: usize = 48;

/// What the in-process service answers for one request body.
struct Reference {
    tail_hash: u64,
    /// The kernel's initiation interval (`schedule` and `scp` verbs).
    ii: Option<f64>,
    /// Why the reference itself is wrong, if it is.
    defect: Option<String>,
}

/// Whether the oracle could check a reference.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Oracle {
    NotApplicable,
    Checked,
    OutsideGate,
}

/// Reference responses, computed once per distinct request body.
pub struct Checker {
    service: Service,
    refs: HashMap<String, Reference>,
    /// References the cycle-enumeration oracle confirmed or refuted.
    pub oracle_checked: u64,
    /// `schedule`/`rate` references outside the oracle's gate.
    pub oracle_skipped: u64,
}

/// The outcome of checking a set of exchanges.
#[derive(Default)]
pub struct Verdict {
    /// Exchanges checked.
    pub attempted: u64,
    /// Exchanges that failed: missing, typed rejection, or wrong bytes.
    pub failed: u64,
    /// Typed rejections by error kind.
    pub rejections: HashMap<String, u64>,
    /// Up to a few failure descriptions.
    pub samples: Vec<String>,
    /// Initiation interval of each correct `schedule`/`scp` response,
    /// by request index.
    pub iis: HashMap<u64, f64>,
}

impl Verdict {
    /// Counts one failure and keeps its description.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.samples.len() < 5 {
            self.samples.push(message);
        }
    }

    /// Folds another verdict into this one.
    pub fn merge(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (kind, n) in other.rejections {
            *self.rejections.entry(kind).or_default() += n;
        }
        for s in other.samples {
            if self.samples.len() < 5 {
                self.samples.push(s);
            }
        }
        self.iis.extend(other.iis);
    }
}

impl Checker {
    /// A checker with its own in-process service, configured as
    /// `tpnc serve` configures its own.
    pub fn new() -> Checker {
        let config = ServiceConfig::builder()
            .journal(256)
            .build()
            .expect("the default service configuration is valid");
        Checker {
            service: Service::start(config),
            refs: HashMap::new(),
            oracle_checked: 0,
            oracle_skipped: 0,
        }
    }

    /// Checks every exchange against the reference for its body. Bodies
    /// are regenerated rather than stored, so a long run's log stays
    /// small.
    pub fn check(&mut self, stream: &Stream, log: &[Exchange]) -> Verdict {
        let mut missing: Vec<String> = log
            .iter()
            .map(|ex| stream.body(ex.index))
            .filter(|body| !self.refs.contains_key(body))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        self.prepare(missing);
        let mut verdict = Verdict::default();
        for ex in log {
            verdict.attempted += 1;
            let body = stream.body(ex.index);
            let reference = &self.refs[&body];
            if let Some(defect) = &reference.defect {
                verdict.fail(format!("request {}: {defect}", ex.index));
            } else if ex.recv_ns.is_none() {
                verdict.fail(format!("request {} (id {}): no response", ex.index, ex.id));
            } else if let Some(kind) = &ex.error {
                *verdict.rejections.entry(kind.clone()).or_default() += 1;
                verdict.fail(format!("request {} (id {}): error {kind}", ex.index, ex.id));
            } else if ex.tail_hash != reference.tail_hash {
                verdict.fail(format!(
                    "request {} (id {}): response differs from the in-process reference",
                    ex.index, ex.id
                ));
            } else if let Some(ii) = reference.ii {
                verdict.iis.insert(ex.index, ii);
            }
        }
        verdict
    }

    /// Computes the references for `bodies`. The service's worker pool
    /// renders the lines with its queue kept fed, while this thread
    /// analyses each finished line.
    fn prepare(&mut self, bodies: Vec<String>) {
        let mut pending = std::collections::VecDeque::new();
        for body in bodies {
            if pending.len() == BATCH {
                let (body, ticket) = pending.pop_front().expect("queue is full");
                self.settle(body, ticket);
            }
            let request = protocol::parse_request(&format!("{{\"id\":0,{body}}}"))
                .expect("generated requests parse");
            let ticket = self
                .service
                .submit(request)
                .expect("the reference queue never exceeds its capacity");
            pending.push_back((body, ticket));
        }
        for (body, ticket) in pending {
            self.settle(body, ticket);
        }
    }

    fn settle(&mut self, body: String, ticket: tpn_service::Ticket) {
        let (reference, oracle) = reference(&body, &ticket.wait().line);
        match oracle {
            Oracle::Checked => self.oracle_checked += 1,
            Oracle::OutsideGate => self.oracle_skipped += 1,
            Oracle::NotApplicable => {}
        }
        self.refs.insert(body, reference);
    }
}

/// Analyses one reference line: its hash, its initiation interval, and
/// the oracle's verdict on its schedule or rates.
fn reference(body: &str, line: &str) -> (Reference, Oracle) {
    let tail = split_id(line).map_or("", |(_, tail)| tail);
    let mut reference = Reference {
        tail_hash: tail_hash(tail),
        ii: None,
        defect: None,
    };
    if !tail.starts_with("\"ok\":true,") {
        reference.defect = Some(format!("in-process reference failed: {line}"));
        return (reference, Oracle::NotApplicable);
    }
    // Only schedules and rates carry what the gate reads.
    let rest = &tail["\"ok\":true,".len()..];
    if !["schedule", "scp", "rate"]
        .iter()
        .any(|verb| rest.starts_with(&format!("\"verb\":\"{verb}\"")))
    {
        return (reference, Oracle::NotApplicable);
    }
    let value = match protocol::parse_json(line) {
        Ok(value) => value,
        Err(e) => {
            reference.defect = Some(format!("reference does not parse: {e}"));
            return (reference, Oracle::NotApplicable);
        }
    };
    let payload = value.get("payload");
    let ratio = |key: &str| -> Option<(u64, u64)> {
        let r = payload?.get(key)?;
        match (r.get("num")?, r.get("den")?) {
            (JsonValue::Num(n), JsonValue::Num(d)) => Some((*n as u64, *d as u64)),
            _ => None,
        }
    };
    let verb = match value.get("verb") {
        Some(JsonValue::Str(verb)) => verb.clone(),
        _ => String::new(),
    };
    let scp = !matches!(
        payload.and_then(|p| p.get("scp_depth")),
        Some(JsonValue::Null)
    );
    let (oracle, outcome) = match verb.as_str() {
        "schedule" | "scp" => {
            let Some(ii) = ratio("initiation_interval_rational") else {
                reference.defect = Some("schedule without an initiation interval".into());
                return (reference, Oracle::NotApplicable);
            };
            reference.ii = Some(ii.0 as f64 / ii.1 as f64);
            if verb != "schedule" || scp {
                return (reference, Oracle::NotApplicable);
            }
            oracle(body, |(cycle_time, _)| {
                (ii == cycle_time).then_some(()).ok_or(format!(
                    "initiation interval {ii:?} is not the optimum {cycle_time:?}"
                ))
            })
        }
        "rate" if !scp => {
            let measured = ratio("measured_rational");
            let optimal = ratio("optimal_rational");
            oracle(body, |(_, rate)| {
                (measured == Some(rate) && optimal == Some(rate))
                    .then_some(())
                    .ok_or(format!(
                        "rates {measured:?} and {optimal:?} are not the optimum {rate:?}"
                    ))
            })
        }
        _ => (Oracle::NotApplicable, Ok(())),
    };
    reference.defect = outcome.err();
    (reference, oracle)
}

/// Runs `test` on the oracle's `(cycle time, rate)` for the loop in
/// `body` when it is inside the gate.
fn oracle(
    body: &str,
    test: impl FnOnce(((u64, u64), (u64, u64))) -> Result<(), String>,
) -> (Oracle, Result<(), String>) {
    let outside = (Oracle::OutsideGate, Ok(()));
    let Ok(request) = protocol::parse_request(&format!("{{\"id\":0,{body}}}")) else {
        return outside;
    };
    let Ok(sdsp) = tpn::lang::compile(&request.source) else {
        return outside;
    };
    if sdsp.num_nodes() > ORACLE_NODES || request.options.get_node_time().is_some() {
        return outside;
    }
    let pn = tpn::dataflow::to_petri::to_petri(&sdsp);
    match tpn::petri::ratio::analyze_cycles(&pn.net, &pn.marking, ORACLE_CYCLES) {
        Ok(a) => {
            let pair = |r: Ratio| (r.numer(), r.denom());
            (Oracle::Checked, test((pair(a.cycle_time), pair(a.rate))))
        }
        Err(_) => outside,
    }
}

/// The counters of one server's `metrics` payload the books need.
#[derive(Clone, Debug, Default)]
pub struct Books {
    pub accepted: u64,
    pub completed: u64,
    pub overloaded: u64,
    pub rate_limited: u64,
    /// Failed compile-verb requests (deadline, cancel, panic, compile).
    pub failed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_entries: u64,
}

impl Books {
    /// Reads the counters off a `metrics` response line.
    pub fn parse(line: &str) -> Result<Books, String> {
        let value = protocol::parse_json(line).map_err(|e| format!("metrics reply: {e}"))?;
        let payload = value
            .get("payload")
            .ok_or("metrics reply without payload")?;
        let num = |v: Option<&JsonValue>| match v {
            Some(JsonValue::Num(n)) => *n as u64,
            _ => 0,
        };
        let field = |key: &str| num(payload.get(key));
        let cache = payload.get("cache");
        let failed = match payload.get("per_verb") {
            Some(JsonValue::Arr(rows)) => rows
                .iter()
                .filter(|row| {
                    !matches!(row.get("verb"), Some(JsonValue::Str(v)) if v.starts_with("metrics") || v == "journal")
                })
                .map(|row| num(row.get("failed")))
                .sum(),
            _ => 0,
        };
        Ok(Books {
            accepted: field("accepted"),
            completed: field("completed"),
            overloaded: field("rejected_overloaded"),
            rate_limited: field("rate_limited"),
            failed,
            cache_hits: num(cache.and_then(|c| c.get("hits"))),
            cache_misses: num(cache.and_then(|c| c.get("misses"))),
            cache_entries: num(cache.and_then(|c| c.get("entries"))),
        })
    }

    /// Sums the books of several servers.
    pub fn total(all: &[Books]) -> Books {
        let mut t = Books::default();
        for b in all {
            t.accepted += b.accepted;
            t.completed += b.completed;
            t.overloaded += b.overloaded;
            t.rate_limited += b.rate_limited;
            t.failed += b.failed;
            t.cache_hits += b.cache_hits;
            t.cache_misses += b.cache_misses;
            t.cache_entries += b.cache_entries;
        }
        t
    }

    /// Asserts sent = received = completed + typed rejections, by kind.
    /// `sent` counts compile requests sent to these servers, `ok` the
    /// success envelopes received, `rejections` the typed errors
    /// received by kind. `unavailable` errors come from the router, not
    /// a server, so they are excluded from the servers' side.
    pub fn reconcile(
        &self,
        sent: u64,
        received: u64,
        ok: u64,
        rejections: &HashMap<String, u64>,
    ) -> Result<(), String> {
        let kind = |k: &str| rejections.get(k).copied().unwrap_or(0);
        let unavailable = kind("unavailable");
        let other_failures: u64 = rejections
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "overloaded" | "rate_limited" | "unavailable"))
            .map(|(_, n)| n)
            .sum();
        let checks = [
            ("sent = received", sent, received),
            (
                "sent = accepted + overloaded + rate_limited + unavailable",
                sent,
                self.accepted + self.overloaded + self.rate_limited + unavailable,
            ),
            ("completed = ok responses", self.completed, ok),
            (
                "overloaded (server) = overloaded (client)",
                self.overloaded,
                kind("overloaded"),
            ),
            (
                "rate_limited (server) = rate_limited (client)",
                self.rate_limited,
                kind("rate_limited"),
            ),
            (
                "failed (server) = other errors (client)",
                self.failed,
                other_failures,
            ),
        ];
        let broken: Vec<String> = checks
            .iter()
            .filter(|(_, a, b)| a != b)
            .map(|(what, a, b)| format!("{what}: {a} != {b}"))
            .collect();
        if broken.is_empty() {
            Ok(())
        } else {
            Err(format!("books do not balance: {}", broken.join("; ")))
        }
    }
}
