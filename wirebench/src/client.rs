//! Load generators: a closed-loop client over a `tpnc serve` child's
//! stdin/stdout, and one-request-in-flight round trips over a Unix
//! socket. Both run on the calling thread.
//!
//! The receive path stays cheap: it reads the correlation id off the
//! front of each line and hashes the rest. Whether the hash matches the
//! in-process reference is decided after the measured phase.

use std::collections::HashMap;
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use crate::fleet::{Fleet, Io};
use crate::gen::Stream;

/// One request's exchange.
#[derive(Clone, Debug)]
pub struct Exchange {
    /// Index into the workload's stream.
    pub index: u64,
    /// Correlation id it was sent under.
    pub id: u64,
    /// Nanoseconds from the phase start when it was written.
    pub sent_ns: u64,
    /// When its response arrived (`None`: missing).
    pub recv_ns: Option<u64>,
    /// Hash of the response bytes after `{"id":N,`.
    pub tail_hash: u64,
    /// `None` for a success envelope, else the error kind (or
    /// `"malformed"`).
    pub error: Option<String>,
}

impl Exchange {
    fn new(index: u64, id: u64, sent_ns: u64) -> Exchange {
        Exchange {
            index,
            id,
            sent_ns,
            recv_ns: None,
            tail_hash: 0,
            error: None,
        }
    }

    /// Send to response, microseconds.
    pub fn latency_us(&self) -> Option<f64> {
        self.recv_ns
            .map(|r| r.saturating_sub(self.sent_ns) as f64 / 1e3)
    }
}

/// Hash of a response's bytes after its id: equal for byte-identical
/// responses to the same request under any id.
pub fn tail_hash(tail: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(tail.as_bytes());
    h.finish()
}

/// Splits a response line into its id and the bytes after `{"id":N,`.
pub fn split_id(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let comma = rest.find(',')?;
    Some((rest[..comma].parse().ok()?, &rest[comma + 1..]))
}

/// The `error.kind` of a failure envelope tail.
fn error_kind(tail: &str) -> String {
    tail.split_once("\"kind\":\"")
        .and_then(|(_, rest)| rest.split('"').next())
        .unwrap_or("malformed")
        .to_string()
}

/// Records one response line against the in-flight table.
fn settle(
    line: &str,
    now_ns: u64,
    in_flight: &mut HashMap<u64, usize>,
    log: &mut [Exchange],
) -> Result<(), String> {
    let line = line.trim_end_matches('\n');
    let (id, tail) = split_id(line).ok_or_else(|| format!("unparseable response: {line}"))?;
    let slot = in_flight
        .remove(&id)
        .ok_or_else(|| format!("response for unknown id {id}"))?;
    let ex = &mut log[slot];
    ex.recv_ns = Some(now_ns);
    ex.tail_hash = tail_hash(tail);
    if !tail.starts_with("\"ok\":true,") {
        ex.error = Some(error_kind(tail));
    }
    Ok(())
}

/// Hands out correlation ids, unique over a fleet's lifetime.
pub struct Ids(u64);

impl Ids {
    pub fn new() -> Ids {
        Ids(1)
    }

    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

/// Closed loop over stdio: keeps `depth` requests in flight, taking
/// stream indices from `indices` until it runs out or `until` passes,
/// then drains. Times are relative to `t0`.
pub fn closed_loop(
    fleet: &mut Fleet,
    stream: &Stream,
    ids: &mut Ids,
    mut indices: impl Iterator<Item = u64>,
    depth: usize,
    until: Option<Instant>,
    t0: Instant,
) -> Result<Vec<Exchange>, String> {
    let Io::Stdio { stdin, stdout } = &mut fleet.io else {
        return Err("closed loop needs a stdio fleet".into());
    };
    let mut log = Vec::new();
    let mut in_flight: HashMap<u64, usize> = HashMap::new();
    let mut line = String::new();
    let mut sent = 0;
    loop {
        while in_flight.len() < depth && until.is_none_or(|u| Instant::now() < u) {
            let Some(index) = indices.next() else { break };
            let id = ids.next();
            let mut request = stream.line(id, index);
            request.push('\n');
            let at = t0.elapsed().as_nanos() as u64;
            stdin
                .write_all(request.as_bytes())
                .and_then(|()| stdin.flush())
                .map_err(|e| format!("writing request: {e}"))?;
            in_flight.insert(id, log.len());
            log.push(Exchange::new(index, id, at));
            sent += 1;
        }
        if in_flight.is_empty() {
            break;
        }
        line.clear();
        match stdout.read_line(&mut line) {
            Ok(0) | Err(_) => break, // the server died: the rest stay missing
            Ok(_) => settle(
                &line,
                t0.elapsed().as_nanos() as u64,
                &mut in_flight,
                &mut log,
            )?,
        }
    }
    fleet.sent += sent;
    Ok(log)
}

/// One request in flight at a time over a fresh connection to `path`:
/// each request of `indices`, in order, until `until`.
pub fn round_trips_socket(
    path: &Path,
    stream: &Stream,
    ids: &mut Ids,
    indices: &[u64],
    until: Instant,
    t0: Instant,
) -> Result<Vec<Exchange>, String> {
    let conn = UnixStream::connect(path).map_err(|e| format!("connecting: {e}"))?;
    let mut writer = conn.try_clone().map_err(|e| format!("cloning: {e}"))?;
    let mut reader = BufReader::new(conn);
    let mut log = Vec::new();
    let mut line = String::new();
    for &index in indices {
        if Instant::now() >= until {
            break;
        }
        let id = ids.next();
        let mut request = stream.line(id, index);
        request.push('\n');
        let at = t0.elapsed().as_nanos() as u64;
        writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("writing request: {e}"))?;
        let mut in_flight = HashMap::from([(id, log.len())]);
        log.push(Exchange::new(index, id, at));
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("reading response: {e}"))?;
        settle(
            &line,
            t0.elapsed().as_nanos() as u64,
            &mut in_flight,
            &mut log,
        )?;
    }
    Ok(log)
}
