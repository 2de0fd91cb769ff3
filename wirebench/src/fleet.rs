//! Child processes under test: one `tpnc serve` on stdio, or one
//! `tpnc route` with its shard fleet, plus `/proc` sampling of every
//! `tpnc` process they consist of.
//!
//! The router spawns its shards itself, so they are this process's
//! grandchildren. The benchmark marks itself a child subreaper: when
//! it kills the router, the orphaned shards are re-parented here and
//! can be killed and reaped like direct children.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

mod sys {
    extern "C" {
        pub fn prctl(option: i32, ...) -> i32;
        pub fn kill(pid: i32, signal: i32) -> i32;
        pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        pub fn sysconf(name: i32) -> i64;
    }
    pub const PR_SET_CHILD_SUBREAPER: i32 = 36;
    pub const SIGKILL: i32 = 9;
    pub const SC_CLK_TCK: i32 = 2;
}

/// Makes orphaned descendants re-parent to this process (Linux only).
pub fn become_subreaper() -> Result<(), String> {
    // SAFETY: prctl(PR_SET_CHILD_SUBREAPER, 1) takes one integer argument
    // and only changes this process's re-parenting attribute.
    let rc = unsafe { sys::prctl(sys::PR_SET_CHILD_SUBREAPER, 1u64) };
    if rc == 0 {
        Ok(())
    } else {
        Err("prctl(PR_SET_CHILD_SUBREAPER) failed".into())
    }
}

/// Kills `pid` and reaps it; `pid` must be a child of this process.
fn kill_and_reap(pid: i32) {
    let mut status = 0;
    // SAFETY: plain system calls on a pid this process is the parent of;
    // `status` is a valid out-pointer for the duration of the call.
    unsafe {
        sys::kill(pid, sys::SIGKILL);
        sys::waitpid(pid, &mut status, 0);
    }
}

/// How often set-up polls for a listening socket.
const SETUP_POLL: Duration = Duration::from_micros(200);

/// How long set-up waits for a fleet before giving up.
const SETUP_TIMEOUT: Duration = Duration::from_secs(20);

/// The metrics probe every set-up ends with.
const PROBE: &str = "{\"id\":0,\"verb\":\"metrics\"}\n";

/// How a fleet is reached.
pub enum Io {
    /// `tpnc serve` on stdin/stdout.
    Stdio {
        stdin: ChildStdin,
        stdout: BufReader<ChildStdout>,
    },
    /// `tpnc route`: the front socket and each shard's own socket.
    Route {
        front: PathBuf,
        shards: Vec<PathBuf>,
    },
}

/// A running fleet: the spawned process, the shards it spawned, and the
/// number of compile requests sent to it (for the books check).
pub struct Fleet {
    child: Child,
    shard_pids: Vec<i32>,
    pub io: Io,
    /// Compile requests sent over the fleet's lifetime.
    pub sent: u64,
}

/// Resource use summed over a fleet's processes.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// Sum of `VmHWM`, KiB.
    pub hwm_kib: u64,
    /// Sum of `utime + stime`, microseconds.
    pub cpu_us: u64,
    /// Sum of thread counts.
    pub threads: u64,
}

impl Fleet {
    /// Spawns `tpnc serve` on stdio and returns it with its set-up time:
    /// spawn to the first successful reply to a `metrics` probe.
    pub fn stdio(tpnc: &Path, log: &Path) -> Result<(Fleet, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(tpnc)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log_file(log)?)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", tpnc.display()))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut fleet = Fleet {
            child,
            shard_pids: Vec::new(),
            io: Io::Stdio { stdin, stdout },
            sent: 0,
        };
        let reply = fleet.stdio_call(PROBE)?;
        check_probe(&reply)?;
        Ok((fleet, started.elapsed().as_secs_f64()))
    }

    /// Spawns `tpnc route --shards 2` on `front` and returns it with its
    /// set-up time: spawn until both shards and then the front socket
    /// answer a `metrics` probe.
    pub fn route(tpnc: &Path, front: &Path, log: &Path) -> Result<(Fleet, f64), String> {
        let started = Instant::now();
        let child = Command::new(tpnc)
            .arg("route")
            .arg("--socket")
            .arg(front)
            .arg("--shards")
            .arg("2")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file(log)?)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", tpnc.display()))?;
        let shards: Vec<PathBuf> = (0..2)
            .map(|i| PathBuf::from(format!("{}.shard-{i}", front.display())))
            .collect();
        let mut fleet = Fleet {
            child,
            shard_pids: Vec::new(),
            io: Io::Route {
                front: front.to_path_buf(),
                shards: shards.clone(),
            },
            sent: 0,
        };
        // Probe the shards first: the router connects to a shard lazily
        // and backs off 50 ms when it is not up yet, which would make
        // set-up time bimodal.
        for path in shards.iter().chain(std::iter::once(&front.to_path_buf())) {
            let reply = loop {
                if let Ok(reply) = socket_call(path, PROBE) {
                    break reply;
                }
                if started.elapsed() > SETUP_TIMEOUT {
                    return Err(format!("{} never answered", path.display()));
                }
                std::thread::sleep(SETUP_POLL);
            };
            check_probe(&reply)?;
        }
        let setup = started.elapsed().as_secs_f64();
        fleet.shard_pids = children_of(fleet.child.id() as i32);
        if fleet.shard_pids.len() != 2 {
            return Err(format!(
                "router has {} shard processes, expected 2",
                fleet.shard_pids.len()
            ));
        }
        Ok((fleet, setup))
    }

    /// Sends one line on stdio and reads one reply line (nothing else
    /// may be in flight).
    pub fn stdio_call(&mut self, line: &str) -> Result<String, String> {
        let Io::Stdio { stdin, stdout } = &mut self.io else {
            return Err("not a stdio fleet".into());
        };
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to tpnc serve: {e}"))?;
        let mut reply = String::new();
        match stdout.read_line(&mut reply) {
            Ok(0) => Err("tpnc serve closed stdout".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("reading from tpnc serve: {e}")),
        }
    }

    /// The `metrics` payload of every server process: the stdio server,
    /// or each shard, queried on its own socket. The router answers
    /// `metrics` from shard 0 only, so its front socket cannot show the
    /// whole fleet.
    pub fn server_metrics(&mut self) -> Result<Vec<String>, String> {
        self.server_query(PROBE)
    }

    /// The `journal` payload of every server process (see
    /// [`server_metrics`](Self::server_metrics)).
    pub fn server_journals(&mut self) -> Result<Vec<String>, String> {
        self.server_query("{\"id\":0,\"verb\":\"journal\"}\n")
    }

    fn server_query(&mut self, line: &str) -> Result<Vec<String>, String> {
        match &self.io {
            Io::Stdio { .. } => Ok(vec![self.stdio_call(line)?]),
            Io::Route { shards, .. } => shards
                .iter()
                .map(|p| socket_call(p, line).map_err(|e| format!("{}: {e}", p.display())))
                .collect(),
        }
    }

    /// Every process of the fleet.
    pub fn pids(&self) -> Vec<i32> {
        let mut pids = vec![self.child.id() as i32];
        pids.extend(&self.shard_pids);
        pids
    }

    /// Reads `/proc` for every process of the fleet.
    pub fn sample(&self) -> Result<ProcSample, String> {
        let mut total = ProcSample::default();
        for pid in self.pids() {
            let one = proc_sample(pid)?;
            total.hwm_kib += one.hwm_kib;
            total.cpu_us += one.cpu_us;
            total.threads += one.threads;
        }
        Ok(total)
    }

    /// Kills the fleet and reaps every process of it. The router goes
    /// first, so nothing respawns a shard.
    fn shutdown(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pid in self.shard_pids.drain(..) {
            kill_and_reap(pid);
        }
        // A shard the router respawned after the last look is adopted
        // here too.
        let me = std::process::id() as i32;
        for pid in children_of(me) {
            if comm(pid).as_deref() == Some("tpnc") {
                kill_and_reap(pid);
            }
        }
        if let Io::Route { front, shards } = &self.io {
            for path in shards.iter().chain(std::iter::once(front)) {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn log_file(path: &Path) -> Result<std::fs::File, String> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))
}

fn check_probe(reply: &str) -> Result<(), String> {
    if reply.starts_with("{\"id\":0,\"ok\":true,\"verb\":\"metrics\"") {
        Ok(())
    } else {
        Err(format!("bad metrics probe reply: {}", reply.trim_end()))
    }
}

/// One request/reply exchange on a fresh connection to `path`.
pub fn socket_call(path: &Path, line: &str) -> std::io::Result<String> {
    let mut stream = UnixStream::connect(path)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(line.as_bytes())?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    if reply.is_empty() {
        return Err(std::io::Error::other("connection closed"));
    }
    Ok(reply)
}

/// CPU time the hypervisor gave to other guests (`steal`) and all CPU
/// time, in ticks since boot, from `/proc/stat`. On a shared host this
/// says how much of a run's wall time the benchmark did not get.
pub fn host_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of CPU time stolen between two [`host_steal`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

/// The pids whose parent is `parent`.
fn children_of(parent: i32) -> Vec<i32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<i32> = entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<i32>().ok())
        .filter(|&pid| stat_fields(pid).is_some_and(|f| f.get(1) == Some(&parent.to_string())))
        .collect();
    pids.sort_unstable();
    pids
}

fn comm(pid: i32) -> Option<String> {
    std::fs::read_to_string(format!("/proc/{pid}/comm"))
        .ok()
        .map(|s| s.trim_end().to_string())
}

/// The fields of `/proc/PID/stat` after the parenthesised command name:
/// `[state, ppid, pgrp, ...]`, so field `n` of proc(5) is index `n - 3`.
fn stat_fields(pid: i32) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

fn proc_sample(pid: i32) -> Result<ProcSample, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    let field = |key: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    };
    let stat = stat_fields(pid).ok_or_else(|| format!("reading /proc/{pid}/stat"))?;
    let ticks: u64 = [11, 12] // utime and stime: fields 14 and 15 of proc(5)
        .iter()
        .filter_map(|&i| stat.get(i)?.parse::<u64>().ok())
        .sum();
    // SAFETY: sysconf only reads a configuration value.
    let hz = unsafe { sys::sysconf(sys::SC_CLK_TCK) }.max(1) as u64;
    Ok(ProcSample {
        hwm_kib: field("VmHWM:"),
        cpu_us: ticks * 1_000_000 / hz,
        threads: field("Threads:"),
    })
}
