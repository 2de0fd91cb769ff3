//! Seeded request streams for the benchmark's workloads.
//!
//! A stream is a pure function of `(workload, seed)`: request
//! `index` always renders the same line, so a run can be replayed in
//! process, re-sent over another transport, or checked afterwards
//! without storing what was sent. The program under test sees only the
//! rendered NDJSON lines.

/// The six-verb mix of `cold-stdio`.
const SIX_VERBS: [&str; 6] = ["analyze", "schedule", "rate", "scp", "trace", "storage"];

/// Index base of warm-up requests: far from every measured index, so a
/// warm-up loop never collides with a measured one.
pub const WARMUP_BASE: u64 = 1 << 40;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `tpnc serve` over stdio, every request a distinct small loop.
    ColdStdio,
    /// `tpnc serve` over stdio, distinct loops of 96-384 statements.
    LargeStdio,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "cold-stdio" => Workload::ColdStdio,
            "large-stdio" => Workload::LargeStdio,
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdStdio => "cold-stdio",
            Workload::LargeStdio => "large-stdio",
        }
    }

    /// How many `schedule`/`scp` requests `cycles_per_iter` is taken
    /// over: enough that the seed barely moves their geometric mean, few
    /// enough that a run usually answers them in its measured phase.
    pub fn kernels(self) -> usize {
        match self {
            Workload::ColdStdio => 512,
            Workload::LargeStdio => 192,
        }
    }

    /// Requests the closed-loop client keeps in flight.
    pub fn in_flight(self) -> usize {
        match self {
            Workload::ColdStdio => 8,
            Workload::LargeStdio => 2,
        }
    }
}

/// A splitmix64 generator: tiny, seedable, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    /// A generator for item `index` of sub-stream `lane` under `seed`, so
    /// every item can be regenerated on its own.
    pub fn for_item(seed: u64, lane: u64, index: u64) -> Rng {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.0 ^= rng
            .next()
            .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

const LANE_COLD: u64 = 2;
const LANE_LARGE: u64 = 3;

/// Shape of a generated loop.
struct LoopShape {
    statements: usize,
    doall: bool,
    /// How far back (in statements) an operand may reach.
    window: usize,
    /// Maximum leaves per statement expression.
    max_leaves: u64,
    /// Longest loop-carried dependence distance.
    max_distance: u64,
}

/// Renders one seeded loop with Livermore-shaped statements: sums of
/// products over input arrays at small offsets, scalar parameters,
/// earlier statements of the same iteration and, in DO loops, values of
/// up to `max_distance` iterations back. `tag` names a parameter unique
/// to the request, so two requests never share a cache key by accident.
fn render_loop(rng: &mut Rng, shape: &LoopShape, tag: &str) -> String {
    let kw = if shape.doall { "doall" } else { "do" };
    let mut out = format!("{kw} i from 5 to n {{");
    let n = shape.statements;
    let mut carried = false;
    for j in 0..n {
        let leaves = rng.range(2, shape.max_leaves);
        let mut expr = String::new();
        for leaf in 0..leaves {
            // Every statement after the first reads an earlier one, so
            // the loop body is one connected computation, as in the
            // Livermore kernels.
            let operand = loop {
                let choice = if leaf == 0 && j > 0 { 6 } else { rng.below(10) };
                match choice {
                    0..=3 => {
                        let (array, offset) = (rng.below(6), rng.below(4));
                        break match offset {
                            0 => format!("X{array}[i]"),
                            _ => format!("X{array}[i+{offset}]"),
                        };
                    }
                    4 | 5 => break format!("C{}", rng.below(4)),
                    6 | 7 if j > 0 => {
                        let back = 1 + rng.below(j.min(shape.window) as u64) as usize;
                        break format!("T{}[i]", j - back);
                    }
                    8 | 9 if !shape.doall => {
                        let lo = j.saturating_sub(shape.window);
                        let hi = (j + shape.window).min(n - 1);
                        let m = rng.range(lo as u64, hi as u64);
                        carried = true;
                        break format!("T{m}[i-{}]", rng.range(1, shape.max_distance));
                    }
                    _ => {}
                }
            };
            if leaf == 0 {
                expr = operand;
            } else {
                let op = ["+", "-", "*"][rng.below(3) as usize];
                expr = if rng.below(3) == 0 {
                    format!("({expr}) {op} {operand}")
                } else {
                    format!("{expr} {op} {operand}")
                };
            }
        }
        if j == 0 {
            expr = format!("{tag} * ({expr})");
        }
        if j == n - 1 && !shape.doall && !carried {
            expr = format!("T{j}[i-{}] + {expr}", rng.range(1, shape.max_distance));
        }
        out.push_str(&format!(" T{j}[i] := {expr};"));
    }
    out.push_str(" }");
    out
}

/// One request body: everything of the request line except its `id`.
fn body(verb: &str, source: &str, depth: Option<u64>) -> String {
    match depth {
        Some(depth) => format!("\"verb\":\"{verb}\",\"source\":\"{source}\",\"depth\":{depth}"),
        None => format!("\"verb\":\"{verb}\",\"source\":\"{source}\""),
    }
}

/// A workload's seeded request stream.
pub struct Stream {
    workload: Workload,
    seed: u64,
}

impl Stream {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        Stream { workload, seed }
    }

    /// The body of request `index`.
    pub fn body(&self, index: u64) -> String {
        let seed = self.seed;
        match self.workload {
            Workload::ColdStdio => {
                // Verb, size and depth cycle through a fixed grid, so
                // every seed sees the same mix; the seed picks the loops.
                let verb = SIX_VERBS[(index % 6) as usize];
                let statements = 1 + (index / 6) % 12;
                let depth = 2 + (index / 72) % 7;
                let mut rng = Rng::for_item(seed, LANE_COLD, index);
                let shape = LoopShape {
                    statements: statements as usize,
                    doall: rng.below(3) == 0,
                    window: 4,
                    max_leaves: 5,
                    max_distance: 4,
                };
                let source = render_loop(&mut rng, &shape, &format!("K{index}"));
                let depth = matches!(verb, "scp").then_some(depth);
                body(verb, &source, depth)
            }
            Workload::LargeStdio => {
                // No `storage` or `scp`: one such request takes seconds at
                // this size. No `"engine":"frustum"` either: a cached
                // frustum-engine loop keeps its whole detection run, up to
                // ~26 MB here, so peak memory would swing with which loops
                // happen to be cached. The traced run times frustum
                // detection on these loops instead.
                let verb = ["analyze", "schedule", "rate"][(index % 3) as usize];
                let statements = 96 + 24 * ((index / 3) % 13);
                let mut rng = Rng::for_item(seed, LANE_LARGE, index);
                let shape = LoopShape {
                    statements: statements as usize,
                    doall: rng.below(4) == 0,
                    window: 8,
                    max_leaves: 4,
                    max_distance: 1,
                };
                let source = render_loop(&mut rng, &shape, &format!("K{index}"));
                body(verb, &source, None)
            }
        }
    }

    /// The indices of the stream's first `schedule`/`scp` requests, as
    /// many as [`Workload::kernels`] asks for: the fixed set
    /// `cycles_per_iter` is taken over, however many requests a run
    /// completes. Every request of a stream has a distinct loop.
    pub fn kernel_indices(&self) -> Vec<u64> {
        (0..)
            .filter(|&i| {
                let body = self.body(i);
                body.starts_with("\"verb\":\"schedule\"") || body.starts_with("\"verb\":\"scp\"")
            })
            .take(self.workload.kernels())
            .collect()
    }

    /// The full request line of request `index` under correlation `id`.
    pub fn line(&self, id: u64, index: u64) -> String {
        format!("{{\"id\":{id},{}}}", self.body(index))
    }
}
