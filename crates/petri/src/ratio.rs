//! Critical cycles and optimal computation rates (Appendix A.7).
//!
//! For a live timed marked graph, all transitions share the same asymptotic
//! *cycle time*
//!
//! ```text
//! α* = max over simple cycles C of Ω(C) / M(C)
//! ```
//!
//! where `Ω(C)` is the total execution time of the cycle's transitions and
//! `M(C)` its token count; the *computation rate* is `γ = 1/α*`
//! (Ramamoorthy & Ho). Cycles attaining the maximum are the **critical
//! cycles**; they bound the performance of a software-pipelined loop and
//! drive both the schedule-quality checks and the storage optimiser.
//!
//! Two independent implementations are provided and cross-checked in tests:
//!
//! * [`analyze_cycles`] — exhaustive enumeration via [`crate::cycles`],
//!   exact but potentially exponential; returns every cycle with its ratio.
//! * [`critical_ratio`] — Howard's policy iteration over the transition
//!   multigraph: exact rational arithmetic throughout, near-linear in
//!   practice, with the critical cycle read off the converged policy. If
//!   policy iteration fails to settle within its sweep budget (never
//!   observed; the bound exists for totality) the solver falls back to
//!   Lawler's parametric method — an exact Stern–Brocot descent over
//!   candidate ratios, each step a positive-cycle (Bellman–Ford) test —
//!   which is the polynomial-time replacement the paper alludes to when it
//!   cites the linear-programming formulation of the cycle-time problem.
//!
//! Once the cycle time `p/q` of a net is known, [`CycleTimeCheck`] decides
//! whether an edit of the net (some places removed, one added) keeps it,
//! from feasible potentials ([`longest_path_potentials`]) and one
//! critical cycle of the current net, without solving again; the storage
//! optimiser checks its candidate merges this way.
//!
//! The implicit self-loop of Assumption A.6.1 (a transition cannot overlap
//! its own firings) contributes the candidate cycle time `τ(t)` for every
//! transition; both entry points take it into account, so an acyclic net
//! still has the well-defined cycle time `max τ`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cycles::{simple_cycles, Cycle};
use crate::error::PetriError;
use crate::ids::{PlaceId, TransitionId};
use crate::marked::{check_live, find_cycle};
use crate::marking::Marking;
use crate::net::PetriNet;
use crate::rational::Ratio;

/// What attains the critical cycle time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CriticalWitness {
    /// An explicit simple cycle with `Ω/M` equal to the cycle time.
    Cycle(Cycle),
    /// The implicit self-loop of a transition whose execution time alone
    /// dominates every explicit cycle ratio.
    SelfLoop(TransitionId),
}

/// Result of critical-cycle analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalRatio {
    /// The cycle time `α* = max Ω(C)/M(C)` (at least `max τ`).
    pub cycle_time: Ratio,
    /// The optimal computation rate `γ = 1/α*`.
    pub rate: Ratio,
    /// A cycle (or self-loop) attaining `α*`.
    pub witness: CriticalWitness,
}

/// Per-cycle data from exhaustive enumeration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleInfo {
    /// The cycle itself.
    pub cycle: Cycle,
    /// `Ω(C)`: summed execution time.
    pub time_sum: u64,
    /// `M(C)`: summed tokens.
    pub token_sum: u64,
    /// `Ω(C)/M(C)` as an exact rational.
    pub cycle_time: Ratio,
}

/// Result of [`analyze_cycles`]: every simple cycle with its ratio, plus
/// the net-wide cycle time and rate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleAnalysis {
    /// All simple cycles of the net (excluding implicit self-loops).
    pub cycles: Vec<CycleInfo>,
    /// The net cycle time including the implicit self-loop bound `max τ`.
    pub cycle_time: Ratio,
    /// `1 / cycle_time`.
    pub rate: Ratio,
    /// Indices into `cycles` of the cycles attaining `cycle_time` (empty if
    /// the bound comes from a self-loop only).
    pub critical: Vec<usize>,
}

impl CycleAnalysis {
    /// The critical cycles themselves.
    pub fn critical_cycles(&self) -> impl Iterator<Item = &CycleInfo> {
        self.critical.iter().map(|&i| &self.cycles[i])
    }

    /// Whether the net has more than one critical cycle — the harder case
    /// of §4.2 of the paper.
    pub fn has_multiple_critical_cycles(&self) -> bool {
        self.critical.len() > 1
    }
}

/// Exhaustive critical-cycle analysis by cycle enumeration.
///
/// # Errors
///
/// * Errors from [`simple_cycles`] (not a marked graph / too many cycles).
/// * [`PetriError::NotLive`] if some cycle is token-free (the cycle time
///   would be infinite).
/// * [`PetriError::NoCycle`] for a net with no transitions at all.
pub fn analyze_cycles(
    net: &PetriNet,
    marking: &Marking,
    limit: usize,
) -> Result<CycleAnalysis, PetriError> {
    if net.num_transitions() == 0 {
        return Err(PetriError::NoCycle);
    }
    let cycles = simple_cycles(net, limit)?;
    let mut infos = Vec::with_capacity(cycles.len());
    for cycle in cycles {
        let time_sum = cycle.time_sum(net);
        let token_sum = cycle.token_sum(marking);
        if token_sum == 0 {
            return Err(PetriError::NotLive {
                cycle: cycle.transitions().to_vec(),
            });
        }
        infos.push(CycleInfo {
            cycle_time: Ratio::new(time_sum, token_sum),
            cycle,
            time_sum,
            token_sum,
        });
    }
    let self_loop_bound = net
        .transitions()
        .map(|(_, t)| t.time())
        .max()
        .map(Ratio::from_integer)
        .unwrap_or(Ratio::ZERO);
    let cycle_bound = infos
        .iter()
        .map(|i| i.cycle_time)
        .max()
        .unwrap_or(Ratio::ZERO);
    let cycle_time = self_loop_bound.max(cycle_bound);
    let critical = infos
        .iter()
        .enumerate()
        .filter(|(_, i)| i.cycle_time == cycle_time)
        .map(|(idx, _)| idx)
        .collect();
    Ok(CycleAnalysis {
        cycles: infos,
        cycle_time,
        rate: cycle_time.recip(),
        critical,
    })
}

/// Exact polynomial-time critical-cycle analysis (Lawler's parametric
/// method with a Stern–Brocot descent).
///
/// # Errors
///
/// * [`PetriError::NotAMarkedGraph`] / [`PetriError::NotLive`] if the input
///   is malformed — liveness is required, otherwise some cycle has token
///   count 0 and infinite ratio.
/// * [`PetriError::NoCycle`] for a net with no transitions.
/// * [`PetriError::ZeroExecutionTime`] if some transition has `τ = 0`
///   (the cycle time of its self-loop would be degenerate).
///
/// # Example
///
/// ```
/// use tpn_petri::{PetriNet, Marking};
/// use tpn_petri::ratio::critical_ratio;
///
/// // Ring of three unit-time transitions with one token: cycle time 3.
/// let mut net = PetriNet::new();
/// let t: Vec<_> = (0..3).map(|i| net.add_transition(format!("t{i}"), 1)).collect();
/// let mut first = None;
/// for i in 0..3 {
///     let p = net.add_place(format!("p{i}"));
///     net.connect_tp(t[i], p);
///     net.connect_pt(p, t[(i + 1) % 3]);
///     first.get_or_insert(p);
/// }
/// let m = Marking::from_pairs(&net, [(first.unwrap(), 1)]);
/// let r = critical_ratio(&net, &m)?;
/// assert_eq!(r.cycle_time.to_string(), "3");
/// assert_eq!(r.rate.to_string(), "1/3");
/// # Ok::<(), tpn_petri::PetriError>(())
/// ```
pub fn critical_ratio(net: &PetriNet, marking: &Marking) -> Result<CriticalRatio, PetriError> {
    if net.num_transitions() == 0 {
        return Err(PetriError::NoCycle);
    }
    net.validate_times()?;
    check_live(net, marking)?;
    let graph = ParamGraph::new(net, marking);

    let (self_loop_time, self_loop_t) = net
        .transitions()
        .map(|(id, t)| (t.time(), id))
        .max()
        .expect("nonempty net");

    let self_ratio = Ratio::from_integer(self_loop_time);
    let Some((cycle_ratio, witness)) = max_cycle_ratio(&graph) else {
        return Ok(CriticalRatio {
            cycle_time: self_ratio,
            rate: self_ratio.recip(),
            witness: CriticalWitness::SelfLoop(self_loop_t),
        });
    };
    if self_ratio > cycle_ratio {
        return Ok(CriticalRatio {
            cycle_time: self_ratio,
            rate: self_ratio.recip(),
            witness: CriticalWitness::SelfLoop(self_loop_t),
        });
    }
    Ok(CriticalRatio {
        cycle_time: cycle_ratio,
        rate: cycle_ratio.recip(),
        witness: CriticalWitness::Cycle(witness),
    })
}

/// Feasible potentials for the scaled place weights of a marked graph:
/// the longest-path fixpoint from an implicit super-source at 0 over
/// `edges` `(from, to, w)` on vertices `0..n`.
///
/// With `w = q·τ_from − m·p` at a cycle time `p/q` that no cycle exceeds,
/// there is no positive cycle, the relaxation settles within `n` passes,
/// and the result `σ` satisfies `σ_to ≥ σ_from + w` on every edge: the
/// offsets of the analytic periodic schedule (`tpn_sched::analytic`)
/// and the dual half of the cycle-time certificate. On a net with a
/// positive cycle the passes stop after `n + 1` rounds without a
/// fixpoint.
pub fn longest_path_potentials(n: usize, edges: &[(usize, usize, i128)]) -> Vec<i128> {
    let mut pot = vec![0i128; n];
    for _ in 0..=n {
        let mut improved = false;
        for &(from, to, w) in edges {
            let cand = pot[from] + w;
            if cand > pot[to] {
                pot[to] = cand;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    pot
}

/// Decides, without solving again, whether an edited marked graph keeps
/// the cycle time `target = p/q` of the graph it starts from.
///
/// The graph is a bare edge list: transition `times` and one
/// `(from, to, tokens)` per place, as [`critical_ratio`] would see it. An
/// edit removes some edges and adds at most one, `b → a`. With the place
/// weight `w = q·τ_from − m·p`, a cycle is above `p/q` iff its weight is
/// positive and at `p/q` iff it is zero (a token-free cycle has weight
/// `q·Ω > 0`, so "not live" is "above"). The check keeps feasible
/// potentials `pot` (`pot[to] ≥ pot[from] + w` on every edge) and the
/// edges of one *tight* cycle (every edge at equality) of the current
/// graph, and decides each edit exactly:
///
/// 1. **No cycle above `p/q`.** Removing edges keeps `pot` feasible. With
///    `s = pot[b] + w(b → a) − pot[a] > 0`, Dijkstra from `a` over the
///    reduced lengths `pot[v] − pot[u] − w ≥ 0`, cut off at `s`, finds
///    whether `dist(a, b) < s`: a positive cycle through the new edge.
/// 2. **Some cycle at `p/q`.** The implicit self-loop attains it
///    (`max τ = p/q`), or `dist(a, b) = s`, or the cached tight cycle
///    avoids the removed edges, or [`find_cycle`] finds a cycle among the
///    remaining tight edges (plus the new edge when `s = 0`): under
///    feasible potentials a zero-weight cycle is exactly a tight cycle.
///
/// [`accept`](Self::accept) then applies the last checked edit, raising
/// `pot[v]` by `s − dist(a, v)` wherever Dijkstra reached `v` below `s`,
/// which keeps `pot` feasible for the new graph. A check costs
/// `O(|E| log |V|)` at worst and usually far less; an accepted edit adds a
/// linear rebuild of the adjacency and the tight cycle.
///
/// # Example
///
/// ```
/// use tpn_petri::ratio::CycleTimeCheck;
/// use tpn_petri::Ratio;
///
/// // Ring 0 → 1 → 2 → 0 with one token: cycle time 3.
/// let times = vec![1, 1, 1];
/// let edges = vec![(0, 1, 0), (1, 2, 0), (2, 0, 1)];
/// let mut check = CycleTimeCheck::new(times, edges, Ratio::from_integer(3));
/// // A token-free chord 2 → 1 closes a token-free cycle: rejected.
/// assert!(!check.keeps_target(&[], Some((2, 1, 0))));
/// // A marked chord 2 → 1 closes a 2-cycle at ratio 2: the ring stays.
/// assert!(check.keeps_target(&[], Some((2, 1, 1))));
/// // Dropping a ring edge leaves no cycle at ratio 3.
/// assert!(!check.keeps_target(&[0], None));
/// ```
#[derive(Clone, Debug)]
pub struct CycleTimeCheck {
    p: i128,
    q: i128,
    times: Vec<u64>,
    /// `max τ = p/q`: the implicit self-loop attains the target whatever
    /// the edges.
    self_loop: bool,
    edges: Vec<(usize, usize, u32)>,
    pot: Vec<i128>,
    /// CSR out-adjacency of edge indices.
    start: Vec<usize>,
    out: Vec<usize>,
    /// Edge indices of one tight cycle (empty when only the self-loop
    /// attains the target).
    tight_cycle: Vec<usize>,
    /// Dijkstra state of the last check: tentative distances from `a`
    /// (`i128::MAX` = unreached) and the vertices they were set on.
    dist: Vec<i128>,
    reached: Vec<usize>,
    heap: BinaryHeap<Reverse<(i128, usize)>>,
    pending: Option<Edit>,
}

/// The last edit that [`CycleTimeCheck::keeps_target`] accepted.
#[derive(Clone, Debug)]
struct Edit {
    removed: Vec<usize>,
    added: Option<(usize, usize, u32)>,
    /// `s` of the added edge; `dist` holds Dijkstra's distances when
    /// `s > 0`.
    slack: i128,
}

impl CycleTimeCheck {
    /// Starts from the graph `times` / `edges` (`(from, to, tokens)` per
    /// place) whose cycle time, with the implicit self-loops, is exactly
    /// `target` — as computed by [`critical_ratio`].
    ///
    /// # Panics
    ///
    /// In debug builds, if `target` is not the graph's cycle time.
    pub fn new(times: Vec<u64>, edges: Vec<(usize, usize, u32)>, target: Ratio) -> Self {
        let (p, q) = (target.numer() as i128, target.denom() as i128);
        let n = times.len();
        let self_loop = times.iter().any(|&t| t as i128 * q == p);
        let mut check = CycleTimeCheck {
            p,
            q,
            times,
            self_loop,
            edges,
            pot: Vec::new(),
            start: Vec::new(),
            out: Vec::new(),
            tight_cycle: Vec::new(),
            dist: vec![i128::MAX; n],
            reached: Vec::new(),
            heap: BinaryHeap::new(),
            pending: None,
        };
        let weighted: Vec<(usize, usize, i128)> = check
            .edges
            .iter()
            .map(|&e| (e.0, e.1, check.weight(e)))
            .collect();
        check.pot = longest_path_potentials(n, &weighted);
        debug_assert!(
            check.edges.iter().all(|&e| check.reduced(e) >= 0),
            "a cycle exceeds the target"
        );
        check.rebuild();
        check
    }

    /// The current graph's edges.
    pub fn edges(&self) -> &[(usize, usize, u32)] {
        &self.edges
    }

    /// Whether the current graph with the edges at indices `removed`
    /// deleted and `added` appended has cycle time exactly `target`.
    /// Remembers the edit for [`accept`](Self::accept) when it does.
    pub fn keeps_target(&mut self, removed: &[usize], added: Option<(usize, usize, u32)>) -> bool {
        self.pending = None;
        for &v in &self.reached {
            self.dist[v] = i128::MAX;
        }
        self.reached.clear();
        let slack = added.map_or(0, |e| self.pot[e.0] + self.weight(e) - self.pot[e.1]);
        let mut closes_tight = false;
        if let Some((b, a, _)) = added.filter(|_| slack > 0) {
            match self.distance_below(a, b, slack, removed) {
                Some(d) if d < slack => return false,
                Some(_) => closes_tight = true,
                None => {}
            }
        }
        let keeps = self.self_loop
            || closes_tight
            || (!self.tight_cycle.is_empty()
                && removed.iter().all(|e| !self.tight_cycle.contains(e)))
            || self.has_tight_cycle(removed, added.filter(|_| slack == 0));
        if keeps {
            self.pending = Some(Edit {
                removed: removed.to_vec(),
                added,
                slack,
            });
        }
        keeps
    }

    /// Replaces the current graph by the one of the last edit that
    /// [`keeps_target`](Self::keeps_target) accepted: the remaining edges
    /// in their order, then the added one.
    ///
    /// # Panics
    ///
    /// If the last check rejected its edit (or there was none).
    pub fn accept(&mut self) {
        let edit = self
            .pending
            .take()
            .expect("accept follows an accepting check");
        if edit.slack > 0 {
            for &v in &self.reached {
                if self.dist[v] < edit.slack {
                    self.pot[v] += edit.slack - self.dist[v];
                }
            }
        }
        let mut index = 0;
        self.edges.retain(|_| {
            index += 1;
            !edit.removed.contains(&(index - 1))
        });
        self.edges.extend(edit.added);
        debug_assert!(self.edges.iter().all(|&e| self.reduced(e) >= 0));
        self.rebuild();
    }

    /// `q·τ_from − m·p`.
    fn weight(&self, (from, _, tokens): (usize, usize, u32)) -> i128 {
        self.q * self.times[from] as i128 - i128::from(tokens) * self.p
    }

    /// `pot[to] − pot[from] − w`: non-negative on feasible edges, zero on
    /// tight ones.
    fn reduced(&self, e: (usize, usize, u32)) -> i128 {
        self.pot[e.1] - self.pot[e.0] - self.weight(e)
    }

    /// Rebuilds the adjacency and the cached tight cycle.
    fn rebuild(&mut self) {
        let n = self.times.len();
        self.start = vec![0; n + 1];
        for &(from, _, _) in &self.edges {
            self.start[from + 1] += 1;
        }
        for v in 0..n {
            self.start[v + 1] += self.start[v];
        }
        self.out = vec![0; self.edges.len()];
        let mut fill = self.start[..n].to_vec();
        for (i, &(from, _, _)) in self.edges.iter().enumerate() {
            self.out[fill[from]] = i;
            fill[from] += 1;
        }
        self.tight_cycle.clear();
        if self.self_loop {
            return;
        }
        let tight = self
            .edges
            .iter()
            .filter(|&&e| self.reduced(e) == 0)
            .map(|&(from, to, _)| (from, to));
        let cycle = find_cycle(n, tight);
        debug_assert!(cycle.is_some(), "a graph at its target has a tight cycle");
        let cycle = cycle.unwrap_or_default();
        for (k, &u) in cycle.iter().enumerate() {
            let v = cycle[(k + 1) % cycle.len()];
            let e = self.out[self.start[u]..self.start[u + 1]]
                .iter()
                .copied()
                .find(|&e| self.edges[e].1 == v && self.reduced(self.edges[e]) == 0)
                .expect("find_cycle follows tight edges");
            self.tight_cycle.push(e);
        }
    }

    /// Dijkstra from `a` over the reduced lengths of the edges not in
    /// `removed`, settling vertices up to distance `cutoff`. Returns
    /// `dist(a, b)` if it is at most `cutoff`, returning early once it is
    /// known to be below it.
    fn distance_below(
        &mut self,
        a: usize,
        b: usize,
        cutoff: i128,
        removed: &[usize],
    ) -> Option<i128> {
        self.heap.clear();
        self.dist[a] = 0;
        self.reached.push(a);
        self.heap.push(Reverse((0, a)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u] {
                continue;
            }
            if u == b {
                return Some(d);
            }
            for &e in &self.out[self.start[u]..self.start[u + 1]] {
                if removed.contains(&e) {
                    continue;
                }
                let edge = self.edges[e];
                let nd = d + self.reduced(edge);
                let v = edge.1;
                if nd > cutoff || nd >= self.dist[v] {
                    continue;
                }
                if self.dist[v] == i128::MAX {
                    self.reached.push(v);
                }
                self.dist[v] = nd;
                if v == b && nd < cutoff {
                    // A path already below the cut-off: a positive cycle.
                    return Some(nd);
                }
                self.heap.push(Reverse((nd, v)));
            }
        }
        None
    }

    /// Whether the tight edges not in `removed`, plus `extra`, contain a
    /// cycle.
    fn has_tight_cycle(&self, removed: &[usize], extra: Option<(usize, usize, u32)>) -> bool {
        let tight = self
            .edges
            .iter()
            .enumerate()
            .filter(|&(i, &e)| !removed.contains(&i) && self.reduced(e) == 0)
            .map(|(_, &e)| e)
            .chain(extra)
            .map(|(from, to, _)| (from, to));
        find_cycle(self.times.len(), tight).is_some()
    }
}

/// The full scheduling witness behind an `explain` request: the solver's
/// [`CriticalRatio`] next to the exhaustive [`CycleAnalysis`] (when the
/// Johnson enumeration fits its budget), so callers can show *which*
/// cycle pins the rate and how much slack every runner-up cycle has.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RateExplanation {
    /// The solver's answer: cycle time, rate, and an attaining witness.
    pub critical: CriticalRatio,
    /// The exhaustive per-cycle spectrum; `None` when enumeration
    /// exceeded the caller's cycle limit (the witness above stays exact —
    /// only the runner-up slack table is unavailable).
    pub analysis: Option<CycleAnalysis>,
}

impl RateExplanation {
    /// Slack `α* − Ω(C)/M(C)` of one enumerated cycle: zero exactly on
    /// critical cycles, positive on runner-ups. `None` only on `u64`
    /// overflow of the reduced difference.
    pub fn slack(&self, info: &CycleInfo) -> Option<Ratio> {
        self.critical.cycle_time.checked_sub(info.cycle_time)
    }

    /// Re-derives every quantity the explanation reports and checks exact
    /// agreement, returning the list of discrepancies (empty means the
    /// witness is validated). This is what makes `explain` output a
    /// tested claim rather than a pretty-printer: the reported cycle's
    /// `Ω(C)/M(C)` must equal the reported cycle time, the rate must be
    /// its exact reciprocal, and the enumerated spectrum (when present)
    /// must agree cycle by cycle.
    pub fn validate(&self, net: &PetriNet, marking: &Marking) -> Vec<String> {
        let mut errors = Vec::new();
        let alpha = self.critical.cycle_time;
        if self.critical.rate != alpha.recip() {
            errors.push(format!(
                "rate {} is not the reciprocal of cycle time {alpha}",
                self.critical.rate
            ));
        }
        match &self.critical.witness {
            CriticalWitness::Cycle(cycle) => {
                let time_sum = cycle.time_sum(net);
                let token_sum = cycle.token_sum(marking);
                if token_sum == 0 {
                    errors.push("witness cycle carries no tokens".into());
                } else if Ratio::new(time_sum, token_sum) != alpha {
                    errors.push(format!(
                        "witness cycle ratio {time_sum}/{token_sum} != cycle time {alpha}"
                    ));
                }
            }
            CriticalWitness::SelfLoop(t) => {
                let tau = net.transition(*t).time();
                if Ratio::from_integer(tau) != alpha {
                    errors.push(format!("self-loop witness τ = {tau} != cycle time {alpha}"));
                }
            }
        }
        if let Some(analysis) = &self.analysis {
            if analysis.cycle_time != alpha {
                errors.push(format!(
                    "enumeration cycle time {} != solver cycle time {alpha}",
                    analysis.cycle_time
                ));
            }
            if analysis.rate != self.critical.rate {
                errors.push(format!(
                    "enumeration rate {} != solver rate {}",
                    analysis.rate, self.critical.rate
                ));
            }
            for (i, info) in analysis.cycles.iter().enumerate() {
                let time_sum = info.cycle.time_sum(net);
                let token_sum = info.cycle.token_sum(marking);
                if time_sum != info.time_sum || token_sum != info.token_sum {
                    errors.push(format!(
                        "cycle {i}: reported Ω={}, M={} but net says Ω={time_sum}, M={token_sum}",
                        info.time_sum, info.token_sum
                    ));
                    continue;
                }
                if token_sum == 0 || Ratio::new(time_sum, token_sum) != info.cycle_time {
                    errors.push(format!(
                        "cycle {i}: ratio {} does not re-derive from Ω={time_sum}, M={token_sum}",
                        info.cycle_time
                    ));
                }
                let is_critical = analysis.critical.contains(&i);
                let slack = self.slack(info);
                if is_critical && slack != Some(Ratio::ZERO) {
                    errors.push(format!("critical cycle {i} has nonzero slack {slack:?}"));
                }
                if !is_critical && slack.is_none_or(|s| s == Ratio::ZERO) {
                    errors.push(format!(
                        "runner-up cycle {i} has zero slack but is not marked critical"
                    ));
                }
            }
        }
        errors
    }
}

/// Critical-cycle analysis with an explicit, self-checkable witness: runs
/// the polynomial-time solver ([`critical_ratio`]) and the exhaustive
/// Johnson enumeration ([`analyze_cycles`]) side by side. Enumeration
/// blowing the `limit` degrades the runner-up table to `None` instead of
/// failing; every other enumeration error is a real input defect and is
/// returned.
///
/// # Errors
///
/// Same conditions as [`critical_ratio`].
pub fn explain_rate(
    net: &PetriNet,
    marking: &Marking,
    limit: usize,
) -> Result<RateExplanation, PetriError> {
    let critical = critical_ratio(net, marking)?;
    let analysis = match analyze_cycles(net, marking, limit) {
        Ok(a) => Some(a),
        Err(PetriError::TooManyCycles { .. }) => None,
        Err(e) => return Err(e),
    };
    Ok(RateExplanation { critical, analysis })
}

/// The critical cycle time of one weakly connected component of the
/// transition multigraph, from [`component_cycle_times`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentRatio {
    /// The component's transitions, in id order.
    pub transitions: Vec<TransitionId>,
    /// Its cycle time `max Ω(C)/M(C)` over cycles inside the component
    /// (at least the component's `max τ`, by the implicit self-loop).
    pub cycle_time: Ratio,
}

/// Critical cycle time of every weakly connected component separately.
///
/// Independent components of a marked graph run at independent rates under
/// the earliest firing rule; a single net-wide periodic schedule exists only
/// when all components share the same cycle time. Callers use this to
/// diagnose disconnected loop bodies exactly.
///
/// # Errors
///
/// Same conditions as [`critical_ratio`].
pub fn component_cycle_times(
    net: &PetriNet,
    marking: &Marking,
) -> Result<Vec<ComponentRatio>, PetriError> {
    if net.num_transitions() == 0 {
        return Err(PetriError::NoCycle);
    }
    net.validate_times()?;
    check_live(net, marking)?;
    let n = net.num_transitions();
    // Union-find over undirected edges.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for (_, place) in net.places() {
        let from = place.preset()[0].index();
        let to = place.postset()[0].index();
        let (a, b) = (find(&mut parent, from), find(&mut parent, to));
        parent[a] = b;
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    for v in 0..n {
        let root = find(&mut parent, v);
        members[root].push(v);
    }
    let mut out = Vec::new();
    for component in &members {
        if component.is_empty() {
            continue;
        }
        let mut keep = vec![false; n];
        for &v in component {
            keep[v] = true;
        }
        let graph = ParamGraph::subset(net, marking, &keep);
        let self_loop = component
            .iter()
            .map(|&v| net.transition(TransitionId::from_index(v)).time())
            .max()
            .map(Ratio::from_integer)
            .unwrap_or(Ratio::ZERO);
        let cycle_time = match max_cycle_ratio(&graph) {
            Some((ratio, _)) => self_loop.max(ratio),
            None => self_loop,
        };
        out.push(ComponentRatio {
            transitions: component
                .iter()
                .map(|&v| TransitionId::from_index(v))
                .collect(),
            cycle_time,
        });
    }
    Ok(out)
}

/// Edge list of the transition multigraph annotated with (τ, tokens).
struct ParamGraph {
    n: usize,
    /// `(from, to, place, time_of_source, tokens)`
    edges: Vec<(usize, usize, PlaceId, u64, u64)>,
}

impl ParamGraph {
    fn new(net: &PetriNet, marking: &Marking) -> Self {
        let mut edges = Vec::with_capacity(net.num_places());
        for (pid, place) in net.places() {
            // Marked graph (validated by the caller): exactly one
            // producer and one consumer per place.
            let from = place.preset()[0];
            let to = place.postset()[0].index();
            edges.push((
                from.index(),
                to,
                pid,
                net.transition(from).time(),
                marking.tokens(pid) as u64,
            ));
        }
        ParamGraph {
            n: net.num_transitions(),
            edges,
        }
    }

    /// Like [`ParamGraph::new`] but keeping only edges whose source
    /// transition is in `keep` (a weakly connected component keeps exactly
    /// its own edges: both endpoints lie inside it).
    fn subset(net: &PetriNet, marking: &Marking, keep: &[bool]) -> Self {
        let mut edges = Vec::new();
        for (pid, place) in net.places() {
            let from = place.preset()[0];
            if !keep[from.index()] {
                continue;
            }
            let to = place.postset()[0].index();
            edges.push((
                from.index(),
                to,
                pid,
                net.transition(from).time(),
                marking.tokens(pid) as u64,
            ));
        }
        ParamGraph {
            n: net.num_transitions(),
            edges,
        }
    }

    fn has_any_cycle(&self) -> bool {
        // Kahn's algorithm: cycle exists iff topological sort is partial.
        let mut indeg = vec![0usize; self.n];
        for &(_, to, ..) in &self.edges {
            indeg[to] += 1;
        }
        let mut queue: Vec<usize> = (0..self.n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0;
        let mut adj = vec![Vec::new(); self.n];
        for &(from, to, ..) in &self.edges {
            adj[from].push(to);
        }
        while let Some(v) = queue.pop() {
            seen += 1;
            for &w in &adj[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        seen < self.n
    }

    /// Is there a cycle with `q·Ω(C) − p·M(C) > 0`, i.e. `Ω/M > p/q`?
    fn exists_cycle_above(&self, p: u64, q: u64) -> bool {
        self.positive_cycle(|time, tokens| {
            (q as i128) * (time as i128) - (p as i128) * (tokens as i128)
        })
    }

    /// Is there a cycle with `q·Ω(C) − p·M(C) ≥ 0`, i.e. `Ω/M ≥ p/q`?
    fn exists_cycle_at_least(&self, p: u64, q: u64) -> bool {
        // Scale so that "≥ 0" becomes "> 0": with at most `m` edges per
        // simple cycle, (m+1)·w + 1 per edge is positive for a cycle iff
        // the original weight is ≥ 0. (Bellman–Ford positive-cycle
        // detection finds a positive *closed walk*, which always contains a
        // positive simple cycle when all other cycles are ≤ 0... and any
        // closed walk decomposes into simple cycles, so a positive walk
        // implies a positive simple cycle.)
        let m = self.edges.len() as i128 + 1;
        self.positive_cycle(|time, tokens| {
            m * ((q as i128) * (time as i128) - (p as i128) * (tokens as i128)) + 1
        })
    }

    /// Bellman–Ford detection of a positive-weight cycle under the edge
    /// weight function `weight(τ_source, tokens)`.
    fn positive_cycle(&self, weight: impl Fn(u64, u64) -> i128) -> bool {
        // Longest-path relaxation from an implicit super-source (d ≡ 0).
        let mut d = vec![0i128; self.n];
        for pass in 0..=self.n {
            let mut improved = false;
            for &(from, to, _, time, tokens) in &self.edges {
                let cand = d[from] + weight(time, tokens);
                if cand > d[to] {
                    d[to] = cand;
                    improved = true;
                }
            }
            if !improved {
                return false;
            }
            if pass == self.n {
                return true;
            }
        }
        unreachable!("loop returns on the final pass")
    }

    /// Extracts a cycle attaining ratio exactly `p/q` (callers guarantee
    /// `p/q` is the maximum ratio, so tight edges w.r.t. converged
    /// longest-path potentials contain such a cycle).
    fn tight_cycle(&self, p: u64, q: u64) -> Cycle {
        let w =
            |time: u64, tokens: u64| (q as i128) * (time as i128) - (p as i128) * (tokens as i128);
        // Converge longest-path potentials (no positive cycles at p/q).
        let mut d = vec![0i128; self.n];
        for _ in 0..=self.n {
            let mut improved = false;
            for &(from, to, _, time, tokens) in &self.edges {
                let cand = d[from] + w(time, tokens);
                if cand > d[to] {
                    d[to] = cand;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        // Tight subgraph: d[from] + w == d[to].
        let mut tight: Vec<Vec<(usize, PlaceId)>> = vec![Vec::new(); self.n];
        for &(from, to, place, time, tokens) in &self.edges {
            if d[from] + w(time, tokens) == d[to] {
                tight[from].push((to, place));
            }
        }
        // Any cycle in the tight subgraph has total weight 0, i.e. ratio
        // exactly p/q. Find one with an iterative DFS.
        let mut colour = vec![0u8; self.n];
        let mut parent: Vec<(usize, PlaceId)> = vec![(usize::MAX, PlaceId::from_index(0)); self.n];
        for root in 0..self.n {
            if colour[root] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            colour[root] = 1;
            while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
                if *ei < tight[v].len() {
                    let (to, place) = tight[v][*ei];
                    *ei += 1;
                    match colour[to] {
                        0 => {
                            colour[to] = 1;
                            parent[to] = (v, place);
                            stack.push((to, 0));
                        }
                        1 => {
                            // Cycle to -> ... -> v -> to found.
                            let mut transitions = vec![TransitionId::from_index(v)];
                            let mut places = vec![place];
                            let mut cur = v;
                            while cur != to {
                                let (prev, via) = parent[cur];
                                transitions.push(TransitionId::from_index(prev));
                                places.push(via);
                                cur = prev;
                            }
                            // Collected back-to-front: reversing both lists
                            // leaves places[i] as the edge out of
                            // transitions[i].
                            transitions.reverse();
                            places.reverse();
                            return Cycle::new(transitions, places);
                        }
                        _ => {}
                    }
                } else {
                    colour[v] = 2;
                    stack.pop();
                }
            }
        }
        unreachable!("a maximum-ratio cycle is always present in the tight subgraph")
    }

    /// Maximum cycle ratio by Howard's policy iteration.
    ///
    /// Every node is given an artificial self-loop of ratio `0/1` (zero
    /// time, one token) so a policy always exists and cycle-free regions
    /// settle at ratio zero; real cycles dominate because `τ ≥ 1` makes
    /// every true ratio positive. Each sweep evaluates the current policy —
    /// the cycles of its functional graph, their exact ratios `λ`, and
    /// longest-path values `d` scaled by `λ`'s denominator — then switches
    /// each node to its lexicographically best out-edge by `(λ, d)`. Any
    /// fixpoint is exact: summing the no-improvement inequality
    /// `q·τ − p·m + d[to] ≤ d[from]` around an arbitrary cycle `C` gives
    /// `q·Ω(C) − p·M(C) ≤ 0`, i.e. `Ω/M ≤ λ_max`, and `λ_max` is itself
    /// attained by a policy cycle. Only termination within the sweep
    /// budget is heuristic; on exhaustion the caller falls back to the
    /// parametric method, so the budget affects speed, never the answer.
    ///
    /// Returns `Ok(None)` when the graph has no cycle at all.
    fn howard(&self) -> Result<Option<(Ratio, Cycle)>, HowardDiverged> {
        let n = self.n;
        if n == 0 {
            return Ok(None);
        }
        // CSR out-adjacency (one flat arc array, one offset array — the
        // solver is allocation-bound otherwise): each node's real edges
        // first, its artificial self-loop in the last slot.
        // Arcs are (to, time, tokens, place).
        let mut start = vec![0usize; n + 1];
        for &(from, ..) in &self.edges {
            start[from + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v] + 1; // +1 for the self-loop slot
        }
        let mut arcs: Vec<(usize, u64, u64, Option<PlaceId>)> = vec![(0, 0, 1, None); start[n]];
        let mut fill: Vec<usize> = start[..n].to_vec();
        for &(from, to, place, time, tokens) in &self.edges {
            arcs[fill[from]] = (to, time, tokens, Some(place));
            fill[from] += 1;
        }
        for v in 0..n {
            arcs[fill[v]] = (v, 0, 1, None);
        }
        // Start on the self-loops: λ ≡ 0, the first sweep bootstraps.
        // `policy[u]` indexes `arcs` directly.
        let mut policy: Vec<usize> = (0..n).map(|v| start[v + 1] - 1).collect();
        let mut lambda = vec![Ratio::ZERO; n];
        let mut d = vec![0i128; n];
        let mut state = vec![0u8; n];
        let mut path = Vec::with_capacity(n);

        for _ in 0..HOWARD_SWEEPS {
            // Evaluate: resolve every node's reached policy cycle (λ) and
            // scaled value d by walking the functional graph once.
            state.fill(0); // 0 = unvisited, 1 = on the current walk, 2 = resolved
            for root in 0..n {
                if state[root] != 0 {
                    continue;
                }
                path.clear();
                let mut u = root;
                while state[u] == 0 {
                    state[u] = 1;
                    path.push(u);
                    u = arcs[policy[u]].0;
                }
                let resolved_from = if state[u] == 1 {
                    // New cycle: path[pos..] in policy order, closing at u,
                    // with u as the d = 0 reference.
                    let pos = path.iter().position(|&x| x == u).expect("u is on the walk");
                    let cyc = &path[pos..];
                    let (mut time_sum, mut token_sum) = (0u64, 0u64);
                    for &x in cyc {
                        let (_, time, tokens, _) = arcs[policy[x]];
                        time_sum += time;
                        token_sum += tokens;
                    }
                    // token_sum ≥ 1: real cycles are live (the caller
                    // checked), artificial loops carry one token.
                    let ratio = Ratio::new(time_sum, token_sum);
                    let (p, q) = (ratio.numer() as i128, ratio.denom() as i128);
                    lambda[u] = ratio;
                    d[u] = 0;
                    state[u] = 2;
                    for i in (pos + 1..path.len()).rev() {
                        let x = path[i];
                        let (to, time, tokens, _) = arcs[policy[x]];
                        d[x] = q * time as i128 - p * tokens as i128 + d[to];
                        lambda[x] = ratio;
                        state[x] = 2;
                    }
                    pos
                } else {
                    path.len()
                };
                // Tree prefix: inherits the successor's cycle.
                for i in (0..resolved_from).rev() {
                    let x = path[i];
                    let (to, time, tokens, _) = arcs[policy[x]];
                    let ratio = lambda[to];
                    let (p, q) = (ratio.numer() as i128, ratio.denom() as i128);
                    d[x] = q * time as i128 - p * tokens as i128 + d[to];
                    lambda[x] = ratio;
                    state[x] = 2;
                }
            }
            // Improve: each node takes its best out-edge by (λ, gain),
            // switching only on strict lexicographic improvement.
            let mut improved = false;
            for u in 0..n {
                let (mut best_l, mut best_d, mut best_i) = (lambda[u], d[u], policy[u]);
                for (i, &(to, time, tokens, _)) in
                    arcs.iter().enumerate().take(start[u + 1]).skip(start[u])
                {
                    let l = lambda[to];
                    if l < best_l {
                        continue;
                    }
                    let (p, q) = (l.numer() as i128, l.denom() as i128);
                    let gain = q * time as i128 - p * tokens as i128 + d[to];
                    if l > best_l || gain > best_d {
                        (best_l, best_d, best_i) = (l, gain, i);
                    }
                }
                if best_i != policy[u] {
                    policy[u] = best_i;
                    improved = true;
                }
            }
            if improved {
                continue;
            }
            // Converged. λ_max = 0 means the only cycles are artificial.
            let best = (0..n).max_by_key(|&u| lambda[u]).expect("n > 0");
            if lambda[best] == Ratio::ZERO {
                return Ok(None);
            }
            // Walk from the best node onto its policy cycle and read the
            // witness off the policy edges.
            let mut mark = vec![false; n];
            let mut u = best;
            while !mark[u] {
                mark[u] = true;
                u = arcs[policy[u]].0;
            }
            let entry = u;
            let mut transitions = Vec::new();
            let mut places = Vec::new();
            loop {
                let (to, _, _, place) = arcs[policy[u]];
                transitions.push(TransitionId::from_index(u));
                places.push(place.expect("a positive-ratio cycle has no artificial edges"));
                u = to;
                if u == entry {
                    break;
                }
            }
            return Ok(Some((lambda[best], Cycle::new(transitions, places))));
        }
        Err(HowardDiverged)
    }
}

/// Sweep budget for Howard's policy iteration. Convergence on real nets
/// takes a handful of sweeps; the cap only bounds the cost of the (never
/// observed) divergent case before the exact fallback takes over.
const HOWARD_SWEEPS: usize = 256;

/// Marker: policy iteration hit [`HOWARD_SWEEPS`] without converging.
struct HowardDiverged;

/// Maximum cycle ratio `max Ω(C)/M(C)` with a witness cycle attaining it,
/// or `None` for an acyclic graph. Howard's policy iteration answers in
/// near-linear time; the Stern–Brocot parametric descent backs it up so
/// the result is exact regardless of how policy iteration behaves.
fn max_cycle_ratio(graph: &ParamGraph) -> Option<(Ratio, Cycle)> {
    match graph.howard() {
        Ok(answer) => answer,
        Err(HowardDiverged) => {
            if !graph.has_any_cycle() {
                return None;
            }
            let (p, q) = stern_brocot(graph);
            Some((Ratio::new(p, q), graph.tight_cycle(p, q)))
        }
    }
}

/// Exact Stern–Brocot descent for the maximum cycle ratio.
///
/// Maintains an open interval `(a/b, c/d)` of the Stern–Brocot tree that
/// contains the answer, and walks continued-fraction steps with exponential
/// galloping. Requires that the graph has at least one cycle and every
/// cycle has positive token count.
fn stern_brocot(graph: &ParamGraph) -> (u64, u64) {
    // λ* ≥ smallest possible positive ratio, and test_ge(0,1) is trivially
    // true; handle the exact-zero case first (cannot happen with τ ≥ 1, but
    // keeps the function total).
    if !graph.exists_cycle_above(0, 1) {
        return (0, 1);
    }
    // Invariant: a/b < λ* < c/d (with c/d possibly 1/0 = ∞).
    let (mut a, mut b, mut c, mut d) = (0u64, 1u64, 1u64, 0u64);
    loop {
        let (p, q) = (a + c, b + d);
        if graph.exists_cycle_above(p, q) {
            // λ* > mediant: gallop toward c/d. Find the largest k ≥ 1 with
            // λ* > (a + k·c)/(b + k·d).
            let above = |k: u64| graph.exists_cycle_above(a + k * c, b + k * d);
            let mut hi_k = 2u64;
            while above(hi_k) {
                hi_k *= 2;
            }
            // Largest good k in [hi_k/2, hi_k).
            let (mut lo_k, mut bad_k) = (hi_k / 2, hi_k);
            while bad_k - lo_k > 1 {
                let mid = lo_k + (bad_k - lo_k) / 2;
                if above(mid) {
                    lo_k = mid;
                } else {
                    bad_k = mid;
                }
            }
            let (np, nq) = (a + bad_k * c, b + bad_k * d);
            if graph.exists_cycle_at_least(np, nq) {
                return (np, nq);
            }
            a += lo_k * c;
            b += lo_k * d;
            c = np;
            d = nq;
        } else if graph.exists_cycle_at_least(p, q) {
            return (p, q);
        } else {
            // λ* < mediant: gallop toward a/b. Find the largest k ≥ 1 with
            // λ* < (k·a + c)/(k·b + d).
            let below = |k: u64| {
                let (p, q) = (k * a + c, k * b + d);
                !graph.exists_cycle_at_least(p, q)
            };
            let mut hi_k = 2u64;
            while below(hi_k) {
                hi_k *= 2;
            }
            let (mut lo_k, mut bad_k) = (hi_k / 2, hi_k);
            while bad_k - lo_k > 1 {
                let mid = lo_k + (bad_k - lo_k) / 2;
                if below(mid) {
                    lo_k = mid;
                } else {
                    bad_k = mid;
                }
            }
            // λ* ≥ (bad_k·a + c)/(bad_k·b + d); equal?
            let (np, nq) = (bad_k * a + c, bad_k * b + d);
            if !graph.exists_cycle_above(np, nq) {
                return (np, nq);
            }
            c += lo_k * a;
            d += lo_k * b;
            a = np;
            b = nq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(times: &[u64], tokens: &[u32]) -> (PetriNet, Marking) {
        assert_eq!(times.len(), tokens.len());
        let mut net = PetriNet::new();
        let ts: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &tau)| net.add_transition(format!("t{i}"), tau))
            .collect();
        let n = ts.len();
        let mut m_pairs = Vec::new();
        for i in 0..n {
            let p = net.add_place(format!("p{i}"));
            net.connect_tp(ts[i], p);
            net.connect_pt(p, ts[(i + 1) % n]);
            m_pairs.push((p, tokens[i]));
        }
        let m = Marking::from_pairs(&net, m_pairs);
        (net, m)
    }

    #[test]
    fn single_ring_ratio() {
        let (net, m) = ring(&[1, 1, 1], &[1, 0, 0]);
        let r = critical_ratio(&net, &m).unwrap();
        assert_eq!(r.cycle_time, Ratio::new(3, 1));
        assert_eq!(r.rate, Ratio::new(1, 3));
        match r.witness {
            CriticalWitness::Cycle(c) => assert_eq!(c.len(), 3),
            other => panic!("expected cycle witness, got {other:?}"),
        }
    }

    #[test]
    fn explain_rate_produces_a_validated_witness() {
        // Two nested cycles (ring + chord) so there is a runner-up.
        let mut net = PetriNet::new();
        let ts: Vec<_> = (0..3)
            .map(|i| net.add_transition(format!("t{i}"), 1 + i as u64))
            .collect();
        let mut pairs = Vec::new();
        for i in 0..3 {
            let p = net.add_place(format!("p{i}"));
            net.connect_tp(ts[i], p);
            net.connect_pt(p, ts[(i + 1) % 3]);
            pairs.push((p, u32::from(i == 0)));
        }
        // Chord t1 -> t0 with a token: the 2-cycle {t0, t1} has Ω = 3,
        // M = 2; the full ring has Ω = 6, M = 1 and is critical.
        let chord = net.add_place("chord".to_string());
        net.connect_tp(ts[1], chord);
        net.connect_pt(chord, ts[0]);
        pairs.push((chord, 1));
        let m = Marking::from_pairs(&net, pairs);

        let ex = explain_rate(&net, &m, 1_000).unwrap();
        assert_eq!(ex.critical.cycle_time, Ratio::new(6, 1));
        assert!(ex.validate(&net, &m).is_empty());
        let analysis = ex.analysis.as_ref().unwrap();
        assert_eq!(analysis.cycles.len(), 2);
        assert_eq!(analysis.critical.len(), 1);
        // The runner-up 2-cycle has slack 6 − 3/2 = 9/2.
        let runner = analysis
            .cycles
            .iter()
            .enumerate()
            .find(|(i, _)| !analysis.critical.contains(i))
            .map(|(_, info)| info)
            .unwrap();
        assert_eq!(ex.slack(runner), Some(Ratio::new(9, 2)));

        // A doctored witness fails validation instead of passing silently.
        let mut forged = ex.clone();
        forged.critical.rate = Ratio::new(1, 7);
        assert!(!forged.validate(&net, &m).is_empty());
    }

    #[test]
    fn explain_rate_degrades_gracefully_past_the_cycle_limit() {
        let (net, m) = ring(&[2, 1, 1], &[1, 1, 0]);
        // limit 0 forces TooManyCycles inside enumeration; the solver's
        // witness must survive with the spectrum absent.
        let ex = explain_rate(&net, &m, 0).unwrap();
        assert!(ex.analysis.is_none());
        assert_eq!(ex.critical.cycle_time, Ratio::new(2, 1));
        assert!(ex.validate(&net, &m).is_empty());
    }

    #[test]
    fn component_cycle_times_split_disconnected_rings() {
        // Two disjoint rings: a 3-transition ring at cycle time 3 and a
        // 2-transition ring (times 2+2, one token) at cycle time 4.
        let mut net = PetriNet::new();
        let a: Vec<_> = (0..3)
            .map(|i| net.add_transition(format!("a{i}"), 1))
            .collect();
        let b: Vec<_> = (0..2)
            .map(|i| net.add_transition(format!("b{i}"), 2))
            .collect();
        let mut pairs = Vec::new();
        for i in 0..3 {
            let p = net.add_place(format!("pa{i}"));
            net.connect_tp(a[i], p);
            net.connect_pt(p, a[(i + 1) % 3]);
            pairs.push((p, u32::from(i == 0)));
        }
        for i in 0..2 {
            let p = net.add_place(format!("pb{i}"));
            net.connect_tp(b[i], p);
            net.connect_pt(p, b[(i + 1) % 2]);
            pairs.push((p, u32::from(i == 0)));
        }
        let m = Marking::from_pairs(&net, pairs);
        let comps = component_cycle_times(&net, &m).unwrap();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].transitions, a);
        assert_eq!(comps[0].cycle_time, Ratio::new(3, 1));
        assert_eq!(comps[1].transitions, b);
        assert_eq!(comps[1].cycle_time, Ratio::new(4, 1));
        // The net-wide analysis reports the slower component's bound.
        assert_eq!(
            critical_ratio(&net, &m).unwrap().cycle_time,
            Ratio::new(4, 1)
        );
    }

    #[test]
    fn component_cycle_times_agree_with_critical_ratio_when_connected() {
        let (net, m) = ring(&[2, 3, 1], &[1, 1, 0]);
        let comps = component_cycle_times(&net, &m).unwrap();
        assert_eq!(comps.len(), 1);
        assert_eq!(
            comps[0].cycle_time,
            critical_ratio(&net, &m).unwrap().cycle_time
        );
    }

    #[test]
    fn ring_with_more_tokens_is_faster() {
        let (net, m) = ring(&[2, 3, 1], &[1, 1, 0]);
        let r = critical_ratio(&net, &m).unwrap();
        // Ω = 6, M = 2, but the self-loop of t1 only allows cycle time 3;
        // both give 3.
        assert_eq!(r.cycle_time, Ratio::new(3, 1));
    }

    #[test]
    fn fractional_cycle_time() {
        let (net, m) = ring(&[1, 1, 1, 1, 1], &[1, 0, 1, 0, 0]);
        let r = critical_ratio(&net, &m).unwrap();
        assert_eq!(r.cycle_time, Ratio::new(5, 2));
        assert_eq!(r.rate, Ratio::new(2, 5));
    }

    #[test]
    fn acyclic_net_bounded_by_self_loop() {
        let mut net = PetriNet::new();
        let a = net.add_transition("a", 4);
        let b = net.add_transition("b", 1);
        let p = net.add_place("p");
        net.connect_tp(a, p);
        net.connect_pt(p, b);
        let m = Marking::empty(&net);
        let r = critical_ratio(&net, &m).unwrap();
        assert_eq!(r.cycle_time, Ratio::from_integer(4));
        assert_eq!(r.witness, CriticalWitness::SelfLoop(a));
    }

    #[test]
    fn self_loop_dominates_explicit_cycle() {
        // 2-cycle with 2 tokens has ratio (1+5)/2 = 3, but τ(b) = 5 > 3.
        let mut net = PetriNet::new();
        let a = net.add_transition("a", 1);
        let b = net.add_transition("b", 5);
        let fwd = net.add_place("fwd");
        let ack = net.add_place("ack");
        net.connect_tp(a, fwd);
        net.connect_pt(fwd, b);
        net.connect_tp(b, ack);
        net.connect_pt(ack, a);
        let m = Marking::from_pairs(&net, [(fwd, 1), (ack, 1)]);
        let r = critical_ratio(&net, &m).unwrap();
        assert_eq!(r.cycle_time, Ratio::from_integer(5));
        assert_eq!(r.witness, CriticalWitness::SelfLoop(b));
    }

    #[test]
    fn dead_marking_is_rejected() {
        let (net, _) = ring(&[1, 1, 1], &[1, 0, 0]);
        let dead = Marking::empty(&net);
        assert!(matches!(
            critical_ratio(&net, &dead),
            Err(PetriError::NotLive { .. })
        ));
    }

    #[test]
    fn zero_time_transition_is_rejected() {
        let (mut net, m) = ring(&[1, 1, 1], &[1, 0, 0]);
        net.set_time(TransitionId::from_index(1), 0);
        assert!(matches!(
            critical_ratio(&net, &m),
            Err(PetriError::ZeroExecutionTime { .. })
        ));
    }

    #[test]
    fn enumeration_matches_parametric_on_two_cycle_net() {
        // Ring of 3 (time 3, 1 token) plus chord creating 2-cycle with its
        // own token; ratios 3/1 vs 2/1.
        let (mut net, mut m) = ring(&[1, 1, 1], &[1, 0, 0]);
        let chord = net.add_place("chord");
        net.connect_tp(TransitionId::from_index(1), chord);
        net.connect_pt(chord, TransitionId::from_index(0));
        m = {
            let mut pairs: Vec<_> = m.marked_places().collect();
            pairs.push((chord, 1));
            Marking::from_pairs(&net, pairs)
        };
        let en = analyze_cycles(&net, &m, 64).unwrap();
        let pr = critical_ratio(&net, &m).unwrap();
        assert_eq!(en.cycle_time, pr.cycle_time);
        assert_eq!(en.cycle_time, Ratio::from_integer(3));
        assert_eq!(en.cycles.len(), 2);
        assert_eq!(en.critical.len(), 1);
    }

    #[test]
    fn multiple_critical_cycles_detected() {
        // Two disjoint rings of equal ratio joined... keep them disjoint in
        // one net: t0->t1->t0 and t2->t3->t2, each with 1 token: both 2/1.
        let mut net = PetriNet::new();
        let ts: Vec<_> = (0..4)
            .map(|i| net.add_transition(format!("t{i}"), 1))
            .collect();
        let mut pairs = Vec::new();
        for (x, y) in [(0, 1), (2, 3)] {
            let f = net.add_place(format!("f{x}"));
            let bck = net.add_place(format!("b{x}"));
            net.connect_tp(ts[x], f);
            net.connect_pt(f, ts[y]);
            net.connect_tp(ts[y], bck);
            net.connect_pt(bck, ts[x]);
            pairs.push((bck, 1));
        }
        let m = Marking::from_pairs(&net, pairs);
        let en = analyze_cycles(&net, &m, 64).unwrap();
        assert!(en.has_multiple_critical_cycles());
        assert_eq!(en.cycle_time, Ratio::from_integer(2));
        let pr = critical_ratio(&net, &m).unwrap();
        assert_eq!(pr.cycle_time, Ratio::from_integer(2));
    }

    #[test]
    fn witness_cycle_attains_the_ratio() {
        let (net, m) = ring(&[2, 1, 1, 3], &[1, 0, 1, 0]);
        let r = critical_ratio(&net, &m).unwrap();
        if let CriticalWitness::Cycle(c) = &r.witness {
            let ratio = Ratio::new(c.time_sum(&net), c.token_sum(&m));
            assert_eq!(ratio, r.cycle_time);
        } else {
            // Self-loop witness: τ_max must equal the cycle time.
            assert!(r.cycle_time.is_integer());
        }
    }

    #[test]
    fn large_integer_ratio_galloping() {
        // One cycle with Ω = 1000, M = 1: exercises the rightward gallop.
        let times: Vec<u64> = vec![100; 10];
        let tokens = {
            let mut v = vec![0u32; 10];
            v[0] = 1;
            v
        };
        let (net, m) = ring(&times, &tokens);
        let r = critical_ratio(&net, &m).unwrap();
        assert_eq!(r.cycle_time, Ratio::from_integer(1000));
    }

    #[test]
    fn howard_agrees_with_the_parametric_descent() {
        let mut gallop_times = vec![1u64; 51];
        gallop_times[7] = 9;
        let mut gallop_tokens = vec![1u32; 51];
        gallop_tokens[3] = 0;
        let fixtures = [
            ring(&[1, 1, 1], &[1, 0, 0]),
            ring(&[2, 3, 1], &[1, 1, 0]),
            ring(&[1, 1, 1, 1, 1], &[1, 0, 1, 0, 0]),
            ring(&[2, 1, 1, 3], &[1, 0, 1, 0]),
            ring(&gallop_times, &gallop_tokens),
        ];
        for (net, m) in fixtures {
            let graph = ParamGraph::new(&net, &m);
            let Ok(Some((ratio, cycle))) = graph.howard() else {
                panic!("policy iteration did not converge on a small ring");
            };
            let (p, q) = stern_brocot(&graph);
            assert_eq!(ratio, Ratio::new(p, q));
            // The witness really attains the ratio.
            assert_eq!(Ratio::new(cycle.time_sum(&net), cycle.token_sum(&m)), ratio);
        }
    }

    #[test]
    fn near_unit_ratio_galloping() {
        // Cycle with Ω = 51, M = 50 (ratio slightly above 1): exercises the
        // leftward gallop. Build a ring of 50 unit transitions, one of time
        // 2, with a token on every place.
        let mut times = vec![1u64; 50];
        times[7] = 2;
        let tokens = vec![1u32; 50];
        let (net, m) = ring(&times, &tokens);
        let r = critical_ratio(&net, &m).unwrap();
        // Self-loop bound is 2; cycle ratio is 51/50 < 2, so 2 wins.
        assert_eq!(r.cycle_time, Ratio::from_integer(2));
        // Remove the self-loop influence by making all times 1 except the
        // token distribution; use Ω=51 via 51 transitions and 50 tokens.
        let times = vec![1u64; 51];
        let mut tokens = vec![1u32; 51];
        tokens[3] = 0;
        let (net, m) = ring(&times, &tokens);
        let r = critical_ratio(&net, &m).unwrap();
        assert_eq!(r.cycle_time, Ratio::new(51, 50));
    }

    /// The net of a bare edge list `(from, to, tokens)` on transitions
    /// with the given times.
    fn edge_net(times: &[u64], edges: &[(usize, usize, u32)]) -> (PetriNet, Marking) {
        let mut net = PetriNet::new();
        let ts: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &tau)| net.add_transition(format!("t{i}"), tau))
            .collect();
        let mut pairs = Vec::new();
        for (k, &(from, to, tokens)) in edges.iter().enumerate() {
            let p = net.add_place(format!("p{k}"));
            net.connect_tp(ts[from], p);
            net.connect_pt(p, ts[to]);
            pairs.push((p, tokens));
        }
        let m = Marking::from_pairs(&net, pairs);
        (net, m)
    }

    #[test]
    fn cycle_time_check_agrees_with_critical_ratio_over_edit_chains() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mut checked, mut kept, mut not_live) = (0, 0, 0);
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(2..8usize);
            let times: Vec<u64> = (0..n).map(|_| rng.random_range(1..5u64)).collect();
            // A marked ring keeps the start live; chords add cycles.
            let mut edges: Vec<(usize, usize, u32)> = (0..n)
                .map(|i| (i, (i + 1) % n, u32::from(i == 0)))
                .collect();
            for _ in 0..rng.random_range(0..2 * n) {
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                edges.push((u, v, rng.random_range(u32::from(u == v)..3)));
            }
            let (net, m) = edge_net(&times, &edges);
            let Ok(start) = critical_ratio(&net, &m) else {
                continue;
            };
            let target = start.cycle_time;
            let mut check = CycleTimeCheck::new(times.clone(), edges.clone(), target);
            for _ in 0..24 {
                let mut removed: Vec<usize> = (0..rng.random_range(0..3usize))
                    .filter(|_| !edges.is_empty())
                    .map(|_| rng.random_range(0..edges.len()))
                    .collect();
                removed.dedup();
                let added = rng.random_bool(0.7).then(|| {
                    let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                    (u, v, rng.random_range(u32::from(u == v)..3))
                });
                let mut edited: Vec<_> = edges
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !removed.contains(i))
                    .map(|(_, &e)| e)
                    .collect();
                edited.extend(added);
                let (net, m) = edge_net(&times, &edited);
                let expected = match critical_ratio(&net, &m) {
                    Ok(r) => r.cycle_time == target,
                    Err(PetriError::NotLive { .. }) => {
                        not_live += 1;
                        false
                    }
                    Err(other) => panic!("seed {seed}: {other}"),
                };
                let verdict = check.keeps_target(&removed, added);
                assert_eq!(
                    verdict, expected,
                    "seed {seed}: {edges:?} -{removed:?} +{added:?}"
                );
                checked += 1;
                if verdict {
                    kept += 1;
                    check.accept();
                    edges = edited;
                    assert_eq!(check.edges(), edges.as_slice());
                }
            }
        }
        assert!(
            kept > 100 && checked - kept > 100 && not_live > 50,
            "{checked} {kept} {not_live}"
        );
    }
}
