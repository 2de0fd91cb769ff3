//! Minimum storage allocation under time-optimal scheduling (§6).
//!
//! Each forward/feedback data arc of an SDSP is backed by one storage
//! location, signalled free by its acknowledgement arc; the loop's storage
//! allocation is the number of acknowledgement arcs. The *balancing ratio*
//! of a cycle is `M(C)/Ω(C)` — tokens per cycle time — and the **critical
//! cycles** (smallest balancing ratio) fix the loop's maximum computation
//! rate. Cycles made entirely of data arcs cannot be changed without
//! changing the program, but acknowledgement structure is free: §6 of the
//! paper observes that the acknowledgements of consecutive data arcs on
//! *non-critical* cycles can be coalesced — one location serving a chain —
//! without lowering the computation rate, as long as no new cycle becomes
//! more critical than the existing critical cycle.
//!
//! [`minimize_storage`] implements that optimisation as a greedy chain
//! coalescer with **exact verification**: every candidate merge is
//! accepted only if the resulting SDSP-PN's critical cycle time is
//! unchanged. The loop is translated and solved with
//! [`tpn_petri::ratio::critical_ratio`] once; each candidate is then
//! decided against the current net's potentials and one of its critical
//! cycles by [`tpn_petri::ratio::CycleTimeCheck`], which changes one ack
//! edge at a time instead of rebuilding and re-solving the net. On the
//! paper's loop L2 it reproduces Figure 4 exactly: the acknowledgements
//! of `A→B` and `B→D` merge into one `D→A` arc, saving 1/6 of the
//! storage at an unchanged rate of 1/3.

use tpn_dataflow::to_petri::to_petri;
use tpn_dataflow::{AckArc, DataflowError, NodeId, Sdsp};
use tpn_petri::ratio::{analyze_cycles, critical_ratio, CycleTimeCheck};
use tpn_petri::rational::Ratio;
use tpn_petri::PetriError;

/// Errors from storage analysis.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum StorageError {
    /// The underlying net analysis failed (dead or malformed net).
    Petri(PetriError),
    /// Rewriting the acknowledgement structure failed.
    Dataflow(DataflowError),
    /// Cycle enumeration aborted: the SDSP-PN has more than `limit` simple
    /// cycles, so the balancing report cannot be produced at this limit.
    TooManyCycles {
        /// The enumeration limit that was exceeded.
        limit: usize,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Petri(e) => write!(f, "{e}"),
            StorageError::Dataflow(e) => write!(f, "{e}"),
            StorageError::TooManyCycles { limit } => write!(
                f,
                "the SDSP-PN has more than {limit} simple cycles; \
                 raise the cycle limit to analyse this net"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<PetriError> for StorageError {
    fn from(e: PetriError) -> Self {
        match e {
            PetriError::TooManyCycles { limit } => StorageError::TooManyCycles { limit },
            other => StorageError::Petri(other),
        }
    }
}

impl From<DataflowError> for StorageError {
    fn from(e: DataflowError) -> Self {
        StorageError::Dataflow(e)
    }
}

/// One cycle of the SDSP-PN mapped back to loop nodes, with its balancing
/// ratio.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleReport {
    /// The loop nodes on the cycle, in cycle order (acknowledgement hops
    /// revisit nodes, so names may repeat).
    pub nodes: Vec<NodeId>,
    /// Token sum `M(C)`.
    pub token_sum: u64,
    /// Execution-time sum `Ω(C)`.
    pub time_sum: u64,
    /// The balancing ratio `M(C)/Ω(C)`.
    pub ratio: Ratio,
    /// Whether this cycle is critical (minimum balancing ratio).
    pub critical: bool,
}

/// Enumerates every simple cycle of the loop's SDSP-PN with its balancing
/// ratio (§6's analysis table).
///
/// # Errors
///
/// Analysis errors for malformed or dead nets, or
/// [`PetriError::TooManyCycles`] beyond `limit`.
pub fn balancing_report(sdsp: &Sdsp, limit: usize) -> Result<Vec<CycleReport>, StorageError> {
    let pn = to_petri(sdsp);
    let analysis = analyze_cycles(&pn.net, &pn.marking, limit)?;
    Ok(analysis
        .cycles
        .iter()
        .enumerate()
        .map(|(i, info)| CycleReport {
            nodes: info
                .cycle
                .transitions()
                .iter()
                .map(|t| NodeId::from_index(t.index()))
                .collect(),
            token_sum: info.token_sum,
            time_sum: info.time_sum,
            ratio: Ratio::new(info.token_sum, info.time_sum),
            critical: analysis.critical.contains(&i),
        })
        .collect())
}

/// A merge performed by the optimiser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoalescedGroup {
    /// The producer that now waits on the shared location.
    pub to: NodeId,
    /// The consumer that now releases it.
    pub from: NodeId,
    /// How many data arcs share the location.
    pub arcs: usize,
}

/// The outcome of [`minimize_storage`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageReport {
    /// Locations before optimisation (one per data arc).
    pub before: usize,
    /// Locations after optimisation.
    pub after: usize,
    /// The multi-arc acknowledgement groups of the result.
    pub groups: Vec<CoalescedGroup>,
    /// The (unchanged) optimal cycle time.
    pub cycle_time: Ratio,
}

impl StorageReport {
    /// Locations saved.
    pub fn saved(&self) -> usize {
        self.before - self.after
    }

    /// Fraction of storage saved (the paper reports 1/6 for L2).
    pub fn saving_fraction(&self) -> Ratio {
        Ratio::new(self.saved() as u64, self.before as u64)
    }
}

/// Minimises the loop's storage allocation without lowering its optimal
/// computation rate.
///
/// Greedily merges acknowledgement groups of consecutive data arcs
/// (`…→v` followed by `v→…`), accepting a merge only if the exact critical
/// cycle time of the rewritten SDSP-PN is unchanged, until no merge is
/// acceptable. Returns the optimised SDSP and a report.
///
/// The paper's Figure 4 illustrates a *single* such merge on loop L2
/// (saving 1/6 of the storage); running the greedy loop to fixpoint
/// typically saves more — on L2 it reaches 3 of 6 locations at the same
/// rate of 1/3. Use [`minimize_storage_steps`] with `max_merges = 1` to
/// reproduce the figure exactly.
///
/// # Errors
///
/// Analysis errors for malformed or dead nets.
///
/// # Example
///
/// Loop L2 (§6 of the paper):
///
/// ```
/// use tpn_lang::compile;
/// use tpn_storage::{minimize_storage, minimize_storage_steps};
///
/// let sdsp = compile(
///     "do i from 1 to n {
///        A[i] := X[i] + 5;
///        B[i] := Y[i] + A[i];
///        C[i] := A[i] + E[i-1];
///        D[i] := B[i] + C[i];
///        E[i] := W[i] + D[i];
///      }",
/// )?;
/// // Figure 4: one merge, 6 -> 5 locations, 1/6 saved.
/// let (_, fig4) = minimize_storage_steps(&sdsp, 1)?;
/// assert_eq!((fig4.before, fig4.after), (6, 5));
/// assert_eq!(fig4.saving_fraction().to_string(), "1/6");
/// // Fixpoint: 6 -> 3 locations, rate still 1/3.
/// let (optimised, full) = minimize_storage(&sdsp)?;
/// assert_eq!(full.after, 3);
/// assert_eq!(optimised.storage_locations(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn minimize_storage(sdsp: &Sdsp) -> Result<(Sdsp, StorageReport), StorageError> {
    minimize_storage_steps(sdsp, usize::MAX)
}

/// [`minimize_storage`] limited to at most `max_merges` accepted merges
/// (with `1`, reproduces the paper's Figure 4 on loop L2).
///
/// # Errors
///
/// Analysis errors for malformed or dead nets.
pub fn minimize_storage_steps(
    sdsp: &Sdsp,
    max_merges: usize,
) -> Result<(Sdsp, StorageReport), StorageError> {
    minimize_visiting(sdsp, max_merges, |_, _, _, _| {})
}

/// The greedy behind [`minimize_storage_steps`], calling
/// `visit(current, i, j, accepted)` on every candidate merge of
/// acknowledgements `i` and `j` that passes the token filter.
fn minimize_visiting(
    sdsp: &Sdsp,
    max_merges: usize,
    mut visit: impl FnMut(&Sdsp, usize, usize, bool),
) -> Result<(Sdsp, StorageReport), StorageError> {
    let before = sdsp.storage_locations();
    let base_pn = to_petri(sdsp);
    let target = critical_ratio(&base_pn.net, &base_pn.marking)?.cycle_time;

    let times = sdsp.nodes().map(|(_, node)| node.time).collect();
    let (edges, mut ack_edge) = petri_edges(sdsp);
    let mut check = CycleTimeCheck::new(times, edges, target);
    let mut current = sdsp.clone();
    let mut merges = 0usize;
    while merges < max_merges {
        let Some(merged) = next_merge(&current, &ack_edge, &mut check, &mut visit) else {
            break;
        };
        check.accept();
        current = merged;
        let (edges, merged_ack_edge) = petri_edges(&current);
        debug_assert_eq!(
            check.edges(),
            edges.as_slice(),
            "the check tracks the places"
        );
        ack_edge = merged_ack_edge;
        merges += 1;
    }

    let groups = current
        .acks()
        .filter(|(_, a)| a.covers.len() > 1)
        .map(|(_, a)| CoalescedGroup {
            to: a.to,
            from: a.from,
            arcs: a.covers.len(),
        })
        .collect();
    let report = StorageReport {
        before,
        after: current.storage_locations(),
        groups,
        cycle_time: target,
    };
    Ok((current, report))
}

/// The first acceptable merge in pair order: chain `i` ends where chain
/// `j` begins, the two chains hold at most one live value, and the
/// merged net keeps the cycle time `check` was built for.
fn next_merge(
    current: &Sdsp,
    ack_edge: &[Option<usize>],
    check: &mut CycleTimeCheck,
    visit: &mut impl FnMut(&Sdsp, usize, usize, bool),
) -> Option<Sdsp> {
    let acks: Vec<&AckArc> = current.acks().map(|(_, a)| a).collect();
    for i in 0..acks.len() {
        for j in 0..acks.len() {
            if i == j || acks[i].from != acks[j].to {
                continue;
            }
            let tokens: u32 = acks[i]
                .covers
                .iter()
                .chain(&acks[j].covers)
                .map(|&a| current.arc(a).initial_tokens())
                .sum();
            if tokens > 1 {
                continue; // two live values cannot share one location
            }
            let (from, to) = (acks[j].from, acks[i].to);
            let capacity = acks[i].capacity.min(acks[j].capacity);
            // A self-acknowledgement gets no place (see `to_petri`).
            let added = (from != to).then(|| (from.index(), to.index(), capacity - tokens));
            let removed: Vec<usize> = [ack_edge[i], ack_edge[j]].into_iter().flatten().collect();
            let accepted = check.keeps_target(&removed, added);
            visit(current, i, j, accepted);
            if !accepted {
                continue;
            }
            if let Ok(candidate) = current.with_acks(merge_acks(current, i, j)) {
                return Some(candidate);
            }
        }
    }
    None
}

/// The acknowledgements of `sdsp` with `i` and `j` replaced by one ack
/// covering chain `i` then chain `j`, appended last.
fn merge_acks(sdsp: &Sdsp, i: usize, j: usize) -> Vec<AckArc> {
    let acks: Vec<&AckArc> = sdsp.acks().map(|(_, a)| a).collect();
    let mut covers = acks[i].covers.clone();
    covers.extend_from_slice(&acks[j].covers);
    let merged = AckArc {
        from: acks[j].from,
        to: acks[i].to,
        covers,
        capacity: acks[i].capacity.min(acks[j].capacity),
    };
    acks.iter()
        .enumerate()
        .filter(|&(k, _)| k != i && k != j)
        .map(|(_, a)| (*a).clone())
        .chain([merged])
        .collect()
}

/// A place of the SDSP-PN as `(from, to, tokens)`.
type Edge = (usize, usize, u32);

/// The SDSP-PN of `sdsp` as the edge list `(from, to, tokens)` that
/// [`to_petri`] builds places for — data arcs, then acknowledgements
/// other than self-acknowledgements — and the edge of each
/// acknowledgement.
fn petri_edges(sdsp: &Sdsp) -> (Vec<Edge>, Vec<Option<usize>>) {
    let mut edges: Vec<Edge> = sdsp
        .arcs()
        .map(|(_, arc)| (arc.from.index(), arc.to.index(), arc.initial_tokens()))
        .collect();
    let ack_edge = sdsp
        .acks()
        .map(|(_, ack)| {
            if ack.from == ack.to {
                return None;
            }
            let chain_tokens: u32 = ack
                .covers
                .iter()
                .map(|&a| sdsp.arc(a).initial_tokens())
                .sum();
            edges.push((
                ack.from.index(),
                ack.to.index(),
                ack.capacity - chain_tokens,
            ));
            Some(edges.len() - 1)
        })
        .collect();
    (edges, ack_edge)
}

/// The outcome of [`balance`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BalanceReport {
    /// The rate before balancing (single-buffered).
    pub rate_before: Ratio,
    /// The rate after balancing — the data-dependence bound.
    pub rate_after: Ratio,
    /// Storage locations before (Σ capacities).
    pub locations_before: usize,
    /// Storage locations after.
    pub locations_after: usize,
}

/// Balances the loop's buffering: raises acknowledgement capacities (the
/// FIFO-queued model of the paper's §7 future work) until the computation
/// rate reaches the **data-dependence bound** — the critical ratio over
/// cycles made of data arcs alone, which no buffering policy can beat.
///
/// With single buffering, a forward arc's acknowledgement round-trip caps
/// every producer/consumer pair at one firing per `τ(u) + τ(v)` cycles
/// (rate 1/2 for unit times) even in DOALL loops; double buffering lifts
/// the cap. Balancing computes, per acknowledgement chain, the capacity
/// needed for its cycle to meet the data bound, then repairs any remaining
/// slow cycle found by exact analysis. The inverse trade-off to
/// [`minimize_storage`]: spend locations to buy rate.
///
/// # Errors
///
/// Analysis errors for malformed or dead nets.
///
/// # Example
///
/// ```
/// use tpn_lang::compile;
/// use tpn_storage::balance;
///
/// // A DOALL chain is stuck at rate 1/2 with single buffering…
/// let sdsp = compile("doall i from 1 to n { A[i] := X[i] + 1; B[i] := A[i] * 2; }")?;
/// let (balanced, report) = balance(&sdsp)?;
/// assert_eq!(report.rate_before.to_string(), "1/2");
/// // …and reaches rate 1 with double buffering.
/// assert_eq!(report.rate_after.to_string(), "1");
/// assert_eq!(balanced.storage_locations(), 2); // one arc, capacity 2
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn balance(sdsp: &Sdsp) -> Result<(Sdsp, BalanceReport), StorageError> {
    let before_pn = to_petri(sdsp);
    let rate_before = critical_ratio(&before_pn.net, &before_pn.marking)?.rate;
    let locations_before = sdsp.storage_locations();

    // The data-dependence bound: critical ratio of the net with data arcs
    // only (drop every acknowledgement).
    let data_only = data_only_cycle_time(sdsp)?;

    // First pass: size each acknowledgement chain so its own cycle meets
    // the bound: (capacity + chain tokens) >= Ω(chain cycle) / α*.
    let mut acks: Vec<AckArc> = sdsp.acks().map(|(_, a)| a.clone()).collect();
    for ack in &mut acks {
        if ack.from == ack.to {
            continue; // the data cycle itself governs self-feedback
        }
        let mut omega: u64 = sdsp.node(ack.to).time;
        let mut chain_tokens: u64 = 0;
        for &arc in &ack.covers {
            omega += sdsp.node(sdsp.arc(arc).to).time;
            chain_tokens += sdsp.arc(arc).initial_tokens() as u64;
        }
        // required tokens m: Ω/m <= num/den  =>  m >= Ω·den/num.
        let needed = (omega * data_only.denom()).div_ceil(data_only.numer());
        let capacity = needed.saturating_sub(chain_tokens).max(1);
        ack.capacity = u32::try_from(capacity).expect("capacities are small");
    }
    let mut current = sdsp.with_acks(acks)?;

    // Repair pass: exact verification; bump a capacity on any remaining
    // slow cycle (cannot loop forever — every bump strictly lowers that
    // cycle's ratio toward the data bound).
    loop {
        let pn = to_petri(&current);
        let r = critical_ratio(&pn.net, &pn.marking)?;
        if r.cycle_time <= data_only {
            let report = BalanceReport {
                rate_before,
                rate_after: r.rate,
                locations_before,
                locations_after: current.storage_locations(),
            };
            return Ok((current, report));
        }
        let tpn_petri::ratio::CriticalWitness::Cycle(cycle) = &r.witness else {
            unreachable!("a self-loop bound never exceeds the data bound")
        };
        // Find an acknowledgement place on the witness cycle and widen it.
        let mut acks: Vec<AckArc> = current.acks().map(|(_, a)| a.clone()).collect();
        let ack_idx = cycle
            .places()
            .iter()
            .find_map(|p| pn.place_of_ack.iter().position(|&slot| slot == Some(*p)))
            .expect("a cycle above the data bound passes through an acknowledgement");
        acks[ack_idx].capacity += 1;
        current = current.with_acks(acks)?;
    }
}

/// Critical cycle time over data arcs alone (the buffering-independent
/// bound).
fn data_only_cycle_time(sdsp: &Sdsp) -> Result<Ratio, StorageError> {
    use tpn_petri::{Marking, PetriNet};
    let mut net = PetriNet::new();
    for (_, node) in sdsp.nodes() {
        net.add_transition(node.name.clone(), node.time);
    }
    let mut pairs = Vec::new();
    for (_, arc) in sdsp.arcs() {
        let p = net.add_place("d");
        net.connect_tp(tpn_petri::TransitionId::from_index(arc.from.index()), p);
        net.connect_pt(p, tpn_petri::TransitionId::from_index(arc.to.index()));
        if arc.initial_tokens() > 0 {
            pairs.push((p, arc.initial_tokens()));
        }
    }
    let marking = Marking::from_pairs(&net, pairs);
    Ok(critical_ratio(&net, &marking)?.cycle_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_lang::compile;
    use tpn_petri::marked::check_live_safe;

    fn l2() -> Sdsp {
        compile(
            "do i from 1 to n {\
               A[i] := X[i] + 5;\
               B[i] := Y[i] + A[i];\
               C[i] := A[i] + E[i-1];\
               D[i] := B[i] + C[i];\
               E[i] := W[i] + D[i];\
             }",
        )
        .unwrap()
    }

    #[test]
    fn l2_balancing_report_identifies_cde_as_critical() {
        let sdsp = l2();
        let report = balancing_report(&sdsp, 256).unwrap();
        let critical: Vec<_> = report.iter().filter(|c| c.critical).collect();
        assert_eq!(critical.len(), 1);
        assert_eq!(critical[0].ratio, Ratio::new(1, 3));
        assert_eq!(critical[0].nodes.len(), 3);
        // Non-critical 2-cycles have balancing ratio 1/2.
        assert!(report
            .iter()
            .filter(|c| !c.critical && c.nodes.len() == 2)
            .all(|c| c.ratio == Ratio::new(1, 2)));
    }

    #[test]
    fn balancing_report_surfaces_the_exceeded_cycle_limit() {
        let err = balancing_report(&l2(), 1).unwrap_err();
        assert_eq!(err, StorageError::TooManyCycles { limit: 1 });
        let message = err.to_string();
        assert!(message.contains("more than 1 simple cycles"), "{message}");
        assert!(message.contains("raise the cycle limit"), "{message}");
    }

    #[test]
    fn l2_single_step_reproduces_figure_4() {
        // Figure 4: the acknowledgements of A->B and B->D merge into one
        // D->A arc: 6 -> 5 locations, saving 1/6.
        let sdsp = l2();
        let (optimised, report) = minimize_storage_steps(&sdsp, 1).unwrap();
        assert_eq!(report.before, 6);
        assert_eq!(report.after, 5);
        assert_eq!(report.saving_fraction(), Ratio::new(1, 6));
        assert_eq!(report.cycle_time, Ratio::new(3, 1));
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].arcs, 2);
        let names = sdsp.names();
        assert_eq!(report.groups[0].to, names["A"]);
        assert_eq!(report.groups[0].from, names["D"]);
        let pn = to_petri(&optimised);
        assert!(check_live_safe(&pn.net, &pn.marking).is_ok());
    }

    #[test]
    fn l2_fixpoint_saves_three_locations() {
        let (optimised, report) = minimize_storage(&l2()).unwrap();
        assert_eq!(report.before, 6);
        assert_eq!(report.after, 3);
        assert_eq!(report.saved(), 3);
        assert_eq!(report.cycle_time, Ratio::new(3, 1));
        assert!(!report.groups.is_empty());
        // The optimised net is still a live safe marked graph at the same
        // rate.
        let pn = to_petri(&optimised);
        assert!(check_live_safe(&pn.net, &pn.marking).is_ok());
        assert_eq!(
            critical_ratio(&pn.net, &pn.marking).unwrap().cycle_time,
            Ratio::new(3, 1)
        );
    }

    #[test]
    fn doall_chain_coalesces_down_to_rate_limit() {
        // A pure chain with no LCD: the fwd/ack 2-cycles (ratio 1/2) are
        // critical, so no merge can keep the cycle time at 2 — a merged
        // chain of 2 arcs has ratio 1/3 < 1/2. Nothing merges.
        let sdsp = compile(
            "doall i from 1 to n { A[i] := X[i] + 1; B[i] := A[i] + 1; C[i] := B[i] + 1; }",
        )
        .unwrap();
        let (_, report) = minimize_storage(&sdsp).unwrap();
        assert_eq!(report.before, 2);
        assert_eq!(report.after, 2);
        assert!(report.groups.is_empty());
    }

    #[test]
    fn slow_recurrence_allows_deep_coalescing() {
        // A 6-deep recurrence: critical cycle time 6 permits chains of up
        // to 5 arcs per location on the forward path.
        let sdsp = compile(
            "do i from 1 to n {\
               A[i] := F[i-1] + 1;\
               B[i] := A[i] + 1;\
               C[i] := B[i] + 1;\
               D[i] := C[i] + 1;\
               E[i] := D[i] + 1;\
               F[i] := E[i] + 1;\
             }",
        )
        .unwrap();
        let (optimised, report) = minimize_storage(&sdsp).unwrap();
        assert_eq!(report.before, 6);
        assert!(report.after < report.before, "no saving found");
        let pn = to_petri(&optimised);
        assert_eq!(
            critical_ratio(&pn.net, &pn.marking).unwrap().cycle_time,
            Ratio::new(6, 1)
        );
        assert!(check_live_safe(&pn.net, &pn.marking).is_ok());
    }

    #[test]
    fn single_node_loop_has_nothing_to_save() {
        let sdsp = compile("doall i from 1 to n { D[i] := Y[i+1] - Y[i]; }").unwrap();
        let (_, report) = minimize_storage(&sdsp).unwrap();
        assert_eq!(report.before, 0);
        assert_eq!(report.after, 0);
    }

    #[test]
    fn balancing_l1_reaches_rate_one() {
        // L1 is a DOALL: the data bound is 1 (only non-reentrance), while
        // single buffering caps it at 1/2. Double buffering suffices.
        let sdsp = compile(
            "doall i from 1 to n {\
               A[i] := X[i] + 5;\
               B[i] := Y[i] + A[i];\
               C[i] := A[i] + Z[i];\
               D[i] := B[i] + C[i];\
               E[i] := W[i] + D[i];\
             }",
        )
        .unwrap();
        let (balanced, report) = balance(&sdsp).unwrap();
        assert_eq!(report.rate_before, Ratio::new(1, 2));
        assert_eq!(report.rate_after, Ratio::ONE);
        // 5 arcs at capacity 2.
        assert_eq!(report.locations_after, 10);
        assert!(balanced.acks().all(|(_, a)| a.capacity == 2));
    }

    #[test]
    fn balancing_l2_reaches_the_recurrence_bound() {
        // L2's data bound is the C->D->E recurrence: 1/3. Balancing must
        // reach exactly 1/3, not more.
        let (balanced, report) = balance(&l2()).unwrap();
        assert_eq!(report.rate_before, Ratio::new(1, 3));
        assert_eq!(report.rate_after, Ratio::new(1, 3));
        // Already at the bound: capacities stay minimal (1 each).
        assert_eq!(report.locations_after, report.locations_before);
        let _ = balanced;
    }

    #[test]
    fn balancing_inner_product_reaches_rate_one() {
        // Loop 3: Q := old Q + Z*X. Data cycles: Q's self-loop (ratio 1).
        // The mul->add acknowledgement needs capacity 2.
        let sdsp = compile("do i from 1 to n { Q := old Q + Z[i] * X[i]; }").unwrap();
        let (balanced, report) = balance(&sdsp).unwrap();
        assert_eq!(report.rate_before, Ratio::new(1, 2));
        assert_eq!(report.rate_after, Ratio::ONE);
        let pn = to_petri(&balanced);
        // The balanced net is 2-bounded, not safe: FIFO queues of depth 2.
        assert!(check_live_safe(&pn.net, &pn.marking).is_err());
        assert!(tpn_petri::marked::check_live(&pn.net, &pn.marking).is_ok());
    }

    #[test]
    fn balanced_loop_actually_runs_at_the_data_bound() {
        use tpn_sched::frustum::detect_frustum_eager;
        let sdsp = compile(
            "doall i from 1 to n { A[i] := X[i] + 1; B[i] := A[i] * 2; C[i] := B[i] - 1; }",
        )
        .unwrap();
        let (balanced, report) = balance(&sdsp).unwrap();
        let pn = to_petri(&balanced);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 100_000).unwrap();
        for t in pn.net.transition_ids() {
            assert_eq!(f.rate_of(t), report.rate_after);
        }
        assert_eq!(report.rate_after, Ratio::ONE);
    }

    #[test]
    fn balancing_slow_nodes_respects_non_reentrance() {
        // A node of time 3 bounds the rate at 1/3 regardless of buffering.
        use tpn_dataflow::{OpKind, Operand, SdspBuilder};
        let mut b = SdspBuilder::new();
        let a = b.node("a", OpKind::Neg, [Operand::env("X", 0)]);
        let c = b.node("c", OpKind::Neg, [Operand::node(a)]);
        b.set_time(c, 3);
        let sdsp = b.finish().unwrap();
        let (_, report) = balance(&sdsp).unwrap();
        assert_eq!(report.rate_after, Ratio::new(1, 3));
    }

    #[test]
    fn optimised_schedule_preserves_semantics() {
        use tpn_dataflow::interp::Env;
        use tpn_sched::frustum::detect_frustum_eager;
        use tpn_sched::validate::replay_semantics;
        use tpn_sched::LoopSchedule;

        let sdsp = l2();
        let (optimised, _) = minimize_storage(&sdsp).unwrap();
        let pn = to_petri(&optimised);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 10_000).unwrap();
        let schedule = LoopSchedule::from_frustum(&optimised, &pn, &f).unwrap();
        let env = Env::ramp(&["X", "Y", "W"], 64, |ai, i| ai as f64 + i as f64);
        let outcome = replay_semantics(&optimised, &schedule, &env, 64).unwrap();
        assert!(outcome.semantics_preserved());
        // And the rate is still optimal.
        assert_eq!(schedule.rate(), Ratio::new(1, 3));
    }
}

/// The greedy against the per-candidate loop it replaced: every
/// candidate rebuilt with `with_acks`, translated with `to_petri` and
/// re-solved with `critical_ratio`. That loop is the oracle; the
/// inputs span the Livermore kernels, the fuzz generator's five shapes,
/// synthetic loops and seeded loop sources.
#[cfg(test)]
mod reference {
    use super::*;
    use tpn_dataflow::{OpKind, Operand, SdspBuilder};

    fn reference_minimize(
        sdsp: &Sdsp,
        max_merges: usize,
    ) -> Result<(Sdsp, StorageReport), StorageError> {
        let before = sdsp.storage_locations();
        let base_pn = to_petri(sdsp);
        let target = critical_ratio(&base_pn.net, &base_pn.marking)?.cycle_time;

        let mut current = sdsp.clone();
        let mut merges = 0usize;
        while merges < max_merges {
            let mut merged = false;
            let acks: Vec<AckArc> = current.acks().map(|(_, a)| a.clone()).collect();
            'pairs: for i in 0..acks.len() {
                for j in 0..acks.len() {
                    if i == j || acks[i].from != acks[j].to {
                        continue;
                    }
                    let mut covers = acks[i].covers.clone();
                    covers.extend_from_slice(&acks[j].covers);
                    let tokens: u32 = covers
                        .iter()
                        .map(|&a| current.arc(a).initial_tokens())
                        .sum();
                    if tokens > 1 {
                        continue;
                    }
                    let candidate_ack = AckArc {
                        from: acks[j].from,
                        to: acks[i].to,
                        covers,
                        capacity: acks[i].capacity.min(acks[j].capacity),
                    };
                    let mut new_acks: Vec<AckArc> = acks
                        .iter()
                        .enumerate()
                        .filter(|&(k, _)| k != i && k != j)
                        .map(|(_, a)| a.clone())
                        .collect();
                    new_acks.push(candidate_ack);
                    let Ok(candidate) = current.with_acks(new_acks) else {
                        continue;
                    };
                    let pn = to_petri(&candidate);
                    let Ok(ratio) = critical_ratio(&pn.net, &pn.marking) else {
                        continue;
                    };
                    if ratio.cycle_time == target {
                        current = candidate;
                        merged = true;
                        merges += 1;
                        break 'pairs;
                    }
                }
            }
            if !merged {
                break;
            }
        }
        let groups = current
            .acks()
            .filter(|(_, a)| a.covers.len() > 1)
            .map(|(_, a)| CoalescedGroup {
                to: a.to,
                from: a.from,
                arcs: a.covers.len(),
            })
            .collect();
        let report = StorageReport {
            before,
            after: current.storage_locations(),
            groups,
            cycle_time: target,
        };
        Ok((current, report))
    }

    /// What the visited candidates covered.
    #[derive(Debug, Default)]
    struct Tally {
        candidates: usize,
        accepted: usize,
        merges: usize,
        not_live: usize,
        self_acks: usize,
        self_loop_targets: usize,
    }

    impl std::ops::AddAssign for Tally {
        fn add_assign(&mut self, other: Tally) {
            self.candidates += other.candidates;
            self.accepted += other.accepted;
            self.merges += other.merges;
            self.not_live += other.not_live;
            self.self_acks += other.self_acks;
            self.self_loop_targets += other.self_loop_targets;
        }
    }

    /// Asserts that both greedies agree at the fixpoint and for 1–4
    /// merges (`Debug`-identical graphs, equal reports or errors), and
    /// that the check's verdict on every candidate the fixpoint run
    /// visits equals the re-solved cycle time's.
    fn check(sdsp: &Sdsp, label: &str) -> Tally {
        assert_eq!(
            format!("{:?}", minimize_storage(sdsp)),
            format!("{:?}", reference_minimize(sdsp, usize::MAX)),
            "{label}"
        );
        for steps in 1..=4 {
            assert_eq!(
                format!("{:?}", minimize_storage_steps(sdsp, steps)),
                format!("{:?}", reference_minimize(sdsp, steps)),
                "{label}, {steps} merges"
            );
        }
        let mut tally = Tally::default();
        let Ok(ratio) = critical_ratio(&to_petri(sdsp).net, &to_petri(sdsp).marking) else {
            return tally;
        };
        let target = ratio.cycle_time;
        if sdsp
            .nodes()
            .any(|(_, n)| Ratio::from_integer(n.time) == target)
        {
            tally.self_loop_targets += 1;
        }
        let result = minimize_visiting(sdsp, usize::MAX, |current, i, j, accepted| {
            let candidate = current
                .with_acks(merge_acks(current, i, j))
                .expect("merged chains are valid allocations");
            let pn = to_petri(&candidate);
            let expected = match critical_ratio(&pn.net, &pn.marking) {
                Ok(r) => r.cycle_time == target,
                Err(PetriError::NotLive { .. }) => {
                    tally.not_live += 1;
                    false
                }
                Err(other) => panic!("{label}: {other}"),
            };
            assert_eq!(accepted, expected, "{label}: merging acks {i} and {j}");
            let acks: Vec<&AckArc> = current.acks().map(|(_, a)| a).collect();
            if acks[j].from == acks[i].to {
                tally.self_acks += 1;
            }
            tally.candidates += 1;
            tally.accepted += usize::from(accepted);
        });
        tally.merges = result.map_or(0, |(_, report)| report.saved());
        tally
    }

    fn l2() -> Sdsp {
        tpn_lang::compile(
            "do i from 1 to n { A[i] := X[i] + 5; B[i] := Y[i] + A[i]; \
             C[i] := A[i] + E[i-1]; D[i] := B[i] + C[i]; E[i] := W[i] + D[i]; }",
        )
        .unwrap()
    }

    /// A seeded loop in the loop language: each statement reads the
    /// environment, earlier statements of the same iteration and — when
    /// `max_distance > 0` — nearby statements up to `max_distance`
    /// iterations back.
    fn loop_source(seed: u64, statements: usize, max_distance: u32) -> String {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = if max_distance == 0 {
            String::from("doall i from 1 to n {")
        } else {
            format!("do i from {} to n {{", max_distance + 1)
        };
        for j in 0..statements {
            let mut expr = format!("X{}[i]", j % 3);
            for _ in 0..rng.random_range(1..4usize) {
                let operand = if max_distance == 0 || (j > 0 && rng.random_bool(0.6)) {
                    if j == 0 {
                        continue;
                    }
                    format!("T{}[i]", j - 1 - rng.random_range(0..j.min(4)))
                } else {
                    let m = rng.random_range(j.saturating_sub(3)..(j + 3).min(statements));
                    format!("T{m}[i-{}]", rng.random_range(1..max_distance + 1))
                };
                expr = format!("{expr} + {operand}");
            }
            out.push_str(&format!(" T{j}[i] := {expr};"));
        }
        out.push_str(" }");
        out
    }

    #[test]
    fn l2_and_livermore_kernels_match_the_reference() {
        let mut tally = check(&l2(), "L2");
        for kernel in tpn_livermore::kernels() {
            tally += check(&kernel.sdsp(), kernel.name);
        }
        assert!(tally.merges > 0, "{tally:?}");
    }

    #[test]
    fn fuzz_shapes_match_the_reference() {
        use tpn_conform::gen::{generate, Shape};
        for shape in Shape::ALL {
            let mut tally = Tally::default();
            for case in 0..40 {
                let label = format!("{} case {case}", shape.as_str());
                tally += check(&generate(11, case, shape), &label);
            }
            assert!(tally.candidates > 0, "{}: {tally:?}", shape.as_str());
        }
    }

    #[test]
    fn synthetic_loops_match_the_reference() {
        use tpn_livermore::synth::{chain, generate, recurrence_ring, wide, SynthConfig};
        let mut tally = Tally::default();
        for n in [1, 2, 7, 24] {
            tally += check(&chain(n), &format!("chain/{n}"));
            tally += check(&wide(n), &format!("wide/{n}"));
            tally += check(&recurrence_ring(n), &format!("ring/{n}"));
        }
        for seed in 0..30 {
            for distance in 1..=3 {
                let nodes = 3 + seed as usize % 12;
                let config = SynthConfig {
                    nodes,
                    forward_density: 0.7,
                    recurrences: 1 + seed as usize % 3,
                    distance,
                    seed,
                };
                let label = format!("synth seed {seed} distance {distance}");
                tally += check(&generate(&config), &label);
            }
        }
        assert!(tally.merges > 0, "{tally:?}");
    }

    #[test]
    fn seeded_loop_sources_match_the_reference() {
        let mut tally = Tally::default();
        for seed in 0..48 {
            let statements = 2 + seed as usize % 11;
            for max_distance in 0..=4 {
                let source = loop_source(seed, statements, max_distance);
                let sdsp = tpn_lang::compile(&source).expect("generated loops compile");
                tally += check(&sdsp, &source);
            }
        }
        assert!(tally.merges > 0 && tally.not_live > 0, "{tally:?}");
    }

    #[test]
    fn verdicts_cover_every_kind_of_candidate() {
        let mut tally = Tally::default();
        // A node slower than every cycle — here one that reads no other
        // node — makes the target the self-loop bound `max τ`.
        let mut b = SdspBuilder::new();
        let a = b.node("A", OpKind::Neg, [Operand::env("X", 0)]);
        let c = b.node("C", OpKind::Neg, [Operand::node(a)]);
        let d = b.node("D", OpKind::Neg, [Operand::node(c)]);
        let _e = b.node("E", OpKind::Add, [Operand::node(d), Operand::node(a)]);
        let slow = b.node("S", OpKind::Neg, [Operand::env("Y", 0)]);
        b.set_time(slow, 9);
        let beside_slow = check(&b.finish().unwrap(), "chain beside a slow node");
        assert!(beside_slow.self_loop_targets == 1 && beside_slow.merges > 0);
        tally += beside_slow;
        // Balanced loops: acknowledgements with several free slots.
        for sdsp in [l2(), tpn_livermore::kernels()[3].sdsp()] {
            tally += check(&balance(&sdsp).unwrap().0, "balanced");
        }
        // X := old Y + A; Y := X * 2: merging the two acks of the 2-cycle
        // gives a self-acknowledgement.
        let mut b = SdspBuilder::new();
        let x = b.node("X", OpKind::Add, [Operand::lit(0.0), Operand::env("A", 0)]);
        let y = b.node("Y", OpKind::Mul, [Operand::node(x), Operand::lit(2.0)]);
        b.set_operand(x, 0, Operand::feedback(y, 1));
        tally += check(&b.finish().unwrap(), "two-node recurrence");
        // Multi-critical and near-tie generator shapes, and DO loops whose
        // merges close token-free cycles.
        for case in 0..24 {
            use tpn_conform::gen::{generate, Shape};
            tally += check(&generate(5, case, Shape::MultiCritical), "multi-critical");
            tally += check(&generate(5, case, Shape::NearTie), "near-tie");
            let source = loop_source(100 + case, 3 + case as usize % 6, 1 + case as u32 % 2);
            tally += check(&tpn_lang::compile(&source).unwrap(), &source);
        }
        assert!(tally.self_loop_targets > 0, "{tally:?}");
        assert!(tally.self_acks > 0, "{tally:?}");
        assert!(tally.not_live > 0, "{tally:?}");
        assert!(
            tally.accepted > 0 && tally.accepted < tally.candidates,
            "{tally:?}"
        );
    }
}
