//! Incremental construction of SDSP graphs.

use std::collections::HashMap;

use crate::error::DataflowError;
use crate::graph::{AckArc, ArcKind, DataArc, Node, NodeId, Operand, Sdsp};
use crate::ops::OpKind;

/// Builder for [`Sdsp`] graphs.
///
/// Nodes are added one at a time; forward references are expressed by
/// adding the node first with a placeholder operand and patching it with
/// [`set_operand`](SdspBuilder::set_operand) (loop-carried self-references
/// need this, since the node id does not exist until the node is added).
///
/// [`finish`](SdspBuilder::finish) expands loop-carried dependences of
/// distance `d > 1` into chains of `d − 1` buffer ([`OpKind::Id`]) actors —
/// the paper's SDSP model carries exactly one token per feedback arc, so
/// longer distances are realised structurally — then derives the data arcs,
/// attaches the default one-acknowledgement-per-arc storage allocation, and
/// validates the result.
///
/// # Example
///
/// Loop 5 of the Livermore suite, `X[i] = Z[i] * (Y[i] - X[i-1])`:
///
/// ```
/// use tpn_dataflow::{SdspBuilder, OpKind, Operand};
///
/// let mut b = SdspBuilder::new();
/// let sub = b.node("t", OpKind::Sub, [Operand::env("Y", 0), Operand::lit(0.0)]);
/// let x = b.node("X", OpKind::Mul, [Operand::env("Z", 0), Operand::node(sub)]);
/// b.set_operand(sub, 1, Operand::feedback(x, 1)); // X[i-1]
/// let sdsp = b.finish()?;
/// assert!(sdsp.has_loop_carried_dependence());
/// # Ok::<(), tpn_dataflow::DataflowError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SdspBuilder {
    nodes: Vec<Node>,
}

impl SdspBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a unit-time node and returns its id.
    pub fn node(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        operands: impl IntoIterator<Item = Operand>,
    ) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            name: name.into(),
            op,
            operands: operands.into_iter().collect(),
            time: 1,
            initial_value: 0.0,
        });
        id
    }

    /// Overrides the execution time of `node` (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn set_time(&mut self, node: NodeId, time: u64) -> &mut Self {
        self.nodes[node.index()].time = time;
        self
    }

    /// Sets the initial (pre-loop) value seen by loop-carried consumers of
    /// `node` (default 0.0).
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn set_initial(&mut self, node: NodeId, value: f64) -> &mut Self {
        self.nodes[node.index()].initial_value = value;
        self
    }

    /// Renames `node` (front-ends create operation nodes bottom-up with
    /// derived names and rename the statement's top node afterwards).
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn set_name(&mut self, node: NodeId, name: impl Into<String>) -> &mut Self {
        self.nodes[node.index()].name = name.into();
        self
    }

    /// Replaces operand `slot` of `node`, enabling forward and
    /// self-references.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown or `slot` is out of range for the
    /// operands supplied at [`node`](SdspBuilder::node) time.
    pub fn set_operand(&mut self, node: NodeId, slot: usize, operand: Operand) -> &mut Self {
        self.nodes[node.index()].operands[slot] = operand;
        self
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finishes construction: expands long feedback distances, derives data
    /// arcs and default acknowledgements, and validates.
    ///
    /// # Errors
    ///
    /// Any [`DataflowError`] reported by [`Sdsp::validate`], most commonly
    /// [`DataflowError::ForwardCycle`] for same-iteration dependence cycles
    /// and [`DataflowError::WrongArity`] for malformed operand lists.
    pub fn finish(mut self) -> Result<Sdsp, DataflowError> {
        self.expand_long_feedback();
        // Liveness repair: a loop-carried buffer of capacity one can
        // deadlock when its producer's first firing transitively waits on
        // its own consumer (the token-free cycle runs through feedback
        // acknowledgements — e.g. cross-coupled recurrences, or a producer
        // with both same-iteration and loop-carried consumers). Static
        // dataflow resolves this with a dedicated buffer actor on the
        // offending feedback; we insert buffers lazily, only where the
        // marked-graph liveness test actually fails, so loops that are
        // live as written (all of the paper's examples) keep their exact
        // structure. Each insertion removes one producer from all non-self
        // feedback positions, so the loop terminates.
        //
        // The first candidate is validated before any search, so
        // same-iteration cycles and malformed operands are reported as
        // such. The search then runs on the operands directly (see
        // `token_free_cycle`), and the graph is built and validated once
        // more only if a buffer went in.
        let candidate = Self::build_candidate(std::mem::take(&mut self.nodes));
        candidate.validate()?;
        let Some(mut cycle) = token_free_cycle(&candidate.nodes) else {
            return Ok(candidate);
        };
        self.nodes = candidate.nodes;
        loop {
            let producer = feedback_producer_on(&self.nodes, &cycle)
                .expect("a token-free cycle contains a feedback acknowledgement");
            self.buffer_feedback_of(producer);
            match token_free_cycle(&self.nodes) {
                Some(next) => cycle = next,
                None => break,
            }
        }
        let sdsp = Self::build_candidate(self.nodes);
        sdsp.validate()?;
        Ok(sdsp)
    }

    /// Derives data arcs and the default one-acknowledgement-per-arc
    /// storage allocation for `nodes`.
    fn build_candidate(nodes: Vec<Node>) -> Sdsp {
        let mut arcs = Vec::new();
        for (consumer_idx, node) in nodes.iter().enumerate() {
            for operand in &node.operands {
                if let Operand::Node {
                    node: producer,
                    distance,
                } = operand
                {
                    debug_assert!(*distance <= 1, "expanded in finish()");
                    arcs.push(DataArc {
                        from: *producer,
                        to: NodeId::from_index(consumer_idx),
                        kind: if *distance == 0 {
                            ArcKind::Forward
                        } else {
                            ArcKind::Feedback
                        },
                    });
                }
            }
        }
        let acks = arcs
            .iter()
            .enumerate()
            .map(|(i, arc)| AckArc::single(crate::graph::ArcId::from_index(i), arc))
            .collect();
        Sdsp { nodes, arcs, acks }
    }

    /// Inserts (or reuses) the buffer actor for `producer` and reroutes
    /// every non-self distance-1 feedback reference through it.
    fn buffer_feedback_of(&mut self, producer: NodeId) {
        let buf_name = format!("{}~fb", self.nodes[producer.index()].name);
        let buf = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            name: buf_name,
            op: OpKind::Id,
            operands: vec![Operand::node(producer)],
            time: 1,
            initial_value: self.nodes[producer.index()].initial_value,
        });
        for idx in 0..self.nodes.len() {
            if idx == producer.index() || idx == buf.index() {
                continue;
            }
            for operand in &mut self.nodes[idx].operands {
                if let Operand::Node { node, distance } = operand {
                    if *node == producer && *distance > 0 {
                        *node = buf;
                    }
                }
            }
        }
    }

    /// Rewrites operands with distance `d > 1` to go through shared chains
    /// of `Id` buffer nodes, each a distance-1 feedback hop.
    fn expand_long_feedback(&mut self) {
        // (producer, delay) -> buffer node holding the producer's value
        // delayed by `delay` iterations.
        let mut buffers: HashMap<(NodeId, u32), NodeId> = HashMap::new();
        for idx in 0..self.nodes.len() {
            for slot in 0..self.nodes[idx].operands.len() {
                let (producer, distance) = match self.nodes[idx].operands[slot] {
                    Operand::Node { node, distance } if distance > 1 => (node, distance),
                    _ => continue,
                };
                // Build (or reuse) buffers delaying by 1 .. distance-1.
                let mut upstream = producer;
                for delay in 1..distance {
                    let key = (producer, delay);
                    upstream = match buffers.get(&key) {
                        Some(&b) => b,
                        None => {
                            let name = format!("{}~{}", self.nodes[producer.index()].name, delay);
                            let initial = self.nodes[producer.index()].initial_value;
                            let id = NodeId::from_index(self.nodes.len());
                            self.nodes.push(Node {
                                name,
                                op: OpKind::Id,
                                operands: vec![Operand::Node {
                                    node: upstream,
                                    distance: 1,
                                }],
                                time: 1,
                                initial_value: initial,
                            });
                            buffers.insert(key, id);
                            id
                        }
                    };
                }
                self.nodes[idx].operands[slot] = Operand::Node {
                    node: upstream,
                    distance: 1,
                };
            }
        }
    }
}

/// A token-free cycle of the SDSP-PN of `nodes` (operands expanded to
/// distance ≤ 1, default acknowledgements), as node indices, or `None` if
/// that net is live.
///
/// The token-free places of the default translation are the forward data
/// arcs (producer → consumer) and the acknowledgements of non-self
/// feedback arcs (consumer → producer); every other place starts with a
/// token. Both are read off the operands in the SDSP-PN's place order —
/// all data arcs in arc order, then all acknowledgements in arc order —
/// which is the order [`check_live`](tpn_petri::marked::check_live)
/// visits them in, so the search reports the cycle it would without
/// building the net.
fn token_free_cycle(nodes: &[Node]) -> Option<Vec<usize>> {
    let operands = || {
        nodes.iter().enumerate().flat_map(|(consumer, node)| {
            node.operands
                .iter()
                .filter_map(move |operand| match *operand {
                    Operand::Node { node, distance } => Some((node.index(), consumer, distance)),
                    _ => None,
                })
        })
    };
    let forward = operands()
        .filter(|&(_, _, distance)| distance == 0)
        .map(|(producer, consumer, _)| (producer, consumer));
    let feedback_acks = operands()
        .filter(|&(producer, consumer, distance)| distance > 0 && producer != consumer)
        .map(|(producer, consumer, _)| (consumer, producer));
    tpn_petri::marked::find_cycle(nodes.len(), forward.chain(feedback_acks))
}

/// Finds, on a token-free `cycle`, a feedback producer whose
/// acknowledgement participates — the arc to buffer: the producer of the
/// first cycle edge `consumer → producer` along which `consumer` reads
/// `producer` loop-carried.
fn feedback_producer_on(nodes: &[Node], cycle: &[usize]) -> Option<NodeId> {
    (0..cycle.len()).find_map(|i| {
        let (consumer, producer) = (cycle[i], cycle[(i + 1) % cycle.len()]);
        let reads_carried = consumer != producer
            && nodes[consumer].operands.iter().any(|operand| {
                matches!(*operand, Operand::Node { node, distance }
                    if node.index() == producer && distance > 0)
            });
        reads_carried.then(|| NodeId::from_index(producer))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ArcKind;

    #[test]
    fn distance_two_inserts_buffers_and_stays_live() {
        let mut b = SdspBuilder::new();
        let x = b.node("X", OpKind::Add, [Operand::env("A", 0), Operand::lit(0.0)]);
        b.set_operand(x, 1, Operand::feedback(x, 2));
        b.set_initial(x, 7.0);
        let s = b.finish().unwrap();
        // X, the delay buffer X~1, and the liveness buffer X~fb: a
        // distance-2 recurrence needs two outstanding values, so one
        // capacity-1 hop cannot carry it.
        assert_eq!(s.num_nodes(), 3);
        let buffers: Vec<_> = s.nodes().filter(|(_, n)| n.op == OpKind::Id).collect();
        assert_eq!(buffers.len(), 2);
        for (_, buf) in &buffers {
            assert_eq!(buf.initial_value, 7.0);
        }
        let pn = crate::to_petri::to_petri(&s);
        assert!(tpn_petri::marked::check_live(&pn.net, &pn.marking).is_ok());
    }

    #[test]
    fn shared_buffers_for_same_producer_and_delay() {
        let mut b = SdspBuilder::new();
        let x = b.node("X", OpKind::Add, [Operand::lit(0.0), Operand::lit(0.0)]);
        let y = b.node("Y", OpKind::Add, [Operand::lit(0.0), Operand::lit(0.0)]);
        b.set_operand(x, 0, Operand::feedback(x, 3));
        b.set_operand(y, 0, Operand::feedback(x, 3));
        let s = b.finish().unwrap();
        // X, Y, two shared delay buffers (delays 1 and 2), and the
        // liveness buffer for X.
        assert_eq!(s.num_nodes(), 5);
        let pn = crate::to_petri::to_petri(&s);
        assert!(tpn_petri::marked::check_live(&pn.net, &pn.marking).is_ok());
    }

    #[test]
    fn self_feedback_distance_one_needs_no_buffer() {
        let mut b = SdspBuilder::new();
        let q = b.node("Q", OpKind::Add, [Operand::lit(0.0), Operand::env("Z", 0)]);
        b.set_operand(q, 0, Operand::feedback(q, 1));
        let s = b.finish().unwrap();
        assert_eq!(s.num_nodes(), 1);
        assert_eq!(s.arcs().count(), 1);
        let (_, arc) = s.arcs().next().unwrap();
        assert_eq!(arc.from, q);
        assert_eq!(arc.to, q);
        assert_eq!(arc.kind, ArcKind::Feedback);
    }

    #[test]
    fn mixed_feedback_gets_a_buffer() {
        // E has a same-iteration consumer (Y) and a loop-carried consumer
        // (V): without a buffer the SDSP-PN deadlocks on a token-free
        // cycle through V's acknowledgement.
        let mut b = SdspBuilder::new();
        let e = b.node("E", OpKind::Id, [Operand::env("S", 0)]);
        let y = b.node("Y", OpKind::Mul, [Operand::node(e), Operand::lit(2.0)]);
        let v = b.node(
            "V",
            OpKind::Add,
            [Operand::feedback(e, 1), Operand::node(y)],
        );
        let _ = v;
        let s = b.finish().unwrap();
        // E, Y, V plus the feedback buffer E~fb.
        assert_eq!(s.num_nodes(), 4);
        let buf = s.nodes().find(|(_, n)| n.name == "E~fb").unwrap().0;
        // V now reads the buffer, not E directly.
        let v_node = s.node(v);
        assert!(v_node
            .operands
            .iter()
            .any(|o| *o == Operand::feedback(buf, 1)));
    }

    #[test]
    fn self_feedback_with_forward_consumers_needs_no_buffer() {
        // Q := old Q + x, and R reads Q[i]: the self cycle is direct, no
        // buffer required.
        let mut b = SdspBuilder::new();
        let q = b.node("Q", OpKind::Add, [Operand::lit(0.0), Operand::env("X", 0)]);
        b.set_operand(q, 0, Operand::feedback(q, 1));
        b.node("R", OpKind::Add, [Operand::node(q), Operand::lit(1.0)]);
        let s = b.finish().unwrap();
        assert_eq!(s.num_nodes(), 2);
    }

    #[test]
    fn builder_setters_apply() {
        let mut b = SdspBuilder::new();
        let n = b.node("slow", OpKind::Neg, [Operand::lit(1.0)]);
        b.set_time(n, 4);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        let s = b.finish().unwrap();
        assert_eq!(s.node(n).time, 4);
    }

    #[test]
    fn empty_builder_produces_empty_graph() {
        let s = SdspBuilder::new().finish().unwrap();
        assert_eq!(s.num_nodes(), 0);
        assert_eq!(s.storage_locations(), 0);
    }

    #[test]
    fn wrong_arity_reported() {
        let mut b = SdspBuilder::new();
        b.node("bad", OpKind::Add, [Operand::lit(1.0)]);
        assert!(matches!(
            b.finish(),
            Err(DataflowError::WrongArity {
                expected: 2,
                found: 1,
                ..
            })
        ));
    }
}

/// The reference for [`SdspBuilder::finish`]'s liveness repair, one buffer
/// per pass the direct way: build the candidate graph, validate it,
/// translate it to its SDSP-PN, run
/// [`check_live`](tpn_petri::marked::check_live) on the net, and buffer
/// the feedback producer found on the reported cycle by scanning every
/// arc. `finish` must return exactly the graph this loop returns.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use super::*;
    use crate::graph::ArcKind;
    use tpn_petri::PetriError;

    fn reference_finish(mut b: SdspBuilder) -> Result<Sdsp, DataflowError> {
        b.expand_long_feedback();
        loop {
            let sdsp = SdspBuilder::build_candidate(b.nodes.clone());
            sdsp.validate()?;
            let pn = crate::to_petri::to_petri(&sdsp);
            match tpn_petri::marked::check_live(&pn.net, &pn.marking) {
                Ok(()) => return Ok(sdsp),
                Err(PetriError::NotLive { cycle }) => {
                    let producer = reference_producer_on(&sdsp, &cycle)
                        .expect("a token-free cycle contains a feedback acknowledgement");
                    b.buffer_feedback_of(producer);
                }
                Err(other) => unreachable!("SDSP-PNs are marked graphs: {other}"),
            }
        }
    }

    /// Transition indices equal node indices by construction of the
    /// translation.
    fn reference_producer_on(sdsp: &Sdsp, cycle: &[tpn_petri::TransitionId]) -> Option<NodeId> {
        for (i, t) in cycle.iter().enumerate() {
            let consumer = NodeId::from_index(t.index());
            let producer = NodeId::from_index(cycle[(i + 1) % cycle.len()].index());
            let has_fb = sdsp.arcs().any(|(_, a)| {
                a.kind == ArcKind::Feedback
                    && a.from == producer
                    && a.to == consumer
                    && a.from != a.to
            });
            if has_fb {
                return Some(producer);
            }
        }
        None
    }

    /// Runs both repairs on `b` and demands identical graphs: the same
    /// nodes (names, ops, operands, order), arcs and acknowledgements.
    /// Returns the number of liveness buffers inserted.
    fn assert_same_repair(b: SdspBuilder, label: &str) -> usize {
        let expected = reference_finish(b.clone()).map(|s| format!("{s:?}"));
        let fast = b.finish();
        let buffers = fast.as_ref().map_or(0, |s| {
            s.nodes().filter(|(_, n)| n.name.ends_with("~fb")).count()
        });
        assert_eq!(fast.map(|s| format!("{s:?}")), expected, "{label}");
        buffers
    }

    /// The builder input behind a finished graph: drops the trailing
    /// `x~fb` liveness buffers and points their readers back at `x`.
    /// Delay chains of long distances stay expanded; `finish` leaves
    /// distance-1 operands as they are, so finishing the result repeats
    /// the original repair.
    fn unrepaired(sdsp: &Sdsp) -> SdspBuilder {
        let mut nodes = sdsp.nodes.clone();
        let mut buffered: HashMap<usize, NodeId> = HashMap::new();
        while let Some(last) = nodes.last() {
            match last.operands.as_slice() {
                [Operand::Node { node, distance: 0 }]
                    if last.op == OpKind::Id
                        && last.name == format!("{}~fb", nodes[node.index()].name) =>
                {
                    buffered.insert(nodes.len() - 1, *node);
                    nodes.pop();
                }
                _ => break,
            }
        }
        for node in &mut nodes {
            for operand in &mut node.operands {
                if let Operand::Node { node, .. } = operand {
                    if let Some(&producer) = buffered.get(&node.index()) {
                        *node = producer;
                    }
                }
            }
        }
        SdspBuilder { nodes }
    }

    /// Checks a graph built by another crate: carries it over as A-code,
    /// strips its repair, and asserts that both repairs rebuild it.
    fn check_finished(acode: &str, label: &str) -> usize {
        let finished = crate::acode::read(acode).expect("A-code round-trips");
        let input = unrepaired(&finished);
        assert_eq!(
            format!("{:?}", input.clone().finish().unwrap()),
            format!("{finished:?}"),
            "{label}: stripping the repair must give back the builder input"
        );
        assert_same_repair(input, label)
    }

    #[test]
    fn livermore_kernels_repair_as_the_reference_does() {
        for kernel in tpn_livermore::kernels() {
            check_finished(&tpn::dataflow::acode::write(&kernel.sdsp()), kernel.name);
        }
    }

    #[test]
    fn synthetic_loops_repair_as_the_reference_does() {
        use tpn_livermore::synth::{chain, generate, recurrence_ring, wide, SynthConfig};
        let write = tpn::dataflow::acode::write;
        for n in [1, 2, 7, 64] {
            check_finished(&write(&chain(n)), &format!("chain/{n}"));
            check_finished(&write(&wide(n)), &format!("wide/{n}"));
            check_finished(&write(&recurrence_ring(n)), &format!("ring/{n}"));
        }
        // Recurrences from late nodes back to early ones, and — once there
        // are more recurrences than half the body — from early nodes
        // forward, which closes token-free cycles.
        let mut buffers = 0;
        for seed in 0..48 {
            for distance in [1, 2, 3, 5] {
                let nodes = 4 + seed as usize % 13;
                let config = SynthConfig {
                    nodes,
                    forward_density: 0.8,
                    recurrences: 1 + (seed as usize * 7) % nodes,
                    distance,
                    seed,
                };
                let label = format!("generate seed {seed} distance {distance}");
                buffers += check_finished(&write(&generate(&config)), &label);
            }
        }
        assert!(buffers > 0, "no synthetic loop needed a liveness buffer");
    }

    #[test]
    fn fuzz_shapes_repair_as_the_reference_does() {
        use tpn_conform::gen::{generate, Shape};
        // The generator keeps its bodies live as written (chords point
        // backwards), so this pins that no repair fires on them.
        for shape in Shape::ALL {
            for case in 0..64 {
                let label = format!("{} case {case}", shape.as_str());
                let sdsp = generate(7, case, shape);
                assert_eq!(
                    check_finished(&tpn::dataflow::acode::write(&sdsp), &label),
                    0
                );
            }
        }
    }

    /// A seeded loop in the loop language: each statement reads earlier
    /// statements of the same iteration and nearby statements of up to
    /// three iterations back, like the service's large generated loops.
    fn coupled_loop_source(seed: u64, statements: usize) -> String {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = String::from("do i from 4 to n {");
        for j in 0..statements {
            let mut expr = format!("X{}[i]", j % 3);
            for _ in 0..rng.random_range(1..4usize) {
                let operand = if j > 0 && rng.random_bool(0.5) {
                    format!("T{}[i]", j - 1 - rng.random_range(0..j.min(4)))
                } else {
                    let m = rng.random_range(j.saturating_sub(4)..(j + 4).min(statements));
                    format!("T{m}[i-{}]", rng.random_range(1..4u32))
                };
                expr = format!("{expr} + {operand}");
            }
            out.push_str(&format!(" T{j}[i] := {expr};"));
        }
        out.push_str(" }");
        out
    }

    #[test]
    fn generated_coupled_loops_repair_as_the_reference_does() {
        let mut buffers = 0;
        for seed in 0..40 {
            let source = coupled_loop_source(seed, 2 + seed as usize % 30);
            let sdsp = tpn::lang::compile(&source).expect("generated loops compile");
            buffers += check_finished(&tpn::dataflow::acode::write(&sdsp), &source);
        }
        assert!(buffers > 0, "no generated loop needed a liveness buffer");
    }

    #[test]
    fn cross_coupled_recurrences_repair_as_the_reference_does() {
        // X := old Y + A; Y := old X + B.
        let mut b = SdspBuilder::new();
        let x = b.node("X", OpKind::Add, [Operand::lit(0.0), Operand::env("A", 0)]);
        let y = b.node(
            "Y",
            OpKind::Add,
            [Operand::feedback(x, 1), Operand::env("B", 0)],
        );
        b.set_operand(x, 0, Operand::feedback(y, 1));
        assert!(assert_same_repair(b, "two-way") > 0);

        // A three-way ring of carried reads, each node also feeding the
        // next one in the same iteration.
        let mut b = SdspBuilder::new();
        let a = b.node("A", OpKind::Add, [Operand::lit(0.0), Operand::env("S", 0)]);
        let c = b.node(
            "B",
            OpKind::Add,
            [Operand::feedback(a, 1), Operand::node(a)],
        );
        let d = b.node(
            "C",
            OpKind::Add,
            [Operand::feedback(c, 1), Operand::node(c)],
        );
        b.set_operand(a, 0, Operand::feedback(d, 1));
        assert!(assert_same_repair(b, "three-way") > 0);

        // Two coupled pairs sharing a producer, at distances 1 to 3, with
        // a same-iteration consumer of every carried value.
        for distance in 1..=3 {
            let mut b = SdspBuilder::new();
            let p = b.node("P", OpKind::Add, [Operand::lit(0.0), Operand::env("U", 0)]);
            let q = b.node(
                "Q",
                OpKind::Mul,
                [Operand::feedback(p, distance), Operand::node(p)],
            );
            let r = b.node(
                "R",
                OpKind::Sub,
                [Operand::feedback(q, 1), Operand::feedback(p, 1)],
            );
            let s = b.node(
                "S",
                OpKind::Max,
                [Operand::node(r), Operand::feedback(r, distance)],
            );
            b.node("T", OpKind::Min, [Operand::node(q), Operand::node(s)]);
            b.set_operand(p, 0, Operand::feedback(s, 1));
            assert!(assert_same_repair(b, &format!("coupled pairs d={distance}")) > 0);
        }

        // Errors come out of both the same way.
        let mut b = SdspBuilder::new();
        let u = b.node("U", OpKind::Neg, [Operand::lit(0.0)]);
        let v = b.node("V", OpKind::Neg, [Operand::node(u)]);
        b.set_operand(u, 0, Operand::node(v));
        assert_eq!(assert_same_repair(b, "forward cycle"), 0);
    }
}
