//! The net structure: places, transitions, and arcs.

use crate::error::PetriError;
use crate::ids::{PlaceId, TransitionId};

/// A place of a Petri net.
///
/// Places hold tokens (see [`crate::Marking`]); structurally a place records
/// its input transitions (`•p`) and output transitions (`p•`).
#[derive(Clone, Debug)]
pub struct Place {
    name: String,
    preset: Vec<TransitionId>,
    postset: Vec<TransitionId>,
}

impl Place {
    /// Human-readable name of the place.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input transitions `•p` — the transitions that deposit tokens here.
    pub fn preset(&self) -> &[TransitionId] {
        &self.preset
    }

    /// Output transitions `p•` — the transitions that consume tokens here.
    pub fn postset(&self) -> &[TransitionId] {
        &self.postset
    }
}

/// A transition of a timed Petri net.
///
/// The execution time `τ` is a positive integer number of machine cycles
/// (Appendix A.6 of the paper assigns a deterministic non-negative integer
/// to each transition; the discrete-time engine of this crate requires at
/// least 1, matching the paper's use).
#[derive(Clone, Debug)]
pub struct Transition {
    name: String,
    time: u64,
    inputs: Vec<PlaceId>,
    outputs: Vec<PlaceId>,
}

impl Transition {
    /// Human-readable name of the transition.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execution (firing) time `τ` in cycles.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Input places `•t`.
    pub fn inputs(&self) -> &[PlaceId] {
        &self.inputs
    }

    /// Output places `t•`.
    pub fn outputs(&self) -> &[PlaceId] {
        &self.outputs
    }
}

/// A timed Petri net `(P, T, A, Ω)`.
///
/// Places and transitions are stored in arenas and addressed by [`PlaceId`]
/// and [`TransitionId`]. Arcs are kept redundantly on both endpoints so that
/// presets and postsets are O(1) to enumerate.
///
/// # Example
///
/// ```
/// use tpn_petri::PetriNet;
///
/// let mut net = PetriNet::new();
/// let t = net.add_transition("add", 1);
/// let p = net.add_place("result");
/// net.connect_tp(t, p);
/// assert_eq!(net.transition(t).outputs(), &[p]);
/// assert_eq!(net.place(p).preset(), &[t]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PetriNet {
    places: Vec<Place>,
    transitions: Vec<Transition>,
}

impl PetriNet {
    /// Creates an empty net.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a place and returns its id.
    pub fn add_place(&mut self, name: impl Into<String>) -> PlaceId {
        let id = PlaceId::from_index(self.places.len());
        self.places.push(Place {
            name: name.into(),
            preset: Vec::new(),
            postset: Vec::new(),
        });
        id
    }

    /// Adds a transition with execution time `time` and returns its id.
    ///
    /// `time` may be zero at construction (some intermediate representations
    /// use it); the timed engine rejects such nets at run time via
    /// [`PetriError::ZeroExecutionTime`].
    pub fn add_transition(&mut self, name: impl Into<String>, time: u64) -> TransitionId {
        let id = TransitionId::from_index(self.transitions.len());
        self.transitions.push(Transition {
            name: name.into(),
            time,
            inputs: Vec::new(),
            outputs: Vec::new(),
        });
        id
    }

    /// Adds the arc `t → p` (token production).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or the arc already exists
    /// (arc sets are sets, per the definition in Appendix A.1).
    pub fn connect_tp(&mut self, t: TransitionId, p: PlaceId) {
        assert!(t.index() < self.transitions.len(), "unknown transition {t}");
        assert!(p.index() < self.places.len(), "unknown place {p}");
        assert!(
            !self.transitions[t.index()].outputs.contains(&p),
            "duplicate arc {t} -> {p}"
        );
        self.transitions[t.index()].outputs.push(p);
        self.places[p.index()].preset.push(t);
    }

    /// Adds the arc `p → t` (token consumption).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or the arc already exists.
    pub fn connect_pt(&mut self, p: PlaceId, t: TransitionId) {
        assert!(t.index() < self.transitions.len(), "unknown transition {t}");
        assert!(p.index() < self.places.len(), "unknown place {p}");
        assert!(
            !self.transitions[t.index()].inputs.contains(&p),
            "duplicate arc {p} -> {t}"
        );
        self.transitions[t.index()].inputs.push(p);
        self.places[p.index()].postset.push(t);
    }

    /// Number of places `|P|`.
    pub fn num_places(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions `|T|`.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Looks up a place.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn place(&self, p: PlaceId) -> &Place {
        &self.places[p.index()]
    }

    /// Looks up a transition.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn transition(&self, t: TransitionId) -> &Transition {
        &self.transitions[t.index()]
    }

    /// Iterates over `(id, place)` pairs in arena order.
    pub fn places(&self) -> impl Iterator<Item = (PlaceId, &Place)> + Clone {
        self.places
            .iter()
            .enumerate()
            .map(|(i, p)| (PlaceId::from_index(i), p))
    }

    /// Iterates over `(id, transition)` pairs in arena order.
    pub fn transitions(&self) -> impl Iterator<Item = (TransitionId, &Transition)> {
        self.transitions
            .iter()
            .enumerate()
            .map(|(i, t)| (TransitionId::from_index(i), t))
    }

    /// All place ids in arena order.
    pub fn place_ids(&self) -> impl Iterator<Item = PlaceId> + 'static {
        (0..self.places.len()).map(PlaceId::from_index)
    }

    /// All transition ids in arena order.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransitionId> + 'static {
        (0..self.transitions.len()).map(TransitionId::from_index)
    }

    /// Overrides the execution time of a transition (used by series
    /// expansion when building resource-constrained models).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_time(&mut self, t: TransitionId, time: u64) {
        self.transitions[t.index()].time = time;
    }

    /// Sum of all transition execution times, `Ω(T)`.
    pub fn total_time(&self) -> u64 {
        self.transitions.iter().map(|t| t.time).sum()
    }

    /// Whether the net satisfies the marked-graph condition
    /// `|•p| = |p•| = 1` for every place (Definition A.5.1).
    pub fn is_marked_graph(&self) -> bool {
        self.validate_marked_graph().is_ok()
    }

    /// Validates the marked-graph condition, reporting the first offending
    /// place.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::NotAMarkedGraph`] naming a place whose preset
    /// or postset does not have exactly one element.
    pub fn validate_marked_graph(&self) -> Result<(), PetriError> {
        for (id, place) in self.places() {
            if place.preset.len() != 1 || place.postset.len() != 1 {
                return Err(PetriError::NotAMarkedGraph {
                    place: id,
                    inputs: place.preset.len(),
                    outputs: place.postset.len(),
                });
            }
        }
        Ok(())
    }

    /// Validates that every transition has a positive execution time, as
    /// required by the discrete-time engine.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::ZeroExecutionTime`] for the first transition
    /// with `τ = 0`.
    pub fn validate_times(&self) -> Result<(), PetriError> {
        for (id, t) in self.transitions() {
            if t.time == 0 {
                return Err(PetriError::ZeroExecutionTime { transition: id });
            }
        }
        Ok(())
    }

    /// Whether the net has a structural conflict: a place with more than one
    /// output transition (Appendix A.4). Structural conflict is a necessary
    /// condition for choice; marked graphs never have one.
    pub fn has_structural_conflict(&self) -> bool {
        self.places.iter().any(|p| p.postset.len() > 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cycle() -> (PetriNet, TransitionId, TransitionId, PlaceId, PlaceId) {
        let mut net = PetriNet::new();
        let a = net.add_transition("A", 1);
        let b = net.add_transition("B", 2);
        let fwd = net.add_place("fwd");
        let ack = net.add_place("ack");
        net.connect_tp(a, fwd);
        net.connect_pt(fwd, b);
        net.connect_tp(b, ack);
        net.connect_pt(ack, a);
        (net, a, b, fwd, ack)
    }

    #[test]
    fn construction_records_arcs_on_both_endpoints() {
        let (net, a, b, fwd, ack) = two_cycle();
        assert_eq!(net.num_places(), 2);
        assert_eq!(net.num_transitions(), 2);
        assert_eq!(net.transition(a).outputs(), &[fwd]);
        assert_eq!(net.transition(a).inputs(), &[ack]);
        assert_eq!(net.transition(b).inputs(), &[fwd]);
        assert_eq!(net.place(fwd).preset(), &[a]);
        assert_eq!(net.place(fwd).postset(), &[b]);
        assert_eq!(net.place(ack).preset(), &[b]);
    }

    #[test]
    fn names_and_times() {
        let (net, a, b, fwd, _) = two_cycle();
        assert_eq!(net.transition(a).name(), "A");
        assert_eq!(net.transition(b).time(), 2);
        assert_eq!(net.place(fwd).name(), "fwd");
        assert_eq!(net.total_time(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate arc")]
    fn duplicate_arc_rejected() {
        let (mut net, a, _, fwd, _) = two_cycle();
        net.connect_tp(a, fwd);
    }

    #[test]
    #[should_panic(expected = "unknown place")]
    fn unknown_place_rejected() {
        let (mut net, a, ..) = two_cycle();
        net.connect_tp(a, PlaceId::from_index(99));
    }

    #[test]
    fn marked_graph_detection() {
        let (mut net, a, _, _, _) = two_cycle();
        assert!(net.is_marked_graph());
        // Add a second consumer of a new place -> no longer a marked graph.
        let p = net.add_place("shared");
        net.connect_pt(p, a);
        assert!(!net.is_marked_graph());
        let err = net.validate_marked_graph().unwrap_err();
        assert!(matches!(err, PetriError::NotAMarkedGraph { inputs: 0, .. }));
    }

    #[test]
    fn structural_conflict_detection() {
        let (mut net, a, b, _, _) = two_cycle();
        assert!(!net.has_structural_conflict());
        let shared = net.add_place("run");
        net.connect_pt(shared, a);
        net.connect_pt(shared, b);
        assert!(net.has_structural_conflict());
    }

    #[test]
    fn validate_times_flags_zero() {
        let mut net = PetriNet::new();
        let t = net.add_transition("z", 0);
        assert_eq!(
            net.validate_times(),
            Err(PetriError::ZeroExecutionTime { transition: t })
        );
        net.set_time(t, 3);
        assert!(net.validate_times().is_ok());
        assert_eq!(net.transition(t).time(), 3);
    }

    #[test]
    fn iterators_are_in_arena_order() {
        let (net, ..) = two_cycle();
        let names: Vec<_> = net.transitions().map(|(_, t)| t.name()).collect();
        assert_eq!(names, vec!["A", "B"]);
        let ids: Vec<_> = net.place_ids().collect();
        assert_eq!(ids, vec![PlaceId::from_index(0), PlaceId::from_index(1)]);
    }
}
