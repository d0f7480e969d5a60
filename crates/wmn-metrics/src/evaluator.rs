//! Instance-bound placement evaluation.
//!
//! [`Evaluator`] binds a problem instance, a topology configuration, and a
//! fitness function, turning a [`Placement`] into an [`Evaluation`] in one
//! call. It is the single entry point the search and GA crates use, so
//! every algorithm measures solutions identically.

use crate::fitness::FitnessFunction;
use crate::measurement::NetworkMeasurement;
use serde::{Deserialize, Serialize};
use std::fmt;
use wmn_graph::topology::{TopologyConfig, WmnTopology};
use wmn_graph::EngineStats;
use wmn_model::instance::ProblemInstance;
use wmn_model::placement::Placement;
use wmn_model::ModelError;

/// The result of evaluating one placement: the raw measurement plus its
/// scalar fitness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The raw network measurement.
    pub measurement: NetworkMeasurement,
    /// Scalar fitness under the evaluator's fitness function.
    pub fitness: f64,
}

impl Evaluation {
    /// Giant component size (shorthand).
    pub fn giant_size(&self) -> usize {
        self.measurement.giant_size
    }

    /// Covered client count (shorthand).
    pub fn covered_clients(&self) -> usize {
        self.measurement.covered_clients
    }
}

impl fmt::Display for Evaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (fitness {:.4})", self.measurement, self.fitness)
    }
}

/// Reusable evaluation state for [`Evaluator::evaluate_with`]: one
/// lazily-built [`WmnTopology`] whose buffers are rebuilt **in place** for
/// each new placement, so evaluating a stream of unrelated candidates (the
/// GA's per-generation population, a batch of ad hoc placements) performs
/// no per-candidate topology allocation.
///
/// A workspace adapts automatically: if it was last used against a
/// different instance or configuration (detected by comparing router
/// radii, client positions, and the topology config), the stored topology
/// is discarded and rebuilt from scratch.
///
/// # Examples
///
/// ```
/// use wmn_metrics::evaluator::{EvalWorkspace, Evaluator};
/// use wmn_model::prelude::*;
///
/// let instance = InstanceSpec::paper_normal()?.generate(3)?;
/// let evaluator = Evaluator::paper_default(&instance);
/// let mut rng = rng_from_seed(4);
/// let mut ws = EvalWorkspace::new();
/// for _ in 0..4 {
///     let placement = instance.random_placement(&mut rng);
///     let with_ws = evaluator.evaluate_with(&mut ws, &placement)?;
///     assert_eq!(with_ws, evaluator.evaluate(&placement)?);
/// }
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EvalWorkspace {
    topo: Option<WmnTopology>,
}

impl EvalWorkspace {
    /// Creates an empty workspace; the first evaluation populates it.
    pub fn new() -> Self {
        EvalWorkspace::default()
    }

    /// The stored topology, if an evaluation has populated it.
    ///
    /// Delta-backed callers (the topology-backed GA) read a parent's
    /// workspace topology here and copy its state into a leased one via
    /// `WmnTopology::clone_from` instead of rebuilding.
    pub fn topology(&self) -> Option<&WmnTopology> {
        self.topo.as_ref()
    }

    /// Mutable access to the stored topology (for incremental
    /// `move_router` / `apply_moves` deltas between evaluations).
    pub fn topology_mut(&mut self) -> Option<&mut WmnTopology> {
        self.topo.as_mut()
    }

    /// Stores `topo` as the workspace topology, replacing any previous one.
    pub fn set_topology(&mut self, topo: WmnTopology) {
        self.topo = Some(topo);
    }

    /// Makes this workspace's topology an exact state copy of `src`,
    /// reusing the stored topology's buffers when one exists (see
    /// `WmnTopology::clone_from`) and cloning `src` otherwise.
    pub fn adopt_topology(&mut self, src: &WmnTopology) {
        match &mut self.topo {
            Some(t) => t.clone_from(src),
            None => self.topo = Some(src.clone()),
        }
    }

    /// The stored topology's always-on work counters, if a topology exists.
    ///
    /// Counters accumulate across every evaluation routed through this
    /// workspace since the last [`reset_engine_stats`](Self::reset_engine_stats)
    /// (buffer-reusing `adopt_topology` keeps them running; a fresh clone
    /// starts them at zero).
    pub fn engine_stats(&self) -> Option<EngineStats> {
        self.topo.as_ref().map(WmnTopology::engine_stats)
    }

    /// The stored topology's per-phase batch-repair buckets (edge repair
    /// / component repair / coverage — see
    /// [`ApplyPhases`](wmn_graph::ApplyPhases)), if a topology exists.
    /// Same lifecycle as [`engine_stats`](Self::engine_stats).
    pub fn apply_phases(&self) -> Option<wmn_graph::ApplyPhases> {
        self.topo.as_ref().map(WmnTopology::apply_phases)
    }

    /// Zeroes the stored topology's work counters, starting a fresh
    /// measurement window (e.g. per GA generation instead of lifetime
    /// totals). A no-op when no topology has been built yet.
    pub fn reset_engine_stats(&mut self) {
        if let Some(t) = self.topo.as_mut() {
            t.reset_engine_stats();
        }
    }
}

/// Evaluates placements against one instance under a fixed configuration.
///
/// # Examples
///
/// ```
/// use wmn_metrics::evaluator::Evaluator;
/// use wmn_model::prelude::*;
///
/// let instance = InstanceSpec::paper_normal()?.generate(3)?;
/// let evaluator = Evaluator::paper_default(&instance);
/// let mut rng = rng_from_seed(4);
/// let placement = instance.random_placement(&mut rng);
/// let eval = evaluator.evaluate(&placement)?;
/// assert!(eval.fitness >= 0.0);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    instance: &'a ProblemInstance,
    topology_config: TopologyConfig,
    fitness: FitnessFunction,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with explicit configuration.
    pub fn new(
        instance: &'a ProblemInstance,
        topology_config: TopologyConfig,
        fitness: FitnessFunction,
    ) -> Self {
        Evaluator {
            instance,
            topology_config,
            fitness,
        }
    }

    /// Creates an evaluator with the calibrated reproduction configuration
    /// (mutual-range links, giant-only coverage, lexicographic fitness —
    /// see [`TopologyConfig::paper_default`] and
    /// [`FitnessFunction::paper_default`] for the calibration rationale).
    pub fn paper_default(instance: &'a ProblemInstance) -> Self {
        Evaluator::new(
            instance,
            TopologyConfig::paper_default(),
            FitnessFunction::paper_default(),
        )
    }

    /// The bound instance.
    pub fn instance(&self) -> &'a ProblemInstance {
        self.instance
    }

    /// The topology configuration.
    pub fn topology_config(&self) -> TopologyConfig {
        self.topology_config
    }

    /// The fitness function.
    pub fn fitness_function(&self) -> FitnessFunction {
        self.fitness
    }

    /// Builds the topology for `placement` (for callers that need the full
    /// network state, e.g. incremental search).
    ///
    /// # Errors
    ///
    /// Propagates placement validation.
    pub fn topology(&self, placement: &Placement) -> Result<WmnTopology, ModelError> {
        WmnTopology::build(self.instance, placement, self.topology_config)
    }

    /// Evaluates a placement.
    ///
    /// # Errors
    ///
    /// Propagates placement validation.
    pub fn evaluate(&self, placement: &Placement) -> Result<Evaluation, ModelError> {
        let topo = self.topology(placement)?;
        Ok(self.evaluate_topology(&topo))
    }

    /// Evaluates a placement through a reusable [`EvalWorkspace`]:
    /// identical results to [`Evaluator::evaluate`], but the underlying
    /// topology is rebuilt in place instead of allocated per call. This is
    /// the batch-evaluation hot path (the GA evaluates every individual of
    /// every generation through one workspace per worker).
    ///
    /// # Errors
    ///
    /// Propagates placement validation.
    pub fn evaluate_with(
        &self,
        workspace: &mut EvalWorkspace,
        placement: &Placement,
    ) -> Result<Evaluation, ModelError> {
        self.instance.validate_placement(placement)?;
        if let Some(topo) = workspace
            .topo
            .as_mut()
            .filter(|t| self.workspace_matches(t))
        {
            topo.reset_placement(placement);
            return Ok(self.evaluate_topology(topo));
        }
        let topo = WmnTopology::build(self.instance, placement, self.topology_config)?;
        let evaluation = self.evaluate_topology(&topo);
        workspace.topo = Some(topo);
        Ok(evaluation)
    }

    /// Whether a stored workspace topology is still valid for this
    /// evaluator: same config, same router radii, same client positions.
    /// O(routers + clients) float compares — negligible next to an
    /// evaluation, and it makes cross-instance workspace reuse safe.
    fn workspace_matches(&self, topo: &WmnTopology) -> bool {
        topo.config() == self.topology_config
            && topo.router_count() == self.instance.router_count()
            && topo.client_count() == self.instance.client_count()
            && self
                .instance
                .routers()
                .iter()
                .enumerate()
                .all(|(i, r)| topo.radius(wmn_model::RouterId(i)) == r.current_radius())
            && self
                .instance
                .clients()
                .iter()
                .zip(topo.client_points())
                .all(|(c, p)| c.position() == *p)
    }

    /// Evaluates `target` by **delta-morphing** an existing topology
    /// instead of rebuilding: the per-router placement diff is computed
    /// into `moves` (a caller-owned scratch buffer, so the hot loop stays
    /// allocation-free) and applied through the incremental batch engine
    /// (`WmnTopology::apply_moves` — whose edge churn feeds the dynamic
    /// connectivity engine under the default
    /// `ConnectivityMode::Dynamic`), then the repaired topology is
    /// evaluated. Results are identical to [`Evaluator::evaluate`] on
    /// `target` (pinned by the equivalence suites) in every connectivity
    /// mode; only the repair cost differs — proportional to the diff, not
    /// the instance.
    ///
    /// This is the evaluation entry point for delta-backed individuals:
    /// the topology-backed GA copies a parent's topology state into a
    /// leased one and calls this with the child's placement.
    ///
    /// # Errors
    ///
    /// Propagates placement validation. The topology is untouched on error.
    ///
    /// # Panics
    ///
    /// Panics if `topo` does not have this instance's router count (a
    /// validated `target` and a topology of the same instance never
    /// mismatch).
    pub fn evaluate_moves_to(
        &self,
        topo: &mut WmnTopology,
        target: &Placement,
        moves: &mut Vec<(wmn_model::RouterId, wmn_model::geometry::Point)>,
    ) -> Result<Evaluation, ModelError> {
        self.evaluate_moves_to_from(topo, target, moves, None)
    }

    /// [`evaluate_moves_to`](Evaluator::evaluate_moves_to) with an optional
    /// coverage **donor**: another live topology of the same instance whose
    /// disk caches are copied for moved routers landing on its exact
    /// positions (`WmnTopology::apply_moves_from`). The topology-backed GA
    /// passes the non-lineage parent here, so a crossover child's
    /// recombined disks are grafted instead of re-queried. Results are
    /// identical with or without a donor.
    ///
    /// # Errors
    ///
    /// Propagates placement validation. The topology is untouched on error.
    ///
    /// # Panics
    ///
    /// Panics if `topo` does not have this instance's router count.
    pub fn evaluate_moves_to_from(
        &self,
        topo: &mut WmnTopology,
        target: &Placement,
        moves: &mut Vec<(wmn_model::RouterId, wmn_model::geometry::Point)>,
        donor: Option<&WmnTopology>,
    ) -> Result<Evaluation, ModelError> {
        self.instance.validate_placement(target)?;
        topo.diff_placement_into(target, moves);
        topo.apply_moves_from(moves, donor);
        Ok(self.evaluate_topology(topo))
    }

    /// Evaluates an already-built topology (no validation, no rebuild).
    pub fn evaluate_topology(&self, topo: &WmnTopology) -> Evaluation {
        let measurement = NetworkMeasurement::from_topology(topo);
        Evaluation {
            measurement,
            fitness: self.fitness.score(&measurement),
        }
    }

    /// Evaluates a measurement (for callers that already extracted one).
    pub fn score(&self, measurement: &NetworkMeasurement) -> f64 {
        self.fitness.score(measurement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_model::geometry::Point;
    use wmn_model::instance::{InstanceBuilder, InstanceSpec};
    use wmn_model::node::RouterId;
    use wmn_model::radio::RadioProfile;
    use wmn_model::rng::rng_from_seed;
    use wmn_model::Area;

    #[test]
    fn evaluate_random_placement() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
        let ev = Evaluator::paper_default(&instance);
        let mut rng = rng_from_seed(1);
        let p = instance.random_placement(&mut rng);
        let e = ev.evaluate(&p).unwrap();
        assert!(e.fitness > 0.0);
        assert!(e.giant_size() >= 1);
        assert_eq!(e.measurement.router_count, 64);
    }

    #[test]
    fn evaluate_rejects_invalid_placement() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
        let ev = Evaluator::paper_default(&instance);
        assert!(ev.evaluate(&Placement::new()).is_err());
    }

    #[test]
    fn perfect_cluster_scores_higher_than_scattered() {
        let area = Area::square(100.0).unwrap();
        let prof = RadioProfile::fixed(6.0).unwrap();
        let instance = InstanceBuilder::new(area)
            .routers(prof, 8)
            .clients((0..8).map(|i| Point::new(45.0 + i as f64, 50.0)))
            .build()
            .unwrap();
        let ev = Evaluator::paper_default(&instance);

        let cluster: Placement = (0..8)
            .map(|i| Point::new(44.0 + i as f64 * 2.0, 50.0))
            .collect();
        let scattered: Placement = (0..8)
            .map(|i| Point::new(12.0 * i as f64 + 1.0, (i as f64 * 37.0) % 100.0))
            .collect();

        let ec = ev.evaluate(&cluster).unwrap();
        let es = ev.evaluate(&scattered).unwrap();
        assert!(ec.fitness > es.fitness);
        assert_eq!(ec.giant_size(), 8);
        assert_eq!(ec.covered_clients(), 8);
    }

    #[test]
    fn evaluate_topology_matches_evaluate() {
        let instance = InstanceSpec::paper_uniform().unwrap().generate(2).unwrap();
        let ev = Evaluator::paper_default(&instance);
        let mut rng = rng_from_seed(3);
        let p = instance.random_placement(&mut rng);
        let via_placement = ev.evaluate(&p).unwrap();
        let topo = ev.topology(&p).unwrap();
        let via_topo = ev.evaluate_topology(&topo);
        assert_eq!(via_placement, via_topo);
    }

    #[test]
    fn workspace_evaluation_matches_fresh_and_survives_instance_switch() {
        let a = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
        let b = InstanceSpec::paper_uniform().unwrap().generate(9).unwrap();
        let ev_a = Evaluator::paper_default(&a);
        let ev_b = Evaluator::paper_default(&b);
        let mut ws = EvalWorkspace::new();
        let mut rng = rng_from_seed(7);
        for round in 0..3 {
            let pa = a.random_placement(&mut rng);
            let pb = b.random_placement(&mut rng);
            // Interleave instances through ONE workspace: the stale-topology
            // check must rebuild rather than reuse across instances.
            assert_eq!(
                ev_a.evaluate_with(&mut ws, &pa).unwrap(),
                ev_a.evaluate(&pa).unwrap(),
                "round {round} instance a"
            );
            assert_eq!(
                ev_b.evaluate_with(&mut ws, &pb).unwrap(),
                ev_b.evaluate(&pb).unwrap(),
                "round {round} instance b"
            );
        }
    }

    #[test]
    fn workspace_rejects_invalid_placement() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
        let ev = Evaluator::paper_default(&instance);
        let mut ws = EvalWorkspace::new();
        assert!(ev.evaluate_with(&mut ws, &Placement::new()).is_err());
        // A failed validation must not poison the workspace.
        let p = instance.random_placement(&mut rng_from_seed(2));
        assert_eq!(
            ev.evaluate_with(&mut ws, &p).unwrap(),
            ev.evaluate(&p).unwrap()
        );
    }

    #[test]
    fn evaluate_moves_to_matches_fresh_evaluation() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(11).unwrap();
        let ev = Evaluator::paper_default(&instance);
        let mut rng = rng_from_seed(21);
        let parent = instance.random_placement(&mut rng);
        let mut topo = ev.topology(&parent).unwrap();
        let mut moves = Vec::new();
        for round in 0..5 {
            let target = instance.random_placement(&mut rng);
            let delta = ev
                .evaluate_moves_to(&mut topo, &target, &mut moves)
                .unwrap();
            assert_eq!(delta, ev.evaluate(&target).unwrap(), "round {round}");
        }
        // Invalid target leaves the topology untouched.
        let held = topo.placement();
        assert!(ev
            .evaluate_moves_to(&mut topo, &Placement::new(), &mut moves)
            .is_err());
        assert_eq!(topo.placement(), held);
    }

    #[test]
    fn evaluate_moves_to_is_identical_across_connectivity_modes() {
        use wmn_graph::topology::ConnectivityMode;
        let instance = InstanceSpec::paper_normal().unwrap().generate(17).unwrap();
        let ev = Evaluator::paper_default(&instance);
        let mut rng = rng_from_seed(31);
        let parent = instance.random_placement(&mut rng);
        let mut dynamic = ev.topology(&parent).unwrap();
        assert_eq!(dynamic.connectivity_mode(), ConnectivityMode::Dynamic);
        let mut full = ev.topology(&parent).unwrap();
        full.set_connectivity_mode(ConnectivityMode::FullRebuild);
        let mut moves = Vec::new();
        for round in 0..4 {
            let target = instance.random_placement(&mut rng);
            let a = ev
                .evaluate_moves_to(&mut dynamic, &target, &mut moves)
                .unwrap();
            let b = ev
                .evaluate_moves_to(&mut full, &target, &mut moves)
                .unwrap();
            assert_eq!(a, b, "round {round}");
            assert_eq!(a, ev.evaluate(&target).unwrap(), "round {round} vs fresh");
        }
        let stats = dynamic.connectivity_stats();
        assert!(
            stats.repairs > 0 && stats.insertions + stats.deletions > 0,
            "the dynamic engine must have processed the diffs"
        );
    }

    #[test]
    fn workspace_topology_access_and_adoption() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(13).unwrap();
        let ev = Evaluator::paper_default(&instance);
        let mut ws = EvalWorkspace::new();
        assert!(ws.topology().is_none());
        let mut rng = rng_from_seed(23);
        let p = instance.random_placement(&mut rng);
        ev.evaluate_with(&mut ws, &p).unwrap();
        let parent_topo = ws.topology().expect("populated").clone();

        // Adoption into an empty workspace clones; into a warm one copies.
        for warm in [false, true] {
            let mut child_ws = EvalWorkspace::new();
            if warm {
                let q = instance.random_placement(&mut rng);
                ev.evaluate_with(&mut child_ws, &q).unwrap();
            }
            child_ws.adopt_topology(&parent_topo);
            let t = child_ws.topology_mut().expect("adopted");
            assert_eq!(t.placement(), p);
            assert_eq!(ev.evaluate_topology(t), ev.evaluate(&p).unwrap());
        }
    }

    #[test]
    fn topology_reuse_reflects_moves() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(5).unwrap();
        let ev = Evaluator::paper_default(&instance);
        let mut rng = rng_from_seed(9);
        let p = instance.random_placement(&mut rng);
        let mut topo = ev.topology(&p).unwrap();
        let before = ev.evaluate_topology(&topo);
        // Cluster everything on a unit circle at the center (diameter 2 is
        // within every router's minimum radius): fitness must rise to full
        // connectivity.
        for i in 0..instance.router_count() {
            let a = i as f64 * 0.4;
            topo.move_router(RouterId(i), Point::new(64.0 + a.cos(), 64.0 + a.sin()));
        }
        let after = ev.evaluate_topology(&topo);
        assert!(after.measurement.fully_connected());
        assert!(after.fitness >= before.fitness);
    }
}
