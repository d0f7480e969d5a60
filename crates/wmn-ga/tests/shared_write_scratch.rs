//! One write scratch per thread, shared by every topology written on it.
//!
//! A `WmnTopology` keeps no per-write buffers of its own: every write
//! borrows its thread's scratch, whose router-indexed arrays grow to the
//! largest topology the thread has written and are epoch-stamped. This
//! test interleaves, on one thread, writes to topologies of four router
//! counts — GA children (`clone_from` plus `apply_moves` with a donor),
//! search moves and their undos, a `ConnectivityMode::FullRebuild`
//! topology, and `reset_placement` — and checks every written topology
//! with `assert_consistent` and against a fresh evaluation. Then it runs
//! the same schedules split over two scoped threads and requires identical
//! results and work counters.

use rand::Rng;
use wmn_graph::topology::{ConnectivityMode, WmnTopology};
use wmn_metrics::evaluator::{Evaluation, Evaluator};
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::{Area, Point};
use wmn_model::instance::{InstanceSpec, ProblemInstance};
use wmn_model::node::RouterId;
use wmn_model::placement::Placement;
use wmn_model::radio::RadioProfile;
use wmn_model::rng::{rng_from_seed, Rng as SeededRng};
use wmn_obs::EngineStats;

/// Rounds of the schedule: each round writes every lane once.
const ROUNDS: usize = 8;

/// The paper's density at `scale` times its routers and clients.
fn instance(scale: usize, seed: u64) -> ProblemInstance {
    let side = 128.0 * (scale as f64).sqrt();
    InstanceSpec::new(
        Area::square(side).unwrap(),
        64 * scale,
        192 * scale,
        ClientDistribution::Uniform,
        RadioProfile::paper_default(),
    )
    .unwrap()
    .generate(seed)
    .unwrap()
}

/// What one lane writes each round.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A GA child: a copy of one parent, repaired to its crossover and
    /// mutation diff with the other parent donating disk caches. The child
    /// then replaces that parent, whose topology becomes the next child's
    /// slot.
    GaChild,
    /// A search move and its undo, then a swap and its undo.
    SearchMoves,
    /// A batch and a single move on a topology pinned to the full-rebuild
    /// reference.
    FullRebuild,
    /// `reset_placement` to a fresh random placement.
    Reset,
}

/// One lane: a kind of write on topologies of one instance.
struct Lane<'i> {
    kind: Kind,
    instance: &'i ProblemInstance,
    rng: SeededRng,
    /// The GA lane holds two parents and a child slot; the others one
    /// topology.
    topos: Vec<WmnTopology>,
    /// Every written state's evaluation and work counters, in order.
    log: Vec<(Evaluation, EngineStats)>,
}

impl<'i> Lane<'i> {
    fn new(kind: Kind, instance: &'i ProblemInstance, seed: u64) -> Self {
        let mut rng = rng_from_seed(seed);
        let count = if matches!(kind, Kind::GaChild) { 3 } else { 1 };
        let mut topos: Vec<WmnTopology> = (0..count)
            .map(|_| WmnTopology::build(instance, &instance.random_placement(&mut rng)).unwrap())
            .collect();
        if matches!(kind, Kind::FullRebuild) {
            topos[0].set_connectivity_mode(ConnectivityMode::FullRebuild);
        }
        Lane {
            kind,
            instance,
            rng,
            topos,
            log: Vec::new(),
        }
    }

    /// Checks the topology at `k` against a fresh build and logs it.
    fn check(&mut self, k: usize) {
        let topo = &self.topos[k];
        topo.assert_consistent();
        let evaluator = Evaluator::paper_default(self.instance);
        let evaluation = evaluator.evaluate_topology(topo);
        assert_eq!(
            evaluation,
            evaluator.evaluate(&topo.placement()).unwrap(),
            "{:?} lane drifted from a fresh evaluation",
            self.kind
        );
        self.log.push((evaluation, topo.engine_stats()));
    }

    fn random_point(&mut self) -> Point {
        let side = self.instance.area().width();
        Point::new(
            self.rng.gen_range(0.0..=side),
            self.rng.gen_range(0.0..=side),
        )
    }

    fn step(&mut self) {
        let n = self.instance.router_count();
        match self.kind {
            Kind::GaChild => {
                let lineage = self.rng.gen_range(0..2);
                let cut = self.rng.gen_range(0..n);
                let mut genes = self.topos[lineage].placement().as_slice().to_vec();
                genes[cut..]
                    .copy_from_slice(&self.topos[1 - lineage].placement().as_slice()[cut..]);
                for _ in 0..2 {
                    let i = self.rng.gen_range(0..n);
                    genes[i] = self.random_point();
                }
                let (parents, slot) = self.topos.split_at_mut(2);
                let child = &mut slot[0];
                child.clone_from(&parents[lineage]);
                let mut moves = Vec::new();
                child.diff_placement_into(&Placement::from_points(genes), &mut moves);
                child.apply_moves(&moves, Some(&parents[1 - lineage]));
                self.check(2);
                self.topos.swap(lineage, 2);
            }
            Kind::SearchMoves => {
                let (router, to) = (RouterId(self.rng.gen_range(0..n)), self.random_point());
                let from = self.topos[0].move_router(router, to);
                self.check(0);
                self.topos[0].move_router(router, from);
                self.check(0);
                let a = RouterId(self.rng.gen_range(0..n));
                let b = RouterId(self.rng.gen_range(0..n));
                self.topos[0].swap_routers(a, b);
                self.check(0);
                self.topos[0].swap_routers(a, b);
                self.check(0);
            }
            Kind::FullRebuild => {
                let moves: Vec<(RouterId, Point)> = (0..3)
                    .map(|_| (RouterId(self.rng.gen_range(0..n)), self.random_point()))
                    .collect();
                self.topos[0].apply_moves(&moves, None);
                self.check(0);
                let (router, to) = (RouterId(self.rng.gen_range(0..n)), self.random_point());
                self.topos[0].move_router(router, to);
                self.check(0);
            }
            Kind::Reset => {
                let placement = self.instance.random_placement(&mut self.rng);
                self.topos[0].reset_placement(&placement);
                self.check(0);
            }
        }
    }
}

/// Runs `lanes` interleaved round by round on the calling thread and
/// returns their logs.
fn run_interleaved(mut lanes: Vec<Lane<'_>>) -> Vec<Vec<(Evaluation, EngineStats)>> {
    for _ in 0..ROUNDS {
        for lane in &mut lanes {
            lane.step();
        }
    }
    lanes.into_iter().map(|lane| lane.log).collect()
}

#[test]
fn one_thread_scratch_serves_topologies_of_every_size() {
    // 64, 1,024, 256 and 128 routers: the scratch grows to 1,024 routers
    // in the second lane's first write, and the smaller lanes use its
    // prefix from then on.
    let instances = [
        instance(1, 11),
        instance(16, 12),
        instance(4, 13),
        instance(2, 14),
    ];
    let kinds = [
        Kind::GaChild,
        Kind::SearchMoves,
        Kind::FullRebuild,
        Kind::Reset,
    ];
    let lanes = |picks: &[usize]| -> Vec<Lane<'_>> {
        picks
            .iter()
            .map(|&k| Lane::new(kinds[k], &instances[k], 100 + k as u64))
            .collect()
    };

    let one_thread = run_interleaved(lanes(&[0, 1, 2, 3]));
    assert_eq!(one_thread[0].len(), ROUNDS);
    assert_eq!(one_thread[1].len(), 4 * ROUNDS);

    // The same per-lane schedules, split over two threads: each thread
    // still interleaves two router counts.
    let (first, second) = std::thread::scope(|scope| {
        let first = scope.spawn(|| run_interleaved(lanes(&[0, 2])));
        let second = scope.spawn(|| run_interleaved(lanes(&[1, 3])));
        (first.join().unwrap(), second.join().unwrap())
    });
    let two_threads = [&first[0], &second[0], &first[1], &second[1]];
    for (k, (one, two)) in one_thread.iter().zip(two_threads).enumerate() {
        assert_eq!(one, two, "{:?} lane differs across thread splits", kinds[k]);
    }
}
