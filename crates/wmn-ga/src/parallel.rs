//! Threaded population evaluation over the GA's slot pool.
//!
//! Fitness evaluation dominates GA runtime, and individuals are
//! independent — a textbook fork/join. Implemented with
//! `std::thread::scope` so the evaluator (which borrows the instance) can
//! be shared without `'static` gymnastics or extra dependencies.
//!
//! Every individual owns an [`EvalWorkspace`] slot, and slot `i` is always
//! evaluated by the worker that owns individual `i`'s chunk, so results and
//! the slots' work counters are deterministic in the thread count
//! (evaluation consumes no RNG, and each child's result is a pure function
//! of its placement):
//!
//! * [`evaluate_initial`] seeds the pool: each individual is evaluated
//!   through its own slot, leaving a live topology of its placement.
//! * [`evaluate_generation`] evaluates a reproduced generation: a worker
//!   copies the lineage parent's live topology state into the child's slot
//!   (`WmnTopology::clone_from`, allocation-free once warm) and repairs the
//!   placement diff through the topology's batch engine — incrementally,
//!   or by a full rebuild when the parents' topologies are pinned to
//!   `ConnectivityMode::FullRebuild` (the engine's full-rebuild
//!   reference). Workers only *read* the parent generation's slots, so
//!   chunks share them freely.

use crate::chromosome::Individual;
use crate::population::{Lineage, Population};
use wmn_metrics::evaluator::{EvalWorkspace, Evaluator};
use wmn_model::geometry::Point;
use wmn_model::placement::Placement;
use wmn_model::{ModelError, RouterId};

/// Evaluates an initial population **into per-individual workspace slots**:
/// each individual is evaluated through its own slot, leaving every slot
/// holding a live topology of that individual's placement — the seed state
/// of the topology-backed generational loop.
///
/// `threads <= 1` evaluates on the calling thread; results are identical
/// for every thread count.
///
/// # Errors
///
/// Propagates the first placement-validation failure.
///
/// # Panics
///
/// Panics if `slots.len() != population.len()`.
pub fn evaluate_initial(
    evaluator: &Evaluator<'_>,
    population: &mut Population,
    slots: &mut [EvalWorkspace],
    threads: usize,
) -> Result<(), ModelError> {
    fn seed_slot(
        evaluator: &Evaluator<'_>,
        ind: &mut Individual,
        slot: &mut EvalWorkspace,
    ) -> Result<(), ModelError> {
        let e = evaluator.evaluate_with(slot, ind.placement())?;
        if !ind.is_evaluated() {
            ind.set_evaluation(e);
        }
        Ok(())
    }
    let individuals = population.individuals_mut();
    assert_eq!(individuals.len(), slots.len(), "one slot per individual");
    let chunk = chunk_len(individuals.len(), threads);
    let work = individuals.chunks_mut(chunk).zip(slots.chunks_mut(chunk));
    in_parallel(work, |(inds, slot_chunk)| {
        for (ind, slot) in inds.iter_mut().zip(slot_chunk) {
            seed_slot(evaluator, ind, slot)?;
        }
        Ok(())
    })
}

/// The chunk length that splits `len` items over `threads` workers: all of
/// them in one chunk at one thread.
fn chunk_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1)).max(1)
}

/// Runs `work` on every chunk: a single chunk on the calling thread, more
/// on one scoped thread each. Returns the error of the lowest failing
/// chunk, so the result does not depend on the thread count. A scoped
/// thread is fresh, so each one warms its own topology write scratch
/// (see the `wmn_graph::topology` module docs) on its first write.
fn in_parallel<T: Send>(
    chunks: impl Iterator<Item = T>,
    work: impl Fn(T) -> Result<(), ModelError> + Sync,
) -> Result<(), ModelError> {
    let mut chunks = chunks.peekable();
    let Some(first) = chunks.next() else {
        return Ok(());
    };
    if chunks.peek().is_none() {
        return work(first);
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = std::iter::once(first)
            .chain(chunks)
            .map(|chunk| scope.spawn(move || work(chunk)))
            .collect();
        for h in handles {
            h.join().expect("evaluation worker panicked")?;
        }
        Ok(())
    })
}

/// The child's lineage parent: whichever recorded parent differs from the
/// child in fewer genes (ties toward `a`). Deterministic, so results are
/// independent of scheduling.
fn closer_parent(parents: &Population, lineage: Lineage, child: &Placement) -> usize {
    if lineage.a == lineage.b {
        return lineage.a;
    }
    let diff = |idx: usize| {
        parents.individuals()[idx]
            .placement()
            .as_slice()
            .iter()
            .zip(child.as_slice())
            .filter(|(p, c)| p != c)
            .count()
    };
    if diff(lineage.b) < diff(lineage.a) {
        lineage.b
    } else {
        lineage.a
    }
}

/// Evaluates one child of a generation: adopt the lineage parent's live
/// topology, apply the placement diff, evaluate. Falls back to a full
/// build in the child's slot when the parent has no live topology (a
/// caller-assembled parent population).
fn evaluate_child(
    evaluator: &Evaluator<'_>,
    parents: &Population,
    parent_slots: &[EvalWorkspace],
    child: &mut Individual,
    slot: &mut EvalWorkspace,
    lineage: Lineage,
    moves: &mut Vec<(RouterId, Point)>,
) -> Result<(), ModelError> {
    let parent = closer_parent(parents, lineage, child.placement());
    let Some(parent_topo) = parent_slots[parent].topology() else {
        let e = evaluator.evaluate_with(slot, child.placement())?;
        if !child.is_evaluated() {
            child.set_evaluation(e);
        }
        return Ok(());
    };
    slot.adopt_topology(parent_topo);
    // The non-lineage parent donates disk caches for the recombined genes:
    // a crossover child's moved positions are verbatim that parent's, so
    // its cached disks transfer instead of being re-queried.
    let other = lineage.a + lineage.b - parent;
    let donor = if other != parent {
        parent_slots[other].topology()
    } else {
        None
    };
    let topo = slot.topology_mut().expect("topology just adopted");
    let e = evaluator.evaluate_moves_to_from(topo, child.placement(), moves, donor)?;
    if !child.is_evaluated() {
        child.set_evaluation(e);
    }
    Ok(())
}

/// Evaluates a reproduced generation through the slot pool: every child's
/// slot adopts its lineage parent's live topology (state copy,
/// buffer-reusing, connectivity mode included) and repairs the child's
/// placement diff through `WmnTopology::apply_moves` — one batch repair
/// per child. Already-evaluated children (elites) skip the fitness write
/// but still get a live topology, so they can parent the next generation.
///
/// Results equal a fresh build of each child (pinned by the
/// `incremental_equivalence` suite) for every thread count: no RNG is
/// consumed and each child's evaluation is a pure function of its
/// placement.
///
/// # Errors
///
/// Propagates the first placement-validation failure.
///
/// # Panics
///
/// Panics if `parent_slots`, `child_slots`, or `lineage` lengths are
/// inconsistent with their populations, or a lineage index is out of
/// range.
pub fn evaluate_generation(
    evaluator: &Evaluator<'_>,
    parents: &Population,
    parent_slots: &[EvalWorkspace],
    children: &mut Population,
    child_slots: &mut [EvalWorkspace],
    lineage: &[Lineage],
    threads: usize,
) -> Result<(), ModelError> {
    assert_eq!(
        parents.len(),
        parent_slots.len(),
        "one slot per parent individual"
    );
    let individuals = children.individuals_mut();
    assert_eq!(
        individuals.len(),
        child_slots.len(),
        "one slot per child individual"
    );
    assert_eq!(individuals.len(), lineage.len(), "one lineage per child");
    let chunk = chunk_len(individuals.len(), threads);
    let work = individuals
        .chunks_mut(chunk)
        .zip(child_slots.chunks_mut(chunk))
        .zip(lineage.chunks(chunk));
    in_parallel(work, |((inds, slot_chunk), line_chunk)| {
        let mut moves = Vec::new();
        for ((ind, slot), &line) in inds.iter_mut().zip(slot_chunk).zip(line_chunk) {
            evaluate_child(
                evaluator,
                parents,
                parent_slots,
                ind,
                slot,
                line,
                &mut moves,
            )?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chromosome::Individual;
    use wmn_model::instance::InstanceSpec;
    use wmn_model::rng::rng_from_seed;

    fn population(n: usize, seed: u64) -> (wmn_model::ProblemInstance, Population) {
        let instance = InstanceSpec::paper_normal()
            .unwrap()
            .generate(seed)
            .unwrap();
        let mut rng = rng_from_seed(seed);
        let pop: Population = (0..n)
            .map(|_| Individual::new(instance.random_placement(&mut rng)))
            .collect();
        (instance, pop)
    }

    /// `evaluate_initial` into fresh slots; returns the slots.
    fn evaluate(
        evaluator: &Evaluator<'_>,
        pop: &mut Population,
        threads: usize,
    ) -> Result<Vec<EvalWorkspace>, ModelError> {
        let mut slots = Vec::new();
        slots.resize_with(pop.len(), EvalWorkspace::new);
        evaluate_initial(evaluator, pop, &mut slots, threads)?;
        Ok(slots)
    }

    #[test]
    fn parallel_equals_serial() {
        let (instance, pop) = population(33, 1);
        let evaluator = Evaluator::paper_default(&instance);
        let mut serial = pop.clone();
        evaluate(&evaluator, &mut serial, 1).unwrap();
        for threads in [2, 3, 8, 64] {
            let mut par = pop.clone();
            let slots = evaluate(&evaluator, &mut par, threads).unwrap();
            assert_eq!(par, serial, "threads = {threads}");
            // Every slot holds a live topology of its own individual.
            for (ind, slot) in par.individuals().iter().zip(&slots) {
                let topo = slot.topology().expect("slot seeded");
                assert_eq!(&topo.placement(), ind.placement());
            }
        }
    }

    #[test]
    fn already_evaluated_individuals_are_skipped() {
        // Cached evaluations are kept: individual 0 carries individual
        // 1's evaluation, and seeding its slot must not overwrite it.
        let (instance, mut pop) = population(8, 2);
        let evaluator = Evaluator::paper_default(&instance);
        let foreign = evaluator
            .evaluate(pop.individuals()[1].placement())
            .unwrap();
        pop.individuals_mut()[0].set_evaluation(foreign);
        let slots = evaluate(&evaluator, &mut pop, 4).unwrap();
        assert_eq!(pop.individuals()[0].evaluation(), Some(foreign));
        assert_eq!(
            &slots[0].topology().unwrap().placement(),
            pop.individuals()[0].placement()
        );
        // Re-running is a no-op.
        let snapshot = pop.clone();
        evaluate(&evaluator, &mut pop, 4).unwrap();
        assert_eq!(pop, snapshot);
    }

    #[test]
    fn persistent_workspaces_match_fresh_across_generations() {
        // Slots reused across rounds (rebuilt in place) evaluate exactly
        // like fresh ones.
        let evaluator_instance = population(24, 5).0;
        let evaluator = Evaluator::paper_default(&evaluator_instance);
        let mut slots = Vec::new();
        slots.resize_with(24, EvalWorkspace::new);
        for round in 0..3 {
            // New "generation": same shape, different placements.
            let (_, generation) = population(24, 100 + round);
            let mut fresh = generation.clone();
            evaluate(&evaluator, &mut fresh, 4).unwrap();
            let mut reused = generation.clone();
            evaluate_initial(&evaluator, &mut reused, &mut slots, 4).unwrap();
            assert_eq!(reused, fresh, "round {round}");
        }
    }

    #[test]
    fn every_topology_of_an_instance_shares_its_client_index() {
        use crate::population::Lineage;
        use wmn_graph::topology::WmnTopology;
        let (instance, pop) = population(8, 6);
        let evaluator = Evaluator::paper_default(&instance);
        let built = WmnTopology::build(&instance, pop.individuals()[0].placement()).unwrap();
        let clients = built.client_index().points().as_ptr();
        for threads in [1, 4] {
            let mut parents = pop.clone();
            let parent_slots = evaluate(&evaluator, &mut parents, threads).unwrap();
            // Crossover children: parent i's first half, parent i + 1's
            // second half.
            let n = parents.len();
            let lineage: Vec<Lineage> = (0..n)
                .map(|i| Lineage {
                    a: i,
                    b: (i + 1) % n,
                })
                .collect();
            let mut children: Population = lineage
                .iter()
                .map(|line| {
                    let a = parents.individuals()[line.a].placement().as_slice();
                    let b = parents.individuals()[line.b].placement().as_slice();
                    let half = a.len() / 2;
                    let genes = a[..half].iter().chain(&b[half..]).copied().collect();
                    Individual::new(Placement::from_points(genes))
                })
                .collect();
            let mut child_slots = Vec::new();
            child_slots.resize_with(n, EvalWorkspace::new);
            evaluate_generation(
                &evaluator,
                &parents,
                &parent_slots,
                &mut children,
                &mut child_slots,
                &lineage,
                threads,
            )
            .unwrap();
            for (i, slot) in parent_slots.iter().chain(&child_slots).enumerate() {
                let topo = slot.topology().expect("slot holds a topology");
                assert_eq!(
                    topo.client_index().points().as_ptr(),
                    clients,
                    "slot {i}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn more_threads_than_individuals_is_fine() {
        let (instance, mut pop) = population(3, 3);
        let evaluator = Evaluator::paper_default(&instance);
        evaluate(&evaluator, &mut pop, 16).unwrap();
        assert!(pop.individuals().iter().all(|i| i.is_evaluated()));
    }

    #[test]
    fn invalid_individual_surfaces_error() {
        let (instance, mut pop) = population(4, 4);
        pop.push(Individual::new(wmn_model::Placement::new())); // wrong length
        let evaluator = Evaluator::paper_default(&instance);
        assert!(evaluate(&evaluator, &mut pop, 4).is_err());
        assert!(evaluate(&evaluator, &mut pop, 1).is_err());
    }
}
