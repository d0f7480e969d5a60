//! Allocation gate for the steady-state topology hot paths.
//!
//! The delta-evaluation engine promises O(1) allocations in steady state:
//! once a `WmnTopology` and its scratch buffers are warm, the GA's
//! per-child cycle — `clone_from` a parent, `apply_moves` the placement
//! diff — and the neighborhood search's single-move cycles — a
//! `move_router` there and back, a `swap_routers` there and back — must
//! never touch the heap. This test pins that promise with a counting
//! global allocator: it warms a topology through each cycle, switches the
//! counter on, replays the identical cycles, and asserts the allocation
//! count stayed at zero. The single-move cycles run on a sparse mesh where
//! most components are singletons, and must hand the giant to a rival and
//! back, so the connectivity engine's component-local relabel and giant
//! hand-off run under the gate.
//!
//! This file holds exactly one `#[test]` on purpose: the libtest harness
//! runs tests of a binary concurrently, and any neighbor test's
//! allocations would leak into the gate's counter.

// The one sanctioned unsafe item in the workspace: a `GlobalAlloc` shim
// cannot be written without `unsafe impl`. It only counts and forwards.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rand::Rng;
use wmn_graph::topology::WmnTopology;
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::{Area, Point};
use wmn_model::instance::InstanceSpec;
use wmn_model::node::RouterId;
use wmn_model::radio::RadioProfile;
use wmn_model::rng::rng_from_seed;

/// Forwards to the system allocator, counting heap operations (allocs and
/// reallocs; frees are free) while the gate is armed.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static HEAP_OPS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_clone_from_and_apply_moves_allocate_nothing() {
    let spec = InstanceSpec::paper_normal().unwrap();
    let instance = spec.generate(11).unwrap();
    let mut rng = rng_from_seed(17);
    let placement = instance.random_placement(&mut rng);
    let base = WmnTopology::build(&instance, &placement).unwrap();

    // A GA-child-shaped batch: a handful of routers jump anywhere in the
    // area, exercising grid relocation, edge repair, the connectivity
    // engine, and disk-cache recounts.
    let side = instance.area().width();
    let moves: Vec<(RouterId, Point)> = (0..12)
        .map(|_| {
            let i = rng.gen_range(0..instance.router_count());
            let p = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            (RouterId(i), p)
        })
        .collect();

    let mut work = base.clone();
    // Warm every buffer on the exact cycle under test: clone_from resets
    // the state to `base` each round, so the second run retraces the
    // first's repair path with capacities already grown.
    for _ in 0..2 {
        work.clone_from(&base);
        work.apply_moves(&moves, None);
    }

    // The paper density at 16× the routers: 1024 routers on a 512 × 512
    // area, mostly singleton components.
    let sparse_spec = InstanceSpec::new(
        Area::square(512.0).unwrap(),
        1024,
        3072,
        ClientDistribution::Uniform,
        RadioProfile::paper_default(),
    )
    .unwrap();
    // Seeds picked so the giant (4 routers) has rivals of its size.
    let sparse_instance = sparse_spec.generate(28).unwrap();
    let sparse_placement = sparse_instance.random_placement(&mut rng_from_seed(128));
    let mut sparse = WmnTopology::build(&sparse_instance, &sparse_placement).unwrap();
    assert!(
        sparse.components().count() > sparse.router_count() / 2,
        "the single-move gate needs a sparse mesh"
    );
    // `host` belongs to a rival as large as the giant but with a larger
    // representative, and `hop` is a lone router. `hop` landing 1 unit from
    // `host` (within every mutual range, radii are at least 2) hands the
    // giant to the rival, and its return hands the giant back on the tie.
    // Routers `hop` and `far` then swap positions and swap back.
    let components = sparse.components();
    let n = sparse.router_count();
    let giant = components.giant_label_opt().unwrap();
    let rival = |i: &usize| {
        components.size_of(*i) == components.giant_size() && components.label_of(*i) != giant
    };
    let host = RouterId((0..n).find(rival).expect("a rival as large as the giant"));
    let hop = RouterId((0..n).find(|&i| components.size_of(i) == 1).unwrap());
    let far = RouterId(n - 1 - hop.index());
    let home = sparse.position(hop);
    let host_at = sparse.position(host);
    let next_to_host = Point::new(host_at.x + 1.0, host_at.y);
    sparse.move_router(hop, next_to_host);
    assert!(sparse.in_giant(host) && sparse.in_giant(hop));
    sparse.move_router(hop, home);
    assert!(!sparse.in_giant(host) && !sparse.in_giant(hop));
    // Returns whether the giant went to the rival and came back.
    let single_cycles = |t: &mut WmnTopology| {
        t.move_router(hop, next_to_host);
        let handed_over = t.in_giant(host) && t.in_giant(hop);
        t.move_router(hop, home);
        let handed_back = !t.in_giant(host) && !t.in_giant(hop);
        t.swap_routers(hop, far);
        t.swap_routers(hop, far);
        (handed_over, handed_back)
    };
    for _ in 0..2 {
        single_cycles(&mut sparse);
    }

    HEAP_OPS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    work.clone_from(&base);
    work.apply_moves(&moves, None);
    ARMED.store(false, Ordering::SeqCst);
    let batch_ops = HEAP_OPS.load(Ordering::SeqCst);

    let before = sparse.engine_stats();
    HEAP_OPS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let hand_off = single_cycles(&mut sparse);
    ARMED.store(false, Ordering::SeqCst);
    let single_ops = HEAP_OPS.load(Ordering::SeqCst);
    let after = sparse.engine_stats();

    assert_eq!(
        batch_ops, 0,
        "steady-state clone_from + apply_moves touched the heap"
    );
    assert_eq!(
        single_ops, 0,
        "steady-state move_router / swap_routers cycles touched the heap"
    );

    // The gated cycles really did the work: state matches a fresh rebuild,
    // and the single moves relabeled components and handed the giant to
    // the rival and back.
    work.assert_consistent();
    sparse.assert_consistent();
    assert_eq!(
        hand_off,
        (true, true),
        "the single-move cycles must hand the giant over and back"
    );
    assert!(
        after.bfs_edge_visits > before.bfs_edge_visits,
        "the single-move cycles must relabel components"
    );
}
