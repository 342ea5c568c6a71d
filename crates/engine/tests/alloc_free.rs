//! Pins the zero-allocation round loop: after the simulation is built, `step()` must
//! never touch the global allocator.
//!
//! The harness installs a **thread-aware** counting `#[global_allocator]` (this
//! integration test is its own binary, so the counter sees nothing but this file's
//! work): each thread opts in with a thread-local flag and gets its own thread-local
//! count, so pool workers, the test harness and other tests' threads can allocate
//! freely without polluting a measured window. The engine sizes all of its per-round
//! scratch in `SimulationBuilder::build` (see `RoundBuffers` in
//! `src/simulation.rs`), so the steady-state count of a batch run across any number
//! of rounds must be exactly zero. An online run's departure calendar grows with its
//! horizon; it recycles drained slots' buffers into the slots it grows, so its
//! count is pinned to a small bound instead.
//!
//! Four execution contexts are pinned:
//!
//! 1. the classic sequential path (`ThreadPool::install(1)` scopes the rayon stub to
//!    one thread, exactly the pre-pool behaviour), including a run whose size-derived
//!    piece plan shrinks from four pieces to one between rounds, and an online run
//!    with Poisson arrivals (at most 20 allocations over 100 steady rounds),
//! 2. the same single-thread scope with the intra-round piece plan forced to 8, so
//!    the parallel sort / decide / settle / census code paths (piece merges,
//!    release aggregation) run through the counted window,
//! 3. a fault-wrapped protocol in the same scope, at 1 and 8 pieces, so the decide
//!    loop runs through the adapter's per-server hook, and
//! 4. `step()` running *on pool workers* — how `Scenario::run` executes trials.
//!    Since the pool's work-stealing rewrite, nested drives **fan out** from workers
//!    instead of running sequentially, and fanning out dispatches real jobs: piece
//!    and result vectors plus a completion latch, allocated on the driving thread.
//!    Zero is therefore the wrong pin here; what must hold instead is that the
//!    per-round dispatch cost is bounded by a small constant and **independent of
//!    the instance size** (piece counts are plan-derived or capped, never
//!    `O(n)`), so the allocator never re-enters the per-item hot loops.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use clb_engine::{
    erase, ArrivalProcess, Demand, ErasedProtocol, OnlineWorkload, Protocol, ServerCtx,
    ServiceDistribution, Simulation,
};
use clb_faults::FaultPlan;
use clb_graph::generators;
use rayon::prelude::*;

struct CountingAllocator;

thread_local! {
    // Const-initialised Cells: accessing them never allocates (which would recurse
    // into the allocator) and registers no destructor.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // try_with: allocations during thread teardown must not panic inside alloc.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting enabled on *this* thread and returns how many
/// allocator calls it made.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.with(|c| c.get());
    let result = f();
    let after = ALLOCATIONS.with(|c| c.get());
    COUNTING.with(|c| c.set(false));
    (after - before, result)
}

/// Single-choice protocol that keeps every ball alive for `open_round - 1` rounds, so
/// the counted window exercises full-size request batches every round.
struct OpensAt(u32);
impl Protocol for OpensAt {
    type ServerState = ();
    fn init_server(&self) {}
    fn server_decide(&self, _state: &mut (), ctx: &ServerCtx) -> u32 {
        if ctx.round >= self.0 {
            ctx.incoming
        } else {
            0
        }
    }
    fn server_is_closed(&self, _state: &(), _load: u32) -> bool {
        false
    }
}

/// Accepts at most `self.0` requests per server per round and never closes, so an
/// oversubscribed round leaves survivors for the next.
struct PerRoundCap(u32);
impl Protocol for PerRoundCap {
    type ServerState = ();
    fn init_server(&self) {}
    fn server_decide(&self, _state: &mut (), ctx: &ServerCtx) -> u32 {
        ctx.incoming.min(self.0)
    }
    fn server_is_closed(&self, _state: &(), _load: u32) -> bool {
        false
    }
}

/// Two choices per ball on capacity-1 servers: drives the release path and the
/// k-choice phase-3 logic through the counted window.
struct TwoChoiceCapacityOne;
impl Protocol for TwoChoiceCapacityOne {
    type ServerState = u32;
    fn init_server(&self) -> u32 {
        0
    }
    fn choices_per_round(&self) -> u32 {
        2
    }
    fn server_decide(&self, state: &mut u32, ctx: &ServerCtx) -> u32 {
        let take = 1u32.saturating_sub(*state).min(ctx.incoming);
        *state += take;
        take
    }
    fn server_is_closed(&self, state: &u32, _load: u32) -> bool {
        *state >= 1
    }
    fn server_on_release(&self, state: &mut u32, count: u32) {
        *state -= count;
    }
}

#[test]
fn round_loop_is_allocation_free_after_build() {
    // Scope the rayon stub to one thread: the classic sequential path, where the
    // engine's own par_* calls never touch the pool (and so never enqueue jobs,
    // which does allocate on the driving thread).
    let sequential = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    sequential.install(|| {
        // Case 1: single-choice, all balls stay alive for 40 rounds — every counted
        // round runs the phase-1 pick loop, the counting sort and phase 3 at full size.
        let graph = generators::regular_random(256, 16, 21).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(OpensAt(u32::MAX))
            .demand(Demand::Constant(3))
            .seed(7)
            .build();
        sim.step(); // warm-up (the buffers are pre-sized in build; belt and braces)
        let (allocations, ()) = counted(|| {
            for _ in 0..40 {
                sim.step();
            }
        });
        assert_eq!(
            allocations, 0,
            "single-choice step() allocated {allocations} times over 40 rounds"
        );
        assert_eq!(
            sim.alive_count(),
            256 * 3,
            "every ball must have stayed alive"
        );

        // Case 2: two choices per ball with releases — the k-choice settle path must
        // be just as clean. Complete bipartite 64x64 with capacity-1 servers takes
        // many rounds to finish, so 10 counted steps all do real work.
        let graph = generators::complete(64, 64).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(TwoChoiceCapacityOne)
            .demand(Demand::Constant(1))
            .seed(3)
            .max_rounds(500)
            .build();
        sim.step();
        let (allocations, ()) = counted(|| {
            for _ in 0..10 {
                if sim.is_complete() {
                    break;
                }
                sim.step();
            }
        });
        assert_eq!(
            allocations, 0,
            "two-choice step() allocated {allocations} times over the counted window"
        );

        // Case 3: a piece plan that changes mid-run. 65,536 round-1 requests on 1,024
        // servers split the sort and the settle into four pieces; the per-round cap
        // leaves survivors that shrink to a one-piece plan. Every step is counted,
        // round 1 included: the buffers are sized at build for the largest plan.
        let graph = generators::regular_random(1024, 16, 33).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(PerRoundCap(16))
            .demand(Demand::Constant(64))
            .seed(9)
            .build();
        let mut requests = Vec::with_capacity(64);
        let (allocations, ()) = counted(|| {
            while !sim.is_complete() && requests.len() < 64 {
                requests.push(sim.step().requests_sent);
            }
        });
        assert!(sim.is_complete(), "the capped run drains: {requests:?}");
        assert_eq!(requests[0], 65_536);
        assert!(
            requests.len() > 2 && *requests.last().unwrap() < 16_384,
            "the plan must shrink to one piece: {requests:?}"
        );
        assert_eq!(
            allocations, 0,
            "step() allocated {allocations} times across a changing piece plan"
        );

        // Case 4: an open system. Poisson(1024) arrivals with Geometric(1/4) service
        // times keep ~4k balls in service, and every round drains one departure
        // calendar slot and grows another. Drained slots hand their buffers to the
        // slots the calendar grows, so once the first 100 rounds have sized them a
        // round allocates only when the calendar's horizon or a slot outgrows its
        // capacity — not once per slot, as a freed-and-regrown calendar would.
        let mut sim = Simulation::builder(&graph)
            .protocol(PerRoundCap(16))
            .demand(Demand::Constant(0))
            .workload(OnlineWorkload {
                arrivals: ArrivalProcess::Poisson {
                    rate: 1024.0,
                    rounds: 300,
                },
                service: ServiceDistribution::Geometric { p: 0.25 },
            })
            .seed(9)
            .build();
        for _ in 0..100 {
            sim.step();
        }
        let (allocations, ()) = counted(|| {
            for _ in 0..100 {
                sim.step();
            }
        });
        assert!(
            !sim.is_complete(),
            "every counted round must carry arrivals"
        );
        assert!(
            allocations <= 20,
            "online step() allocated {allocations} times over rounds 101-200"
        );
    });
}

#[test]
fn round_loop_is_allocation_free_with_forced_intra_pieces() {
    // Forcing the piece plan to 8 on instances this small routes every phase through
    // the multi-chunk parallel path (three-pass sort, per-piece settle scratch,
    // release aggregation) — the settle counts live on the stack and all scratch is
    // in RoundBuffers, so the counted window must stay at exactly zero.
    let sequential = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    sequential.install(|| {
        let graph = generators::regular_random(256, 16, 21).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(OpensAt(u32::MAX))
            .demand(Demand::Constant(3))
            .seed(7)
            .intra_step_pieces(8)
            .build();
        sim.step();
        let (allocations, ()) = counted(|| {
            for _ in 0..40 {
                sim.step();
            }
        });
        assert_eq!(
            allocations, 0,
            "single-choice step() with 8 intra pieces allocated {allocations} times"
        );

        let graph = generators::complete(64, 64).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(TwoChoiceCapacityOne)
            .demand(Demand::Constant(1))
            .seed(3)
            .max_rounds(500)
            .intra_step_pieces(8)
            .build();
        sim.step();
        let (allocations, ()) = counted(|| {
            for _ in 0..10 {
                if sim.is_complete() {
                    break;
                }
                sim.step();
            }
        });
        assert_eq!(
            allocations, 0,
            "two-choice step() with 8 intra pieces allocated {allocations} times"
        );
    });
}

#[test]
fn fault_wrapped_round_loop_is_allocation_free() {
    // A fault-wrapped protocol decides through the adapter's per-server hook: the
    // fault draws, the hook call and the inner rule must all stay off the heap, on
    // the fused serial plan and on the forced 8-piece plan alike.
    let plan = FaultPlan::none()
        .stragglers(0.1, 0.5)
        .message_loss(0.05, 0.05);
    let sequential = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    sequential.install(|| {
        let regular = generators::regular_random(256, 16, 21).unwrap();
        let complete = generators::complete(64, 64).unwrap();
        // Full-size rejected batches every round, then accepts with releases.
        for two_choice in [false, true] {
            for pieces in [1, 8] {
                let (graph, protocol, demand): (_, Box<dyn ErasedProtocol>, _) = if two_choice {
                    (&complete, erase(TwoChoiceCapacityOne), 1)
                } else {
                    (&regular, erase(OpensAt(u32::MAX)), 3)
                };
                let mut sim = Simulation::builder(graph)
                    .protocol(plan.wrap(protocol, 3))
                    .demand(Demand::Constant(demand))
                    .seed(3)
                    .max_rounds(500)
                    .intra_step_pieces(pieces)
                    .build();
                sim.step();
                let (allocations, ()) = counted(|| {
                    for _ in 0..10 {
                        sim.step();
                    }
                });
                assert!(!sim.is_complete(), "every counted round must do work");
                assert_eq!(
                    allocations, 0,
                    "fault-wrapped step() with {pieces} pieces allocated {allocations} times"
                );
            }
        }
    });
}

/// Steps four sims of `n` clients on a 4-thread pool with the intra-step plan forced
/// to 8 pieces, and returns the worst per-round allocation count observed on any
/// driving thread (main or worker — whichever ran that sim's piece).
fn worker_allocations_per_round(n: usize) -> u64 {
    const ROUNDS: u64 = 20;
    let graph = generators::regular_random(n, 16, 21).unwrap();
    let sims: Vec<_> = (0..4u64)
        .map(|seed| {
            let mut sim = Simulation::builder(&graph)
                .protocol(OpensAt(u32::MAX))
                .demand(Demand::Constant(3))
                .seed(seed)
                .intra_step_pieces(8)
                .build();
            sim.step(); // warm-up outside the counted window
            sim
        })
        .collect();

    let worst = std::sync::Mutex::new(0u64);
    rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap()
        .install(|| {
            sims.into_par_iter().for_each(|mut sim| {
                // Uncounted rounds let this thread's pool queues reach steady-state
                // capacity before the measured window opens.
                for _ in 0..3 {
                    sim.step();
                }
                let (allocations, ()) = counted(|| {
                    for _ in 0..ROUNDS {
                        sim.step();
                    }
                });
                let mut worst = worst.lock().unwrap();
                *worst = (*worst).max(allocations);
            });
        });
    let worst = worst.into_inner().unwrap();
    worst.div_ceil(ROUNDS)
}

#[test]
fn round_loop_dispatch_on_pool_workers_is_bounded_and_size_independent() {
    // The scenario runner executes whole trials on pool workers; since the
    // work-stealing rewrite the engine's nested par_* calls *fan out* from there
    // (tokens go onto the worker's own deque, idle workers steal them), and each
    // nested drive allocates its dispatch record on the driving thread. The
    // per-item hot loops are still allocation-free — all per-round scratch lives in
    // RoundBuffers — so the count per round must be (a) small and (b) flat in `n`:
    // every piece count involved is either the forced plan (8) or the pool's cap
    // (64), never proportional to clients or balls. A 4x bigger instance therefore
    // must not dispatch measurably more. (Zero-allocation execution is still pinned
    // — for the sequential path — by the two install(1) tests above.)
    let small = worker_allocations_per_round(256);
    let large = worker_allocations_per_round(1024);
    assert!(
        small > 0,
        "nested drives are expected to dispatch real pool jobs from workers now"
    );
    assert!(
        small <= 256,
        "per-round dispatch cost exploded: {small} allocations per round"
    );
    assert!(
        large <= small * 2,
        "dispatch allocations must not scale with instance size: \
         {small}/round at n=256 vs {large}/round at n=1024"
    );
}
