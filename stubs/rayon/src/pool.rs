//! The `std::thread` execution engine behind the parallel-iterator surface: a
//! **work-stealing** scheduler with true nested parallelism.
//!
//! # Architecture
//!
//! One process-wide registry holds `MAX_WORKERS` pre-allocated worker slots; worker
//! threads grow lazily to the largest parallelism any call has asked for and are
//! never torn down (process exit reaps them). Each worker owns a **LIFO deque** of
//! jobs: it pushes and pops at the back, while idle workers **steal from the front**
//! (the oldest, typically largest task — the Blumofe–Leiserson discipline, with a
//! `Mutex<VecDeque>` standing in for the lock-free Chase–Lev deque; correctness over
//! cleverness for a vendored stub). Drives started on non-worker threads (the main
//! thread, test threads) enqueue into a shared **injector** queue that workers drain
//! before stealing.
//!
//! A *drive* — one terminal parallel-iterator call such as `collect` or `for_each` —
//! splits its producer into contiguous pieces, publishes a stack-allocated batch
//! descriptor, and pushes one claim *token* per extra executor. Every executor (the
//! driving thread plus any worker that pops or steals a token) repeatedly claims the
//! next unclaimed piece via an atomic counter and runs it sequentially; results land
//! in per-piece slots, so the merged output is index-ordered and bit-identical to
//! sequential execution no matter which thread ran which piece, or in what order.
//!
//! # Nested parallelism
//!
//! A parallel call made *from inside a pool job* — the engine's per-round
//! `par_chunks_mut` or `rayon::join` while the scenario grid already runs the
//! enclosing trial on a worker — no longer degrades to sequential execution: its
//! claim tokens are pushed onto **the running worker's own deque**, where the worker
//! itself pops them LIFO and idle workers steal them FIFO. The blocked parent first
//! drains its own claim loop, then *cancels* every still-queued token of its drive
//! (tokens are pure claim opportunities — once the claim counter is exhausted they
//! are no-ops, so removing them from the queue and counting the latch down directly
//! is equivalent to executing them, minus the dispatch), and finally parks on the
//! latch until the stolen tokens' executors finish. Two properties follow:
//!
//! * **No idle fan-out is wasted**: when the pool has idle workers (the uneven tail
//!   of a grid, a lone huge instance), they steal intra-step pieces and the nested
//!   drive genuinely runs on multiple threads.
//! * **No unbounded blocking**: when the pool is saturated, every token is cancelled
//!   back and the parent simply runs all pieces itself — the pre-stealing sequential
//!   behaviour, with one queue round-trip of overhead.
//!
//! A blocked parent deliberately does **not** steal unrelated work while it waits:
//! stealing a whole grid cell while waiting for a sub-millisecond intra-step barrier
//! would stall the cell it is already running for seconds, and recursive theft grows
//! the stack without bound on large grids. Cancellation makes the wait short instead
//! — the only tokens left are ones some thread is *currently executing*.
//!
//! # Victim selection
//!
//! Steal probes start at a pseudo-random victim and scan cyclically. The generator
//! is a per-worker SplitMix64 **seeded by the worker's index**, so the probe order
//! is reproducible per worker and shares no global RNG state. (Scheduling is still
//! timing-dependent — seeding buys debuggability, not determinism; determinism comes
//! from index-ordered merges, see below.)
//!
//! # Determinism contract
//!
//! Scheduling never influences results: pieces are contiguous index ranges, piece
//! results are merged in index order, and `reduce`/`sum` combine per-piece partials
//! left-to-right. Stealing changes *who executes* a piece, never *where its result
//! merges*. The only way to observe the thread count is through a non-associative
//! reduction operator (e.g. float addition) — every reduction in this workspace is
//! exact and associative (`f64::max`, integer sums), so all outputs are bit-identical
//! from `RAYON_NUM_THREADS=1` to `=N`, nested or not. `docs/DETERMINISM.md` spells
//! out the argument ("Why stealing cannot reorder results").
//!
//! # Small-drive cutoff
//!
//! Drives over fewer than [`SMALL_DRIVE_CUTOFF`] work units skip job setup entirely
//! and run inline on the caller — queueing, waking and cancelling tokens costs more
//! than three items' worth of work ever saves. `join` is exempt: its two closures
//! are arbitrary-sized by construction.
//!
//! # Safety
//!
//! Claim-token jobs carry a raw pointer to the driver's stack-allocated batch. The
//! driver cannot return before every token has been cancelled or has exited (tracked
//! by an `Arc`ed latch that lives independently of the driver's stack, so a token's
//! final countdown never touches freed memory); a cancelled token never dereferences
//! the batch, and an executed token never touches it after its countdown. Piece
//! panics are caught per piece and re-raised on the driving thread after the batch
//! completes, in piece order.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::producer::{split_into, Producer};

/// Upper bound on pool workers (slots are pre-allocated so stealers can scan the
/// registry without locking it as a whole). Parallelism above `MAX_WORKERS + 1`
/// (the workers plus the driving thread) is clamped.
const MAX_WORKERS: usize = 128;

/// Drives over fewer work units than this run inline on the calling thread with no
/// pool involvement at all: below it, the job-setup overhead (piece vectors, a latch
/// allocation, queue pushes, worker wakeup, cancellation) exceeds the work being
/// split. The constant is deliberately small — an engine piece plan of 4+ pieces
/// still fans out — and results are bit-identical on both sides by the index-merge
/// discipline (pinned by `small_drives_are_bit_identical_and_inline` in `lib.rs`).
pub const SMALL_DRIVE_CUTOFF: usize = 4;

thread_local! {
    /// This thread's worker slot index, or `usize::MAX` on non-worker threads.
    static WORKER_INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Scoped thread-count override installed by `ThreadPool::install` (0 = none).
    static INSTALL_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Parallelism context inherited from the job this thread is currently
    /// executing (0 = not inside a job). Nested drives started from inside a job
    /// see the same parallelism the enclosing drive ran under.
    static JOB_CONTEXT: Cell<usize> = const { Cell::new(0) };
    /// Per-worker SplitMix64 state for victim selection, seeded by worker index.
    static STEAL_RNG: Cell<u64> = const { Cell::new(0) };
}

fn current_worker() -> Option<usize> {
    let index = WORKER_INDEX.with(|w| w.get());
    (index != usize::MAX).then_some(index)
}

/// Restores the previous install override on drop (panic-safe).
pub(crate) struct InstallGuard {
    prev: usize,
}

pub(crate) fn enter_install(threads: usize) -> InstallGuard {
    InstallGuard {
        prev: INSTALL_OVERRIDE.replace(threads.max(1)),
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALL_OVERRIDE.set(self.prev);
    }
}

/// Restores the previous job context on drop (panic-safe).
struct ContextGuard {
    prev: usize,
}

fn enter_job_context(threads: usize) -> ContextGuard {
    ContextGuard {
        prev: JOB_CONTEXT.replace(threads.max(1)),
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        JOB_CONTEXT.set(self.prev);
    }
}

/// The process-wide default: `RAYON_NUM_THREADS` if set to a positive integer
/// (rayon's convention: unset, `0` or garbage mean "pick for me"), else the
/// machine's available parallelism. Read once, like rayon's global pool size.
pub(crate) fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        match std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

/// Parallelism available to a drive started on the current thread right now: a
/// scoped [`crate::ThreadPool::install`] override wins, then the context inherited
/// from the enclosing pool job (this is what makes nesting *fan out* instead of
/// degrading — a drive inside a stolen piece sees the same width as its parent),
/// then the process default.
pub(crate) fn current_parallelism() -> usize {
    let override_threads = INSTALL_OVERRIDE.get();
    if override_threads > 0 {
        return override_threads.min(MAX_WORKERS + 1);
    }
    let context = JOB_CONTEXT.get();
    if context > 0 {
        return context.min(MAX_WORKERS + 1);
    }
    default_threads().min(MAX_WORKERS + 1)
}

/// Mirror of `rayon::current_num_threads`: the *effective* parallelism of a drive
/// started here and now — after `install` overrides and job-context inheritance —
/// as opposed to whatever `RAYON_NUM_THREADS` happens to contain. Bench binaries
/// record this into their JSONs so multi-core CI numbers are attributable.
pub(crate) fn current_num_threads() -> usize {
    current_parallelism()
}

/// True if a drive over `len` work units should take the plain sequential path:
/// the len is below [`SMALL_DRIVE_CUTOFF`], or the effective parallelism is 1
/// (`RAYON_NUM_THREADS=1` or an `install(1)` scope — the pre-pool behaviour, with
/// zero pool involvement and zero extra allocation).
pub(crate) fn run_sequentially(len: usize) -> bool {
    len < SMALL_DRIVE_CUTOFF || current_parallelism() <= 1
}

/// How many pieces to carve `len` work units into: enough beyond the thread count
/// that dynamically-claimed (and stolen) pieces absorb uneven per-item cost, capped
/// so tiny drives are not all dispatch overhead.
fn piece_count(len: usize, threads: usize) -> usize {
    len.min((threads * 4).max(64))
}

// ---------------------------------------------------------------------------
// Registry: worker slots, injector, parking
// ---------------------------------------------------------------------------

/// Type-erased job: `data` points into the driving thread's stack (see the module docs
/// for why that is sound). `context` is the parallelism the job's drive ran under,
/// inherited by any drive nested inside the job.
struct Job {
    data: *const (),
    exec: unsafe fn(*const ()),
    latch: Arc<CountLatch>,
    context: usize,
}

// SAFETY: `data` points at a `Batch`/`JoinTask` whose pieces/closures are
// `Send`/`Sync` (enforced by the spawning functions' bounds) and which outlives the
// job per the latch protocol.
unsafe impl Send for Job {}

/// Counts job exits (or cancellations) for one drive. Lives in an `Arc` so
/// the final countdown and wakeup never touch the driver's stack.
struct CountLatch {
    outstanding: Mutex<usize>,
    done: Condvar,
}

impl CountLatch {
    fn new(outstanding: usize) -> Arc<Self> {
        Arc::new(Self {
            outstanding: Mutex::new(outstanding),
            done: Condvar::new(),
        })
    }

    fn count_down(&self) {
        self.count_down_n(1);
    }

    fn count_down_n(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut outstanding = self.outstanding.lock().unwrap();
        *outstanding -= n;
        if *outstanding == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut outstanding = self.outstanding.lock().unwrap();
        while *outstanding > 0 {
            outstanding = self.done.wait(outstanding).unwrap();
        }
    }
}

/// One pre-allocated worker slot: the deque plus diagnostics counters. Counters are
/// incremented with commutative `fetch_add` only; the aggregate read happens in
/// [`pool_stats`].
struct WorkerSlot {
    deque: Mutex<VecDeque<Job>>,
    tasks_executed: AtomicU64,
    steals_attempted: AtomicU64,
    steals_succeeded: AtomicU64,
    parks: AtomicU64,
}

struct Registry {
    workers: Vec<WorkerSlot>,
    injector: Mutex<VecDeque<Job>>,
    /// Worker threads spawned so far; slots `0..spawned` have live threads. Stale
    /// reads are harmless: every slot in `workers` exists from registry creation,
    /// so scanning a few not-yet-spawned (empty) deques is just a wasted probe.
    spawned: AtomicUsize,
    spawn_lock: Mutex<usize>,
    /// Push generation: bumped on every job push so parked workers can detect work
    /// that arrived between their last scan and going to sleep (no lost wakeups).
    generation: Mutex<u64>,
    ready: Condvar,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        workers: (0..MAX_WORKERS)
            .map(|_| WorkerSlot {
                deque: Mutex::new(VecDeque::new()),
                tasks_executed: AtomicU64::new(0),
                steals_attempted: AtomicU64::new(0),
                steals_succeeded: AtomicU64::new(0),
                parks: AtomicU64::new(0),
            })
            .collect(),
        injector: Mutex::new(VecDeque::new()),
        spawned: AtomicUsize::new(0),
        spawn_lock: Mutex::new(0),
        generation: Mutex::new(0),
        ready: Condvar::new(),
    })
}

/// Aggregate scheduler diagnostics; see [`crate::pool_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads spawned so far (the driving thread is not counted).
    pub workers: usize,
    /// Jobs executed by pool workers: claim tokens and join tokens.
    pub tasks_executed: u64,
    /// Steal scans that ran (one scan probes every other worker once).
    pub steals_attempted: u64,
    /// Steal scans that came back with a job taken from another worker's deque.
    pub steals_succeeded: u64,
    /// Times a worker went to sleep on the idle condvar.
    pub parks: u64,
}

/// Sums the per-worker counters. Purely diagnostic: the counts are exact totals of
/// commutative increments, but *when* you read them relative to in-flight work is
/// up to you — they never feed a result.
pub(crate) fn pool_stats() -> PoolStats {
    let reg = registry();
    let mut stats = PoolStats {
        // clb-audit: allow(relaxed-load) -- diagnostics only
        workers: reg.spawned.load(Ordering::Relaxed),
        ..PoolStats::default()
    };
    for slot in &reg.workers {
        // clb-audit: allow(relaxed-load) -- diagnostics only
        stats.tasks_executed += slot.tasks_executed.load(Ordering::Relaxed);
        // clb-audit: allow(relaxed-load) -- diagnostics only
        stats.steals_attempted += slot.steals_attempted.load(Ordering::Relaxed);
        // clb-audit: allow(relaxed-load) -- diagnostics only
        stats.steals_succeeded += slot.steals_succeeded.load(Ordering::Relaxed);
        // clb-audit: allow(relaxed-load) -- diagnostics only
        stats.parks += slot.parks.load(Ordering::Relaxed);
    }
    stats
}

/// Bumps the push generation and wakes every parked worker.
fn notify_work() {
    let reg = registry();
    {
        let mut generation = reg.generation.lock().unwrap();
        *generation += 1;
    }
    reg.ready.notify_all();
}

/// Pushes one job: onto the current worker's own deque (LIFO end) so the worker
/// finds its freshest sub-tasks first and thieves take the oldest, or onto the
/// shared injector when called from a non-worker thread.
fn push_job(job: Job) {
    push_jobs(std::iter::once(job));
}

/// Pushes a batch of jobs under one queue lock and one wakeup.
fn push_jobs(jobs: impl Iterator<Item = Job>) {
    let reg = registry();
    match current_worker() {
        Some(index) => {
            let mut deque = reg.workers[index].deque.lock().unwrap();
            deque.extend(jobs);
        }
        None => {
            let mut injector = reg.injector.lock().unwrap();
            injector.extend(jobs);
        }
    }
    notify_work();
}

/// Removes every still-queued job of the drive identified by `data` from the one
/// queue this thread pushes to, returning how many were cancelled. A removed token
/// never ran and never will — the caller counts its latch down directly.
fn cancel_pending(data: *const ()) -> usize {
    let reg = registry();
    let mut queue = match current_worker() {
        Some(index) => reg.workers[index].deque.lock().unwrap(),
        None => reg.injector.lock().unwrap(),
    };
    let before = queue.len();
    queue.retain(|job| !std::ptr::eq(job.data, data));
    before - queue.len()
}

/// SplitMix64 step on the thread-local steal RNG.
fn steal_rng_next() -> u64 {
    let state = STEAL_RNG.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
    STEAL_RNG.set(state);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One attempt to find runnable work for worker `index`: own deque (LIFO), then the
/// injector (oldest external drive first), then a steal scan over the other workers
/// starting at a seeded-random victim (FIFO end — the oldest, typically largest
/// task, so a thief takes whole sub-trees rather than crumbs).
fn find_work(index: usize) -> Option<Job> {
    let reg = registry();
    if let Some(job) = reg.workers[index].deque.lock().unwrap().pop_back() {
        return Some(job);
    }
    if let Some(job) = reg.injector.lock().unwrap().pop_front() {
        return Some(job);
    }
    let victims = reg.spawned.load(Ordering::Relaxed);
    if victims <= 1 {
        return None;
    }
    let slot = &reg.workers[index];
    slot.steals_attempted.fetch_add(1, Ordering::Relaxed);
    let start = (steal_rng_next() % victims as u64) as usize;
    for offset in 0..victims {
        let victim = (start + offset) % victims;
        if victim == index {
            continue;
        }
        if let Some(job) = reg.workers[victim].deque.lock().unwrap().pop_front() {
            slot.steals_succeeded.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
    }
    None
}

/// Runs one job on worker `index` with its parallelism context installed, then
/// counts its latch down. The last dereference of `job.data` happens inside `exec`;
/// from there on only the `Arc`ed latch is used, so the driver may free the batch as
/// soon as it wakes.
fn execute_job(index: usize, job: Job) {
    registry().workers[index]
        .tasks_executed
        .fetch_add(1, Ordering::Relaxed);
    {
        let _context = enter_job_context(job.context);
        // SAFETY: the job's referent is alive — its driver is blocked until this
        // job counts down below (latch protocol, module docs).
        unsafe { (job.exec)(job.data) };
    }
    job.latch.count_down();
}

/// Grows the worker set to at least `target` threads (clamped to `MAX_WORKERS`).
fn ensure_workers(target: usize) {
    let target = target.min(MAX_WORKERS);
    let reg = registry();
    let mut spawned = reg.spawn_lock.lock().unwrap();
    while *spawned < target {
        let index = *spawned;
        std::thread::Builder::new()
            .name(format!("clb-rayon-{index}"))
            .spawn(move || worker_main(index))
            .expect("failed to spawn pool worker thread");
        *spawned += 1;
        reg.spawned.store(*spawned, Ordering::Relaxed);
    }
}

fn worker_main(index: usize) {
    WORKER_INDEX.with(|w| w.set(index));
    // Seeded by worker index: reproducible probe order per worker, no shared state.
    STEAL_RNG.set(index as u64 + 1);
    let reg = registry();
    loop {
        let generation = *reg.generation.lock().unwrap();
        if let Some(job) = find_work(index) {
            execute_job(index, job);
            continue;
        }
        // Scan-then-check parking: if a push happened after the scan started, the
        // generation moved and we rescan instead of sleeping through the wakeup.
        let guard = reg.generation.lock().unwrap();
        if *guard == generation {
            reg.workers[index].parks.fetch_add(1, Ordering::Relaxed);
            drop(reg.ready.wait(guard).unwrap());
        }
    }
}

/// Blocks the driving thread of a finished claim loop until every token of its
/// drive has exited: cancels the tokens still sitting in this thread's queue
/// (they are no-ops — the claim counter is exhausted), then parks on the latch for
/// the ones some thief is currently executing. See the module docs for why the
/// parent does not steal unrelated work here.
fn wait_for_drive(latch: &CountLatch, data: *const ()) {
    latch.count_down_n(cancel_pending(data));
    latch.wait();
}

// ---------------------------------------------------------------------------
// join
// ---------------------------------------------------------------------------

/// Shared state of one `join`: the pending closure and its result slot. Lives on the
/// driving thread's stack under the same latch protocol as a `Batch`.
struct JoinTask<B, RB> {
    func: Mutex<Option<B>>,
    result: Mutex<Option<std::thread::Result<RB>>>,
}

impl<B, RB> JoinTask<B, RB>
where
    B: FnOnce() -> RB,
{
    /// Claims the closure if it is still pending and runs it, catching panics.
    /// Idempotent: whoever takes the closure first (a thief or the caller after
    /// finishing its own half) runs it; the other side sees `None` and does nothing.
    fn claim_and_run(&self) {
        let func = self.func.lock().unwrap().take();
        if let Some(func) = func {
            let result = catch_unwind(AssertUnwindSafe(func));
            *self.result.lock().unwrap() = Some(result);
        }
    }
}

unsafe fn join_token_entry<B, RB>(data: *const ())
where
    B: FnOnce() -> RB,
{
    // SAFETY: `data` was created from a `&JoinTask<B, RB>` in `join` and is alive for
    // the duration of this call (latch protocol, see module docs).
    let task = unsafe { &*(data as *const JoinTask<B, RB>) };
    task.claim_and_run();
}

/// Runs both closures, potentially in parallel, and returns both results.
///
/// Sequential only when the effective parallelism is 1 (`RAYON_NUM_THREADS=1` or an
/// `install(1)` scope): `a` then `b` on the current thread, no pool involvement, no
/// allocation. Otherwise `b` becomes one claimable job — pushed onto the calling
/// worker's own deque when the caller is a pool worker (where an idle worker can
/// steal it: this is how nested joins fan out), or onto the injector otherwise —
/// the caller runs `a` inline, then claims `b` back itself if no thief got there
/// first, so `join` never idles the caller while `b` waits in a queue. Panics are
/// re-raised on the caller, `a`'s first (piece-index order), even when a thief's
/// `b` panic landed chronologically earlier.
pub(crate) fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let threads = current_parallelism();
    if threads <= 1 {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    }

    let task = JoinTask {
        func: Mutex::new(Some(oper_b)),
        result: Mutex::new(None),
    };
    let latch = CountLatch::new(1);
    ensure_workers(1);
    push_job(Job {
        data: &task as *const JoinTask<B, RB> as *const (),
        exec: join_token_entry::<B, RB>,
        latch: Arc::clone(&latch),
        context: threads,
    });

    let result_a = catch_unwind(AssertUnwindSafe(oper_a));
    // Claim `b` back if no thief took it; then cancel the token if it is still
    // queued and wait out a thief that is mid-execution.
    task.claim_and_run();
    wait_for_drive(&latch, &task as *const JoinTask<B, RB> as *const ());

    let result_b = task
        .result
        .lock()
        .unwrap()
        .take()
        .expect("join closure never executed");
    match (result_a, result_b) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) => resume_unwind(payload),
        (_, Err(payload)) => resume_unwind(payload),
    }
}

// ---------------------------------------------------------------------------
// Batch execution
// ---------------------------------------------------------------------------

/// One drive's shared state, allocated on the driving thread's stack.
struct Batch<'f, P, R, F> {
    pieces: Vec<Mutex<Option<P>>>,
    results: Vec<Mutex<Option<std::thread::Result<R>>>>,
    next: AtomicUsize,
    process: &'f F,
}

impl<P, R, F> Batch<'_, P, R, F>
where
    F: Fn(P) -> R + Sync,
{
    /// Claims and runs pieces until none remain, catching per-piece panics.
    fn claim_loop(&self) {
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.pieces.len() {
                break;
            }
            let piece = self.pieces[index]
                .lock()
                .unwrap()
                .take()
                .expect("piece claimed twice");
            let result = catch_unwind(AssertUnwindSafe(|| (self.process)(piece)));
            *self.results[index].lock().unwrap() = Some(result);
        }
    }
}

unsafe fn token_entry<P, R, F>(data: *const ())
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    // SAFETY: `data` was created from a `&Batch<P, R, F>` in `execute_pieces` and is
    // alive for the duration of this call (latch protocol, see module docs).
    let batch = unsafe { &*(data as *const Batch<'_, P, R, F>) };
    batch.claim_loop();
}

/// Splits `producer` and runs the pieces across the pool (the calling thread
/// participates), returning per-piece results in piece-index order. Panics from
/// pieces are re-raised here, earliest piece first.
pub(crate) fn run_parallel<P, R, F>(producer: P, process: &F) -> Vec<R>
where
    P: Producer,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let threads = current_parallelism();
    let len = producer.len();
    let pieces = split_into(producer, piece_count(len, threads));
    execute_pieces(pieces, threads, process)
}

fn execute_pieces<P, R, F>(pieces: Vec<P>, threads: usize, process: &F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let piece_total = pieces.len();
    let batch = Batch {
        pieces: pieces.into_iter().map(|p| Mutex::new(Some(p))).collect(),
        results: (0..piece_total).map(|_| Mutex::new(None)).collect(),
        next: AtomicUsize::new(0),
        process,
    };

    // One claim token per extra executor; the driving thread is the remaining one.
    let tokens = threads.min(piece_total).saturating_sub(1);
    let latch = CountLatch::new(tokens);
    if tokens > 0 {
        ensure_workers(tokens);
        let data = &batch as *const Batch<'_, P, R, F> as *const ();
        push_jobs((0..tokens).map(|_| Job {
            data,
            exec: token_entry::<P, R, F>,
            latch: Arc::clone(&latch),
            context: threads,
        }));
    }

    // The driver claims pieces too; nested drives inside a piece see `threads` via
    // the thread's own install override or job context, unchanged by this loop.
    batch.claim_loop();
    if tokens > 0 {
        wait_for_drive(&latch, &batch as *const Batch<'_, P, R, F> as *const ());
    }

    let mut out = Vec::with_capacity(piece_total);
    let mut first_panic = None;
    for slot in batch.results {
        match slot.into_inner().unwrap().expect("piece never executed") {
            Ok(result) => out.push(result),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    out
}
