//! The real-threads execution backend: one OS thread per vproc.
//!
//! Where the simulated [`Machine`](crate::Machine) *models* the paper's
//! concurrency, this backend *performs* it:
//!
//! * each vproc is an OS thread owning a
//!   [`WorkerHeap`](mgc_heap::WorkerHeap) — nursery allocation and
//!   minor/major collections touch only thread-owned state, so the local-GC
//!   path takes **zero locks**, exactly the §3.3 claim. A minor collection
//!   visits only the roots registered since the last local collection
//!   (each `RootSet` carries a nursery-free watermark), so its cost
//!   follows what survives the nursery, not how many handles the task holds;
//! * the global heap is shared: atomic words, a lock-free Treiber-stack
//!   chunk pool (chunk lease/return — the §3.3 synchronisation point — is a
//!   handful of CAS operations), and a lock-free write-once chunk directory;
//! * a vproc is told to stop — a steal request, a pending global collection
//!   — the way the paper's vprocs are: by **zeroing its allocation limit
//!   word**, so the compare every allocation makes anyway is the safe point
//!   and nothing polls a flag (`WorkerState::alloc` states the protocol);
//! * each vproc's deque is **split**: the worker pushes and pops spawned
//!   tasks on a *private* `VecDeque` it owns outright (no lock, no atomics,
//!   and — crucially — **no promotion**: a spawned task's heap roots stay in
//!   the spawner's local heap). A thief posts a
//!   [`StealRequest`](crate::vproc::StealRequest) to the victim's
//!   [`StealMailbox`](crate::vproc::StealMailbox) and zeroes the victim's
//!   limit word; the victim services requests at its next safe point (an
//!   allocation, `truncate_roots`, a task boundary) by promoting **only the
//!   stolen task's roots** and handing the
//!   task over. Promotion volume is therefore proportional to *steals*, not
//!   to *spawns* — the paper's lazy promotion-on-steal, §3.1. Data that
//!   lands in machine-global structures (fork/join continuations, delivered
//!   results, channel messages, proxy targets) is still promoted by its
//!   owner at publication time, because any thread may read those tables;
//! * global collections are an **incremental stop-the-world ramp-down**: a
//!   pending flag, per-vproc acknowledgement at a safe point (declining
//!   outstanding steal requests on the way), local collections rooted at
//!   the private deque's tasks, leader-led from-space flip, parallel
//!   CAS-evacuation of the worker-owned roots (private tasks included) plus
//!   a scan of the surviving young local data, and a Cheney drain over a
//!   shared [`AtomicUsize`] work index
//!   (`mgc_core::{flip_to_from_space, scan_pass_budgeted,
//!   release_from_space}`). Without a pause budget the drain runs to
//!   completion inside one pause — the classic stop-the-world shape. With
//!   [`GcConfig::pause_budget_us`](mgc_core::GcConfig) set, each pause runs
//!   at most one deadline-capped scan pass and then **releases the
//!   mutators**: workers return to the scheduler, run real work, and rejoin
//!   the collection at their next safe point (re-evacuating their roots and
//!   rescanning their young data first, so pointers fetched from not-yet-
//!   scanned to-space objects between increments can never survive into a
//!   released from-space chunk). Every increment is recorded as its own
//!   pause in [`PauseStats`](mgc_core::PauseStats), so p50/p99/max pause
//!   numbers reflect what a mutator actually experienced.
//!
//! Unlike the eager promote-at-publication design this backend used before,
//! a worker reaches the barrier still holding live *local* data — the
//! unstolen private tasks' graphs. Those objects never move during a global
//! collection; their fields are scanned as an extra root set
//! ([`mgc_core::scan_young_fields`]).
//!
//! The backend is **NUMA-aware end to end**: each worker is tagged with the
//! node of the core [`Topology::spread_cores`](mgc_numa::Topology) assigns
//! it, and every placement and steal decision honours that tag; the shared
//! global heap is partitioned into per-node address bands with per-node
//! chunk pools, so `addr → node` is arithmetic; promotion chunks are leased per
//! the configured [`PlacementPolicy`] — under the default `NodeLocal` a
//! steal victim promotes the stolen graph into a chunk on the *thief's*
//! node, where it is about to be traversed; and thieves probe same-node
//! victims before remote ones, with a starvation escape hatch that falls
//! back to plain rotation after repeated failures. Every promotion is
//! attributed local vs remote and every steal same-node vs cross-node in
//! [`VprocRunStats`].
//!
//! A thief blocked on a steal request never hangs: the wait is sliced, and
//! every slice re-checks machine poison (a worker panicked), the
//! pending-collection flag, and program termination.
//!
//! Time on this backend is the wall clock: [`RunReport::elapsed_ns`] (and
//! [`RunReport::wall_clock_ns`]) report measured nanoseconds, which is what
//! the `bench-baseline` CI job tracks for perf regressions.

use crate::channel::{ChannelId, ChannelState, ChannelStats, Proxy, ProxyId};
use crate::ctx::TaskCtx;
use crate::executor::{Backend, Executor};
use crate::machine::MachineConfig;
use crate::stats::{RunReport, VprocRunStats};
use crate::task::{Delivery, JoinCell, JoinId, RootSet, Task, TaskResult, TaskSpec};
use crate::vproc::{StealMailbox, StealRequest};
use mgc_core::{
    evacuate_roots, flip_to_from_space, forward_parallel, release_from_space, scan_pass_budgeted,
    scan_young_fields, Collector, GcOutcome, GcStats, ParallelGcState,
};
use mgc_heap::{
    Addr, Descriptor, DescriptorId, DescriptorTable, GcHeap, LocalHeapStats, LocalRegion, Resolved,
    SharedGlobalHeap, ThreadedLayout, Word, WorkerHeap,
};
use mgc_numa::{NodeId, PlacementPolicy, TrafficStats};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long an idle worker sleeps before re-polling the deques; bounds the
/// latency of waking into a pending global collection even if a wakeup is
/// missed.
const IDLE_WAIT: Duration = Duration::from_micros(200);

/// A generation-counting rendezvous for the stop-the-world phases. The last
/// worker to arrive runs the leader action *while the others are still
/// blocked* — a true quiescent section — then releases everyone into the
/// next phase.
#[derive(Debug)]
struct PhaseBarrier {
    workers: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
    /// Set when any worker panics: waiters abort instead of blocking for a
    /// participant that will never arrive.
    poisoned: AtomicBool,
}

/// Panic payload of workers aborted because *another* worker panicked; the
/// machine filters these out so the original panic is the one that
/// propagates from [`ThreadedMachine::run`].
struct WorkerAborted;

#[derive(Debug, Default)]
struct BarrierState {
    arrived: usize,
    generation: u64,
}

impl PhaseBarrier {
    fn new(workers: usize) -> Self {
        PhaseBarrier {
            workers,
            state: Mutex::new(BarrierState::default()),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Marks the barrier dead and wakes every waiter so they can abort.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        let _guard = self.state.lock();
        self.cv.notify_all();
    }

    /// Blocks until all workers arrive; the last one runs `leader_action`
    /// before anyone is released. Returns `true` on the leader.
    ///
    /// # Panics
    ///
    /// Panics (with the [`WorkerAborted`] sentinel) if another worker
    /// panicked — the rendezvous can never complete, so blocking would
    /// deadlock the machine.
    fn wait_with(&self, leader_action: impl FnOnce()) -> bool {
        let mut state = self.state.lock().expect("barrier mutex poisoned");
        if self.is_poisoned() {
            std::panic::panic_any(WorkerAborted);
        }
        state.arrived += 1;
        if state.arrived == self.workers {
            leader_action();
            state.arrived = 0;
            state.generation = state.generation.wrapping_add(1);
            self.cv.notify_all();
            true
        } else {
            let generation = state.generation;
            while state.generation == generation {
                state = self.cv.wait(state).expect("barrier mutex poisoned");
                if self.is_poisoned() {
                    std::panic::panic_any(WorkerAborted);
                }
            }
            false
        }
    }
}

/// Coordination state of the stop-the-world global collection.
#[derive(Debug)]
struct GcControl {
    /// The §3.4 pending flag: set by whichever worker trips the trigger,
    /// which then zeroes every limit word; every worker acknowledges it at
    /// its next safe point by entering the barrier.
    pending: AtomicBool,
    barrier: PhaseBarrier,
    state: ParallelGcState,
    from_space: Mutex<Vec<usize>>,
    progress: AtomicBool,
    done: AtomicBool,
    /// True between the from-space flip and the final release when the
    /// collection is still in its scan phase. With a pause budget, workers
    /// yield to the scheduler between budgeted increments while this is set
    /// and re-enter through the scan path (skipping the flip) at their next
    /// safe point. Only ever written by a barrier leader while every worker
    /// is stopped, so all workers always agree on the entry path.
    in_scan_phase: AtomicBool,
    /// Copied bytes across all collections of the run.
    total_copied_bytes: AtomicU64,
    /// Number of global collections performed.
    collections: AtomicU64,
}

/// One vproc's allocation limit word: the nursery end while the vproc is
/// armed, 0 once a thief or a collection has signalled it. Padded to its own
/// pair of cache lines (the adjacent-line prefetcher pulls lines in twos),
/// so a signal to one vproc never disturbs another's allocation loads.
#[derive(Debug)]
#[repr(align(128))]
struct LimitWord(AtomicUsize);

/// State shared by every worker thread.
pub(crate) struct Shared {
    num_vprocs: usize,
    /// The NUMA node each vproc is bound to (tagged from the topology's
    /// sparse core assignment). Victims use the thief's entry to place
    /// stolen graphs; thieves use it to order victims locality-first.
    vproc_nodes: Vec<NodeId>,
    /// The promotion-chunk placement policy of this run.
    placement: PlacementPolicy,
    /// Per-vproc steal mailboxes: the published end of each worker's split
    /// deque (the private end lives inside [`WorkerState`]).
    pub(crate) mailboxes: Vec<StealMailbox>,
    /// Per-vproc allocation limit words — how a vproc is told to stop at
    /// its next safe point (see [`WorkerState::alloc`]).
    limits: Vec<LimitWord>,
    /// Ablation knob (mirrors the pre-lazy-promotion behaviour): when set,
    /// every pushed task's roots are promoted at publication time.
    eager_publication: bool,
    /// Tasks queued or running anywhere in the machine. Zero means the
    /// program is finished: only a running task can create new tasks.
    pending_tasks: AtomicUsize,
    idle_lock: Mutex<()>,
    work_cv: Condvar,
    /// Number of workers currently blocked in the idle wait. The hot
    /// notification paths (every task push) skip the idle lock entirely
    /// while this is zero — which is the common case on a busy machine.
    /// A worker that races past the check before registering here sleeps at
    /// most [`IDLE_WAIT`] before re-polling, the same bound that already
    /// covers missed wakeups.
    idlers: AtomicUsize,
    pub(crate) joins: Mutex<Vec<Option<JoinCell>>>,
    pub(crate) channels: Mutex<Vec<ChannelState>>,
    pub(crate) channel_stats: Mutex<ChannelStats>,
    pub(crate) proxies: Mutex<Vec<Proxy>>,
    pub(crate) root_result: Mutex<Option<(Word, bool)>>,
    global: Arc<SharedGlobalHeap>,
    gc: GcControl,
    /// The machine's time origin: every `TaskCtx::now_ns` reading on this
    /// backend is wall-clock nanoseconds since this instant, so arrival
    /// deadlines and latency samples from different workers share one axis.
    epoch: Instant,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("num_vprocs", &self.num_vprocs)
            .field("pending_tasks", &self.pending_tasks.load(Ordering::Relaxed))
            .finish()
    }
}

impl Shared {
    /// Wakes idle workers, skipping the lock + broadcast when nobody is
    /// asleep. This is the hot path: a busy worker pushing tasks used to
    /// serialise every push through the global idle lock; now a push on a
    /// saturated machine costs one atomic load.
    fn notify_workers(&self) {
        if self.idlers.load(Ordering::SeqCst) == 0 {
            return;
        }
        self.notify_workers_always();
    }

    /// Unconditional wakeup, for the rare latency-critical events (pending
    /// global collection, shutdown, poison) where a missed [`IDLE_WAIT`] of
    /// latency is not worth tolerating.
    fn notify_workers_always(&self) {
        let _guard = self.idle_lock.lock().expect("idle lock poisoned");
        self.work_cv.notify_all();
    }

    /// Signals `vproc`: its next allocation or safe-point poll takes the
    /// slow path. Store the request (mailbox post, `pending`) first.
    fn signal(&self, vproc: usize) {
        self.limits[vproc].0.store(0, Ordering::SeqCst);
    }

    /// Marks the machine dead after a worker panic: unblocks the barrier
    /// and the idle waiters so every thread winds down promptly.
    fn poison(&self) {
        self.gc.barrier.poison();
        self.notify_workers_always();
    }
}

/// What one worker thread hands back when it finishes.
struct WorkerOutcome {
    run: VprocRunStats,
    gc: GcStats,
    local: LocalHeapStats,
}

/// Why a worker promotes an object graph to the global heap — threaded
/// through to the [`VprocRunStats`] counters so the lazy-promotion win is
/// measurable per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PromoteWhy {
    /// Work was actually stolen: the victim promotes the stolen task's
    /// roots at handoff (the paper's lazy promotion, §3.1).
    Steal,
    /// Data became reachable from a machine-global structure: continuation
    /// roots, delivered results, channel messages, proxy targets — or, in
    /// the eager-publication ablation, a deque push.
    Publish,
}

/// A worker thread's complete state: its heap view, its collector, the
/// private end of its split deque, and the shared machine. [`TaskCtx`]
/// borrows this during task execution.
pub(crate) struct WorkerState {
    pub(crate) vproc: usize,
    pub(crate) heap: WorkerHeap,
    pub(crate) collector: Collector,
    pub(crate) shared: Arc<Shared>,
    pub(crate) stats: VprocRunStats,
    /// The private end of this worker's deque: owner push/pop take no lock
    /// and **no promotion** — a queued task's roots stay in this worker's
    /// local heap until the task is stolen (or run here). Thieves never see
    /// this queue; they go through the steal mailbox.
    private: VecDeque<Task>,
    /// Scratch buffer the local root sets are gathered into for a
    /// collection; kept here so a collection allocates nothing for it.
    gather: Vec<Addr>,
    /// This worker's NUMA node (== its heap's home node).
    node: NodeId,
    /// The node of the *consumer* of the next promotion: the thief's node
    /// while servicing a steal handoff, this worker's own node otherwise.
    /// Distinct from the heap's `promotion_target` (where the chunk is
    /// leased from, a placement-policy decision): the local/remote split is
    /// always judged against the consumer, whatever the policy chose.
    promotion_consumer: NodeId,
    /// Victims on this worker's node, then victims on other nodes — the
    /// locality-first probe order.
    same_node_victims: Vec<usize>,
    remote_victims: Vec<usize>,
    /// Rotation offset so repeated steal attempts spread over victims
    /// instead of re-probing from the same start each time.
    steal_cursor: usize,
    /// Consecutive `try_steal` calls that came home empty; past
    /// [`STEAL_LOCALITY_PATIENCE`] the thief ignores locality ordering (the
    /// starvation escape hatch).
    failed_steal_attempts: u32,
}

/// Consecutive empty-handed steal attempts before a thief abandons
/// locality-first victim ordering and probes everyone in plain rotation.
const STEAL_LOCALITY_PATIENCE: u32 = 4;

impl std::fmt::Debug for WorkerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerState")
            .field("vproc", &self.vproc)
            .finish()
    }
}

impl WorkerState {
    pub(crate) fn num_vprocs(&self) -> usize {
        self.shared.num_vprocs
    }

    /// Wall-clock nanoseconds since the machine's epoch — the shared time
    /// axis for arrival deadlines and latency samples.
    pub(crate) fn now_ns(&self) -> f64 {
        self.shared.epoch.elapsed().as_nanos() as f64
    }

    /// Spins until the machine clock reaches `target_ns`. Every poll is a
    /// safe point ([`WorkerState::poll`]), so an open-loop load generator
    /// waiting out an arrival gap never stalls the rest of the machine.
    /// Yields the OS thread between polls; returns immediately when the
    /// target is already past.
    pub(crate) fn wait_until_ns(&mut self, target_ns: f64, roots: &mut RootSet) {
        while self.now_ns() < target_ns {
            self.poll(roots);
            std::thread::yield_now();
        }
    }

    // ------------------------------------------------------------------
    // Allocation and the safe point (the lock-free path)
    // ------------------------------------------------------------------

    /// This vproc's allocation limit word, as the fast path reads it.
    #[inline]
    fn limit(&self) -> usize {
        self.shared.limits[self.vproc].0.load(Ordering::Relaxed)
    }

    /// Allocates one object of `payload_words` words: `bump` is called with
    /// the vproc's allocation limit and returns the object if it fits below
    /// it. That compare is both the nursery-full test and the safe point.
    ///
    /// **The limit-word protocol** (the paper's: a vproc is signalled by
    /// zeroing its allocation limit, so the nursery-overflow test the
    /// mutator makes anyway is the safe point, §3.4). Each vproc's word in
    /// [`Shared`] holds the nursery end while the vproc is armed and 0 once
    /// it has been signalled. A thief zeroes its victim's word after posting
    /// the steal request; whoever raises the global-collection `pending`
    /// flag zeroes every word after raising it. Allocation, `truncate_roots`,
    /// `wait_until_ns` and the scheduler loop read the word and — only when
    /// an object does not fit, or the word is 0 — take the one slow path,
    /// [`WorkerState::slow_path`], which re-arms the word *before* it looks
    /// at the mailbox and `pending`. No signal is lost: the signaller's
    /// request store precedes its zeroing, the owner's re-arm precedes its
    /// flag loads, and all four are `SeqCst`, so if the zero landed before
    /// the re-arm the flag loads see the request, and if it landed after,
    /// the word stays 0 and the next safe point comes back here (Dekker's
    /// handshake). At worst a signal costs one slow path that finds nothing.
    ///
    /// The retry lives in [`WorkerState::alloc_after_slow_path`], so `bump`
    /// has one call site on the fast path and inlines into the caller.
    #[inline(always)]
    pub(crate) fn alloc(
        &mut self,
        roots: &mut RootSet,
        payload_words: usize,
        mut bump: impl FnMut(&mut Self, &mut RootSet, usize) -> Option<Addr>,
    ) -> Addr {
        match bump(self, roots, self.limit()) {
            Some(addr) => addr,
            None => self.alloc_after_slow_path(roots, payload_words, bump),
        }
    }

    /// [`WorkerState::alloc`] once the fast path's bump failed: take the slow
    /// path, then bump under the whole nursery.
    #[cold]
    #[inline(never)]
    fn alloc_after_slow_path(
        &mut self,
        roots: &mut RootSet,
        payload_words: usize,
        mut bump: impl FnMut(&mut Self, &mut RootSet, usize) -> Option<Addr>,
    ) -> Addr {
        self.slow_path(roots, payload_words + 1);
        // The slow path made room; the word may be 0 again (a budgeted
        // collection still running), which is for the *next* safe point.
        let end = self.heap.nursery_end();
        bump(self, roots, end).expect("the slow path leaves room in the nursery")
    }

    /// A safe point that allocates nothing: one relaxed load of the limit
    /// word, and the slow path only once the vproc has been signalled.
    #[inline]
    pub(crate) fn poll(&mut self, roots: &mut RootSet) {
        if self.limit() == 0 {
            self.slow_path(roots, 0);
        }
    }

    /// The one slow path behind every safe point: re-arm the limit word,
    /// answer queued steal requests, join a pending global collection
    /// rooted at the running task (`roots`), and — when the nursery cannot
    /// hold `needed_words` — run a local collection rooted at that task
    /// **and** the private deque's tasks, whose graphs live in this local
    /// heap until stolen. A budgeted collection that is still pending after
    /// this vproc's increment zeroes the word again, so the next safe point
    /// rejoins it.
    #[cold]
    fn slow_path(&mut self, roots: &mut RootSet, needed_words: usize) {
        self.stats.alloc_slow_paths += 1;
        self.shared.limits[self.vproc]
            .0
            .store(self.heap.nursery_end(), Ordering::SeqCst);
        if self.shared.mailboxes[self.vproc].has_requests() {
            self.service_steal_requests(false);
        }
        if self.shared.gc.pending.load(Ordering::SeqCst) {
            self.service_steal_requests(true);
            self.participate_global_gc(roots);
            if self.shared.gc.pending.load(Ordering::SeqCst) {
                self.shared.signal(self.vproc);
            }
        }
        if self.heap.local(self.vproc).nursery_free_words() < needed_words {
            self.local_gc(roots);
            assert!(
                self.heap.local(self.vproc).nursery_free_words() >= needed_words,
                "an object of {} payload words does not fit in the nursery even after a \
                 collection — build large arrays as rope leaves",
                needed_words - 1
            );
        }
    }

    /// Every local root set, the running task's first.
    fn local_root_sets<'a>(
        running: &'a mut RootSet,
        private: &'a mut VecDeque<Task>,
    ) -> impl Iterator<Item = &'a mut RootSet> {
        std::iter::once(running).chain(private.iter_mut().map(|task| &mut task.roots))
    }

    /// Gathers `part` of each of this worker's local root sets — the running
    /// task's and every private task's — into the reusable scratch buffer,
    /// runs `collect` over it, and scatters the rewritten roots back.
    ///
    /// `part` is [`RootSet::dirty_mut`] for a minor collection (the slots
    /// below a set's watermark cannot point into the nursery, and a minor
    /// collection moves nothing else) and [`RootSet::slots_mut`] for
    /// anything that runs a major collection, which slides the young data
    /// and therefore must see every root.
    fn with_local_roots<R>(
        &mut self,
        running: &mut RootSet,
        part: fn(&mut RootSet) -> &mut [Addr],
        collect: impl FnOnce(&mut Collector, &mut WorkerHeap, usize, &mut [Addr]) -> R,
    ) -> R {
        if cfg!(debug_assertions) || self.collector.config().verify_after_gc {
            assert!(
                self.watermarks_hold(running),
                "heap invariant violated: a root below the watermark points into vproc {}'s \
                 nursery",
                self.vproc
            );
        }
        let mut roots = std::mem::take(&mut self.gather);
        roots.clear();
        for set in Self::local_root_sets(running, &mut self.private) {
            roots.extend_from_slice(part(set));
        }
        let result = collect(&mut self.collector, &mut self.heap, self.vproc, &mut roots);
        let mut rewritten = roots.as_slice();
        for set in Self::local_root_sets(running, &mut self.private) {
            let slots = part(set);
            let (head, rest) = rewritten.split_at(slots.len());
            slots.copy_from_slice(head);
            rewritten = rest;
        }
        debug_assert!(rewritten.is_empty());
        self.gather = roots;
        result
    }

    /// The watermark invariant, checked before every collection in debug
    /// builds and under `GcConfig::verify_after_gc`: no slot below a local
    /// root set's watermark points into this vproc's nursery (pure address
    /// arithmetic, no heap reads).
    fn watermarks_hold(&self, running: &RootSet) -> bool {
        let local = self.heap.local(self.vproc);
        std::iter::once(running)
            .chain(self.private.iter().map(|task| &task.roots))
            .flat_map(RootSet::clean_slots)
            .all(|&addr| {
                !local.contains(addr)
                    || !matches!(
                        local.region_of(addr),
                        LocalRegion::Nursery | LocalRegion::NurseryFree
                    )
            })
    }

    /// The collection both local-collection sites run: a minor collection
    /// over the roots registered since the last one, then — when the
    /// triggers ask, or `force_major` (the global ramp-down) — a major
    /// collection over every root; afterwards the nursery is empty and
    /// every watermark is raised. The major phase promotes old data for
    /// this worker's own benefit; its bytes enter the local/remote ledger
    /// like any other promotion.
    fn collect_local(&mut self, roots: &mut RootSet, force_major: bool) -> GcOutcome {
        let mut outcome = self.with_local_roots(
            roots,
            RootSet::dirty_mut,
            |collector, heap, vproc, dirty| collector.minor(heap, vproc, dirty),
        );
        if force_major || self.collector.major_due(&outcome) {
            outcome.absorb_major(self.with_local_roots(
                roots,
                RootSet::slots_mut,
                |collector, heap, vproc, all| collector.major(heap, vproc, all),
            ));
        }
        // The nursery is empty: no root of any local set points into it.
        Self::local_root_sets(roots, &mut self.private).for_each(RootSet::mark_clean);
        let (local, remote) = outcome.promoted_split(self.promotion_consumer);
        self.stats.promoted_bytes_local += local;
        self.stats.promoted_bytes_remote += remote;
        outcome
    }

    fn local_gc(&mut self, roots: &mut RootSet) {
        let start = Instant::now();
        let outcome = self.collect_local(roots, false);
        // The mutator was stopped once for the whole local collection, so it
        // is one recorded pause — classified by the heaviest phase that ran.
        let pause = start.elapsed().as_nanos() as f64;
        self.stats.pauses.record(pause);
        let stats = self.collector.vproc_stats_mut(self.vproc);
        if outcome.triggered_major {
            stats.major_pauses.record(pause);
        } else {
            stats.minor_pauses.record(pause);
        }
        if outcome.needs_global {
            self.request_global();
        }
    }

    /// Raises `pending` and signals every vproc, this one included (the
    /// limit-word protocol, [`WorkerState::alloc`]).
    fn request_global(&self) {
        if !self.shared.gc.pending.swap(true, Ordering::SeqCst) {
            (0..self.shared.num_vprocs).for_each(|vproc| self.shared.signal(vproc));
            self.shared.notify_workers_always();
        }
    }

    // ------------------------------------------------------------------
    // Promotion (on steal, and at publication to global structures)
    // ------------------------------------------------------------------

    /// Resolves `addr` to the current copy of its object and locates it
    /// (`global` is this machine's global heap), so the caller reads the
    /// object without classifying the address again.
    /// [`WorkerHeap::resolve`] states the read rule; this supplies its one
    /// input, whether a budgeted global collection is between increments.
    #[inline(always)]
    pub(crate) fn locate<'g>(&self, global: &'g SharedGlobalHeap, addr: Addr) -> Resolved<'g> {
        self.heap.resolve(global, addr, self.global_may_forward())
    }

    /// The read rule's input: whether a budgeted global collection is
    /// between increments, so a global header may hold a forwarding word.
    /// It changes only while every worker is stopped inside a barrier.
    #[inline(always)]
    pub(crate) fn global_may_forward(&self) -> bool {
        self.shared.gc.in_scan_phase.load(Ordering::Acquire)
    }

    /// [`WorkerState::locate`] for callers that only want the address; null
    /// stays null.
    pub(crate) fn resolve_addr(&self, addr: Addr) -> Addr {
        if addr.is_null() {
            return addr;
        }
        self.locate(&self.shared.global, addr).addr
    }

    /// Promotes `addr` to the global heap if it still lives in this worker's
    /// local heap. Every pointer that escapes the worker goes through here:
    /// stolen tasks' roots at handoff (`PromoteWhy::Steal`), and data
    /// published to machine-global structures — continuation roots, channel
    /// messages, proxy targets, delivered results (`PromoteWhy::Publish`).
    /// This is what keeps other workers out of this worker's local heap
    /// entirely.
    pub(crate) fn promote_shared(&mut self, addr: Addr, why: PromoteWhy) -> Addr {
        let addr = self.resolve_addr(addr);
        if addr.is_null() || !self.heap.is_local(addr) {
            return addr;
        }
        let (new, outcome) = self.collector.promote(&mut self.heap, self.vproc, addr);
        // Local-vs-remote is judged against the *consumer's* node — the
        // thief's node for steal promotions, this worker's own node
        // otherwise — independent of where the placement policy leased the
        // chunk (under `FirstTouch`/`Interleave` the two legitimately
        // differ, and that difference is exactly the remote traffic).
        let (local, remote) = outcome.promoted_split(self.promotion_consumer);
        self.stats.promoted_bytes_local += local;
        self.stats.promoted_bytes_remote += remote;
        self.stats.lazy_promotions += 1;
        match why {
            PromoteWhy::Steal => {
                self.stats.promotions_at_steal += 1;
                self.stats.promoted_bytes_at_steal += outcome.promoted_bytes;
            }
            PromoteWhy::Publish => {
                self.stats.promotions_at_publish += 1;
                self.stats.promoted_bytes_at_publish += outcome.promoted_bytes;
            }
        }
        if outcome.needs_global {
            self.request_global();
        }
        new
    }

    /// Promotes every root in a task or continuation about to become visible
    /// to other workers.
    pub(crate) fn publish_roots(&mut self, roots: &mut [Addr], why: PromoteWhy) {
        for root in roots.iter_mut() {
            *root = self.promote_shared(*root, why);
        }
    }

    // ------------------------------------------------------------------
    // Task plumbing
    // ------------------------------------------------------------------

    /// Pushes a task on this worker's **private** deque. Under lazy
    /// promotion (the default) the task's roots stay in this worker's local
    /// heap — promotion happens only if the task is later stolen. The
    /// eager-publication ablation promotes here instead, which is what the
    /// lazy-promotion property test uses as the volume upper bound.
    pub(crate) fn push_task(&mut self, mut task: Task) {
        if self.shared.eager_publication {
            let mut roots = std::mem::take(&mut task.roots);
            self.publish_roots(roots.slots_mut(), PromoteWhy::Publish);
            task.roots = roots;
        }
        self.shared.pending_tasks.fetch_add(1, Ordering::AcqRel);
        self.private.push_back(task);
        self.publish_work_hint();
        self.shared.notify_workers();
    }

    /// Publishes the private-deque length so thieves can pick a victim.
    fn publish_work_hint(&self) {
        self.shared.mailboxes[self.vproc].publish_work_hint(self.private.len());
    }

    /// Registers a join cell (its continuation's roots must already be
    /// promoted).
    pub(crate) fn new_join(&mut self, cell: JoinCell) -> JoinId {
        let mut joins = self.shared.joins.lock().expect("joins poisoned");
        for (i, slot) in joins.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(cell);
                return JoinId(i);
            }
        }
        joins.push(Some(cell));
        JoinId(joins.len() - 1)
    }

    fn deliver(&mut self, join: JoinId, slot: usize, word: Word, is_ptr: bool) {
        let finished = {
            let mut joins = self.shared.joins.lock().expect("joins poisoned");
            let cell = joins[join.0]
                .as_mut()
                .expect("join cell outlives its children");
            let s = &mut cell.slots[slot];
            s.word = word;
            s.is_ptr = is_ptr;
            s.filled = true;
            cell.remaining -= 1;
            if cell.remaining == 0 {
                joins[join.0].take()
            } else {
                None
            }
        };
        if let Some(cell) = finished {
            let mut continuation = cell.continuation.expect("continuation present");
            // Children's results follow the continuation's own inputs, in
            // child order. Pointer results were promoted by the delivering
            // worker (and the continuation's own roots by the forking
            // worker), so the continuation is safe to adopt on any vproc —
            // it lands on this worker's private deque like any other task.
            for s in &cell.slots {
                if s.is_ptr {
                    continuation.roots.push(Addr::new(s.word));
                } else {
                    continuation.values.push(s.word);
                }
            }
            self.shared.pending_tasks.fetch_add(1, Ordering::AcqRel);
            self.private.push_back(continuation);
            self.publish_work_hint();
            self.shared.notify_workers();
        }
    }

    // ------------------------------------------------------------------
    // The steal-request protocol
    // ------------------------------------------------------------------

    /// Thief side: probes victims' mailboxes **locality-first** — every
    /// victim on this worker's own node (rotated) before any remote victim —
    /// posting a steal request to the first victim whose work hint is
    /// non-zero and waiting (bounded) for the handoff. After
    /// [`STEAL_LOCALITY_PATIENCE`] consecutive empty-handed attempts the
    /// ordering is abandoned for plain rotation over everyone (the
    /// starvation escape hatch: a thief must never keep re-probing a
    /// depleted node while work idles elsewhere, nor settle into an order
    /// that systematically skips a victim).
    fn try_steal(&mut self) -> Option<Task> {
        self.steal_cursor = self.steal_cursor.wrapping_add(1);
        let same = self.same_node_victims.len();
        let remote = self.remote_victims.len();
        let total = same + remote;
        let cursor = self.steal_cursor;
        let flat = self.failed_steal_attempts >= STEAL_LOCALITY_PATIENCE;
        // Probe order without allocating: locality-first rotates within each
        // group (same-node victims first); the starvation escape hatch is
        // one flat rotation over everyone.
        let victim_at = |state: &Self, i: usize| -> usize {
            if flat {
                let j = (cursor + i) % total;
                if j < same {
                    state.same_node_victims[j]
                } else {
                    state.remote_victims[j - same]
                }
            } else if i < same {
                state.same_node_victims[(cursor + i) % same]
            } else {
                state.remote_victims[(cursor + i - same) % remote]
            }
        };
        for i in 0..total {
            let victim = victim_at(self, i);
            if self.shared.mailboxes[victim].work_hint() == 0 {
                continue;
            }
            if let Some(task) = self.request_steal(victim) {
                self.stats.steals += 1;
                if self.shared.vproc_nodes[victim] == self.node {
                    self.stats.steals_same_node += 1;
                } else {
                    self.stats.steals_cross_node += 1;
                }
                self.failed_steal_attempts = 0;
                return Some(task);
            }
        }
        self.failed_steal_attempts = self.failed_steal_attempts.saturating_add(1);
        None
    }

    /// Posts one steal request to `victim` and waits for the answer. The
    /// wait aborts (cancelling the request) when the machine is poisoned, a
    /// global collection becomes pending, the program finished, or the
    /// victim takes too long — so a thief can never hang here.
    fn request_steal(&mut self, victim: usize) -> Option<Task> {
        let request = StealRequest::new(self.vproc);
        self.shared.mailboxes[victim].post(Arc::clone(&request));
        self.shared.signal(victim);
        // The victim may be asleep in the idle wait; it services its mailbox
        // at the top of its scheduler loop once woken.
        self.shared.notify_workers();
        let shared = Arc::clone(&self.shared);
        request.wait(move || {
            shared.gc.barrier.is_poisoned()
                || shared.gc.pending.load(Ordering::Acquire)
                || shared.pending_tasks.load(Ordering::Acquire) == 0
        })
    }

    /// Victim side: answers every queued steal request at a safe point. A
    /// handoff pops the *oldest* private task (the FIFO end — the largest
    /// unit of work, as in any work-stealing deque) and promotes **only that
    /// task's roots** before filling the request; this is the one place the
    /// lazy-promotion design pays promotion cost, so the volume scales with
    /// steals rather than spawns. Requests are declined when the private
    /// deque is empty or a global collection is pending (`declining` forces
    /// that — the ramp-down ack path must not grow the global heap).
    fn service_steal_requests(&mut self, declining: bool) {
        while let Some(request) = self.shared.mailboxes[self.vproc].take_request() {
            if !request.is_pending() {
                continue; // the thief already gave up
            }
            let decline = declining
                || self.private.is_empty()
                || self.shared.gc.pending.load(Ordering::Acquire);
            if decline {
                request.decline();
                self.stats.steal_requests_declined += 1;
                continue;
            }
            let mut task = self
                .private
                .pop_front()
                .expect("non-empty checked just above; only the owner pops");
            self.publish_work_hint();
            // Where does the stolen graph go? Under `NodeLocal` placement it
            // is leased from the *thief's* node pool — the thief is about to
            // traverse it — and under `FirstTouch` from this (the victim's)
            // node, as an OS first-touch policy would back the pages the
            // victim writes. `Interleave` ignores the target.
            let thief_node = self.shared.vproc_nodes[request.thief()];
            let target = match self.shared.placement {
                PlacementPolicy::NodeLocal => thief_node,
                PlacementPolicy::Interleave | PlacementPolicy::FirstTouch => self.node,
            };
            self.heap.set_promotion_target(target);
            self.promotion_consumer = thief_node;
            let mut roots = std::mem::take(&mut task.roots);
            self.publish_roots(roots.slots_mut(), PromoteWhy::Steal);
            task.roots = roots;
            self.heap.set_promotion_target(self.node);
            self.promotion_consumer = self.node;
            match request.try_fill(task) {
                Ok(()) => self.stats.steal_requests_served += 1,
                Err(task) => {
                    // The thief cancelled between our pending-check and the
                    // fill: keep the (now promoted — harmless) task.
                    self.private.push_front(task);
                    self.publish_work_hint();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Channels and proxies
    // ------------------------------------------------------------------

    pub(crate) fn channel_send(&mut self, channel: ChannelId, message: Addr) {
        let message = self.promote_shared(message, PromoteWhy::Publish);
        let mut channels = self.shared.channels.lock().expect("channels poisoned");
        channels[channel.0].queue.push_back(message);
        channels[channel.0].sends += 1;
        drop(channels);
        self.shared
            .channel_stats
            .lock()
            .expect("stats poisoned")
            .sends += 1;
    }

    pub(crate) fn channel_recv(&mut self, channel: ChannelId) -> Option<Addr> {
        let message = {
            let mut channels = self.shared.channels.lock().expect("channels poisoned");
            let message = channels[channel.0].queue.pop_front()?;
            channels[channel.0].receives += 1;
            message
        };
        self.shared
            .channel_stats
            .lock()
            .expect("stats poisoned")
            .receives += 1;
        Some(message)
    }

    pub(crate) fn create_proxy(&mut self, target: Addr) -> ProxyId {
        // The proxy table is machine-global and any vproc may resolve the
        // proxy, so the target is promoted by its owner at creation time
        // (the threaded analogue of promote-on-remote-resolve: promotion
        // happens when the object becomes reachable from shared state).
        let target = self.promote_shared(target, PromoteWhy::Publish);
        let mut proxies = self.shared.proxies.lock().expect("proxies poisoned");
        proxies.push(Proxy {
            owner: self.vproc,
            target,
            promoted: false,
        });
        self.shared
            .channel_stats
            .lock()
            .expect("stats poisoned")
            .proxies_created += 1;
        ProxyId(proxies.len() - 1)
    }

    pub(crate) fn resolve_proxy(&mut self, proxy: ProxyId) -> Addr {
        let (target, newly_promoted) = {
            let mut proxies = self.shared.proxies.lock().expect("proxies poisoned");
            let entry = &mut proxies[proxy.0];
            let newly = self.vproc != entry.owner && !entry.promoted;
            if newly {
                entry.promoted = true;
            }
            (entry.target, newly)
        };
        if newly_promoted {
            self.shared
                .channel_stats
                .lock()
                .expect("stats poisoned")
                .proxies_promoted += 1;
        }
        target
    }

    // ------------------------------------------------------------------
    // The scheduler loop
    // ------------------------------------------------------------------

    /// Runs `task` to completion. `global` is the machine's global heap,
    /// borrowed for the worker's lifetime: the task's reads keep chunk
    /// references into it.
    fn run_task(&mut self, mut task: Task, global: &SharedGlobalHeap) {
        let start = Instant::now();
        let mut roots = std::mem::take(&mut task.roots);
        let values = std::mem::take(&mut task.values);
        let delivery = task.delivery;
        let body = task.body;
        let mut delivery_taken = false;
        let result = {
            let mut ctx = TaskCtx::new_threaded(
                self,
                global,
                &mut roots,
                &values,
                &mut delivery_taken,
                delivery,
            );
            body(&mut ctx)
        };
        self.stats.tasks_run += 1;
        if !delivery_taken {
            let (word, is_ptr) = match result {
                TaskResult::Unit => (0, false),
                TaskResult::Value(w) => (w, false),
                TaskResult::Ptr(handle) => {
                    // Results land in the machine-global join table (or the
                    // root-result slot): promote before delivering.
                    let addr =
                        self.promote_shared(roots.slots()[handle.index()], PromoteWhy::Publish);
                    (addr.raw(), true)
                }
            };
            match delivery {
                Delivery::Discard => {
                    if word != 0 || is_ptr {
                        *self.shared.root_result.lock().expect("result poisoned") =
                            Some((word, is_ptr));
                    }
                }
                Delivery::Join { join, slot } => self.deliver(join, slot, word, is_ptr),
            }
        }
        self.stats.busy_ns += start.elapsed().as_nanos() as f64;
        // Decrement last: the counter can only reach zero when no further
        // work can ever appear.
        if self.shared.pending_tasks.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Shutdown must reach even a worker that has not yet registered
            // as an idler; take the unconditional path.
            self.shared.notify_workers_always();
        }
    }

    fn worker_main(mut self) -> WorkerOutcome {
        let shared = self.shared.clone();
        let global = &*shared.global;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            self.main_loop(global);
            WorkerOutcome {
                run: self.stats,
                gc: *self.collector.vproc_stats(self.vproc),
                local: self.heap.local(self.vproc).stats(),
            }
        }));
        match result {
            Ok(outcome) => outcome,
            Err(payload) => {
                // Unblock everyone else, then let the scope see the panic.
                shared.poison();
                std::panic::resume_unwind(payload)
            }
        }
    }

    fn main_loop(&mut self, global: &SharedGlobalHeap) {
        loop {
            if self.shared.gc.barrier.is_poisoned() {
                // Another worker panicked; exit quietly so the original
                // panic is the one that reaches the caller.
                break;
            }
            // A task boundary is a safe point like any other: the same limit
            // word, the same slow path (steal requests answered, a pending
            // collection joined with no running task's roots).
            if self.limit() == 0 {
                self.slow_path(&mut RootSet::default(), 0);
                // Between increments of a budgeted collection the mutator is
                // actually released: run one task before rejoining (its safe
                // points rejoin the collection mid-task, so the other workers
                // never wait longer than one inter-safe-point interval).
                if self.shared.gc.in_scan_phase.load(Ordering::Acquire) {
                    if let Some(task) = self.private.pop_back() {
                        self.publish_work_hint();
                        self.run_task(task, global);
                    }
                    continue;
                }
            }
            if let Some(task) = self.private.pop_back() {
                self.publish_work_hint();
                self.run_task(task, global);
                continue;
            }
            if let Some(task) = self.try_steal() {
                self.run_task(task, global);
                continue;
            }
            if self.shared.pending_tasks.load(Ordering::Acquire) == 0 {
                // A collection requested by the very last task must still be
                // served by everyone before exiting (the barrier counts all
                // workers). The counter read above synchronises with the
                // final decrement, so a pending flag set during that task is
                // visible here. (The exit test reads the flag itself, not the
                // word: a stray signal must not keep a finished run alive.)
                if self.shared.gc.pending.load(Ordering::Acquire) {
                    continue;
                }
                // Decline any steal request that raced with the shutdown so
                // no thief waits out its full patience.
                self.service_steal_requests(true);
                break;
            }
            if self.limit() == 0 {
                continue; // signalled while we were stealing: serve it
            }
            // Register as an idler *after* taking the lock: a push that sees
            // the count non-zero then notifies under this same lock, so the
            // wakeup cannot slip between the registration and the wait. A
            // push that read zero just before we got here is covered by the
            // timeout, as before.
            let guard = self.shared.idle_lock.lock().expect("idle lock poisoned");
            self.shared.idlers.fetch_add(1, Ordering::SeqCst);
            let (guard, _) = self
                .shared
                .work_cv
                .wait_timeout(guard, IDLE_WAIT)
                .expect("idle lock poisoned");
            self.shared.idlers.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
        }
    }

    // ------------------------------------------------------------------
    // The stop-the-world global collection
    // ------------------------------------------------------------------

    /// Acknowledges a pending global collection at a safe point: ramp down
    /// (finish local collections, retire the current chunk), rendezvous,
    /// and join the parallel copying phase.
    ///
    /// `task_roots` is the running task's root set when the safe point is
    /// mid-task (allocation points), empty at task boundaries. Those roots
    /// join the ramp-down collections (their local referents may move) and
    /// are evacuated after the flip (they may point into from-space).
    ///
    /// Without a pause budget one call completes the whole collection — a
    /// single stop-the-world pause, the classic shape. With
    /// [`GcConfig::pause_budget_us`](mgc_core::GcConfig) set, a call runs
    /// **one increment**: ramp-down (or a catch-up local collection on
    /// re-entry), root re-evacuation and young rescan, then a single
    /// deadline-capped scan pass — after which the worker returns to its
    /// scheduler with `pending` still set and rejoins at its next safe
    /// point. Roots and young data are re-evacuated at the head of *every*
    /// increment because a mutator running between increments may load
    /// from-space pointers out of not-yet-scanned to-space objects; the
    /// from-space chunks are only released at the end of an increment whose
    /// scan pass drained the work index with no worker reporting progress
    /// or a deadline timeout — i.e. with the mutators stopped ever since
    /// the last full root evacuation, so nothing can still point into
    /// from-space. Each increment records its own pause.
    fn participate_global_gc(&mut self, task_roots: &mut RootSet) {
        let start = Instant::now();
        let shared = self.shared.clone();
        let budget = self
            .collector
            .config()
            .pause_budget_us
            .map(Duration::from_micros);
        // Stable for the whole rendezvous: the flag only flips while every
        // worker is stopped inside a barrier, so all workers agree on it.
        let resuming = shared.gc.in_scan_phase.load(Ordering::Acquire);

        // --- Ramp-down (§3.4 steps 1–3). Under lazy promotion the unstolen
        // private tasks' graphs still live in this local heap, so the
        // collections are rooted at those tasks (plus the running task, when
        // stopping mid-task); their survivors end up in the young area
        // (minor) with the old data promoted (major). A re-entering worker
        // runs the same pair as a catch-up: anything it allocated between
        // increments moves out of the nursery so the young rescan below
        // covers it.
        self.collect_local(task_roots, true);
        if !resuming {
            // Chunks promoted into between increments are to-space Current
            // chunks the scan passes already cover; only the pre-flip chunk
            // must be retired so the flip sees no Current chunk.
            self.heap.retire_current_chunk();
        }

        // --- Acknowledge and rendezvous. On the first increment the leader
        // (last arrival) turns every filled chunk into from-space; on every
        // increment it resets the per-pass scan state.
        shared.gc.barrier.wait_with(|| {
            if !shared.gc.in_scan_phase.load(Ordering::Acquire) {
                let from_space = flip_to_from_space(&shared.global);
                *shared.gc.from_space.lock().expect("gc state poisoned") = from_space;
                shared.gc.state.copied_bytes.store(0, Ordering::Release);
                shared.gc.in_scan_phase.store(true, Ordering::Release);
            }
            shared.gc.state.reset_work_index();
            shared.gc.progress.store(false, Ordering::Release);
            shared.gc.done.store(false, Ordering::Release);
        });

        // --- Evacuate the roots this worker owns, then fix up the fields of
        // the surviving young local data (it may reference from-space). The
        // running task's roots count as owned: nobody else will forward them.
        // Re-run on every increment: both may have picked up new from-space
        // references while the mutators ran.
        evacuate_roots(&mut self.heap, task_roots.slots_mut(), &shared.gc.state);
        self.evacuate_owned_roots();
        scan_young_fields(&mut self.heap, &shared.gc.state);
        shared.gc.barrier.wait_with(|| {});

        // --- Parallel Cheney drain over the shared work index. Unbudgeted:
        // repeat passes until a full pass makes no progress on any worker.
        // Budgeted: one deadline-capped pass per increment, then yield; a
        // timed-out pass counts as progress so termination is never
        // concluded from a pass that merely ran out of budget.
        let deadline = budget.map(|b| start + b);
        loop {
            let pass = scan_pass_budgeted(&mut self.heap, &shared.gc.state, deadline);
            if pass.may_have_more_work() {
                shared.gc.progress.store(true, Ordering::Release);
            }
            shared.gc.barrier.wait_with(|| {
                if !shared.gc.progress.swap(false, Ordering::AcqRel) {
                    shared.gc.done.store(true, Ordering::Release);
                }
                shared.gc.state.reset_work_index();
            });
            if shared.gc.done.load(Ordering::Acquire) {
                break;
            }
            if budget.is_some() {
                // Yield: release this mutator until its next safe point.
                // `pending` stays set; the next entry resumes the scan phase.
                self.record_global_increment(start);
                return;
            }
        }

        // --- Reclaim from-space and resume the world.
        shared.gc.barrier.wait_with(|| {
            let from_space =
                std::mem::take(&mut *shared.gc.from_space.lock().expect("gc state poisoned"));
            release_from_space(&shared.global, &from_space);
            shared.gc.collections.fetch_add(1, Ordering::Relaxed);
            shared.gc.total_copied_bytes.fetch_add(
                shared.gc.state.copied_bytes.load(Ordering::Acquire),
                Ordering::Relaxed,
            );
            shared.gc.in_scan_phase.store(false, Ordering::Release);
            // Clearing the pending flag is the "resume" signal; it must be
            // the leader's last write before releasing the barrier.
            shared.gc.pending.store(false, Ordering::Release);
        });
        shared.notify_workers();

        self.record_global_increment(start);
        self.collector
            .vproc_stats_mut(self.vproc)
            .global_collections += 1;
    }

    /// Records one global-collection increment pause that started at
    /// `start` — in the per-vproc collector stats (kind-classified) and the
    /// per-vproc run stats (the mutator-visible pause series).
    fn record_global_increment(&mut self, start: Instant) {
        let pause = start.elapsed().as_nanos() as f64;
        self.stats.pauses.record(pause);
        self.collector
            .vproc_stats_mut(self.vproc)
            .global_pauses
            .record(pause);
    }

    /// Evacuates the roots this worker is responsible for: its private
    /// deque's tasks (their local roots are left alone — local objects never
    /// move in a global collection — and their global roots are forwarded),
    /// plus a `vproc`-strided slice of the shared join/channel/proxy tables
    /// (and the root result, on worker 0).
    fn evacuate_owned_roots(&mut self) {
        let shared = self.shared.clone();
        let state = &shared.gc.state;
        let stride = shared.num_vprocs;

        for task in self.private.iter_mut() {
            evacuate_roots(&mut self.heap, task.roots.slots_mut(), state);
        }

        {
            let mut joins = shared.joins.lock().expect("joins poisoned");
            for cell in joins.iter_mut().skip(self.vproc).step_by(stride).flatten() {
                for slot in cell.slots.iter_mut() {
                    if slot.filled && slot.is_ptr {
                        slot.word =
                            forward_parallel(&mut self.heap, Addr::new(slot.word), state).raw();
                    }
                }
                if let Some(continuation) = &mut cell.continuation {
                    evacuate_roots(&mut self.heap, continuation.roots.slots_mut(), state);
                }
            }
        }

        {
            let mut channels = shared.channels.lock().expect("channels poisoned");
            for channel in channels.iter_mut().skip(self.vproc).step_by(stride) {
                for slot in channel.queue.iter_mut() {
                    *slot = forward_parallel(&mut self.heap, *slot, state);
                }
            }
        }

        {
            let mut proxies = shared.proxies.lock().expect("proxies poisoned");
            for proxy in proxies.iter_mut().skip(self.vproc).step_by(stride) {
                proxy.target = forward_parallel(&mut self.heap, proxy.target, state);
            }
        }

        if self.vproc == 0 {
            let mut result = shared.root_result.lock().expect("result poisoned");
            if let Some((word, true)) = *result {
                let new = forward_parallel(&mut self.heap, Addr::new(word), state);
                *result = Some((new.raw(), true));
            }
        }
    }
}

/// The real-threads machine: executes a program with one OS thread per
/// vproc. See the module docs for the design; see
/// [`Machine`](crate::Machine) for the simulated counterpart.
///
/// # Example
///
/// ```
/// use mgc_runtime::{Executor, MachineConfig, TaskResult, TaskSpec, ThreadedMachine};
/// use mgc_heap::i64_to_word;
///
/// let mut machine = ThreadedMachine::new(MachineConfig::small_for_tests(2));
/// machine.spawn_root(TaskSpec::new("hello", |ctx| {
///     let obj = ctx.alloc_raw(&[i64_to_word(41)]);
///     TaskResult::Value(ctx.read_raw(obj, 0) + 1)
/// }));
/// let report = machine.run();
/// assert_eq!(machine.take_result(), Some((42, false)));
/// assert!(report.wall_clock_ns.is_some());
/// ```
pub struct ThreadedMachine {
    config: MachineConfig,
    descriptors: DescriptorTable,
    num_channels: usize,
    root: Option<Task>,
    result: Option<(Word, bool)>,
    channel_stats: ChannelStats,
}

impl std::fmt::Debug for ThreadedMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedMachine")
            .field("vprocs", &self.config.num_vprocs)
            .field("channels", &self.num_channels)
            .field("has_root", &self.root.is_some())
            .finish()
    }
}

impl ThreadedMachine {
    /// Builds a threaded machine from the same configuration type as the
    /// simulated one. The topology contributes vproc→node placement (for
    /// heap bookkeeping and chunk affinity); the cost-model fields are
    /// ignored — this backend's clock is the wall clock.
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.num_vprocs > 0, "at least one vproc is required");
        ThreadedMachine {
            config,
            descriptors: DescriptorTable::new(),
            num_channels: 0,
            root: None,
            result: None,
            channel_stats: ChannelStats::default(),
        }
    }

    /// The configuration this machine was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Channel statistics for the completed run.
    pub fn channel_stats(&self) -> ChannelStats {
        self.channel_stats
    }

    /// Builds the shared machine state and one [`WorkerState`] per vproc,
    /// with `root` on worker 0's private deque — everything
    /// [`ThreadedMachine::run`] then hands to the threads.
    fn assemble(&mut self, root: Task) -> (Arc<Shared>, Vec<WorkerState>) {
        let num_vprocs = self.config.num_vprocs;
        let topology = self.config.topology.clone();
        let cores = topology.spread_cores(num_vprocs);
        let placer = mgc_numa::PagePlacer::new(self.config.heap.policy, topology.num_nodes());
        let layout = ThreadedLayout::new(&self.config.heap, num_vprocs, topology.num_nodes());
        let global = Arc::new(
            SharedGlobalHeap::new(layout.chunk_words(), topology.num_nodes())
                .with_placement(self.config.placement)
                .with_node_span_bytes(self.config.heap.node_span_bytes),
        );
        let descriptors = Arc::new(std::mem::replace(
            &mut self.descriptors,
            DescriptorTable::new(),
        ));

        // Each vproc's node derives from the topology's sparse core
        // assignment (§2.2), filtered through the page-placement policy —
        // the same assignment the worker threads bind themselves to.
        let vproc_nodes: Vec<NodeId> = (0..num_vprocs)
            .map(|vproc| placer.place(topology.node_of_core(cores[vproc])))
            .collect();

        let shared = Arc::new(Shared {
            num_vprocs,
            vproc_nodes: vproc_nodes.clone(),
            placement: self.config.placement,
            mailboxes: (0..num_vprocs).map(|_| StealMailbox::new()).collect(),
            // Disarmed: each worker's first safe point arms its own word
            // (one slow path per vproc, the same re-arm as every other).
            limits: (0..num_vprocs)
                .map(|_| LimitWord(AtomicUsize::new(0)))
                .collect(),
            eager_publication: self.config.gc.eager_publication,
            pending_tasks: AtomicUsize::new(1),
            idle_lock: Mutex::new(()),
            work_cv: Condvar::new(),
            idlers: AtomicUsize::new(0),
            joins: Mutex::new(Vec::new()),
            channels: Mutex::new(
                (0..self.num_channels)
                    .map(|_| ChannelState::default())
                    .collect(),
            ),
            channel_stats: Mutex::new(ChannelStats::default()),
            proxies: Mutex::new(Vec::new()),
            root_result: Mutex::new(None),
            global: global.clone(),
            gc: GcControl {
                pending: AtomicBool::new(false),
                barrier: PhaseBarrier::new(num_vprocs),
                state: ParallelGcState::new(),
                from_space: Mutex::new(Vec::new()),
                progress: AtomicBool::new(false),
                done: AtomicBool::new(false),
                in_scan_phase: AtomicBool::new(false),
                total_copied_bytes: AtomicU64::new(0),
                collections: AtomicU64::new(0),
            },
            epoch: Instant::now(),
        });

        let mut root = Some(root);
        let workers: Vec<WorkerState> = (0..num_vprocs)
            .map(|vproc| {
                let node = vproc_nodes[vproc];
                // Locality-first steal order: same-node victims first.
                let (same_node_victims, remote_victims): (Vec<usize>, Vec<usize>) = (0..num_vprocs)
                    .filter(|&v| v != vproc)
                    .partition(|&v| vproc_nodes[v] == node);
                // The root task starts on worker 0's private deque; its
                // roots are empty (nothing is allocated before the run), so
                // seeding it before the thread starts needs no promotion.
                let private: VecDeque<Task> = if vproc == 0 {
                    root.take().into_iter().collect()
                } else {
                    VecDeque::new()
                };
                shared.mailboxes[vproc].publish_work_hint(private.len());
                WorkerState {
                    vproc,
                    heap: WorkerHeap::new(vproc, layout, node, global.clone(), descriptors.clone()),
                    collector: Collector::new(self.config.gc, num_vprocs, topology.num_nodes()),
                    shared: shared.clone(),
                    stats: VprocRunStats::default(),
                    private,
                    gather: Vec::new(),
                    node,
                    promotion_consumer: node,
                    same_node_victims,
                    remote_victims,
                    steal_cursor: vproc,
                    failed_steal_attempts: 0,
                }
            })
            .collect();
        (shared, workers)
    }

    /// Runs the program to completion across real threads, returning the
    /// wall-clock run report.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (e.g. a deadlocked join or a heap
    /// invariant violation).
    pub fn run(&mut self) -> RunReport {
        let num_vprocs = self.config.num_vprocs;
        let Some(root) = self.root.take() else {
            return self.empty_report(num_vprocs);
        };
        let (shared, workers) = self.assemble(root);

        let start = Instant::now();
        let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|worker| {
                    std::thread::Builder::new()
                        .name(format!("mgc-vproc-{}", worker.vproc))
                        .spawn_scoped(scope, move || worker.worker_main())
                        .expect("spawning a worker thread failed")
                })
                .collect();
            // Join every worker before deciding what to propagate, so a
            // panic on one thread never leaves the others running. Prefer
            // the original panic over the `WorkerAborted` sentinels of
            // workers that merely aborted in sympathy.
            let mut outcomes = Vec::new();
            let mut original: Option<Box<dyn std::any::Any + Send>> = None;
            let mut sympathetic: Option<Box<dyn std::any::Any + Send>> = None;
            for handle in handles {
                match handle.join() {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(payload) if payload.is::<WorkerAborted>() => {
                        sympathetic.get_or_insert(payload);
                    }
                    Err(payload) => {
                        original.get_or_insert(payload);
                    }
                }
            }
            if let Some(payload) = original.or(sympathetic) {
                std::panic::resume_unwind(payload);
            }
            outcomes
        });
        let wall_ns = start.elapsed().as_nanos() as f64;

        self.result = shared.root_result.lock().expect("result poisoned").take();
        self.channel_stats = *shared.channel_stats.lock().expect("stats poisoned");

        let mut gc = GcStats::new();
        let mut allocated_objects = 0;
        let mut allocated_words = 0;
        for outcome in &outcomes {
            gc.merge(&outcome.gc);
            allocated_objects += outcome.local.nursery_allocated_objects;
            allocated_words += outcome.local.nursery_allocated_words;
        }
        gc.global_copied_bytes += shared.gc.total_copied_bytes.load(Ordering::Relaxed);

        RunReport {
            elapsed_ns: wall_ns,
            wall_clock_ns: Some(wall_ns),
            rounds: 0,
            vprocs: num_vprocs,
            allocated_objects,
            allocated_words,
            per_vproc: outcomes.iter().map(|o| o.run).collect(),
            gc,
            traffic: TrafficStats::new(),
        }
    }

    fn empty_report(&self, vprocs: usize) -> RunReport {
        RunReport {
            elapsed_ns: 0.0,
            wall_clock_ns: Some(0.0),
            rounds: 0,
            vprocs,
            allocated_objects: 0,
            allocated_words: 0,
            per_vproc: vec![VprocRunStats::default(); vprocs],
            gc: GcStats::new(),
            traffic: TrafficStats::new(),
        }
    }
}

impl Executor for ThreadedMachine {
    fn backend(&self) -> Backend {
        Backend::Threaded
    }

    fn register_descriptor(&mut self, descriptor: Descriptor) -> DescriptorId {
        self.descriptors.register(descriptor)
    }

    fn create_channel(&mut self) -> ChannelId {
        let id = ChannelId(self.num_channels);
        self.num_channels += 1;
        id
    }

    fn spawn_root(&mut self, spec: TaskSpec) {
        self.root = Some(Task::from_spec(spec, Delivery::Discard, 0));
    }

    fn run(&mut self) -> RunReport {
        ThreadedMachine::run(self)
    }

    fn take_result(&mut self) -> Option<(Word, bool)> {
        self.result.take()
    }

    fn channel_stats(&self) -> ChannelStats {
        ThreadedMachine::channel_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{alloc_checks, read_checks, scope_checks, FieldInit};
    use crate::task::Handle;
    use mgc_heap::{i64_to_word, word_to_i64};

    fn machine(vprocs: usize) -> ThreadedMachine {
        ThreadedMachine::new(MachineConfig::small_for_tests(vprocs))
    }

    /// The workers of a machine built from `config` but never started, with
    /// empty deques, so a test can drive a `TaskCtx` on one by hand.
    fn assembled(config: MachineConfig) -> (Arc<Shared>, Vec<WorkerState>) {
        assembled_from(ThreadedMachine::new(config))
    }

    /// [`assembled`] for a machine the test has already set up (descriptors
    /// registered).
    fn assembled_from(mut machine: ThreadedMachine) -> (Arc<Shared>, Vec<WorkerState>) {
        let root = Task::from_spec(
            TaskSpec::new("unused", |_| TaskResult::Unit),
            Delivery::Discard,
            0,
        );
        let (shared, mut workers) = machine.assemble(root);
        workers[0].private.clear();
        (shared, workers)
    }

    /// Runs `body` as a task on `worker` over `roots`.
    fn on_worker<R>(
        worker: &mut WorkerState,
        shared: &Shared,
        roots: &mut RootSet,
        body: impl FnOnce(&mut TaskCtx<'_>) -> R,
    ) -> R {
        let mut delivery_taken = false;
        let mut ctx = TaskCtx::new_threaded(
            worker,
            &shared.global,
            roots,
            &[],
            &mut delivery_taken,
            Delivery::Discard,
        );
        body(&mut ctx)
    }

    #[test]
    fn runs_a_single_task_on_a_real_thread() {
        let mut m = machine(1);
        m.spawn_root(TaskSpec::new("answer", |ctx| {
            ctx.work(10);
            TaskResult::Value(i64_to_word(42))
        }));
        let report = m.run();
        assert_eq!(m.take_result(), Some((i64_to_word(42), false)));
        assert_eq!(report.total_tasks(), 1);
        assert!(report.wall_clock_ns.is_some());
    }

    #[test]
    fn empty_machine_finishes_immediately() {
        let mut m = machine(4);
        let report = m.run();
        assert_eq!(report.total_tasks(), 0);
    }

    #[test]
    fn fork_join_work_spreads_over_threads() {
        let mut m = machine(4);
        m.spawn_root(TaskSpec::new("root", |ctx| {
            let children: Vec<_> = (0..32i64)
                .map(|i| {
                    (
                        TaskSpec::new("child", move |ctx| {
                            let obj = ctx.alloc_raw(&[i64_to_word(i)]);
                            TaskResult::Value(ctx.read_raw(obj, 0))
                        }),
                        vec![],
                    )
                })
                .collect();
            ctx.fork_join(
                children,
                TaskSpec::new("sum", |ctx| {
                    let total: i64 = (0..ctx.num_values())
                        .map(|i| word_to_i64(ctx.value(i)))
                        .sum();
                    TaskResult::Value(i64_to_word(total))
                }),
                &[],
            );
            TaskResult::Unit
        }));
        let report = m.run();
        assert_eq!(m.take_result(), Some((i64_to_word((0..32).sum()), false)));
        assert_eq!(report.total_tasks(), 34);
    }

    #[test]
    fn task_panic_propagates_instead_of_hanging() {
        // A panicking task must poison the machine and resurface from
        // `run()` — not leave the other three workers waiting forever.
        let result = std::panic::catch_unwind(|| {
            let mut m = machine(4);
            m.spawn_root(TaskSpec::new("root", |ctx| {
                let children: Vec<_> = (0..8i64)
                    .map(|i| {
                        (
                            TaskSpec::new("maybe-panic", move |_ctx| {
                                assert!(i != 5, "worker task exploded on purpose");
                                TaskResult::Unit
                            }),
                            vec![],
                        )
                    })
                    .collect();
                ctx.fork_join(children, TaskSpec::new("done", |_| TaskResult::Unit), &[]);
                TaskResult::Unit
            }));
            m.run();
        });
        let payload = result.expect_err("the task panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            message.contains("exploded on purpose"),
            "the original panic message should propagate, got: {message:?}"
        );
    }

    #[test]
    fn thief_blocked_on_a_steal_request_survives_a_victim_panic() {
        // Worker 0 pushes stealable-looking work (its hint goes non-zero),
        // gives the other workers time to post steal requests, and then
        // panics *without ever reaching a safe point* — so the requests are
        // never serviced. The blocked thieves must abort their waits via the
        // poison/timeout path instead of hanging the machine.
        let result = std::panic::catch_unwind(|| {
            let mut m = machine(4);
            m.spawn_root(TaskSpec::new("root", |ctx| {
                for _ in 0..8 {
                    ctx.spawn(TaskSpec::new("never-runs", |_| TaskResult::Unit), &[]);
                }
                // Let the idle workers wake up and post their requests.
                std::thread::sleep(std::time::Duration::from_millis(20));
                panic!("victim exploded before its next safe point");
            }));
            m.run();
        });
        let payload = result.expect_err("the victim panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            message.contains("exploded before its next safe point"),
            "the victim's panic should propagate, got: {message:?}"
        );
    }

    #[test]
    fn single_worker_spawn_tree_promotes_nothing_at_steal() {
        // With one vproc there are no thieves: under lazy promotion the
        // spawned tasks' graphs must stay local (the eager design promoted
        // every pushed root).
        let mut m = machine(1);
        m.spawn_root(TaskSpec::new("root", |ctx| {
            let children: Vec<_> = (0..16i64)
                .map(|i| {
                    let obj = ctx.alloc_raw(&[i64_to_word(i); 8]);
                    (
                        TaskSpec::new("child", |ctx| {
                            TaskResult::Value(ctx.read_raw(ctx.input(0), 0))
                        }),
                        vec![obj],
                    )
                })
                .collect();
            ctx.fork_join(
                children,
                TaskSpec::new("sum", |ctx| {
                    let total: i64 = (0..ctx.num_values())
                        .map(|i| word_to_i64(ctx.value(i)))
                        .sum();
                    TaskResult::Value(i64_to_word(total))
                }),
                &[],
            );
            TaskResult::Unit
        }));
        let report = m.run();
        assert_eq!(m.take_result(), Some((i64_to_word((0..16).sum()), false)));
        assert_eq!(report.total_steals(), 0);
        assert_eq!(report.promotions_at_steal(), 0);
        assert_eq!(
            report.per_vproc[0].steal_requests_served, 0,
            "nobody can request a steal on a single-vproc machine"
        );
    }

    /// The read rule of `WorkerHeap::resolve`: a global header is read — and
    /// a forwarding pointer in it chased — only while `in_scan_phase` is set.
    /// Fails if the chase for global addresses is deleted or the flag test
    /// inverted: `len` and `read_words` need the header, and a forwarded
    /// from-space copy no longer has one.
    #[test]
    fn global_forwards_are_chased_only_during_a_scan_phase() {
        use mgc_heap::{Header, ObjectKind};

        let (shared, mut workers) = assembled(MachineConfig::small_for_tests(1));
        let worker = &mut workers[0];

        // A promoted object: the local original forwards to the global copy
        // (chased whatever the flag says), the global copy is final.
        let local = worker.heap.alloc_raw(&[1, 2, 3]).unwrap();
        let old = worker.promote_shared(local, PromoteWhy::Publish);
        assert!(worker.heap.is_global(old));
        assert_eq!(worker.resolve_addr(local), old);
        assert_eq!(worker.resolve_addr(old), old);
        // Its chunk neighbour, which the collection has not reached yet.
        let neighbour_local = worker.heap.alloc_raw(&[4]).unwrap();
        let neighbour = worker.promote_shared(neighbour_local, PromoteWhy::Publish);

        // What a budgeted collection leaves between two increments: the
        // object's chunk is from-space, the object forwarded to a to-space
        // copy (given a different payload here so the reads below tell the
        // two apart), and mutators running with `in_scan_phase` set.
        worker.heap.retire_current_chunk();
        assert_eq!(flip_to_from_space(&shared.global).len(), 1);
        let header = worker.heap.header_of(old).encode();
        let copy_header = Header::new(ObjectKind::Raw, 5).encode();
        let copy = worker
            .heap
            .alloc_in_global(copy_header, &[5, 6, 7, 8, 9])
            .unwrap();
        worker.heap.cas_forward_global(old, header, copy).unwrap();
        shared.gc.in_scan_phase.store(true, Ordering::Release);

        assert_eq!(worker.resolve_addr(old), copy);
        assert_eq!(worker.resolve_addr(local), copy, "local, then global");
        let mut roots = RootSet::default();
        roots.push(old);
        roots.push(old);
        roots.push(local);
        roots.push(neighbour);
        on_worker(worker, &shared, &mut roots, |ctx| {
            let handle = ctx.input(0);
            assert_eq!(ctx.len(handle), 5);
            assert_eq!(ctx.read_words(handle), vec![5, 6, 7, 8, 9]);
            assert_eq!(ctx.read_raw(handle, 4), 9);
            // A read scope chases the same forwards, from the from-space
            // original and from the local one, without rewriting a slot —
            // also right after locating an unforwarded object in the
            // original's from-space chunk.
            let (from_space, promoted) = (ctx.input(1), ctx.input(2));
            let neighbour = ctx.input(3);
            ctx.read_scope(|r| {
                for handle in [from_space, promoted] {
                    assert_eq!(r.fields(r.obj(neighbour), 0), [4]);
                    let obj = r.obj(handle);
                    assert_eq!(r.len(obj), 5);
                    assert_eq!(r.fields(obj, 1), [6, 7, 8]);
                }
            });
            // The second slot still names the from-space copy: a run of
            // fields resolves it again.
            assert_eq!(ctx.read_fields(from_space, 1), [6, 7, 8]);
        });
        assert_eq!(
            roots.slots(),
            [copy, copy, local, neighbour],
            "the handle reads' slots now hold the copy; the scope's is unchanged"
        );
    }

    /// The other half of the read rule (`WorkerHeap::resolve`): with
    /// `in_scan_phase` clear a global address is final, so its header is not
    /// read — a forwarding word forged into it is never followed — while a
    /// forwarded local original is still chased. Fails if the early return
    /// for global objects is dropped or inverted.
    #[test]
    fn global_headers_are_not_read_outside_a_scan_phase() {
        use mgc_heap::{Header, ObjectKind};

        let (shared, mut workers) = assembled(MachineConfig::small_for_tests(1));
        let worker = &mut workers[0];
        let local = worker.heap.alloc_raw(&[1, 2, 3]).unwrap();
        let promoted = worker.promote_shared(local, PromoteWhy::Publish);
        let decoy = worker
            .heap
            .alloc_in_global(Header::new(ObjectKind::Raw, 3).encode(), &[7, 8, 9])
            .unwrap();
        let header = worker.heap.header_of(promoted).encode();
        worker
            .heap
            .cas_forward_global(promoted, header, decoy)
            .unwrap();
        assert!(!shared.gc.in_scan_phase.load(Ordering::Acquire));

        assert_eq!(worker.resolve_addr(promoted), promoted);
        assert_eq!(worker.resolve_addr(local), promoted, "local, then stop");
        let mut roots = RootSet::default();
        roots.push(promoted);
        roots.push(local);
        on_worker(worker, &shared, &mut roots, |ctx| {
            assert_eq!(ctx.read_raw(ctx.input(0), 2), 3, "the object's own payload");
            assert_eq!(ctx.read_raw(ctx.input(1), 0), 1);
        });
        assert_eq!(
            roots.slots(),
            [promoted, promoted],
            "the global slot is unchanged; the local one now holds the copy"
        );
    }

    // Handle reads across a safe point: each test reads an object, runs one
    // operation that moves or forwards it, and reads it again through the
    // same context.

    /// An allocation that runs a minor collection between two reads: the
    /// second read finds the copy the collection made.
    #[test]
    fn handle_read_after_an_allocation_that_collects() {
        let (shared, mut workers) = assembled(MachineConfig::small_for_tests(1));
        let worker = &mut workers[0];
        let obj = worker.heap.alloc_raw(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let free = worker.heap.local(0).nursery_free_words();
        let mut roots = RootSet::default();
        roots.push(obj);
        let reads = on_worker(worker, &shared, &mut roots, |ctx| {
            let handle = ctx.input(0);
            let first = ctx.read_raw(handle, 1);
            // One word more than the nursery has left.
            ctx.alloc_raw(&vec![0; free]);
            (first, ctx.read_raw(handle, 7))
        });
        assert_eq!(reads, (2, 8));
        assert_eq!(workers[0].collector.vproc_stats(0).minor_collections, 1);
        assert_ne!(
            roots.slots()[0],
            obj,
            "the slot names the collection's copy"
        );
    }

    /// `fork_join` promotes the continuation's inputs: a local original the
    /// first read located is now forwarded, and the next read follows it to
    /// the global copy and rewrites the slot.
    #[test]
    fn handle_read_after_fork_join_promotes_the_object() {
        let (shared, mut workers) = assembled(MachineConfig::small_for_tests(1));
        let mut roots = RootSet::default();
        on_worker(&mut workers[0], &shared, &mut roots, |ctx| {
            let obj = ctx.alloc_raw(&[1, 2, 3]);
            assert_eq!(ctx.read_raw(obj, 0), 1);
            let child = TaskSpec::new("child", |_| TaskResult::Unit);
            let cont = TaskSpec::new("cont", |_| TaskResult::Unit);
            ctx.fork_join(vec![(child, vec![])], cont, &[obj]);
            assert_eq!(ctx.read_raw(obj, 1), 2);
        });
        assert!(workers[0].heap.is_global(roots.slots()[0]));
    }

    /// A steal served at an allocation's safe point promotes the stolen
    /// task's roots, one of which the first read located: the next read
    /// follows the forward to the global copy.
    #[test]
    fn handle_read_after_a_steal_at_an_allocation() {
        let (shared, mut workers) = assembled(MachineConfig::small_for_tests(2));
        let mut roots = RootSet::default();
        on_worker(&mut workers[0], &shared, &mut roots, |ctx| {
            let obj = ctx.alloc_raw(&[1, 2, 3]);
            ctx.spawn(TaskSpec::new("stolen", |_| TaskResult::Unit), &[obj]);
            assert_eq!(ctx.read_raw(obj, 0), 1);
            // What a thief does: post the request, then zero the limit word.
            shared.mailboxes[0].post(StealRequest::new(1));
            shared.signal(0);
            ctx.alloc_raw(&[4]);
            assert_eq!(ctx.read_raw(obj, 1), 2);
        });
        assert_eq!(
            workers[0].stats.promotions_at_steal, 1,
            "the steal was served"
        );
        assert!(workers[0].heap.is_global(roots.slots()[0]));
    }

    /// A budgeted global-collection increment taken at `truncate_roots`
    /// between two reads of a global object: the increment evacuated the
    /// root, and the second read finds the to-space copy.
    #[test]
    fn handle_read_after_a_budgeted_increment_at_truncate_roots() {
        let mut config = MachineConfig::small_for_tests(1);
        config.gc.pause_budget_us = Some(1);
        let (shared, mut workers) = assembled(config);
        let worker = &mut workers[0];
        let local = worker.heap.alloc_raw(&[1, 2, 3]).unwrap();
        let old = worker.promote_shared(local, PromoteWhy::Publish);
        let mut roots = RootSet::default();
        roots.push(old);
        let reads = on_worker(worker, &shared, &mut roots, |ctx| {
            let handle = ctx.input(0);
            let first = ctx.read_raw(handle, 0);
            // What `request_global` does: raise `pending`, zero the word.
            shared.gc.pending.store(true, Ordering::SeqCst);
            shared.signal(0);
            ctx.truncate_roots(ctx.root_mark());
            (first, ctx.read_raw(handle, 2))
        });
        assert_eq!(reads, (1, 3));
        let worker = &workers[0];
        assert!(!worker.collector.vproc_stats(0).global_pauses.is_empty());
        let copy = roots.slots()[0];
        assert!(
            copy != old && worker.heap.is_global(copy),
            "the to-space copy"
        );
    }

    // The bulk read (the no-host-allocation rule in the `ctx.rs` module doc)
    // and the handle-resolution order of an allocation that collects.

    /// `read_words_into` appends exactly the words `read_words` returns,
    /// after what the buffer already holds, for a local object, a global
    /// one, and a promoted local original read through its forwarding word.
    #[test]
    fn ctx_read_words_into_appends_what_read_words_returns() {
        use mgc_heap::{Header, ObjectKind};

        let (shared, mut workers) = assembled(MachineConfig::small_for_tests(1));
        let worker = &mut workers[0];
        let local = worker.heap.alloc_raw(&[1, 2, 3]).unwrap();
        let global = worker
            .heap
            .alloc_in_global(Header::new(ObjectKind::Raw, 2).encode(), &[4, 5])
            .unwrap();
        let original = worker.heap.alloc_raw(&[6, 7, 8, 9]).unwrap();
        let promoted = worker.promote_shared(original, PromoteWhy::Publish);
        assert!(worker.heap.is_local(local));
        assert!(worker.heap.is_global(global) && worker.heap.is_global(promoted));
        let mut roots = RootSet::default();
        for addr in [local, global, original] {
            roots.push(addr);
        }
        on_worker(worker, &shared, &mut roots, |ctx| {
            let mut out = vec![u64::MAX];
            let expected: [&[Word]; 3] = [&[1, 2, 3], &[4, 5], &[6, 7, 8, 9]];
            for (i, words) in expected.into_iter().enumerate() {
                let start = out.len();
                ctx.read_words_into(ctx.input(i), &mut out);
                assert_eq!(&out[start..], words);
                assert_eq!(ctx.read_words(ctx.input(i)), words);
            }
            assert_eq!(out[0], u64::MAX, "appended, not overwritten");
        });
        assert_eq!(roots.slots(), [local, global, promoted]);
    }

    // Runs of fields (`ctx::read_checks` holds the bodies; the simulated
    // backend runs the same ones).

    /// The workers of a one-vproc machine with the checks' node descriptor
    /// and one channel.
    fn assembled_for_read_checks() -> (Arc<Shared>, Vec<WorkerState>, DescriptorId, ChannelId) {
        let mut machine = ThreadedMachine::new(MachineConfig::small_for_tests(1));
        let desc = machine.register_descriptor(Descriptor::new("node", 7, 0b1111));
        let channel = machine.create_channel();
        let (shared, workers) = assembled_from(machine);
        (shared, workers, desc, channel)
    }

    #[test]
    fn ctx_read_fields_match_single_reads_on_a_local_object() {
        let (shared, mut workers, desc, _) = assembled_for_read_checks();
        let mut roots = RootSet::default();
        on_worker(&mut workers[0], &shared, &mut roots, |ctx| {
            read_checks::match_on_a_local_object(ctx, desc)
        });
    }

    #[test]
    fn ctx_read_fields_match_single_reads_on_a_promoted_object() {
        let (shared, mut workers, desc, channel) = assembled_for_read_checks();
        let mut roots = RootSet::default();
        on_worker(&mut workers[0], &shared, &mut roots, |ctx| {
            read_checks::match_on_a_promoted_object(ctx, desc, channel)
        });
    }

    #[test]
    fn ctx_read_fields_match_single_reads_after_an_allocation_that_collects() {
        let (shared, mut workers, desc, _) = assembled_for_read_checks();
        let mut roots = RootSet::default();
        on_worker(&mut workers[0], &shared, &mut roots, |ctx| {
            read_checks::match_after_an_allocation_that_collects(ctx, desc)
        });
        assert_eq!(workers[0].collector.vproc_stats(0).minor_collections, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "read past the end")]
    fn ctx_read_fields_past_the_end_panics_in_debug_builds() {
        let (shared, mut workers) = assembled(MachineConfig::small_for_tests(1));
        let mut roots = RootSet::default();
        on_worker(
            &mut workers[0],
            &shared,
            &mut roots,
            read_checks::read_past_the_end,
        );
    }

    // Read scopes (`ctx::scope_checks` holds the bodies; the simulated
    // backend runs the same ones).

    #[test]
    fn ctx_scope_reads_match_handle_reads_on_a_local_object() {
        let (shared, mut workers, desc, _) = assembled_for_read_checks();
        let mut roots = RootSet::default();
        on_worker(&mut workers[0], &shared, &mut roots, |ctx| {
            scope_checks::match_on_a_local_object(ctx, desc)
        });
    }

    #[test]
    fn ctx_scope_reads_match_handle_reads_on_a_promoted_object() {
        let (shared, mut workers, desc, channel) = assembled_for_read_checks();
        let mut roots = RootSet::default();
        on_worker(&mut workers[0], &shared, &mut roots, |ctx| {
            scope_checks::match_on_a_promoted_object(ctx, desc, channel)
        });
    }

    #[test]
    fn ctx_scope_reads_of_null_children_are_none() {
        let (shared, mut workers, desc, _) = assembled_for_read_checks();
        let mut roots = RootSet::default();
        on_worker(&mut workers[0], &shared, &mut roots, |ctx| {
            scope_checks::null_children_read_as_none(ctx, desc)
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "read past the end")]
    fn ctx_scope_reads_past_the_end_panic_in_debug_builds() {
        let (shared, mut workers) = assembled(MachineConfig::small_for_tests(1));
        let mut roots = RootSet::default();
        on_worker(
            &mut workers[0],
            &shared,
            &mut roots,
            scope_checks::read_past_the_end,
        );
    }

    /// Runs `alloc` on a target object once the nursery is exactly full, so
    /// the allocation must collect first, and returns the pointer field the
    /// new object holds and the target's address after the collection.
    fn alloc_after_a_full_nursery(
        alloc: impl FnOnce(&mut TaskCtx<'_>, Handle, DescriptorId) -> Handle,
    ) -> (Word, Addr) {
        let mut machine = ThreadedMachine::new(MachineConfig::small_for_tests(1));
        let pair = machine.register_descriptor(Descriptor::new("pair", 2, 0b01));
        let (shared, mut workers) = assembled_from(machine);
        let worker = &mut workers[0];
        let target = worker.heap.alloc_raw(&[1, 2, 3]).unwrap();
        let free = worker.heap.local(0).nursery_free_words();
        let mut roots = RootSet::default();
        roots.push(target);
        let field = on_worker(worker, &shared, &mut roots, |ctx| {
            let mark = ctx.root_mark();
            // Header plus `free - 1` words: the nursery is then full.
            ctx.alloc_raw(&vec![0; free - 1]);
            ctx.truncate_roots(mark);
            let object = alloc(ctx, ctx.input(0), pair);
            let copy = ctx.read_ptr(object, 0).expect("the pointer field");
            assert_eq!(ctx.read_words(copy), [1, 2, 3]);
            ctx.read_raw(object, 0)
        });
        assert_eq!(workers[0].collector.vproc_stats(0).minor_collections, 1);
        assert_ne!(roots.slots()[0], target, "the collection moved the target");
        (field, roots.slots()[0])
    }

    /// `alloc_vector` and `alloc_mixed` whose allocation runs a minor
    /// collection: the pointer field names the moved copy, because handles
    /// are resolved only after the slow path made room.
    #[test]
    fn ctx_alloc_that_collects_points_at_the_moved_copy() {
        let (field, copy) =
            alloc_after_a_full_nursery(|ctx, target, _| ctx.alloc_vector(&[Some(target), None]));
        assert_eq!(field, copy.raw());
        let (field, copy) = alloc_after_a_full_nursery(|ctx, target, pair| {
            ctx.alloc_mixed(pair, &[FieldInit::Ptr(Some(target)), FieldInit::Raw(9)])
        });
        assert_eq!(field, copy.raw());
    }

    // In-place initialisation (`ctx::alloc_checks` holds the bodies; the
    // simulated backend runs the same ones).

    #[test]
    fn ctx_alloc_raw_with_stores_fill_once_per_index_in_order() {
        let (shared, mut workers) = assembled(MachineConfig::small_for_tests(1));
        let mut roots = RootSet::default();
        on_worker(&mut workers[0], &shared, &mut roots, |ctx| {
            alloc_checks::stores_fill_once_per_index_in_order(ctx)
        });
    }

    /// The first bump fails on a full nursery: the slow path collects, and
    /// only the second bump calls `fill`.
    #[test]
    fn ctx_alloc_raw_with_that_collects_fills_once_per_index() {
        let (shared, mut workers) = assembled(MachineConfig::small_for_tests(1));
        let free = workers[0].heap.local(0).nursery_free_words();
        let mut roots = RootSet::default();
        on_worker(&mut workers[0], &shared, &mut roots, |ctx| {
            alloc_checks::fills_once_after_a_collection(ctx, free)
        });
        assert_eq!(workers[0].collector.vproc_stats(0).minor_collections, 1);
    }

    #[test]
    fn ctx_alloc_raw_with_shows_no_stale_nursery_words() {
        let (shared, mut workers) = assembled(MachineConfig::small_for_tests(1));
        let free = workers[0].heap.local(0).nursery_free_words();
        let mut roots = RootSet::default();
        on_worker(&mut workers[0], &shared, &mut roots, |ctx| {
            alloc_checks::shows_no_stale_words(ctx, free)
        });
        assert_eq!(workers[0].collector.vproc_stats(0).minor_collections, 1);
    }

    /// The below-watermark root check runs under `verify_after_gc` in
    /// release builds too, not only as a debug assertion: a nursery address
    /// planted below a root set's watermark — what a watermark left standing
    /// over a re-used slot would hide from the next minor collection — is
    /// reported before the collection runs.
    #[test]
    #[should_panic(expected = "heap invariant violated")]
    fn a_nursery_root_below_the_watermark_is_caught_before_a_collection() {
        let (_shared, mut workers) = assembled(MachineConfig::small_for_tests(1));
        let worker = &mut workers[0];
        assert!(worker.collector.config().verify_after_gc);
        let young = worker.heap.alloc_raw(&[7; 8]).unwrap();
        let mut roots = RootSet::default();
        roots.push(young);
        roots.mark_clean();
        worker.local_gc(&mut roots);
    }

    #[test]
    fn stolen_work_is_promoted_at_steal_time() {
        // Spawn enough slow children from one worker that the other three
        // post steal requests and get tasks (with heap roots) handed over.
        let mut m = machine(4);
        m.spawn_root(TaskSpec::new("root", |ctx| {
            let children: Vec<_> = (0..32i64)
                .map(|i| {
                    let obj = ctx.alloc_raw(&[i64_to_word(i); 8]);
                    (
                        TaskSpec::new("slow-child", |ctx| {
                            std::thread::sleep(std::time::Duration::from_micros(300));
                            TaskResult::Value(ctx.read_raw(ctx.input(0), 0))
                        }),
                        vec![obj],
                    )
                })
                .collect();
            ctx.fork_join(
                children,
                TaskSpec::new("sum", |ctx| {
                    let total: i64 = (0..ctx.num_values())
                        .map(|i| word_to_i64(ctx.value(i)))
                        .sum();
                    TaskResult::Value(i64_to_word(total))
                }),
                &[],
            );
            TaskResult::Unit
        }));
        let report = m.run();
        assert_eq!(m.take_result(), Some((i64_to_word((0..32).sum()), false)));
        if report.total_steals() > 0 {
            assert_eq!(
                report.total_steals(),
                report
                    .per_vproc
                    .iter()
                    .map(|v| v.steal_requests_served)
                    .sum::<u64>(),
                "every successful steal corresponds to one served request"
            );
            assert!(
                report.promotions_at_steal() > 0,
                "stolen tasks carry local roots, so steals must promote"
            );
        }
    }

    #[test]
    fn sustained_allocation_runs_global_collections() {
        let mut m = machine(2);
        m.spawn_root(TaskSpec::new("allocate-a-lot", |ctx| {
            let mut list = None;
            for i in 0..4000u64 {
                let mark = ctx.root_mark();
                let value = ctx.alloc_raw(&[i]);
                let cons = ctx.alloc_vector(&[Some(value), list]);
                list = Some(ctx.keep(cons, mark));
            }
            // Walk the list to verify nothing was lost.
            let mut count = 0u64;
            let mut cursor = list;
            while let Some(cell) = cursor {
                count += 1;
                cursor = ctx.read_ptr(cell, 1);
            }
            TaskResult::Value(count)
        }));
        let report = m.run();
        assert_eq!(m.take_result(), Some((4000, false)));
        assert!(report.gc.minor_collections > 0, "minors expected");
        assert!(report.gc.global_collections > 0, "globals expected");
    }
}
