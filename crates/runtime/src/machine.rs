//! The simulated machine: configuration, the runtime state shared with task
//! contexts, and the discrete-event scheduler that drives vprocs, garbage
//! collection, and the NUMA cost model.
//!
//! This is one of **two** execution backends (see
//! [`Executor`](crate::Executor)): the [`Machine`] here executes every vproc
//! from a single driver thread and charges costs through the memory model;
//! [`ThreadedMachine`](crate::ThreadedMachine) runs each vproc on a real OS
//! thread and measures wall-clock time instead. Both share the task model,
//! the work-stealing deques, and the channel machinery.
//!
//! On this backend execution proceeds in *rounds*. In each round every vproc
//! runs tasks (stealing when its own deque is empty) until it has
//! accumulated roughly one scheduling quantum of virtual work; the round's
//! elapsed time is then computed by the bottleneck memory model of
//! `mgc-numa`, so that vprocs competing for the same memory controller or
//! interconnect link slow each other down exactly as the paper's machines
//! do. Garbage collections run inside the round of the vproc that triggered
//! them (minor/major) or as a stop-the-world round of their own (global
//! collections).

use crate::channel::{ChannelId, ChannelState, ChannelStats, Proxy, ProxyId};
use crate::ctx::TaskCtx;
use crate::stats::{RunReport, VprocPlacementDecision, VprocRunStats};
use crate::task::{Delivery, JoinCell, Task, TaskResult, TaskSpec};
use crate::threaded::PromoteWhy;
use crate::vproc::VProc;
use mgc_core::{Collector, GcConfig};
use mgc_heap::{
    Addr, Descriptor, DescriptorId, GcHeap, Heap, HeapConfig, HeapError, Resolved,
    SharedGlobalHeap, Word,
};
use mgc_numa::{
    AccessClass, AdaptiveController, AllocPolicy, MemoryModel, NodeId, PlacementPolicy, Topology,
    Traffic, TrafficStats, VprocRoundCost,
};

/// Fixed scheduling overhead charged per executed task, in nanoseconds.
const TASK_OVERHEAD_NS: f64 = 400.0;
/// Fixed cost of a steal attempt that succeeds (deque synchronisation).
const STEAL_OVERHEAD_NS: f64 = 1_200.0;
/// Default hard cap on scheduling rounds, to turn runaway programs into
/// test failures instead of hangs. Override with the `MGC_MAX_ROUNDS`
/// environment variable.
const MAX_ROUNDS: u64 = 50_000_000;

/// The effective round cap: `MGC_MAX_ROUNDS` when set (parsed by
/// [`crate::env::EnvOverrides`], the one place `MGC_*` variables are
/// interpreted), otherwise [`MAX_ROUNDS`]. Only `MGC_MAX_ROUNDS` is looked
/// up here — a machine is built per run, and warning about unrelated knobs
/// (`MGC_BACKEND`/`MGC_VPROCS`) on every construction would spam stderr.
fn round_limit_from_env() -> u64 {
    crate::env::EnvOverrides::from_lookup(|key| {
        (key == "MGC_MAX_ROUNDS")
            .then(|| std::env::var(key).ok())
            .flatten()
    })
    .max_rounds
    .unwrap_or(MAX_ROUNDS)
}

/// Cache behaviour of mutator memory accesses.
///
/// The local heap is sized to fit in the node's L3 cache (§3.1), so most
/// mutator accesses to it are cache hits and never reach DRAM; accesses to
/// the global heap miss much more often. These rates determine what fraction
/// of the touched bytes is charged to the memory system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutatorCostModel {
    /// Fraction of local-heap bytes that reach DRAM.
    pub local_heap_miss_rate: f64,
    /// Fraction of global-heap bytes that reach DRAM.
    pub global_heap_miss_rate: f64,
    /// Fraction of freshly allocated bytes that reach DRAM (write-back of
    /// evicted nursery lines).
    pub alloc_miss_rate: f64,
}

impl Default for MutatorCostModel {
    fn default() -> Self {
        MutatorCostModel {
            local_heap_miss_rate: 0.10,
            global_heap_miss_rate: 0.65,
            alloc_miss_rate: 0.25,
        }
    }
}

/// Configuration of a simulated machine run.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The machine topology (e.g. [`Topology::amd_magny_cours_48`]).
    pub topology: Topology,
    /// Number of vprocs (threads) to use.
    pub num_vprocs: usize,
    /// Heap geometry.
    pub heap: HeapConfig,
    /// Promotion-chunk NUMA placement: which node's pool the chunks that
    /// receive promoted objects are leased from (`NodeLocal` targets the
    /// consumer — the thief at a steal handoff; `Interleave` round-robins;
    /// `FirstTouch` targets the promoting vproc).
    pub placement: PlacementPolicy,
    /// Collector configuration.
    pub gc: GcConfig,
    /// Mutator cache model.
    pub mutator_costs: MutatorCostModel,
    /// Scheduling quantum in virtual nanoseconds.
    pub quantum_ns: f64,
}

impl MachineConfig {
    /// Creates a configuration for `num_vprocs` vprocs on `topology` with
    /// default heap, collector, and cost parameters.
    ///
    /// # Panics
    ///
    /// Panics if `num_vprocs` is zero.
    pub fn new(topology: Topology, num_vprocs: usize) -> Self {
        assert!(num_vprocs > 0, "at least one vproc is required");
        MachineConfig {
            topology,
            num_vprocs,
            heap: HeapConfig::default(),
            placement: PlacementPolicy::default(),
            gc: GcConfig::default(),
            mutator_costs: MutatorCostModel::default(),
            quantum_ns: 200_000.0,
        }
    }

    /// Sets the promotion-chunk placement policy.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the physical page/chunk placement policy (§4.3 of the paper).
    pub fn with_policy(mut self, policy: AllocPolicy) -> Self {
        self.heap.policy = policy;
        self
    }

    /// Sets the collector configuration.
    pub fn with_gc(mut self, gc: GcConfig) -> Self {
        self.gc = gc;
        self
    }

    /// A small configuration for unit tests: the two-node test topology,
    /// tiny heaps, and aggressive GC thresholds.
    pub fn small_for_tests(num_vprocs: usize) -> Self {
        MachineConfig {
            topology: Topology::dual_node_test(),
            num_vprocs,
            heap: HeapConfig::small_for_tests(),
            placement: PlacementPolicy::default(),
            gc: GcConfig::small_for_tests(),
            mutator_costs: MutatorCostModel::default(),
            quantum_ns: 50_000.0,
        }
    }
}

/// Mutable runtime state shared between the scheduler and task contexts.
pub(crate) struct RuntimeState {
    pub(crate) heap: Heap,
    pub(crate) collector: Collector,
    pub(crate) vprocs: Vec<VProc>,
    pub(crate) joins: Vec<Option<JoinCell>>,
    pub(crate) channels: Vec<ChannelState>,
    pub(crate) proxies: Vec<Proxy>,
    pub(crate) channel_stats: ChannelStats,
    pub(crate) topology: Topology,
    /// `topology.access_class(src, dst)` at `src * num_nodes + dst`: a
    /// mutator access is charged per field read, so its class is a load.
    access_classes: Vec<AccessClass>,
    pub(crate) mutator_costs: MutatorCostModel,
    pub(crate) traffic: TrafficStats,
    pub(crate) ns_per_op: f64,
    /// The machine's virtual clock as of the **start** of the current round
    /// (the scheduler advances the real clock only at round close). A vproc's
    /// mid-round "now" is this base plus the compute it has charged so far
    /// this round — monotone, deterministic, and good enough for open-loop
    /// arrival schedules and latency sampling.
    pub(crate) clock_base_ns: f64,
    pub(crate) root_result: Option<(Word, bool)>,
    /// One hysteresis controller per vproc under
    /// [`PlacementPolicy::Adaptive`]; `None` under the static policies.
    pub(crate) adaptive: Option<Vec<AdaptiveController>>,
}

impl std::fmt::Debug for RuntimeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeState")
            .field("vprocs", &self.vprocs.len())
            .field("joins", &self.joins.iter().filter(|j| j.is_some()).count())
            .field("channels", &self.channels.len())
            .finish()
    }
}

impl RuntimeState {
    pub(crate) fn num_vprocs(&self) -> usize {
        self.vprocs.len()
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.topology.num_nodes()
    }

    // ------------------------------------------------------------------
    // Cost charging
    // ------------------------------------------------------------------

    /// Charges `ops` machine operations of pure compute to `vproc`.
    pub(crate) fn charge_work(&mut self, vproc: usize, ops: u64) {
        let ns = ops as f64 * self.ns_per_op;
        self.vprocs[vproc].round_cost.add_cpu_ns(ns);
    }

    /// `vproc`'s current virtual time: the machine clock at the start of the
    /// round plus the compute this vproc has charged so far within it.
    /// Monotone over a vproc's execution and fully deterministic.
    pub(crate) fn now_ns(&self, vproc: usize) -> f64 {
        self.clock_base_ns + self.vprocs[vproc].round_cost.cpu_ns
    }

    /// Advances `vproc`'s virtual time to `target_ns` by charging the gap as
    /// idle compute — how an open-loop load generator waits out an arrival
    /// gap on the simulated backend. A no-op when the target is already past.
    pub(crate) fn wait_until_ns(&mut self, vproc: usize, target_ns: f64) {
        let now = self.now_ns(vproc);
        if target_ns > now {
            self.vprocs[vproc].round_cost.add_cpu_ns(target_ns - now);
        }
    }

    /// Charges a mutator access by `vproc` of `bytes` bytes of an object on
    /// `node`, in a local heap or (`local` false) the global heap, applying
    /// the cache model. [`RuntimeState::locate`] supplies the node and the
    /// region.
    #[inline]
    pub(crate) fn charge_access(&mut self, vproc: usize, node: NodeId, local: bool, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let miss_rate = if local {
            self.mutator_costs.local_heap_miss_rate
        } else {
            self.mutator_costs.global_heap_miss_rate
        };
        self.charge_traffic(vproc, node, bytes, miss_rate);
        // Touching data costs a couple of instructions per word even on a
        // cache hit.
        self.charge_work(vproc, (bytes as u64 / 8).max(1));
    }

    /// Charges the allocation of `bytes` fresh bytes by `vproc`.
    pub(crate) fn charge_alloc(&mut self, vproc: usize, bytes: usize) {
        let node = self.heap.local(vproc).node();
        let miss = self.mutator_costs.alloc_miss_rate;
        self.charge_traffic(vproc, node, bytes, miss);
        self.charge_work(vproc, (bytes as u64 / 8).max(1) * 2);
    }

    /// Resolves the adaptive controller's mode into `vproc`'s effective
    /// placement for the promotion work about to run. No-op under the
    /// static policies.
    fn adaptive_pre_promotion(&mut self, vproc: usize) {
        if let Some(controllers) = self.adaptive.as_mut() {
            let mode = controllers[vproc].placement_for_next_promotion();
            self.heap.set_effective_placement(vproc, mode.as_policy());
        }
    }

    /// Feeds one promotion operation's ledger split back into `vproc`'s
    /// adaptive controller. No-op under the static policies.
    fn adaptive_record(&mut self, vproc: usize, local_bytes: u64, remote_bytes: u64) {
        if let Some(controllers) = self.adaptive.as_mut() {
            controllers[vproc].record_promotion(local_bytes, remote_bytes);
        }
    }

    #[inline]
    fn charge_traffic(&mut self, vproc: usize, node: NodeId, bytes: usize, rate: f64) {
        let dram_bytes = (bytes as f64 * rate).ceil() as u64;
        if dram_bytes == 0 {
            return;
        }
        let accesses = dram_bytes / 64;
        self.vprocs[vproc]
            .round_cost
            .add_traffic(node, Traffic::new(dram_bytes, accesses));
        let class = self.access_class(self.vprocs[vproc].node, node);
        self.traffic.record_mutator(class, dram_bytes);
    }

    /// The topology's access class of a `src` → `dst` access, from the
    /// table built once per machine.
    #[inline]
    fn access_class(&self, src: NodeId, dst: NodeId) -> AccessClass {
        self.access_classes[src.index() * self.topology.num_nodes() + dst.index()]
    }

    fn charge_gc_cost(&mut self, vproc: usize, cost: &mgc_core::GcCost) {
        cost.apply_to(&mut self.vprocs[vproc].round_cost);
        let src = self.vprocs[vproc].node;
        for (node, &bytes) in cost.bytes_to_node.iter().enumerate() {
            if bytes > 0 {
                let class = self.access_class(src, NodeId::new(node as u16));
                self.traffic.record_gc(class, bytes);
            }
        }
    }

    // ------------------------------------------------------------------
    // Root management and collections
    // ------------------------------------------------------------------

    /// Collects every root the runtime knows about for `vproc`: the supplied
    /// extra roots (the running task), every task waiting in the vproc's
    /// deque, every filled pointer slot of every join cell, and every queued
    /// channel message. Every slot of every root set is handed over and no
    /// watermark is ever raised here: only the threaded backend scans
    /// generationally, so this backend's virtual costs stay what they were.
    fn gather_roots(&self, vproc: usize, extra: &[Addr]) -> Vec<Addr> {
        let mut roots: Vec<Addr> = Vec::with_capacity(extra.len() + 16);
        roots.extend_from_slice(extra);
        for task in &self.vprocs[vproc].deque {
            roots.extend_from_slice(task.roots.slots());
        }
        for join in self.joins.iter().flatten() {
            for slot in &join.slots {
                if slot.filled && slot.is_ptr {
                    roots.push(Addr::new(slot.word));
                }
            }
            if let Some(cont) = &join.continuation {
                roots.extend_from_slice(cont.roots.slots());
            }
        }
        for channel in &self.channels {
            roots.extend(channel.queue.iter().copied());
        }
        for proxy in &self.proxies {
            roots.push(proxy.target);
        }
        if let Some((word, true)) = self.root_result {
            roots.push(Addr::new(word));
        }
        roots
    }

    /// Writes the (possibly rewritten) roots back into the structures they
    /// were gathered from, in exactly the same order.
    fn scatter_roots(&mut self, vproc: usize, extra: &mut [Addr], roots: &[Addr]) {
        let mut cursor = 0;
        for slot in extra.iter_mut() {
            *slot = roots[cursor];
            cursor += 1;
        }
        for task in self.vprocs[vproc].deque.iter_mut() {
            for slot in task.roots.slots_mut() {
                *slot = roots[cursor];
                cursor += 1;
            }
        }
        for join in self.joins.iter_mut().flatten() {
            for slot in join.slots.iter_mut() {
                if slot.filled && slot.is_ptr {
                    slot.word = roots[cursor].raw();
                    cursor += 1;
                }
            }
            if let Some(cont) = &mut join.continuation {
                for slot in cont.roots.slots_mut() {
                    *slot = roots[cursor];
                    cursor += 1;
                }
            }
        }
        for channel in self.channels.iter_mut() {
            for slot in channel.queue.iter_mut() {
                *slot = roots[cursor];
                cursor += 1;
            }
        }
        for proxy in self.proxies.iter_mut() {
            proxy.target = roots[cursor];
            cursor += 1;
        }
        if let Some((word, true)) = self.root_result {
            let _ = word;
            self.root_result = Some((roots[cursor].raw(), true));
            cursor += 1;
        }
        debug_assert_eq!(cursor, roots.len());
    }

    /// Runs a local (minor, possibly major) collection for `vproc`, with the
    /// running task's roots supplied in `extra`.
    pub(crate) fn local_gc(&mut self, vproc: usize, extra: &mut [Addr]) {
        let mut roots = self.gather_roots(vproc, extra);
        self.adaptive_pre_promotion(vproc);
        let outcome = self
            .collector
            .collect_local(&mut self.heap, vproc, &mut roots);
        self.scatter_roots(vproc, extra, &roots);
        self.charge_gc_cost(vproc, &outcome.cost);
        // A local collection's major phase promotes for the collecting
        // vproc's own benefit: the consumer is the vproc itself.
        let (local, remote) = outcome.promoted_split(self.vprocs[vproc].node);
        self.adaptive_record(vproc, local, remote);
        let stats = &mut self.vprocs[vproc].stats;
        stats.promoted_bytes_local += local;
        stats.promoted_bytes_remote += remote;
        // One virtual pause per local collection, classified by the heaviest
        // phase that ran.
        let pause = outcome.cost.cpu_ns;
        self.vprocs[vproc].stats.pauses.record(pause);
        let stats = self.collector.vproc_stats_mut(vproc);
        if outcome.triggered_major {
            stats.major_pauses.record(pause);
        } else {
            stats.minor_pauses.record(pause);
        }
        if outcome.needs_global {
            self.collector.request_global();
        }
    }

    /// Makes sure the vproc's nursery can hold an object of `payload_words`
    /// payload words, running a local collection if it cannot. Callers must
    /// resolve handles to addresses only *after* this returns, because the
    /// collection may move objects.
    ///
    /// # Panics
    ///
    /// Panics if the object cannot fit even in an empty nursery (workloads
    /// must chunk large arrays into rope leaves, as Manticore does).
    pub(crate) fn reserve_nursery(
        &mut self,
        vproc: usize,
        extra: &mut [Addr],
        payload_words: usize,
    ) {
        let needed = payload_words + 1;
        if self.heap.local(vproc).nursery_free_words() >= needed {
            return;
        }
        self.local_gc(vproc, extra);
        assert!(
            self.heap.local(vproc).nursery_free_words() >= needed,
            "an object of {payload_words} payload words does not fit in the nursery even after \
             a collection — build large arrays as rope leaves"
        );
    }

    /// Allocates in the nursery after a [`RuntimeState::reserve_nursery`]
    /// call made room.
    ///
    /// # Panics
    ///
    /// Panics if allocation fails despite the reservation.
    pub(crate) fn alloc_reserved<F>(&mut self, vproc: usize, alloc: F) -> Addr
    where
        F: FnOnce(&mut Heap, usize) -> Result<Addr, HeapError>,
    {
        match alloc(&mut self.heap, vproc) {
            Ok(addr) => addr,
            Err(e) => panic!("allocation failed after reserving nursery space: {e}"),
        }
    }

    /// Resolves `addr` to the current copy of its object and locates it
    /// ([`Heap::resolve`]; `global` is this machine's global heap), so a read
    /// classifies the address once. A global header is never read: the
    /// global collection runs between rounds with every task quiescent
    /// (`Machine::run_global_gc`) and rewrites every root before it returns,
    /// so a running mutator never meets a global forwarding word — only a
    /// promoted local original holds one.
    #[inline(always)]
    pub(crate) fn locate<'g>(&self, global: &'g SharedGlobalHeap, addr: Addr) -> Resolved<'g> {
        self.heap.resolve(global, addr, false)
    }

    /// [`RuntimeState::locate`] for callers that only want the address; null
    /// stays null.
    pub(crate) fn resolve_addr(&self, addr: Addr) -> Addr {
        if addr.is_null() {
            return addr;
        }
        self.locate(self.heap.global(), addr).addr
    }

    /// Promotes `addr` if it lives in a local heap other than `target_vproc`'s,
    /// charging the owning vproc (lazy promotion, §3.1). `why` attributes
    /// the promotion — work actually stolen vs data published to a
    /// machine-global structure — in the owner's run statistics. Returns the
    /// address to use from `target_vproc`.
    pub(crate) fn promote_for(&mut self, target_vproc: usize, addr: Addr, why: PromoteWhy) -> Addr {
        let addr = self.resolve_addr(addr);
        if addr.is_null() || !self.heap.is_local(addr) {
            return addr;
        }
        let owner = self
            .heap
            .space_of(addr)
            .vproc()
            .expect("local addresses always have an owner");
        if owner == target_vproc {
            return addr;
        }
        // The promoted graph is about to be consumed by `target_vproc`:
        // point the owner's promotion chunks at the consumer's node for the
        // duration (honoured under `NodeLocal` placement).
        let consumer = self.vprocs[target_vproc].node;
        self.heap.set_promotion_target(owner, consumer);
        self.adaptive_pre_promotion(owner);
        let (new, outcome) = self.collector.promote(&mut self.heap, owner, addr);
        self.heap
            .set_promotion_target(owner, self.vprocs[owner].node);
        self.charge_gc_cost(owner, &outcome.cost);
        let (local, remote) = outcome.promoted_split(consumer);
        self.adaptive_record(owner, local, remote);
        let stats = &mut self.vprocs[owner].stats;
        stats.lazy_promotions += 1;
        stats.promoted_bytes_local += local;
        stats.promoted_bytes_remote += remote;
        match why {
            PromoteWhy::Steal => {
                stats.promotions_at_steal += 1;
                stats.promoted_bytes_at_steal += outcome.promoted_bytes;
            }
            PromoteWhy::Publish => {
                stats.promotions_at_publish += 1;
                stats.promoted_bytes_at_publish += outcome.promoted_bytes;
            }
        }
        new
    }

    /// Promotes `addr` to the global heap if it still lives in any local
    /// heap, charging the owning vproc. Used for pointers held in
    /// machine-global structures (join cells, channels, proxies) before a
    /// global collection, whose per-vproc root sets only cover vproc-local
    /// structures.
    pub(crate) fn ensure_global(&mut self, addr: Addr) -> Addr {
        let addr = self.resolve_addr(addr);
        if addr.is_null() || !self.heap.is_local(addr) {
            return addr;
        }
        let owner = self
            .heap
            .space_of(addr)
            .vproc()
            .expect("local addresses always have an owner");
        let (new, outcome) = self.collector.promote(&mut self.heap, owner, addr);
        self.charge_gc_cost(owner, &outcome.cost);
        new
    }

    /// Moves every pointer held in a machine-global structure into the
    /// global heap, so the per-vproc root sets of a global collection are
    /// complete.
    pub(crate) fn globalise_shared_roots(&mut self) {
        let mut joins = std::mem::take(&mut self.joins);
        for join in joins.iter_mut().flatten() {
            for slot in join.slots.iter_mut() {
                if slot.filled && slot.is_ptr {
                    slot.word = self.ensure_global(Addr::new(slot.word)).raw();
                }
            }
            if let Some(cont) = &mut join.continuation {
                for root in cont.roots.slots_mut() {
                    *root = self.ensure_global(*root);
                }
            }
        }
        self.joins = joins;

        let mut channels = std::mem::take(&mut self.channels);
        for channel in channels.iter_mut() {
            for slot in channel.queue.iter_mut() {
                *slot = self.ensure_global(*slot);
            }
        }
        self.channels = channels;

        let mut proxies = std::mem::take(&mut self.proxies);
        for proxy in proxies.iter_mut() {
            proxy.target = self.ensure_global(proxy.target);
        }
        self.proxies = proxies;

        if let Some((word, true)) = self.root_result {
            let promoted = self.ensure_global(Addr::new(word));
            self.root_result = Some((promoted.raw(), true));
        }
    }

    // ------------------------------------------------------------------
    // Task plumbing
    // ------------------------------------------------------------------

    pub(crate) fn push_task(&mut self, vproc: usize, task: Task) {
        self.vprocs[vproc].push(task);
    }

    pub(crate) fn new_join(&mut self, cell: JoinCell) -> crate::task::JoinId {
        for (i, slot) in self.joins.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(cell);
                return crate::task::JoinId(i);
            }
        }
        self.joins.push(Some(cell));
        crate::task::JoinId(self.joins.len() - 1)
    }

    /// Records a task's result. If this completes a join, the continuation
    /// becomes runnable on `vproc` with the children's results appended to
    /// its inputs (pointer results promoted as needed).
    pub(crate) fn deliver(&mut self, vproc: usize, delivery: Delivery, word: Word, is_ptr: bool) {
        match delivery {
            Delivery::Discard => {}
            Delivery::Join { join, slot } => {
                let finished = {
                    let cell = self.joins[join.0]
                        .as_mut()
                        .expect("join cell outlives its children");
                    let s = &mut cell.slots[slot];
                    s.word = word;
                    s.is_ptr = is_ptr;
                    s.filled = true;
                    cell.remaining -= 1;
                    cell.remaining == 0
                };
                if finished {
                    let cell = self.joins[join.0].take().expect("join cell present");
                    let mut continuation = cell.continuation.expect("continuation present");
                    // The continuation runs on whichever vproc completed the
                    // join last, which may differ from the vproc that forked
                    // it. Its pointer inputs (and the children's pointer
                    // results) must not reference another vproc's local heap,
                    // so they are promoted lazily here — the same lazy
                    // promotion the paper applies to stolen work.
                    let mut roots = std::mem::take(&mut continuation.roots);
                    for root in roots.slots_mut() {
                        *root = self.promote_for(vproc, *root, PromoteWhy::Publish);
                    }
                    continuation.roots = roots;
                    for slot in &cell.slots {
                        if slot.is_ptr {
                            let addr =
                                self.promote_for(vproc, Addr::new(slot.word), PromoteWhy::Publish);
                            continuation.roots.push(addr);
                        } else {
                            continuation.values.push(slot.word);
                        }
                    }
                    self.vprocs[vproc].push(continuation);
                }
            }
        }
    }

    /// Attempts to steal a task for `thief`, promoting the stolen task's
    /// roots (lazy promotion on steal). Victim selection is locality-first:
    /// the fullest deque **on the thief's own node** wins; only when every
    /// same-node victim is empty does the thief reach across nodes for the
    /// fullest remote deque.
    pub(crate) fn try_steal(&mut self, thief: usize) -> Option<Task> {
        let thief_node = self.vprocs[thief].node;
        let fullest = |state: &RuntimeState, same_node: bool| {
            (0..state.vprocs.len())
                .filter(|&v| v != thief)
                .filter(|&v| (state.vprocs[v].node == thief_node) == same_node)
                .filter(|&v| !state.vprocs[v].deque.is_empty())
                .max_by_key(|&v| state.vprocs[v].deque.len())
        };
        let victim = fullest(self, true).or_else(|| fullest(self, false))?;
        let mut task = self.vprocs[victim].steal_from()?;
        for root in task.roots.slots_mut() {
            *root = self.promote_for(thief, *root, PromoteWhy::Steal);
        }
        let stats = &mut self.vprocs[thief].stats;
        stats.steals += 1;
        if self.vprocs[victim].node == thief_node {
            self.vprocs[thief].stats.steals_same_node += 1;
        } else {
            self.vprocs[thief].stats.steals_cross_node += 1;
        }
        self.vprocs[thief].round_cost.add_cpu_ns(STEAL_OVERHEAD_NS);
        Some(task)
    }

    // ------------------------------------------------------------------
    // Channels and proxies
    // ------------------------------------------------------------------

    pub(crate) fn channel_send(&mut self, vproc: usize, channel: ChannelId, message: Addr) {
        // Messages crossing vprocs must live in the global heap (§3.1): the
        // sender promotes its own data.
        let message = if self.heap.is_local(message) {
            let owner = self.heap.space_of(message).vproc().unwrap_or(vproc);
            self.adaptive_pre_promotion(owner);
            let (new, outcome) = self.collector.promote(&mut self.heap, owner, message);
            self.charge_gc_cost(owner, &outcome.cost);
            let (local, remote) = outcome.promoted_split(self.vprocs[owner].node);
            self.adaptive_record(owner, local, remote);
            let stats = &mut self.vprocs[owner].stats;
            stats.lazy_promotions += 1;
            stats.promotions_at_publish += 1;
            stats.promoted_bytes_at_publish += outcome.promoted_bytes;
            stats.promoted_bytes_local += local;
            stats.promoted_bytes_remote += remote;
            new
        } else {
            message
        };
        self.channels[channel.0].queue.push_back(message);
        self.channels[channel.0].sends += 1;
        self.channel_stats.sends += 1;
    }

    pub(crate) fn channel_recv(&mut self, vproc: usize, channel: ChannelId) -> Option<Addr> {
        let message = self.channels[channel.0].queue.pop_front()?;
        self.channels[channel.0].receives += 1;
        self.channel_stats.receives += 1;
        // Reading the message pulls it across the interconnect.
        let Resolved { location, node, .. } = self.locate(self.heap.global(), message);
        let place = self.heap.place_of(location);
        let (local, bytes) = (place.is_local(), place.header().total_bytes());
        self.charge_access(vproc, node, local, bytes);
        Some(message)
    }

    pub(crate) fn create_proxy(&mut self, owner: usize, target: Addr) -> ProxyId {
        self.proxies.push(Proxy {
            owner,
            target,
            promoted: false,
        });
        self.channel_stats.proxies_created += 1;
        ProxyId(self.proxies.len() - 1)
    }

    pub(crate) fn resolve_proxy(&mut self, vproc: usize, proxy: ProxyId) -> Addr {
        let entry = self.proxies[proxy.0];
        if vproc == entry.owner || !self.heap.is_local(entry.target) {
            return entry.target;
        }
        // Resolving from another vproc forces promotion of the target.
        let addr = self.promote_for(vproc, entry.target, PromoteWhy::Publish);
        let entry = &mut self.proxies[proxy.0];
        entry.target = addr;
        entry.promoted = true;
        self.channel_stats.proxies_promoted += 1;
        addr
    }
}

/// The simulated NUMA machine executing a program under the Manticore GC.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    model: MemoryModel,
    state: RuntimeState,
    clock_ns: f64,
    rounds: u64,
    round_limit: u64,
}

impl Machine {
    /// Builds a machine from a configuration: vprocs are pinned to cores
    /// spread sparsely across the nodes (§2.2), local heaps and the global
    /// heap are created under the configured placement policy, and the
    /// collector is initialised.
    pub fn new(config: MachineConfig) -> Self {
        let topology = config.topology.clone();
        let cores = topology.spread_cores(config.num_vprocs);
        let nodes: Vec<_> = cores.iter().map(|&c| topology.node_of_core(c)).collect();
        let heap =
            Heap::with_placement(config.heap, &nodes, topology.num_nodes(), config.placement);
        let collector = Collector::new(config.gc, config.num_vprocs, topology.num_nodes());
        let vprocs: Vec<VProc> = cores
            .iter()
            .enumerate()
            .map(|(i, &core)| {
                VProc::new(i, core, topology.node_of_core(core), topology.num_nodes())
            })
            .collect();
        let ns_per_op = 1.0 / topology.core_ghz();
        let model = MemoryModel::new(topology.clone());
        let nodes = || (0..topology.num_nodes()).map(|n| NodeId::new(n as u16));
        let access_classes = nodes()
            .flat_map(|src| nodes().map(move |dst| (src, dst)))
            .map(|(src, dst)| topology.access_class(src, dst))
            .collect();
        Machine {
            state: RuntimeState {
                heap,
                collector,
                vprocs,
                joins: Vec::new(),
                channels: Vec::new(),
                proxies: Vec::new(),
                channel_stats: ChannelStats::default(),
                access_classes,
                topology,
                mutator_costs: config.mutator_costs,
                traffic: TrafficStats::new(),
                ns_per_op,
                clock_base_ns: 0.0,
                root_result: None,
                adaptive: (config.placement == PlacementPolicy::Adaptive).then(|| {
                    (0..config.num_vprocs)
                        .map(|_| AdaptiveController::new())
                        .collect()
                }),
            },
            model,
            config,
            clock_ns: 0.0,
            rounds: 0,
            round_limit: round_limit_from_env(),
        }
    }

    /// The configuration this machine was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The heap (for inspection in tests and examples).
    pub fn heap(&self) -> &Heap {
        &self.state.heap
    }

    /// The collector (for inspection in tests and examples).
    pub fn collector(&self) -> &Collector {
        &self.state.collector
    }

    /// Channel statistics for the run so far.
    pub fn channel_stats(&self) -> ChannelStats {
        self.state.channel_stats
    }

    /// Registers a mixed-object descriptor (the compiler would have emitted
    /// it; programs register their record layouts before running).
    pub fn register_descriptor(&mut self, descriptor: Descriptor) -> DescriptorId {
        self.state.heap.register_descriptor(descriptor)
    }

    /// Creates a channel.
    pub fn create_channel(&mut self) -> ChannelId {
        self.state.channels.push(ChannelState::default());
        ChannelId(self.state.channels.len() - 1)
    }

    /// Spawns the program's root task on vproc 0. Its result (if any) can be
    /// read with [`Machine::take_result`] after [`Machine::run`].
    pub fn spawn_root(&mut self, spec: TaskSpec) {
        let task = Task::from_spec(spec, Delivery::Discard, 0);
        self.state.vprocs[0].push(task);
    }

    /// The root task's result: the raw word and whether it is a heap pointer.
    pub fn take_result(&mut self) -> Option<(Word, bool)> {
        self.state.root_result.take()
    }

    /// Runs until every deque is empty and no joins are pending, returning
    /// the run report.
    ///
    /// # Panics
    ///
    /// Panics if the program exceeds the internal round limit (a runaway
    /// loop) or deadlocks with unfinished joins.
    pub fn run(&mut self) -> RunReport {
        loop {
            let mut any_work = false;
            for vproc in 0..self.state.num_vprocs() {
                loop {
                    let serial = self
                        .model
                        .serial_cost_ns(&self.state.vprocs[vproc].round_cost);
                    if serial >= self.config.quantum_ns {
                        break;
                    }
                    let task = match self.state.vprocs[vproc].pop_local() {
                        Some(task) => Some(task),
                        None => self.state.try_steal(vproc),
                    };
                    match task {
                        Some(task) => {
                            self.run_task(vproc, task);
                            any_work = true;
                        }
                        None => break,
                    }
                }
            }

            if self.state.collector.global_pending()
                || self.state.collector.needs_global(&self.state.heap)
            {
                self.run_global_gc();
                any_work = true;
            }

            self.close_round();

            if !any_work {
                let pending_join = self.state.joins.iter().any(Option::is_some);
                assert!(
                    !pending_join,
                    "deadlock: joins are pending but no vproc has runnable work"
                );
                break;
            }
            assert!(
                self.rounds < self.round_limit,
                "round limit of {} exceeded; the program appears to run forever \
                 (set the MGC_MAX_ROUNDS environment variable to raise the cap)",
                self.round_limit
            );
        }
        self.report()
    }

    fn run_task(&mut self, vproc: usize, mut task: Task) {
        let mut roots = std::mem::take(&mut task.roots);
        let values = std::mem::take(&mut task.values);
        let delivery = task.delivery;
        let body = task.body;
        let mut delivery_taken = false;
        // Held for the task's run: its reads keep chunk references.
        let global = std::sync::Arc::clone(self.state.heap.global());
        let result = {
            let mut ctx = TaskCtx::new(
                &mut self.state,
                &global,
                vproc,
                &mut roots,
                &values,
                &mut delivery_taken,
                delivery,
            );
            body(&mut ctx)
        };
        self.state.vprocs[vproc].stats.tasks_run += 1;
        self.state.vprocs[vproc]
            .round_cost
            .add_cpu_ns(TASK_OVERHEAD_NS);
        if delivery_taken {
            return;
        }
        let (word, is_ptr) = match result {
            TaskResult::Unit => (0, false),
            TaskResult::Value(w) => (w, false),
            TaskResult::Ptr(handle) => (
                self.state.resolve_addr(roots.slots()[handle.index()]).raw(),
                true,
            ),
        };
        match delivery {
            Delivery::Discard => {
                // The root task's result is remembered for the caller; any
                // pointer is promoted so it survives subsequent collections.
                if word != 0 || is_ptr {
                    let word = if is_ptr {
                        self.state.promote_for_root(word)
                    } else {
                        word
                    };
                    self.state.root_result = Some((word, is_ptr));
                }
            }
            other => self.state.deliver(vproc, other, word, is_ptr),
        }
    }

    fn run_global_gc(&mut self) {
        let num_vprocs = self.state.num_vprocs();
        // Machine-global structures may hold pointers into any vproc's local
        // heap; promote those first so that each vproc's root set below only
        // needs to cover its own structures.
        self.state.globalise_shared_roots();
        // Gather per-vproc root sets: the running tasks are all quiescent at
        // this point (safe point), so the deques, joins, and channels hold
        // every root.
        let mut roots_per_vproc: Vec<Vec<Addr>> = Vec::with_capacity(num_vprocs);
        for vproc in 0..num_vprocs {
            // Machine-global structures (joins, channels, proxies, the root
            // result) are handed to vproc 0 only, so they are traced once.
            let extra: Vec<Addr> = Vec::new();
            if vproc == 0 {
                roots_per_vproc.push(self.state.gather_roots(0, &extra));
            } else {
                let roots: Vec<Addr> = self.state.vprocs[vproc]
                    .deque
                    .iter()
                    .flat_map(|t| t.roots.slots().iter().copied())
                    .collect();
                roots_per_vproc.push(roots);
            }
        }

        let outcome = self
            .state
            .collector
            .global(&mut self.state.heap, &mut roots_per_vproc);

        // Scatter the rewritten roots back.
        for vproc in (1..num_vprocs).rev() {
            let roots = &roots_per_vproc[vproc];
            let mut cursor = 0;
            for task in self.state.vprocs[vproc].deque.iter_mut() {
                for slot in task.roots.slots_mut() {
                    *slot = roots[cursor];
                    cursor += 1;
                }
            }
            debug_assert_eq!(cursor, roots.len());
        }
        let mut extra: Vec<Addr> = Vec::new();
        self.state.scatter_roots(0, &mut extra, &roots_per_vproc[0]);

        // The sequential collector attributes one virtual cost per vproc.
        // With a pause budget configured, model the threaded backend's
        // incremental shape: the cost is sliced into equal increments no
        // longer than the budget, each recorded as its own pause (the bound
        // is exact here — virtual increments carry no ramp-down slack).
        // Total virtual time is unchanged either way.
        let budget_ns = self.config.gc.pause_budget_us.map(|us| us as f64 * 1e3);
        for (vproc, cost) in outcome.per_vproc_cost.iter().enumerate() {
            self.state.charge_gc_cost(vproc, cost);
            let increments = match budget_ns {
                Some(budget) if budget > 0.0 => (cost.cpu_ns / budget).ceil().max(1.0),
                _ => 1.0,
            };
            let slice = cost.cpu_ns / increments;
            for _ in 0..increments as u64 {
                self.state.vprocs[vproc].stats.pauses.record(slice);
                self.state
                    .collector
                    .vproc_stats_mut(vproc)
                    .global_pauses
                    .record(slice);
            }
        }
    }

    fn close_round(&mut self) {
        let num_nodes = self.state.num_nodes();
        let costs: Vec<VprocRoundCost> = self
            .state
            .vprocs
            .iter_mut()
            .map(|vp| vp.take_round_cost(num_nodes))
            .collect();
        if costs.iter().all(VprocRoundCost::is_idle) {
            return;
        }
        let breakdown = self.model.round_duration(&costs);
        self.clock_ns += breakdown.duration_ns;
        self.state.clock_base_ns = self.clock_ns;
        self.rounds += 1;
        for (vproc, cost) in costs.iter().enumerate() {
            self.state.vprocs[vproc].stats.busy_ns += self.model.serial_cost_ns(cost);
        }
    }

    fn report(&self) -> RunReport {
        let (allocated_objects, allocated_words) = (0..self.state.num_vprocs())
            .map(|v| self.state.heap.local(v).stats())
            .fold((0, 0), |(objs, words), s| {
                (
                    objs + s.nursery_allocated_objects,
                    words + s.nursery_allocated_words,
                )
            });
        let mut per_vproc: Vec<VprocRunStats> =
            self.state.vprocs.iter().map(|vp| vp.stats).collect();
        let mut placement_decisions = Vec::new();
        if let Some(controllers) = &self.state.adaptive {
            for (vproc, controller) in controllers.iter().enumerate() {
                per_vproc[vproc].placement_switches = controller.switches();
                placement_decisions.extend(
                    controller
                        .decisions()
                        .iter()
                        .map(|&decision| VprocPlacementDecision { vproc, decision }),
                );
            }
        }
        RunReport {
            elapsed_ns: self.clock_ns,
            wall_clock_ns: None,
            rounds: self.rounds,
            vprocs: self.state.num_vprocs(),
            allocated_objects,
            allocated_words,
            per_vproc,
            gc: self.state.collector.aggregate_stats(),
            traffic: self.state.traffic,
            placement_decisions,
        }
    }

    /// Total virtual time elapsed so far, in nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }
}

impl crate::executor::Executor for Machine {
    fn backend(&self) -> crate::executor::Backend {
        crate::executor::Backend::Simulated
    }

    fn register_descriptor(&mut self, descriptor: Descriptor) -> DescriptorId {
        Machine::register_descriptor(self, descriptor)
    }

    fn create_channel(&mut self) -> ChannelId {
        Machine::create_channel(self)
    }

    fn spawn_root(&mut self, spec: TaskSpec) {
        Machine::spawn_root(self, spec)
    }

    fn run(&mut self) -> RunReport {
        Machine::run(self)
    }

    fn take_result(&mut self) -> Option<(Word, bool)> {
        Machine::take_result(self)
    }

    fn channel_stats(&self) -> ChannelStats {
        Machine::channel_stats(self)
    }
}

impl RuntimeState {
    fn promote_for_root(&mut self, word: Word) -> Word {
        let addr = Addr::new(word);
        if !self.heap.is_local(addr) {
            return word;
        }
        let owner = self.heap.space_of(addr).vproc().unwrap_or(0);
        let (new, outcome) = self.collector.promote(&mut self.heap, owner, addr);
        self.charge_gc_cost(owner, &outcome.cost);
        new.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{RootSet, TaskResult};
    use mgc_heap::i64_to_word;

    #[test]
    fn machine_construction_spreads_vprocs() {
        let machine = Machine::new(MachineConfig::small_for_tests(2));
        assert_eq!(machine.heap().num_vprocs(), 2);
        // Two vprocs on a two-node machine land on different nodes.
        assert_ne!(
            machine.heap().local(0).node(),
            machine.heap().local(1).node()
        );
    }

    #[test]
    fn run_single_task_produces_result() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        machine.spawn_root(TaskSpec::new("answer", |ctx| {
            ctx.work(10);
            TaskResult::Value(i64_to_word(42))
        }));
        let report = machine.run();
        assert_eq!(machine.take_result(), Some((i64_to_word(42), false)));
        assert_eq!(report.total_tasks(), 1);
        assert!(report.elapsed_ns > 0.0);
    }

    #[test]
    fn empty_machine_runs_to_completion() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(2));
        let report = machine.run();
        assert_eq!(report.total_tasks(), 0);
        assert_eq!(report.elapsed_ns, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one vproc")]
    fn zero_vprocs_rejected() {
        let _ = MachineConfig::new(Topology::dual_node_test(), 0);
    }

    /// Runs `body` as vproc 0's task over `roots`.
    fn on_vproc0<R>(
        state: &mut RuntimeState,
        roots: &mut RootSet,
        body: impl FnOnce(&mut TaskCtx<'_>) -> R,
    ) -> R {
        let mut delivery_taken = false;
        let global = state.heap.global().clone();
        let mut ctx = TaskCtx::new(
            state,
            &global,
            0,
            roots,
            &[],
            &mut delivery_taken,
            Delivery::Discard,
        );
        body(&mut ctx)
    }

    /// A simulated read is charged where it lands: vproc 0 (node 0) reads
    /// through a root naming its own local original, which a promotion
    /// forwarded to a chunk on node 1, so the bytes go to the node-1 copy's
    /// access class at the global miss rate — not to the local original's.
    #[test]
    fn a_simulated_read_charges_where_the_read_lands() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(2));
        let state = &mut machine.state;
        let original = state.heap.alloc_raw(0, &[10, 20, 30]).unwrap();
        let copy = state.promote_for(1, original, PromoteWhy::Steal);
        assert_eq!(state.heap.forwarded_to(original), Some(copy));
        assert!(state.heap.is_global(copy));
        assert_eq!(state.heap.node_of(copy), NodeId::new(1));
        let remote = AccessClass::CrossPackage as usize;
        assert_eq!(
            state.access_class(NodeId::new(0), NodeId::new(1)) as usize,
            remote
        );
        assert_eq!(state.traffic.mutator_bytes, [0; 3]);

        let mut roots = RootSet::default();
        roots.push(original);
        let word = on_vproc0(state, &mut roots, |ctx| ctx.read_raw(ctx.input(0), 1));
        assert_eq!(word, 20, "the copy's word");
        assert_eq!(roots.slots(), [copy], "the root slot now names the copy");
        // ceil(8 bytes x 0.65 global miss rate) = 6.
        let mut expected = [0; 3];
        expected[remote] = 6;
        assert_eq!(machine.report().traffic.mutator_bytes, expected);

        let state = &mut machine.state;
        let len = on_vproc0(state, &mut roots, |ctx| ctx.len(ctx.input(0)));
        assert_eq!(len, 3);
        assert_eq!(state.traffic.mutator_bytes, expected, "len is not charged");

        let words = on_vproc0(state, &mut roots, |ctx| ctx.read_words(ctx.input(0)));
        assert_eq!(words, [10, 20, 30]);
        // The header's total_bytes(), 32: ceil(32 x 0.65) = 21.
        expected[remote] += 21;
        assert_eq!(machine.report().traffic.mutator_bytes, expected);
    }

    /// A read served from the object the previous read located charges what
    /// a resolving read charges: three reads of the node-1 copy through one
    /// context, two of them remembered, record three reads' traffic in the
    /// run report and three reads' compute, as three reads through three
    /// contexts (each one resolving) do.
    #[test]
    fn a_remembered_read_is_charged_like_a_resolving_one() {
        let run = |reads_per_context: usize| {
            let mut machine = Machine::new(MachineConfig::small_for_tests(2));
            let state = &mut machine.state;
            let original = state.heap.alloc_raw(0, &[10, 20, 30]).unwrap();
            state.promote_for(1, original, PromoteWhy::Steal);
            let mut roots = RootSet::default();
            roots.push(original);
            let mut words = Vec::new();
            for first in (0..3).step_by(reads_per_context) {
                on_vproc0(state, &mut roots, |ctx| {
                    let fields = first..first + reads_per_context;
                    words.extend(fields.map(|i| ctx.read_raw(ctx.input(0), i)));
                });
            }
            assert_eq!(words, [10, 20, 30]);
            let cpu_ns = machine.state.vprocs[0].round_cost.cpu_ns;
            (machine.report().traffic.mutator_bytes, cpu_ns)
        };
        let (traffic, cpu_ns) = run(3);
        // ceil(8 bytes x 0.65 global miss rate) = 6 per read, cross-package.
        let mut expected = [0; 3];
        expected[AccessClass::CrossPackage as usize] = 3 * 6;
        assert_eq!(traffic, expected);
        assert_eq!((traffic, cpu_ns), run(1));
    }

    /// An allocation that runs a minor collection between two reads: the
    /// second read finds the copy the collection made.
    #[test]
    fn a_remembered_read_after_an_allocation_that_collects() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        let state = &mut machine.state;
        let obj = state.heap.alloc_raw(0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let free = state.heap.local(0).nursery_free_words();
        let mut roots = RootSet::default();
        roots.push(obj);
        let reads = on_vproc0(state, &mut roots, |ctx| {
            let handle = ctx.input(0);
            let first = ctx.read_raw(handle, 1);
            // One word more than the nursery has left.
            ctx.alloc_raw(&vec![0; free]);
            (first, ctx.read_raw(handle, 7))
        });
        assert_eq!(reads, (2, 8));
        assert_eq!(state.collector.vproc_stats(0).minor_collections, 1);
        assert_ne!(
            roots.slots()[0],
            obj,
            "the slot names the collection's copy"
        );
    }

    /// `send` promotes the message: a local original the last read located
    /// is now forwarded, and the next read follows it to the global copy and
    /// rewrites the slot. Fails if `send` keeps the remembered location.
    #[test]
    fn a_remembered_read_after_send_promotes_the_object() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        let channel = machine.create_channel();
        let state = &mut machine.state;
        let obj = state.heap.alloc_raw(0, &[1, 2, 3]).unwrap();
        let mut roots = RootSet::default();
        roots.push(obj);
        on_vproc0(state, &mut roots, |ctx| {
            let handle = ctx.input(0);
            assert_eq!(ctx.read_raw(handle, 0), 1);
            ctx.send(channel, handle);
            assert_eq!(ctx.read_raw(handle, 1), 2);
        });
        assert!(state.heap.is_global(roots.slots()[0]));
    }

    /// The simulated backend's global collection runs between rounds with
    /// every task quiescent, so a running mutator never meets a global
    /// forwarding word and its resolve never reads a global header: a word
    /// forged into a promoted object's header is not followed, while a
    /// forwarded local original is still chased to its copy. Fails if
    /// `RuntimeState::locate` passes `true`.
    #[test]
    fn global_headers_are_never_followed_on_the_simulated_backend() {
        use mgc_heap::{Header, ObjectKind};

        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        let state = &mut machine.state;
        let local = state.heap.alloc_raw(0, &[1, 2, 3]).unwrap();
        let promoted = state.ensure_global(local);
        let decoy = state
            .heap
            .alloc_in_global(0, Header::new(ObjectKind::Raw, 3).encode(), &[7, 8, 9])
            .unwrap();
        let header = state.heap.header_of(promoted).encode();
        state
            .heap
            .worker_mut(0)
            .cas_forward_global(promoted, header, decoy)
            .unwrap();
        assert_eq!(state.heap.forwarded_to(promoted), Some(decoy));

        assert_eq!(state.resolve_addr(promoted), promoted);
        assert_eq!(state.resolve_addr(local), promoted, "local, then stop");
        let mut roots = RootSet::default();
        roots.push(promoted);
        roots.push(local);
        let (own, copied) = on_vproc0(state, &mut roots, |ctx| {
            (ctx.read_raw(ctx.input(0), 2), ctx.read_raw(ctx.input(1), 0))
        });
        assert_eq!((own, copied), (3, 1), "the object's own payload");
        assert_eq!(
            roots.slots(),
            [promoted, promoted],
            "the global slot is unchanged; the local one now holds the copy"
        );
    }
}
