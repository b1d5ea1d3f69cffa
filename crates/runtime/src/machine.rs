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
use crate::stats::RunReport;
use crate::task::{Delivery, JoinCell, Task, TaskResult, TaskSpec};
use crate::threaded::PromoteWhy;
use crate::vproc::VProc;
use mgc_core::{Collector, GcConfig};
use mgc_heap::{
    Addr, Descriptor, DescriptorId, GcHeap, Heap, HeapConfig, HeapError, Resolved,
    SharedGlobalHeap, Word,
};
use mgc_numa::{
    AccessClass, AllocPolicy, MemoryModel, NodeId, PlacementPolicy, Topology, TrafficStats,
    VprocRoundCost,
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

/// `x.ceil() as u64` in integer arithmetic, exact for finite `0 <= x < 2^53`
/// (the truncation is then the floor, and converting it back is exact).
/// [`DramTable`] rounds DRAM bytes up this way; baseline x86-64 has no
/// `roundsd`, so `f64::ceil` would be a library call per object size.
#[inline]
fn ceil_to_u64(x: f64) -> u64 {
    let t = x as u64;
    if (t as f64) < x {
        t + 1
    } else {
        t
    }
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

/// Which of a [`MutatorCostModel`]'s miss rates a charge applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Miss {
    Local,
    Global,
    Alloc,
}

impl Miss {
    const ALL: [Miss; 3] = [Miss::Local, Miss::Global, Miss::Alloc];

    /// The rate of a read of a local (`true`) or global object.
    fn of_read(local: bool) -> Miss {
        if local {
            Miss::Local
        } else {
            Miss::Global
        }
    }

    fn rate(self, costs: &MutatorCostModel) -> f64 {
        match self {
            Miss::Local => costs.local_heap_miss_rate,
            Miss::Global => costs.global_heap_miss_rate,
            Miss::Alloc => costs.alloc_miss_rate,
        }
    }
}

/// Accesses of fewer words than this (header included) have their DRAM
/// bytes tabulated: a rope leaf is 257.
const DRAM_TABLE_WORDS: usize = 512;

/// The DRAM bytes of a mutator access of `words` words at each miss rate,
/// `ceil(words × 8 × rate)`: tabulated once per machine for the sizes
/// objects have, computed past the table's end.
#[derive(Debug)]
struct DramTable {
    costs: MutatorCostModel,
    rows: Vec<[u64; 3]>,
}

impl DramTable {
    fn new(costs: MutatorCostModel) -> Self {
        let rows = (0..DRAM_TABLE_WORDS)
            .map(|words| Miss::ALL.map(|miss| Self::compute(&costs, words, miss)))
            .collect();
        DramTable { costs, rows }
    }

    fn compute(costs: &MutatorCostModel, words: usize, miss: Miss) -> u64 {
        ceil_to_u64((words * 8) as f64 * miss.rate(costs))
    }

    #[inline]
    fn bytes(&self, words: usize, miss: Miss) -> u64 {
        match self.rows.get(words) {
            Some(row) => row[miss as usize],
            None => Self::compute(&self.costs, words, miss),
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
    /// `topology.access_class(src, dst)` at `src * num_nodes + dst`, built
    /// once per machine.
    access_classes: Vec<AccessClass>,
    /// The mutator cost model's DRAM bytes per access size.
    dram: DramTable,
    /// The running context's one-word accesses not yet charged as traffic,
    /// at `2 * node + local` ([`RuntimeState::charge_access`]'s fold rule).
    word_reads: Vec<u64>,
    pub(crate) traffic: TrafficStats,
    pub(crate) ns_per_op: f64,
    /// The machine's virtual clock as of the **start** of the current round
    /// (the scheduler advances the real clock only at round close). A vproc's
    /// mid-round "now" is this base plus the compute it has charged so far
    /// this round — monotone, deterministic, and good enough for open-loop
    /// arrival schedules and latency sampling.
    pub(crate) clock_base_ns: f64,
    pub(crate) root_result: Option<(Word, bool)>,
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
        let ns = self.work_ns(ops);
        self.vprocs[vproc].round_cost.add_cpu_ns(ns);
    }

    /// The compute time of `ops` machine operations.
    #[inline(always)]
    pub(crate) fn work_ns(&self, ops: u64) -> f64 {
        ops as f64 * self.ns_per_op
    }

    /// `vproc`'s current virtual time: the machine clock at the start of the
    /// round plus the compute this vproc has charged so far within it.
    /// Monotone over a vproc's execution and fully deterministic.
    pub(crate) fn now_ns(&self, vproc: usize) -> f64 {
        self.clock_base_ns + self.vprocs[vproc].round_cost.cpu_ns
    }

    /// The compute `vproc` has charged so far this round: what a read
    /// scope copies when it starts and adds its reads to.
    #[inline(always)]
    pub(crate) fn cpu_ns(&self, vproc: usize) -> f64 {
        self.vprocs[vproc].round_cost.cpu_ns
    }

    /// Stores `vproc`'s compute this round, as [`RuntimeState::cpu_ns`]
    /// read it plus the charges added since.
    #[inline(always)]
    pub(crate) fn settle_cpu_ns(&mut self, vproc: usize, cpu_ns: f64) {
        self.vprocs[vproc].round_cost.cpu_ns = cpu_ns;
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

    /// Charges `accesses` mutator accesses by `vproc`, one after another,
    /// of `words` words each of an object on `node`, in a local heap or
    /// (`local` false) the global heap, applying the cache model:
    /// `ceil(words × 8 × miss rate)` DRAM bytes to `node` and one operation
    /// of compute per word, added to `cpu_ns` — `vproc`'s compute this
    /// round ([`RuntimeState::cpu_ns`]), held by the caller until it
    /// settles it. [`RuntimeState::locate`] supplies the node and the
    /// region.
    ///
    /// The fold rule: a one-word access — every field read — adds its
    /// compute now and only counts itself for its `(node, local)`.
    /// [`RuntimeState::fold_word_reads`] charges each count's traffic as
    /// `count × ceil(8 × rate)` bytes when the task's context ends, so
    /// before the scheduler's quantum check reads the round cost. The sums
    /// are integers and the compute is added in the same order, so the
    /// round cost, the run's [`TrafficStats`] and virtual time are exactly
    /// what charging each access at once gave. A wider access charges its
    /// traffic at once, from the machine's [`DramTable`].
    #[inline(always)]
    pub(crate) fn charge_access(
        &mut self,
        cpu_ns: &mut f64,
        vproc: usize,
        node: NodeId,
        local: bool,
        words: usize,
        accesses: usize,
    ) {
        match words {
            0 => return,
            1 => self.word_reads[2 * node.index() + local as usize] += accesses as u64,
            _ => {
                let bytes = self.dram.bytes(words, Miss::of_read(local));
                for _ in 0..accesses {
                    self.charge_dram(vproc, node, bytes, bytes / 64);
                }
            }
        }
        // Touching data costs a couple of instructions per word even on a
        // cache hit.
        let ns = self.work_ns(words as u64);
        for _ in 0..accesses {
            *cpu_ns += ns;
        }
    }

    /// Charges the one-word accesses counted since the last fold to
    /// `vproc`, the running context's vproc, and clears the counts. Run
    /// when a simulated [`TaskCtx`] ends.
    pub(crate) fn fold_word_reads(&mut self, vproc: usize) {
        for slot in 0..self.word_reads.len() {
            let count = std::mem::take(&mut self.word_reads[slot]);
            if count > 0 {
                let bytes = self.dram.bytes(1, Miss::of_read(slot % 2 == 1));
                let node = NodeId::new((slot / 2) as u16);
                self.charge_dram(vproc, node, count * bytes, count * (bytes / 64));
            }
        }
    }

    /// Charges the allocation of `words` fresh words by `vproc`.
    pub(crate) fn charge_alloc(&mut self, vproc: usize, words: usize) {
        let node = self.heap.local(vproc).node();
        let bytes = self.dram.bytes(words, Miss::Alloc);
        self.charge_dram(vproc, node, bytes, bytes / 64);
        self.charge_work(vproc, words as u64 * 2);
    }

    /// Adds `bytes` mutator DRAM bytes in `accesses` cache-line accesses
    /// from `vproc` to `node`.
    #[inline]
    fn charge_dram(&mut self, vproc: usize, node: NodeId, bytes: u64, accesses: u64) {
        if bytes == 0 {
            return;
        }
        let class = self.access_class(self.vprocs[vproc].node, node);
        self.traffic.record_mutator(class, bytes);
        let traffic = &mut self.vprocs[vproc].round_cost.traffic_to[node.index()];
        traffic.bytes += bytes;
        traffic.accesses += accesses;
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
    /// deque and, with `shared`, the machine-global structures: every filled
    /// pointer slot of every join cell, every queued channel message, every
    /// proxy and the root result. Every slot of every root set is handed
    /// over and no watermark is ever raised here: only the threaded backend
    /// scans generationally, so this backend's virtual costs stay what they
    /// were.
    fn gather_roots(&self, vproc: usize, extra: &[Addr], shared: bool) -> Vec<Addr> {
        let mut roots: Vec<Addr> = Vec::with_capacity(extra.len() + 16);
        roots.extend_from_slice(extra);
        for task in &self.vprocs[vproc].deque {
            roots.extend_from_slice(task.roots.slots());
        }
        if !shared {
            return roots;
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
    fn scatter_roots(&mut self, vproc: usize, extra: &mut [Addr], roots: &[Addr], shared: bool) {
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
        if !shared {
            debug_assert_eq!(cursor, roots.len());
            return;
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
        let mut roots = self.gather_roots(vproc, extra, true);
        let outcome = self
            .collector
            .collect_local(&mut self.heap, vproc, &mut roots);
        self.scatter_roots(vproc, extra, &roots, true);
        self.charge_gc_cost(vproc, &outcome.cost);
        // A local collection's major phase promotes for the collecting
        // vproc's own benefit: the consumer is the vproc itself.
        let (local, remote) = outcome.promoted_split(self.vprocs[vproc].node);
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
        let (new, outcome) = self.collector.promote(&mut self.heap, owner, addr);
        self.heap
            .set_promotion_target(owner, self.vprocs[owner].node);
        self.charge_gc_cost(owner, &outcome.cost);
        let (local, remote) = outcome.promoted_split(consumer);
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
            let (new, outcome) = self.collector.promote(&mut self.heap, owner, message);
            self.charge_gc_cost(owner, &outcome.cost);
            let (local, remote) = outcome.promoted_split(self.vprocs[owner].node);
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
        let (local, words) = (place.is_local(), place.header().total_words());
        let mut cpu_ns = self.cpu_ns(vproc);
        self.charge_access(&mut cpu_ns, vproc, node, local, words, 1);
        self.settle_cpu_ns(vproc, cpu_ns);
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
                dram: DramTable::new(config.mutator_costs),
                word_reads: vec![0; 2 * topology.num_nodes()],
                topology,
                traffic: TrafficStats::new(),
                ns_per_op,
                clock_base_ns: 0.0,
                root_result: None,
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
                || self.state.collector.needs_global(self.state.heap.global())
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
        // every root. Machine-global structures (joins, channels, proxies,
        // the root result) are handed to vproc 0 only, so they are traced
        // once.
        let mut roots_per_vproc: Vec<Vec<Addr>> = (0..num_vprocs)
            .map(|vproc| self.state.gather_roots(vproc, &[], vproc == 0))
            .collect();

        let outcome = self
            .state
            .collector
            .global(&mut self.state.heap, &mut roots_per_vproc);

        for (vproc, roots) in roots_per_vproc.iter().enumerate() {
            self.state.scatter_roots(vproc, &mut [], roots, vproc == 0);
        }

        // One driver thread ran every vproc's phases of the threaded
        // collection and charged each vproc its share: one virtual cost per
        // vproc. With a pause budget configured, model the threaded backend's
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
        RunReport {
            elapsed_ns: self.clock_ns,
            wall_clock_ns: None,
            rounds: self.rounds,
            vprocs: self.state.num_vprocs(),
            allocated_objects,
            allocated_words,
            per_vproc: self.state.vprocs.iter().map(|vp| vp.stats).collect(),
            gc: self.state.collector.aggregate_stats(),
            traffic: self.state.traffic,
        }
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
    use crate::ctx::{alloc_checks, read_checks, scope_checks, FieldInit};
    use crate::task::{Handle, RootSet, TaskResult};
    use mgc_heap::{f64_to_word, i64_to_word, word_to_f64};
    use mgc_numa::Traffic;

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
        assert_eq!(
            state.heap.locate(original).header_slot().forwarded_to(),
            Some(copy)
        );
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

    // Handle reads across an operation that moves objects: each test reads
    // an object, runs one such operation, and reads it again through the
    // same context.

    /// An allocation that runs a minor collection between two reads: the
    /// second read finds the copy the collection made.
    #[test]
    fn a_handle_read_after_an_allocation_that_collects() {
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

    /// `send` promotes the message: a local original the first read located
    /// is now forwarded, and the next read follows it to the global copy and
    /// rewrites the slot.
    #[test]
    fn a_handle_read_after_send_promotes_the_object() {
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

    /// SplitMix64 over `seed`.
    fn split_mix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// The integer ceil the DRAM table rounds with agrees with `f64::ceil`
    /// on every byte count up to 1 MiB at the three default miss rates, and
    /// on random byte counts at 1,000 seeded random rates in [0, 1].
    #[test]
    fn ceil_to_u64_matches_f64_ceil() {
        let check = |bytes: usize, rate: f64| {
            let x = bytes as f64 * rate;
            assert_eq!(ceil_to_u64(x), x.ceil() as u64, "{bytes} bytes x {rate}");
        };
        let costs = MutatorCostModel::default();
        let defaults = [
            costs.local_heap_miss_rate,
            costs.global_heap_miss_rate,
            costs.alloc_miss_rate,
        ];
        for bytes in 0..=1 << 20 {
            for rate in defaults {
                check(bytes, rate);
            }
        }
        let mut next = split_mix(0x5eed);
        for _ in 0..1_000 {
            let rate = (next() >> 11) as f64 / (1u64 << 53) as f64;
            for bytes in [0, 1, 8, 64, 1 << 20] {
                check(bytes, rate);
            }
            for _ in 0..1_000 {
                check((next() % ((1 << 20) + 1)) as usize, rate);
            }
        }
        check(1 << 20, 1.0);
    }

    /// Charges one access the way the simulator charged each access before
    /// one-word reads were folded: `ceil(bytes × rate)` DRAM bytes to
    /// `node` (one line per 64 of them) and `ops` operations of compute.
    struct PerAccess {
        ns_per_op: f64,
        cpu_ns: f64,
        traffic_to: Vec<Traffic>,
        mutator_bytes: [u64; 3],
    }

    impl PerAccess {
        fn charge(&mut self, node: usize, class: AccessClass, bytes: usize, rate: f64, ops: u64) {
            let dram = (bytes as f64 * rate).ceil() as u64;
            self.traffic_to[node].add(Traffic::new(dram, dram / 64));
            self.mutator_bytes[class as usize] += dram;
            self.cpu_ns += ops as f64 * self.ns_per_op;
        }
    }

    /// One-word reads are counted and folded into the round cost when the
    /// context ends, exactly: one context reads local and global objects on
    /// both nodes, with compute, a bulk read and an allocation that runs a
    /// minor collection in between, and the round's traffic per node, the
    /// run's mutator bytes per class and the compute's bits are what
    /// charging every access at once gives.
    #[test]
    fn one_word_reads_fold_exactly_when_the_context_ends() {
        use mgc_heap::{Header, ObjectKind};

        let mut machine = Machine::new(MachineConfig::small_for_tests(2));
        let state = &mut machine.state;
        let in_global = |state: &mut RuntimeState, vproc: usize, payload: &[Word]| {
            let header = Header::new(ObjectKind::Raw, payload.len() as u64).encode();
            state.heap.alloc_in_global(vproc, header, payload).unwrap()
        };
        let objects = [
            state.heap.alloc_raw(0, &[1, 2, 3]).unwrap(),
            in_global(state, 0, &[4, 5]),
            in_global(state, 1, &[6, 7, 8, 9]),
            state.heap.alloc_raw(1, &[10, 11]).unwrap(),
        ];
        let (node0, node1) = (NodeId::new(0), NodeId::new(1));
        let placed: Vec<_> = objects
            .iter()
            .map(|&o| (state.heap.node_of(o), state.heap.is_local(o)))
            .collect();
        assert_eq!(
            placed,
            [(node0, true), (node0, false), (node1, false), (node1, true)]
        );
        let free = state.heap.local(0).nursery_free_words();
        let mut roots = RootSet::default();
        for object in objects {
            roots.push(object);
        }
        let mut buffer = Vec::new();
        let sum = on_vproc0(state, &mut roots, |ctx| {
            let [local0, global0, global1, local1] = [0, 1, 2, 3].map(|i| ctx.input(i));
            let mut sum = ctx.read_raw(local0, 0) + ctx.read_raw(global1, 3);
            sum += ctx.read_raw(local1, 1) + ctx.read_raw(global0, 0);
            ctx.work(17);
            sum += ctx.read_raw(global1, 0) + ctx.read_raw(local1, 0);
            ctx.read_words_into(global1, &mut buffer);
            sum += ctx.read_raw(global0, 1);
            // Vproc 1's object leaves the roots before vproc 0 collects.
            ctx.truncate_roots(3);
            // One word more than the nursery has left.
            ctx.alloc_raw(&vec![0; free]);
            sum + ctx.read_raw(local0, 2) + ctx.read_raw(global0, 1) + ctx.read_raw(local0, 1)
        });
        assert_eq!(sum, 1 + 9 + 11 + 4 + 6 + 10 + 5 + 3 + 5 + 2);
        assert_eq!(buffer, [6, 7, 8, 9]);
        assert_eq!(state.collector.vproc_stats(0).minor_collections, 1);

        // The per-access charges in program order, with the collection's
        // compute (its one recorded pause) where the allocation ran it.
        let costs = MutatorCostModel::default();
        let (local, global) = (costs.local_heap_miss_rate, costs.global_heap_miss_rate);
        let (near, far) = (AccessClass::Local, AccessClass::CrossPackage);
        let mut expected = PerAccess {
            ns_per_op: state.ns_per_op,
            cpu_ns: 0.0,
            traffic_to: vec![Traffic::default(); 2],
            mutator_bytes: [0; 3],
        };
        let read = |e: &mut PerAccess, node: usize, rate: f64| {
            let class = if node == 0 { near } else { far };
            e.charge(node, class, 8, rate, 1);
        };
        read(&mut expected, 0, local);
        read(&mut expected, 1, global);
        read(&mut expected, 1, local);
        read(&mut expected, 0, global);
        expected.cpu_ns += 17.0 * state.ns_per_op;
        read(&mut expected, 1, global);
        read(&mut expected, 1, local);
        expected.charge(1, far, 5 * 8, global, 5);
        read(&mut expected, 0, global);
        let pauses = state.vprocs[0].stats.pauses;
        assert_eq!(pauses.count, 1);
        expected.cpu_ns += pauses.max_ns;
        let alloc_words = free + 1;
        let alloc_ops = alloc_words as u64 * 2;
        expected.charge(0, near, alloc_words * 8, costs.alloc_miss_rate, alloc_ops);
        read(&mut expected, 0, local);
        read(&mut expected, 0, global);
        read(&mut expected, 0, local);

        // The collection's own traffic, all from vproc 0 on node 0.
        let gc = state.traffic.gc_bytes;
        assert_eq!(gc[AccessClass::SamePackage as usize], 0);
        expected.traffic_to[0].bytes += gc[near as usize];
        expected.traffic_to[1].bytes += gc[far as usize];

        let round = &state.vprocs[0].round_cost;
        assert_eq!(round.traffic_to, expected.traffic_to);
        assert_eq!(state.traffic.mutator_bytes, expected.mutator_bytes);
        assert_eq!(round.cpu_ns.to_bits(), expected.cpu_ns.to_bits());
        assert!(state.vprocs[1].round_cost.is_idle());
        assert_eq!(state.word_reads, [0; 4], "the fold clears the counts");
    }

    /// A task's one-word reads are in its vproc's round cost by the time
    /// `Machine::run` checks the quantum: with the quantum between the
    /// task's serial cost without its reads' traffic and with it, the task
    /// ends the round and the task it spawned runs in a second one.
    #[test]
    fn folded_reads_count_at_the_quantum_check() {
        const READS: usize = 1_000;
        fn body(ctx: &mut TaskCtx<'_>) -> TaskResult {
            let object = ctx.alloc_raw(&[1, 2, 3]);
            ctx.send(ChannelId(0), object);
            let sum: Word = (0..READS).map(|i| ctx.read_raw(object, i % 3)).sum();
            ctx.spawn(TaskSpec::new("second", |_| TaskResult::Unit), &[]);
            TaskResult::Value(sum)
        }

        // The root task's round cost, from a context driven by hand.
        let mut probe = Machine::new(MachineConfig::small_for_tests(1));
        probe.create_channel();
        on_vproc0(&mut probe.state, &mut RootSet::default(), body);
        let mut with = probe.state.vprocs[0].round_cost.clone();
        with.add_cpu_ns(TASK_OVERHEAD_NS);
        let mut without = with.clone();
        let global = MutatorCostModel::default().global_heap_miss_rate;
        let reads_bytes = READS as u64 * (8.0 * global).ceil() as u64;
        let message = probe.state.channels[0].queue[0];
        let node = probe.state.heap.node_of(message);
        without.traffic_to[node.index()].bytes -= reads_bytes;
        let (with, without) = (
            probe.model.serial_cost_ns(&with),
            probe.model.serial_cost_ns(&without),
        );
        assert!(without < with, "{without} < {with}");

        let mut config = MachineConfig::small_for_tests(1);
        config.quantum_ns = (with + without) / 2.0;
        let mut machine = Machine::new(config);
        machine.create_channel();
        machine.spawn_root(TaskSpec::new("reads", body));
        let report = machine.run();
        assert_eq!(report.total_tasks(), 2);
        assert_eq!(report.rounds, 2, "the reads end the first round");
    }

    /// Every entry of the DRAM table, and the first size past it, is
    /// `ceil_to_u64(bytes × rate)` at the three default miss rates and at
    /// 1,000 seeded random rates in [0, 1].
    #[test]
    fn dram_table_matches_ceil_to_u64() {
        let check = |costs: MutatorCostModel| {
            let table = DramTable::new(costs);
            for words in 0..=DRAM_TABLE_WORDS {
                for miss in Miss::ALL {
                    let bytes = words * 8;
                    let rate = miss.rate(&costs);
                    let expected = ceil_to_u64(bytes as f64 * rate);
                    assert_eq!(table.bytes(words, miss), expected, "{bytes} bytes x {rate}");
                }
            }
        };
        check(MutatorCostModel::default());
        let mut next = split_mix(0x7ab1e);
        let mut rate = || (next() >> 11) as f64 / (1u64 << 53) as f64;
        for _ in 0..1_000 {
            check(MutatorCostModel {
                local_heap_miss_rate: rate(),
                global_heap_miss_rate: rate(),
                alloc_miss_rate: rate(),
            });
        }
    }

    /// `read_words_into` appends exactly the words `read_words` returns,
    /// after what the buffer already holds, for a local object, a global
    /// one, and a promoted local original read through its forwarding word.
    #[test]
    fn read_words_into_appends_what_read_words_returns() {
        use mgc_heap::{Header, ObjectKind};

        let mut machine = Machine::new(MachineConfig::small_for_tests(2));
        let state = &mut machine.state;
        let local = state.heap.alloc_raw(0, &[1, 2, 3]).unwrap();
        let global = state
            .heap
            .alloc_in_global(0, Header::new(ObjectKind::Raw, 2).encode(), &[4, 5])
            .unwrap();
        let original = state.heap.alloc_raw(0, &[6, 7, 8, 9]).unwrap();
        let promoted = state.promote_for(1, original, PromoteWhy::Steal);
        assert!(state.heap.is_local(local));
        assert!(state.heap.is_global(global) && state.heap.is_global(promoted));
        let mut roots = RootSet::default();
        for addr in [local, global, original] {
            roots.push(addr);
        }
        on_vproc0(state, &mut roots, |ctx| {
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

    /// N `read_words_into` calls into one reused buffer charge exactly what
    /// N `read_words` calls charge: the run's traffic and its virtual
    /// elapsed time are bit-identical, for a local and a promoted object.
    #[test]
    fn read_words_into_is_charged_like_read_words() {
        let run = |into: bool| {
            let mut machine = Machine::new(MachineConfig::small_for_tests(2));
            let channel = machine.create_channel();
            machine.spawn_root(TaskSpec::new("bulk-reads", move |ctx| {
                let local = ctx.alloc_raw(&[1, 2, 3, 4, 5]);
                let promoted = ctx.alloc_raw(&[6, 7, 8]);
                ctx.send(channel, promoted);
                let mut words = Vec::new();
                let mut sum = 0u64;
                for _ in 0..100 {
                    for handle in [local, promoted] {
                        if into {
                            words.clear();
                            ctx.read_words_into(handle, &mut words);
                        } else {
                            words = ctx.read_words(handle);
                        }
                        sum += words.iter().sum::<u64>();
                    }
                }
                TaskResult::Value(sum)
            }));
            let report = machine.run();
            let result = machine.take_result();
            (report.traffic, report.elapsed_ns.to_bits(), result)
        };
        let (traffic, elapsed, result) = run(true);
        assert_eq!(result, Some((100 * (15 + 21), false)));
        assert!(traffic.mutator_bytes.iter().sum::<u64>() > 0);
        assert_eq!((traffic, elapsed, result), run(false));
    }

    // Runs of fields (`ctx::read_checks` holds the bodies; the threaded
    // backend runs the same ones).

    /// A machine with the checks' node descriptor and one channel.
    fn machine_for_read_checks() -> (Machine, DescriptorId, ChannelId) {
        let mut machine = Machine::new(MachineConfig::small_for_tests(2));
        let desc = machine.register_descriptor(Descriptor::new("node", 7, 0b1111));
        let channel = machine.create_channel();
        (machine, desc, channel)
    }

    #[test]
    fn read_fields_match_single_reads_on_a_local_object() {
        let (mut machine, desc, _) = machine_for_read_checks();
        let mut roots = RootSet::default();
        on_vproc0(&mut machine.state, &mut roots, |ctx| {
            read_checks::match_on_a_local_object(ctx, desc)
        });
    }

    #[test]
    fn read_fields_match_single_reads_on_a_promoted_object() {
        let (mut machine, desc, channel) = machine_for_read_checks();
        let mut roots = RootSet::default();
        on_vproc0(&mut machine.state, &mut roots, |ctx| {
            read_checks::match_on_a_promoted_object(ctx, desc, channel)
        });
    }

    #[test]
    fn read_fields_match_single_reads_after_an_allocation_that_collects() {
        let (mut machine, desc, _) = machine_for_read_checks();
        let mut roots = RootSet::default();
        on_vproc0(&mut machine.state, &mut roots, |ctx| {
            read_checks::match_after_an_allocation_that_collects(ctx, desc)
        });
        let stats = machine.state.collector.vproc_stats(0);
        assert_eq!(stats.minor_collections, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "read past the end")]
    fn read_fields_past_the_end_panics_in_debug_builds() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        let mut roots = RootSet::default();
        on_vproc0(
            &mut machine.state,
            &mut roots,
            read_checks::read_past_the_end,
        );
    }

    /// A Barnes-Hut node visit by runs — `read_fields` of three fields,
    /// compute, `read_ptrs` of four — charges exactly what seven single
    /// reads charge: the run's traffic and its virtual elapsed time are
    /// bit-identical, on a local and a promoted node. Fails if a run is
    /// charged as one bulk read.
    #[test]
    fn read_fields_is_charged_like_n_read_raws() {
        let run = |runs: bool| {
            let (mut machine, desc, channel) = machine_for_read_checks();
            machine.spawn_root(TaskSpec::new("node-visits", move |ctx| {
                let leaf = Some(ctx.alloc_raw(&[1]));
                let mut node = || {
                    let children = [leaf, None, leaf, None].map(FieldInit::Ptr);
                    let mass = [0.5, 1.5, 2.5].map(FieldInit::F64);
                    ctx.alloc_mixed(desc, &[&children[..], &mass[..]].concat())
                };
                let (local, promoted) = (node(), node());
                ctx.send(channel, promoted);
                let mut sum = 0.0;
                for _ in 0..100 {
                    for handle in [local, promoted] {
                        let mark = ctx.root_mark();
                        let (fields, children) = if runs {
                            let fields: [Word; 3] = ctx.read_fields(handle, 4);
                            ctx.work(16);
                            (fields, ctx.read_ptrs::<4>(handle, 0))
                        } else {
                            let fields = [4, 5, 6].map(|i| ctx.read_raw(handle, i));
                            ctx.work(16);
                            (fields, [0, 1, 2, 3].map(|i| ctx.read_ptr(handle, i)))
                        };
                        sum += fields.map(word_to_f64).iter().sum::<f64>();
                        sum += children.iter().flatten().count() as f64;
                        ctx.truncate_roots(mark);
                    }
                }
                TaskResult::Value(f64_to_word(sum))
            }));
            let report = machine.run();
            let result = machine.take_result();
            (report.traffic, report.elapsed_ns.to_bits(), result)
        };
        let (traffic, elapsed, result) = run(true);
        assert_eq!(result, Some((f64_to_word(200.0 * (4.5 + 2.0)), false)));
        assert!(traffic.mutator_bytes.iter().sum::<u64>() > 0);
        assert_eq!((traffic, elapsed, result), run(false));
    }

    // Read scopes (`ctx::scope_checks` holds the bodies; the threaded
    // backend runs the same ones).

    #[test]
    fn scope_reads_match_handle_reads_on_a_local_object() {
        let (mut machine, desc, _) = machine_for_read_checks();
        let mut roots = RootSet::default();
        on_vproc0(&mut machine.state, &mut roots, |ctx| {
            scope_checks::match_on_a_local_object(ctx, desc)
        });
    }

    #[test]
    fn scope_reads_match_handle_reads_on_a_promoted_object() {
        let (mut machine, desc, channel) = machine_for_read_checks();
        let mut roots = RootSet::default();
        on_vproc0(&mut machine.state, &mut roots, |ctx| {
            scope_checks::match_on_a_promoted_object(ctx, desc, channel)
        });
    }

    #[test]
    fn scope_reads_of_null_children_are_none() {
        let (mut machine, desc, _) = machine_for_read_checks();
        let mut roots = RootSet::default();
        on_vproc0(&mut machine.state, &mut roots, |ctx| {
            scope_checks::null_children_read_as_none(ctx, desc)
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "read past the end")]
    fn scope_reads_past_the_end_panic_in_debug_builds() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        let mut roots = RootSet::default();
        on_vproc0(
            &mut machine.state,
            &mut roots,
            scope_checks::read_past_the_end,
        );
    }

    /// A Barnes-Hut node visit — three fields, compute, four pointers —
    /// through a read scope charges exactly what the same visit through
    /// handle reads charges: traffic and virtual elapsed time are
    /// bit-identical, on a local and a promoted node, though the scope
    /// locates each node once and the handle reads twice.
    #[test]
    fn a_scope_visit_is_charged_like_a_handle_visit() {
        let run = |scope: bool| {
            let (mut machine, desc, channel) = machine_for_read_checks();
            machine.spawn_root(TaskSpec::new("node-visits", move |ctx| {
                let leaf = Some(ctx.alloc_raw(&[1]));
                let mut node = || {
                    let children = [leaf, None, leaf, None].map(FieldInit::Ptr);
                    let mass = [0.5, 1.5, 2.5].map(FieldInit::F64);
                    ctx.alloc_mixed(desc, &[&children[..], &mass[..]].concat())
                };
                let (local, promoted) = (node(), node());
                ctx.send(channel, promoted);
                let mut sum = 0.0;
                for _ in 0..100 {
                    for handle in [local, promoted] {
                        let mark = ctx.root_mark();
                        let (fields, children) = if scope {
                            ctx.read_scope(|r| {
                                let node = r.obj(handle);
                                let fields: [Word; 3] = r.fields(node, 4);
                                r.work(16);
                                let children = r.ptrs::<4>(node, 0).map(|c| c.is_some());
                                (fields, children)
                            })
                        } else {
                            let fields: [Word; 3] = ctx.read_fields(handle, 4);
                            ctx.work(16);
                            (fields, ctx.read_ptrs::<4>(handle, 0).map(|c| c.is_some()))
                        };
                        sum += fields.map(word_to_f64).iter().sum::<f64>();
                        sum += children.iter().filter(|&&c| c).count() as f64;
                        ctx.truncate_roots(mark);
                    }
                }
                TaskResult::Value(f64_to_word(sum))
            }));
            let report = machine.run();
            let result = machine.take_result();
            (report.traffic, report.elapsed_ns.to_bits(), result)
        };
        let (traffic, elapsed, result) = run(true);
        assert_eq!(result, Some((f64_to_word(200.0 * (4.5 + 2.0)), false)));
        assert!(traffic.mutator_bytes.iter().sum::<u64>() > 0);
        assert_eq!((traffic, elapsed, result), run(false));
    }

    /// A scope settles its compute once, when it ends, between charges the
    /// task makes outside it: scope visits interleaved with handle reads,
    /// `work` and allocations that collect now and then leave traffic and
    /// virtual elapsed time bit-identical to the same sequence through
    /// handle reads only.
    #[test]
    fn a_scope_settles_its_charge_between_the_task_s_other_charges() {
        let run = |scope: bool| {
            let (mut machine, desc, channel) = machine_for_read_checks();
            machine.spawn_root(TaskSpec::new("interleaved", move |ctx| {
                let leaf = Some(ctx.alloc_raw(&[1]));
                let mut node = || {
                    let children = [leaf, None, leaf, None].map(FieldInit::Ptr);
                    let mass = [0.5, 1.5, 2.5].map(FieldInit::F64);
                    ctx.alloc_mixed(desc, &[&children[..], &mass[..]].concat())
                };
                let (local, promoted) = (node(), node());
                ctx.send(channel, promoted);
                let mut sum = 0.0;
                for i in 0..300 {
                    let mark = ctx.root_mark();
                    for handle in [local, promoted] {
                        let fields: [Word; 2] = if scope {
                            ctx.read_scope(|r| {
                                let node = r.obj(handle);
                                r.work(5);
                                let fields = r.fields(node, 4);
                                r.work(3);
                                fields
                            })
                        } else {
                            ctx.work(5);
                            let fields = ctx.read_fields(handle, 4);
                            ctx.work(3);
                            fields
                        };
                        sum += fields.map(word_to_f64).iter().sum::<f64>();
                    }
                    sum += ctx.read_f64(local, 6);
                    ctx.work(7);
                    ctx.alloc_raw(&[i; 12]);
                    ctx.truncate_roots(mark);
                }
                TaskResult::Value(f64_to_word(sum))
            }));
            let report = machine.run();
            assert!(report.gc.minor_collections > 0, "the allocations collect");
            let result = machine.take_result();
            (report.traffic, report.elapsed_ns.to_bits(), result)
        };
        let (traffic, elapsed, result) = run(true);
        assert_eq!(result, Some((f64_to_word(300.0 * 6.5), false)));
        assert_eq!((traffic, elapsed, result), run(false));
    }

    /// A scope that reads nothing leaves its vproc's compute as it was, and
    /// a scope whose body panics still settles the reads it made.
    #[test]
    fn an_empty_scope_charges_nothing_and_a_panicking_one_settles() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        let state = &mut machine.state;
        let object = state.heap.alloc_raw(0, &[1, 2, 3]).unwrap();
        let ns_per_op = state.ns_per_op;
        let mut roots = RootSet::default();
        roots.push(object);
        let empty = on_vproc0(state, &mut roots, |ctx| {
            let handle = ctx.input(0);
            ctx.work(5);
            let before = ctx.now_ns();
            ctx.read_scope(|r| r.obj(handle) == r.obj(handle));
            let empty = (before.to_bits(), ctx.now_ns().to_bits());
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.read_scope(|r| {
                    let object = r.obj(handle);
                    r.fields::<2>(object, 0);
                    panic!("the body panics after two reads");
                })
            }));
            assert!(unwound.is_err());
            empty
        });
        assert_eq!(empty.0, empty.1, "an empty scope charges nothing");
        let mut expected = 5.0 * ns_per_op;
        expected += ns_per_op;
        expected += ns_per_op;
        let cpu_ns = state.vprocs[0].round_cost.cpu_ns;
        assert_eq!(
            cpu_ns.to_bits(),
            expected.to_bits(),
            "the two reads settled"
        );
    }

    /// Runs `alloc` on a target object once vproc 0's nursery is exactly
    /// full, so the allocation must collect first, and returns the pointer
    /// field the new object holds and the target's address after the
    /// collection.
    fn alloc_after_a_full_nursery(
        alloc: impl FnOnce(&mut TaskCtx<'_>, Handle, DescriptorId) -> Handle,
    ) -> (Word, Addr) {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        let pair = machine.register_descriptor(Descriptor::new("pair", 2, 0b01));
        let state = &mut machine.state;
        let target = state.heap.alloc_raw(0, &[1, 2, 3]).unwrap();
        let free = state.heap.local(0).nursery_free_words();
        let mut roots = RootSet::default();
        roots.push(target);
        let field = on_vproc0(state, &mut roots, |ctx| {
            let mark = ctx.root_mark();
            // Header plus `free - 1` words: the nursery is then full.
            ctx.alloc_raw(&vec![0; free - 1]);
            ctx.truncate_roots(mark);
            let object = alloc(ctx, ctx.input(0), pair);
            let copy = ctx.read_ptr(object, 0).expect("the pointer field");
            assert_eq!(ctx.read_words(copy), [1, 2, 3]);
            ctx.read_raw(object, 0)
        });
        assert_eq!(state.collector.vproc_stats(0).minor_collections, 1);
        assert_ne!(roots.slots()[0], target, "the collection moved the target");
        (field, roots.slots()[0])
    }

    /// `alloc_vector` and `alloc_mixed` whose allocation runs a minor
    /// collection: the pointer field names the moved copy, because handles
    /// are resolved only after the nursery has room.
    #[test]
    fn alloc_that_collects_points_at_the_moved_copy() {
        let (field, copy) =
            alloc_after_a_full_nursery(|ctx, target, _| ctx.alloc_vector(&[Some(target), None]));
        assert_eq!(field, copy.raw());
        let (field, copy) = alloc_after_a_full_nursery(|ctx, target, pair| {
            ctx.alloc_mixed(pair, &[FieldInit::Ptr(Some(target)), FieldInit::Raw(9)])
        });
        assert_eq!(field, copy.raw());
    }

    // In-place initialisation (`ctx::alloc_checks` holds the bodies; the
    // threaded backend runs the same ones).

    #[test]
    fn alloc_raw_with_stores_fill_once_per_index_in_order() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        let mut roots = RootSet::default();
        on_vproc0(&mut machine.state, &mut roots, |ctx| {
            alloc_checks::stores_fill_once_per_index_in_order(ctx)
        });
    }

    /// `reserve_nursery` collects on a full nursery before `fill` runs.
    #[test]
    fn alloc_raw_with_that_collects_fills_once_per_index() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        let state = &mut machine.state;
        let free = state.heap.local(0).nursery_free_words();
        let mut roots = RootSet::default();
        on_vproc0(state, &mut roots, |ctx| {
            alloc_checks::fills_once_after_a_collection(ctx, free)
        });
        assert_eq!(state.collector.vproc_stats(0).minor_collections, 1);
    }

    #[test]
    fn alloc_raw_with_shows_no_stale_nursery_words() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        let state = &mut machine.state;
        let free = state.heap.local(0).nursery_free_words();
        let mut roots = RootSet::default();
        on_vproc0(state, &mut roots, |ctx| {
            alloc_checks::shows_no_stale_words(ctx, free)
        });
        assert_eq!(state.collector.vproc_stats(0).minor_collections, 1);
    }

    /// N `alloc_raw_with` calls charge exactly what N `alloc_raw` calls
    /// charge: the run's traffic and its virtual elapsed time are
    /// bit-identical, minor collections included. `alloc_raw` now wraps
    /// `alloc_raw_with`, so both are also pinned to what `alloc_raw`
    /// charged when it copied a staged payload through its own path.
    #[test]
    fn alloc_raw_with_is_charged_like_alloc_raw() {
        let run = |in_place: bool| {
            let mut machine = Machine::new(MachineConfig::small_for_tests(2));
            machine.spawn_root(TaskSpec::new("allocs", move |ctx| {
                let mark = ctx.root_mark();
                let mut payload = [0; 8];
                for n in 0..2_000u64 {
                    let fill = |i: usize| n * 8 + i as Word;
                    if in_place {
                        ctx.alloc_raw_with(payload.len(), fill);
                    } else {
                        for (i, word) in payload.iter_mut().enumerate() {
                            *word = fill(i);
                        }
                        ctx.alloc_raw(&payload);
                    }
                    ctx.truncate_roots(mark);
                }
                TaskResult::Unit
            }));
            let report = machine.run();
            assert_eq!(report.gc.minor_collections, 17);
            (report.traffic, report.elapsed_ns.to_bits())
        };
        let pinned = TrafficStats {
            mutator_bytes: [36_000, 0, 0],
            gc_bytes: [0; 3],
        };
        assert_eq!(run(true), (pinned, 0x40ea_7700_0000_0000));
        assert_eq!(run(false), (pinned, 0x40ea_7700_0000_0000));
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
        let header = state.heap.locate(promoted).header().encode();
        state
            .heap
            .worker_mut(0)
            .cas_forward_global(promoted, header, decoy)
            .unwrap();
        assert_eq!(
            state.heap.locate(promoted).header_slot().forwarded_to(),
            Some(decoy)
        );

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
