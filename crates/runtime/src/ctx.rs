//! The task execution context: the API a program (workload) uses.
//!
//! Task bodies never hold raw heap addresses across allocation points —
//! any allocation may trigger a collection that moves objects. Instead they
//! hold [`Handle`]s, which index the task's root set; the collector rewrites
//! the root set in place, so handles stay valid for the task's lifetime.
//! On the threaded backend a minor collection visits only the roots
//! registered since the last local collection (the root set carries a
//! nursery-free watermark); major and global collections visit all of them.
//!
//! Besides allocation and field access, the context exposes:
//!
//! * [`TaskCtx::work`] — charge pure compute to the simulated clock;
//! * [`TaskCtx::spawn`] / [`TaskCtx::fork_join`] — implicitly-threaded
//!   parallelism over the vproc deques (stolen work is promoted lazily);
//! * [`TaskCtx::send`] / [`TaskCtx::recv`] — CML-style message passing
//!   (messages are promoted to the global heap);
//! * [`TaskCtx::create_proxy`] / [`TaskCtx::resolve_proxy`] — object proxies
//!   for global structures that need to reference vproc-local objects.
//!
//! A read through a handle is resolve-and-read in one step, under one rule
//! on both backends: the handle's address is classified once, a forwarding
//! pointer is chased only where one can exist (the owning vproc's local heap
//! after a promotion; the global heap only while a threaded budgeted
//! collection is between increments, never on the simulated backend, whose
//! global collection runs with every task quiescent —
//! [`WorkerHeap::resolve`](mgc_heap::WorkerHeap::resolve) states the rule),
//! and the field is then an index into the region found. Outside a
//! collection a global-heap read is a load, as the paper's split heap
//! intends (§2.3). The simulated backend charges the access to the node and
//! region that same lookup returned ([`Heap::resolve`](mgc_heap::Heap::resolve));
//! a one-word read's traffic is counted and charged when the context is
//! dropped, before the scheduler next reads the round cost.
//!
//! **A read scope reads through raw references.** The paper's mutator
//! keeps raw pointers in registers between GC points and needs a root only
//! to carry a pointer across one (§2.3, §3.3). [`TaskCtx::read_scope`] runs
//! a closure that holds the context mutably borrowed, so nothing inside it
//! can allocate, promote or reach a safe point; the [`ReadScope`] it gets
//! hands out [`Obj`]s — unrooted references to objects, under an invariant
//! lifetime brand that cannot leave the closure — reads their fields and
//! pointers (no roots pushed) and remembers the object it last located, so
//! a visit of one object field by field is at most one locate; outside a
//! scan phase an address in that object's global chunk is located by its
//! offset alone (a tree's nodes mostly share chunks). An `Obj` is valid for
//! the whole scope because no object moves and no forwarding word appears
//! during it:
//!
//! * on both backends a local object moves only in its owner's collections
//!   and promotions, and those run inside allocations, safe points and the
//!   publishing calls (`spawn`, `fork_join`, `send`, the proxy calls) — none
//!   of which the borrowed context can reach;
//! * on the threaded backend a global collection, a budgeted increment
//!   included, moves objects only while every worker is inside its
//!   barriers, and a worker enters them only at a safe point. Between two
//!   budgeted increments a child read from a to-space node may still name a
//!   from-space object: the scope then locates every new address through
//!   the handle reads' read rule, which chases that forward while
//!   `in_scan_phase` is set, and from-space is not released until this
//!   worker reaches the barrier. The flag itself changes only inside the
//!   barriers, so the scope reads it once;
//! * on the simulated backend collections run at allocations and between
//!   tasks, and a scope contains neither.
//!
//! A scope read is charged exactly as the handle read of the same fields,
//! through the same read-and-charge function, so virtual time does not
//! depend on which one a program uses. **A scope settles its compute charge
//! once:** it copies its vproc's compute this round into a local when it
//! starts, adds each read's and each `work`'s compute to that local in
//! program order, and stores it back when it ends (in `Drop`, so a
//! panicking body settles too). Nothing else can charge the vproc while the
//! scope holds the context, so the float adds are the ones the handle reads
//! make, in the same order; a handle read is a scope of one access.
//!
//! **A run of fields is one access.** [`TaskCtx::read_fields`] reads `N`
//! consecutive fields of one object, and [`TaskCtx::read_ptrs`] `N`
//! consecutive pointer fields, in one access: one resolve of the handle's
//! root slot, then `N` loads — the paper's mutator loads a node's fields
//! through the one pointer it holds in a register (§2.3). `read_raw`,
//! `read_f64` and `read_ptr` are their `N = 1` case, and a scope's
//! [`ReadScope::fields`] and [`ReadScope::ptrs`] read through the same
//! function once the object is located. A run charges what `N` single reads
//! charge: `N` one-word reads, in order, never one bulk read (the DRAM table
//! rounds a bulk read differently). `read_ptrs` pushes one root per
//! non-null field, in field order. So virtual time and the root set are
//! exactly those of `N` single reads. Debug builds assert that a run lies
//! inside the payload.
//!
//! **Reading an object allocates nothing on the host heap.** The paper's
//! mutator touches no allocator but its own nursery (§3.3), and neither do
//! this one's reads: [`TaskCtx::read_words_into`] is the one bulk read, and
//! it appends a payload to a buffer the caller owns and reuses;
//! [`TaskCtx::read_words`] wraps it to return a fresh `Vec`, for tests and
//! cold paths. Field reads and `len` copy nothing. The calls that build
//! host-side records — `spawn` and `fork_join` (tasks and their input
//! lists), `send` (queue entries) and the proxy calls — are outside the
//! rule.
//!
//! **An object is initialised where it lives.** The paper's mutator bumps
//! its nursery pointer against the limit and then writes the new object's
//! fields in place (§3.3). [`TaskCtx::alloc_raw_with`] is the one raw
//! allocation and does the same: word `i` of the object is `fill(i)`,
//! written straight into the claimed nursery slot, once per index and in
//! order, only after the object fits (after any collection it runs), so no
//! staging buffer is filled and copied and no stale nursery word is ever
//! visible. `alloc_raw` (a slice) and `alloc_f64_slice` wrap it. The
//! allocations that take an initialiser list — `alloc_vector` and
//! `alloc_mixed` — still collect the payload into a `Vec` per object: their
//! handles must be resolved while the nursery is borrowed, and no measured
//! workload spends time there.
//!
//! Per-object calls inline into the workload across the crate boundary;
//! slow paths are `#[cold]` (the threaded safe point's, which collects).
//!
//! One `TaskCtx` type serves **both** execution backends (see
//! [`Executor`](crate::Executor)): on the simulated [`Machine`]
//! (crate::Machine) every operation charges the NUMA cost model; on the
//! [`ThreadedMachine`](crate::ThreadedMachine) the same operations hit the
//! worker thread's own heap directly and data published to other threads
//! (spawned tasks, fork/join continuations, messages) is promoted to the
//! shared global heap at publication time.

use crate::channel::{ChannelId, ProxyId};
use crate::machine::RuntimeState;
use crate::task::{Delivery, Handle, JoinCell, RootSet, Task, TaskSpec};
use crate::threaded::{PromoteWhy, WorkerState};
use mgc_heap::{
    f64_to_word, word_to_f64, Addr, DescriptorId, GcHeap, HeaderSlot, Location, ObjectKind, Place,
    Resolved, SharedGlobalHeap, Word,
};
use std::marker::PhantomData;
use std::num::NonZeroU64;

/// How one field of a mixed-type object is initialised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldInit {
    /// A pointer field referencing another heap object (or null).
    Ptr(Option<Handle>),
    /// A raw 64-bit value.
    Raw(Word),
    /// A raw floating-point value.
    F64(f64),
}

/// The payload words of an object initialised by `fields`: each pointer
/// handle resolved through `resolve` — its root slot updated so later
/// accesses are direct — and null for `Ptr(None)`.
fn init_words(
    roots: &mut RootSet,
    fields: impl Iterator<Item = FieldInit>,
    resolve: impl Fn(Addr) -> Addr,
) -> Vec<Word> {
    fields
        .map(|field| match field {
            FieldInit::Ptr(Some(handle)) => {
                let slot = &mut roots.slots_mut()[handle.index()];
                *slot = resolve(*slot);
                slot.raw()
            }
            FieldInit::Ptr(None) => 0,
            FieldInit::Raw(w) => w,
            FieldInit::F64(v) => f64_to_word(v),
        })
        .collect()
}

/// Which backend is executing the task.
enum CtxState<'a> {
    /// The discrete-event simulation: one driver thread, cost model.
    Sim(&'a mut RuntimeState),
    /// A real worker thread of the threaded backend.
    Threaded(&'a mut WorkerState),
}

impl CtxState<'_> {
    /// Whether a global object may be forwarded: a threaded budgeted
    /// collection is between increments. Never on the simulated backend,
    /// whose global collection runs with every task quiescent.
    #[inline(always)]
    fn global_may_forward(&self) -> bool {
        match self {
            CtxState::Sim(_) => false,
            CtxState::Threaded(worker) => worker.global_may_forward(),
        }
    }

    /// Resolves `addr` to the current copy of its object and locates it, by
    /// the read rule ([`WorkerHeap::resolve`](mgc_heap::WorkerHeap::resolve))
    /// given `global_may_forward`; `global` is the machine's global heap.
    #[inline(always)]
    fn resolve<'g>(
        &self,
        global: &'g SharedGlobalHeap,
        addr: Addr,
        global_may_forward: bool,
    ) -> Resolved<'g> {
        match self {
            CtxState::Sim(state) => state.heap.resolve(global, addr, global_may_forward),
            CtxState::Threaded(worker) => worker.heap.resolve(global, addr, global_may_forward),
        }
    }
}

/// The execution context handed to every task body.
pub struct TaskCtx<'a> {
    state: CtxState<'a>,
    /// The machine's global heap, held by the caller for the whole task, so
    /// a read scope can keep a chunk reference.
    global: &'a SharedGlobalHeap,
    vproc: usize,
    roots: &'a mut RootSet,
    values: &'a [Word],
    delivery_taken: &'a mut bool,
    delivery: Delivery,
}

/// A simulated context charges the one-word reads it counted when it ends
/// (`RuntimeState::charge_access` states the fold rule).
impl Drop for TaskCtx<'_> {
    fn drop(&mut self) {
        if let CtxState::Sim(state) = &mut self.state {
            state.fold_word_reads(self.vproc);
        }
    }
}

impl std::fmt::Debug for TaskCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCtx")
            .field("vproc", &self.vproc)
            .field("roots", &self.roots.len())
            .field("values", &self.values.len())
            .finish()
    }
}

impl<'a> TaskCtx<'a> {
    /// A context for a task on the simulated backend; `global` is `state`'s
    /// global heap.
    pub(crate) fn new(
        state: &'a mut RuntimeState,
        global: &'a SharedGlobalHeap,
        vproc: usize,
        roots: &'a mut RootSet,
        values: &'a [Word],
        delivery_taken: &'a mut bool,
        delivery: Delivery,
    ) -> Self {
        TaskCtx {
            state: CtxState::Sim(state),
            global,
            vproc,
            roots,
            values,
            delivery_taken,
            delivery,
        }
    }

    /// A context for a task on a threaded worker; `global` is the worker's
    /// global heap.
    pub(crate) fn new_threaded(
        worker: &'a mut WorkerState,
        global: &'a SharedGlobalHeap,
        roots: &'a mut RootSet,
        values: &'a [Word],
        delivery_taken: &'a mut bool,
        delivery: Delivery,
    ) -> Self {
        let vproc = worker.vproc;
        TaskCtx {
            state: CtxState::Threaded(worker),
            global,
            vproc,
            roots,
            values,
            delivery_taken,
            delivery,
        }
    }

    // ------------------------------------------------------------------
    // Identity and inputs
    // ------------------------------------------------------------------

    /// The vproc this task is running on.
    pub fn vproc(&self) -> usize {
        self.vproc
    }

    /// Number of vprocs in the machine.
    pub fn num_vprocs(&self) -> usize {
        match &self.state {
            CtxState::Sim(state) => state.num_vprocs(),
            CtxState::Threaded(worker) => worker.num_vprocs(),
        }
    }

    /// The `i`-th pointer input of this task (its `i`-th root).
    ///
    /// For a fork/join continuation, the children's pointer results follow
    /// the continuation's own pointer inputs, in child order.
    #[inline]
    pub fn input(&self, i: usize) -> Handle {
        assert!(
            i < self.roots.len(),
            "task has only {} roots",
            self.roots.len()
        );
        Handle(i)
    }

    /// Number of pointer inputs / live handles.
    #[inline]
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// The `i`-th raw input value. For a fork/join continuation, the
    /// children's value results follow the continuation's own value inputs.
    #[inline]
    pub fn value(&self, i: usize) -> Word {
        self.values[i]
    }

    /// The `i`-th raw input, interpreted as an `f64`.
    pub fn value_f64(&self, i: usize) -> f64 {
        word_to_f64(self.values[i])
    }

    /// Number of raw input values.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    // ------------------------------------------------------------------
    // Compute cost
    // ------------------------------------------------------------------

    /// Charges `ops` machine operations of pure compute (arithmetic,
    /// branches) to this vproc's virtual clock. On the threaded backend
    /// real time passes instead, so this is a no-op.
    #[inline]
    pub fn work(&mut self, ops: u64) {
        match &mut self.state {
            CtxState::Sim(state) => state.charge_work(self.vproc, ops),
            CtxState::Threaded(_) => {}
        }
    }

    // ------------------------------------------------------------------
    // Time and latency
    // ------------------------------------------------------------------

    /// This vproc's current time in nanoseconds: deterministic virtual time
    /// on the simulated backend (the machine clock plus the compute charged
    /// so far this round), wall-clock time since the machine's start on the
    /// threaded backend. Monotone over a task's execution on both; readings
    /// from different vprocs share one time axis, which is what lets an
    /// open-loop arrival schedule and end-to-end latency samples make sense
    /// machine-wide.
    pub fn now_ns(&mut self) -> f64 {
        match &self.state {
            CtxState::Sim(state) => state.now_ns(self.vproc),
            CtxState::Threaded(worker) => worker.now_ns(),
        }
    }

    /// Blocks this vproc until [`now_ns`](Self::now_ns) reaches
    /// `target_ns` — the open-loop load generator's pacing primitive.
    /// On the simulated backend the gap is charged as idle virtual time (so
    /// the wait is free of real time and fully deterministic); on the
    /// threaded backend the worker polls the wall clock, and every poll is a
    /// safe point (steal requests, pending global collections) so waiting
    /// never stalls the rest of the machine. Returns immediately when the
    /// target is already past.
    pub fn wait_until_ns(&mut self, target_ns: f64) {
        match &mut self.state {
            CtxState::Sim(state) => state.wait_until_ns(self.vproc, target_ns),
            CtxState::Threaded(worker) => worker.wait_until_ns(target_ns, self.roots),
        }
    }

    /// Records one end-to-end request latency of `ns` nanoseconds into this
    /// vproc's [`LatencyStats`](crate::LatencyStats) series. Serving
    /// programs call this once per completed request; the per-vproc series
    /// merge into the run-wide latency histogram that
    /// [`RunReport::latency_stats`](crate::RunReport::latency_stats),
    /// `requests_served`, and `throughput_rps` report from.
    pub fn record_latency_ns(&mut self, ns: f64) {
        match &mut self.state {
            CtxState::Sim(state) => state.vprocs[self.vproc].stats.latency.record(ns),
            CtxState::Threaded(worker) => worker.stats.latency.record(ns),
        }
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    // Each allocation matches on the backend once. On the threaded one the
    // object is then bumped under the vproc's allocation limit word — one
    // compare per object, which is also the safe point (`WorkerState::alloc`).
    // Handles are resolved to addresses only once there is room: making
    // room may collect, which moves the referenced objects.

    /// Allocates a raw-data object of `len` words and returns a handle to it.
    /// The object is written where it lives: word `i` is `fill(i)`, called
    /// exactly once per index, in order, once the nursery has room (after
    /// any collection the allocation runs). The one raw allocation.
    #[inline]
    pub fn alloc_raw_with(&mut self, len: usize, mut fill: impl FnMut(usize) -> Word) -> Handle {
        let addr = match &mut self.state {
            CtxState::Sim(state) => {
                state.reserve_nursery(self.vproc, self.roots.slots_mut(), len);
                let addr = state.alloc_reserved(self.vproc, |heap, vproc| {
                    heap.alloc_raw_with(vproc, len, fill)
                });
                state.charge_alloc(self.vproc, len + 1);
                addr
            }
            CtxState::Threaded(worker) => worker.alloc(self.roots, len, |worker, _, limit| {
                worker
                    .heap
                    .bump_with(ObjectKind::Raw, len, limit, &mut fill)
            }),
        };
        self.push_root(addr)
    }

    /// Allocates a raw-data object holding a copy of `payload`.
    #[inline]
    pub fn alloc_raw(&mut self, payload: &[Word]) -> Handle {
        self.alloc_raw_with(payload.len(), |i| payload[i])
    }

    /// Allocates a raw-data object holding `f64` values.
    pub fn alloc_f64_slice(&mut self, values: &[f64]) -> Handle {
        self.alloc_raw_with(values.len(), |i| f64_to_word(values[i]))
    }

    /// Allocates a vector of pointers; `None` entries become null.
    pub fn alloc_vector(&mut self, elements: &[Option<Handle>]) -> Handle {
        let fields = || elements.iter().map(|&h| FieldInit::Ptr(h));
        let addr = match &mut self.state {
            CtxState::Sim(state) => {
                state.reserve_nursery(self.vproc, self.roots.slots_mut(), elements.len());
                let words = init_words(self.roots, fields(), |a| state.resolve_addr(a));
                let addr = state
                    .alloc_reserved(self.vproc, |heap, vproc| heap.alloc_vector(vproc, &words));
                state.charge_alloc(self.vproc, words.len() + 1);
                addr
            }
            CtxState::Threaded(worker) => {
                worker.alloc(self.roots, elements.len(), |worker, roots, limit| {
                    let words = init_words(roots, fields(), |a| worker.resolve_addr(a));
                    worker.heap.bump(ObjectKind::Vector, &words, limit)
                })
            }
        };
        self.push_root(addr)
    }

    /// Allocates a mixed-type object laid out according to `descriptor`.
    ///
    /// # Panics
    ///
    /// Panics if the field kinds disagree with the registered descriptor
    /// (pointer fields must be `FieldInit::Ptr`).
    pub fn alloc_mixed(&mut self, descriptor: DescriptorId, fields: &[FieldInit]) -> Handle {
        let addr = match &mut self.state {
            CtxState::Sim(state) => {
                state.reserve_nursery(self.vproc, self.roots.slots_mut(), fields.len());
                let words = init_words(self.roots, fields.iter().copied(), |a| {
                    state.resolve_addr(a)
                });
                let addr = state.alloc_reserved(self.vproc, |heap, vproc| {
                    heap.alloc_mixed(vproc, descriptor, &words)
                });
                state.charge_alloc(self.vproc, words.len() + 1);
                addr
            }
            CtxState::Threaded(worker) => {
                let kind = match worker.heap.mixed_kind(descriptor, fields.len()) {
                    Ok(kind) => kind,
                    Err(e) => panic!("allocation failed: {e}"),
                };
                worker.alloc(self.roots, fields.len(), |worker, roots, limit| {
                    let words =
                        init_words(roots, fields.iter().copied(), |a| worker.resolve_addr(a));
                    worker.heap.bump(kind, &words, limit)
                })
            }
        };
        self.push_root(addr)
    }

    // ------------------------------------------------------------------
    // Field access
    // ------------------------------------------------------------------

    /// Resolves `handle` to the current copy of its object and locates it,
    /// updating the root slot so later accesses are direct: the first half
    /// of every handle read.
    #[inline(always)]
    fn locate_slot(&mut self, handle: Handle) -> Resolved<'a> {
        let slot = &mut self.roots.slots_mut()[handle.index()];
        let found = self
            .state
            .resolve(self.global, *slot, self.state.global_may_forward());
        // Never a nursery address the slot did not already hold: forwarding
        // pointers lead out of the local heap, so the watermark stands.
        *slot = found.addr;
        found
    }

    /// This vproc's compute so far this round on the simulated backend,
    /// for a read to add its charge to until [`TaskCtx::settle_cpu_ns`]
    /// stores it back; 0 on the threaded backend, which charges nothing.
    #[inline(always)]
    fn cpu_ns(&self) -> f64 {
        match &self.state {
            CtxState::Sim(state) => state.cpu_ns(self.vproc),
            CtxState::Threaded(_) => 0.0,
        }
    }

    /// Stores the compute [`TaskCtx::cpu_ns`] returned plus what was added
    /// to it since; nothing else may charge this vproc in between.
    #[inline(always)]
    fn settle_cpu_ns(&mut self, cpu_ns: f64) {
        if let CtxState::Sim(state) = &mut self.state {
            state.settle_cpu_ns(self.vproc, cpu_ns);
        }
    }

    /// Runs `read` with this vproc's compute in a local and settles it
    /// after: a handle read is a scope of one access.
    #[inline(always)]
    fn charged<R>(&mut self, read: impl FnOnce(&mut Self, &mut f64) -> R) -> R {
        let mut cpu_ns = self.cpu_ns();
        let value = read(self, &mut cpu_ns);
        self.settle_cpu_ns(cpu_ns);
        value
    }

    /// Reads from the located object `found` — `read` gets its [`Place`] on
    /// either backend — and charges the read: the simulated backend charges
    /// `accesses` accesses of `words(place)` words each, one after another,
    /// to the node and region the object was found in, their compute added
    /// to `cpu_ns` (see [`TaskCtx::cpu_ns`]). The one read-and-charge
    /// function of handle and scope reads.
    #[inline(always)]
    fn read_at<R>(
        &mut self,
        cpu_ns: &mut f64,
        found: Resolved<'a>,
        accesses: usize,
        words: impl FnOnce(Place<'_>) -> usize,
        read: impl FnOnce(Place<'_>) -> R,
    ) -> R {
        match &mut self.state {
            CtxState::Sim(state) => {
                let place = state.heap.place_of(found.location);
                let (value, local, words) = (read(place), place.is_local(), words(place));
                state.charge_access(cpu_ns, self.vproc, found.node, local, words, accesses);
                value
            }
            CtxState::Threaded(worker) => read(worker.heap.place_of(found.location)),
        }
    }

    /// Fields `first..first + N` of the located object `found`, charged as
    /// `N` one-word reads in order.
    #[inline(always)]
    fn fields_at<const N: usize>(
        &mut self,
        cpu_ns: &mut f64,
        found: Resolved<'a>,
        first: usize,
    ) -> [Word; N] {
        self.read_at(
            cpu_ns,
            found,
            N,
            |_| 1,
            |place| {
                // A forwarded header is skipped: outside a scan phase the
                // read rule never loads a global header, and the read-rule
                // tests forge a forwarding word into one.
                debug_assert!(
                    match place.header_slot() {
                        HeaderSlot::Header(header) => first + N <= header.len_words as usize,
                        HeaderSlot::Forwarded(_) => true,
                    },
                    "fields {first}..{} read past the end of the object",
                    first + N,
                );
                place.read_fields(first)
            },
        )
    }

    /// The payload length of the located object `found`; charges nothing.
    #[inline(always)]
    fn len_at(&mut self, found: Resolved<'a>) -> usize {
        // A zero-word access adds no compute, so no clock is needed.
        self.read_at(&mut 0.0, found, 1, |_| 0, |place| place.header())
            .len_words as usize
    }

    /// Reads the `N` raw fields `first..first + N` of the object behind
    /// `handle` in one access: one resolve, then `N` loads. The simulated
    /// backend charges `N` one-word reads, in order, exactly what `N`
    /// [`TaskCtx::read_raw`] calls charge. Every other handle field read is
    /// its `N = 1` case.
    ///
    /// Debug builds assert that the fields lie inside the object's payload.
    #[inline]
    pub fn read_fields<const N: usize>(&mut self, handle: Handle, first: usize) -> [Word; N] {
        let found = self.locate_slot(handle);
        self.charged(|ctx, cpu_ns| ctx.fields_at(cpu_ns, found, first))
    }

    /// Reads the `N` pointer fields `first..first + N` in one access
    /// ([`TaskCtx::read_fields`]) and registers each non-null target as a
    /// new root, in field order — the roots `N` [`TaskCtx::read_ptr`] calls
    /// push. A null field reads as `None` and pushes nothing.
    #[inline]
    pub fn read_ptrs<const N: usize>(
        &mut self,
        handle: Handle,
        first: usize,
    ) -> [Option<Handle>; N] {
        let words: [Word; N] = self.read_fields(handle, first);
        let mut ptrs = [None; N];
        for (ptr, &word) in ptrs.iter_mut().zip(&words) {
            if word != 0 {
                *ptr = Some(self.push_root(Addr::new(word)));
            }
        }
        ptrs
    }

    /// Reads a raw field of the object behind `handle`.
    #[inline]
    pub fn read_raw(&mut self, handle: Handle, index: usize) -> Word {
        let [word] = self.read_fields(handle, index);
        word
    }

    /// Reads a raw field as an `f64`.
    #[inline]
    pub fn read_f64(&mut self, handle: Handle, index: usize) -> f64 {
        word_to_f64(self.read_raw(handle, index))
    }

    /// Reads a pointer field and registers the target as a new root,
    /// returning its handle (or `None` for a null field).
    #[inline]
    pub fn read_ptr(&mut self, handle: Handle, index: usize) -> Option<Handle> {
        let [ptr] = self.read_ptrs(handle, index);
        ptr
    }

    /// Appends the whole payload of the object behind `handle` to `out`,
    /// charging a single bulk access of the header's `total_words` (the
    /// workloads use this for rope leaves). The one bulk read: it allocates
    /// nothing unless `out` has to grow, so a caller that reuses `out`
    /// allocates nothing per read.
    #[inline]
    pub fn read_words_into(&mut self, handle: Handle, out: &mut Vec<Word>) {
        let found = self.locate_slot(handle);
        self.charged(|ctx, cpu_ns| {
            ctx.read_at(
                cpu_ns,
                found,
                1,
                |place| place.header().total_words(),
                |place| place.payload_into(out),
            )
        })
    }

    /// [`TaskCtx::read_words_into`] a fresh `Vec`.
    pub fn read_words(&mut self, handle: Handle) -> Vec<Word> {
        let mut out = Vec::new();
        self.read_words_into(handle, &mut out);
        out
    }

    /// The number of payload words of the object behind `handle`.
    #[inline]
    pub fn len(&mut self, handle: Handle) -> usize {
        let found = self.locate_slot(handle);
        self.len_at(found)
    }

    /// True if the object behind `handle` has no payload (never the case for
    /// objects allocated through this API).
    pub fn is_empty(&mut self, handle: Handle) -> bool {
        self.len(handle) == 0
    }

    /// Runs `body` in a read scope: `body` reads the heap through raw
    /// [`Obj`] references that push no roots, and the scope locates each
    /// object once however many of its fields `body` reads in a row. The
    /// scope holds this context mutably borrowed, so `body` can neither
    /// allocate nor reach a safe point, and an `Obj` cannot leave it — the
    /// module doc says why an `Obj` stays valid until the scope ends. Reads
    /// are charged exactly as the handle reads of the same fields.
    ///
    /// ```
    /// use mgc_runtime::{Handle, TaskCtx};
    ///
    /// /// The first word of the object `node`'s first pointer field names.
    /// fn first_child_word(ctx: &mut TaskCtx<'_>, node: Handle) -> Option<u64> {
    ///     ctx.read_scope(|r| {
    ///         let node = r.obj(node);
    ///         let [child] = r.ptrs(node, 0);
    ///         child.map(|child| r.fields::<1>(child, 0)[0])
    ///     })
    /// }
    /// ```
    ///
    /// An `Obj` cannot be returned from the scope:
    ///
    /// ```compile_fail
    /// use mgc_runtime::{Handle, TaskCtx};
    ///
    /// fn first_child(ctx: &mut TaskCtx<'_>, node: Handle) {
    ///     let child = ctx.read_scope(|r| {
    ///         let node = r.obj(node);
    ///         let [child] = r.ptrs(node, 0);
    ///         child
    ///     });
    /// }
    /// ```
    ///
    /// and nothing that can move objects runs inside it:
    ///
    /// ```compile_fail,E0500
    /// use mgc_runtime::{Handle, TaskCtx};
    ///
    /// fn first_child_word(ctx: &mut TaskCtx<'_>, node: Handle) -> Option<u64> {
    ///     ctx.read_scope(|r| {
    ///         let node = r.obj(node);
    ///         let [child] = r.ptrs(node, 0);
    ///         ctx.alloc_raw(&[0]);
    ///         child.map(|child| r.fields::<1>(child, 0)[0])
    ///     })
    /// }
    /// ```
    #[inline]
    pub fn read_scope<R>(&mut self, body: impl for<'s> FnOnce(&mut ReadScope<'s, 'a>) -> R) -> R {
        body(&mut ReadScope {
            global_may_forward: self.state.global_may_forward(),
            cpu_ns: self.cpu_ns(),
            ctx: self,
            last: None,
        })
    }

    // ------------------------------------------------------------------
    // Root management
    // ------------------------------------------------------------------

    /// A mark of the current number of roots; combined with
    /// [`TaskCtx::truncate_roots`] it lets loops discard intermediate
    /// handles so the root set does not grow without bound.
    #[inline]
    pub fn root_mark(&self) -> usize {
        self.roots.len()
    }

    /// Drops every root registered after `mark`. Handles issued after the
    /// mark become invalid. The root set's nursery-free watermark (see
    /// `RootSet` in `task.rs`) drops with it, so slots re-used after the
    /// truncation are visited by the next minor collection.
    ///
    /// On the threaded backend this is also a safe point, so a loop that
    /// never allocates still answers steal requests and joins a pending
    /// stop-the-world instead of serialising the whole machine. It costs
    /// one relaxed load of the vproc's allocation limit word — the same word
    /// every allocation compares against — and does nothing more unless a
    /// thief or a collection has zeroed it (`WorkerState::poll`).
    #[inline]
    pub fn truncate_roots(&mut self, mark: usize) {
        self.roots.truncate(mark);
        if let CtxState::Threaded(worker) = &mut self.state {
            worker.poll(self.roots);
        }
    }

    /// Re-registers the object behind `handle` so it survives a
    /// [`TaskCtx::truncate_roots`] call with an earlier mark, returning the
    /// new handle.
    #[inline]
    pub fn keep(&mut self, handle: Handle, mark: usize) -> Handle {
        let addr = self.resolve(handle);
        self.roots.truncate(mark);
        self.push_root(addr)
    }

    /// Resolves a handle to the current address of its object, following any
    /// forwarding pointers left behind by promotions and updating the root
    /// slot so later accesses are direct.
    fn resolve(&mut self, handle: Handle) -> Addr {
        let slot = &mut self.roots.slots_mut()[handle.index()];
        *slot = match &self.state {
            CtxState::Sim(state) => state.resolve_addr(*slot),
            CtxState::Threaded(worker) => worker.resolve_addr(*slot),
        };
        *slot
    }

    #[inline]
    fn push_root(&mut self, addr: Addr) -> Handle {
        self.roots.push(addr);
        Handle(self.roots.len() - 1)
    }

    // ------------------------------------------------------------------
    // Parallelism
    // ------------------------------------------------------------------

    /// Spawns an independent task (no result delivery) on this vproc's
    /// deque, where it can be stolen by idle vprocs.
    pub fn spawn(&mut self, mut spec: TaskSpec, ptr_inputs: &[Handle]) {
        spec.ptr_inputs = ptr_inputs.iter().map(|h| self.resolve(*h)).collect();
        let task = Task::from_spec(spec, Delivery::Discard, self.vproc);
        match &mut self.state {
            CtxState::Sim(state) => state.push_task(self.vproc, task),
            CtxState::Threaded(worker) => worker.push_task(task),
        }
    }

    /// Forks `children` and schedules `continuation` to run when all of them
    /// have completed. The children's results are appended to the
    /// continuation's inputs in child order: pointer results after its own
    /// pointer inputs, value results after its own value inputs.
    ///
    /// The current task's pending result delivery (if it was itself a child
    /// of a fork) is transferred to the continuation, continuation-passing
    /// style; the current body's return value is then ignored.
    pub fn fork_join(
        &mut self,
        children: Vec<(TaskSpec, Vec<Handle>)>,
        continuation: TaskSpec,
        continuation_inputs: &[Handle],
    ) {
        assert!(
            !children.is_empty(),
            "fork_join requires at least one child"
        );
        let mut cont_spec = continuation;
        cont_spec.ptr_inputs = continuation_inputs
            .iter()
            .map(|h| self.resolve(*h))
            .collect();
        let mut cont_task = Task::from_spec(cont_spec, self.delivery, self.vproc);
        *self.delivery_taken = true;

        // Resolve every child's pointer inputs before touching the backend,
        // so the borrow of `self.roots` ends first.
        let resolved_children: Vec<(TaskSpec, Vec<Addr>)> = children
            .into_iter()
            .map(|(spec, inputs)| {
                let addrs: Vec<Addr> = inputs.iter().map(|h| self.resolve(*h)).collect();
                (spec, addrs)
            })
            .collect();

        match &mut self.state {
            CtxState::Sim(state) => {
                let join = state.new_join(JoinCell::new(resolved_children.len(), cont_task));
                for (slot, (mut spec, addrs)) in resolved_children.into_iter().enumerate() {
                    spec.ptr_inputs = addrs;
                    let task = Task::from_spec(spec, Delivery::Join { join, slot }, self.vproc);
                    state.push_task(self.vproc, task);
                }
            }
            CtxState::Threaded(worker) => {
                // The continuation lives in the machine-global join table and
                // may run on any worker: its roots are promoted now, by
                // their owner. (Child tasks stay private — and local — until
                // they are actually stolen.)
                worker.publish_roots(cont_task.roots.slots_mut(), PromoteWhy::Publish);
                let join = worker.new_join(JoinCell::new(resolved_children.len(), cont_task));
                for (slot, (mut spec, addrs)) in resolved_children.into_iter().enumerate() {
                    spec.ptr_inputs = addrs;
                    let task = Task::from_spec(spec, Delivery::Join { join, slot }, worker.vproc);
                    worker.push_task(task);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Explicit concurrency (CML-style)
    // ------------------------------------------------------------------

    /// Sends the object behind `message` on `channel`. The message is
    /// promoted to the global heap (§3.1) so any vproc may receive it.
    pub fn send(&mut self, channel: ChannelId, message: Handle) {
        let addr = self.resolve(message);
        match &mut self.state {
            CtxState::Sim(state) => state.channel_send(self.vproc, channel, addr),
            CtxState::Threaded(worker) => worker.channel_send(channel, addr),
        }
    }

    /// Receives the oldest message from `channel`, if any.
    pub fn recv(&mut self, channel: ChannelId) -> Option<Handle> {
        let addr = match &mut self.state {
            CtxState::Sim(state) => state.channel_recv(self.vproc, channel)?,
            CtxState::Threaded(worker) => worker.channel_recv(channel)?,
        };
        Some(self.push_root(addr))
    }

    /// Creates an object proxy for a local object, so that global runtime
    /// structures can refer to it without violating the heap invariants.
    pub fn create_proxy(&mut self, handle: Handle) -> ProxyId {
        let addr = self.resolve(handle);
        match &mut self.state {
            CtxState::Sim(state) => state.create_proxy(self.vproc, addr),
            CtxState::Threaded(worker) => worker.create_proxy(addr),
        }
    }

    /// Resolves a proxy. Resolving from a vproc other than the owner forces
    /// the underlying object to be promoted to the global heap.
    pub fn resolve_proxy(&mut self, proxy: ProxyId) -> Handle {
        let addr = match &mut self.state {
            CtxState::Sim(state) => state.resolve_proxy(self.vproc, proxy),
            CtxState::Threaded(worker) => worker.resolve_proxy(proxy),
        };
        self.push_root(addr)
    }
}

/// A raw reference to a heap object, handed out by a [`ReadScope`] and
/// valid until that scope ends: no root backs it, and the lifetime brand
/// `'s` is the scope's, which no value outside the scope's closure can
/// name. It may still name a forwarded original; the scope's reads find the
/// current copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obj<'s> {
    /// The address, never null: an `Option<Obj>` is one word, and a
    /// pointer field's word becomes one without a branch.
    raw: NonZeroU64,
    /// Invariant in `'s`, so one scope's `Obj` is never another's.
    brand: PhantomData<fn(&'s ()) -> &'s ()>,
}

impl Obj<'_> {
    /// The object a pointer field `word` names, `None` for a null field.
    #[inline(always)]
    fn from_word(word: Word) -> Option<Self> {
        NonZeroU64::new(word).map(|raw| Obj {
            raw,
            brand: PhantomData,
        })
    }

    #[inline(always)]
    fn addr(self) -> Addr {
        Addr::new(self.raw.get())
    }
}

/// The reader [`TaskCtx::read_scope`] hands its closure: reads through
/// [`Obj`]s, pushing no roots, with the object it located last remembered.
#[derive(Debug)]
pub struct ReadScope<'s, 'a> {
    ctx: &'s mut TaskCtx<'a>,
    /// The read rule's input, read once: it changes only while every worker
    /// is stopped in a barrier, and a worker in a scope is at no safe point.
    global_may_forward: bool,
    /// The object located last, and where it was found.
    last: Option<(Obj<'s>, Resolved<'a>)>,
    /// The vproc's compute this round ([`TaskCtx::cpu_ns`]), which every
    /// read and `work` of the scope adds to, in order, and the scope's end
    /// settles: nothing else charges the vproc while the scope holds the
    /// context.
    cpu_ns: f64,
}

/// A scope settles its compute charge when it ends, a panicking body's
/// included.
impl Drop for ReadScope<'_, '_> {
    #[inline]
    fn drop(&mut self) {
        self.ctx.settle_cpu_ns(self.cpu_ns);
    }
}

impl<'s, 'a> ReadScope<'s, 'a> {
    /// The object behind `handle`. Its root slot is read, not rewritten.
    #[inline]
    pub fn obj(&self, handle: Handle) -> Obj<'s> {
        Obj::from_word(self.ctx.roots.slots()[handle.index()].raw())
            .expect("a handle names an object")
    }

    /// Locates `obj`. The object located last is not located again, and
    /// outside a scan phase an address in that object's global chunk is
    /// located by its offset: a global object is then final, and an address
    /// inside a chunk's words is in that chunk. Anything else takes the full
    /// read rule, with its forwarding chase and its foreign-heap and
    /// unmapped panics.
    #[inline(always)]
    fn locate(&mut self, obj: Obj<'s>) -> Resolved<'a> {
        let addr = obj.addr();
        let found = match self.last {
            Some((last, found)) if last == obj => return found,
            Some((
                _,
                Resolved {
                    location: Location::Global(chunk, _),
                    node,
                    ..
                },
            )) if !self.global_may_forward && chunk.contains(addr) => Resolved {
                addr,
                location: Location::Global(chunk, chunk.offset_of(addr)),
                node,
            },
            _ => self
                .ctx
                .state
                .resolve(self.ctx.global, addr, self.global_may_forward),
        };
        self.last = Some((obj, found));
        found
    }

    /// Fields `first..first + N` of `obj`: [`TaskCtx::read_fields`] without
    /// the root slot, charged alike.
    #[inline]
    pub fn fields<const N: usize>(&mut self, obj: Obj<'s>, first: usize) -> [Word; N] {
        let found = self.locate(obj);
        self.ctx.fields_at(&mut self.cpu_ns, found, first)
    }

    /// Pointer fields `first..first + N` of `obj`, a null one as `None`:
    /// [`TaskCtx::read_ptrs`] without roots, charged alike.
    #[inline]
    pub fn ptrs<const N: usize>(&mut self, obj: Obj<'s>, first: usize) -> [Option<Obj<'s>>; N] {
        let words: [Word; N] = self.fields(obj, first);
        // A loop: `array::map` here was left out of line.
        let mut ptrs = [None; N];
        for (ptr, &word) in ptrs.iter_mut().zip(&words) {
            *ptr = Obj::from_word(word);
        }
        ptrs
    }

    /// The number of payload words of `obj`.
    #[inline]
    pub fn len(&mut self, obj: Obj<'s>) -> usize {
        let found = self.locate(obj);
        self.ctx.len_at(found)
    }

    /// [`TaskCtx::work`] from inside the scope.
    #[inline]
    pub fn work(&mut self, ops: u64) {
        if let CtxState::Sim(state) = &self.ctx.state {
            self.cpu_ns += state.work_ns(ops);
        }
    }
}

/// Checks of [`TaskCtx::alloc_raw_with`] that must hold on both backends;
/// each backend's tests run them on a context it drives by hand.
#[cfg(test)]
pub(crate) mod alloc_checks {
    use super::*;

    /// What the checks' `fill` stores at index `i`: never a garbage word.
    fn fill_word(i: usize) -> Word {
        0x5eed_0000 + i as Word
    }

    /// `alloc_raw_with` of `len` words whose `fill` records every index it
    /// is called with. Checks that those are `0..len`, once each and in
    /// order, and that the object holds exactly what `fill` returned.
    fn alloc_counted(ctx: &mut TaskCtx<'_>, len: usize) -> Handle {
        let mut calls = Vec::new();
        let obj = ctx.alloc_raw_with(len, |i| {
            calls.push(i);
            fill_word(i)
        });
        assert_eq!(calls, (0..len).collect::<Vec<_>>(), "fill once per index");
        let expected: Vec<Word> = (0..len).map(fill_word).collect();
        assert_eq!(ctx.read_words(obj), expected);
        obj
    }

    /// Fills the `free` words left in the nursery exactly with non-zero
    /// garbage objects and drops them, so the next allocation collects.
    pub(super) fn fill_nursery_with_garbage(ctx: &mut TaskCtx<'_>, free: usize) {
        let mark = ctx.root_mark();
        let mut left = free;
        while left > 18 {
            ctx.alloc_raw(&[u64::MAX; 8]);
            left -= 9;
        }
        ctx.alloc_raw(&vec![u64::MAX; left - 1]);
        ctx.truncate_roots(mark);
    }

    /// Objects of several sizes hold exactly `fill(i)`, and `fill` runs once
    /// per index, in order.
    pub(crate) fn stores_fill_once_per_index_in_order(ctx: &mut TaskCtx<'_>) {
        for len in [1, 2, 8, 37] {
            alloc_counted(ctx, len);
        }
    }

    /// With the nursery exactly full, `alloc_raw_with` collects first and
    /// only then calls `fill`, once per index. The caller checks that one
    /// minor collection ran.
    pub(crate) fn fills_once_after_a_collection(ctx: &mut TaskCtx<'_>, free: usize) {
        fill_nursery_with_garbage(ctx, free);
        alloc_counted(ctx, 8);
    }

    /// After a collection resets a nursery full of non-zero garbage, objects
    /// allocated over that garbage read back only what `fill` wrote, every
    /// word of every one. The caller checks that exactly one minor
    /// collection ran, so all of them lie over the garbage.
    pub(crate) fn shows_no_stale_words(ctx: &mut TaskCtx<'_>, free: usize) {
        fill_nursery_with_garbage(ctx, free);
        let mut objects = Vec::new();
        let mut used = 0;
        for len in (1..=8).cycle() {
            if used + len + 1 > free {
                break;
            }
            objects.push((alloc_counted(ctx, len), len));
            used += len + 1;
        }
        for (obj, len) in objects {
            let expected: Vec<Word> = (0..len).map(fill_word).collect();
            assert_eq!(ctx.read_words(obj), expected);
        }
    }
}

/// Checks of [`TaskCtx::read_fields`] and [`TaskCtx::read_ptrs`] that must
/// hold on both backends: every run of fields reads what single reads and
/// the bulk read return, and a run of pointers pushes the roots that single
/// reads push. Each backend's tests run them on a context it drives by
/// hand; `desc` is a registered descriptor of seven fields whose first four
/// are pointers, the shape of a Barnes-Hut quadtree node.
#[cfg(test)]
pub(crate) mod read_checks {
    use super::*;
    use mgc_heap::GcHeap;

    /// The payloads of the two leaves a node points to.
    pub(super) const LEAVES: [&[Word]; 2] = [&[10, 11], &[12]];

    /// A node with children `[leaf 0, null, leaf 1, null]`, and one whose
    /// four children are all null; both end in three raw words, one zero.
    pub(super) fn alloc_nodes(ctx: &mut TaskCtx<'_>, desc: DescriptorId) -> [Handle; 2] {
        let [a, b] = LEAVES.map(|leaf| Some(ctx.alloc_raw(leaf)));
        let raw = [FieldInit::Raw(7), FieldInit::Raw(0), FieldInit::F64(-2.5)];
        let null = FieldInit::Ptr(None);
        let node = [FieldInit::Ptr(a), null, FieldInit::Ptr(b), null];
        let leaf = [null; 4];
        [node, leaf].map(|children| ctx.alloc_mixed(desc, &[&children[..], &raw[..]].concat()))
    }

    pub(super) fn slots(ctx: &TaskCtx<'_>, handles: [Handle; 2]) -> [Addr; 2] {
        handles.map(|h| ctx.roots.slots()[h.index()])
    }

    pub(super) fn is_global(ctx: &TaskCtx<'_>, addr: Addr) -> bool {
        match &ctx.state {
            CtxState::Sim(state) => state.heap.is_global(addr),
            CtxState::Threaded(worker) => worker.heap.is_global(addr),
        }
    }

    fn nursery_free_words(ctx: &TaskCtx<'_>) -> usize {
        match &ctx.state {
            CtxState::Sim(state) => state.heap.local(ctx.vproc).nursery_free_words(),
            CtxState::Threaded(worker) => worker.heap.local().nursery_free_words(),
        }
    }

    /// Every run of `N` fields of `obj` equals `N` single reads and the
    /// same words of the bulk read.
    fn fields_match<const N: usize>(ctx: &mut TaskCtx<'_>, obj: Handle) {
        let words = ctx.read_words(obj);
        for first in 0..=words.len() - N {
            let run: [Word; N] = ctx.read_fields(obj, first);
            let singles: Vec<Word> = (first..first + N).map(|i| ctx.read_raw(obj, i)).collect();
            assert_eq!(run[..], singles[..], "fields {first}..{}", first + N);
            assert_eq!(run[..], words[first..first + N]);
        }
    }

    /// Every run of `N` of `obj`'s four pointer fields returns what `N`
    /// single reads return and pushes the same roots in the same order: one
    /// per non-null field, holding that field's word.
    fn ptrs_match<const N: usize>(ctx: &mut TaskCtx<'_>, obj: Handle) {
        let words = ctx.read_words(obj);
        for first in 0..=4 - N {
            let mark = ctx.root_mark();
            let run: [Option<Handle>; N] = ctx.read_ptrs(obj, first);
            let pushed = ctx.roots.slots()[mark..].to_vec();
            ctx.truncate_roots(mark);
            let singles: Vec<Option<Handle>> =
                (first..first + N).map(|i| ctx.read_ptr(obj, i)).collect();
            assert_eq!(run[..], singles[..], "pointers {first}..{}", first + N);
            assert_eq!(pushed, ctx.roots.slots()[mark..], "the same roots");
            let non_null: Vec<Word> = words[first..first + N]
                .iter()
                .copied()
                .filter(|&w| w != 0)
                .collect();
            let pushed: Vec<Word> = pushed.iter().map(|a| a.raw()).collect();
            assert_eq!(pushed, non_null, "one root per non-null field, in order");
            ctx.truncate_roots(mark);
        }
    }

    /// Both nodes read alike by runs and by single fields, and the
    /// children a run returns lead to the leaves.
    fn runs_match(ctx: &mut TaskCtx<'_>, nodes: [Handle; 2]) {
        for obj in nodes {
            fields_match::<1>(ctx, obj);
            fields_match::<2>(ctx, obj);
            fields_match::<3>(ctx, obj);
            fields_match::<4>(ctx, obj);
            fields_match::<7>(ctx, obj);
            ptrs_match::<1>(ctx, obj);
            ptrs_match::<2>(ctx, obj);
            ptrs_match::<3>(ctx, obj);
            ptrs_match::<4>(ctx, obj);
        }
        let mark = ctx.root_mark();
        let [a, null_a, b, null_b] = ctx.read_ptrs(nodes[0], 0);
        assert_eq!((null_a, null_b), (None, None));
        for (child, leaf) in [a, b].into_iter().zip(LEAVES) {
            assert_eq!(ctx.read_words(child.expect("a child")), leaf);
        }
        assert_eq!(ctx.read_ptrs::<4>(nodes[1], 0), [None; 4]);
        assert_eq!(ctx.root_mark(), mark + 2, "null children push no roots");
        ctx.truncate_roots(mark);
    }

    /// Runs and single reads agree on objects in the local heap.
    pub(crate) fn match_on_a_local_object(ctx: &mut TaskCtx<'_>, desc: DescriptorId) {
        let nodes = alloc_nodes(ctx, desc);
        assert!(!slots(ctx, nodes).iter().any(|&a| is_global(ctx, a)));
        runs_match(ctx, nodes);
    }

    /// Runs and single reads agree on promoted objects. The first read of
    /// each node is a run through the local original's forwarding word: it
    /// finds the copy, whose children are global too.
    pub(crate) fn match_on_a_promoted_object(
        ctx: &mut TaskCtx<'_>,
        desc: DescriptorId,
        channel: ChannelId,
    ) {
        let nodes = alloc_nodes(ctx, desc);
        for node in nodes {
            ctx.send(channel, node);
        }
        let originals = slots(ctx, nodes);
        for node in nodes {
            let children: [Word; 4] = ctx.read_fields(node, 0);
            for child in children.into_iter().filter(|&w| w != 0) {
                assert!(is_global(ctx, Addr::new(child)), "the copy's child");
            }
        }
        runs_match(ctx, nodes);
        let copies = slots(ctx, nodes);
        assert_ne!(copies, originals, "the slots now name the copies");
        assert!(copies.iter().all(|&a| is_global(ctx, a)));
    }

    /// Runs and single reads agree on objects an allocation's collection
    /// moved. The caller checks that exactly one minor collection ran.
    pub(crate) fn match_after_an_allocation_that_collects(
        ctx: &mut TaskCtx<'_>,
        desc: DescriptorId,
    ) {
        let nodes = alloc_nodes(ctx, desc);
        let before = slots(ctx, nodes);
        let free = nursery_free_words(ctx);
        alloc_checks::fill_nursery_with_garbage(ctx, free);
        ctx.alloc_raw(&[1]);
        assert_ne!(slots(ctx, nodes), before, "the collection moved the nodes");
        runs_match(ctx, nodes);
    }

    /// Reads fields 2..4 of a 3-word object: a debug build panics.
    #[cfg(debug_assertions)]
    pub(crate) fn read_past_the_end(ctx: &mut TaskCtx<'_>) {
        let obj = ctx.alloc_raw(&[1, 2, 3]);
        let _: [Word; 2] = ctx.read_fields(obj, 2);
    }
}

/// Checks of [`TaskCtx::read_scope`] that must hold on both backends: a
/// scope reads what the handle reads return and pushes no roots. Each
/// backend's tests run them on a context it drives by hand; `desc` is the
/// seven-field node descriptor of [`read_checks`].
#[cfg(test)]
pub(crate) mod scope_checks {
    use super::read_checks::{alloc_nodes, is_global, slots, LEAVES};
    use super::*;

    /// One object read the way the checks compare: through a scope or
    /// through its handle.
    trait Reader {
        fn fields<const N: usize>(&mut self, first: usize) -> [Word; N];
        /// The words the non-null pointer fields name, `None` for null.
        fn ptrs<const N: usize>(&mut self, first: usize) -> [Option<Word>; N];
        fn len(&mut self) -> usize;
    }

    impl<'s> Reader for (&mut ReadScope<'s, '_>, Obj<'s>) {
        fn fields<const N: usize>(&mut self, first: usize) -> [Word; N] {
            self.0.fields(self.1, first)
        }

        fn ptrs<const N: usize>(&mut self, first: usize) -> [Option<Word>; N] {
            self.0
                .ptrs::<N>(self.1, first)
                .map(|p| p.map(|p| p.addr().raw()))
        }

        fn len(&mut self) -> usize {
            self.0.len(self.1)
        }
    }

    impl Reader for (&mut TaskCtx<'_>, Handle) {
        fn fields<const N: usize>(&mut self, first: usize) -> [Word; N] {
            self.0.read_fields(self.1, first)
        }

        /// Pops the roots the read pushed, so every handle read starts from
        /// the same root set.
        fn ptrs<const N: usize>(&mut self, first: usize) -> [Option<Word>; N] {
            let ctx = &mut *self.0;
            let mark = ctx.root_mark();
            let ptrs = ctx
                .read_ptrs::<N>(self.1, first)
                .map(|h| h.map(|h| ctx.roots.slots()[h.index()].raw()));
            ctx.truncate_roots(mark);
            ptrs
        }

        fn len(&mut self) -> usize {
            self.0.len(self.1)
        }
    }

    /// Everything the checks read of one seven-field node, in one order:
    /// every run of `N` in {1, 2, 3, 7} fields, every run of `N` in 1–4
    /// pointers (a null one as `u64::MAX`, which no pointer is), and the
    /// length.
    fn read_all(r: &mut impl Reader) -> Vec<Word> {
        fn runs<const N: usize>(r: &mut impl Reader, out: &mut Vec<Word>) {
            for first in 0..=7 - N {
                out.extend(r.fields::<N>(first));
            }
        }
        fn ptr_runs<const N: usize>(r: &mut impl Reader, out: &mut Vec<Word>) {
            for first in 0..=4 - N {
                out.extend(r.ptrs::<N>(first).map(|p| p.unwrap_or(u64::MAX)));
            }
        }
        let mut out = Vec::new();
        runs::<1>(r, &mut out);
        runs::<2>(r, &mut out);
        runs::<3>(r, &mut out);
        runs::<7>(r, &mut out);
        ptr_runs::<1>(r, &mut out);
        ptr_runs::<2>(r, &mut out);
        ptr_runs::<3>(r, &mut out);
        ptr_runs::<4>(r, &mut out);
        out.push(r.len() as Word);
        out
    }

    /// [`read_all`] of each node through one scope, which must push no
    /// roots and rewrite no slot.
    fn scope_reads(ctx: &mut TaskCtx<'_>, nodes: [Handle; 2]) -> [Vec<Word>; 2] {
        let (mark, before) = (ctx.root_mark(), slots(ctx, nodes));
        let reads = ctx.read_scope(|r| {
            nodes.map(|node| {
                let obj = r.obj(node);
                read_all(&mut (&mut *r, obj))
            })
        });
        assert_eq!(ctx.root_mark(), mark, "a scope pushes no roots");
        assert_eq!(slots(ctx, nodes), before, "a scope rewrites no slot");
        reads
    }

    /// Scope reads of both nodes equal their handle reads.
    fn reads_match(ctx: &mut TaskCtx<'_>, nodes: [Handle; 2]) {
        let scoped = scope_reads(ctx, nodes);
        let handles = nodes.map(|node| read_all(&mut (&mut *ctx, node)));
        assert_eq!(scoped, handles);
    }

    /// Scope reads equal handle reads on objects in the local heap.
    pub(crate) fn match_on_a_local_object(ctx: &mut TaskCtx<'_>, desc: DescriptorId) {
        let nodes = alloc_nodes(ctx, desc);
        assert!(!slots(ctx, nodes).iter().any(|&a| is_global(ctx, a)));
        reads_match(ctx, nodes);
    }

    /// Scope reads equal handle reads on promoted objects. The scope reads
    /// first, through the stale local addresses the promotion forwarded,
    /// and finds the copies, whose children are global too.
    pub(crate) fn match_on_a_promoted_object(
        ctx: &mut TaskCtx<'_>,
        desc: DescriptorId,
        channel: ChannelId,
    ) {
        let nodes = alloc_nodes(ctx, desc);
        for node in nodes {
            ctx.send(channel, node);
        }
        let originals = slots(ctx, nodes);
        assert!(!originals.iter().any(|&a| is_global(ctx, a)), "stale slots");
        let children: Vec<Addr> = ctx.read_scope(|r| {
            let node = r.obj(nodes[0]);
            r.ptrs::<4>(node, 0)
                .iter()
                .flatten()
                .map(|c| c.addr())
                .collect()
        });
        assert_eq!(children.len(), 2);
        assert!(
            children.iter().all(|&a| is_global(ctx, a)),
            "the copy's children"
        );
        reads_match(ctx, nodes);
        assert!(slots(ctx, nodes).iter().all(|&a| is_global(ctx, a)));
    }

    /// A null child reads as `None` through a scope, and the non-null ones
    /// lead to the leaves.
    pub(crate) fn null_children_read_as_none(ctx: &mut TaskCtx<'_>, desc: DescriptorId) {
        let nodes = alloc_nodes(ctx, desc);
        let mark = ctx.root_mark();
        let (leaves, all_null) = ctx.read_scope(|r| {
            let [a, null_a, b, null_b] = r.ptrs(r.obj(nodes[0]), 0);
            assert_eq!((null_a, null_b), (None, None));
            let leaves = [a, b].map(|leaf| {
                let leaf = leaf.expect("a child");
                let len = r.len(leaf);
                (0..len)
                    .map(|i| r.fields::<1>(leaf, i)[0])
                    .collect::<Vec<_>>()
            });
            let all_null = r.ptrs::<4>(r.obj(nodes[1]), 0).map(|p| p.is_none());
            (leaves, all_null)
        });
        assert_eq!(leaves, LEAVES);
        assert_eq!(all_null, [true; 4]);
        assert_eq!(ctx.root_mark(), mark, "a scope pushes no roots");
        reads_match(ctx, nodes);
    }

    /// Reads fields 2..4 of a 3-word object in a scope: a debug build
    /// panics.
    #[cfg(debug_assertions)]
    pub(crate) fn read_past_the_end(ctx: &mut TaskCtx<'_>) {
        let obj = ctx.alloc_raw(&[1, 2, 3]);
        ctx.read_scope(|r| {
            let _: [Word; 2] = r.fields(r.obj(obj), 2);
        });
    }
}
