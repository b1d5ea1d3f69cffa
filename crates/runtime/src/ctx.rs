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
//! **A read reuses the object the last read located.** The context keeps
//! the last resolve's result: the address it ended at, the object's
//! [`Location`](mgc_heap::Location) (owning vproc and word offset of a
//! local object, chunk and offset of a global one) and the node a simulated
//! read is charged to. A read whose root slot holds that same address is
//! served from the stored location: no classification, no chunk-directory
//! walk, no forwarding check. Visiting one object field by field therefore
//! resolves it once, as the paper's mutator keeps a raw pointer in a
//! register between GC points (§2.3, §3.3). The key is the slot's address,
//! not the handle, so two handles to one object share it, and `read_ptr`'s
//! new root keeps it.
//!
//! The clearing rule: every operation that can reach a safe point, promote
//! or allocate forgets the stored object — `alloc_*`, `truncate_roots`,
//! `keep`, `wait_until_ns`, `spawn`, `fork_join`, `send`, `recv` and the
//! proxy calls. That is sound because objects move, and forwarding words
//! appear, only inside those calls. A local object moves only in its
//! owner's collections and promotions, and those run inside them. A threaded
//! global collection, a budgeted increment included, forwards only while
//! every worker is inside its barriers, and a worker enters them only at a
//! safe point. The simulated global collection runs between tasks. So a
//! stored location is exact until the next clear, and only an address that
//! passed a full resolve since then — the unmapped and foreign-heap checks
//! and the containment assert included — is ever served. A simulated hit
//! charges exactly what the miss charged, so virtual time does not change.
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
use crate::task::{Delivery, Handle, JoinCell, RootSet, Task, TaskResult, TaskSpec};
use crate::threaded::{PromoteWhy, WorkerState};
use mgc_heap::{
    f64_to_word, word_to_f64, Addr, DescriptorId, ObjectKind, Place, Resolved, SharedGlobalHeap,
    Word,
};

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

/// The execution context handed to every task body.
pub struct TaskCtx<'a> {
    state: CtxState<'a>,
    /// The machine's global heap, held by the caller for the whole task, so
    /// `last` can keep a chunk reference.
    global: &'a SharedGlobalHeap,
    /// The object the last read located, until the next operation that can
    /// move objects (the clearing rule in the module doc).
    last: Option<Resolved<'a>>,
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
            last: None,
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
            last: None,
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
        self.last = None;
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
    // room may collect, which moves the referenced objects, so every
    // allocation also forgets the object the last read located.

    /// Allocates a raw-data object of `len` words and returns a handle to it.
    /// The object is written where it lives: word `i` is `fill(i)`, called
    /// exactly once per index, in order, once the nursery has room (after
    /// any collection the allocation runs). The one raw allocation.
    #[inline]
    pub fn alloc_raw_with(&mut self, len: usize, mut fill: impl FnMut(usize) -> Word) -> Handle {
        self.last = None;
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
        self.last = None;
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
        self.last = None;
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

    /// Resolves `handle` to the current copy of its object — updating the
    /// root slot so later accesses are direct — and reads from it in the
    /// same step: `read` gets the located object on either backend. The
    /// simulated backend then charges `words(place)` words to the node and
    /// region the object was found in. A slot holding the address the last
    /// read resolved to is served from that read's location (module doc).
    #[inline(always)]
    fn access<R>(
        &mut self,
        handle: Handle,
        words: impl FnOnce(Place<'_>) -> usize,
        read: impl FnOnce(Place<'_>) -> R,
    ) -> R {
        let slot = &mut self.roots.slots_mut()[handle.index()];
        let found = match self.last {
            Some(last) if last.addr == *slot => last,
            _ => {
                let found = match &self.state {
                    CtxState::Sim(state) => state.locate(self.global, *slot),
                    CtxState::Threaded(worker) => worker.locate(self.global, *slot),
                };
                // Never a nursery address the slot did not already hold:
                // forwarding pointers lead out of the local heap, so the
                // watermark stands.
                *slot = found.addr;
                self.last = Some(found);
                found
            }
        };
        match &mut self.state {
            CtxState::Sim(state) => {
                let place = state.heap.place_of(found.location);
                let (value, local, words) = (read(place), place.is_local(), words(place));
                state.charge_access(self.vproc, found.node, local, words);
                value
            }
            CtxState::Threaded(worker) => read(worker.heap.place_of(found.location)),
        }
    }

    /// Reads a raw field of the object behind `handle`.
    #[inline]
    pub fn read_raw(&mut self, handle: Handle, index: usize) -> Word {
        self.access(handle, |_| 1, |place| place.read(index))
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
        match self.read_raw(handle, index) {
            0 => None,
            word => Some(self.push_root(Addr::new(word))),
        }
    }

    /// Appends the whole payload of the object behind `handle` to `out`,
    /// charging a single bulk access of the header's `total_words` (the
    /// workloads use this for rope leaves). The one bulk read: it allocates
    /// nothing unless `out` has to grow, so a caller that reuses `out`
    /// allocates nothing per read.
    #[inline]
    pub fn read_words_into(&mut self, handle: Handle, out: &mut Vec<Word>) {
        self.access(
            handle,
            |place| place.header().total_words(),
            |place| place.payload_into(out),
        )
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
        self.access(handle, |_| 0, |place| place.header()).len_words as usize
    }

    /// True if the object behind `handle` has no payload (never the case for
    /// objects allocated through this API).
    pub fn is_empty(&mut self, handle: Handle) -> bool {
        self.len(handle) == 0
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
        self.last = None;
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
        self.last = None;
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
        self.last = None;
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
        self.last = None;
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
        self.last = None;
        let addr = self.resolve(message);
        match &mut self.state {
            CtxState::Sim(state) => state.channel_send(self.vproc, channel, addr),
            CtxState::Threaded(worker) => worker.channel_send(channel, addr),
        }
    }

    /// Receives the oldest message from `channel`, if any.
    pub fn recv(&mut self, channel: ChannelId) -> Option<Handle> {
        self.last = None;
        let addr = match &mut self.state {
            CtxState::Sim(state) => state.channel_recv(self.vproc, channel)?,
            CtxState::Threaded(worker) => worker.channel_recv(channel)?,
        };
        Some(self.push_root(addr))
    }

    /// Creates an object proxy for a local object, so that global runtime
    /// structures can refer to it without violating the heap invariants.
    pub fn create_proxy(&mut self, handle: Handle) -> ProxyId {
        self.last = None;
        let addr = self.resolve(handle);
        match &mut self.state {
            CtxState::Sim(state) => state.create_proxy(self.vproc, addr),
            CtxState::Threaded(worker) => worker.create_proxy(addr),
        }
    }

    /// Resolves a proxy. Resolving from a vproc other than the owner forces
    /// the underlying object to be promoted to the global heap.
    pub fn resolve_proxy(&mut self, proxy: ProxyId) -> Handle {
        self.last = None;
        let addr = match &mut self.state {
            CtxState::Sim(state) => state.resolve_proxy(self.vproc, proxy),
            CtxState::Threaded(worker) => worker.resolve_proxy(proxy),
        };
        self.push_root(addr)
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    /// Convenience constructor for returning a pointer result.
    pub fn result_ptr(&self, handle: Handle) -> TaskResult {
        TaskResult::Ptr(handle)
    }

    /// Convenience constructor for returning an `f64` result.
    pub fn result_f64(&self, value: f64) -> TaskResult {
        TaskResult::Value(f64_to_word(value))
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
    fn fill_nursery_with_garbage(ctx: &mut TaskCtx<'_>, free: usize) {
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
