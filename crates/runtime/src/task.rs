//! Tasks, handles, and join cells: the implicitly-threaded parallelism layer.
//!
//! The Manticore runtime executes implicitly-threaded parallelism by pushing
//! units of work (continuations) onto a vproc-local work queue and stealing
//! from other vprocs when idle (§2.3 of the paper). This module provides the
//! equivalent machinery for the reproduction:
//!
//! * a [`Task`] is a unit of work with an explicit set of *heap roots* (the
//!   pointers it has captured) and raw input values;
//! * a [`Handle`] is a task-relative index into those roots — task bodies
//!   never hold raw heap addresses across allocation points, because any
//!   allocation can trigger a collection that moves objects;
//! * a [`JoinCell`] implements fork/join: when the last child of a fork
//!   completes, the join's continuation task becomes runnable, receiving the
//!   children's results as its inputs.
//!
//! Pointer results that cross vprocs are promoted to the global heap lazily,
//! mirroring the lazy-promotion scheme the paper uses for work stealing.

use mgc_heap::{Addr, Word};
use std::fmt;

/// A task-relative reference to a heap object: index `0` is the task's first
/// root, and so on. Handles stay valid across garbage collections because
/// the collector rewrites the underlying root slots in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(pub(crate) usize);

impl Handle {
    /// The index of this handle in the owning task's root set.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a join cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinId(pub(crate) usize);

/// A task's heap roots plus a **nursery-free watermark**: the slots below
/// `clean` hold no pointer into the owning vproc's nursery, so a minor
/// collection only has to visit the slots above it — the ones registered
/// since the last local collection — instead of every handle the task holds
/// (the stack-watermark idea of generational stack collection).
///
/// The watermark needs no write barrier because nothing can put a nursery
/// pointer below it: heap objects are immutable (no old→nursery pointer can
/// appear, §2.3/§3.3), a slot is only written by [`RootSet::push`], by handle
/// resolution (the end of a forwarding chain, never a nursery address the
/// slot did not already hold) and by the collector, and every local
/// collection leaves the nursery empty. Only the threaded backend advances
/// the watermark; the simulated one hands every slot to every collection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RootSet {
    slots: Vec<Addr>,
    /// Invariant: `clean <= slots.len()`.
    clean: usize,
}

impl From<Vec<Addr>> for RootSet {
    /// Every slot starts above the watermark: spawn-time inputs may be
    /// nursery addresses.
    fn from(slots: Vec<Addr>) -> Self {
        RootSet { slots, clean: 0 }
    }
}

impl RootSet {
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Registers a new root above the watermark.
    pub(crate) fn push(&mut self, addr: Addr) {
        self.slots.push(addr);
    }

    /// Drops every slot from `mark` on. The watermark follows the length
    /// down, so slots re-used afterwards are scanned again.
    pub(crate) fn truncate(&mut self, mark: usize) {
        self.slots.truncate(mark);
        self.clean = self.clean.min(self.slots.len());
    }

    /// Every slot (major and global collections move non-nursery data, so
    /// they see all of them).
    pub(crate) fn slots(&self) -> &[Addr] {
        &self.slots
    }

    /// Every slot, writable. Callers may store only addresses outside the
    /// owner's nursery below the watermark (the collector and forwarding
    /// resolution qualify).
    pub(crate) fn slots_mut(&mut self) -> &mut [Addr] {
        &mut self.slots
    }

    /// The slots below the watermark.
    pub(crate) fn clean_slots(&self) -> &[Addr] {
        &self.slots[..self.clean]
    }

    /// The slots above the watermark: all a minor collection has to visit.
    pub(crate) fn dirty_mut(&mut self) -> &mut [Addr] {
        &mut self.slots[self.clean..]
    }

    /// Raises the watermark over every slot. Call only when the owner's
    /// nursery is empty, i.e. right after a local collection that was handed
    /// at least [`RootSet::dirty_mut`].
    pub(crate) fn mark_clean(&mut self) {
        self.clean = self.slots.len();
    }
}

/// The result a task body returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskResult {
    /// No interesting result.
    Unit,
    /// A raw (non-pointer) value, e.g. a count or a packed float.
    Value(Word),
    /// A heap object, identified by one of the task's handles.
    Ptr(Handle),
}

/// The closure type executed by a task.
///
/// Bodies are `Send` because the real-threads backend moves tasks between
/// OS threads (work stealing hands a task from the victim's deque to the
/// thief's thread).
pub type TaskBody = Box<dyn FnOnce(&mut crate::ctx::TaskCtx<'_>) -> TaskResult + Send>;

/// Specification of a task to spawn: a name for diagnostics, the heap
/// objects and raw values it takes as input, and its body.
pub struct TaskSpec {
    /// Short name used in traces and statistics.
    pub name: &'static str,
    /// Heap-object inputs (resolved from the spawner's handles at spawn
    /// time). They become the new task's first roots, in order.
    pub ptr_inputs: Vec<Addr>,
    /// Raw (non-pointer) inputs.
    pub value_inputs: Vec<Word>,
    /// The body to run.
    pub body: TaskBody,
}

impl fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskSpec")
            .field("name", &self.name)
            .field("ptr_inputs", &self.ptr_inputs.len())
            .field("value_inputs", &self.value_inputs.len())
            .finish()
    }
}

impl TaskSpec {
    /// Creates a task specification with no inputs.
    pub fn new(
        name: &'static str,
        body: impl FnOnce(&mut crate::ctx::TaskCtx<'_>) -> TaskResult + Send + 'static,
    ) -> Self {
        TaskSpec {
            name,
            ptr_inputs: Vec::new(),
            value_inputs: Vec::new(),
            body: Box::new(body),
        }
    }

    /// Adds a raw input value.
    pub fn with_value(mut self, value: Word) -> Self {
        self.value_inputs.push(value);
        self
    }

    /// Adds several raw input values.
    pub fn with_values(mut self, values: impl IntoIterator<Item = Word>) -> Self {
        self.value_inputs.extend(values);
        self
    }
}

/// Where a task delivers its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// Nobody is waiting for the result.
    Discard,
    /// Slot `slot` of join cell `join`.
    Join { join: JoinId, slot: usize },
}

/// A runnable unit of work sitting in a vproc's deque.
pub struct Task {
    pub(crate) name: &'static str,
    /// The task's heap roots. The collector rewrites these in place; the
    /// watermark travels with the task into [`TaskCtx`](crate::ctx::TaskCtx)
    /// and back.
    pub(crate) roots: RootSet,
    /// Raw input values.
    pub(crate) values: Vec<Word>,
    pub(crate) body: TaskBody,
    pub(crate) delivery: Delivery,
    /// The vproc that created the task (used to attribute lazy-promotion
    /// costs when the task is stolen).
    pub(crate) origin_vproc: usize,
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("name", &self.name)
            .field("roots", &self.roots.len())
            .field("values", &self.values.len())
            .field("delivery", &self.delivery)
            .field("origin_vproc", &self.origin_vproc)
            .finish()
    }
}

impl Task {
    pub(crate) fn from_spec(spec: TaskSpec, delivery: Delivery, origin_vproc: usize) -> Self {
        Task {
            name: spec.name,
            roots: spec.ptr_inputs.into(),
            values: spec.value_inputs,
            body: spec.body,
            delivery,
            origin_vproc,
        }
    }

    /// The task's diagnostic name.
    #[allow(dead_code)] // used by scheduler tests and debug tracing
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A pending result slot of a join cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct JoinSlot {
    pub(crate) word: Word,
    pub(crate) is_ptr: bool,
    pub(crate) filled: bool,
}

/// A fork/join synchronisation cell.
pub(crate) struct JoinCell {
    pub(crate) remaining: usize,
    pub(crate) slots: Vec<JoinSlot>,
    pub(crate) continuation: Option<Task>,
}

impl fmt::Debug for JoinCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinCell")
            .field("remaining", &self.remaining)
            .field("slots", &self.slots.len())
            .field("has_continuation", &self.continuation.is_some())
            .finish()
    }
}

impl JoinCell {
    pub(crate) fn new(children: usize, continuation: Task) -> Self {
        JoinCell {
            remaining: children,
            slots: vec![JoinSlot::default(); children],
            continuation: Some(continuation),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_index_round_trip() {
        assert_eq!(Handle(3).index(), 3);
    }

    fn addrs(words: &[u64]) -> Vec<Addr> {
        words.iter().map(|&w| Addr::new(w)).collect()
    }

    #[test]
    fn root_set_watermark_follows_truncation_but_not_pushes() {
        let mut set = RootSet::from(addrs(&[8, 16, 24]));
        // Spawn-time inputs may be nursery addresses: everything is dirty.
        assert!(set.clean_slots().is_empty());
        assert_eq!(set.dirty_mut().to_vec(), addrs(&[8, 16, 24]));

        set.mark_clean();
        assert_eq!(set.clean_slots(), addrs(&[8, 16, 24]));
        assert!(set.dirty_mut().is_empty());

        // A push lands above the watermark and does not raise it.
        set.push(Addr::new(32));
        assert_eq!(set.clean_slots().len(), 3);
        assert_eq!(set.dirty_mut().to_vec(), addrs(&[32]));

        // Truncating above the watermark leaves it alone …
        set.truncate(3);
        assert_eq!(set.clean_slots().len(), 3);
        // … truncating below lowers it, so a re-used slot is dirty again.
        set.truncate(1);
        assert_eq!(set.clean_slots(), addrs(&[8]));
        set.push(Addr::new(40));
        assert_eq!(set.clean_slots(), addrs(&[8]));
        assert_eq!(set.dirty_mut().to_vec(), addrs(&[40]));
        assert_eq!(set.slots(), addrs(&[8, 40]));
        assert_eq!(set.len(), 2);

        // Truncating past the end changes nothing.
        set.truncate(10);
        assert_eq!(set.len(), 2);
        assert_eq!(set.clean_slots().len(), 1);
    }

    #[test]
    fn root_set_dirty_slots_are_written_in_place() {
        let mut set = RootSet::from(addrs(&[8]));
        set.mark_clean();
        set.push(Addr::new(16));
        set.dirty_mut()[0] = Addr::new(48);
        assert_eq!(set.slots(), addrs(&[8, 48]));
        assert_eq!(RootSet::default().len(), 0);
    }

    #[test]
    fn task_spec_builders() {
        let spec = TaskSpec::new("t", |_| TaskResult::Unit)
            .with_value(7)
            .with_values([8, 9]);
        assert_eq!(spec.value_inputs, vec![7, 8, 9]);
        assert_eq!(spec.name, "t");
        assert!(format!("{spec:?}").contains("TaskSpec"));
    }

    #[test]
    fn task_from_spec_carries_inputs() {
        let spec = TaskSpec::new("child", |_| TaskResult::Unit).with_value(1);
        let task = Task::from_spec(spec, Delivery::Discard, 2);
        assert_eq!(task.origin_vproc, 2);
        assert_eq!(task.values, vec![1]);
        assert!(task.roots.clean_slots().is_empty());
        assert_eq!(task.name(), "child");
        assert!(format!("{task:?}").contains("child"));
    }

    #[test]
    fn join_cell_starts_unfilled() {
        let cont = Task::from_spec(
            TaskSpec::new("k", |_| TaskResult::Unit),
            Delivery::Discard,
            0,
        );
        let cell = JoinCell::new(3, cont);
        assert_eq!(cell.remaining, 3);
        assert_eq!(cell.slots.len(), 3);
        assert!(cell.slots.iter().all(|s| !s.filled));
        assert!(format!("{cell:?}").contains("JoinCell"));
    }
}
