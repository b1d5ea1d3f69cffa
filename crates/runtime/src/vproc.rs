//! Virtual processors (vprocs), their work-stealing deques, and the
//! threaded backend's steal-request mailboxes.
//!
//! A vproc is the runtime's abstraction of a computational resource (§2.2 of
//! the paper): it is pinned to a physical core, owns a local heap and a
//! work-stealing deque, and accumulates the cost of the work it performs
//! during the current scheduling round.
//!
//! The two execution backends queue work differently:
//!
//! * the **simulated** machine keeps a plain `VecDeque` per [`VProc`]: its
//!   single driver thread is the only one that ever touches it;
//! * the **threaded** machine splits each vproc's deque into a *private end*
//!   (a plain `VecDeque` owned by the worker thread — push and pop take no
//!   lock at all) and a *published end*: the [`StealMailbox`]. A thief never
//!   touches a victim's queue; it posts a [`StealRequest`] to the victim's
//!   mailbox and the victim hands a task over (promoting only that task's
//!   roots — the paper's lazy promotion-on-steal) at its next safe point.

use crate::stats::VprocRunStats;
use crate::task::Task;
use mgc_numa::{CoreId, NodeId, VprocRoundCost};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

// ----------------------------------------------------------------------
// The threaded backend's steal-request mailbox.
// ----------------------------------------------------------------------

/// How long a thief blocks on one wait slice before re-checking the abort
/// conditions (victim panic, pending global collection, program exit).
pub(crate) const STEAL_WAIT_SLICE: Duration = Duration::from_micros(50);

/// Wait slices before a thief gives up on an unserved request and tries
/// another victim. Bounds the latency of a thief stuck behind a victim
/// running one long task.
pub(crate) const STEAL_PATIENCE_SLICES: u32 = 40;

/// The response side of one steal request.
#[derive(Debug, Default)]
pub(crate) enum StealResponse {
    /// Posted, not yet looked at by the victim.
    #[default]
    Pending,
    /// The victim handed a task over (its roots already promoted).
    Filled(Task),
    /// The victim had no stealable work (or a collection is pending).
    Declined,
    /// The thief gave up (timeout, pending collection, or machine poison)
    /// before the victim looked; the victim must keep its task.
    Cancelled,
}

/// One steal request: a single-use rendezvous cell between a thief and a
/// victim. The thief allocates it, posts it to the victim's mailbox, and
/// blocks on `cv`; the victim transitions `Pending → Filled/Declined` under
/// the lock, so a task is handed over exactly once or not at all — even when
/// the thief concurrently cancels (`Pending → Cancelled`).
#[derive(Debug, Default)]
pub(crate) struct StealRequest {
    /// The requesting thief's vproc id, so the victim can place the stolen
    /// task's promoted roots on the thief's node (`NodeLocal` placement)
    /// and attribute the steal's locality.
    thief: usize,
    state: Mutex<StealResponse>,
    cv: Condvar,
}

impl StealRequest {
    pub(crate) fn new(thief: usize) -> Arc<Self> {
        Arc::new(StealRequest {
            thief,
            ..StealRequest::default()
        })
    }

    /// The requesting thief's vproc id.
    pub(crate) fn thief(&self) -> usize {
        self.thief
    }

    /// Victim side: atomically claims the request if it is still pending.
    /// Returns `false` when the thief already cancelled.
    pub(crate) fn try_fill(&self, task: Task) -> Result<(), Task> {
        let mut state = self.state.lock().expect("steal request poisoned");
        match *state {
            StealResponse::Pending => {
                *state = StealResponse::Filled(task);
                self.cv.notify_all();
                Ok(())
            }
            StealResponse::Cancelled => Err(task),
            _ => unreachable!("a steal request is resolved exactly once"),
        }
    }

    /// Victim side: declines the request (no stealable work). A no-op when
    /// the thief already cancelled.
    pub(crate) fn decline(&self) {
        let mut state = self.state.lock().expect("steal request poisoned");
        if matches!(*state, StealResponse::Pending) {
            *state = StealResponse::Declined;
            self.cv.notify_all();
        }
    }

    /// True if the request has not been resolved or cancelled yet.
    pub(crate) fn is_pending(&self) -> bool {
        matches!(
            *self.state.lock().expect("steal request poisoned"),
            StealResponse::Pending
        )
    }

    /// Thief side: waits for the victim's answer in bounded slices.
    /// `should_abort` is polled between slices (machine poison, a pending
    /// global collection, program termination); when it fires — or after
    /// [`STEAL_PATIENCE_SLICES`] slices — the request is cancelled and
    /// `None` is returned. A thief therefore **never hangs** on a victim
    /// that panicked or will never answer.
    pub(crate) fn wait(&self, mut should_abort: impl FnMut() -> bool) -> Option<Task> {
        let mut state = self.state.lock().expect("steal request poisoned");
        let mut slices = 0u32;
        loop {
            match std::mem::replace(&mut *state, StealResponse::Cancelled) {
                StealResponse::Filled(task) => return Some(task),
                StealResponse::Declined => return None,
                StealResponse::Pending => {
                    if should_abort() || slices >= STEAL_PATIENCE_SLICES {
                        // Leave the `Cancelled` we just swapped in.
                        return None;
                    }
                    *state = StealResponse::Pending;
                    let (guard, _timeout) = self
                        .cv
                        .wait_timeout(state, STEAL_WAIT_SLICE)
                        .expect("steal request poisoned");
                    state = guard;
                    slices += 1;
                }
                StealResponse::Cancelled => {
                    unreachable!("only the waiting thief cancels its own request")
                }
            }
        }
    }
}

/// The published end of a threaded vproc's split deque: a queue of steal
/// requests from thieves, plus a lock-free hint of how much private work the
/// owner currently has (so thieves pick victims without taking any lock).
#[derive(Debug, Default)]
pub(crate) struct StealMailbox {
    requests: Mutex<VecDeque<Arc<StealRequest>>>,
    /// Count of posted-but-not-taken requests, maintained alongside the
    /// queue so the owner's slow path can tell "nothing queued" without a
    /// mutex acquisition. Incremented *before* the push (so it never
    /// undercounts a queued request relative to a successful pop) and
    /// decremented only on an actual pop.
    pending: AtomicUsize,
    /// Owner-published length of the private deque (`Release` stores by the
    /// owner, `Acquire` loads by thieves). Purely a heuristic: a stale hint
    /// costs a declined request, never correctness.
    work_hint: AtomicUsize,
}

impl StealMailbox {
    pub(crate) fn new() -> Self {
        StealMailbox::default()
    }

    /// Thief side: posts a request. The caller then zeroes the victim's
    /// allocation limit word; the `SeqCst` increment is the request half of
    /// that handshake (`WorkerState::alloc` in `threaded.rs`).
    pub(crate) fn post(&self, request: Arc<StealRequest>) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.requests
            .lock()
            .expect("steal mailbox poisoned")
            .push_back(request);
    }

    /// Victim side: takes the oldest unanswered request, if any.
    pub(crate) fn take_request(&self) -> Option<Arc<StealRequest>> {
        if self.pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        let taken = self
            .requests
            .lock()
            .expect("steal mailbox poisoned")
            .pop_front();
        if taken.is_some() {
            self.pending.fetch_sub(1, Ordering::Release);
        }
        taken
    }

    /// True if a request is queued. The owner asks only on its slow path,
    /// after re-arming its limit word; the `SeqCst` load pairs with the
    /// increment in [`StealMailbox::post`].
    pub(crate) fn has_requests(&self) -> bool {
        self.pending.load(Ordering::SeqCst) > 0
    }

    /// Owner side: publishes the current private-deque length.
    pub(crate) fn publish_work_hint(&self, len: usize) {
        self.work_hint.store(len, Ordering::Release);
    }

    /// Thief side: the victim's last published private-deque length.
    pub(crate) fn work_hint(&self) -> usize {
        self.work_hint.load(Ordering::Acquire)
    }
}

/// Per-vproc scheduler state of the simulated machine.
pub(crate) struct VProc {
    pub(crate) id: usize,
    pub(crate) core: CoreId,
    pub(crate) node: NodeId,
    /// The work-stealing deque: the owner pushes and pops at the back
    /// (LIFO), thieves take from the front (FIFO).
    pub(crate) deque: VecDeque<Task>,
    pub(crate) round_cost: VprocRoundCost,
    pub(crate) stats: VprocRunStats,
}

impl fmt::Debug for VProc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VProc")
            .field("id", &self.id)
            .field("core", &self.core)
            .field("node", &self.node)
            .field("queued_tasks", &self.deque.len())
            .finish()
    }
}

impl VProc {
    pub(crate) fn new(id: usize, core: CoreId, node: NodeId, num_nodes: usize) -> Self {
        VProc {
            id,
            core,
            node,
            deque: VecDeque::new(),
            round_cost: VprocRoundCost::new(core, num_nodes),
            stats: VprocRunStats::default(),
        }
    }

    /// Pushes a task on the owner's end of the deque.
    pub(crate) fn push(&mut self, task: Task) {
        self.deque.push_back(task);
    }

    /// Pops a task from the owner's end of the deque (LIFO: the most recently
    /// spawned work, which is the most cache- and locality-friendly).
    pub(crate) fn pop_local(&mut self) -> Option<Task> {
        self.deque.pop_back()
    }

    /// Steals a task from the thief-facing end of the deque (FIFO: the
    /// oldest, typically largest, unit of work).
    pub(crate) fn steal_from(&mut self) -> Option<Task> {
        self.deque.pop_front()
    }

    /// Takes the accumulated round cost, leaving an empty one behind.
    pub(crate) fn take_round_cost(&mut self, num_nodes: usize) -> VprocRoundCost {
        std::mem::replace(
            &mut self.round_cost,
            VprocRoundCost::new(self.core, num_nodes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Delivery, TaskResult, TaskSpec};

    fn task(name: &'static str) -> Task {
        Task::from_spec(
            TaskSpec::new(name, |_| TaskResult::Unit),
            Delivery::Discard,
            0,
        )
    }

    #[test]
    fn owner_pops_lifo_thief_steals_fifo() {
        let mut vp = VProc::new(0, CoreId::new(0), NodeId::new(0), 2);
        vp.push(task("a"));
        vp.push(task("b"));
        vp.push(task("c"));
        assert_eq!(vp.pop_local().unwrap().name(), "c");
        assert_eq!(vp.steal_from().unwrap().name(), "a");
        assert_eq!(vp.pop_local().unwrap().name(), "b");
        assert!(vp.pop_local().is_none());
        assert!(vp.steal_from().is_none());
    }

    #[test]
    fn round_cost_take_resets() {
        let mut vp = VProc::new(1, CoreId::new(3), NodeId::new(1), 4);
        vp.round_cost.add_cpu_ns(100.0);
        let taken = vp.take_round_cost(4);
        assert_eq!(taken.cpu_ns, 100.0);
        assert_eq!(vp.round_cost.cpu_ns, 0.0);
        assert_eq!(vp.round_cost.core, CoreId::new(3));
    }

    #[test]
    fn debug_shows_queue_length() {
        let mut vp = VProc::new(0, CoreId::new(0), NodeId::new(0), 1);
        vp.push(task("x"));
        assert!(format!("{vp:?}").contains("queued_tasks: 1"));
    }

    fn tagged_task(tag: u64) -> Task {
        Task::from_spec(
            TaskSpec::new("stress", |_| TaskResult::Unit).with_value(tag),
            Delivery::Discard,
            0,
        )
    }

    #[test]
    fn steal_request_fill_decline_and_cancel_transitions() {
        // Fill wins over a later decline attempt (decline is then a no-op).
        let request = StealRequest::new(0);
        assert!(request.is_pending());
        request.try_fill(tagged_task(7)).unwrap();
        assert!(!request.is_pending());
        let task = request.wait(|| false).expect("filled request yields task");
        assert_eq!(task.values, vec![7]);

        // Decline resolves the wait with `None`.
        let request = StealRequest::new(0);
        request.decline();
        assert!(request.wait(|| false).is_none());

        // A cancelled request rejects a late fill, handing the task back.
        let request = StealRequest::new(0);
        assert!(request.wait(|| true).is_none(), "abort cancels immediately");
        let rejected = request.try_fill(tagged_task(9)).unwrap_err();
        assert_eq!(rejected.values, vec![9]);
        request.decline(); // late decline on a cancelled request is a no-op
    }

    #[test]
    fn steal_wait_times_out_when_the_victim_never_answers() {
        // The victim "panicked": nobody will ever resolve the request. The
        // thief must return within its bounded patience instead of hanging.
        let request = StealRequest::new(0);
        let start = std::time::Instant::now();
        assert!(request.wait(|| false).is_none());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the wait must be bounded"
        );
    }

    /// The satellite stress test: one victim + N thieves exchange steal
    /// requests under contention; every task is handed over exactly once.
    #[test]
    fn steal_mailbox_one_victim_many_thieves_loses_no_tasks() {
        const THIEVES: usize = 4;
        const TASKS: u64 = 400;

        let mailbox = Arc::new(StealMailbox::new());
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let victim = {
            let mailbox = Arc::clone(&mailbox);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut private: VecDeque<Task> = (0..TASKS).map(tagged_task).collect();
                mailbox.publish_work_hint(private.len());
                let mut kept: Vec<u64> = Vec::new();
                loop {
                    while let Some(request) = mailbox.take_request() {
                        match private.pop_front() {
                            Some(task) => {
                                if let Err(task) = request.try_fill(task) {
                                    // The thief cancelled: keep the task.
                                    private.push_front(task);
                                }
                            }
                            None => request.decline(),
                        }
                        mailbox.publish_work_hint(private.len());
                    }
                    // The victim also runs tasks of its own, contending with
                    // the handoff path.
                    if let Some(task) = private.pop_back() {
                        kept.push(task.values[0]);
                        mailbox.publish_work_hint(private.len());
                    } else {
                        break;
                    }
                }
                done.store(true, Ordering::Release);
                // Drain late requests so no thief waits a full timeout.
                while let Some(request) = mailbox.take_request() {
                    request.decline();
                }
                kept
            })
        };

        let thieves: Vec<_> = (0..THIEVES)
            .map(|_| {
                let mailbox = Arc::clone(&mailbox);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut stolen: Vec<u64> = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        if mailbox.work_hint() == 0 {
                            std::thread::yield_now();
                            continue;
                        }
                        let request = StealRequest::new(0);
                        mailbox.post(Arc::clone(&request));
                        if let Some(task) = request.wait(|| done.load(Ordering::Acquire)) {
                            stolen.push(task.values[0]);
                        }
                    }
                    // Requests posted right before `done` flipped are drained
                    // and declined by the victim; a cancelled request never
                    // swallows a task (`try_fill` hands it back).
                    stolen
                })
            })
            .collect();

        let mut seen = victim.join().expect("victim panicked");
        for thief in thieves {
            seen.extend(thief.join().expect("thief panicked"));
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..TASKS).collect::<Vec<_>>(),
            "every task must be run exactly once, by the victim or a thief"
        );
    }
}
