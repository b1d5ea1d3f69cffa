//! The threaded backend's safe point is its allocation limit word: a thief
//! or a collection zeroes a vproc's word, and the next allocation or
//! `truncate_roots` notices because it compares against that word anyway.
//! These tests pin both halves of the protocol: a signal reaches a task that
//! never allocates, and a signalled vproc re-arms its word, so the slow path
//! stays rare.
//!
//! They honour `MGC_VPROCS` (CI runs them at 4 in `threaded-smoke` and under
//! ThreadSanitizer).

use manticore_gc::heap::i64_to_word;
use manticore_gc::numa::Topology;
use manticore_gc::runtime::{
    EnvOverrides, Executor, MachineConfig, Program, RunReport, TaskResult, TaskSpec,
    ThreadedMachine,
};
use manticore_gc::workloads::churn::{expected_checksum_value, Churn, ChurnParams};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// How long a signal-delivery run may take before the test calls it hung.
const CAP: Duration = Duration::from_secs(10);

/// The `MGC_VPROCS` override, if any.
fn env_vprocs() -> Option<usize> {
    EnvOverrides::capture().vprocs
}

/// Runs `machine` on a helper thread and fails the test if it has not
/// finished within [`CAP`]. On a timeout `flag` is raised so the looping task
/// can end; the run's threads are left behind, as a hung run's must be.
fn run_capped(mut machine: ThreadedMachine, flag: &AtomicBool, what: &str) -> RunReport {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let report = machine.run();
        tx.send(report)
            .expect("the test thread waits for the report");
    });
    match rx.recv_timeout(CAP) {
        Ok(report) => {
            runner.join().expect("the runner already sent its report");
            report
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match runner.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the runner sends before it returns"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            flag.store(true, Ordering::Release);
            panic!("{what}: the run did not finish in {CAP:?} — the signal never arrived");
        }
    }
}

/// A root task on worker 0 that queues `child` and then only truncates its
/// roots until `flag` is raised: it never allocates and never reaches a task
/// boundary, so `truncate_roots` is its only safe point.
fn truncate_until(flag: Arc<AtomicBool>, child: TaskSpec) -> TaskSpec {
    TaskSpec::new("truncate-until-flag", move |ctx| {
        ctx.spawn(child, &[]);
        let mark = ctx.root_mark();
        while !flag.load(Ordering::Acquire) {
            ctx.truncate_roots(mark);
            std::hint::spin_loop();
        }
        TaskResult::Unit
    })
}

#[test]
fn a_task_that_only_truncates_still_hands_over_stolen_work() {
    // The only way the flag gets raised is by the child, and the only way
    // the child runs is a thief being handed it at one of the loop's
    // `truncate_roots` calls — which answers only because the thief zeroed
    // the victim's limit word after posting its request.
    let vprocs = env_vprocs().unwrap_or(2).max(2);
    let flag = Arc::new(AtomicBool::new(false));
    let mut m = ThreadedMachine::new(MachineConfig::small_for_tests(vprocs));
    let set = flag.clone();
    let child = TaskSpec::new("raise-flag", move |_| {
        set.store(true, Ordering::Release);
        TaskResult::Unit
    });
    m.spawn_root(truncate_until(flag.clone(), child));
    let report = run_capped(m, &flag, "steal from a truncating task");
    // (A thief may also have taken the root before worker 0 started it.)
    assert!(report.total_steals() >= 1);
}

#[test]
fn a_task_that_only_truncates_still_joins_a_global_collection() {
    // A thief takes the child, which keeps a growing list alive until the
    // global heap has been collected several times, then raises the flag.
    // Each collection's barrier counts worker 0, which is inside the
    // truncating loop: it can only arrive because the requester zeroed
    // every limit word and `truncate_roots` reads its own. With at least two
    // collections the first completed while the flag was still down (the
    // child joins it at its next allocation, before the one that requests
    // the second).
    const CONSES: u64 = 16_000;
    let vprocs = env_vprocs().unwrap_or(2).max(2);
    let flag = Arc::new(AtomicBool::new(false));
    let mut m = ThreadedMachine::new(MachineConfig::small_for_tests(vprocs));
    let set = flag.clone();
    let child = TaskSpec::new("collect-then-raise-flag", move |ctx| {
        let mut list = None;
        for i in 0..CONSES {
            let mark = ctx.root_mark();
            let value = ctx.alloc_raw(&[i]);
            let cons = ctx.alloc_vector(&[Some(value), list]);
            list = Some(ctx.keep(cons, mark));
        }
        let mut count = 0;
        let mut cursor = list;
        while let Some(cell) = cursor {
            count += 1;
            cursor = ctx.read_ptr(cell, 1);
        }
        set.store(true, Ordering::Release);
        TaskResult::Value(count)
    });
    m.spawn_root(truncate_until(flag.clone(), child));
    let report = run_capped(m, &flag, "global collection around a truncating task");
    // Every worker counts every collection it took part in.
    let collections = report.gc.global_collections / vprocs as u64;
    assert!(
        collections >= 2,
        "the child's list must force at least two global collections, got {collections}"
    );
}

#[test]
fn churn_takes_the_slow_path_only_when_signalled_or_full() {
    // Every slow path re-arms the limit word, so each one answers a full
    // nursery (a minor collection), a collection increment, or a steal
    // request — plus, per vproc, at most one signal that raced its re-arm
    // and found nothing to do. A lost re-arm would send every one of the
    // run's allocations down the slow path.
    let params = ChurnParams::small();
    let counts: Vec<usize> = [1, 2].into_iter().chain(env_vprocs()).collect();
    for vprocs in counts {
        let mut m = ThreadedMachine::new(MachineConfig::new(Topology::dual_node_test(), vprocs));
        Churn::new(params).spawn(&mut m);
        let report = m.run();
        assert_eq!(
            m.take_result(),
            Some((i64_to_word(expected_checksum_value(params)), false)),
            "vprocs = {vprocs}"
        );
        let slow = report.alloc_slow_paths();
        let answered = report.gc.minor_collections
            + report.gc.global_pauses.count
            + report.steal_requests_served()
            + report.steal_requests_declined()
            + vprocs as u64;
        assert!(
            slow <= answered,
            "vprocs = {vprocs}: {slow} slow paths for {answered} collections, increments, \
             steal requests and vprocs"
        );
        assert!(
            slow * 100 < report.allocated_objects,
            "vprocs = {vprocs}: {slow} slow paths for {} allocated objects",
            report.allocated_objects
        );
    }
}
