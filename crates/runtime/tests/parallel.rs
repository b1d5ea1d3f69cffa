//! Integration tests for the runtime: fork/join parallelism, work stealing
//! with lazy promotion, channels, proxies, and GC under allocation pressure
//! — on both execution backends.
//!
//! The threaded tests honour `MGC_VPROCS` (the CI threaded-smoke job runs
//! them with `MGC_VPROCS=4 --test-threads=1` under a job timeout, so a
//! deadlock in the stop-the-world barrier fails fast instead of hanging).

use mgc_heap::{i64_to_word, word_to_i64, HeapConfig};
use mgc_numa::{AllocPolicy, Topology};
use mgc_runtime::{
    Executor, Handle, Machine, MachineConfig, TaskCtx, TaskResult, TaskSpec, ThreadedMachine,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn machine(vprocs: usize) -> Machine {
    Machine::new(MachineConfig::small_for_tests(vprocs))
}

/// Thread count for the threaded-backend tests; override with `MGC_VPROCS`
/// (parsed by `mgc_runtime::env`, the one place `MGC_*` knobs are
/// interpreted).
fn threaded_vprocs() -> usize {
    mgc_runtime::EnvOverrides::capture().vprocs.unwrap_or(4)
}

fn threaded_machine() -> ThreadedMachine {
    ThreadedMachine::new(MachineConfig::small_for_tests(threaded_vprocs()))
}

#[test]
fn fork_join_sums_child_values() {
    let mut m = machine(2);
    m.spawn_root(TaskSpec::new("root", |ctx| {
        let children: Vec<_> = (0..8i64)
            .map(|i| {
                (
                    TaskSpec::new("child", move |ctx| {
                        ctx.work(100);
                        TaskResult::Value(i64_to_word(i * i))
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
    let expected: i64 = (0..8).map(|i| i * i).sum();
    assert_eq!(m.take_result(), Some((i64_to_word(expected), false)));
    // 1 root + 8 children + 1 continuation.
    assert_eq!(report.total_tasks(), 10);
}

#[test]
fn nested_fork_join_builds_a_tree_sum() {
    // Recursive divide-and-conquer sum over a range, exercising deep
    // continuation chains.
    fn sum_range(lo: i64, hi: i64) -> TaskSpec {
        TaskSpec::new("sum-range", move |ctx| {
            if hi - lo <= 4 {
                ctx.work((hi - lo) as u64);
                return TaskResult::Value(i64_to_word((lo..hi).sum()));
            }
            let mid = (lo + hi) / 2;
            ctx.fork_join(
                vec![(sum_range(lo, mid), vec![]), (sum_range(mid, hi), vec![])],
                TaskSpec::new("combine", |ctx| {
                    let a = word_to_i64(ctx.value(0));
                    let b = word_to_i64(ctx.value(1));
                    TaskResult::Value(i64_to_word(a + b))
                }),
                &[],
            );
            TaskResult::Unit
        })
    }

    for vprocs in [1, 2, 4] {
        let mut m = machine(vprocs);
        m.spawn_root(sum_range(0, 1000));
        m.run();
        assert_eq!(
            m.take_result(),
            Some((i64_to_word((0..1000).sum()), false)),
            "vprocs = {vprocs}"
        );
    }
}

#[test]
fn pointer_results_cross_vprocs_via_promotion() {
    let mut m = machine(4);
    m.spawn_root(TaskSpec::new("root", |ctx| {
        let children: Vec<_> = (0..16i64)
            .map(|i| {
                (
                    TaskSpec::new("make-box", move |ctx| {
                        // Heavy enough that one child exceeds the scheduling
                        // quantum, so the other vprocs steal the rest, and
                        // allocation-heavy enough that collections happen on
                        // whichever vproc runs this.
                        ctx.work(200_000);
                        let mark = ctx.root_mark();
                        for _ in 0..50 {
                            ctx.alloc_raw(&[0xfeed; 16]);
                            ctx.truncate_roots(mark);
                        }
                        let boxed = ctx.alloc_raw(&[i64_to_word(i), i64_to_word(i * 2)]);
                        TaskResult::Ptr(boxed)
                    }),
                    vec![],
                )
            })
            .collect();
        ctx.fork_join(
            children,
            TaskSpec::new("sum-boxes", |ctx| {
                let mut total = 0i64;
                for i in 0..ctx.num_roots() {
                    let handle = ctx.input(i);
                    total += word_to_i64(ctx.read_raw(handle, 0));
                    total += word_to_i64(ctx.read_raw(handle, 1));
                }
                TaskResult::Value(i64_to_word(total))
            }),
            &[],
        );
        TaskResult::Unit
    }));
    let report = m.run();
    let expected: i64 = (0..16).map(|i| i + 2 * i).sum();
    assert_eq!(m.take_result(), Some((i64_to_word(expected), false)));
    // With 4 vprocs and only vproc 0 seeded, work must have been stolen.
    assert!(report.total_steals() > 0, "expected work stealing to occur");
    // No invariant violations survived the run.
    assert!(mgc_heap::verify_heap(m.heap()).is_empty());
}

#[test]
fn heavy_allocation_triggers_all_collection_kinds() {
    let mut cfg = MachineConfig::small_for_tests(2);
    cfg.heap = HeapConfig::small_for_tests();
    let mut m = Machine::new(cfg);
    m.spawn_root(TaskSpec::new("allocate-a-lot", |ctx| {
        // Keep a growing list alive so data survives minors, ages to old,
        // gets promoted by majors, and eventually forces a global GC.
        let mut list = None;
        for i in 0..4000u64 {
            let mark = ctx.root_mark();
            let cell = ctx.alloc_vector(&[list, None]);
            let value = ctx.alloc_raw(&[i]);
            // Rebuild the cons cell with the value attached.
            let cons = ctx.alloc_vector(&[Some(value), list]);
            let _ = cell;
            list = Some(ctx.keep(cons, mark));
        }
        TaskResult::Unit
    }));
    let report = m.run();
    assert!(report.gc.minor_collections > 0, "minors expected");
    assert!(report.gc.major_collections > 0, "majors expected");
    assert!(report.gc.global_collections > 0, "globals expected");
    assert!(report.gc.total_moved_bytes() > 0);
    assert!(mgc_heap::verify_heap(m.heap()).is_empty());
}

#[test]
fn channels_promote_messages_and_deliver_in_order() {
    let mut m = machine(2);
    let channel = m.create_channel();
    m.spawn_root(TaskSpec::new("producer-consumer", move |ctx| {
        for i in 0..5i64 {
            let msg = ctx.alloc_raw(&[i64_to_word(i)]);
            ctx.send(channel, msg);
        }
        let mut received = 0i64;
        let mut sum = 0i64;
        while let Some(msg) = ctx.recv(channel) {
            sum += word_to_i64(ctx.read_raw(msg, 0));
            received += 1;
        }
        assert_eq!(received, 5);
        TaskResult::Value(i64_to_word(sum))
    }));
    m.run();
    assert_eq!(m.take_result(), Some((i64_to_word((0..5).sum()), false)));
    let stats = m.channel_stats();
    assert_eq!(stats.sends, 5);
    assert_eq!(stats.receives, 5);
    // Messages live in the global heap after sending.
    assert!(mgc_heap::verify_heap(m.heap()).is_empty());
}

#[test]
fn proxies_promote_only_when_resolved_remotely() {
    let mut m = machine(2);
    m.spawn_root(TaskSpec::new("proxy-demo", |ctx| {
        let local = ctx.alloc_raw(&[i64_to_word(77)]);
        let proxy = ctx.create_proxy(local);
        // Resolving on the owner does not promote.
        let same = ctx.resolve_proxy(proxy);
        assert_eq!(word_to_i64(ctx.read_raw(same, 0)), 77);
        TaskResult::Unit
    }));
    m.run();
    let stats = m.channel_stats();
    assert_eq!(stats.proxies_created, 1);
    assert_eq!(stats.proxies_promoted, 0);
}

#[test]
fn speedup_improves_with_more_vprocs_for_independent_work() {
    // A perfectly parallel compute-heavy workload must get faster (in virtual
    // time) as vprocs are added — the core property behind Figures 4 and 5.
    let elapsed = |vprocs: usize| {
        let mut m = Machine::new(MachineConfig::new(Topology::intel_xeon_32(), vprocs));
        m.spawn_root(TaskSpec::new("fanout", |ctx| {
            let children: Vec<_> = (0..64)
                .map(|_| {
                    (
                        TaskSpec::new("crunch", |ctx| {
                            ctx.work(2_000_000);
                            TaskResult::Unit
                        }),
                        vec![],
                    )
                })
                .collect();
            ctx.fork_join(children, TaskSpec::new("done", |_| TaskResult::Unit), &[]);
            TaskResult::Unit
        }));
        m.run().elapsed_ns
    };
    let t1 = elapsed(1);
    let t8 = elapsed(8);
    let t32 = elapsed(32);
    assert!(
        t8 < t1 * 0.3,
        "8 vprocs should be well over 3x faster: {t1} vs {t8}"
    );
    assert!(t32 < t8, "32 vprocs should beat 8: {t8} vs {t32}");
}

#[test]
fn socket_zero_policy_is_slower_under_memory_pressure() {
    // Streaming through heap data with every page on node 0 must cost more
    // virtual time than with local placement (the Figure 5 vs Figure 7 gap).
    let elapsed = |policy: AllocPolicy| {
        let mut cfg = MachineConfig::new(Topology::amd_magny_cours_48(), 16).with_policy(policy);
        cfg.gc.verify_after_gc = false;
        let mut m = Machine::new(cfg);
        m.spawn_root(TaskSpec::new("spread", |ctx| {
            let children: Vec<_> = (0..16)
                .map(|_| {
                    (
                        TaskSpec::new("stream", |ctx| {
                            let mark = ctx.root_mark();
                            for _ in 0..200 {
                                let leaf = ctx.alloc_raw(&[1u64; 512]);
                                let data = ctx.read_words(leaf);
                                ctx.work(data.len() as u64);
                                ctx.truncate_roots(mark);
                            }
                            TaskResult::Unit
                        }),
                        vec![],
                    )
                })
                .collect();
            ctx.fork_join(children, TaskSpec::new("done", |_| TaskResult::Unit), &[]);
            TaskResult::Unit
        }));
        m.run().elapsed_ns
    };
    let local = elapsed(AllocPolicy::Local);
    let socket0 = elapsed(AllocPolicy::SocketZero);
    assert!(
        socket0 > local,
        "socket-zero placement should be slower: local={local} socket0={socket0}"
    );
}

// ----------------------------------------------------------------------
// The same programs on the real-threads backend.
// ----------------------------------------------------------------------

#[test]
fn threaded_nested_fork_join_builds_a_tree_sum() {
    fn sum_range(lo: i64, hi: i64) -> TaskSpec {
        TaskSpec::new("sum-range", move |ctx| {
            if hi - lo <= 4 {
                ctx.work((hi - lo) as u64);
                return TaskResult::Value(i64_to_word((lo..hi).sum()));
            }
            let mid = (lo + hi) / 2;
            ctx.fork_join(
                vec![(sum_range(lo, mid), vec![]), (sum_range(mid, hi), vec![])],
                TaskSpec::new("combine", |ctx| {
                    let a = word_to_i64(ctx.value(0));
                    let b = word_to_i64(ctx.value(1));
                    TaskResult::Value(i64_to_word(a + b))
                }),
                &[],
            );
            TaskResult::Unit
        })
    }

    let mut m = threaded_machine();
    m.spawn_root(sum_range(0, 1000));
    m.run();
    assert_eq!(m.take_result(), Some((i64_to_word((0..1000).sum()), false)));
}

#[test]
fn threaded_pointer_results_cross_threads_via_promotion() {
    let mut m = threaded_machine();
    m.spawn_root(TaskSpec::new("root", |ctx| {
        let children: Vec<_> = (0..16i64)
            .map(|i| {
                (
                    TaskSpec::new("make-box", move |ctx| {
                        let mark = ctx.root_mark();
                        for _ in 0..50 {
                            ctx.alloc_raw(&[0xfeed; 16]);
                            ctx.truncate_roots(mark);
                        }
                        let boxed = ctx.alloc_raw(&[i64_to_word(i), i64_to_word(i * 2)]);
                        TaskResult::Ptr(boxed)
                    }),
                    vec![],
                )
            })
            .collect();
        ctx.fork_join(
            children,
            TaskSpec::new("sum-boxes", |ctx| {
                let mut total = 0i64;
                for i in 0..ctx.num_roots() {
                    let handle = ctx.input(i);
                    total += word_to_i64(ctx.read_raw(handle, 0));
                    total += word_to_i64(ctx.read_raw(handle, 1));
                }
                TaskResult::Value(i64_to_word(total))
            }),
            &[],
        );
        TaskResult::Unit
    }));
    let report = m.run();
    let expected: i64 = (0..16).map(|i| i + 2 * i).sum();
    assert_eq!(m.take_result(), Some((i64_to_word(expected), false)));
    // Every pointer result was promoted when it was delivered.
    assert!(report.gc.promotions > 0, "expected publication promotions");
}

#[test]
fn threaded_heavy_allocation_triggers_all_collection_kinds() {
    let mut m = threaded_machine();
    m.spawn_root(TaskSpec::new("allocate-a-lot", |ctx| {
        let mut list = None;
        for i in 0..4000u64 {
            let mark = ctx.root_mark();
            let value = ctx.alloc_raw(&[i]);
            let cons = ctx.alloc_vector(&[Some(value), list]);
            list = Some(ctx.keep(cons, mark));
        }
        // Walk the list back and verify the values survived every
        // collection kind.
        let mut sum = 0u64;
        let mut cursor = list;
        while let Some(cell) = cursor {
            let value = ctx.read_ptr(cell, 0).expect("cons cells hold a value");
            sum += ctx.read_raw(value, 0);
            cursor = ctx.read_ptr(cell, 1);
        }
        TaskResult::Value(sum)
    }));
    let report = m.run();
    assert_eq!(m.take_result(), Some(((0..4000).sum::<u64>(), false)));
    assert!(report.gc.minor_collections > 0, "minors expected");
    assert!(report.gc.major_collections > 0, "majors expected");
    assert!(report.gc.global_collections > 0, "globals expected");
}

#[test]
fn threaded_channels_deliver_messages_in_order() {
    let mut m = threaded_machine();
    let channel = m.create_channel();
    m.spawn_root(TaskSpec::new("producer-consumer", move |ctx| {
        for i in 0..5i64 {
            let msg = ctx.alloc_raw(&[i64_to_word(i)]);
            ctx.send(channel, msg);
        }
        let mut received = 0i64;
        let mut sum = 0i64;
        while let Some(msg) = ctx.recv(channel) {
            sum += word_to_i64(ctx.read_raw(msg, 0));
            received += 1;
        }
        assert_eq!(received, 5);
        TaskResult::Value(i64_to_word(sum))
    }));
    m.run();
    assert_eq!(m.take_result(), Some((i64_to_word((0..5).sum()), false)));
    let stats = m.channel_stats();
    assert_eq!(stats.sends, 5);
    assert_eq!(stats.receives, 5);
}

#[test]
fn threaded_parallel_allocation_pressure_survives_global_collections() {
    // Many children allocate hard at the same time, so global collections
    // genuinely overlap running mutators on other threads — the scenario
    // the ramp-down barrier must survive (this is the CI deadlock canary).
    let mut m = threaded_machine();
    m.spawn_root(TaskSpec::new("pressure-root", |ctx| {
        let children: Vec<_> = (0..16u64)
            .map(|seed| {
                (
                    TaskSpec::new("pressure", move |ctx| {
                        let mut kept = None;
                        for i in 0..600u64 {
                            let mark = ctx.root_mark();
                            let value = ctx.alloc_raw(&[seed * 10_000 + i; 8]);
                            let cons = ctx.alloc_vector(&[Some(value), kept]);
                            kept = Some(ctx.keep(cons, mark));
                        }
                        // Count the list to prove nothing was lost.
                        let mut count = 0u64;
                        let mut cursor = kept;
                        while let Some(cell) = cursor {
                            count += 1;
                            cursor = ctx.read_ptr(cell, 1);
                        }
                        TaskResult::Value(count)
                    }),
                    vec![],
                )
            })
            .collect();
        ctx.fork_join(
            children,
            TaskSpec::new("sum", |ctx| {
                let total: u64 = (0..ctx.num_values()).map(|i| ctx.value(i)).sum();
                TaskResult::Value(total)
            }),
            &[],
        );
        TaskResult::Unit
    }));
    let report = m.run();
    assert_eq!(m.take_result(), Some((16 * 600, false)));
    assert!(report.gc.global_collections > 0, "globals expected");
    if threaded_vprocs() > 1 {
        assert!(report.total_steals() > 0, "expected work stealing");
    }
}

#[test]
fn threaded_global_collections_are_amortised_against_promotion() {
    // Each child builds two lists longer than its local heap (so major
    // collections promote both as they grow), returns one and drops the
    // other: the retained lists pile up in the global heap to dozens of
    // times the trigger's floor, with about as much promoted garbage. A
    // trigger that ignores what the last collection retained re-copies that
    // whole live set at every check once it passes the floor.
    const CHILDREN: u64 = 32;
    const CELLS: u64 = 400;
    for vprocs in [1usize, 2] {
        let config = MachineConfig::small_for_tests(vprocs);
        let floor = (config.gc.global_threshold_per_vproc_bytes * vprocs) as f64;
        let mut m = ThreadedMachine::new(config);
        m.spawn_root(TaskSpec::new("amortise-root", |ctx| {
            let children: Vec<_> = (0..CHILDREN)
                .map(|seed| {
                    (
                        TaskSpec::new("two-lists", move |ctx| {
                            let (mut kept, mut dropped) = (None, None);
                            for i in 0..CELLS {
                                let mark = ctx.root_mark();
                                let value = ctx.alloc_raw(&[seed * CELLS + i; 8]);
                                let cons = ctx.alloc_vector(&[Some(value), kept]);
                                kept = Some(ctx.keep(cons, mark));
                                let mark = ctx.root_mark();
                                let value = ctx.alloc_raw(&[i; 8]);
                                let cons = ctx.alloc_vector(&[Some(value), dropped]);
                                dropped = Some(ctx.keep(cons, mark));
                            }
                            TaskResult::Ptr(kept.expect("CELLS > 0"))
                        }),
                        vec![],
                    )
                })
                .collect();
            ctx.fork_join(
                children,
                TaskSpec::new("sum-lists", |ctx| {
                    let mut total = 0u64;
                    for i in 0..ctx.num_roots() {
                        let mut cursor = Some(ctx.input(i));
                        while let Some(cell) = cursor {
                            let value = ctx.read_ptr(cell, 0).expect("cells hold a value");
                            total += ctx.read_raw(value, 0);
                            cursor = ctx.read_ptr(cell, 1);
                        }
                    }
                    TaskResult::Value(total)
                }),
                &[],
            );
            TaskResult::Unit
        }));
        let report = m.run();
        let expected: u64 = (0..CHILDREN * CELLS).sum();
        assert_eq!(
            m.take_result(),
            Some((expected, false)),
            "vprocs = {vprocs}"
        );

        let promoted = report.total_promoted_bytes() as f64;
        let copied = report.gc.global_copied_bytes as f64;
        // Every worker counts every collection it took part in.
        let collections = (report.gc.global_collections / vprocs as u64) as f64;
        assert!(
            promoted > 16.0 * floor,
            "vprocs = {vprocs}: promoted only {promoted} bytes over a {floor}-byte floor"
        );
        assert!(
            copied <= 2.0 * promoted,
            "vprocs = {vprocs}: {copied} bytes re-copied for {promoted} promoted"
        );
        assert!(
            collections <= 8.0 + 2.0 * (promoted / floor).log2(),
            "vprocs = {vprocs}: {collections} global collections for {promoted} promoted bytes"
        );
    }
}

// ----------------------------------------------------------------------
// The generational root scan (threaded backend): a minor collection visits
// only the roots registered since the last local collection.
// ----------------------------------------------------------------------

/// Allocates more than two local heaps' worth of garbage, so at least two
/// local collections run whatever state the nursery was in.
fn force_local_collections(ctx: &mut TaskCtx<'_>) {
    let words = HeapConfig::small_for_tests().local_heap_bytes / 8;
    let mark = ctx.root_mark();
    for _ in 0..(2 * words).div_ceil(9) + 1 {
        ctx.alloc_raw(&[0; 8]);
        ctx.truncate_roots(mark);
    }
}

/// `true` when the object behind `handle` is eight copies of `tag`.
fn holds(ctx: &mut TaskCtx<'_>, handle: Handle, tag: u64) -> bool {
    ctx.read_words(handle) == [tag; 8]
}

#[test]
fn threaded_minor_root_scans_are_amortised_over_allocations() {
    // The shape of the `Churn` workload (`mgc-workloads`, which this crate
    // cannot depend on): each worker allocates a stream of 8-word objects
    // and keeps every 8th alive to the end, so a worker ends up holding
    // 7,500 handles. A root is handed to the first minor collection after
    // it was registered and to no later one, so the minor collections of a
    // run visit at most one root per allocated object. At the parent commit
    // every minor collection re-visited every live handle: 5,555,904 visits
    // for the 120,000 objects at one vproc, a ratio of 46.
    const WORKERS: u64 = 2;
    const OBJECTS: u64 = 60_000;
    const SURVIVE_EVERY: u64 = 8;
    for vprocs in [1usize, 2] {
        let mut m = ThreadedMachine::new(MachineConfig::small_for_tests(vprocs));
        m.spawn_root(TaskSpec::new("churn-root", |ctx| {
            let children: Vec<_> = (0..WORKERS)
                .map(|worker| {
                    (
                        TaskSpec::new("churn-worker", move |ctx| {
                            let mut survivors = Vec::new();
                            for i in 0..OBJECTS {
                                let obj = ctx.alloc_raw(&[worker * OBJECTS + i; 8]);
                                if i % SURVIVE_EVERY == 0 {
                                    survivors.push(obj);
                                } else {
                                    ctx.truncate_roots(survivors.len());
                                }
                            }
                            let mut sum = 0u64;
                            for handle in survivors {
                                sum += ctx.read_words(handle).iter().sum::<u64>();
                            }
                            TaskResult::Value(sum)
                        }),
                        vec![],
                    )
                })
                .collect();
            ctx.fork_join(
                children,
                TaskSpec::new("churn-sum", |ctx| {
                    TaskResult::Value((0..ctx.num_values()).map(|i| ctx.value(i)).sum())
                }),
                &[],
            );
            TaskResult::Unit
        }));
        let report = m.run();
        let expected: u64 = (0..WORKERS * OBJECTS)
            .filter(|i| i % SURVIVE_EVERY == 0)
            .map(|i| 8 * i)
            .sum();
        assert_eq!(
            m.take_result(),
            Some((expected, false)),
            "vprocs = {vprocs}"
        );
        assert!(report.gc.minor_collections > 1_000, "vprocs = {vprocs}");
        assert!(
            report.gc.minor_roots_visited <= report.allocated_objects,
            "vprocs = {vprocs}: {} roots visited by minor collections for {} allocated objects",
            report.gc.minor_roots_visited,
            report.allocated_objects
        );
    }
}

#[test]
fn threaded_roots_reused_below_the_watermark_are_scanned_again() {
    // Handles 0..N are scanned once and fall below the watermark. Dropping
    // the upper half and allocating into the re-used slots puts nursery
    // pointers where clean roots used to be: the watermark must have come
    // down with the truncation, or the next minor collection leaves those
    // slots pointing into a recycled nursery. Once through
    // `truncate_roots`, once through `keep`.
    const N: usize = 40;
    let tag = |round: u64, i: usize| round * 1_000 + i as u64;
    let mut m = threaded_machine();
    m.spawn_root(TaskSpec::new("reuse-roots", move |ctx| {
        let first: Vec<_> = (0..N).map(|i| ctx.alloc_raw(&[tag(1, i); 8])).collect();
        force_local_collections(ctx);

        ctx.truncate_roots(N / 2);
        let second: Vec<_> = (N / 2..N).map(|i| ctx.alloc_raw(&[tag(2, i); 8])).collect();
        assert_eq!(second[0].index(), N / 2, "the dropped slots are re-used");
        force_local_collections(ctx);
        let mut intact = (0..N / 2).all(|i| holds(ctx, first[i], tag(1, i)))
            && (N / 2..N).all(|i| holds(ctx, second[i - N / 2], tag(2, i)));

        let kept = ctx.keep(second[N / 2 - 1], N / 4);
        assert_eq!(kept.index(), N / 4);
        let third: Vec<_> = (0..N / 4).map(|i| ctx.alloc_raw(&[tag(3, i); 8])).collect();
        force_local_collections(ctx);
        intact &= (0..N / 4).all(|i| holds(ctx, first[i], tag(1, i)))
            && holds(ctx, kept, tag(2, N - 1))
            && (0..N / 4).all(|i| holds(ctx, third[i], tag(3, i)));
        TaskResult::Value(intact as u64)
    }));
    let report = m.run();
    assert_eq!(m.take_result(), Some((1, false)));
    assert!(report.gc.minor_collections >= 6);
    // One root per allocation plus the one `keep` registers.
    assert!(report.gc.minor_roots_visited <= report.allocated_objects + 1);
}

#[test]
fn threaded_queued_tasks_with_nursery_inputs_survive_their_parents_collections() {
    // Children are spawned with pointers to objects still in the parent's
    // nursery and sit in its private deque while the parent collects: their
    // input slots start above the watermark, so the parent's minor
    // collection forwards them. Each child then runs through several local
    // collections of its own and must still read its inputs — on the
    // spawning worker, and (with a second vproc) after being stolen, which
    // the parent waits for so the steal path is always exercised.
    const CHILDREN: usize = 8;
    const INPUTS: usize = 3;
    let tag = |child: usize, input: usize| (child * 10 + input + 1) as u64;
    for vprocs in [1usize, 2] {
        let ran_elsewhere = Arc::new(AtomicBool::new(false));
        let mut m = ThreadedMachine::new(MachineConfig::small_for_tests(vprocs));
        let flag = ran_elsewhere.clone();
        m.spawn_root(TaskSpec::new("spawn-with-nursery-inputs", move |ctx| {
            let home = ctx.vproc();
            let children: Vec<_> = (0..CHILDREN)
                .map(|child| {
                    let inputs: Vec<_> = (0..INPUTS)
                        .map(|input| ctx.alloc_raw(&[tag(child, input); 8]))
                        .collect();
                    let flag = flag.clone();
                    let spec = TaskSpec::new("reads-its-inputs", move |ctx| {
                        if ctx.vproc() != home {
                            flag.store(true, Ordering::Release);
                        }
                        force_local_collections(ctx);
                        let intact = (0..INPUTS).all(|input| {
                            let handle = ctx.input(input);
                            holds(ctx, handle, tag(child, input))
                        });
                        TaskResult::Value(intact as u64)
                    });
                    (spec, inputs)
                })
                .collect();
            ctx.fork_join(
                children,
                TaskSpec::new("count-intact", |ctx| {
                    TaskResult::Value((0..ctx.num_values()).map(|i| ctx.value(i)).sum())
                }),
                &[],
            );
            // The children are queued; collect underneath them. Every
            // allocation is a safe point that answers steal requests.
            force_local_collections(ctx);
            let mut rounds = 0;
            while ctx.num_vprocs() > 1 && !flag.load(Ordering::Acquire) {
                force_local_collections(ctx);
                rounds += 1;
                assert!(rounds < 100_000, "the idle vproc never stole a child");
            }
            TaskResult::Unit
        }));
        let report = m.run();
        assert_eq!(
            m.take_result(),
            Some((CHILDREN as u64, false)),
            "vprocs = {vprocs}"
        );
        assert_eq!(report.total_steals() > 0, vprocs > 1, "vprocs = {vprocs}");
        // One root per allocation plus each child's inputs, scanned once
        // more in the child's own root set.
        assert!(
            report.gc.minor_roots_visited <= report.allocated_objects + (CHILDREN * INPUTS) as u64,
            "vprocs = {vprocs}"
        );
    }
}
