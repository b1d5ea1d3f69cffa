//! Property test for the lazy promotion-on-steal protocol: for random
//! fork/join spawn trees, the threaded backend's explicit-promotion volume
//! under lazy promotion is never larger than under the eager-publication
//! ablation (the pre-refactor promote-at-push behaviour).
//!
//! The argument is set inclusion: publications (continuation roots,
//! delivered results) are identical in both modes, and the graphs promoted
//! at steal time are a subset of the graphs eager mode promotes at push
//! time — the mutator language is mutation-free, so a task's reachable
//! graph is the same at push and at steal.

use mgc_runtime::{
    Executor, GcConfig, MachineConfig, RunReport, TaskResult, TaskSpec, ThreadedMachine,
};

/// A recursive fork/join tree: every node allocates a payload object in its
/// nursery and hands it to each child as a pointer input, so stealing a
/// child forces the promotion of the parent's object graph.
fn tree_task(depth: u8, fanout: u8, payload_words: u8, seed: u64) -> TaskSpec {
    TaskSpec::new("tree-node", move |ctx| {
        let words: Vec<u64> = (0..u64::from(payload_words) + 1)
            .map(|i| seed.wrapping_add(i))
            .collect();
        let obj = ctx.alloc_raw(&words);
        if depth == 0 {
            return TaskResult::Value(ctx.read_raw(obj, 0));
        }
        let children: Vec<_> = (0..fanout)
            .map(|i| {
                (
                    tree_task(
                        depth - 1,
                        fanout,
                        payload_words,
                        seed.wrapping_mul(31).wrapping_add(u64::from(i)),
                    ),
                    vec![obj],
                )
            })
            .collect();
        ctx.fork_join(
            children,
            TaskSpec::new("tree-sum", |ctx| {
                let total: u64 = (0..ctx.num_values())
                    .map(|i| ctx.value(i))
                    .fold(0, u64::wrapping_add);
                TaskResult::Value(total)
            }),
            &[],
        );
        TaskResult::Unit
    })
}

fn run_tree(
    vprocs: usize,
    eager: bool,
    depth: u8,
    fanout: u8,
    payload_words: u8,
    seed: u64,
) -> (RunReport, Option<(u64, bool)>) {
    let config = MachineConfig::small_for_tests(vprocs).with_gc(GcConfig {
        eager_publication: eager,
        ..GcConfig::small_for_tests()
    });
    let mut machine = ThreadedMachine::new(config);
    machine.spawn_root(tree_task(depth, fanout, payload_words, seed));
    let report = machine.run();
    let result = machine.take_result();
    (report, result)
}

/// A splitmix64 stream seeded by the case number, so every run sees the
/// same cases.
struct CaseRng(u64);

impl CaseRng {
    fn for_case(case: u64) -> Self {
        let mut rng = CaseRng(0x5EED_C0DE ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `range`.
    fn in_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        range.start + self.next_u64() % (range.end - range.start)
    }
}

#[test]
fn lazy_promotion_volume_is_bounded_by_eager_publication() {
    for case in 0..12 {
        let mut rng = CaseRng::for_case(case);
        let depth = rng.in_range(1..4) as u8;
        let fanout = rng.in_range(1..4) as u8;
        let payload_words = rng.in_range(1..12) as u8;
        let seed = rng.next_u64();
        let vprocs = rng.in_range(1..4) as usize;
        let (eager, eager_result) = run_tree(vprocs, true, depth, fanout, payload_words, seed);
        let (lazy, lazy_result) = run_tree(vprocs, false, depth, fanout, payload_words, seed);

        // The program itself is scheduling- and promotion-independent.
        assert_eq!(eager_result, lazy_result);
        assert_eq!(eager.total_tasks(), lazy.total_tasks());

        // The property under test: promotion volume on the threaded backend
        // is ≤ the eager-publication volume.
        assert!(
            lazy.gc.promotion_bytes <= eager.gc.promotion_bytes,
            "lazy promoted {} bytes but eager publication only {} \
             (depth {depth}, fanout {fanout}, payload {payload_words}, vprocs {vprocs})",
            lazy.gc.promotion_bytes,
            eager.gc.promotion_bytes,
        );

        // And its corollary: with one vproc nothing is stolen, so lazy mode
        // promotes nothing on the push path at all.
        if vprocs == 1 {
            assert_eq!(lazy.promotions_at_steal(), 0);
        }
    }
}
