//! A synthetic allocation-churn workload (the "synthetic benchmark" of the
//! paper's §4.1), used to stress the collector directly: it allocates a
//! stream of short-lived objects while keeping a configurable fraction
//! alive, so the full minor → major → global promotion pipeline is
//! exercised at a controllable rate.

use crate::scale::Scale;
use mgc_heap::{i64_to_word, word_to_i64};
use mgc_runtime::{Checksum, Executor, Handle, Program, TaskResult, TaskSpec};

/// Parameters of the churn workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnParams {
    /// Objects each parallel worker allocates.
    pub objects_per_worker: usize,
    /// Payload words per object.
    pub object_words: usize,
    /// One in `survive_every` objects is kept alive to the end of the run.
    pub survive_every: usize,
    /// Number of parallel workers.
    pub workers: usize,
}

impl Default for ChurnParams {
    fn default() -> Self {
        ChurnParams {
            objects_per_worker: 20_000,
            object_words: 16,
            survive_every: 64,
            workers: 32,
        }
    }
}

impl ChurnParams {
    /// A fast configuration for unit tests.
    pub fn small() -> Self {
        ChurnParams {
            objects_per_worker: 2_000,
            object_words: 8,
            survive_every: 32,
            workers: 4,
        }
    }

    /// The benchmark preset: twice the paper-default object stream (32
    /// workers × 40,000 objects), which drives the full promotion pipeline
    /// hard enough for the run to be timing-meaningful.
    pub fn bench() -> Self {
        ChurnParams {
            objects_per_worker: 40_000,
            ..ChurnParams::default()
        }
    }

    /// The default configuration shrunk by `scale` (floors: 500 objects per
    /// worker, 4 workers); object size and survival rate are unaffected by
    /// scale.
    pub fn at_scale(scale: Scale) -> Self {
        if scale.is_bench() {
            return ChurnParams::bench();
        }
        let default = ChurnParams::default();
        ChurnParams {
            objects_per_worker: scale.apply(default.objects_per_worker, 500),
            workers: scale.apply(default.workers, 4),
            ..default
        }
    }
}

/// The synthetic allocation-churn benchmark as a [`Program`]. Every field of
/// [`ChurnParams`] is reachable here, so sweeps can dial allocation volume,
/// object size, survival rate, and parallelism independently.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// The run's parameters.
    pub params: ChurnParams,
}

impl Churn {
    /// A churn program with explicit parameters.
    pub fn new(params: ChurnParams) -> Self {
        Churn { params }
    }

    /// A churn program with the default parameters scaled by `scale`.
    pub fn at_scale(scale: Scale) -> Self {
        Churn::new(ChurnParams::at_scale(scale))
    }
}

impl Program for Churn {
    fn name(&self) -> &str {
        "Synthetic-Churn"
    }

    fn spawn(&self, machine: &mut dyn Executor) {
        spawn(machine, self.params);
    }

    fn expected_checksum(&self) -> Option<Checksum> {
        Some(Checksum::I64(expected_checksum_value(self.params)))
    }

    fn params_json(&self) -> String {
        format!(
            "{{\"objects_per_worker\": {}, \"object_words\": {}, \"survive_every\": {}, \
             \"workers\": {}}}",
            self.params.objects_per_worker,
            self.params.object_words,
            self.params.survive_every,
            self.params.workers
        )
    }
}

/// Spawns the churn workload; the root result is the wrapping sum of every
/// payload word of every surviving object, so a survivor that is lost,
/// moved incorrectly, or corrupted in *any* word by the collector changes
/// the checksum.
pub fn spawn(machine: &mut dyn Executor, params: ChurnParams) {
    machine.spawn_root(TaskSpec::new("churn-root", move |ctx| {
        let children: Vec<_> = (0..params.workers)
            .map(|worker| {
                (
                    TaskSpec::new("churn-worker", move |ctx| {
                        let mut survivors: Vec<Handle> = Vec::new();
                        let base_mark = ctx.root_mark();
                        // Objects until the next survivor: object `i`
                        // survives when `i % survive_every == 0`, counted
                        // down rather than divided out per object.
                        let mut until_survivor = 0;
                        for i in 0..params.objects_per_worker {
                            // Each object is written where it lives; the
                            // fill owns its `base`, so it is not reloaded
                            // per word.
                            let base = (worker * 1_000_000 + i) as i64;
                            let obj = ctx.alloc_raw_with(params.object_words, move |j| {
                                i64_to_word(base + j as i64)
                            });
                            if until_survivor == 0 {
                                survivors.push(obj);
                                until_survivor = params.survive_every - 1;
                            } else {
                                until_survivor -= 1;
                                // Drop everything allocated since the last
                                // survivor; the survivors keep their handles
                                // because handles index the root set, which
                                // only ever grows here.
                                ctx.truncate_roots(base_mark + survivors.len());
                            }
                            ctx.work(params.object_words as u64 * 4);
                        }
                        // Sum every word of every survivor: the real mutator
                        // work of this benchmark is touching its live data.
                        let mut sum = 0i64;
                        let mut payload = Vec::with_capacity(params.object_words);
                        for handle in survivors.iter() {
                            payload.clear();
                            ctx.read_words_into(*handle, &mut payload);
                            for &word in &payload {
                                sum = sum.wrapping_add(word_to_i64(word));
                            }
                        }
                        TaskResult::Value(i64_to_word(sum))
                    }),
                    vec![],
                )
            })
            .collect();
        ctx.fork_join(
            children,
            TaskSpec::new("churn-sum", |ctx| {
                let total = (0..ctx.num_values())
                    .map(|i| word_to_i64(ctx.value(i)))
                    .fold(0i64, i64::wrapping_add);
                TaskResult::Value(i64_to_word(total))
            }),
            &[],
        );
        TaskResult::Unit
    }));
}

/// The word-sum checksum a correct run must report: for every worker `w`,
/// every surviving index `i` (multiples of `survive_every`), and every
/// payload word `j`, the value `w * 1_000_000 + i + j`, wrapping-summed.
pub fn expected_checksum_value(params: ChurnParams) -> i64 {
    let mut sum = 0i64;
    for worker in 0..params.workers {
        for i in (0..params.objects_per_worker).step_by(params.survive_every) {
            let base = (worker * 1_000_000 + i) as i64;
            for j in 0..params.object_words {
                sum = sum.wrapping_add(base + j as i64);
            }
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgc_runtime::{Machine, MachineConfig};

    #[test]
    fn no_survivor_is_lost_or_corrupted_by_collection() {
        let params = ChurnParams::small();
        let mut machine = Machine::new(MachineConfig::small_for_tests(2));
        spawn(&mut machine, params);
        let report = machine.run();
        assert_eq!(
            machine.take_result().map(|(word, _)| word_to_i64(word)),
            Some(expected_checksum_value(params))
        );
        // The whole point of churn: it must actually collect.
        assert!(report.gc.minor_collections > 0);
        assert!(mgc_heap::verify_heap(machine.heap()).is_empty());
    }

    #[test]
    fn expected_survivors_counts_ceiling() {
        let p = ChurnParams {
            objects_per_worker: 10,
            survive_every: 3,
            workers: 2,
            object_words: 1,
        };
        // ceil(10 / 3) = 4 survivors per worker, i = 0, 3, 6, 9: the
        // checksum sums 2 × (0 + 3 + 6 + 9) plus 4 × 1_000_000 for worker 1.
        assert_eq!(expected_checksum_value(p), 4_000_036);
    }

    #[test]
    fn expected_checksum_matches_hand_computed_tiny_case() {
        // 1 worker, 5 objects, survive every 2 → survivors i = 0, 2, 4;
        // 2 words each: (i + 0) + (i + 1). Sum = (0+1) + (2+3) + (4+5) = 15.
        let p = ChurnParams {
            objects_per_worker: 5,
            survive_every: 2,
            workers: 1,
            object_words: 2,
        };
        assert_eq!(expected_checksum_value(p), 15);
        // Second worker shifts every base by 1_000_000: 3 survivors × 2
        // words more, each 1_000_000 larger.
        let p2 = ChurnParams { workers: 2, ..p };
        assert_eq!(expected_checksum_value(p2), 15 + 15 + 6 * 1_000_000);
    }
}
