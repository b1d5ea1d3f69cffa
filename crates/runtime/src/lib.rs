//! The Manticore-style runtime: vprocs, work stealing, CML-style channels,
//! and two execution backends for the same task programs.
//!
//! This crate turns the collector of `mgc-core` and the heap of `mgc-heap`
//! into a runnable system, mirroring §2 of *Garbage Collection for Multicore
//! NUMA Machines*:
//!
//! * programs are trees of [`TaskSpec`]s executed over vproc-local deques
//!   with work stealing; data that escapes a vproc is promoted to the
//!   global heap;
//! * explicit concurrency is available through channels (messages are
//!   promoted on send) and object proxies;
//! * the **simulated** backend ([`Machine`]) drives every vproc from one
//!   thread and charges each unit of mutator and collector work to a
//!   per-round cost vector; the `mgc-numa` bottleneck model converts each
//!   round into elapsed virtual time — which is how the speedup curves of
//!   the paper's evaluation are reproduced without a 48-core machine;
//! * the **threaded** backend ([`ThreadedMachine`]) runs each vproc on a
//!   real OS thread: local collections are genuinely lock-free and global
//!   collections are a real stop-the-world ramp-down barrier. Its clock is
//!   the wall clock.
//!
//! The [`Executor`] trait abstracts over the two; workloads written against
//! it run — and can be cross-checked — on both.
//!
//! The front door for running anything is the [`Experiment`] builder over
//! the open [`Program`] trait: pick a program, chain the scenario dimensions
//! (topology, vprocs, placement policy, backend, heap geometry, collector
//! settings), and get back a validated, self-describing [`RunRecord`].
//!
//! # Example
//!
//! ```
//! use mgc_runtime::{Experiment, Program, Executor, TaskSpec, TaskResult};
//! use mgc_heap::i64_to_word;
//!
//! struct Hello;
//!
//! impl Program for Hello {
//!     fn name(&self) -> &str {
//!         "hello"
//!     }
//!     fn spawn(&self, executor: &mut dyn Executor) {
//!         executor.spawn_root(TaskSpec::new("hello", |ctx| {
//!             let obj = ctx.alloc_raw(&[i64_to_word(41)]);
//!             let value = ctx.read_raw(obj, 0) + 1;
//!             TaskResult::Value(value)
//!         }));
//!     }
//! }
//!
//! let record = Experiment::new(Hello).vprocs(2).run().unwrap();
//! assert_eq!(record.result, Some((42, false)));
//! assert!(record.report.elapsed_ns > 0.0);
//! ```
//!
//! The raw machine API remains available when a test needs direct access to
//! the built backend:
//!
//! ```
//! use mgc_runtime::{Machine, MachineConfig, TaskSpec, TaskResult};
//! use mgc_heap::i64_to_word;
//!
//! let mut machine = Machine::new(MachineConfig::small_for_tests(2));
//! machine.spawn_root(TaskSpec::new("hello", |_ctx| {
//!     TaskResult::Value(i64_to_word(42))
//! }));
//! let report = machine.run();
//! assert_eq!(machine.take_result(), Some((42, false)));
//! assert!(report.elapsed_ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel;
mod ctx;
pub mod env;
mod executor;
mod experiment;
mod machine;
mod program;
mod stats;
mod task;
mod threaded;
mod vproc;

pub use channel::{ChannelId, ChannelStats, ProxyId};
pub use ctx::{FieldInit, TaskCtx};
pub use env::EnvOverrides;
pub use executor::{Backend, Executor};
pub use experiment::{
    ConfigError, Experiment, ExperimentConfig, RunRecord, DEFAULT_QUANTUM_NS,
    RUN_RECORD_SCHEMA_VERSION,
};
pub use machine::{Machine, MachineConfig, MutatorCostModel};
// Re-exported so backend users can tune the collector (e.g. the
// `eager_publication` ablation) without depending on `mgc-core` directly.
pub use mgc_core::GcConfig;
// Re-exported so experiment callers can pick the promotion-chunk placement
// without depending on `mgc-numa` directly.
pub use mgc_numa::PlacementPolicy;
pub use program::{Checksum, Program};
pub use stats::{LatencyStats, RunReport, VprocRunStats};
pub use task::{Handle, TaskResult, TaskSpec};
pub use threaded::ThreadedMachine;
