//! The execution-backend interface.
//!
//! A program (a tree of [`TaskSpec`]s) can run on either backend:
//!
//! * [`Machine`](crate::Machine) — the discrete-event **simulated** backend:
//!   one driver thread executes every vproc and charges costs through the
//!   NUMA memory model, reproducing the paper's figures without the paper's
//!   hardware;
//! * [`ThreadedMachine`](crate::ThreadedMachine) — the **threaded** backend:
//!   each vproc is a real OS thread, local collections are genuinely
//!   lock-free, and global collections are a real stop-the-world barrier.
//!   Its clock is the wall clock.
//!
//! Workloads are written against this trait so every benchmark runs — and
//! can be cross-checked — on both.

use crate::channel::{ChannelId, ChannelStats};
use crate::stats::RunReport;
use crate::task::TaskSpec;
use mgc_heap::{Descriptor, DescriptorId, Word};
use std::fmt;
use std::str::FromStr;

/// Which execution backend to run a program on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The discrete-event simulation driven by the NUMA cost model.
    Simulated,
    /// One OS thread per vproc; real time, real synchronisation.
    Threaded,
}

impl Backend {
    /// Every backend, for sweeps.
    pub const ALL: [Backend; 2] = [Backend::Simulated, Backend::Threaded];

    /// The lower-case label used by `--backend` flags and reports.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Simulated => "simulated",
            Backend::Threaded => "threaded",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "simulated" | "sim" => Ok(Backend::Simulated),
            "threaded" | "threads" => Ok(Backend::Threaded),
            other => Err(format!(
                "unknown backend `{other}` (expected `simulated` or `threaded`)"
            )),
        }
    }
}

/// What a program needs from an execution backend: descriptor registration,
/// channel creation, spawning the root task, running to completion, and
/// reading the root task's result.
pub trait Executor {
    /// Which backend this is.
    fn backend(&self) -> Backend;

    /// Registers a mixed-object descriptor (before the program runs).
    fn register_descriptor(&mut self, descriptor: Descriptor) -> DescriptorId;

    /// Creates a channel (before the program runs).
    fn create_channel(&mut self) -> ChannelId;

    /// Spawns the program's root task on vproc 0.
    fn spawn_root(&mut self, spec: TaskSpec);

    /// Runs until every deque is empty and no joins are pending.
    fn run(&mut self) -> RunReport;

    /// The root task's result: the raw word and whether it is a heap
    /// pointer.
    fn take_result(&mut self) -> Option<(Word, bool)>;

    /// Channel and proxy statistics of the completed run.
    fn channel_stats(&self) -> ChannelStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_labels_round_trip() {
        for backend in Backend::ALL {
            assert_eq!(backend.label().parse::<Backend>().unwrap(), backend);
        }
        assert_eq!("sim".parse::<Backend>().unwrap(), Backend::Simulated);
        assert_eq!("threads".parse::<Backend>().unwrap(), Backend::Threaded);
        assert!("gpu".parse::<Backend>().is_err());
        assert_eq!(Backend::Threaded.to_string(), "threaded");
    }
}
