//! The open program interface: anything that can spawn work onto an
//! [`Executor`] can be run through an [`Experiment`](crate::Experiment).
//!
//! The paper's benchmarks (in `mgc-workloads`) are [`Program`]
//! implementations, but so is any user-defined scenario: implement the
//! trait, hand the program to [`Experiment::new`](crate::Experiment::new),
//! and every backend, topology, placement policy, and heap geometry is
//! available without new plumbing.

use crate::executor::Executor;
use mgc_heap::{word_to_f64, word_to_i64, Word};

/// The expected result of a program, used by equivalence tests to check a
/// run produced the right answer.
///
/// Integer checksums must match bit-for-bit. Floating-point checksums are
/// compared with a relative tolerance of `1e-6` — parallel runs fold in
/// deterministic child order, but the *reference* value is usually computed
/// by a differently-associated sequential loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Checksum {
    /// An exact integer result.
    I64(i64),
    /// A floating-point result, compared with relative tolerance `1e-6`.
    F64(f64),
}

impl Checksum {
    /// Whether the raw result word of a finished run matches this checksum.
    pub fn matches(&self, word: Word) -> bool {
        match *self {
            Checksum::I64(expected) => word_to_i64(word) == expected,
            Checksum::F64(expected) => {
                let got = word_to_f64(word);
                got.is_finite() && (got - expected).abs() <= 1e-6 * expected.abs().max(1.0)
            }
        }
    }
}

impl std::fmt::Display for Checksum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Checksum::I64(v) => write!(f, "{v}"),
            Checksum::F64(v) => write!(f, "{v}"),
        }
    }
}

/// A program that can run on any execution backend.
///
/// Implementations register descriptors, create channels, and spawn the root
/// task in [`Program::spawn`]; the machinery around the run — building the
/// backend, validating the configuration, applying `MGC_*` overrides, and
/// packaging the result as a [`RunRecord`](crate::RunRecord) — belongs to
/// [`Experiment`](crate::Experiment).
///
/// ```
/// use mgc_runtime::{Checksum, Experiment, Program, Executor, TaskResult, TaskSpec};
/// use mgc_heap::i64_to_word;
///
/// struct FortyTwo;
///
/// impl Program for FortyTwo {
///     fn name(&self) -> &str {
///         "forty-two"
///     }
///
///     fn spawn(&self, executor: &mut dyn Executor) {
///         executor.spawn_root(TaskSpec::new("forty-two", |_ctx| {
///             TaskResult::Value(i64_to_word(42))
///         }));
///     }
///
///     fn expected_checksum(&self) -> Option<Checksum> {
///         Some(Checksum::I64(42))
///     }
/// }
///
/// let record = Experiment::new(FortyTwo).vprocs(1).run().unwrap();
/// assert_eq!(record.checksum_ok, Some(true));
/// ```
pub trait Program {
    /// A stable human-readable name, used in reports and JSON records.
    fn name(&self) -> &str;

    /// Spawns the program onto an executor (descriptor registration, channel
    /// creation, and the root task). Called exactly once per run, before
    /// [`Executor::run`].
    fn spawn(&self, executor: &mut dyn Executor);

    /// The result a correct run must produce, if one is known. Equivalence
    /// tests compare the finished run's root result against this; the
    /// default is `None` (no cheap reference value exists). Implementations
    /// may run a sequential reference of the whole program to produce the
    /// value — callers that only read timings skip it via
    /// [`Experiment::verify_checksum(false)`](crate::Experiment::verify_checksum).
    fn expected_checksum(&self) -> Option<Checksum> {
        None
    }

    /// The program's parameters as a JSON object, recorded verbatim in
    /// [`RunRecord`](crate::RunRecord) JSON so sweep outputs say exactly
    /// what ran. The default is an empty object.
    fn params_json(&self) -> String {
        "{}".to_string()
    }
}

impl Program for Box<dyn Program> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn spawn(&self, executor: &mut dyn Executor) {
        (**self).spawn(executor)
    }

    fn expected_checksum(&self) -> Option<Checksum> {
        (**self).expected_checksum()
    }

    fn params_json(&self) -> String {
        (**self).params_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgc_heap::{f64_to_word, i64_to_word};

    #[test]
    fn integer_checksums_are_exact() {
        let c = Checksum::I64(7);
        assert!(c.matches(i64_to_word(7)));
        assert!(!c.matches(i64_to_word(8)));
        assert_eq!(c.to_string(), "7");
    }

    #[test]
    fn float_checksums_use_relative_tolerance() {
        let c = Checksum::F64(1000.0);
        assert!(c.matches(f64_to_word(1000.0)));
        assert!(c.matches(f64_to_word(1000.0005)));
        assert!(!c.matches(f64_to_word(1001.0)));
        assert!(!c.matches(f64_to_word(f64::NAN)));
    }

    #[test]
    fn boxed_programs_delegate() {
        struct Named;
        impl Program for Named {
            fn name(&self) -> &str {
                "named"
            }
            fn spawn(&self, _executor: &mut dyn Executor) {}
        }
        let boxed: Box<dyn Program> = Box::new(Named);
        assert_eq!(boxed.name(), "named");
        assert_eq!(boxed.expected_checksum(), None);
        assert_eq!(boxed.params_json(), "{}");
    }
}
