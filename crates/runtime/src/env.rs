//! The one place `MGC_*` environment overrides are parsed.
//!
//! A handful of knobs flip whole runs without touching code; every entry
//! point that honours them reads this module, so the parsing (and the
//! warning printed for an unparseable value) is identical everywhere:
//!
//! | Variable | Meaning | Accepted values |
//! |----------|---------|-----------------|
//! | `MGC_BACKEND` | Execution backend | `simulated`/`sim`, `threaded`/`threads` |
//! | `MGC_VPROCS` | Number of vprocs (threads) | a positive integer |
//! | `MGC_PLACEMENT` | Promotion-chunk NUMA placement | `node-local`, `interleave`, `first-touch` |
//! | `MGC_MAX_ROUNDS` | Simulated scheduler's runaway-program round cap | a positive integer |
//! | `MGC_PAUSE_BUDGET_US` | Soft per-increment global-collection pause budget, in microseconds | a positive integer |
//!
//! [`Experiment`](crate::Experiment) applies `MGC_BACKEND`, `MGC_VPROCS`,
//! `MGC_PLACEMENT`, and `MGC_PAUSE_BUDGET_US` as *defaults* — an explicit
//! [`Experiment::backend`](crate::Experiment::backend),
//! [`Experiment::vprocs`](crate::Experiment::vprocs), or
//! [`Experiment::gc_pause_budget`](crate::Experiment::gc_pause_budget) call
//! always wins — and the simulated [`Machine`](crate::Machine) reads
//! `MGC_MAX_ROUNDS` when it is built. Invalid values never abort a run:
//! they print a warning naming the knob and fall back to the caller's
//! default.

use crate::executor::Backend;
use mgc_numa::PlacementPolicy;

/// The captured `MGC_*` environment overrides. Each field is `None` when the
/// variable is unset *or* unparseable (after a warning on stderr).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnvOverrides {
    /// `MGC_BACKEND`: which execution backend to run on.
    pub backend: Option<Backend>,
    /// `MGC_VPROCS`: how many vprocs (threads) to use.
    pub vprocs: Option<usize>,
    /// `MGC_PLACEMENT`: which node's pool promotion chunks are leased from.
    pub placement: Option<PlacementPolicy>,
    /// `MGC_MAX_ROUNDS`: the simulated scheduler's round cap.
    pub max_rounds: Option<u64>,
    /// `MGC_PAUSE_BUDGET_US`: the soft per-increment pause budget for
    /// global collections, in microseconds.
    pub pause_budget_us: Option<u64>,
}

impl EnvOverrides {
    /// Captures the overrides from the process environment.
    pub fn capture() -> Self {
        Self::from_lookup(|key| std::env::var(key).ok())
    }

    /// Captures the overrides from an arbitrary lookup function. This is
    /// what [`EnvOverrides::capture`] calls with [`std::env::var`]; unit
    /// tests pass a closure instead so they never mutate process-global
    /// state.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        EnvOverrides {
            backend: parse_backend(lookup("MGC_BACKEND")),
            vprocs: parse_positive("MGC_VPROCS", lookup("MGC_VPROCS")),
            placement: parse_placement(lookup("MGC_PLACEMENT")),
            max_rounds: parse_positive("MGC_MAX_ROUNDS", lookup("MGC_MAX_ROUNDS")),
            pause_budget_us: parse_positive("MGC_PAUSE_BUDGET_US", lookup("MGC_PAUSE_BUDGET_US")),
        }
    }
}

/// Parses an `MGC_PLACEMENT` value, warning (once per call) on garbage.
fn parse_placement(value: Option<String>) -> Option<PlacementPolicy> {
    let value = value?;
    match value.parse::<PlacementPolicy>() {
        Ok(placement) => Some(placement),
        Err(err) => {
            eprintln!(
                "warning: MGC_PLACEMENT=`{value}` is invalid ({err}); set \
                 MGC_PLACEMENT=node-local, interleave, or first-touch — using the default"
            );
            None
        }
    }
}

/// Parses an `MGC_BACKEND` value, warning (once per call) on garbage.
fn parse_backend(value: Option<String>) -> Option<Backend> {
    let value = value?;
    match value.parse::<Backend>() {
        Ok(backend) => Some(backend),
        Err(err) => {
            eprintln!(
                "warning: MGC_BACKEND=`{value}` is invalid ({err}); set \
                 MGC_BACKEND=simulated or MGC_BACKEND=threaded — using the default"
            );
            None
        }
    }
}

/// Parses a positive integer knob, warning (naming the knob) on zero or
/// garbage.
fn parse_positive<T>(knob: &str, value: Option<String>) -> Option<T>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    let value = value?;
    match value.parse::<T>() {
        Ok(parsed) if parsed >= T::from(1u8) => Some(parsed),
        _ => {
            eprintln!("warning: {knob}=`{value}` is not a positive integer; using the default");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |key| {
            pairs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| (*v).to_string())
        }
    }

    #[test]
    fn unset_variables_yield_no_overrides() {
        let env = EnvOverrides::from_lookup(|_| None);
        assert_eq!(env, EnvOverrides::default());
        assert_eq!(env.backend, None);
        assert_eq!(env.vprocs, None);
        assert_eq!(env.placement, None);
        assert_eq!(env.max_rounds, None);
        assert_eq!(env.pause_budget_us, None);
    }

    #[test]
    fn valid_values_parse() {
        let env = EnvOverrides::from_lookup(lookup(&[
            ("MGC_BACKEND", "threaded"),
            ("MGC_VPROCS", "4"),
            ("MGC_PLACEMENT", "interleave"),
            ("MGC_MAX_ROUNDS", "1000"),
            ("MGC_PAUSE_BUDGET_US", "250"),
        ]));
        assert_eq!(env.backend, Some(Backend::Threaded));
        assert_eq!(env.vprocs, Some(4));
        assert_eq!(env.placement, Some(PlacementPolicy::Interleave));
        assert_eq!(env.max_rounds, Some(1000));
        assert_eq!(env.pause_budget_us, Some(250));
    }

    #[test]
    fn backend_short_forms_parse() {
        let env = EnvOverrides::from_lookup(lookup(&[("MGC_BACKEND", "sim")]));
        assert_eq!(env.backend, Some(Backend::Simulated));
        let env = EnvOverrides::from_lookup(lookup(&[("MGC_BACKEND", "threads")]));
        assert_eq!(env.backend, Some(Backend::Threaded));
    }

    #[test]
    fn invalid_values_fall_back_to_none() {
        let env = EnvOverrides::from_lookup(lookup(&[
            ("MGC_BACKEND", "gpu"),
            ("MGC_VPROCS", "zero"),
            ("MGC_PLACEMENT", "everywhere"),
            ("MGC_MAX_ROUNDS", "-3"),
            ("MGC_PAUSE_BUDGET_US", "soon"),
        ]));
        assert_eq!(env, EnvOverrides::default());
    }

    #[test]
    fn zero_counts_are_rejected() {
        let env = EnvOverrides::from_lookup(lookup(&[
            ("MGC_VPROCS", "0"),
            ("MGC_MAX_ROUNDS", "0"),
            ("MGC_PAUSE_BUDGET_US", "0"),
        ]));
        assert_eq!(env.vprocs, None);
        assert_eq!(env.max_rounds, None);
        assert_eq!(env.pause_budget_us, None);
    }

    #[test]
    fn capture_reads_the_real_environment_without_panicking() {
        // Whatever the ambient environment holds, capture() must never
        // panic; the parsed values themselves are asserted by the
        // lookup-based tests above.
        let _ = EnvOverrides::capture();
    }
}
