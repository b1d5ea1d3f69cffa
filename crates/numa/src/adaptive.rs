//! An adaptive placement controller: a deterministic hysteresis state
//! machine over the live promoted-bytes locality ledger. No runtime path
//! uses it; the benchmark's `numa.adaptive_record_ns` probe times it.
//!
//! A caller owns one [`AdaptiveController`] per worker and consults it
//! immediately before each promotion
//! ([`AdaptiveController::placement_for_next_promotion`]) to resolve the
//! *effective* static behaviour — node-local or interleave — for that
//! promotion's chunk leases, and feeds the promotion's ledger split back in
//! afterwards ([`AdaptiveController::record_promotion`]). The controller
//! closes a sample window every `sample_every` promotions and looks at the
//! window's remote-byte fraction:
//!
//! * in **node-local** mode, a remote fraction at or above the high
//!   threshold for `patience` *consecutive* windows means node-affine chunk
//!   leasing is failing to deliver locality (the pool is handing back
//!   cross-node chunks, e.g. under the affinity ablation or memory
//!   pressure) — the controller stops paying node-local's chunk-retirement
//!   churn and switches to interleave;
//! * in **interleave** mode, a remote fraction at or below the low
//!   threshold for `patience` consecutive windows means locality has been
//!   restored, and the controller switches back to node-local.
//!
//! The gap between the two thresholds plus the consecutive-window patience
//! is the hysteresis: a single noisy window, or an input oscillating once
//! per window, can never flap the mode.
//!
//! **Cold start.** The controller is *declared* in the locality-blind
//! interleave stance but commits to a mode only when the first promotion
//! actually needs a placement. With no ledger evidence at that point it
//! adopts the paper-default node-local mode and records the adoption as its
//! first [`PlacementDecision`] (reason [`DecisionReason::ColdStart`]). No
//! bytes are ever promoted under the provisional stance, so an adaptive run
//! on a well-behaved machine is byte-for-byte as local as static
//! `node-local` — while still leaving a non-empty, machine-readable
//! decision trail.

use crate::policy::PlacementPolicy;

/// Default promotions per sample window.
pub const DEFAULT_SAMPLE_EVERY: u64 = 32;
/// Default high remote-fraction threshold (permille) that pressures a
/// node-local controller towards interleave.
pub const DEFAULT_HI_REMOTE_PERMILLE: u32 = 500;
/// Default low remote-fraction threshold (permille) that releases an
/// interleave controller back to node-local.
pub const DEFAULT_LO_REMOTE_PERMILLE: u32 = 125;
/// Default number of consecutive breaching windows required to switch.
pub const DEFAULT_PATIENCE: u32 = 2;

/// The two effective behaviours an adaptive controller toggles between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementMode {
    /// Lease promotion chunks on the consumer's node.
    NodeLocal,
    /// Round-robin promotion-chunk leases across all nodes.
    Interleave,
}

impl PlacementMode {
    /// A short lowercase label (matches the static policy labels).
    pub fn label(self) -> &'static str {
        match self {
            PlacementMode::NodeLocal => "node-local",
            PlacementMode::Interleave => "interleave",
        }
    }

    /// The static [`PlacementPolicy`] this mode behaves as.
    pub fn as_policy(self) -> PlacementPolicy {
        match self {
            PlacementMode::NodeLocal => PlacementPolicy::NodeLocal,
            PlacementMode::Interleave => PlacementPolicy::Interleave,
        }
    }
}

impl std::fmt::Display for PlacementMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a controller switched modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// First promotion with no ledger evidence: adopt the paper default.
    ColdStart,
    /// Sustained high remote fraction while node-local: locality is already
    /// lost, spread the bandwidth instead.
    RemotePressure,
    /// Sustained low remote fraction while interleaved: locality works
    /// again, go back to node-local.
    LocalityRestored,
}

impl DecisionReason {
    /// A short lowercase label for CSV/JSON output.
    pub fn label(self) -> &'static str {
        match self {
            DecisionReason::ColdStart => "cold-start",
            DecisionReason::RemotePressure => "remote-pressure",
            DecisionReason::LocalityRestored => "locality-restored",
        }
    }
}

/// One mode switch, kept in the controller's decision trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementDecision {
    /// Promotion count (on this controller) at which the switch took effect.
    pub at_promotion: u64,
    /// Mode before the switch.
    pub from: PlacementMode,
    /// Mode after the switch.
    pub to: PlacementMode,
    /// Remote-byte fraction (permille) of the window that triggered the
    /// switch; `0` for the cold-start adoption.
    pub remote_permille: u32,
    /// Why the controller switched.
    pub reason: DecisionReason,
}

/// Deterministic hysteresis controller choosing between node-local and
/// interleave placement.
///
/// # Examples
///
/// ```
/// use mgc_numa::{AdaptiveController, PlacementMode};
///
/// let mut c = AdaptiveController::new();
/// // Cold start: the first placement query adopts node-local.
/// assert_eq!(c.placement_for_next_promotion(), PlacementMode::NodeLocal);
/// assert_eq!(c.switches(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    mode: PlacementMode,
    cold: bool,
    sample_every: u64,
    hi_permille: u32,
    lo_permille: u32,
    patience: u32,
    promotions: u64,
    window_promotions: u64,
    window_local: u64,
    window_remote: u64,
    breaches: u32,
    switches: u64,
    decisions: Vec<PlacementDecision>,
}

impl Default for AdaptiveController {
    fn default() -> Self {
        AdaptiveController::new()
    }
}

impl AdaptiveController {
    /// Creates a controller with the default thresholds.
    pub fn new() -> Self {
        AdaptiveController::with_params(
            DEFAULT_SAMPLE_EVERY,
            DEFAULT_HI_REMOTE_PERMILLE,
            DEFAULT_LO_REMOTE_PERMILLE,
            DEFAULT_PATIENCE,
        )
    }

    /// Creates a controller with explicit thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every` or `patience` is zero, if `hi_permille`
    /// does not exceed `lo_permille` (no hysteresis gap), or if
    /// `hi_permille` exceeds 1000.
    pub fn with_params(
        sample_every: u64,
        hi_permille: u32,
        lo_permille: u32,
        patience: u32,
    ) -> Self {
        assert!(sample_every > 0, "a sample window must hold promotions");
        assert!(patience > 0, "patience of zero would switch on any noise");
        assert!(
            hi_permille > lo_permille,
            "the thresholds must leave a hysteresis gap (hi {hi_permille} <= lo {lo_permille})"
        );
        assert!(
            hi_permille <= 1000,
            "a fraction cannot exceed 1000 permille"
        );
        AdaptiveController {
            mode: PlacementMode::Interleave,
            cold: true,
            sample_every,
            hi_permille,
            lo_permille,
            patience,
            promotions: 0,
            window_promotions: 0,
            window_local: 0,
            window_remote: 0,
            breaches: 0,
            switches: 0,
            decisions: Vec::new(),
        }
    }

    /// The effective behaviour for the *next* promotion's chunk leases.
    ///
    /// The first call resolves the cold start: with no samples yet the
    /// controller adopts [`PlacementMode::NodeLocal`] and records the
    /// adoption as its first decision.
    pub fn placement_for_next_promotion(&mut self) -> PlacementMode {
        if self.cold {
            self.cold = false;
            if self.mode != PlacementMode::NodeLocal {
                self.switch(PlacementMode::NodeLocal, 0, DecisionReason::ColdStart);
            }
        }
        self.mode
    }

    /// Feeds one promotion's ledger split (bytes promoted into chunks on /
    /// off the consumer's node) into the current sample window, evaluating
    /// the window when it fills.
    pub fn record_promotion(&mut self, local_bytes: u64, remote_bytes: u64) {
        self.promotions += 1;
        self.window_promotions += 1;
        self.window_local += local_bytes;
        self.window_remote += remote_bytes;
        if self.window_promotions >= self.sample_every {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let total = self.window_local + self.window_remote;
        let remote = self.window_remote;
        self.window_promotions = 0;
        self.window_local = 0;
        self.window_remote = 0;
        if total == 0 {
            // A window of zero-byte promotions carries no locality evidence:
            // it neither breaches nor resets the streak.
            return;
        }
        let permille = ((u128::from(remote) * 1000) / u128::from(total)) as u32;
        let breached = match self.mode {
            PlacementMode::NodeLocal => permille >= self.hi_permille,
            PlacementMode::Interleave => permille <= self.lo_permille,
        };
        if !breached {
            self.breaches = 0;
            return;
        }
        self.breaches += 1;
        if self.breaches < self.patience {
            return;
        }
        match self.mode {
            PlacementMode::NodeLocal => {
                self.switch(
                    PlacementMode::Interleave,
                    permille,
                    DecisionReason::RemotePressure,
                );
            }
            PlacementMode::Interleave => {
                self.switch(
                    PlacementMode::NodeLocal,
                    permille,
                    DecisionReason::LocalityRestored,
                );
            }
        }
    }

    fn switch(&mut self, to: PlacementMode, remote_permille: u32, reason: DecisionReason) {
        self.decisions.push(PlacementDecision {
            at_promotion: self.promotions,
            from: self.mode,
            to,
            remote_permille,
            reason,
        });
        self.mode = to;
        self.switches += 1;
        self.breaches = 0;
    }

    /// The controller's current mode (without resolving a cold start).
    pub fn mode(&self) -> PlacementMode {
        self.mode
    }

    /// Number of mode switches so far (including the cold-start adoption).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Promotions recorded so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Every switch, in order.
    pub fn decisions(&self) -> &[PlacementDecision] {
        &self.decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small controller for tests: 4-promotion windows, switch at ≥50%
    /// remote (back at ≤12.5%), patience 2.
    fn small() -> AdaptiveController {
        AdaptiveController::with_params(4, 500, 125, 2)
    }

    /// Feeds one full window where every promotion has the given split.
    fn feed_window(c: &mut AdaptiveController, local: u64, remote: u64) {
        for _ in 0..4 {
            c.record_promotion(local, remote);
        }
    }

    #[test]
    fn cold_start_adopts_node_local_and_counts_as_a_switch() {
        let mut c = small();
        assert_eq!(c.mode(), PlacementMode::Interleave);
        assert_eq!(c.switches(), 0);
        assert_eq!(c.placement_for_next_promotion(), PlacementMode::NodeLocal);
        assert_eq!(c.switches(), 1);
        let d = c.decisions()[0];
        assert_eq!(d.reason, DecisionReason::ColdStart);
        assert_eq!(d.from, PlacementMode::Interleave);
        assert_eq!(d.to, PlacementMode::NodeLocal);
        assert_eq!(d.at_promotion, 0);
        // Subsequent queries do not re-adopt.
        assert_eq!(c.placement_for_next_promotion(), PlacementMode::NodeLocal);
        assert_eq!(c.switches(), 1);
    }

    #[test]
    fn sustained_remote_pressure_switches_to_interleave_after_patience() {
        let mut c = small();
        c.placement_for_next_promotion();
        feed_window(&mut c, 100, 900); // window 1: 90% remote, breach 1
        assert_eq!(c.mode(), PlacementMode::NodeLocal);
        feed_window(&mut c, 100, 900); // window 2: breach 2 -> switch
        assert_eq!(c.mode(), PlacementMode::Interleave);
        assert_eq!(c.switches(), 2);
        let d = *c.decisions().last().unwrap();
        assert_eq!(d.reason, DecisionReason::RemotePressure);
        assert_eq!(d.remote_permille, 900);
        assert_eq!(d.at_promotion, 8);
    }

    #[test]
    fn single_breaching_window_does_not_switch() {
        let mut c = small();
        c.placement_for_next_promotion();
        feed_window(&mut c, 0, 1000); // breach 1
        feed_window(&mut c, 1000, 0); // clean window resets the streak
        feed_window(&mut c, 0, 1000); // breach 1 again — never reaches patience
        assert_eq!(c.mode(), PlacementMode::NodeLocal);
        assert_eq!(c.switches(), 1); // cold start only
    }

    #[test]
    fn oscillating_ledger_input_never_flaps() {
        let mut c = small();
        c.placement_for_next_promotion();
        // Alternate fully-remote and fully-local windows for a long time:
        // the breach streak resets every other window, so the mode holds.
        for _ in 0..50 {
            feed_window(&mut c, 0, 1000);
            feed_window(&mut c, 1000, 0);
        }
        assert_eq!(c.mode(), PlacementMode::NodeLocal);
        assert_eq!(c.switches(), 1);
    }

    #[test]
    fn locality_restored_switches_back_with_hysteresis() {
        let mut c = small();
        c.placement_for_next_promotion();
        // Drive into interleave.
        feed_window(&mut c, 0, 1000);
        feed_window(&mut c, 0, 1000);
        assert_eq!(c.mode(), PlacementMode::Interleave);
        // 30% remote is below the hi threshold but above the lo threshold:
        // inside the hysteresis band, no switch in either direction.
        for _ in 0..10 {
            feed_window(&mut c, 700, 300);
        }
        assert_eq!(c.mode(), PlacementMode::Interleave);
        // Sustained ≤12.5% remote releases the controller back.
        feed_window(&mut c, 900, 100);
        feed_window(&mut c, 900, 100);
        assert_eq!(c.mode(), PlacementMode::NodeLocal);
        assert_eq!(c.switches(), 3);
        let d = *c.decisions().last().unwrap();
        assert_eq!(d.reason, DecisionReason::LocalityRestored);
        assert_eq!(d.remote_permille, 100);
    }

    #[test]
    fn zero_byte_windows_carry_no_evidence() {
        let mut c = small();
        c.placement_for_next_promotion();
        feed_window(&mut c, 0, 1000); // breach 1
        feed_window(&mut c, 0, 0); // empty window: neither breach nor reset
        feed_window(&mut c, 0, 1000); // breach 2 -> switch
        assert_eq!(c.mode(), PlacementMode::Interleave);
        assert_eq!(c.switches(), 2);
    }

    #[test]
    fn partial_window_is_not_evaluated() {
        let mut c = small();
        c.placement_for_next_promotion();
        // 7 promotions = one full window (breach 1) + 3 pending.
        for _ in 0..7 {
            c.record_promotion(0, 1000);
        }
        assert_eq!(c.mode(), PlacementMode::NodeLocal);
        assert_eq!(c.promotions(), 7);
    }

    #[test]
    fn mode_labels_and_policy_mapping() {
        assert_eq!(PlacementMode::NodeLocal.label(), "node-local");
        assert_eq!(PlacementMode::Interleave.label(), "interleave");
        assert_eq!(
            PlacementMode::NodeLocal.as_policy(),
            PlacementPolicy::NodeLocal
        );
        assert_eq!(
            PlacementMode::Interleave.as_policy(),
            PlacementPolicy::Interleave
        );
        assert_eq!(DecisionReason::ColdStart.label(), "cold-start");
        assert_eq!(DecisionReason::RemotePressure.label(), "remote-pressure");
        assert_eq!(
            DecisionReason::LocalityRestored.label(),
            "locality-restored"
        );
    }

    #[test]
    #[should_panic(expected = "hysteresis gap")]
    fn thresholds_without_a_gap_are_rejected() {
        let _ = AdaptiveController::with_params(4, 125, 125, 2);
    }
}
