//! An adaptive placement controller: a deterministic hysteresis state
//! machine over the local/remote split of promoted bytes. No runtime path
//! uses it; the benchmark's `numa.adaptive_record_ns` probe times
//! [`AdaptiveController::record_promotion`].
//!
//! The controller starts in interleave mode and closes a sample window
//! every 32 promotions, looking at the window's remote-byte fraction:
//!
//! * in **node-local** mode, a remote fraction at or above 500‰ for two
//!   *consecutive* windows switches to interleave;
//! * in **interleave** mode, a remote fraction at or below 125‰ for two
//!   consecutive windows switches back to node-local.
//!
//! The gap between the two thresholds plus the consecutive-window patience
//! is the hysteresis: a single noisy window, or an input oscillating once
//! per window, can never flap the mode.

/// Promotions per sample window.
const SAMPLE_EVERY: u64 = 32;
/// Remote fraction (permille) at or above which a node-local window breaches.
const HI_REMOTE_PERMILLE: u32 = 500;
/// Remote fraction (permille) at or below which an interleave window breaches.
const LO_REMOTE_PERMILLE: u32 = 125;
/// Consecutive breaching windows required to switch.
const PATIENCE: u32 = 2;

/// The two behaviours the controller toggles between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlacementMode {
    NodeLocal,
    Interleave,
}

/// Deterministic hysteresis controller choosing between node-local and
/// interleave placement.
///
/// # Examples
///
/// ```
/// use mgc_numa::AdaptiveController;
///
/// let mut c = AdaptiveController::new();
/// // Two all-local windows release the initial interleave stance.
/// for _ in 0..64 {
///     c.record_promotion(4096, 0);
/// }
/// assert_eq!(c.switches(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    mode: PlacementMode,
    window_promotions: u64,
    window_local: u64,
    window_remote: u64,
    breaches: u32,
    switches: u64,
}

impl Default for AdaptiveController {
    fn default() -> Self {
        AdaptiveController::new()
    }
}

impl AdaptiveController {
    /// Creates a controller in interleave mode.
    pub fn new() -> Self {
        AdaptiveController {
            mode: PlacementMode::Interleave,
            window_promotions: 0,
            window_local: 0,
            window_remote: 0,
            breaches: 0,
            switches: 0,
        }
    }

    /// Feeds one promotion's split (bytes promoted into chunks on / off the
    /// consumer's node) into the current sample window, evaluating the
    /// window when it fills.
    pub fn record_promotion(&mut self, local_bytes: u64, remote_bytes: u64) {
        self.window_promotions += 1;
        self.window_local += local_bytes;
        self.window_remote += remote_bytes;
        if self.window_promotions >= SAMPLE_EVERY {
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
            PlacementMode::NodeLocal => permille >= HI_REMOTE_PERMILLE,
            PlacementMode::Interleave => permille <= LO_REMOTE_PERMILLE,
        };
        if !breached {
            self.breaches = 0;
            return;
        }
        self.breaches += 1;
        if self.breaches < PATIENCE {
            return;
        }
        self.switch(match self.mode {
            PlacementMode::NodeLocal => PlacementMode::Interleave,
            PlacementMode::Interleave => PlacementMode::NodeLocal,
        });
    }

    fn switch(&mut self, to: PlacementMode) {
        self.mode = to;
        self.switches += 1;
        self.breaches = 0;
    }

    /// Number of mode switches so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds one full window where every promotion has the given split.
    fn feed_window(c: &mut AdaptiveController, local: u64, remote: u64) {
        for _ in 0..SAMPLE_EVERY {
            c.record_promotion(local, remote);
        }
    }

    /// A controller driven from its initial interleave stance into
    /// node-local by two all-local windows: one switch so far.
    fn node_local() -> AdaptiveController {
        let mut c = AdaptiveController::new();
        assert_eq!(c.mode, PlacementMode::Interleave);
        assert_eq!(c.switches(), 0);
        feed_window(&mut c, 1000, 0);
        feed_window(&mut c, 1000, 0);
        assert_eq!(c.mode, PlacementMode::NodeLocal);
        assert_eq!(c.switches(), 1);
        c
    }

    /// The exact input of the benchmark's `numa.adaptive_record_ns` probe:
    /// 4096-promotion stretches alternating between 3% and 67% remote.
    #[test]
    fn the_probe_sequence_switches_245_times() {
        let mut c = AdaptiveController::new();
        for i in 0..1_000_000u64 {
            let remote = if (i / 4_096) % 2 == 0 { 8 } else { 512 };
            c.record_promotion(256, remote);
        }
        assert_eq!(c.switches(), 245);
    }

    #[test]
    fn sustained_remote_pressure_switches_to_interleave_after_patience() {
        let mut c = node_local();
        feed_window(&mut c, 100, 900); // window 1: 90% remote, breach 1
        assert_eq!(c.mode, PlacementMode::NodeLocal);
        feed_window(&mut c, 100, 900); // window 2: breach 2 -> switch
        assert_eq!(c.mode, PlacementMode::Interleave);
        assert_eq!(c.switches(), 2);
    }

    #[test]
    fn single_breaching_window_does_not_switch() {
        let mut c = node_local();
        feed_window(&mut c, 0, 1000); // breach 1
        feed_window(&mut c, 1000, 0); // clean window resets the streak
        feed_window(&mut c, 0, 1000); // breach 1 again — never reaches patience
        assert_eq!(c.mode, PlacementMode::NodeLocal);
        assert_eq!(c.switches(), 1);
    }

    #[test]
    fn oscillating_ledger_input_never_flaps() {
        let mut c = node_local();
        // Alternate fully-remote and fully-local windows for a long time:
        // the breach streak resets every other window, so the mode holds.
        for _ in 0..50 {
            feed_window(&mut c, 0, 1000);
            feed_window(&mut c, 1000, 0);
        }
        assert_eq!(c.mode, PlacementMode::NodeLocal);
        assert_eq!(c.switches(), 1);
    }

    #[test]
    fn locality_restored_switches_back_with_hysteresis() {
        let mut c = node_local();
        // Drive into interleave.
        feed_window(&mut c, 0, 1000);
        feed_window(&mut c, 0, 1000);
        assert_eq!(c.mode, PlacementMode::Interleave);
        // 30% remote is below the hi threshold but above the lo threshold:
        // inside the hysteresis band, no switch in either direction.
        for _ in 0..10 {
            feed_window(&mut c, 700, 300);
        }
        assert_eq!(c.mode, PlacementMode::Interleave);
        // Sustained ≤12.5% remote releases the controller back.
        feed_window(&mut c, 900, 100);
        feed_window(&mut c, 900, 100);
        assert_eq!(c.mode, PlacementMode::NodeLocal);
        assert_eq!(c.switches(), 3);
    }

    #[test]
    fn zero_byte_windows_carry_no_evidence() {
        let mut c = node_local();
        feed_window(&mut c, 0, 1000); // breach 1
        feed_window(&mut c, 0, 0); // empty window: neither breach nor reset
        feed_window(&mut c, 0, 1000); // breach 2 -> switch
        assert_eq!(c.mode, PlacementMode::Interleave);
        assert_eq!(c.switches(), 2);
    }

    #[test]
    fn partial_window_is_not_evaluated() {
        let mut c = node_local();
        // One full window (breach 1) + 3 pending promotions.
        for _ in 0..SAMPLE_EVERY + 3 {
            c.record_promotion(0, 1000);
        }
        assert_eq!(c.mode, PlacementMode::NodeLocal);
        assert_eq!(c.window_promotions, 3);
    }
}
