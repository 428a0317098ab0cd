//! The power-budget governor: energy- and carbon-aware service-level
//! actuation on the virtual clock.
//!
//! Serving on a battery- or thermally-constrained edge device (the
//! paper's Jetson targets) is budgeted in **watts**, not requests: the
//! deployment cares that the board's sustained draw stays under a cap,
//! and increasingly (CarbonCall, PAPERS.md arxiv 2504.20348) that the
//! *carbon* drawn from the grid stays under a budget as intensity swings
//! over the day. This module is the deterministic control loop for both:
//!
//! * [`GovernorConfig`] — the knobs: a sustained-power cap in watts, the
//!   sliding estimation window, the seed of the synthetic
//!   [`CarbonTrace`], and an optional carbon budget in g CO₂/h. A cap of
//!   `0` (or any non-finite value) means *uncapped*; with both cap and
//!   budget off the governor is [inactive](GovernorConfig::active) and
//!   the engine's behaviour is byte-identical to an ungoverned build.
//! * [`GovernorState`] — the engine-persistent machine: the current
//!   [`ServiceLevel`] rung plus a sliding window of `(arrival, joules)`
//!   samples on the **virtual arrival clock**, fed by open-loop streams
//!   only. Checkpoints carry it, so a restored engine replays the
//!   suffix of a stream to the byte.
//!
//! # The sustained-watts estimator
//!
//! `sustained_w = (joules admitted in the trailing window) / window_s`
//! — the *energy-admission rate* over virtual arrival time. This is
//! deliberately not "power while busy": a quant step-down shrinks both
//! joules and seconds of a call, so busy-power barely moves, but the
//! energy drawn per wall-second of *workload* drops — which is what a
//! battery or a power cap actually integrates. The estimator runs on
//! every open-loop stream (reports carry `sustained_watts_max` even
//! uncapped); only the *decision* step is gated on
//! [`GovernorConfig::active`]. A closed-loop (back-to-back) stream has
//! no arrival clock: every sample would land at the same instant and
//! none would ever leave the window, so such a stream runs neither the
//! estimator nor the decision, leaves the window as it found it, and
//! reports `sustained_watts_max` as 0.
//!
//! # The decision rule
//!
//! At each stage-5 admission offer the governor projects serving the
//! request at full fidelity *plus an Economy-sized reserve*:
//! `(window + full_joules + eco_joules) / window_s` against the cap,
//! and `projected_w × intensity(now) / 1000` (g CO₂/h) against the
//! carbon budget. Over either bound → descend one rung to
//! [`ServiceLevel::Economy`] (one quant step coarser — fewer weight
//! bytes per decode token, the dominant energy term). Back under both
//! bounds with [`ASCEND_HEADROOM`] margin → ascend to Full. The
//! reserve exists because a plain `window + full` rule fills the window
//! flush to the cap and only *then* descends — the admission that
//! triggers the descent would land the window above the cap; reserving
//! the step-down's own joules keeps every Full-rung admission strictly
//! under it. The served level follows the rung with one guard: a
//! coarse-quant call that *fails* decodes longer than its full-fidelity
//! twin and can cost **more** joules, so while the rung is Economy the
//! governor serves whichever variant admits fewer joules. The
//! [`ServiceLevel::Floor`] rung stays the admission layer's: the
//! selection-free full catalog *costs more joules* than selected
//! service, so it is never an energy descent target.
//!
//! # The compliance band
//!
//! A two-rung quant ladder bounds the sustained draw only for caps
//! **above the all-Economy sustained peak** of the offered load. During
//! an Economy hold there is no cheaper rung left, so arrivals admit
//! unchecked at the Economy rate; if that rate alone breaches the cap,
//! no quant actuator can comply — shedding or deferral (an admission
//! policy, not a fidelity policy) is the only instrument below the
//! band.
//!
//! Decisions are keyed to the virtual arrival clock and the submission
//! order only — never wall time, thread count or batch chopping — so a
//! governed replay is bit-identical across workers.

use std::collections::VecDeque;

use lim_core::ServiceLevel;
use lim_workloads::carbon::CarbonTrace;
use lim_workloads::trace::ArrivalProcess;

/// Ascend only when the full-fidelity projection clears the budget with
/// this much headroom; between `0.9·cap` and `cap` the governor holds
/// its rung. Without the band it would flap on every request at the
/// boundary (descend, window drains, ascend, window refills, …).
pub const ASCEND_HEADROOM: f64 = 0.9;

/// Fallback sliding-window length when the configured one is degenerate.
const DEFAULT_WINDOW_S: f64 = 60.0;

/// Power/carbon governor knobs (all off by default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Sustained-power cap in watts over the sliding window. `0.0` or
    /// any non-finite value means uncapped.
    pub power_cap_w: f64,
    /// Sliding estimation window in virtual seconds.
    pub window_s: f64,
    /// Seed of the synthetic day-long [`CarbonTrace`] the engine samples
    /// at virtual time (used for gCO₂ accounting whether or not a carbon
    /// budget is set).
    pub carbon_seed: u64,
    /// Carbon budget in grams CO₂ per hour of sustained draw. `0.0` or
    /// any non-finite value means unbudgeted.
    pub carbon_budget_g_per_h: f64,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self {
            power_cap_w: 0.0,
            window_s: DEFAULT_WINDOW_S,
            carbon_seed: 0,
            carbon_budget_g_per_h: 0.0,
        }
    }
}

impl GovernorConfig {
    /// Whether a finite, positive power cap is set.
    pub fn power_capped(&self) -> bool {
        self.power_cap_w > 0.0 && self.power_cap_w.is_finite()
    }

    /// Whether a finite, positive carbon budget is set.
    pub fn carbon_capped(&self) -> bool {
        self.carbon_budget_g_per_h > 0.0 && self.carbon_budget_g_per_h.is_finite()
    }

    /// Whether the governor actuates at all. An infinite (or zero, or
    /// NaN) cap normalizes to *inactive*, so a `--power-cap-w inf` run
    /// is byte-identical to an ungoverned one by construction.
    pub fn active(&self) -> bool {
        self.power_capped() || self.carbon_capped()
    }

    /// Checks that a stream whose arrival process is `arrivals` can be
    /// governed: an [active](Self::active) governor needs an open-loop
    /// stream, since a back-to-back stream has no arrival clock to
    /// window and would run ungoverned.
    ///
    /// # Errors
    ///
    /// [`ClosedLoopGovernor`] when the governor is active and `arrivals`
    /// is [`ArrivalProcess::BackToBack`].
    pub fn check_arrivals(&self, arrivals: ArrivalProcess) -> Result<(), ClosedLoopGovernor> {
        if self.active() && arrivals == ArrivalProcess::BackToBack {
            return Err(ClosedLoopGovernor {
                power_capped: self.power_capped(),
                carbon_capped: self.carbon_capped(),
            });
        }
        Ok(())
    }

    /// Canonical form: degenerate caps/budgets collapse to the `0.0`
    /// "off" encoding and a degenerate window to the default, so every
    /// equivalent configuration checkpoints — and validates — as the
    /// same bytes.
    pub(crate) fn normalized(mut self) -> Self {
        if !self.power_capped() {
            self.power_cap_w = 0.0;
        }
        if !self.carbon_capped() {
            self.carbon_budget_g_per_h = 0.0;
        }
        if !(self.window_s.is_finite() && self.window_s > 0.0) {
            self.window_s = DEFAULT_WINDOW_S;
        }
        self
    }
}

/// A power cap or carbon budget set for a closed-loop (back-to-back)
/// stream, which the governor cannot act on (see
/// [`GovernorConfig::check_arrivals`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedLoopGovernor {
    /// A power cap is set.
    pub power_capped: bool,
    /// A carbon budget is set.
    pub carbon_capped: bool,
}

impl std::fmt::Display for ClosedLoopGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let knobs = match (self.power_capped, self.carbon_capped) {
            (true, true) => "--power-cap-w and --carbon-budget govern",
            (true, false) => "--power-cap-w governs",
            _ => "--carbon-budget governs",
        };
        write!(
            f,
            "{knobs} open-loop streams only, but this stream is back-to-back and has no \
             arrival clock to window; give it arrival times with --arrivals poisson:RATE \
             or burst:RATE:SIZE"
        )
    }
}

impl std::error::Error for ClosedLoopGovernor {}

/// The engine-persistent governor machine: current rung, virtual clock,
/// and the sliding window of admitted-energy samples. Only open-loop
/// streams observe into it; a closed-loop stream leaves it untouched.
///
/// The window sum is recomputed front-to-back at every use instead of
/// being maintained incrementally: an incremental sum accumulates
/// floating-point drift that depends on the *history* of additions and
/// subtractions, which a checkpoint restore cannot replay — summing the
/// resident samples in deque order is a pure function of the restored
/// state, so live and restored engines agree to the bit.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorState {
    level: ServiceLevel,
    clock_s: f64,
    window: VecDeque<(f64, f64)>,
}

impl Default for GovernorState {
    fn default() -> Self {
        Self::new()
    }
}

impl GovernorState {
    /// A fresh governor: full fidelity, empty window, clock at zero.
    pub fn new() -> Self {
        Self {
            level: ServiceLevel::Full,
            clock_s: 0.0,
            window: VecDeque::new(),
        }
    }

    /// Rebuilds a checkpointed governor (the snapshot restore path).
    pub(crate) fn restore(level: ServiceLevel, clock_s: f64, window: Vec<(f64, f64)>) -> Self {
        Self {
            level,
            clock_s,
            window: window.into(),
        }
    }

    /// The current service rung.
    pub fn level(&self) -> ServiceLevel {
        self.level
    }

    /// The latest virtual instant the governor observed.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// The resident `(arrival_s, joules)` samples, oldest first.
    pub(crate) fn window(&self) -> &VecDeque<(f64, f64)> {
        &self.window
    }

    /// Advances the virtual clock monotonically and evicts samples that
    /// fell out of the trailing window. Returns the effective now.
    fn advance(&mut self, config: &GovernorConfig, arrival_s: f64) -> f64 {
        if arrival_s.is_finite() && arrival_s > self.clock_s {
            self.clock_s = arrival_s;
        }
        let horizon = self.clock_s - config.window_s;
        while self.window.front().is_some_and(|(t, _)| *t <= horizon) {
            self.window.pop_front();
        }
        self.clock_s
    }

    /// Joules resident in the window, summed oldest-first (see the type
    /// docs for why this is never maintained incrementally).
    fn window_joules(&self) -> f64 {
        self.window.iter().map(|(_, j)| *j).sum()
    }

    /// One governor decision at an admission offer: project serving this
    /// request at full fidelity against the cap and the carbon budget,
    /// and move one rung accordingly. Returns the level to *serve* at,
    /// which follows the rung with one guard: a coarse-quant call that
    /// fails decodes longer than the full-fidelity one, so an Economy
    /// variant can cost **more** joules than Full — stepping down would
    /// then admit more energy, the opposite of what the rung is for.
    /// While the rung is Economy the governor serves whichever variant
    /// admits fewer joules.
    pub(crate) fn decide(
        &mut self,
        config: &GovernorConfig,
        carbon: &CarbonTrace,
        arrival_s: f64,
        full_joules: f64,
        eco_joules: f64,
    ) -> ServiceLevel {
        let now = self.advance(config, arrival_s);
        // Project this request at full fidelity *plus* one step-down
        // admission of reserve. Without the reserve the stay-at-Full
        // rule fills the window flush to the cap, and the admission
        // that finally triggers the descent necessarily lands the
        // window *above* it — the breach is only detectable after the
        // cap-filling admission. Reserving the Economy variant's joules
        // keeps every compliant admission strictly under the cap.
        let projected_w =
            (self.window_joules() + full_joules + eco_joules.max(0.0)) / config.window_s;
        let over = |headroom: f64| {
            (config.power_capped() && projected_w > headroom * config.power_cap_w)
                || (config.carbon_capped()
                    && projected_w * carbon.intensity_at(now) / 1000.0
                        > headroom * config.carbon_budget_g_per_h)
        };
        self.level = match self.level {
            ServiceLevel::Full if over(1.0) => ServiceLevel::Economy,
            ServiceLevel::Economy if !over(ASCEND_HEADROOM) => ServiceLevel::Full,
            level => level,
        };
        match self.level {
            ServiceLevel::Economy if eco_joules < full_joules => ServiceLevel::Economy,
            _ => ServiceLevel::Full,
        }
    }

    /// Records the energy actually admitted at `arrival_s` (`0.0` for a
    /// shed request — it still advances the clock) and returns the
    /// sustained watts over the window after the observation.
    pub(crate) fn observe(&mut self, config: &GovernorConfig, arrival_s: f64, joules: f64) -> f64 {
        let now = self.advance(config, arrival_s);
        if joules > 0.0 {
            self.window.push_back((now, joules));
        }
        self.window_joules() / config.window_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capped(cap: f64, window: f64) -> GovernorConfig {
        GovernorConfig {
            power_cap_w: cap,
            window_s: window,
            ..GovernorConfig::default()
        }
    }

    #[test]
    fn degenerate_caps_normalize_to_inactive() {
        for cap in [0.0, -3.0, f64::INFINITY, f64::NAN] {
            let config = capped(cap, 60.0).normalized();
            assert!(!config.active(), "cap {cap} must be inactive");
            assert_eq!(config.power_cap_w, 0.0);
        }
        assert!(capped(25.0, 60.0).normalized().active());
        let bad_window = capped(25.0, f64::NAN).normalized();
        assert_eq!(bad_window.window_s, DEFAULT_WINDOW_S);
    }

    #[test]
    fn an_active_governor_refuses_a_back_to_back_stream() {
        let open = ArrivalProcess::Poisson { rate_rps: 0.06 };
        let carbon = GovernorConfig {
            carbon_budget_g_per_h: 100.0,
            ..GovernorConfig::default()
        };
        for config in [capped(25.0, 60.0), carbon] {
            let err = config
                .check_arrivals(ArrivalProcess::BackToBack)
                .unwrap_err();
            assert!(err.to_string().contains("--arrivals"), "{err}");
            assert_eq!(config.check_arrivals(open), Ok(()));
        }
        for inert in [GovernorConfig::default(), capped(f64::INFINITY, 60.0)] {
            assert_eq!(inert.check_arrivals(ArrivalProcess::BackToBack), Ok(()));
        }
    }

    #[test]
    fn governor_descends_over_cap_and_ascends_with_headroom() {
        // Cap 10 W over a 10 s window = 100 J of budget.
        let config = capped(10.0, 10.0);
        let carbon = CarbonTrace::new(0);
        let mut state = GovernorState::new();
        // 40 J at t=0: projecting another 40 J stays under 100 J.
        assert_eq!(
            state.decide(&config, &carbon, 0.0, 40.0, 25.0),
            ServiceLevel::Full
        );
        state.observe(&config, 0.0, 40.0);
        state.observe(&config, 1.0, 40.0);
        // 80 J resident; projecting 40 J more breaches 100 J → descend.
        assert_eq!(
            state.decide(&config, &carbon, 2.0, 40.0, 25.0),
            ServiceLevel::Economy
        );
        state.observe(&config, 2.0, 25.0);
        // Still 105 J projected at t=3 → hold Economy.
        assert_eq!(
            state.decide(&config, &carbon, 3.0, 40.0, 25.0),
            ServiceLevel::Economy
        );
        // At t=10.5 the t=0 sample evicted (65 J resident → 105 J
        // projected, above the 90 J ascend bound): hold. At t=20 the
        // window is empty (40 J projected < 90 J headroom): ascend.
        assert_eq!(
            state.decide(&config, &carbon, 10.5, 40.0, 25.0),
            ServiceLevel::Economy
        );
        assert_eq!(
            state.decide(&config, &carbon, 20.0, 40.0, 25.0),
            ServiceLevel::Full
        );
    }

    #[test]
    fn holds_economy_inside_the_hysteresis_band() {
        // 95 J projected sits between 0.9·cap (90 J) and cap (100 J):
        // too high to ascend, not high enough to have descended.
        let config = capped(10.0, 10.0);
        let carbon = CarbonTrace::new(0);
        let mut state = GovernorState::new();
        state.observe(&config, 0.0, 96.0);
        assert_eq!(
            state.decide(&config, &carbon, 1.0, 10.0, 7.0),
            ServiceLevel::Economy
        );
        state.window.clear();
        state.observe(&config, 1.0, 85.0);
        assert_eq!(
            state.decide(&config, &carbon, 2.0, 10.0, 7.0),
            ServiceLevel::Economy,
            "95 J projected is inside the hold band"
        );
        state.window.clear();
        state.observe(&config, 2.0, 70.0);
        assert_eq!(
            state.decide(&config, &carbon, 3.0, 10.0, 7.0),
            ServiceLevel::Full,
            "80 J projected clears the 90 J ascend bound"
        );
    }

    #[test]
    fn inactive_governor_never_descends() {
        let config = GovernorConfig::default();
        let carbon = CarbonTrace::new(0);
        let mut state = GovernorState::new();
        for i in 0..50 {
            state.observe(&config, i as f64 * 0.01, 1e9);
            assert_eq!(
                state.decide(&config, &carbon, i as f64 * 0.01, 1e9, 5e8),
                ServiceLevel::Full
            );
        }
    }

    #[test]
    fn carbon_budget_descends_when_intensity_spikes() {
        // Budget chosen so the same watts fit at the overnight trough
        // but breach at the evening peak (intensity > 1.2× trough).
        let carbon = CarbonTrace::new(0);
        let trough_t = 3.5 * 3600.0;
        let peak_t = 19.5 * 3600.0;
        let watts = 10.0;
        let budget =
            watts / 1000.0 * (carbon.intensity_at(trough_t) + carbon.intensity_at(peak_t)) / 2.0;
        let config = GovernorConfig {
            carbon_budget_g_per_h: budget,
            window_s: 10.0,
            ..GovernorConfig::default()
        };
        let mut trough = GovernorState::new();
        trough.observe(&config, trough_t, 50.0);
        assert_eq!(
            trough.decide(&config, &carbon, trough_t + 1.0, 50.0, 35.0),
            ServiceLevel::Full,
            "100 J / 10 s = 10 W fits the budget at trough intensity"
        );
        let mut peak = GovernorState::new();
        peak.observe(&config, peak_t, 50.0);
        assert_eq!(
            peak.decide(&config, &carbon, peak_t + 1.0, 50.0, 35.0),
            ServiceLevel::Economy,
            "the same watts breach the budget at peak intensity"
        );
    }

    #[test]
    fn economy_rung_serves_full_when_the_step_down_costs_more() {
        // Force a descent, then offer a request whose Economy variant is
        // *more* expensive (a coarse-quant failure decoding longer): the
        // rung stays Economy but the served level is Full — stepping
        // down would admit more energy, not less.
        let config = capped(10.0, 10.0);
        let carbon = CarbonTrace::new(0);
        let mut state = GovernorState::new();
        state.observe(&config, 0.0, 90.0);
        assert_eq!(
            state.decide(&config, &carbon, 1.0, 40.0, 55.0),
            ServiceLevel::Full,
            "eco 55 J ≥ full 40 J: serve the cheaper full variant"
        );
        assert_eq!(
            state.level(),
            ServiceLevel::Economy,
            "the rung itself still descended"
        );
        assert_eq!(
            state.decide(&config, &carbon, 1.5, 40.0, 25.0),
            ServiceLevel::Economy,
            "a genuinely cheaper step-down serves Economy"
        );
    }

    #[test]
    fn window_sum_is_identical_after_restore() {
        let config = capped(10.0, 100.0);
        let mut live = GovernorState::new();
        for i in 0..40 {
            live.observe(&config, i as f64 * 0.37, 0.1 + i as f64 * 0.013);
        }
        let restored = GovernorState::restore(
            live.level(),
            live.clock_s(),
            live.window().iter().copied().collect(),
        );
        assert_eq!(live, restored);
        assert_eq!(
            live.window_joules().to_bits(),
            restored.window_joules().to_bits(),
            "deque-order summation must be restore-invariant"
        );
    }

    #[test]
    fn shed_observations_advance_the_clock_without_energy() {
        let config = capped(10.0, 5.0);
        let mut state = GovernorState::new();
        state.observe(&config, 0.0, 30.0);
        assert!(state.observe(&config, 100.0, 0.0) == 0.0);
        assert!(state.window().is_empty(), "old sample evicted, none added");
        assert_eq!(state.clock_s(), 100.0);
    }
}
