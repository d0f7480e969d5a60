//! The run telemetry every search driver emits.

use wmn_obs::{phase, EngineStats, Recorder};

/// One driver run's counters, as `(name, value)` pairs.
pub(crate) struct RunReport<'a> {
    /// The driver's phase scope under `search` (`ns`, `hc`, `sa`, `tabu`).
    pub driver: &'static str,
    /// The phase count, emitted at the driver scope.
    pub phases: (&'static str, usize),
    /// The proposal count, emitted under `propose`.
    pub proposed: (&'static str, usize),
    /// The acceptance counters, emitted under `evaluate`.
    pub evaluate: &'a [(&'static str, usize)],
}

/// Emits `report` and the run's engine work-counter delta `engine`,
/// attributed under `search > <driver> > {propose, apply, evaluate}`:
/// the engine delta is the `apply` stage's, with connectivity work staged
/// into `insert` / `delete`. Flat totals are the plain counter sums.
pub(crate) fn record_run(recorder: &mut dyn Recorder, engine: &EngineStats, report: RunReport) {
    let mut scope = phase(recorder, "search");
    let mut driver = phase(&mut scope, report.driver);
    driver.counter(report.phases.0, report.phases.1 as u64);
    phase(&mut driver, "propose").counter(report.proposed.0, report.proposed.1 as u64);
    engine.record_counters_staged(&mut phase(&mut driver, "apply"));
    let mut evaluate = phase(&mut driver, "evaluate");
    for &(name, value) in report.evaluate {
        evaluate.counter(name, value as u64);
    }
}
