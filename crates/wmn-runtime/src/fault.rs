//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a small, seeded rule table that tells the runtime to
//! *pretend* things go wrong — a job panics or returns an error — at
//! named sites, with every decision derived from
//! [`stream_seed`] over `(plan seed, rule
//! index, site, job index)`. Decisions therefore depend only on the plan
//! and the job's coordinates, never on scheduling: the same plan dooms the
//! same attempts of the same jobs at every thread count, which is what
//! lets the chaos CI job demand byte-identical output from faulty and
//! fault-free runs.
//!
//! Faults are **attempt-scoped**: a rule with `n=2` dooms a job's first
//! two attempts and then stands aside, so a retry budget of three
//! attempts recovers deterministically. The attempt number is *not*
//! hashed into the decision — only compared against the rule's
//! `doomed_attempts` — so "fails twice, then succeeds" is expressible.
//!
//! Plans are written as compact specs, e.g. the chaos CI plan
//! `seed=7;panic@start:p=0.4;error@finish:p=0.4,n=2`:
//!
//! * `seed=N` — the plan's root seed (default 0);
//! * `<kind>@<site>` — a rule; kinds are `panic` and `error`, sites are
//!   `start` and `finish`;
//! * `:p=F` — firing probability per job (default 1.0);
//! * `,n=K` — number of doomed attempts per firing job (default 1).
//!
//! Everything is off by default: a `None` plan (or an empty rule table)
//! injects nothing and costs one branch per site.

use std::fmt;
use wmn_model::rng::stream_seed;

/// What kind of failure to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the job (exercises `catch_unwind` isolation).
    Panic,
    /// Make the job return an injected `Err` (exercises retry/classify).
    Error,
}

impl FaultKind {
    /// The spec-syntax name (`panic`, `error`).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Error => "error",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the execution pipeline a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Before the job's work function runs.
    JobStart,
    /// After the job's work function returned `Ok`.
    JobFinish,
}

impl FaultSite {
    /// The spec-syntax name (`start`, `finish`).
    pub fn name(&self) -> &'static str {
        match self {
            FaultSite::JobStart => "start",
            FaultSite::JobFinish => "finish",
        }
    }

    /// Stable coordinate used in seed derivation; never reorder.
    fn code(&self) -> u64 {
        match self {
            FaultSite::JobStart => 1,
            FaultSite::JobFinish => 2,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One injection rule: fire `kind` at `site` for a pseudo-random
/// `probability` fraction of jobs, dooming each firing job's first
/// `doomed_attempts` attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// The failure to inject.
    pub kind: FaultKind,
    /// Where it fires.
    pub site: FaultSite,
    /// Per-job firing probability in `[0, 1]`; `>= 1` always fires.
    pub probability: f64,
    /// How many attempts of a firing job are doomed (spec `n=`).
    pub doomed_attempts: u32,
}

/// The maximum number of rules a plan can hold. A fixed-size table keeps
/// [`FaultPlan`] `Copy`, which lets it ride inside `Copy` experiment
/// configs.
pub const MAX_RULES: usize = 8;

/// A seeded, reproducible fault-injection plan.
///
/// `FaultPlan::default()` injects nothing. Plans are usually built from a
/// spec string (see the [module docs](self)):
///
/// ```
/// use wmn_runtime::fault::{FaultKind, FaultPlan, FaultSite};
///
/// let plan = FaultPlan::parse("seed=7;error@start:p=1,n=2").unwrap();
/// // Attempts 0 and 1 of every job are doomed, attempt 2 is clean —
/// // at any thread count.
/// assert_eq!(plan.decide(FaultSite::JobStart, 3, 0), Some(FaultKind::Error));
/// assert_eq!(plan.decide(FaultSite::JobStart, 3, 1), Some(FaultKind::Error));
/// assert_eq!(plan.decide(FaultSite::JobStart, 3, 2), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Root seed for all firing decisions.
    pub seed: u64,
    /// The rule table; `None` slots are inert.
    pub rules: [Option<FaultRule>; MAX_RULES],
}

/// A malformed fault-plan spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    message: String,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.message)
    }
}

impl std::error::Error for FaultPlanError {}

fn plan_err(message: impl Into<String>) -> FaultPlanError {
    FaultPlanError {
        message: message.into(),
    }
}

impl FaultPlan {
    /// Whether the plan has no active rules (injects nothing).
    pub fn is_empty(&self) -> bool {
        self.rules.iter().all(Option::is_none)
    }

    /// Appends a rule; errors when the table is full.
    ///
    /// # Errors
    ///
    /// When all [`MAX_RULES`] slots are taken.
    pub fn push(&mut self, rule: FaultRule) -> Result<(), FaultPlanError> {
        match self.rules.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => {
                *slot = Some(rule);
                Ok(())
            }
            None => Err(plan_err(format!("more than {MAX_RULES} rules"))),
        }
    }

    /// Parses a spec string like
    /// `seed=7;panic@start:p=0.4;error@finish:p=0.4,n=2`.
    ///
    /// # Errors
    ///
    /// Describes the offending token on any syntax or validity problem.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan::default();
        for token in spec.split(';') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            if let Some(value) = token.strip_prefix("seed=") {
                plan.seed = value
                    .parse()
                    .map_err(|_| plan_err(format!("bad seed {value:?}")))?;
                continue;
            }
            plan.push(parse_rule(token)?)?;
        }
        Ok(plan)
    }

    /// Decides whether a fault fires at `site` for `(job_index, attempt)`.
    ///
    /// Rules are consulted in table order; the first rule whose site
    /// matches, whose `doomed_attempts` still covers `attempt`, and whose
    /// seeded roll fires, wins. The roll hashes `(rule index, site, job
    /// index)` — not the attempt — so a firing rule dooms a fixed prefix
    /// of a job's attempts and then stops.
    pub fn decide(&self, site: FaultSite, job_index: usize, attempt: u32) -> Option<FaultKind> {
        for (rule_index, rule) in self.rules.iter().enumerate() {
            let Some(rule) = rule else { continue };
            if rule.site != site || attempt >= rule.doomed_attempts {
                continue;
            }
            if roll(self.seed, rule_index as u64, site.code(), job_index as u64) < rule.probability
            {
                return Some(rule.kind);
            }
        }
        None
    }
}

/// Uniform-in-`[0, 1)` pseudo-random value from the decision coordinates.
fn roll(seed: u64, rule_index: u64, site_code: u64, job_index: u64) -> f64 {
    let bits = stream_seed(seed, &[rule_index, site_code, job_index]);
    // 53 high bits → exactly representable dyadic rational in [0, 1).
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

fn parse_rule(token: &str) -> Result<FaultRule, FaultPlanError> {
    let (head, opts) = match token.split_once(':') {
        Some((head, opts)) => (head, Some(opts)),
        None => (token, None),
    };
    let (kind, site) = head
        .split_once('@')
        .ok_or_else(|| plan_err(format!("rule {token:?} is not <kind>@<site>")))?;
    let kind = match kind {
        "panic" => FaultKind::Panic,
        "error" => FaultKind::Error,
        other => {
            return Err(plan_err(format!(
                "unknown fault kind {other:?} (panic|error)"
            )))
        }
    };
    let site = match site {
        "start" => FaultSite::JobStart,
        "finish" => FaultSite::JobFinish,
        other => {
            return Err(plan_err(format!(
                "unknown fault site {other:?} (start|finish)"
            )))
        }
    };
    let mut rule = FaultRule {
        kind,
        site,
        probability: 1.0,
        doomed_attempts: 1,
    };
    if let Some(opts) = opts {
        for opt in opts.split(',') {
            let opt = opt.trim();
            if opt.is_empty() {
                continue;
            }
            if let Some(value) = opt.strip_prefix("p=") {
                let p: f64 = value
                    .parse()
                    .map_err(|_| plan_err(format!("bad probability {value:?}")))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(plan_err(format!("probability {p} outside [0, 1]")));
                }
                rule.probability = p;
            } else if let Some(value) = opt.strip_prefix("n=") {
                let n: u32 = value
                    .parse()
                    .map_err(|_| plan_err(format!("bad attempt count {value:?}")))?;
                if n == 0 {
                    return Err(plan_err("n=0 dooms nothing; omit the rule instead"));
                }
                rule.doomed_attempts = n;
            } else {
                return Err(plan_err(format!("unknown rule option {opt:?}")));
            }
        }
    }
    Ok(rule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        for site in [FaultSite::JobStart, FaultSite::JobFinish] {
            for job in 0..32 {
                assert_eq!(plan.decide(site, job, 0), None);
            }
        }
    }

    #[test]
    fn parse_full_chaos_spec() {
        let plan = FaultPlan::parse("seed=7;panic@start:p=0.4;error@finish:p=0.4,n=2").unwrap();
        assert_eq!(plan.seed, 7);
        let rules: Vec<_> = plan.rules.iter().flatten().collect();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].kind, FaultKind::Panic);
        assert_eq!(rules[0].site, FaultSite::JobStart);
        assert!((rules[0].probability - 0.4).abs() < 1e-12);
        assert_eq!(rules[0].doomed_attempts, 1);
        assert_eq!(rules[1].kind, FaultKind::Error);
        assert_eq!(rules[1].site, FaultSite::JobFinish);
        assert_eq!(rules[1].doomed_attempts, 2);
    }

    #[test]
    fn unknown_kind_or_site_errors_name_the_accepted_values() {
        let err = FaultPlan::parse("seed=7;blowup@repair:p=0.5")
            .unwrap_err()
            .to_string();
        assert!(err.contains("\"blowup\" (panic|error)"), "{err}");
        let err = FaultPlan::parse("panic@repair").unwrap_err().to_string();
        assert!(err.contains("\"repair\" (start|finish)"), "{err}");
    }

    #[test]
    fn parse_defaults_and_options() {
        let plan = FaultPlan::parse("error@start").unwrap();
        let rule = plan.rules[0].unwrap();
        assert!((rule.probability - 1.0).abs() < 1e-12);
        assert_eq!(rule.doomed_attempts, 1);

        let plan = FaultPlan::parse("error@start:n=3,p=0.25").unwrap();
        let rule = plan.rules[0].unwrap();
        assert!((rule.probability - 0.25).abs() < 1e-12);
        assert_eq!(rule.doomed_attempts, 3);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nonsense",
            "panic@elsewhere",
            "explode@start",
            "panic@start:p=2",
            "panic@start:p=x",
            "panic@start:n=0",
            "panic@start:q=1",
            "seed=abc",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn plan_rejects_rule_overflow() {
        let spec = ["error@start"; MAX_RULES + 1].join(";");
        assert!(FaultPlan::parse(&spec).is_err());
        let spec = ["error@start"; MAX_RULES].join(";");
        assert!(FaultPlan::parse(&spec).is_ok());
    }

    #[test]
    fn decisions_are_deterministic_and_attempt_scoped() {
        let plan = FaultPlan::parse("seed=7;error@start:p=0.5,n=2").unwrap();
        let first: Vec<_> = (0..64)
            .map(|job| plan.decide(FaultSite::JobStart, job, 0))
            .collect();
        // Stable across calls.
        let again: Vec<_> = (0..64)
            .map(|job| plan.decide(FaultSite::JobStart, job, 0))
            .collect();
        assert_eq!(first, again);
        // p=0.5 should fire for some but not all jobs.
        assert!(first.iter().any(Option::is_some));
        assert!(first.iter().any(Option::is_none));
        // Attempt 1 is still doomed (n=2), attempt 2 is clean.
        for (job, decision) in first.iter().enumerate() {
            assert_eq!(plan.decide(FaultSite::JobStart, job, 1), *decision);
            assert_eq!(plan.decide(FaultSite::JobStart, job, 2), None);
        }
        // No rule covers other sites.
        assert_eq!(plan.decide(FaultSite::JobFinish, 0, 0), None);
    }

    #[test]
    fn seed_changes_the_firing_set() {
        let a = FaultPlan::parse("seed=1;error@start:p=0.5").unwrap();
        let b = FaultPlan::parse("seed=2;error@start:p=0.5").unwrap();
        let fire = |plan: &FaultPlan| -> Vec<bool> {
            (0..256)
                .map(|job| plan.decide(FaultSite::JobStart, job, 0).is_some())
                .collect()
        };
        assert_ne!(fire(&a), fire(&b));
    }

    #[test]
    fn probability_one_always_fires_and_zero_never() {
        let always = FaultPlan::parse("panic@finish:p=1").unwrap();
        let never = FaultPlan::parse("panic@finish:p=0").unwrap();
        for job in 0..64 {
            assert_eq!(
                always.decide(FaultSite::JobFinish, job, 0),
                Some(FaultKind::Panic)
            );
            assert_eq!(never.decide(FaultSite::JobFinish, job, 0), None);
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::parse("panic@start:p=1;error@start:p=1").unwrap();
        assert_eq!(
            plan.decide(FaultSite::JobStart, 0, 0),
            Some(FaultKind::Panic)
        );
    }
}
