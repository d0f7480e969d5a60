//! The paper's evaluation scenarios and experiment configuration.

use std::fmt;
use std::str::FromStr;
use wmn_graph::topology::ConnectivityMode;
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::Area;
use wmn_model::instance::{InstanceSpec, ProblemInstance};
use wmn_model::ModelError;
use wmn_runtime::{FaultPlan, JobPolicy, Runtime};

/// Client distribution scenario, one per paper table/figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Table 1 / Figure 1: Normal clients `N(64, 12.8)`.
    Normal,
    /// Table 2 / Figure 2: Exponential clients.
    Exponential,
    /// Table 3 / Figure 3: Weibull clients.
    Weibull,
}

impl Scenario {
    /// The scenario's instance family (64 routers, 192 clients, 128×128).
    ///
    /// # Errors
    ///
    /// Never fails for the fixed paper parameters; the signature propagates
    /// spec validation.
    pub fn spec(&self) -> Result<InstanceSpec, ModelError> {
        match self {
            Scenario::Normal => InstanceSpec::paper_normal(),
            Scenario::Exponential => InstanceSpec::paper_exponential(),
            Scenario::Weibull => InstanceSpec::paper_weibull(),
        }
    }

    /// Generates the scenario instance for a seed.
    ///
    /// # Errors
    ///
    /// See [`Scenario::spec`].
    pub fn instance(&self, seed: u64) -> Result<ProblemInstance, ModelError> {
        self.spec()?.generate(seed)
    }

    /// The spec scaled by `scale`: router/client counts multiplied, the
    /// area side stretched, and the distribution's area-derived parameters
    /// (e.g. the Normal's `μ = W/2, σ = W/10`) re-derived for the scaled
    /// area so the client *shape* is preserved at every scale.
    ///
    /// The identity scale returns exactly [`Scenario::spec`], so scaled and
    /// unscaled paths cannot drift apart.
    ///
    /// # Errors
    ///
    /// Propagates spec validation — e.g. a zero router multiplier or a
    /// non-finite area multiplier.
    pub fn scaled_spec(&self, scale: ScenarioScale) -> Result<InstanceSpec, ModelError> {
        let base = self.spec()?;
        if scale.is_identity() {
            return Ok(base);
        }
        let area = Area::new(
            base.area().width() * scale.area,
            base.area().height() * scale.area,
        )?;
        let distribution = match self {
            Scenario::Normal => ClientDistribution::paper_normal(&area)?,
            Scenario::Exponential => ClientDistribution::paper_exponential(&area)?,
            Scenario::Weibull => ClientDistribution::paper_weibull(&area)?,
        };
        InstanceSpec::new(
            area,
            base.router_count().saturating_mul(scale.routers as usize),
            base.client_count().saturating_mul(scale.clients as usize),
            distribution,
            base.radio(),
        )
    }

    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Normal => "normal",
            Scenario::Exponential => "exponential",
            Scenario::Weibull => "weibull",
        }
    }

    /// Stable integer coordinate for experiment-grid seeding
    /// ([`wmn_runtime::grid::Cell`]); changing these renumbers every
    /// derived RNG stream, so they are pinned.
    pub fn grid_id(&self) -> u64 {
        match self {
            Scenario::Normal => 0,
            Scenario::Exponential => 1,
            Scenario::Weibull => 2,
        }
    }

    /// The paper table (and figure) this scenario reproduces.
    pub fn table_number(&self) -> usize {
        match self {
            Scenario::Normal => 1,
            Scenario::Exponential => 2,
            Scenario::Weibull => 3,
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Scenario {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "normal" => Ok(Scenario::Normal),
            "exponential" | "exp" => Ok(Scenario::Exponential),
            "weibull" => Ok(Scenario::Weibull),
            other => Err(format!("unknown scenario {other:?}")),
        }
    }
}

/// Instance-size multipliers over the paper's fixed 64-router /
/// 192-client / 128×128 family.
///
/// `routers` and `clients` multiply the counts; `area` stretches the
/// square's **side length** (so `area: 2.0` quadruples the surface). The
/// radio profile is deliberately left at the paper's `[2, 8]`: larger
/// areas with unchanged radios are genuinely harder connectivity
/// instances.
///
/// A scale multiplies routers, clients and area, but not the search
/// effort (population, generations, phases, neighbors per phase). So a
/// beyond-paper scale measures throughput, not placement quality: at
/// [`ExperimentConfig::quick_scale`]`(16)` the GA's best giant component
/// is 4.6% of the 1024 routers (`e2ebench` workload `ga-s16`, seed 1:
/// `quality.giant_frac` 0.0458), and Figure 4 at `--scale 256` ends with
/// giant components of 7 (swap) and 8 (random) of its 16,384 routers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioScale {
    /// Router-count multiplier (≥ 1 for a usable instance).
    pub routers: u32,
    /// Client-count multiplier (≥ 1 for a usable instance).
    pub clients: u32,
    /// Area side-length multiplier (> 0, finite).
    pub area: f64,
}

impl ScenarioScale {
    /// The paper's own scale: all multipliers 1.
    pub fn identity() -> Self {
        ScenarioScale {
            routers: 1,
            clients: 1,
            area: 1.0,
        }
    }

    /// A proportional scale-up: `n`× routers and clients on `√n`× the side
    /// length, which keeps router density (routers per unit area) constant.
    pub fn proportional(n: u32) -> Self {
        ScenarioScale {
            routers: n,
            clients: n,
            area: f64::from(n).sqrt(),
        }
    }

    /// Whether this is exactly the identity scale.
    pub fn is_identity(&self) -> bool {
        self.routers == 1 && self.clients == 1 && self.area == 1.0
    }
}

impl Default for ScenarioScale {
    /// The identity scale.
    fn default() -> Self {
        ScenarioScale::identity()
    }
}

/// Scale and seeding of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Seed for instance generation (client positions, router radii).
    pub instance_seed: u64,
    /// Seed for algorithm randomness.
    pub run_seed: u64,
    /// GA population size.
    pub population: usize,
    /// GA generations (the paper's figures run ~800).
    pub generations: usize,
    /// GA evaluation threads (inner parallelism of a single GA run).
    pub threads: usize,
    /// Experiment-runtime worker threads (outer parallelism across grid
    /// cells); `0` = one worker per available core. Results are identical
    /// for every value — see `wmn-runtime`'s determinism guarantee.
    pub runner_threads: usize,
    /// Instance-size multipliers (identity = the paper's instances).
    pub scale: ScenarioScale,
    /// Neighborhood search phases (Figure 4 runs 61).
    pub ns_phases: usize,
    /// Neighbors examined per search phase.
    pub ns_budget: usize,
    /// Figure sampling stride in generations (the paper samples every ~5).
    pub sample_every: usize,
    /// Connectivity repair strategy for every topology-backed run
    /// ([`ConnectivityMode::Dynamic`] is the production engine; the
    /// full-rebuild oracle exists so the counter-regression gate can
    /// compare work profiles). Results are bit-identical in both modes —
    /// only the work counters differ.
    pub connectivity: ConnectivityMode,
    /// Per-cell attempt budget for the panic-isolated runner (`--retries`):
    /// each grid cell may run up to this many times before its failure is
    /// reported. Retried cells re-derive the same coordinate seed, so a
    /// retried-then-succeeded run is byte-identical to a fault-free one.
    /// `0` clamps to 1 (no retries).
    pub retries: u32,
    /// Deterministic fault-injection plan (`--fault-plan`); `None` = no
    /// injection, the production default. Injected faults doom individual
    /// attempts only — within the retry budget, outputs stay byte-identical
    /// to a fault-free run.
    pub fault_plan: Option<FaultPlan>,
}

impl ExperimentConfig {
    /// Full paper scale: population 64, 800 generations, 61 phases.
    pub fn paper() -> Self {
        ExperimentConfig {
            instance_seed: 2009, // the paper's publication year, for flavor
            run_seed: 42,
            population: 64,
            generations: 800,
            threads: 4,
            ns_phases: 61,
            // Sixteen sampled neighbors per phase. Algorithm 2 leaves the
            // neighborhood budget open ("all or a pre-fixed number"); 16
            // reproduces Figure 4's separation under the mutual-range link
            // model (swap ≈ 46/64 vs random ≈ 14/64 at phase 61 — the
            // paper reports ≈ 55 vs ≈ 20).
            ns_budget: 16,
            sample_every: 5,
            runner_threads: 0,
            scale: ScenarioScale::identity(),
            connectivity: ConnectivityMode::Dynamic,
            retries: 1,
            fault_plan: None,
        }
    }

    /// Reduced scale for CI and tests (~50x faster, same code paths).
    pub fn quick() -> Self {
        ExperimentConfig::paper().quickened()
    }

    /// This config with [`quick`](ExperimentConfig::quick)'s reduced search
    /// effort, keeping seeds, thread counts, and instance scale.
    pub fn quickened(self) -> Self {
        ExperimentConfig {
            population: 16,
            generations: 40,
            ns_phases: 20,
            ns_budget: 8,
            sample_every: 2,
            ..self
        }
    }

    /// The large-instance preset for library callers: exactly the
    /// configuration the `--quick --scale n` CLI flags produce (pinned by
    /// a test, so the two surfaces cannot drift). It places `n`× the
    /// routers and clients on `√n`× the side, at
    /// [`quick`](ExperimentConfig::quick)'s search effort. `--scale` does
    /// not multiply that effort, so these runs measure throughput, not
    /// placement quality (see [`ScenarioScale`]).
    ///
    /// CI runs three of them through the CLI flags:
    /// - `quick_scale(8)`, 512 routers / 1536 clients on a ~362×362 area:
    ///   fig3 and fig4, checking that both write their JSONL series;
    /// - `quick_scale(16)`, 1024 routers / 3072 clients on a ~512×512
    ///   area: fig3 with `--telemetry`, the smoke test of the telemetry
    ///   schema and of `wmn-report`;
    /// - `quick_scale(64)`, 4096 routers / 12288 clients: fig3, the
    ///   large-arena smoke.
    pub fn quick_scale(n: u32) -> Self {
        let mut config = ExperimentConfig::quick();
        config.scale = ScenarioScale::proportional(n.max(1));
        config
    }

    /// Generates `scenario`'s instance at this config's seed and scale.
    ///
    /// # Errors
    ///
    /// Propagates spec validation (see [`Scenario::scaled_spec`]).
    pub fn instance(&self, scenario: Scenario) -> Result<ProblemInstance, ModelError> {
        scenario
            .scaled_spec(self.scale)?
            .generate(self.instance_seed)
    }

    /// The experiment runtime resolved from
    /// [`runner_threads`](ExperimentConfig::runner_threads).
    pub fn runtime(&self) -> Runtime {
        Runtime::new(self.runner_threads)
    }

    /// The runtime's job policy: the attempt budget resolved from
    /// [`retries`](ExperimentConfig::retries) (`0` clamps to a single
    /// attempt) and the [`fault_plan`](ExperimentConfig::fault_plan).
    pub fn job_policy(&self) -> JobPolicy {
        JobPolicy {
            max_attempts: self.retries.max(1),
            fault_plan: self.fault_plan,
        }
    }

    /// The connectivity repair strategy of GA runs: exactly
    /// [`connectivity`](ExperimentConfig::connectivity).
    pub fn ga_eval_mode(&self) -> ConnectivityMode {
        self.connectivity
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_produce_paper_instances() {
        for s in [Scenario::Normal, Scenario::Exponential, Scenario::Weibull] {
            let inst = s.instance(1).unwrap();
            assert_eq!(inst.router_count(), 64);
            assert_eq!(inst.client_count(), 192);
        }
    }

    #[test]
    fn table_numbers() {
        assert_eq!(Scenario::Normal.table_number(), 1);
        assert_eq!(Scenario::Exponential.table_number(), 2);
        assert_eq!(Scenario::Weibull.table_number(), 3);
    }

    #[test]
    fn parse_roundtrip() {
        for s in [Scenario::Normal, Scenario::Exponential, Scenario::Weibull] {
            assert_eq!(s.name().parse::<Scenario>().unwrap(), s);
        }
        assert!("uniform".parse::<Scenario>().is_err());
        assert_eq!("exp".parse::<Scenario>().unwrap(), Scenario::Exponential);
        assert!("bogus".parse::<Scenario>().is_err());
    }

    #[test]
    fn configs_are_sane() {
        let p = ExperimentConfig::paper();
        assert_eq!(p.generations, 800);
        assert_eq!(p.ns_phases, 61);
        assert_eq!(p.runner_threads, 0);
        assert!(p.scale.is_identity());
        let q = ExperimentConfig::quick();
        assert!(q.generations < p.generations);
        assert_eq!(q.instance_seed, p.instance_seed);
    }

    #[test]
    fn quickened_preserves_orthogonal_knobs() {
        let mut config = ExperimentConfig::paper();
        config.run_seed = 7;
        config.runner_threads = 3;
        config.scale = ScenarioScale::proportional(2);
        config.retries = 3;
        config.fault_plan = Some(FaultPlan::parse("seed=7;panic@start:p=0.5").unwrap());
        let q = config.quickened();
        assert_eq!(q.generations, ExperimentConfig::quick().generations);
        assert_eq!(q.run_seed, 7);
        assert_eq!(q.runner_threads, 3);
        assert_eq!(q.scale, ScenarioScale::proportional(2));
        assert_eq!(q.retries, 3);
        assert_eq!(q.fault_plan, config.fault_plan);
    }

    #[test]
    fn retry_policy_clamps_zero_to_one_attempt() {
        let mut config = ExperimentConfig::quick();
        assert_eq!(config.job_policy(), JobPolicy::default());
        config.retries = 0;
        assert_eq!(config.job_policy().max_attempts, 1);
        config.retries = 4;
        assert_eq!(config.job_policy().max_attempts, 4);
        let plan = FaultPlan::parse("seed=7;panic@start:p=0.5").unwrap();
        config.fault_plan = Some(plan);
        assert_eq!(config.job_policy().fault_plan, Some(plan));
    }

    #[test]
    fn quick_scale_preset_matches_cli_flags() {
        let preset = ExperimentConfig::quick_scale(8);
        // The preset IS `--quick --scale 8`: pin it to the CLI parse so
        // the two surfaces cannot drift.
        let cli = crate::cli::parse(["--quick", "--scale", "8"].map(String::from))
            .unwrap()
            .config;
        assert_eq!(preset, cli);
        let spec = Scenario::Normal.scaled_spec(preset.scale).unwrap();
        assert_eq!(spec.router_count(), 512);
        assert_eq!(spec.client_count(), 1536);
        // Zero clamps to the identity scale rather than a degenerate spec.
        assert!(ExperimentConfig::quick_scale(0).scale.is_identity());
    }

    #[test]
    fn quick_scale_16_is_the_rural_deployment_preset() {
        // 1024 routers / 3072 clients: the `--scale 16` shape CI runs fig3
        // at to prove the dynamic-connectivity repair path at scale.
        let preset = ExperimentConfig::quick_scale(16);
        let cli = crate::cli::parse(["--quick", "--scale", "16"].map(String::from))
            .unwrap()
            .config;
        assert_eq!(preset, cli);
        let spec = Scenario::Normal.scaled_spec(preset.scale).unwrap();
        assert_eq!(spec.router_count(), 1024);
        assert_eq!(spec.client_count(), 3072);
    }

    #[test]
    fn identity_scale_is_exactly_the_paper_spec() {
        for s in [Scenario::Normal, Scenario::Exponential, Scenario::Weibull] {
            assert_eq!(
                s.scaled_spec(ScenarioScale::identity()).unwrap(),
                s.spec().unwrap()
            );
        }
        let config = ExperimentConfig::quick();
        assert_eq!(
            config.instance(Scenario::Normal).unwrap(),
            Scenario::Normal.instance(config.instance_seed).unwrap()
        );
    }

    #[test]
    fn proportional_scale_multiplies_counts_and_area() {
        let scale = ScenarioScale::proportional(4);
        let spec = Scenario::Normal.scaled_spec(scale).unwrap();
        assert_eq!(spec.router_count(), 256);
        assert_eq!(spec.client_count(), 768);
        assert!((spec.area().width() - 256.0).abs() < 1e-9);
        let inst = spec.generate(1).unwrap();
        assert_eq!(inst.router_count(), 256);
        assert_eq!(inst.client_count(), 768);
    }

    #[test]
    fn scaled_distribution_follows_the_area() {
        // The Normal's mean tracks the scaled area's center, keeping the
        // client shape (a central cluster) at every scale.
        let spec = Scenario::Normal
            .scaled_spec(ScenarioScale {
                routers: 1,
                clients: 1,
                area: 2.0,
            })
            .unwrap();
        match spec.distribution() {
            ClientDistribution::Normal { mu_x, mu_y, sigma } => {
                assert!((mu_x - 128.0).abs() < 1e-9);
                assert!((mu_y - 128.0).abs() < 1e-9);
                assert!((sigma - 25.6).abs() < 1e-9);
            }
            other => panic!("unexpected distribution {other:?}"),
        }
    }

    #[test]
    fn invalid_scale_is_rejected() {
        let zero_routers = ScenarioScale {
            routers: 0,
            clients: 1,
            area: 1.0,
        };
        assert!(Scenario::Normal.scaled_spec(zero_routers).is_err());
        let bad_area = ScenarioScale {
            routers: 1,
            clients: 1,
            area: f64::NAN,
        };
        assert!(Scenario::Normal.scaled_spec(bad_area).is_err());
    }

    #[test]
    fn an_instance_beyond_the_u32_ids_is_refused_before_allocation() {
        // 64 x (2^32 - 1) routers: refused from the counts alone.
        let config = ExperimentConfig {
            scale: ScenarioScale::proportional(u32::MAX),
            ..ExperimentConfig::quick()
        };
        let Err(ModelError::InvalidSpec { reason }) = config.instance(Scenario::Normal) else {
            panic!("an instance beyond the u32 ids must be refused");
        };
        assert!(
            reason.starts_with("instance exceeds the u32 id space: 274877906880 routers"),
            "{reason}"
        );
    }

    #[test]
    fn grid_ids_are_stable_and_distinct() {
        assert_eq!(Scenario::Normal.grid_id(), 0);
        assert_eq!(Scenario::Exponential.grid_id(), 1);
        assert_eq!(Scenario::Weibull.grid_id(), 2);
    }

    #[test]
    fn connectivity_maps_to_the_ga_eval_pipeline() {
        let mut config = ExperimentConfig::quick();
        assert_eq!(config.connectivity, ConnectivityMode::Dynamic);
        assert_eq!(config.ga_eval_mode(), ConnectivityMode::Dynamic);
        config.connectivity = ConnectivityMode::FullRebuild;
        assert_eq!(config.ga_eval_mode(), ConnectivityMode::FullRebuild);
        // `quickened` preserves the oracle choice like every other
        // orthogonal knob.
        assert_eq!(
            config.quickened().connectivity,
            ConnectivityMode::FullRebuild
        );
    }

    #[test]
    fn runtime_resolves_threads() {
        let mut config = ExperimentConfig::quick();
        config.runner_threads = 2;
        assert_eq!(config.runtime().threads(), 2);
        config.runner_threads = 0;
        assert!(config.runtime().threads() >= 1);
    }
}
