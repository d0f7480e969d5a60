//! Problem instances and their generation.
//!
//! A [`ProblemInstance`] bundles everything §2 of the paper calls an
//! instance: the deployment [`Area`], the vector of `N` routers (each with
//! its own radio coverage), and the matrix of `M` fixed clients. Instances
//! are generated from an [`InstanceSpec`] (dimensions + counts + client
//! distribution + radio profile) with a seed, or assembled directly through
//! [`InstanceBuilder`] for hand-crafted tests.

use crate::distribution::ClientDistribution;
use crate::geometry::{Area, Point};
use crate::node::{Client, ClientId, Router, RouterId};
use crate::placement::Placement;
use crate::radio::RadioProfile;
use crate::rng::{rng_from_seed, splitmix64};
use crate::spatial::{self, GridIndex};
use crate::ModelError;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A complete instance of the mesh router placement problem.
///
/// Routers do not carry positions; candidate positions are a separate
/// [`Placement`] so that one instance can be shared by many solutions.
/// Clients never move, so the instance also holds their spatial index,
/// built once ([`ProblemInstance::client_index`]); equality and `Debug`
/// ignore it.
///
/// # Examples
///
/// ```
/// use wmn_model::instance::InstanceSpec;
///
/// // The paper's evaluation instance: 64 routers, 192 clients, 128x128.
/// let spec = InstanceSpec::paper_normal()?;
/// let instance = spec.generate(42)?;
/// assert_eq!(instance.router_count(), 64);
/// assert_eq!(instance.client_count(), 192);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct ProblemInstance {
    area: Area,
    routers: Vec<Router>,
    clients: Vec<Client>,
    /// Filled by [`client_index`](ProblemInstance::client_index). A clone
    /// shares the built index.
    #[serde(skip)]
    client_index: OnceLock<Arc<GridIndex>>,
}

impl PartialEq for ProblemInstance {
    fn eq(&self, other: &Self) -> bool {
        self.area == other.area && self.routers == other.routers && self.clients == other.clients
    }
}

impl fmt::Debug for ProblemInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProblemInstance")
            .field("area", &self.area)
            .field("routers", &self.routers)
            .field("clients", &self.clients)
            .finish()
    }
}

impl ProblemInstance {
    /// Assembles an instance from parts.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] if there are no routers, no
    /// clients, more routers or clients than u32 ids can number, router
    /// and client vectors beyond the
    /// [`MEMORY_LIMIT_BYTES`](crate::MEMORY_LIMIT_BYTES), or a client lies
    /// outside the area.
    pub fn new(area: Area, routers: Vec<Router>, clients: Vec<Client>) -> Result<Self, ModelError> {
        if routers.is_empty() {
            return Err(ModelError::InvalidSpec {
                reason: "an instance needs at least one router".to_owned(),
            });
        }
        if clients.is_empty() {
            return Err(ModelError::InvalidSpec {
                reason: "an instance needs at least one client".to_owned(),
            });
        }
        check_counts(routers.len(), clients.len())?;
        if let Some(c) = clients.iter().find(|c| !area.contains(c.position())) {
            return Err(ModelError::InvalidSpec {
                reason: format!("client {} lies outside the area", c.id()),
            });
        }
        Ok(ProblemInstance {
            area,
            routers,
            clients,
            client_index: OnceLock::new(),
        })
    }

    /// The deployment area.
    #[inline]
    pub fn area(&self) -> Area {
        self.area
    }

    /// The router vector.
    #[inline]
    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// The client vector.
    #[inline]
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// Number of routers (`N`).
    #[inline]
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Number of clients (`M`).
    #[inline]
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// The router with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.index()]
    }

    /// The client with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn client(&self, id: ClientId) -> &Client {
        &self.clients[id.index()]
    }

    /// The clients' spatial index: a [`GridIndex`] whose cells are as wide
    /// as the largest router radius, at least 1. An instance never changes
    /// once built, so it has one index: the first call builds it, and every
    /// later call, every clone made after it and every topology of this
    /// instance share that one `Arc`.
    ///
    /// # Errors
    ///
    /// Refuses with [`ModelError::InvalidSpec`] an instance whose client
    /// grid would have more cells than u32 ids can number, or would need
    /// more than the [`MEMORY_LIMIT_BYTES`](crate::MEMORY_LIMIT_BYTES)
    /// ([`spatial::check_cell_space`]).
    pub fn client_index(&self) -> Result<&Arc<GridIndex>, ModelError> {
        if let Some(index) = self.client_index.get() {
            return Ok(index);
        }
        let cell_size = self
            .routers
            .iter()
            .map(Router::current_radius)
            .fold(1.0_f64, f64::max);
        spatial::check_cell_space(&self.area, cell_size, "client", GridIndex::BYTES_PER_CELL)?;
        Ok(self.client_index.get_or_init(|| {
            let points = self.clients.iter().map(Client::position).collect();
            Arc::new(GridIndex::build(&self.area, points, cell_size))
        }))
    }

    /// Router ids sorted by decreasing power (current radius); the order in
    /// which HotSpot assigns routers to dense zones.
    pub fn routers_by_power_desc(&self) -> Vec<RouterId> {
        let mut ids: Vec<RouterId> = self.routers.iter().map(|r| r.id()).collect();
        ids.sort_by(|a, b| {
            let pa = self.routers[a.index()].power();
            let pb = self.routers[b.index()].power();
            pb.partial_cmp(&pa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.index().cmp(&b.index()))
        });
        ids
    }

    /// Validates a placement against this instance (length and bounds).
    ///
    /// # Errors
    ///
    /// See [`Placement::validate`].
    pub fn validate_placement(&self, placement: &Placement) -> Result<(), ModelError> {
        placement.validate(&self.area, self.routers.len())
    }

    /// Draws a uniform random in-area placement; the paper's Random method
    /// is a thin wrapper over this.
    pub fn random_placement<R: Rng + ?Sized>(&self, rng: &mut R) -> Placement {
        (0..self.routers.len())
            .map(|_| {
                Point::new(
                    rng.gen_range(0.0..=self.area.width()),
                    rng.gen_range(0.0..=self.area.height()),
                )
            })
            .collect()
    }
}

impl fmt::Display for ProblemInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instance[{} area, {} routers, {} clients]",
            self.area,
            self.routers.len(),
            self.clients.len()
        )
    }
}

/// Checks an instance's counts before anything is allocated for it. The
/// id-width invariant: router and client ids are u32 throughout a
/// topology's arena-backed storage, so an instance holds fewer than
/// `u32::MAX` of each. The memory limit: its router and client vectors
/// fit the [`MEMORY_LIMIT_BYTES`](crate::MEMORY_LIMIT_BYTES).
fn check_counts(routers: usize, clients: usize) -> Result<(), ModelError> {
    if routers >= u32::MAX as usize || clients >= u32::MAX as usize {
        return Err(ModelError::InvalidSpec {
            reason: format!(
                "instance exceeds the u32 id space: {routers} routers / {clients} clients \
                 (at most {} of each supported)",
                u32::MAX - 1
            ),
        });
    }
    let bytes = routers as u128 * std::mem::size_of::<Router>() as u128
        + clients as u128 * std::mem::size_of::<Client>() as u128;
    crate::check_memory(bytes, || {
        format!("an instance of {routers} routers / {clients} clients")
    })
}

/// Declarative description of an instance family; `generate(seed)` turns it
/// into a concrete [`ProblemInstance`].
///
/// # Examples
///
/// ```
/// use wmn_model::distribution::ClientDistribution;
/// use wmn_model::geometry::Area;
/// use wmn_model::instance::InstanceSpec;
/// use wmn_model::radio::RadioProfile;
///
/// let area = Area::new(64.0, 64.0)?;
/// let spec = InstanceSpec::new(
///     area,
///     16,
///     48,
///     ClientDistribution::Uniform,
///     RadioProfile::new(2.0, 8.0)?,
/// )?;
/// let a = spec.generate(7)?;
/// let b = spec.generate(7)?;
/// assert_eq!(a, b); // same seed, same instance
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceSpec {
    area: Area,
    router_count: usize,
    client_count: usize,
    distribution: ClientDistribution,
    radio: RadioProfile,
}

impl InstanceSpec {
    /// Creates a validated spec.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] when `router_count` or
    /// `client_count` is zero or more than u32 ids can number, or when the
    /// instance's router and client vectors would need more than the
    /// [`MEMORY_LIMIT_BYTES`](crate::MEMORY_LIMIT_BYTES); the refusal comes
    /// from the counts, before anything is allocated for the instance.
    pub fn new(
        area: Area,
        router_count: usize,
        client_count: usize,
        distribution: ClientDistribution,
        radio: RadioProfile,
    ) -> Result<Self, ModelError> {
        if router_count == 0 {
            return Err(ModelError::InvalidSpec {
                reason: "router_count must be positive".to_owned(),
            });
        }
        if client_count == 0 {
            return Err(ModelError::InvalidSpec {
                reason: "client_count must be positive".to_owned(),
            });
        }
        check_counts(router_count, client_count)?;
        Ok(InstanceSpec {
            area,
            router_count,
            client_count,
            distribution,
            radio,
        })
    }

    /// The paper's evaluation setting shared by all three tables:
    /// `128 × 128` area, 64 routers with radii in `[2, 8]`, 192 clients.
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature propagates constructor
    /// validation.
    fn paper_base(distribution: ClientDistribution) -> Result<Self, ModelError> {
        let area = Area::square(128.0)?;
        InstanceSpec::new(area, 64, 192, distribution, RadioProfile::paper_default())
    }

    /// Table 1 / Figure 1 spec: Normal clients `N(64, 12.8)`.
    ///
    /// # Errors
    ///
    /// Propagates validation failures (unreachable for the fixed paper
    /// parameters).
    pub fn paper_normal() -> Result<Self, ModelError> {
        let area = Area::square(128.0)?;
        Self::paper_base(ClientDistribution::paper_normal(&area)?)
    }

    /// Table 2 / Figure 2 spec: Exponential clients.
    ///
    /// # Errors
    ///
    /// Propagates validation failures (unreachable for the fixed paper
    /// parameters).
    pub fn paper_exponential() -> Result<Self, ModelError> {
        let area = Area::square(128.0)?;
        Self::paper_base(ClientDistribution::paper_exponential(&area)?)
    }

    /// Table 3 / Figure 3 spec: Weibull clients.
    ///
    /// # Errors
    ///
    /// Propagates validation failures (unreachable for the fixed paper
    /// parameters).
    pub fn paper_weibull() -> Result<Self, ModelError> {
        let area = Area::square(128.0)?;
        Self::paper_base(ClientDistribution::paper_weibull(&area)?)
    }

    /// Uniform-clients variant of the paper setting (§2 lists Uniform among
    /// the evaluated distributions).
    ///
    /// # Errors
    ///
    /// Propagates validation failures (unreachable for the fixed paper
    /// parameters).
    pub fn paper_uniform() -> Result<Self, ModelError> {
        Self::paper_base(ClientDistribution::Uniform)
    }

    /// The deployment area.
    pub fn area(&self) -> Area {
        self.area
    }

    /// Number of routers to generate.
    pub fn router_count(&self) -> usize {
        self.router_count
    }

    /// Number of clients to generate.
    pub fn client_count(&self) -> usize {
        self.client_count
    }

    /// The client distribution.
    pub fn distribution(&self) -> &ClientDistribution {
        &self.distribution
    }

    /// The router radio profile.
    pub fn radio(&self) -> RadioProfile {
        self.radio
    }

    /// Generates a concrete instance; the same seed always yields the same
    /// instance.
    ///
    /// # Errors
    ///
    /// Propagates [`ProblemInstance::new`] validation (unreachable for a
    /// valid spec).
    pub fn generate(&self, seed: u64) -> Result<ProblemInstance, ModelError> {
        let (radius_seed, client_seed) = instance_seeds(seed);
        let mut radius_rng = rng_from_seed(radius_seed);
        let mut client_rng = rng_from_seed(client_seed);

        let routers: Vec<Router> = (0..self.router_count)
            .map(|i| Router::with_sampled_radius(RouterId(i), self.radio, &mut radius_rng))
            .collect();
        let clients: Vec<Client> = self
            .distribution
            .sample_points(&self.area, self.client_count, &mut client_rng)
            .into_iter()
            .enumerate()
            .map(|(i, p)| Client::new(ClientId(i), p))
            .collect();
        ProblemInstance::new(self.area, routers, clients)
    }
}

impl fmt::Display for InstanceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spec[{} area, {} routers {}, {} clients ~ {}]",
            self.area, self.router_count, self.radio, self.client_count, self.distribution
        )
    }
}

/// Incremental construction of hand-crafted instances (tests, examples).
///
/// # Examples
///
/// ```
/// use wmn_model::geometry::{Area, Point};
/// use wmn_model::instance::InstanceBuilder;
/// use wmn_model::radio::RadioProfile;
///
/// let instance = InstanceBuilder::new(Area::square(50.0)?)
///     .router(RadioProfile::fixed(5.0)?, 5.0)
///     .router(RadioProfile::fixed(5.0)?, 5.0)
///     .client(Point::new(10.0, 10.0))
///     .client(Point::new(40.0, 40.0))
///     .build()?;
/// assert_eq!(instance.router_count(), 2);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    area: Area,
    routers: Vec<Router>,
    clients: Vec<Client>,
}

impl InstanceBuilder {
    /// Starts a builder over the given area.
    pub fn new(area: Area) -> Self {
        InstanceBuilder {
            area,
            routers: Vec::new(),
            clients: Vec::new(),
        }
    }

    /// Adds a router with an explicit current radius.
    pub fn router(mut self, profile: RadioProfile, current_radius: f64) -> Self {
        let id = RouterId(self.routers.len());
        self.routers.push(Router::new(id, profile, current_radius));
        self
    }

    /// Adds `n` identical routers with the profile's nominal radius.
    pub fn routers(mut self, profile: RadioProfile, n: usize) -> Self {
        for _ in 0..n {
            let id = RouterId(self.routers.len());
            self.routers
                .push(Router::new(id, profile, profile.nominal_radius()));
        }
        self
    }

    /// Adds a client at `position`.
    pub fn client(mut self, position: Point) -> Self {
        let id = ClientId(self.clients.len());
        self.clients.push(Client::new(id, position));
        self
    }

    /// Adds clients at each of `positions`.
    pub fn clients<I: IntoIterator<Item = Point>>(mut self, positions: I) -> Self {
        for p in positions {
            let id = ClientId(self.clients.len());
            self.clients.push(Client::new(id, p));
        }
        self
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Propagates [`ProblemInstance::new`] validation: at least one router
    /// and one client, clients inside the area.
    pub fn build(self) -> Result<ProblemInstance, ModelError> {
        ProblemInstance::new(self.area, self.routers, self.clients)
    }
}

/// The seeds of an instance's radius and client streams, derived from the
/// instance seed by name: the FNV-1a hash of `"radii"` or `"clients"`,
/// XORed into the seed, then two SplitMix64 steps.
fn instance_seeds(seed: u64) -> (u64, u64) {
    let named = |name: &str| {
        let hash = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        let mut state = seed ^ hash;
        let mut state = splitmix64(&mut state);
        splitmix64(&mut state)
    };
    (named("radii"), named("clients"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_seeds_golden_values() {
        // Pinned outputs: any change here changes every generated instance.
        assert_eq!(
            instance_seeds(2009),
            (0x7636_4576_1b7f_5ffc, 0xfea3_e6da_07bf_23f4)
        );
    }

    #[test]
    fn paper_specs_have_table_parameters() {
        for spec in [
            InstanceSpec::paper_normal().unwrap(),
            InstanceSpec::paper_exponential().unwrap(),
            InstanceSpec::paper_weibull().unwrap(),
            InstanceSpec::paper_uniform().unwrap(),
        ] {
            assert_eq!(spec.router_count(), 64);
            assert_eq!(spec.client_count(), 192);
            assert_eq!(spec.area().width(), 128.0);
            assert_eq!(spec.area().height(), 128.0);
            assert_eq!(spec.radio(), RadioProfile::paper_default());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = InstanceSpec::paper_normal().unwrap();
        assert_eq!(spec.generate(7).unwrap(), spec.generate(7).unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let spec = InstanceSpec::paper_normal().unwrap();
        assert_ne!(spec.generate(7).unwrap(), spec.generate(8).unwrap());
    }

    #[test]
    fn generated_instance_is_well_formed() {
        let spec = InstanceSpec::paper_weibull().unwrap();
        let inst = spec.generate(3).unwrap();
        assert_eq!(inst.router_count(), 64);
        assert_eq!(inst.client_count(), 192);
        for (i, r) in inst.routers().iter().enumerate() {
            assert_eq!(r.id().index(), i);
            assert!(r.profile().contains(r.current_radius()));
        }
        for (i, c) in inst.clients().iter().enumerate() {
            assert_eq!(c.id().index(), i);
            assert!(inst.area().contains(c.position()));
        }
    }

    #[test]
    fn spec_rejects_zero_counts() {
        let area = Area::square(10.0).unwrap();
        let radio = RadioProfile::paper_default();
        assert!(InstanceSpec::new(area, 0, 5, ClientDistribution::Uniform, radio).is_err());
        assert!(InstanceSpec::new(area, 5, 0, ClientDistribution::Uniform, radio).is_err());
    }

    #[test]
    fn spec_refuses_counts_beyond_the_u32_ids() {
        // Refused from the counts alone: nothing of that size is allocated.
        let area = Area::square(10.0).unwrap();
        let radio = RadioProfile::paper_default();
        let max = u32::MAX as usize;
        for (routers, clients) in [(max, 5), (5, max)] {
            let Err(ModelError::InvalidSpec { reason }) =
                InstanceSpec::new(area, routers, clients, ClientDistribution::Uniform, radio)
            else {
                panic!("{routers} routers / {clients} clients must be refused");
            };
            assert!(
                reason.starts_with(&format!(
                    "instance exceeds the u32 id space: {routers} routers / {clients} clients"
                )),
                "{reason}"
            );
        }
        // Within the ids, the router and client vectors must fit the memory
        // limit: 32 bytes per router and 24 per client.
        assert_eq!(
            (std::mem::size_of::<Router>(), std::mem::size_of::<Client>()),
            (32, 24)
        );
        let Err(ModelError::InvalidSpec { reason }) =
            InstanceSpec::new(area, max - 1, 5, ClientDistribution::Uniform, radio)
        else {
            panic!("{} routers must be refused", max - 1);
        };
        assert!(
            reason.starts_with(
                "an instance of 4294967294 routers / 5 clients would need an estimated \
                 137438953528 bytes, above the 2147483648-byte memory limit"
            ),
            "{reason}"
        );
        let fits = ((crate::MEMORY_LIMIT_BYTES - 5 * 24) / 32) as usize;
        assert!(InstanceSpec::new(area, fits, 5, ClientDistribution::Uniform, radio).is_ok());
        assert!(InstanceSpec::new(area, fits + 1, 5, ClientDistribution::Uniform, radio).is_err());
    }

    #[test]
    fn instance_rejects_empty_parts() {
        let area = Area::square(10.0).unwrap();
        assert!(ProblemInstance::new(area, vec![], vec![]).is_err());
    }

    #[test]
    fn instance_rejects_out_of_area_client() {
        let area = Area::square(10.0).unwrap();
        let p = RadioProfile::fixed(2.0).unwrap();
        let routers = vec![Router::new(RouterId(0), p, 2.0)];
        let clients = vec![Client::new(ClientId(0), Point::new(20.0, 0.0))];
        assert!(ProblemInstance::new(area, routers, clients).is_err());
    }

    #[test]
    fn routers_by_power_desc_orders_by_radius() {
        let area = Area::square(10.0).unwrap();
        let prof = RadioProfile::new(1.0, 9.0).unwrap();
        let inst = InstanceBuilder::new(area)
            .router(prof, 3.0)
            .router(prof, 9.0)
            .router(prof, 5.0)
            .client(Point::new(5.0, 5.0))
            .build()
            .unwrap();
        let order = inst.routers_by_power_desc();
        assert_eq!(order, vec![RouterId(1), RouterId(2), RouterId(0)]);
    }

    #[test]
    fn routers_by_power_desc_breaks_ties_by_id() {
        let area = Area::square(10.0).unwrap();
        let prof = RadioProfile::fixed(4.0).unwrap();
        let inst = InstanceBuilder::new(area)
            .routers(prof, 3)
            .client(Point::new(5.0, 5.0))
            .build()
            .unwrap();
        let order = inst.routers_by_power_desc();
        assert_eq!(order, vec![RouterId(0), RouterId(1), RouterId(2)]);
    }

    #[test]
    fn random_placement_is_valid() {
        let spec = InstanceSpec::paper_uniform().unwrap();
        let inst = spec.generate(1).unwrap();
        let mut rng = rng_from_seed(2);
        let p = inst.random_placement(&mut rng);
        assert!(inst.validate_placement(&p).is_ok());
    }

    #[test]
    fn client_index_is_built_once_and_shared_by_clones() {
        let inst = InstanceSpec::paper_normal().unwrap().generate(4).unwrap();
        let index = Arc::clone(inst.client_index().unwrap());
        assert!(Arc::ptr_eq(&index, inst.client_index().unwrap()));
        assert!(Arc::ptr_eq(&index, inst.clone().client_index().unwrap()));
        assert!(index
            .points()
            .iter()
            .copied()
            .eq(inst.clients().iter().map(Client::position)));
        let largest = inst
            .routers()
            .iter()
            .map(Router::current_radius)
            .fold(1.0_f64, f64::max);
        assert_eq!(index.cell_size(), largest);
    }

    #[test]
    fn equality_and_debug_ignore_the_client_index() {
        let spec = InstanceSpec::paper_normal().unwrap();
        let (a, b) = (spec.generate(7).unwrap(), spec.generate(7).unwrap());
        a.client_index().unwrap();
        assert_eq!(a, b, "built vs not built");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        b.client_index().unwrap();
        assert_eq!(a, b, "two separately built indexes");
        assert_ne!(a, spec.generate(8).unwrap());
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let area = Area::square(10.0).unwrap();
        let prof = RadioProfile::fixed(1.0).unwrap();
        let inst = InstanceBuilder::new(area)
            .routers(prof, 4)
            .clients((0..3).map(|i| Point::new(i as f64, 0.0)))
            .build()
            .unwrap();
        assert_eq!(inst.router(RouterId(3)).id(), RouterId(3));
        assert_eq!(inst.client(ClientId(2)).id(), ClientId(2));
    }

    #[test]
    fn display_mentions_counts() {
        let spec = InstanceSpec::paper_normal().unwrap();
        let inst = spec.generate(0).unwrap();
        let s = inst.to_string();
        assert!(s.contains("64") && s.contains("192"));
        assert!(!spec.to_string().is_empty());
    }
}
