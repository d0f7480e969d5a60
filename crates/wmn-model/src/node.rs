//! Network node types: mesh routers and mesh clients.
//!
//! A [`Router`] is a relocatable node whose radio coverage radius is drawn
//! once from its oscillation interval (the decision variables of the
//! placement problem are the router positions). A [`Client`] is a fixed node whose position is drawn from a
//! spatial distribution at instance-generation time.
//!
//! Both node kinds carry typed ids ([`RouterId`], [`ClientId`]) so that
//! router and client indices cannot be confused at compile time (newtype
//! pattern, C-NEWTYPE).

use crate::radio::RadioProfile;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a mesh router: its index in the instance's router vector.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RouterId(pub usize);

impl RouterId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<usize> for RouterId {
    fn from(i: usize) -> Self {
        RouterId(i)
    }
}

/// Identifier of a mesh client: its index in the instance's client vector.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ClientId(pub usize);

impl ClientId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<usize> for ClientId {
    fn from(i: usize) -> Self {
        ClientId(i)
    }
}

/// A mesh router: the relocatable node kind.
///
/// A router owns a [`RadioProfile`] (its oscillation interval) and a
/// *current radius* within that interval. Routers do **not** store their
/// position — positions are the optimization variable and live in
/// [`Placement`](crate::placement::Placement), so that a single instance can
/// be evaluated against many candidate placements without cloning node data.
///
/// # Examples
///
/// ```
/// use wmn_model::node::{Router, RouterId};
/// use wmn_model::radio::RadioProfile;
///
/// let profile = RadioProfile::new(2.0, 8.0)?;
/// let router = Router::new(RouterId(0), profile, 5.0);
/// assert_eq!(router.current_radius(), 5.0);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Router {
    id: RouterId,
    profile: RadioProfile,
    current_radius: f64,
}

impl Router {
    /// Creates a router with the given profile and current radius.
    ///
    /// The current radius is clamped into the profile's oscillation
    /// interval, preserving the invariant that a router's radius always lies
    /// within its profile.
    pub fn new(id: RouterId, profile: RadioProfile, current_radius: f64) -> Self {
        Router {
            id,
            profile,
            current_radius: profile.clamp(current_radius),
        }
    }

    /// Creates a router whose current radius is drawn uniformly from the
    /// profile's oscillation interval.
    pub fn with_sampled_radius<R: Rng + ?Sized>(
        id: RouterId,
        profile: RadioProfile,
        rng: &mut R,
    ) -> Self {
        let r = profile.sample(rng);
        Router {
            id,
            profile,
            current_radius: r,
        }
    }

    /// This router's identifier.
    #[inline]
    pub fn id(&self) -> RouterId {
        self.id
    }

    /// This router's oscillation profile.
    #[inline]
    pub fn profile(&self) -> RadioProfile {
        self.profile
    }

    /// The current radio coverage radius.
    #[inline]
    pub fn current_radius(&self) -> f64 {
        self.current_radius
    }

    /// "Power" ordering key used by HotSpot and the swap movement: a router
    /// is more powerful than another if its current radius is larger.
    #[inline]
    pub fn power(&self) -> f64 {
        self.current_radius
    }
}

impl fmt::Display for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(radius {:.2})", self.id, self.current_radius)
    }
}

/// A mesh client: a fixed node to be covered by the mesh.
///
/// Clients store their position because positions are *inputs* of the
/// problem, fixed at instance-generation time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Client {
    id: ClientId,
    position: crate::geometry::Point,
}

impl Client {
    /// Creates a client at the given position.
    pub fn new(id: ClientId, position: crate::geometry::Point) -> Self {
        Client { id, position }
    }

    /// This client's identifier.
    #[inline]
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// This client's fixed position.
    #[inline]
    pub fn position(&self) -> crate::geometry::Point {
        self.position
    }
}

impl fmt::Display for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.id, self.position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::rng::rng_from_seed;

    #[test]
    fn router_id_roundtrip() {
        let id = RouterId::from(7usize);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "r7");
    }

    #[test]
    fn client_id_roundtrip() {
        let id = ClientId::from(3usize);
        assert_eq!(id.index(), 3);
        assert_eq!(id.to_string(), "c3");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(RouterId(1) < RouterId(2));
        assert!(ClientId(0) < ClientId(10));
    }

    #[test]
    fn router_clamps_current_radius_into_profile() {
        let p = RadioProfile::new(2.0, 8.0).unwrap();
        let r = Router::new(RouterId(0), p, 100.0);
        assert_eq!(r.current_radius(), 8.0);
        let r = Router::new(RouterId(0), p, 0.5);
        assert_eq!(r.current_radius(), 2.0);
    }

    #[test]
    fn router_with_sampled_radius_in_profile() {
        let p = RadioProfile::new(3.0, 4.0).unwrap();
        let mut rng = rng_from_seed(5);
        for i in 0..50 {
            let r = Router::with_sampled_radius(RouterId(i), p, &mut rng);
            assert!(p.contains(r.current_radius()));
        }
    }

    #[test]
    fn power_equals_current_radius() {
        let p = RadioProfile::new(2.0, 8.0).unwrap();
        let r = Router::new(RouterId(0), p, 6.0);
        assert_eq!(r.power(), 6.0);
    }

    #[test]
    fn client_accessors() {
        let c = Client::new(ClientId(2), Point::new(1.0, 2.0));
        assert_eq!(c.id(), ClientId(2));
        assert_eq!(c.position(), Point::new(1.0, 2.0));
        assert!(!c.to_string().is_empty());
    }
}
