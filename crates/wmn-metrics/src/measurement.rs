//! Raw network measurements extracted from a topology.

use serde::{Deserialize, Serialize};
use std::fmt;
use wmn_graph::topology::WmnTopology;

/// Everything the fitness needs to know about one evaluated network.
///
/// A measurement is a cheap, copyable summary taken from a
/// [`WmnTopology`]; it decouples fitness arithmetic from the topology
/// lifetime.
///
/// # Examples
///
/// ```
/// use wmn_graph::topology::WmnTopology;
/// use wmn_metrics::measurement::NetworkMeasurement;
/// use wmn_model::prelude::*;
///
/// let instance = InstanceSpec::paper_normal()?.generate(1)?;
/// let mut rng = rng_from_seed(2);
/// let placement = instance.random_placement(&mut rng);
/// let topo = WmnTopology::build(&instance, &placement)?;
/// let m = NetworkMeasurement::from_topology(&topo);
/// assert_eq!(m.router_count, 64);
/// assert!(m.giant_size <= m.router_count);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct NetworkMeasurement {
    /// Size of the giant component (paper objective 1).
    pub giant_size: usize,
    /// Number of covered clients (paper objective 2).
    pub covered_clients: usize,
    /// Total routers in the instance.
    pub router_count: usize,
    /// Total clients in the instance.
    pub client_count: usize,
    /// Number of connected components in the router mesh.
    pub component_count: usize,
    /// Number of router–router links.
    pub link_count: usize,
}

impl NetworkMeasurement {
    /// Extracts a measurement from a materialized topology.
    pub fn from_topology(topo: &WmnTopology) -> Self {
        NetworkMeasurement {
            giant_size: topo.giant_size(),
            covered_clients: topo.covered_count(),
            router_count: topo.router_count(),
            client_count: topo.client_count(),
            component_count: topo.components().count(),
            link_count: topo.adjacency().edge_count(),
        }
    }
}

impl fmt::Display for NetworkMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "giant {}/{}, covered {}/{}, {} components, {} links",
            self.giant_size,
            self.router_count,
            self.covered_clients,
            self.client_count,
            self.component_count,
            self.link_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NetworkMeasurement {
        NetworkMeasurement {
            giant_size: 32,
            covered_clients: 96,
            router_count: 64,
            client_count: 192,
            component_count: 5,
            link_count: 80,
        }
    }

    #[test]
    fn display_contains_counts() {
        let s = sample().to_string();
        assert!(s.contains("32/64") && s.contains("96/192"));
    }
}
