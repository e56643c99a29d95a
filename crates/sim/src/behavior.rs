//! Peer behaviour profiles.
//!
//! The paper's measurements face a zoo of real clients: standard
//! mainline-like peers, free riders, super-seeding plugins, and
//! "misbehaving clients" that churn through the peer set in seconds
//! (§III-D, §IV-A.1). A [`BehaviorProfile`] bundles those traits for one
//! simulated peer, and [`CapacityClass`] models the asymmetric-access
//! heterogeneity §IV-B.1's fairness discussion depends on.

use bt_core::Config;
use bt_wire::peer_id::ClientKind;
use bt_wire::time::Duration;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Access-link class for a simulated peer (bytes/second).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CapacityClass {
    /// Paper default: 20 kB/s up, high download (the instrumented client).
    Default,
    /// Slow asymmetric DSL: 16 kB/s up / 128 kB/s down.
    Dsl,
    /// Fast asymmetric cable: 64 kB/s up / 512 kB/s down.
    Cable,
    /// University/backbone peer: 1.5 MB/s symmetric (the "very fast seed"
    /// the paper notes can bias results).
    Campus,
    /// Custom capacities (up, down).
    Custom(u64, u64),
}

impl CapacityClass {
    /// Upload capacity in bytes/second.
    pub fn upload(&self) -> u64 {
        match self {
            CapacityClass::Default => 20 * 1024,
            CapacityClass::Dsl => 16 * 1024,
            CapacityClass::Cable => 64 * 1024,
            CapacityClass::Campus => 1536 * 1024,
            CapacityClass::Custom(up, _) => *up,
        }
    }

    /// Download capacity in bytes/second.
    pub fn download(&self) -> u64 {
        match self {
            CapacityClass::Default => 1500 * 1024,
            CapacityClass::Dsl => 128 * 1024,
            CapacityClass::Cable => 512 * 1024,
            CapacityClass::Campus => 1536 * 1024,
            CapacityClass::Custom(_, down) => *down,
        }
    }

    /// Sample a class from the paper-era Internet mix: mostly DSL, some
    /// cable, a few campus peers.
    pub fn sample(rng: &mut SmallRng) -> CapacityClass {
        match rng.random_range(0..100u32) {
            0..=59 => CapacityClass::Dsl,
            60..=89 => CapacityClass::Cable,
            _ => CapacityClass::Campus,
        }
    }
}

/// What a peer does over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Role {
    /// Starts with every piece and serves until departure.
    Seed,
    /// Starts empty, downloads, then lingers as a seed for a while.
    Leecher,
    /// Leecher that never uploads (§IV-B).
    FreeRider,
    /// Joins and leaves within seconds without transferring anything —
    /// the noise the paper filters with its 10-second rule.
    Churner,
    /// A seed running the super-seeding option (§IV-A.1 artefact).
    SuperSeed,
}

/// Full behaviour profile of one simulated peer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BehaviorProfile {
    /// Lifecycle role.
    pub role: Role,
    /// Client implementation family (drives the peer-ID prefix).
    pub client: ClientKind,
    /// Access-link class: the swarm's per-round upload and download
    /// budgets for this peer.
    pub capacity: CapacityClass,
    /// When the peer joins, relative to simulation start.
    pub join_at: Duration,
    /// How long a leecher lingers as seed after completing; `None` = stays
    /// until the end of the run.
    pub seed_linger: Option<Duration>,
    /// Pre-existing swarm member: the swarm builder gives it a random
    /// partial bitfield drawn from the *available* pieces, modelling the
    /// download progress it made before the session began.
    pub prepopulate: bool,
    /// Crash-and-restart interval: the client drops all connections and
    /// comes back a few seconds later with the *same IP but a fresh
    /// random peer-ID suffix* — the §III-D identification noise ("this
    /// random string is regenerated each time the client is restarted").
    /// Downloaded pieces survive the restart, as on a real disk.
    pub restart_after: Option<Duration>,
}

impl BehaviorProfile {
    /// A standard seed present from the start.
    pub fn seed() -> BehaviorProfile {
        BehaviorProfile {
            role: Role::Seed,
            client: ClientKind::Mainline402,
            capacity: CapacityClass::Default,
            join_at: Duration::ZERO,
            seed_linger: None,
            prepopulate: false,
            restart_after: None,
        }
    }

    /// A standard leecher joining at `join_at`.
    pub fn leecher(join_at: Duration) -> BehaviorProfile {
        BehaviorProfile {
            role: Role::Leecher,
            client: ClientKind::Mainline402,
            capacity: CapacityClass::Default,
            join_at,
            seed_linger: Some(Duration::from_secs(30 * 60)),
            prepopulate: false,
            restart_after: None,
        }
    }

    /// The engine [`Config`] this profile implies: `base` with the
    /// role's behaviour switch on.
    pub fn engine_config(&self, base: &Config) -> Config {
        let mut cfg = base.clone();
        match self.role {
            Role::FreeRider => cfg.upload_disabled = true,
            Role::SuperSeed => cfg.super_seed = true,
            _ => {}
        }
        cfg
    }

    /// Whether the peer starts with every piece (a seed of either kind).
    pub fn is_initial_seed(&self) -> bool {
        matches!(self.role, Role::Seed | Role::SuperSeed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn capacity_values() {
        assert_eq!(CapacityClass::Default.upload(), 20 * 1024);
        assert_eq!(CapacityClass::Custom(5, 9).upload(), 5);
        assert_eq!(CapacityClass::Custom(5, 9).download(), 9);
        assert!(CapacityClass::Campus.upload() > CapacityClass::Dsl.upload());
    }

    #[test]
    fn sample_covers_classes() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(format!("{:?}", CapacityClass::sample(&mut rng)));
        }
        assert!(
            seen.len() >= 3,
            "expected DSL/Cable/Campus in 200 draws: {seen:?}"
        );
    }

    #[test]
    fn profile_to_config() {
        let base = Config::default();
        let mut p = BehaviorProfile::leecher(Duration::ZERO);
        p.role = Role::FreeRider;
        p.capacity = CapacityClass::Cable;
        let cfg = p.engine_config(&base);
        assert_eq!(
            cfg,
            Config {
                upload_disabled: true,
                ..base
            }
        );
        // The capacity the swarm budgets this peer's rounds from.
        assert_eq!(p.capacity.upload(), 64 * 1024);
        assert_eq!(p.capacity.download(), 512 * 1024);
        // The §III-C 20 kB/s cap is the default class.
        assert_eq!(BehaviorProfile::seed().capacity.upload(), 20 * 1024);
    }

    #[test]
    fn initial_seeds_by_role() {
        assert!(BehaviorProfile::seed().is_initial_seed());
        let mut p = BehaviorProfile::leecher(Duration::ZERO);
        assert!(!p.is_initial_seed());
        p.role = Role::SuperSeed;
        assert!(p.is_initial_seed());
    }
}
