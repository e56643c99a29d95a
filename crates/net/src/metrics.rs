//! Transport-level runtime telemetry (`bt-obs` integration).
//!
//! [`NetMetrics`] holds the pre-registered handles a socket runtime
//! increments while driving its engine.
//! All instruments carry the runtime's label (e.g. `"peer3"`), so
//! several runtimes sharing one registry — the loopback swarm — stay
//! distinguishable, per-peer bytes in/out included; aggregate views
//! sum across labels at snapshot time
//! ([`bt_obs::Snapshot::counter_sum`]).
//!
//! [`NetStats`](crate::runtime::NetStats) is a snapshot view over these
//! counters ([`NetMetrics::stats`]): what *this* runtime added to them.
//! A registry outlives a run — a second swarm given the same registry
//! re-acquires the same `net.*{peer<i>}` series — so the view subtracts
//! the values found at registration; the registry keeps the totals.

use crate::runtime::NetStats;
use bt_obs::{buckets, Counter, Gauge, Histogram, Registry};

/// Pre-registered `bt-obs` handles for one socket runtime.
#[derive(Clone, Debug)]
pub struct NetMetrics {
    registry: Registry,
    /// The counters as [`register`](NetMetrics::register) found them.
    base: NetStats,

    pub(crate) ticks: Counter,
    pub(crate) messages_in: Counter,
    pub(crate) blocks_sent: Counter,
    pub(crate) dial_failures: Counter,
    pub(crate) dial_retries: Counter,
    pub(crate) protocol_errors: Counter,
    pub(crate) disconnects: Counter,
    pub(crate) handshakes_ok: Counter,
    pub(crate) bytes_in: Counter,
    pub(crate) bytes_out: Counter,
    pub(crate) keepalives_in: Counter,
    pub(crate) keepalives_out: Counter,

    pub(crate) handshake_us: Histogram,

    pub(crate) conns: Gauge,
    pub(crate) write_queue_frames: Gauge,
    pub(crate) write_queue_bytes: Gauge,
    pub(crate) read_buffer_bytes: Gauge,
}

impl NetMetrics {
    /// Register (or re-acquire) the transport instruments on
    /// `registry` under `label`.
    pub fn register(registry: &Registry, label: &str) -> NetMetrics {
        let mut metrics = NetMetrics {
            registry: registry.clone(),
            base: NetStats::default(),
            ticks: registry.counter_with("net.ticks", label),
            messages_in: registry.counter_with("net.messages_in", label),
            blocks_sent: registry.counter_with("net.blocks_sent", label),
            dial_failures: registry.counter_with("net.dial_failures", label),
            dial_retries: registry.counter_with("net.dial_retries", label),
            protocol_errors: registry.counter_with("net.protocol_errors", label),
            disconnects: registry.counter_with("net.disconnects", label),
            handshakes_ok: registry.counter_with("net.handshakes_ok", label),
            bytes_in: registry.counter_with("net.bytes_in", label),
            bytes_out: registry.counter_with("net.bytes_out", label),
            keepalives_in: registry.counter_with("net.keepalives_in", label),
            keepalives_out: registry.counter_with("net.keepalives_out", label),
            handshake_us: registry.histogram_with("net.handshake_us", label, buckets::LATENCY_US),
            conns: registry.gauge_with("net.conns", label),
            write_queue_frames: registry.gauge_with("net.write_queue_frames", label),
            write_queue_bytes: registry.gauge_with("net.write_queue_bytes", label),
            read_buffer_bytes: registry.gauge_with("net.read_buffer_bytes", label),
        };
        metrics.base = metrics.totals();
        metrics
    }

    /// The registry the handles live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// What this runtime has counted since it registered.
    pub fn stats(&self) -> NetStats {
        let (now, base) = (self.totals(), &self.base);
        NetStats {
            ticks: now.ticks - base.ticks,
            messages_in: now.messages_in - base.messages_in,
            blocks_sent: now.blocks_sent - base.blocks_sent,
            dial_failures: now.dial_failures - base.dial_failures,
            protocol_errors: now.protocol_errors - base.protocol_errors,
            disconnects: now.disconnects - base.disconnects,
            bytes_in: now.bytes_in - base.bytes_in,
            bytes_out: now.bytes_out - base.bytes_out,
            dial_retries: now.dial_retries - base.dial_retries,
            handshakes_ok: now.handshakes_ok - base.handshakes_ok,
        }
    }

    /// The registry's running totals for this label.
    fn totals(&self) -> NetStats {
        NetStats {
            ticks: self.ticks.get(),
            messages_in: self.messages_in.get(),
            blocks_sent: self.blocks_sent.get(),
            dial_failures: self.dial_failures.get(),
            protocol_errors: self.protocol_errors.get(),
            disconnects: self.disconnects.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            dial_retries: self.dial_retries.get(),
            handshakes_ok: self.handshakes_ok.get(),
        }
    }
}
