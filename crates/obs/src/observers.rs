//! One run's observers: what it watches ([`ObserverSet`]) and the
//! handles that watch it ([`Observers`]), built by one function so every
//! driver attaches the same instruments on the same terms.

use crate::{FlightRecorder, Profiler, Registry, SeriesStore, TimeSource, Tracer};
use std::path::PathBuf;

/// Trace events a flight bundle carries: the tracer's last 4 096.
const FLIGHT_TRACE: usize = 4096;

/// What a run observes; `Default` is nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObserverSet {
    /// A metrics registry and its time-series store.
    pub metrics: bool,
    /// A span profiler.
    pub profile: bool,
    /// A causal tracer sampling one in `N` piece/peer ids (`Some(1)`:
    /// every chain).
    pub trace_sample: Option<u64>,
    /// A flight recorder writing its bundles into this directory. It
    /// turns on the registry, whose health verdicts trip its dumps, and
    /// the tracer whose last events its bundles carry (at rate 1 unless
    /// `trace_sample` says otherwise).
    pub flight_dir: Option<PathBuf>,
}

/// The handles an [`ObserverSet`] builds; `None` is not observed.
#[derive(Debug, Clone, Default)]
pub struct Observers {
    /// The metrics registry.
    pub registry: Option<Registry>,
    /// The registry's time-series store; present exactly when it is.
    pub series: Option<SeriesStore>,
    /// The span profiler.
    pub profiler: Option<Profiler>,
    /// The causal tracer. Its [`Tracer::flight`] is the run's flight
    /// recorder, the only handle to it.
    pub tracer: Option<Tracer>,
}

impl ObserverSet {
    /// Build the handles. `clock` makes the registry's and the
    /// profiler's time source ([`TimeSource::manual`] in the simulator,
    /// [`TimeSource::wall`] on sockets); `seed` keys the tracer's
    /// sampling and is recorded in flight bundles, so pass the run's
    /// seed.
    pub fn build(&self, clock: fn() -> TimeSource, seed: u64) -> Observers {
        let registry = (self.metrics || self.flight_dir.is_some()).then(|| Registry::new(clock()));
        let tracer = (self.trace_sample.is_some() || self.flight_dir.is_some()).then(|| {
            let tracer = Tracer::new(seed, self.trace_sample.unwrap_or(1));
            match &self.flight_dir {
                Some(dir) => tracer.with_flight(FlightRecorder::new(dir, FLIGHT_TRACE, seed)),
                None => tracer,
            }
        });
        Observers {
            series: registry.as_ref().map(SeriesStore::new),
            registry,
            profiler: self.profile.then(|| Profiler::new(clock())),
            tracer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each knob alone, then all on: which handles are live, the
    /// tracer's rate and whether it carries a flight recorder.
    #[test]
    fn build_follows_the_one_rule_table() {
        let dir = PathBuf::from("flight");
        let cases = [
            (ObserverSet::default(), [false; 4], None, false),
            (
                ObserverSet {
                    metrics: true,
                    ..ObserverSet::default()
                },
                [true, true, false, false],
                None,
                false,
            ),
            (
                ObserverSet {
                    profile: true,
                    ..ObserverSet::default()
                },
                [false, false, true, false],
                None,
                false,
            ),
            (
                ObserverSet {
                    trace_sample: Some(8),
                    ..ObserverSet::default()
                },
                [false, false, false, true],
                Some(8),
                false,
            ),
            (
                ObserverSet {
                    flight_dir: Some(dir.clone()),
                    ..ObserverSet::default()
                },
                [true, true, false, true],
                Some(1),
                true,
            ),
            (
                ObserverSet {
                    metrics: true,
                    profile: true,
                    trace_sample: Some(4),
                    flight_dir: Some(dir.clone()),
                },
                [true; 4],
                Some(4),
                true,
            ),
        ];
        for (set, live, rate, flight) in cases {
            let o = set.build(TimeSource::manual, 7);
            let got = [
                o.registry.is_some(),
                o.series.is_some(),
                o.profiler.is_some(),
                o.tracer.is_some(),
            ];
            assert_eq!(got, live, "{set:?}");
            let tracer = o.tracer.as_ref();
            assert_eq!(
                tracer.map(|t| format!("{t:?}")),
                rate.map(|r| format!("Tracer(seed=7, rate={r})")),
                "{set:?}"
            );
            let recorder = tracer.and_then(Tracer::flight);
            assert_eq!(recorder.is_some(), flight, "{set:?}");
            if let Some(fr) = recorder {
                assert_eq!((fr.dir(), fr.seed()), (dir.as_path(), 7), "{set:?}");
            }
        }
    }

    /// The clock is the caller's: a manual one stands still until the
    /// driver moves it, for the registry and the profiler alike.
    #[test]
    fn build_uses_the_given_clock() {
        let set = ObserverSet {
            metrics: true,
            profile: true,
            ..ObserverSet::default()
        };
        let o = set.build(TimeSource::manual, 1);
        let registry = o.registry.expect("metrics on");
        let profiler = o.profiler.expect("profile on");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(registry.time().now_micros(), 0);
        assert_eq!(profiler.time().map(TimeSource::now_micros), Some(0));
    }
}
