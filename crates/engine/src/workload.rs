//! Online (open-system) workloads: continuous ball arrivals and service-time departures.
//!
//! The paper studies the *batch* setting — `n` balls present at round 1, the run ends
//! when the last one settles. An **online workload** turns the same engine into an
//! open system: new balls arrive at round boundaries according to an
//! [`ArrivalProcess`], and a settled ball occupies its server only for a sampled
//! service time ([`ServiceDistribution`]) before departing and releasing the slot.
//! The interesting question changes from "how many rounds to drain?" to "is the
//! system *stable* — does the backlog stay bounded as traffic keeps flowing?".
//!
//! # Determinism
//!
//! Everything here is a pure function of `(seed, workload spec)`:
//!
//! - per-round arrival **counts** come from one RNG stream per round in the dedicated
//!   [`ARRIVAL_DOMAIN`], keyed `(round, 0)`;
//! - the **owner** of each arriving ball comes from a per-ball stream in the same
//!   domain, keyed `(ball, 1)`;
//! - each ball's **service time** comes from a per-ball stream in the dedicated
//!   [`SERVICE_DOMAIN`], keyed `(ball, 0)`.
//!
//! Because every draw is keyed by a stable entity id (round number or ball id) and
//! the domains are disjoint from [`PROTOCOL_DOMAIN`], the traffic process never
//! correlates with routing and never depends on thread count, piece plan or shard
//! layout. See `docs/DETERMINISM.md` ("Online workloads").
//!
//! [`ARRIVAL_DOMAIN`]: clb_rng::domains::ARRIVAL_DOMAIN
//! [`SERVICE_DOMAIN`]: clb_rng::domains::SERVICE_DOMAIN
//! [`PROTOCOL_DOMAIN`]: clb_rng::domains::PROTOCOL_DOMAIN

use clb_rng::domains::{ARRIVAL_DOMAIN, SERVICE_DOMAIN};
use clb_rng::{Geometric, Poisson, RandomSource, StreamFactory, Xoshiro256PlusPlus};
use serde::{Deserialize, Serialize};

/// When and how many new balls enter the system.
///
/// Arrivals happen at round boundaries: the balls for round `t` are injected before
/// any request of round `t` is routed, in ascending ball-id order. The process has a
/// finite *horizon* — the number of rounds during which arrivals can occur — so every
/// run has a well-defined drain phase after the horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Exactly `per_round` balls arrive in each of the first `rounds` rounds.
    Batch {
        /// Balls injected per round.
        per_round: u32,
        /// Number of rounds with arrivals.
        rounds: u32,
    },
    /// Poisson(`rate`) balls arrive in each of the first `rounds` rounds.
    Poisson {
        /// Mean arrivals per round (must be finite and non-negative).
        rate: f64,
        /// Number of rounds with arrivals.
        rounds: u32,
    },
    /// On/off bursts: `on_rounds` rounds of Poisson(`on_rate`) arrivals followed by
    /// `off_rounds` silent rounds, repeating for the first `rounds` rounds.
    Bursty {
        /// Mean arrivals per round while the source is on.
        on_rate: f64,
        /// Length of each on-phase in rounds (must be at least 1).
        on_rounds: u32,
        /// Length of each off-phase in rounds.
        off_rounds: u32,
        /// Number of rounds with (potential) arrivals.
        rounds: u32,
    },
    /// A replayable explicit trace: `arrivals[t]` balls arrive in round `t + 1`.
    Trace {
        /// Per-round arrival counts; the horizon is the trace length.
        arrivals: Vec<u32>,
    },
}

impl ArrivalProcess {
    /// Number of rounds during which arrivals can occur.
    pub fn horizon(&self) -> u32 {
        match self {
            Self::Batch { rounds, .. }
            | Self::Poisson { rounds, .. }
            | Self::Bursty { rounds, .. } => *rounds,
            Self::Trace { arrivals } => arrivals.len() as u32,
        }
    }
}

/// How long a settled ball occupies its server before departing.
///
/// All distributions are supported on `{1, 2, ...}` rounds: a ball that settles in
/// round `t` with service time `s` departs at the start of round `t + s`, so even the
/// shortest service occupies the server for the census of its settle round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceDistribution {
    /// Every ball is served for exactly `rounds` rounds (must be at least 1).
    Deterministic {
        /// Service time in rounds.
        rounds: u32,
    },
    /// `1 + Geometric(p)` rounds: memoryless with mean `1/p`. `p` must be finite and
    /// in `(0, 1]`.
    Geometric {
        /// Per-round completion probability.
        p: f64,
    },
    /// Uniform on `{min, ..., max}` rounds (requires `1 <= min <= max`).
    Uniform {
        /// Shortest possible service time in rounds.
        min: u32,
        /// Longest possible service time in rounds.
        max: u32,
    },
}

/// A full online workload: the arrival process plus the service-time distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineWorkload {
    /// When and how many balls arrive.
    pub arrivals: ArrivalProcess,
    /// How long each settled ball occupies its server.
    pub service: ServiceDistribution,
}

impl OnlineWorkload {
    /// Checks every parameter, rejecting non-finite rates/probabilities and empty
    /// ranges. Called by the simulation builder, which panics on `Err`.
    pub fn validate(&self) -> Result<(), String> {
        match &self.arrivals {
            ArrivalProcess::Batch { .. } | ArrivalProcess::Trace { .. } => {}
            ArrivalProcess::Poisson { rate, .. } => {
                if !rate.is_finite() || *rate < 0.0 {
                    return Err(format!(
                        "poisson arrival rate must be finite and non-negative, got {rate}"
                    ));
                }
            }
            ArrivalProcess::Bursty {
                on_rate, on_rounds, ..
            } => {
                if !on_rate.is_finite() || *on_rate < 0.0 {
                    return Err(format!(
                        "bursty on-rate must be finite and non-negative, got {on_rate}"
                    ));
                }
                if *on_rounds == 0 {
                    return Err("bursty on-phase must last at least one round".to_string());
                }
            }
        }
        match &self.service {
            ServiceDistribution::Deterministic { rounds } => {
                if *rounds == 0 {
                    return Err("deterministic service time must be at least one round".to_string());
                }
            }
            ServiceDistribution::Geometric { p } => {
                if !(p.is_finite() && *p > 0.0 && *p <= 1.0) {
                    return Err(format!(
                        "geometric service probability must be finite and in (0, 1], got {p}"
                    ));
                }
            }
            ServiceDistribution::Uniform { min, max } => {
                if *min == 0 || min > max {
                    return Err(format!(
                        "uniform service range requires 1 <= min <= max, got [{min}, {max}]"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of rounds during which arrivals can occur.
    pub fn horizon(&self) -> u32 {
        self.arrivals.horizon()
    }

    /// A short label for experiment tables, e.g. `poisson(2)+det(4)`.
    pub fn label(&self) -> String {
        let arrivals = match &self.arrivals {
            ArrivalProcess::Batch { per_round, rounds } => format!("batch({per_round}x{rounds})"),
            ArrivalProcess::Poisson { rate, rounds } => format!("poisson({rate}x{rounds})"),
            ArrivalProcess::Bursty {
                on_rate,
                on_rounds,
                off_rounds,
                rounds,
            } => format!("bursty({on_rate},{on_rounds}on/{off_rounds}off,x{rounds})"),
            ArrivalProcess::Trace { arrivals } => format!("trace(len={})", arrivals.len()),
        };
        let service = match &self.service {
            ServiceDistribution::Deterministic { rounds } => format!("det({rounds})"),
            ServiceDistribution::Geometric { p } => format!("geo({p})"),
            ServiceDistribution::Uniform { min, max } => format!("unif({min},{max})"),
        };
        format!("{arrivals}+{service}")
    }

    /// Materializes the per-round arrival counts for the whole horizon.
    ///
    /// Pure function of `(seed, self)`: round `t`'s count is drawn from the
    /// [`ARRIVAL_DOMAIN`](clb_rng::domains::ARRIVAL_DOMAIN) stream keyed `(t, 0)`, so
    /// it is independent of every other round and of everything the protocol draws.
    pub fn arrivals_per_round(&self, seed: u64) -> Vec<u32> {
        let factory = StreamFactory::new(seed).domain(ARRIVAL_DOMAIN);
        // Round `i + 1`'s count. It reads about `rate` words, so its stream converts to
        // the eager generator.
        let count = |dist: &Poisson, i: usize| {
            let mut rng = Xoshiro256PlusPlus::from(factory.stream((i + 1) as u64, 0));
            dist.sample(&mut rng).min(u64::from(u32::MAX)) as u32
        };
        let horizon = self.horizon() as usize;
        match &self.arrivals {
            ArrivalProcess::Batch { per_round, .. } => vec![*per_round; horizon],
            ArrivalProcess::Trace { arrivals } => arrivals.clone(),
            ArrivalProcess::Poisson { rate, .. } => {
                let dist = Poisson::new(*rate);
                (0..horizon).map(|i| count(&dist, i)).collect()
            }
            ArrivalProcess::Bursty {
                on_rate,
                on_rounds,
                off_rounds,
                ..
            } => {
                let dist = Poisson::new(*on_rate);
                let period = (*on_rounds as usize) + (*off_rounds as usize);
                (0..horizon)
                    .map(|i| {
                        if i % period >= *on_rounds as usize {
                            return 0;
                        }
                        count(&dist, i)
                    })
                    .collect()
            }
        }
    }

    /// Samples ball `ball`'s service time in rounds (always at least 1). Pure
    /// function of `(seed, ball)` — in particular independent of *when* or *where*
    /// the ball settles, so thread count and piece plan cannot perturb it.
    pub fn service_rounds(&self, seed: u64, ball: u64) -> u32 {
        self.service_sampler(seed).rounds(ball)
    }

    /// The service-time draws of one run, built once for all of its balls.
    pub(crate) fn service_sampler(&self, seed: u64) -> ServiceSampler {
        let draw = match self.service {
            ServiceDistribution::Deterministic { rounds } => ServiceDraw::Fixed(rounds),
            ServiceDistribution::Geometric { p } => ServiceDraw::Geometric(Geometric::new(p)),
            ServiceDistribution::Uniform { min, max } => ServiceDraw::Uniform {
                min: min.into(),
                max: max.into(),
            },
        };
        ServiceSampler {
            streams: StreamFactory::new(seed).domain(SERVICE_DOMAIN),
            draw,
        }
    }
}

/// A run's service-time sampler: the [`SERVICE_DOMAIN`] factory and the distribution,
/// so each ball's draw pays only for its own stream.
pub(crate) struct ServiceSampler {
    streams: StreamFactory,
    draw: ServiceDraw,
}

/// A [`ServiceDistribution`] ready to sample.
enum ServiceDraw {
    Fixed(u32),
    /// `1 + Geometric(p)` rounds.
    Geometric(Geometric),
    Uniform {
        min: u64,
        max: u64,
    },
}

impl ServiceSampler {
    /// Ball `ball`'s service time in rounds, from its stream keyed `(ball, 0)`.
    pub(crate) fn rounds(&self, ball: u64) -> u32 {
        match &self.draw {
            ServiceDraw::Fixed(rounds) => *rounds,
            ServiceDraw::Geometric(dist) => {
                let extra = dist.sample(&mut self.streams.stream(ball, 0));
                1 + extra.min(u64::from(u32::MAX - 1)) as u32
            }
            ServiceDraw::Uniform { min, max } => {
                self.streams.stream(ball, 0).gen_range_u64(*min, *max) as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(rounds: u32) -> ServiceDistribution {
        ServiceDistribution::Deterministic { rounds }
    }

    #[test]
    fn batch_and_trace_materialize_exactly() {
        let w = OnlineWorkload {
            arrivals: ArrivalProcess::Batch {
                per_round: 3,
                rounds: 4,
            },
            service: det(1),
        };
        assert_eq!(w.arrivals_per_round(7), vec![3, 3, 3, 3]);
        let w = OnlineWorkload {
            arrivals: ArrivalProcess::Trace {
                arrivals: vec![5, 0, 2],
            },
            service: det(1),
        };
        assert_eq!(w.horizon(), 3);
        assert_eq!(w.arrivals_per_round(7), vec![5, 0, 2]);
    }

    #[test]
    fn poisson_counts_are_seed_deterministic_and_near_rate() {
        let w = OnlineWorkload {
            arrivals: ArrivalProcess::Poisson {
                rate: 4.0,
                rounds: 2000,
            },
            service: det(1),
        };
        let a = w.arrivals_per_round(42);
        assert_eq!(a, w.arrivals_per_round(42), "same seed, same counts");
        assert_ne!(
            a,
            w.arrivals_per_round(43),
            "different seed, different counts"
        );
        let mean = a.iter().map(|&c| c as f64).sum::<f64>() / a.len() as f64;
        assert!((mean - 4.0).abs() < 0.3, "poisson mean off: {mean}");
    }

    #[test]
    fn bursty_off_phases_are_silent() {
        let w = OnlineWorkload {
            arrivals: ArrivalProcess::Bursty {
                on_rate: 10.0,
                on_rounds: 2,
                off_rounds: 3,
                rounds: 10,
            },
            service: det(1),
        };
        let a = w.arrivals_per_round(1);
        for (i, &count) in a.iter().enumerate() {
            if i % 5 >= 2 {
                assert_eq!(count, 0, "round {} is in an off-phase", i + 1);
            }
        }
        assert!(
            a.iter().any(|&c| c > 0),
            "on-phases should produce arrivals"
        );
    }

    #[test]
    fn service_times_are_at_least_one_round() {
        let geo = OnlineWorkload {
            arrivals: ArrivalProcess::Batch {
                per_round: 1,
                rounds: 1,
            },
            service: ServiceDistribution::Geometric { p: 0.3 },
        };
        let unif = OnlineWorkload {
            arrivals: geo.arrivals.clone(),
            service: ServiceDistribution::Uniform { min: 2, max: 5 },
        };
        for ball in 0..500u64 {
            assert!(geo.service_rounds(9, ball) >= 1);
            let s = unif.service_rounds(9, ball);
            assert!((2..=5).contains(&s));
        }
        // Per-ball streams: the draw depends only on (seed, ball).
        assert_eq!(geo.service_rounds(9, 17), geo.service_rounds(9, 17));
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let ok = |arrivals, service| OnlineWorkload { arrivals, service }.validate();
        assert!(ok(
            ArrivalProcess::Poisson {
                rate: f64::NAN,
                rounds: 5
            },
            det(1)
        )
        .is_err());
        assert!(ok(
            ArrivalProcess::Poisson {
                rate: f64::INFINITY,
                rounds: 5
            },
            det(1)
        )
        .is_err());
        assert!(ok(
            ArrivalProcess::Bursty {
                on_rate: 1.0,
                on_rounds: 0,
                off_rounds: 2,
                rounds: 5
            },
            det(1)
        )
        .is_err());
        assert!(ok(
            ArrivalProcess::Batch {
                per_round: 1,
                rounds: 1
            },
            det(0)
        )
        .is_err());
        assert!(ok(
            ArrivalProcess::Batch {
                per_round: 1,
                rounds: 1
            },
            ServiceDistribution::Geometric { p: f64::NAN }
        )
        .is_err());
        assert!(ok(
            ArrivalProcess::Batch {
                per_round: 1,
                rounds: 1
            },
            ServiceDistribution::Geometric { p: 0.0 }
        )
        .is_err());
        assert!(ok(
            ArrivalProcess::Batch {
                per_round: 1,
                rounds: 1
            },
            ServiceDistribution::Uniform { min: 3, max: 2 }
        )
        .is_err());
        assert!(ok(
            ArrivalProcess::Batch {
                per_round: 1,
                rounds: 1
            },
            ServiceDistribution::Uniform { min: 0, max: 2 }
        )
        .is_err());
        assert!(ok(
            ArrivalProcess::Poisson {
                rate: 2.0,
                rounds: 5
            },
            ServiceDistribution::Geometric { p: 1.0 }
        )
        .is_ok());
    }
}
