//! `online_churn`: three open-system simulations on one `Regular { n: 4096,
//! delta: 16 }` graph — RAES(4,2), JSQ(2), and RAES(4,2) under stragglers and
//! message loss. Each sees Poisson arrivals at n balls per round, half of RAES's
//! service capacity n·c·d / E[s], with `1 + Geometric(0.25)` service times, for a
//! 1500-round horizon: about 6.1M balls per arm. Arrivals and departures write
//! server state every round, so the per-round fixed costs of `step()` are on the
//! critical path here as nowhere else.

use crate::layers::count_rounds;
use crate::output::Digest;
use crate::trace::{SpanId, Tracer};
use crate::{clock, derive, Bench, Pass};
use clb::prelude::*;

/// One protocol arm.
#[derive(Debug, Clone, Copy)]
pub struct Arm {
    /// Span tag.
    pub tag: &'static str,
    /// The protocol.
    pub protocol: ProtocolSpec,
    /// Faults wrapped around it, if any.
    pub faults: Option<FaultPlan>,
}

/// The three arms, in the order they run.
pub fn arms() -> [Arm; 3] {
    let raes = ProtocolSpec::Raes { c: 4, d: 2 };
    [
        Arm {
            tag: "raes",
            protocol: raes,
            faults: None,
        },
        Arm {
            tag: "jsq",
            protocol: ProtocolSpec::Jsq { d: 2 },
            faults: None,
        },
        Arm {
            tag: "raes+faults",
            protocol: raes,
            faults: Some(
                FaultPlan::none()
                    .stragglers(0.1, 0.5)
                    .message_loss(0.05, 0.05),
            ),
        },
    ]
}

/// Size of the open system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineShape {
    /// Clients (= servers).
    pub n: usize,
    /// Rounds with arrivals.
    pub horizon: u32,
}

impl OnlineShape {
    /// The benchmark's instance.
    pub const BENCH: OnlineShape = OnlineShape {
        n: 4096,
        horizon: 1500,
    };

    /// The graph every arm runs on.
    pub fn graph(&self) -> GraphSpec {
        GraphSpec::Regular {
            n: self.n,
            delta: 16,
        }
    }

    /// Poisson arrivals at n per round (half of RAES(4,2)'s capacity 2n at a mean
    /// service time of 4 rounds) until the horizon.
    pub fn workload(&self) -> OnlineWorkload {
        OnlineWorkload {
            arrivals: ArrivalProcess::Poisson {
                rate: self.n as f64,
                rounds: self.horizon,
            },
            service: ServiceDistribution::Geometric { p: 0.25 },
        }
    }

    /// Round cap: the horizon plus a drain window.
    pub fn max_rounds(&self) -> u32 {
        self.horizon + 100
    }
}

/// The online workload's passes.
#[derive(Debug)]
pub struct OnlineBench {
    shape: OnlineShape,
}

impl OnlineBench {
    /// Passes over `shape`.
    pub fn new(shape: OnlineShape) -> Self {
        Self { shape }
    }

    fn run(&self, pass_seed: u64, tracer: &Tracer) -> Pass {
        let shape = self.shape;
        let arms = arms();
        let mut pass = Pass::attempting(arms.len() as u64);
        let root = tracer.reserve();

        let start = clock::now_ns();
        let graph = tracer.span("graph.generate", root, "", 0, |_| {
            shape.graph().build(derive(pass_seed, 0))
        });
        let graph = match graph {
            Ok(graph) => graph,
            Err(e) => {
                pass.fail_all(format!("the online graph failed to generate: {e}"));
                return pass;
            }
        };
        tracer.add("graph.edges", graph.num_edges() as u64);
        let mut setup_ns = clock::now_ns() - start;
        let mut solve_ns = 0;
        let mut outputs = Vec::with_capacity(arms.len());
        for (k, arm) in arms.iter().enumerate() {
            let unit = k as u64;
            let sim_seed = derive(pass_seed, 1 + unit);
            let build_start = clock::now_ns();
            let mut sim = tracer.span("engine.sim_build", root, arm.tag, unit, |_| {
                let protocol = match &arm.faults {
                    Some(plan) => plan.wrap(arm.protocol.build(), sim_seed),
                    None => arm.protocol.build(),
                };
                Simulation::builder(&graph)
                    .protocol(protocol)
                    .demand(Demand::Constant(0))
                    .workload(shape.workload())
                    .seed(sim_seed)
                    .max_rounds(shape.max_rounds())
                    .build()
            });
            let steps_start = clock::now_ns();
            let mut records: Vec<RoundRecord> = Vec::with_capacity(shape.max_rounds() as usize);
            while !sim.is_complete() && sim.round() < shape.max_rounds() {
                records.push(tracer.span("engine.step", root, arm.tag, unit, |_| sim.step()));
            }
            let steps_end = clock::now_ns();
            setup_ns += steps_start - build_start;
            solve_ns += steps_end - steps_start;
            let result = sim.result();
            let stats = tracer.span("core.fold", root, arm.tag, unit, |_| {
                let latencies = sim
                    .settle_latencies()
                    .expect("a simulation with a workload reports settle latencies");
                OnlineStats::compute(&records, &latencies)
            });
            count_rounds(tracer, arm.tag, &records);
            outputs.push((*arm, result, stats, sim.alive_count(), records));
        }
        let end = clock::now_ns();
        tracer.record(root, "pass", SpanId::ROOT, "", 0, (start, end));
        pass.wall_ns = end - start;
        pass.setup_ns = setup_ns;
        pass.solve_ns = solve_ns;
        pass.cells = arms.len() as u64;

        let mut digest = Digest::default();
        for (arm, result, stats, backlog, records) in &outputs {
            check_arm(arm, stats, *backlog, &mut pass);
            digest = digest.debug(result).debug(stats).debug(records);
        }
        pass.digest = digest.value();
        pass
    }
}

/// Checks one arm: RAES keeps its in-flight peak load within c·d, every arrival
/// is settled or still in the backlog, and the fault-free arms end stable.
fn check_arm(arm: &Arm, stats: &OnlineStats, backlog: u64, pass: &mut Pass) {
    let mut problems = Vec::new();
    if let ProtocolSpec::Raes { c, d } = arm.protocol {
        if stats.peak_load > c * d {
            problems.push(format!(
                "peak load {} exceeds c·d = {}",
                stats.peak_load,
                c * d
            ));
        }
    }
    if stats.total_arrivals != stats.settled_balls + backlog {
        problems.push(format!(
            "{} arrivals but {} settled and {backlog} in the backlog",
            stats.total_arrivals, stats.settled_balls
        ));
    }
    if arm.faults.is_none() && !stats.stable {
        problems.push(format!(
            "unstable: backlog mean {:.1} late vs {:.1} early",
            stats.late_backlog_mean, stats.early_backlog_mean
        ));
    }
    if !problems.is_empty() {
        pass.fail_unit(format!("online arm {}: {}", arm.tag, problems.join("; ")));
    }
}

impl Bench for OnlineBench {
    fn warm_up(&mut self, _first_pass_seed: u64) {
        let small = OnlineBench::new(OnlineShape {
            n: 512,
            horizon: 100,
        });
        let _ = small.run(1, &Tracer::off());
    }

    fn pass(&mut self, pass_seed: u64) -> Pass {
        self.run(pass_seed, &Tracer::off())
    }

    fn traced_pass(&mut self, pass_seed: u64, tracer: &Tracer) -> Pass {
        self.run(pass_seed, tracer)
    }
}
