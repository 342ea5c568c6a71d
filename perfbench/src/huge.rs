//! `huge_instance`: SAER(24,2) with one ball per client on the striped degree-8
//! graph of `single_instance`: 10⁷ clients, 312,500 servers, 8·10⁷ edges, built by
//! `BipartiteGraph::from_edges` from an edge list the benchmark generates untimed
//! before each pass, then three simulations with their own seeds on that graph.

use crate::layers::count_rounds;
use crate::output::Digest;
use crate::trace::{SpanId, Tracer};
use crate::{clock, derive, Bench, Pass};
use clb::prelude::*;

/// Clients (and balls) of the benchmark instance.
pub const CLIENTS: usize = 10_000_000;
/// Servers per client.
pub const DEGREE: usize = 8;
/// SAER with c·d = 48: total capacity 1.5 balls per client.
pub const PROTOCOL: ProtocolSpec = ProtocolSpec::Saer { c: 24, d: 2 };
/// Round cap (the instance drains in about 8 rounds).
pub const MAX_ROUNDS: u32 = 200;
/// Simulations per pass, each with its own seed, on the one graph. Round 1 does
/// about 90% of a simulation's step work and swings by ±50% with the machine's
/// memory load, so one simulation's step loop is too short to gate on.
pub const SIMULATIONS: usize = 3;

/// Servers of a striped graph with `clients` clients.
pub fn servers_for(clients: usize) -> usize {
    (clients / 32).max(DEGREE)
}

/// Fills `edges` with the striped graph rotated by `offset`: client `c` is wired to
/// the servers `(7c + i + offset) mod S` for `i < 8`. The stride spreads
/// consecutive clients over distinct server runs, so each server sees about 256
/// clients, and `S ≥ 8` keeps the eight neighbours distinct.
pub fn striped_edges(clients: usize, offset: usize, edges: &mut Vec<(u32, u32)>) {
    let servers = servers_for(clients);
    edges.clear();
    edges.reserve(clients * DEGREE);
    for c in 0..clients {
        let first = (7 * c + offset) % servers;
        for i in 0..DEGREE {
            let server = (first + i) % servers;
            edges.push((c as u32, server as u32));
        }
    }
}

/// The huge instance's passes. The edge list is kept between passes, so its
/// memory is allocated once.
#[derive(Debug)]
pub struct HugeBench {
    clients: usize,
    edges: Vec<(u32, u32)>,
}

impl HugeBench {
    /// Passes over a striped graph with `clients` clients.
    pub fn new(clients: usize) -> Self {
        Self {
            clients,
            edges: Vec::new(),
        }
    }

    fn run(&mut self, pass_seed: u64, tracer: &Tracer) -> Pass {
        let clients = self.clients;
        let servers = servers_for(clients);
        striped_edges(
            clients,
            (pass_seed % servers as u64) as usize,
            &mut self.edges,
        );
        let mut pass = Pass::attempting(SIMULATIONS as u64);
        let root = tracer.reserve();

        let start = clock::now_ns();
        let graph = tracer.span("graph.from_edges", root, "", 0, |_| {
            BipartiteGraph::from_edges(clients, servers, &self.edges)
        });
        let graph = match graph {
            Ok(graph) => graph,
            Err(e) => {
                pass.fail_all(format!("from_edges rejected the striped graph: {e}"));
                return pass;
            }
        };
        pass.setup_ns = clock::now_ns() - start;
        let mut outputs = Vec::with_capacity(SIMULATIONS);
        for k in 0..SIMULATIONS as u64 {
            let build_start = clock::now_ns();
            let mut sim = tracer.span("engine.sim_build", root, "saer", k, |_| {
                Simulation::builder(&graph)
                    .protocol(PROTOCOL.build())
                    .demand(Demand::Constant(1))
                    .seed(derive(pass_seed, 1 + k))
                    .max_rounds(MAX_ROUNDS)
                    .build()
            });
            let built = clock::now_ns();
            let mut records: Vec<RoundRecord> = Vec::new();
            while !sim.is_complete() && sim.round() < MAX_ROUNDS {
                records.push(tracer.span("engine.step", root, "saer", k, |_| sim.step()));
            }
            let result = sim.result();
            let solved = clock::now_ns();
            pass.setup_ns += built - build_start;
            pass.solve_ns += solved - built;
            count_rounds(tracer, "saer", &records);
            outputs.push((records, result, sim.server_loads().to_vec()));
        }
        let end = clock::now_ns();
        tracer.record(root, "pass", SpanId::ROOT, "", 0, (start, end));
        pass.wall_ns = end - start;
        pass.cells = SIMULATIONS as u64;

        let bound = match PROTOCOL {
            ProtocolSpec::Saer { c, d } => c * d,
            _ => unreachable!("the huge instance runs SAER"),
        };
        let mut digest = Digest::default();
        for (k, (records, result, loads)) in outputs.iter().enumerate() {
            let placed: u64 = loads.iter().map(|&load| u64::from(load)).sum();
            let max_load = loads.iter().copied().max().unwrap_or(0);
            if !result.completed || placed != clients as u64 || max_load > bound {
                pass.fail_unit(format!(
                    "huge instance simulation {k}: completed={} after {} rounds, {placed} of \
                     {clients} balls placed, max load {max_load} (bound {bound})",
                    result.completed, result.rounds
                ));
            }
            digest = loads
                .iter()
                .fold(digest.debug(records).debug(result), |d, load| {
                    d.bytes(&load.to_le_bytes())
                });
        }
        pass.digest = digest.value();
        pass
    }
}

impl Bench for HugeBench {
    fn warm_up(&mut self, _first_pass_seed: u64) {
        let mut small = HugeBench::new(1 << 16);
        let _ = small.run(1, &Tracer::off());
    }

    fn pass(&mut self, pass_seed: u64) -> Pass {
        self.run(pass_seed, &Tracer::off())
    }

    fn traced_pass(&mut self, pass_seed: u64, tracer: &Tracer) -> Pass {
        self.run(pass_seed, tracer)
    }
}
