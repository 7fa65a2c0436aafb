//! Test scaffolding: a self-contained [`Ctx`] factory for unit-testing
//! individual components without a full cluster.

#![cfg(test)]

use std::collections::{HashMap, HashSet};

use failmpi_net::{Network, ProcId};
use failmpi_sim::{SimRng, SimTime, TraceLog};

use crate::config::VclConfig;
use crate::ctx::{Addrs, Cmd, Ctx, DiskStore, TrafficStats};
use crate::event::Ev;
use crate::metrics::VclMetrics;
use crate::trace::{Hook, InstrumentedFn, VclEvent};
use crate::wire::Wire;

/// Owns everything a [`Ctx`] borrows.
pub(crate) struct TestWorld {
    pub cfg: VclConfig,
    pub addrs: Addrs,
    pub net: Network<Wire>,
    pub out: Vec<(SimTime, Ev)>,
    pub trace: TraceLog<VclEvent>,
    pub hooks: Vec<Hook>,
    pub cmds: Vec<Cmd>,
    pub disk: DiskStore,
    pub rng: SimRng,
    pub breakpoints: HashMap<ProcId, HashSet<InstrumentedFn>>,
    pub traffic: TrafficStats,
    pub metrics: VclMetrics,
}

impl TestWorld {
    /// A world with `hosts` machines and the default configuration.
    pub fn new(hosts: usize) -> Self {
        let mut net = Network::new(failmpi_net::NetConfig::default());
        let all = net.add_hosts(hosts.max(4));
        TestWorld {
            cfg: VclConfig::default(),
            addrs: Addrs {
                dispatcher_host: all[0],
                scheduler_host: all[1],
                server_hosts: vec![all[2]],
                compute_hosts: all[3..].to_vec(),
            },
            net,
            out: Vec::new(),
            trace: TraceLog::new(),
            hooks: Vec::new(),
            cmds: Vec::new(),
            disk: DiskStore::default(),
            rng: SimRng::new(1),
            breakpoints: HashMap::new(),
            traffic: TrafficStats::default(),
            metrics: VclMetrics::default(),
        }
    }

    /// Establishes a real stream between two fresh processes on distinct
    /// hosts; returns (server proc, client proc, conn).
    pub fn connect_pair(&mut self) -> (ProcId, ProcId, failmpi_net::ConnId) {
        let hs = &self.addrs.compute_hosts;
        let server = self.net.spawn_process(hs[0]);
        let client = self.net.spawn_process(hs[1]);
        self.net.listen(server, failmpi_net::Port(9999));
        self.net
            .connect(SimTime::ZERO, client, hs[0], failmpi_net::Port(9999), 0);
        let conn = self
            .net
            .take_events()
            .find_map(|(_, e)| match e {
                failmpi_net::NetEvent::Accepted { conn, .. } => Some(conn),
                _ => None,
            })
            .expect("handshake");
        (server, client, conn)
    }

    /// Borrows a context at `now`.
    pub fn ctx(&mut self, now: SimTime) -> Ctx<'_> {
        Ctx {
            now,
            cfg: &self.cfg,
            addrs: &self.addrs,
            net: &mut self.net,
            out: &mut self.out,
            tracelog: &mut self.trace,
            hooks: &mut self.hooks,
            cmds: &mut self.cmds,
            disk: &mut self.disk,
            rng: &mut self.rng,
            breakpoints: &self.breakpoints,
            traffic: &mut self.traffic,
            metrics: &mut self.metrics,
        }
    }
}
