//! The replication runtime: primaries compute, replicas shadow their
//! state, a primary's death promotes its replica — a deterministic event
//! machine behind [`ProtocolBackend`].

use std::collections::{HashMap, HashSet};

use failmpi_backend::{
    BackendConfig, BackendKind, Hook, InstrumentedFn, ProtocolBackend, TrafficStats, VclEvent,
};
use failmpi_mpi::Rank;
use failmpi_net::{HostId, ProcId};
use failmpi_obs::{Counter, MetricsSnapshot};
use failmpi_sim::{EventId, SimDuration, SimTime, TraceLog};

use crate::event::ReplEv;

/// Nominal application payload per op.
const OP_APP_BYTES: u64 = 4096;
/// State-shadowing bytes per op while a rank is protected.
const OP_SYNC_BYTES: u64 = 2048;
/// Control bytes per registration handshake.
const INIT_CONTROL_BYTES: u64 = 256;
/// Control bytes per promotion handshake.
const PROMOTE_CONTROL_BYTES: u64 = 1024;

/// Per-process (unit) state: units `0..n_ranks` are primaries, unit
/// `n_ranks + j` is the replica shadowing rank `j`.
#[derive(Clone, Debug)]
struct UnitSt {
    proc: ProcId,
    host: HostId,
    alive: bool,
    suspended: bool,
    held: bool,
    registered: bool,
    resume_init: bool,
}

/// Per-rank execution state (replicas shadow it; only the executor runs).
#[derive(Clone, Debug)]
struct RankSt {
    /// Unit currently executing the rank (primary, or its promoted
    /// replica).
    exec_unit: u32,
    /// Whether the rank's replica was consumed by a promotion (or never
    /// existed).
    replica_spent: bool,
    /// Permanently lost: executor dead with no usable replica.
    lost: bool,
    /// A promotion handshake is in flight.
    promoting: bool,
    /// Promotion owed once the replica finishes registering.
    promote_wait: bool,
    /// Promotion generation (stale `PromoteDone`s are ignored).
    promote_gen: u32,
    finished: bool,
    resume_op: bool,
    op_in_flight: bool,
    gen: u32,
    ops_done: u32,
    ops_total: u32,
}

/// The replicated deployment: `n_ranks` primaries on hosts `0..n_ranks`,
/// replicas for ranks `0..n_replicas` on the spare hosts, where
/// `n_replicas = min(n_ranks, n_hosts − n_ranks)` — partial replication
/// exactly like PartRePer-MPI when spares are scarce.
pub struct ReplicaCluster {
    cfg: BackendConfig,
    seed: u64,
    units: Vec<UnitSt>,
    ranks: Vec<RankSt>,
    n_replicas: u32,
    started: bool,
    complete: bool,
    epoch: u32,
    out: Vec<(SimTime, ReplEv)>,
    hooks: Vec<Hook>,
    trace: TraceLog<VclEvent>,
    traffic: TrafficStats,
    breakpoints: HashMap<ProcId, HashSet<InstrumentedFn>>,
    faults_detected: Counter,
    promotions: Counter,
    ranks_lost: Counter,
    replicas_lost: Counter,
    max_progress: u32,
}

/// Deterministic per-op jitter (same finalizer as the ULFM runtime, with
/// a different stream constant).
fn op_jitter_micros(seed: u64, rank: u32, op: u32, gen: u32, cap: u64) -> u64 {
    let mut z = seed
        ^ ((rank as u64) << 40)
        ^ ((gen as u64) << 20)
        ^ (op as u64)
        ^ 0xd1b5_4a32_d192_ed03;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if cap == 0 {
        0
    } else {
        z % cap
    }
}

impl ReplicaCluster {
    /// Builds the deployment and schedules the staggered boot ladder
    /// (primaries first, then replicas).
    pub fn new(cfg: BackendConfig, ops_per_rank: Vec<u32>, seed: u64) -> ReplicaCluster {
        cfg.validate().expect("invalid backend config");
        assert_eq!(ops_per_rank.len(), cfg.n_ranks as usize);
        let n_ranks = cfg.n_ranks;
        let n_replicas = (cfg.n_compute_hosts as u32).saturating_sub(n_ranks).min(n_ranks);
        let n_units = n_ranks + n_replicas;
        let mut out = Vec::new();
        let units: Vec<UnitSt> = (0..n_units)
            .map(|u| {
                out.push((
                    SimTime::ZERO + cfg.boot_delay + cfg.boot_stagger * u as u64,
                    ReplEv::Boot { unit: u },
                ));
                UnitSt {
                    proc: ProcId(u),
                    host: HostId(u as u16),
                    alive: true,
                    suspended: false,
                    held: false,
                    registered: false,
                    resume_init: false,
                }
            })
            .collect();
        let ranks: Vec<RankSt> = (0..n_ranks)
            .map(|r| RankSt {
                exec_unit: r,
                replica_spent: r >= n_replicas,
                lost: false,
                promoting: false,
                promote_wait: false,
                promote_gen: 0,
                finished: false,
                resume_op: false,
                op_in_flight: false,
                gen: 0,
                ops_done: 0,
                ops_total: ops_per_rank[r as usize],
            })
            .collect();
        let trace = if cfg.record_trace {
            TraceLog::new()
        } else {
            TraceLog::disabled()
        };
        ReplicaCluster {
            cfg,
            seed,
            units,
            ranks,
            n_replicas,
            started: false,
            complete: false,
            epoch: 0,
            out,
            hooks: Vec::new(),
            trace,
            traffic: TrafficStats::default(),
            breakpoints: HashMap::new(),
            faults_detected: Counter::default(),
            promotions: Counter::default(),
            ranks_lost: Counter::default(),
            replicas_lost: Counter::default(),
            max_progress: 0,
        }
    }

    fn n_ranks(&self) -> u32 {
        self.ranks.len() as u32
    }

    fn unit_of_proc(&self, proc: ProcId) -> Option<usize> {
        self.units.iter().position(|u| u.proc == proc && u.alive)
    }

    /// The replica unit shadowing `rank`, if it exists at all.
    fn replica_unit(&self, rank: u32) -> Option<u32> {
        (rank < self.n_replicas).then_some(self.n_ranks() + rank)
    }

    /// Whether `rank` is currently protected: an unspent, live, registered
    /// replica stands by.
    fn rank_protected(&self, rank: u32) -> bool {
        if self.ranks[rank as usize].replica_spent {
            return false;
        }
        self.replica_unit(rank)
            .is_some_and(|ru| self.units[ru as usize].alive && self.units[ru as usize].registered)
    }

    fn schedule_op(&mut self, now: SimTime, r: usize) {
        let st = &mut self.ranks[r];
        debug_assert!(!st.lost && !st.finished && !st.op_in_flight);
        st.op_in_flight = true;
        let jitter = op_jitter_micros(
            self.seed,
            r as u32,
            st.ops_done,
            st.gen,
            (self.cfg.op_delay.as_micros() / 8).max(1),
        );
        let delay = self.cfg.op_delay + SimDuration::from_micros(jitter);
        let gen = st.gen;
        self.out.push((now + delay, ReplEv::OpDone { rank: r as u32, gen }));
    }

    fn complete_init(&mut self, now: SimTime, u: usize) {
        let epoch = self.epoch;
        if self.units[u].registered || !self.units[u].alive {
            return;
        }
        self.units[u].registered = true;
        self.traffic.control_bytes += INIT_CONTROL_BYTES;
        failmpi_obs::prof::copy("replica.control", INIT_CONTROL_BYTES);
        // Replicas register under the rank they shadow.
        let rank = if (u as u32) < self.n_ranks() {
            u as u32
        } else {
            u as u32 - self.n_ranks()
        };
        self.trace
            .record(now, VclEvent::DaemonRegistered { rank: Rank(rank), epoch });
        // A promotion may have been waiting for this replica to finish
        // booting.
        if (u as u32) >= self.n_ranks() {
            let r = (u as u32 - self.n_ranks()) as usize;
            if self.ranks[r].promote_wait {
                self.ranks[r].promote_wait = false;
                self.begin_promotion(now, r as u32);
            }
        }
        self.maybe_start(now);
    }

    fn maybe_start(&mut self, now: SimTime) {
        if self.started || self.complete {
            return;
        }
        let pending = self
            .units
            .iter()
            .any(|u| u.alive && !u.registered);
        if pending || self.ranks.iter().any(|r| r.promoting || r.promote_wait) {
            return;
        }
        if self.ranks.iter().all(|r| r.lost) {
            return;
        }
        self.started = true;
        self.trace.record(now, VclEvent::RunStarted { epoch: self.epoch });
        for r in 0..self.ranks.len() {
            if self.ranks[r].lost || self.ranks[r].finished || self.ranks[r].op_in_flight {
                continue;
            }
            let eu = self.ranks[r].exec_unit as usize;
            if self.units[eu].suspended || self.units[eu].held {
                self.ranks[r].resume_op = true;
            } else {
                self.schedule_op(now, r);
            }
        }
    }

    fn check_complete(&mut self, now: SimTime) {
        if self.complete || !self.started {
            return;
        }
        // A lost rank can never finalize: the job only completes when
        // every rank finished.
        if self.ranks.iter().all(|r| r.finished) {
            self.complete = true;
            self.trace.record(now, VclEvent::JobComplete);
        }
    }

    fn begin_promotion(&mut self, now: SimTime, rank: u32) {
        let r = rank as usize;
        let Some(ru) = self.replica_unit(rank) else {
            return self.lose_rank(rank);
        };
        if self.ranks[r].replica_spent || !self.units[ru as usize].alive {
            return self.lose_rank(rank);
        }
        if !self.units[ru as usize].registered {
            // The replica is still booting; promote once it registers.
            self.ranks[r].promote_wait = true;
            return;
        }
        self.ranks[r].promoting = true;
        self.ranks[r].promote_gen += 1;
        self.epoch += 1;
        self.promotions.inc();
        self.traffic.control_bytes += PROMOTE_CONTROL_BYTES;
        failmpi_obs::prof::copy("replica.promote", PROMOTE_CONTROL_BYTES);
        self.trace.record(now, VclEvent::RecoveryStarted { epoch: self.epoch });
        let gen = self.ranks[r].promote_gen;
        self.out.push((
            now + self.cfg.round_delay * 2,
            ReplEv::PromoteDone { rank, gen },
        ));
    }

    fn lose_rank(&mut self, rank: u32) {
        let r = rank as usize;
        if !self.ranks[r].lost {
            self.ranks[r].lost = true;
            self.ranks[r].promoting = false;
            self.ranks[r].promote_wait = false;
            self.ranks_lost.inc();
        }
    }

    fn on_detect(&mut self, now: SimTime, unit: u32) {
        let u = unit as usize;
        if self.units[u].alive {
            return;
        }
        let n = self.n_ranks();
        if unit < n {
            // Primary process death. If the rank was already failed over
            // to its replica, the dead primary is just a corpse.
            let r = unit as usize;
            if self.ranks[r].exec_unit != unit || self.ranks[r].lost || self.ranks[r].finished {
                return;
            }
            self.faults_detected.inc();
            self.trace.record(
                now,
                VclEvent::FailureDetected {
                    rank: Rank(unit),
                    epoch: self.epoch,
                    during_recovery: self.ranks[r].promoting,
                },
            );
            self.begin_promotion(now, unit);
        } else {
            let r = (unit - n) as usize;
            self.faults_detected.inc();
            self.replicas_lost.inc();
            self.trace.record(
                now,
                VclEvent::FailureDetected {
                    rank: Rank(r as u32),
                    epoch: self.epoch,
                    during_recovery: self.ranks[r].promoting,
                },
            );
            if self.ranks[r].exec_unit == unit {
                // The dead replica had been promoted to executor: the rank
                // has no further stand-in.
                self.lose_rank(r as u32);
            } else if self.ranks[r].promoting || self.ranks[r].promote_wait {
                // Replica died mid-promotion: the pair is gone.
                self.lose_rank(r as u32);
            } else {
                // Shadow lost; the rank merely becomes unprotected.
                self.ranks[r].replica_spent = true;
            }
        }
        self.maybe_start(now);
    }

    fn on_promote_done(&mut self, now: SimTime, rank: u32, gen: u32) {
        let r = rank as usize;
        if self.ranks[r].lost || !self.ranks[r].promoting || self.ranks[r].promote_gen != gen {
            return;
        }
        let ru = self.replica_unit(rank).expect("promotion without replica");
        if !self.units[ru as usize].alive {
            return self.lose_rank(rank);
        }
        self.ranks[r].promoting = false;
        self.ranks[r].replica_spent = true;
        self.ranks[r].exec_unit = ru;
        // The shadow had the primary's state: computation resumes at the
        // current op, no rollback (`from_wave` meaningless here).
        self.trace.record(
            now,
            VclEvent::RankResumed {
                rank: Rank(rank),
                from_wave: None,
            },
        );
        if self.started && !self.ranks[r].finished && !self.ranks[r].op_in_flight {
            let eu = ru as usize;
            if self.units[eu].suspended || self.units[eu].held {
                self.ranks[r].resume_op = true;
            } else {
                self.ranks[r].gen += 1;
                self.schedule_op(now, r);
            }
        }
        self.maybe_start(now);
    }
}

impl ProtocolBackend for ReplicaCluster {
    type Event = ReplEv;

    fn kind(&self) -> BackendKind {
        BackendKind::Replica
    }

    fn set_event_cause(&mut self, cause: Option<EventId>) {
        self.trace.set_cause(cause);
    }

    fn dispatch(&mut self, now: SimTime, ev: ReplEv) {
        match ev {
            ReplEv::Boot { unit } => {
                let u = unit as usize;
                if !self.units[u].alive {
                    return;
                }
                let (host, proc) = (self.units[u].host, self.units[u].proc);
                let n = self.n_ranks();
                let rank = if unit < n { unit } else { unit - n };
                self.trace.record(
                    now,
                    VclEvent::DaemonSpawned {
                        rank: Rank(rank),
                        epoch: 0,
                        host,
                    },
                );
                self.hooks.push(Hook::OnLoad { host, proc });
                self.out
                    .push((now + self.cfg.init_delay, ReplEv::Init { unit }));
            }
            ReplEv::Init { unit } => {
                let u = unit as usize;
                let st = &self.units[u];
                if !st.alive || st.registered {
                    return;
                }
                if st.suspended {
                    self.units[u].resume_init = true;
                    return;
                }
                let armed = self
                    .breakpoints
                    .get(&st.proc)
                    .is_some_and(|s| s.contains(&InstrumentedFn::LocalMpiSetCommand));
                if armed {
                    let (host, proc) = (st.host, st.proc);
                    self.units[u].held = true;
                    self.hooks.push(Hook::Breakpoint {
                        host,
                        proc,
                        func: InstrumentedFn::LocalMpiSetCommand,
                    });
                    return;
                }
                self.complete_init(now, u);
            }
            ReplEv::OpDone { rank, gen } => {
                let r = rank as usize;
                let eu = self.ranks[r].exec_unit as usize;
                {
                    let st = &mut self.ranks[r];
                    if st.lost || st.gen != gen {
                        return;
                    }
                    st.op_in_flight = false;
                }
                if !self.units[eu].alive {
                    return; // the executor died under this op
                }
                if self.units[eu].suspended || self.units[eu].held {
                    self.ranks[r].resume_op = true;
                    return;
                }
                self.ranks[r].ops_done += 1;
                let iter = self.ranks[r].ops_done;
                self.max_progress = self.max_progress.max(iter);
                self.traffic.app_bytes += OP_APP_BYTES;
                failmpi_obs::prof::copy("replica.op", OP_APP_BYTES);
                if self.rank_protected(rank) {
                    // State shadowing: the primary streams its post-op
                    // state to the replica.
                    self.traffic.ckpt_bytes += OP_SYNC_BYTES;
                    failmpi_obs::prof::copy("replica.sync", OP_SYNC_BYTES);
                }
                self.trace
                    .record(now, VclEvent::AppProgress { rank: Rank(rank), iter });
                if self.ranks[r].ops_done >= self.ranks[r].ops_total {
                    self.ranks[r].finished = true;
                    self.trace
                        .record(now, VclEvent::RankFinalized { rank: Rank(rank) });
                    self.check_complete(now);
                } else if self.ranks[r].promoting {
                    self.ranks[r].resume_op = true;
                } else {
                    self.schedule_op(now, r);
                }
            }
            ReplEv::Detect { unit } => self.on_detect(now, unit),
            ReplEv::PromoteDone { rank, gen } => self.on_promote_done(now, rank, gen),
        }
    }

    fn take_outputs(&mut self) -> std::vec::Drain<'_, (SimTime, ReplEv)> {
        self.out.drain(..)
    }

    fn take_hooks(&mut self) -> Vec<Hook> {
        std::mem::take(&mut self.hooks)
    }

    fn is_complete(&self) -> bool {
        self.complete
    }

    fn fail_halt(&mut self, now: SimTime, proc: ProcId) {
        let Some(u) = self.unit_of_proc(proc) else {
            return;
        };
        let st = &mut self.units[u];
        st.alive = false;
        st.suspended = false;
        st.held = false;
        st.resume_init = false;
        self.out.push((
            now + self.cfg.detect_delay,
            ReplEv::Detect { unit: u as u32 },
        ));
    }

    fn fail_stop(&mut self, _now: SimTime, proc: ProcId) {
        if let Some(u) = self.unit_of_proc(proc) {
            self.units[u].suspended = true;
        }
    }

    fn fail_continue(&mut self, now: SimTime, proc: ProcId) {
        let Some(u) = self.unit_of_proc(proc) else {
            return;
        };
        self.units[u].suspended = false;
        if self.units[u].held {
            self.units[u].held = false;
            self.complete_init(now, u);
        }
        if self.units[u].resume_init {
            self.units[u].resume_init = false;
            self.complete_init(now, u);
        }
        // Resume the op stream of the rank this unit executes, if owed.
        for r in 0..self.ranks.len() {
            if self.ranks[r].exec_unit as usize == u
                && self.ranks[r].resume_op
                && self.started
                && !self.ranks[r].lost
                && !self.ranks[r].promoting
                && !self.ranks[r].finished
                && !self.ranks[r].op_in_flight
            {
                self.ranks[r].resume_op = false;
                self.ranks[r].gen += 1;
                self.schedule_op(now, r);
            }
        }
    }

    fn arm_breakpoint(&mut self, proc: ProcId, func: InstrumentedFn) {
        self.breakpoints.entry(proc).or_default().insert(func);
    }

    fn clear_breakpoints(&mut self, proc: ProcId) {
        self.breakpoints.remove(&proc);
    }

    fn compute_host(&self, i: usize) -> HostId {
        HostId(i as u16)
    }

    fn n_compute_hosts(&self) -> usize {
        self.cfg.n_compute_hosts
    }

    fn committed_wave(&self) -> Option<u32> {
        None // replication never checkpoints
    }

    fn epoch(&self) -> u32 {
        self.epoch
    }

    fn event_track(&self, ev: &ReplEv) -> u32 {
        match ev {
            ReplEv::Detect { .. } | ReplEv::PromoteDone { .. } => 0,
            ReplEv::Boot { .. } | ReplEv::Init { .. } | ReplEv::OpDone { .. } => 1,
        }
    }

    fn n_tracks(&self) -> u32 {
        2
    }

    fn track_names(&self) -> Vec<String> {
        vec!["replica-runtime".to_string(), "replica-ranks".to_string()]
    }

    fn describe_event(&self, ev: &ReplEv) -> String {
        ev.label()
    }

    fn event_kind(&self, ev: &ReplEv) -> &'static str {
        ev.kind_str()
    }

    fn trace(&self) -> &TraceLog<VclEvent> {
        &self.trace
    }

    fn recoveries_started(&self) -> u64 {
        self.promotions.get()
    }

    fn waves_committed(&self) -> u64 {
        0
    }

    fn max_progress(&self) -> u32 {
        self.max_progress
    }

    fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    fn contribute_metrics(&self, snap: &mut MetricsSnapshot) {
        snap.set_counter("replica.faults_detected", self.faults_detected.get());
        snap.set_counter("replica.promotions", self.promotions.get());
        snap.set_counter("replica.ranks_lost", self.ranks_lost.get());
        snap.set_counter("replica.replicas_lost", self.replicas_lost.get());
        snap.set_counter("replica.n_replicas", self.n_replicas as u64);
        snap.set_counter("replica.max_progress", self.max_progress as u64);
        snap.set_counter("replica.epoch", self.epoch as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(c: &mut ReplicaCluster, until: SimTime) -> SimTime {
        let mut queue: Vec<(SimTime, ReplEv)> = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            queue.extend(c.take_outputs());
            c.take_hooks();
            let Some(best) = queue
                .iter()
                .enumerate()
                .min_by_key(|(i, (t, _))| (*t, *i))
                .map(|(i, _)| i)
            else {
                return now;
            };
            let (t, ev) = queue.remove(best);
            if t > until {
                // Park undelivered events back in the outbox so a later
                // drive() picks them up.
                c.out.push((t, ev));
                c.out.append(&mut queue);
                return now;
            }
            now = t.max(now);
            c.dispatch(now, ev);
        }
    }

    /// 3 ranks on 5 hosts → replicas shadow ranks 0 and 1; rank 2 is
    /// unprotected.
    fn partial() -> ReplicaCluster {
        ReplicaCluster::new(BackendConfig::small(3, 5), vec![4; 3], 11)
    }

    #[test]
    fn fault_free_run_completes_with_sync_traffic() {
        let mut c = partial();
        drive(&mut c, SimTime::from_secs(600));
        assert!(c.is_complete());
        assert_eq!(c.epoch(), 0);
        assert!(c.traffic().ckpt_bytes > 0, "protected ranks shadow state");
    }

    #[test]
    fn protected_primary_death_is_masked_by_promotion() {
        let mut c = partial();
        drive(&mut c, SimTime::from_secs(3));
        c.fail_halt(SimTime::from_secs(3), ProcId(0));
        drive(&mut c, SimTime::from_secs(600));
        assert!(c.is_complete(), "the replica takes over mid-stream");
        assert_eq!(c.recoveries_started(), 1);
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.ranks[0].exec_unit, 3, "rank 0 now runs on its replica");
    }

    #[test]
    fn unprotected_primary_death_freezes() {
        let mut c = partial();
        drive(&mut c, SimTime::from_secs(3));
        c.fail_halt(SimTime::from_secs(3), ProcId(2));
        drive(&mut c, SimTime::from_secs(600));
        assert!(!c.is_complete(), "rank 2 has no replica: permanently lost");
        assert_eq!(c.ranks_lost.get(), 1);
    }

    #[test]
    fn primary_plus_replica_pair_death_freezes() {
        let mut c = partial();
        drive(&mut c, SimTime::from_secs(3));
        c.fail_halt(SimTime::from_secs(3), ProcId(0));
        c.fail_halt(SimTime::from_secs(3), ProcId(3));
        drive(&mut c, SimTime::from_secs(600));
        assert!(!c.is_complete(), "replication masks one fault, not the pair");
    }

    #[test]
    fn replica_death_alone_is_harmless_but_unprotects() {
        let mut c = partial();
        drive(&mut c, SimTime::from_secs(3));
        c.fail_halt(SimTime::from_secs(3), ProcId(4));
        drive(&mut c, SimTime::from_secs(600));
        assert!(c.is_complete());
        assert_eq!(c.recoveries_started(), 0);
        // ... but a later primary death can no longer be masked.
        let mut c = partial();
        drive(&mut c, SimTime::from_secs(3));
        c.fail_halt(SimTime::from_secs(3), ProcId(4));
        drive(&mut c, SimTime::from_secs(4));
        c.fail_halt(SimTime::from_secs(4), ProcId(1));
        drive(&mut c, SimTime::from_secs(600));
        assert!(!c.is_complete());
    }

    #[test]
    fn double_run_is_deterministic() {
        let run = || {
            let mut c = partial();
            drive(&mut c, SimTime::from_secs(3));
            c.fail_halt(SimTime::from_secs(3), ProcId(0));
            let end = drive(&mut c, SimTime::from_secs(600));
            (end, c.max_progress(), c.epoch(), c.trace().len())
        };
        assert_eq!(run(), run());
    }
}
