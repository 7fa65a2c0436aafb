//! The ULFM virtual runtime: a deterministic event machine implementing
//! shrink-and-continue recovery behind [`ProtocolBackend`].

use std::collections::{HashMap, HashSet};

use failmpi_backend::{
    BackendConfig, BackendKind, Hook, InstrumentedFn, ProtocolBackend, TrafficStats, VclEvent,
};
use failmpi_mpi::Rank;
use failmpi_net::{HostId, ProcId};
use failmpi_obs::{Counter, MetricsSnapshot};
use failmpi_sim::{EventId, SimTime, TraceLog};

use crate::event::UlfmEv;

/// Nominal application payload per op (face-exchange analogue).
const OP_APP_BYTES: u64 = 4096;
/// Control bytes per registration handshake.
const INIT_CONTROL_BYTES: u64 = 256;
/// Control bytes per participant per agreement round.
const AGREE_CONTROL_BYTES: u64 = 512;

/// Per-rank state of the ULFM runtime.
#[derive(Clone, Debug)]
struct RankSt {
    proc: ProcId,
    host: HostId,
    /// Process exists (false once halted — there is no relaunch).
    alive: bool,
    /// SIGSTOP'd by the injection layer.
    suspended: bool,
    /// Held at the init breakpoint.
    held: bool,
    /// Init handshake completed.
    registered: bool,
    /// Shrunk out of the communicator by a completed agreement.
    shrunk: bool,
    /// Reached `MPI_Finalize`.
    finished: bool,
    /// Init completion owed after a resume.
    resume_init: bool,
    /// Op-stream restart owed after a resume / recovery completion.
    resume_op: bool,
    /// An `OpDone` event of the current generation is in flight.
    op_in_flight: bool,
    /// Op-stream generation (stale `OpDone`s are ignored).
    gen: u32,
    ops_done: u32,
    ops_total: u32,
}

/// The ULFM-style deployment: `n_ranks` MPI processes on the first
/// `n_ranks` compute hosts, no dispatcher, no spares consumed — a
/// deterministic event machine driven through [`ProtocolBackend`].
pub struct UlfmCluster {
    cfg: BackendConfig,
    seed: u64,
    ranks: Vec<RankSt>,
    started: bool,
    complete: bool,
    recovery_active: bool,
    /// Current agreement round; a further death supersedes the round.
    agree_round: u32,
    /// Agreement blocked on a suspended/held live participant.
    agree_deferred: bool,
    /// Detected-dead ranks awaiting the next completed shrink.
    pending_victims: Vec<u32>,
    epoch: u32,
    out: Vec<(SimTime, UlfmEv)>,
    hooks: Vec<Hook>,
    trace: TraceLog<VclEvent>,
    traffic: TrafficStats,
    breakpoints: HashMap<ProcId, HashSet<InstrumentedFn>>,
    faults_detected: Counter,
    recoveries: Counter,
    shrinks: Counter,
    ranks_shrunk: Counter,
    agree_rounds: Counter,
    ops_redistributed: Counter,
    max_progress: u32,
}

/// Deterministic per-op jitter: splitmix64 finalizer over the op identity.
fn op_jitter_micros(seed: u64, rank: u32, op: u32, gen: u32, cap: u64) -> u64 {
    let mut z = seed
        ^ ((rank as u64) << 40)
        ^ ((gen as u64) << 20)
        ^ (op as u64)
        ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if cap == 0 {
        0
    } else {
        z % cap
    }
}

impl UlfmCluster {
    /// Builds the deployment and schedules the staggered boot ladder.
    /// `ops_per_rank[r]` is rank `r`'s op budget (from its op-program).
    pub fn new(cfg: BackendConfig, ops_per_rank: Vec<u32>, seed: u64) -> UlfmCluster {
        cfg.validate().expect("invalid backend config");
        assert_eq!(ops_per_rank.len(), cfg.n_ranks as usize);
        let mut out = Vec::new();
        let ranks: Vec<RankSt> = (0..cfg.n_ranks)
            .map(|r| {
                out.push((
                    SimTime::ZERO + cfg.boot_delay + cfg.boot_stagger * r as u64,
                    UlfmEv::Boot { rank: r },
                ));
                RankSt {
                    proc: ProcId(r),
                    host: HostId(r as u16),
                    alive: true,
                    suspended: false,
                    held: false,
                    registered: false,
                    shrunk: false,
                    finished: false,
                    resume_init: false,
                    resume_op: false,
                    op_in_flight: false,
                    gen: 0,
                    ops_done: 0,
                    ops_total: ops_per_rank[r as usize],
                }
            })
            .collect();
        let trace = if cfg.record_trace {
            TraceLog::new()
        } else {
            TraceLog::disabled()
        };
        UlfmCluster {
            cfg,
            seed,
            ranks,
            started: false,
            complete: false,
            recovery_active: false,
            agree_round: 0,
            agree_deferred: false,
            pending_victims: Vec::new(),
            epoch: 0,
            out,
            hooks: Vec::new(),
            trace,
            traffic: TrafficStats::default(),
            breakpoints: HashMap::new(),
            faults_detected: Counter::default(),
            recoveries: Counter::default(),
            shrinks: Counter::default(),
            ranks_shrunk: Counter::default(),
            agree_rounds: Counter::default(),
            ops_redistributed: Counter::default(),
            max_progress: 0,
        }
    }

    fn rank_of_proc(&self, proc: ProcId) -> Option<usize> {
        self.ranks.iter().position(|r| r.proc == proc && r.alive)
    }

    /// Live communicator members (alive and not shrunk out).
    fn participants(&self) -> Vec<usize> {
        (0..self.ranks.len())
            .filter(|&i| self.ranks[i].alive && !self.ranks[i].shrunk)
            .collect()
    }

    fn schedule_op(&mut self, now: SimTime, i: usize) {
        let r = &mut self.ranks[i];
        debug_assert!(r.alive && !r.shrunk && !r.finished && !r.op_in_flight);
        r.op_in_flight = true;
        let jitter = op_jitter_micros(
            self.seed,
            i as u32,
            r.ops_done,
            r.gen,
            (self.cfg.op_delay.as_micros() / 8).max(1),
        );
        let delay = self.cfg.op_delay + failmpi_sim::SimDuration::from_micros(jitter);
        let gen = r.gen;
        self.out.push((now + delay, UlfmEv::OpDone { rank: i as u32, gen }));
    }

    fn complete_init(&mut self, now: SimTime, i: usize) {
        let epoch = self.epoch;
        let r = &mut self.ranks[i];
        if r.registered || !r.alive {
            return;
        }
        r.registered = true;
        self.traffic.control_bytes += INIT_CONTROL_BYTES;
        failmpi_obs::prof::copy("ulfm.control", INIT_CONTROL_BYTES);
        self.trace
            .record(now, VclEvent::DaemonRegistered { rank: Rank(i as u32), epoch });
        self.maybe_start(now);
    }

    /// Starts the run once every live member registered and no failure
    /// handling is pending.
    fn maybe_start(&mut self, now: SimTime) {
        if self.started || self.complete || self.recovery_active || !self.pending_victims.is_empty()
        {
            return;
        }
        let parts = self.participants();
        if parts.is_empty() || !parts.iter().all(|&i| self.ranks[i].registered) {
            return;
        }
        self.started = true;
        self.trace.record(now, VclEvent::RunStarted { epoch: self.epoch });
        for i in parts {
            if !self.ranks[i].finished && !self.ranks[i].op_in_flight {
                if self.ranks[i].suspended || self.ranks[i].held {
                    self.ranks[i].resume_op = true;
                } else {
                    self.schedule_op(now, i);
                }
            }
        }
        self.check_complete(now);
    }

    fn finish_rank(&mut self, now: SimTime, i: usize) {
        self.ranks[i].finished = true;
        self.trace
            .record(now, VclEvent::RankFinalized { rank: Rank(i as u32) });
        self.check_complete(now);
    }

    /// Complete ⇔ every rank either finalized or was shrunk away, and at
    /// least one finalized (an all-shrunk fleet froze, it did not finish).
    fn check_complete(&mut self, now: SimTime) {
        if self.complete || !self.started {
            return;
        }
        let all_done = self.ranks.iter().all(|r| r.finished || r.shrunk || !r.alive);
        let all_accounted = self.ranks.iter().all(|r| r.finished || r.shrunk);
        let any = self.ranks.iter().any(|r| r.finished);
        if all_done && all_accounted && any {
            self.complete = true;
            self.trace.record(now, VclEvent::JobComplete);
        }
    }

    /// Schedules the `agree`/`shrink` completion for the current round —
    /// a recursive-doubling exchange over the live membership. Defers if
    /// a live participant cannot respond (SIGSTOP'd or breakpoint-held):
    /// agreement is collective, and a stopped process is alive.
    fn schedule_shrink(&mut self, now: SimTime) {
        let parts = self.participants();
        if parts.is_empty() {
            // Nobody left to agree: the job is permanently silent.
            return;
        }
        if parts
            .iter()
            .any(|&i| self.ranks[i].suspended || self.ranks[i].held)
        {
            self.agree_deferred = true;
            return;
        }
        self.agree_deferred = false;
        let n = parts.len() as u64;
        let rounds = (64 - (n - 1).leading_zeros() as u64).max(1); // ceil(log2 n), >= 1
        self.agree_rounds.add(rounds);
        self.traffic.control_bytes += AGREE_CONTROL_BYTES * n * rounds;
        failmpi_obs::prof::copy("ulfm.agree", AGREE_CONTROL_BYTES * n * rounds);
        let round = self.agree_round;
        self.out
            .push((now + self.cfg.round_delay * rounds, UlfmEv::ShrinkDone { round }));
    }

    fn on_detect(&mut self, now: SimTime, victim: u32) {
        let v = victim as usize;
        if self.ranks[v].alive || self.ranks[v].shrunk {
            return;
        }
        if self.pending_victims.contains(&victim) {
            return;
        }
        self.faults_detected.inc();
        self.trace.record(
            now,
            VclEvent::FailureDetected {
                rank: Rank(victim),
                epoch: self.epoch,
                during_recovery: self.recovery_active,
            },
        );
        self.pending_victims.push(victim);
        if !self.recovery_active {
            self.recovery_active = true;
            self.epoch += 1;
            self.recoveries.inc();
            self.trace.record(now, VclEvent::RecoveryStarted { epoch: self.epoch });
        }
        // A further death supersedes any in-flight agreement round.
        self.agree_round += 1;
        self.schedule_shrink(now);
    }

    fn on_shrink_done(&mut self, now: SimTime, round: u32) {
        if round != self.agree_round || !self.recovery_active {
            return;
        }
        let survivors = self.participants();
        // Redistribute the victims' remaining work round-robin over the
        // survivors (the moldable-application assumption of shrink-based
        // recovery; see DESIGN.md).
        let mut left: u64 = 0;
        for &victim in &self.pending_victims {
            let v = victim as usize;
            self.ranks[v].shrunk = true;
            self.ranks_shrunk.inc();
            left += self.ranks[v].ops_total.saturating_sub(self.ranks[v].ops_done) as u64;
        }
        self.pending_victims.clear();
        self.ops_redistributed.add(left);
        if !survivors.is_empty() {
            let mut idx = 0usize;
            while left > 0 {
                let i = survivors[idx % survivors.len()];
                self.ranks[i].ops_total += 1;
                if self.ranks[i].finished {
                    self.ranks[i].finished = false;
                }
                idx += 1;
                left -= 1;
            }
        }
        self.recovery_active = false;
        self.shrinks.inc();
        if !self.started {
            self.maybe_start(now);
        } else {
            for i in survivors {
                let r = &mut self.ranks[i];
                self.trace.record(
                    now,
                    VclEvent::RankResumed {
                        rank: Rank(i as u32),
                        from_wave: None,
                    },
                );
                if !r.finished && !r.op_in_flight {
                    if r.suspended || r.held {
                        r.resume_op = true;
                    } else {
                        r.gen += 1;
                        self.schedule_op(now, i);
                    }
                }
            }
            self.check_complete(now);
        }
    }
}

impl ProtocolBackend for UlfmCluster {
    type Event = UlfmEv;

    fn kind(&self) -> BackendKind {
        BackendKind::Ulfm
    }

    fn set_event_cause(&mut self, cause: Option<EventId>) {
        self.trace.set_cause(cause);
    }

    fn dispatch(&mut self, now: SimTime, ev: UlfmEv) {
        match ev {
            UlfmEv::Boot { rank } => {
                let i = rank as usize;
                if !self.ranks[i].alive {
                    return;
                }
                let (host, proc) = (self.ranks[i].host, self.ranks[i].proc);
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
                    .push((now + self.cfg.init_delay, UlfmEv::Init { rank }));
            }
            UlfmEv::Init { rank } => {
                let i = rank as usize;
                let r = &self.ranks[i];
                if !r.alive || r.registered {
                    return;
                }
                if r.suspended {
                    self.ranks[i].resume_init = true;
                    return;
                }
                let armed = self
                    .breakpoints
                    .get(&r.proc)
                    .is_some_and(|s| s.contains(&InstrumentedFn::LocalMpiSetCommand));
                if armed {
                    let (host, proc) = (r.host, r.proc);
                    self.ranks[i].held = true;
                    self.hooks.push(Hook::Breakpoint {
                        host,
                        proc,
                        func: InstrumentedFn::LocalMpiSetCommand,
                    });
                    return;
                }
                self.complete_init(now, i);
            }
            UlfmEv::OpDone { rank, gen } => {
                let i = rank as usize;
                {
                    let r = &mut self.ranks[i];
                    if !r.alive || r.shrunk || r.gen != gen {
                        return;
                    }
                    r.op_in_flight = false;
                    if r.suspended || r.held {
                        // SIGSTOP froze the op mid-flight; it completes on
                        // resume with a fresh generation.
                        r.resume_op = true;
                        return;
                    }
                    r.ops_done += 1;
                }
                let iter = self.ranks[i].ops_done;
                self.max_progress = self.max_progress.max(iter);
                self.traffic.app_bytes += OP_APP_BYTES;
                failmpi_obs::prof::copy("ulfm.op", OP_APP_BYTES);
                self.trace
                    .record(now, VclEvent::AppProgress { rank: Rank(rank), iter });
                if self.ranks[i].ops_done >= self.ranks[i].ops_total {
                    self.finish_rank(now, i);
                } else if self.recovery_active {
                    // The next op needs the communicator; blocked until the
                    // shrink completes.
                    self.ranks[i].resume_op = true;
                } else {
                    self.schedule_op(now, i);
                }
            }
            UlfmEv::Detect { victim } => self.on_detect(now, victim),
            UlfmEv::ShrinkDone { round } => self.on_shrink_done(now, round),
        }
    }

    fn take_outputs(&mut self) -> std::vec::Drain<'_, (SimTime, UlfmEv)> {
        self.out.drain(..)
    }

    fn take_hooks(&mut self) -> Vec<Hook> {
        std::mem::take(&mut self.hooks)
    }

    fn is_complete(&self) -> bool {
        self.complete
    }

    fn fail_halt(&mut self, now: SimTime, proc: ProcId) {
        let Some(i) = self.rank_of_proc(proc) else {
            return;
        };
        let r = &mut self.ranks[i];
        r.alive = false;
        r.suspended = false;
        r.held = false;
        r.resume_init = false;
        r.resume_op = false;
        self.out.push((
            now + self.cfg.detect_delay,
            UlfmEv::Detect { victim: i as u32 },
        ));
        // A dead participant no longer blocks a deferred agreement.
        if self.agree_deferred && self.recovery_active {
            self.schedule_shrink(now);
        }
    }

    fn fail_stop(&mut self, _now: SimTime, proc: ProcId) {
        if let Some(i) = self.rank_of_proc(proc) {
            self.ranks[i].suspended = true;
        }
    }

    fn fail_continue(&mut self, now: SimTime, proc: ProcId) {
        let Some(i) = self.rank_of_proc(proc) else {
            return;
        };
        self.ranks[i].suspended = false;
        if self.ranks[i].held {
            self.ranks[i].held = false;
            self.complete_init(now, i);
        }
        if self.ranks[i].resume_init {
            self.ranks[i].resume_init = false;
            self.complete_init(now, i);
        }
        if self.ranks[i].resume_op
            && self.started
            && !self.recovery_active
            && !self.ranks[i].shrunk
            && !self.ranks[i].finished
            && !self.ranks[i].op_in_flight
        {
            self.ranks[i].resume_op = false;
            self.ranks[i].gen += 1;
            self.schedule_op(now, i);
        }
        if self.agree_deferred && self.recovery_active {
            self.schedule_shrink(now);
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
        None // no checkpoint waves in shrink-and-continue
    }

    fn epoch(&self) -> u32 {
        self.epoch
    }

    fn event_track(&self, ev: &UlfmEv) -> u32 {
        match ev {
            UlfmEv::Detect { .. } | UlfmEv::ShrinkDone { .. } => 0,
            UlfmEv::Boot { .. } | UlfmEv::Init { .. } | UlfmEv::OpDone { .. } => 1,
        }
    }

    fn n_tracks(&self) -> u32 {
        2
    }

    fn track_names(&self) -> Vec<String> {
        vec!["ulfm-runtime".to_string(), "ulfm-ranks".to_string()]
    }

    fn describe_event(&self, ev: &UlfmEv) -> String {
        ev.label()
    }

    fn event_kind(&self, ev: &UlfmEv) -> &'static str {
        ev.kind_str()
    }

    fn trace(&self) -> &TraceLog<VclEvent> {
        &self.trace
    }

    fn recoveries_started(&self) -> u64 {
        self.recoveries.get()
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
        snap.set_counter("ulfm.faults_detected", self.faults_detected.get());
        snap.set_counter("ulfm.recoveries", self.recoveries.get());
        snap.set_counter("ulfm.shrinks", self.shrinks.get());
        snap.set_counter("ulfm.ranks_shrunk", self.ranks_shrunk.get());
        snap.set_counter("ulfm.agree_rounds", self.agree_rounds.get());
        snap.set_counter("ulfm.ops_redistributed", self.ops_redistributed.get());
        snap.set_counter("ulfm.max_progress", self.max_progress as u64);
        snap.set_counter("ulfm.epoch", self.epoch as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal deterministic driver: pops the earliest pending event
    /// (stable on ties by insertion order) and dispatches it.
    fn drive(c: &mut UlfmCluster, until: SimTime) -> SimTime {
        let mut queue: Vec<(SimTime, UlfmEv)> = Vec::new();
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

    fn small(n: u32, ops: u32) -> UlfmCluster {
        UlfmCluster::new(BackendConfig::small(n, n as usize + 2), vec![ops; n as usize], 7)
    }

    #[test]
    fn fault_free_run_completes() {
        let mut c = small(3, 4);
        drive(&mut c, SimTime::from_secs(600));
        assert!(c.is_complete());
        assert_eq!(c.max_progress(), 4);
        assert_eq!(c.epoch(), 0);
        assert!(c
            .trace()
            .entries()
            .iter()
            .any(|e| matches!(e.kind, VclEvent::JobComplete)));
    }

    #[test]
    fn single_fault_shrinks_and_survives() {
        let mut c = small(3, 4);
        // Boot everyone, then kill rank 1 mid-run.
        drive(&mut c, SimTime::from_secs(3));
        c.fail_halt(SimTime::from_secs(3), ProcId(1));
        drive(&mut c, SimTime::from_secs(600));
        assert!(c.is_complete(), "survivors absorb the victim's work");
        assert_eq!(c.recoveries_started(), 1);
        assert_eq!(c.epoch(), 1);
        // The victim's remaining ops were redistributed.
        assert!(c.max_progress() > 4);
        assert!(c
            .trace()
            .entries()
            .iter()
            .any(|e| matches!(e.kind, VclEvent::RankResumed { .. })));
    }

    #[test]
    fn killing_everyone_freezes() {
        let mut c = small(2, 4);
        drive(&mut c, SimTime::from_secs(3));
        c.fail_halt(SimTime::from_secs(3), ProcId(0));
        c.fail_halt(SimTime::from_secs(3), ProcId(1));
        drive(&mut c, SimTime::from_secs(600));
        assert!(!c.is_complete(), "no survivors: permanently silent");
        assert_eq!(c.take_outputs().len(), 0, "nothing left scheduled");
    }

    #[test]
    fn suspended_survivor_blocks_agreement_until_resume() {
        let mut c = small(3, 4);
        drive(&mut c, SimTime::from_secs(3));
        c.fail_stop(SimTime::from_secs(3), ProcId(2));
        c.fail_halt(SimTime::from_secs(3), ProcId(1));
        // Detection fires but the shrink cannot be agreed.
        drive(&mut c, SimTime::from_secs(30));
        assert!(c.recovery_active);
        assert!(c.agree_deferred);
        c.fail_continue(SimTime::from_secs(30), ProcId(2));
        drive(&mut c, SimTime::from_secs(600));
        assert!(c.is_complete());
    }

    #[test]
    fn double_run_is_deterministic() {
        let run = || {
            let mut c = small(4, 5);
            drive(&mut c, SimTime::from_secs(4));
            c.fail_halt(SimTime::from_secs(4), ProcId(2));
            let end = drive(&mut c, SimTime::from_secs(600));
            (end, c.max_progress(), c.epoch(), c.trace().len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn breakpoint_holds_init_until_continue() {
        let mut c = small(2, 2);
        c.arm_breakpoint(ProcId(0), InstrumentedFn::LocalMpiSetCommand);
        drive(&mut c, SimTime::from_secs(10));
        assert!(!c.started, "held rank blocks the start barrier");
        c.fail_continue(SimTime::from_secs(10), ProcId(0));
        drive(&mut c, SimTime::from_secs(600));
        assert!(c.is_complete());
    }
}
