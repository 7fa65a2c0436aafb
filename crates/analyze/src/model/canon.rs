//! Machine/rank symmetry: the orbit relation, the static symmetry
//! profile, and the canonical-representative map used to intern one state
//! per orbit.
//!
//! ## The orbit relation
//!
//! The deployment is one group member per machine plus the abstract Vcl's
//! rank table, so a product state has two independent label spaces:
//!
//! * **machine ids** — a member's instance index encodes its machine
//!   (`n_suggested + g * n_hosts + h`), the Vcl stores a host per rank and
//!   a free-host list, and in-flight/inbox message endpoints name member
//!   instances. Machines that no send expression can statically single
//!   out are interchangeable: relabelling them commutes with every
//!   firing rule (automata are per-class, the protocol treats hosts as
//!   opaque — see `AbstractVcl::relabel`).
//! * **rank ids** — ranks appear only in the Vcl table and in the
//!   op-program communication skeleton. When the skeleton is empty or
//!   complete, rank ids are interchangeable the same way.
//!
//! Two states are in the same orbit iff some [`Perm`] maps one onto the
//! other. Interning only the canonical representative shrinks the
//! reachable set by up to the orbit size (`(n_hosts - pinned)! × n_ranks!`
//! in the fully symmetric case) without losing any verdict: a freeze is
//! reachable from a state iff it is reachable from every orbit member, at
//! identical (faults, steps) cost.
//!
//! ## Soundness gate: the symmetry profile
//!
//! [`profile_of`] decides, per scenario, which labels are actually
//! opaque. A machine is **pinned** (excluded from permutation) when any
//! `Send` to a group indexes it through an expression with a known
//! constant range; if a group index is *sometimes* a runtime-known value
//! that the range analysis cannot bound, machine symmetry is switched off
//! entirely. The "never known" proof is a fixpoint over variable
//! definitions (`maybe_known`): the builtins' `FAIL_RANDOM(0, N)` indices
//! stay `Top` forever, so their fan-out is host-uniform and symmetric.
//! Rank symmetry requires the comm skeleton to be empty or complete.
//! Everything here over-approximates asymmetry: a wrongly-pinned host only
//! costs reduction, never correctness.

use std::sync::Arc;

use failmpi_backend::BackendKind;
use failmpi_core::lang::compile::{Action, Class, Dest, Expr, Scenario};
use failmpi_mpichv::AbstractPhase;

use super::explore::{Ctx, InstState, MoveKind, ProdState, VarVal};
use super::ModelCheckConfig;

/// A product-state relabelling: `hosts[h]` is machine `h`'s new id,
/// `ranks[r]` is rank `r`'s new id. Suggested (machine-less) instances
/// are fixed points by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Perm {
    pub(crate) hosts: Vec<u8>,
    pub(crate) ranks: Vec<u8>,
}

impl Perm {
    pub(crate) fn identity(n_hosts: usize, n_ranks: usize) -> Perm {
        Perm {
            hosts: (0..n_hosts as u8).collect(),
            ranks: (0..n_ranks as u8).collect(),
        }
    }

    pub(crate) fn is_identity(&self) -> bool {
        self.hosts.iter().enumerate().all(|(i, &v)| v as usize == i)
            && self.ranks.iter().enumerate().all(|(i, &v)| v as usize == i)
    }

    pub(crate) fn invert(&self) -> Perm {
        let mut hosts = vec![0u8; self.hosts.len()];
        for (i, &v) in self.hosts.iter().enumerate() {
            hosts[v as usize] = i as u8;
        }
        let mut ranks = vec![0u8; self.ranks.len()];
        for (i, &v) in self.ranks.iter().enumerate() {
            ranks[v as usize] = i as u8;
        }
        Perm { hosts, ranks }
    }

    /// `self` then `other`: `(self.then(other))[x] = other[self[x]]`.
    pub(crate) fn then(&self, other: &Perm) -> Perm {
        Perm {
            hosts: self.hosts.iter().map(|&h| other.hosts[h as usize]).collect(),
            ranks: self.ranks.iter().map(|&r| other.ranks[r as usize]).collect(),
        }
    }

    /// Where instance `i` lands: suggested instances are fixed, a group
    /// member follows its machine.
    pub(crate) fn map_inst(&self, ctx: &Ctx, i: usize) -> usize {
        if i < ctx.n_suggested {
            return i;
        }
        let n_hosts = ctx.cfg.n_hosts;
        let g = (i - ctx.n_suggested) / n_hosts;
        let h = (i - ctx.n_suggested) % n_hosts;
        ctx.n_suggested + g * n_hosts + self.hosts[h] as usize
    }

    /// The relabelled product state. An instance moves to its new slot
    /// shared; only one whose inbox names a relabelled sender is copied.
    pub(crate) fn apply_state(&self, ctx: &Ctx, s: &ProdState) -> ProdState {
        let inv = self.invert();
        let insts: Vec<Arc<InstState>> = (0..s.insts.len())
            .map(|i| {
                let old = &s.insts[inv.map_inst(ctx, i)];
                let moved = |from: u8| self.map_inst(ctx, from as usize) != from as usize;
                if !old.inbox.iter().any(|&(from, _)| moved(from)) {
                    return Arc::clone(old);
                }
                let mut st = InstState::clone(old);
                for e in &mut st.inbox {
                    e.0 = self.map_inst(ctx, e.0 as usize) as u8;
                }
                Arc::new(st)
            })
            .collect();
        let mut msgs: Vec<(u8, u8, u8)> = s
            .msgs
            .iter()
            .map(|&(f, t, m)| {
                (
                    self.map_inst(ctx, f as usize) as u8,
                    self.map_inst(ctx, t as usize) as u8,
                    m,
                )
            })
            .collect();
        msgs.sort_unstable();
        ProdState { insts, msgs, proto: s.proto.relabel(&self.hosts, &self.ranks) }
    }

    /// The same structural move in the relabelled frame.
    pub(crate) fn apply_move(&self, ctx: &Ctx, m: &MoveKind) -> MoveKind {
        match m {
            MoveKind::Deliver { from, to, msg } => MoveKind::Deliver {
                from: self.map_inst(ctx, *from as usize) as u8,
                to: self.map_inst(ctx, *to as usize) as u8,
                msg: *msg,
            },
            MoveKind::Register(r) => MoveKind::Register(self.ranks[*r as usize]),
            MoveKind::Ready(r) => MoveKind::Ready(self.ranks[*r as usize]),
            MoveKind::Breakpoint { rank, holder } => MoveKind::Breakpoint {
                rank: self.ranks[*rank as usize],
                holder: self.map_inst(ctx, *holder),
            },
            MoveKind::Spawn(r) => MoveKind::Spawn(self.ranks[*r as usize]),
            MoveKind::StopClosure(r) => MoveKind::StopClosure(self.ranks[*r as usize]),
            MoveKind::Timer { inst, slot } => MoveKind::Timer {
                inst: self.map_inst(ctx, *inst),
                slot: *slot,
            },
            MoveKind::WaveStart => MoveKind::WaveStart,
            MoveKind::WaveCommit => MoveKind::WaveCommit,
        }
    }
}

/// What the scenario's text allows the reducer to permute.
#[derive(Clone, Debug)]
pub(crate) struct SymmetryProfile {
    /// Machines may be relabelled (modulo `pinned`).
    pub(crate) host_sym: bool,
    /// Machines some send can statically single out; fixed points of every
    /// permutation. Indexed by host id.
    pub(crate) pinned: Vec<bool>,
    /// Rank ids may be relabelled.
    pub(crate) rank_sym: bool,
}

/// Computes the symmetry a scenario (plus op-program skeleton) admits.
pub(crate) fn profile_of(
    sc: &Scenario,
    params: &[i64],
    cfg: &ModelCheckConfig,
    comm_peers: &[Vec<u32>],
) -> SymmetryProfile {
    let n_hosts = cfg.n_hosts;
    let mut pinned = vec![false; n_hosts];
    let mut host_sym = true;
    let mks: Vec<Vec<bool>> = sc.classes.iter().map(|c| class_maybe_known(c, params)).collect();
    for (c, class) in sc.classes.iter().enumerate() {
        for node in &class.nodes {
            for tr in &node.transitions {
                for a in &tr.actions {
                    let Action::Send { dest: Dest::Group(_, idx), .. } = a else {
                        continue;
                    };
                    match idx.const_range(params) {
                        Some((l, h)) => {
                            let lo = l.max(0);
                            let hi = h.min(n_hosts as i64 - 1);
                            if lo <= 0 && hi >= n_hosts as i64 - 1 {
                                // Whole-group fan-out: host-uniform.
                            } else {
                                for p in lo..=hi.max(lo - 1) {
                                    pinned[p as usize] = true;
                                }
                            }
                        }
                        None => {
                            // Unbounded index: symmetric only if it can
                            // never evaluate to a Known host id (then the
                            // send always fans out to the whole group).
                            if expr_maybe_known(idx, &mks[c], params) {
                                host_sym = false;
                            }
                        }
                    }
                }
            }
        }
    }

    // Replica slots are not interchangeable with primary slots (the unit
    // space is heterogeneous), so rank symmetry only applies to the
    // rank-per-unit backends.
    let rank_sym = cfg.backend != BackendKind::Replica
        && cfg.n_ranks >= 2
        && (comm_peers.is_empty()
            || (comm_peers.len() >= cfg.n_ranks
                && (0..cfg.n_ranks).all(|r| comm_peers[r].len() == cfg.n_ranks - 1)));

    SymmetryProfile { host_sym, pinned, rank_sym }
}

/// Fixpoint over a class's variable definitions: `true` means the slot
/// might ever hold a [`VarVal::Known`] value in some reachable state.
fn class_maybe_known(class: &Class, params: &[i64]) -> Vec<bool> {
    let n = class.var_names.len();
    let mut mk = vec![false; n];
    // Initial values: slots the class never initializes start Known(0);
    // initialized slots start at their init expression's abstraction.
    let mut covered = vec![false; n];
    for (slot, _) in &class.var_init {
        covered[*slot] = true;
    }
    if let Some(node0) = class.nodes.first() {
        for (slot, _) in &node0.always {
            covered[*slot] = true;
        }
    }
    for (i, c) in covered.iter().enumerate() {
        if !c {
            mk[i] = true;
        }
    }
    // Probes write Known values directly.
    for (_, slot) in &class.probes {
        mk[*slot] = true;
    }
    loop {
        let mut changed = false;
        let visit = |slot: usize, e: &Expr, mk: &mut Vec<bool>| {
            if !mk[slot] && expr_maybe_known(e, mk, params) {
                mk[slot] = true;
                true
            } else {
                false
            }
        };
        for (slot, e) in &class.var_init {
            changed |= visit(*slot, e, &mut mk);
        }
        for node in &class.nodes {
            for (slot, e) in &node.always {
                changed |= visit(*slot, e, &mut mk);
            }
            for tr in &node.transitions {
                for a in &tr.actions {
                    if let Action::Assign(slot, e) = a {
                        changed |= visit(*slot, e, &mut mk);
                    }
                }
            }
        }
        if !changed {
            return mk;
        }
    }
}

/// Whether `e` can evaluate to [`VarVal::Known`] under `mk`'s slot facts
/// (mirrors [`Ctx::eval`]'s Known-propagation, over-approximated).
fn expr_maybe_known(e: &Expr, mk: &[bool], params: &[i64]) -> bool {
    if e.fold_const(params).is_some() {
        return true;
    }
    match e {
        Expr::Int(_) | Expr::Param(_) => true,
        Expr::Var(i) => mk[*i],
        Expr::Rand(..) => matches!(e.const_range(params), Some((l, h)) if l == h),
        Expr::Bin(_, a, b) => {
            expr_maybe_known(a, mk, params) && expr_maybe_known(b, mk, params)
        }
        Expr::Neg(a) => expr_maybe_known(a, mk, params),
    }
}

// ---------------------------------------------------------------------------
// Canonicalization
// ---------------------------------------------------------------------------
//
// Each unpinned machine gets an orbit key: everything observable about it
// in one state, with other-machine identities abstracted away so the key
// is invariant under permutations of the *other* unpinned machines.
// Imperfect tie-breaking is sound — it only merges fewer orbits. As a
// tuple the key reads
//
//   (members, proto, msgs, ranks)
//
// * `members` — per group, the member's (node, vars, abstracted inbox,
//   armed, controlled, suspended); inbox senders become (tag,
//   id-or-group, same-machine, msg) quadruples;
// * `proto` — the backend's view: hosted (phase, incarnation) multiset
//   plus the free-list slot;
// * `msgs` — in-flight messages touching this machine, endpoints
//   abstracted, sorted;
// * `ranks` — rank ids hosted here, only when ranks are NOT symmetric
//   (when they are, rank identity is erased by the rank pass instead).
//
// The key is never built as a tuple. `put_*` below write it into one
// byte buffer whose memcmp order is the tuple's derived `Ord`, so hosts
// sort by (bytes, host) without cloning a field. The encoding is
// prefix-free field by field: a sequence writes 1 before each element
// and 0 after the last (so a proper prefix sorts first), integers are
// big-endian (signed ones with the sign bit flipped), and an enum writes
// its declaration-order tag before its payload. Prefix-free,
// order-preserving field encodings concatenate into one of the tuple, so
// the sort — and therefore every orbit representative — is exactly the
// tuple sort's.

/// A sequence of fixed-width elements: 1 before each, 0 after the last.
fn put_seq<const N: usize>(buf: &mut Vec<u8>, items: impl IntoIterator<Item = [u8; N]>) {
    for e in items {
        buf.push(1);
        buf.extend_from_slice(&e);
    }
    buf.push(0);
}

/// `Known` before `Top`; a `Known` value big-endian with its sign bit
/// flipped, so negative values sort first.
fn var_code(v: VarVal) -> [u8; 9] {
    let (tag, x) = match v {
        VarVal::Known(x) => (0, (x as u64) ^ (1 << 63)),
        VarVal::Top => (1, 0),
    };
    let mut out = [tag; 9];
    out[1..].copy_from_slice(&x.to_be_bytes());
    out
}

/// One group member: (node, vars, inbox, armed, controlled, suspended).
fn put_member(buf: &mut Vec<u8>, st: &InstState, inbox: impl Iterator<Item = [u8; 4]>) {
    buf.extend_from_slice(&st.node.to_be_bytes());
    put_seq(buf, st.vars.iter().map(|&v| var_code(v)));
    put_seq(buf, inbox);
    put_seq(buf, st.armed.iter().map(|&a| [u8::from(a)]));
    buf.extend_from_slice(&[u8::from(st.controlled), u8::from(st.suspended)]);
}

/// The backend's per-machine view: (hosted (phase, incarnation), free slot).
fn put_proto(buf: &mut Vec<u8>, hosted: &[(AbstractPhase, u8)], free: Option<usize>) {
    put_seq(buf, hosted.iter().map(|&(phase, inc)| [phase as u8, inc]));
    match free {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            buf.extend_from_slice(&(x as u64).to_be_bytes());
        }
    }
}

fn endpoint_code(ctx: &Ctx, i: usize, h: usize) -> (u8, u8) {
    if i < ctx.n_suggested {
        (0, i as u8)
    } else {
        let g = (i - ctx.n_suggested) / ctx.cfg.n_hosts;
        let at = (i - ctx.n_suggested) % ctx.cfg.n_hosts;
        if at == h {
            (1, g as u8)
        } else {
            (2, g as u8)
        }
    }
}

/// Appends machine `h`'s orbit key to `buf`; `msgs` is scratch space.
fn put_host_key(
    buf: &mut Vec<u8>,
    msgs: &mut Vec<[u8; 5]>,
    ctx: &Ctx,
    s: &ProdState,
    h: usize,
    rank_sym: bool,
) {
    for g in 0..ctx.n_groups {
        let st = &s.insts[ctx.n_suggested + g * ctx.cfg.n_hosts + h];
        let inbox = st.inbox.iter().map(|&(from, msg)| {
            let (tag, idx) = endpoint_code(ctx, from as usize, h);
            [tag, idx, u8::from(tag == 1), msg]
        });
        buf.push(1);
        put_member(buf, st, inbox);
    }
    buf.push(0);
    let (hosted, free) = s.proto.host_key(h as u8);
    put_proto(buf, &hosted, free);
    msgs.clear();
    for &(f, t, m) in &s.msgs {
        let fc = endpoint_code(ctx, f as usize, h);
        let tc = endpoint_code(ctx, t as usize, h);
        if fc.0 == 1 || tc.0 == 1 {
            msgs.push([fc.0, fc.1, tc.0, tc.1, m]);
        }
    }
    msgs.sort_unstable();
    put_seq(buf, msgs.iter().copied());
    let n_ranks = if rank_sym { 0 } else { s.proto.n_units() };
    put_seq(buf, (0..n_ranks).filter(|&r| s.proto.unit(r).host as usize == h).map(|r| [r as u8]));
}

/// The permutation that maps `s` onto its canonical orbit representative
/// (`perm.apply_state(ctx, s)`). Unpinned machines are sorted by orbit
/// key and renamed to the unpinned labels in ascending order; rank slots
/// are then sorted by (phase, relabelled host, incarnation). Any
/// deterministic sort yields a sound representative — it is some member
/// of the orbit — and determinism makes the interned set canonical.
pub(crate) fn canonicalize(ctx: &Ctx, s: &ProdState) -> Perm {
    let n_hosts = ctx.cfg.n_hosts;
    let n_units = ctx.cfg.n_units();
    let prof = &ctx.profile;

    let mut host_map: Vec<u8> = (0..n_hosts as u8).collect();
    if prof.host_sym {
        let unpinned: Vec<usize> = (0..n_hosts).filter(|&h| !prof.pinned[h]).collect();
        if unpinned.len() > 1 {
            let mut buf = Vec::with_capacity(unpinned.len() * 64);
            let mut msgs = Vec::new();
            // (key start, key end, host)
            let mut keyed: Vec<(usize, usize, usize)> = Vec::with_capacity(unpinned.len());
            for &h in &unpinned {
                let start = buf.len();
                put_host_key(&mut buf, &mut msgs, ctx, s, h, prof.rank_sym);
                keyed.push((start, buf.len(), h));
            }
            keyed.sort_unstable_by(|a, b| buf[a.0..a.1].cmp(&buf[b.0..b.1]).then(a.2.cmp(&b.2)));
            for (slot, &(_, _, h)) in keyed.iter().enumerate() {
                host_map[h] = unpinned[slot] as u8;
            }
        }
    }

    let mut rank_map: Vec<u8> = (0..n_units as u8).collect();
    if prof.rank_sym {
        let mut keyed: Vec<((AbstractPhase, u8, u8), usize)> = (0..n_units)
            .map(|r| {
                let rk = s.proto.unit(r);
                ((rk.phase, host_map[rk.host as usize], rk.incarnation), r)
            })
            .collect();
        keyed.sort_unstable();
        for (new_id, (_, r)) in keyed.iter().enumerate() {
            rank_map[*r] = new_id as u8;
        }
    }

    Perm { hosts: host_map, ranks: rank_map }
}

/// Test hook behind [`ModelCheckConfig::permute_seed`]: a seeded shuffle of
/// the symmetric label spaces. The result is a genuine orbit member of
/// whatever state it is applied to, so with `--reduce` the verdict and the
/// witness (faults, steps) cost must not change — the canonicalization
/// property test's lever.
pub(crate) fn seeded_perm(ctx: &Ctx, seed: u64) -> Perm {
    let mut perm = Perm::identity(ctx.cfg.n_hosts, ctx.cfg.n_units());
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    if ctx.profile.host_sym {
        let unpinned: Vec<usize> =
            (0..ctx.cfg.n_hosts).filter(|&h| !ctx.profile.pinned[h]).collect();
        if unpinned.len() > 1 {
            let mut order = unpinned.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, (next() as usize) % (i + 1));
            }
            for (slot, &h) in order.iter().enumerate() {
                perm.hosts[h] = unpinned[slot] as u8;
            }
        }
    }
    if ctx.profile.rank_sym && ctx.cfg.n_units() > 1 {
        let mut order: Vec<usize> = (0..ctx.cfg.n_units()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (next() as usize) % (i + 1));
        }
        for (slot, &r) in order.iter().enumerate() {
            perm.ranks[r] = slot as u8;
        }
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The orbit key as the tuple it encodes. Its derived `Ord` is the
    /// reference order the byte encoding must reproduce.
    type MemberKey = (u16, Vec<VarVal>, Vec<(u8, u8, u8, u8)>, Vec<bool>, bool, bool);
    type HostKey = (
        Vec<MemberKey>,
        (Vec<(AbstractPhase, u8)>, Option<usize>),
        Vec<(u8, u8, u8, u8, u8)>,
        Vec<u8>,
    );

    fn encode(k: &HostKey) -> Vec<u8> {
        let mut buf = Vec::new();
        for (node, vars, inbox, armed, controlled, suspended) in &k.0 {
            let st = InstState {
                node: *node,
                vars: vars.clone(),
                inbox: Vec::new(),
                armed: armed.clone(),
                controlled: *controlled,
                suspended: *suspended,
            };
            buf.push(1);
            put_member(&mut buf, &st, inbox.iter().map(|&(a, b, c, d)| [a, b, c, d]));
        }
        buf.push(0);
        put_proto(&mut buf, &k.1 .0, k.1 .1);
        put_seq(&mut buf, k.2.iter().map(|&(a, b, c, d, e)| [a, b, c, d, e]));
        put_seq(&mut buf, k.3.iter().map(|&r| [r]));
        buf
    }

    fn assert_same_order(a: &HostKey, b: &HostKey) {
        assert_eq!(a.cmp(b), encode(a).cmp(&encode(b)), "{a:?} vs {b:?}");
        assert_eq!(b.cmp(a), encode(b).cmp(&encode(a)), "{b:?} vs {a:?}");
    }

    fn base() -> HostKey {
        (
            vec![(1, vec![VarVal::Known(0)], vec![(1, 0, 1, 2)], vec![true], true, false)],
            (vec![(AbstractPhase::Running, 0)], None),
            vec![(1, 0, 2, 0, 1)],
            vec![3],
        )
    }

    #[test]
    fn encoding_orders_edge_cases_like_the_tuple() {
        let var = |v: Vec<VarVal>| {
            let mut k = base();
            k.0[0].1 = v;
            k
        };
        use VarVal::{Known, Top};
        // Negative and positive Known values, and Top above every one.
        for (a, b) in [
            (Known(-1), Known(1)),
            (Known(i64::MIN), Known(-1)),
            (Known(-64), Known(0)),
            (Known(1), Known(256)),
            (Known(i64::MAX), Top),
            (Known(i64::MIN), Top),
        ] {
            assert_same_order(&var(vec![a]), &var(vec![b]));
        }
        // Unequal lengths: a proper prefix sorts first, a larger element
        // wins over a longer tail.
        assert_same_order(&var(vec![Known(0)]), &var(vec![Known(0), Known(0)]));
        assert_same_order(&var(vec![Known(1)]), &var(vec![Known(0), Top]));
        assert_same_order(&var(vec![]), &var(vec![Known(i64::MIN)]));
        let mut long_inbox = base();
        long_inbox.0[0].2.push((0, 0, 0, 0));
        assert_same_order(&base(), &long_inbox);
        let mut no_inbox = base();
        no_inbox.0[0].2.clear();
        assert_same_order(&no_inbox, &base());
        let mut more_msgs = base();
        more_msgs.2.insert(0, (0, 0, 0, 0, 0));
        assert_same_order(&base(), &more_msgs);
        let mut fewer_msgs = base();
        fewer_msgs.2.clear();
        assert_same_order(&fewer_msgs, &base());
        // None vs Some free-host slot, and Some ordered by slot.
        let free = |f| {
            let mut k = base();
            k.1 .1 = f;
            k
        };
        assert_same_order(&free(None), &free(Some(0)));
        assert_same_order(&free(Some(1)), &free(Some(256)));
        // Equal keys encode to equal bytes.
        assert_eq!(encode(&base()), encode(&base()));
        assert_eq!(encode(&var(vec![Top, Known(-3)])), encode(&var(vec![Top, Known(-3)])));
    }

    #[test]
    fn encoding_orders_random_keys_like_the_tuple() {
        // Small value domains so that many pairs tie on long prefixes.
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let vars = [
            VarVal::Known(i64::MIN),
            VarVal::Known(-65),
            VarVal::Known(-1),
            VarVal::Known(0),
            VarVal::Known(1),
            VarVal::Known(64),
            VarVal::Known(i64::MAX),
            VarVal::Top,
        ];
        let phases = [
            AbstractPhase::Launched,
            AbstractPhase::Booted,
            AbstractPhase::Registered,
            AbstractPhase::Ready,
            AbstractPhase::Running,
            AbstractPhase::Stopping,
            AbstractPhase::Lost,
            AbstractPhase::Done,
        ];
        let small = [0u8, 1, 255];
        let mut keys: Vec<HostKey> = Vec::new();
        for _ in 0..400 {
            let members = (0..next(3))
                .map(|_| {
                    (
                        [0u16, 1, 255, 256][next(4)],
                        (0..next(4)).map(|_| vars[next(vars.len())]).collect(),
                        (0..next(3))
                            .map(|_| {
                                (small[next(3)], small[next(3)], small[next(2)], small[next(3)])
                            })
                            .collect(),
                        (0..next(3)).map(|_| next(2) == 1).collect(),
                        next(2) == 1,
                        next(2) == 1,
                    )
                })
                .collect();
            let hosted =
                (0..next(3)).map(|_| (phases[next(phases.len())], small[next(3)])).collect();
            let free = [None, Some(0), Some(1), Some(300)][next(4)];
            let msgs = (0..next(3))
                .map(|_| {
                    (small[next(3)], small[next(3)], small[next(3)], small[next(3)], small[next(3)])
                })
                .collect();
            let ranks = (0..next(3)).map(|_| small[next(3)]).collect();
            keys.push((members, (hosted, free), msgs, ranks));
        }
        let encoded: Vec<Vec<u8>> = keys.iter().map(encode).collect();
        let mut ties = 0;
        for (a, ea) in keys.iter().zip(&encoded) {
            for (b, eb) in keys.iter().zip(&encoded) {
                assert_eq!(a.cmp(b), ea.cmp(eb), "{a:?} vs {b:?}");
                ties += usize::from(a == b);
            }
        }
        assert!(ties > keys.len(), "the sample should contain equal keys");
    }
}
