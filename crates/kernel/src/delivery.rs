//! The fault-delivery core: one set of rules for inter-kernel traffic
//! under a [`FaultPlan`], shared by both drivers.
//!
//! The multikernel keeps its guarantees only if every kernel sees the
//! same message rules, so the fault policy exists once, here. The
//! untimed [`TestCluster`](crate::harness::TestCluster) and the timed
//! `Machine` of the `semperos` crate both keep a [`FaultCore`] and call
//! it at the same points of their delivery loop:
//!
//! 1. **Arming** ([`FaultCore::arm`]): every kernel runs fault-tolerant
//!    with per-pending-op deadlines and gets its scripted crash points.
//! 2. **Dead islands** ([`FaultCore::admit`]): traffic addressed to a
//!    crashed kernel vanishes. A lost request returns its sender's DTU
//!    credit only if the sender is alive — a dead kernel must not
//!    flush its credit-stalled queue.
//! 3. **Verdicts** ([`FaultCore::admit`]): the plan's drop, duplicate
//!    and delay verdicts apply only to `Kcall` and `KReply` messages
//!    between two kernel islands; kernel↔VPE traffic is never faulted.
//! 4. **Crashes** ([`FaultCore::settle`]): when a crash point fires
//!    inside a handler, that handler's output is discarded and every
//!    survivor runs `peer_down`, in kernel-id order.
//! 5. **Deadline polls** ([`FaultCore::poll`]) run over the survivors
//!    in kernel-id order; a crash on an abort path takes that island
//!    down, its poll output discarded like a crashed handler's.
//! 6. **Quiet network** ([`FaultCore::next_deadline`]): the driver's
//!    clock jumps to the earliest deadline of any surviving kernel.
//! 7. **Quiescence** ([`assert_quiescent`]): every surviving kernel
//!    passes `check_quiescent`.
//!
//! [`FaultHost`] hides what differs: kernel lookup, injection and the
//! clock. Every time the core handles — a verdict's `now`, a
//! [`NetVerdict::Delay`] width, a
//! [`PartitionWindow`](semper_sim::PartitionWindow)'s bounds, a
//! deadline budget — counts FIFO steps in `TestCluster` (one per
//! `step`) and NoC cycles in `Machine`.

use std::collections::BTreeSet;

use semper_base::msg::Payload;
use semper_base::{KernelId, Msg, PeId};
use semper_sim::{FaultPlan, FaultStats, NetVerdict};

use crate::kernel::Kernel;
use crate::outbox::Outbox;

/// What a driver exposes to the fault core. Times are on its clock.
pub trait FaultHost {
    /// Number of kernels; their ids are `0..kernel_count()`.
    fn kernel_count(&self) -> u16;
    /// The kernel running on `pe`, if `pe` is a kernel PE.
    fn kernel_on(&self, pe: PeId) -> Option<KernelId>;
    /// The kernel with id `k`.
    fn kernel(&self, k: KernelId) -> &Kernel;
    /// The kernel with id `k`, mutably.
    fn kernel_mut(&mut self, k: KernelId) -> &mut Kernel;
    /// Injects kernel output leaving at time `at`, draining `out`.
    fn inject(&mut self, out: &mut Outbox, at: u64);
    /// Puts `msg` back on the wire to arrive at `at`: now for a
    /// duplicate, later for a delayed message.
    fn redeliver(&mut self, msg: Msg, at: u64);
}

/// How a kernel handler's run ended under the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settled {
    /// A crash point fired inside it: the driver discards its output.
    Crashed,
    /// The message was consumed.
    Consumed {
        /// Return the sender's credit.
        credit: bool,
    },
}

/// The armed fault plan and the islands it took down.
#[derive(Debug)]
pub struct FaultCore {
    plan: FaultPlan,
    dead: BTreeSet<KernelId>,
}

/// The dead set of a driver without a plan.
static NONE_DEAD: BTreeSet<KernelId> = BTreeSet::new();

/// Kernels taken down by scripted crashes (none without a plan).
pub fn dead_kernels(core: Option<&FaultCore>) -> &BTreeSet<KernelId> {
    core.map_or(&NONE_DEAD, |c| &c.dead)
}

/// Asserts that every surviving kernel passes `check_quiescent` (rule 7).
pub fn assert_quiescent(host: &impl FaultHost, dead: &BTreeSet<KernelId>) {
    for k in (0..host.kernel_count()).map(KernelId).filter(|k| !dead.contains(k)) {
        host.kernel(k).check_quiescent().unwrap_or_else(|e| panic!("not quiescent: {e}"));
    }
}

impl FaultCore {
    /// Arms `plan` on every kernel of `host`, with deadlines of
    /// `deadline_budget` clock ticks (rule 1).
    pub fn arm(host: &mut impl FaultHost, plan: FaultPlan, deadline_budget: u64) -> FaultCore {
        for k in (0..host.kernel_count()).map(KernelId) {
            let kernel = host.kernel_mut(k);
            kernel.enable_fault_injection(deadline_budget);
            let points = plan.crash_points(k.0);
            if !points.is_empty() {
                kernel.arm_crash_points(points);
            }
        }
        FaultCore { plan, dead: BTreeSet::new() }
    }

    /// The plan's NoC-level fault counters.
    pub fn stats(&self) -> &FaultStats {
        self.plan.stats()
    }

    /// Decides the fate of one message arriving at `now` (rules 2 and
    /// 3): true when the driver should dispatch it normally.
    pub fn admit(&mut self, host: &mut impl FaultHost, msg: &Msg, now: u64) -> bool {
        let to = host.kernel_on(msg.dst);
        if to.is_some_and(|k| self.dead.contains(&k)) {
            self.lose(host, msg, now);
            return false;
        }
        let (Some(from), Some(to)) = (host.kernel_on(msg.src), to) else {
            return true;
        };
        if !matches!(msg.payload, Payload::Kcall(_) | Payload::KReply(_)) {
            return true;
        }
        match self.plan.verdict(from.0, to.0, now) {
            NetVerdict::Deliver => true,
            NetVerdict::Drop => {
                self.lose(host, msg, now);
                false
            }
            NetVerdict::Duplicate => {
                host.redeliver(msg.clone(), now);
                true
            }
            NetVerdict::Delay(d) => {
                host.redeliver(msg.clone(), now + d);
                false
            }
        }
    }

    /// A request lost after the wire counts as consumed, so a live
    /// sender's queue towards the peer keeps draining.
    fn lose(&self, host: &mut impl FaultHost, msg: &Msg, at: u64) {
        if !matches!(msg.payload, Payload::Kcall(_)) {
            return;
        }
        let (Some(from), Some(to)) = (host.kernel_on(msg.src), host.kernel_on(msg.dst)) else {
            return;
        };
        if self.dead.contains(&from) {
            return;
        }
        let mut out = Outbox::new();
        host.kernel_mut(from).return_credit(&mut out, to);
        host.inject(&mut out, at);
    }

    /// Settles a kernel handler that just ran for `msg`, ending at `at`
    /// (rules 2 and 4).
    pub fn settle(&mut self, host: &mut impl FaultHost, msg: &Msg, at: u64) -> Settled {
        if let Some(k) = host.kernel_on(msg.dst) {
            if host.kernel(k).crashed() {
                self.kernel_down(host, k, at);
                return Settled::Crashed;
            }
        }
        let credit = host.kernel_on(msg.src).is_none_or(|k| !self.dead.contains(&k));
        Settled::Consumed { credit }
    }

    /// Runs the survivors' deadline polls at `at` (rule 5).
    pub fn poll(&mut self, host: &mut impl FaultHost, at: u64) {
        for k in (0..host.kernel_count()).map(KernelId) {
            if self.dead.contains(&k) {
                continue;
            }
            let mut out = Outbox::new();
            let kernel = host.kernel_mut(k);
            kernel.poll_faults(at, &mut out);
            if kernel.crashed() {
                self.kernel_down(host, k, at);
                continue;
            }
            host.inject(&mut out, at);
        }
    }

    /// The earliest armed deadline of any survivor (rule 6).
    pub fn next_deadline(&self, host: &impl FaultHost) -> Option<u64> {
        (0..host.kernel_count())
            .map(KernelId)
            .filter(|k| !self.dead.contains(k))
            .filter_map(|k| host.kernel(k).next_fault_deadline())
            .min()
    }

    /// Takes a crashed kernel's island down; every survivor runs peer
    /// death detection, in kernel-id order.
    fn kernel_down(&mut self, host: &mut impl FaultHost, dead: KernelId, at: u64) {
        self.dead.insert(dead);
        for k in (0..host.kernel_count()).map(KernelId) {
            if self.dead.contains(&k) {
                continue;
            }
            let mut out = Outbox::new();
            host.kernel_mut(k).peer_down(dead, &mut out);
            host.inject(&mut out, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semper_base::msg::{Kcall, Perms, SysReplyData, Syscall};
    use semper_base::{CapType, DdlKey, OpId, VpeId};
    use semper_sim::PartitionWindow;

    use crate::harness::TestCluster;

    /// A driver-free host: kernels in a `Vec`, injected and re-delivered
    /// messages recorded with their times.
    struct Net {
        kernels: Vec<Kernel>,
        injected: Vec<(Msg, u64)>,
        redelivered: Vec<(Msg, u64)>,
    }

    impl FaultHost for Net {
        fn kernel_count(&self) -> u16 {
            self.kernels.len() as u16
        }
        fn kernel_on(&self, pe: PeId) -> Option<KernelId> {
            self.kernels.iter().find(|k| k.pe() == pe).map(|k| k.id())
        }
        fn kernel(&self, k: KernelId) -> &Kernel {
            &self.kernels[k.idx()]
        }
        fn kernel_mut(&mut self, k: KernelId) -> &mut Kernel {
            &mut self.kernels[k.idx()]
        }
        fn inject(&mut self, out: &mut Outbox, at: u64) {
            self.injected.extend(out.drain().into_iter().map(|(m, _)| (m, at)));
        }
        fn redeliver(&mut self, msg: Msg, at: u64) {
            self.redelivered.push((msg, at));
        }
    }

    /// Two kernels with one VPE each, armed with `plan`. Kernel 0 has
    /// spent every credit towards kernel 1 and holds one more request
    /// stalled behind them, so a returned credit shows up as that
    /// request being injected.
    fn net(plan: FaultPlan) -> (Net, FaultCore) {
        let kernels = std::mem::take(&mut TestCluster::new(2, 1).kernels);
        let mut net = Net { kernels, injected: Vec::new(), redelivered: Vec::new() };
        let core = FaultCore::arm(&mut net, plan, 64);
        let window = net.kernels[0].cfg.max_inflight;
        let mut out = Outbox::new();
        for i in 0..=window {
            let call = Kcall::RevokeReq { op: OpId(i as u64), cap_key: key() };
            net.kernels[0].send_kcall(&mut out, KernelId(1), call);
        }
        assert_eq!(out.drain().len(), window as usize, "one request stalls on credit");
        (net, core)
    }

    fn key() -> DdlKey {
        DdlKey::new(PeId(3), VpeId(1), CapType::Memory, 7)
    }

    fn kcall(net: &Net, from: usize, to: usize) -> Msg {
        let call = Kcall::RevokeReq { op: OpId(99), cap_key: key() };
        Msg::new(net.kernels[from].pe(), net.kernels[to].pe(), Payload::kcall(call))
    }

    /// A plan whose random stream drops, duplicates or delays every
    /// message, per the permille rates given.
    fn always(drop: u64, dup: u64, delay: u64) -> FaultPlan {
        FaultPlan::seeded(1).with_drop(drop).with_duplicate(dup).with_delay(delay, 5)
    }

    fn cut_0_to_1() -> FaultPlan {
        FaultPlan::empty().with_partition(PartitionWindow { from: 0, to: 1, start: 0, end: 100 })
    }

    #[test]
    fn dead_destination_swallows_and_credits_live_sender() {
        let (mut net, mut core) = net(FaultPlan::empty());
        core.dead.insert(KernelId(1));
        let msg = kcall(&net, 0, 1);
        assert!(!core.admit(&mut net, &msg, 10));
        // The freed slot released kernel 0's stalled request.
        assert_eq!(net.injected.len(), 1);
        assert_eq!(net.injected[0].1, 10);
        assert_eq!(core.stats().injected, 0, "a dead island is not a plan verdict");
    }

    #[test]
    fn drop_credits_a_live_sender() {
        let (mut net, mut core) = net(cut_0_to_1());
        let msg = kcall(&net, 0, 1);
        assert!(!core.admit(&mut net, &msg, 10));
        assert_eq!(core.stats().partitioned, 1);
        assert_eq!(net.injected.len(), 1, "the stalled request leaves on the freed credit");
        assert!(net.redelivered.is_empty());
    }

    #[test]
    fn drop_never_credits_a_dead_sender() {
        let (mut net, mut core) = net(cut_0_to_1());
        core.dead.insert(KernelId(0));
        let msg = kcall(&net, 0, 1);
        assert!(!core.admit(&mut net, &msg, 10));
        assert!(net.injected.is_empty(), "a dead kernel flushed its stalled queue");
        // The same holds when a dead sender's request is consumed.
        assert_eq!(core.settle(&mut net, &msg, 12), Settled::Consumed { credit: false });
    }

    #[test]
    fn duplicate_delivers_now_and_once_more() {
        let (mut net, mut core) = net(always(0, 1000, 0));
        let msg = kcall(&net, 0, 1);
        assert!(core.admit(&mut net, &msg, 10));
        assert_eq!(net.redelivered, vec![(msg, 10)]);
        assert_eq!(core.stats().duplicated, 1);
    }

    #[test]
    fn delay_redelivers_later_only() {
        let (mut net, mut core) = net(always(0, 0, 1000));
        let msg = kcall(&net, 1, 0);
        assert!(!core.admit(&mut net, &msg, 10));
        let [(copy, at)] = net.redelivered.as_slice() else { panic!("one delayed copy") };
        assert_eq!(copy, &msg);
        assert!((11..=15).contains(at), "delay of 1..=5 ticks, got release at {at}");
        assert!(net.injected.is_empty(), "a delayed request keeps its credit");
    }

    #[test]
    fn kernel_vpe_traffic_is_never_faulted() {
        let (mut net, mut core) = net(always(1000, 0, 0));
        let vpe_pe = PeId(1);
        let k0 = net.kernels[0].pe();
        let call = Syscall::CreateMem { size: 64, perms: Perms::RW };
        let up = Msg::new(vpe_pe, k0, Payload::sys(1, call));
        assert!(core.admit(&mut net, &up, 10));
        let down = Msg::new(k0, vpe_pe, Payload::sys_reply(1, Ok(SysReplyData::None)));
        assert!(core.admit(&mut net, &down, 10));
        assert_eq!(core.stats().injected, 0);
        // Kernel-to-kernel traffic under the same plan is dropped.
        let msg = kcall(&net, 0, 1);
        assert!(!core.admit(&mut net, &msg, 10));
        assert_eq!(core.stats().dropped, 1);
    }

    #[test]
    fn crash_in_handler_downs_the_island_and_skips_it_afterwards() {
        let (mut net, mut core) = net(FaultPlan::empty());
        net.kernels[1].fault.crashed = true;
        let msg = kcall(&net, 0, 1);
        assert_eq!(core.settle(&mut net, &msg, 20), Settled::Crashed);
        assert!(dead_kernels(Some(&core)).contains(&KernelId(1)));
        // Kernel 0 ran peer death: its stalled request towards the
        // corpse is gone, so it is quiescent again.
        assert!(net.kernels[0].check_quiescent().is_ok());
        assert_eq!(core.next_deadline(&net), None);
        assert!(!core.admit(&mut net, &msg, 21), "traffic to the corpse vanishes");
        assert_quiescent(&net, dead_kernels(Some(&core)));
    }
}
