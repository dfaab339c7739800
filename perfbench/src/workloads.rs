//! The four workloads. Each builds its machine through the public
//! entry points of `semperos`, runs a seeded closed loop against it,
//! checks every reply, and hands back one [`RepOut`].

use semper_base::msg::{Perms, SysReplyData, Syscall};
use semper_base::{CapSel, Code, Error, ExchangeKind, KernelId, KernelMode, MachineConfig, VpeId};
use semper_sim::{FaultPlan, PartitionWindow};
use semperos::{Machine, MicroMachine, Workload};

use crate::capmodel::{CapId, CapModel};
use crate::rep::{finish, Counters, Kind, RepOut, Samples, Scope};
use crate::rng::Rng;
use crate::trace::{Clock, Layer};

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// Seeded capability-operation mix on 4 kernels × 8 VPEs.
    Capops,
    /// Nginx on the paper testbed, fixed request count after warm-up.
    Webserver,
    /// Fill, migrate and tear down large capability tables.
    BulkLifecycle,
    /// `Capops` under a seeded fault plan.
    CapopsFaulted,
}

impl Bench {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Bench; 4] =
        [Bench::Capops, Bench::Webserver, Bench::BulkLifecycle, Bench::CapopsFaulted];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Capops => "capops",
            Bench::Webserver => "webserver",
            Bench::BulkLifecycle => "bulk_lifecycle",
            Bench::CapopsFaulted => "capops_faulted",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Runs one repetition.
    pub fn run(self, seed: u64, scale: Scale, clock: &mut Clock) -> RepOut {
        match self {
            Bench::Capops => capops(seed, scale, false, clock),
            Bench::CapopsFaulted => capops(seed, scale, true, clock),
            Bench::BulkLifecycle => bulk_lifecycle(seed, scale, clock),
            Bench::Webserver => webserver(seed, scale, clock),
        }
    }
}

/// Workload size: `Full` for measurement, `Small` for the benchmark's
/// own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A size that runs in well under a second.
    Small,
}

impl Scale {
    fn pick(self, full: u64, small: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Small => small,
        }
    }
}

/// Capability-operation mix: kernels × VPEs per kernel.
const CAPOPS_KERNELS: u16 = 4;
const CAPOPS_VPES_PER_KERNEL: u16 = 8;
/// Memory size of every `CreateMem`, and of every `DeriveMem`.
const ROOT_SIZE: u64 = 4096;
const DERIVED_SIZE: u64 = 64;
/// Per-VPE table size at which 30 % of operations are revokes.
const HELD_TARGET: u64 = 48;
/// Host-rate windows per measured phase of `capops` and `webserver`.
const WINDOWS: u64 = 8;
/// Cycles each parked kernel phase may wait under a fault plan.
const FAULT_DEADLINE: u64 = 150_000;

/// One generated capability operation.
enum Op {
    Create,
    Derive(CapId),
    Obtain { from: VpeId, cap: CapId },
    Delegate { cap: CapId, to: VpeId },
    Revoke(CapId),
    Batch(Vec<CapId>),
}

/// The closed-loop client of `capops`: one VPE at a time issues one
/// system call and waits for its reply.
struct CapopsGen {
    rng: Rng,
    model: CapModel,
    vpes: Vec<(VpeId, KernelId)>,
    faulted: bool,
}

impl CapopsGen {
    fn group(&self, vpe: VpeId) -> KernelId {
        self.vpes[vpe.idx()].1
    }

    fn any_held(&mut self, vpe: VpeId) -> CapId {
        let held = self.model.held(vpe);
        held[self.rng.below(held.len() as u64) as usize]
    }

    /// A peer of `vpe`: three times in four in another group.
    fn peer(&mut self, vpe: VpeId) -> VpeId {
        let kernels = u64::from(CAPOPS_KERNELS);
        let per = u64::from(CAPOPS_VPES_PER_KERNEL);
        let g = u64::from(self.group(vpe).0);
        let j = u64::from(vpe.0) / kernels;
        let (pg, pj) = if self.rng.chance(750) {
            ((g + 1 + self.rng.below(kernels - 1)) % kernels, self.rng.below(per))
        } else {
            (g, (j + 1 + self.rng.below(per - 1)) % per)
        };
        VpeId((pg + pj * kernels) as u16)
    }

    /// A revoke target: of three held capabilities, the one with the
    /// most children, so revokes hit grown subtrees.
    fn revoke_target(&mut self, vpe: VpeId) -> CapId {
        let mut best = self.any_held(vpe);
        for _ in 0..2 {
            let c = self.any_held(vpe);
            if self.model.get(c).children.len() > self.model.get(best).children.len() {
                best = c;
            }
        }
        best
    }

    fn pick(&mut self, vpe: VpeId) -> Op {
        let held = self.model.held(vpe).len() as u64;
        if held == 0 {
            return Op::Create;
        }
        // Revokes grow likelier as the table fills, which holds each
        // VPE's working set near `HELD_TARGET`.
        let revoke_permille = (300 * held / HELD_TARGET).min(900);
        if self.rng.chance(revoke_permille) {
            return if self.rng.chance(170) {
                self.batch(vpe)
            } else {
                Op::Revoke(self.revoke_target(vpe))
            };
        }
        match self.rng.below(70) {
            0..=11 => Op::Create,
            12..=25 => Op::Derive(self.any_held(vpe)),
            26..=47 => {
                let from = self.peer(vpe);
                if self.model.held(from).is_empty() {
                    Op::Create
                } else {
                    Op::Obtain { from, cap: self.any_held(from) }
                }
            }
            _ => {
                let cap = self.any_held(vpe);
                Op::Delegate { cap, to: self.peer(vpe) }
            }
        }
    }

    /// A batch of two to six revokes of disjoint subtrees, or a single
    /// revoke when the table has no two.
    fn batch(&mut self, vpe: VpeId) -> Op {
        let want = self.rng.range(2, 6) as usize;
        let mut chosen: Vec<CapId> = Vec::with_capacity(want);
        for _ in 0..3 * want {
            let c = self.any_held(vpe);
            let disjoint = chosen
                .iter()
                .all(|&x| !self.model.is_ancestor(x, c) && !self.model.is_ancestor(c, x));
            if disjoint {
                chosen.push(c);
                if chosen.len() == want {
                    break;
                }
            }
        }
        if chosen.len() < 2 {
            Op::Revoke(chosen[0])
        } else {
            Op::Batch(chosen)
        }
    }

    /// Issues one operation; returns the host nanoseconds spent in the
    /// program. `samples` is `None` during set-up.
    fn step(
        &mut self,
        m: &mut Machine,
        clock: &mut Clock,
        out: &mut RepOut,
        samples: Option<&mut Samples>,
    ) -> u64 {
        let vpe = VpeId(self.rng.below(self.vpes.len() as u64) as u16);
        let op = self.pick(vpe);
        let home = self.group(vpe);
        let sel = |c: CapId| self.model.get(c).sel;
        let vpes = &self.vpes;
        let spans = |model: &CapModel, c: CapId| {
            model.subtree(c).iter().any(|&d| vpes[model.get(d).holder.idx()].1 != home)
        };
        let (call, kind) = match &op {
            Op::Create => (Syscall::CreateMem { size: ROOT_SIZE, perms: Perms::RW }, Kind::Create),
            Op::Derive(c) => {
                let slots = self.model.get(*c).size / DERIVED_SIZE;
                let offset = self.rng.below(slots) * DERIVED_SIZE;
                let call = Syscall::DeriveMem {
                    src: sel(*c),
                    offset,
                    size: DERIVED_SIZE,
                    perms: Perms::R,
                };
                (call, Kind::Derive)
            }
            Op::Obtain { from, cap } => (
                Syscall::Exchange {
                    other: *from,
                    own_sel: CapSel::INVALID,
                    other_sel: sel(*cap),
                    kind: ExchangeKind::Obtain,
                },
                self.exchange_kind(vpe, *from),
            ),
            Op::Delegate { cap, to } => (
                Syscall::Exchange {
                    other: *to,
                    own_sel: sel(*cap),
                    other_sel: CapSel::INVALID,
                    kind: ExchangeKind::Delegate,
                },
                self.exchange_kind(vpe, *to),
            ),
            Op::Revoke(c) => {
                let kind =
                    if spans(&self.model, *c) { Kind::RevokeSpanning } else { Kind::RevokeLocal };
                (Syscall::Revoke { sel: sel(*c), own: true }, kind)
            }
            Op::Batch(cs) => {
                let items: Box<[Syscall]> =
                    cs.iter().map(|&c| Syscall::Revoke { sel: sel(c), own: true }).collect();
                (Syscall::Batch(items), Kind::BatchRevoke)
            }
        };
        let ((reply, cycles), mut ns) =
            clock.call(Layer::Kernel, kind.name(), || m.syscall_blocking(vpe, call));
        if let Some(s) = samples {
            s.push(kind, cycles);
        }
        out.attempted += 1;
        let revoke = matches!(op, Op::Revoke(_) | Op::Batch(_));
        if self.faulted && (revoke || reply.result.is_err()) {
            // A failed operation, or a revoke that may have lost a leg,
            // can leave work in flight (the sweep of an aborted revoke,
            // retried or delayed legs); let it finish before the reply is
            // checked against the kernels.
            ns += clock.call(Layer::Sim, "settle", || m.run_until_idle()).1;
        }
        self.apply(m, out, vpe, op, reply.result);
        ns
    }

    fn exchange_kind(&self, a: VpeId, b: VpeId) -> Kind {
        if self.group(a) == self.group(b) {
            Kind::ExchangeLocal
        } else {
            Kind::ExchangeSpanning
        }
    }

    /// Checks a reply against the operation and updates the model.
    fn apply(
        &mut self,
        m: &Machine,
        out: &mut RepOut,
        vpe: VpeId,
        op: Op,
        result: Result<SysReplyData, Error>,
    ) {
        let result = match result {
            Ok(data) => data,
            Err(e) => {
                out.errs += 1;
                // Under a fault plan an operation whose cross-kernel leg
                // was lost is aborted: with `Timeout`, or with `VpeGone`
                // when the abort cancels a wait for a VPE's consent (no
                // VPE exits in this workload). What it left behind is
                // read back from the kernels.
                let aborted = matches!(e.code(), Code::Timeout | Code::VpeGone);
                if !(self.faulted && aborted) {
                    out.reject(format!("{vpe} got {e:?}"));
                }
                self.model = CapModel::from_machine(m, &self.vpes);
                return;
            }
        };
        let mut fresh = |model: &mut CapModel, holder: VpeId, sel: CapSel, parent, size| {
            if model.holds_sel(holder, sel) {
                out.reject(format!("{holder} was handed occupied selector {sel:?}"));
            }
            model.add(holder, sel, parent, size);
        };
        match (op, result) {
            (Op::Create, SysReplyData::Mem { sel, .. }) => {
                fresh(&mut self.model, vpe, sel, None, ROOT_SIZE)
            }
            (Op::Derive(c), SysReplyData::Sel(sel)) => {
                fresh(&mut self.model, vpe, sel, Some(c), DERIVED_SIZE)
            }
            (Op::Obtain { cap, .. }, SysReplyData::Sel(sel)) => {
                let size = self.model.get(cap).size;
                fresh(&mut self.model, vpe, sel, Some(cap), size)
            }
            (Op::Delegate { cap, to }, SysReplyData::Delegated { recv_sel }) => {
                let size = self.model.get(cap).size;
                fresh(&mut self.model, to, recv_sel, Some(cap), size)
            }
            (Op::Revoke(c), SysReplyData::None) => self.revoked(m, out, &[c]),
            (Op::Batch(cs), SysReplyData::Batch(items)) => {
                if items.len() != cs.len() || items.iter().any(|i| i.is_err()) {
                    out.reject(format!("{vpe} batch revoke answered {items:?}"));
                    self.model = CapModel::from_machine(m, &self.vpes);
                } else {
                    self.revoked(m, out, &cs);
                }
            }
            (_, other) => {
                out.reject(format!("{vpe} got unexpected reply {other:?}"));
                self.model = CapModel::from_machine(m, &self.vpes);
            }
        }
    }
}

impl CapopsGen {
    /// Removes revoked subtrees from the model.
    ///
    /// Under a fault plan a revoke whose remote leg timed out still
    /// answers `Ok`: `ops::faults` completes it with the legs that did
    /// answer, and the unreached part of the subtree stays alive. Such
    /// survivors are counted, and the model is read back from the
    /// kernels.
    fn revoked(&mut self, m: &Machine, out: &mut RepOut, roots: &[CapId]) {
        let doomed: Vec<(VpeId, CapSel)> = if self.faulted {
            let caps = roots.iter().flat_map(|&r| self.model.subtree(r));
            caps.map(|c| (self.model.get(c).holder, self.model.get(c).sel)).collect()
        } else {
            Vec::new()
        };
        for &r in roots {
            self.model.revoke(r);
        }
        let survivors = doomed
            .iter()
            .filter(|&&(v, sel)| {
                m.kernel(self.group(v)).table(v).is_some_and(|t| t.get(sel).is_ok())
            })
            .count();
        if survivors > 0 {
            out.revoke_survivors += survivors as u64;
            self.model = CapModel::from_machine(m, &self.vpes);
        }
    }
}

/// Compares the model with the capabilities the kernels hold.
fn check_model(m: &Machine, model: &CapModel, vpes: &[(VpeId, KernelId)], out: &mut RepOut) {
    let held = CapModel::from_machine(m, vpes).canon();
    let want = model.canon();
    if held != want {
        let first = held.iter().zip(&want).position(|(a, b)| a != b).unwrap_or(held.len());
        out.reject(format!(
            "kernels hold {} memory capabilities, the model {}; first difference at {first}: \
             kernels {:?}, model {:?}",
            held.len(),
            want.len(),
            held.get(first),
            want.get(first)
        ));
    }
}

/// `capops` and `capops_faulted`: the Table 3 / Fig 4–5 paths as one
/// seeded mix, one outstanding system call at a time.
fn capops(seed: u64, scale: Scale, faulted: bool, clock: &mut Clock) -> RepOut {
    let mut out = RepOut::default();
    let ops = if faulted { scale.pick(90_000, 3_000) } else { scale.pick(120_000, 3_000) };
    let prefill = scale.pick(48, 8);

    let setup = clock.enter(Layer::Core, "setup");
    let (mut mm, ns) = clock.call(Layer::Core, "build", || {
        MicroMachine::new(CAPOPS_KERNELS, CAPOPS_VPES_PER_KERNEL, KernelMode::SemperOS)
    });
    out.setup_steps.push(("core.build_s", ns as f64 / 1e9));
    let vpes: Vec<(VpeId, KernelId)> = (0..CAPOPS_KERNELS * CAPOPS_VPES_PER_KERNEL)
        .map(|i| (VpeId(i), KernelId(i % CAPOPS_KERNELS)))
        .collect();
    let mut gen = CapopsGen {
        rng: Rng::new(seed, 1),
        model: CapModel::new(vpes.len()),
        vpes: vpes.clone(),
        faulted,
    };
    let m = mm.machine();
    let fill = clock.enter(Layer::Core, "prefill");
    let mut scratch = RepOut::default();
    for _ in 0..prefill * vpes.len() as u64 {
        gen.step(m, clock, &mut scratch, None);
    }
    out.setup_steps.push(("core.prefill_s", clock.exit(fill) as f64 / 1e9));
    if scratch.wrong > 0 {
        out.wrong += scratch.wrong;
        out.problems.extend(scratch.problems);
    }
    if faulted {
        let plan = fault_plan(seed, m.now().0, ops);
        clock.call(Layer::Sim, "set_fault_plan", || m.set_fault_plan(plan, FAULT_DEADLINE));
    }
    clock.exit(setup);

    let before = Counters::read(m);
    let mut samples = Samples::with_capacity(ops as usize);
    let measure = clock.enter(Layer::Core, "measure");
    for i in 1..=ops {
        out.measured_ns += gen.step(m, clock, &mut out, Some(&mut samples));
        if i % (ops / WINDOWS) == 0 && i < ops {
            out.close_window(out.attempted);
        }
    }
    let (_, ns) = clock.call(Layer::Sim, "run_until_idle", || m.run_until_idle());
    out.measured_ns += ns;
    clock.exit(measure);
    let after = Counters::read(m);
    out.units = out.attempted;
    out.close_window(out.units);

    check_model(m, &gen.model, &vpes, &mut out);
    let scope = Scope { vpes: &vpes, table_max: 0, quiescent: faulted };
    finish(m, &mut out, before, after, samples, scope, 0);
    out
}

/// The `capops_faulted` plan: drops, duplicates and delays on every
/// inter-kernel link, plus one one-way partition window placed in the
/// measured phase of about `ops` operations from `now`.
fn fault_plan(seed: u64, now: u64, ops: u64) -> FaultPlan {
    let mut rng = Rng::new(seed, 2);
    let kernels = u64::from(CAPOPS_KERNELS);
    let from = rng.below(kernels);
    let to = (from + 1 + rng.below(kernels - 1)) % kernels;
    // About 3.5k cycles per operation; the window opens somewhere in
    // the first half of the phase.
    let phase = ops * 3_500;
    let start = now + phase / 10 + rng.below(phase * 4 / 10);
    FaultPlan::seeded(rng.next_u64())
        .with_drop(15)
        .with_duplicate(10)
        .with_delay(40, 3_000)
        .with_partition(PartitionWindow {
            from: from as u16,
            to: to as u16,
            start,
            end: start + 400_000,
        })
}

/// `bulk_lifecycle`: rounds that fill one VPE's table with thousands of
/// capabilities, migrate its group around a three-kernel ring and tear
/// it down — alternately as one batched revoke of the whole table and
/// as one revoke of a wide tree whose children span all three kernels.
fn bulk_lifecycle(seed: u64, scale: Scale, clock: &mut Clock) -> RepOut {
    const KERNELS: u16 = 3;
    let mut out = RepOut::default();
    let mut rng = Rng::new(seed, 3);
    let rounds = 4;

    let setup = clock.enter(Layer::Core, "setup");
    let (mut mm, ns) =
        clock.call(Layer::Core, "build", || MicroMachine::new(KERNELS, 2, KernelMode::SemperOS));
    out.setup_steps.push(("core.build_s", ns as f64 / 1e9));
    let m = mm.machine();
    // VPE i starts in group i mod 3; VPE 0 owns the tables that move.
    let mut vpes: Vec<(VpeId, KernelId)> =
        (0..KERNELS * 2).map(|i| (VpeId(i), KernelId(i % KERNELS))).collect();
    let a = VpeId(0);
    let mut model = CapModel::new(vpes.len());
    // The other VPEs start with dense tables of unrelated capabilities,
    // which every delegation into them and every deletion out of them
    // has to get past.
    let fill = clock.enter(Layer::Core, "prefill");
    for &(vpe, _) in &vpes[1..] {
        for _ in 0..scale.pick(384, 16) {
            let call = Syscall::CreateMem { size: ROOT_SIZE, perms: Perms::RW };
            let ((reply, _), _) =
                clock.call(Layer::Kernel, Kind::Create.name(), || m.syscall_blocking(vpe, call));
            match reply.result {
                Ok(SysReplyData::Mem { sel, .. }) => {
                    model.add(vpe, sel, None, ROOT_SIZE);
                }
                other => out.reject(format!("prefill create at {vpe} answered {other:?}")),
            }
        }
    }
    out.setup_steps.push(("core.prefill_s", clock.exit(fill) as f64 / 1e9));
    clock.exit(setup);
    let mut samples = Samples::with_capacity(scale.pick(12_000, 1_000) as usize);
    let mut table_max = 0;

    let before = Counters::read(m);
    let measure = clock.enter(Layer::Core, "measure");
    for round in 0..rounds {
        let wide_tree = round % 2 == 1;
        let mut roots: Vec<CapId> = Vec::new();
        let mut create =
            |m: &mut Machine, clock: &mut Clock, out: &mut RepOut, model: &mut CapModel| {
                let call = Syscall::CreateMem { size: ROOT_SIZE, perms: Perms::RW };
                let ((reply, cycles), ns) =
                    clock.call(Layer::Kernel, Kind::Create.name(), || m.syscall_blocking(a, call));
                out.measured_ns += ns;
                out.attempted += 1;
                samples.push(Kind::Create, cycles);
                match reply.result {
                    Ok(SysReplyData::Mem { sel, .. }) => Some(model.add(a, sel, None, ROOT_SIZE)),
                    other => {
                        out.errs += u64::from(other.is_err());
                        out.reject(format!("create answered {other:?}"));
                        None
                    }
                }
            };
        let mut delegations: Vec<(CapId, VpeId)> = Vec::new();
        if wide_tree {
            if let Some(root) = create(m, clock, &mut out, &mut model) {
                roots.push(root);
                // Each child goes to one of the other five VPEs, which
                // sit in all three groups.
                for _ in 0..scale.pick(2_560, 96) {
                    delegations.push((root, VpeId(1 + rng.below(5) as u16)));
                }
            }
        } else {
            for _ in 0..scale.pick(2_048, 96) {
                if let Some(c) = create(m, clock, &mut out, &mut model) {
                    roots.push(c);
                    if rng.chance(375) {
                        // Another group's VPE: 1, 2, 4 or 5.
                        let to = [1, 2, 4, 5][rng.below(4) as usize];
                        delegations.push((c, VpeId(to)));
                    }
                }
            }
        }
        for (cap, to) in delegations {
            let kind = if vpes[to.idx()].1 == vpes[a.idx()].1 {
                Kind::ExchangeLocal
            } else {
                Kind::ExchangeSpanning
            };
            let call = Syscall::Exchange {
                other: to,
                own_sel: model.get(cap).sel,
                other_sel: CapSel::INVALID,
                kind: ExchangeKind::Delegate,
            };
            let ((reply, cycles), ns) =
                clock.call(Layer::Kernel, kind.name(), || m.syscall_blocking(a, call));
            out.measured_ns += ns;
            out.attempted += 1;
            samples.push(kind, cycles);
            match reply.result {
                Ok(SysReplyData::Delegated { recv_sel }) => {
                    model.add(to, recv_sel, Some(cap), ROOT_SIZE);
                }
                other => {
                    out.errs += u64::from(other.is_err());
                    out.reject(format!("delegate to {to} answered {other:?}"));
                }
            }
        }
        let held = m.kernel(vpes[a.idx()].1).table(a).map_or(0, |t| t.len());
        table_max = table_max.max(held);

        for dst in [1, 2, 0] {
            let dst = KernelId(dst);
            let (res, ns) =
                clock.call(Layer::Kernel, Kind::MigrateHop.name(), || m.migrate_vpe(a, dst));
            out.measured_ns += ns;
            out.attempted += 1;
            match res {
                Ok(cycles) => {
                    samples.push(Kind::MigrateHop, cycles);
                    vpes[a.idx()].1 = dst;
                }
                Err(e) => {
                    out.errs += 1;
                    out.reject(format!("migration of {a} to {dst} failed: {e:?}"));
                }
            }
        }

        let (call, kind) = if wide_tree {
            let sel = roots.first().map_or(CapSel::INVALID, |&r| model.get(r).sel);
            (Syscall::Revoke { sel, own: true }, Kind::RevokeSpanning)
        } else {
            let items: Box<[Syscall]> = roots
                .iter()
                .map(|&r| Syscall::Revoke { sel: model.get(r).sel, own: true })
                .collect();
            (Syscall::Batch(items), Kind::BatchRevoke)
        };
        let ((reply, cycles), ns) =
            clock.call(Layer::Kernel, kind.name(), || m.syscall_blocking(a, call));
        out.measured_ns += ns;
        out.attempted += 1;
        samples.push(kind, cycles);
        let ok = match &reply.result {
            Ok(SysReplyData::None) => wide_tree,
            Ok(SysReplyData::Batch(items)) => {
                !wide_tree && items.len() == roots.len() && items.iter().all(|i| i.is_ok())
            }
            other => {
                out.errs += u64::from(other.is_err());
                false
            }
        };
        if ok {
            for r in roots {
                model.revoke(r);
            }
        } else {
            out.reject(format!("round {round} teardown answered {:?}", reply.result));
        }
        check_model(m, &model, &vpes, &mut out);
    }
    let (_, ns) = clock.call(Layer::Sim, "run_until_idle", || m.run_until_idle());
    out.measured_ns += ns;
    clock.exit(measure);
    let after = Counters::read(m);
    out.units = after.caps_deleted() - before.caps_deleted();
    // One window: the rounds differ in kind, so only whole repetitions
    // compare.
    out.close_window(out.units);
    if !model.held(a).is_empty() {
        out.reject(format!("{} capabilities survived teardown", model.held(a).len()));
    }

    let scope = Scope { vpes: &vpes, table_max, quiescent: false };
    finish(m, &mut out, before, after, samples, scope, 0);
    out
}

/// `webserver`: Fig 10's nginx on the paper testbed — 256 servers, 16
/// load generators with 4 requests outstanding per server — measured
/// from a seeded warm-up point until a fixed number of requests more
/// have completed.
fn webserver(seed: u64, scale: Scale, clock: &mut Clock) -> RepOut {
    let mut out = RepOut::default();
    let mut rng = Rng::new(seed, 4);
    let servers: u16 = 256;
    let loadgens: u16 = 16;
    let target = scale.pick(160_000, 2_000);
    // The seed moves the start of the measured phase within the steady
    // state, and the slice boundaries at which progress is checked.
    let warmup = scale.pick(rng.range(28_000_000, 32_000_000), rng.range(2_000_000, 3_000_000));
    let slice = scale.pick(rng.range(4_000_000, 6_000_000), rng.range(400_000, 600_000));

    let setup = clock.enter(Layer::Core, "setup");
    let cfg = MachineConfig::paper_testbed(32, 32);
    let (mut m, ns) = clock.call(Layer::Core, "build", || {
        Machine::build(cfg, u32::from(servers), loadgens, Workload::Nginx { depth: 4 })
    });
    out.setup_steps.push(("core.build_s", ns as f64 / 1e9));
    let boot = clock.enter(Layer::Core, "boot");
    clock.call(Layer::M3fs, "boot_os", || m.boot_os());
    clock.call(Layer::Apps, "start_nginx", || m.start_nginx());
    out.setup_steps.push(("core.boot_s", clock.exit(boot) as f64 / 1e9));
    let horizon = m.now() + warmup;
    let (_, ns) = clock.call(Layer::Sim, "warmup", || m.advance_until(horizon));
    out.setup_steps.push(("core.warmup_s", ns as f64 / 1e9));
    clock.exit(setup);
    if m.loadgen_completed() == 0 {
        out.reject("no request completed during warm-up".into());
    }

    let before = Counters::read(&m);
    let start = m.loadgen_completed();
    let measure = clock.enter(Layer::Core, "measure");
    let mut horizon = m.now();
    let mut last = start;
    let mut window_end = target / WINDOWS;
    // Whole slices while the target is far, so every slice must show
    // progress; then single events up to the exact completion.
    while m.loadgen_completed() - start + target / 20 < target {
        let (h, ns) = clock.call(Layer::Sim, "advance_until", || m.advance_until(horizon + slice));
        horizon = h;
        out.measured_ns += ns;
        let done = m.loadgen_completed();
        if done == last {
            out.reject(format!("no request completed in the slice ending at {h}"));
            break;
        }
        last = done;
        if done - start >= window_end {
            out.close_window(done - start);
            window_end += target / WINDOWS;
        }
    }
    let (_, ns) = clock
        .call(Layer::Sim, "step", || while m.loadgen_completed() - start < target && m.step() {});
    out.measured_ns += ns;
    clock.exit(measure);
    let after = Counters::read(&m);
    let completed = m.loadgen_completed() - start;
    if completed < target {
        out.reject(format!("only {completed} of {target} requests completed"));
    }
    out.units = completed;
    out.attempted = completed;
    out.close_window(completed);

    let vpes: Vec<(VpeId, KernelId)> = m
        .topo()
        .server_vpes
        .iter()
        .map(|&v| (v, m.topo().kernel_of(m.topo().vpe_dir[v.idx()])))
        .collect();
    let scope = Scope { vpes: &vpes, table_max: 0, quiescent: false };
    finish(&m, &mut out, before, after, Samples::default(), scope, completed);
    out
}
