//! Workspace integration tests: the full machine, end to end.

use semper_apps::AppKind;
use semper_base::msg::{ExchangeKind, Perms, SysReplyData, Syscall};
use semper_base::{CapSel, KernelMode, MachineConfig};
use semperos::experiment::{parallel_efficiency, run_app_instances, run_nginx, MicroMachine};

#[test]
fn table3_shapes_hold() {
    let ex_local = MicroMachine::new(2, 2, KernelMode::SemperOS).measure_exchange_local();
    let ex_span = MicroMachine::new(2, 2, KernelMode::SemperOS).measure_exchange_spanning();
    let rv_local = MicroMachine::new(2, 2, KernelMode::SemperOS).measure_revoke_local();
    let rv_span = MicroMachine::new(2, 2, KernelMode::SemperOS).measure_revoke_spanning();
    let m3_ex = MicroMachine::new(1, 2, KernelMode::M3).measure_exchange_local();
    let m3_rv = MicroMachine::new(1, 2, KernelMode::M3).measure_revoke_local();

    // Paper Table 3 anchors, with a 10% tolerance band.
    let within =
        |measured: u64, paper: u64| (measured as f64 - paper as f64).abs() / paper as f64 <= 0.10;
    assert!(within(ex_local, 3597), "exchange local {ex_local} vs 3597");
    assert!(within(ex_span, 6484), "exchange spanning {ex_span} vs 6484");
    assert!(within(rv_local, 1997), "revoke local {rv_local} vs 1997");
    assert!(within(rv_span, 3876), "revoke spanning {rv_span} vs 3876");
    assert!(within(m3_ex, 3250), "M3 exchange {m3_ex} vs 3250");
    assert!(within(m3_rv, 1423), "M3 revoke {m3_rv} vs 1423");

    // Orderings that define the paper's story.
    assert!(ex_span > ex_local, "spanning exchanges cost more");
    assert!(rv_span > rv_local, "spanning revokes cost more");
    assert!(ex_local > m3_ex, "DDL indirection costs over M3");
    assert!(rv_local > m3_rv, "DDL indirection costs over M3");
}

#[test]
fn chain_revocation_scales_linearly() {
    let c10 = MicroMachine::new(2, 2, KernelMode::SemperOS).measure_chain_revoke(10, false);
    let c40 = MicroMachine::new(2, 2, KernelMode::SemperOS).measure_chain_revoke(40, false);
    let c80 = MicroMachine::new(2, 2, KernelMode::SemperOS).measure_chain_revoke(80, false);
    // Roughly linear: the 40→80 increment is close to twice the 10→40
    // increment scaled.
    let slope1 = (c40 - c10) as f64 / 30.0;
    let slope2 = (c80 - c40) as f64 / 40.0;
    assert!(
        (slope1 - slope2).abs() / slope1 < 0.15,
        "chain revocation should be linear: {slope1} vs {slope2}"
    );
}

#[test]
fn spanning_chain_about_3x_local() {
    let local = MicroMachine::new(2, 2, KernelMode::SemperOS).measure_chain_revoke(60, false);
    let spanning = MicroMachine::new(2, 2, KernelMode::SemperOS).measure_chain_revoke(60, true);
    let ratio = spanning as f64 / local as f64;
    assert!(
        (2.0..5.0).contains(&ratio),
        "spanning chain should be ~3x local (paper), got {ratio:.2}x"
    );
}

#[test]
fn tree_revocation_parallelism_wins_eventually() {
    let local = MicroMachine::new(13, 12, KernelMode::SemperOS).measure_tree_revoke(128, 0);
    let par = MicroMachine::new(13, 12, KernelMode::SemperOS).measure_tree_revoke(128, 12);
    assert!(par < local, "at 128 children, 12-kernel revocation ({par}) must beat local ({local})");
}

/// §5.2's proposed revoke-message batching: the wide-tree revoke issued
/// as a one-item batch (one grouped request per kernel) beats the
/// per-child fan-out on the widest tree and on a small one.
#[test]
fn batched_tree_revoke_beats_per_child() {
    for (children, kernels) in [(128, 12), (16, 4)] {
        let mut m = MicroMachine::new(13, 12, KernelMode::SemperOS);
        let plain = m.measure_tree_revoke(children, kernels);
        let batched = m.measure_tree_revoke_batched(children, kernels);
        assert!(
            batched < plain,
            "{children} children over {kernels} kernels: batched ({batched}) must beat \
             per-child ({plain})"
        );
    }
}

#[test]
fn all_apps_run_to_completion_and_match_table4() {
    let mut cfg = MachineConfig::small();
    cfg.num_pes = 24;
    cfg.mesh_width = 5;
    cfg.kernels = 2;
    cfg.services = 2;
    for app in AppKind::ALL {
        let r = run_app_instances(&cfg, app, 4);
        assert_eq!(r.durations.len(), 4, "{}", app.name());
        let per_instance = r.cap_ops as f64 / 4.0;
        let paper = app.paper_cap_ops() as f64;
        assert!(
            (per_instance - paper).abs() <= 2.0,
            "{}: {per_instance} cap ops/instance vs paper {paper}",
            app.name()
        );
    }
}

#[test]
fn determinism_same_config_same_cycles() {
    let cfg = MachineConfig::paper_testbed(8, 8);
    let a = run_app_instances(&cfg, AppKind::PostMark, 32);
    let b = run_app_instances(&cfg, AppKind::PostMark, 32);
    assert_eq!(a.durations, b.durations, "simulation must be deterministic");
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.cap_ops, b.cap_ops);
}

#[test]
fn more_kernels_do_not_hurt() {
    // Kernel-dependence sanity (Figure 8 direction) at a small scale.
    let t1_4 = {
        let cfg = MachineConfig::paper_testbed(4, 16);
        run_app_instances(&cfg, AppKind::PostMark, 1).mean_duration()
    };
    let eff = |kernels: u16| {
        let cfg = MachineConfig::paper_testbed(kernels, 16);
        let tn = run_app_instances(&cfg, AppKind::PostMark, 128).mean_duration();
        parallel_efficiency(t1_4, tn)
    };
    let few = eff(4);
    let many = eff(32);
    assert!(
        many >= few - 1.0,
        "more kernels must not reduce efficiency: 4k={few:.1}% vs 32k={many:.1}%"
    );
}

#[test]
fn parallel_efficiency_in_paper_band_at_512() {
    // The headline result: 70-78% parallel efficiency at 512 instances
    // with 32 kernels + 32 services (we allow a slightly wider band for
    // the metadata-light find workload).
    let cfg = MachineConfig::paper_testbed(32, 32);
    for app in [AppKind::Tar, AppKind::Sqlite] {
        let t1 = run_app_instances(&cfg, app, 1).mean_duration();
        let tn = run_app_instances(&cfg, app, 512).mean_duration();
        let eff = parallel_efficiency(t1, tn);
        assert!(
            (65.0..=85.0).contains(&eff),
            "{} efficiency {eff:.1}% outside the paper's band",
            app.name()
        );
    }
}

#[test]
fn nginx_scales_with_servers() {
    let cfg = MachineConfig::paper_testbed(32, 32);
    let small = run_nginx(&cfg, 32, 2, 4, 200_000, 1_000_000);
    let large = run_nginx(&cfg, 128, 8, 4, 200_000, 1_000_000);
    assert!(
        large.requests_per_sec > 2.5 * small.requests_per_sec,
        "128 servers ({:.0}/s) should far exceed 32 servers ({:.0}/s)",
        large.requests_per_sec,
        small.requests_per_sec
    );
}

#[test]
fn micromachine_syscall_api_end_to_end() {
    let mut m = MicroMachine::new(2, 3, KernelMode::SemperOS);
    let a = m.vpe(0, 0);
    let b = m.vpe(1, 1);
    let sel = m.create_mem(a);
    // Delegate across kernels, delegate onwards within group 1, then
    // revoke the root and verify both copies disappear.
    let (b_sel, _) = m.delegate(a, b, sel);
    let c = m.vpe(1, 2);
    let (c_sel, _) = m.delegate(b, c, b_sel);
    m.revoke(a, sel);
    let (r, _) = m.machine().syscall_blocking(b, Syscall::Revoke { sel: b_sel, own: true });
    assert!(r.result.is_err(), "b's copy must be gone");
    let (r, _) = m.machine().syscall_blocking(c, Syscall::Revoke { sel: c_sel, own: true });
    assert!(r.result.is_err(), "c's copy must be gone");
    m.machine().check_invariants();
}

#[test]
fn derive_then_delegate_then_revoke_cross_kernel() {
    // The m3fs pattern as raw syscalls: derive an extent capability,
    // delegate it across kernels, revoke the derived capability.
    let mut m = MicroMachine::new(2, 2, KernelMode::SemperOS);
    let svc = m.vpe(0, 0);
    let client = m.vpe(1, 0);
    let root = m.create_mem(svc);
    let (r, _) = m.machine().syscall_blocking(
        svc,
        Syscall::DeriveMem { src: root, offset: 0, size: 1024, perms: Perms::R },
    );
    let Ok(SysReplyData::Sel(derived)) = r.result else { panic!("{r:?}") };
    let (client_sel, _) = m.delegate(svc, client, derived);
    assert_ne!(client_sel, CapSel::INVALID);
    m.revoke(svc, derived);
    // Root is still usable; the derived subtree is gone everywhere.
    let (r, _) = m.machine().syscall_blocking(
        svc,
        Syscall::DeriveMem { src: root, offset: 0, size: 64, perms: Perms::R },
    );
    assert!(r.result.is_ok(), "root must survive the derived revoke");
    let (r, _) = m.machine().syscall_blocking(
        client,
        Syscall::Exchange {
            other: svc,
            own_sel: client_sel,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
    );
    assert!(r.result.is_err(), "client's derived copy must be gone");
    m.machine().check_invariants();
}
