//! Protocol tests of the batched-syscall engine (`ops::bulk`,
//! `Syscall::Batch`): ordered execution, per-item results, the
//! coalesced revoke fan-out, error items, and teardown mid-batch.

use semper_base::msg::{ExchangeKind, Perms, SysReplyData, Syscall};
use semper_base::{CapSel, Code, Feature, VpeId};
use semper_kernel::harness::TestCluster;

fn create_mem(c: &mut TestCluster, vpe: VpeId) -> CapSel {
    let r = c.syscall(vpe, Syscall::CreateMem { size: 4096, perms: Perms::RW });
    match r.result {
        Ok(SysReplyData::Mem { sel, .. }) => sel,
        other => panic!("create_mem failed: {other:?}"),
    }
}

fn delegate(c: &mut TestCluster, from: VpeId, to: VpeId, sel: CapSel) -> CapSel {
    let r = c.syscall(
        from,
        Syscall::Exchange {
            other: to,
            own_sel: sel,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
    );
    match r.result {
        Ok(SysReplyData::Delegated { recv_sel }) => recv_sel,
        other => panic!("delegate failed: {other:?}"),
    }
}

/// Issues a batch and returns the per-item results.
fn batch(
    c: &mut TestCluster,
    vpe: VpeId,
    items: Vec<Syscall>,
) -> Vec<semper_base::Result<SysReplyData>> {
    let r = c.syscall(vpe, Syscall::Batch(items.into_boxed_slice()));
    match r.result {
        Ok(SysReplyData::Batch(results)) => *results,
        other => panic!("batch failed: {other:?}"),
    }
}

/// A mixed batch executes in order and reports item-for-item results —
/// including a derive that references a capability created by an
/// *earlier* standalone call, and a revoke of it at the end.
#[test]
fn mixed_batch_reports_per_item_results() {
    let mut c = TestCluster::new(1, 2);
    let root = create_mem(&mut c, VpeId(0));
    let results = batch(
        &mut c,
        VpeId(0),
        vec![
            Syscall::Noop,
            Syscall::DeriveMem { src: root, offset: 0, size: 64, perms: Perms::R },
            Syscall::CreateMem { size: 4096, perms: Perms::RW },
            Syscall::Revoke { sel: root, own: true },
        ],
    );
    assert_eq!(results.len(), 4);
    assert_eq!(results[0], Ok(SysReplyData::None));
    assert!(matches!(results[1], Ok(SysReplyData::Sel(_))), "{:?}", results[1]);
    assert!(matches!(results[2], Ok(SysReplyData::Mem { .. })), "{:?}", results[2]);
    assert_eq!(results[3], Ok(SysReplyData::None));
    // The revoke removed the root and the derived child; the batch's
    // CreateMem survives.
    c.check_invariants();
    let k = &c.kernels[0];
    assert_eq!(k.stats().revokes_local, 1);
    assert!(k.table(VpeId(0)).unwrap().get(root).is_err(), "root must be revoked");
    for k in &c.kernels {
        assert_eq!(k.pending_ops(), 0, "batch left suspended ops");
    }
}

/// Spanning exchanges inside a batch run through the ordinary exchange
/// machinery (consent upcalls, two-way handshake) and complete their
/// items when the protocol rounds finish.
#[test]
fn batched_spanning_delegate_completes() {
    let mut c = TestCluster::new(2, 1);
    let root = create_mem(&mut c, VpeId(0));
    let results = batch(
        &mut c,
        VpeId(0),
        vec![
            Syscall::Exchange {
                other: VpeId(1),
                own_sel: root,
                other_sel: CapSel::INVALID,
                kind: ExchangeKind::Delegate,
            },
            Syscall::Noop,
        ],
    );
    assert!(matches!(results[0], Ok(SysReplyData::Delegated { .. })), "{:?}", results[0]);
    assert_eq!(results[1], Ok(SysReplyData::None));
    assert_eq!(c.kernels[0].stats().exchanges_spanning, 1);
    c.check_invariants();
}

/// A run of consecutive revokes whose subtrees span two remote kernels
/// is coalesced: one `RevokeBatchReq` per destination kernel instead of
/// one `RevokeReq` per remote child.
#[test]
fn consecutive_revokes_coalesce_cross_kernel_messages() {
    let n = 6u32;
    let build = |c: &mut TestCluster| -> Vec<CapSel> {
        (0..n)
            .map(|i| {
                let sel = create_mem(c, VpeId(0));
                // Alternate remote children over groups 1 and 2.
                let to = VpeId(1 + (i as u16 % 2));
                let _ = delegate(c, VpeId(0), to, sel);
                sel
            })
            .collect()
    };

    // Sequential: one revoke syscall per capability.
    let mut seq = TestCluster::new(3, 1);
    let sels = build(&mut seq);
    let before = seq.kernels[0].stats().kcalls_out;
    for sel in sels {
        let r = seq.syscall(VpeId(0), Syscall::Revoke { sel, own: true });
        assert!(r.result.is_ok());
    }
    let seq_kcalls = seq.kernels[0].stats().kcalls_out - before;

    // Batched: the same revokes as one batch.
    let mut bat = TestCluster::new(3, 1);
    let sels = build(&mut bat);
    let before = bat.kernels[0].stats().kcalls_out;
    let items = sels.iter().map(|sel| Syscall::Revoke { sel: *sel, own: true }).collect();
    let results = batch(&mut bat, VpeId(0), items);
    assert!(results.iter().all(|r| *r == Ok(SysReplyData::None)), "{results:?}");
    let bat_kcalls = bat.kernels[0].stats().kcalls_out - before;

    assert_eq!(seq_kcalls, n as u64, "one revoke request per remote child");
    assert_eq!(bat_kcalls, 2, "one grouped request per destination kernel");
    // Same final state either way: everything revoked.
    seq.check_invariants();
    bat.check_invariants();
    assert_eq!(seq.total_caps(), bat.total_caps());
    assert_eq!(
        bat.kernels[0].stats().revokes_spanning,
        n as u64,
        "a coalesced run still counts one revocation per item"
    );
}

/// Overlapping revokes in one run (duplicate selector, and a child
/// followed by its ancestor) fold into one sweep and all report `Ok` —
/// also when the child hangs under its ancestor through a peer kernel.
#[test]
fn overlapping_revoke_run_folds_into_one_sweep() {
    let mut c = TestCluster::new(1, 2);
    let root = create_mem(&mut c, VpeId(0));
    let child = match c
        .syscall(VpeId(0), Syscall::DeriveMem { src: root, offset: 0, size: 64, perms: Perms::R })
        .result
    {
        Ok(SysReplyData::Sel(sel)) => sel,
        other => panic!("derive failed: {other:?}"),
    };
    let results = batch(
        &mut c,
        VpeId(0),
        vec![
            // Child first, then its ancestor, then the ancestor again.
            Syscall::Revoke { sel: child, own: true },
            Syscall::Revoke { sel: root, own: true },
            Syscall::Revoke { sel: root, own: true },
        ],
    );
    assert!(results.iter().all(|r| *r == Ok(SysReplyData::None)), "{results:?}");
    c.check_invariants();
    assert!(c.kernels[0].table(VpeId(0)).unwrap().get(root).is_err());
    assert!(c.kernels[0].table(VpeId(0)).unwrap().get(child).is_err());
    for k in &c.kernels {
        assert_eq!(k.pending_ops(), 0, "overlapping run must not deadlock");
    }

    // Three kernels with parallel sweeps: `back` is a grandchild of
    // `root` through VPE 2's copy on kernel 1. The bulk run marks `back`
    // first and hands its marked set to the sweep coordinator, which
    // folds `back` when kernel 1's frontier bounces it back.
    let mut c = TestCluster::new(3, 2);
    for k in &mut c.kernels {
        k.enable_feature_for_test(Feature::ParallelSweep);
    }
    let start = c.total_caps();
    let root = create_mem(&mut c, VpeId(0));
    let copy = delegate(&mut c, VpeId(0), VpeId(2), root);
    delegate(&mut c, VpeId(0), VpeId(4), root);
    let back = delegate(&mut c, VpeId(2), VpeId(0), copy);
    let results = batch(
        &mut c,
        VpeId(0),
        vec![
            Syscall::Revoke { sel: back, own: true },
            Syscall::Revoke { sel: root, own: true },
            Syscall::Revoke { sel: root, own: true },
        ],
    );
    assert!(results.iter().all(|r| *r == Ok(SysReplyData::None)), "{results:?}");
    assert_eq!(c.total_caps(), start, "the whole tree is gone");
    assert_eq!(c.kernels[0].stats().sweeps, 1, "the run converted into one sweep");
    c.check_invariants();
    for k in &c.kernels {
        k.check_quiescent().unwrap();
    }
}

/// Error items fail individually without aborting the rest of the
/// batch; `Exit` and nested batches are rejected per item.
#[test]
fn error_items_fail_individually() {
    let mut c = TestCluster::new(1, 2);
    let root = create_mem(&mut c, VpeId(0));
    let results = batch(
        &mut c,
        VpeId(0),
        vec![
            Syscall::Revoke { sel: CapSel(999), own: true },
            Syscall::Exit,
            Syscall::Batch(vec![Syscall::Noop].into_boxed_slice()),
            Syscall::DeriveMem { src: root, offset: 0, size: 64, perms: Perms::R },
        ],
    );
    assert_eq!(results[0].as_ref().unwrap_err().code(), Code::NoSuchCap);
    assert_eq!(results[1].as_ref().unwrap_err().code(), Code::NotSupported);
    assert_eq!(results[2].as_ref().unwrap_err().code(), Code::NotSupported);
    assert!(matches!(results[3], Ok(SysReplyData::Sel(_))), "the batch continued: {results:?}");
    c.check_invariants();
}

/// A second batch issued while one is active (a client protocol
/// violation) is refused with `InvalidArgs` — and the rejection must
/// not be swallowed by the active batch's reply interception: the
/// first batch still completes normally.
#[test]
fn second_batch_while_active_is_refused_not_intercepted() {
    let mut c = TestCluster::new(2, 1);
    let root = create_mem(&mut c, VpeId(0));
    // First batch parks on a spanning delegate handshake.
    let tag1 = c.syscall_async(
        VpeId(0),
        Syscall::Batch(
            vec![Syscall::Exchange {
                other: VpeId(1),
                own_sel: root,
                other_sel: CapSel::INVALID,
                kind: ExchangeKind::Delegate,
            }]
            .into_boxed_slice(),
        ),
    );
    c.pump_n(1); // deliver the batch; it parks on the handshake
    let tag2 = c.syscall_async(VpeId(0), Syscall::Batch(vec![Syscall::Noop].into_boxed_slice()));
    // A plain syscall during the batch is refused the same way — it
    // must not run a handler whose reply would be folded into the
    // batch as a bogus item completion.
    let tag3 = c.syscall_async(VpeId(0), Syscall::Noop);
    c.pump_all();
    let r2 = c.take_reply(VpeId(0), tag2).expect("the violating batch must still get a reply");
    assert_eq!(r2.result.unwrap_err().code(), Code::InvalidArgs);
    let r3 = c.take_reply(VpeId(0), tag3).expect("the violating syscall must still get a reply");
    assert_eq!(r3.result.unwrap_err().code(), Code::InvalidArgs);
    let r1 = c.take_reply(VpeId(0), tag1).expect("the active batch completes");
    let Ok(SysReplyData::Batch(results)) = r1.result else { panic!("{:?}", r1.result) };
    assert!(matches!(results[0], Ok(SysReplyData::Delegated { .. })), "{results:?}");
    c.check_invariants();
    for k in &c.kernels {
        assert_eq!(k.pending_ops(), 0);
    }
}

/// An empty batch completes immediately with an empty result list.
#[test]
fn empty_batch_completes() {
    let mut c = TestCluster::new(1, 1);
    let results = batch(&mut c, VpeId(0), Vec::new());
    assert!(results.is_empty());
    for k in &c.kernels {
        assert_eq!(k.pending_ops(), 0);
    }
}

/// Killing the issuing VPE mid-batch tears the batch down: late item
/// completions are dropped, nothing stays suspended, and the peer
/// kernels converge.
#[test]
fn killing_the_issuer_mid_batch_quiesces() {
    let mut c = TestCluster::new(2, 1);
    let root = create_mem(&mut c, VpeId(0));
    // A spanning delegate parks the batch on the handshake.
    c.syscall_async(
        VpeId(0),
        Syscall::Batch(
            vec![
                Syscall::Exchange {
                    other: VpeId(1),
                    own_sel: root,
                    other_sel: CapSel::INVALID,
                    kind: ExchangeKind::Delegate,
                },
                Syscall::CreateMem { size: 4096, perms: Perms::RW },
            ]
            .into_boxed_slice(),
        ),
    );
    // Deliver the batch and the first protocol round, then kill.
    c.pump_n(2);
    c.kill(VpeId(0));
    c.pump_all();
    c.check_invariants();
    for k in &c.kernels {
        assert_eq!(k.pending_ops(), 0, "kernel {} left suspended ops", k.id());
    }
    // The dead VPE holds nothing.
    assert_eq!(c.kernels[0].table(VpeId(0)).unwrap().len(), 0);
}
