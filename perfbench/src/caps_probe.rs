//! Direct timings of the capability bookkeeping structures.
//!
//! The workloads reach `MappingDb` and `CapTable` only through the
//! kernel, where their cost is mixed with everything else a handler
//! does. These probes call them directly, at the size the workload left
//! behind, so a change to the structures shows on its own.

use std::hint::black_box;

use semper_base::msg::{CapKindDesc, Perms};
use semper_base::{CapSel, CapType, DdlKey, PeId, VpeId};
use semper_caps::{CapTable, Capability, KeyAllocator, MappingDb};

use crate::rep::median;
use crate::trace::{Clock, Layer};

/// Per-capability host cost of the bookkeeping primitives.
pub struct CapsTimes {
    /// `MappingDb::insert` plus `CapTable::insert_new`, per capability.
    pub insert_ns: f64,
    /// `CapTable::remove_key`, per capability.
    pub remove_key_ns: f64,
    /// `MappingDb::delete_local_subtree` of a one-level tree, per
    /// capability deleted.
    pub subtree_delete_ns_per_cap: f64,
    /// `CapTable::rehydrate`, per selector binding.
    pub rehydrate_ns_per_cap: f64,
}

const OWNER: VpeId = VpeId(1);
const FIRST_FREE: u32 = 2;
const REPEATS: usize = 5;

fn kind() -> CapKindDesc {
    CapKindDesc::Memory { addr: 0, size: 4096, perms: Perms::RW }
}

fn filled(keys: &[DdlKey]) -> (MappingDb, CapTable) {
    let mut db = MappingDb::new();
    let mut table = CapTable::new(FIRST_FREE);
    for &k in keys {
        let sel = table.insert_new(k);
        db.insert(Capability::root(k, kind(), OWNER, sel));
    }
    (db, table)
}

/// Times each primitive on `n` capabilities (the median of a few
/// repetitions).
pub fn measure(n: usize, clock: &mut Clock) -> CapsTimes {
    let n = n.max(1);
    let mut alloc = KeyAllocator::new();
    let keys: Vec<DdlKey> = (0..n).map(|_| alloc.alloc(PeId(1), OWNER, CapType::Memory)).collect();
    let per = |ns: u64| ns as f64 / n as f64;
    let mut insert = Vec::new();
    let mut remove = Vec::new();
    let mut subtree = Vec::new();
    let mut rehydrate = Vec::new();
    for _ in 0..REPEATS {
        let ((db, mut table), ns) = clock.call(Layer::Caps, "insert", || filled(&keys));
        insert.push(per(ns));
        let pairs: Vec<(CapSel, DdlKey)> = table.iter().collect();
        black_box(db);

        let (_, ns) = clock.call(Layer::Caps, "remove_key", || {
            for &k in &keys {
                black_box(table.remove_key(k));
            }
        });
        remove.push(per(ns));

        let (t, ns) = clock.call(Layer::Caps, "rehydrate", || {
            CapTable::rehydrate(FIRST_FREE, FIRST_FREE + n as u32, pairs.iter().copied())
        });
        rehydrate.push(per(ns));
        black_box(t);

        // A root with n - 1 local children, deleted in one walk.
        let mut db = MappingDb::new();
        db.insert(Capability::root(keys[0], kind(), OWNER, CapSel(FIRST_FREE)));
        for (i, &k) in keys.iter().enumerate().skip(1) {
            let sel = CapSel(FIRST_FREE + i as u32);
            db.insert(Capability::child(k, kind(), OWNER, sel, keys[0]));
            db.link_child(keys[0], k).expect("root was inserted first");
        }
        let (deleted, ns) =
            clock.call(Layer::Caps, "subtree_delete", || db.delete_local_subtree(keys[0]));
        assert_eq!(deleted.len(), n, "the whole tree is local");
        subtree.push(per(ns));
        black_box(deleted);
    }
    CapsTimes {
        insert_ns: median(&insert),
        remove_key_ns: median(&remove),
        subtree_delete_ns_per_cap: median(&subtree),
        rehydrate_ns_per_cap: median(&rehydrate),
    }
}
