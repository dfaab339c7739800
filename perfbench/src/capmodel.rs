//! The benchmark's own model of who holds which memory capability.
//!
//! The generator picks its next operation from this model and updates
//! it from each reply. At the end of a run the model is compared with
//! the capability state the kernels actually hold, read back through
//! their public getters; any difference is a wrong result.

use semper_base::{CapKindDesc, CapSel, DdlKey, KernelId, VpeId};
use semperos::Machine;
use std::collections::HashMap;

/// Index of a capability in the model.
pub type CapId = u32;

/// One memory capability as the benchmark believes it exists.
#[derive(Clone, Debug)]
pub struct ModelCap {
    /// The VPE whose table holds it.
    pub holder: VpeId,
    /// Its selector in that table.
    pub sel: CapSel,
    /// The capability it was derived or exchanged from.
    pub parent: Option<CapId>,
    /// Capabilities derived or exchanged from it.
    pub children: Vec<CapId>,
    /// Size of the memory region in bytes.
    pub size: u64,
    /// Position in the holder's list; `usize::MAX` once revoked.
    pos: usize,
}

/// A capability as `(holder, selector, parent's (holder, selector))`,
/// the form in which model and program are compared.
pub type Canon = (u16, u32, Option<(u16, u32)>);

/// Every live memory capability, by holder.
#[derive(Default)]
pub struct CapModel {
    caps: Vec<ModelCap>,
    held: Vec<Vec<CapId>>,
    /// Ids of revoked capabilities, reused by [`CapModel::add`].
    free: Vec<CapId>,
}

impl CapModel {
    /// An empty model for VPEs `0..vpes`.
    pub fn new(vpes: usize) -> CapModel {
        CapModel { caps: Vec::new(), held: vec![Vec::new(); vpes], free: Vec::new() }
    }

    /// Records a new capability; returns its id.
    pub fn add(&mut self, holder: VpeId, sel: CapSel, parent: Option<CapId>, size: u64) -> CapId {
        let list = &mut self.held[holder.idx()];
        let cap = ModelCap { holder, sel, parent, children: Vec::new(), size, pos: list.len() };
        let id = match self.free.pop() {
            Some(id) => {
                self.caps[id as usize] = cap;
                id
            }
            None => {
                self.caps.push(cap);
                (self.caps.len() - 1) as CapId
            }
        };
        list.push(id);
        if let Some(p) = parent {
            self.caps[p as usize].children.push(id);
        }
        id
    }

    /// The capability `id`.
    pub fn get(&self, id: CapId) -> &ModelCap {
        &self.caps[id as usize]
    }

    /// The capabilities `vpe` holds.
    pub fn held(&self, vpe: VpeId) -> &[CapId] {
        &self.held[vpe.idx()]
    }

    /// True if `vpe` holds a capability at `sel`.
    pub fn holds_sel(&self, vpe: VpeId, sel: CapSel) -> bool {
        self.held(vpe).iter().any(|&c| self.caps[c as usize].sel == sel)
    }

    /// The subtree rooted at `id`, root first.
    pub fn subtree(&self, id: CapId) -> Vec<CapId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend(self.caps[c as usize].children.iter().copied());
        }
        out
    }

    /// True if `a` is `b` or one of its ancestors.
    pub fn is_ancestor(&self, a: CapId, b: CapId) -> bool {
        let mut cur = Some(b);
        while let Some(c) = cur {
            if c == a {
                return true;
            }
            cur = self.caps[c as usize].parent;
        }
        false
    }

    /// Removes the subtree rooted at `id`, as a revoke does; returns how
    /// many capabilities went.
    pub fn revoke(&mut self, id: CapId) -> usize {
        let doomed = self.subtree(id);
        if let Some(p) = self.caps[id as usize].parent {
            self.caps[p as usize].children.retain(|&c| c != id);
        }
        for &c in &doomed {
            let (holder, pos) = {
                let cap = &self.caps[c as usize];
                (cap.holder, cap.pos)
            };
            let list = &mut self.held[holder.idx()];
            list.swap_remove(pos);
            if let Some(&moved) = list.get(pos) {
                self.caps[moved as usize].pos = pos;
            }
            self.caps[c as usize].pos = usize::MAX;
            self.caps[c as usize].children.clear();
            self.free.push(c);
        }
        doomed.len()
    }

    /// Every live capability in canonical, sorted form.
    pub fn canon(&self) -> Vec<Canon> {
        let mut out: Vec<Canon> = self
            .held
            .iter()
            .flatten()
            .map(|&c| {
                let cap = &self.caps[c as usize];
                let parent = cap.parent.map(|p| {
                    let p = &self.caps[p as usize];
                    (p.holder.0, p.sel.0)
                });
                (cap.holder.0, cap.sel.0, parent)
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Reads the memory capabilities the kernels hold for `vpes`, given
    /// as `(vpe, owning kernel)`, back into a model.
    pub fn from_machine(m: &Machine, vpes: &[(VpeId, KernelId)]) -> CapModel {
        let mut model = CapModel::new(vpes.iter().map(|(v, _)| v.idx() + 1).max().unwrap_or(0));
        let mut ids: HashMap<DdlKey, CapId> = HashMap::new();
        let mut parents: Vec<(CapId, DdlKey)> = Vec::new();
        for &(vpe, k) in vpes {
            let kernel = m.kernel(k);
            let Some(table) = kernel.table(vpe) else { continue };
            for (sel, key) in table.iter() {
                let Ok(cap) = kernel.mapdb().get(key) else { continue };
                if let CapKindDesc::Memory { size, .. } = cap.kind {
                    let id = model.add(vpe, sel, None, size);
                    ids.insert(key, id);
                    if let Some(p) = cap.parent {
                        parents.push((id, p));
                    }
                }
            }
        }
        for (id, key) in parents {
            if let Some(&p) = ids.get(&key) {
                model.caps[id as usize].parent = Some(p);
                model.caps[p as usize].children.push(id);
            }
        }
        model
    }
}
