//! Hot-path effect-lint fixture: one annotated root (`serve`) with a
//! deliberately seeded allocation (`record`'s bare `Vec::push`), a
//! justified panic source (`locate`'s indexing), an allocation boundary
//! (`epoch`, tagged in the allocation contract), and a lock-discipline
//! pair (`absorb` bad, `read_one` good).
#![forbid(unsafe_code)]

use std::sync::Mutex;

/// A toy cache engine whose `serve` path mirrors the kernel contract.
///
/// # Allocation behaviour
///
/// * `epoch-scratch` — `epoch` copies the log once per window.
pub struct Engine {
    slots: Vec<u64>,
    log: Vec<u64>,
}

impl Engine {
    // audit:hot-path
    /// The hot path: look up a slot, record the hit, occasionally run
    /// the epoch boundary.
    pub fn serve(&mut self, addr: u64) -> u64 {
        let v = self.locate(addr);
        self.record(v);
        if v == 0 {
            self.epoch();
        }
        v
    }

    /// Indexing panic source, reachable from the hot-path root.
    fn locate(&self, addr: u64) -> u64 {
        self.slots[(addr % 7) as usize]
    }

    /// SEEDED VIOLATION: an un-annotated allocation on the hot path.
    fn record(&mut self, v: u64) {
        self.log.push(v);
    }

    // audit:allow-alloc(epoch scratch, amortized over the window)
    /// Whole-function allocation boundary: not traversed into, but must
    /// itself be in the ledger.
    fn epoch(&mut self) -> Vec<u64> {
        self.log.clone()
    }
}

/// Lock-discipline half of the fixture.
pub struct Shared {
    cells: Mutex<Vec<u64>>,
}

impl Shared {
    /// BAD: the guard is live across an allocating call.
    pub fn absorb(&self, v: u64) {
        let mut cells = self.cells.lock().unwrap();
        cells.push(v);
    }

    /// GOOD: the guard is read, explicitly dropped, then the allocation
    /// happens lock-free.
    pub fn read_one(&self) -> Vec<u64> {
        let cells = self.cells.lock().unwrap();
        let v = cells[0];
        drop(cells);
        vec![v]
    }
}
