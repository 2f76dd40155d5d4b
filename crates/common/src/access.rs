//! Memory-access records: the unit of work flowing through the simulator.

use crate::addr::{Addr, CoreId, Pc};
use core::fmt;

/// Whether an access reads or writes its target line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand load.
    Read,
    /// A demand store (allocates on miss; the hierarchy is write-allocate,
    /// write-back).
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("R"),
            AccessKind::Write => f.write_str("W"),
        }
    }
}

/// One memory access: which core issued it, from which static instruction,
/// to which byte address.
///
/// `gap` carries the number of non-memory instructions the core executed
/// since its previous memory access; the timing model charges one cycle per
/// such instruction. Traces are therefore self-contained: no separate
/// instruction stream is needed.
///
/// `mlp` is the memory-level parallelism the issuing instruction enjoys:
/// how many outstanding long-latency accesses the (out-of-order) core
/// overlaps with this one. The timing model divides miss latency by it,
/// so independent streaming loads drain far faster than dependent
/// pointer chases — which is what lets streamers exert realistic
/// pollution pressure on a shared LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Issuing core.
    pub core: CoreId,
    /// Static instruction (program counter) performing the access.
    pub pc: Pc,
    /// Byte address accessed.
    pub addr: Addr,
    /// Read or write.
    pub kind: AccessKind,
    /// Non-memory instructions executed since the core's previous access.
    pub gap: u32,
    /// Memory-level parallelism (>= 1) of this access.
    pub mlp: u8,
}

impl Access {
    /// Creates an access with a zero instruction gap and no overlap.
    pub const fn new(core: CoreId, pc: Pc, addr: Addr, kind: AccessKind) -> Self {
        Access { core, pc, addr, kind, gap: 0, mlp: 1 }
    }

    /// Creates an access with an explicit instruction gap (no overlap).
    pub const fn with_gap(core: CoreId, pc: Pc, addr: Addr, kind: AccessKind, gap: u32) -> Self {
        Access { core, pc, addr, kind, gap, mlp: 1 }
    }

    /// Sets the memory-level parallelism, builder-style (clamped to at
    /// least 1).
    #[must_use]
    pub const fn with_mlp(mut self, mlp: u8) -> Self {
        self.mlp = if mlp == 0 { 1 } else { mlp };
        self
    }

    /// Total instructions this record accounts for (the access itself plus
    /// the preceding non-memory gap).
    pub const fn instructions(&self) -> u64 {
        self.gap as u64 + 1
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} {}", self.core, self.kind, self.pc, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::format;

    #[test]
    fn write_detection() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }

    #[test]
    fn instruction_accounting_includes_access() {
        let a = Access::with_gap(CoreId::new(0), Pc::new(1), Addr::new(2), AccessKind::Read, 9);
        assert_eq!(a.instructions(), 10);
        let b = Access::new(CoreId::new(0), Pc::new(1), Addr::new(2), AccessKind::Read);
        assert_eq!(b.instructions(), 1);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Access::new(CoreId::new(1), Pc::new(0x400), Addr::new(0x80), AccessKind::Write);
        let s = format!("{a}");
        assert!(s.contains("core1") && s.contains('W'));
    }

    #[test]
    fn mlp_defaults_to_one_and_clamps() {
        let a = Access::new(CoreId::new(0), Pc::new(1), Addr::new(2), AccessKind::Read);
        assert_eq!(a.mlp, 1);
        assert_eq!(a.with_mlp(4).mlp, 4);
        assert_eq!(a.with_mlp(0).mlp, 1, "zero overlap is clamped to 1");
    }
}
