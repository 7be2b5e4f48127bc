//! Newtype identifiers shared across the prototyping environment.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies a transaction (globally unique across sites and restarts of
/// the same logical transaction: a restarted transaction keeps its id).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TxnId(pub u64);

/// First id of the system-transaction range. System transactions (the
/// distributed model's secondary-update appliers) take locks like any
/// other transaction but never arrive or commit as workload, so workload
/// ids must stay below this bound and the per-transaction accounting and
/// serialisability checks skip ids at or above it.
pub const SYSTEM_TXN_BASE: u64 = 1 << 48;

impl TxnId {
    /// Whether this id lies in the system-transaction range
    /// ([`SYSTEM_TXN_BASE`] and up).
    pub const fn is_system(self) -> bool {
        self.0 >= SYSTEM_TXN_BASE
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifies a data object in the (logical, replicated) database.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

/// Identifies a site (node) of the distributed system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SiteId(pub u8);

impl SiteId {
    /// Returns the site index as a usize, for indexing per-site tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(TxnId(3).to_string(), "T3");
        assert_eq!(ObjectId(4).to_string(), "O4");
        assert_eq!(SiteId(1).to_string(), "S1");
    }

    #[test]
    fn system_range_starts_at_the_base() {
        assert!(!TxnId(SYSTEM_TXN_BASE - 1).is_system());
        assert!(TxnId(SYSTEM_TXN_BASE).is_system());
    }

    #[test]
    fn site_index() {
        assert_eq!(SiteId(2).index(), 2);
    }
}
