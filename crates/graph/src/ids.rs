//! Strongly-typed client and server identifiers.
//!
//! Clients and servers are both dense `u32` indices, but confusing one for the other is
//! a classic simulator bug; the newtypes make that a compile error. Both types convert
//! to/from `usize` explicitly via [`ClientId::index`] / [`ClientId::new`].

use serde::{Deserialize, Serialize};

/// Most clients (or servers) a graph can hold: ids are `u32`, so they run `0..2³²`.
/// Generators and the snapshot decoder reject larger counts instead of wrapping ids.
pub const MAX_NODES: u64 = 1 << 32;

/// Rejects client or server counts above [`MAX_NODES`], naming the offending side.
pub(crate) fn check_id_space(num_clients: u64, num_servers: u64) -> Result<(), String> {
    for (side, count) in [("clients", num_clients), ("servers", num_servers)] {
        if count > MAX_NODES {
            return Err(format!(
                "{count} {side} exceed the u32 id space of {MAX_NODES}"
            ));
        }
    }
    Ok(())
}

/// Identifier of a client (index into the client side of a [`crate::BipartiteGraph`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ClientId(pub u32);

/// Identifier of a server (index into the server side of a [`crate::BipartiteGraph`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ServerId(pub u32);

impl ClientId {
    /// Creates a client id from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        Self(index as u32)
    }

    /// Returns the dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ServerId {
    /// Creates a server id from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        Self(index as u32)
    }

    /// Returns the dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for ClientId {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl From<u32> for ServerId {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_index() {
        assert_eq!(ClientId::new(17).index(), 17);
        assert_eq!(ServerId::new(0).index(), 0);
        assert_eq!(ClientId::from(3u32), ClientId(3));
        assert_eq!(ServerId::from(9u32), ServerId(9));
    }

    #[test]
    fn display_distinguishes_sides() {
        assert_eq!(ClientId(5).to_string(), "c5");
        assert_eq!(ServerId(5).to_string(), "s5");
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(ClientId(1) < ClientId(2));
        assert!(ServerId(10) > ServerId(9));
    }
}
