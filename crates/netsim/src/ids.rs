//! Typed identifiers for simulation entities.
//!
//! Every node, link, flow and packet carries a small copyable id. Using
//! newtypes (rather than bare integers) prevents the classic bug of
//! indexing the link table with a node id.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index value.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// Identifies a node (host or router) in the topology.
    NodeId,
    "n"
);
id_type!(
    /// Identifies a unidirectional link in the topology.
    LinkId,
    "l"
);
id_type!(
    /// Identifies a transport-layer flow (a TCP connection or probe
    /// stream). Flow ids are assigned by the application layer and are
    /// carried on every packet so captures can demultiplex.
    FlowId,
    "f"
);

/// Identifies a single packet instance. Retransmissions of the same TCP
/// sequence range get fresh packet ids, which makes wire-level debugging
/// unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LinkId(7).to_string(), "l7");
        assert_eq!(FlowId(1).to_string(), "f1");
        assert_eq!(PacketId(9).to_string(), "p9");
    }

    #[test]
    fn ids_are_ordered_and_indexable() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(LinkId(5).index(), 5usize);
        assert_eq!(NodeId::from(4u32), NodeId(4));
    }
}
