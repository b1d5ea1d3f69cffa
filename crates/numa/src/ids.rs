//! Newtype identifiers for the elements of a NUMA machine.
//!
//! The paper's terminology (§2.2, Appendix A): a machine has several
//! *packages* (sockets); each package contains one or two *nodes* (dies with
//! a private memory controller and L3 cache); each node contains several
//! *cores*. Virtual processors (vprocs) are pinned to cores.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $label:expr) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(u16);

        impl $name {
            /// Creates an identifier from a raw index.
            ///
            /// # Examples
            ///
            /// ```
            /// # use mgc_numa::NodeId;
            /// let n = NodeId::new(3);
            /// assert_eq!(n.index(), 3);
            /// ```
            pub const fn new(index: u16) -> Self {
                Self(index)
            }

            /// Returns the raw index of this identifier.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw index as a `u16`.
            pub const fn raw(self) -> u16 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($label, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($label, "{}"), self.0)
            }
        }

        impl From<u16> for $name {
            fn from(value: u16) -> Self {
                Self(value)
            }
        }

        impl From<$name> for usize {
            fn from(value: $name) -> usize {
                value.index()
            }
        }
    };
}

id_type!(
    /// Identifier of a NUMA node (a die with its own memory controller).
    NodeId,
    "node"
);
id_type!(
    /// Identifier of a physical core.
    CoreId,
    "core"
);
id_type!(
    /// Identifier of a processor package (socket).
    PackageId,
    "pkg"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        let n = NodeId::new(7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.raw(), 7);
        assert_eq!(usize::from(n), 7);
        assert_eq!(NodeId::from(7u16), n);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(CoreId::new(1));
        set.insert(CoreId::new(2));
        set.insert(CoreId::new(1));
        assert_eq!(set.len(), 2);
        assert!(CoreId::new(1) < CoreId::new(2));
    }

    #[test]
    fn display_matches_kind() {
        assert_eq!(NodeId::new(2).to_string(), "node2");
        assert_eq!(CoreId::new(11).to_string(), "core11");
        assert_eq!(PackageId::new(0).to_string(), "pkg0");
        assert_eq!(format!("{:?}", NodeId::new(2)), "node2");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId::new(0));
    }
}
