//! Process and object identifiers.

use std::fmt;

/// Identifies one of the `n` processes of the system.
///
/// Processes are numbered from `0`; the paper writes `p1, …, pn` but indexing
/// from zero matches Rust collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The numeric index of the process.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(i: usize) -> Self {
        ProcessId(i)
    }
}

/// Identifies a shared object within an [`crate::ObjectUniverse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub usize);

impl ObjectId {
    /// The numeric index of the object.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl From<usize> for ObjectId {
    fn from(i: usize) -> Self {
        ObjectId(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(format!("{}", ProcessId(3)), "p3");
        assert_eq!(format!("{}", ObjectId(0)), "o0");
        assert_eq!(ProcessId(7).index(), 7);
        assert_eq!(ObjectId(2).index(), 2);
    }

    #[test]
    fn conversion_from_usize() {
        assert_eq!(ProcessId::from(4), ProcessId(4));
        assert_eq!(ObjectId::from(4), ObjectId(4));
    }

    #[test]
    fn ordering_follows_index() {
        assert!(ProcessId(1) < ProcessId(2));
        assert!(ObjectId(0) < ObjectId(5));
    }
}
