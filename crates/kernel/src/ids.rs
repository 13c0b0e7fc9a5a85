//! Identifier newtypes for kernel objects.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a simulated thread (task) for its whole lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ThreadId(pub u32);

impl ThreadId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tid{}", self.0)
    }
}

/// Identifies a kernel barrier object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct BarrierId(pub u32);
