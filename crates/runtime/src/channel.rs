//! CML-style channels and object proxies (paper §2.1, §3.1).
//!
//! Manticore's explicitly-threaded layer provides Concurrent ML primitives;
//! sending a value to another vproc requires promoting it to the global heap
//! first, because the no-cross-heap-pointer invariants forbid direct
//! references between local heaps. *Object proxies* are the special objects
//! the runtime uses to let global-heap structures (such as a channel's wait
//! queue) refer back to vproc-local state.
//!
//! The reproduction models channels as asynchronous mailboxes: `send`
//! promotes the message and enqueues its global address; `recv` dequeues.
//! This captures exactly the memory-system behaviour the paper cares about
//! (promotion volume and global-heap traffic); the synchronous rendezvous of
//! real CML is orthogonal to the collector and is not reproduced.

use mgc_heap::Addr;
use std::collections::VecDeque;

/// Identifier of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(pub(crate) usize);

impl ChannelId {
    /// The raw index of the channel.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an object proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProxyId(pub(crate) usize);

impl ProxyId {
    /// The raw index of the proxy.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A proxy standing in for a vproc-local object referenced from global
/// runtime structures. Resolving a proxy from a vproc other than its owner
/// forces promotion of the underlying object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Proxy {
    /// The vproc whose local heap holds the object.
    pub owner: usize,
    /// The object's current address (local until promoted).
    pub target: Addr,
    /// Whether the proxy has been resolved and promoted.
    pub promoted: bool,
}

/// Internal channel state: a FIFO of promoted (global-heap) messages.
#[derive(Debug, Default)]
pub(crate) struct ChannelState {
    pub queue: VecDeque<Addr>,
    pub sends: u64,
    pub receives: u64,
}

/// Per-run channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages sent across all channels.
    pub sends: u64,
    /// Messages received across all channels.
    pub receives: u64,
    /// Proxies created.
    pub proxies_created: u64,
    /// Proxies resolved from a vproc other than their owner (forcing
    /// promotion).
    pub proxies_promoted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_expose_indices() {
        assert_eq!(ChannelId(4).index(), 4);
        assert_eq!(ProxyId(2).index(), 2);
    }

    #[test]
    fn channel_state_defaults_empty() {
        let st = ChannelState::default();
        assert!(st.queue.is_empty());
        assert_eq!(st.sends, 0);
    }
}
