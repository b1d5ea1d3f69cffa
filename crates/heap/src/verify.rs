//! Heap invariant verification (paper §2.3).
//!
//! The runtime maintains two invariants without write barriers or static
//! analysis:
//!
//! 1. there are no pointers from one vproc's local heap into another's, and
//! 2. there are no pointers from the global heap into any local heap.
//!
//! The checkers in this module walk every live-ish object (everything that
//! has been allocated and not superseded) and report any violation. They are
//! used throughout the test suites and, with `GcConfig::verify_after_gc`,
//! after every collection on both backends: the simulated [`Heap`] walks the
//! whole machine ([`verify_heap`]), a threaded `WorkerHeap` its own local
//! heap ([`verify_local_heap`]) and, after a global collection, the leader
//! the global heap ([`verify_global_heap`]). Every object is read through
//! [`GcHeap::locate`], and every pointer is classified by the layout's
//! arithmetic ([`ThreadedLayout::owner_of`](crate::ThreadedLayout::owner_of))
//! and chunk states only, so nothing another worker owns is read: a pointer
//! into another vproc's local heap names that vproc and no region.

use crate::addr::{word_as_pointer, Addr};
use crate::gc_heap::GcHeap;
use crate::heap::Heap;
use crate::local::LocalRegion;
use crate::shared::{SharedChunkState, ThreadedOwner, WorkerHeap};
use std::fmt;

/// Where a checked address is: who owns it by the layout's arithmetic and,
/// in the checking worker's own local heap, its region there.
type Whereabouts = (ThreadedOwner, Option<LocalRegion>);

/// A single violation of the heap invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The object holding the offending field.
    pub holder: Addr,
    /// Where the holder lives: its owner by the layout's arithmetic and, in
    /// the checking worker's own local heap, its region.
    pub holder_at: (ThreadedOwner, Option<LocalRegion>),
    /// The payload index of the offending field.
    pub field: usize,
    /// The address the field points to.
    pub target: Addr,
    /// Where the target lives, as for the holder. A target in another
    /// vproc's local heap, which the checker never reads, names only that
    /// vproc.
    pub target_at: (ThreadedOwner, Option<LocalRegion>),
    /// Human-readable description of the rule that was broken.
    pub rule: &'static str,
}

/// `at` in words: the vproc and region, the band chunk, or unmapped.
fn describe(at: Whereabouts) -> String {
    match at {
        (ThreadedOwner::Local(vproc), Some(region)) => format!("vproc {vproc}'s {region:?}"),
        (ThreadedOwner::Local(vproc), None) => format!("vproc {vproc}'s local heap"),
        (ThreadedOwner::Global { node, index }, _) => {
            format!("chunk {index} of node {node}'s band")
        }
        (ThreadedOwner::Unmapped, _) => "unmapped".to_string(),
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{rule}: object {holder} ({holder_at}) field {field} points to {target} ({target_at})",
            rule = self.rule,
            holder = self.holder,
            holder_at = describe(self.holder_at),
            field = self.field,
            target = self.target,
            target_at = describe(self.target_at),
        )
    }
}

/// Where `addr` is, as `worker` can tell without reading another worker's
/// memory.
fn whereabouts(worker: &WorkerHeap, addr: Addr) -> Whereabouts {
    let owner = worker.layout().owner_of(addr);
    let own = owner == ThreadedOwner::Local(worker.vproc());
    (owner, own.then(|| worker.local().region_of(addr)))
}

/// The state of the chunk mapped at chunk `index` of `node`'s band, if any.
fn band_chunk_state(worker: &WorkerHeap, node: usize, index: usize) -> Option<SharedChunkState> {
    worker
        .global()
        .chunk_in_band(node, index)
        .map(|chunk| chunk.state())
}

/// Checks each pointer field of the object at `obj` with `rule`, reading it
/// and classifying its targets through `worker` (which must be able to read
/// the object: its own, or a global one).
fn check_fields(
    worker: &WorkerHeap,
    obj: Addr,
    violations: &mut Vec<InvariantViolation>,
    rule: impl Fn(Whereabouts) -> Option<&'static str>,
) {
    let place = worker.locate(obj);
    let Ok(indices) = worker.pointer_field_indices(place.header()) else {
        return;
    };
    let holder_at = whereabouts(worker, obj);
    for index in indices {
        let Some(target) = word_as_pointer(place.read(index)) else {
            continue;
        };
        let target_at = whereabouts(worker, target);
        if let Some(rule) = rule(target_at) {
            violations.push(InvariantViolation {
                holder: obj,
                holder_at,
                field: index,
                target,
                target_at,
                rule,
            });
        }
    }
}

/// Checks the pointer discipline of a worker's local heap: every pointer
/// field must target an allocated part of the same local heap or a global
/// chunk that is in use. A from-space chunk counts as in use: between the
/// increments of a budgeted global collection live objects still point into
/// it. Another vproc's local heap is classified by address arithmetic and
/// never read.
pub fn verify_local_heap(worker: &WorkerHeap) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    let local = worker.local();
    let objects = local
        .objects_in(0, local.old_top())
        .chain(local.nursery_objects());
    for (obj, _) in objects {
        check_fields(worker, obj, &mut violations, |target| match target {
            (ThreadedOwner::Local(_), None) => Some("no pointers between distinct local heaps"),
            (_, Some(LocalRegion::Reserve | LocalRegion::NurseryFree)) => {
                Some("pointer into reclaimed local-heap space")
            }
            (ThreadedOwner::Local(_), Some(_)) => None,
            (ThreadedOwner::Global { node, index }, _) => {
                match band_chunk_state(worker, node, index) {
                    None => Some("pointer to unmapped memory"),
                    Some(state) => (state == SharedChunkState::Free)
                        .then_some("pointer into a released global chunk"),
                }
            }
            (ThreadedOwner::Unmapped, _) => Some("pointer to unmapped memory"),
        });
    }
    violations
}

/// Checks the pointer discipline of the global heap, read through any
/// worker: no pointer field of any object in a live chunk (some vproc's
/// current one, or a filled one) may target a local heap.
pub fn verify_global_heap(reader: &WorkerHeap) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    for chunk in reader.global().chunks() {
        if matches!(
            chunk.state(),
            SharedChunkState::Current | SharedChunkState::Filled
        ) {
            for obj in chunk.objects() {
                check_fields(reader, obj, &mut violations, |(owner, _)| match owner {
                    ThreadedOwner::Global { node, index } => band_chunk_state(reader, node, index)
                        .is_none()
                        .then_some("pointer to unmapped memory"),
                    ThreadedOwner::Unmapped => Some("pointer to unmapped memory"),
                    ThreadedOwner::Local(_) => {
                        Some("no pointers from the global heap into a local heap")
                    }
                });
            }
        }
    }
    violations
}

/// Runs every invariant check over the whole heap: the global walk, then
/// each worker's.
pub fn verify_heap(heap: &Heap) -> Vec<InvariantViolation> {
    let mut violations = verify_global_heap(heap.worker(0));
    for vproc in 0..heap.num_vprocs() {
        violations.extend(verify_local_heap(heap.worker(vproc)));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use mgc_numa::NodeId;

    fn heap() -> Heap {
        Heap::new(
            HeapConfig::small_for_tests(),
            &[NodeId::new(0), NodeId::new(1)],
            2,
        )
    }

    #[test]
    fn clean_heap_has_no_violations() {
        let mut heap = heap();
        let a = heap.alloc_raw(0, &[1]).unwrap();
        let _v = heap.alloc_vector(0, &[a.raw(), 0]).unwrap();
        assert!(verify_heap(&heap).is_empty());
    }

    #[test]
    fn cross_local_pointer_detected() {
        let mut heap = heap();
        let foreign = heap.alloc_raw(1, &[5]).unwrap();
        let holder = heap.alloc_vector(0, &[foreign.raw()]).unwrap();
        let violations = verify_local_heap(heap.worker(0));
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].holder, holder);
        assert_eq!(violations[0].target, foreign);
        assert!(violations[0].rule.contains("distinct local heaps"));
        assert!(violations[0].to_string().contains("field 0"));
        // The target is in vproc 1's nursery, which worker 0 never reads: the
        // report names the vproc and no region.
        assert_eq!(violations[0].target_at, (ThreadedOwner::Local(1), None));
        let message = violations[0].to_string();
        let (_, target) = message.split_once("points to").unwrap();
        assert!(target.contains("vproc 1's local heap"), "{message}");
        for region in ["Old", "Young", "Reserve", "Nursery", "Free"] {
            assert!(!target.contains(region), "{message}");
        }
    }

    #[test]
    fn global_to_local_pointer_detected() {
        let mut heap = heap();
        let local_obj = heap.alloc_raw(0, &[3]).unwrap();
        let header = crate::header::Header::new(crate::header::ObjectKind::Vector, 1).encode();
        heap.worker_mut(0)
            .alloc_in_global(header, &[local_obj.raw()])
            .unwrap();
        let violations = verify_global_heap(heap.worker(0));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].rule.contains("global heap"));
    }

    #[test]
    fn pointers_to_global_are_fine_from_both_sides() {
        let mut heap = heap();
        let header = crate::header::Header::new(crate::header::ObjectKind::Raw, 1).encode();
        let global_obj = heap.worker_mut(0).alloc_in_global(header, &[11]).unwrap();
        heap.alloc_vector(0, &[global_obj.raw()]).unwrap();
        let vec_header = crate::header::Header::new(crate::header::ObjectKind::Vector, 1).encode();
        heap.worker_mut(1)
            .alloc_in_global(vec_header, &[global_obj.raw()])
            .unwrap();
        assert!(verify_heap(&heap).is_empty());
    }

    #[test]
    fn worker_walk_classifies_every_target_without_reading_it() {
        use crate::header::{Header, ObjectKind};
        use crate::shared::{SharedGlobalHeap, ThreadedLayout, WorkerHeap, GLOBAL_BASE};
        use crate::{Addr, DescriptorTable};
        use std::sync::Arc;

        let layout = ThreadedLayout::new(&HeapConfig::small_for_tests(), 2, 2);
        let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 2));
        let table = Arc::new(DescriptorTable::new());
        let worker = |v| {
            WorkerHeap::new(
                v,
                layout,
                NodeId::new(v as u16),
                global.clone(),
                table.clone(),
            )
        };
        let (mut w0, mut w1) = (worker(0), worker(1));

        // Legal: its own objects, and global objects in a current, filled or
        // from-space chunk (live objects still point into from-space between
        // the increments of a budgeted global collection).
        let own = w0.alloc_raw(&[1]).unwrap();
        let raw = Header::new(ObjectKind::Raw, 1).encode();
        let promoted = w0.alloc_in_global(raw, &[2]).unwrap();
        let chunk = w0.current_chunk().unwrap().clone();
        w0.alloc_vector(&[own.raw(), promoted.raw(), 0]).unwrap();
        assert!(w0.verify_violations().is_empty());
        w0.retire_current_chunk();
        assert!(w0.verify_violations().is_empty());
        chunk.set_state(SharedChunkState::FromSpace);
        assert!(w0.verify_violations().is_empty());

        // Illegal, one field each: another vproc's local heap (classified by
        // arithmetic — reading it would panic), this heap's free space, an
        // address no region maps, a band address no chunk is mapped at, and
        // — once the chunk is released — a pooled chunk.
        let foreign = w1.alloc_raw(&[3]).unwrap();
        let free = w0.local().addr_of(w0.local().old_top() + 1);
        let beyond = Addr::new(GLOBAL_BASE + 64 * layout.chunk_words() as u64);
        w0.alloc_vector(&[foreign.raw(), free.raw(), 8, beyond.raw()])
            .unwrap();
        global.release(&chunk);
        let violations = w0.verify_violations();
        for (violation, rule) in violations.iter().zip([
            "released global chunk",
            "distinct local heaps",
            "reclaimed local-heap space",
            "unmapped memory",
            "unmapped memory",
        ]) {
            assert!(violation.rule.contains(rule), "{violation} vs {rule}");
        }
        assert_eq!(violations.len(), 5);
        // The other worker's heap is clean, and says nothing about this one.
        assert!(w1.verify_violations().is_empty());
    }

    #[test]
    fn raw_objects_never_flag_violations() {
        let mut heap = heap();
        // A raw object whose bits happen to look like a foreign address.
        let foreign = heap.alloc_raw(1, &[1]).unwrap();
        heap.alloc_raw(0, &[foreign.raw()]).unwrap();
        assert!(verify_heap(&heap).is_empty());
    }
}
