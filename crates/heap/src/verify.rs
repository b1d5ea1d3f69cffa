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
//! heap ([`verify_local_heap`] — classification by address arithmetic and
//! chunk states only, so nothing another worker owns is read).

use crate::addr::{word_as_pointer, Addr};
use crate::gc_heap::GcHeap;
use crate::heap::{Heap, Space};
use crate::shared::SharedChunkState;
use std::fmt;

/// A single violation of the heap invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The object holding the offending field.
    pub holder: Addr,
    /// The space the holder lives in.
    pub holder_space: Space,
    /// The payload index of the offending field.
    pub field: usize,
    /// The address the field points to.
    pub target: Addr,
    /// The space the target lives in.
    pub target_space: Space,
    /// Human-readable description of the rule that was broken.
    pub rule: &'static str,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{rule}: object {holder} ({holder_space:?}) field {field} points to {target} ({target_space:?})",
            rule = self.rule,
            holder = self.holder,
            holder_space = self.holder_space,
            field = self.field,
            target = self.target,
            target_space = self.target_space,
        )
    }
}

fn check_fields<H: GcHeap>(
    heap: &H,
    obj: Addr,
    violations: &mut Vec<InvariantViolation>,
    rule: impl Fn(Space, Space) -> Option<&'static str>,
) {
    let header = heap.header_of(obj);
    let holder_space = heap.space_of(obj);
    let indices = match heap.pointer_field_indices(header) {
        Ok(indices) => indices,
        Err(_) => return,
    };
    for index in indices {
        let word = heap.read_field(obj, index);
        let Some(target) = word_as_pointer(word) else {
            continue;
        };
        let target_space = heap.space_of(target);
        if let Some(rule) = rule(holder_space, target_space) {
            violations.push(InvariantViolation {
                holder: obj,
                holder_space,
                field: index,
                target,
                target_space,
                rule,
            });
        }
    }
}

/// Checks the pointer discipline of one vproc's local heap: every pointer
/// field must target an allocated part of the same vproc's local heap or a
/// global chunk that is in use. A from-space chunk counts as in use: between
/// the increments of a budgeted global collection live objects still point
/// into it.
pub fn verify_local_heap<H: GcHeap>(heap: &H, vproc: usize) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    let local = heap.local(vproc);
    let objects: Vec<Addr> = local
        .old_objects()
        .chain(local.young_objects())
        .chain(local.nursery_objects())
        .map(|(addr, _)| addr)
        .collect();
    for obj in objects {
        check_fields(heap, obj, &mut violations, |_holder, target| match target {
            Space::LocalNursery { vproc: v }
            | Space::LocalYoung { vproc: v }
            | Space::LocalOld { vproc: v } => {
                if v == vproc {
                    None
                } else {
                    Some("no pointers between distinct local heaps")
                }
            }
            Space::LocalFree { .. } => Some("pointer into reclaimed local-heap space"),
            Space::Global { chunk } => {
                let state = heap.global().chunk_at(chunk.index()).state();
                (state == SharedChunkState::Free).then_some("pointer into a released global chunk")
            }
            Space::Unmapped => Some("pointer to unmapped memory"),
        });
    }
    violations
}

/// Checks the pointer discipline of the global heap: no pointer field of any
/// object in a live chunk (some vproc's current one, or a filled one) may
/// target a local heap.
pub fn verify_global_heap(heap: &Heap) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    for chunk in heap.global().snapshot() {
        if matches!(
            chunk.state(),
            SharedChunkState::Current | SharedChunkState::Filled
        ) {
            for obj in chunk.objects() {
                check_fields(heap, obj, &mut violations, |_holder, target| match target {
                    Space::Global { .. } => None,
                    Space::Unmapped => Some("pointer to unmapped memory"),
                    _ => Some("no pointers from the global heap into a local heap"),
                });
            }
        }
    }
    violations
}

/// Runs every invariant check over the whole heap.
pub fn verify_heap(heap: &Heap) -> Vec<InvariantViolation> {
    let mut violations = verify_global_heap(heap);
    for vproc in 0..heap.num_vprocs() {
        violations.extend(verify_local_heap(heap, vproc));
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
        let violations = verify_local_heap(&heap, 0);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].holder, holder);
        assert_eq!(violations[0].target, foreign);
        assert!(violations[0].rule.contains("distinct local heaps"));
        assert!(violations[0].to_string().contains("field 0"));
    }

    #[test]
    fn global_to_local_pointer_detected() {
        let mut heap = heap();
        let local_obj = heap.alloc_raw(0, &[3]).unwrap();
        let header = crate::header::Header::new(crate::header::ObjectKind::Vector, 1).encode();
        heap.alloc_in_global(0, header, &[local_obj.raw()]).unwrap();
        let violations = verify_global_heap(&heap);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].rule.contains("global heap"));
    }

    #[test]
    fn pointers_to_global_are_fine_from_both_sides() {
        let mut heap = heap();
        let header = crate::header::Header::new(crate::header::ObjectKind::Raw, 1).encode();
        let global_obj = heap.alloc_in_global(0, header, &[11]).unwrap();
        heap.alloc_vector(0, &[global_obj.raw()]).unwrap();
        let vec_header = crate::header::Header::new(crate::header::ObjectKind::Vector, 1).encode();
        heap.alloc_in_global(1, vec_header, &[global_obj.raw()])
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
        let free = w0.local(0).addr_of(w0.local(0).old_top() + 1);
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
