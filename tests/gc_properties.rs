//! Property-based tests over the collector: randomly generated object graphs
//! and collection schedules must never lose or corrupt reachable data, and
//! must never violate the heap invariants.

use manticore_gc::gc::{Collector, GcConfig};
use manticore_gc::heap::{verify_heap, Addr, GcHeap, Heap, HeapConfig};
use manticore_gc::numa::NodeId;
use std::collections::HashMap;

/// A script step for the property tests.
#[derive(Debug, Clone)]
enum Step {
    /// Allocate a raw object with this payload seed and keep it as a root.
    AllocKeep(u8, u8),
    /// Allocate a vector referencing up to two existing roots.
    AllocVector(u8, u8),
    /// Drop one root (making its object garbage unless referenced elsewhere).
    DropRoot(u8),
    /// Run a minor collection.
    Minor,
    /// Run a minor followed by a major collection.
    Major,
    /// Promote one root's object graph.
    Promote(u8),
    /// Run a global collection.
    Global,
}

/// A splitmix64 stream seeded by the case number, so every run of a
/// property sees the same cases.
struct CaseRng(u64);

impl CaseRng {
    fn for_case(case: u64) -> Self {
        let mut rng = CaseRng(0x5EED_C0DE ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `range`.
    fn in_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        range.start + self.next_u64() % (range.end - range.start)
    }

    fn byte(&mut self) -> u8 {
        self.next_u64() as u8
    }

    /// One to 59 uniformly chosen steps.
    fn steps(&mut self) -> Vec<Step> {
        let len = self.in_range(1..60);
        (0..len)
            .map(|_| match self.in_range(0..7) {
                0 => Step::AllocKeep(self.byte(), self.byte()),
                1 => Step::AllocVector(self.byte(), self.byte()),
                2 => Step::DropRoot(self.byte()),
                3 => Step::Minor,
                4 => Step::Major,
                5 => Step::Promote(self.byte()),
                _ => Step::Global,
            })
            .collect()
    }
}

/// Recursively reads the logical contents of an object so we can compare
/// before/after collections. Raw objects yield their payload; vectors yield
/// the contents of their referents.
fn snapshot(heap: &Heap, addr: Addr, depth: usize) -> Vec<u64> {
    if depth > 6 || addr.is_null() {
        return vec![];
    }
    let addr = follow(heap, addr);
    let object = heap.locate(addr);
    let header = object.header();
    match header.kind {
        manticore_gc::heap::ObjectKind::Raw => object.payload(),
        _ => {
            let mut out = vec![0xFEED];
            for i in 0..header.len_words as usize {
                let word = heap.read_field(addr, i);
                if word == 0 {
                    out.push(0);
                } else {
                    out.extend(snapshot(heap, Addr::new(word), depth + 1));
                }
            }
            out
        }
    }
}

/// The current copy of the object at `addr`: the heap's resolver, following
/// every forward, global ones included.
fn follow(heap: &Heap, addr: Addr) -> Addr {
    heap.resolve(heap.global(), addr, true).addr
}

#[test]
fn random_schedules_never_lose_reachable_data() {
    for case in 0..48 {
        let steps = CaseRng::for_case(case).steps();
        let mut heap = Heap::new(
            HeapConfig::small_for_tests(),
            &[NodeId::new(0), NodeId::new(1)],
            2,
        );
        let mut collector = Collector::new(GcConfig::small_for_tests(), 2, 2);
        let mut roots: Vec<Addr> = Vec::new();
        let mut counter = 0u64;

        for step in steps {
            match step {
                Step::AllocKeep(seed, len) => {
                    let len = (len % 12 + 1) as usize;
                    counter += 1;
                    let payload: Vec<u64> = (0..len as u64)
                        .map(|i| u64::from(seed) * 1000 + counter * 100 + i)
                        .collect();
                    if let Ok(obj) = heap.alloc_raw(0, &payload) {
                        roots.push(obj);
                    } else {
                        let outcome = collector.collect_local(&mut heap, 0, &mut roots);
                        assert!(outcome.cost.cpu_ns > 0.0);
                        roots.push(
                            heap.alloc_raw(0, &payload)
                                .expect("post-collection allocation succeeds"),
                        );
                    }
                }
                Step::AllocVector(a, b) => {
                    if roots.is_empty() {
                        continue;
                    }
                    let x = roots[a as usize % roots.len()];
                    let y = roots[b as usize % roots.len()];
                    match heap.alloc_vector(0, &[x.raw(), y.raw()]) {
                        Ok(v) => roots.push(v),
                        Err(_) => {
                            let _ = collector.collect_local(&mut heap, 0, &mut roots);
                            // Re-resolve the referents after the collection.
                            let x = follow(&heap, roots[a as usize % roots.len()]);
                            let y = follow(&heap, roots[b as usize % roots.len()]);
                            roots.push(
                                heap.alloc_vector(0, &[x.raw(), y.raw()])
                                    .expect("post-collection allocation succeeds"),
                            );
                        }
                    }
                }
                Step::DropRoot(i) => {
                    if !roots.is_empty() {
                        let index = i as usize % roots.len();
                        roots.remove(index);
                    }
                }
                Step::Minor => {
                    collector.minor(&mut heap, 0, &mut roots);
                }
                Step::Major => {
                    collector.minor(&mut heap, 0, &mut roots);
                    collector.major(&mut heap, 0, &mut roots);
                }
                Step::Promote(i) => {
                    if !roots.is_empty() {
                        let index = i as usize % roots.len();
                        let (new, _) = collector.promote(&mut heap, 0, roots[index]);
                        roots[index] = new;
                    }
                }
                Step::Global => {
                    let mut per_vproc = vec![roots.clone(), Vec::new()];
                    collector.global(&mut heap, &mut per_vproc);
                    roots = per_vproc.swap_remove(0);
                }
            }

            // Invariants hold after every step.
            assert!(verify_heap(&heap).is_empty());
        }

        // Snapshot every root, run the heaviest collection pipeline, and
        // check the logical contents are unchanged.
        let before: HashMap<usize, Vec<u64>> = roots
            .iter()
            .enumerate()
            .map(|(i, &r)| (i, snapshot(&heap, r, 0)))
            .collect();
        collector.collect_local(&mut heap, 0, &mut roots);
        let mut per_vproc = vec![roots.clone(), Vec::new()];
        collector.global(&mut heap, &mut per_vproc);
        roots = per_vproc.swap_remove(0);
        for (i, &root) in roots.iter().enumerate() {
            assert_eq!(
                &before[&i],
                &snapshot(&heap, root, 0),
                "root {} changed contents",
                i
            );
        }
        assert!(verify_heap(&heap).is_empty());
    }
}

#[test]
fn header_round_trips() {
    use manticore_gc::heap::{Header, ObjectKind};
    for case in 0..48 {
        let mut rng = CaseRng::for_case(case);
        let id = rng.in_range(1..0x7FFF) as u16;
        let len = rng.in_range(0..1 << 48);
        let header = Header::new(ObjectKind::from_id(id), len);
        let decoded = Header::decode(header.encode()).expect("headers decode");
        assert_eq!(decoded, header);
    }
}

#[test]
fn placement_policies_always_return_valid_nodes() {
    use manticore_gc::numa::{AllocPolicy, PagePlacer};
    for case in 0..48 {
        let mut rng = CaseRng::for_case(case);
        let policy_index = rng.in_range(0..AllocPolicy::ALL.len() as u64) as usize;
        let request_count = rng.in_range(1..64);
        let requests: Vec<u16> = (0..request_count)
            .map(|_| rng.in_range(0..8) as u16)
            .collect();
        let policy = AllocPolicy::ALL[policy_index];
        let placer = PagePlacer::new(policy, 8);
        for r in requests {
            let node = placer.place(manticore_gc::numa::NodeId::new(r));
            assert!(node.index() < 8);
        }
    }
}
