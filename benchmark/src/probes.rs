//! Per-layer probes: the traced run times the layers' public functions
//! directly, one span per iteration batch, and reports the median cost per
//! operation (or per KiB moved) over the batches.
//!
//! Nothing here is an end-to-end number. A probe exists so that a change to
//! one layer has a tracked cost underneath the workload that should move —
//! `README.md` lists which end-to-end metric each probe predicts.

use crate::json::{self, Obj};
use crate::spans::{span_to_json, Tracer};
use crate::stats::median;
use mgc_core::{
    evacuate_roots, flip_to_from_space, release_from_space, scan_pass, Collector, GcConfig,
    Histogram, ParallelGcState,
};
use mgc_heap::{
    Addr, DescriptorTable, GcHeap, Header, Heap, HeapConfig, ObjectKind, SharedGlobalHeap,
    ThreadedLayout, WorkerHeap,
};
use mgc_numa::{
    AdaptiveController, MemoryModel, NodeId, PageMap, Topology, Traffic, VprocRoundCost, PAGE_SIZE,
};
use mgc_runtime::{
    Backend, EnvOverrides, Executor, Experiment, Program, RunRecord, TaskResult, TaskSpec,
};
use mgc_store::{Query, RunMeta, Store};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Times the measured part of one probe batch under a span.
struct Timed<'a> {
    tracer: &'a mut Tracer,
    span: &'a str,
    ns: f64,
}

impl Timed<'_> {
    fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let open = self.tracer.enter(self.span);
        let result = f();
        self.ns += self.tracer.exit(open);
        result
    }
}

struct Probes<'a> {
    tracer: &'a mut Tracer,
    values: BTreeMap<String, f64>,
    batches: usize,
}

impl Probes<'_> {
    /// Runs `batch` `self.batches` times. Each call times its measured part
    /// through [`Timed::run`] and returns how many units (operations, KiB)
    /// that part covered; the metric is the median nanoseconds per unit.
    fn probe(&mut self, metric: &str, mut batch: impl FnMut(&mut Timed<'_>) -> f64) {
        let span = span_name(metric);
        let costs: Vec<f64> = (0..self.batches)
            .map(|_| {
                let mut timed = Timed {
                    tracer: &mut *self.tracer,
                    span,
                    ns: 0.0,
                };
                let units = batch(&mut timed);
                timed.ns / units.max(1.0)
            })
            .collect();
        self.values.insert(metric.to_string(), median(&costs));
    }
}

/// The span of a probe: its metric's name without the unit suffix.
fn span_name(metric: &str) -> &str {
    [
        "_ns_per_kib",
        "_ns_per_task",
        "_ns_per_msg",
        "_ns",
        "_ms",
        "_us",
    ]
    .iter()
    .find_map(|suffix| metric.strip_suffix(suffix))
    .unwrap_or(metric)
}

const WORDS8: [u64; 8] = [7; 8];
const NS_PER_MS: f64 = 1e6;
const NS_PER_US: f64 = 1e3;

fn collector(vprocs: usize) -> Collector {
    Collector::new(GcConfig::default(), vprocs, 1)
}

/// One worker's view of a fresh threaded heap (one vproc, one node).
fn worker_heap() -> (WorkerHeap, Arc<SharedGlobalHeap>) {
    let layout = ThreadedLayout::new(&HeapConfig::default(), 1, 1);
    let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 1));
    let worker = WorkerHeap::new(
        0,
        layout,
        NodeId::new(0),
        global.clone(),
        Arc::new(DescriptorTable::new()),
    );
    (worker, global)
}

/// The two heap stacks behind one allocation interface, so each probe is
/// written once and run on both.
trait ProbeHeap: GcHeap + Sized {
    fn fresh() -> Self;
    fn raw(&mut self, payload: &[u64]) -> Option<Addr>;
    fn vector(&mut self, elements: &[u64]) -> Option<Addr>;
}

impl ProbeHeap for WorkerHeap {
    fn fresh() -> Self {
        worker_heap().0
    }
    fn raw(&mut self, payload: &[u64]) -> Option<Addr> {
        self.alloc_raw(payload).ok()
    }
    fn vector(&mut self, elements: &[u64]) -> Option<Addr> {
        self.alloc_vector(elements).ok()
    }
}

impl ProbeHeap for Heap {
    fn fresh() -> Self {
        Heap::new(HeapConfig::default(), &[NodeId::new(0)], 1)
    }
    fn raw(&mut self, payload: &[u64]) -> Option<Addr> {
        self.alloc_raw(0, payload).ok()
    }
    fn vector(&mut self, elements: &[u64]) -> Option<Addr> {
        self.alloc_vector(0, elements).ok()
    }
}

/// Fills the nursery with 8-word objects, keeping every fourth as a root.
fn fill_nursery<H: ProbeHeap>(heap: &mut H) -> (Vec<Addr>, usize) {
    let mut roots = Vec::new();
    let mut allocated = 0;
    while let Some(obj) = heap.raw(&WORDS8) {
        if allocated % 4 == 0 {
            roots.push(obj);
        }
        allocated += 1;
    }
    (roots, allocated)
}

/// A list of `nodes` cells, each a two-slot vector pointing at a one-word
/// value and at the rest of the list. Returns the head and the list's bytes.
fn build_list<H: ProbeHeap>(heap: &mut H, nodes: usize) -> Addr {
    let mut list = Addr::NULL;
    for i in 0..nodes as u64 {
        let value = heap.raw(&[i]).expect("the list fits in the nursery");
        list = heap
            .vector(&[value.raw(), list.raw()])
            .expect("the list fits in the nursery");
    }
    list
}

const LIST_NODES: usize = 1_024;
/// Lists promoted and kept: about 1 MiB of live global data.
const LIVE_LISTS: usize = 26;
/// 16-word objects promoted and dropped: about 3 MiB of garbage.
const GARBAGE_OBJECTS: usize = 23_000;

/// Promotes ~1 MiB of live lists and ~3 MiB of garbage into the global heap
/// and empties the local heap, as the ramp-down before a global collection
/// does. Returns the live roots.
fn populate_global<H: ProbeHeap>(
    heap: &mut H,
    collector: &mut Collector,
    quick: bool,
) -> Vec<Addr> {
    let scale = if quick { 8 } else { 1 };
    let mut roots = Vec::new();
    let mut none: Vec<Addr> = Vec::new();
    for _ in 0..LIVE_LISTS / scale {
        let list = build_list(heap, LIST_NODES);
        roots.push(collector.promote(heap, 0, list).0);
        collector.minor(heap, 0, &mut none);
    }
    for i in 0..GARBAGE_OBJECTS / scale {
        let garbage = match heap.raw(&[0xdead; 16]) {
            Some(obj) => obj,
            None => {
                collector.minor(heap, 0, &mut none);
                heap.raw(&[0xdead; 16]).expect("an empty nursery has room")
            }
        };
        let _ = collector.promote(heap, 0, garbage);
        if i % 1024 == 0 {
            collector.minor(heap, 0, &mut none);
        }
    }
    collector.minor(heap, 0, &mut none);
    collector.major(heap, 0, &mut none);
    roots
}

/// An empty program: what starting and stopping the runtime costs.
struct Empty;

impl Program for Empty {
    fn name(&self) -> &str {
        "probe-empty"
    }
    fn spawn(&self, executor: &mut dyn Executor) {
        executor.spawn_root(TaskSpec::new("empty", |_ctx| TaskResult::Unit));
    }
}

/// A binary fork/join tree with `2^depth` empty leaves.
struct ForkJoinTree {
    depth: u32,
}

fn tree_task(depth: u32) -> TaskSpec {
    TaskSpec::new("tree", move |ctx| {
        if depth > 0 {
            ctx.fork_join(
                vec![
                    (tree_task(depth - 1), vec![]),
                    (tree_task(depth - 1), vec![]),
                ],
                TaskSpec::new("join", |_ctx| TaskResult::Unit),
                &[],
            );
        }
        TaskResult::Unit
    })
}

impl Program for ForkJoinTree {
    fn name(&self) -> &str {
        "probe-forkjoin"
    }
    fn spawn(&self, executor: &mut dyn Executor) {
        executor.spawn_root(tree_task(self.depth));
    }
}

/// One task sending itself `messages` four-word messages over a channel;
/// every send promotes its message.
struct ChannelLoop {
    messages: usize,
}

impl Program for ChannelLoop {
    fn name(&self) -> &str {
        "probe-channel"
    }
    fn spawn(&self, executor: &mut dyn Executor) {
        let channel = executor.create_channel();
        let messages = self.messages;
        executor.spawn_root(TaskSpec::new("channel-loop", move |ctx| {
            let mark = ctx.root_mark();
            let mut sum = 0u64;
            for i in 0..messages as u64 {
                let message = ctx.alloc_raw(&[i, i, i, i]);
                ctx.send(channel, message);
                let received = ctx.recv(channel).expect("the message was just sent");
                sum = sum.wrapping_add(ctx.read_raw(received, 0));
                ctx.truncate_roots(mark);
            }
            TaskResult::Value(sum)
        }));
    }
}

fn run_probe_program(program: impl Program, backend: Backend, vprocs: usize) -> RunRecord {
    Experiment::new(program)
        .backend(backend)
        .vprocs(vprocs)
        .env_overrides(EnvOverrides::default())
        .run()
        .expect("probe programs are valid configurations")
}

fn heap_probes(p: &mut Probes<'_>) {
    // Bump allocation of an 8-word object, nursery full to nursery full.
    p.probe("heap.worker_alloc_ns", |t| {
        let mut heap = WorkerHeap::fresh();
        t.run(|| fill_nursery(black_box(&mut heap)).1) as f64
    });
    p.probe("heap.sim_alloc_ns", |t| {
        let mut heap = Heap::fresh();
        t.run(|| fill_nursery(black_box(&mut heap)).1) as f64
    });

    // One word of a promoted object, read through `GcHeap::read_field`.
    fn global_read<H: ProbeHeap>(t: &mut Timed<'_>) -> f64 {
        let mut heap = H::fresh();
        let mut collector = collector(1);
        let objects: Vec<Addr> = (0..1_024)
            .map(|_| {
                let obj = heap.raw(&WORDS8).expect("1,024 objects fit in the nursery");
                collector.promote(&mut heap, 0, obj).0
            })
            .collect();
        const ROUNDS: usize = 64;
        t.run(|| {
            let mut sum = 0u64;
            for round in 0..ROUNDS {
                for obj in &objects {
                    sum = sum.wrapping_add(heap.read_field(black_box(*obj), round % 8));
                }
            }
            black_box(sum);
        });
        (ROUNDS * objects.len()) as f64
    }
    p.probe("heap.global_read_ns", global_read::<WorkerHeap>);
    p.probe("heap.sim_global_read_ns", global_read::<Heap>);

    p.probe("heap.alloc_in_global_ns", |t| {
        let (mut worker, _global) = worker_heap();
        let header = Header::new(ObjectKind::Raw, 8).encode();
        const OBJECTS: usize = 10_000;
        t.run(|| {
            for _ in 0..OBJECTS {
                black_box(
                    worker
                        .alloc_in_global(header, &WORDS8)
                        .expect("8 words fit in a chunk"),
                );
            }
        });
        OBJECTS as f64
    });

    p.probe("heap.chunk_cycle_ns", |t| {
        let (_worker, global) = worker_heap();
        const CYCLES: usize = 10_000;
        t.run(|| {
            for _ in 0..CYCLES {
                let chunk = global.acquire(NodeId::new(0));
                global.release(black_box(&chunk));
            }
        });
        CYCLES as f64
    });
}

fn core_probes(p: &mut Probes<'_>, quick: bool) {
    // A minor collection of a full nursery, a quarter of it live.
    p.probe("core.minor_ns_per_kib", |t| {
        let mut heap = WorkerHeap::fresh();
        let mut collector = collector(1);
        let (mut roots, _) = fill_nursery(&mut heap);
        let outcome = t.run(|| collector.minor(&mut heap, 0, &mut roots));
        outcome.copied_bytes as f64 / 1024.0
    });

    // The major collection that follows two such minors.
    p.probe("core.major_ns_per_kib", |t| {
        let mut heap = WorkerHeap::fresh();
        let mut collector = collector(1);
        let (mut roots, _) = fill_nursery(&mut heap);
        collector.minor(&mut heap, 0, &mut roots);
        let (more, _) = fill_nursery(&mut heap);
        roots.extend(more);
        collector.minor(&mut heap, 0, &mut roots);
        let outcome = t.run(|| collector.major(&mut heap, 0, &mut roots));
        outcome.promoted_bytes as f64 / 1024.0
    });

    p.probe("core.promote_ns_per_kib", |t| {
        let mut heap = WorkerHeap::fresh();
        let mut collector = collector(1);
        let list = build_list(&mut heap, LIST_NODES);
        let (_, outcome) = t.run(|| collector.promote(&mut heap, 0, list));
        outcome.promoted_bytes as f64 / 1024.0
    });

    // The threaded global collection's phases, driven from one thread.
    p.probe("core.global_ns_per_kib", |t| {
        let (mut worker, global) = worker_heap();
        let mut collector = collector(1);
        let mut roots = populate_global(&mut worker, &mut collector, quick);
        worker.retire_current_chunk();
        let state = ParallelGcState::new();
        t.run(|| {
            let from_space = flip_to_from_space(&global);
            evacuate_roots(&mut worker, &mut roots, &state);
            loop {
                state.reset_work_index();
                if !scan_pass(&mut worker, &state) {
                    break;
                }
            }
            worker.retire_current_chunk();
            release_from_space(&global, &from_space);
        });
        state.copied_bytes.load(Ordering::Relaxed) as f64 / 1024.0
    });

    p.probe("core.sim_global_ns_per_kib", |t| {
        let mut heap = Heap::fresh();
        let mut collector = collector(1);
        let mut roots = vec![populate_global(&mut heap, &mut collector, quick)];
        let outcome = t.run(|| collector.global(&mut heap, &mut roots));
        outcome.copied_bytes as f64 / 1024.0
    });

    p.probe("core.hist_record_ns", |t| {
        const RECORDS: usize = 1_000_000;
        let mut h = Histogram::new();
        t.run(|| {
            let mut ns = 1.0;
            for _ in 0..RECORDS {
                h.record(black_box(ns));
                ns = if ns > 1e9 { 1.0 } else { ns * 1.37 };
            }
        });
        black_box(h.count);
        RECORDS as f64
    });
}

fn runtime_probes(p: &mut Probes<'_>, quick: bool) {
    p.probe("runtime.start_stop_ms", |t| {
        t.run(|| run_probe_program(Empty, Backend::Threaded, 2));
        NS_PER_MS
    });

    let depth = if quick { 10 } else { 14 };
    p.probe("runtime.forkjoin_ns_per_task", |t| {
        let record = t.run(|| run_probe_program(ForkJoinTree { depth }, Backend::Threaded, 2));
        // Only the run itself, not machine start and stop.
        t.ns = record.report.wall_clock_ns.unwrap_or(t.ns);
        record.report.total_tasks() as f64
    });
    p.probe("runtime.sim_forkjoin_ns_per_task", |t| {
        let record = t.run(|| run_probe_program(ForkJoinTree { depth }, Backend::Simulated, 2));
        record.report.total_tasks() as f64
    });

    let messages = if quick { 2_000 } else { 20_000 };
    p.probe("runtime.channel_ns_per_msg", |t| {
        let record = t.run(|| run_probe_program(ChannelLoop { messages }, Backend::Threaded, 1));
        t.ns = record.report.wall_clock_ns.unwrap_or(t.ns);
        messages as f64
    });
}

fn numa_probes(p: &mut Probes<'_>) {
    let topology = Topology::amd_magny_cours_48();
    let nodes = topology.num_nodes();
    let model = MemoryModel::new(topology.clone());

    // One round of 48 busy vprocs, each touching its own and a remote node.
    let costs: Vec<VprocRoundCost> = topology
        .spread_cores(48)
        .into_iter()
        .enumerate()
        .map(|(i, core)| {
            let mut cost = VprocRoundCost::new(core, nodes);
            cost.add_cpu_ns(10_000.0 + i as f64);
            cost.add_traffic(topology.node_of_core(core), Traffic::new(64 * 200, 200));
            cost.add_traffic(
                NodeId::new(((i + 3) % nodes) as u16),
                Traffic::new(64 * 50, 50),
            );
            cost
        })
        .collect();
    p.probe("numa.round_duration_ns", |t| {
        const ROUNDS: usize = 2_000;
        t.run(|| {
            for _ in 0..ROUNDS {
                black_box(model.round_duration(black_box(&costs)));
            }
        });
        ROUNDS as f64
    });

    p.probe("numa.access_cost_ns", |t| {
        const CALLS: usize = 1_000_000;
        t.run(|| {
            let mut sum = 0.0;
            for i in 0..CALLS {
                let src = NodeId::new((i % nodes) as u16);
                let dst = NodeId::new((i / nodes % nodes) as u16);
                sum += model.access_cost_ns(src, dst, black_box(Traffic::new(4_096, 64)));
            }
            black_box(sum);
        });
        CALLS as f64
    });

    let mut pages = PageMap::new();
    const REGIONS: usize = 1_024;
    for region in 0..REGIONS {
        pages.place(
            (region * 64 * PAGE_SIZE) as u64,
            64 * PAGE_SIZE,
            NodeId::new((region % nodes) as u16),
        );
    }
    p.probe("numa.pagemap_node_of_ns", |t| {
        const LOOKUPS: usize = 1_000_000;
        t.run(|| {
            let mut hits = 0usize;
            for i in 0..LOOKUPS {
                let addr = (i.wrapping_mul(0x9E37_79B9) % (REGIONS * 64 * PAGE_SIZE)) as u64;
                hits += usize::from(pages.node_of(black_box(addr)).is_some());
            }
            black_box(hits);
        });
        LOOKUPS as f64
    });

    p.probe("numa.adaptive_record_ns", |t| {
        const RECORDS: usize = 1_000_000;
        let mut controller = AdaptiveController::new();
        t.run(|| {
            for i in 0..RECORDS as u64 {
                // Alternate local- and remote-heavy stretches so the
                // controller's windows actually evaluate and switch.
                let remote = if (i / 4_096) % 2 == 0 { 8 } else { 512 };
                controller.record_promotion(black_box(256), black_box(remote));
            }
        });
        black_box(controller.switches());
        RECORDS as f64
    });
}

fn store_probes(p: &mut Probes<'_>, scratch: &Path) {
    let dir = scratch.join(format!("probe-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = run_probe_program(Empty, Backend::Simulated, 1);
    let records: Vec<RunRecord> = (0..36).map(|_| record.clone()).collect();
    // Spelled out instead of `RunMeta::capture`, which shells out to git.
    let meta = RunMeta {
        git_rev: "probe".into(),
        timestamp_unix: 0,
        host_nodes: 1,
        host_cores: 1,
        scale: "probe".into(),
        kind: "probe".into(),
    };
    p.probe("store.append_ms", |t| {
        t.run(|| Store::append(&dir, &meta, &records).expect("the scratch store is writable"));
        NS_PER_MS
    });
    p.probe("store.latest_per_key_us", |t| {
        let store = Store::open(&dir).expect("the batches just written parse");
        t.run(|| black_box(Query::new().latest_per_key(&store).len()));
        NS_PER_US
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs every probe and returns the one JSON line the probe process prints:
/// `{"values": {metric: median cost}, "spans": [...]}`. `scratch` is a
/// directory inside the benchmark's own tree for the temporary store.
pub fn run_probes_json(quick: bool, scratch: &Path) -> String {
    let mut tracer = Tracer::new("probes", true);
    let root = tracer.enter("bench.probes");
    let mut probes = Probes {
        tracer: &mut tracer,
        values: BTreeMap::new(),
        batches: if quick { 3 } else { 9 },
    };
    heap_probes(&mut probes);
    core_probes(&mut probes, quick);
    runtime_probes(&mut probes, quick);
    numa_probes(&mut probes);
    store_probes(&mut probes, scratch);
    let values = probes.values;
    tracer.exit(root);

    let mut fields = Obj::new();
    for (name, value) in &values {
        fields = fields.num(name, *value);
    }
    Obj::new()
        .raw("values", fields.finish())
        .raw(
            "spans",
            json::array(tracer.into_spans().iter().map(span_to_json)),
        )
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn every_probe_reports_a_positive_cost_under_a_listed_name() {
        let parsed = mgc_store::json::parse(&run_probes_json(true, &crate::out_dir())).unwrap();
        assert_eq!(span_name("core.minor_ns_per_kib"), "core.minor");
        assert_eq!(span_name("store.append_ms"), "store.append");
        let values = json::get_fields(&parsed, "values");
        assert_eq!(values.len(), 22);
        for (name, value) in values {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{name} is unlisted"
            );
            assert!(value.as_f64().unwrap() > 0.0, "{name} = {value:?}");
        }
        let spans = parsed.get("spans").unwrap().as_array().unwrap();
        // The root span plus one per probe batch (three batches when quick).
        assert_eq!(spans.len(), 1 + 3 * values.len());
    }
}
