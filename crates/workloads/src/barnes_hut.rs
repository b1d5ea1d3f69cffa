//! The Barnes-Hut N-body benchmark (paper §4.1: 20 iterations over 400,000
//! particles in a Plummer distribution, after the Haskell/NDP version).
//!
//! Each iteration has two phases, exactly as the paper describes: a
//! (sequential) quadtree construction over the particles, and a parallel
//! force-calculation phase that reads the shared tree. The tree is built in
//! the iteration task's local heap and reaches the global heap by two
//! routes. When force tasks are stolen by other vprocs, the steal promotes
//! the tree and it becomes shared read-only data — which, together with the
//! sequential build phase, is why the paper sees Barnes-Hut stop scaling
//! past ~36 threads. Without steals, the iteration's own major collections
//! drain the tree into the global heap as well: of the 11.04 M node visits
//! of the benchmark's `nbody-steal` cell (8,192 particles, 4 iterations,
//! seed 0), 69 % (7.62 M) land in the global heap at one vproc, which never
//! steals, and 99.99 % at two.
//!
//! Each particle's force walk is one [`TaskCtx::read_scope`]: the tree is
//! read through raw references, as the paper's mutator holds pointers in
//! registers between GC points. A node visit reads the node's mass and
//! centre of mass with one [`ReadScope::fields`] and its four children with
//! one [`ReadScope::ptrs`]: at most one locate (an offset when the node
//! shares the previous node's chunk), and no roots pushed.

use crate::scale::Scale;
use mgc_heap::{f64_to_word, word_to_f64, Descriptor, DescriptorId};
use mgc_runtime::{
    Checksum, Executor, FieldInit, Handle, Obj, Program, ReadScope, TaskCtx, TaskResult, TaskSpec,
};

/// Particle count at the benchmark preset. The force phase is close to
/// quadratic at the opening angle used here, so the benchmark keeps the
/// particle count low and adds iterations instead.
pub const BENCH_PARTICLES: usize = 2_048;

/// Iteration count at the benchmark preset.
pub const BENCH_ITERATIONS: usize = 4;

/// Number of particles at the given scale (the paper uses 400,000).
pub fn num_particles(scale: Scale) -> usize {
    if scale.is_bench() {
        return BENCH_PARTICLES;
    }
    scale.apply(400_000, 512)
}

/// Number of iterations at the given scale (the paper runs 20).
pub fn num_iterations(scale: Scale) -> usize {
    if scale.is_bench() {
        return BENCH_ITERATIONS;
    }
    scale.apply(20, 2)
}

/// Parameters of the Barnes-Hut benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarnesHutParams {
    /// Number of particles in the Plummer distribution (the paper uses
    /// 400,000).
    pub particles: usize,
    /// Number of build-tree/compute-forces iterations (the paper runs 20).
    pub iterations: usize,
}

impl BarnesHutParams {
    /// The paper's input shrunk by `scale` (floors: 512 particles, 2
    /// iterations).
    pub fn at_scale(scale: Scale) -> Self {
        BarnesHutParams {
            particles: num_particles(scale),
            iterations: num_iterations(scale),
        }
    }
}

impl Default for BarnesHutParams {
    fn default() -> Self {
        BarnesHutParams::at_scale(Scale::default())
    }
}

/// The Barnes-Hut N-body simulation as a [`Program`].
///
/// The expected checksum comes from [`reference_checksum`], a plain-Rust
/// sequential mirror of the same tree build, force calculation, and
/// integration in the same floating-point operation order — so the parallel
/// runs are checked against independently computed physics, not just
/// against each other.
#[derive(Debug, Clone, Copy)]
pub struct BarnesHut {
    /// The run's parameters.
    pub params: BarnesHutParams,
}

impl BarnesHut {
    /// A Barnes-Hut program with explicit parameters.
    pub fn new(params: BarnesHutParams) -> Self {
        BarnesHut { params }
    }

    /// A Barnes-Hut program at the paper's input scaled by `scale`.
    pub fn at_scale(scale: Scale) -> Self {
        BarnesHut::new(BarnesHutParams::at_scale(scale))
    }
}

impl Program for BarnesHut {
    fn name(&self) -> &str {
        "Barnes-Hut"
    }

    fn spawn(&self, machine: &mut dyn Executor) {
        spawn_with(machine, self.params);
    }

    fn expected_checksum(&self) -> Option<Checksum> {
        Some(Checksum::F64(reference_checksum(self.params)))
    }

    fn params_json(&self) -> String {
        format!(
            "{{\"particles\": {}, \"iterations\": {}}}",
            self.params.particles, self.params.iterations
        )
    }
}

/// Opening threshold of the Barnes-Hut approximation.
const THETA: f64 = 0.5;
/// Integration time step.
const DT: f64 = 0.01;
/// Gravitational constant (arbitrary units).
const G: f64 = 1.0;

/// A particle: mass, position, and velocity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Particle mass.
    pub mass: f64,
    /// Position.
    pub x: f64,
    /// Position.
    pub y: f64,
    /// Velocity.
    pub vx: f64,
    /// Velocity.
    pub vy: f64,
}

/// Generates `n` particles in a 2-D Plummer-like distribution,
/// deterministically.
pub fn plummer_particles(n: usize) -> Vec<Particle> {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            // Plummer radial profile: r = a / sqrt(u^(-2/3) - 1).
            let u = uniform().clamp(1e-6, 1.0 - 1e-6);
            let r = 1.0 / (u.powf(-2.0 / 3.0) - 1.0).sqrt().max(1e-3);
            let angle = uniform() * std::f64::consts::TAU;
            let speed = 0.2 * uniform();
            let vangle = uniform() * std::f64::consts::TAU;
            Particle {
                mass: 1.0 / n as f64,
                x: r.min(10.0) * angle.cos(),
                y: r.min(10.0) * angle.sin(),
                vx: speed * vangle.cos(),
                vy: speed * vangle.sin(),
            }
        })
        .collect()
}

/// Registers the quadtree node descriptor on a machine: four child pointers
/// followed by mass and the centre of mass.
fn register_tree_descriptor(machine: &mut dyn Executor) -> DescriptorId {
    machine.register_descriptor(Descriptor::new("bh-quadtree-node", 7, 0b0000_1111))
}

/// The node's first child field; the four children are fields 0–3.
const F_CHILDREN: usize = 0;
/// The node's mass field; the centre of mass `(x, y)` follows it.
const F_MASS: usize = 4;

/// Builds the quadtree over `particles` inside the current task's heap and
/// returns the root node (or `None` for an empty set).
fn build_tree(
    ctx: &mut TaskCtx<'_>,
    desc: DescriptorId,
    particles: &[Particle],
    cx: f64,
    cy: f64,
    half: f64,
    depth: usize,
) -> Option<Handle> {
    if particles.is_empty() {
        return None;
    }
    let mass: f64 = particles.iter().map(|p| p.mass).sum();
    let com_x: f64 = particles.iter().map(|p| p.mass * p.x).sum::<f64>() / mass;
    let com_y: f64 = particles.iter().map(|p| p.mass * p.y).sum::<f64>() / mass;
    ctx.work(particles.len() as u64 * 6);
    if particles.len() == 1 || depth > 24 {
        return Some(ctx.alloc_mixed(
            desc,
            &[
                FieldInit::Ptr(None),
                FieldInit::Ptr(None),
                FieldInit::Ptr(None),
                FieldInit::Ptr(None),
                FieldInit::F64(mass),
                FieldInit::F64(com_x),
                FieldInit::F64(com_y),
            ],
        ));
    }
    let mut quadrants: [Vec<Particle>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for &p in particles {
        let index = (usize::from(p.x >= cx)) | (usize::from(p.y >= cy) << 1);
        quadrants[index].push(p);
    }
    let offsets = [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5)];
    let mut children: [Option<Handle>; 4] = [None; 4];
    for (i, quadrant) in quadrants.iter().enumerate() {
        children[i] = build_tree(
            ctx,
            desc,
            quadrant,
            cx + offsets[i].0 * half,
            cy + offsets[i].1 * half,
            half / 2.0,
            depth + 1,
        );
    }
    Some(ctx.alloc_mixed(
        desc,
        &[
            FieldInit::Ptr(children[0]),
            FieldInit::Ptr(children[1]),
            FieldInit::Ptr(children[2]),
            FieldInit::Ptr(children[3]),
            FieldInit::F64(mass),
            FieldInit::F64(com_x),
            FieldInit::F64(com_y),
        ],
    ))
}

/// Computes the acceleration exerted on `(px, py)` by the subtree at `node`.
fn accel_from<'s>(
    r: &mut ReadScope<'s, '_>,
    node: Obj<'s>,
    px: f64,
    py: f64,
    cell_size: f64,
) -> (f64, f64) {
    let [mass, cx, cy] = r.fields(node, F_MASS);
    let (mass, cx, cy) = (word_to_f64(mass), word_to_f64(cx), word_to_f64(cy));
    let dx = cx - px;
    let dy = cy - py;
    let dist2 = dx * dx + dy * dy + 1e-6;
    let dist = dist2.sqrt();
    r.work(16);

    let children: [Option<Obj<'s>>; 4] = r.ptrs(node, F_CHILDREN);
    let is_leaf = children.iter().all(Option::is_none);
    if is_leaf || cell_size / dist < THETA {
        let f = G * mass / (dist2 * dist);
        return (f * dx, f * dy);
    }
    let mut ax = 0.0;
    let mut ay = 0.0;
    for child in children.into_iter().flatten() {
        let (cax, cay) = accel_from(r, child, px, py, cell_size / 2.0);
        ax += cax;
        ay += cay;
    }
    (ax, ay)
}

/// Allocates one leaf holding `particles`, five words each, written in
/// place.
fn alloc_particle_leaf(ctx: &mut TaskCtx<'_>, particles: &[Particle]) -> Handle {
    ctx.alloc_raw_with(particles.len() * 5, |i| {
        let p = &particles[i / 5];
        f64_to_word([p.mass, p.x, p.y, p.vx, p.vy][i % 5])
    })
}

fn words_to_particles(words: &[u64]) -> impl Iterator<Item = Particle> + '_ {
    words.chunks(5).map(|c| Particle {
        mass: word_to_f64(c[0]),
        x: word_to_f64(c[1]),
        y: word_to_f64(c[2]),
        vx: word_to_f64(c[3]),
        vy: word_to_f64(c[4]),
    })
}

/// One iteration: build the tree, fork the force phase, update the
/// particles, and either start the next iteration or deliver the checksum.
fn iteration_task(desc: DescriptorId, remaining: usize, blocks: usize) -> TaskSpec {
    TaskSpec::new("bh-iteration", move |ctx| {
        // Input 0: the particle rope (one leaf per block of particles).
        let particle_rope = ctx.input(0);
        let leaves = ctx.len(particle_rope);
        let mut particles = Vec::new();
        let mut words = Vec::new();
        for i in 0..leaves {
            let mark = ctx.root_mark();
            let leaf = ctx
                .read_ptr(particle_rope, i)
                .expect("particle leaves are never null");
            words.clear();
            ctx.read_words_into(leaf, &mut words);
            particles.extend(words_to_particles(&words));
            ctx.truncate_roots(mark);
        }

        // Phase 1 (sequential): the quadtree.
        let mark = ctx.root_mark();
        let half = particles
            .iter()
            .map(|p| p.x.abs().max(p.y.abs()))
            .fold(1.0f64, f64::max);
        let tree = build_tree(ctx, desc, &particles, 0.0, 0.0, half, 0)
            .expect("there is at least one particle");
        let tree = ctx.keep(tree, mark);

        // Phase 2 (parallel): forces and integration, one child per block.
        let per_block = particles.len().div_ceil(blocks);
        let mut children = Vec::new();
        for block in 0..blocks {
            let lo = block * per_block;
            let hi = ((block + 1) * per_block).min(particles.len());
            if lo >= hi {
                continue;
            }
            let mine: Vec<Particle> = particles[lo..hi].to_vec();
            let cell = half * 2.0;
            children.push((
                TaskSpec::new("bh-forces", move |ctx| {
                    let tree = ctx.input(0);
                    let mut updated = Vec::with_capacity(mine.len());
                    for p in &mine {
                        let mark = ctx.root_mark();
                        let (ax, ay) = ctx.read_scope(|r| {
                            let tree = r.obj(tree);
                            accel_from(r, tree, p.x, p.y, cell)
                        });
                        // The walk pushed no roots; this keeps the
                        // per-particle safe point.
                        ctx.truncate_roots(mark);
                        let vx = p.vx + ax * DT;
                        let vy = p.vy + ay * DT;
                        updated.push(Particle {
                            mass: p.mass,
                            x: p.x + vx * DT,
                            y: p.y + vy * DT,
                            vx,
                            vy,
                        });
                    }
                    ctx.work(mine.len() as u64 * 40);
                    let leaf = alloc_particle_leaf(ctx, &updated);
                    TaskResult::Ptr(leaf)
                }),
                vec![tree],
            ));
        }

        // Continuation: gather the updated leaves into the next particle
        // rope, then either iterate again or compute the checksum.
        let continuation = if remaining > 1 {
            TaskSpec::new("bh-next-iteration", move |ctx| {
                let leaves: Vec<Option<Handle>> =
                    (0..ctx.num_roots()).map(|i| Some(ctx.input(i))).collect();
                let rope = ctx.alloc_vector(&leaves);
                ctx.fork_join(
                    vec![(iteration_task(desc, remaining - 1, blocks), vec![rope])],
                    TaskSpec::new("bh-forward", |ctx| TaskResult::Value(ctx.value(0))),
                    &[],
                );
                TaskResult::Unit
            })
        } else {
            TaskSpec::new("bh-checksum", |ctx| {
                let mut checksum = 0.0;
                let mut words = Vec::new();
                for i in 0..ctx.num_roots() {
                    words.clear();
                    ctx.read_words_into(ctx.input(i), &mut words);
                    for p in words_to_particles(&words) {
                        checksum += p.x.abs() + p.y.abs();
                    }
                }
                TaskResult::Value(f64_to_word(checksum))
            })
        };
        ctx.fork_join(children, continuation, &[]);
        TaskResult::Unit
    })
}

/// Spawns the Barnes-Hut workload at the given scale; the root result is a
/// checksum over the final particle positions.
pub fn spawn(machine: &mut dyn Executor, scale: Scale) {
    spawn_with(machine, BarnesHutParams::at_scale(scale));
}

/// Spawns the Barnes-Hut workload with explicit parameters.
pub fn spawn_with(machine: &mut dyn Executor, params: BarnesHutParams) {
    let n = params.particles;
    let iterations = params.iterations;
    let desc = register_tree_descriptor(machine);
    let blocks = 96;
    machine.spawn_root(TaskSpec::new("bh-root", move |ctx| {
        let particles = plummer_particles(n);
        // Store particles as one leaf per force block, so the leaves are
        // sized like the parallel work units.
        let per_block = particles.len().div_ceil(blocks);
        let mut leaves = Vec::new();
        for chunk in particles.chunks(per_block) {
            let leaf = alloc_particle_leaf(ctx, chunk);
            leaves.push(Some(leaf));
        }
        let rope = ctx.alloc_vector(&leaves);
        ctx.fork_join(
            vec![(iteration_task(desc, iterations, blocks), vec![rope])],
            TaskSpec::new("bh-done", |ctx| TaskResult::Value(ctx.value(0))),
            &[],
        );
        TaskResult::Unit
    }));
}

/// Reads the checksum produced by a finished Barnes-Hut run.
pub fn take_checksum(machine: &mut dyn Executor) -> Option<f64> {
    machine.take_result().map(|(word, _)| word_to_f64(word))
}

// ----------------------------------------------------------------------
// Sequential reference
// ----------------------------------------------------------------------

/// A plain-Rust quadtree node mirroring the heap node layout, used by the
/// sequential reference computation.
struct RefNode {
    children: [Option<Box<RefNode>>; 4],
    mass: f64,
    cx: f64,
    cy: f64,
}

/// Mirrors [`build_tree`]: same partition, same summation order.
fn build_ref_tree(
    particles: &[Particle],
    cx: f64,
    cy: f64,
    half: f64,
    depth: usize,
) -> Option<Box<RefNode>> {
    if particles.is_empty() {
        return None;
    }
    let mass: f64 = particles.iter().map(|p| p.mass).sum();
    let com_x: f64 = particles.iter().map(|p| p.mass * p.x).sum::<f64>() / mass;
    let com_y: f64 = particles.iter().map(|p| p.mass * p.y).sum::<f64>() / mass;
    if particles.len() == 1 || depth > 24 {
        return Some(Box::new(RefNode {
            children: [None, None, None, None],
            mass,
            cx: com_x,
            cy: com_y,
        }));
    }
    let mut quadrants: [Vec<Particle>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for &p in particles {
        let index = (usize::from(p.x >= cx)) | (usize::from(p.y >= cy) << 1);
        quadrants[index].push(p);
    }
    let offsets = [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5)];
    let mut children: [Option<Box<RefNode>>; 4] = [None, None, None, None];
    for (i, quadrant) in quadrants.iter().enumerate() {
        children[i] = build_ref_tree(
            quadrant,
            cx + offsets[i].0 * half,
            cy + offsets[i].1 * half,
            half / 2.0,
            depth + 1,
        );
    }
    Some(Box::new(RefNode {
        children,
        mass,
        cx: com_x,
        cy: com_y,
    }))
}

/// Mirrors [`accel_from`]: same opening test, same accumulation order.
fn ref_accel(node: &RefNode, px: f64, py: f64, cell_size: f64) -> (f64, f64) {
    let dx = node.cx - px;
    let dy = node.cy - py;
    let dist2 = dx * dx + dy * dy + 1e-6;
    let dist = dist2.sqrt();
    let is_leaf = node.children.iter().all(Option::is_none);
    if is_leaf || cell_size / dist < THETA {
        let f = G * node.mass / (dist2 * dist);
        return (f * dx, f * dy);
    }
    let mut ax = 0.0;
    let mut ay = 0.0;
    for child in node.children.iter().flatten() {
        let (cax, cay) = ref_accel(child, px, py, cell_size / 2.0);
        ax += cax;
        ay += cay;
    }
    (ax, ay)
}

/// The sequential reference computation: the same physics as the parallel
/// program, in the same floating-point operation order, over plain Rust
/// data (per-particle updates are independent, so block partitioning in the
/// parallel version cannot change the result).
pub fn reference_checksum(params: BarnesHutParams) -> f64 {
    let mut particles = plummer_particles(params.particles);
    for _ in 0..params.iterations {
        let half = particles
            .iter()
            .map(|p| p.x.abs().max(p.y.abs()))
            .fold(1.0f64, f64::max);
        let tree =
            build_ref_tree(&particles, 0.0, 0.0, half, 0).expect("there is at least one particle");
        let cell = half * 2.0;
        particles = particles
            .iter()
            .map(|p| {
                let (ax, ay) = ref_accel(&tree, p.x, p.y, cell);
                let vx = p.vx + ax * DT;
                let vy = p.vy + ay * DT;
                Particle {
                    mass: p.mass,
                    x: p.x + vx * DT,
                    y: p.y + vy * DT,
                    vx,
                    vy,
                }
            })
            .collect();
    }
    particles.iter().map(|p| p.x.abs() + p.y.abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgc_runtime::{Machine, MachineConfig};

    #[test]
    fn plummer_distribution_is_deterministic_and_centred() {
        let a = plummer_particles(500);
        let b = plummer_particles(500);
        assert_eq!(a, b);
        let cx: f64 = a.iter().map(|p| p.x).sum::<f64>() / 500.0;
        let cy: f64 = a.iter().map(|p| p.y).sum::<f64>() / 500.0;
        assert!(
            cx.abs() < 1.0 && cy.abs() < 1.0,
            "roughly centred: {cx}, {cy}"
        );
        let total_mass: f64 = a.iter().map(|p| p.mass).sum();
        assert!((total_mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn result_is_independent_of_vproc_count() {
        let scale = Scale::tiny();
        let run = |vprocs: usize| {
            let mut machine = Machine::new(MachineConfig::small_for_tests(vprocs));
            spawn(&mut machine, scale);
            machine.run();
            take_checksum(&mut machine).expect("barnes-hut produces a checksum")
        };
        let single = run(1);
        let dual = run(2);
        assert!(
            (single - dual).abs() < 1e-9 * single.abs().max(1.0),
            "parallel execution must not change the physics: {single} vs {dual}"
        );
        assert!(single.is_finite() && single > 0.0);
    }

    #[test]
    fn machine_run_matches_the_sequential_reference() {
        let params = BarnesHutParams {
            particles: 512,
            iterations: 2,
        };
        let mut machine = Machine::new(MachineConfig::small_for_tests(2));
        spawn_with(&mut machine, params);
        machine.run();
        let got = take_checksum(&mut machine).expect("barnes-hut produces a checksum");
        let expected = reference_checksum(params);
        assert!(
            (got - expected).abs() <= 1e-9 * expected.abs().max(1.0),
            "machine physics diverged from the reference: {got} vs {expected}"
        );
    }

    #[test]
    fn two_particle_forces_match_the_analytic_formula() {
        // Two unit masses at (±1, 0): the tree is a root with two leaf
        // children, total mass 2 centred at the origin.
        let particles = [
            Particle {
                mass: 1.0,
                x: -1.0,
                y: 0.0,
                vx: 0.0,
                vy: 0.0,
            },
            Particle {
                mass: 1.0,
                x: 1.0,
                y: 0.0,
                vx: 0.0,
                vy: 0.0,
            },
        ];
        let tree = build_ref_tree(&particles, 0.0, 0.0, 1.0, 0).expect("non-empty");
        assert_eq!(tree.mass, 2.0);
        assert_eq!((tree.cx, tree.cy), (0.0, 0.0));
        // The root is opened (cell/dist = 2 > θ); the self-leaf contributes
        // zero (dx = dy = 0) and the other leaf pulls along +x with
        // f · dx = G·m·dx / (d² + ε)^(3/2), dx = 2.
        let (ax, ay) = ref_accel(&tree, -1.0, 0.0, 2.0);
        let dist2: f64 = 4.0 + 1e-6;
        let expected = 2.0 / (dist2 * dist2.sqrt());
        assert!((ax - expected).abs() < 1e-12, "{ax} vs {expected}");
        assert_eq!(ay, 0.0);
        // Symmetric pull on the mirror particle.
        let (ax2, _) = ref_accel(&tree, 1.0, 0.0, 2.0);
        assert!((ax2 + expected).abs() < 1e-12);
    }
}
