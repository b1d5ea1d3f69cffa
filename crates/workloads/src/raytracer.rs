//! The Raytracer benchmark (paper §4.1: a 512 × 512 image rendered in
//! parallel as a two-dimensional sequence, no acceleration structures).
//!
//! Each parallel block renders a band of image rows against a small fixed
//! sphere scene, allocating one rope leaf per row — the image rows are the
//! only allocation, and no data is shared between blocks, which is why the
//! paper sees near-ideal scaling.

use crate::scale::Scale;
use mgc_heap::{f64_to_word, word_to_f64};
use mgc_runtime::{Checksum, Executor, Program, TaskResult, TaskSpec};

/// Image edge length at the benchmark preset. Tracing a pixel is cheap, so
/// the benchmark renders *above* the paper's 512 × 512 to give the run
/// enough wall-clock for speedup to be measurable.
pub const BENCH_IMAGE_SIZE: usize = 1536;

/// Image edge length at the given scale (the paper renders 512 × 512).
pub fn image_size(scale: Scale) -> usize {
    if scale.is_bench() {
        return BENCH_IMAGE_SIZE;
    }
    scale.apply(512, 64)
}

/// Parameters of the raytracer benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaytracerParams {
    /// Edge length of the square image (the paper renders 512 × 512).
    pub image_size: usize,
}

impl RaytracerParams {
    /// The paper's input shrunk by `scale` (with a floor of 64).
    pub fn at_scale(scale: Scale) -> Self {
        RaytracerParams {
            image_size: image_size(scale),
        }
    }
}

impl Default for RaytracerParams {
    fn default() -> Self {
        RaytracerParams::at_scale(Scale::default())
    }
}

/// The raytracer as a [`Program`].
#[derive(Debug, Clone, Copy)]
pub struct Raytracer {
    /// The run's parameters.
    pub params: RaytracerParams,
}

impl Raytracer {
    /// A raytracer program with explicit parameters.
    pub fn new(params: RaytracerParams) -> Self {
        Raytracer { params }
    }

    /// A raytracer program at the paper's input scaled by `scale`.
    pub fn at_scale(scale: Scale) -> Self {
        Raytracer::new(RaytracerParams::at_scale(scale))
    }
}

impl Program for Raytracer {
    fn name(&self) -> &str {
        "Raytracer"
    }

    fn spawn(&self, machine: &mut dyn Executor) {
        spawn_with(machine, self.params);
    }

    fn expected_checksum(&self) -> Option<Checksum> {
        Some(Checksum::F64(checksum_for(self.params)))
    }

    fn params_json(&self) -> String {
        format!("{{\"image_size\": {}}}", self.params.image_size)
    }
}

/// The scene: spheres as `(cx, cy, cz, radius, reflectance)`.
const SPHERES: [(f64, f64, f64, f64, f64); 5] = [
    (0.0, 0.0, 3.0, 1.0, 0.9),
    (1.5, 0.5, 4.0, 0.7, 0.6),
    (-1.5, -0.3, 3.5, 0.8, 0.7),
    (0.3, 1.4, 5.0, 1.2, 0.4),
    (-0.8, 1.0, 2.5, 0.4, 0.95),
];

/// Traces one primary ray and returns its grey-scale intensity.
fn trace(px: f64, py: f64) -> f64 {
    // Camera at the origin looking down +z; the pixel determines the ray
    // direction.
    let dir = (px, py, 1.0);
    let len = (dir.0 * dir.0 + dir.1 * dir.1 + 1.0).sqrt();
    let d = (dir.0 / len, dir.1 / len, dir.2 / len);
    let mut best_t = f64::INFINITY;
    let mut best_shade = 0.05; // background
    for &(cx, cy, cz, r, refl) in &SPHERES {
        // Ray-sphere intersection.
        let oc = (-cx, -cy, -cz);
        let b = 2.0 * (oc.0 * d.0 + oc.1 * d.1 + oc.2 * d.2);
        let c = oc.0 * oc.0 + oc.1 * oc.1 + oc.2 * oc.2 - r * r;
        let disc = b * b - 4.0 * c;
        if disc < 0.0 {
            continue;
        }
        let t = (-b - disc.sqrt()) / 2.0;
        if t > 1e-6 && t < best_t {
            best_t = t;
            // Lambertian shading against a fixed light direction.
            let hit = (d.0 * t, d.1 * t, d.2 * t);
            let normal = ((hit.0 - cx) / r, (hit.1 - cy) / r, (hit.2 - cz) / r);
            let light = (0.577, 0.577, -0.577);
            let diffuse = (normal.0 * light.0 + normal.1 * light.1 + normal.2 * light.2).max(0.0);
            best_shade = 0.1 + 0.9 * diffuse * refl;
        }
    }
    best_shade
}

/// Sequentially computed checksum of the whole image, for validation.
pub fn reference_checksum(scale: Scale) -> f64 {
    checksum_for(RaytracerParams::at_scale(scale))
}

/// The sequential reference checksum for explicit parameters.
fn checksum_for(params: RaytracerParams) -> f64 {
    let size = params.image_size;
    let mut sum = 0.0;
    for y in 0..size {
        for x in 0..size {
            sum += trace(pixel_coord(x, size), pixel_coord(y, size));
        }
    }
    sum
}

fn pixel_coord(index: usize, size: usize) -> f64 {
    (index as f64 / size as f64) * 2.0 - 1.0
}

/// Spawns the raytracer onto `machine` at the given scale; the root result
/// is the image checksum.
pub fn spawn(machine: &mut dyn Executor, scale: Scale) {
    spawn_with(machine, RaytracerParams::at_scale(scale));
}

/// Spawns the raytracer with explicit parameters.
pub fn spawn_with(machine: &mut dyn Executor, params: RaytracerParams) {
    let size = params.image_size;
    let blocks = 96.min(size);
    machine.spawn_root(TaskSpec::new("ray-root", move |ctx| {
        let rows_per_block = size.div_ceil(blocks);
        let mut children = Vec::new();
        for block in 0..blocks {
            let lo = block * rows_per_block;
            let hi = ((block + 1) * rows_per_block).min(size);
            if lo >= hi {
                continue;
            }
            children.push((
                TaskSpec::new("ray-band", move |ctx| {
                    let mut checksum = 0.0;
                    let mut row = Vec::with_capacity(size);
                    let mut back = Vec::with_capacity(size);
                    for y in lo..hi {
                        let mark = ctx.root_mark();
                        row.clear();
                        row.extend(
                            (0..size).map(|x| trace(pixel_coord(x, size), pixel_coord(y, size))),
                        );
                        // ~70 floating-point operations per pixel per sphere.
                        ctx.work((size * SPHERES.len() * 70) as u64);
                        let leaf = ctx.alloc_f64_slice(&row);
                        back.clear();
                        ctx.read_words_into(leaf, &mut back);
                        checksum += back.iter().map(|&w| word_to_f64(w)).sum::<f64>();
                        ctx.truncate_roots(mark);
                    }
                    TaskResult::Value(f64_to_word(checksum))
                }),
                vec![],
            ));
        }
        ctx.fork_join(
            children,
            TaskSpec::new("ray-sum", |ctx| {
                let total: f64 = (0..ctx.num_values()).map(|i| ctx.value_f64(i)).sum();
                TaskResult::Value(f64_to_word(total))
            }),
            &[],
        );
        TaskResult::Unit
    }));
}

/// Reads the checksum produced by a finished raytracer run.
pub fn take_checksum(machine: &mut dyn Executor) -> Option<f64> {
    machine.take_result().map(|(word, _)| word_to_f64(word))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgc_runtime::{Machine, MachineConfig};

    #[test]
    fn parallel_image_matches_sequential_reference() {
        let scale = Scale::tiny();
        let mut machine = Machine::new(MachineConfig::small_for_tests(2));
        spawn(&mut machine, scale);
        machine.run();
        let parallel = take_checksum(&mut machine).expect("raytracer produces a checksum");
        let reference = reference_checksum(scale);
        assert!((parallel - reference).abs() < 1e-6 * reference.max(1.0));
    }

    #[test]
    fn rays_hit_something() {
        // The centre of the image looks straight at the first sphere.
        assert!(trace(0.0, 0.0) > 0.2);
        // A ray off to the side hits only the background.
        assert!(trace(-0.99, -0.99) <= 0.06);
    }

    #[test]
    fn centre_ray_shade_matches_the_hand_derived_value() {
        // The centre ray is d = (0, 0, 1). Sphere 1 (centre (0,0,3), r = 1)
        // is hit at t = 2 (b = -6, c = 8, disc = 4), normal (0,0,-1), so
        // diffuse = (0,0,-1)·(0.577,0.577,-0.577) = 0.577 and the shade is
        // 0.1 + 0.9·0.577·0.9. No other sphere lies on the axis.
        let expected = 0.1 + 0.9 * 0.577 * 0.9;
        assert!(
            (trace(0.0, 0.0) - expected).abs() < 1e-12,
            "{} vs {expected}",
            trace(0.0, 0.0)
        );
    }

    #[test]
    fn ray_through_fifth_sphere_centre_matches_the_geometric_solution() {
        // A ray aimed straight at sphere 5's centre (-0.8, 1.0, 2.5), r=0.4:
        // pixel (x/z, y/z) = (-0.32, 0.4). Through the centre, the hit is at
        // t = |C| - r and the surface normal is exactly -d, so diffuse =
        // 0.577·(d.z - d.x - d.y). Every other sphere misses this ray.
        let d_unnorm = (-0.32f64, 0.4f64, 1.0f64);
        let len = (d_unnorm.0 * d_unnorm.0 + d_unnorm.1 * d_unnorm.1 + 1.0).sqrt();
        let diffuse = 0.577 * (1.0 + 0.32 - 0.4) / len;
        let expected = 0.1 + 0.9 * diffuse * 0.95;
        assert!(
            (trace(-0.32, 0.4) - expected).abs() < 1e-9,
            "{} vs {expected}",
            trace(-0.32, 0.4)
        );
    }
}
