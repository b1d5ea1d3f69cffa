//! A long-running request-serving scenario over the Manticore runtime —
//! the "millions of users" workload the batch benchmarks never touch.
//!
//! [`ServerProgram`] runs N worker vprocs against a synthetic request
//! stream produced by a deterministic **open-loop** load generator (seeded
//! RNG; configurable arrival rate, session count, and request mix):
//!
//! * the root task pre-generates the whole arrival schedule, promotes a
//!   shared read-mostly **cache** to the global heap, and routes every
//!   request to its worker over the existing channels (messages are
//!   promoted on send, so the request stream itself exercises promotion
//!   and the placement policies);
//! * each worker owns a partition of the **sessions**; a request churns
//!   short-lived allocation in the worker's local heap, reads the shared
//!   cache, and functionally updates its session's state (a fresh session
//!   table per request — medium-lived survivors that drive steady-state
//!   minor/major collection);
//! * every request records an end-to-end latency sample — completion time
//!   minus *scheduled arrival* time, so queueing delay and GC pauses both
//!   land in the tail — into the run's
//!   [`LatencyStats`](mgc_runtime::LatencyStats);
//! * the run verifies a checksum over all served responses against a
//!   sequential reference, like every other program in the tree.
//!
//! On the **simulated** backend arrivals are virtual-time and the whole
//! run is deterministic: same seed, same `requests_served`, same checksum,
//! same latency histogram. On the **threaded** backend arrivals are paced
//! by the wall clock and the configured [`ServeParams::duration_secs`]
//! sets how long the stream runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use mgc_heap::i64_to_word;
use mgc_runtime::{
    ChannelId, Checksum, ConfigError, Executor, Handle, Program, TaskResult, TaskSpec,
};

/// Heavy requests allocate this many times the churn of light ones.
const HEAVY_FACTOR: usize = 4;

/// Salt mixed into the seed for the shared cache's contents.
const CACHE_SALT: u64 = 0xCAFE_F00D_u64;

/// Salt mixed into the seed for initial session-table contents.
const SESSION_SALT: u64 = 0x5E55_1011_5A17_0000;

/// The simulated-backend scheduling quantum serve experiments should use,
/// in virtual nanoseconds (pass it to `Experiment::quantum_ns`; it has no
/// effect on the threaded backend). Once a round's quantum is spent, the
/// simulated scheduler starts no further task on that vproc until the next
/// round — and a serve round is one full stream duration, because workers
/// run to completion. The generator's cost must therefore fit inside the
/// quantum with room for a worker behind it, or the worker sharing the
/// root's vproc starts a full stream duration late.
pub const SERVE_QUANTUM_NS: f64 = 50_000_000.0;

/// A tiny deterministic RNG (splitmix64): one `u64` of state, full-period,
/// and identical on every platform — the properties the load generator and
/// the sequential reference both depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }
}

/// The splitmix64 finalizer: a fast, well-mixed `u64 -> u64` permutation,
/// used directly wherever a value needs to be a pure function of its
/// coordinates (cache contents, initial session state).
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parameters of the serving scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeParams {
    /// Number of worker tasks serving requests (ideally one per vproc).
    pub workers: usize,
    /// Total number of sessions, partitioned over the workers
    /// (`session % workers`). Session state survives across requests.
    pub sessions: usize,
    /// Open-loop arrival rate, in requests per second.
    pub rps: u64,
    /// How long the request stream runs, in seconds: wall-clock seconds on
    /// the threaded backend, virtual seconds on the simulated one. The
    /// total request count is `rps * duration_secs`.
    pub duration_secs: u64,
    /// Per-thousand fraction of requests that are "heavy" (allocate 4x
    /// the churn of a light request).
    pub heavy_permille: u64,
    /// Short-lived objects a light request allocates and immediately drops.
    pub churn_objects: usize,
    /// Payload words per churn object.
    pub payload_words: usize,
    /// Words of state per session.
    pub session_words: usize,
    /// Entries in the shared promoted cache (read-mostly, bounded; lives in
    /// the global heap and exercises the placement policies).
    pub cache_entries: usize,
    /// Payload words per cache entry.
    pub cache_entry_words: usize,
    /// Seed of the load generator.
    pub seed: u64,
}

impl Default for ServeParams {
    fn default() -> Self {
        ServeParams {
            workers: 4,
            sessions: 64,
            rps: 2_000,
            duration_secs: 5,
            heavy_permille: 125,
            churn_objects: 16,
            payload_words: 16,
            session_words: 4,
            cache_entries: 256,
            cache_entry_words: 16,
            seed: 0x5EED_0001,
        }
    }
}

impl ServeParams {
    /// A fast configuration for unit tests: a fraction of a virtual second
    /// of traffic over two workers.
    pub fn small() -> Self {
        ServeParams {
            workers: 2,
            sessions: 8,
            rps: 400,
            duration_secs: 1,
            heavy_permille: 250,
            churn_objects: 4,
            payload_words: 8,
            session_words: 2,
            cache_entries: 8,
            cache_entry_words: 8,
            seed: 0x5EED_0001,
        }
    }

    /// The benchmark preset: the defaults (4 workers, 64 sessions, 2,000
    /// req/s for 5 s — 10,000 requests).
    pub fn bench() -> Self {
        ServeParams::default()
    }

    /// Validates the parameters into a typed error: a zero duration is
    /// [`ConfigError::ZeroServeSeconds`], a zero arrival rate is
    /// [`ConfigError::ZeroServeRps`], and a scenario with no workers, no
    /// sessions, or no cache entries is degenerate in the same two shapes
    /// (nothing would ever be served).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.duration_secs == 0 {
            return Err(ConfigError::ZeroServeSeconds);
        }
        if self.rps == 0 || self.workers == 0 || self.sessions == 0 {
            return Err(ConfigError::ZeroServeRps);
        }
        Ok(())
    }

    /// Total requests the generator emits: `rps * duration_secs`.
    pub fn total_requests(&self) -> u64 {
        self.rps.saturating_mul(self.duration_secs)
    }

    /// Nanoseconds between consecutive arrivals (at least 1).
    fn gap_ns(&self) -> u64 {
        (1_000_000_000 / self.rps).max(1)
    }

    /// Number of sessions assigned to `worker`.
    fn sessions_of(&self, worker: usize) -> usize {
        (self.sessions + self.workers - 1 - worker) / self.workers
    }

    /// Initial contents of `worker`'s session table: `session_words` words
    /// per owned session, word 0 of each block being the running state.
    fn initial_table(&self, worker: usize) -> Vec<u64> {
        let mut table = Vec::with_capacity(self.sessions_of(worker) * self.session_words);
        for session in (worker..self.sessions).step_by(self.workers) {
            for i in 0..self.session_words {
                table.push(mix64(
                    self.seed ^ SESSION_SALT ^ (session * self.session_words + i) as u64,
                ));
            }
        }
        table
    }

    /// The `i`-th word of cache entry `j` — a pure function of the seed, so
    /// the sequential reference never touches a heap.
    fn cache_word(&self, entry: usize, i: usize) -> u64 {
        mix64(self.seed ^ CACHE_SALT ^ (entry * self.cache_entry_words + i) as u64)
    }
}

/// One scheduled request, as the deterministic generator emits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Request {
    /// The session this request belongs to (`session % workers` routes it).
    session: u64,
    /// Whether this is a heavy request.
    heavy: bool,
    /// Seed of the request's churn payload.
    payload_seed: u64,
    /// Scheduled arrival, in nanoseconds after the stream's epoch.
    offset_ns: u64,
}

/// The full open-loop arrival schedule for `params` — both the root task's
/// generator and the sequential reference derive it, identically, from the
/// seed.
fn schedule(params: &ServeParams) -> Vec<Request> {
    let mut rng = SplitMix64::new(params.seed);
    let gap = params.gap_ns();
    (0..params.total_requests())
        .map(|k| {
            let session = rng.next_u64() % params.sessions as u64;
            let heavy = rng.next_u64() % 1000 < params.heavy_permille;
            let payload_seed = rng.next_u64();
            let jitter = rng.next_u64() % gap;
            Request {
                session,
                heavy,
                payload_seed,
                offset_ns: k * gap + jitter,
            }
        })
        .collect()
}

/// The wrapping word-sum of one request's churn payload — the same values
/// the worker writes into (and reads back out of) its short-lived objects.
fn churn_sum(params: &ServeParams, payload_seed: u64, heavy: bool) -> u64 {
    let reps = if heavy {
        params.churn_objects * HEAVY_FACTOR
    } else {
        params.churn_objects
    };
    let mut rng = SplitMix64::new(payload_seed);
    let mut sum = 0u64;
    for _ in 0..reps * params.payload_words {
        sum = sum.wrapping_add(rng.next_u64());
    }
    sum
}

/// One request's response word given the session's current state and the
/// cache word it reads; also returns the session's next state. The worker
/// computes this from heap reads, the reference from pure arithmetic — any
/// object the collector loses or corrupts diverges the two.
fn respond(old_state: u64, churn: u64, cache_word: u64, heavy: bool) -> (u64, u64) {
    let response = mix64(old_state ^ churn ^ cache_word).wrapping_add(if heavy {
        HEAVY_FACTOR as u64
    } else {
        1
    });
    (response, old_state.wrapping_add(response))
}

/// The i64 checksum a correct run must report: the wrapping sum of every
/// response plus, per worker, every word of its final session table.
pub fn expected_checksum_value(params: &ServeParams) -> i64 {
    let mut tables: Vec<Vec<u64>> = (0..params.workers)
        .map(|w| params.initial_table(w))
        .collect();
    let mut sum = 0i64;
    for req in schedule(params) {
        let worker = (req.session as usize) % params.workers;
        let local = (req.session as usize) / params.workers;
        let state_idx = local * params.session_words;
        let cache_idx = (req.payload_seed % params.cache_entries as u64) as usize;
        let word_idx = ((req.payload_seed >> 32) % params.cache_entry_words as u64) as usize;
        let cache_word = params.cache_word(cache_idx, word_idx);
        let churn = churn_sum(params, req.payload_seed, req.heavy);
        let (response, next) = respond(tables[worker][state_idx], churn, cache_word, req.heavy);
        tables[worker][state_idx] = next;
        sum = sum.wrapping_add(response as i64);
    }
    for table in &tables {
        for &word in table {
            sum = sum.wrapping_add(word as i64);
        }
    }
    sum
}

/// The request-serving scenario as a [`Program`].
#[derive(Debug, Clone, Copy)]
pub struct ServerProgram {
    /// The run's parameters (validated by [`ServerProgram::new`]).
    pub params: ServeParams,
}

impl ServerProgram {
    /// A serving program with explicit, validated parameters.
    pub fn new(params: ServeParams) -> Result<Self, ConfigError> {
        params.validate()?;
        Ok(ServerProgram { params })
    }

    /// The unit-test preset ([`ServeParams::small`]).
    pub fn small() -> Self {
        ServerProgram {
            params: ServeParams::small(),
        }
    }

    /// The benchmark preset ([`ServeParams::bench`]).
    pub fn bench() -> Self {
        ServerProgram {
            params: ServeParams::bench(),
        }
    }
}

impl Program for ServerProgram {
    fn name(&self) -> &str {
        "Request-Server"
    }

    fn spawn(&self, executor: &mut dyn Executor) {
        spawn(executor, self.params);
    }

    fn expected_checksum(&self) -> Option<Checksum> {
        Some(Checksum::I64(expected_checksum_value(&self.params)))
    }

    fn params_json(&self) -> String {
        let p = &self.params;
        format!(
            "{{\"workers\": {}, \"sessions\": {}, \"rps\": {}, \"duration_secs\": {}, \
             \"heavy_permille\": {}, \"churn_objects\": {}, \"payload_words\": {}, \
             \"session_words\": {}, \"cache_entries\": {}, \"cache_entry_words\": {}, \
             \"seed\": {}}}",
            p.workers,
            p.sessions,
            p.rps,
            p.duration_secs,
            p.heavy_permille,
            p.churn_objects,
            p.payload_words,
            p.session_words,
            p.cache_entries,
            p.cache_entry_words,
            p.seed
        )
    }
}

/// The body of one serve worker: drain `count` requests from `requests`,
/// pacing each to its scheduled arrival past `epoch_ns` and recording its
/// end-to-end latency; returns the worker's response checksum.
fn worker_body(
    ctx: &mut mgc_runtime::TaskCtx<'_>,
    params: ServeParams,
    worker: usize,
    count: u64,
    requests: ChannelId,
    cache: ChannelId,
) -> TaskResult {
    // Root slot 0: the shared cache's pointer vector (promoted once by the
    // generator; every worker receives the same object).
    let cache_vec = ctx
        .recv(cache)
        .expect("the generator sends the cache before the workers spawn");
    debug_assert_eq!(cache_vec.index(), 0);
    // Root slot 1: this worker's session table. It is re-allocated (a
    // functional update) on every request; `keep` swaps the fresh table
    // into the same root slot.
    let mut current = params.initial_table(worker);
    let mut table = ctx.alloc_raw(&current);
    let mark = ctx.root_mark(); // == 2
    let mut sum = 0i64;
    // One buffer each for the words read back (request and churn objects)
    // and the session table (`current`), refilled per use; churn objects are
    // filled from the RNG in place: a request allocates nothing on the host
    // heap.
    let mut words = Vec::new();
    // The worker's stream epoch: arrival deadlines are `epoch + offset` on
    // the worker's own clock, so pacing (and therefore the open-loop
    // property — arrivals never wait for service) holds no matter when the
    // scheduler actually started this worker.
    let epoch_ns = ctx.now_ns();
    for _ in 0..count {
        // Slot 2: the request object [session, heavy, payload_seed, offset].
        let req = ctx
            .recv(requests)
            .expect("the generator queued every request before the workers spawned");
        words.clear();
        ctx.read_words_into(req, &mut words);
        let (session, heavy, payload_seed, offset_ns) =
            (words[0], words[1] != 0, words[2], words[3]);
        let arrival_ns = epoch_ns + offset_ns as f64;
        ctx.wait_until_ns(arrival_ns);

        // Per-request churn: short-lived objects allocated, read back, and
        // dropped immediately — the steady mutation GC must keep up with.
        let reps = if heavy {
            params.churn_objects * HEAVY_FACTOR
        } else {
            params.churn_objects
        };
        let mut rng = SplitMix64::new(payload_seed);
        let mut churn = 0u64;
        for _ in 0..reps {
            let obj = ctx.alloc_raw_with(params.payload_words, |_| rng.next_u64());
            words.clear();
            ctx.read_words_into(obj, &mut words);
            for &word in &words {
                churn = churn.wrapping_add(word);
            }
            ctx.truncate_roots(mark + 1);
            ctx.work(params.payload_words as u64 * 4);
        }

        // Read-mostly shared state: one word of one promoted cache entry.
        let cache_idx = (payload_seed % params.cache_entries as u64) as usize;
        let word_idx = ((payload_seed >> 32) % params.cache_entry_words as u64) as usize;
        let entry = ctx
            .read_ptr(cache_vec, cache_idx)
            .expect("cache entries are never null");
        let cache_word = ctx.read_raw(entry, word_idx);

        // Functional session update: read the table, compute the response,
        // allocate the successor table, and swap it into root slot 1.
        let local = (session as usize) / params.workers;
        let state_idx = local * params.session_words;
        current.clear();
        ctx.read_words_into(table, &mut current);
        let (response, next) = respond(current[state_idx], churn, cache_word, heavy);
        current[state_idx] = next;
        let successor = ctx.alloc_raw(&current);
        table = ctx.keep(successor, mark - 1);
        sum = sum.wrapping_add(response as i64);

        let completion_ns = ctx.now_ns();
        ctx.record_latency_ns(completion_ns - arrival_ns);
    }
    // Fold the surviving session state into the checksum so a table word
    // the collector corrupted is caught even if no later request read it.
    current.clear();
    ctx.read_words_into(table, &mut current);
    for &word in &current {
        sum = sum.wrapping_add(word as i64);
    }
    TaskResult::Value(i64_to_word(sum))
}

/// Spawns the serving scenario: the root task builds the promoted cache,
/// pre-generates and routes the whole arrival schedule, then fork/joins one
/// worker per partition; the continuation folds the workers' checksums.
pub fn spawn(executor: &mut dyn Executor, params: ServeParams) {
    let request_channels: Vec<ChannelId> = (0..params.workers)
        .map(|_| executor.create_channel())
        .collect();
    let cache_channel = executor.create_channel();
    executor.spawn_root(TaskSpec::new("serve-root", move |ctx| {
        // The shared cache: `cache_entries` raw objects behind one pointer
        // vector. Sending the vector promotes the whole graph to the global
        // heap once; each worker receives a handle to the same object.
        let cache_mark = ctx.root_mark();
        let entries: Vec<Option<Handle>> = (0..params.cache_entries)
            .map(|j| {
                let words: Vec<u64> = (0..params.cache_entry_words)
                    .map(|i| params.cache_word(j, i))
                    .collect();
                Some(ctx.alloc_raw(&words))
            })
            .collect();
        let cache_vec = ctx.alloc_vector(&entries);
        for _ in 0..params.workers {
            ctx.send(cache_channel, cache_vec);
        }
        ctx.truncate_roots(cache_mark);

        // The open-loop generator: every request is scheduled, materialised,
        // and routed up front (sends promote each request object), so the
        // arrival schedule is independent of how fast the workers serve —
        // exactly the open-loop property that makes queueing delay and GC
        // pauses visible in the latency tail.
        let mut counts = vec![0u64; params.workers];
        let gen_mark = ctx.root_mark();
        for req in schedule(&params) {
            let worker = (req.session as usize) % params.workers;
            let obj = ctx.alloc_raw(&[
                req.session,
                u64::from(req.heavy),
                req.payload_seed,
                req.offset_ns,
            ]);
            ctx.send(request_channels[worker], obj);
            ctx.truncate_roots(gen_mark);
            counts[worker] += 1;
        }

        let children: Vec<(TaskSpec, Vec<Handle>)> = (0..params.workers)
            .map(|worker| {
                let count = counts[worker];
                let requests = request_channels[worker];
                (
                    TaskSpec::new("serve-worker", move |ctx| {
                        worker_body(ctx, params, worker, count, requests, cache_channel)
                    }),
                    vec![],
                )
            })
            .collect();
        ctx.fork_join(
            children,
            TaskSpec::new("serve-sum", |ctx| {
                let total = (0..ctx.num_values())
                    .map(|i| mgc_heap::word_to_i64(ctx.value(i)))
                    .fold(0i64, i64::wrapping_add);
                TaskResult::Value(i64_to_word(total))
            }),
            &[],
        );
        TaskResult::Unit
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgc_runtime::{Backend, EnvOverrides, Experiment};

    fn sim_record(params: ServeParams) -> mgc_runtime::RunRecord {
        Experiment::new(ServerProgram::new(params).unwrap())
            .backend(Backend::Simulated)
            .vprocs(2)
            .quantum_ns(SERVE_QUANTUM_NS)
            .env_overrides(EnvOverrides::default())
            .run()
            .expect("valid serve config")
    }

    #[test]
    fn schedule_is_deterministic_and_paced() {
        let params = ServeParams::small();
        let a = schedule(&params);
        let b = schedule(&params);
        assert_eq!(a, b);
        assert_eq!(a.len() as u64, params.total_requests());
        // Offsets are strictly ordered by index (jitter stays within the
        // inter-arrival gap) and every session routes to a real worker.
        for (k, pair) in a.windows(2).enumerate() {
            assert!(pair[0].offset_ns < pair[1].offset_ns, "at index {k}");
        }
        assert!(a.iter().all(|r| (r.session as usize) < params.sessions));
        assert!(a.iter().any(|r| r.heavy) && a.iter().any(|r| !r.heavy));
    }

    #[test]
    fn params_validate_to_typed_errors() {
        let mut p = ServeParams::small();
        p.duration_secs = 0;
        assert_eq!(p.validate(), Err(ConfigError::ZeroServeSeconds));
        let mut p = ServeParams::small();
        p.rps = 0;
        assert_eq!(p.validate(), Err(ConfigError::ZeroServeRps));
        assert!(ServeParams::small().validate().is_ok());
        assert!(ServerProgram::new(p).is_err());
    }

    #[test]
    fn session_partition_covers_every_session_once() {
        let params = ServeParams::small();
        let total: usize = (0..params.workers).map(|w| params.sessions_of(w)).sum();
        assert_eq!(total, params.sessions);
        assert_eq!(
            params.initial_table(0).len(),
            params.sessions_of(0) * params.session_words
        );
    }

    #[test]
    fn served_checksum_matches_the_sequential_reference() {
        let record = sim_record(ServeParams::small());
        assert_eq!(record.checksum_ok, Some(true));
        assert_eq!(
            record.report.requests_served(),
            ServeParams::small().total_requests()
        );
        assert!(record.report.throughput_rps() > 0.0);
        assert!(record.report.latency_stats().max_ns > 0.0);
    }

    #[test]
    fn simulated_runs_are_deterministic_for_a_fixed_seed() {
        let a = sim_record(ServeParams::small());
        let b = sim_record(ServeParams::small());
        assert_eq!(a.result, b.result);
        assert_eq!(a.report.requests_served(), b.report.requests_served());
        // The whole latency histogram is pinned, not just the summary: two
        // runs with the same seed must be indistinguishable.
        assert_eq!(a.report.latency_stats(), b.report.latency_stats());
        // And a different seed must actually change the stream.
        let mut other = ServeParams::small();
        other.seed ^= 0xDEAD_BEEF;
        let c = sim_record(other);
        assert_ne!(a.result, c.result);
    }

    #[test]
    fn threaded_backend_serves_the_same_checksum() {
        // A sub-second threaded run: 200 requests at 2,000 req/s. This is
        // the cross-backend equivalence check for the serving scenario.
        let params = ServeParams {
            workers: 2,
            sessions: 8,
            rps: 2_000,
            duration_secs: 1,
            ..ServeParams::small()
        };
        let record = Experiment::new(ServerProgram::new(params).unwrap())
            .backend(Backend::Threaded)
            .vprocs(2)
            .env_overrides(EnvOverrides::default())
            .run()
            .expect("valid serve config");
        assert_eq!(record.checksum_ok, Some(true));
        assert_eq!(record.report.requests_served(), params.total_requests());
        assert!(record.report.latency_stats().max_ns > 0.0);
        // The threaded run is paced by the wall clock: it cannot finish
        // before the last scheduled arrival.
        assert!(record.report.wall_clock_ns.unwrap() > 0.9e9);
    }
}
