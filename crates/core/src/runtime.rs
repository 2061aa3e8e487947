//! The session evaluation runtime: cross-call kernel caching, seeding
//! policy, and batched-sampling workers behind one handle.
//!
//! The paper's programs ask the **same structural question thousands of
//! times**: GPS-Walking re-decides its speed conditional on every fix,
//! SensorLife re-tests liveness for every cell of every generation. A
//! [`Session`] owns everything those call sites would otherwise rebuild
//! per call:
//!
//! * a **plan cache** of columnar kernel tapes keyed by root [`NodeId`] —
//!   LRU with configurable capacity, hit/miss/eviction counters
//!   ([`Session::cache_stats`]), and explicit
//!   [`invalidate`](Session::invalidate)/[`clear_cache`](Session::clear_cache).
//!   A miss lowers the network to the tape. A network the tape cannot
//!   express (`flat_map`, `weight_by`, `condition_on`, `encapsulate`)
//!   never becomes an entry: its queries, like every single
//!   [`Session::sample`], run on the tree-walk reference interpreter, and
//!   its "does not lower" verdict is memoized so the failed lowering walk
//!   is paid once per root;
//! * the **RNG seeding policy** — seeded or entropy roots, with per-query
//!   SplitMix64 substreams so every result is bitwise-reproducible *and*
//!   thread-count-invariant;
//! * the **worker pool** used by batched sampling — a configured worker
//!   count whose scoped threads shard large batches without changing a
//!   single sampled value;
//! * the **kernel scratch** — one register file that every kernel batch,
//!   decision and profile on the session runs in, refitted to each tape,
//!   so a query on a cached kernel allocates only its answer.
//!
//! Root `NodeId` is a sound cache key because node ids are process-wide
//! unique (never reused) and networks are immutable once built: a root id
//! names exactly one DAG, shared sub-expressions included, forever. A
//! cached kernel can therefore never be stale — eviction exists purely to
//! bound memory.
//!
//! A session in *sequential* seeding mode ([`Session::sequential`]) draws
//! one `u64` per joint sample from `StdRng::seed_from_u64(seed)`, in call
//! order. The seeded figures and test suites depend on that stream bit for
//! bit, so neither the kernel cache nor the choice of executor may move it.

use crate::condition::{EvalConfig, EvalStrategy, HypothesisOutcome, Provenance, StatsOutcome};
use crate::context::SampleContext;
use crate::error::{Error, NotAnalyticError};
use crate::exact::{self, BoolLaw, ScalarLaw};
use crate::kernel::{Kernel, KernelState};
use crate::node::{IdMap, NodeId};
use crate::obs::{DecisionTrace, Dispatch, KernelProfile, Recorder, StoppingReason, TracePoint};
use crate::uncertain::{Uncertain, Value};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use uncertain_stats::{Histogram, SequentialTest, StatsError, Summary, TestDecision};

/// Default number of kernels a session's cache retains before evicting.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Below this many samples a query stays on the calling thread even when
/// the session has workers configured: spawn overhead would dominate.
const PAR_MIN_BATCH: usize = 1024;

/// Index used to derive the auxiliary raw-RNG stream of a substream
/// session ([`Session::rng`]) so it never collides with query substreams.
const AUX_STREAM_INDEX: u64 = 0xA0A0_A0A0_A0A0_A0A0;

/// Synthesizes an exact [`Summary`] from a Gaussian scalar law: `n`
/// observations placed at the law's mid-quantiles `(i + ½)/n` (a monotone
/// grid, so order statistics read off the closed-form CDF), with the
/// exact mean and variance attached via [`Summary::from_parts`].
fn exact_summary(law: &ScalarLaw, n: usize) -> Result<Summary, StatsError> {
    if n == 0 {
        return Err(StatsError::new("cannot summarize an empty sample"));
    }
    let grid: Vec<f64> = (0..n)
        .map(|i| law.quantile((i as f64 + 0.5) / n as f64))
        .collect();
    Summary::from_parts(grid, law.mean, law.variance)
}

/// How a session evaluates one network's joint samples: the columnar
/// kernel when the network lowers to the tape, otherwise the tree-walk
/// reference interpreter.
enum Exec<T> {
    Kernel(Arc<Kernel<T>>),
    Tree(Uncertain<T>),
}

impl<T: Value> Exec<T> {
    /// Draws `n` joint samples and appends them to `out`, seeding row `i`
    /// with the `i`-th `next_seed()`. Both executors pull seeds in row
    /// order and draw the same bits; `ctx` is the tree-walk's scratch and
    /// `state` the kernel's.
    fn rows(
        &self,
        n: usize,
        ctx: &mut SampleContext,
        state: &mut KernelState,
        mut next_seed: impl FnMut() -> u64,
        out: &mut Vec<T>,
    ) {
        match self {
            Exec::Kernel(k) => k.run(n, next_seed, state, out),
            Exec::Tree(u) => out.extend((0..n).map(|_| {
                ctx.reseed(next_seed());
                tree_walk(u, ctx)
            })),
        }
    }

    /// Draws rows `0..n` of the index-seeded query `substream` on `threads`
    /// scoped workers, each running [`Exec::rows`] over one contiguous
    /// range in an empty scratch of its own. Row `i` is seeded
    /// `sample_seed(substream, i)` whichever worker draws it, so the result
    /// is bitwise identical for any worker count.
    fn rows_sharded(&self, substream: u64, n: usize, threads: usize) -> Vec<T> {
        let chunk = n.div_ceil(threads).max(1);
        let mut out = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|lo| {
                    let len = chunk.min(n - lo);
                    scope.spawn(move || {
                        let mut seeds = (lo as u64..).map(|i| sample_seed(substream, i));
                        let mut rows = Vec::new();
                        self.rows(
                            len,
                            &mut SampleContext::from_seed(0),
                            &mut KernelState::default(),
                            || seeds.next().unwrap(),
                            &mut rows,
                        );
                        rows
                    })
                })
                .collect();
            for worker in workers {
                out.extend(
                    worker
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
        });
        out
    }
}

/// One joint sample of `u` through the tree-walk interpreter; the caller
/// reseeds `ctx` first.
fn tree_walk<T: Value>(u: &Uncertain<T>, ctx: &mut SampleContext) -> T {
    ctx.begin_joint_sample();
    u.node().sample_value(ctx)
}

// ---------------------------------------------------------------------------
// Seeding policy
// ---------------------------------------------------------------------------

/// Mixes a root seed and a per-sample index into an independent sub-stream
/// seed (SplitMix64 finalizer). Sample `i`'s value depends only on
/// `(root_seed, i)`, which is what makes batch sampling shard-independent.
pub(crate) fn sample_seed(root_seed: u64, index: u64) -> u64 {
    let mut z = root_seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How a session turns "the next joint sample" into an RNG seed.
enum SeedPolicy {
    /// One shared `StdRng` stream; each joint sample consumes the next
    /// `u64`. The seeded figures and suites depend on this stream, but it
    /// is order-dependent, so sequential sessions never shard batches
    /// across workers.
    Sequential { rng: StdRng },
    /// Pure counter-mode seeding: query `q` gets the SplitMix64 substream
    /// `sample_seed(root, q)`, and sample `i` of that query is seeded by
    /// `sample_seed(substream, i)`. Results depend only on
    /// `(root, query index, sample index)` — bitwise identical for any
    /// worker count.
    Substream {
        root: u64,
        queries: u64,
        aux: StdRng,
    },
}

impl SeedPolicy {
    /// Starts the per-sample seed stream of the next query.
    fn begin_query(&mut self) -> QuerySeeds<'_> {
        match self {
            SeedPolicy::Sequential { rng } => QuerySeeds::Sequential(rng),
            SeedPolicy::Substream { root, queries, .. } => {
                let q = *queries;
                *queries += 1;
                QuerySeeds::Indexed {
                    substream: sample_seed(*root, q),
                    cursor: 0,
                }
            }
        }
    }

    /// The raw auxiliary RNG (workload generators, simulated sensors).
    fn raw_rng(&mut self) -> &mut dyn RngCore {
        match self {
            SeedPolicy::Sequential { rng } => rng,
            SeedPolicy::Substream { aux, .. } => aux,
        }
    }
}

/// The per-sample seed stream of one query.
enum QuerySeeds<'a> {
    Sequential(&'a mut StdRng),
    Indexed { substream: u64, cursor: u64 },
}

impl QuerySeeds<'_> {
    /// The seed for the next joint sample of this query.
    fn next(&mut self) -> u64 {
        match self {
            QuerySeeds::Sequential(rng) => rng.gen(),
            QuerySeeds::Indexed { substream, cursor } => {
                let seed = sample_seed(*substream, *cursor);
                *cursor += 1;
                seed
            }
        }
    }

    /// The substream root, if this query is index-seeded (and therefore
    /// shardable across workers).
    fn shardable(&self) -> Option<u64> {
        match self {
            QuerySeeds::Sequential(_) => None,
            QuerySeeds::Indexed { substream, .. } => Some(*substream),
        }
    }
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// Counters and occupancy of a session's plan cache.
///
/// Each entry holds the kernel tape of one root network. A network that
/// does not lower never becomes an entry, so every batch or decision
/// query on it counts as a miss. Returned by [`Session::cache_stats`];
/// the hit/miss split is the direct observable for "is this workload
/// reusing structure?".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries that found their network's kernel in the cache.
    pub hits: u64,
    /// Queries that found no kernel: the network was lowered, or it does
    /// not lower and ran on the tree-walk (including when caching is
    /// disabled).
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Kernels currently cached.
    pub entries: usize,
    /// Maximum entries retained (`0` disables caching).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache (`0.0` when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counter-wise sum, for aggregating the caches of many sessions (an
/// evaluation service metering a whole shard's tenant pool). `entries`
/// and `capacity` add too: the sum describes the aggregate cache.
impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            evictions: self.evictions + rhs.evictions,
            entries: self.entries + rhs.entries,
            capacity: self.capacity + rhs.capacity,
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |a, b| a + b)
    }
}

/// One root's cached kernel, type-erased so networks of any payload type
/// share the cache.
struct CacheEntry {
    kernel: Arc<dyn Any + Send + Sync>,
    last_used: u64,
}

/// Upper bound on the per-root memo ([`PlanCache::verdicts`]). Far above
/// any realistic number of distinct roots a session learns about; if it
/// is ever hit the memo resets, which only re-pays one lowering attempt
/// or graph analysis per root.
const VERDICT_MEMO_CAP: usize = 4096;

/// What a session has learned about one root besides its kernel. Node ids
/// name immutable DAGs, so a verdict can never go stale, and none is
/// subject to the kernels' LRU eviction: a root whose kernel churns out of
/// the cache keeps its (possibly negative) verdict.
enum Verdict {
    /// The root does not lower to a kernel tape: it holds a node whose
    /// sampling needs `SampleContext`, so it has no closed form either.
    /// Such a root never becomes an entry, so this is what keeps a
    /// tree-walk tenant from repeating the (futile) lowering walk on every
    /// query.
    NoTape,
    /// The analytic backend's verdict. Boxed, so that the thousands of
    /// roots a sampling session only ever fails to lower cost the memo a
    /// word each.
    Analyzed(Box<Law>),
}

/// The analytic backend's verdict on a boolean or a scalar root: `None`
/// when it declined.
enum Law {
    Bool(Option<BoolLaw>),
    Scalar(Option<ScalarLaw>),
}

/// LRU cache of lowered kernels, keyed by root [`NodeId`].
struct PlanCache {
    entries: HashMap<NodeId, CacheEntry>,
    /// Per-root verdicts, cleared whole when full.
    verdicts: IdMap<Verdict>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            verdicts: IdMap::default(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Records root `id`'s verdict, clearing the memo first when it is
    /// full.
    fn note(&mut self, id: NodeId, verdict: Verdict) {
        if self.verdicts.len() >= VERDICT_MEMO_CAP {
            self.verdicts.clear();
        }
        self.verdicts.insert(id, verdict);
    }

    /// The cached kernel for `id`, bumping the hit counter and LRU stamp.
    fn lookup<T: Value>(&mut self, id: NodeId) -> Option<Arc<Kernel<T>>> {
        self.tick += 1;
        let entry = self.entries.get_mut(&id)?;
        // Node ids are globally unique and typed, so a downcast can only
        // fail if identity were violated; re-lower defensively then.
        let kernel = entry.kernel.clone().downcast::<Kernel<T>>().ok()?;
        entry.last_used = self.tick;
        self.hits += 1;
        Some(kernel)
    }

    /// Inserts a new entry under `id`, evicting the least-recently-used
    /// entry at capacity. No-op when caching is disabled.
    fn insert(&mut self, id: NodeId, kernel: Arc<dyn Any + Send + Sync>) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&id) {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            if let Some(victim) = lru {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            id,
            CacheEntry {
                kernel,
                last_used: self.tick,
            },
        );
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

thread_local! {
    static AMBIENT: RefCell<Session> = RefCell::new(Session::new());
}

/// The evaluation runtime for `Uncertain<T>` queries: plan cache + seeding
/// policy + batching workers, in one reusable handle.
///
/// Every batch and decision query (`pr`, `e`, `stats`, `histogram`, …) on
/// a network that lowers runs on its columnar kernel tape, cached by root:
/// asking the same structural question twice lowers once. A network the
/// tape cannot express runs on the tree-walk reference interpreter,
/// uncached, and so does every single draw ([`Session::sample`]). Both
/// executors draw the same bits. A session is also the unit of
/// reproducibility — a seeded session answers an identical call sequence
/// with identical bits, regardless of its worker count — and the unit you
/// shard in a multi-tenant evaluation service (one session per shard, no
/// shared mutable state).
///
/// # Examples
///
/// ```
/// use uncertain_core::{Session, Uncertain};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Uncertain::normal(4.0, 1.0)?;
/// let b = Uncertain::normal(5.0, 1.0)?;
/// let c = &a + &b;
///
/// let mut session = Session::seeded(42);
/// assert!(session.is_probable(&c.gt(5.0)));  // Pr[c > 5] > 0.5
/// assert!(!session.pr(&c.gt(12.0), 0.9));    // not 90% sure c > 12
/// let e = session.e(&c, 1000);
/// assert!((e - 9.0).abs() < 0.2);
///
/// // Re-deciding the same conditional hits the plan cache.
/// let fast = c.gt(5.0);
/// session.pr(&fast, 0.5);
/// session.pr(&fast, 0.5);
/// assert!(session.cache_stats().hits >= 1);
/// # Ok(())
/// # }
/// ```
pub struct Session {
    cache: PlanCache,
    seeds: SeedPolicy,
    threads: usize,
    config: EvalConfig,
    /// The tree-walk's scratch context.
    ctx: SampleContext,
    /// The kernel scratch every kernel query on this session runs in:
    /// batches, SPRT decisions and profiles, whatever tape they run.
    kernel: KernelState,
    joint_samples: u64,
    /// Queries answered by the analytic backend with zero samples
    /// ([`Session::exact_hits`]).
    exact_hits: u64,
    /// The last sequential test built, keyed by the config/threshold that
    /// produced it (the common case: one conditional site re-decided).
    cached_test: Option<(EvalConfig, f64, SequentialTest)>,
    /// Decision-trace sink. `None` (the default) keeps the SPRT loop on
    /// its unrecorded fast path — the only residual cost is checking this
    /// option once per decision and once per batch.
    recorder: Option<Box<dyn Recorder>>,
    /// Cumulative nanoseconds spent lowering networks to kernel tapes —
    /// the compile phase of a request, separable from sampling time by
    /// diffing this counter around a query.
    plan_build_ns: u64,
    /// Which backend answered the most recent decision-family query
    /// ([`Session::last_dispatch`]). One enum store per decision — cheap
    /// enough to track unconditionally, so request tracing
    /// can attribute kernel-vs-tree-walk-vs-exact dispatch without
    /// installing a recorder.
    last_dispatch: Option<Dispatch>,
    /// Kernel-lowering attempts (cheap observability for the no-tape memo
    /// tests; a memo hit must not re-attempt lowering).
    #[cfg(test)]
    lower_attempts: u64,
    /// Analytic-recognition walks (observability for the exact-memo
    /// tests; a memo hit must not re-walk the graph).
    #[cfg(test)]
    exact_analyses: u64,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field(
                "seeding",
                &match self.seeds {
                    SeedPolicy::Sequential { .. } => "sequential",
                    SeedPolicy::Substream { .. } => "substream",
                },
            )
            .field("threads", &self.threads)
            .field("cache", &self.cache.stats())
            .field("joint_samples", &self.joint_samples)
            .finish_non_exhaustive()
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    fn with_policy(seeds: SeedPolicy) -> Self {
        Self {
            cache: PlanCache::new(DEFAULT_CACHE_CAPACITY),
            seeds,
            threads: 1,
            config: EvalConfig::default(),
            ctx: SampleContext::from_seed(0),
            kernel: KernelState::default(),
            joint_samples: 0,
            exact_hits: 0,
            cached_test: None,
            recorder: None,
            plan_build_ns: 0,
            last_dispatch: None,
            #[cfg(test)]
            lower_attempts: 0,
            #[cfg(test)]
            exact_analyses: 0,
        }
    }

    /// Creates a session seeded from OS entropy (per-query substreams).
    pub fn new() -> Self {
        Self::seeded(StdRng::from_entropy().gen())
    }

    /// Creates a deterministic session: query `q`, sample `i` is seeded
    /// purely by `(seed, q, i)`, so an identical call sequence reproduces
    /// identical bits — on any number of worker threads.
    pub fn seeded(seed: u64) -> Self {
        Self::with_policy(SeedPolicy::Substream {
            root: seed,
            queries: 0,
            aux: StdRng::seed_from_u64(sample_seed(seed, AUX_STREAM_INDEX)),
        })
    }

    /// Creates a session on one shared stream: `StdRng::seed_from_u64(seed)`
    /// yields one `u64` per joint sample, in call order. The seeded figures
    /// and test suites depend on this stream bit for bit. Sequential
    /// sessions are inherently single-threaded (the stream is
    /// order-dependent), so they never shard batches.
    ///
    /// Use this to reproduce a seeded experiment whose recorded numbers
    /// must not move; new code should prefer [`Session::seeded`].
    pub fn sequential(seed: u64) -> Self {
        Self::with_policy(SeedPolicy::Sequential {
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Returns the session with the given conditional-evaluation
    /// configuration — the single home for the SPRT knobs (α/β error
    /// bounds, indifference δ, batch size, sample cap).
    pub fn with_config(mut self, config: EvalConfig) -> Self {
        self.config = config;
        self
    }

    /// Returns the session with the given evaluation strategy — shorthand
    /// for rewriting [`EvalConfig::strategy`] on the session's config.
    ///
    /// [`EvalStrategy::Auto`] lets recognized analytic subgraphs
    /// (Bernoulli evidence chains, linear-Gaussian comparisons) answer
    /// `pr`/`evaluate`/`e`/`stats` in closed form with **zero samples**,
    /// falling back bitwise-identically to sampling for everything else;
    /// [`EvalStrategy::ExactOnly`] turns that fallback into
    /// [`Error::NotAnalytic`].
    ///
    /// # Examples
    ///
    /// ```
    /// use uncertain_core::{EvalStrategy, Session, Uncertain};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let x = Uncertain::normal(0.0, 1.0)?;
    /// let mut session = Session::seeded(0).with_strategy(EvalStrategy::Auto);
    /// let config = *session.config();
    /// let outcome = session.try_evaluate(&x.lt(1.0), 0.5, &config)?;
    /// assert_eq!(outcome.samples, 0); // decided analytically
    /// assert!(outcome.provenance.is_exact());
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_strategy(mut self, strategy: EvalStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Returns the session with the given worker count for batched
    /// sampling. Workers change wall-clock time only, never sampled values
    /// (sequential-mode sessions ignore this and stay on one thread).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Returns the session with the given plan-cache capacity. `0`
    /// disables caching: every query lowers its network.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = PlanCache::new(capacity);
        self
    }

    /// The session's conditional-evaluation configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// Replaces the conditional-evaluation configuration in place.
    pub fn set_config(&mut self, config: EvalConfig) {
        self.config = config;
    }

    /// The configured worker count for batched sampling.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of queries this session answered analytically with zero
    /// samples (the exact-backend hit counter; observability twin of
    /// [`Session::cache_stats`]).
    pub fn exact_hits(&self) -> u64 {
        self.exact_hits
    }

    /// Hit/miss/eviction counters and occupancy of the plan cache.
    ///
    /// # Examples
    ///
    /// ```
    /// use uncertain_core::{Session, Uncertain};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let coin = Uncertain::bernoulli(0.9)?;
    /// let mut session = Session::seeded(7);
    /// session.pr(&coin, 0.5); // first decision lowers: one miss
    /// session.pr(&coin, 0.5); // re-decision reuses it:   one hit
    /// let stats = session.cache_stats();
    /// assert_eq!((stats.misses, stats.hits), (1, 1));
    /// assert_eq!(stats.hit_rate(), 0.5);
    /// assert_eq!(stats.entries, 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Installs a [`Recorder`] that receives one [`DecisionTrace`] per
    /// SPRT decision ([`Session::pr`], [`Session::evaluate`], …),
    /// returning the previously installed recorder, if any.
    ///
    /// Recording changes wall time only — the sample stream, verdicts,
    /// and every counter are bitwise identical with or without a
    /// recorder installed.
    pub fn install_recorder(&mut self, recorder: Box<dyn Recorder>) -> Option<Box<dyn Recorder>> {
        self.recorder.replace(recorder)
    }

    /// Removes and returns the installed [`Recorder`], restoring the
    /// unrecorded fast path.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    /// Builder form of [`Session::install_recorder`].
    pub fn with_recorder(mut self, recorder: impl Recorder + 'static) -> Self {
        self.recorder = Some(Box::new(recorder));
        self
    }

    /// Cumulative nanoseconds this session has spent lowering networks to
    /// kernel tapes on cache misses, failed walks over networks that do
    /// not lower included. A hit, and a query on a root already known not
    /// to lower, never touch this. Diff the counter around a query
    /// to attribute its compile phase separately from sampling — how the
    /// serving stack splits request spans.
    pub fn plan_build_ns(&self) -> u64 {
        self.plan_build_ns
    }

    /// Which backend answered the session's most recent decision-family
    /// query ([`Session::evaluate`], [`Session::pr`], …): the analytic
    /// backend, the columnar kernel, or the tree-walk interpreter
    /// ([`Dispatch::Closure`]). `None` until the first decision.
    ///
    /// Purely observational — reading it never perturbs the sample
    /// stream; the serve layer attaches it to request spans.
    pub fn last_dispatch(&self) -> Option<Dispatch> {
        self.last_dispatch
    }

    /// Drops the cached kernel for the network rooted at `root`, if
    /// present. Returns whether an entry was evicted.
    /// (Cached entries are never *stale* — networks are immutable — so
    /// this is purely a memory-management hook.)
    pub fn invalidate(&mut self, root: NodeId) -> bool {
        self.cache.entries.remove(&root).is_some()
    }

    /// Drops every cached entry and the kernel scratch, keeping the
    /// counters.
    pub fn clear_cache(&mut self) {
        self.cache.entries.clear();
        self.kernel = KernelState::default();
    }

    /// The session's stream position: how many queries it has answered.
    ///
    /// For a substream session ([`Session::seeded`]) this counter and the
    /// seed *are* the whole seeding state — query `q` is seeded purely by
    /// `(seed, q)` — so a stream is a seed plus a cursor:
    /// [`Session::seek`] points any substream session at it, and every
    /// future sample is bitwise what `Session::seeded(seed)` would have
    /// drawn from there. A sharded evaluation service relies on this to
    /// serve all of a shard's tenants from one session.
    ///
    /// Returns `None` for sequential-mode sessions, whose stream position
    /// is the full RNG state rather than a resumable counter.
    pub fn query_index(&self) -> Option<u64> {
        match &self.seeds {
            SeedPolicy::Sequential { .. } => None,
            SeedPolicy::Substream { queries, .. } => Some(*queries),
        }
    }

    /// Points a substream session at query `query_index` of seed `seed`'s
    /// stream: afterwards it answers exactly as `Session::seeded(seed)`
    /// would after `query_index` queries. When `seed` differs from the
    /// session's, the auxiliary [`Session::rng`] stream restarts as
    /// `Session::seeded(seed)`'s does.
    ///
    /// Only the seeding stream moves. The plan cache, the exact verdicts,
    /// the cached sequential test and the kernel scratch stay: they depend
    /// on the networks asked, never on the seed, so one session can answer
    /// many streams in turn and compile each shared network once.
    ///
    /// # Panics
    ///
    /// Panics on a sequential-mode session: its stream is
    /// order-dependent, so there is no counter to resume from.
    pub fn seek(&mut self, seed: u64, query_index: u64) {
        match &mut self.seeds {
            SeedPolicy::Sequential { .. } => {
                panic!("sequential sessions have an order-dependent stream and cannot resume")
            }
            SeedPolicy::Substream { root, queries, aux } => {
                if *root != seed {
                    *root = seed;
                    *aux = StdRng::seed_from_u64(sample_seed(seed, AUX_STREAM_INDEX));
                }
                *queries = query_index;
            }
        }
    }

    /// Fast-forwards (or rewinds) a substream session on its own stream:
    /// [`Session::seek`] with the session's seed. `Session::seeded(s)`
    /// followed by `resume_at(q)` answers query `q` exactly as the
    /// original `Session::seeded(s)` would have after `q` queries.
    ///
    /// # Panics
    ///
    /// Panics on a sequential-mode session, as [`Session::seek`] does.
    pub fn resume_at(&mut self, query_index: u64) {
        // A sequential session has no root; `seek` panics on it.
        let root = match self.seeds {
            SeedPolicy::Substream { root, .. } => root,
            SeedPolicy::Sequential { .. } => 0,
        };
        self.seek(root, query_index);
    }

    /// Total joint samples drawn through this session.
    pub fn joint_samples(&self) -> u64 {
        self.joint_samples
    }

    /// Resets the joint-sample counter (seeding state is unaffected).
    pub fn reset_joint_samples(&mut self) {
        self.joint_samples = 0;
    }

    /// An auxiliary raw RNG for code that mixes plain random draws with
    /// network queries (workload generators, simulated sensors). In a
    /// sequential session this is the shared per-sample stream; in a
    /// substream session it is a dedicated stream derived from the root
    /// seed.
    pub fn rng(&mut self) -> &mut dyn RngCore {
        self.seeds.raw_rng()
    }

    /// Runs `build`, charging its wall time to the session's compile
    /// counter ([`Session::plan_build_ns`]).
    fn timed<R>(&mut self, build: impl FnOnce(&mut Self) -> R) -> R {
        let start = std::time::Instant::now();
        let built = build(self);
        self.plan_build_ns += start.elapsed().as_nanos() as u64;
        built
    }

    /// Lowers `u`'s kernel tape. This is the one lowering entry point, so
    /// the test-only attempt counter sees every walk.
    fn lower_kernel<T: Value>(&mut self, u: &Uncertain<T>) -> Option<Arc<Kernel<T>>> {
        #[cfg(test)]
        {
            self.lower_attempts += 1;
        }
        Kernel::lower(u).map(Arc::new)
    }

    /// The cached kernel for `u`'s network, lowering it on a miss; `None`
    /// when the network does not lower. Used by batch and decision
    /// queries and by [`Session::kernel_profile`].
    ///
    /// The "does not lower" verdict is memoized in the plan cache's
    /// persistent side table: such a root never becomes an entry, so
    /// without the memo every query on it would repeat the futile
    /// lowering walk.
    fn cached_kernel<T: Value>(&mut self, u: &Uncertain<T>) -> Option<Arc<Kernel<T>>> {
        if let Some(kernel) = self.cache.lookup::<T>(u.id()) {
            return Some(kernel);
        }
        self.cache.misses += 1;
        if matches!(self.cache.verdicts.get(&u.id()), Some(Verdict::NoTape)) {
            return None;
        }
        let kernel = self.timed(|s| s.lower_kernel(u));
        match &kernel {
            Some(k) => self.cache.insert(u.id(), k.clone()),
            None => self.cache.note(u.id(), Verdict::NoTape),
        }
        kernel
    }

    /// The executor for `u`'s batches and decisions: the kernel whenever
    /// the network lowers, otherwise the tree-walk.
    fn executor<T: Value>(&mut self, u: &Uncertain<T>) -> Exec<T> {
        match self.cached_kernel(u) {
            Some(kernel) => Exec::Kernel(kernel),
            None => Exec::Tree(u.clone()),
        }
    }

    // -- analytic backend -------------------------------------------------

    /// The closed-form law of a boolean network, if the analytic backend
    /// recognizes it — `Pr[cond]` for Bernoulli evidence chains and
    /// linear-Gaussian comparisons. Memoized beside the plan cache,
    /// negative verdicts included and immune to its eviction, so repeated
    /// probes (and the queries that follow) pay the graph walk once per
    /// root. Strategy-independent: this reports *recognition*; whether a
    /// query uses the law is [`EvalConfig::strategy`]'s call. Draws
    /// nothing and never touches the seed stream.
    pub fn analyze_bool(&mut self, cond: &Uncertain<bool>) -> Option<BoolLaw> {
        match self.cache.verdicts.get(&cond.id()) {
            Some(Verdict::NoTape) => return None,
            Some(Verdict::Analyzed(law)) => {
                if let Law::Bool(law) = **law {
                    return law;
                }
            }
            None => {}
        }
        #[cfg(test)]
        {
            self.exact_analyses += 1;
        }
        let law = exact::analyze_bool(&**cond.node());
        let verdict = Verdict::Analyzed(Box::new(Law::Bool(law)));
        self.cache.note(cond.id(), verdict);
        law
    }

    /// Scalar twin of [`Session::analyze_bool`]: the closed-form moments
    /// (and, for all-Gaussian networks, the full law) of an `f64` network
    /// the analytic backend recognizes.
    pub fn analyze_f64(&mut self, u: &Uncertain<f64>) -> Option<ScalarLaw> {
        match self.cache.verdicts.get(&u.id()) {
            Some(Verdict::NoTape) => return None,
            Some(Verdict::Analyzed(law)) => {
                if let Law::Scalar(law) = **law {
                    return law;
                }
            }
            None => {}
        }
        #[cfg(test)]
        {
            self.exact_analyses += 1;
        }
        let law = exact::analyze_f64(&**u.node());
        let verdict = Verdict::Analyzed(Box::new(Law::Scalar(law)));
        self.cache.note(u.id(), verdict);
        law
    }

    // -- queries ----------------------------------------------------------

    /// Draws `n` joint samples of `exec` as one query. Shards across the
    /// worker pool when the seeding policy is index-based and the batch is
    /// large enough to amortize spawning.
    fn draw<T: Value>(&mut self, exec: &Exec<T>, n: usize) -> Vec<T> {
        self.joint_samples += n as u64;
        let mut q = self.seeds.begin_query();
        match q.shardable() {
            Some(substream) if self.threads > 1 && n >= PAR_MIN_BATCH => {
                exec.rows_sharded(substream, n, self.threads)
            }
            _ => {
                let mut out = Vec::new();
                exec.rows(n, &mut self.ctx, &mut self.kernel, || q.next(), &mut out);
                out
            }
        }
    }

    /// Draws one joint sample of the network rooted at `u` through the
    /// tree-walk interpreter — the reference semantics the kernel
    /// reproduces bitwise, and the oracle its tests compare against.
    ///
    /// Consumes one seed from the session's stream, like a one-sample
    /// [`Session::samples`] query, and draws the same value; the plan
    /// cache is left alone, so a single draw never lowers a network.
    /// Repeated draws of one network belong on [`Session::samples`].
    pub fn sample<T: Value>(&mut self, u: &Uncertain<T>) -> T {
        self.joint_samples += 1;
        let seed = self.seeds.begin_query().next();
        self.ctx.reseed(seed);
        tree_walk(u, &mut self.ctx)
    }

    /// Draws `n` joint samples of the network rooted at `u`.
    pub fn samples<T: Value>(&mut self, u: &Uncertain<T>, n: usize) -> Vec<T> {
        let exec = self.executor(u);
        self.draw(&exec, n)
    }

    /// Profiles the **columnar kernel** on `n` rows of `u`'s network: runs
    /// the tape with a timer around every instruction's column pass and
    /// reports exclusive per-instruction costs, or `None` — drawing
    /// nothing — when the network does not lower.
    ///
    /// The kernel comes from the plan cache (a hit, or a lowering on a
    /// miss), and the profile runs as one query that consumes exactly the
    /// `n` seeds [`Session::samples`]`(u, n)` would, counted in
    /// [`Session::joint_samples`]; so the session's stream continues as if
    /// those rows had been drawn unprofiled. Only wall time differs.
    ///
    /// # Examples
    ///
    /// ```
    /// use uncertain_core::{Session, Uncertain};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let x = Uncertain::normal(0.0, 1.0)?;
    /// let expr = (&x + &x).gt(0.0);
    /// let mut session = Session::seeded(7);
    /// let profile = session.kernel_profile(&expr, 1024).expect("tape-expressible");
    /// assert_eq!(profile.samples, 1024);
    /// assert_eq!(profile.instrs.len(), 4); // x, +, point(0), >
    /// // The optimizer found nothing to remove in this tape …
    /// assert_eq!(profile.pre_opt_instrs, profile.post_opt_instrs());
    /// // … and the one leaf is a vectorized Gaussian column fill.
    /// let leaves = profile.by_leaf_kind();
    /// assert_eq!(leaves.len(), 1);
    /// assert!(leaves[0].vectorized);
    /// # Ok(())
    /// # }
    /// ```
    pub fn kernel_profile<T: Value>(
        &mut self,
        u: &Uncertain<T>,
        n: usize,
    ) -> Option<KernelProfile> {
        let kernel = self.cached_kernel(u)?;
        self.joint_samples += n as u64;
        let mut q = self.seeds.begin_query();
        Some(kernel.profiled_run(n, || q.next(), &mut self.kernel, &u.network()))
    }

    /// The paper's `E` operator: the mean of `n` joint samples — or the
    /// closed-form mean with zero samples when the session strategy admits
    /// the analytic backend and the network is recognized.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or under [`EvalStrategy::ExactOnly`] on a graph
    /// the analytic backend does not recognize (use [`Session::try_e`] to
    /// report that case as [`Error::NotAnalytic`] instead).
    pub fn e(&mut self, u: &Uncertain<f64>, n: usize) -> f64 {
        self.try_e(u, n)
            .expect("ExactOnly strategy on a non-analytic graph")
    }

    /// [`Session::e`] reporting strategy errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotAnalytic`] when the strategy is
    /// [`EvalStrategy::ExactOnly`] and the graph is not recognized.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn try_e(&mut self, u: &Uncertain<f64>, n: usize) -> Result<f64, Error> {
        assert!(n > 0, "expected value needs at least one sample");
        if self.config.strategy != EvalStrategy::SamplingOnly {
            if let Some(law) = self.analyze_f64(u) {
                // Consume exactly one query index (like every query) while
                // drawing zero samples, so following queries in a substream
                // session are bitwise unaffected by the fast path.
                let _ = self.seeds.begin_query();
                self.exact_hits += 1;
                return Ok(law.mean);
            }
            if self.config.strategy == EvalStrategy::ExactOnly {
                return Err(NotAnalyticError { query: "e" }.into());
            }
        }
        // Summed in sample-index order so the result is identical for any
        // worker count.
        Ok(self.samples(u, n).iter().sum::<f64>() / n as f64)
    }

    /// Generalized expectation: the mean of `score` over `n` joint samples
    /// (how `E` extends to non-`f64` payloads).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn expect_by<T: Value>(
        &mut self,
        u: &Uncertain<T>,
        n: usize,
        score: impl Fn(&T) -> f64,
    ) -> f64 {
        assert!(n > 0, "expected value needs at least one sample");
        self.samples(u, n).iter().map(score).sum::<f64>() / n as f64
    }

    /// A full descriptive summary (mean, variance, quantiles, coverage
    /// intervals) from `n` joint samples — or, when the session strategy
    /// admits the analytic backend and the network reduces to a Gaussian,
    /// an exact summary with closed-form moments and an analytic quantile
    /// grid, drawn with zero samples.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`, sampling produced non-finite values,
    /// or [`EvalStrategy::ExactOnly`] was demanded on a graph the analytic
    /// backend cannot summarize exactly.
    pub fn stats(&mut self, u: &Uncertain<f64>, n: usize) -> Result<Summary, Error> {
        Ok(self.stats_with_provenance(u, n)?.summary)
    }

    /// [`Session::stats`] with the answer's [`Provenance`] attached.
    ///
    /// The exact path needs the full shape, not just moments, so it fires
    /// only for networks whose law is Gaussian (affine maps of Gaussian
    /// leaves); moment-only recognitions (mixed leaf families) fall back
    /// to sampling under [`EvalStrategy::Auto`] and error under
    /// [`EvalStrategy::ExactOnly`]. An exact summary carries `n`
    /// synthetic observations placed at the law's mid-quantiles, so
    /// `quantile`/`min`/`max` read off the closed-form CDF while
    /// `mean`/`variance` are the exact moments.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::stats`].
    pub fn stats_with_provenance(
        &mut self,
        u: &Uncertain<f64>,
        n: usize,
    ) -> Result<StatsOutcome, Error> {
        if self.config.strategy != EvalStrategy::SamplingOnly {
            match self.analyze_f64(u) {
                Some(law) if law.gaussian => {
                    let summary = exact_summary(&law, n)?;
                    let _ = self.seeds.begin_query();
                    self.exact_hits += 1;
                    return Ok(StatsOutcome {
                        summary,
                        provenance: Provenance::Exact { method: law.method },
                    });
                }
                _ if self.config.strategy == EvalStrategy::ExactOnly => {
                    return Err(NotAnalyticError { query: "stats" }.into());
                }
                _ => {}
            }
        }
        let summary = Summary::from_slice(&self.samples(u, n))?;
        Ok(StatsOutcome {
            summary,
            provenance: Provenance::Sampled { samples: n },
        })
    }

    /// A sampled histogram of `u` on `[low, high)` over `bins` bins.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] if the histogram bounds/bins are invalid.
    pub fn histogram(
        &mut self,
        u: &Uncertain<f64>,
        n: usize,
        low: f64,
        high: f64,
        bins: usize,
    ) -> Result<Histogram, StatsError> {
        let mut hist = Histogram::new(low, high, bins)?;
        hist.extend(self.samples(u, n));
        Ok(hist)
    }

    /// Runs the SPRT for `Pr[cond] > threshold` under an explicit
    /// configuration, reporting parameter errors instead of panicking.
    ///
    /// When `config.strategy` admits the analytic backend and the
    /// condition's graph is recognized (a Bernoulli evidence chain or a
    /// linear-Gaussian comparison), the decision is made in closed form
    /// with **zero samples** and the outcome carries
    /// [`Provenance::Exact`]; every other graph is decided by sampling,
    /// bitwise-identically to [`EvalStrategy::SamplingOnly`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Stats`] if `threshold`/`config` are out of range
    /// (e.g. `threshold ∉ (0, 1)`), and [`Error::NotAnalytic`] if
    /// [`EvalStrategy::ExactOnly`] was demanded on an unrecognized graph.
    pub fn try_evaluate(
        &mut self,
        cond: &Uncertain<bool>,
        threshold: f64,
        config: &EvalConfig,
    ) -> Result<HypothesisOutcome, Error> {
        let outcome = self.try_evaluate_until(cond, threshold, config, |_| true)?;
        Ok(outcome.expect("unconditional keep_going never aborts"))
    }

    /// [`Session::try_evaluate`] with a cooperative abort hook, for
    /// callers that bound a decision's wall-clock time (per-request
    /// deadlines in an evaluation service).
    ///
    /// `keep_going(n)` is consulted before every SPRT batch with the
    /// samples drawn so far; returning `false` abandons the decision and
    /// the method yields `Ok(None)`. An abandoned decision still consumes
    /// exactly one query index of the session's seed stream (like every
    /// query), so in a substream session the *following* queries are
    /// bitwise unaffected by whether this one was aborted. When
    /// `keep_going` stays `true`, the outcome is exactly the
    /// [`Session::try_evaluate`] outcome.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Stats`] if `threshold`/`config` are out of range,
    /// and [`Error::NotAnalytic`] under [`EvalStrategy::ExactOnly`] on an
    /// unrecognized graph.
    pub fn try_evaluate_until(
        &mut self,
        cond: &Uncertain<bool>,
        threshold: f64,
        config: &EvalConfig,
        keep_going: impl FnMut(usize) -> bool,
    ) -> Result<Option<HypothesisOutcome>, Error> {
        let test = match &self.cached_test {
            Some((c, t, test)) if *c == *config && *t == threshold => *test,
            _ => {
                let test = config.sequential_test(threshold)?;
                self.cached_test = Some((*config, threshold, test));
                test
            }
        };
        if config.strategy != EvalStrategy::SamplingOnly {
            if let Some(law) = self.analyze_bool(cond) {
                // The analytic fast path: decide in closed form with zero
                // samples. Like every query (aborted ones included), it
                // consumes exactly one query index of the seed stream, so
                // subsequent queries in a substream session are bitwise
                // unaffected by which path answered this one. The decision
                // is conclusive iff `Pr[cond]` lies outside the SPRT's
                // indifference region `threshold ± δ` — the same region a
                // sampled test is calibrated to resolve.
                let _ = self.seeds.begin_query();
                self.exact_hits += 1;
                self.last_dispatch = Some(Dispatch::Exact);
                return Ok(Some(HypothesisOutcome {
                    threshold,
                    accepted: law.p > threshold,
                    conclusive: (law.p - threshold).abs() > config.delta,
                    samples: 0,
                    estimate: law.p,
                    provenance: Provenance::Exact { method: law.method },
                }));
            }
            if config.strategy == EvalStrategy::ExactOnly {
                return Err(NotAnalyticError { query: "evaluate" }.into());
            }
        }
        let exec = self.executor(cond);
        self.last_dispatch = Some(match exec {
            Exec::Kernel(_) => Dispatch::Kernel,
            Exec::Tree(_) => Dispatch::Closure,
        });
        // Tracing state: dormant unless a recorder is installed. The
        // per-batch tracing work (a success tally and one LLR evaluation)
        // happens inside the batch generator so the recorded trajectory
        // is exactly the sequence of states the stopping rule inspected.
        let tracing = self.recorder.is_some();
        let started = tracing.then(std::time::Instant::now);
        let mut points: Vec<TracePoint> = Vec::new();
        let mut traced_successes: u64 = 0;
        let (ctx, state) = (&mut self.ctx, &mut self.kernel);
        let mut q = self.seeds.begin_query();
        let mut drawn = 0usize;
        // Every batch runs in the session's scratch and refills one bool
        // buffer, counting successes straight off it.
        let mut batch: Vec<bool> = Vec::new();
        let outcome = test.run_counted_while(
            |take| {
                drawn += take;
                batch.clear();
                exec.rows(take, ctx, state, || q.next(), &mut batch);
                let successes = batch.iter().filter(|&&b| b).count() as u64;
                if tracing {
                    traced_successes += successes;
                    points.push(TracePoint {
                        samples: drawn,
                        successes: traced_successes,
                        llr: test
                            .sprt()
                            .log_likelihood_ratio(traced_successes, drawn as u64),
                    });
                }
                successes
            },
            keep_going,
        );
        // Aborted tests still drew their completed batches; count them.
        self.joint_samples += drawn as u64;
        if tracing {
            let stopping = match &outcome {
                None => StoppingReason::Aborted,
                Some(o) if !o.conclusive => StoppingReason::BudgetCapped,
                Some(o) if o.decision == TestDecision::AcceptAlternative => {
                    StoppingReason::Accepted
                }
                Some(_) => StoppingReason::Rejected,
            };
            let trace = DecisionTrace {
                root: cond.id(),
                threshold,
                upper: test.sprt().upper(),
                lower: test.sprt().lower(),
                batches: points,
                samples: drawn,
                successes: traced_successes,
                estimate: if drawn > 0 {
                    traced_successes as f64 / drawn as f64
                } else {
                    0.0
                },
                stopping,
                elapsed: started.map(|s| s.elapsed()).unwrap_or_default(),
            };
            if let Some(recorder) = self.recorder.as_mut() {
                recorder.record_decision(trace);
            }
        }
        Ok(outcome.map(|outcome| HypothesisOutcome {
            threshold,
            accepted: outcome.decision == TestDecision::AcceptAlternative,
            conclusive: outcome.conclusive,
            samples: outcome.samples,
            estimate: outcome.estimate,
            provenance: Provenance::Sampled {
                samples: outcome.samples,
            },
        }))
    }

    /// Runs the hypothesis test for `Pr[cond] > threshold` with the
    /// session's configuration and returns the complete outcome, including
    /// the ternary conclusive/inconclusive distinction.
    ///
    /// # Panics
    ///
    /// Panics if `threshold`/config are invalid (conditional thresholds are
    /// code literals, so this is a programming error).
    pub fn evaluate(&mut self, cond: &Uncertain<bool>, threshold: f64) -> HypothesisOutcome {
        let config = self.config;
        self.evaluate_with(cond, threshold, &config)
    }

    /// [`Session::evaluate`] with a per-call configuration override.
    ///
    /// # Panics
    ///
    /// Panics if `threshold`/`config` are invalid.
    pub fn evaluate_with(
        &mut self,
        cond: &Uncertain<bool>,
        threshold: f64,
        config: &EvalConfig,
    ) -> HypothesisOutcome {
        self.try_evaluate(cond, threshold, config)
            .expect("invalid conditional threshold or evaluation config")
    }

    /// The paper's **explicit conditional operator**: decides
    /// `Pr[cond] > threshold` by SPRT with the session's configuration.
    ///
    /// # Panics
    ///
    /// Panics if `threshold ∉ (0, 1)`.
    pub fn pr(&mut self, cond: &Uncertain<bool>, threshold: f64) -> bool {
        self.evaluate(cond, threshold).to_bool()
    }

    /// The paper's **implicit conditional operator**: "more likely than
    /// not", i.e. `Pr[cond] > 0.5`.
    pub fn is_probable(&mut self, cond: &Uncertain<bool>) -> bool {
        self.pr(cond, 0.5)
    }

    /// Fixed-size estimate of `Pr[cond]` from `n` joint samples (no early
    /// stopping).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn probability(&mut self, cond: &Uncertain<bool>, n: usize) -> f64 {
        assert!(n > 0, "probability estimate needs at least one sample");
        let hits = self.samples(cond, n).iter().filter(|&&b| b).count();
        hits as f64 / n as f64
    }

    /// Conditional-probability estimate `Pr[cond | evidence]` from `n`
    /// joint samples of the pair (both conditions evaluated in the *same*
    /// joint sample, so shared ancestry is respected).
    ///
    /// Returns `None` if the evidence never fired in `n` samples.
    ///
    /// The zipped pair is a fresh root per call, so it is deliberately
    /// lowered (or, when it does not lower, tree-walked) outside the plan
    /// cache rather than polluting it.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn probability_given(
        &mut self,
        cond: &Uncertain<bool>,
        evidence: &Uncertain<bool>,
        n: usize,
    ) -> Option<f64> {
        assert!(n > 0, "probability estimate needs at least one sample");
        let joint = cond.zip(evidence);
        let exec = match self.timed(|s| s.lower_kernel(&joint)) {
            Some(kernel) => Exec::Kernel(kernel),
            None => Exec::Tree(joint),
        };
        let mut evidence_hits = 0u64;
        let mut both_hits = 0u64;
        for (a, b) in self.draw(&exec, n) {
            if b {
                evidence_hits += 1;
                if a {
                    both_hits += 1;
                }
            }
        }
        (evidence_hits > 0).then(|| both_hits as f64 / evidence_hits as f64)
    }

    // -- ambient session --------------------------------------------------

    /// Runs `f` with this thread's **ambient session** — the implicit
    /// runtime behind the ergonomic, argument-free query methods
    /// ([`Uncertain::pr`], [`Uncertain::expected_value`], …). The ambient
    /// session is entropy-seeded per thread; install a seeded one with
    /// [`Session::install_ambient`] to make the ergonomic surface
    /// deterministic.
    ///
    /// Re-entrant calls (calling `with_ambient` from inside `f`) fall back
    /// to a throwaway entropy session rather than deadlocking; use explicit
    /// `*_in` methods inside `f` instead.
    pub fn with_ambient<R>(f: impl FnOnce(&mut Session) -> R) -> R {
        AMBIENT.with(|cell| match cell.try_borrow_mut() {
            Ok(mut session) => f(&mut session),
            Err(_) => f(&mut Session::new()),
        })
    }

    /// Replaces this thread's ambient session, returning the previous one.
    pub fn install_ambient(session: Session) -> Session {
        AMBIENT.with(|cell| cell.replace(session))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten_node_network() -> (Uncertain<f64>, Uncertain<bool>) {
        let x = Uncertain::normal(5.0, 1.0).unwrap();
        let y = Uncertain::normal(4.0, 1.0).unwrap();
        let z = Uncertain::uniform(0.0, 2.0).unwrap();
        let expr = (&x + &y) * 0.5 + (&x - &y) / 2.0 + &z * &z;
        let cond = expr.gt(3.0);
        (expr, cond)
    }

    #[test]
    fn seeded_sessions_reproduce_exactly() {
        let (expr, cond) = ten_node_network();
        let mut a = Session::seeded(7);
        let mut b = Session::seeded(7);
        assert_eq!(a.samples(&expr, 100), b.samples(&expr, 100));
        assert_eq!(a.e(&expr, 500), b.e(&expr, 500));
        assert_eq!(
            a.evaluate(&cond, 0.5),
            b.evaluate(&cond, 0.5),
            "same call sequence, same outcome"
        );
        assert_eq!(a.joint_samples(), b.joint_samples());
    }

    #[test]
    fn thread_count_never_changes_values() {
        let (expr, _) = ten_node_network();
        let mut serial = Session::seeded(11).with_threads(1);
        let mut sharded = Session::seeded(11).with_threads(4);
        assert_eq!(serial.samples(&expr, 5000), sharded.samples(&expr, 5000));
        assert_eq!(serial.e(&expr, 5000), sharded.e(&expr, 5000));
    }

    #[test]
    fn kernel_batches_match_tree_walk_draws() {
        // A sequential stream spends one seed per joint sample, so a
        // 50-sample kernel batch and 50 single tree-walk draws consume the
        // same seeds.
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let expr = (&x + &x) * &x;
        let mut a = Session::sequential(31);
        let mut b = Session::sequential(31);
        let batched = a.samples(&expr, 50);
        let interpreted: Vec<f64> = (0..50).map(|_| b.sample(&expr)).collect();
        assert_eq!(batched, interpreted);
        assert_eq!(b.cache_stats().misses, 0, "single draws bypass the cache");
        assert_eq!(b.joint_samples(), 50);
    }

    #[test]
    fn single_draws_skip_the_cache_and_match_one_row_batches() {
        let (expr, _) = ten_node_network();
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let posterior = x.weight_by(|v| (-v * v).exp());
        let mut single = Session::sequential(42);
        let mut batched = Session::sequential(42);
        for _ in 0..20 {
            assert_eq!(single.sample(&expr), batched.samples(&expr, 1)[0]);
            assert_eq!(single.sample(&posterior), batched.samples(&posterior, 1)[0]);
        }
        assert_eq!(
            single.cache_stats(),
            Session::sequential(42).cache_stats(),
            "single draws leave every cache counter untouched"
        );
        assert_eq!(single.lower_attempts, 0, "a single draw never lowers");
        assert_eq!(single.joint_samples(), batched.joint_samples());
        let stats = batched.cache_stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 19, 21));
    }

    #[test]
    fn tree_walk_batches_shard_without_changing_values() {
        // `weight_by` does not lower, so a seeded multi-worker session
        // shards this batch through the tree-walk.
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let posterior = x.weight_by(|v| (-v * v).exp());
        let n = 1500;
        assert!(n >= PAR_MIN_BATCH, "large enough to shard");
        let mut serial = Session::seeded(43).with_threads(1);
        let mut sharded = Session::seeded(43).with_threads(8);
        for _ in 0..2 {
            let a = serial.samples(&posterior, n);
            let b = sharded.samples(&posterior, n);
            assert_eq!(a.len(), n);
            assert!(
                a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()),
                "sharding must not change a single bit"
            );
        }
        assert_eq!(sharded.lower_attempts, 1, "the no-tape verdict is memoized");
    }

    #[test]
    fn cache_hits_on_repeated_queries() {
        let (expr, cond) = ten_node_network();
        let mut s = Session::seeded(1);
        s.pr(&cond, 0.5);
        s.pr(&cond, 0.5);
        s.e(&expr, 100);
        s.e(&expr, 100);
        let stats = s.cache_stats();
        assert_eq!(stats.misses, 2, "two distinct roots compile once each");
        assert_eq!(stats.hits, 2, "repeat queries hit");
        assert_eq!(stats.entries, 2);
        assert!(stats.hit_rate() > 0.49);
    }

    #[test]
    fn cache_hit_answers_match_fresh_compiles() {
        let (expr, _) = ten_node_network();
        let mut cached = Session::seeded(3);
        let mut uncached = Session::seeded(3).with_cache_capacity(0);
        for _ in 0..5 {
            assert_eq!(cached.samples(&expr, 50), uncached.samples(&expr, 50));
        }
        assert!(cached.cache_stats().hits >= 4);
        assert_eq!(uncached.cache_stats().hits, 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let y = Uncertain::normal(1.0, 1.0).unwrap();
        let z = Uncertain::normal(2.0, 1.0).unwrap();
        let mut s = Session::seeded(5).with_cache_capacity(2);
        s.samples(&x, 1); // miss {x}
        s.samples(&y, 1); // miss {x, y}
        s.samples(&x, 1); // hit (x now most recent)
        s.samples(&z, 1); // miss; evicts y
        assert_eq!(s.cache_stats().evictions, 1);
        s.samples(&y, 1); // miss again (was evicted)
        let stats = s.cache_stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn capacity_one_still_answers_correctly() {
        let x = Uncertain::uniform(0.0, 1.0).unwrap();
        let y = Uncertain::uniform(10.0, 11.0).unwrap();
        let mut s = Session::seeded(9).with_cache_capacity(1);
        let mut reference = Session::seeded(9).with_cache_capacity(64);
        for _ in 0..4 {
            assert_eq!(s.e(&x, 200), reference.e(&x, 200));
            assert_eq!(s.e(&y, 200), reference.e(&y, 200));
        }
        assert!(s.cache_stats().evictions >= 6, "thrashing at capacity 1");
    }

    #[test]
    fn invalidate_and_clear() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let y = Uncertain::normal(1.0, 1.0).unwrap();
        let mut s = Session::seeded(2);
        s.samples(&x, 1);
        s.samples(&y, 1);
        assert_eq!(s.cache_stats().entries, 2);
        assert!(s.invalidate(x.id()));
        assert!(!s.invalidate(x.id()), "already gone");
        assert_eq!(s.cache_stats().entries, 1);
        s.clear_cache();
        assert_eq!(s.cache_stats().entries, 0);
        // Counters survive clearing.
        assert!(s.cache_stats().misses >= 2);
    }

    #[test]
    fn sequential_mode_matches_legacy_sampler_stream() {
        // The claim that keeps every seeded experiment stable:
        // Session::sequential(s) draws the exact stream the pre-runtime
        // sampler drew.
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let expr = &x * &x - &x;
        let mut session = Session::sequential(17);
        let via_session = session.samples(&expr, 25);
        // Reference: seed a StdRng with `s` and replay the historical
        // per-sample protocol (one u64 per joint sample, fresh tree-walk
        // context each).
        let mut rng = StdRng::seed_from_u64(17);
        let via_legacy: Vec<f64> = (0..25)
            .map(|_| {
                let mut ctx = SampleContext::from_seed(rng.gen());
                expr.node().sample_value(&mut ctx)
            })
            .collect();
        assert_eq!(via_session, via_legacy);
    }

    #[test]
    fn different_seeds_differ() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let mut a = Session::sequential(1);
        let mut b = Session::sequential(2);
        assert_ne!(a.samples(&x, 5), b.samples(&x, 5));
    }

    #[test]
    fn joint_samples_are_independent_across_calls() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let mut s = Session::sequential(3);
        let a = s.sample(&x);
        let b = s.sample(&x);
        assert_ne!(a, b, "separate joint samples must redraw the leaves");
    }

    #[test]
    fn session_config_drives_conditionals() {
        let b = Uncertain::bernoulli(0.5).unwrap();
        let mut s = Session::seeded(4).with_config(EvalConfig::default().with_max_samples(100));
        let o = s.evaluate(&b, 0.5);
        assert!(o.samples <= 100, "session cap applies: {}", o.samples);
    }

    #[test]
    fn joint_sample_accounting() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let mut s = Session::seeded(6);
        let _ = s.samples(&x, 40);
        let _ = s.sample(&x);
        assert_eq!(s.joint_samples(), 41);
        let o = s.evaluate(&x.gt(0.0), 0.5);
        assert_eq!(s.joint_samples(), 41 + o.samples as u64);
        s.reset_joint_samples();
        assert_eq!(s.joint_samples(), 0);
    }

    #[test]
    fn probability_given_respects_shared_ancestry() {
        let u = Uncertain::uniform(0.0, 1.0).unwrap();
        let big = u.gt(0.8);
        let medium = u.gt(0.5);
        let mut s = Session::seeded(8);
        let p = s.probability_given(&big, &medium, 20_000).unwrap();
        assert!((p - 0.4).abs() < 0.02, "p={p}");
    }

    #[test]
    fn ambient_session_is_usable_and_replaceable() {
        let x = Uncertain::normal(1.0, 0.1).unwrap();
        let previous = Session::install_ambient(Session::seeded(123));
        let a = Session::with_ambient(|s| s.e(&x, 100));
        // Reinstall the same seed: the ergonomic surface reproduces.
        let _ = Session::install_ambient(Session::seeded(123));
        let b = Session::with_ambient(|s| s.e(&x, 100));
        assert_eq!(a, b);
        let _ = Session::install_ambient(previous);
    }

    /// A chain `x + x + … + x` of `len` additions over one shared leaf.
    fn deep_chain(x: &Uncertain<f64>, len: usize) -> Uncertain<f64> {
        let mut expr = x.clone();
        for _ in 0..len {
            expr = expr + x;
        }
        expr
    }

    #[test]
    fn very_deep_lowerable_chains_run_on_the_kernel() {
        // Lowering is iterative and the tape runs flat, so a 3 001-node
        // chain lowers: it is cached and runs on the kernel, drawing the
        // tree-walk's bits.
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let expr = deep_chain(&x, 3000);
        let mut s = Session::sequential(14);
        let mut reference = Session::sequential(14);
        let interpreted: Vec<f64> = (0..8).map(|_| reference.sample(&expr)).collect();
        assert_eq!(s.samples(&expr, 5), interpreted[..5]);
        assert_eq!(s.samples(&expr, 3), interpreted[5..]);
        // A single draw tree-walks the chain and skips the cache — same
        // bits again.
        assert_eq!(s.sample(&expr), reference.sample(&expr));
        let stats = s.cache_stats();
        assert_eq!((stats.entries, stats.misses, stats.hits), (1, 1, 1));
        s.evaluate(&expr.gt(0.0), 0.5);
        assert_eq!(s.last_dispatch(), Some(Dispatch::Kernel));
    }

    #[test]
    fn the_kept_kernel_scratch_is_bounded_by_the_chunk() {
        // After a large batch on a long chain, and then on a speed-sized
        // tape, the session keeps at most 256 KiB of columns, or 128 rows
        // of every register on a tape past 256 registers.
        let kept_at_most = |registers: usize| (256 << 10).max(128 * registers * 8);
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let chain = deep_chain(&x, 1500);
        let speed_sized = deep_chain(&x, 52);
        let mut s = Session::seeded(12);
        s.samples(&chain, 10_000);
        let after_chain = s.kernel.scalar_column_bytes();
        assert!(after_chain > 0, "the scratch outlives the query");
        assert!(after_chain <= kept_at_most(1501), "{after_chain} B kept");
        s.samples(&speed_sized, 2_000);
        let after_speed = s.kernel.scalar_column_bytes();
        assert!(after_speed > 0);
        assert!(after_speed <= kept_at_most(53), "{after_speed} B kept");
        s.clear_cache();
        assert_eq!(s.kernel.scalar_column_bytes(), 0, "clear_cache releases it");
    }

    #[test]
    fn very_deep_chains_that_do_not_lower_fall_back_to_the_tree_walk() {
        // Over a `flat_map` leaf the chain has no tape, so a session
        // tree-walks it, never caching it.
        let x = Uncertain::normal(0.0, 1.0)
            .unwrap()
            .flat_map("double", |v| Uncertain::point(2.0 * v));
        let expr = deep_chain(&x, 3000);
        let mut s = Session::sequential(15);
        let mut reference = Session::sequential(15);
        let interpreted: Vec<f64> = (0..4).map(|_| reference.sample(&expr)).collect();
        assert_eq!(s.samples(&expr, 3), interpreted[..3]);
        assert_eq!(s.sample(&expr), interpreted[3]);
        let stats = s.cache_stats();
        assert_eq!(
            stats.entries, 0,
            "a network that does not lower is never cached"
        );
        assert_eq!(stats.hits, 0);
        assert_eq!(s.lower_attempts, 1, "the no-tape verdict is memoized");
        s.evaluate(&expr.gt(0.0), 0.5);
        assert_eq!(s.last_dispatch(), Some(Dispatch::Closure));
    }

    #[test]
    fn lowerable_roots_lower_once_on_the_hot_path() {
        let (expr, cond) = ten_node_network();
        let evidence = expr.lt(6.0);
        let mut s = Session::seeded(40);
        s.evaluate(&cond, 0.5);
        s.e(&expr, 100);
        s.samples(&evidence, 10);
        s.probability_given(&cond, &evidence, 200);
        s.evaluate(&cond, 0.5);
        assert_eq!(s.lower_attempts, 4, "three roots plus the zipped pair");
        assert_eq!(s.last_dispatch(), Some(Dispatch::Kernel));

        // A kernel profile borrows the cached kernel: one hit, no new
        // miss, no new lowering.
        let lowered = s.lower_attempts;
        let before = s.cache_stats();
        assert!(s.kernel_profile(&cond, 10).is_some());
        let after = s.cache_stats();
        assert_eq!((after.hits, after.misses), (before.hits + 1, before.misses));
        assert_eq!(s.lower_attempts, lowered, "the kernel came from the cache");
        assert_eq!(s.cache_stats().misses, 3);
    }

    #[test]
    fn kernel_profile_draws_nothing_when_the_network_does_not_lower() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let posterior = x.weight_by(|v| (-v * v).exp());
        let mut s = Session::seeded(42);
        assert!(s.kernel_profile(&posterior, 100).is_none());
        assert_eq!(s.joint_samples(), 0);
        assert_eq!(s.query_index(), Some(0), "no query was spent");
    }

    #[test]
    fn non_lowerable_roots_never_become_cache_entries() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let posterior = x.weight_by(|v| (-v * v).exp());
        let a = Uncertain::normal(1.0, 1.0).unwrap();
        let b = Uncertain::normal(2.0, 1.0).unwrap();
        let mut s = Session::seeded(41).with_cache_capacity(1);
        for _ in 0..3 {
            s.e(&posterior, 50);
        }
        let stats = s.cache_stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (0, 0, 3));
        assert_eq!(s.lower_attempts, 1);
        for round in 1..=3 {
            s.e(&a, 50);
            s.e(&b, 50); // capacity 1: evicts `a`
            s.e(&posterior, 50);
            assert_eq!(s.cache_stats().entries, 1, "only `b` is resident");
            assert_eq!(
                s.lower_attempts,
                1 + 2 * round,
                "`a` and `b` re-lower after every eviction; the posterior never does"
            );
        }
        assert!(!s.invalidate(posterior.id()), "the posterior has no entry");
        let stats = s.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 12, 5));
    }

    #[test]
    fn sessions_are_send() {
        // The contract a sharded service builds on: a Session (and the
        // networks it evaluates) can move into a shard thread.
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
        assert_send::<Uncertain<f64>>();
        fn assert_sync<T: Sync>() {}
        assert_sync::<Uncertain<bool>>();
    }

    #[test]
    fn resume_at_reproduces_an_evicted_sessions_future() {
        let (expr, cond) = ten_node_network();
        // Reference: one long-lived session answering 8 queries.
        let mut reference = Session::seeded(99);
        let mut expected: Vec<(f64, HypothesisOutcome)> = Vec::new();
        for _ in 0..4 {
            let e = reference.e(&expr, 200);
            let o = reference.evaluate(&cond, 0.5);
            expected.push((e, o));
        }
        // Same 8 queries, but the session is dropped (evicted) and
        // rebuilt with resume_at between every pair — the plan cache goes
        // cold each time, the values must not move.
        let mut cursor = 0;
        let mut got: Vec<(f64, HypothesisOutcome)> = Vec::new();
        for _ in 0..4 {
            let mut s = Session::seeded(99);
            s.resume_at(cursor);
            let e = s.e(&expr, 200);
            let o = s.evaluate(&cond, 0.5);
            got.push((e, o));
            cursor = s.query_index().expect("substream session");
        }
        assert_eq!(expected, got);
        assert_eq!(cursor, 8);
    }

    #[test]
    fn seek_answers_another_stream_on_a_warm_session() {
        let (expr, cond) = ten_node_network();
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let posterior = x.weight_by(|v| (-v * v).exp());
        // Three queries: an SPRT decision and a batch on the kernel, and a
        // batch on the tree-walk.
        let ask = |s: &mut Session| {
            let o = s.evaluate(&cond, 0.5);
            (o, s.e(&expr, 200).to_bits(), s.e(&posterior, 200).to_bits())
        };
        let stream = |seed: u64, rounds: usize| {
            let mut s = Session::seeded(seed);
            (0..rounds).map(|_| ask(&mut s)).collect::<Vec<_>>()
        };
        let (a, b) = (stream(11, 3), stream(12, 2));

        // Seed A's stream warms the cache, then the session answers seed
        // B's second round without lowering anything again.
        let mut s = Session::seeded(11);
        assert_eq!(ask(&mut s), a[0]);
        assert_eq!(ask(&mut s), a[1]);
        let lowered = s.lower_attempts;
        s.seek(12, 3);
        assert_eq!(s.rng().next_u64(), Session::seeded(12).rng().next_u64());
        assert_eq!(ask(&mut s), b[1]);
        assert_eq!(s.query_index(), Some(6));
        assert_eq!(s.lower_attempts, lowered, "the cache stayed warm");

        // Seeking back resumes seed A where it stopped.
        s.seek(11, 6);
        assert_eq!(s.rng().next_u64(), Session::seeded(11).rng().next_u64());
        assert_eq!(ask(&mut s), a[2]);
    }

    #[test]
    #[should_panic(expected = "cannot resume")]
    fn sequential_sessions_cannot_seek() {
        Session::sequential(3).seek(4, 5);
    }

    #[test]
    fn query_index_counts_queries_not_samples() {
        let (expr, _) = ten_node_network();
        let mut s = Session::seeded(1);
        assert_eq!(s.query_index(), Some(0));
        let _ = s.samples(&expr, 500); // one query, many samples
        assert_eq!(s.query_index(), Some(1));
        let _ = s.sample(&expr);
        assert_eq!(s.query_index(), Some(2));
        assert_eq!(Session::sequential(1).query_index(), None);
    }

    #[test]
    #[should_panic(expected = "cannot resume")]
    fn sequential_sessions_cannot_resume() {
        Session::sequential(3).resume_at(5);
    }

    #[test]
    fn try_evaluate_until_matches_try_evaluate_when_not_aborted() {
        let (_, cond) = ten_node_network();
        let cfg = EvalConfig::default();
        let mut a = Session::seeded(21);
        let mut b = Session::seeded(21);
        for threshold in [0.2, 0.5, 0.8] {
            let plain = a.try_evaluate(&cond, threshold, &cfg).unwrap();
            let gated = b
                .try_evaluate_until(&cond, threshold, &cfg, |_| true)
                .unwrap()
                .unwrap();
            assert_eq!(plain, gated);
        }
        assert_eq!(a.joint_samples(), b.joint_samples());
    }

    #[test]
    fn aborted_decision_consumes_one_query_and_nothing_more() {
        // A marginal conditional with a huge cap, aborted after 3 batches:
        // the *next* query must be bitwise identical to a session that
        // never ran the aborted decision past its own budget.
        let b = Uncertain::bernoulli(0.5).unwrap();
        let (expr, _) = ten_node_network();
        let cfg = EvalConfig::default().with_max_samples(1_000_000);
        let mut aborted = Session::seeded(55);
        let out = aborted
            .try_evaluate_until(&b, 0.5, &cfg, |n| n < 30)
            .unwrap();
        assert_eq!(out, None);
        assert_eq!(aborted.joint_samples(), 30, "three 10-sample batches ran");
        let after_abort = aborted.samples(&expr, 50);

        let mut clean = Session::seeded(55);
        let _ = clean.try_evaluate_until(&b, 0.5, &cfg, |n| n < 200);
        let after_longer = clean.samples(&expr, 50);
        assert_eq!(
            after_abort, after_longer,
            "the abort point must not leak into later queries"
        );
    }

    #[test]
    fn try_evaluate_reuses_the_cached_test() {
        let likely = Uncertain::bernoulli(0.95).unwrap();
        let cfg = EvalConfig::default();
        let mut s = Session::seeded(7);
        assert!(s.try_evaluate(&likely, 0.5, &cfg).unwrap().accepted);
        assert_eq!(s.cached_test.map(|(c, t, _)| (c, t)), Some((cfg, 0.5)));
        // Plant a one-batch test under the same key: a reused test runs it.
        let one_batch = cfg
            .with_max_samples(cfg.batch)
            .sequential_test(0.5)
            .unwrap();
        s.cached_test = Some((cfg, 0.5, one_batch));
        assert_eq!(
            s.try_evaluate(&likely, 0.5, &cfg).unwrap().samples,
            cfg.batch
        );
        // A different threshold rebuilds (and re-caches) the test.
        assert!(s.try_evaluate(&likely, 0.6, &cfg).unwrap().samples > cfg.batch);
        assert_eq!(s.cached_test.map(|(_, t, _)| t), Some(0.6));
        assert!(s.samples(&likely, 0).is_empty());
    }

    #[test]
    fn sample_seed_mixing_is_index_sensitive() {
        assert_ne!(sample_seed(0, 0), sample_seed(0, 1));
        assert_ne!(sample_seed(0, 0), sample_seed(1, 0));
        assert_eq!(sample_seed(42, 7), sample_seed(42, 7));
    }

    #[test]
    fn cache_stats_merge_counterwise() {
        let a = CacheStats {
            hits: 3,
            misses: 2,
            evictions: 1,
            entries: 2,
            capacity: 64,
        };
        let b = CacheStats {
            hits: 7,
            misses: 1,
            evictions: 0,
            entries: 1,
            capacity: 8,
        };
        let sum = a + b;
        assert_eq!(sum.hits, 10);
        assert_eq!(sum.misses, 3);
        assert_eq!(sum.evictions, 1);
        assert_eq!(sum.entries, 3);
        assert_eq!(sum.capacity, 72);
        assert_eq!([a, b].into_iter().sum::<CacheStats>(), sum);
        let mut acc = a;
        acc += b;
        assert_eq!(acc, sum);
    }

    #[test]
    fn no_tape_verdict_survives_eviction_churn() {
        // `encapsulate` needs SampleContext machinery, so its network never
        // lowers to a kernel tape. The futile lowering walk must be paid
        // once per root, not once per LRU eviction.
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let dynamic = x.encapsulate();
        let a = Uncertain::normal(1.0, 1.0).unwrap();
        let b = Uncertain::normal(2.0, 1.0).unwrap();
        let mut s = Session::seeded(33).with_cache_capacity(1);
        s.samples(&dynamic, 1);
        assert!(s.lower_attempts >= 1, "first query attempts to lower");
        for _ in 0..3 {
            s.samples(&a, 1);
            s.samples(&b, 1); // capacity 1: churn the cache
            let attempts = s.lower_attempts;
            let misses = s.cache_stats().misses;
            s.samples(&dynamic, 1);
            assert_eq!(
                s.cache_stats().misses,
                misses + 1,
                "a root that does not lower is never cached, so it misses"
            );
            assert_eq!(
                s.lower_attempts, attempts,
                "memoized no-tape verdict skips re-lowering"
            );
        }
        assert!(s.cache_stats().evictions >= 3);
    }

    #[test]
    fn lowerable_roots_are_not_memoized_as_no_tape() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let expr = &x + &x;
        let mut s = Session::seeded(34).with_cache_capacity(1);
        s.samples(&expr, 1);
        let attempts = s.lower_attempts;
        let other = Uncertain::normal(5.0, 1.0).unwrap();
        s.samples(&other, 1); // evicts expr
        s.samples(&expr, 1); // a miss must re-lower (it tapes fine)
        assert_eq!(s.lower_attempts, attempts + 2);
    }

    #[test]
    fn exact_verdict_survives_eviction_churn() {
        // The analytic verdict is memoized beside the no-tape memo:
        // immune to LRU eviction, so a hot analytic root pays the
        // recognition walk once, not once per churned kernel.
        let chain = {
            let x = Uncertain::normal(0.0, 1.0).unwrap();
            let mut sum = x.clone();
            for _ in 0..30 {
                sum = sum + &x;
            }
            sum.lt(100.0)
        };
        let a = Uncertain::normal(1.0, 1.0).unwrap();
        let b = Uncertain::normal(2.0, 1.0).unwrap();
        let config = EvalConfig::default().with_strategy(EvalStrategy::Auto);
        let mut s = Session::seeded(35)
            .with_strategy(EvalStrategy::Auto)
            .with_cache_capacity(1);
        let first = s.try_evaluate(&chain, 0.5, &config).unwrap();
        assert_eq!(first.samples, 0);
        assert_eq!(s.exact_analyses, 1);
        for _ in 0..3 {
            s.samples(&a, 1);
            s.samples(&b, 1); // capacity 1: churn the cache hard
            let outcome = s.try_evaluate(&chain, 0.5, &config).unwrap();
            assert_eq!(outcome.samples, 0);
            assert_eq!(s.exact_analyses, 1, "memoized verdict skips re-analysis");
        }
        assert_eq!(s.exact_hits(), 4);
    }

    #[test]
    fn disabled_cache_always_compiles() {
        let x = Uncertain::normal(0.0, 1.0).unwrap();
        let mut s = Session::seeded(10).with_cache_capacity(0);
        s.samples(&x, 1);
        s.samples(&x, 1);
        let stats = s.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.capacity, 0);
    }
}
