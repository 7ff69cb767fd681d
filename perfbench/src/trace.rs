//! Outside-in per-layer tracing through the cache seam.
//!
//! [`TimingBackend`] wraps any [`CacheBackend`] (an [`InMemoryCache`] in
//! practice) and is handed to [`SweepSession::with_backend`], so the engine
//! runs unmodified while every memoization layer is timed at its boundary:
//!
//! * a lookup *miss* opens an interval on the calling thread, the matching
//!   *store* of the same key on the same thread closes it — the interval is
//!   the time the layer spent computing that entry;
//! * intervals nest (a point miss computes a context, which computes trace
//!   statistics), and a layer's *self* time is its interval minus the
//!   intervals of the layers nested inside it;
//! * a miss that is never followed by a store of its key (the repair path
//!   probing for a parent schedule, an error) is counted as unpaired and made
//!   transparent: its nested time is handed to the interval below it;
//! * two threads with an open interval for the same key are computing the
//!   same entry twice; the later store counts as a duplicate.
//!
//! Statistics, explore counters, export and absorb are forwarded unchanged;
//! snapshot save/load are split into their export/encode and decode/absorb
//! halves so the codec's share shows.
//!
//! [`InMemoryCache`]: impact_core::InMemoryCache
//! [`SweepSession::with_backend`]: impact_core::SweepSession::with_backend

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use impact_core::{
    AbsorbStats, BlockKey, CacheBackend, CacheSnapshot, CacheStats, ContextKey, DesignContext,
    DesignPoint, ExploreStats, FuStatsKey, MuxEntry, MuxStatsKey, PointKey, RegStatsKey, ScaledKey,
    ScheduleKey, SnapshotRejection, SnapshotScope,
};
use impact_sched::{BlockSchedule, SchedulingResult};
use impact_trace::{FuStats, RegStats};

/// The traced memoization layers, named after the crate whose computation
/// each one memoizes.
pub const LAYERS: [&str; 8] = [
    "trace.mux",
    "trace.fu",
    "trace.reg",
    "core.context",
    "sched.schedule",
    "sched.block",
    "power.point",
    "core.vdd_search",
];

const MUX: usize = 0;
const FU: usize = 1;
const REG: usize = 2;
const CONTEXT: usize = 3;
const SCHEDULE: usize = 4;
const BLOCK: usize = 5;
const POINT: usize = 6;
const VDD_SEARCH: usize = 7;

/// Shards of the in-flight key table (duplicate-computation detection).
const SHARDS: usize = 64;

/// Per-layer tallies, in nanoseconds where timed.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTally {
    pub lookups: u64,
    pub hits: u64,
    /// Miss→store interval minus nested intervals.
    pub self_ns: u64,
    /// Time inside the wrapped backend's calls: lock wait plus map work.
    pub call_ns: u64,
    /// Stores of a key another thread was computing at the same time.
    pub dup_stores: u64,
    /// Misses never closed by a store of their key.
    pub unpaired: u64,
}

impl LayerTally {
    fn add(&mut self, other: &LayerTally) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.self_ns += other.self_ns;
        self.call_ns += other.call_ns;
        self.dup_stores += other.dup_stores;
        self.unpaired += other.unpaired;
    }
}

#[derive(Debug)]
struct Open {
    layer: usize,
    key: u64,
    start: u64,
    child_ns: u64,
    duplicate: bool,
}

#[derive(Debug, Default)]
struct ThreadLog {
    layers: [LayerTally; 8],
    stack: Vec<Open>,
    /// Summed length of closed intervals that had no enclosing interval.
    top_level_ns: u64,
}

/// Everything one traced phase recorded, merged over threads.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    pub layers: [LayerTally; 8],
    /// Summed length of top-level intervals over every thread: with one
    /// ranking thread per worker, the job time spent inside named layers.
    pub top_level_ns: u64,
    pub export_ns: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub absorb_ns: u64,
    pub snapshot_bytes: u64,
}

impl TraceSummary {
    /// Misses never closed by a store, over every layer.
    pub fn unpaired(&self) -> u64 {
        self.layers.iter().map(|layer| layer.unpaired).sum()
    }
}

static NEXT_TRACER: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    static LOG: RefCell<Option<(usize, Arc<Mutex<ThreadLog>>)>> = const { RefCell::new(None) };
}

/// One tracing phase: the clock origin, every thread's log, and the
/// in-flight key table. Share one tracer between every session of a phase.
#[derive(Debug)]
pub struct Tracer {
    id: usize,
    origin: Instant,
    threads: Mutex<Vec<Arc<Mutex<ThreadLog>>>>,
    in_flight: Vec<Mutex<HashMap<(usize, u64), u32>>>,
    export_ns: AtomicU64,
    encode_ns: AtomicU64,
    decode_ns: AtomicU64,
    absorb_ns: AtomicU64,
    snapshot_bytes: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            origin: Instant::now(),
            threads: Mutex::new(Vec::new()),
            in_flight: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            export_ns: AtomicU64::new(0),
            encode_ns: AtomicU64::new(0),
            decode_ns: AtomicU64::new(0),
            absorb_ns: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
        })
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` on the calling thread's log, registering the thread with
    /// this tracer on first use.
    fn with_log<R>(&self, f: impl FnOnce(&mut ThreadLog) -> R) -> R {
        let log = LOG.with(|slot| {
            let mut slot = slot.borrow_mut();
            match &*slot {
                Some((id, log)) if *id == self.id => Arc::clone(log),
                _ => {
                    let log = Arc::new(Mutex::new(ThreadLog::default()));
                    self.threads
                        .lock()
                        .expect("tracer registry is never held across a panic")
                        .push(Arc::clone(&log));
                    *slot = Some((self.id, Arc::clone(&log)));
                    log
                }
            }
        });
        let mut guard = log
            .lock()
            .expect("a thread log is only locked by its own thread and the final merge");
        f(&mut guard)
    }

    /// Bumps the in-flight count of `(layer, key)` and reports whether
    /// another thread already had it open.
    fn begin_flight(&self, layer: usize, key: u64) -> bool {
        let mut shard = self.shard(key);
        let count = shard.entry((layer, key)).or_insert(0);
        *count += 1;
        *count > 1
    }

    fn end_flight(&self, layer: usize, key: u64) {
        let mut shard = self.shard(key);
        if let Some(count) = shard.get_mut(&(layer, key)) {
            *count -= 1;
            if *count == 0 {
                shard.remove(&(layer, key));
            }
        }
    }

    fn shard(&self, key: u64) -> std::sync::MutexGuard<'_, HashMap<(usize, u64), u32>> {
        // Key hashes are uniform, so the low bits spread the shards.
        self.in_flight[(key as usize) % SHARDS]
            .lock()
            .expect("in-flight shards are never held across a panic")
    }

    fn lookup<V>(&self, layer: usize, key: u64, call: impl FnOnce() -> Option<V>) -> Option<V> {
        let start = self.now();
        let found = call();
        let end = self.now();
        let duplicate = found.is_none() && self.begin_flight(layer, key);
        self.with_log(|log| {
            let tally = &mut log.layers[layer];
            tally.lookups += 1;
            tally.call_ns += end - start;
            if found.is_some() {
                tally.hits += 1;
            } else {
                log.stack.push(Open {
                    layer,
                    key,
                    start,
                    child_ns: 0,
                    duplicate,
                });
            }
        });
        found
    }

    fn store(&self, layer: usize, key: u64, call: impl FnOnce()) {
        let start = self.now();
        call();
        let end = self.now();
        let mut closed = Vec::new();
        self.with_log(|log| {
            log.layers[layer].call_ns += end - start;
            let Some(position) = log
                .stack
                .iter()
                .rposition(|open| open.layer == layer && open.key == key)
            else {
                return;
            };
            // Misses above the match were never stored: hand their nested
            // time down so it stays inside the matched interval.
            while log.stack.len() > position + 1 {
                let stale = log.stack.pop().expect("stack is longer than position");
                log.layers[stale.layer].unpaired += 1;
                if let Some(below) = log.stack.last_mut() {
                    below.child_ns += stale.child_ns;
                }
                closed.push((stale.layer, stale.key));
            }
            let open = log.stack.pop().expect("the matched interval is on top");
            let duration = end - open.start;
            let tally = &mut log.layers[layer];
            tally.self_ns += duration.saturating_sub(open.child_ns);
            if open.duplicate {
                tally.dup_stores += 1;
            }
            match log.stack.last_mut() {
                Some(parent) => parent.child_ns += duration,
                None => log.top_level_ns += duration,
            }
            closed.push((layer, key));
        });
        for (layer, key) in closed {
            self.end_flight(layer, key);
        }
    }

    /// Merges every thread's log. Call once the traced work has finished.
    pub fn summary(&self) -> TraceSummary {
        let mut summary = TraceSummary::default();
        let threads = self
            .threads
            .lock()
            .expect("tracer registry is never held across a panic");
        for log in threads.iter() {
            let log = log
                .lock()
                .expect("a thread log is only locked by its own thread and the final merge");
            for (total, tally) in summary.layers.iter_mut().zip(&log.layers) {
                total.add(tally);
            }
            // Misses still open when the phase ends were never stored.
            for open in &log.stack {
                summary.layers[open.layer].unpaired += 1;
            }
            summary.top_level_ns += log.top_level_ns;
        }
        summary.export_ns = self.export_ns.load(Ordering::Relaxed);
        summary.encode_ns = self.encode_ns.load(Ordering::Relaxed);
        summary.decode_ns = self.decode_ns.load(Ordering::Relaxed);
        summary.absorb_ns = self.absorb_ns.load(Ordering::Relaxed);
        summary.snapshot_bytes = self.snapshot_bytes.load(Ordering::Relaxed);
        summary
    }
}

fn key_hash(key: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`CacheBackend`] that times every layer of the backend it wraps.
#[derive(Debug)]
pub struct TimingBackend {
    inner: Arc<dyn CacheBackend>,
    tracer: Arc<Tracer>,
}

impl TimingBackend {
    pub fn new(inner: Arc<dyn CacheBackend>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

macro_rules! traced_map {
    ($lookup:ident, $store:ident, $layer:expr, $key:ty, $value:ty) => {
        fn $lookup(&self, key: &$key) -> Option<$value> {
            self.tracer
                .lookup($layer, key_hash(key), || self.inner.$lookup(key))
        }

        fn $store(&self, key: $key, value: $value) {
            let hash = key_hash(&key);
            self.tracer
                .store($layer, hash, || self.inner.$store(key, value));
        }
    };
}

impl CacheBackend for TimingBackend {
    traced_map!(lookup_point, store_point, POINT, PointKey, Arc<DesignPoint>);
    traced_map!(
        lookup_scaled,
        store_scaled,
        VDD_SEARCH,
        ScaledKey,
        Option<Arc<DesignPoint>>
    );
    traced_map!(
        lookup_context,
        store_context,
        CONTEXT,
        ContextKey,
        Arc<DesignContext>
    );
    traced_map!(
        lookup_schedule,
        store_schedule,
        SCHEDULE,
        ScheduleKey,
        Arc<SchedulingResult>
    );
    traced_map!(
        lookup_block,
        store_block,
        BLOCK,
        BlockKey,
        Arc<BlockSchedule>
    );
    traced_map!(lookup_fu, store_fu, FU, FuStatsKey, FuStats);
    traced_map!(lookup_reg, store_reg, REG, RegStatsKey, RegStats);
    traced_map!(lookup_mux, store_mux, MUX, MuxStatsKey, MuxEntry);

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn record_explore(&self, stats: ExploreStats) {
        self.inner.record_explore(stats);
    }

    fn export(&self) -> CacheSnapshot {
        self.inner.export()
    }

    fn absorb(&self, snapshot: CacheSnapshot) -> AbsorbStats {
        self.inner.absorb(snapshot)
    }

    fn save_snapshot(&self) -> Vec<u8> {
        let started = Instant::now();
        let snapshot = self.inner.export();
        let export_ns = elapsed_ns(started);
        let started = Instant::now();
        let bytes = impact_core::encode_snapshot(&snapshot);
        let encode_ns = elapsed_ns(started);
        let tracer = &self.tracer;
        tracer.export_ns.fetch_add(export_ns, Ordering::Relaxed);
        tracer.encode_ns.fetch_add(encode_ns, Ordering::Relaxed);
        tracer
            .snapshot_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        bytes
    }

    fn load_snapshot(
        &self,
        bytes: &[u8],
        scope: SnapshotScope,
    ) -> Result<AbsorbStats, SnapshotRejection> {
        let started = Instant::now();
        let decoded = impact_core::decode_snapshot(bytes, scope)?;
        self.tracer
            .decode_ns
            .fetch_add(elapsed_ns(started), Ordering::Relaxed);
        let started = Instant::now();
        let merged = self.inner.absorb(decoded);
        self.tracer
            .absorb_ns
            .fetch_add(elapsed_ns(started), Ordering::Relaxed);
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_intervals_split_self_time_and_unpaired_misses_stay_transparent() {
        let tracer = Tracer::new();
        // Outer miss, an unpaired probe, a nested miss closed by its store,
        // then the outer store.
        assert!(tracer.lookup::<()>(POINT, 1, || None).is_none());
        assert!(tracer.lookup::<()>(SCHEDULE, 2, || None).is_none());
        assert!(tracer.lookup::<()>(BLOCK, 3, || None).is_none());
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.store(BLOCK, 3, || ());
        tracer.store(POINT, 1, || ());
        let summary = tracer.summary();
        assert_eq!(summary.layers[SCHEDULE].unpaired, 1);
        assert_eq!(summary.unpaired(), 1);
        assert!(summary.layers[BLOCK].self_ns >= 2_000_000);
        // The block interval is nested, so the point's self time excludes it
        // and the one top-level interval covers both.
        assert!(summary.layers[POINT].self_ns < summary.layers[BLOCK].self_ns);
        assert_eq!(
            summary.top_level_ns,
            summary.layers[POINT].self_ns + summary.layers[BLOCK].self_ns
        );
    }

    #[test]
    fn racing_misses_on_one_key_count_a_duplicate_store() {
        let tracer = Tracer::new();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    assert!(tracer.lookup::<()>(FU, 9, || None).is_none());
                    barrier.wait();
                    tracer.store(FU, 9, || ());
                });
            }
        });
        let summary = tracer.summary();
        assert_eq!(summary.layers[FU].lookups, 2);
        assert_eq!(summary.layers[FU].dup_stores, 1);
    }
}
