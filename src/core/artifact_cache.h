// ArtifactCache: cross-query memoization of the expensive, immutable
// artifacts FairHMS solves keep rebuilding — sampled utility nets, the
// NetEvaluator denominator/candidate precomputes, global and per-group
// skylines, fair candidate pools and group tables.
//
// A SolverSession (api/session.h) owns one cache and pins it to a dataset +
// grouping; algorithms reach it through SolveContext::cache (or their
// Options struct) and fall back to building artifacts locally when it is
// null, so the cold path and the cached path run the exact same code and
// produce bit-identical results:
//
//   * nets are keyed by (dim, size, full RNG state) and a cache hit
//     restores the generator to its post-sample state, so the caller's
//     stream continues exactly as if it had sampled;
//   * evaluators are keyed by (net identity, denominator rows, cached
//     candidate rows, thread lanes) and their precomputes are already
//     bit-identical across thread counts (PR 2 contract);
//   * skylines / pools / group tables are pure functions of the pinned
//     dataset and grouping, which the cache identifies by one version key
//     (dataset address, grouping address or null, dataset version,
//     grouping version) — every keyed object must outlive the cache, and a
//     mutation (Dataset::AppendRows/ErasePoints, Grouping::AppendRow/
//     AddGroup) makes the stale entries unreachable. Group tables are
//     *live* views (erased rows excluded).
//
// The five version-keyed lookups share one memo path: count a hit, or
// count a miss, prune the same objects' superseded entries (a churning
// dataset accumulates no dead artifacts), build under the lock and store;
// the Put* hooks run its store half without counting. Every byte change
// settles with the arbiter through one scope object whose destructor runs
// after the lock is released.
//
// Dynamic sessions avoid even the one recompute per version: SkylineIndex
// maintains these artifacts incrementally and publishes them via the Put*
// hooks; nets are version-free (they never read the dataset) and survive
// every mutation, while evaluators are keyed by their exact row sets and
// simply rebuild lazily when the skyline under them changes.
//
// All lookups are mutex-guarded and safe for concurrent queries; Clear()
// and the Put* publish hooks must not race in-flight solves (returned
// references/shared_ptrs stay valid only while their entry lives).

#ifndef FAIRHMS_CORE_ARTIFACT_CACHE_H_
#define FAIRHMS_CORE_ARTIFACT_CACHE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_annotations.h"
#include "core/net_evaluator.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "utility/utility_net.h"

namespace fairhms {

/// Hit/miss/byte accounting per artifact class, reported by
/// SolverSession::cache_stats() and the --queries batch driver.
struct CacheStats {
  struct Counter {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t bytes = 0;  ///< Resident payload bytes of live entries.
  };
  Counter nets;            ///< Sampled utility nets.
  Counter evaluators;      ///< NetEvaluator denominator + candidate caches.
  Counter skylines;        ///< Global skylines (one per projection key).
  Counter group_skylines;  ///< Per-group skylines.
  Counter pools;           ///< Fair candidate pools.
  Counter groups;          ///< Group counts + member tables.
  Counter projections;     ///< Prepared 2D projections (session-owned).

  /// One row per artifact class, in report order. The totals, ToString,
  /// ArtifactCache::Clear and the `stats` op's per-class list iterate it.
  struct Class {
    const char* name;
    Counter CacheStats::*counter;
  };
  static const std::array<Class, 7> kClasses;

  uint64_t TotalHits() const;
  uint64_t TotalMisses() const;
  uint64_t TotalBytes() const;

  /// One entry per artifact class plus a trailing total, e.g.
  /// "nets: 5 hits, 3 misses, 1.2 KiB; ...; total: 8 hits, 4 misses,
  /// 3.4 KiB" — the same byte total a CacheArbiter charges globally, so
  /// per-session and process-wide reports always agree.
  std::string ToString() const;
};

class CacheArbiter;

class ArtifactCache {
 public:
  ArtifactCache() = default;
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// The net `UtilityNet::SampleRandom(d, m, rng)` would produce, memoized
  /// on (d, m, rng->StateKey()). On a hit `*rng` is fast-forwarded to its
  /// post-sample state, so callers that keep drawing see no difference.
  std::shared_ptr<const UtilityNet> Net(int d, size_t m, Rng* rng)
      FAIRHMS_EXCLUDES(mu_);

  /// A NetEvaluator over (data, net, db_rows) with `cache_rows` candidate
  /// happiness rows pre-filled (skipped when empty), memoized on the net's
  /// identity + row sets + thread lanes. `net` must stay alive through the
  /// shared_ptr (pass the pointer returned by Net()).
  std::shared_ptr<const NetEvaluator> Evaluator(
      const Dataset& data, std::shared_ptr<const UtilityNet> net,
      const std::vector<int>& db_rows, const std::vector<int>& cache_rows,
      int threads) FAIRHMS_EXCLUDES(mu_);

  /// Global skyline of `data`'s live rows, memoized per (dataset address,
  /// dataset version).
  const std::vector<int>& Skyline(const Dataset& data) FAIRHMS_EXCLUDES(mu_);

  /// Per-group skylines over live rows, memoized per (dataset, grouping)
  /// address/version quadruple.
  const std::vector<std::vector<int>>& GroupSkylines(const Dataset& data,
                                                     const Grouping& grouping)
      FAIRHMS_EXCLUDES(mu_);

  /// Union of per-group skylines (the fair candidate pool), memoized like
  /// GroupSkylines.
  const std::vector<int>& FairPool(const Dataset& data,
                                   const Grouping& grouping)
      FAIRHMS_EXCLUDES(mu_);

  /// grouping.LiveCounts(data), memoized like GroupSkylines.
  const std::vector<int>& GroupCounts(const Dataset& data,
                                      const Grouping& grouping)
      FAIRHMS_EXCLUDES(mu_);

  /// grouping.MembersLive(data), memoized like GroupSkylines.
  const std::vector<std::vector<int>>& GroupMembers(const Dataset& data,
                                                    const Grouping& grouping)
      FAIRHMS_EXCLUDES(mu_);

  /// Publish hooks for incrementally maintained artifacts (SkylineIndex):
  /// store the value under the object's *current* version so the next
  /// lookup hits instead of recomputing. Counted as neither hit nor miss;
  /// superseded versions are pruned. Must not race in-flight solves.
  void PutSkyline(const Dataset& data, std::vector<int> skyline)
      FAIRHMS_EXCLUDES(mu_);
  void PutGroupArtifacts(const Dataset& data, const Grouping& grouping,
                         std::vector<std::vector<int>> group_skylines,
                         std::vector<int> fair_pool,
                         std::vector<int> live_counts,
                         std::vector<std::vector<int>> live_members)
      FAIRHMS_EXCLUDES(mu_);

  /// Snapshot of the counters (copied under the lock).
  CacheStats stats() const FAIRHMS_EXCLUDES(mu_);

  /// Accounts a session-owned artifact lookup (the prepared 2D projection)
  /// under the cache lock; `bytes` is added on a miss.
  void AccountProjection(bool hit, uint64_t bytes) FAIRHMS_EXCLUDES(mu_);

  /// Drops every entry (stats counters keep their hit/miss history; bytes
  /// reset). Callers must ensure no solve is in flight.
  void Clear() FAIRHMS_EXCLUDES(mu_);

  /// Attaches a process-wide arbiter: from now on every change to the
  /// resident byte total is charged/refunded there (after this cache's
  /// lock is released, so the arbiter can lock its own state freely).
  /// Call while no solve is in flight; CacheArbiter::Register does this.
  void SetArbiter(CacheArbiter* arbiter) FAIRHMS_EXCLUDES(mu_);

 private:
  struct NetKey {
    int d;
    uint64_t m;
    std::array<uint64_t, 6> rng_state;
    bool operator<(const NetKey& o) const;
  };
  struct NetEntry {
    std::shared_ptr<const UtilityNet> net;
    Rng post_state;  ///< Generator state right after sampling.
  };
  struct EvalKey {
    const void* data;
    const UtilityNet* net;
    std::vector<int> db_rows;
    std::vector<int> cache_rows;
    int threads;
    bool operator<(const EvalKey& o) const;
  };
  struct EvalEntry {
    /// Also owns the net, which keeps the raw key pointer live.
    std::shared_ptr<const NetEvaluator> evaluator;
    uint64_t bytes = 0;  ///< Accounted size, refunded on eviction.
    /// Dataset version this entry was last built or hit under. An entry
    /// whose row sets survive a mutation keeps hitting (coordinates are
    /// immutable) and refreshes the stamp; entries left behind by older
    /// versions are superseded and evicted on the next miss.
    uint64_t data_version = 0;
  };
  /// The one key of every version-keyed class: (dataset, grouping or null
  /// for the global skyline, dataset version, grouping version). A mutation
  /// makes the old entry unreachable and the next store for the same
  /// objects prunes it.
  struct VersionKey {
    VersionKey(const Dataset& d, const Grouping* g)
        : data(&d),
          grouping(g),
          data_version(d.version()),
          grouping_version(g != nullptr ? g->version : 0) {}

    const void* data;
    const void* grouping;
    uint64_t data_version;
    uint64_t grouping_version;
    bool operator<(const VersionKey& o) const;
  };
  template <class V>
  using VersionMap = std::map<VersionKey, V>;
  /// Every memo table; Clear resets them together.
  struct Tables {
    std::map<NetKey, NetEntry> nets;
    std::map<EvalKey, EvalEntry> evaluators;
    VersionMap<std::vector<int>> skylines;
    VersionMap<std::vector<std::vector<int>>> group_skylines;
    VersionMap<std::vector<int>> pools;
    VersionMap<std::vector<int>> group_counts;
    VersionMap<std::vector<std::vector<int>>> group_members;
  };

  /// A resident-byte change to settle with the arbiter. Declare it before
  /// the MutexLock: locals are destroyed in reverse order, so the
  /// destructor's arbiter call always runs after mu_ is released and the
  /// lock order cache -> arbiter holds by construction.
  struct Settle {
    explicit Settle(ArtifactCache* c) : cache(c) {}
    Settle(const Settle&) = delete;
    Settle& operator=(const Settle&) = delete;
    ~Settle() { cache->SettleUnlocked(arbiter, delta); }

    ArtifactCache* cache;
    CacheArbiter* arbiter = nullptr;  ///< Copied from arbiter_ under mu_.
    int64_t delta = 0;
  };

  /// The memo path of the version-keyed classes: counts a hit and returns
  /// the entry, or counts a miss and runs Store.
  template <class V, class Build>
  const V& Lookup(VersionMap<V> Tables::*table,
                  CacheStats::Counter CacheStats::*cls, const VersionKey& key,
                  const Build& build) FAIRHMS_EXCLUDES(mu_);

  /// The store half: prunes every entry of key's objects (superseded
  /// versions, or the entry a publish replaces), stores build() and
  /// accounts the bytes. Counts neither a hit nor a miss.
  template <class V, class Build>
  V& Store(VersionMap<V> Tables::*table, CacheStats::Counter CacheStats::*cls,
           const VersionKey& key, const Build& build, Settle* settle)
      FAIRHMS_REQUIRES(mu_);

  /// Adds `delta` resident bytes (negative = refund) to class `cls` and to
  /// the pending settlement.
  void Account(Settle* settle, CacheStats::Counter CacheStats::*cls,
               int64_t delta) FAIRHMS_REQUIRES(mu_);

  void SettleUnlocked(CacheArbiter* arbiter, int64_t delta)
      FAIRHMS_EXCLUDES(mu_);

  // Never held while calling into the arbiter (see Settle; lock order
  // cache -> arbiter, docs/concurrency.md).
  mutable Mutex mu_;
  CacheStats stats_ FAIRHMS_GUARDED_BY(mu_);
  /// The pointer is guarded; the arbiter itself is called outside mu_.
  CacheArbiter* arbiter_ FAIRHMS_GUARDED_BY(mu_) = nullptr;
  Tables tables_ FAIRHMS_GUARDED_BY(mu_);
};

/// Process-wide cache budget arbitration across many ArtifactCaches (one
/// per catalog session). Each cache charges/refunds its resident-byte
/// changes here; when the global total exceeds the budget, Rebalance
/// evicts whole cold caches — least-recently-Touched first — through the
/// eviction callback they registered with (typically
/// SolverSession::ClearCache, so the session's publish sentinels reset
/// together with the drop).
///
/// Concurrency contract: OnBytesChanged is pure accounting and safe from
/// any thread (caches call it after releasing their own lock, so the lock
/// order is always cache -> arbiter, never the reverse). Rebalance invokes
/// eviction callbacks *outside* the arbiter lock — callbacks re-enter via
/// OnBytesChanged when the cleared cache refunds its bytes — and must only
/// run between queries: evicting mid-solve would dangle the references the
/// cache handed out. A budget of 0 means unlimited (never evicts).
class CacheArbiter {
 public:
  explicit CacheArbiter(uint64_t budget_bytes) : budget_(budget_bytes) {}
  CacheArbiter(const CacheArbiter&) = delete;
  CacheArbiter& operator=(const CacheArbiter&) = delete;

  /// Starts arbitrating `cache` (attaches this arbiter to it and charges
  /// its current resident bytes). `evict` drops the cache's artifacts when
  /// Rebalance selects it. Re-registering an address replaces its entry.
  void Register(ArtifactCache* cache, std::string name,
                std::function<void()> evict) FAIRHMS_EXCLUDES(mu_);

  /// Stops arbitrating `cache`, refunding whatever it still has charged.
  /// No-op for an unknown address.
  void Unregister(ArtifactCache* cache) FAIRHMS_EXCLUDES(mu_);

  /// Charges (delta > 0) or refunds (delta < 0) bytes for `cache`.
  /// Unknown addresses are ignored (a cache outside catalog control).
  void OnBytesChanged(ArtifactCache* cache, int64_t delta)
      FAIRHMS_EXCLUDES(mu_);

  /// Marks `cache` most-recently-used; Rebalance evicts coldest-first.
  void Touch(ArtifactCache* cache) FAIRHMS_EXCLUDES(mu_);

  /// Evicts cold caches until the charged total fits the budget again.
  /// `prefer_keep` (the cache that just served a query) is only evicted
  /// when it alone still exceeds the budget after everything else is gone.
  /// Call between queries only — never while a solve is in flight.
  void Rebalance(ArtifactCache* prefer_keep = nullptr) FAIRHMS_EXCLUDES(mu_);

  uint64_t budget_bytes() const FAIRHMS_EXCLUDES(mu_);
  /// Bytes currently charged across every registered cache.
  uint64_t total_bytes() const FAIRHMS_EXCLUDES(mu_);
  /// Whole-cache evictions performed by Rebalance (telemetry).
  uint64_t evictions() const FAIRHMS_EXCLUDES(mu_);

  /// Per-session charged bytes plus the global total/budget, one line per
  /// registered cache — the process-wide counterpart of
  /// CacheStats::ToString (the per-session byte figures agree).
  std::string ToString() const FAIRHMS_EXCLUDES(mu_);

  /// Structured form of the ledger for the `stats` op: one entry per
  /// registered cache, sorted by name. `last_touch` is the logical
  /// recency tick Rebalance evicts by (higher = warmer).
  struct LedgerEntry {
    std::string name;
    uint64_t charged_bytes = 0;
    uint64_t last_touch = 0;
  };
  std::vector<LedgerEntry> Ledger() const FAIRHMS_EXCLUDES(mu_);

 private:
  struct Entry {
    std::string name;
    std::function<void()> evict;
    uint64_t charged = 0;
    uint64_t last_touch = 0;
  };

  // Leaf lock: never held while calling into an ArtifactCache (Rebalance
  // copies the evict callback out and runs it unlocked; Register/Unregister
  // talk to the cache outside their locked scopes).
  mutable Mutex mu_;
  uint64_t budget_ FAIRHMS_GUARDED_BY(mu_);
  uint64_t total_ FAIRHMS_GUARDED_BY(mu_) = 0;
  uint64_t touch_seq_ FAIRHMS_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ FAIRHMS_GUARDED_BY(mu_) = 0;
  std::map<ArtifactCache*, Entry> entries_ FAIRHMS_GUARDED_BY(mu_);
};

/// Cache-optional conveniences: with a cache they memoize, without one they
/// build a transient artifact — either way the bits are identical.
std::shared_ptr<const UtilityNet> GetOrSampleNet(ArtifactCache* cache, int d,
                                                 size_t m, Rng* rng);
std::shared_ptr<const NetEvaluator> GetOrBuildEvaluator(
    ArtifactCache* cache, const Dataset& data,
    std::shared_ptr<const UtilityNet> net, const std::vector<int>& db_rows,
    const std::vector<int>& cache_rows, int threads);

}  // namespace fairhms

#endif  // FAIRHMS_CORE_ARTIFACT_CACHE_H_
