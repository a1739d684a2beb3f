#include "core/artifact_cache.h"

#include <algorithm>
#include <array>
#include <set>
#include <tuple>
#include <utility>

#include "common/string_util.h"
#include "skyline/skyline.h"

namespace fairhms {

namespace {

uint64_t EntryBytes(const std::vector<int>& v) {
  return v.size() * sizeof(int);
}

uint64_t EntryBytes(const std::vector<std::vector<int>>& v) {
  uint64_t bytes = 0;
  for (const auto& inner : v) bytes += EntryBytes(inner);
  return bytes;
}

std::string CounterLine(const char* name, const CacheStats::Counter& c) {
  return StrFormat("%s: %llu hits, %llu misses, %.1f KiB",
                   name, static_cast<unsigned long long>(c.hits),
                   static_cast<unsigned long long>(c.misses),
                   static_cast<double>(c.bytes) / 1024.0);
}

CacheStats::Counter SumOverClasses(const CacheStats& stats) {
  CacheStats::Counter total;
  for (const CacheStats::Class& c : CacheStats::kClasses) {
    total.hits += (stats.*c.counter).hits;
    total.misses += (stats.*c.counter).misses;
    total.bytes += (stats.*c.counter).bytes;
  }
  return total;
}

/// Transient evaluator bundled with the net it points into (NetEvaluator
/// holds a raw net pointer): the one evaluator build of the cached and the
/// cache-less path.
struct EvalWithNet {
  std::shared_ptr<const UtilityNet> net;
  NetEvaluator eval;
  EvalWithNet(std::shared_ptr<const UtilityNet> n, const Dataset& data,
              const std::vector<int>& db_rows, int threads)
      : net(std::move(n)), eval(&data, net.get(), db_rows, threads) {}
};

std::shared_ptr<const NetEvaluator> BuildEvaluator(
    const Dataset& data, std::shared_ptr<const UtilityNet> net,
    const std::vector<int>& db_rows, const std::vector<int>& cache_rows,
    int threads) {
  auto holder =
      std::make_shared<EvalWithNet>(std::move(net), data, db_rows, threads);
  if (!cache_rows.empty()) holder->eval.CacheCandidates(cache_rows);
  return std::shared_ptr<const NetEvaluator>(holder, &holder->eval);
}

}  // namespace

const std::array<CacheStats::Class, 7> CacheStats::kClasses = {{
    {"nets", &CacheStats::nets},
    {"evaluators", &CacheStats::evaluators},
    {"skylines", &CacheStats::skylines},
    {"group_skylines", &CacheStats::group_skylines},
    {"pools", &CacheStats::pools},
    {"groups", &CacheStats::groups},
    {"projections", &CacheStats::projections},
}};

uint64_t CacheStats::TotalHits() const { return SumOverClasses(*this).hits; }

uint64_t CacheStats::TotalMisses() const {
  return SumOverClasses(*this).misses;
}

uint64_t CacheStats::TotalBytes() const {
  return SumOverClasses(*this).bytes;
}

std::string CacheStats::ToString() const {
  std::string out;
  for (const Class& c : kClasses) {
    out += CounterLine(c.name, this->*c.counter) + "; ";
  }
  return out + CounterLine("total", SumOverClasses(*this));
}

bool ArtifactCache::NetKey::operator<(const NetKey& o) const {
  return std::tie(d, m, rng_state) < std::tie(o.d, o.m, o.rng_state);
}

bool ArtifactCache::EvalKey::operator<(const EvalKey& o) const {
  return std::tie(data, net, threads, db_rows, cache_rows) <
         std::tie(o.data, o.net, o.threads, o.db_rows, o.cache_rows);
}

bool ArtifactCache::VersionKey::operator<(const VersionKey& o) const {
  return std::tie(data, grouping, data_version, grouping_version) <
         std::tie(o.data, o.grouping, o.data_version, o.grouping_version);
}

void ArtifactCache::SetArbiter(CacheArbiter* arbiter) {
  MutexLock lock(&mu_);
  arbiter_ = arbiter;
}

void ArtifactCache::Account(Settle* settle,
                            CacheStats::Counter CacheStats::*cls,
                            int64_t delta) {
  (stats_.*cls).bytes += static_cast<uint64_t>(delta);
  settle->delta += delta;
  settle->arbiter = arbiter_;
}

void ArtifactCache::SettleUnlocked(CacheArbiter* arbiter, int64_t delta) {
  if (arbiter != nullptr && delta != 0) arbiter->OnBytesChanged(this, delta);
}

template <class V, class Build>
const V& ArtifactCache::Lookup(VersionMap<V> Tables::*table,
                               CacheStats::Counter CacheStats::*cls,
                               const VersionKey& key, const Build& build) {
  Settle settle(this);
  MutexLock lock(&mu_);
  const auto it = (tables_.*table).find(key);
  if (it != (tables_.*table).end()) {
    ++(stats_.*cls).hits;
    return it->second;
  }
  ++(stats_.*cls).misses;
  return Store(table, cls, key, build, &settle);
}

template <class V, class Build>
V& ArtifactCache::Store(VersionMap<V> Tables::*table,
                        CacheStats::Counter CacheStats::*cls,
                        const VersionKey& key, const Build& build,
                        Settle* settle) {
  VersionMap<V>& map = tables_.*table;
  for (auto it = map.begin(); it != map.end();) {
    if (it->first.data == key.data && it->first.grouping == key.grouping) {
      Account(settle, cls, -static_cast<int64_t>(EntryBytes(it->second)));
      it = map.erase(it);
    } else {
      ++it;
    }
  }
  V& stored = map.emplace(key, build()).first->second;
  Account(settle, cls, static_cast<int64_t>(EntryBytes(stored)));
  return stored;
}

std::shared_ptr<const UtilityNet> ArtifactCache::Net(int d, size_t m,
                                                     Rng* rng) {
  NetKey key{d, static_cast<uint64_t>(m), rng->StateKey()};
  Settle settle(this);
  MutexLock lock(&mu_);
  auto it = tables_.nets.find(key);
  if (it != tables_.nets.end()) {
    ++stats_.nets.hits;
    *rng = it->second.post_state;  // Continue the stream past the sample.
    return it->second.net;
  }
  ++stats_.nets.misses;
  auto net = std::make_shared<const UtilityNet>(
      UtilityNet::SampleRandom(d, m, rng));
  Account(&settle, &CacheStats::nets,
          static_cast<int64_t>(m * static_cast<uint64_t>(d) * sizeof(double)));
  tables_.nets.emplace(std::move(key), NetEntry{net, *rng});
  return net;
}

std::shared_ptr<const NetEvaluator> ArtifactCache::Evaluator(
    const Dataset& data, std::shared_ptr<const UtilityNet> net,
    const std::vector<int>& db_rows, const std::vector<int>& cache_rows,
    int threads) {
  EvalKey key{&data, net.get(), db_rows, cache_rows, threads};
  Settle settle(this);
  MutexLock lock(&mu_);
  auto it = tables_.evaluators.find(key);
  if (it != tables_.evaluators.end()) {
    ++stats_.evaluators.hits;
    // Still valid at this version (coordinates are immutable, so a key
    // match means identical precomputes): refresh the stamp so the entry
    // survives the superseded-version sweep below.
    it->second.data_version = data.version();
    return it->second.evaluator;
  }
  ++stats_.evaluators.misses;
  // Evict this dataset's entries stranded at older versions: their row
  // sets never recur once the table mutated, so under churn they would
  // pile up one working set per version. Never-mutated datasets never
  // evict — a static sweep keeps its full evaluator cache (in-flight
  // solves must not race mutations, per the class contract, so nothing
  // holds an evicted reference).
  for (auto sweep = tables_.evaluators.begin();
       sweep != tables_.evaluators.end();) {
    if (sweep->first.data == &data &&
        sweep->second.data_version < data.version()) {
      Account(&settle, &CacheStats::evaluators,
              -static_cast<int64_t>(sweep->second.bytes));
      sweep = tables_.evaluators.erase(sweep);
    } else {
      ++sweep;
    }
  }
  std::shared_ptr<const NetEvaluator> eval =
      BuildEvaluator(data, std::move(net), db_rows, cache_rows, threads);
  // ResidentBytes covers the denominators, the dimension-major net block,
  // the packed db rows, and whatever CacheCandidates actually allocated
  // (it declines oversized pools), so the stats never overstate memory.
  const uint64_t entry_bytes = eval->ResidentBytes();
  Account(&settle, &CacheStats::evaluators, static_cast<int64_t>(entry_bytes));
  tables_.evaluators.emplace(std::move(key),
                             EvalEntry{eval, entry_bytes, data.version()});
  return eval;
}

const std::vector<int>& ArtifactCache::Skyline(const Dataset& data) {
  return Lookup(&Tables::skylines, &CacheStats::skylines, {data, nullptr},
                [&] { return ComputeSkyline(data); });
}

const std::vector<std::vector<int>>& ArtifactCache::GroupSkylines(
    const Dataset& data, const Grouping& grouping) {
  return Lookup(&Tables::group_skylines, &CacheStats::group_skylines,
                {data, &grouping},
                [&] { return ComputeGroupSkylines(data, grouping); });
}

const std::vector<int>& ArtifactCache::FairPool(const Dataset& data,
                                                const Grouping& grouping) {
  return Lookup(&Tables::pools, &CacheStats::pools, {data, &grouping},
                [&] { return ComputeFairCandidatePool(data, grouping); });
}

const std::vector<int>& ArtifactCache::GroupCounts(const Dataset& data,
                                                   const Grouping& grouping) {
  return Lookup(&Tables::group_counts, &CacheStats::groups, {data, &grouping},
                [&] { return grouping.LiveCounts(data); });
}

const std::vector<std::vector<int>>& ArtifactCache::GroupMembers(
    const Dataset& data, const Grouping& grouping) {
  return Lookup(&Tables::group_members, &CacheStats::groups, {data, &grouping},
                [&] { return grouping.MembersLive(data); });
}

void ArtifactCache::PutSkyline(const Dataset& data, std::vector<int> skyline) {
  Settle settle(this);
  MutexLock lock(&mu_);
  Store(&Tables::skylines, &CacheStats::skylines, {data, nullptr},
        [&] { return std::move(skyline); }, &settle);
}

void ArtifactCache::PutGroupArtifacts(
    const Dataset& data, const Grouping& grouping,
    std::vector<std::vector<int>> group_skylines, std::vector<int> fair_pool,
    std::vector<int> live_counts,
    std::vector<std::vector<int>> live_members) {
  const VersionKey key = {data, &grouping};
  Settle settle(this);
  MutexLock lock(&mu_);
  Store(&Tables::group_skylines, &CacheStats::group_skylines, key,
        [&] { return std::move(group_skylines); }, &settle);
  Store(&Tables::pools, &CacheStats::pools, key,
        [&] { return std::move(fair_pool); }, &settle);
  Store(&Tables::group_counts, &CacheStats::groups, key,
        [&] { return std::move(live_counts); }, &settle);
  Store(&Tables::group_members, &CacheStats::groups, key,
        [&] { return std::move(live_members); }, &settle);
}

CacheStats ArtifactCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void ArtifactCache::AccountProjection(bool hit, uint64_t bytes) {
  Settle settle(this);
  MutexLock lock(&mu_);
  if (hit) {
    ++stats_.projections.hits;
  } else {
    ++stats_.projections.misses;
    Account(&settle, &CacheStats::projections, static_cast<int64_t>(bytes));
  }
}

void ArtifactCache::Clear() {
  Settle settle(this);
  MutexLock lock(&mu_);
  tables_ = Tables();
  for (const CacheStats::Class& c : CacheStats::kClasses) {
    Account(&settle, c.counter,
            -static_cast<int64_t>((stats_.*c.counter).bytes));
  }
}

void CacheArbiter::Register(ArtifactCache* cache, std::string name,
                            std::function<void()> evict) {
  const uint64_t resident = cache->stats().TotalBytes();
  {
    MutexLock lock(&mu_);
    Entry& entry = entries_[cache];
    total_ -= entry.charged;  // Zero for a fresh registration.
    entry.name = std::move(name);
    entry.evict = std::move(evict);
    entry.charged = resident;
    entry.last_touch = ++touch_seq_;
    total_ += resident;
  }
  cache->SetArbiter(this);
}

void CacheArbiter::Unregister(ArtifactCache* cache) {
  cache->SetArbiter(nullptr);
  MutexLock lock(&mu_);
  auto it = entries_.find(cache);
  if (it == entries_.end()) return;
  total_ -= it->second.charged;
  entries_.erase(it);
}

void CacheArbiter::OnBytesChanged(ArtifactCache* cache, int64_t delta) {
  MutexLock lock(&mu_);
  auto it = entries_.find(cache);
  if (it == entries_.end()) return;
  // Clamp refunds at zero: the charged figure must never wrap, even if a
  // cache was registered mid-life with bytes it later refunds twice.
  const uint64_t refund =
      delta < 0 ? std::min(static_cast<uint64_t>(-delta), it->second.charged)
                : 0;
  if (delta < 0) {
    it->second.charged -= refund;
    total_ -= refund;
  } else {
    it->second.charged += static_cast<uint64_t>(delta);
    total_ += static_cast<uint64_t>(delta);
  }
}

void CacheArbiter::Touch(ArtifactCache* cache) {
  MutexLock lock(&mu_);
  auto it = entries_.find(cache);
  if (it != entries_.end()) it->second.last_touch = ++touch_seq_;
}

void CacheArbiter::Rebalance(ArtifactCache* prefer_keep) {
  // Evict one victim per pass, callbacks outside the lock (they re-enter
  // OnBytesChanged to refund). A victim that somehow refunds nothing is
  // remembered so the loop always terminates.
  std::set<ArtifactCache*> already;
  for (;;) {
    std::function<void()> evict;
    {
      MutexLock lock(&mu_);
      if (budget_ == 0 || total_ <= budget_) return;
      ArtifactCache* victim = nullptr;
      uint64_t coldest = 0;
      for (auto& [addr, entry] : entries_) {
        if (addr == prefer_keep || entry.charged == 0 ||
            already.count(addr) != 0) {
          continue;
        }
        if (victim == nullptr || entry.last_touch < coldest) {
          victim = addr;
          coldest = entry.last_touch;
        }
      }
      if (victim == nullptr) {
        // Everything cold is gone; the preferred cache only goes when it
        // alone still exceeds the budget.
        auto it = prefer_keep != nullptr ? entries_.find(prefer_keep)
                                         : entries_.end();
        if (it == entries_.end() || it->second.charged == 0 ||
            already.count(prefer_keep) != 0) {
          return;
        }
        victim = prefer_keep;
      }
      evict = entries_[victim].evict;
      already.insert(victim);
      ++evictions_;
    }
    if (evict) evict();
  }
}

uint64_t CacheArbiter::budget_bytes() const {
  MutexLock lock(&mu_);
  return budget_;
}

uint64_t CacheArbiter::total_bytes() const {
  MutexLock lock(&mu_);
  return total_;
}

uint64_t CacheArbiter::evictions() const {
  MutexLock lock(&mu_);
  return evictions_;
}

std::string CacheArbiter::ToString() const {
  MutexLock lock(&mu_);
  std::string out = StrFormat(
      "global cache: %.1f KiB charged across %zu sessions, budget %s, "
      "%llu evictions",
      static_cast<double>(total_) / 1024.0, entries_.size(),
      budget_ == 0
          ? std::string("unlimited").c_str()
          : StrFormat("%.1f KiB", static_cast<double>(budget_) / 1024.0)
                .c_str(),
      static_cast<unsigned long long>(evictions_));
  for (const auto& [addr, entry] : entries_) {
    (void)addr;
    out += StrFormat("\n  %s: %.1f KiB charged", entry.name.c_str(),
                     static_cast<double>(entry.charged) / 1024.0);
  }
  return out;
}

std::vector<CacheArbiter::LedgerEntry> CacheArbiter::Ledger() const {
  MutexLock lock(&mu_);
  std::vector<LedgerEntry> ledger;
  ledger.reserve(entries_.size());
  for (const auto& [addr, entry] : entries_) {
    (void)addr;
    ledger.push_back({entry.name, entry.charged, entry.last_touch});
  }
  std::sort(ledger.begin(), ledger.end(),
            [](const LedgerEntry& a, const LedgerEntry& b) {
              return a.name < b.name;
            });
  return ledger;
}

std::shared_ptr<const UtilityNet> GetOrSampleNet(ArtifactCache* cache, int d,
                                                 size_t m, Rng* rng) {
  if (cache != nullptr) return cache->Net(d, m, rng);
  return std::make_shared<const UtilityNet>(
      UtilityNet::SampleRandom(d, m, rng));
}

std::shared_ptr<const NetEvaluator> GetOrBuildEvaluator(
    ArtifactCache* cache, const Dataset& data,
    std::shared_ptr<const UtilityNet> net, const std::vector<int>& db_rows,
    const std::vector<int>& cache_rows, int threads) {
  if (cache != nullptr) {
    return cache->Evaluator(data, std::move(net), db_rows, cache_rows,
                            threads);
  }
  return BuildEvaluator(data, std::move(net), db_rows, cache_rows, threads);
}

}  // namespace fairhms
