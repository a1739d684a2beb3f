#include "core/artifact_cache.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include "common/string_util.h"
#include "skyline/skyline.h"

namespace fairhms {

namespace {

uint64_t VectorBytes(const std::vector<int>& v) {
  return v.size() * sizeof(int);
}

uint64_t NestedVectorBytes(const std::vector<std::vector<int>>& v) {
  uint64_t bytes = 0;
  for (const auto& inner : v) bytes += VectorBytes(inner);
  return bytes;
}

std::string CounterLine(const char* name, const CacheStats::Counter& c) {
  return StrFormat("%s: %llu hits, %llu misses, %.1f KiB",
                   name, static_cast<unsigned long long>(c.hits),
                   static_cast<unsigned long long>(c.misses),
                   static_cast<double>(c.bytes) / 1024.0);
}

}  // namespace

uint64_t CacheStats::TotalHits() const {
  return nets.hits + evaluators.hits + skylines.hits + group_skylines.hits +
         pools.hits + groups.hits + projections.hits;
}

uint64_t CacheStats::TotalMisses() const {
  return nets.misses + evaluators.misses + skylines.misses +
         group_skylines.misses + pools.misses + groups.misses +
         projections.misses;
}

uint64_t CacheStats::TotalBytes() const {
  return nets.bytes + evaluators.bytes + skylines.bytes +
         group_skylines.bytes + pools.bytes + groups.bytes +
         projections.bytes;
}

std::string CacheStats::ToString() const {
  std::string out = CounterLine("nets", nets);
  out += "; " + CounterLine("evaluators", evaluators);
  out += "; " + CounterLine("skylines", skylines);
  out += "; " + CounterLine("group_skylines", group_skylines);
  out += "; " + CounterLine("pools", pools);
  out += "; " + CounterLine("groups", groups);
  out += "; " + CounterLine("projections", projections);
  Counter total;
  total.hits = TotalHits();
  total.misses = TotalMisses();
  total.bytes = TotalBytes();
  out += "; " + CounterLine("total", total);
  return out;
}

bool ArtifactCache::NetKey::operator<(const NetKey& o) const {
  return std::tie(d, m, rng_state) < std::tie(o.d, o.m, o.rng_state);
}

bool ArtifactCache::EvalKey::operator<(const EvalKey& o) const {
  return std::tie(data, net, threads, db_rows, cache_rows) <
         std::tie(o.data, o.net, o.threads, o.db_rows, o.cache_rows);
}

void ArtifactCache::SetArbiter(CacheArbiter* arbiter) {
  MutexLock lock(&mu_);
  arbiter_ = arbiter;
}

std::shared_ptr<const UtilityNet> ArtifactCache::Net(int d, size_t m,
                                                     Rng* rng) {
  NetKey key{d, static_cast<uint64_t>(m), rng->StateKey()};
  std::shared_ptr<const UtilityNet> result;
  CacheArbiter* arbiter = nullptr;
  int64_t delta = 0;
  {
    MutexLock lock(&mu_);
    auto it = nets_.find(key);
    if (it != nets_.end()) {
      ++stats_.nets.hits;
      *rng = it->second.post_state;  // Continue the stream past the sample.
      return it->second.net;
    }
    ++stats_.nets.misses;
    auto net = std::make_shared<const UtilityNet>(
        UtilityNet::SampleRandom(d, m, rng));
    delta = static_cast<int64_t>(m * static_cast<uint64_t>(d) *
                                 sizeof(double));
    stats_.nets.bytes += static_cast<uint64_t>(delta);
    nets_.emplace(std::move(key), NetEntry{net, *rng});
    result = std::move(net);
    arbiter = arbiter_;
  }
  if (arbiter != nullptr && delta != 0) arbiter->OnBytesChanged(this, delta);
  return result;
}

std::shared_ptr<const NetEvaluator> ArtifactCache::Evaluator(
    const Dataset& data, std::shared_ptr<const UtilityNet> net,
    const std::vector<int>& db_rows, const std::vector<int>& cache_rows,
    int threads) {
  EvalKey key{&data, net.get(), db_rows, cache_rows, threads};
  std::shared_ptr<const NetEvaluator> result;
  CacheArbiter* arbiter = nullptr;
  int64_t delta = 0;
  {
    MutexLock lock(&mu_);
    auto it = evaluators_.find(key);
    if (it != evaluators_.end()) {
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
    for (auto sweep = evaluators_.begin(); sweep != evaluators_.end();) {
      if (sweep->first.data == &data &&
          sweep->second.data_version < data.version()) {
        stats_.evaluators.bytes -= sweep->second.bytes;
        delta -= static_cast<int64_t>(sweep->second.bytes);
        sweep = evaluators_.erase(sweep);
      } else {
        ++sweep;
      }
    }
    auto eval = std::make_shared<NetEvaluator>(&data, net.get(), db_rows,
                                               threads);
    if (!cache_rows.empty()) eval->CacheCandidates(cache_rows);
    // ResidentBytes covers the denominators, the dimension-major net block,
    // the packed db rows, and whatever CacheCandidates actually allocated
    // (it declines oversized pools), so the stats never overstate memory.
    const uint64_t entry_bytes = eval->ResidentBytes();
    stats_.evaluators.bytes += entry_bytes;
    delta += static_cast<int64_t>(entry_bytes);
    std::shared_ptr<const NetEvaluator> stored = std::move(eval);
    evaluators_.emplace(std::move(key),
                        EvalEntry{stored, std::move(net), entry_bytes,
                                  data.version()});
    result = std::move(stored);
    arbiter = arbiter_;
  }
  if (arbiter != nullptr && delta != 0) arbiter->OnBytesChanged(this, delta);
  return result;
}

namespace {

/// Byte size of a map value, for the pruning helper below.
uint64_t EntryBytes(const std::vector<int>& v) { return VectorBytes(v); }
uint64_t EntryBytes(const std::vector<std::vector<int>>& v) {
  return NestedVectorBytes(v);
}

}  // namespace

// Erases every entry of `map` whose key matches `same_object` — the
// superseded versions of a mutated dataset/grouping, plus any entry the
// caller is about to overwrite — refunding their bytes. Called under the
// cache lock right before the store; the refunded bytes accumulate into
// `*delta` so the caller can settle with the arbiter after unlocking.
template <class Map, class SameObject>
static void PruneSuperseded(Map* map, const SameObject& same_object,
                            uint64_t* bytes, int64_t* delta) {
  for (auto it = map->begin(); it != map->end();) {
    if (same_object(it->first)) {
      *bytes -= EntryBytes(it->second);
      *delta -= static_cast<int64_t>(EntryBytes(it->second));
      it = map->erase(it);
    } else {
      ++it;
    }
  }
}

const std::vector<int>& ArtifactCache::Skyline(const Dataset& data) {
  const DataKey key{&data, data.version()};
  const std::vector<int>* result = nullptr;
  CacheArbiter* arbiter = nullptr;
  int64_t delta = 0;
  {
    MutexLock lock(&mu_);
    auto it = skylines_.find(key);
    if (it != skylines_.end()) {
      ++stats_.skylines.hits;
      return it->second;
    }
    ++stats_.skylines.misses;
    PruneSuperseded(
        &skylines_, [&](const DataKey& k) { return k.first == &data; },
        &stats_.skylines.bytes, &delta);
    auto [pos, inserted] = skylines_.emplace(key, ComputeSkyline(data));
    (void)inserted;
    stats_.skylines.bytes += VectorBytes(pos->second);
    delta += static_cast<int64_t>(VectorBytes(pos->second));
    result = &pos->second;
    arbiter = arbiter_;
  }
  if (arbiter != nullptr && delta != 0) arbiter->OnBytesChanged(this, delta);
  return *result;
}

void ArtifactCache::PutSkyline(const Dataset& data, std::vector<int> skyline) {
  const DataKey key{&data, data.version()};
  CacheArbiter* arbiter = nullptr;
  int64_t delta = 0;
  {
    MutexLock lock(&mu_);
    PruneSuperseded(
        &skylines_, [&](const DataKey& k) { return k.first == &data; },
        &stats_.skylines.bytes, &delta);
    auto [pos, inserted] = skylines_.insert_or_assign(key, std::move(skyline));
    (void)inserted;
    stats_.skylines.bytes += VectorBytes(pos->second);
    delta += static_cast<int64_t>(VectorBytes(pos->second));
    arbiter = arbiter_;
  }
  if (arbiter != nullptr && delta != 0) arbiter->OnBytesChanged(this, delta);
}

namespace {

/// True when a quad key references the same (dataset, grouping) objects.
struct SamePair {
  const void* data;
  const void* grouping;
  bool operator()(const std::tuple<const void*, const void*, uint64_t,
                                   uint64_t>& k) const {
    return std::get<0>(k) == data && std::get<1>(k) == grouping;
  }
};

}  // namespace

const std::vector<std::vector<int>>& ArtifactCache::GroupSkylines(
    const Dataset& data, const Grouping& grouping) {
  const DataGroupKey key{&data, &grouping, data.version(), grouping.version};
  const std::vector<std::vector<int>>* result = nullptr;
  CacheArbiter* arbiter = nullptr;
  int64_t delta = 0;
  {
    MutexLock lock(&mu_);
    auto it = group_skylines_.find(key);
    if (it != group_skylines_.end()) {
      ++stats_.group_skylines.hits;
      return it->second;
    }
    ++stats_.group_skylines.misses;
    PruneSuperseded(&group_skylines_, SamePair{&data, &grouping},
                    &stats_.group_skylines.bytes, &delta);
    auto [pos, inserted] =
        group_skylines_.emplace(key, ComputeGroupSkylines(data, grouping));
    (void)inserted;
    stats_.group_skylines.bytes += NestedVectorBytes(pos->second);
    delta += static_cast<int64_t>(NestedVectorBytes(pos->second));
    result = &pos->second;
    arbiter = arbiter_;
  }
  if (arbiter != nullptr && delta != 0) arbiter->OnBytesChanged(this, delta);
  return *result;
}

const std::vector<int>& ArtifactCache::FairPool(const Dataset& data,
                                                const Grouping& grouping) {
  const DataGroupKey key{&data, &grouping, data.version(), grouping.version};
  const std::vector<int>* result = nullptr;
  CacheArbiter* arbiter = nullptr;
  int64_t delta = 0;
  {
    MutexLock lock(&mu_);
    auto it = pools_.find(key);
    if (it != pools_.end()) {
      ++stats_.pools.hits;
      return it->second;
    }
    ++stats_.pools.misses;
    PruneSuperseded(&pools_, SamePair{&data, &grouping}, &stats_.pools.bytes,
                    &delta);
    auto [pos, inserted] =
        pools_.emplace(key, ComputeFairCandidatePool(data, grouping));
    (void)inserted;
    stats_.pools.bytes += VectorBytes(pos->second);
    delta += static_cast<int64_t>(VectorBytes(pos->second));
    result = &pos->second;
    arbiter = arbiter_;
  }
  if (arbiter != nullptr && delta != 0) arbiter->OnBytesChanged(this, delta);
  return *result;
}

const std::vector<int>& ArtifactCache::GroupCounts(const Dataset& data,
                                                   const Grouping& grouping) {
  const DataGroupKey key{&data, &grouping, data.version(), grouping.version};
  const std::vector<int>* result = nullptr;
  CacheArbiter* arbiter = nullptr;
  int64_t delta = 0;
  {
    MutexLock lock(&mu_);
    auto it = group_counts_.find(key);
    if (it != group_counts_.end()) {
      ++stats_.groups.hits;
      return it->second;
    }
    ++stats_.groups.misses;
    PruneSuperseded(&group_counts_, SamePair{&data, &grouping},
                    &stats_.groups.bytes, &delta);
    auto [pos, inserted] =
        group_counts_.emplace(key, grouping.LiveCounts(data));
    (void)inserted;
    stats_.groups.bytes += VectorBytes(pos->second);
    delta += static_cast<int64_t>(VectorBytes(pos->second));
    result = &pos->second;
    arbiter = arbiter_;
  }
  if (arbiter != nullptr && delta != 0) arbiter->OnBytesChanged(this, delta);
  return *result;
}

const std::vector<std::vector<int>>& ArtifactCache::GroupMembers(
    const Dataset& data, const Grouping& grouping) {
  const DataGroupKey key{&data, &grouping, data.version(), grouping.version};
  const std::vector<std::vector<int>>* result = nullptr;
  CacheArbiter* arbiter = nullptr;
  int64_t delta = 0;
  {
    MutexLock lock(&mu_);
    auto it = group_members_.find(key);
    if (it != group_members_.end()) {
      ++stats_.groups.hits;
      return it->second;
    }
    ++stats_.groups.misses;
    PruneSuperseded(&group_members_, SamePair{&data, &grouping},
                    &stats_.groups.bytes, &delta);
    auto [pos, inserted] =
        group_members_.emplace(key, grouping.MembersLive(data));
    (void)inserted;
    stats_.groups.bytes += NestedVectorBytes(pos->second);
    delta += static_cast<int64_t>(NestedVectorBytes(pos->second));
    result = &pos->second;
    arbiter = arbiter_;
  }
  if (arbiter != nullptr && delta != 0) arbiter->OnBytesChanged(this, delta);
  return *result;
}

void ArtifactCache::PutGroupArtifacts(
    const Dataset& data, const Grouping& grouping,
    std::vector<std::vector<int>> group_skylines, std::vector<int> fair_pool,
    std::vector<int> live_counts,
    std::vector<std::vector<int>> live_members) {
  const DataGroupKey key{&data, &grouping, data.version(), grouping.version};
  const SamePair same{&data, &grouping};
  CacheArbiter* arbiter = nullptr;
  int64_t delta = 0;
  {
    MutexLock lock(&mu_);
    PruneSuperseded(&group_skylines_, same, &stats_.group_skylines.bytes,
                    &delta);
    PruneSuperseded(&pools_, same, &stats_.pools.bytes, &delta);
    PruneSuperseded(&group_counts_, same, &stats_.groups.bytes, &delta);
    PruneSuperseded(&group_members_, same, &stats_.groups.bytes, &delta);
    stats_.group_skylines.bytes += NestedVectorBytes(group_skylines);
    delta += static_cast<int64_t>(NestedVectorBytes(group_skylines));
    group_skylines_.insert_or_assign(key, std::move(group_skylines));
    stats_.pools.bytes += VectorBytes(fair_pool);
    delta += static_cast<int64_t>(VectorBytes(fair_pool));
    pools_.insert_or_assign(key, std::move(fair_pool));
    stats_.groups.bytes += VectorBytes(live_counts);
    delta += static_cast<int64_t>(VectorBytes(live_counts));
    group_counts_.insert_or_assign(key, std::move(live_counts));
    stats_.groups.bytes += NestedVectorBytes(live_members);
    delta += static_cast<int64_t>(NestedVectorBytes(live_members));
    group_members_.insert_or_assign(key, std::move(live_members));
    arbiter = arbiter_;
  }
  if (arbiter != nullptr && delta != 0) arbiter->OnBytesChanged(this, delta);
}

CacheStats ArtifactCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void ArtifactCache::AccountProjection(bool hit, uint64_t bytes) {
  CacheArbiter* arbiter = nullptr;
  int64_t delta = 0;
  {
    MutexLock lock(&mu_);
    if (hit) {
      ++stats_.projections.hits;
    } else {
      ++stats_.projections.misses;
      stats_.projections.bytes += bytes;
      delta = static_cast<int64_t>(bytes);
    }
    arbiter = arbiter_;
  }
  if (arbiter != nullptr && delta != 0) arbiter->OnBytesChanged(this, delta);
}

void ArtifactCache::Clear() {
  CacheArbiter* arbiter = nullptr;
  int64_t delta = 0;
  {
    MutexLock lock(&mu_);
    delta = -static_cast<int64_t>(stats_.TotalBytes());
    nets_.clear();
    evaluators_.clear();
    skylines_.clear();
    group_skylines_.clear();
    pools_.clear();
    group_counts_.clear();
    group_members_.clear();
    stats_.nets.bytes = 0;
    stats_.evaluators.bytes = 0;
    stats_.skylines.bytes = 0;
    stats_.group_skylines.bytes = 0;
    stats_.pools.bytes = 0;
    stats_.groups.bytes = 0;
    stats_.projections.bytes = 0;
    arbiter = arbiter_;
  }
  if (arbiter != nullptr && delta != 0) arbiter->OnBytesChanged(this, delta);
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

namespace {

/// Transient evaluator bundled with the net it points into (NetEvaluator
/// holds a raw net pointer).
struct EvalWithNet {
  std::shared_ptr<const UtilityNet> net;
  NetEvaluator eval;
  EvalWithNet(std::shared_ptr<const UtilityNet> n, const Dataset& data,
              const std::vector<int>& db_rows, int threads)
      : net(std::move(n)), eval(&data, net.get(), db_rows, threads) {}
};

}  // namespace

std::shared_ptr<const NetEvaluator> GetOrBuildEvaluator(
    ArtifactCache* cache, const Dataset& data,
    std::shared_ptr<const UtilityNet> net, const std::vector<int>& db_rows,
    const std::vector<int>& cache_rows, int threads) {
  if (cache != nullptr) {
    return cache->Evaluator(data, std::move(net), db_rows, cache_rows,
                            threads);
  }
  auto holder =
      std::make_shared<EvalWithNet>(std::move(net), data, db_rows, threads);
  if (!cache_rows.empty()) holder->eval.CacheCandidates(cache_rows);
  return std::shared_ptr<const NetEvaluator>(holder, &holder->eval);
}

}  // namespace fairhms
