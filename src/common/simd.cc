#include "common/simd.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "common/simd_kernels.h"
#include "common/string_util.h"
#include "common/thread_annotations.h"

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define FAIRHMS_SIMD_HAVE_SSE2 1
#endif

namespace fairhms {
namespace simd {

namespace internal {

// ---------------------------------------------------------------------------
// Scalar table: the reference semantics, verbatim from simd_kernels.h.

const KernelTable* ScalarKernels() {
  static const KernelTable table = {
      DispatchLevel::kScalar, NetBestScalar,        HappinessRangeScalar,
      MhrRangeScalar,         AddHappinessMaxScalar, MaxAccumulateScalar,
      TruncGainCachedScalar,  TruncGainEvalScalar,   TruncSumScalar,
      MinReduceScalar,        RowSumsScalar,         AnyDominatesScalar,
      AnyWeakDominatesScalar, ColMinMaxScalar,
  };
  return &table;
}

// ---------------------------------------------------------------------------
// SSE2 table (x86-64 baseline). Two hardware lanes; the canonical
// four-virtual-lane sums pair two accumulators so the reduction order
// matches the scalar simulation exactly.

#ifdef FAIRHMS_SIMD_HAVE_SSE2
namespace {

inline __m128d DotPair(const double* const* net, size_t j, const double* p,
                       size_t d) {
  __m128d acc = _mm_setzero_pd();
  for (size_t k = 0; k < d; ++k) {
    acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(p[k]),
                                     _mm_loadu_pd(net[k] + j)));
  }
  return acc;
}

/// mask ? a : b, SSE2-style (no blendv).
inline __m128d Select(__m128d mask, __m128d a, __m128d b) {
  return _mm_or_pd(_mm_and_pd(mask, a), _mm_andnot_pd(mask, b));
}

/// Vector HappinessOf: best > eps ? min(1, s / best) : 1. Division happens
/// against a blended-safe denominator so inactive lanes never divide by
/// zero (the quotient is discarded by the final select).
inline __m128d HappinessPair(__m128d s, __m128d b, __m128d epsv,
                             __m128d one) {
  const __m128d active = _mm_cmpgt_pd(b, epsv);
  const __m128d safe = Select(active, b, one);
  const __m128d q = _mm_min_pd(_mm_div_pd(s, safe), one);
  return Select(active, q, one);
}

void NetBestSse2(const double* const* net, size_t j0, size_t j1,
                 const double* pts, size_t nrows, size_t d, double* best) {
  for (size_t r = 0; r < nrows; ++r) {
    const double* p = pts + r * d;
    size_t j = j0;
    for (; j + 2 <= j1; j += 2) {
      const __m128d s = DotPair(net, j, p, d);
      const __m128d b = _mm_loadu_pd(best + j);
      _mm_storeu_pd(best + j, _mm_max_pd(b, s));
    }
    for (; j < j1; ++j) {
      const double s = DotDir(net, j, p, d);
      if (s > best[j]) best[j] = s;
    }
  }
}

void HappinessRangeSse2(const double* const* net, size_t j0, size_t j1,
                        const double* p, size_t d, const double* best,
                        double eps, double* out) {
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d epsv = _mm_set1_pd(eps);
  size_t j = j0;
  for (; j + 2 <= j1; j += 2) {
    const __m128d s = DotPair(net, j, p, d);
    const __m128d b = _mm_loadu_pd(best + j);
    _mm_storeu_pd(out + j, HappinessPair(s, b, epsv, one));
  }
  for (; j < j1; ++j) {
    out[j] = HappinessOf(DotDir(net, j, p, d), best[j], eps);
  }
}

double MhrRangeSse2(const double* const* net, size_t j0, size_t j1,
                    const double* best, double eps, const double* pts,
                    size_t nrows, size_t d) {
  alignas(kAlign) double smax[kDirTile];
  const size_t len = j1 - j0;
  for (size_t jj = 0; jj < len; ++jj) smax[jj] = 0.0;
  for (size_t r = 0; r < nrows; ++r) {
    const double* p = pts + r * d;
    size_t jj = 0;
    for (; jj + 2 <= len; jj += 2) {
      const __m128d s = DotPair(net, j0 + jj, p, d);
      const __m128d m = _mm_load_pd(smax + jj);
      _mm_store_pd(smax + jj, _mm_max_pd(m, s));
    }
    for (; jj < len; ++jj) {
      const double s = DotDir(net, j0 + jj, p, d);
      if (s > smax[jj]) smax[jj] = s;
    }
  }
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d epsv = _mm_set1_pd(eps);
  __m128d mnv = one;
  size_t jj = 0;
  for (; jj + 2 <= len; jj += 2) {
    const __m128d h = HappinessPair(_mm_load_pd(smax + jj),
                                    _mm_loadu_pd(best + j0 + jj), epsv, one);
    mnv = _mm_min_pd(mnv, h);
  }
  alignas(16) double lanes[2];
  _mm_store_pd(lanes, mnv);
  double mn = std::min(lanes[0], lanes[1]);
  for (; jj < len; ++jj) {
    mn = std::min(mn, HappinessOf(smax[jj], best[j0 + jj], eps));
  }
  return mn;
}

void AddHappinessMaxSse2(const double* const* net, size_t j0, size_t j1,
                         const double* p, size_t d, const double* best,
                         double eps, double* cur) {
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d epsv = _mm_set1_pd(eps);
  size_t j = j0;
  for (; j + 2 <= j1; j += 2) {
    const __m128d h = HappinessPair(DotPair(net, j, p, d),
                                    _mm_loadu_pd(best + j), epsv, one);
    const __m128d c = _mm_loadu_pd(cur + j);
    _mm_storeu_pd(cur + j, _mm_max_pd(c, h));
  }
  for (; j < j1; ++j) {
    const double h = HappinessOf(DotDir(net, j, p, d), best[j], eps);
    if (h > cur[j]) cur[j] = h;
  }
}

void MaxAccumulateSse2(const double* src, double* dst, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d s = _mm_loadu_pd(src + i);
    const __m128d t = _mm_loadu_pd(dst + i);
    _mm_storeu_pd(dst + i, _mm_max_pd(t, s));
  }
  for (; i < n; ++i) {
    if (src[i] > dst[i]) dst[i] = src[i];
  }
}

inline __m128d TruncGainPairCached(const double* hrow, const double* cur,
                                   size_t j, __m128d tauv) {
  const __m128d c = _mm_loadu_pd(cur + j);
  const __m128d h = _mm_loadu_pd(hrow + j);
  const __m128d before = _mm_min_pd(c, tauv);
  const __m128d after = _mm_min_pd(_mm_max_pd(c, h), tauv);
  return _mm_sub_pd(after, before);
}

double TruncGainCachedSse2(const double* hrow, const double* cur, size_t n,
                           double tau) {
  const __m128d tauv = _mm_set1_pd(tau);
  __m128d acc01 = _mm_setzero_pd();  // virtual lanes 0,1
  __m128d acc23 = _mm_setzero_pd();  // virtual lanes 2,3
  const size_t n4 = n & ~static_cast<size_t>(3);
  for (size_t j = 0; j < n4; j += 4) {
    acc01 = _mm_add_pd(acc01, TruncGainPairCached(hrow, cur, j, tauv));
    acc23 = _mm_add_pd(acc23, TruncGainPairCached(hrow, cur, j + 2, tauv));
  }
  alignas(16) double a[2], b[2];
  _mm_store_pd(a, acc01);
  _mm_store_pd(b, acc23);
  double total = (a[0] + a[1]) + (b[0] + b[1]);
  for (size_t j = n4; j < n; ++j) {
    total += TruncGainTermCached(hrow, cur, j, tau);
  }
  return total;
}

inline __m128d TruncGainPairEval(const double* const* net, const double* p,
                                 size_t d, const double* best, __m128d epsv,
                                 __m128d one, const double* cur, size_t j,
                                 __m128d tauv) {
  const __m128d c = _mm_loadu_pd(cur + j);
  const __m128d h =
      HappinessPair(DotPair(net, j, p, d), _mm_loadu_pd(best + j), epsv, one);
  const __m128d before = _mm_min_pd(c, tauv);
  const __m128d after = _mm_min_pd(_mm_max_pd(c, h), tauv);
  return _mm_sub_pd(after, before);
}

double TruncGainEvalSse2(const double* const* net, size_t m, const double* p,
                         size_t d, const double* best, double eps,
                         const double* cur, double tau) {
  const __m128d tauv = _mm_set1_pd(tau);
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d epsv = _mm_set1_pd(eps);
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  const size_t m4 = m & ~static_cast<size_t>(3);
  for (size_t j = 0; j < m4; j += 4) {
    acc01 = _mm_add_pd(acc01, TruncGainPairEval(net, p, d, best, epsv, one,
                                                cur, j, tauv));
    acc23 = _mm_add_pd(acc23, TruncGainPairEval(net, p, d, best, epsv, one,
                                                cur, j + 2, tauv));
  }
  alignas(16) double a[2], b[2];
  _mm_store_pd(a, acc01);
  _mm_store_pd(b, acc23);
  double total = (a[0] + a[1]) + (b[0] + b[1]);
  for (size_t j = m4; j < m; ++j) {
    total += TruncGainTermEval(net, p, d, best, eps, cur, j, tau);
  }
  return total;
}

double TruncSumSse2(const double* cur, size_t n, double tau) {
  const __m128d tauv = _mm_set1_pd(tau);
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  const size_t n4 = n & ~static_cast<size_t>(3);
  for (size_t j = 0; j < n4; j += 4) {
    acc01 = _mm_add_pd(acc01, _mm_min_pd(_mm_loadu_pd(cur + j), tauv));
    acc23 = _mm_add_pd(acc23, _mm_min_pd(_mm_loadu_pd(cur + j + 2), tauv));
  }
  alignas(16) double a[2], b[2];
  _mm_store_pd(a, acc01);
  _mm_store_pd(b, acc23);
  double total = (a[0] + a[1]) + (b[0] + b[1]);
  for (size_t j = n4; j < n; ++j) total += std::min(cur[j], tau);
  return total;
}

double MinReduceSse2(const double* x, size_t n) {
  __m128d mnv = _mm_set1_pd(1.0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) mnv = _mm_min_pd(mnv, _mm_loadu_pd(x + i));
  alignas(16) double lanes[2];
  _mm_store_pd(lanes, mnv);
  double mn = std::min(lanes[0], lanes[1]);
  for (; i < n; ++i) mn = std::min(mn, x[i]);
  return mn;
}

void RowSumsSse2(const double* const* cols, size_t nrows, size_t d,
                 double* out) {
  size_t i = 0;
  for (; i + 2 <= nrows; i += 2) {
    __m128d acc = _mm_setzero_pd();
    for (size_t k = 0; k < d; ++k) {
      acc = _mm_add_pd(acc, _mm_loadu_pd(cols[k] + i));
    }
    _mm_storeu_pd(out + i, acc);
  }
  for (; i < nrows; ++i) {
    double s = 0.0;
    for (size_t k = 0; k < d; ++k) s += cols[k][i];
    out[i] = s;
  }
}

bool AnyDominatesSse2(const double* const* cols, size_t nrows, size_t d,
                      const double* p) {
  const __m128d ones = _mm_castsi128_pd(_mm_set1_epi32(-1));
  size_t r = 0;
  for (; r + 2 <= nrows; r += 2) {
    __m128d ge = ones;
    __m128d gt = _mm_setzero_pd();
    for (size_t k = 0; k < d; ++k) {
      const __m128d v = _mm_loadu_pd(cols[k] + r);
      const __m128d pk = _mm_set1_pd(p[k]);
      ge = _mm_and_pd(ge, _mm_cmpge_pd(v, pk));
      gt = _mm_or_pd(gt, _mm_cmpgt_pd(v, pk));
      if (_mm_movemask_pd(ge) == 0) break;
    }
    if (_mm_movemask_pd(_mm_and_pd(ge, gt)) != 0) return true;
  }
  for (; r < nrows; ++r) {
    if (DominatesRow(cols, r, d, p)) return true;
  }
  return false;
}

bool AnyWeakDominatesSse2(const double* const* cols, size_t nrows, size_t d,
                          const double* p) {
  const __m128d ones = _mm_castsi128_pd(_mm_set1_epi32(-1));
  size_t r = 0;
  for (; r + 2 <= nrows; r += 2) {
    __m128d ge = ones;
    for (size_t k = 0; k < d; ++k) {
      const __m128d v = _mm_loadu_pd(cols[k] + r);
      ge = _mm_and_pd(ge, _mm_cmpge_pd(v, _mm_set1_pd(p[k])));
      if (_mm_movemask_pd(ge) == 0) break;
    }
    if (_mm_movemask_pd(ge) != 0) return true;
  }
  for (; r < nrows; ++r) {
    if (WeaklyDominatesRow(cols, r, d, p)) return true;
  }
  return false;
}

}  // namespace

const KernelTable* Sse2Kernels() {
  static const KernelTable table = {
      DispatchLevel::kSse2, NetBestSse2,        HappinessRangeSse2,
      MhrRangeSse2,         AddHappinessMaxSse2, MaxAccumulateSse2,
      TruncGainCachedSse2,  TruncGainEvalSse2,   TruncSumSse2,
      MinReduceSse2,        RowSumsSse2,         AnyDominatesSse2,
      AnyWeakDominatesSse2,
      // Min/max over raw coordinates is the one reduction whose result can
      // depend on visit order (±0.0 ties select an operand); it stays on
      // the scalar body at every dispatch level.
      ColMinMaxScalar,
  };
  return &table;
}
#else   // !FAIRHMS_SIMD_HAVE_SSE2
const KernelTable* Sse2Kernels() { return nullptr; }
#endif  // FAIRHMS_SIMD_HAVE_SSE2

}  // namespace internal

// ---------------------------------------------------------------------------
// Dispatch state. A single atomic table pointer; SetMode() stores it, every
// kernel wrapper loads it once per call. Lazy first use reads FAIRHMS_SIMD
// exactly once (tools pre-validate with ValidateSimdEnv so users get a
// clean refusal; the lazy path warns and runs in auto mode on bad values).

namespace {

using internal::KernelTable;

std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_mode{static_cast<int>(SimdMode::kAuto)};
std::once_flag g_env_once;

const KernelTable* BestTable() {
  static const KernelTable* const best = [] {
    const KernelTable* t = internal::ScalarKernels();
    if (const KernelTable* s = internal::Sse2Kernels()) t = s;
    if (const KernelTable* n = internal::NeonKernels()) t = n;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    if (__builtin_cpu_supports("avx2")) {
      if (const KernelTable* a = internal::Avx2Kernels()) t = a;
    }
#endif
    return t;
  }();
  return best;
}

void ApplyMode(SimdMode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
  g_table.store(mode == SimdMode::kOff ? internal::ScalarKernels()
                                       : BestTable(),
                std::memory_order_release);
}

/// Consumes the env exactly once. SetMode() runs the no-op branch first so
/// an explicit mode can never be overwritten by a racing lazy init.
void ConsumeEnvOnce(bool from_set_mode) {
  std::call_once(g_env_once, [from_set_mode] {
    if (from_set_mode) return;
    SimdMode mode = SimdMode::kAuto;
    const char* env = std::getenv("FAIRHMS_SIMD");
    if (env != nullptr && *env != '\0') {
      StatusOr<SimdMode> parsed = ParseSimdMode(env);
      if (parsed.ok()) {
        mode = *parsed;
      } else {
        std::fprintf(stderr,
                     "fairhms: ignoring invalid FAIRHMS_SIMD=\"%s\" "
                     "(want \"auto\" or \"off\"); running with auto\n",
                     env);
      }
    }
    ApplyMode(mode);
  });
}

const KernelTable* Active() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t != nullptr) return t;
  ConsumeEnvOnce(/*from_set_mode=*/false);
  return g_table.load(std::memory_order_acquire);
}

}  // namespace

StatusOr<SimdMode> ParseSimdMode(const std::string& text) {
  if (text == "auto") return SimdMode::kAuto;
  if (text == "off") return SimdMode::kOff;
  return Status::InvalidArgument(
      StrFormat("invalid SIMD mode \"%s\": want \"auto\" or \"off\"",
                text.c_str()));
}

Status ValidateSimdEnv() {
  const char* env = std::getenv("FAIRHMS_SIMD");
  if (env == nullptr || *env == '\0') return Status::OK();
  StatusOr<SimdMode> parsed = ParseSimdMode(env);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        StrFormat("FAIRHMS_SIMD must be \"auto\" or \"off\", got \"%s\"",
                  env));
  }
  return Status::OK();
}

void SetMode(SimdMode mode) {
  ConsumeEnvOnce(/*from_set_mode=*/true);
  ApplyMode(mode);
}

SimdMode Mode() {
  Active();  // Ensure env-derived mode is resolved.
  return static_cast<SimdMode>(g_mode.load(std::memory_order_relaxed));
}

DispatchLevel DetectedLevel() { return BestTable()->level; }

DispatchLevel ActiveLevel() { return Active()->level; }

const char* DispatchLevelName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kSse2:
      return "sse2";
    case DispatchLevel::kAvx2:
      return "avx2";
    case DispatchLevel::kNeon:
      return "neon";
  }
  return "scalar";
}

const char* SimdModeName(SimdMode mode) {
  return mode == SimdMode::kOff ? "off" : "auto";
}

uint32_t LayoutKey() {
  return (static_cast<uint32_t>(kLayoutVersion) << 8) |
         static_cast<uint32_t>(ActiveLevel());
}

// ---------------------------------------------------------------------------
// Public kernel wrappers.

void NetBestRange(const double* const* net, size_t j0, size_t j1,
                  const double* pts, size_t nrows, size_t d, double* best) {
  Active()->net_best(net, j0, j1, pts, nrows, d, best);
}

void HappinessRange(const double* const* net, size_t j0, size_t j1,
                    const double* p, size_t d, const double* best, double eps,
                    double* out) {
  Active()->happiness_range(net, j0, j1, p, d, best, eps, out);
}

double MhrRange(const double* const* net, size_t j0, size_t j1,
                const double* best, double eps, const double* pts,
                size_t nrows, size_t d) {
  return Active()->mhr_range(net, j0, j1, best, eps, pts, nrows, d);
}

void AddHappinessMax(const double* const* net, size_t j0, size_t j1,
                     const double* p, size_t d, const double* best, double eps,
                     double* cur) {
  Active()->add_happiness_max(net, j0, j1, p, d, best, eps, cur);
}

void MaxAccumulate(const double* src, double* dst, size_t n) {
  Active()->max_accumulate(src, dst, n);
}

double TruncGainCached(const double* hrow, const double* cur, size_t n,
                       double tau) {
  return Active()->trunc_gain_cached(hrow, cur, n, tau);
}

double TruncGainEval(const double* const* net, size_t m, const double* p,
                     size_t d, const double* best, double eps,
                     const double* cur, double tau) {
  return Active()->trunc_gain_eval(net, m, p, d, best, eps, cur, tau);
}

double TruncSum(const double* cur, size_t n, double tau) {
  return Active()->trunc_sum(cur, n, tau);
}

double RepeatSum(double x, size_t n) {
  // The four canonical lanes hold the same partial sum.
  double lane = 0.0;
  const size_t n4 = n & ~(kSumLanes - 1);
  for (size_t j = 0; j < n4; j += kSumLanes) lane += x;
  double total = (lane + lane) + (lane + lane);
  for (size_t j = n4; j < n; ++j) total += x;
  return total;
}

double MinReduce(const double* x, size_t n) {
  return Active()->min_reduce(x, n);
}

void RowSums(const double* const* cols, size_t nrows, size_t d, double* out) {
  Active()->row_sums(cols, nrows, d, out);
}

bool AnyDominates(const double* const* cols, size_t nrows, size_t d,
                  const double* p) {
  return Active()->any_dominates(cols, nrows, d, p);
}

bool AnyWeaklyDominates(const double* const* cols, size_t nrows, size_t d,
                        const double* p) {
  return Active()->any_weak_dominates(cols, nrows, d, p);
}

void ColMinMax(const double* x, size_t n, double* mn, double* mx) {
  Active()->col_min_max(x, n, mn, mx);
}

// ---------------------------------------------------------------------------
// Scratch-buffer pool.

namespace {

/// Idle-allocation recycler behind ScratchBuffer. Bounded so evicted
/// buffers cannot accumulate invisibly: at most kScratchPoolMaxEntries
/// allocations and kScratchPoolMaxBytes total. The state is heap-allocated
/// once and intentionally leaked so ScratchBuffers with static storage
/// duration can release safely during process teardown.
constexpr size_t kScratchPoolMaxEntries = 4;
constexpr size_t kScratchPoolMaxBytes = 256u << 20;  // 256 MiB.

struct ScratchPool {
  Mutex mu;
  struct Entry {
    double* ptr;
    size_t cap;  // Doubles.
  };
  Entry entries[kScratchPoolMaxEntries] FAIRHMS_GUARDED_BY(mu);
  size_t count FAIRHMS_GUARDED_BY(mu) = 0;
  size_t bytes FAIRHMS_GUARDED_BY(mu) = 0;
};

ScratchPool& Pool() {
  static ScratchPool* pool = new ScratchPool;
  return *pool;
}

double* ScratchAlloc(size_t cap) {
  return static_cast<double*>(
      ::operator new(cap * sizeof(double), std::align_val_t(kAlign)));
}

void ScratchFree(double* ptr) {
  ::operator delete(ptr, std::align_val_t(kAlign));
}

/// Smallest pooled allocation with capacity >= n, or nullptr.
double* PoolAcquire(size_t n, size_t* cap_out) {
  ScratchPool& pool = Pool();
  MutexLock lock(&pool.mu);
  size_t pick = pool.count;
  for (size_t i = 0; i < pool.count; ++i) {
    if (pool.entries[i].cap < n) continue;
    if (pick == pool.count || pool.entries[i].cap < pool.entries[pick].cap) {
      pick = i;
    }
  }
  if (pick == pool.count) return nullptr;
  const ScratchPool::Entry entry = pool.entries[pick];
  pool.entries[pick] = pool.entries[--pool.count];
  pool.bytes -= entry.cap * sizeof(double);
  *cap_out = entry.cap;
  return entry.ptr;
}

/// True if the allocation was pooled; false means the caller must free it.
bool PoolRelease(double* ptr, size_t cap) {
  ScratchPool& pool = Pool();
  MutexLock lock(&pool.mu);
  if (pool.count == kScratchPoolMaxEntries ||
      pool.bytes + cap * sizeof(double) > kScratchPoolMaxBytes) {
    return false;
  }
  pool.entries[pool.count++] = {ptr, cap};
  pool.bytes += cap * sizeof(double);
  return true;
}

}  // namespace

void ScratchBuffer::ResizeUninitialized(size_t n) {
  if (n <= cap_) {
    size_ = n;
    return;
  }
  Release();
  size_t cap = 0;
  double* ptr = PoolAcquire(n, &cap);
  if (ptr == nullptr) {
    cap = n;
    ptr = ScratchAlloc(cap);
  }
  data_ = ptr;
  cap_ = cap;
  size_ = n;
}

void ScratchBuffer::Release() {
  if (data_ != nullptr && !PoolRelease(data_, cap_)) ScratchFree(data_);
  data_ = nullptr;
  size_ = 0;
  cap_ = 0;
}

size_t ScratchPoolIdleBytes() {
  ScratchPool& pool = Pool();
  MutexLock lock(&pool.mu);
  return pool.bytes;
}

void ScratchPoolTrim() {
  ScratchPool& pool = Pool();
  ScratchPool::Entry drained[kScratchPoolMaxEntries];
  size_t drained_count = 0;
  {
    MutexLock lock(&pool.mu);
    drained_count = pool.count;
    for (size_t i = 0; i < pool.count; ++i) drained[i] = pool.entries[i];
    pool.count = 0;
    pool.bytes = 0;
  }
  for (size_t i = 0; i < drained_count; ++i) ScratchFree(drained[i].ptr);
}

}  // namespace simd
}  // namespace fairhms
