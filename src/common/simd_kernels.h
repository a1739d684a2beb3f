// Internal dispatch table for src/common/simd.h — not part of the public
// surface. A KernelTable holds one implementation of every kernel: the
// scalar table (simd.cc) uses the reference bodies below verbatim, and each
// vector table is one instantiation of the width-generic kernels in
// simd_vector.h (W = 2 in simd.cc, W = 4 in simd_avx2.cc). simd.cc picks
// the active table once at startup.
//
// The scalar reference bodies live here as inline functions so the vector
// kernels reuse the exact same code for loop tails — tail bits must match
// the scalar path by construction, not by reimplementation. They have
// internal linkage so the copy compiled into the -mavx2 TU can never be
// the one the linker keeps for the baseline TU.

#ifndef FAIRHMS_COMMON_SIMD_KERNELS_H_
#define FAIRHMS_COMMON_SIMD_KERNELS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/simd.h"

namespace fairhms {
namespace simd {
namespace internal {

struct KernelTable {
  DispatchLevel level;
  void (*net_best)(const double* const* net, size_t j0, size_t j1,
                   const double* pts, size_t nrows, size_t d, double* best);
  void (*happiness_range)(const double* const* net, size_t j0, size_t j1,
                          const double* p, size_t d, const double* best,
                          double eps, double* out);
  double (*mhr_range)(const double* const* net, size_t j0, size_t j1,
                      const double* best, double eps, const double* pts,
                      size_t nrows, size_t d);
  void (*add_happiness_max)(const double* const* net, size_t j0, size_t j1,
                            const double* p, size_t d, const double* best,
                            double eps, double* cur);
  void (*max_accumulate)(const double* src, double* dst, size_t n);
  double (*trunc_gain_cached)(const double* hrow, const double* cur, size_t n,
                              double tau);
  double (*trunc_gain_eval)(const double* const* net, size_t m,
                            const double* p, size_t d, const double* best,
                            double eps, const double* cur, double tau);
  double (*trunc_sum)(const double* cur, size_t n, double tau);
  double (*min_reduce)(const double* x, size_t n);
  void (*row_sums)(const double* const* cols, size_t nrows, size_t d,
                   double* out);
  bool (*any_dominates)(const double* const* cols, size_t nrows, size_t d,
                        const double* p);
  bool (*any_weak_dominates)(const double* const* cols, size_t nrows,
                             size_t d, const double* p);
  void (*col_min_max)(const double* x, size_t n, double* mn, double* mx);
};

/// Always available. Never returns nullptr.
const KernelTable* ScalarKernels();
/// The width-2 table of the baseline TU: sse2 on x86-64, neon on aarch64;
/// nullptr on other targets.
const KernelTable* BaselineKernels();
/// The width-4 table of the -mavx2 TU; nullptr off x86-64. Run it only
/// where the CPU reports avx2.
const KernelTable* Avx2Kernels();

/// Every table the host CPU can execute, scalar first and best last. The
/// dispatcher picks the last; simd_test runs each against the first.
std::vector<const KernelTable*> HostKernelTables();

// ---------------------------------------------------------------------------
// Scalar reference bodies (used verbatim by the vector kernels for tails).

namespace {

/// <u_j, p>: sequential accumulation over dimensions — the canonical
/// per-lane chain (identical to geom/vec.h Dot()).
inline double DotDir(const double* const* net, size_t j, const double* p,
                     size_t d) {
  double s = 0.0;
  for (size_t k = 0; k < d; ++k) s += p[k] * net[k][j];
  return s;
}

inline double HappinessOf(double s, double b, double eps) {
  if (b <= eps) return 1.0;
  return std::min(1.0, s / b);
}

inline void NetBestScalar(const double* const* net, size_t j0, size_t j1,
                          const double* pts, size_t nrows, size_t d,
                          double* best) {
  for (size_t r = 0; r < nrows; ++r) {
    const double* p = pts + r * d;
    for (size_t j = j0; j < j1; ++j) {
      const double s = DotDir(net, j, p, d);
      if (s > best[j]) best[j] = s;
    }
  }
}

inline void HappinessRangeScalar(const double* const* net, size_t j0,
                                 size_t j1, const double* p, size_t d,
                                 const double* best, double eps, double* out) {
  for (size_t j = j0; j < j1; ++j) {
    out[j] = HappinessOf(DotDir(net, j, p, d), best[j], eps);
  }
}

inline double MhrRangeScalar(const double* const* net, size_t j0, size_t j1,
                             const double* best, double eps, const double* pts,
                             size_t nrows, size_t d) {
  double smax[kDirTile];
  const size_t len = j1 - j0;
  for (size_t jj = 0; jj < len; ++jj) smax[jj] = 0.0;
  for (size_t r = 0; r < nrows; ++r) {
    const double* p = pts + r * d;
    for (size_t jj = 0; jj < len; ++jj) {
      const double s = DotDir(net, j0 + jj, p, d);
      if (s > smax[jj]) smax[jj] = s;
    }
  }
  double mn = 1.0;
  for (size_t jj = 0; jj < len; ++jj) {
    mn = std::min(mn, HappinessOf(smax[jj], best[j0 + jj], eps));
  }
  return mn;
}

inline void AddHappinessMaxScalar(const double* const* net, size_t j0,
                                  size_t j1, const double* p, size_t d,
                                  const double* best, double eps,
                                  double* cur) {
  for (size_t j = j0; j < j1; ++j) {
    const double h = HappinessOf(DotDir(net, j, p, d), best[j], eps);
    if (h > cur[j]) cur[j] = h;
  }
}

inline void MaxAccumulateScalar(const double* src, double* dst, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (src[i] > dst[i]) dst[i] = src[i];
  }
}

inline double TruncGainTermCached(const double* hrow, const double* cur,
                                  size_t j, double tau) {
  const double before = std::min(cur[j], tau);
  const double after = std::min(std::max(cur[j], hrow[j]), tau);
  return after - before;
}

/// Canonical 4-virtual-lane sum: lanes stripe j % 4, combine as
/// (p0 + p1) + (p2 + p3), tail added sequentially afterwards. Every
/// dispatch level reproduces exactly this order.
inline double TruncGainCachedScalar(const double* hrow, const double* cur,
                                    size_t n, double tau) {
  double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
  const size_t n4 = n & ~static_cast<size_t>(3);
  for (size_t j = 0; j < n4; j += 4) {
    p0 += TruncGainTermCached(hrow, cur, j, tau);
    p1 += TruncGainTermCached(hrow, cur, j + 1, tau);
    p2 += TruncGainTermCached(hrow, cur, j + 2, tau);
    p3 += TruncGainTermCached(hrow, cur, j + 3, tau);
  }
  double total = (p0 + p1) + (p2 + p3);
  for (size_t j = n4; j < n; ++j) {
    total += TruncGainTermCached(hrow, cur, j, tau);
  }
  return total;
}

inline double TruncGainTermEval(const double* const* net, const double* p,
                                size_t d, const double* best, double eps,
                                const double* cur, size_t j, double tau) {
  const double before = std::min(cur[j], tau);
  const double h = HappinessOf(DotDir(net, j, p, d), best[j], eps);
  const double after = std::min(std::max(cur[j], h), tau);
  return after - before;
}

inline double TruncGainEvalScalar(const double* const* net, size_t m,
                                  const double* p, size_t d,
                                  const double* best, double eps,
                                  const double* cur, double tau) {
  double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
  const size_t m4 = m & ~static_cast<size_t>(3);
  for (size_t j = 0; j < m4; j += 4) {
    p0 += TruncGainTermEval(net, p, d, best, eps, cur, j, tau);
    p1 += TruncGainTermEval(net, p, d, best, eps, cur, j + 1, tau);
    p2 += TruncGainTermEval(net, p, d, best, eps, cur, j + 2, tau);
    p3 += TruncGainTermEval(net, p, d, best, eps, cur, j + 3, tau);
  }
  double total = (p0 + p1) + (p2 + p3);
  for (size_t j = m4; j < m; ++j) {
    total += TruncGainTermEval(net, p, d, best, eps, cur, j, tau);
  }
  return total;
}

inline double TruncSumScalar(const double* cur, size_t n, double tau) {
  double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
  const size_t n4 = n & ~static_cast<size_t>(3);
  for (size_t j = 0; j < n4; j += 4) {
    p0 += std::min(cur[j], tau);
    p1 += std::min(cur[j + 1], tau);
    p2 += std::min(cur[j + 2], tau);
    p3 += std::min(cur[j + 3], tau);
  }
  double total = (p0 + p1) + (p2 + p3);
  for (size_t j = n4; j < n; ++j) total += std::min(cur[j], tau);
  return total;
}

inline double MinReduceScalar(const double* x, size_t n) {
  double mn = 1.0;
  for (size_t i = 0; i < n; ++i) mn = std::min(mn, x[i]);
  return mn;
}

inline void RowSumsScalar(const double* const* cols, size_t nrows, size_t d,
                          double* out) {
  for (size_t i = 0; i < nrows; ++i) {
    double s = 0.0;
    for (size_t k = 0; k < d; ++k) s += cols[k][i];
    out[i] = s;
  }
}

inline bool DominatesRow(const double* const* cols, size_t r, size_t d,
                         const double* p) {
  bool gt = false;
  for (size_t k = 0; k < d; ++k) {
    const double v = cols[k][r];
    if (v < p[k]) return false;
    if (v > p[k]) gt = true;
  }
  return gt;
}

inline bool WeaklyDominatesRow(const double* const* cols, size_t r, size_t d,
                               const double* p) {
  for (size_t k = 0; k < d; ++k) {
    if (cols[k][r] < p[k]) return false;
  }
  return true;
}

inline bool AnyDominatesScalar(const double* const* cols, size_t nrows,
                               size_t d, const double* p) {
  for (size_t r = 0; r < nrows; ++r) {
    if (DominatesRow(cols, r, d, p)) return true;
  }
  return false;
}

inline bool AnyWeakDominatesScalar(const double* const* cols, size_t nrows,
                                   size_t d, const double* p) {
  for (size_t r = 0; r < nrows; ++r) {
    if (WeaklyDominatesRow(cols, r, d, p)) return true;
  }
  return false;
}

inline void ColMinMaxScalar(const double* x, size_t n, double* mn,
                            double* mx) {
  if (n == 0) return;
  double lo = x[0], hi = x[0];
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  *mn = lo;
  *mx = hi;
}

}  // namespace
}  // namespace internal
}  // namespace simd
}  // namespace fairhms

#endif  // FAIRHMS_COMMON_SIMD_KERNELS_H_
