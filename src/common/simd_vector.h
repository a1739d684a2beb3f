// Width-generic vector kernels for src/common/simd.h — internal, like
// simd_kernels.h. Every kernel is written once here as a template over W,
// the number of double lanes in one hardware vector, using the GCC/Clang
// vector extensions (`double __attribute__((vector_size(8 * W)))`): the
// compiler maps the arithmetic, comparisons and selects onto whatever
// instruction set the including translation unit targets. A dispatch level
// is one instantiation, VectorKernels<W>(level), in a TU built for its
// target, plus one line in the detection chain in simd.cc:
//
//   W = 2  simd.cc (baseline flags)   reported as sse2 (x86-64) / neon
//   W = 4  simd_avx2.cc (-mavx2)      reported as avx2
//
// The bit-identity rules of simd.h hold for every W by construction:
//  * one output per lane, each lane running the scalar expression chain —
//    dot products add their d products in dimension order, from +0.0;
//  * sums use the canonical kSumLanes virtual lanes, as kSumLanes / W
//    vector accumulators combined (p0 + p1) + (p2 + p3);
//  * min, max and the happiness guard are lane selects with the tie
//    semantics of std::min / std::max / the scalar `if` (TruncGainTerm
//    swaps operands only where the value domain makes ties bit-equal);
//  * loop tails run the scalar reference bodies of simd_kernels.h;
//  * no FMA — the TUs are compiled with -ffp-contract=off;
//  * ColMinMax stays scalar (±0.0 ties select an operand by visit order).
//
// Select is the vector conditional `mask ? a : b`, which GCC and Clang
// both accept for these types in C++. It is not spelled as bitwise and/or
// on the comparison masks: GCC does not see through the integer casts that
// spelling needs, so Min/Max became a compare plus an integer blend
// instead of one minpd/maxpd (GCC 12, AVX2: the truncated-gain loop ran
// 1.8x slower). "Any lane set" is a lane loop rather than a movemask
// intrinsic, so no kernel names an instruction set.
//
// Everything here has internal linkage: the AVX2 TU's copies must never
// stand in for the baseline TU's at link time.

#ifndef FAIRHMS_COMMON_SIMD_VECTOR_H_
#define FAIRHMS_COMMON_SIMD_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "common/simd_kernels.h"

namespace fairhms {
namespace simd {
namespace internal {
namespace {

/// W doubles in one vector. The attribute sits on a typedef because GCC
/// drops a dependent vector_size written on an alias-declaration.
template <int W>
struct VecOf {
  typedef double type  // NOLINT(modernize-use-using): see above.
      __attribute__((vector_size(8 * W)));
};
template <int W>
using Vec = typename VecOf<W>::type;

/// The comparison result type: per lane all ones (true) or all zeros.
template <int W>
using Mask = decltype(Vec<W>{} < Vec<W>{});

template <int W>
inline Vec<W> Splat(double x) {
  Vec<W> v{};
  for (int i = 0; i < W; ++i) v[i] = x;
  return v;
}

template <int W>
inline Vec<W> Load(const double* p) {
  Vec<W> v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <int W>
inline void Store(double* p, Vec<W> v) {
  std::memcpy(p, &v, sizeof(v));
}

/// mask ? a : b per lane — the one lane select every kernel goes through.
template <int W>
inline Vec<W> Select(Mask<W> mask, Vec<W> a, Vec<W> b) {
  return mask ? a : b;
}

template <int W>
inline bool AnyLane(Mask<W> mask) {
  for (int i = 0; i < W; ++i) {
    if (mask[i] != 0) return true;
  }
  return false;
}

/// std::min(a, b) per lane: b only when b < a.
template <int W>
inline Vec<W> Min(Vec<W> a, Vec<W> b) {
  return Select<W>(b < a, b, a);
}

/// std::max(a, b) per lane: b only when a < b.
template <int W>
inline Vec<W> Max(Vec<W> a, Vec<W> b) {
  return Select<W>(a < b, b, a);
}

/// HappinessOf per lane. The division runs against a selected-safe
/// denominator so inactive lanes never divide by zero; their quotient is
/// discarded by the final select.
template <int W>
inline Vec<W> Happiness(Vec<W> s, Vec<W> b, Vec<W> epsv) {
  const Vec<W> one = Splat<W>(1.0);
  const Mask<W> active = b > epsv;
  const Vec<W> q = Min<W>(one, s / Select<W>(active, b, one));
  return Select<W>(active, q, one);
}

/// min(max(c, h), tau) - min(c, tau) per lane: the truncated-gain term.
/// The max and min take their operands in the opposite order from the
/// scalar TruncGainTerm* bodies so c stays in one register (GCC otherwise
/// reloads it for each use). Swapped operands pick a different one of two
/// equal values, which is the same bits here: happiness values and tau are
/// never -0.0 (see simd.h).
template <int W>
inline Vec<W> TruncGainTerm(Vec<W> c, Vec<W> h, Vec<W> tauv) {
  return Min<W>(Max<W>(h, c), tauv) - Min<W>(tauv, c);
}

/// Row-coordinate hoisting bound. Re-broadcasting p[k] for every direction
/// vector costs more load-port uops than the column loads themselves, so a
/// row's coordinates are broadcast once into a register array. Dimensions
/// past this bound (no shipped dataset comes close) broadcast in the loop.
constexpr size_t kHoistDims = 16;

/// One row p, broadcast for dot products against net directions.
template <int W>
struct Row {
  Row(const double* p_in, size_t d_in)
      : p(p_in), d(d_in), hoisted(std::min(d_in, kHoistDims)) {
    for (size_t k = 0; k < hoisted; ++k) pk[k] = Splat<W>(p[k]);
  }

  /// s[u] = the W dots <u_j', p> for j' in [j + u*W, j + (u+1)*W): U
  /// independent accumulator chains, each adding in dimension order.
  template <int U>
  void Dots(const double* const* net, size_t j, Vec<W> (&s)[U]) const {
    for (int u = 0; u < U; ++u) s[u] = Vec<W>{};
    for (size_t k = 0; k < hoisted; ++k) {
      for (int u = 0; u < U; ++u) {
        s[u] += pk[k] * Load<W>(net[k] + j + u * W);
      }
    }
    for (size_t k = hoisted; k < d; ++k) {
      for (int u = 0; u < U; ++u) {
        s[u] += Splat<W>(p[k]) * Load<W>(net[k] + j + u * W);
      }
    }
  }

  /// Calls emit(j, dots) for every full vector of directions in [j0, j1),
  /// two at a time while they last; returns where the scalar tail starts.
  template <typename Emit>
  size_t Sweep(const double* const* net, size_t j0, size_t j1,
               Emit emit) const {
    size_t j = j0;
    for (; j + 2 * W <= j1; j += 2 * W) {
      Vec<W> s[2];
      Dots(net, j, s);
      emit(j, s[0]);
      emit(j + W, s[1]);
    }
    for (; j + W <= j1; j += W) {
      Vec<W> s[1];
      Dots(net, j, s);
      emit(j, s[0]);
    }
    return j;
  }

  const double* p;
  size_t d;
  size_t hoisted;
  Vec<W> pk[kHoistDims];
};

/// The canonical kSumLanes-lane sum of term(j) over j in [0, n): term(j)
/// returns the W terms j..j+W-1 as one vector, tail(j) one scalar term of
/// the n % kSumLanes tail.
template <int W, typename Term, typename Tail>
inline double CanonicalSum(size_t n, Term term, Tail tail) {
  static_assert(kSumLanes == 4 && kSumLanes % W == 0,
                "W must divide the four canonical lanes");
  constexpr int kAcc = static_cast<int>(kSumLanes) / W;
  Vec<W> acc[kAcc] = {};
  const size_t n4 = n - n % kSumLanes;
  for (size_t j = 0; j < n4; j += kSumLanes) {
    for (int a = 0; a < kAcc; ++a) acc[a] += term(j + a * W);
  }
  double p[kSumLanes];
  for (int i = 0; i < static_cast<int>(kSumLanes); ++i) {
    p[i] = acc[i / W][i % W];
  }
  double total = (p[0] + p[1]) + (p[2] + p[3]);
  for (size_t j = n4; j < n; ++j) total += tail(j);
  return total;
}

/// Minimum of the lanes. The order cannot matter for happiness values,
/// which are never -0.0 (see simd.h).
template <int W>
inline double LaneMin(Vec<W> v) {
  double mn = v[0];
  for (int i = 1; i < W; ++i) mn = std::min(mn, v[i]);
  return mn;
}

// ---------------------------------------------------------------------------
// Kernels, in KernelTable order.

template <int W>
void NetBest(const double* const* net, size_t j0, size_t j1,
             const double* pts, size_t nrows, size_t d, double* best) {
  for (size_t r = 0; r < nrows; ++r) {
    const Row<W> row(pts + r * d, d);
    const size_t tail = row.Sweep(net, j0, j1, [best](size_t j, Vec<W> s) {
      Store<W>(best + j, Max<W>(Load<W>(best + j), s));
    });
    NetBestScalar(net, tail, j1, row.p, 1, d, best);
  }
}

template <int W>
void HappinessRange(const double* const* net, size_t j0, size_t j1,
                    const double* p, size_t d, const double* best,
                    double eps, double* out) {
  const Vec<W> epsv = Splat<W>(eps);
  const size_t tail =
      Row<W>(p, d).Sweep(net, j0, j1, [&](size_t j, Vec<W> s) {
        Store<W>(out + j, Happiness<W>(s, Load<W>(best + j), epsv));
      });
  HappinessRangeScalar(net, tail, j1, p, d, best, eps, out);
}

template <int W>
double MhrRange(const double* const* net, size_t j0, size_t j1,
                const double* best, double eps, const double* pts,
                size_t nrows, size_t d) {
  alignas(kAlign) double smax[kDirTile];
  const size_t len = j1 - j0;
  for (size_t jj = 0; jj < len; ++jj) smax[jj] = 0.0;
  for (size_t r = 0; r < nrows; ++r) {
    const Row<W> row(pts + r * d, d);
    const size_t tail = row.Sweep(net, j0, j1, [&](size_t j, Vec<W> s) {
      double* m = smax + (j - j0);
      Store<W>(m, Max<W>(Load<W>(m), s));
    });
    for (size_t j = tail; j < j1; ++j) {
      const double s = DotDir(net, j, row.p, d);
      if (s > smax[j - j0]) smax[j - j0] = s;
    }
  }
  const Vec<W> epsv = Splat<W>(eps);
  Vec<W> mnv = Splat<W>(1.0);
  size_t jj = 0;
  for (; jj + W <= len; jj += W) {
    mnv = Min<W>(mnv, Happiness<W>(Load<W>(smax + jj),
                                   Load<W>(best + j0 + jj), epsv));
  }
  double mn = LaneMin<W>(mnv);
  for (; jj < len; ++jj) {
    mn = std::min(mn, HappinessOf(smax[jj], best[j0 + jj], eps));
  }
  return mn;
}

template <int W>
void AddHappinessMax(const double* const* net, size_t j0, size_t j1,
                     const double* p, size_t d, const double* best,
                     double eps, double* cur) {
  const Vec<W> epsv = Splat<W>(eps);
  const size_t tail =
      Row<W>(p, d).Sweep(net, j0, j1, [&](size_t j, Vec<W> s) {
        const Vec<W> h = Happiness<W>(s, Load<W>(best + j), epsv);
        Store<W>(cur + j, Max<W>(Load<W>(cur + j), h));
      });
  AddHappinessMaxScalar(net, tail, j1, p, d, best, eps, cur);
}

template <int W>
void MaxAccumulate(const double* src, double* dst, size_t n) {
  size_t i = 0;
  for (; i + W <= n; i += W) {
    Store<W>(dst + i, Max<W>(Load<W>(dst + i), Load<W>(src + i)));
  }
  MaxAccumulateScalar(src + i, dst + i, n - i);
}

template <int W>
double TruncGainCached(const double* hrow, const double* cur, size_t n,
                       double tau) {
  const Vec<W> tauv = Splat<W>(tau);
  return CanonicalSum<W>(
      n,
      [&](size_t j) {
        return TruncGainTerm<W>(Load<W>(cur + j), Load<W>(hrow + j), tauv);
      },
      [&](size_t j) { return TruncGainTermCached(hrow, cur, j, tau); });
}

template <int W>
double TruncGainEval(const double* const* net, size_t m, const double* p,
                     size_t d, const double* best, double eps,
                     const double* cur, double tau) {
  const Vec<W> tauv = Splat<W>(tau);
  const Vec<W> epsv = Splat<W>(eps);
  const Row<W> row(p, d);
  return CanonicalSum<W>(
      m,
      [&](size_t j) {
        Vec<W> s[1];
        row.Dots(net, j, s);
        const Vec<W> h = Happiness<W>(s[0], Load<W>(best + j), epsv);
        return TruncGainTerm<W>(Load<W>(cur + j), h, tauv);
      },
      [&](size_t j) {
        return TruncGainTermEval(net, p, d, best, eps, cur, j, tau);
      });
}

template <int W>
double TruncSum(const double* cur, size_t n, double tau) {
  const Vec<W> tauv = Splat<W>(tau);
  return CanonicalSum<W>(
      n, [&](size_t j) { return Min<W>(Load<W>(cur + j), tauv); },
      [&](size_t j) { return std::min(cur[j], tau); });
}

template <int W>
double MinReduce(const double* x, size_t n) {
  Vec<W> mnv = Splat<W>(1.0);
  size_t i = 0;
  for (; i + W <= n; i += W) mnv = Min<W>(mnv, Load<W>(x + i));
  return std::min(LaneMin<W>(mnv), MinReduceScalar(x + i, n - i));
}

template <int W>
void RowSums(const double* const* cols, size_t nrows, size_t d,
             double* out) {
  size_t i = 0;
  for (; i + W <= nrows; i += W) {
    Vec<W> acc{};
    for (size_t k = 0; k < d; ++k) acc += Load<W>(cols[k] + i);
    Store<W>(out + i, acc);
  }
  for (; i < nrows; ++i) {
    double s = 0.0;
    for (size_t k = 0; k < d; ++k) s += cols[k][i];
    out[i] = s;
  }
}

// The dominance kernels test the lanes once per row group, not after every
// dimension: without a movemask the lane test costs more than the compares
// it would skip, and the early-exit branch mispredicts (the skyline sweep
// ran about 1.5x faster this way).

template <int W>
bool AnyDominates(const double* const* cols, size_t nrows, size_t d,
                  const double* p) {
  size_t r = 0;
  for (; r + W <= nrows; r += W) {
    Mask<W> ge = ~Mask<W>{};
    Mask<W> gt{};
    for (size_t k = 0; k < d; ++k) {
      const Vec<W> v = Load<W>(cols[k] + r);
      const Vec<W> pk = Splat<W>(p[k]);
      ge &= v >= pk;
      gt |= v > pk;
    }
    if (AnyLane<W>(ge & gt)) return true;
  }
  for (; r < nrows; ++r) {
    if (DominatesRow(cols, r, d, p)) return true;
  }
  return false;
}

template <int W>
bool AnyWeakDominates(const double* const* cols, size_t nrows, size_t d,
                      const double* p) {
  size_t r = 0;
  for (; r + W <= nrows; r += W) {
    Mask<W> ge = ~Mask<W>{};
    for (size_t k = 0; k < d; ++k) {
      ge &= Load<W>(cols[k] + r) >= Splat<W>(p[k]);
    }
    if (AnyLane<W>(ge)) return true;
  }
  for (; r < nrows; ++r) {
    if (WeaklyDominatesRow(cols, r, d, p)) return true;
  }
  return false;
}

/// The kernel table of width W, reported as `level`.
template <int W>
const KernelTable* VectorKernels(DispatchLevel level) {
  static const KernelTable table = {
      level,
      NetBest<W>,       HappinessRange<W>,  MhrRange<W>,
      AddHappinessMax<W>, MaxAccumulate<W>, TruncGainCached<W>,
      TruncGainEval<W>, TruncSum<W>,        MinReduce<W>,
      RowSums<W>,       AnyDominates<W>,    AnyWeakDominates<W>,
      ColMinMaxScalar,  // ±0.0 ties: scalar at every level.
  };
  return &table;
}

}  // namespace
}  // namespace internal
}  // namespace simd
}  // namespace fairhms

#endif  // FAIRHMS_COMMON_SIMD_VECTOR_H_
