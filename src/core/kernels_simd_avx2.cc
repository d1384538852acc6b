/// AVX2 specializations of the chain kernels. This TU is compiled with
/// -mavx2 on x86 (CMake per-file flag) and must be the only place AVX2
/// instructions appear — callers reach it through the dispatch table, so
/// a non-AVX2 machine never executes this code. One 256-bit register is
/// exactly the four canonical lanes; see kernels_simd_inl.h for why the
/// results are bitwise identical to the scalar reference. No FMA: the
/// scalar chains round the multiply and the add separately.

#include "core/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "core/kernels_simd_inl.h"

namespace affinity::core::kernels {
namespace {

struct Avx2Traits {
  using Acc = __m256d;
  static Acc Zero() { return _mm256_setzero_pd(); }
  static void Store(double* lanes, Acc a) { _mm256_storeu_pd(lanes, a); }
};

template <int kChains, class VecStep, class Term>
inline void Run(std::size_t m, std::size_t anchor, double* out, const VecStep& vstep,
                const Term& term) {
  simd::AccumulateVec<kChains, Avx2Traits>(m, anchor, out, vstep, term);
}

double Avx2BlockedSum(const double* x, std::size_t m, std::size_t anchor) {
  const std::size_t dist = PrefetchDistance();
  double out;
  Run<1>(
      m, anchor, &out,
      [x, dist](std::size_t i, __m256d acc[1]) {
        if (dist != 0) __builtin_prefetch(x + i + dist);
        acc[0] = _mm256_add_pd(acc[0], _mm256_loadu_pd(x + i));
      },
      [x](std::size_t i, double* v) { v[0] = x[i]; });
  return out;
}

double Avx2BlockedDot(const double* x, const double* y, std::size_t m, std::size_t anchor) {
  const std::size_t dist = PrefetchDistance();
  double out;
  Run<1>(
      m, anchor, &out,
      [x, y, dist](std::size_t i, __m256d acc[1]) {
        if (dist != 0) {
          __builtin_prefetch(x + i + dist);
          __builtin_prefetch(y + i + dist);
        }
        acc[0] = _mm256_add_pd(acc[0],
                               _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
      },
      [x, y](std::size_t i, double* v) { v[0] = x[i] * y[i]; });
  return out;
}

Marginals Avx2ColumnMarginals(const double* x, std::size_t m, std::size_t anchor) {
  Marginals out;
  if (m == 0) return out;
  const std::size_t dist = PrefetchDistance();
  // min/max are order-independent, so they may ride the vector pass in
  // packed form; ±0.0 ties can resolve to the other sign bit than the
  // scalar compare chain picks — value-equal, documented in kernels.h.
  double lo = x[0], hi = x[0];
  __m256d vlo = _mm256_set1_pd(x[0]);
  __m256d vhi = vlo;
  double sums[2];
  Run<2>(
      m, anchor, sums,
      [x, dist, &vlo, &vhi](std::size_t i, __m256d acc[2]) {
        if (dist != 0) __builtin_prefetch(x + i + dist);
        const __m256d vx = _mm256_loadu_pd(x + i);
        acc[0] = _mm256_add_pd(acc[0], vx);
        acc[1] = _mm256_add_pd(acc[1], _mm256_mul_pd(vx, vx));
        vlo = _mm256_min_pd(vlo, vx);
        vhi = _mm256_max_pd(vhi, vx);
      },
      [x, &lo, &hi](std::size_t i, double* v) {
        const double xi = x[i];
        v[0] = xi;
        v[1] = xi * xi;
        lo = xi < lo ? xi : lo;
        hi = xi > hi ? xi : hi;
      });
  double fold[kLanes];
  _mm256_storeu_pd(fold, vlo);
  for (double f : fold) lo = f < lo ? f : lo;
  _mm256_storeu_pd(fold, vhi);
  for (double f : fold) hi = f > hi ? f : hi;
  out.sum = sums[0];
  out.sumsq = sums[1];
  out.min = lo;
  out.max = hi;
  return out;
}

void Avx2FusedDot3(const double* x, const double* y, std::size_t m, double* dot_xy,
                   double* dot_xx, double* dot_yy, std::size_t anchor) {
  const std::size_t dist = PrefetchDistance();
  double out[3];
  Run<3>(
      m, anchor, out,
      [x, y, dist](std::size_t i, __m256d acc[3]) {
        if (dist != 0) {
          __builtin_prefetch(x + i + dist);
          __builtin_prefetch(y + i + dist);
        }
        const __m256d vx = _mm256_loadu_pd(x + i);
        const __m256d vy = _mm256_loadu_pd(y + i);
        acc[0] = _mm256_add_pd(acc[0], _mm256_mul_pd(vx, vy));
        acc[1] = _mm256_add_pd(acc[1], _mm256_mul_pd(vx, vx));
        acc[2] = _mm256_add_pd(acc[2], _mm256_mul_pd(vy, vy));
      },
      [x, y](std::size_t i, double* v) {
        v[0] = x[i] * y[i];
        v[1] = x[i] * x[i];
        v[2] = y[i] * y[i];
      });
  *dot_xy = out[0];
  *dot_xx = out[1];
  *dot_yy = out[2];
}

void Avx2FusedCross3(const double* c1, const double* c2, const double* t, std::size_t m,
                     double* out, std::size_t anchor) {
  const std::size_t dist = PrefetchDistance();
  Run<3>(
      m, anchor, out,
      [c1, c2, t, dist](std::size_t i, __m256d acc[3]) {
        if (dist != 0) {
          __builtin_prefetch(c1 + i + dist);
          __builtin_prefetch(c2 + i + dist);
          __builtin_prefetch(t + i + dist);
        }
        const __m256d vt = _mm256_loadu_pd(t + i);
        acc[0] = _mm256_add_pd(acc[0], _mm256_mul_pd(_mm256_loadu_pd(c1 + i), vt));
        acc[1] = _mm256_add_pd(acc[1], _mm256_mul_pd(_mm256_loadu_pd(c2 + i), vt));
        acc[2] = _mm256_add_pd(acc[2], vt);
      },
      [c1, c2, t](std::size_t i, double* v) {
        v[0] = c1[i] * t[i];
        v[1] = c2[i] * t[i];
        v[2] = t[i];
      });
}

void Avx2FusedGram5(const double* c1, const double* c2, std::size_t m, double* out,
                    std::size_t anchor) {
  const std::size_t dist = PrefetchDistance();
  Run<5>(
      m, anchor, out,
      [c1, c2, dist](std::size_t i, __m256d acc[5]) {
        if (dist != 0) {
          __builtin_prefetch(c1 + i + dist);
          __builtin_prefetch(c2 + i + dist);
        }
        const __m256d v1 = _mm256_loadu_pd(c1 + i);
        const __m256d v2 = _mm256_loadu_pd(c2 + i);
        acc[0] = _mm256_add_pd(acc[0], _mm256_mul_pd(v1, v1));
        acc[1] = _mm256_add_pd(acc[1], _mm256_mul_pd(v1, v2));
        acc[2] = _mm256_add_pd(acc[2], _mm256_mul_pd(v2, v2));
        acc[3] = _mm256_add_pd(acc[3], v1);
        acc[4] = _mm256_add_pd(acc[4], v2);
      },
      [c1, c2](std::size_t i, double* v) {
        v[0] = c1[i] * c1[i];
        v[1] = c1[i] * c2[i];
        v[2] = c2[i] * c2[i];
        v[3] = c1[i];
        v[4] = c2[i];
      });
}

void Avx2FusedPairMoments(const double* x, const double* y, std::size_t m, double* out,
                          std::size_t anchor) {
  const std::size_t dist = PrefetchDistance();
  Run<5>(
      m, anchor, out,
      [x, y, dist](std::size_t i, __m256d acc[5]) {
        if (dist != 0) {
          __builtin_prefetch(x + i + dist);
          __builtin_prefetch(y + i + dist);
        }
        const __m256d vx = _mm256_loadu_pd(x + i);
        const __m256d vy = _mm256_loadu_pd(y + i);
        acc[0] = _mm256_add_pd(acc[0], vx);
        acc[1] = _mm256_add_pd(acc[1], _mm256_mul_pd(vx, vx));
        acc[2] = _mm256_add_pd(acc[2], vy);
        acc[3] = _mm256_add_pd(acc[3], _mm256_mul_pd(vy, vy));
        acc[4] = _mm256_add_pd(acc[4], _mm256_mul_pd(vx, vy));
      },
      [x, y](std::size_t i, double* v) {
        v[0] = x[i];
        v[1] = x[i] * x[i];
        v[2] = y[i];
        v[3] = y[i] * y[i];
        v[4] = x[i] * y[i];
      });
}

/// The kTileRows × kTileCols dots in one pass: each 4-element step loads
/// every column once and feeds kTileRows·kTileCols independent
/// accumulators, so the adds of different cells overlap instead of waiting
/// on one latency-bound chain. No prefetch: a sweep reuses the same
/// columns tile after tile.
void Avx2BlockedDotTile(const double* const* x, const double* const* y, std::size_t m,
                        double* out, std::size_t anchor) {
  constexpr int kRows = kTileRows;
  constexpr int kCols = kTileCols;
  const double* xs[kRows];
  const double* ys[kCols];
  for (int a = 0; a < kRows; ++a) xs[a] = x[a];
  for (int c = 0; c < kCols; ++c) ys[c] = y[c];
  Run<kRows * kCols>(
      m, anchor, out,
      [xs, ys](std::size_t i, __m256d acc[kRows * kCols]) {
        __m256d vy[kCols];
        for (int c = 0; c < kCols; ++c) vy[c] = _mm256_loadu_pd(ys[c] + i);
        for (int a = 0; a < kRows; ++a) {
          const __m256d vx = _mm256_loadu_pd(xs[a] + i);
          for (int c = 0; c < kCols; ++c) {
            acc[a * kCols + c] = _mm256_add_pd(acc[a * kCols + c], _mm256_mul_pd(vx, vy[c]));
          }
        }
      },
      [xs, ys](std::size_t i, double* v) {
        for (int a = 0; a < kRows; ++a) {
          for (int c = 0; c < kCols; ++c) v[a * kCols + c] = xs[a][i] * ys[c][i];
        }
      });
}

constexpr BackendOps kAvx2Ops = {
    Backend::kAvx2,        "avx2",
    &Avx2BlockedSum,       &Avx2BlockedDot,       &Avx2ColumnMarginals,
    &Avx2FusedDot3,        &Avx2FusedCross3,      &Avx2FusedGram5,
    &Avx2FusedPairMoments, &Avx2BlockedDotTile,
};

}  // namespace

const BackendOps* Avx2Ops() { return &kAvx2Ops; }

}  // namespace affinity::core::kernels

#else  // !defined(__AVX2__)

namespace affinity::core::kernels {

const BackendOps* Avx2Ops() { return nullptr; }

}  // namespace affinity::core::kernels

#endif  // defined(__AVX2__)
