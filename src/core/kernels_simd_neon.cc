/// NEON specializations of the chain kernels for aarch64, where 128-bit
/// vectors are baseline (no extra compile flags). A lane pair rides one
/// 128-bit register, so an accumulator is two registers: slots {0,1} are
/// canonical lanes 0–1, slots {2,3} lanes 2–3 — the same slot-per-lane
/// mapping as the 256-bit AVX2 path, hence the same bitwise-identity
/// argument (kernels_simd_inl.h). vmulq+vaddq only, never vfmaq: the
/// scalar chains round the multiply and the add separately.

#include "core/kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "core/kernels_simd_inl.h"

namespace affinity::core::kernels {
namespace {

struct NeonTraits {
  struct Acc {
    float64x2_t lo;  // canonical lanes 0, 1
    float64x2_t hi;  // canonical lanes 2, 3
  };
  static Acc Zero() { return {vdupq_n_f64(0.0), vdupq_n_f64(0.0)}; }
  static void Store(double* lanes, Acc a) {
    vst1q_f64(lanes, a.lo);
    vst1q_f64(lanes + 2, a.hi);
  }
};

using Acc = NeonTraits::Acc;

inline Acc Load(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }

inline void AddTo(Acc& acc, Acc v) {
  acc.lo = vaddq_f64(acc.lo, v.lo);
  acc.hi = vaddq_f64(acc.hi, v.hi);
}

inline Acc Mul(Acc a, Acc b) {
  return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
}

template <int kChains, class VecStep, class Term>
inline void Run(std::size_t m, std::size_t anchor, double* out, const VecStep& vstep,
                const Term& term) {
  simd::AccumulateVec<kChains, NeonTraits>(m, anchor, out, vstep, term);
}

double NeonBlockedSum(const double* x, std::size_t m, std::size_t anchor) {
  const std::size_t dist = PrefetchDistance();
  double out;
  Run<1>(
      m, anchor, &out,
      [x, dist](std::size_t i, Acc acc[1]) {
        if (dist != 0) __builtin_prefetch(x + i + dist);
        AddTo(acc[0], Load(x + i));
      },
      [x](std::size_t i, double* v) { v[0] = x[i]; });
  return out;
}

double NeonBlockedDot(const double* x, const double* y, std::size_t m, std::size_t anchor) {
  const std::size_t dist = PrefetchDistance();
  double out;
  Run<1>(
      m, anchor, &out,
      [x, y, dist](std::size_t i, Acc acc[1]) {
        if (dist != 0) {
          __builtin_prefetch(x + i + dist);
          __builtin_prefetch(y + i + dist);
        }
        AddTo(acc[0], Mul(Load(x + i), Load(y + i)));
      },
      [x, y](std::size_t i, double* v) { v[0] = x[i] * y[i]; });
  return out;
}

Marginals NeonColumnMarginals(const double* x, std::size_t m, std::size_t anchor) {
  Marginals out;
  if (m == 0) return out;
  const std::size_t dist = PrefetchDistance();
  // min/max are order-independent; packed ties on ±0.0 are value-equal to
  // the scalar compare chain (kernels.h).
  double lo = x[0], hi = x[0];
  float64x2_t vlo = vdupq_n_f64(x[0]);
  float64x2_t vhi = vlo;
  double sums[2];
  Run<2>(
      m, anchor, sums,
      [x, dist, &vlo, &vhi](std::size_t i, Acc acc[2]) {
        if (dist != 0) __builtin_prefetch(x + i + dist);
        const Acc vx = Load(x + i);
        AddTo(acc[0], vx);
        AddTo(acc[1], Mul(vx, vx));
        vlo = vminq_f64(vminq_f64(vlo, vx.lo), vx.hi);
        vhi = vmaxq_f64(vmaxq_f64(vhi, vx.lo), vx.hi);
      },
      [x, &lo, &hi](std::size_t i, double* v) {
        const double xi = x[i];
        v[0] = xi;
        v[1] = xi * xi;
        lo = xi < lo ? xi : lo;
        hi = xi > hi ? xi : hi;
      });
  double fold[2];
  vst1q_f64(fold, vlo);
  for (double f : fold) lo = f < lo ? f : lo;
  vst1q_f64(fold, vhi);
  for (double f : fold) hi = f > hi ? f : hi;
  out.sum = sums[0];
  out.sumsq = sums[1];
  out.min = lo;
  out.max = hi;
  return out;
}

void NeonFusedDot3(const double* x, const double* y, std::size_t m, double* dot_xy,
                   double* dot_xx, double* dot_yy, std::size_t anchor) {
  const std::size_t dist = PrefetchDistance();
  double out[3];
  Run<3>(
      m, anchor, out,
      [x, y, dist](std::size_t i, Acc acc[3]) {
        if (dist != 0) {
          __builtin_prefetch(x + i + dist);
          __builtin_prefetch(y + i + dist);
        }
        const Acc vx = Load(x + i);
        const Acc vy = Load(y + i);
        AddTo(acc[0], Mul(vx, vy));
        AddTo(acc[1], Mul(vx, vx));
        AddTo(acc[2], Mul(vy, vy));
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

void NeonFusedCross3(const double* c1, const double* c2, const double* t, std::size_t m,
                     double* out, std::size_t anchor) {
  const std::size_t dist = PrefetchDistance();
  Run<3>(
      m, anchor, out,
      [c1, c2, t, dist](std::size_t i, Acc acc[3]) {
        if (dist != 0) {
          __builtin_prefetch(c1 + i + dist);
          __builtin_prefetch(c2 + i + dist);
          __builtin_prefetch(t + i + dist);
        }
        const Acc vt = Load(t + i);
        AddTo(acc[0], Mul(Load(c1 + i), vt));
        AddTo(acc[1], Mul(Load(c2 + i), vt));
        AddTo(acc[2], vt);
      },
      [c1, c2, t](std::size_t i, double* v) {
        v[0] = c1[i] * t[i];
        v[1] = c2[i] * t[i];
        v[2] = t[i];
      });
}

void NeonFusedGram5(const double* c1, const double* c2, std::size_t m, double* out,
                    std::size_t anchor) {
  const std::size_t dist = PrefetchDistance();
  Run<5>(
      m, anchor, out,
      [c1, c2, dist](std::size_t i, Acc acc[5]) {
        if (dist != 0) {
          __builtin_prefetch(c1 + i + dist);
          __builtin_prefetch(c2 + i + dist);
        }
        const Acc v1 = Load(c1 + i);
        const Acc v2 = Load(c2 + i);
        AddTo(acc[0], Mul(v1, v1));
        AddTo(acc[1], Mul(v1, v2));
        AddTo(acc[2], Mul(v2, v2));
        AddTo(acc[3], v1);
        AddTo(acc[4], v2);
      },
      [c1, c2](std::size_t i, double* v) {
        v[0] = c1[i] * c1[i];
        v[1] = c1[i] * c2[i];
        v[2] = c2[i] * c2[i];
        v[3] = c1[i];
        v[4] = c2[i];
      });
}

void NeonFusedPairMoments(const double* x, const double* y, std::size_t m, double* out,
                          std::size_t anchor) {
  const std::size_t dist = PrefetchDistance();
  Run<5>(
      m, anchor, out,
      [x, y, dist](std::size_t i, Acc acc[5]) {
        if (dist != 0) {
          __builtin_prefetch(x + i + dist);
          __builtin_prefetch(y + i + dist);
        }
        const Acc vx = Load(x + i);
        const Acc vy = Load(y + i);
        AddTo(acc[0], vx);
        AddTo(acc[1], Mul(vx, vx));
        AddTo(acc[2], vy);
        AddTo(acc[3], Mul(vy, vy));
        AddTo(acc[4], Mul(vx, vy));
      },
      [x, y](std::size_t i, double* v) {
        v[0] = x[i];
        v[1] = x[i] * x[i];
        v[2] = y[i];
        v[3] = y[i] * y[i];
        v[4] = x[i] * y[i];
      });
}

/// The dot tile runs cell by cell through `NeonBlockedDot`, the same
/// vector chain a per-pair sweep runs: a 4×4 tile of two-register
/// accumulators would need all 32 vector registers before any operand, and
/// no aarch64 machine has measured a vector tile yet.
void NeonBlockedDotTile(const double* const* x, const double* const* y, std::size_t m,
                        double* out, std::size_t anchor) {
  for (int a = 0; a < kTileRows; ++a) {
    for (int c = 0; c < kTileCols; ++c) {
      out[a * kTileCols + c] = NeonBlockedDot(x[a], y[c], m, anchor);
    }
  }
}

constexpr BackendOps kNeonOps = {
    Backend::kNeon,        "neon",
    &NeonBlockedSum,       &NeonBlockedDot,       &NeonColumnMarginals,
    &NeonFusedDot3,        &NeonFusedCross3,      &NeonFusedGram5,
    &NeonFusedPairMoments, &NeonBlockedDotTile,
};

}  // namespace

const BackendOps* NeonOps() { return &kNeonOps; }

}  // namespace affinity::core::kernels

#else  // !defined(__aarch64__)

namespace affinity::core::kernels {

const BackendOps* NeonOps() { return nullptr; }

}  // namespace affinity::core::kernels

#endif  // defined(__aarch64__)
