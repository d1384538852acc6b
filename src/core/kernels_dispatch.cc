/// Backend resolution for the chain kernels (kernels.h). The table is
/// picked once, lazily: the `AFFINITY_KERNEL_BACKEND` env override first,
/// then CPU-feature detection, then the scalar reference. Lives in the
/// `affinity_kernels` library so `ts/` (below core in the link order) can
/// dispatch through the same table as everything above it.

#include "core/kernels.h"

#include <atomic>
#include <cstring>

#include <cstdlib>

namespace affinity::core::kernels {
namespace {

// Anchor-explicit trampolines: the scalar reference kernels take default
// arguments, so their addresses don't match the table's pointer types
// directly on all compilers — go through exact-signature wrappers.
double ScalarBlockedSum(const double* x, std::size_t m, std::size_t anchor) {
  return scalar::BlockedSum(x, m, anchor);
}
double ScalarBlockedDot(const double* x, const double* y, std::size_t m, std::size_t anchor) {
  return scalar::BlockedDot(x, y, m, anchor);
}
Marginals ScalarColumnMarginals(const double* x, std::size_t m, std::size_t anchor) {
  return scalar::ColumnMarginals(x, m, anchor);
}
void ScalarFusedDot3(const double* x, const double* y, std::size_t m, double* dot_xy,
                     double* dot_xx, double* dot_yy, std::size_t anchor) {
  scalar::FusedDot3(x, y, m, dot_xy, dot_xx, dot_yy, anchor);
}
void ScalarFusedCross3(const double* c1, const double* c2, const double* t, std::size_t m,
                       double* out, std::size_t anchor) {
  scalar::FusedCross3(c1, c2, t, m, out, anchor);
}
void ScalarFusedGram5(const double* c1, const double* c2, std::size_t m, double* out,
                      std::size_t anchor) {
  scalar::FusedGram5(c1, c2, m, out, anchor);
}
void ScalarFusedPairMoments(const double* x, const double* y, std::size_t m, double* out,
                            std::size_t anchor) {
  scalar::FusedPairMoments(x, y, m, out, anchor);
}

void ScalarBlockedDotTile(const double* const* x, const double* const* y, std::size_t m,
                          double* out, std::size_t anchor) {
  scalar::BlockedDotTile<kTileRows, kTileCols>(x, y, m, out, anchor);
}

constexpr BackendOps kScalarOps = {
    Backend::kScalar,       "scalar",          &ScalarBlockedSum,
    &ScalarBlockedDot,      &ScalarColumnMarginals,
    &ScalarFusedDot3,       &ScalarFusedCross3, &ScalarFusedGram5,
    &ScalarFusedPairMoments, &ScalarBlockedDotTile,
};

/// The best backend this CPU can actually run, ignoring overrides.
const BackendOps* DetectOps() {
#if defined(__x86_64__) || defined(__i386__)
  if (const BackendOps* avx2 = Avx2Ops(); avx2 != nullptr && __builtin_cpu_supports("avx2")) {
    return avx2;
  }
#elif defined(__aarch64__)
  if (const BackendOps* neon = NeonOps(); neon != nullptr) return neon;
#endif
  return &kScalarOps;
}

const BackendOps* OpsFor(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return &kScalarOps;
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      if (const BackendOps* avx2 = Avx2Ops();
          avx2 != nullptr && __builtin_cpu_supports("avx2")) {
        return avx2;
      }
#endif
      return nullptr;
    case Backend::kNeon:
      return NeonOps();
  }
  return nullptr;
}

const BackendOps* Resolve() {
  if (const char* env = std::getenv("AFFINITY_KERNEL_BACKEND");
      env != nullptr && *env != '\0') {
    Backend want;
    if (ParseBackend(env, &want)) {
      if (const BackendOps* ops = OpsFor(want); ops != nullptr) return ops;
      // Requested backend can't run here (e.g. avx2 on an old CPU):
      // fall through to detection rather than crash in a vector kernel.
    }
  }
  return DetectOps();
}

std::atomic<const BackendOps*> g_active{nullptr};

std::atomic<std::size_t> g_prefetch_distance{kDefaultPrefetchDistance};

}  // namespace

const BackendOps& ActiveOps() {
  const BackendOps* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    // Lazy first-use resolution. Concurrent first calls all Resolve() to
    // the same table, but the install must be a compare-exchange: an
    // unconditional store here could overwrite an explicit SetBackend()
    // that raced with first use, silently reverting the caller's choice.
    // Whoever wins the CAS defines the backend; losers adopt the winner.
    const BackendOps* resolved = Resolve();
    if (g_active.compare_exchange_strong(ops, resolved, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      ops = resolved;
    }
  }
  return *ops;
}

Backend ActiveBackend() { return ActiveOps().id; }

const char* ActiveBackendName() { return ActiveOps().name; }

bool BackendSupported(Backend b) { return OpsFor(b) != nullptr; }

bool SetBackend(Backend b) {
  const BackendOps* ops = OpsFor(b);
  if (ops == nullptr) return false;
  g_active.store(ops, std::memory_order_release);
  return true;
}

bool ParseBackend(const char* name, Backend* out) {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    *out = Backend::kScalar;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    *out = Backend::kAvx2;
    return true;
  }
  if (std::strcmp(name, "neon") == 0) {
    *out = Backend::kNeon;
    return true;
  }
  if (std::strcmp(name, "auto") == 0) {
    *out = DetectOps()->id;
    return true;
  }
  return false;
}

std::size_t PrefetchDistance() {
  return g_prefetch_distance.load(std::memory_order_relaxed);
}

void SetPrefetchDistance(std::size_t elems) {
  g_prefetch_distance.store(elems, std::memory_order_relaxed);
}

}  // namespace affinity::core::kernels
