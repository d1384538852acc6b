// Cross-backend bitwise equality of the chain kernels (DESIGN.md §10):
// every vector backend must reproduce the scalar reference sums bit for
// bit — at lengths and anchors straddling the block grid, and on columns
// engineered to expose reordered rounding (±0.0, denormals, 1e140
// magnitudes) — and every cell of a dot tile must equal the per-pair
// BlockedDot. Also covers the dispatch machinery itself: env-style
// parsing, the programmatic setter, and the prefetch-distance knob
// (a pure scheduling hint — it must never change bits).

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/kernels.h"

namespace affinity::core::kernels {
namespace {

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Restores the entry backend and prefetch distance on scope exit so a
/// failing test can't poison the rest of the suite.
struct BackendGuard {
  Backend saved = ActiveBackend();
  std::size_t dist = PrefetchDistance();
  ~BackendGuard() {
    SetBackend(saved);
    SetPrefetchDistance(dist);
  }
};

std::vector<Backend> SimdBackends() {
  std::vector<Backend> out;
  if (BackendSupported(Backend::kAvx2)) out.push_back(Backend::kAvx2);
  if (BackendSupported(Backend::kNeon)) out.push_back(Backend::kNeon);
  return out;
}

enum class ColumnKind { kRandom, kSignedZeros, kDenormal, kHuge };

std::vector<double> MakeColumn(ColumnKind kind, std::size_t m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> x(m);
  switch (kind) {
    case ColumnKind::kRandom:
      for (double& v : x) v = rng.Uniform(-2.0, 2.0);
      break;
    case ColumnKind::kSignedZeros:
      // ±0.0 runs with occasional finite values: exercises signed-zero
      // accumulation and min/max ties.
      for (std::size_t i = 0; i < m; ++i) {
        x[i] = (i % 3 == 0) ? 0.0 : ((i % 3 == 1) ? -0.0 : rng.Uniform(-1.0, 1.0));
      }
      break;
    case ColumnKind::kDenormal:
      // Subnormal magnitudes: products flush toward zero differently if a
      // backend reorders roundings.
      for (std::size_t i = 0; i < m; ++i) {
        x[i] = rng.Uniform(-1.0, 1.0) * 5e-324 * static_cast<double>(1 + i % 7);
      }
      break;
    case ColumnKind::kHuge:
      // 1e140 magnitudes: squares reach 1e280, so any reassociation that
      // changes intermediate magnitudes shows up in the low mantissa bits.
      for (double& v : x) v = rng.Uniform(-1.0, 1.0) * 1e140;
      break;
  }
  return x;
}

struct Reference {
  double sum, dot_xy;
  Marginals marg;
  double d3[3];
  double cross[3];
  double gram[5];
  double pm[5];
};

Reference ScalarReference(const double* x, const double* y, std::size_t m, std::size_t anchor) {
  Reference r;
  r.sum = scalar::BlockedSum(x, m, anchor);
  r.dot_xy = scalar::BlockedDot(x, y, m, anchor);
  r.marg = scalar::ColumnMarginals(x, m, anchor);
  scalar::FusedDot3(x, y, m, &r.d3[0], &r.d3[1], &r.d3[2], anchor);
  scalar::FusedCross3(x, y, x, m, r.cross, anchor);
  scalar::FusedGram5(x, y, m, r.gram, anchor);
  scalar::FusedPairMoments(x, y, m, r.pm, anchor);
  return r;
}

TEST(KernelBackends, CrossBackendBitwiseEquality) {
  const std::vector<Backend> backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend runs on this machine";
  BackendGuard guard;
  const std::size_t lengths[] = {0, 1, 7, 1023, 1024, 1025, 4096 + 1};
  // Anchors straddling block boundaries: on-grid, one off either side of
  // a cut, mid-block, and a deep-stream phase repeat.
  const std::size_t anchors[] = {0, 1, 511, 1023, 1024, 1025, 4095, 7 + 3 * kBlockElems};
  const ColumnKind kinds[] = {ColumnKind::kRandom, ColumnKind::kSignedZeros,
                              ColumnKind::kDenormal, ColumnKind::kHuge};
  for (const ColumnKind kind : kinds) {
    for (const std::size_t m : lengths) {
      const std::vector<double> x = MakeColumn(kind, m, 1234 + m);
      const std::vector<double> y = MakeColumn(kind, m, 9876 + m);
      // The tile's columns: x and y plus distinct ones of the same kind.
      std::vector<std::vector<double>> extra;
      for (int j = 0; j < kTileRows + kTileCols - 2; ++j) {
        extra.push_back(MakeColumn(kind, m, 555 + m + static_cast<std::size_t>(j)));
      }
      std::vector<const double*> tile_x = {x.data()};
      std::vector<const double*> tile_y = {y.data()};
      for (const std::vector<double>& col : extra) {
        (static_cast<int>(tile_x.size()) < kTileRows ? tile_x : tile_y).push_back(col.data());
      }
      for (const std::size_t anchor : anchors) {
        const Reference ref = ScalarReference(x.data(), y.data(), m, anchor);
        for (const Backend b : backends) {
          ASSERT_TRUE(SetBackend(b));
          SCOPED_TRACE(testing::Message() << "backend=" << ActiveBackendName() << " m=" << m
                                          << " anchor=" << anchor << " kind="
                                          << static_cast<int>(kind));
          EXPECT_EQ(Bits(BlockedSum(x.data(), m, anchor)), Bits(ref.sum));
          EXPECT_EQ(Bits(BlockedDot(x.data(), y.data(), m, anchor)), Bits(ref.dot_xy));
          // Σx² through an aliased dot — the documented spelling.
          EXPECT_EQ(Bits(BlockedDot(x.data(), x.data(), m, anchor)),
                    Bits(scalar::BlockedDot(x.data(), x.data(), m, anchor)));
          const Marginals marg = ColumnMarginals(x.data(), m, anchor);
          EXPECT_EQ(Bits(marg.sum), Bits(ref.marg.sum));
          EXPECT_EQ(Bits(marg.sumsq), Bits(ref.marg.sumsq));
          // min/max are value-equal across backends (±0.0 ties may land
          // on the other sign bit — kernels.h).
          EXPECT_EQ(marg.min, ref.marg.min);
          EXPECT_EQ(marg.max, ref.marg.max);
          double d3[3];
          FusedDot3(x.data(), y.data(), m, &d3[0], &d3[1], &d3[2], anchor);
          double cross[3], gram[5], pm[5];
          FusedCross3(x.data(), y.data(), x.data(), m, cross, anchor);
          FusedGram5(x.data(), y.data(), m, gram, anchor);
          FusedPairMoments(x.data(), y.data(), m, pm, anchor);
          for (int c = 0; c < 3; ++c) {
            EXPECT_EQ(Bits(d3[c]), Bits(ref.d3[c])) << "FusedDot3 chain " << c;
            EXPECT_EQ(Bits(cross[c]), Bits(ref.cross[c])) << "FusedCross3 chain " << c;
          }
          for (int c = 0; c < 5; ++c) {
            EXPECT_EQ(Bits(gram[c]), Bits(ref.gram[c])) << "FusedGram5 chain " << c;
            EXPECT_EQ(Bits(pm[c]), Bits(ref.pm[c])) << "FusedPairMoments chain " << c;
          }
          double tile[kTileRows * kTileCols];
          BlockedDotTile(tile_x.data(), kTileRows, tile_y.data(), kTileCols, m, tile, anchor);
          for (int a = 0; a < kTileRows; ++a) {
            for (int c = 0; c < kTileCols; ++c) {
              EXPECT_EQ(Bits(tile[a * kTileCols + c]),
                        Bits(scalar::BlockedDot(tile_x[a], tile_y[c], m, anchor)))
                  << "BlockedDotTile cell " << a << "," << c;
            }
          }
        }
      }
    }
  }
}

/// Every cell of a 1×1, 1×4, 4×1 and 4×4 tile equals the scalar per-pair
/// BlockedDot bitwise — on every runnable backend (scalar included) and
/// in the scalar reference template itself — at lengths and anchors that
/// put the window wholly in the leading span, split it, or skip it.
template <int kRows, int kCols>
void ExpectTileCellsEqualBlockedDot(const std::vector<std::vector<double>>& columns) {
  const std::size_t m = columns[0].size();
  const double* x[kRows];
  const double* y[kCols];
  for (int a = 0; a < kRows; ++a) x[a] = columns[a].data();
  for (int c = 0; c < kCols; ++c) y[c] = columns[kTileRows + c].data();
  for (const std::size_t anchor : {std::size_t{0}, std::size_t{3}, std::size_t{100},
                                   std::size_t{700}, std::size_t{1021}}) {
    SCOPED_TRACE(testing::Message() << kRows << "x" << kCols << " m=" << m
                                    << " anchor=" << anchor);
    double ref[kRows * kCols];
    double got[kRows * kCols];
    scalar::BlockedDotTile<kRows, kCols>(x, y, m, ref, anchor);
    for (int a = 0; a < kRows; ++a) {
      for (int c = 0; c < kCols; ++c) {
        EXPECT_EQ(Bits(ref[a * kCols + c]), Bits(scalar::BlockedDot(x[a], y[c], m, anchor)))
            << "scalar reference cell " << a << "," << c;
      }
    }
    for (const Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kNeon}) {
      if (!SetBackend(b)) continue;
      BlockedDotTile(x, kRows, y, kCols, m, got, anchor);
      for (int i = 0; i < kRows * kCols; ++i) {
        EXPECT_EQ(Bits(got[i]), Bits(ref[i])) << ActiveBackendName() << " cell " << i;
      }
    }
  }
}

TEST(KernelBackends, TileCellsEqualBlockedDot) {
  BackendGuard guard;
  for (const std::size_t m : {std::size_t{1}, std::size_t{6}, std::size_t{512},
                              std::size_t{1030}, std::size_t{2048 + 5}}) {
    std::vector<std::vector<double>> columns;
    for (int j = 0; j < kTileRows + kTileCols; ++j) {
      columns.push_back(MakeColumn(j % 2 == 0 ? ColumnKind::kRandom : ColumnKind::kHuge, m,
                                   77 + static_cast<std::uint64_t>(j)));
    }
    ExpectTileCellsEqualBlockedDot<1, 1>(columns);
    ExpectTileCellsEqualBlockedDot<1, 4>(columns);
    ExpectTileCellsEqualBlockedDot<4, 1>(columns);
    ExpectTileCellsEqualBlockedDot<4, 4>(columns);
  }
}

TEST(KernelBackends, PrefetchDistanceNeverChangesBits) {
  const std::vector<Backend> backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend runs on this machine";
  BackendGuard guard;
  const std::size_t m = 4096 + 37;
  const std::vector<double> x = MakeColumn(ColumnKind::kRandom, m, 5);
  const std::vector<double> y = MakeColumn(ColumnKind::kRandom, m, 6);
  const double ref = scalar::BlockedDot(x.data(), y.data(), m, 17);
  for (const Backend b : backends) {
    ASSERT_TRUE(SetBackend(b));
    for (const std::size_t dist : {std::size_t{0}, std::size_t{16}, std::size_t{256}}) {
      SetPrefetchDistance(dist);
      EXPECT_EQ(Bits(BlockedDot(x.data(), y.data(), m, 17)), Bits(ref)) << "dist=" << dist;
    }
  }
}

TEST(KernelBackends, DispatchMachinery) {
  BackendGuard guard;
  // Scalar is always supported and settable.
  EXPECT_TRUE(BackendSupported(Backend::kScalar));
  EXPECT_TRUE(SetBackend(Backend::kScalar));
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  EXPECT_STREQ(ActiveBackendName(), "scalar");
  // Setting an unsupported backend fails and leaves the current one.
  for (const Backend b : {Backend::kAvx2, Backend::kNeon}) {
    if (!BackendSupported(b)) {
      EXPECT_FALSE(SetBackend(b));
      EXPECT_EQ(ActiveBackend(), Backend::kScalar);
    } else {
      EXPECT_TRUE(SetBackend(b));
      EXPECT_EQ(ActiveBackend(), b);
      EXPECT_TRUE(SetBackend(Backend::kScalar));
    }
  }
  // At most one SIMD backend exists per architecture.
  EXPECT_LE(SimdBackends().size(), 1u);

  Backend parsed;
  EXPECT_TRUE(ParseBackend("scalar", &parsed));
  EXPECT_EQ(parsed, Backend::kScalar);
  EXPECT_TRUE(ParseBackend("avx2", &parsed));
  EXPECT_EQ(parsed, Backend::kAvx2);
  EXPECT_TRUE(ParseBackend("neon", &parsed));
  EXPECT_EQ(parsed, Backend::kNeon);
  EXPECT_TRUE(ParseBackend("auto", &parsed));
  EXPECT_TRUE(BackendSupported(parsed)) << "auto must resolve to a runnable backend";
  EXPECT_FALSE(ParseBackend("sse9", &parsed));
  EXPECT_FALSE(ParseBackend("", &parsed));
  EXPECT_FALSE(ParseBackend(nullptr, &parsed));
}

}  // namespace
}  // namespace affinity::core::kernels
