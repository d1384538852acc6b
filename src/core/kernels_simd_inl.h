#ifndef AFFINITY_CORE_KERNELS_SIMD_INL_H_
#define AFFINITY_CORE_KERNELS_SIMD_INL_H_

/// \file kernels_simd_inl.h
/// The backend-generic span driver shared by the vector kernel TUs
/// (kernels_simd_avx2.cc / kernels_simd_neon.cc). Internal — include only
/// from those files.
///
/// Bit-identity argument (DESIGN.md §10): a canonical span accumulates
/// four independent lanes, lane l taking elements at span offset ≡ l
/// (mod kLanes), each lane left-associated in increasing index. A vector
/// accumulator register holds exactly those four lanes in its four 64-bit
/// slots, so one vector add per 4-element group performs the same four
/// scalar additions, on the same operands, in the same per-lane order —
/// identical IEEE roundings, identical bits. Multiplies are explicit
/// mul-then-add (never FMA — a fused multiply-add rounds once where the
/// scalar chain rounds twice). The leading reversed span is vectorized
/// the same way, mirrored: its lane l takes elements at offset ≡ l below
/// the span end, so a top-down `vstep(i − kLanes)` over the group
/// [i − kLanes, i) adds the element of lane l into slot kLanes − 1 − l,
/// each slot still in decreasing index — the scalar walk's additions on
/// the same operands in the same order; the slots are stored reversed.
/// Sub-group remainders (leading and trailing) run the scalar term
/// exactly as `AccumulateSpanReversed`/`AccumulateSpan` do. Block pairing
/// (two independent full blocks in lockstep, partials still added in
/// block order) only reorders instruction *scheduling*, never the
/// additions inside a lane or the block-partial sequence.

#include <cstddef>

#include "core/kernels.h"

namespace affinity::core::kernels::simd {

/// Accumulates `kChains` sums over [0, m) at `anchor` in the canonical
/// order. `Traits` supplies the accumulator register type (`Acc`, four
/// double lanes) with `Zero()` / `Store(lanes, acc)`. `vstep(i, acc)`
/// folds the 4-element group at window offset i into acc[0..kChains) with
/// slotwise mul/add; `term(i, v)` is the scalar reference term used for
/// sub-group remainders.
template <int kChains, class Traits, class VecStep, class Term>
inline void AccumulateVec(std::size_t m, std::size_t anchor, double* out, const VecStep& vstep,
                          const Term& term) {
  using Acc = typename Traits::Acc;
  for (int c = 0; c < kChains; ++c) out[c] = 0.0;
  const std::size_t phase = anchor % kBlockElems;
  std::size_t base = 0;
  if (phase != 0 && m > 0) {
    // The leading partial span walks top-down (see kernels.h): full
    // groups from the span end down, slot s holding lane kLanes − 1 − s,
    // then the < kLanes lowest elements through the scalar term in
    // AccumulateSpanReversed's order.
    const std::size_t lead = kBlockElems - phase < m ? kBlockElems - phase : m;
    Acc acc[kChains];
    for (int c = 0; c < kChains; ++c) acc[c] = Traits::Zero();
    std::size_t i = lead;
    for (; i >= kLanes; i -= kLanes) vstep(i - kLanes, acc);
    double lanes[kChains][kLanes];
    for (int c = 0; c < kChains; ++c) {
      double slots[kLanes];
      Traits::Store(slots, acc[c]);
      for (std::size_t l = 0; l < kLanes; ++l) lanes[c][l] = slots[kLanes - 1 - l];
    }
    for (std::size_t l = 0; i > 0; --i, ++l) {
      double v[kChains];
      term(i - 1, v);
      for (int c = 0; c < kChains; ++c) lanes[c][l] += v[c];
    }
    for (int c = 0; c < kChains; ++c) {
      out[c] += (lanes[c][0] + lanes[c][1]) + (lanes[c][2] + lanes[c][3]);
    }
    base = lead;
  }
  if constexpr (kChains <= 3) {
    // Two independent full blocks in lockstep: doubles the number of
    // in-flight add chains (the vector add latency, not throughput, is
    // what bounds a single chain). Partials still reduce and add in
    // block order. Wider fusions already saturate the FP ports and would
    // spill accumulators, so they skip the pairing.
    while (m - base >= 2 * kBlockElems) {
      Acc acc_a[kChains], acc_b[kChains];
      for (int c = 0; c < kChains; ++c) {
        acc_a[c] = Traits::Zero();
        acc_b[c] = Traits::Zero();
      }
      const std::size_t second = base + kBlockElems;
      for (std::size_t i = 0; i < kBlockElems; i += kLanes) {
        vstep(base + i, acc_a);
        vstep(second + i, acc_b);
      }
      double lanes[kChains][kLanes];
      for (int c = 0; c < kChains; ++c) {
        Traits::Store(lanes[c], acc_a[c]);
        out[c] += (lanes[c][0] + lanes[c][1]) + (lanes[c][2] + lanes[c][3]);
      }
      for (int c = 0; c < kChains; ++c) {
        Traits::Store(lanes[c], acc_b[c]);
        out[c] += (lanes[c][0] + lanes[c][1]) + (lanes[c][2] + lanes[c][3]);
      }
      base += 2 * kBlockElems;
    }
  }
  while (base < m) {
    const std::size_t end = base + kBlockElems < m ? base + kBlockElems : m;
    Acc acc[kChains];
    for (int c = 0; c < kChains; ++c) acc[c] = Traits::Zero();
    std::size_t i = base;
    for (; i + kLanes <= end; i += kLanes) vstep(i, acc);
    double lanes[kChains][kLanes];
    for (int c = 0; c < kChains; ++c) Traits::Store(lanes[c], acc[c]);
    for (std::size_t l = 0; i < end; ++i, ++l) {
      double v[kChains];
      term(i, v);
      for (int c = 0; c < kChains; ++c) lanes[c][l] += v[c];
    }
    for (int c = 0; c < kChains; ++c) {
      out[c] += (lanes[c][0] + lanes[c][1]) + (lanes[c][2] + lanes[c][3]);
    }
    base = end;
  }
}

}  // namespace affinity::core::kernels::simd

#endif  // AFFINITY_CORE_KERNELS_SIMD_INL_H_
