// Top-k queries over the SCAPE index (declaration in scape.h).
//
// The key observation mirrors §5: within one pivot tree the entries are
// sorted by the scalar projection ξ, and
//
//   * T-measures:  value = ‖α‖·ξ           → tree order IS value order;
//   * D-measures:  value = ‖α‖·ξ / U_e     → tree order bounds value order,
//     because U_e ∈ [Umin, Umax]:  for ξ ≥ 0, value ≤ ‖α‖·ξ/Umin; for
//     ξ < 0, value ≤ ‖α‖·ξ/Umax (and symmetrically for lower bounds).
//
// So the bound of a tree's best-first frontier never grows as the walk
// advances, and the bound of its head entry caps the whole tree. The scan
// computes every tree's head bound once, visits the trees in descending
// head bound, and walks each one best-first until an entry's bound drops
// below θ, the k-th best value held so far. The first tree whose head bound
// is already below θ ends the query: no later tree can hold a better entry.
// Entries whose bound equals θ are still examined, so an entry that ties
// the k-th value competes under the canonical order (TopKBefore) and the
// answer never depends on tree layout or visiting order.

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "core/scape.h"

namespace affinity::core {

namespace {

/// Applies `fn(key, value)` to the entries of `tree` best-first (descending
/// key for `largest`, ascending otherwise) until `fn` returns false.
template <typename V, typename Fn>
void WalkBestFirst(const btree::BPlusTree<V>& tree, bool largest, Fn&& fn) {
  if (largest) {
    for (auto it = tree.rbegin(); it != tree.rend(); ++it) {
      if (!fn(it.key(), it.value())) return;
    }
  } else {
    for (auto it = tree.begin(); it != tree.end(); ++it) {
      if (!fn(it.key(), it.value())) return;
    }
  }
}

/// Head key of a non-empty tree in walk order.
template <typename V>
double HeadKey(const btree::BPlusTree<V>& tree, bool largest) {
  return largest ? tree.rbegin().key() : tree.begin().key();
}

/// Visits `trees` in descending head bound and walks each best-first,
/// offering its entries to `best` until an entry's bound drops below θ; the
/// first tree whose head bound is already below θ ends the scan.
/// `bound(tree, key)` is the best transformed value of an entry keyed `key`
/// (its exact value for T- and L-measures) and `make_entry(tree, key,
/// value)` builds the entry offered. Equal head bounds keep the order of
/// `trees`, so the visiting order (and with it `examined`) is deterministic.
template <typename Tree, typename BoundFn, typename MakeEntryFn>
void ScanTrees(const std::vector<const Tree*>& trees, bool largest, BoundFn&& bound,
               MakeEntryFn&& make_entry, BestK* best, std::size_t* examined) {
  struct Head {
    double bound;
    std::size_t order;
  };
  std::vector<Head> heads;
  heads.reserve(trees.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    heads.push_back({bound(*trees[i], HeadKey(trees[i]->tree, largest)), i});
  }
  std::sort(heads.begin(), heads.end(), [](const Head& a, const Head& b) {
    return a.bound != b.bound ? a.bound > b.bound : a.order < b.order;
  });
  for (const Head& head : heads) {
    if (head.bound < best->Threshold()) return;
    const Tree& t = *trees[head.order];
    WalkBestFirst(t.tree, largest, [&](double key, const auto& value) {
      if (bound(t, key) < best->Threshold()) return false;
      ++*examined;
      best->Offer(make_entry(t, key, value));
      return true;
    });
  }
}

}  // namespace

StatusOr<ScapeTopKResult> ScapeIndex::TopK(Measure measure, std::size_t k, bool largest) const {
  if (k == 0) return ScapeTopKResult{};
  const int loc_family = LocationFamilyIndex(measure);
  const int pair_family = PairFamilyIndex(measure);
  if (loc_family < 0 && pair_family < 0) {
    return Status::Unimplemented(std::string(MeasureName(measure)) +
                                 " is not SCAPE-indexable (no separable normalizer)");
  }
  const bool derived = IsDerived(measure);
  const double sign = largest ? 1.0 : -1.0;

  ScapeTopKResult result;
  BestK best(k, largest);

  if (loc_family >= 0) {
    const auto family = static_cast<std::size_t>(loc_family);
    std::vector<const LocTree*> trees;
    trees.reserve(loc_pivots_.size());
    for (const LocPivotNode& node : loc_pivots_) {
      if (!node.trees[family].tree.empty()) trees.push_back(&node.trees[family]);
    }
    ScanTrees(
        trees, largest, [&](const LocTree& lt, double xi) { return sign * lt.norm * xi; },
        [](const LocTree& lt, double xi, ts::SeriesId v) {
          return ScapeTopKEntry{ts::SequencePair{}, v, lt.norm * xi};
        },
        &best, &result.examined);
    result.entries = best.TakeSorted();
    return result;
  }

  const auto family = static_cast<std::size_t>(pair_family);
  std::vector<const PairTree*> trees;
  trees.reserve(pair_pivots_.size());
  for (const PairPivotNode& node : pair_pivots_) {
    const PairTree& pt = node.trees[family];
    // Degenerate pivot (norm 0) or zero normalizer: T-value ‖α‖ξ, D-value
    // defined 0. The side list is unordered, so each entry is offered.
    for (const SeqEntry& s : pt.degenerate) {
      ++result.examined;
      best.Offer(ScapeTopKEntry{s.e, kNoSeries, derived ? 0.0 : pt.norm * s.xi});
    }
    if (pt.norm > 0.0 && !pt.tree.empty()) trees.push_back(&pt);
  }
  ScanTrees(
      trees, largest,
      [&](const PairTree& pt, double xi) {
        const double scaled = sign * pt.norm * xi;
        if (!derived) return scaled;
        return scaled >= 0 ? scaled / pt.u_min : scaled / pt.u_max;
      },
      [&](const PairTree& pt, double xi, const SeqEntry& s) {
        const double raw = derived ? pt.norm * xi / s.u : pt.norm * xi;
        return ScapeTopKEntry{s.e, kNoSeries, raw};
      },
      &best, &result.examined);
  result.entries = best.TakeSorted();
  return result;
}

ScapeTopKResult MergeTopK(const std::vector<ScapeTopKResult>& runs, std::size_t k,
                          bool largest) {
  // Frontier heap over run heads: each run is already best-first, so the
  // globally best unmerged entry is always some run's head.
  struct Head {
    std::size_t run;
    std::size_t pos;
  };
  ScapeTopKResult out;
  const auto worse_head = [&](const Head& a, const Head& b) {
    return TopKBefore(runs[b.run].entries[b.pos], runs[a.run].entries[a.pos], largest);
  };
  std::priority_queue<Head, std::vector<Head>, decltype(worse_head)> frontier(worse_head);
  std::size_t available = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    out.examined += runs[r].examined;
    available += runs[r].entries.size();
    if (!runs[r].entries.empty()) frontier.push(Head{r, 0});
  }
  out.entries.reserve(std::min(k, available));
  while (out.entries.size() < k && !frontier.empty()) {
    const Head head = frontier.top();
    frontier.pop();
    out.entries.push_back(runs[head.run].entries[head.pos]);
    if (head.pos + 1 < runs[head.run].entries.size()) {
      frontier.push(Head{head.run, head.pos + 1});
    }
  }
  return out;
}

}  // namespace affinity::core
