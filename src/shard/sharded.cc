#include "shard/sharded.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>

#include "core/serialize.h"

namespace affinity::shard {

namespace {

using core::AppendResult;
using core::ExecutedPlan;
using core::FreshnessOptions;
using core::FreshnessReport;
using core::Measure;
using core::QueryMethod;

/// `options` carrying the gather's resolved per-shard method.
FreshnessOptions PerShard(FreshnessOptions options, QueryMethod method) {
  options.method = method;
  return options;
}

// --- Manifest framing (composes with serialize.h model payloads) ----------

constexpr char kManifestMagic[4] = {'A', 'F', 'F', 'S'};
// v3 dropped the two cross co-moment cache words (budget,
// exact_resync_period) that v2 wrote after the build-tuning section; v2
// manifests still load, their two words read and discarded.
constexpr std::uint32_t kManifestVersion = 3;
constexpr std::uint32_t kMinManifestVersion = 1;

void WriteU32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void WriteU64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void WriteF64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

bool ReadU32(std::istream& in, std::uint32_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof *v);
  return in.gcount() == sizeof *v;
}
bool ReadU64(std::istream& in, std::uint64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof *v);
  return in.gcount() == sizeof *v;
}
bool ReadF64(std::istream& in, double* v) {
  in.read(reinterpret_cast<char*>(v), sizeof *v);
  return in.gcount() == sizeof *v;
}

/// Bytes left between the read position and the end of `in` (0 when the
/// stream cannot tell) — the bound on any count the manifest declares.
std::uint64_t UnreadBytes(std::istream& in) {
  const std::streampos here = in.tellg();
  if (here == std::streampos(-1) || !in.seekg(0, std::ios::end)) return 0;
  const std::streampos end = in.tellg();
  in.seekg(here);
  return end != std::streampos(-1) && end >= here ? static_cast<std::uint64_t>(end - here) : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardRouter.
// ---------------------------------------------------------------------------

ShardRouter::ShardRouter(SeriesPartitioner partitioner)
    : routing_(std::make_shared<const RoutingTables>(std::move(partitioner))) {
  scatter_.resize(routing_->partitioner.shards());
  for (std::size_t s = 0; s < scatter_.size(); ++s) {
    scatter_[s].resize(routing_->partitioner.group(s).size());
  }
}

const std::vector<std::vector<double>>& ShardRouter::Scatter(const std::vector<double>& row) {
  const SeriesPartitioner& partitioner = routing_->partitioner;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const auto id = static_cast<ts::SeriesId>(i);
    scatter_[partitioner.shard_of(id)][partitioner.local_id(id)] = row[i];
  }
  return scatter_;
}

// ---------------------------------------------------------------------------
// ShardedAffinity: construction and ingest.
// ---------------------------------------------------------------------------

ShardedAffinity::ShardedAffinity(ShardedOptions options, SeriesPartitioner partitioner,
                                 std::unique_ptr<ThreadPool> pool)
    : pool_(std::move(pool)),
      exec_{pool_.get()},
      options_(std::move(options)),
      router_(std::move(partitioner)) {}

StatusOr<ShardedAffinity> ShardedAffinity::Create(const std::vector<std::string>& names,
                                                  const ShardedOptions& options) {
  AFFINITY_ASSIGN_OR_RETURN(
      SeriesPartitioner partitioner,
      SeriesPartitioner::Create(names, options.shards, options.partition));
  // Validate against the *smallest* shard so bad geometry reports before
  // any pool or table is built.
  std::size_t min_group = names.size();
  for (std::size_t s = 0; s < partitioner.shards(); ++s) {
    min_group = std::min(min_group, partitioner.group(s).size());
  }
  AFFINITY_RETURN_IF_ERROR(core::ValidateStreamingOptions(options.streaming, min_group));
  // One pool shared by every shard: scatter appends fan out across it, and
  // per-shard refreshes run concurrently on it (nested parallel loops
  // degrade to in-worker sequential execution — one worker per shard).
  std::unique_ptr<ThreadPool> pool;
  if (options.streaming.build.threads != 1) {
    pool = std::make_unique<ThreadPool>(options.streaming.build.threads);
  }
  ShardedAffinity service(options, std::move(partitioner), std::move(pool));
  AFFINITY_RETURN_IF_ERROR(service.InitShards(names));
  return service;
}

Status ShardedAffinity::InitShards(const std::vector<std::string>& names) {
  const SeriesPartitioner& partitioner = router_.partitioner();
  shards_.reserve(partitioner.shards());
  for (std::size_t s = 0; s < partitioner.shards(); ++s) {
    std::vector<std::string> local_names;
    local_names.reserve(partitioner.group(s).size());
    for (const ts::SeriesId id : partitioner.group(s)) local_names.push_back(names[id]);
    AFFINITY_ASSIGN_OR_RETURN(
        core::StreamingAffinity stream,
        core::StreamingAffinity::CreateWith(local_names, options_.streaming, exec_));
    shards_.push_back(std::move(stream));
  }
  append_results_.resize(shards_.size());
  return Status::OK();
}

AppendResult ShardedAffinity::Append(const std::vector<double>& row) {
  AppendResult out;
  if (row.size() != router_.partitioner().n()) {
    out.status = Status::InvalidArgument("row has " + std::to_string(row.size()) +
                                         " values, service has " +
                                         std::to_string(router_.partitioner().n()) + " series");
    return out;
  }
  const std::vector<std::vector<double>>& scattered = router_.Scatter(row);
  ++rows_;
  // One chunk per shard: appends (and any due refreshes) run concurrently
  // on the shared pool, each shard's own maintenance sequential within its
  // worker.
  ParallelChunks(exec_, shards_.size(), [&](std::size_t /*chunk*/, std::size_t lo,
                                            std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) append_results_[s] = shards_[s].Append(scattered[s]);
  });
  return FinishAppend();
}

AppendResult ShardedAffinity::AppendMasked(const std::vector<double>& values,
                                           const std::vector<std::uint8_t>& valid,
                                           const std::vector<std::uint8_t>& filled) {
  AppendResult out;
  const std::size_t n = router_.partitioner().n();
  if (values.size() != n) {
    out.status = Status::InvalidArgument("row has " + std::to_string(values.size()) +
                                         " values, service has " + std::to_string(n) + " series");
    return out;
  }
  if (valid.size() != n || filled.size() != n) {
    out.status = Status::InvalidArgument("mask sizes must match the row");
    return out;
  }
  const std::vector<std::vector<double>>& scattered = router_.Scatter(values);
  // Scatter the masks along the same per-shard groups. (Allocates per
  // call — the dirty path trades hot-path purity for the quality surface;
  // the dense Append stays allocation-free.)
  std::vector<std::vector<std::uint8_t>> valid_s(shards_.size());
  std::vector<std::vector<std::uint8_t>> filled_s(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& group = router_.partitioner().group(s);
    valid_s[s].resize(group.size());
    filled_s[s].resize(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      valid_s[s][i] = valid[group[i]];
      filled_s[s][i] = filled[group[i]];
    }
  }
  ++rows_;
  ParallelChunks(exec_, shards_.size(), [&](std::size_t /*chunk*/, std::size_t lo,
                                            std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      append_results_[s] = shards_[s].AppendMasked(scattered[s], valid_s[s], filled_s[s]);
    }
  });
  return FinishAppend();
}

AppendResult ShardedAffinity::FinishAppend() {
  AppendResult out;
  // Aggregate: first error by shard index; any refresh / escalation shows,
  // with the mode of the lowest refreshed shard.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const AppendResult& r = append_results_[s];
    if (!r.status.ok() && out.status.ok()) {
      out.status = Status(r.status.code(), "shard " + std::to_string(s) + ": " +
                                               std::string(r.status.message()));
    }
    if (r.refreshed && !out.refreshed) {
      out.refreshed = true;
      out.mode = r.mode;
    }
    out.escalated = out.escalated || r.escalated;
  }
  // Every shard republished its serving snapshot during this lockstep
  // refresh; bundle them into a fresh router epoch. A half-failed refresh
  // keeps the previous epoch (its shard snapshots are still the last
  // coherent lockstep set).
  if (out.refreshed && out.status.ok()) PublishRouterSnapshot();
  return out;
}

void ShardedAffinity::PublishRouterSnapshot() {
  if (!ready()) return;
  auto snap = std::make_shared<RouterSnapshot>();
  snap->window = options_.streaming.window;
  snap->shards.reserve(shards_.size());
  core::QueryPlanner::Capabilities caps{true, true, true};
  std::size_t max_n = 0;
  for (const core::StreamingAffinity& shard : shards_) {
    std::shared_ptr<const serve::ServingSnapshot> shard_snap = shard.serving();
    // Defensive: a ready shard has always published (Refresh/Rebuild/
    // Restore all do); without a full lockstep set there is no coherent
    // epoch to serve, so keep the previous one.
    if (shard_snap == nullptr) return;
    caps.has_model = caps.has_model && shard_snap->caps.has_model;
    caps.has_scape = caps.has_scape && shard_snap->caps.has_scape;
    caps.has_dft = caps.has_dft && shard_snap->caps.has_dft;
    max_n = std::max(max_n, shard_snap->data.n());
    snap->shards.push_back(std::move(shard_snap));
  }
  snap->anchor = snap->shards[0]->data.anchor_row();
  snap->caps = caps;
  snap->max_n = max_n;
  snap->routing = router_.routing();
  snap->generation = ++generation_;
  if (publisher_ == nullptr) {
    publisher_ = std::make_unique<serve::EpochPublisher<RouterSnapshot>>(
        options_.streaming.serving_history);
  }
  publisher_->Publish(std::move(snap));
}

bool ShardedAffinity::ready() const {
  for (const core::StreamingAffinity& shard : shards_) {
    if (!shard.ready()) return false;
  }
  return !shards_.empty();
}

core::MaintenanceProfile ShardedAffinity::maintenance() const {
  std::vector<core::MaintenanceProfile> profiles;
  profiles.reserve(shards_.size());
  for (const core::StreamingAffinity& shard : shards_) profiles.push_back(shard.maintenance());
  return core::AggregateShardProfiles(profiles);
}

std::vector<std::size_t> ShardedAffinity::snapshot_ages() const {
  std::vector<std::size_t> ages;
  ages.reserve(shards_.size());
  for (const core::StreamingAffinity& shard : shards_) ages.push_back(shard.snapshot_age());
  return ages;
}

Status ShardedAffinity::Rebuild() {
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec_, shards_.size(), [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t s = lo; s < hi; ++s) {
          AFFINITY_RETURN_IF_ERROR(shards_[s].Rebuild());
        }
        return Status::OK();
      }));
  PublishRouterSnapshot();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Scatter-gather queries.
// ---------------------------------------------------------------------------

std::vector<ShardFreshness> ShardedAffinity::Freshness(const FreshnessOptions& options) const {
  std::vector<ShardFreshness> out(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    out[s].snapshot_age = shards_[s].snapshot_age();
    out[s].blended =
        options.max_staleness > 0 && out[s].snapshot_age > options.max_staleness;
  }
  return out;
}

bool ShardedAffinity::NeedsBlend(const FreshnessOptions& options) const {
  if (options.max_staleness == 0) return false;
  for (const core::StreamingAffinity& shard : shards_) {
    if (shard.snapshot_age() > options.max_staleness) return true;
  }
  return false;
}

StatusOr<std::shared_ptr<const RouterSnapshot>> ShardedAffinity::Epoch() const {
  std::shared_ptr<const RouterSnapshot> snap = serving();
  if (snap == nullptr) {
    return Status::FailedPrecondition("no shard snapshots yet (need window rows)");
  }
  return snap;
}

GatherOptions ShardedAffinity::LiveGather(Measure measure, const FreshnessOptions& options) const {
  GatherOptions live;
  live.exec = exec_;
  for (const core::StreamingAffinity& shard : shards_) {
    live.quality.push_back(&shard.quality_scores());
  }
  // Blend trumps strategy choice: a stale deployment answers with the
  // live-marginal blend whatever is attached.
  if (NeedsBlend(options)) {
    std::size_t max_age = 0;
    for (const core::StreamingAffinity& shard : shards_) {
      max_age = std::max(max_age, shard.snapshot_age());
    }
    ExecutedPlan plan;
    plan.method = QueryMethod::kAffine;
    plan.rationale = "freshness blend over " + std::to_string(shards_.size()) +
                     " shards: snapshot structure (age " + std::to_string(max_age) +
                     " rows) rescaled by live rolling marginals";
    // Snapshot correlation carries the structure, live rolling moments the
    // marginals (same semantics as the per-shard blend).
    live.blend = GatherOptions::Blend{
        std::move(plan), [this, measure](ts::SequencePair e, double rho, double value) {
          const SeriesPartitioner& p = router_.partitioner();
          return core::BlendPairMeasure(measure, rho, value,
                                        shards_[p.shard_of(e.u)].rolling_stats()[p.local_id(e.u)],
                                        shards_[p.shard_of(e.v)].rolling_stats()[p.local_id(e.v)]);
        }};
  }
  return live;
}

StatusOr<ShardedSelection> ShardedAffinity::Met(const core::MetRequest& request,
                                                const FreshnessOptions& options) const {
  AFFINITY_ASSIGN_OR_RETURN(const auto snap, Epoch());
  ShardedSelection out;
  out.shards = Freshness(options);
  AFFINITY_ASSIGN_OR_RETURN(
      out.result,
      GatherMet(
          *snap, request, options.method,
          [&](std::size_t s, QueryMethod method) {
            FreshnessReport report;
            auto r = shards_[s].Met(request, PerShard(options, method), &report);
            out.shards[s] = ShardFreshness{report.snapshot_age, report.blended};
            return r;
          },
          LiveGather(request.measure, options)));
  return out;
}

StatusOr<ShardedSelection> ShardedAffinity::Mer(const core::MerRequest& request,
                                                const FreshnessOptions& options) const {
  // Checked ahead of readiness, like the unsharded stream.
  if (request.lo > request.hi) return Status::InvalidArgument("MER requires lo <= hi");
  AFFINITY_ASSIGN_OR_RETURN(const auto snap, Epoch());
  ShardedSelection out;
  out.shards = Freshness(options);
  AFFINITY_ASSIGN_OR_RETURN(
      out.result,
      GatherMer(
          *snap, request, options.method,
          [&](std::size_t s, QueryMethod method) {
            FreshnessReport report;
            auto r = shards_[s].Mer(request, PerShard(options, method), &report);
            out.shards[s] = ShardFreshness{report.snapshot_age, report.blended};
            return r;
          },
          LiveGather(request.measure, options)));
  return out;
}

StatusOr<ShardedTopK> ShardedAffinity::TopK(const core::TopKRequest& request,
                                            const FreshnessOptions& options) const {
  AFFINITY_ASSIGN_OR_RETURN(const auto snap, Epoch());
  ShardedTopK out;
  out.shards = Freshness(options);
  AFFINITY_ASSIGN_OR_RETURN(
      out.result,
      GatherTopK(
          *snap, request, options.method,
          [&](std::size_t s, QueryMethod method) {
            FreshnessReport report;
            auto r = shards_[s].TopK(request, PerShard(options, method), &report);
            out.shards[s] = ShardFreshness{report.snapshot_age, report.blended};
            return r;
          },
          LiveGather(request.measure, options)));
  return out;
}

StatusOr<ShardedMec> ShardedAffinity::Mec(const core::MecRequest& request,
                                          const FreshnessOptions& options) const {
  AFFINITY_ASSIGN_OR_RETURN(const auto snap, Epoch());
  ShardedMec out;
  out.shards = Freshness(options);
  AFFINITY_ASSIGN_OR_RETURN(
      out.response,
      GatherMec(
          *snap, request, options.method,
          [&](std::size_t s, const core::MecRequest& slice, QueryMethod method) {
            FreshnessReport report;
            auto r = shards_[s].Mec(slice, PerShard(options, method), &report);
            out.shards[s] = ShardFreshness{report.snapshot_age, report.blended};
            return r;
          },
          LiveGather(request.measure, options)));
  return out;
}

// ---------------------------------------------------------------------------
// Shard-manifest persistence.
// ---------------------------------------------------------------------------

Status ShardedAffinity::Save(const std::string& path) const {
  if (!ready()) {
    return Status::FailedPrecondition("every shard needs a snapshot before Save");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  const SeriesPartitioner& partitioner = router_.partitioner();

  out.write(kManifestMagic, sizeof kManifestMagic);
  WriteU32(out, kManifestVersion);
  WriteU64(out, partitioner.shards());
  WriteU64(out, partitioner.n());
  WriteU32(out, static_cast<std::uint32_t>(partitioner.scheme()));
  for (std::size_t i = 0; i < partitioner.n(); ++i) {
    WriteU32(out, static_cast<std::uint32_t>(partitioner.shard_of(static_cast<ts::SeriesId>(i))));
  }
  // Streaming geometry and build/maintenance tuning the restored
  // deployment must agree on (a post-restore escalation rebuilds with
  // these, so they cannot silently reset to defaults).
  WriteU64(out, options_.streaming.window);
  WriteU64(out, options_.streaming.rebuild_interval);
  WriteU32(out, options_.streaming.mode == core::UpdateMode::kIncremental ? 1 : 0);
  WriteU64(out, options_.streaming.segment_capacity);
  WriteU64(out, options_.streaming.build.afclst.k);
  WriteU32(out, static_cast<std::uint32_t>(options_.streaming.build.afclst.max_iterations));
  WriteU32(out, static_cast<std::uint32_t>(options_.streaming.build.afclst.min_changes));
  WriteU64(out, options_.streaming.build.afclst.seed);
  WriteU32(out, options_.streaming.build.symex.cache_pseudo_inverse ? 1 : 0);
  WriteU64(out, options_.streaming.build.symex.max_relationships);
  WriteU64(out, options_.streaming.build.scape.btree_fanout);
  WriteU32(out, options_.streaming.build.build_scape ? 1 : 0);
  WriteU32(out, options_.streaming.build.build_dft ? 1 : 0);
  WriteU64(out, options_.streaming.build.dft_coefficients);
  WriteF64(out, options_.streaming.incremental.refit_drift_threshold);
  WriteU64(out, options_.streaming.incremental.exact_refit_period);
  WriteF64(out, options_.streaming.incremental.escalation_factor);
  WriteF64(out, options_.streaming.incremental.escalation_slack);
  // One model payload per shard (serialize.h framing).
  for (const core::StreamingAffinity& shard : shards_) {
    AFFINITY_RETURN_IF_ERROR(core::WriteModelStream(shard.framework()->model(), out));
  }
  out.flush();
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

StatusOr<ShardedAffinity> ShardedAffinity::Load(const std::string& path, std::size_t threads) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");

  char magic[4] = {};
  in.read(magic, sizeof magic);
  if (in.gcount() != 4 || std::memcmp(magic, kManifestMagic, 4) != 0) {
    return Status::InvalidArgument("'" + path + "' is not an AFFINITY shard manifest");
  }
  std::uint32_t version = 0;
  if (!ReadU32(in, &version) || version < kMinManifestVersion || version > kManifestVersion) {
    return Status::InvalidArgument("unsupported shard manifest version");
  }
  std::uint64_t shards = 0;
  std::uint64_t n = 0;
  std::uint32_t scheme_raw = 0;
  if (!ReadU64(in, &shards) || !ReadU64(in, &n) || !ReadU32(in, &scheme_raw) || shards == 0 ||
      shards > (1u << 20) || n > (1u << 28) || scheme_raw > 1 ||
      n > UnreadBytes(in) / sizeof(std::uint32_t)) {
    // The assignment table is sized from `n` before a byte of it is read,
    // so `n` must fit in what the file still holds.
    return Status::InvalidArgument("'" + path + "': corrupt shard manifest header");
  }
  std::vector<std::uint32_t> assignment(n);
  for (auto& a : assignment) {
    if (!ReadU32(in, &a)) {
      return Status::InvalidArgument("'" + path + "': corrupt shard assignment");
    }
  }
  ShardedOptions options;
  options.shards = static_cast<std::size_t>(shards);
  options.partition = static_cast<PartitionScheme>(scheme_raw);
  std::uint64_t window = 0;
  std::uint64_t interval = 0;
  std::uint32_t mode = 0;
  std::uint64_t segment_capacity = 0;
  if (!ReadU64(in, &window) || !ReadU64(in, &interval) || !ReadU32(in, &mode) ||
      !ReadU64(in, &segment_capacity) || mode > 1) {
    return Status::InvalidArgument("'" + path + "': corrupt streaming geometry");
  }
  options.streaming.window = static_cast<std::size_t>(window);
  options.streaming.rebuild_interval = static_cast<std::size_t>(interval);
  options.streaming.mode = mode == 1 ? core::UpdateMode::kIncremental : core::UpdateMode::kRebuild;
  options.streaming.segment_capacity = static_cast<std::size_t>(segment_capacity);
  std::uint64_t k = 0;
  std::uint32_t max_iterations = 0;
  std::uint32_t min_changes = 0;
  std::uint64_t afclst_seed = 0;
  std::uint32_t cache_pinv = 0;
  std::uint64_t max_relationships = 0;
  std::uint64_t btree_fanout = 0;
  std::uint32_t build_scape = 0;
  std::uint32_t build_dft = 0;
  std::uint64_t dft_coefficients = 0;
  std::uint64_t refit_period = 0;
  core::IncrementalOptions incremental;
  if (!ReadU64(in, &k) || !ReadU32(in, &max_iterations) || !ReadU32(in, &min_changes) ||
      !ReadU64(in, &afclst_seed) || !ReadU32(in, &cache_pinv) ||
      !ReadU64(in, &max_relationships) || !ReadU64(in, &btree_fanout) ||
      !ReadU32(in, &build_scape) || !ReadU32(in, &build_dft) ||
      !ReadU64(in, &dft_coefficients) || !ReadF64(in, &incremental.refit_drift_threshold) ||
      !ReadU64(in, &refit_period) || !ReadF64(in, &incremental.escalation_factor) ||
      !ReadF64(in, &incremental.escalation_slack) || cache_pinv > 1 || build_scape > 1 ||
      build_dft > 1) {
    return Status::InvalidArgument("'" + path + "': corrupt build-tuning section");
  }
  options.streaming.build.afclst.k = static_cast<std::size_t>(k);
  options.streaming.build.afclst.max_iterations = static_cast<int>(max_iterations);
  options.streaming.build.afclst.min_changes = static_cast<int>(min_changes);
  options.streaming.build.afclst.seed = afclst_seed;
  options.streaming.build.symex.cache_pseudo_inverse = cache_pinv == 1;
  options.streaming.build.symex.max_relationships = static_cast<std::size_t>(max_relationships);
  options.streaming.build.scape.btree_fanout = static_cast<std::size_t>(btree_fanout);
  options.streaming.build.build_scape = build_scape == 1;
  options.streaming.build.build_dft = build_dft == 1;
  options.streaming.build.dft_coefficients = static_cast<std::size_t>(dft_coefficients);
  incremental.exact_refit_period = static_cast<std::size_t>(refit_period);
  options.streaming.incremental = incremental;
  if (version == 2) {
    // The removed cross-pair cache's budget and resync period.
    std::uint64_t discarded = 0;
    if (!ReadU64(in, &discarded) || !ReadU64(in, &discarded)) {
      return Status::InvalidArgument("'" + path + "': corrupt cross-cache section");
    }
  }
  options.streaming.build.threads = threads;

  AFFINITY_ASSIGN_OR_RETURN(
      SeriesPartitioner partitioner,
      SeriesPartitioner::FromAssignment(assignment, options.shards, options.partition));

  std::unique_ptr<ThreadPool> pool;
  if (threads != 1) pool = std::make_unique<ThreadPool>(threads);
  ShardedAffinity service(options, std::move(partitioner), std::move(pool));
  service.shards_.reserve(options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    auto model = core::ReadModelStream(in);
    if (!model.ok()) {
      return Status(model.status().code(), "'" + path + "' shard " + std::to_string(s) + ": " +
                                               std::string(model.status().message()));
    }
    if (model->data().n() != service.router_.partitioner().group(s).size()) {
      return Status::InvalidArgument("'" + path + "' shard " + std::to_string(s) +
                                     ": model width disagrees with the shard assignment");
    }
    AFFINITY_ASSIGN_OR_RETURN(
        core::StreamingAffinity stream,
        core::StreamingAffinity::Restore(std::move(model).value(), options.streaming,
                                         service.exec_));
    service.shards_.push_back(std::move(stream));
  }
  service.append_results_.resize(options.shards);
  // Logical row numbering restarts at `window` (each restored shard's
  // resident window is its whole history).
  service.rows_ = options.streaming.window;
  // First router epoch: the restored shard snapshots form generation 1
  // (every restored shard published in Restore).
  service.PublishRouterSnapshot();
  return service;
}

}  // namespace affinity::shard
