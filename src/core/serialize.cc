#include "core/serialize.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

namespace affinity::core {

namespace {

constexpr char kMagic[4] = {'A', 'F', 'F', 'M'};

/// Serialized record sizes: pivot (series, cluster, side flag), affHash
/// record (key, pivot, six transform coefficients), pivotHash record (key,
/// pivot, fourteen measures and the sample count).
constexpr std::size_t kPivotBytes = 4 + 4 + 1;
constexpr std::size_t kRelationshipBytes = 8 + kPivotBytes + 6 * 8;
constexpr std::size_t kPivotRecordBytes = 8 + kPivotBytes + 14 * 8 + 8;

/// Buffered little-endian-naive binary writer.
class Writer {
 public:
  explicit Writer(std::ostream* out) : out_(out) {}

  void U32(std::uint32_t v) { Raw(&v, sizeof v); }
  void U64(std::uint64_t v) { Raw(&v, sizeof v); }
  void Size(std::size_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Bool(bool v) {
    const std::uint8_t b = v ? 1 : 0;
    Raw(&b, 1);
  }
  void Str(const std::string& s) {
    Size(s.size());
    Raw(s.data(), s.size());
  }
  void F64Span(const double* data, std::size_t count) { Raw(data, count * sizeof(double)); }

  bool ok() const { return static_cast<bool>(*out_); }

 private:
  void Raw(const void* data, std::size_t bytes) {
    out_->write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  }
  std::ostream* out_;
};

/// Binary reader with truncation checks; any failure poisons the stream.
class Reader {
 public:
  /// When the stream can report its length (files and string streams can),
  /// the unread byte count bounds every count the payload declares.
  explicit Reader(std::istream* in) : in_(in) {
    const std::streampos here = in->tellg();
    if (here == std::streampos(-1)) return;
    if (in->seekg(0, std::ios::end)) {
      const std::streampos end = in->tellg();
      if (end != std::streampos(-1) && end >= here) {
        remaining_ = static_cast<std::uint64_t>(end - here);
      }
    }
    in->clear();
    in->seekg(here);
  }

  std::uint32_t U32() {
    std::uint32_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  std::size_t Size(std::size_t sanity_max) {
    const std::uint64_t v = U64();
    if (v > sanity_max) fail_ = true;
    return fail_ ? 0 : static_cast<std::size_t>(v);
  }
  /// A declared count of `item_bytes`-sized records that must still fit in
  /// the unread payload, so a corrupt count cannot size an allocation.
  std::size_t Count(std::size_t sanity_max, std::size_t item_bytes) {
    const std::size_t v = Size(sanity_max);
    return Holds(v, item_bytes) ? v : 0;
  }
  /// False (and the stream poisoned) unless `count` items of `item_bytes`
  /// each can still be read.
  bool Holds(std::uint64_t count, std::size_t item_bytes) {
    if (count > remaining_ / item_bytes) fail_ = true;
    return !fail_;
  }
  double F64() {
    double v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  bool Bool() {
    std::uint8_t b = 0;
    Raw(&b, 1);
    if (b > 1) fail_ = true;
    return b == 1;
  }
  std::string Str() {
    const std::size_t len = Size(1u << 20);
    std::string s(len, '\0');
    Raw(s.data(), len);
    return s;
  }
  void F64Span(double* data, std::size_t count) { Raw(data, count * sizeof(double)); }

  bool ok() const { return !fail_ && static_cast<bool>(*in_); }

 private:
  void Raw(void* data, std::size_t bytes) {
    if (fail_) return;
    in_->read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
    if (in_->gcount() != static_cast<std::streamsize>(bytes)) fail_ = true;
    remaining_ -= std::min<std::uint64_t>(remaining_, bytes);
  }
  std::istream* in_;
  std::uint64_t remaining_ = ~std::uint64_t{0};  ///< unread bytes, when known
  bool fail_ = false;
};

void WriteMatrix(Writer* w, const la::Matrix& mat) {
  w->Size(mat.rows());
  w->Size(mat.cols());
  for (std::size_t j = 0; j < mat.cols(); ++j) w->F64Span(mat.ColData(j), mat.rows());
}

la::Matrix ReadMatrix(Reader* r) {
  const std::size_t rows = r->Size(1u << 28);
  const std::size_t cols = r->Size(1u << 28);
  if (!r->ok() || !r->Holds(static_cast<std::uint64_t>(rows) * cols, sizeof(double))) {
    return la::Matrix();
  }
  la::Matrix mat(rows, cols);
  for (std::size_t j = 0; j < cols; ++j) r->F64Span(mat.ColData(j), rows);
  return mat;
}

void WritePivot(Writer* w, const PivotPair& p) {
  w->U32(p.series);
  w->U32(p.cluster);
  w->Bool(p.series_first);
}

PivotPair ReadPivot(Reader* r) {
  PivotPair p;
  p.series = r->U32();
  p.cluster = r->U32();
  p.series_first = r->Bool();
  return p;
}

void WriteMeasures(Writer* w, const PairMatrixMeasures& pm) {
  for (int i = 0; i < 2; ++i) w->F64(pm.mean[i]);
  for (int i = 0; i < 2; ++i) w->F64(pm.median[i]);
  for (int i = 0; i < 2; ++i) w->F64(pm.mode[i]);
  w->F64(pm.cov11);
  w->F64(pm.cov12);
  w->F64(pm.cov22);
  w->F64(pm.dot11);
  w->F64(pm.dot12);
  w->F64(pm.dot22);
  w->F64(pm.h1);
  w->F64(pm.h2);
  w->Size(pm.m);
}

PairMatrixMeasures ReadMeasures(Reader* r) {
  PairMatrixMeasures pm;
  for (int i = 0; i < 2; ++i) pm.mean[i] = r->F64();
  for (int i = 0; i < 2; ++i) pm.median[i] = r->F64();
  for (int i = 0; i < 2; ++i) pm.mode[i] = r->F64();
  pm.cov11 = r->F64();
  pm.cov12 = r->F64();
  pm.cov22 = r->F64();
  pm.dot11 = r->F64();
  pm.dot12 = r->F64();
  pm.dot22 = r->F64();
  pm.h1 = r->F64();
  pm.h2 = r->F64();
  pm.m = r->Size(1u << 30);
  return pm;
}

}  // namespace

Status SaveModel(const AffinityModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  AFFINITY_RETURN_IF_ERROR(WriteModelStream(model, out));
  out.flush();
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

Status WriteModelStream(const AffinityModel& model, std::ostream& out) {
  Writer w(&out);

  out.write(kMagic, sizeof kMagic);
  w.U32(kModelFormatVersion);

  // Data matrix + names + block-grid anchor.
  WriteMatrix(&w, model.data_.matrix());
  w.Size(model.data_.names().size());
  for (const std::string& name : model.data_.names()) w.Str(name);
  w.Size(model.data_.anchor_row());

  // Clustering.
  WriteMatrix(&w, model.clustering_.centers);
  w.Size(model.clustering_.assignment.size());
  for (int a : model.clustering_.assignment) w.U32(static_cast<std::uint32_t>(a));
  w.U32(static_cast<std::uint32_t>(model.clustering_.iterations));
  w.Size(model.clustering_.projection_errors.size());
  w.F64Span(model.clustering_.projection_errors.data(),
            model.clustering_.projection_errors.size());

  // affHash — ForEachRelationship visits in ascending key order, so the
  // byte stream is canonical for a given model: it cannot drift with the
  // hash-table layout. The reader inserts by key, so order is free.
  w.Size(model.aff_hash_.size());
  model.ForEachRelationship([&](const ts::SequencePair& e, const AffineRecord& rec) {
    w.U64((static_cast<std::uint64_t>(e.u) << 32) | static_cast<std::uint64_t>(e.v));
    WritePivot(&w, rec.pivot);
    w.F64(rec.transform.a11);
    w.F64(rec.transform.a21);
    w.F64(rec.transform.a12);
    w.F64(rec.transform.a22);
    w.F64(rec.transform.b1);
    w.F64(rec.transform.b2);
  });

  // pivotHash — same canonical order as affHash.
  w.Size(model.pivot_hash_.size());
  model.ForEachPivot([&](const PivotPair& p, const PairMatrixMeasures& pm) {
    w.U64(p.Key());
    WritePivot(&w, p);
    WriteMeasures(&w, pm);
  });

  // Per-series stats + series-level relationships.
  w.Size(model.series_stats_.size());
  for (const SeriesStats& st : model.series_stats_) {
    w.F64(st.mean);
    w.F64(st.variance);
    w.F64(st.sumsq);
    w.F64(st.sum);
  }
  w.Size(model.series_affine_.size());
  for (const SeriesAffine& sa : model.series_affine_) {
    w.F64(sa.gain);
    w.F64(sa.offset);
  }

  // Centre L-measures.
  w.Size(model.center_loc_.size());
  for (const auto& row : model.center_loc_) {
    w.Size(row.size());
    w.F64Span(row.data(), row.size());
  }

  // Build stats.
  w.Size(model.stats_.relationships);
  w.Size(model.stats_.pivots);
  w.Size(model.stats_.cache_hits);
  w.Size(model.stats_.cache_misses);
  w.F64(model.stats_.afclst_seconds);
  w.F64(model.stats_.march_seconds);
  w.F64(model.stats_.preprocess_seconds);

  if (!w.ok()) return Status::IoError("model stream write failed");
  return Status::OK();
}

StatusOr<AffinityModel> LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  auto model = ReadModelStream(in);
  if (!model.ok()) {
    return Status(model.status().code(), "'" + path + "': " + model.status().message());
  }
  return model;
}

StatusOr<AffinityModel> ReadModelStream(std::istream& in) {
  Reader r(&in);

  char magic[4] = {};
  in.read(magic, sizeof magic);
  if (in.gcount() != 4 || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("not an AFFINITY model payload");
  }
  const std::uint32_t version = r.U32();
  if (version < kMinModelFormatVersion || version > kModelFormatVersion) {
    return Status::InvalidArgument("unsupported model format version " +
                                   std::to_string(version));
  }

  AffinityModel model;

  la::Matrix values = ReadMatrix(&r);
  const std::size_t name_count = r.Count(1u << 28, sizeof(std::uint64_t));
  if (!r.ok() || name_count != values.cols()) {
    return Status::InvalidArgument("corrupt data-matrix section");
  }
  std::vector<std::string> names(name_count);
  for (auto& name : names) name = r.Str();
  // v1 payloads predate the block-grid anchor; they were written (and
  // their measures computed) at the historic phase-0 order, so 0 is the
  // faithful default, not merely a safe one.
  const std::size_t anchor = version >= 2 ? r.Size(~std::size_t{0} >> 1) : 0;
  if (!r.ok()) return Status::InvalidArgument("corrupt names section");
  model.data_ = ts::DataMatrix(std::move(values), std::move(names));
  model.data_.set_anchor_row(anchor);

  model.clustering_.centers = ReadMatrix(&r);
  const std::size_t assign_count = r.Count(1u << 28, sizeof(std::uint32_t));
  model.clustering_.assignment.resize(assign_count);
  for (auto& a : model.clustering_.assignment) a = static_cast<int>(r.U32());
  model.clustering_.iterations = static_cast<int>(r.U32());
  const std::size_t proj_count = r.Count(1u << 28, sizeof(double));
  model.clustering_.projection_errors.resize(proj_count);
  r.F64Span(model.clustering_.projection_errors.data(), proj_count);
  if (!r.ok() || assign_count != model.data_.n()) {
    return Status::InvalidArgument("corrupt clustering section");
  }
  // Every id a later stage indexes by is checked against the sections it
  // names, so a corrupt payload is rejected here rather than reaching an
  // internal check or an out-of-bounds access in index construction.
  const std::size_t n = model.data_.n();
  const std::size_t clusters = model.clustering_.k();
  for (const int a : model.clustering_.assignment) {
    if (a < 0 || static_cast<std::size_t>(a) >= clusters) {
      return Status::InvalidArgument("clustering assigns a series to cluster " +
                                     std::to_string(a) + " of " + std::to_string(clusters));
    }
  }
  const auto pivot_in_range = [&](const PivotPair& p) {
    return p.series < n && p.cluster < clusters;
  };

  // At most one relationship per sequence pair and one pivot per (series,
  // cluster, side): larger counts are corrupt, and must not size a reserve.
  const std::size_t rel_count = r.Count(ts::SequencePairCount(n), kRelationshipBytes);
  model.aff_hash_.reserve(rel_count);
  // Each relationship's pivot key in stream order, checked against
  // pivotHash once that section is read.
  std::vector<std::uint64_t> rel_pivot_keys;
  for (std::size_t i = 0; i < rel_count && r.ok(); ++i) {
    const std::uint64_t key = r.U64();
    AffineRecord rec;
    rec.pivot = ReadPivot(&r);
    rec.transform.a11 = r.F64();
    rec.transform.a21 = r.F64();
    rec.transform.a12 = r.F64();
    rec.transform.a22 = r.F64();
    rec.transform.b1 = r.F64();
    rec.transform.b2 = r.F64();
    const auto u = static_cast<std::uint32_t>(key >> 32);
    const auto v = static_cast<std::uint32_t>(key);
    if (r.ok() && (u >= v || v >= n || !pivot_in_range(rec.pivot))) {
      return Status::InvalidArgument("relationship " + std::to_string(i) +
                                     " names a series id out of range (n=" +
                                     std::to_string(n) + ")");
    }
    rel_pivot_keys.push_back(rec.pivot.Key());
    model.aff_hash_.emplace(key, rec);
  }

  const std::size_t pivot_count = r.Count(2 * n * clusters, kPivotRecordBytes);
  model.pivot_hash_.reserve(pivot_count);
  for (std::size_t i = 0; i < pivot_count && r.ok(); ++i) {
    const std::uint64_t key = r.U64();
    PivotHashEntry entry;
    entry.pivot = ReadPivot(&r);
    entry.measures = ReadMeasures(&r);
    if (r.ok() && (!pivot_in_range(entry.pivot) || entry.pivot.Key() != key)) {
      return Status::InvalidArgument("pivot " + std::to_string(i) +
                                     " names a series or cluster out of range");
    }
    model.pivot_hash_.emplace(key, entry);
  }

  const std::size_t stats_count = r.Count(1u << 28, 4 * sizeof(double));
  model.series_stats_.resize(stats_count);
  for (auto& st : model.series_stats_) {
    st.mean = r.F64();
    st.variance = r.F64();
    st.sumsq = r.F64();
    st.sum = r.F64();
  }
  const std::size_t affine_count = r.Count(1u << 28, 2 * sizeof(double));
  model.series_affine_.resize(affine_count);
  for (auto& sa : model.series_affine_) {
    sa.gain = r.F64();
    sa.offset = r.F64();
  }
  if (!r.ok() || stats_count != model.data_.n() || affine_count != model.data_.n()) {
    return Status::InvalidArgument("corrupt per-series section");
  }

  const std::size_t loc_rows = r.Size(16);
  model.center_loc_.resize(loc_rows);
  bool loc_shape_ok = loc_rows == 3;
  for (auto& row : model.center_loc_) {
    const std::size_t cols = r.Count(1u << 28, sizeof(double));
    row.resize(cols);
    r.F64Span(row.data(), cols);
    loc_shape_ok = loc_shape_ok && cols == clusters;
  }
  if (r.ok() && !loc_shape_ok) return Status::InvalidArgument("corrupt centre-location section");

  model.stats_.relationships = r.Size(1u << 30);
  model.stats_.pivots = r.Size(1u << 30);
  model.stats_.cache_hits = r.Size(~std::size_t{0} >> 1);
  model.stats_.cache_misses = r.Size(~std::size_t{0} >> 1);
  model.stats_.afclst_seconds = r.F64();
  model.stats_.march_seconds = r.F64();
  model.stats_.preprocess_seconds = r.F64();

  if (!r.ok()) return Status::InvalidArgument("truncated or corrupt payload");
  if (model.stats_.relationships != model.aff_hash_.size() ||
      model.stats_.pivots != model.pivot_hash_.size()) {
    return Status::InvalidArgument("inconsistent section counts");
  }
  for (std::size_t i = 0; i < rel_pivot_keys.size(); ++i) {
    if (model.pivot_hash_.find(rel_pivot_keys[i]) == model.pivot_hash_.end()) {
      return Status::InvalidArgument("relationship " + std::to_string(i) +
                                     " names a pivot absent from pivotHash");
    }
  }
  return model;
}

}  // namespace affinity::core
