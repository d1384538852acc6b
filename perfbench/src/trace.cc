#include "trace.h"

namespace affinity::perfbench {

Tracer::ThreadBuffer& Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
    local->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    local->spans.reserve(1 << 16);
  }
  return *local;
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    const auto offset = static_cast<std::int64_t>(all.size());
    for (SpanRecord span : buffer->spans) {
      if (span.parent >= 0) span.parent += offset;
      all.push_back(span);
    }
  }
  return all;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  buffer_ = &tracer.Local();
  SpanRecord span;
  span.name = name;
  span.thread = buffer_->thread;
  if (!buffer_->open.empty()) {
    span.parent = buffer_->open.back();
    if (request == 0) request = buffer_->spans[static_cast<std::size_t>(span.parent)].request;
  }
  span.request = request;
  index_ = static_cast<std::int64_t>(buffer_->spans.size());
  buffer_->open.push_back(index_);
  span.begin_ns = NowNs();
  buffer_->spans.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[static_cast<std::size_t>(index_)].end_ns = NowNs();
  buffer_->open.pop_back();
}

void ScopedSpan::Rename(const char* name) {
  if (buffer_ != nullptr) buffer_->spans[static_cast<std::size_t>(index_)].name = name;
}

}  // namespace affinity::perfbench
