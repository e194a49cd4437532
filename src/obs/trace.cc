#include "obs/trace.h"

#include <algorithm>
#include <utility>

namespace inverda {
namespace obs {

thread_local Tracer::ThreadState Tracer::tls_;

int TraceSpan::TotalSpans() const {
  int total = 1;
  for (const TraceSpan& c : children) total += c.TotalSpans();
  return total;
}

void TraceSpan::Collect(const std::string& span_name,
                        std::vector<const TraceSpan*>* out) const {
  if (name == span_name) out->push_back(this);
  for (const TraceSpan& c : children) c.Collect(span_name, out);
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::string TraceSpan::ToJson() const {
  std::string out = "{\"name\":\"" + JsonEscape(name) + "\"";
  if (!label.empty()) out += ",\"label\":\"" + JsonEscape(label) + "\"";
  if (smo >= 0) out += ",\"smo\":" + std::to_string(smo);
  if (!route.empty()) out += ",\"route\":\"" + JsonEscape(route) + "\"";
  if (!side.empty()) {
    out += ",\"side\":\"" + JsonEscape(side) +
           "\",\"index\":" + std::to_string(index);
  }
  if (!kernel.empty()) out += ",\"kernel\":\"" + JsonEscape(kernel) + "\"";
  if (!smo_text.empty()) {
    out += ",\"smo_text\":\"" + JsonEscape(smo_text) + "\"";
  }
  if (fused > 0) {
    out += ",\"fused\":" + std::to_string(fused) + ",\"fused_hops\":[";
    for (size_t i = 0; i < fused_hops.size(); ++i) {
      if (i) out += ",";
      out += "{\"kernel\":\"" + JsonEscape(fused_hops[i].first) +
             "\",\"smo_text\":\"" + JsonEscape(fused_hops[i].second) + "\"}";
    }
    out += "],\"fused_layout\":\"" + JsonEscape(fused_layout) + "\"";
  }
  if (!note.empty()) out += ",\"note\":\"" + JsonEscape(note) + "\"";
  out += ",\"rows_in\":" + std::to_string(rows_in) +
         ",\"rows_out\":" + std::to_string(rows_out);
  if (name == "propagate") {
    out += ",\"rows_visited\":" + std::to_string(rows_visited);
  }
  out += ",\"duration_ns\":" + std::to_string(duration_ns);
  if (!children.empty()) {
    out += ",\"children\":[";
    for (size_t i = 0; i < children.size(); ++i) {
      if (i) out += ",";
      out += children[i].ToJson();
    }
    out += "]";
  }
  out += "}";
  return out;
}

TraceSpan* Tracer::Begin(const char* name) {
  ThreadState& ts = tls_;
  if (ts.owner != nullptr && ts.owner != this) return nullptr;
  if (ts.owner == nullptr) {
    ts.owner = this;
    ts.root = std::make_unique<TraceSpan>();
    ts.root->name = name;
    ts.root->start_ns = NowNanos();
    ts.stack.push_back(ts.root.get());
    return ts.root.get();
  }
  TraceSpan* parent = ts.stack.back();
  parent->children.emplace_back();
  TraceSpan* span = &parent->children.back();
  span->name = name;
  span->start_ns = NowNanos();
  ts.stack.push_back(span);
  return span;
}

void Tracer::End(TraceSpan* span) {
  ThreadState& ts = tls_;
  span->duration_ns = NowNanos() - span->start_ns;
  // RAII guards close innermost-first, so `span` is the stack top.
  ts.stack.pop_back();
  if (!ts.stack.empty()) return;
  std::shared_ptr<const TraceSpan> done(ts.root.release());
  ts.owner = nullptr;
  completed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(done));
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<std::shared_ptr<const TraceSpan>> Tracer::Last(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const TraceSpan>> out;
  size_t take = std::min(n, ring_.size());
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back(ring_[ring_.size() - 1 - i]);  // newest first
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
}

void Tracer::set_capacity(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = n == 0 ? 1 : n;
  while (ring_.size() > capacity_) ring_.pop_front();
}

}  // namespace obs
}  // namespace inverda
