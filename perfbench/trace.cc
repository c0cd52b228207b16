#include "trace.h"

#include <atomic>
#include <fstream>
#include <memory>

namespace gemrec::perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint32_t> g_next_id{1};

/// Per-thread span buffers, owned by the registry so spans outlive
/// the threads that recorded them.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

std::vector<Span>* ThreadBuffer() {
  thread_local std::vector<Span>* buffer = [] {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.buffers.push_back(std::make_unique<std::vector<Span>>());
    registry.buffers.back()->reserve(1 << 16);
    return registry.buffers.back().get();
  }();
  return buffer;
}

thread_local uint32_t t_current_span = 0;

}  // namespace

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> Tracer::Collect() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<Span> all;
  for (const auto& buffer : registry.buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

bool Tracer::WriteJsonLines(const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : Collect()) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t request) {
  if (!enabled()) return;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = t_current_span;
  span.request = request;
  ThreadBuffer()->push_back(span);
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  if (!Tracer::enabled()) return;
  active_ = true;
  span_.name = name;
  span_.request = request;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = Tracer::NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = Tracer::NowNs();
  t_current_span = span_.parent;
  ThreadBuffer()->push_back(span_);
}

}  // namespace gemrec::perfbench
