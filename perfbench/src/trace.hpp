// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into the program's public functions; the
// program itself is not instrumented. A span knows its name, start, end, the
// span that was open on the same thread when it began (its parent), and the
// request it belongs to. Self time is a span's duration minus the part of it
// covered by its children. When tracing is off a scope costs one branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 = root
  std::uint64_t request = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// RAII span: opened by the constructor, recorded by the destructor.
  class Scope {
   public:
    Scope(const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const char* name_;
    std::uint64_t request_;
    std::int64_t id_ = -1;
    std::int64_t parent_ = -1;
    std::int64_t start_ns_ = 0;
  };

  /// Records a span measured elsewhere (e.g. a request's scheduled send to
  /// its reply, which starts before any code runs for it).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request);

  std::vector<Span> spans() const;
  /// Self time (ms) of every recorded span, grouped by span name.
  std::map<std::string, std::vector<double>> self_ms_by_name() const;
  /// Whole duration (ms) of every recorded span, grouped by span name.
  std::map<std::string, std::vector<double>> duration_ms_by_name() const;
  /// Writes all spans as JSON lines; false when the file cannot be written.
  bool dump(const std::string& path) const;

  static std::int64_t now_ns();

 private:
  std::int64_t next_id();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::int64_t next_id_ = 0;
};

/// Self time per span given all spans: duration minus the union of the
/// children's intervals clipped to the parent. Exposed for the tests.
std::vector<double> self_times_ms(const std::vector<Span>& spans);

}  // namespace perfbench
