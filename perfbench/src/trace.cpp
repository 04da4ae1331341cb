#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {
thread_local std::vector<std::int64_t> t_open;  // ids of this thread's open spans
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

Tracer::Scope::Scope(const char* name, std::uint64_t request) : name_(name), request_(request) {
  Tracer& tracer = instance();
  if (!tracer.enabled()) return;
  id_ = tracer.next_id();
  parent_ = t_open.empty() ? -1 : t_open.back();
  t_open.push_back(id_);
  start_ns_ = now_ns();
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  const std::int64_t end = now_ns();
  t_open.pop_back();
  Tracer& tracer = instance();
  std::lock_guard<std::mutex> lock(tracer.mutex_);
  tracer.spans_.push_back({name_, start_ns_, end, id_, parent_, request_});
}

void Tracer::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t request) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, next_id_++, -1, request});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].push_back({lo, hi});
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : kids) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered) / 1e6;
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::self_ms_by_name() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times_ms(all);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < all.size(); ++i) out[all[i].name].push_back(self[i]);
  return out;
}

std::map<std::string, std::vector<double>> Tracer::duration_ms_by_name() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans()) {
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

bool Tracer::dump(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans()) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
