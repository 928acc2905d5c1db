#include "trace.hpp"

#include <cstdio>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

void json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) >= 0x20) std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

void Tracer::begin_op(const char* name, std::string cell) {
  if (!enabled_) return;
  ++next_op_;
  open_.clear();
  spans_.push_back({name, next_op_, -1, now(), 0, 0, std::move(cell)});
  open_.push_back(spans_.size() - 1);
}

void Tracer::end_op() {
  if (!enabled_ || open_.empty()) return;
  spans_[open_.front()].end = now();
  open_.clear();
}

std::size_t Tracer::open(const char* name) {
  if (!enabled_) return 0;
  const long long parent = open_.empty() ? -1 : static_cast<long long>(open_.back());
  spans_.push_back({name, next_op_, parent, now(), 0, 0, {}});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double Tracer::close(std::size_t handle) {
  if (!enabled_) return 0;
  Span& span = spans_[handle];
  span.end = now();
  while (!open_.empty() && open_.back() >= handle) open_.pop_back();
  return span.end - span.start;
}

void Tracer::add_aggregate(const char* name, double seconds, unsigned long long calls) {
  if (!enabled_) return;
  const long long parent = open_.empty() ? -1 : static_cast<long long>(open_.back());
  const double start = parent < 0 ? now() : spans_[static_cast<std::size_t>(parent)].start;
  spans_.push_back({name, next_op_, parent, start, start + seconds, calls, {}});
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"id\": %zu, \"name\": \"%s\", \"op\": %llu, \"parent\": %lld, "
                    "\"start_s\": %.9f, \"end_s\": %.9f",
                 i, s.name, s.op, s.parent, s.start, s.end);
    if (s.calls) std::fprintf(f, ", \"calls\": %llu", s.calls);
    if (!s.cell.empty()) {
      std::fputs(", \"cell\": ", f);
      json_string(f, s.cell);
    }
    std::fputs(i + 1 < spans_.size() ? "},\n" : "}\n", f);
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

void TimedObserver::on_cycle(safedm::u64 cycle, const safedm::core::CoreTapFrame& frame0,
                             const safedm::core::CoreTapFrame& frame1) {
  const auto start = Clock::now();
  target_.on_cycle(cycle, frame0, frame1);
  seconds += std::chrono::duration<double>(Clock::now() - start).count();
  ++cycle_calls;
}

void TimedObserver::on_cycles(safedm::u64 first_cycle, const safedm::core::CoreTapFrame* frame0,
                              const safedm::core::CoreTapFrame* frame1, unsigned n) {
  const auto start = Clock::now();
  target_.on_cycles(first_cycle, frame0, frame1, n);
  seconds += std::chrono::duration<double>(Clock::now() - start).count();
  ++batch_calls;
  batched_cycles += n;
}

void TimedObserver::on_group_cycle(safedm::u64 cycle,
                                   const safedm::core::CoreTapFrame* const* frames,
                                   unsigned n_replicas) {
  const auto start = Clock::now();
  target_.on_group_cycle(cycle, frames, n_replicas);
  seconds += std::chrono::duration<double>(Clock::now() - start).count();
  ++cycle_calls;
}

void TimedObserver::on_group_cycles(safedm::u64 first_cycle,
                                    const safedm::core::CoreTapFrame* const* frames,
                                    unsigned n_replicas, unsigned n_cycles) {
  const auto start = Clock::now();
  target_.on_group_cycles(first_cycle, frames, n_replicas, n_cycles);
  seconds += std::chrono::duration<double>(Clock::now() - start).count();
  ++batch_calls;
  batched_cycles += n_cycles;
}

}  // namespace perfbench
