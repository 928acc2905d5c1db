// Outside-in tracing for the traced run (--trace 1).
//
// Spans are recorded by the benchmark's own code around each call into a
// layer's public functions: name, start, end, parent span, and the id of
// the operation (one redundant run, injection or fuzz input) they belong
// to. The operation's root span carries its cell (workload, stagger,
// variant, ...). Spans stay in memory and are written out once at exit.
//
// The monitor hooks fire once per 32-cycle batch (hundreds of thousands of
// calls per pass), so they are not recorded one by one: a TimedObserver
// proxy sums their time and call counts, and the enclosing `soc.run` span
// gets one aggregate child span, `safedm.observe`, whose duration is that
// sum and whose `calls` field counts the hook calls it covers.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "safedm/soc/soc.hpp"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Start a new operation; spans until end_op() share its id and nest
  /// under its root span, which records `cell`.
  void begin_op(const char* name, std::string cell);
  void end_op();

  /// Open a span nested in the innermost open one; returns a handle for
  /// close(). When disabled, records nothing and returns 0.
  std::size_t open(const char* name);
  /// Close a span; returns its duration in seconds (0 when disabled).
  double close(std::size_t handle);
  /// Record an aggregate child of the innermost open span covering
  /// `seconds` of time spread over `calls` calls.
  void add_aggregate(const char* name, double seconds, unsigned long long calls);

  std::size_t span_count() const { return spans_.size(); }
  /// Write every span as JSON (one object per line inside an array).
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    unsigned long long op;
    long long parent;  // span index, -1 for an operation root
    double start, end;  // seconds since the tracer was created
    unsigned long long calls;  // 0: one contiguous call; n: aggregate of n calls
    std::string cell;  // operation roots only
  };
  double now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // stack of open span indices
  unsigned long long next_op_ = 0;
};

/// Timing proxy between the SoC and SafeDM: forwards all four observer
/// hooks unchanged and accumulates the time spent inside them.
class TimedObserver final : public safedm::soc::CycleObserver {
 public:
  explicit TimedObserver(safedm::soc::CycleObserver& target) : target_(target) {}

  void on_cycle(safedm::u64 cycle, const safedm::core::CoreTapFrame& frame0,
                const safedm::core::CoreTapFrame& frame1) override;
  void on_cycles(safedm::u64 first_cycle, const safedm::core::CoreTapFrame* frame0,
                 const safedm::core::CoreTapFrame* frame1, unsigned n) override;
  void on_group_cycle(safedm::u64 cycle, const safedm::core::CoreTapFrame* const* frames,
                      unsigned n_replicas) override;
  void on_group_cycles(safedm::u64 first_cycle, const safedm::core::CoreTapFrame* const* frames,
                       unsigned n_replicas, unsigned n_cycles) override;

  double seconds = 0;
  safedm::u64 batch_calls = 0;     // on_cycles / on_group_cycles
  safedm::u64 cycle_calls = 0;     // on_cycle / on_group_cycle
  safedm::u64 batched_cycles = 0;  // cycles delivered through batch calls

 private:
  safedm::soc::CycleObserver& target_;
};

}  // namespace perfbench
