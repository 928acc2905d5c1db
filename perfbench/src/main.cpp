// perfbench: end-to-end benchmark of the SafeDM simulator.
//
//   perfbench --workload table1|campaign|fuzz|group --seed N --seconds S
//             --trace 0|1 [--root DIR] [--trace-file PATH] [--pin]
//
// Repeats checked passes for S seconds, timing bursts of repeated set-ups
// before and between them (the median is reported). The metric names and
// units are those BENCHMARK.json under --root lists. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 untraced
// and traced passes alternate, the per-layer metrics come from the traced
// passes, and the spans are written to --trace-file. --pin prints the
// expected/<workload>.json that pins this run's outputs instead.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"
#include "safedm/common/log.hpp"

namespace perfbench {
namespace {

constexpr char kUsage[] =
    "usage: perfbench --workload table1|campaign|fuzz|group --seed N --seconds S --trace 0|1\n"
    "                 [--root DIR] [--trace-file PATH] [--pin]\n";

constexpr unsigned kSetupBurst = 5;           // set-up samples per burst
constexpr double kSetupSampleSeconds = 0.05;  // of back-to-back set-ups per sample

struct Metric {
  std::string name, unit;
};

/// The metrics BENCHMARK.json lists under `key` ("end_to_end" or
/// "per_layer"), in file order: the one list of names and units.
std::vector<Metric> listed_metrics(const safedm::scenario::JsonValue& bench, const char* key) {
  std::vector<Metric> out;
  for (const safedm::scenario::JsonValue& m : json_member(bench, key).items)
    out.push_back({json_member(m, "name").text, json_member(m, "unit").text});
  return out;
}

/// Pair every listed metric with its measured value, in list order. A
/// measured name the list lacks is a fatal error, so a rename on either
/// side cannot go unnoticed. A listed name this run did not measure (a
/// layer the workload does not run) reports 0 when `allow_absent`, and is
/// a fatal error otherwise.
std::vector<std::pair<Metric, double>> match_metrics(const std::vector<Metric>& listed,
                                                     const std::map<std::string, double>& measured,
                                                     bool allow_absent) {
  std::vector<std::pair<Metric, double>> out;
  for (const auto& [name, value] : measured)
    if (std::none_of(listed.begin(), listed.end(), [&](const Metric& m) { return m.name == name; })) {
      std::fprintf(stderr, "perfbench: measured metric %s is not listed in BENCHMARK.json\n",
                   name.c_str());
      std::exit(2);
    }
  for (const Metric& m : listed) {
    const auto it = measured.find(m.name);
    if (it == measured.end() && !allow_absent) {
      std::fprintf(stderr, "perfbench: BENCHMARK.json lists %s, which perfbench does not measure\n",
                   m.name.c_str());
      std::exit(2);
    }
    out.push_back({m, it == measured.end() ? 0.0 : it->second});
  }
  return out;
}

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string root = ".";
  std::string trace_file;
  bool pin = false;
};

[[noreturn]] void usage_error(const char* message, const char* value) {
  std::fprintf(stderr, "perfbench: %s%s\n%s", message, value ? value : "", kUsage);
  std::exit(2);
}

u64 parse_number(const char* flag, const char* text, u64 lo, u64 hi) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (!*text || *end || text[0] == '-' || value < lo || value > hi)
    usage_error("bad value for ", flag);
  return value;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--pin") == 0) {
      o.pin = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for ", flag);
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      o.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      o.seed = parse_number(flag, value, 0, ~u64{0});
    } else if (std::strcmp(flag, "--seconds") == 0) {
      o.seconds = static_cast<double>(parse_number(flag, value, 1, 3600));
    } else if (std::strcmp(flag, "--trace") == 0) {
      o.trace = static_cast<int>(parse_number(flag, value, 0, 1));
    } else if (std::strcmp(flag, "--root") == 0) {
      o.root = value;
    } else if (std::strcmp(flag, "--trace-file") == 0) {
      o.trace_file = value;
    } else {
      usage_error("unknown option ", flag);
    }
  }
  if (o.workload.empty() || o.seconds == 0 || o.trace < 0)
    usage_error("--workload, --seconds and --trace are required", nullptr);
  return o;
}

/// Peak resident set of this process image, from /proc/self/status
/// VmHWM. (getrusage's ru_maxrss would also count the pre-exec image of
/// the launching process.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f))
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

/// Operations per reference second (see calibrate.hpp).
double rate(const PassResult& p) {
  return static_cast<double>(p.ops()) / (p.seconds * p.ref_factor);
}

/// The pass-level pins that apply to this run: the "pass" object of the
/// pin file when the workload is seedless or the seed is the pinned one.
const safedm::scenario::JsonValue* applicable_pass_pins(const Workload& workload,
                                                        const safedm::scenario::JsonValue& pins,
                                                        u64 seed) {
  if (workload.seeded() && json_u64(json_member(pins, "pinned_seed")) != seed) return nullptr;
  return &json_member(pins, "pass");
}

/// `model_ref` is the first pass that read model statistics (table1's
/// untraced passes run the library harness, which exposes none).
void check_pass(PassResult& pass, const PassResult& first, const PassResult& model_ref,
                const safedm::scenario::JsonValue* pass_pins) {
  if (pass.digest != first.digest)
    pass.fail_pass("simulated output differs from the run's first pass");
  if (!pass.model.empty() && pass.model != model_ref.model)
    pass.fail_pass("model statistics differ from the run's first pass");
  if (!pass_pins) return;
  for (const auto& [key, value] : pass_pins->members) {
    const auto it = pass.pinned.find(key);
    if (it == pass.pinned.end() || it->second != value.text)
      pass.fail_pass("pass output \"" + key + "\" = " +
                     (it == pass.pinned.end() ? std::string("<none>") : it->second) +
                     " differs from the pinned " + value.text);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse_options(argc, argv);
  safedm::Logger::instance().set_level(safedm::LogLevel::kWarn);

  const safedm::scenario::JsonValue bench = read_json_file(opt.root + "/BENCHMARK.json");
  safedm::scenario::JsonValue pins;
  if (!opt.pin) pins = read_json_file(opt.root + "/perfbench/expected/" + opt.workload + ".json");
  const WorkloadArgs args{opt.seed, opt.root, opt.pin ? nullptr : &pins};
  const std::unique_ptr<Workload> workload = make_workload(opt.workload, args);
  if (!workload) usage_error("unknown workload ", opt.workload.c_str());

  // Set-up: a 0.2 s warm-up of back-to-back set-ups lets the CPU leave its
  // idle clock and sizes the samples. A burst of timed samples follows, and
  // another after every pass, so the samples see the host across the whole
  // run. Each sample is about kSetupSampleSeconds of repeated set-ups
  // followed by one calibration slice that scales it to reference seconds;
  // the median sample is reported. The bursts between passes set up a
  // fresh instance of the workload and destroy it afterwards, so the
  // passes keep their inputs and the heap they run on stays as it was.
  unsigned warm = 0;
  const auto warm_start = Clock::now();
  do {
    workload->setup();
    ++warm;
  } while (seconds_between(warm_start, Clock::now()) < 0.2);
  const double warm_each = seconds_between(warm_start, Clock::now()) / warm;
  const unsigned per_sample =
      std::max(1u, static_cast<unsigned>(kSetupSampleSeconds / warm_each + 0.5));
  std::vector<double> setup_s, setup_ref_s, build_s;
  const auto setup_burst = [&](Workload& target) {
    for (unsigned rep = 0; rep < kSetupBurst; ++rep) {
      double build = 0;
      const auto start = Clock::now();
      for (unsigned k = 0; k < per_sample; ++k) build += target.setup();
      const double each = seconds_between(start, Clock::now()) / per_sample;
      setup_s.push_back(each);
      setup_ref_s.push_back(each * kReferenceSlice / calibration_slice());
      build_s.push_back(build / per_sample);
    }
  };
  setup_burst(*workload);

  // Measured window: whole passes while the window has at least half a
  // pass left. Traced runs alternate untraced and traced passes.
  Calibrator calibrator;
  Tracer tracer(opt.trace == 1);
  Tracer untraced(false);
  std::vector<PassResult> plain, traced;
  const auto window = Clock::now();
  for (unsigned i = 0;; ++i) {
    const bool trace_this = opt.trace == 1 && i % 2 == 1;
    PassResult pass = workload->pass(trace_this ? tracer : untraced, calibrator);
    pass.ref_factor = calibrator.take_factor();
    pass.pinned["digest"] = hex64(pass.digest);
    (trace_this ? traced : plain).push_back(std::move(pass));
    setup_burst(*make_workload(opt.workload, args));
    const double elapsed = seconds_between(window, Clock::now());
    const double last = (trace_this ? traced : plain).back().seconds;
    const bool enough = !plain.empty() && (opt.trace == 0 || !traced.empty());
    if (opt.pin || (enough && elapsed + last / 2 > opt.seconds)) break;
  }

  if (opt.pin) {
    std::printf("{\n");
    if (workload->seeded())
      std::printf("  \"pinned_seed\": %llu,\n", static_cast<unsigned long long>(opt.seed));
    std::printf("  \"pass\": {");
    const char* sep = "";
    for (const auto& [key, value] : plain.front().pinned) {
      std::printf("%s\"%s\": \"%s\"", sep, key.c_str(), value.c_str());
      sep = ", ";
    }
    const std::string members = workload->pin_members();
    std::printf("}%s%s\n}\n", members.empty() ? "" : ",\n", members.c_str());
    return 0;
  }

  // Checks: every pass (traced ones too) reproduces the first pass's
  // simulated output and model statistics, and the pins.
  const safedm::scenario::JsonValue* pass_pins = applicable_pass_pins(*workload, pins, opt.seed);
  const PassResult& first = plain.front();
  const PassResult* model_ref = &first;
  for (const std::vector<PassResult>* group : {&plain, &traced})
    for (const PassResult& pass : *group)
      if (model_ref->model.empty() && !pass.model.empty()) model_ref = &pass;
  u64 attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (std::vector<PassResult>* group : {&plain, &traced})
    for (PassResult& pass : *group) {
      check_pass(pass, first, *model_ref, pass_pins);
      attempted += pass.ops();
      failed += pass.failed;
      errors.insert(errors.end(), pass.errors.begin(), pass.errors.end());
    }
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i)
    std::fprintf(stderr, "perfbench: FAIL %s\n", errors[i].c_str());
  if (errors.size() > 20) std::fprintf(stderr, "perfbench: ... %zu more\n", errors.size() - 20);

  // Per-pass statistics, then the median over passes, so that one pass
  // hit by a burst of host load does not move the result.
  std::vector<double> rates, traced_rates, p50s, p95s, raw_rates, raw_p50s, factors;
  for (const PassResult& p : plain) {
    rates.push_back(rate(p));
    raw_rates.push_back(static_cast<double>(p.ops()) / p.seconds);
    factors.push_back(p.ref_factor);
    raw_p50s.push_back(percentile(p.op_ms, 0.5));
    p50s.push_back(raw_p50s.back() * p.ref_factor);
    p95s.push_back(percentile(p.op_ms, 0.95) * p.ref_factor);
  }
  for (const PassResult& p : traced) traced_rates.push_back(rate(p));
  const double execs_per_s = median(rates);
  const double ops = static_cast<double>(first.ops());
  const double sim_cycles_per_s = execs_per_s * static_cast<double>(first.sim_cycles) / ops;
  const double sim_instr_per_s = execs_per_s * static_cast<double>(first.sim_instr) / ops;

  std::printf("perfbench %s seed=%llu passes=%zu+%zu traced ops/pass=%llu digest=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), plain.size(),
              traced.size(), static_cast<unsigned long long>(first.ops()),
              hex64(first.digest).c_str());
  std::printf("  failed_ops_frac = %.6g (%llu of %llu)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  if (first.sim_cycles)
    std::printf("  sim_cycles_per_s = %.6g 1/s, sim_instr_per_s = %.6g 1/s\n", sim_cycles_per_s,
                sim_instr_per_s);

  std::vector<std::pair<Metric, double>> metrics;
  if (opt.trace == 0) {
    std::printf("  host speed: %.4g reference s per host s (pass median); unnormalized: "
                "setup_s = %.6g s, execs_per_s = %.6g 1/s, run_ms_p50 = %.6g ms\n",
                median(factors), median(setup_s), median(raw_rates), median(raw_p50s));
    metrics = match_metrics(listed_metrics(bench, "end_to_end"),
                            {{"setup_s", median(setup_ref_s)},
                             {"execs_per_s", execs_per_s},
                             {"peak_rss_mb", peak_rss_mb()}},
                            false);
    // Per-operation percentiles are printed but not gated: across seeds
    // and host load their spread came close to the largest bound the
    // benchmark may set (campaign's depends on which cycles are sampled).
    std::printf("  per pass of %llu operations: run_ms_p50 = %.6g ms, run_ms_p95 = %.6g ms\n",
                static_cast<unsigned long long>(first.ops()), median(p50s), median(p95s));
  } else {
    // Layer times and implementation counts are medians over the traced
    // passes; model statistics are identical in every pass (checked).
    std::map<std::string, double> layer = model_ref->model;
    std::map<std::string, std::vector<double>> layer_values;
    for (const PassResult& p : traced)
      for (const auto& [name, value] : p.layer) layer_values[name].push_back(value);
    for (const auto& [name, values] : layer_values) layer[name] = median(values);
    layer["workloads.build_s"] = median(build_s);
    layer["run_ms_p50"] = median(p50s);
    layer["run_ms_p95"] = median(p95s);
    layer["sim_cycles_per_s"] = sim_cycles_per_s;
    layer["sim_instr_per_s"] = sim_instr_per_s;
    layer["trace.overhead_frac"] = 1.0 - median(traced_rates) / execs_per_s;
    layer["trace.spans"] = static_cast<double>(tracer.span_count());
    metrics = match_metrics(listed_metrics(bench, "per_layer"), layer, true);
    bool identical = true;
    for (const PassResult& p : traced)
      identical = identical && p.digest == first.digest && p.model == model_ref->model;
    std::printf("  traced passes reproduce the untraced output and model statistics: %s\n"
                "  tracing overhead (sim_cycles_per_s gap) = %.4g\n",
                identical ? "yes" : "NO", layer["trace.overhead_frac"]);
    if (!opt.trace_file.empty() && !tracer.write_json(opt.trace_file))
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_file.c_str());
  }

  for (const auto& [m, value] : metrics)
    std::printf("  %s = %.6g %s\n", m.name.c_str(), value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed == 0 && errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].first.name.c_str(), metrics[i].second, metrics[i].first.unit.c_str());
  std::printf("}}\n");
  return 0;
}
