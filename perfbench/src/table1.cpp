// `table1`: the paper's full Table-I sweep, serially. All 29 registry
// programs x staggers {0, 100, 1000, 10000} x the harness's two run
// variants (arbiter phase at 0 nops, which core is delayed otherwise):
// 232 redundant runs at scale 1, N = 2, through the scenario layer's
// run_redundant (which batches observer delivery by 32). Seedless.
//
// Checks per run: cycles, zero-stag, no-div and per-core committed counts
// against expected/table1.json; in rig passes also both cores' result word
// against the workload's pinned checksum and the summed model statistics
// against the pinned model digest. Per pass: each cell (max over the two
// variants, as the paper reports) matches the four scenarios/table1_*.json
// expectations, and the Table-I shape of EXPERIMENTS.md holds.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "rig.hpp"
#include "safedm/workloads/workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using safedm::scenario::JsonValue;
using safedm::scenario::RunOutcome;
using safedm::scenario::RunSpec;

constexpr unsigned kStaggers[] = {0, 100, 1000, 10000};
constexpr unsigned kColumns = 4;
constexpr unsigned kVariants = 2;

struct RunPin {
  u64 zero_stag = 0, nodiv = 0, cycles = 0, committed0 = 0, committed1 = 0;
  bool operator==(const RunPin&) const = default;
};

struct ScenarioCell {
  std::string file, workload;
  unsigned stagger = 0;
  u64 zero_stag = 0, nodiv = 0;
};

class Table1 final : public Workload {
 public:
  explicit Table1(const WorkloadArgs& args) : args_(args) {
    if (args.pins) {
      for (const JsonValue& run : json_member(*args.pins, "runs").items)
        run_pins_.push_back({json_u64(run.items.at(0)), json_u64(run.items.at(1)),
                             json_u64(run.items.at(2)), json_u64(run.items.at(3)),
                             json_u64(run.items.at(4))});
      for (const auto& [name, value] : json_member(*args.pins, "results").members)
        result_pins_.push_back(json_u64(value));
      model_pin_ = json_u64(json_member(*args.pins, "model_digest"));
    }
    load_scenarios(args.root + "/scenarios");
  }

  bool seeded() const override { return false; }

  double setup() override {
    const auto start = Clock::now();
    programs_.clear();
    for (const auto& info : safedm::workloads::registry()) programs_.push_back(info.build(1));
    return seconds_between(start, Clock::now());
  }

  /// Untraced passes time the library's own harness, scenario::
  /// run_redundant, once per run variant and fold the cells with
  /// RunOutcome::max_with, as scenario::max_over_runs does. Traced passes
  /// (and --pin) run the same specs on the timed rig, which also exposes
  /// the result words, layer times and model statistics; their outcomes
  /// enter the same digest, so every traced run checks that the rig
  /// reproduces run_redundant run for run.
  PassResult pass(Tracer& tracer, Calibrator& calibrator) override {
    PassResult pass;
    const bool rig = tracer.enabled() || !args_.pins;
    const auto& registry = safedm::workloads::registry();
    const bool pins_cover = !args_.pins || (run_pins_.size() == registry.size() * kColumns * kVariants &&
                                            result_pins_.size() == registry.size());
    ModelTotals model;
    ComparatorTotals cmp;
    Digest digest;
    std::vector<RunPin> runs;
    std::vector<u64> results(registry.size(), 0);
    std::vector<RunOutcome> cells(registry.size() * kColumns);

    const auto start = Clock::now();
    for (std::size_t w = 0; w < registry.size(); ++w) {
      for (unsigned col = 0; col < kColumns; ++col) {
        for (unsigned v = 0; v < kVariants; ++v) {
          // The two variants of scenario::max_over_runs.
          RunSpec spec;
          spec.stagger_nops = kStaggers[col];
          if (spec.stagger_nops == 0)
            spec.arbiter_bias = v;
          else
            spec.delayed_core = v;
          char cell[96];
          std::snprintf(cell, sizeof cell, "table1/%s/stag%u/%s%u", registry[w].name.c_str(),
                        spec.stagger_nops, spec.stagger_nops == 0 ? "bias" : "delayed", v);

          std::string problem;
          RunOutcome out;
          if (rig) {
            tracer.begin_op("table1.run", cell);
            const RigRun run = run_rig(programs_[w], spec, tracer, pass, model, cmp);
            tracer.end_op();
            pass.add_op(run.host_ms, calibrator);
            out = run.outcome;
            results[w] = run.results[0];
            if (run.results[0] != run.results[1]) problem = "cores disagree on the result";
            if (args_.pins && w < result_pins_.size() && run.results[0] != result_pins_[w])
              problem = "result differs from the pinned checksum";
          } else {
            const auto op_start = Clock::now();
            out = safedm::scenario::run_redundant(programs_[w], spec);
            pass.add_op(1e3 * seconds_between(op_start, Clock::now()), calibrator);
            pass.sim_cycles += out.cycles;
            pass.sim_instr += out.committed0 + out.committed1;
          }

          const RunPin got{out.zero_stag, out.nodiv, out.cycles, out.committed0, out.committed1};
          runs.push_back(got);
          for (const u64 value : {got.zero_stag, got.nodiv, got.cycles, got.committed0,
                                  got.committed1, out.monitored_cycles, out.ds_match, out.is_match,
                                  u64{out.completed}})
            digest.add(value);
          cells[w * kColumns + col].max_with(out);

          if (!out.completed) problem = "did not halt";
          const std::size_t i = runs.size() - 1;
          if (args_.pins && i < run_pins_.size() && !(got == run_pins_[i]))
            problem = "counts differ from expected/table1.json";
          if (!problem.empty()) pass.fail_op(std::string(cell) + ": " + problem);
        }
      }
    }
    pass.seconds = seconds_between(start, Clock::now());

    if (!pins_cover) pass.fail_pass("expected/table1.json does not cover the registry");
    check_scenarios(cells, pass);
    check_shape(cells, pass);
    pass.digest = digest.value();
    if (rig) {
      Digest model_digest;
      model.add_to(model_digest);
      last_model_digest_ = model_digest.value();
      if (args_.pins && last_model_digest_ != model_pin_)
        pass.fail_pass("model statistics differ from the pinned model_digest " + hex64(model_pin_));
      model.to_metrics(pass.model);
      finish_rig_layers(pass, model, cmp);
      last_results_ = std::move(results);
    }
    last_runs_ = std::move(runs);
    return pass;
  }

  std::string pin_members() const override {
    std::ostringstream os;
    os << "  \"results\": {";
    const auto& registry = safedm::workloads::registry();
    for (std::size_t w = 0; w < last_results_.size(); ++w)
      os << (w ? "," : "") << "\n    \"" << registry[w].name << "\": \"" << hex64(last_results_[w])
         << '"';
    os << "\n  },\n  \"runs\": [";
    for (std::size_t i = 0; i < last_runs_.size(); ++i) {
      const RunPin& r = last_runs_[i];
      os << (i ? "," : "") << "\n    [" << r.zero_stag << ", " << r.nodiv << ", " << r.cycles
         << ", " << r.committed0 << ", " << r.committed1 << ']';
    }
    os << "\n  ],\n  \"model_digest\": \"" << hex64(last_model_digest_) << '"';
    return os.str();
  }

 private:
  void load_scenarios(const std::string& dir) {
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string stem = entry.path().stem().string();
      if (stem.rfind("table1_", 0) == 0 && entry.path().extension() == ".json")
        files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      const JsonValue doc = read_json_file(file.string());
      const JsonValue& run = json_member(doc, "run");
      const JsonValue& counters = json_member(json_member(doc, "expect"), "counters");
      scenarios_.push_back({file.filename().string(), json_member(run, "workload").text,
                            static_cast<unsigned>(json_u64(json_member(run, "stagger_nops"))),
                            json_u64(json_member(counters, "zero_stag")),
                            json_u64(json_member(counters, "nodiv"))});
    }
  }

  void check_scenarios(const std::vector<RunOutcome>& cells, PassResult& pass) const {
    const auto& registry = safedm::workloads::registry();
    if (scenarios_.size() != 4)
      pass.fail_pass("expected 4 scenarios/table1_*.json cells, found " +
                     std::to_string(scenarios_.size()));
    for (const ScenarioCell& s : scenarios_) {
      const auto it = std::find_if(registry.begin(), registry.end(),
                                   [&](const auto& info) { return info.name == s.workload; });
      const unsigned* col = std::find(std::begin(kStaggers), std::end(kStaggers), s.stagger);
      if (it == registry.end() || col == std::end(kStaggers)) {
        pass.fail_pass(s.file + ": cell is not part of the sweep");
        continue;
      }
      const RunOutcome& c = cells[static_cast<std::size_t>(it - registry.begin()) * kColumns +
                              static_cast<std::size_t>(col - kStaggers)];
      if (c.zero_stag != s.zero_stag || c.nodiv != s.nodiv)
        pass.fail_pass(s.file + ": sweep cell (" + std::to_string(c.zero_stag) + ", " +
                       std::to_string(c.nodiv) + ") differs from the scenario's expectation");
    }
  }

  /// EXPERIMENTS.md E1 shape, as measured at scale 1: with no initial
  /// staggering every row has zero-stag >= no-div; both column averages
  /// shrink as staggering grows and vanish at 10000 nops; cubic keeps
  /// no-div cycles at 100 nops; prime runs synchronized yet diverse at
  /// 0 nops (the pm-anomaly analogue: many zero-stag, no no-div cycles).
  static void check_shape(const std::vector<RunOutcome>& cells, PassResult& pass) {
    const auto& registry = safedm::workloads::registry();
    u64 zero[kColumns] = {}, nodiv[kColumns] = {};
    for (std::size_t w = 0; w < registry.size(); ++w) {
      const RunOutcome* row = &cells[w * kColumns];
      for (unsigned col = 0; col < kColumns; ++col) {
        zero[col] += row[col].zero_stag;
        nodiv[col] += row[col].nodiv;
      }
      if (row[0].zero_stag < row[0].nodiv)
        pass.fail_pass("shape: " + registry[w].name + " has zero-stag < no-div at 0 nops");
      if (registry[w].name == "cubic" && row[1].nodiv == 0)
        pass.fail_pass("shape: cubic lost its no-div cycles at 100 nops");
      if (registry[w].name == "prime" && (row[0].nodiv != 0 || row[0].zero_stag < 10000))
        pass.fail_pass("shape: prime is no longer synchronized yet diverse at 0 nops");
    }
    for (unsigned col = 1; col < kColumns; ++col)
      if (zero[col] > zero[col - 1] || nodiv[col] > nodiv[col - 1])
        pass.fail_pass("shape: column averages grow from " + std::to_string(kStaggers[col - 1]) +
                       " to " + std::to_string(kStaggers[col]) + " nops");
    if (nodiv[0] == 0 || zero[kColumns - 1] != 0 || nodiv[kColumns - 1] != 0)
      pass.fail_pass("shape: lack of diversity does not fall from 0 nops to none at 10000");
  }

  WorkloadArgs args_;
  std::vector<RunPin> run_pins_;
  std::vector<u64> result_pins_;
  std::vector<ScenarioCell> scenarios_;
  std::vector<safedm::assembler::Program> programs_;
  std::vector<RunPin> last_runs_;
  std::vector<u64> last_results_;
  u64 model_pin_ = 0;  // digest of the model statistics of an untraced rig pass
  u64 last_model_digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_table1(const WorkloadArgs& args) {
  return std::make_unique<Table1>(args);
}

}  // namespace perfbench
