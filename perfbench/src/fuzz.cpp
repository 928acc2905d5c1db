// `fuzz`: a coverage-guided differential fuzz campaign from an empty
// corpus, kRounds rounds x 32 inputs, serially. The seed is the campaign
// seed, so it fixes every generated and mutated input.
//
// Each input is one operation: generate (ProgramFuzzer::next or mutate a
// corpus seed) and lower it, then run the full oracle stack (pipeline vs
// ISS, incremental vs exhaustive verdicts, snapshot round-trip). The
// schedule and corpus policy are fuzz::run_campaign's, step for step, so
// the safedm.bench.fuzz/v1 report is byte-compared with the pinned digest
// (taken from bench_fuzz_campaign at the pinned seed); on every seed an
// oracle failure fails its operation.
#include <cstdio>

#include "bench.hpp"
#include "safedm/common/rng.hpp"
#include "safedm/fuzz/campaign.hpp"

namespace perfbench {
namespace {

namespace fz = safedm::fuzz;

constexpr unsigned kRounds = 40;
constexpr unsigned kInputsPerRound = 32;

class Fuzz final : public Workload {
 public:
  explicit Fuzz(const WorkloadArgs& args) : seed_(args.seed) {}

  /// The campaign starts from an empty corpus and generates every input
  /// inside the measured passes, so there is next to nothing to set up:
  /// the configuration and the report's start state (an empty coverage
  /// map), which each pass starts from.
  double setup() override {
    config_ = fz::CampaignConfig{};
    config_.seed = seed_;
    config_.rounds = kRounds;
    config_.inputs_per_round = kInputsPerRound;
    config_.threads = 1;
    start_ = fz::CampaignReport{};
    start_.seed = config_.seed;
    start_.rounds = config_.rounds;
    start_.inputs_per_round = config_.inputs_per_round;
    return 0.0;
  }

  PassResult pass(Tracer& tracer, Calibrator& calibrator) override {
    PassResult pass;
    fz::Corpus corpus;
    fz::CampaignReport report = start_;
    Digest digest;
    double generate_s = 0, oracle_s = 0;
    std::vector<double> oracle_ms;
    unsigned kept = 0;

    const auto start = Clock::now();
    for (unsigned round = 0; round < config_.rounds; ++round) {
      // As in run_campaign: every input of a round is scheduled against the
      // round-start corpus, and kept inputs join it after the round.
      const std::size_t round_corpus = corpus.size();
      fz::RoundStats rs;
      rs.inputs = config_.inputs_per_round;
      std::vector<std::pair<std::string, fz::FuzzProgram>> joining;
      for (unsigned i = 0; i < config_.inputs_per_round; ++i) {
        char cell[48];
        std::snprintf(cell, sizeof cell, "fuzz/r%u/i%u", round, i);
        tracer.begin_op("fuzz.input", cell);
        const auto op_start = Clock::now();

        const std::size_t gen_span = tracer.open("fuzz.generate");
        const u64 seed = fz::input_seed(config_.seed, round, i);
        safedm::Xoshiro256 rng(seed);
        fz::FuzzProgram program;
        if (round_corpus > 0 && rng.chance(config_.mutate_chance)) {
          program = corpus.entries[rng.below(round_corpus)].program;
          const fz::FuzzProgram& donor = corpus.entries[rng.below(round_corpus)].program;
          fz::mutate(program, &donor, rng, config_.generator);
          program.gen_seed = seed;
        } else {
          program = fz::ProgramFuzzer(seed, config_.generator).next();
        }
        fz::OracleConfig oracle = config_.oracle;
        if (rng.chance(config_.snapshot_chance)) oracle.snapshot_cycle = 64 + rng.below(1024);
        const safedm::assembler::Program image = fz::materialize(program);
        generate_s += tracer.close(gen_span);

        const std::size_t oracle_span = tracer.open("fuzz.oracle");
        const fz::OracleResult result = fz::run_differential(image, oracle);
        const double oracle_dur = tracer.close(oracle_span);
        oracle_s += oracle_dur;
        oracle_ms.push_back(1e3 * oracle_dur);
        tracer.end_op();
        pass.add_op(1e3 * seconds_between(op_start, Clock::now()), calibrator);

        pass.sim_cycles += result.cycles;
        pass.sim_instr += 2 * result.instret;  // the redundant pair retires it twice
        digest.add(static_cast<u64>(result.verdict));
        digest.add(result.cycles);
        digest.add(result.instret);
        const std::size_t fresh = report.coverage.merge_count_new(result.coverage);
        rs.new_features += static_cast<unsigned>(fresh);
        if (fresh > 0) {
          joining.emplace_back(cell, std::move(program));
          ++rs.kept;
        }
        if (!result.ok()) {
          ++rs.failures;
          pass.fail_op(std::string(cell) + ": oracle " + fz::verdict_name(result.verdict) +
                       ": " + result.detail);
        }
      }
      // Kept inputs only become mutation donors from the next round on.
      for (auto& [name, program] : joining) corpus.add(std::move(name), std::move(program));
      kept += rs.kept;
      rs.corpus_size = corpus.size();
      rs.features_hit = report.coverage.features_hit();
      rs.total_hits = report.coverage.total_hits();
      report.round_stats.push_back(rs);
    }
    report.final_corpus = corpus.size();
    const std::string json = fz::report_to_json(report);
    pass.seconds = seconds_between(start, Clock::now());

    digest.add(json);
    pass.digest = digest.value();
    pass.pinned["report_fnv1a"] = hex64(fnv1a_bytes(json));
    pass.model["fuzz.sim_cycles"] = static_cast<double>(pass.sim_cycles);
    pass.model["fuzz.features_hit"] = static_cast<double>(report.coverage.features_hit());
    if (tracer.enabled()) {
      pass.layer["fuzz.generate_s"] = generate_s;
      pass.layer["fuzz.oracle_s"] = oracle_s;
      pass.layer["fuzz.oracle_ms_p50"] = percentile(oracle_ms, 0.5);
      pass.layer["fuzz.oracle_ms_p95"] = percentile(oracle_ms, 0.95);
      pass.layer["fuzz.sim_cycles"] = static_cast<double>(pass.sim_cycles);
      pass.layer["fuzz.kept_frac"] = static_cast<double>(kept) / static_cast<double>(pass.ops());
      pass.layer["fuzz.features_hit"] = static_cast<double>(report.coverage.features_hit());
    }
    return pass;
  }

 private:
  u64 seed_;
  fz::CampaignConfig config_;
  fz::CampaignReport start_;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz(const WorkloadArgs& args) {
  return std::make_unique<Fuzz>(args);
}

}  // namespace perfbench
