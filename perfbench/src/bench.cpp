#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>

#include "safedm/safedm/monitor.hpp"
#include "safedm/soc/soc.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

void Digest::add(std::string_view bytes) {
  add(bytes.size());
  add(fnv1a_bytes(bytes));
}

u64 fnv1a_bytes(std::string_view bytes) {
  return safedm::fnv1a(
      std::span<const safedm::u8>(reinterpret_cast<const safedm::u8*>(bytes.data()), bytes.size()));
}

std::string hex64(u64 value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

void ModelTotals::add_run(safedm::soc::MpSoc& soc, const safedm::monitor::SafeDm& dm) {
  for (unsigned i = 0; i < soc.num_cores(); ++i) {
    const safedm::core::Core& core = soc.core(i);
    const safedm::core::CoreStats& s = core.stats();
    core_cycles += s.cycles;
    committed += s.committed;
    committed_groups += s.committed_groups;
    dual_issue += s.dual_issue_commits;
    mispredicts += s.mispredicts;
    stall_l1d += s.l1d_miss_stall_cycles;
    stall_l1i += s.l1i_miss_stall_cycles;
    stall_sb_full += s.sb_full_stall_cycles;
    stall_raw += s.raw_hazard_stall_cycles;
    stall_ex_busy += s.ex_busy_stall_cycles;
    stall_external += s.external_stall_cycles;
    l1i_hits += core.l1i_stats().hits;
    l1i_misses += core.l1i_stats().misses;
    l1d_hits += core.l1d_stats().hits;
    l1d_misses += core.l1d_stats().misses;
    sb_pushed += core.sb_stats().pushed;
    sb_coalesced += core.sb_stats().coalesced;
    sb_full_stalls += core.sb_stats().full_stalls;
  }
  l2_hits += soc.l2().stats().hits;
  l2_misses += soc.l2().stats().misses;
  l2_writeback_evictions += soc.l2().stats().writeback_evictions;
  const safedm::bus::AhbStats& bus = soc.ahb().stats();
  bus_grants += bus.grants;
  bus_busy += bus.busy_cycles;
  bus_idle += bus.idle_cycles;
  for (const u64 w : bus.wait_cycles) bus_grant_wait += w;
  monitored += dm.counters().monitored_cycles;
  nodiv += dm.counters().nodiv_cycles;
  zero_stag += dm.counters().zero_stag_cycles;
}

void ModelTotals::add_to(Digest& d) const {
  for (const u64 v : {core_cycles, committed, committed_groups, dual_issue, mispredicts, stall_l1d,
                      stall_l1i, stall_sb_full, stall_raw, stall_ex_busy, stall_external, l1i_hits,
                      l1i_misses, l1d_hits, l1d_misses, l2_hits, l2_misses,
                      l2_writeback_evictions, sb_pushed, sb_coalesced, sb_full_stalls, bus_grants,
                      bus_busy, bus_idle, bus_grant_wait, monitored, nodiv, zero_stag})
    d.add(v);
}

namespace {
double ratio(u64 num, u64 den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}
}  // namespace

void ModelTotals::to_metrics(std::map<std::string, double>& out) const {
  const auto n = [](u64 v) { return static_cast<double>(v); };
  out["core.cycles"] = n(core_cycles);
  out["core.committed"] = n(committed);
  out["core.cpi"] = ratio(core_cycles, committed);
  out["core.dual_issue_frac"] = ratio(dual_issue, committed_groups);
  out["core.mispredicts"] = n(mispredicts);
  out["core.stall.l1d_miss"] = n(stall_l1d);
  out["core.stall.l1i_miss"] = n(stall_l1i);
  out["core.stall.sb_full"] = n(stall_sb_full);
  out["core.stall.raw"] = n(stall_raw);
  out["core.stall.ex_busy"] = n(stall_ex_busy);
  out["core.stall.external"] = n(stall_external);
  out["l1i.miss_rate"] = ratio(l1i_misses, l1i_hits + l1i_misses);
  out["l1d.miss_rate"] = ratio(l1d_misses, l1d_hits + l1d_misses);
  out["l2.miss_rate"] = ratio(l2_misses, l2_hits + l2_misses);
  out["l2.writeback_evictions"] = n(l2_writeback_evictions);
  out["sb.coalesce_frac"] = ratio(sb_coalesced, sb_pushed);
  out["sb.full_stalls"] = n(sb_full_stalls);
  out["bus.busy_frac"] = ratio(bus_busy, bus_busy + bus_idle);
  out["bus.grants"] = n(bus_grants);
  out["bus.grant_wait_cycles"] = n(bus_grant_wait);
  out["safedm.monitored_cycles"] = n(monitored);
  out["safedm.nodiv_cycles"] = n(nodiv);
  out["safedm.zero_stag_cycles"] = n(zero_stag);
}

void ComparatorTotals::add_run(const safedm::monitor::SafeDm& dm) {
  for (unsigned p = 0; p < dm.num_pairs(); ++p) {
    const auto& s = dm.pair_stats(p);
    fast_updates += s.fast_updates;
    hold_reuses += s.hold_reuses;
    realign_scans += s.realign_scans;
    is_recomputes += s.is_recomputes;
  }
}

void ComparatorTotals::to_metrics(std::map<std::string, double>& out,
                                  u64 monitored_cycles) const {
  out["cmp.fast_updates"] = static_cast<double>(fast_updates);
  out["cmp.hold_reuses"] = static_cast<double>(hold_reuses);
  out["cmp.realign_scans"] = static_cast<double>(realign_scans);
  out["cmp.is_recomputes"] = static_cast<double>(is_recomputes);
  out["cmp.realign_frac"] = ratio(realign_scans, monitored_cycles);
}

void PassResult::fail_pass(std::string message) {
  failed = ops();
  errors.push_back(std::move(message));
}

void PassResult::fail_op(std::string message) {
  if (failed < ops()) ++failed;
  errors.push_back(std::move(message));
}

safedm::scenario::JsonValue read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return safedm::scenario::parse_json(text.str());
  } catch (const safedm::scenario::JsonParseError& e) {
    std::fprintf(stderr, "%s:%u:%u: %s\n", path.c_str(), e.line, e.column, e.message.c_str());
    std::exit(2);
  }
}

u64 json_u64(const safedm::scenario::JsonValue& value) {
  if (value.is_string()) return std::strtoull(value.text.c_str(), nullptr, 16);
  return std::strtoull(value.text.c_str(), nullptr, 10);
}

const safedm::scenario::JsonValue& json_member(const safedm::scenario::JsonValue& object,
                                               std::string_view key) {
  const safedm::scenario::JsonValue* member = object.find(key);
  if (!member) {
    std::fprintf(stderr, "perfbench: expected key \"%.*s\" missing (line %u)\n",
                 static_cast<int>(key.size()), key.data(), object.line);
    std::exit(2);
  }
  return *member;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadArgs& args) {
  if (name == "table1") return make_table1(args);
  if (name == "campaign") return make_campaign(args);
  if (name == "fuzz") return make_fuzz(args);
  if (name == "group") return make_group(args);
  return nullptr;
}

}  // namespace perfbench
