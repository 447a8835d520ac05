// lfi_perfbench: the repository benchmark (see perfbench/METRICS.md).
//
//   lfi_perfbench --workload exec|ingest|serve --seed N --seconds S
//                 --trace 0|1 [--trace-out FILE]
//   lfi_perfbench --selftest
//
// Set-up (build the inputs from source, derive their known answers) runs
// at least three times and is reported as the median. The timed phase
// then repeats whole rounds of the workload until S seconds have passed.
// With --trace 0 every round is untraced and the last stdout line carries
// the end-to-end metrics; with --trace 1 untraced and traced rounds
// alternate, and the last line carries the per-layer metrics. Every exact
// (simulated or counted) value must repeat bit-for-bit across all rounds,
// traced or not, or the run is marked incorrect. Exit status is 0 only
// when every output matched its known answer.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common.h"

namespace perfbench {
bool RunSelfTests();

namespace {

constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 0.5;
constexpr int kMaxSetups = 100;
constexpr int kMinRounds = 8;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return a->selftest || !a->workload.empty();
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "exec") return MakeExec();
  if (name == "ingest") return MakeIngest();
  if (name == "serve") return MakeServe();
  return nullptr;
}

double Get(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

double Rate(double work, double seconds) {
  return seconds > 0 ? work / seconds : 0.0;
}

// The workload's named end-to-end metrics, by workload: name, unit, and
// whether the value is exact (simulated or counted) or host-timed.
struct Named {
  const char* name;
  const char* unit;
  bool exact;
};
const std::vector<Named>& NamedMetrics(const std::string& w) {
  static const std::map<std::string, std::vector<Named>> kByWorkload = {
      {"exec",
       {{"host_minsts_per_s", "Minsts/s", false},
        {"sim_cycles", "cycles", true},
        {"sim_o2_overhead_pct", "%", true}}},
      {"ingest",
       {{"build_mb_per_s", "MB/s", false},
        {"load_mb_per_s", "MB/s", false},
        {"code_growth_pct", "%", true}}},
      {"serve",
       {{"host_req_per_s", "1/s", false},
        {"sim_p50_cycles", "cycles", true},
        {"sim_p99_cycles", "cycles", true},
        {"sim_p99_samples", "count", true},
        {"sim_max_rate_per_mcycle", "1/Mcycle", true}}},
  };
  return kByWorkload.at(w);
}

// The per-layer metrics printed on every workload (0 where a layer does
// no work in the timed phase), in the order BENCHMARK.json lists them.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"asmtext.parse_s", "s"},
    {"asmtext.parse_mb_per_s", "MB/s"},
    {"asmtext.assemble_s", "s"},
    {"rewriter.rewrite_s", "s"},
    {"elf.write_s", "s"},
    {"elf.read_s", "s"},
    {"verifier.decode_s", "s"},
    {"verifier.check_s", "s"},
    {"verifier.mb_per_s", "MB/s"},
    {"verifier.rejects", "count"},
    {"runtime.create_s", "s"},
    {"runtime.load_s", "s"},
    {"runtime.capture_s", "s"},
    {"snapshot.serialize_s", "s"},
    {"snapshot.deserialize_s", "s"},
    {"runtime.spawn_s", "s"},
    {"runtime.kill_s", "s"},
    {"runtime.run_s", "s"},
    {"emu.minsts_per_s", "Minsts/s"},
    {"emu.block_cache_hits", "count"},
    {"emu.block_cache_misses", "count"},
    {"emu.invalidations_per_request", "count/request"},
    {"emu.misses_per_request", "count/request"},
    {"emu.guards_executed", "count"},
    {"snapshot.dirty_pages_per_restore", "pages/restore"},
    {"serve.step_s", "s"},
    {"serve.host_us_per_request", "us"},
    {"serve.warm_hits", "count"},
    {"serve.cold_spawns", "count"},
    {"serve.recycles", "count"},
    {"serve.shed", "count"},
    {"serve.insts_per_request", "count/request"},
    {"rewriter.guards_inserted", "count"},
    {"rewriter.guards_hoisted", "count"},
    {"asmtext.rss_growth_mb", "MB"},
    {"verifier.rss_growth_mb", "MB"},
    {"bench.round_s", "s"},
    {"bench.uncovered_pct", "%"},
    {"bench.trace_overhead_pct", "%"},
};

struct Reported {
  std::string name;
  double value;
  std::string unit;
};

void PrintJson(bool correct, const FailTally& tally,
               const std::vector<Reported>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Reported& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  if (Make(args.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Tracer tracer;
  Tracer* const tr = args.trace ? &tracer : nullptr;

  // ---- Set-up, repeated; the first one is traced (peak-RSS growth is a
  // high-water mark, so only the first build of the inputs can show it).
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  double setup_total = 0;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (setup_total < kMinSetupSeconds &&
          static_cast<int>(setup_s.size()) < kMaxSetups)) {
    w = Make(args.workload);
    std::string err;
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = w->Setup(args.seed, setup_s.empty() ? tr : nullptr, &err);
    setup_s.push_back(SecondsSince(t0));
    setup_total += setup_s.back();
    if (!ok) {
      std::fprintf(stderr, "setup failed: %s\n", err.c_str());
      return 1;
    }
  }

  // ---- Timed phase.
  FailTally tally;
  std::vector<std::string> errors;
  std::map<std::string, double> exact, counters;
  bool have_exact = false;
  std::vector<std::map<std::string, double>> host_rounds;
  std::vector<double> round_s, traced_s, overhead, unit_min;
  const size_t first_round_span = tracer.size();
  const std::map<std::string, double> counts0 = tracer.counts();
  const auto note = [&](const RoundResult& r, bool traced) {
    tally.Merge(r.tally);
    for (const auto& e : r.errors) {
      if (errors.size() < 10) errors.push_back(e);
    }
    if (!have_exact) {
      exact = r.exact;
      have_exact = true;
    } else if (r.exact != exact) {
      tally.Record(false);
      errors.push_back(std::string("exact metrics differ between rounds") +
                       (traced ? " (traced round)" : ""));
    }
    if (traced) {
      if (counters.empty()) {
        counters = r.counters;
      } else if (r.counters != counters) {
        tally.Record(false);
        errors.push_back("per-layer counters differ between traced rounds");
      }
    }
  };
  const auto phase0 = std::chrono::steady_clock::now();
  while (static_cast<int>(round_s.size()) < kMinRounds ||
         SecondsSince(phase0) < args.seconds) {
    auto t0 = std::chrono::steady_clock::now();
    RoundResult r = w->Round(nullptr);
    round_s.push_back(SecondsSince(t0));
    host_rounds.push_back(r.host);
    if (unit_min.empty()) unit_min = r.unit_s;
    for (size_t u = 0; u < unit_min.size() && u < r.unit_s.size(); ++u) {
      unit_min[u] = std::min(unit_min[u], r.unit_s[u]);
    }
    note(r, false);
    if (tr != nullptr) {
      t0 = std::chrono::steady_clock::now();
      {
        Scope s(tr, "bench", "round", traced_s.size());
        r = w->Round(tr);
      }
      traced_s.push_back(SecondsSince(t0));
      overhead.push_back(traced_s.back() / round_s.back() - 1.0);
      note(r, true);
    }
  }

  // ---- Report.
  const bool correct = tally.failed == 0 && errors.empty();
  const double peak_rss_mb = static_cast<double>(PeakRssKb()) / 1024.0;
  std::printf("perfbench %s seed=%llu rounds=%zu%s setups=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), round_s.size(),
              tr != nullptr ? " (+ as many traced)" : "", setup_s.size());
  for (const auto& e : errors) std::printf("MISMATCH %s\n", e.c_str());
  std::printf("round_s n=%zu units=%zu min %.4f p25 %.4f median %.4f "
              "p75 %.4f\n",
              round_s.size(), unit_min.size(), NearestRankOf(round_s, 0),
              NearestRankOf(round_s, 25), Median(round_s),
              NearestRankOf(round_s, 75));
  const double setup_med = Median(setup_s);
  // The gated round time is a best case, not the median: on a shared host,
  // slow phases lasting seconds stretch whole runs of rounds. Every round
  // repeats the same units of work, so the sum of each unit's fastest time
  // is the round as it runs when nothing else contends for the core.
  double round_best = 0;
  for (double u : unit_min) round_best += u;
  std::printf("%-28s %14s %-10s %s\n", "metric", "value", "unit", "kind");
  const auto line = [](const char* name, double v, const char* unit,
                       const char* kind) {
    std::printf("%-28s %14.6g %-10s %s\n", name, v, unit, kind);
  };
  line("setup_s", setup_med, "s", "host");
  line("round_best_ms", round_best * 1e3, "ms", "host");
  line("peak_rss_mb", peak_rss_mb, "MB", "host");
  line("fail_ratio", tally.Ratio(), "ratio", "exact");
  std::map<std::string, double> other_exact = exact;
  for (const Named& n : NamedMetrics(args.workload)) {
    other_exact.erase(n.name);
    double v = Get(exact, n.name);
    if (!n.exact) {
      std::vector<double> vals;
      for (const auto& h : host_rounds) vals.push_back(Get(h, n.name));
      v = Median(vals);
    }
    line(n.name, v, n.unit, n.exact ? "exact" : "host");
  }

  for (const auto& [k, v] : other_exact) line(k.c_str(), v, "", "exact");
  for (const auto& [k, v] : w->SetupCounters()) {
    line(k.c_str(), v, "", "exact");
  }

  if (tr == nullptr) {
    PrintJson(correct, tally,
              {{"setup_s", setup_med, "s"},
               {"round_best_ms", round_best * 1e3, "ms"},
               {"peak_rss_mb", peak_rss_mb, "MB"}});
    return correct ? 0 : 1;
  }

  // Per-layer numbers: self time per traced round, counts from the
  // modules, rates over the work counted at the same boundaries.
  const double n = static_cast<double>(traced_s.size());
  std::map<std::string, double> layer;
  for (const auto& [k, ns] : tracer.SelfNs(first_round_span)) {
    layer[k + "_s"] = static_cast<double>(ns) / 1e9 / n;
  }
  for (const auto& [k, v] : w->SetupCounters()) layer[k] = v;
  for (const auto& [k, v] : counters) layer[k] = v;
  const auto per_round = [&](const std::string& c) {
    return (Get(tracer.counts(), c) - Get(counts0, c)) / n;
  };
  layer["asmtext.parse_mb_per_s"] =
      Rate(per_round("asmtext.parse_bytes") / 1e6,
           Get(layer, "asmtext.parse_s"));
  layer["verifier.mb_per_s"] =
      Rate(per_round("verifier.bytes") / 1e6,
           Get(layer, "verifier.decode_s") + Get(layer, "verifier.check_s"));
  layer["emu.minsts_per_s"] =
      Rate(Get(counters, "emu.retired") / 1e6,
           Get(layer, "runtime.run_s") + Get(layer, "serve.step_s"));
  layer["serve.host_us_per_request"] =
      Rate(Get(layer, "serve.step_s") * 1e6, Get(counters, "serve.requests"));
  layer["serve.insts_per_request"] = Get(exact, "insts_per_request");
  // Growth of the peak-RSS high-water mark, over set-up and rounds.
  for (const auto& [l, kb] : tracer.SelfHwmKb(0)) {
    layer[l + ".rss_growth_mb"] = static_cast<double>(kb) / 1024.0;
  }
  // The round span's self time is the part of the round no layer covers.
  double traced_sum = 0;
  for (double s : traced_s) traced_sum += s;
  layer["bench.uncovered_pct"] =
      100.0 * Get(layer, "bench.round_s") / (traced_sum / n);
  layer["bench.round_s"] = Median(traced_s);
  layer["bench.trace_overhead_pct"] = 100.0 * Median(overhead);

  std::printf("%-34s %14s %s\n", "layer", "value", "unit");
  std::vector<Reported> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    const double v = Get(layer, name);
    std::printf("%-34s %14.6g %s\n", name, v, unit);
    out.push_back({name, v, unit});
  }
  if (!args.trace_out.empty()) {
    std::ofstream os(args.trace_out);
    tracer.WriteChromeTrace(os);
    std::printf("spans: %zu written to %s\n", tracer.size(),
                args.trace_out.c_str());
  }
  PrintJson(correct, tally, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lfi_perfbench --workload exec|ingest|serve --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] | --selftest\n");
    return 2;
  }
  if (args.selftest) return perfbench::RunSelfTests() ? 0 : 1;
  return perfbench::Run(args);
}
