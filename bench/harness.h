// Shared experiment harness for the paper-reproduction benchmarks.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation (Section 6). Because the substrate is a deterministic
// simulator, results are exact and repeatable; "time" means simulated
// cycles/nanoseconds under the core models in arch/cost_model.h.
#ifndef LFI_BENCH_HARNESS_H_
#define LFI_BENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "elf/build.h"
#include "elf/elf.h"
#include "rewriter/rewriter.h"
#include "runtime/runtime.h"
#include "trace/trace.h"
#include "wasm/wasm.h"
#include "workloads/workloads.h"

namespace lfi::bench {

// A built sandbox executable plus size accounting for Section 6.3.
struct Built {
  std::vector<uint8_t> elf;
  size_t text_bytes = 0;
  size_t file_bytes = 0;
  bool ok = false;
  std::string error;
};

// LFI build configurations matching the paper's evaluation.
enum class Config {
  kNative,        // no guards (baseline; runs inside the LFI runtime)
  kO0,
  kO1,
  kO2,
  kO2NoLoads,     // stores+jumps only ("O2, no loads")
};

inline const char* ConfigName(Config c) {
  switch (c) {
    case Config::kNative: return "native";
    case Config::kO0: return "LFI O0";
    case Config::kO1: return "LFI O1";
    case Config::kO2: return "LFI O2";
    case Config::kO2NoLoads: return "LFI O2, no loads";
  }
  return "?";
}

// Packs the result of elf::Build for Run() and the size tables.
inline Built Pack(Result<elf::Built> r) {
  Built b;
  if (!r) {
    b.error = r.error();
    return b;
  }
  b.text_bytes = r->text_size;
  b.elf = std::move(r->bytes);
  b.file_bytes = b.elf.size();
  b.ok = true;
  return b;
}

// Builds without the rewriter: hand-guarded programs whose guard-region
// faults must survive to execution, still subject to verification.
inline Built BuildRaw(const std::string& src) {
  return Pack(elf::Build(src, std::nullopt));
}

inline Built BuildLfi(const std::string& src, Config config,
                      rewriter::RewriteStats* stats = nullptr) {
  rewriter::RewriteOptions opts;
  switch (config) {
    case Config::kNative: opts.insert_guards = false; break;
    case Config::kO0: opts.level = rewriter::OptLevel::kO0; break;
    case Config::kO1: opts.level = rewriter::OptLevel::kO1; break;
    case Config::kO2: opts.level = rewriter::OptLevel::kO2; break;
    case Config::kO2NoLoads:
      opts.level = rewriter::OptLevel::kO2;
      opts.sandbox_loads = false;
      break;
  }
  return Pack(elf::Build(src, opts, stats));
}

inline Built BuildWasm(const std::string& src, wasm::Engine engine) {
  Built b;
  auto file = asmtext::Parse(src);
  if (!file) {
    b.error = file.error();
    return b;
  }
  auto instrumented = wasm::Instrument(*file, engine);
  if (!instrumented) {
    b.error = instrumented.error();
    return b;
  }
  rewriter::RewriteOptions opts;
  opts.insert_guards = false;
  auto expanded = rewriter::Rewrite(*instrumented, opts);
  if (!expanded) {
    b.error = expanded.error();
    return b;
  }
  auto img = asmtext::Assemble(*expanded, asmtext::LayoutSpec{});
  if (!img) {
    b.error = img.error();
    return b;
  }
  b.text_bytes = img->text.size();
  b.elf = elf::Write(elf::FromAssembled(*img));
  b.file_bytes = b.elf.size();
  b.ok = true;
  return b;
}

struct Outcome {
  bool ok = false;
  uint64_t cycles = 0;
  uint64_t insts = 0;
  int status = 0;
  // Host wall-clock time spent inside RunUntilIdle, for measuring the
  // interpreter's own throughput (simulated results never depend on it).
  double host_seconds = 0.0;
  std::string error;
};

// Runs a built executable to completion on the given core model. Pass a
// TraceSink to decompose the run into per-sandbox counters (guards
// executed, loads/stores, block-cache traffic, ...) — attaching one must
// not change any simulated result, only host time.
inline Outcome Run(const Built& built, const arch::CoreParams& core,
                   bool verify, bool check_loads = true,
                   bool nested_pagetables = false,
                   emu::Dispatch dispatch = emu::Dispatch::kBlock,
                   trace::TraceSink* sink = nullptr) {
  Outcome o;
  if (!built.ok) {
    o.error = built.error;
    return o;
  }
  runtime::RuntimeConfig cfg;
  cfg.core = core;
  cfg.enforce_verification = verify;
  cfg.verify.check_loads = check_loads;
  runtime::Runtime rt(cfg);
  rt.machine().timing().set_nested_pagetables(nested_pagetables);
  rt.machine().set_dispatch(dispatch);
  if (sink != nullptr) rt.set_trace_sink(sink);
  auto pid = rt.Load({built.elf.data(), built.elf.size()});
  if (!pid.ok()) {
    o.error = pid.error();
    return o;
  }
  const auto t0 = std::chrono::steady_clock::now();
  rt.RunUntilIdle(uint64_t{2000} * 1000 * 1000);
  const auto t1 = std::chrono::steady_clock::now();
  o.host_seconds = std::chrono::duration<double>(t1 - t0).count();
  const auto* p = rt.proc(*pid);
  if (p->exit_kind != runtime::ExitKind::kExited) {
    o.error = "killed: " + p->fault_detail;
    return o;
  }
  o.ok = true;
  o.cycles = rt.Cycles();
  o.insts = rt.machine().timing().Retired();
  o.status = p->exit_status;
  return o;
}

// Machine-readable results sink for the CI bench job's baseline check.
//
// Each bench binary may be invoked with `--json <path>`; every metric it
// prints for humans is also Add()ed here, and Write() emits them as one
// flat JSON object `{"metric.name": value, ...}`. Because the substrate
// is a deterministic simulator the values are exact, so the regression
// checker (tools/check_bench_regression.py) can compare runs across
// machines. Write() merges into an existing file so several bench
// binaries can share one output path.
class JsonReport {
 public:
  // Scans argv for `--json <path>` (or `--json=<path>`). With no flag the
  // report is disabled and Add/Write are no-ops.
  static JsonReport FromArgs(int argc, char** argv) {
    JsonReport r;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        r.path_ = argv[i + 1];
      } else if (arg.rfind("--json=", 0) == 0) {
        r.path_ = arg.substr(7);
      }
    }
    return r;
  }

  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& metric, double value) {
    if (enabled()) metrics_[metric] = value;
  }

  // Writes all metrics, merged over any that a previous bench binary
  // already recorded in the same file. Returns false on I/O failure.
  bool Write() const {
    if (!enabled()) return true;
    std::map<std::string, double> all = ReadExisting();
    for (const auto& [k, v] : metrics_) all[k] = v;
    std::ofstream out(path_, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path_.c_str());
      return false;
    }
    out << "{\n";
    bool first = true;
    for (const auto& [k, v] : all) {
      if (!first) out << ",\n";
      first = false;
      std::ostringstream num;
      num.precision(17);
      num << v;
      out << "  \"" << k << "\": " << num.str();
    }
    out << "\n}\n";
    return out.good();
  }

 private:
  // Minimal parser for the flat {"key": number} files Write() produces;
  // anything unparseable is ignored (the file is then overwritten).
  std::map<std::string, double> ReadExisting() const {
    std::map<std::string, double> out;
    std::ifstream in(path_);
    if (!in) return out;
    std::string line;
    while (std::getline(in, line)) {
      const size_t k0 = line.find('"');
      if (k0 == std::string::npos) continue;
      const size_t k1 = line.find('"', k0 + 1);
      if (k1 == std::string::npos) continue;
      const size_t colon = line.find(':', k1);
      if (colon == std::string::npos) continue;
      try {
        out[line.substr(k0 + 1, k1 - k0 - 1)] =
            std::stod(line.substr(colon + 1));
      } catch (...) {
      }
    }
    return out;
  }

  std::string path_;
  std::map<std::string, double> metrics_;
};

// Kebab-case config slug for metric names (ConfigName has spaces).
inline const char* ConfigSlug(Config c) {
  switch (c) {
    case Config::kNative: return "native";
    case Config::kO0: return "o0";
    case Config::kO1: return "o1";
    case Config::kO2: return "o2";
    case Config::kO2NoLoads: return "o2-noloads";
  }
  return "?";
}

// Host seconds of the fastest of three runs of `fn`.
inline double BestOf3Seconds(const std::function<void()>& fn) {
  double best = 1e100;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

inline double OverheadPct(uint64_t base, uint64_t value) {
  return 100.0 * (static_cast<double>(value) / static_cast<double>(base) -
                  1.0);
}

// Geometric mean of (1 + overhead) terms, reported back as a percentage,
// matching how the paper aggregates per-benchmark overheads.
class Geomean {
 public:
  void Add(double pct) {
    log_sum_ += std::log(1.0 + pct / 100.0);
    ++n_;
  }
  double Pct() const {
    return n_ == 0 ? 0.0 : 100.0 * (std::exp(log_sum_ / n_) - 1.0);
  }

 private:
  double log_sum_ = 0.0;
  int n_ = 0;
};

// The 14 SPEC-subset workload names (excluding coremark).
inline std::vector<std::string> SpecNames() {
  std::vector<std::string> names;
  for (const auto& w : workloads::AllWorkloads()) {
    if (w.name != "coremark") names.push_back(w.name);
  }
  return names;
}

inline std::vector<std::string> WasmNames() {
  std::vector<std::string> names;
  for (const auto& w : workloads::AllWorkloads()) {
    if (w.wasm_compatible) names.push_back(w.name);
  }
  return names;
}

}  // namespace lfi::bench

#endif  // LFI_BENCH_HARNESS_H_
