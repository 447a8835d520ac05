// CoreMark (artifact appendix A.6.3): the openly-available workload the
// paper's artifact offers for users without a SPEC license. Reports LFI
// overheads at every optimization level on both core models, plus the
// per-sandbox Spectre-isolation cost on top of O2 (Section 7.1). The
// interpreter's own wall throughput is measured by bench_emu_dispatch.

#include "harness.h"

namespace lfi::bench {
namespace {

constexpr uint64_t kScale = 1500000;

bool RunCore(const arch::CoreParams& core, JsonReport* json) {
  const std::string src = workloads::Generate("coremark", kScale);
  const Outcome base = Run(BuildLfi(src, Config::kNative), core, false);
  if (!base.ok) {
    std::printf("%s: ERROR %s\n", core.name.c_str(), base.error.c_str());
    return false;
  }
  std::printf("\ncoremark - %s (native: %llu cycles, %llu insts)\n",
              core.name.c_str(),
              static_cast<unsigned long long>(base.cycles),
              static_cast<unsigned long long>(base.insts));
  const std::string prefix = "coremark." + core.name + ".";
  json->Add(prefix + "native.cycles", static_cast<double>(base.cycles));
  for (Config c : {Config::kO0, Config::kO1, Config::kO2,
                   Config::kO2NoLoads}) {
    const Outcome o =
        Run(BuildLfi(src, c), core, true, c != Config::kO2NoLoads);
    if (!o.ok || o.status != base.status) {
      std::printf("  %-18s ERROR %s\n", ConfigName(c), o.error.c_str());
      continue;
    }
    std::printf("  %-18s %6.1f%% overhead\n", ConfigName(c),
                OverheadPct(base.cycles, o.cycles));
    json->Add(prefix + ConfigSlug(c) + ".cycles",
              static_cast<double>(o.cycles));
    json->Add(prefix + ConfigSlug(c) + ".overhead_pct",
              OverheadPct(base.cycles, o.cycles));
  }
  // Counter decomposition of the O2 run (guards executed is the guard
  // instruction tax behind the overhead percentage above).
  {
    trace::TraceSink sink;
    const Outcome o = Run(BuildLfi(src, Config::kO2), core, true, true,
                          false, emu::Dispatch::kBlock, &sink);
    if (o.ok) {
      uint64_t guards = 0, loads = 0, stores = 0;
      for (const auto& [pid, m] : sink.all_metrics()) {
        guards += m.Get(trace::Counter::kGuardsExecuted);
        loads += m.Get(trace::Counter::kLoads);
        stores += m.Get(trace::Counter::kStores);
      }
      std::printf(
          "  %-18s %llu guards / %llu loads / %llu stores / %llu insts\n",
          "O2 breakdown", static_cast<unsigned long long>(guards),
          static_cast<unsigned long long>(loads),
          static_cast<unsigned long long>(stores),
          static_cast<unsigned long long>(o.insts));
      json->Add(prefix + "o2.guards", static_cast<double>(guards));
      json->Add(prefix + "o2.loads", static_cast<double>(loads));
      json->Add(prefix + "o2.stores", static_cast<double>(stores));
      json->Add(prefix + "o2.insts", static_cast<double>(o.insts));
    }
  }
  // O2 with per-sandbox predictor contexts (a second sandbox runs
  // alongside, so domain crossings actually happen).
  {
    const Built b = BuildLfi(src, Config::kO2);
    runtime::RuntimeConfig cfg;
    cfg.core = core;
    cfg.spectre_ctx_isolation = true;
    runtime::Runtime rt(cfg);
    auto p1 = rt.Load({b.elf.data(), b.elf.size()});
    auto p2 = rt.Load({b.elf.data(), b.elf.size()});
    if (p1.ok() && p2.ok()) {
      rt.RunUntilIdle(uint64_t{2000} * 1000 * 1000);
      std::printf("  %-18s %6.1f%% overhead (2 sandboxes, vs 2x native)\n",
                  "O2 + SCXTNUM", OverheadPct(2 * base.cycles, rt.Cycles()));
      json->Add(prefix + "o2-scxtnum.cycles",
                static_cast<double>(rt.Cycles()));
      json->Add(prefix + "o2-scxtnum.overhead_pct",
                OverheadPct(2 * base.cycles, rt.Cycles()));
    }
  }
  return true;
}

}  // namespace
}  // namespace lfi::bench

int main(int argc, char** argv) {
  auto json = lfi::bench::JsonReport::FromArgs(argc, argv);
  std::printf("=== CoreMark-like workload (artifact appendix A.6.3) ===\n");
  bool ok = true;
  ok &= lfi::bench::RunCore(lfi::arch::AppleM1LikeParams(), &json);
  ok &= lfi::bench::RunCore(lfi::arch::GcpT2aLikeParams(), &json);
  ok &= json.Write();
  return ok ? 0 : 1;
}
