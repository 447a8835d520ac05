// Figure 3: runtime overhead of LFI optimization levels over native, per
// SPEC-subset benchmark, on both core models (GCP T2A and Apple M1).
//
// Expected shape (paper): O0 >> O1 > O2; geomean O2 ~= 6-7%; "no loads"
// ~= 1%; the O0 -> O1 jump (the zero-instruction guard) is the largest
// single improvement.
//
// Figure 5 (LFI vs hardware-assisted virtualization, Apple M1 only) reuses
// this figure's native and O2 runs and adds one more: the same native
// binary with nested page tables, which doubles the cost of every TLB
// walk, as Section 6.4 explains KVM's overhead. Expected shape: KVM
// overhead is small but concentrated in TLB-pressure benchmarks (mcf,
// omnetpp, xalancbmk); LFI's overhead is spread across compute-bound
// benchmarks; overall the two are comparable, with LFI slightly higher.

#include "harness.h"

namespace lfi::bench {
namespace {

constexpr uint64_t kScale = 1200000;

struct KvmRow {
  std::string name;
  double kvm_pct;
  double lfi_pct;
};

void RunCore(const arch::CoreParams& core, bool with_kvm, JsonReport* json) {
  std::printf("\nOverhead on SPEC 2017 stand-ins - %s (%% over native)\n",
              core.name.c_str());
  std::printf("%-16s %9s %9s %9s %12s\n", "benchmark", "LFI O0", "LFI O1",
              "LFI O2", "O2 no-loads");
  Geomean g[4];
  const Config configs[4] = {Config::kO0, Config::kO1, Config::kO2,
                             Config::kO2NoLoads};
  std::vector<KvmRow> kvm_rows;
  for (const auto& name : SpecNames()) {
    const std::string src = workloads::Generate(name, kScale);
    const Built native = BuildLfi(src, Config::kNative);
    const Outcome base = Run(native, core, /*verify=*/false);
    if (!base.ok) {
      std::printf("%-16s ERROR %s\n", name.c_str(), base.error.c_str());
      continue;
    }
    const std::string prefix = "fig3." + core.name + "." + name + ".";
    json->Add(prefix + "native.cycles", static_cast<double>(base.cycles));
    double pct[4];
    bool all_ok = true;
    for (int k = 0; k < 4; ++k) {
      const Built b = BuildLfi(src, configs[k]);
      const Outcome o = Run(b, core, /*verify=*/true,
                            configs[k] != Config::kO2NoLoads);
      if (!o.ok || o.status != base.status) {
        std::printf("%-16s ERROR %s (status %d vs %d)\n", name.c_str(),
                    o.error.c_str(), o.status, base.status);
        all_ok = false;
        break;
      }
      pct[k] = OverheadPct(base.cycles, o.cycles);
      g[k].Add(pct[k]);
      json->Add(prefix + ConfigSlug(configs[k]) + ".cycles",
                static_cast<double>(o.cycles));
    }
    if (!all_ok) continue;
    std::printf("%-16s %8.1f%% %8.1f%% %8.1f%% %11.1f%%\n", name.c_str(),
                pct[0], pct[1], pct[2], pct[3]);
    if (!with_kvm) continue;
    const Outcome kvm = Run(native, core, /*verify=*/false, true,
                            /*nested_pagetables=*/true);
    if (!kvm.ok) {
      std::printf("%-16s KVM ERROR %s\n", name.c_str(), kvm.error.c_str());
      continue;
    }
    json->Add("fig5." + core.name + "." + name + ".kvm.cycles",
              static_cast<double>(kvm.cycles));
    kvm_rows.push_back({name, OverheadPct(base.cycles, kvm.cycles), pct[2]});
  }
  std::printf("%-16s %8.1f%% %8.1f%% %8.1f%% %11.1f%%\n", "geomean",
              g[0].Pct(), g[1].Pct(), g[2].Pct(), g[3].Pct());
  for (int k = 0; k < 4; ++k) {
    json->Add("fig3." + core.name + ".geomean." + ConfigSlug(configs[k]) +
                  ".overhead_pct",
              g[k].Pct());
  }
  if (!with_kvm) return;

  std::printf("\n=== Figure 5: LFI vs hardware-assisted virtualization ===\n");
  std::printf("\nLFI vs KVM - %s (%% over native)\n", core.name.c_str());
  std::printf("%-16s %12s %12s\n", "benchmark", "QEMU KVM", "LFI");
  Geomean kvm_g, lfi_g;
  for (const auto& row : kvm_rows) {
    std::printf("%-16s %11.1f%% %11.1f%%\n", row.name.c_str(), row.kvm_pct,
                row.lfi_pct);
    kvm_g.Add(row.kvm_pct);
    lfi_g.Add(row.lfi_pct);
  }
  std::printf("%-16s %11.1f%% %11.1f%%\n", "geomean", kvm_g.Pct(),
              lfi_g.Pct());
  json->Add("fig5." + core.name + ".geomean.kvm.overhead_pct", kvm_g.Pct());
}

}  // namespace
}  // namespace lfi::bench

int main(int argc, char** argv) {
  auto json = lfi::bench::JsonReport::FromArgs(argc, argv);
  std::printf("=== Figure 3: LFI optimization levels vs native ===\n");
  lfi::bench::RunCore(lfi::arch::GcpT2aLikeParams(), /*with_kvm=*/false,
                      &json);
  lfi::bench::RunCore(lfi::arch::AppleM1LikeParams(), /*with_kvm=*/true,
                      &json);
  return json.Write() ? 0 : 1;
}
