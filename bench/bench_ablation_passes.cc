// Ablation: individual effect of each rewriter optimization (DESIGN.md E7).
//
// Measures targeted microworkloads where each pass matters:
//  - redundant guard elimination (Section 4.3): struct-field store runs;
//  - sp-guard elision (Section 4.2): call-heavy code with frame setup;
//  - the zero-instruction guard (Section 4.1): load-dense pointer code
//    (this is the O0 -> O1 jump of Figure 3).
// Expected shape: each optimization reduces overhead; RGE is worth a
// small amount (paper: ~1.5% average) and the zero-instruction guard is
// by far the largest win.

#include "harness.h"

namespace lfi::bench {
namespace {

// Struct-field heavy: repeated multi-offset accesses off one pointer.
std::string StructWorkload() {
  return R"(
.globl _start
.text
_start:
  adrp x14, arena
  add x14, x14, :lo12:arena
  movz x19, #40000
  mov x9, #0
loop:
  movz x10, #4095
  and x10, x9, x10
  add x10, x14, x10, lsl #3
  str x9, [x10, #8]
  str x9, [x10, #16]
  str x9, [x10, #24]
  str x9, [x10, #32]
  ldr x11, [x10, #8]
  add x13, x13, x11
  add x9, x9, #3
  subs x19, x19, #1
  b.ne loop
  movz x9, #127
  and x0, x13, x9
  rtcall #0
.bss
arena:
  .zero 65536
)";
}

// Call-heavy: every call adjusts sp and touches the frame.
std::string CallWorkload() {
  return R"(
.globl _start
.text
_start:
  movz x19, #60000
loop:
  bl leafa
  bl leafb
  subs x19, x19, #1
  b.ne loop
  movz x9, #127
  and x0, x13, x9
  rtcall #0
leafa:
  sub sp, sp, #48
  str x19, [sp, #8]
  str x13, [sp, #16]
  ldr x13, [sp, #16]
  add x13, x13, #1
  add sp, sp, #48
  ret
leafb:
  stp x29, x30, [sp, #-32]!
  str x13, [sp, #16]
  ldr x13, [sp, #16]
  add x13, x13, #2
  ldp x29, x30, [sp], #32
  ret
)";
}

// Load-dense dependent pointer chains (the zero-instruction guard case).
std::string LoadChainWorkload() {
  return workloads::Generate("541.leela", 800000);
}

struct Variant {
  const char* name;
  const char* slug;
  rewriter::OptLevel level;
  bool sp_elision;
};

void Measure(const char* title, const char* key, const std::string& src,
             const arch::CoreParams& core, JsonReport* json) {
  std::printf("\n%s\n", title);
  const Outcome base = Run(BuildLfi(src, Config::kNative), core, false);
  if (!base.ok) {
    std::printf("  native ERROR %s\n", base.error.c_str());
    return;
  }
  const std::string prefix = std::string("ablation.") + key + ".";
  json->Add(prefix + "native.cycles", static_cast<double>(base.cycles));
  const Variant variants[] = {
      {"O0 (basic 2-cycle guard)", "o0", rewriter::OptLevel::kO0, true},
      {"O1 (zero-instruction guard)", "o1", rewriter::OptLevel::kO1, true},
      {"O2 (adds RGE)", "o2", rewriter::OptLevel::kO2, true},
      {"O2, sp elision disabled", "o2-nospelision", rewriter::OptLevel::kO2,
       false},
  };
  for (const auto& v : variants) {
    rewriter::RewriteOptions opts;
    opts.level = v.level;
    opts.sp_elision = v.sp_elision;
    rewriter::RewriteStats stats;
    const Outcome o = Run(Pack(elf::Build(src, opts, &stats)), core, true);
    if (!o.ok || o.status != base.status) {
      std::printf("  %-28s ERROR %s\n", v.name, o.error.c_str());
      continue;
    }
    std::printf(
        "  %-28s %6.1f%% overhead  (insts %zu->%zu, hoisted %zu, "
        "sp-elided %zu)\n",
        v.name, OverheadPct(base.cycles, o.cycles), stats.input_insts,
        stats.output_insts, stats.guards_hoisted, stats.guards_elided_sp);
    json->Add(prefix + v.slug + ".cycles", static_cast<double>(o.cycles));
    json->Add(prefix + v.slug + ".output-insts",
              static_cast<double>(stats.output_insts));
  }
}

}  // namespace
}  // namespace lfi::bench

int main(int argc, char** argv) {
  auto json = lfi::bench::JsonReport::FromArgs(argc, argv);
  std::printf("=== Ablation: per-pass effect of the rewriter optimizations "
              "(apple-m1 model) ===\n");
  const auto core = lfi::arch::AppleM1LikeParams();
  lfi::bench::Measure("[A] struct-field store runs (RGE territory)", "struct",
                      lfi::bench::StructWorkload(), core, &json);
  lfi::bench::Measure("[B] call/frame-heavy code (sp-elision territory)",
                      "call", lfi::bench::CallWorkload(), core, &json);
  lfi::bench::Measure("[C] dependent-load chains (zero-instruction-guard "
                      "territory)",
                      "loadchain", lfi::bench::LoadChainWorkload(), core,
                      &json);
  return json.Write() ? 0 : 1;
}
