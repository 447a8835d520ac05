#include "verify_model/crossval.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/cost_model.h"
#include "emu/address_space.h"
#include "emu/machine.h"

namespace lfi::verify_model {

namespace {

using emu::AddressSpace;
using emu::CpuState;
using emu::Machine;
using emu::StopReason;

// Crossval memory layout, 16KiB-page-aligned (emu::kPageSize):
//   data1 [base+0x00000, base+0x10000)  RW, patterned
//   text  [base+0x10000, base+0x14000)  R+X, zeros + the sample word
//   gap   [base+0x14000, base+0x20000)  unmapped
//   data2 [base+0x20000, base+0x30000)  RW, patterned
// Reserved-register pre-state is chosen so that every verifier-accepted
// immediate offset from x18/x21/x23/x24 stays inside data1 (or falls off
// the mapped space entirely, which PredictEffect models as a fault), and
// every uxtw-guarded access lands in data1.
// This is deliberately not the loader's slot (runtime/layout.h, which the
// fuzz harness uses): data1 maps the call-table page and the leading
// guard region read-write and patterned, so that x21-relative loads,
// call-table loads included, read bytes PatternByte predicts. CheckSnapshot
// forbids both: the table page must be the read-only call table, and
// nothing else may be mapped below kProgramStart.
constexpr uint64_t kBase = uint64_t{1} << 32;
constexpr uint64_t kText = kBase + 0x10000;
constexpr uint64_t kData2 = kBase + 0x20000;
constexpr uint64_t kSpInit = kData2 + 0x8000;

struct Runner {
  AddressSpace space;
  Machine machine;
  MemLayout layout;

  Runner() : machine(&space, arch::AppleM1LikeParams()) {
    (void)space.Map(kBase, 0x10000, emu::kPermRead | emu::kPermWrite);
    (void)space.Map(kText, 0x4000, emu::kPermRead | emu::kPermExec);
    (void)space.Map(kData2, 0x10000, emu::kPermRead | emu::kPermWrite);
    layout.ranges = {
        {kBase, kBase + 0x10000, true, true},
        {kText, kText + 0x4000, true, false},
        {kData2, kData2 + 0x10000, true, true},
    };
  }

  void Pattern(uint64_t addr, uint64_t len) {
    std::vector<uint8_t> buf(len);
    for (uint64_t i = 0; i < len; ++i) {
      buf[i] = MemLayout::PatternByte(addr + i);
    }
    (void)space.HostWrite(addr, buf);
  }

  PreState Reset(uint32_t word) {
    // Re-pattern the data regions (a previous sample may have stored into
    // them) and install the sample word at the start of an otherwise-zero
    // text page. The text write lands on an exec page, so the mutation
    // generation bumps and the machine decodes the new word
    // automatically.
    Pattern(kBase, 0x10000);
    Pattern(kData2, 0x10000);
    uint8_t text[8] = {};
    std::memcpy(text, &word, 4);
    (void)space.HostWrite(kText, text);

    CpuState& st = machine.state();
    st = CpuState{};
    for (int i = 0; i < 31; ++i) st.x[i] = 0x40u * static_cast<unsigned>(i);
    st.x[21] = kBase;
    st.x[18] = kBase + 0x1000;
    st.x[23] = kBase + 0x2000;
    st.x[24] = kBase + 0x4000;
    st.x[22] = 0x3F00;
    st.x[30] = kBase + 0x8000;
    st.sp = kSpInit;
    st.pc = kText;

    PreState pre;
    for (int i = 0; i < 31; ++i) pre.x[i] = st.x[i];
    pre.sp = st.sp;
    pre.pc = st.pc;
    return pre;
  }
};

uint64_t RegOf(const CpuState& st, int reg) {
  return reg == 32 ? st.sp : st.x[reg];
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string RegName(int reg) {
  return reg == 32 ? "sp" : "x" + std::to_string(reg);
}

const char* StopName(StopReason r) {
  switch (r) {
    case StopReason::kInstLimit: return "inst-limit";
    case StopReason::kRuntimeEntry: return "runtime-entry";
    case StopReason::kFault: return "fault";
    case StopReason::kBrk: return "brk";
    case StopReason::kHookStop: return "hook-stop";
  }
  return "?";
}

}  // namespace

CrossvalResult CrossValidateWords(std::string_view class_name,
                                  std::span<const uint32_t> words,
                                  const CrossvalOptions& opts) {
  CrossvalResult res;
  Runner runner;
  auto fail = [&](uint32_t w, std::string detail) {
    res.failures.push_back(
        {std::string(class_name), w, std::move(detail)});
  };

  size_t n = 0;
  for (uint32_t w : words) {
    if (n++ >= opts.max_samples_per_class) break;
    const MFacts facts = ExtractFacts(w);
    if (!facts.decodable) {
      fail(w, "sampled word is not decodable by the model");
      continue;
    }
    const PreState pre = runner.Reset(w);
    const EffectPrediction pred = PredictEffect(facts, pre, runner.layout);
    const StopReason stop = runner.machine.Run(1);
    const CpuState& post = runner.machine.state();
    ++res.executed;

    // Stop-reason and next-pc agreement.
    if (facts.brk) {
      if (stop != StopReason::kBrk) {
        fail(w, std::string("expected brk stop, got ") + StopName(stop));
        continue;
      }
    } else if (pred.mem_fault) {
      ++res.faulted;
      if (stop != StopReason::kFault) {
        fail(w, std::string("model predicts a memory fault, emulator "
                            "stopped with ") +
                    StopName(stop));
        continue;
      }
    } else if (facts.IsBranchInst()) {
      // The branch itself retires; the emulator may or may not attempt
      // the next fetch (which can fault on a non-executable target)
      // before honoring the instruction limit, so accept either stop.
      ++res.branches;
      if (stop != StopReason::kInstLimit && stop != StopReason::kFault) {
        fail(w, std::string("branch sample stopped with ") + StopName(stop));
        continue;
      }
      if (post.pc != pred.next_pc) {
        fail(w, "branch target: model " + Hex(pred.next_pc) +
                    " vs emulator " + Hex(post.pc));
        continue;
      }
    } else {
      if (stop != StopReason::kInstLimit) {
        fail(w, std::string("expected clean retirement, emulator stopped "
                            "with ") +
                    StopName(stop));
        continue;
      }
      if (post.pc != pred.next_pc) {
        fail(w, "next pc: model " + Hex(pred.next_pc) + " vs emulator " +
                    Hex(post.pc));
        continue;
      }
    }

    // Reserved-register effects. On a predicted fault (or brk) nothing
    // may change; otherwise each register follows its predicted effect.
    const bool frozen = facts.brk || pred.mem_fault;
    for (size_t i = 0; i < 7; ++i) {
      const int reg = kReservedList[i];
      const uint64_t before = reg == 32 ? pre.sp : pre.x[reg];
      const uint64_t after = RegOf(post, reg);
      const RegEffect eff =
          frozen ? RegEffect{EffKind::kPreserved, 0} : pred.reserved[i];
      switch (eff.kind) {
        case EffKind::kPreserved:
          if (after != before) {
            fail(w, RegName(reg) + ": model preserves " + Hex(before) +
                        ", emulator wrote " + Hex(after));
          }
          break;
        case EffKind::kExact:
          if (after != eff.value) {
            fail(w, RegName(reg) + ": model predicts " + Hex(eff.value) +
                        ", emulator has " + Hex(after));
          }
          break;
        case EffKind::kZext32:
          if ((after >> 32) != 0) {
            fail(w, RegName(reg) +
                        ": model predicts a zero-extended write, emulator "
                        "has " +
                        Hex(after));
          }
          break;
      }
    }
  }
  return res;
}

CrossvalResult CrossValidate(std::span<const SweepResult> sweeps,
                             const CrossvalOptions& opts) {
  CrossvalResult total;
  for (const SweepResult& s : sweeps) {
    CrossvalResult r = CrossValidateWords(s.class_name, s.accepted_sample,
                                          opts);
    total.executed += r.executed;
    total.faulted += r.faulted;
    total.branches += r.branches;
    for (auto& f : r.failures) total.failures.push_back(std::move(f));
  }
  return total;
}

}  // namespace lfi::verify_model
