#include "fuzz/exec.h"

#include <string>

#include "arch/cost_model.h"
#include "arch/inst.h"
#include "arch/reg.h"
#include "elf/elf.h"
#include "fuzz/rng.h"

namespace lfi::fuzz {

namespace {

using arch::Inst;
using arch::Reg;

std::string Hex(uint64_t v) {
  char buf[32];
  snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

// True if `i` writes x30 by loading it from memory. The verifier's x30
// protocol makes the *next* instruction re-establish validity (guard or
// blr), so the checker exempts exactly this one retire.
bool LoadsLink(const Inst& i) {
  return arch::IsLoad(i) &&
         (i.rt == arch::kRegLink ||
          (i.mn == arch::Mn::kLdp && i.rt2 == arch::kRegLink));
}

}  // namespace

bool SlotInvariantChecker::Fail(uint64_t pc, const Inst& inst,
                                std::string what) {
  if (violation_.empty()) {
    violation_ = "pc=" + Hex(pc) + " (" + arch::MnName(inst) + "): " +
                 std::move(what);
  }
  return false;
}

bool SlotInvariantChecker::OnInst(const Inst& inst, uint64_t pc,
                                  const emu::CpuState& after,
                                  std::span<const emu::AccessRecord> accesses,
                                  bool faulted) {
  ++checked_;
  // Every *attempted* data access must stay inside slot + guards. This
  // holds for faulted instructions too: the emulator may refuse an access
  // real hardware would satisfy (a neighbor's page), so the attempt is
  // what matters, not whether it retired here.
  for (const auto& a : accesses) {
    if (!InWindow(a.addr, a.size)) {
      return Fail(pc, inst,
                  std::string(a.kind == emu::Access::kWrite ? "store" : "load") +
                      " of " + std::to_string(a.size) + " bytes at " +
                      Hex(a.addr) + " escapes the slot+guard window");
    }
  }
  if (faulted) return true;  // contained trap; registers unchanged

  // Section 3 register invariants, checked after every retire.
  if (after.x[21] != base_) {
    return Fail(pc, inst, "x21 (sandbox base) changed to " + Hex(after.x[21]));
  }
  for (uint8_t r : {uint8_t{18}, uint8_t{23}, uint8_t{24}}) {
    if (!InSlot(after.x[r])) {
      return Fail(pc, inst,
                  "x" + std::to_string(r) + " left the slot: " +
                      Hex(after.x[r]));
    }
  }
  if ((after.x[22] >> 32) != 0) {
    return Fail(pc, inst, "x22 holds a 64-bit value: " + Hex(after.x[22]));
  }
  if (!(after.sp >= base_ - runtime::kGuardSize - kSpSlack &&
        after.sp <
            base_ + runtime::kSlotSize + runtime::kGuardSize + kSpSlack)) {
    return Fail(pc, inst, "sp left the slot+slack window: " + Hex(after.sp));
  }
  if (!LoadsLink(inst) && !InSlot(after.x[30]) &&
      !RuntimeOwned(after.x[30])) {
    return Fail(pc, inst, "x30 invalid outside a load window: " +
                              Hex(after.x[30]));
  }
  // Indirect control flow may only land in the slot or at a runtime-owned
  // address; anywhere else could be a neighbor's text on real hardware.
  if (arch::IsIndirectBranch(inst) && !InSlot(after.pc) &&
      !RuntimeOwned(after.pc)) {
    return Fail(pc, inst, "indirect branch escaped to " + Hex(after.pc));
  }
  return true;
}

namespace {

namespace rt = lfi::runtime;

// The slot offset of the data segment the address registers start in.
constexpr uint64_t kDataOffset = 0x200000;

// ExecuteWords' caller verifies, and the oracle meta-tests feed it
// unverified escapes, so the loader must not.
rt::RuntimeConfig HarnessConfig(const ExecOptions& opts) {
  rt::RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  cfg.enforce_verification = false;
  cfg.dispatch = opts.dispatch;
  return cfg;
}

// The stream as an executable: text at kProgramStart, entered at its
// first word, and a 4-page bss segment for the address registers.
elf::ElfImage StreamImage(std::span<const uint32_t> words) {
  elf::ElfImage image;
  image.entry = rt::kProgramStart;
  elf::Segment& text = image.segments.emplace_back();
  text.vaddr = rt::kProgramStart;
  const auto* bytes = reinterpret_cast<const uint8_t*>(words.data());
  text.data.assign(bytes, bytes + words.size() * 4);
  text.memsz = text.data.size();
  text.exec = true;
  elf::Segment& bss = image.segments.emplace_back();
  bss.vaddr = kDataOffset;
  bss.memsz = 4 * rt::kPage;
  bss.write = true;
  return image;
}

}  // namespace

ExecEnv::ExecEnv(std::span<const uint32_t> words, const ExecOptions& opts)
    : rt_(HarnessConfig(opts)) {
  const auto pid = rt_.LoadImage(StreamImage(words));
  if (!pid) {
    error_ = pid.error();
    return;
  }
  pid_ = *pid;
  base_ = rt_.proc(pid_)->base;
  const uint64_t base = base_;
  const uint64_t kPage = rt::kPage;
  const uint64_t text_base = base + rt::kProgramStart;
  const uint64_t data_base = base + kDataOffset;

  // Tripwire pages OUTSIDE the slot+guard window. On real hardware these
  // addresses could belong to a neighbor; mapping them RW here means a
  // near-escape access *retires* instead of faulting, and the invariant
  // checker convicts it from the access trace.
  {
    emu::AddressSpace& space = rt_.space();
    auto map = [&](uint64_t addr, uint64_t len) {
      (void)space.Map(addr, len, emu::kPermRead | emu::kPermWrite);
    };
    const uint64_t lo_end = (base - rt::kGuardSize) & ~(kPage - 1);
    map(lo_end - 2 * kPage, 2 * kPage);
    const uint64_t hi_start =
        (base + rt::kSlotSize + rt::kGuardSize + kPage - 1) & ~(kPage - 1);
    map(hi_start, 2 * kPage);
    // A neighbor slot's data page and two distant pages.
    map(base + rt::kSlotSize + kDataOffset, kPage);
    map(base - (uint64_t{1} << 30), kPage);
    map(base + 2 * rt::kSlotSize + (uint64_t{1} << 30), kPage);
  }

  // The loader set pc, x30 and sp; the reserved registers satisfy their
  // invariants; everything else is attacker-controlled, so give it
  // hostile values.
  Rng rng(opts.seed);
  emu::CpuState& st = machine().state();
  st = rt_.proc(pid_)->cpu;
  const uint64_t interesting[] = {
      0,
      ~uint64_t{0},
      base,
      base - 8,
      base - rt::kGuardSize,
      base + rt::kSlotSize,
      base + rt::kSlotSize + rt::kGuardSize - 1,
      rt::kRuntimeEntryBase,
      text_base,
  };
  for (uint8_t r : {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12,
                    13, 14, 15, 16, 17, 19, 20, 25, 26, 27, 28, 29}) {
    switch (rng.Below(4)) {
      case 0: st.x[r] = rng.Next(); break;
      case 1: st.x[r] = data_base + rng.Below(2 * kPage); break;
      case 2: st.x[r] = rng.Next() & 0xffffffff; break;
      default: st.x[r] = interesting[rng.Below(std::size(interesting))]; break;
    }
  }
  st.x[18] = st.x[23] = st.x[24] = data_base;
  st.x[22] = rng.Next() & 0xffffffff;
  st.n = rng.Chance(50);
  st.z = rng.Chance(50);
  st.c = rng.Chance(50);
  st.v = rng.Chance(50);
  for (int v = 0; v < 8; ++v) {
    st.vr[v].lo = rng.Next();
    st.vr[v].hi = rng.Next();
  }
}

uint64_t ExecEnv::MemoryDigest() {
  constexpr uint64_t kBasis = 0xcbf29ce484222325ull;
  auto fnv = [](uint64_t h, const uint8_t* p, size_t n) {
    for (size_t k = 0; k < n; ++k) h = (h ^ p[k]) * 0x100000001b3ull;
    return h;
  };
  // Each page is digested alone, so a page still shared with the zero
  // page costs one cached value rather than 16 KiB of hashing.
  const emu::AddressSpace::PageData* zero =
      emu::AddressSpace::ZeroPage().get();
  static const uint64_t kZeroDigest = fnv(kBasis, zero->data(), zero->size());
  uint64_t h = kBasis;
  for (const auto& [off, range] : rt_.proc(pid_)->mappings) {
    if (!(range.second & emu::kPermWrite)) continue;  // not data or stack
    for (uint64_t a = base_ + off; a < base_ + off + range.first;
         a += rt::kPage) {
      uint8_t perms = 0;
      const auto* page = rt_.space().PagePayload(a, &perms);
      const uint64_t d = page == zero
                             ? kZeroDigest
                             : fnv(kBasis, page->data(), page->size());
      h = fnv(h, reinterpret_cast<const uint8_t*>(&d), sizeof d);
    }
  }
  return h;
}

namespace {

// The body of ExecuteWords and ExecuteWordsStepwise.
ExecResult Execute(std::span<const uint32_t> words, const ExecOptions& opts,
                   bool stepwise) {
  ExecEnv env(words, opts);
  ExecResult res;
  if (!env.error().empty()) {
    res.violation = "the loader refused the stream: " + env.error();
    return res;
  }
  SlotInvariantChecker checker(env.base());
  emu::Machine& machine = env.machine();
  if (opts.attach_checker) machine.set_exec_hook(&checker);

  if (stepwise) {
    for (uint64_t n = 0;
         n < opts.max_insts && res.stop == emu::StopReason::kInstLimit; ++n) {
      res.stop = machine.Run(1);
    }
  } else {
    res.stop = machine.Run(opts.max_insts);
  }
  machine.set_exec_hook(nullptr);
  res.fault = machine.fault();
  res.retired = machine.timing().Retired();
  res.cycles = machine.timing().Cycles();
  res.final_state = machine.state();
  res.violation = checker.violation();
  res.memory = env.MemoryDigest();

  const uint64_t base = env.base();
  if (res.violation.empty() && res.stop == emu::StopReason::kFault) {
    if (res.fault.kind == emu::CpuFault::Kind::kIllegal) {
      res.violation = "pc=" + Hex(res.fault.pc) +
                      ": system instruction executed inside verified text";
    } else if (res.fault.kind == emu::CpuFault::Kind::kMemory &&
               !(res.fault.mem.addr >= base - rt::kGuardSize &&
                 res.fault.mem.addr <
                     base + rt::kSlotSize + rt::kGuardSize)) {
      // Belt and braces: the access trace should have caught this first.
      res.violation = "pc=" + Hex(res.fault.pc) +
                      ": faulting access outside the window at " +
                      Hex(res.fault.mem.addr);
    }
  }
  return res;
}

}  // namespace

ExecResult ExecuteWords(std::span<const uint32_t> words,
                        const ExecOptions& opts) {
  return Execute(words, opts, /*stepwise=*/false);
}

ExecResult ExecuteWordsStepwise(std::span<const uint32_t> words,
                                const ExecOptions& opts) {
  return Execute(words, opts, /*stepwise=*/true);
}

}  // namespace lfi::fuzz
