#include "fuzz/exec.h"

#include <cstring>
#include <string>

#include "arch/cost_model.h"
#include "arch/inst.h"
#include "arch/reg.h"
#include "fuzz/rng.h"
#include "runtime/layout.h"

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
  if (after.x[21] != cfg_.base) {
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
  if (!(after.sp >= cfg_.base - cfg_.guard_bytes - kSpSlack &&
        after.sp <
            cfg_.base + (uint64_t{1} << 32) + cfg_.guard_bytes + kSpSlack)) {
    return Fail(pc, inst, "sp left the slot+slack window: " + Hex(after.sp));
  }
  if (!LoadsLink(inst) && !InSlot(after.x[30]) && !InRuntime(after.x[30])) {
    return Fail(pc, inst, "x30 invalid outside a load window: " +
                              Hex(after.x[30]));
  }
  // Indirect control flow may only land in the slot or the runtime-entry
  // region; anywhere else could be a neighbor's text on real hardware.
  if (arch::IsIndirectBranch(inst) && !InSlot(after.pc) &&
      !InRuntime(after.pc)) {
    return Fail(pc, inst, "indirect branch escaped to " + Hex(after.pc));
  }
  return true;
}

ExecEnv::ExecEnv(std::span<const uint32_t> words, const ExecOptions& opts)
    : base_(runtime::SlotBase(1)),
      machine_(&space_, arch::AppleM1LikeParams()) {
  namespace rt = lfi::runtime;
  const uint64_t base = base_;
  const uint64_t kPage = emu::kPageSize;
  const uint64_t rt_len =
      rt::kRuntimeEntryGranule * uint64_t(rt::Rtcall::kCount);

  auto map = [&](uint64_t addr, uint64_t len, uint8_t perms) {
    (void)space_.Map(addr, len, perms);
    ranges_.emplace_back(addr, len);
  };

  // Call table page at the slot base (read-only), entries pointing into
  // the runtime-entry region like the real runtime's setup.
  map(base, kPage, emu::kPermRead);
  {
    std::vector<uint8_t> table(opts.table_bytes, 0);
    for (uint64_t i = 0; i * 8 + 8 <= opts.table_bytes; ++i) {
      const uint64_t entry =
          rt::kRuntimeEntryBase +
          (i % uint64_t(rt::Rtcall::kCount)) * rt::kRuntimeEntryGranule;
      memcpy(table.data() + i * 8, &entry, 8);
    }
    (void)space_.HostWrite(base, {table.data(), table.size()});
  }

  // Text (read+execute).
  const uint64_t text_base = base + rt::kProgramStart;
  const uint64_t text_len = uint64_t(words.size()) * 4;
  const uint64_t text_map = (text_len + kPage - 1) / kPage * kPage;
  map(text_base, text_map == 0 ? kPage : text_map,
      emu::kPermRead | emu::kPermExec);
  (void)space_.HostWrite(
      text_base, {reinterpret_cast<const uint8_t*>(words.data()), text_len});

  // Data region the address-reserved registers start out pointing at.
  const uint64_t data_base = base + 0x200000;
  map(data_base, 4 * kPage, emu::kPermRead | emu::kPermWrite);

  // Stack at the top of the usable area.
  map(base + rt::kProgramEnd - 8 * kPage, 8 * kPage,
      emu::kPermRead | emu::kPermWrite);

  // Tripwire pages OUTSIDE the slot+guard window. On real hardware these
  // addresses could belong to a neighbor; mapping them RW here means a
  // near-escape access *retires* instead of faulting, and the invariant
  // checker convicts it from the access trace.
  {
    const uint64_t lo_end = (base - opts.guard_bytes) & ~(kPage - 1);
    map(lo_end - 2 * kPage, 2 * kPage, emu::kPermRead | emu::kPermWrite);
    const uint64_t hi_start =
        (base + rt::kSlotSize + opts.guard_bytes + kPage - 1) & ~(kPage - 1);
    map(hi_start, 2 * kPage, emu::kPermRead | emu::kPermWrite);
    // A neighbor slot's data page and two distant pages.
    map(base + rt::kSlotSize + 0x200000, kPage,
        emu::kPermRead | emu::kPermWrite);
    map(base - (uint64_t{1} << 30), kPage, emu::kPermRead | emu::kPermWrite);
    map(base + 2 * rt::kSlotSize + (uint64_t{1} << 30), kPage,
        emu::kPermRead | emu::kPermWrite);
  }

  machine_.SetRuntimeRegion(rt::kRuntimeEntryBase, rt_len);
  machine_.set_dispatch(opts.dispatch);

  // Initial state: reserved registers satisfy their invariants; everything
  // else is attacker-controlled, so give it hostile values.
  Rng rng(opts.seed);
  emu::CpuState& st = machine_.state();
  const uint64_t interesting[] = {
      0,
      ~uint64_t{0},
      base,
      base - 8,
      base - opts.guard_bytes,
      base + rt::kSlotSize,
      base + rt::kSlotSize + opts.guard_bytes - 1,
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
  st.x[21] = base;
  st.x[18] = st.x[23] = st.x[24] = data_base;
  st.x[22] = rng.Next() & 0xffffffff;
  st.x[30] = text_base;
  st.sp = base + rt::kProgramEnd - 64;
  st.pc = text_base;
  st.n = rng.Chance(50);
  st.z = rng.Chance(50);
  st.c = rng.Chance(50);
  st.v = rng.Chance(50);
  for (int v = 0; v < 8; ++v) {
    st.vr[v].lo = rng.Next();
    st.vr[v].hi = rng.Next();
  }

  ccfg_.base = base;
  ccfg_.guard_bytes = opts.guard_bytes;
  ccfg_.rt_base = rt::kRuntimeEntryBase;
  ccfg_.rt_len = rt_len;
}

ExecEnv::Checkpoint ExecEnv::Capture() const {
  Checkpoint ck;
  ck.cpu = machine_.state();
  for (const auto& [addr, len] : ranges_) {
    for (uint64_t a = addr; a < addr + len; a += emu::kPageSize) {
      uint8_t perms = 0;
      auto data = space_.ExportPage(a, &perms);
      if (data != nullptr) ck.pages.push_back({a, perms, std::move(data)});
    }
  }
  return ck;
}

uint64_t ExecEnv::MemoryDigest() const {
  constexpr uint64_t kBasis = 0xcbf29ce484222325ull;
  auto fnv = [](uint64_t h, const uint8_t* p, size_t n) {
    for (size_t k = 0; k < n; ++k) h = (h ^ p[k]) * 0x100000001b3ull;
    return h;
  };
  // Each page is digested alone, so a page still shared with the zero
  // page costs one cached value rather than 4 KiB of hashing.
  const emu::AddressSpace::PageData* zero =
      emu::AddressSpace::ZeroPage().get();
  static const uint64_t kZeroDigest = fnv(kBasis, zero->data(), zero->size());
  uint64_t h = kBasis;
  for (const auto& [addr, len] : ranges_) {
    for (uint64_t a = addr; a < addr + len; a += emu::kPageSize) {
      uint8_t perms = 0;
      const auto* page = space_.PagePayload(a, &perms);
      if (a - base_ >= runtime::kSlotSize || !(perms & emu::kPermWrite)) {
        continue;  // not data or stack
      }
      const uint64_t d = page == zero
                             ? kZeroDigest
                             : fnv(kBasis, page->data(), page->size());
      h = fnv(h, reinterpret_cast<const uint8_t*>(&d), sizeof d);
    }
  }
  return h;
}

uint64_t ExecEnv::Restore(const Checkpoint& ck) {
  uint64_t dirty = 0;
  for (const auto& page : ck.pages) {
    uint8_t perms = 0;
    const auto* cur = space_.PagePayload(page.addr, &perms);
    if (cur == page.data.get() && perms == page.perms) continue;
    (void)space_.InstallPage(page.addr, page.data, page.perms);
    ++dirty;
  }
  machine_.state() = ck.cpu;
  return dirty;
}

namespace {

// The body of ExecuteWords and ExecuteWordsStepwise.
ExecResult Execute(std::span<const uint32_t> words, const ExecOptions& opts,
                   bool stepwise) {
  namespace rt = lfi::runtime;
  ExecEnv env(words, opts);
  SlotInvariantChecker checker(env.checker_config());
  emu::Machine& machine = env.machine();
  if (opts.attach_checker) machine.set_exec_hook(&checker);

  ExecResult res;
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
               !(res.fault.mem.addr >= base - opts.guard_bytes &&
                 res.fault.mem.addr <
                     base + rt::kSlotSize + opts.guard_bytes)) {
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
