// Sandboxed execution harness + slot-invariant checker.
//
// ExecuteWords places a verified instruction stream into a realistic slot
// (call table at the base, text at kProgramStart, data, stack, unmapped
// guard regions) and runs it under a Machine with the SlotInvariantChecker
// hook attached. The checker is the soundness oracle: it asserts, per
// retired instruction, the Section 3/4 invariants the verifier is supposed
// to guarantee. Any violation is a sandbox escape the verifier let through.
//
// What counts as an escape vs. a contained trap:
//   - any *attempted* load/store outside [base-guard, base+4GiB+guard):
//     escape (on real hardware nothing promises a fault there; the
//     emulator additionally maps RW "tripwire" pages just outside the
//     window so near escapes retire and are caught red-handed);
//   - an indirect branch whose landing pc is outside the slot and outside
//     the runtime-entry region: escape (could be neighbor code);
//   - reserved-register invariant broken after a retire (x21 moved, x22
//     grew past 32 bits, x18/x23/x24 left the slot, sp left its slack
//     window, x30 invalid outside the one-instruction load window): escape;
//   - a system instruction executing inside verified text: escape (the
//     verifier's one job is to make these unreachable);
//   - fetch faults, in-window memory faults, decode faults, brk: contained
//     (the guard regions and W^X mapping trap these on real hardware too;
//     direct branches can only reach +-128MiB, which the kCodeEnd layout
//     rule keeps clear of neighbor text).
#ifndef LFI_FUZZ_EXEC_H_
#define LFI_FUZZ_EXEC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "emu/machine.h"

namespace lfi::fuzz {

// Per-instruction invariant checker (the ExecHook soundness oracle).
class SlotInvariantChecker : public emu::ExecHook {
 public:
  struct Config {
    uint64_t base = 0;          // slot base (4GiB aligned)
    uint64_t guard_bytes = 48 * 1024;
    uint64_t rt_base = 0;       // runtime-entry region
    uint64_t rt_len = 0;
  };
  // Slack around the slot for sp: the verifier admits one small (<1KiB)
  // adjustment or a +-256B writeback between proving accesses, so sp may
  // transiently sit that far outside the window.
  static constexpr uint64_t kSpSlack = 4096;

  explicit SlotInvariantChecker(const Config& cfg) : cfg_(cfg) {}

  bool OnInst(const arch::Inst& inst, uint64_t pc, const emu::CpuState& after,
              std::span<const emu::AccessRecord> accesses,
              bool faulted) override;

  // Empty when no violation has been observed.
  const std::string& violation() const { return violation_; }
  uint64_t checked() const { return checked_; }

 private:
  bool Fail(uint64_t pc, const arch::Inst& inst, std::string what);

  bool InWindow(uint64_t addr, uint64_t len) const {
    return addr >= cfg_.base - cfg_.guard_bytes &&
           addr + len <= cfg_.base + (uint64_t{1} << 32) + cfg_.guard_bytes;
  }
  bool InSlot(uint64_t addr) const {
    return addr >= cfg_.base && addr < cfg_.base + (uint64_t{1} << 32);
  }
  bool InRuntime(uint64_t addr) const {
    return addr >= cfg_.rt_base && addr < cfg_.rt_base + cfg_.rt_len;
  }

  Config cfg_;
  std::string violation_;
  uint64_t checked_ = 0;
};

// How ExecuteWords sets up and bounds the run.
struct ExecOptions {
  uint64_t seed = 1;            // scratch-register entropy (hostile values)
  uint64_t max_insts = 2000;
  uint64_t guard_bytes = 48 * 1024;
  uint64_t table_bytes = 4096;
  emu::Dispatch dispatch = emu::Dispatch::kBlock;
  // When false, ExecuteWords runs without the SlotInvariantChecker hook
  // (ExecResult::violation stays empty except for the fault-based belt-and-
  // braces checks). The chained backend falls back to the reference loop
  // whenever a hook is attached, so the chained-vs-reference differential
  // mode needs hook-free runs to actually exercise the optimized loop.
  bool attach_checker = true;
};

struct ExecResult {
  emu::StopReason stop = emu::StopReason::kInstLimit;
  emu::CpuFault fault;          // valid when the run ended in a fault
  std::string violation;        // non-empty => sandbox escape detected
  uint64_t retired = 0;
  uint64_t cycles = 0;
  emu::CpuState final_state;
  uint64_t memory = 0;  // ExecEnv::MemoryDigest() after the run
};

// Executes `words` (which should already be verifier-accepted; the harness
// does not verify) inside a fresh slot under the invariant checker.
ExecResult ExecuteWords(std::span<const uint32_t> words,
                        const ExecOptions& opts);

// ExecuteWords, but driving the machine with Machine::Run(1) until the
// budget is spent or it stops, so every instruction heads its own decoded
// block. Against a whole ExecuteWords run this is an independent oracle
// for block formation (the differential fuzzing mode).
ExecResult ExecuteWordsStepwise(std::span<const uint32_t> words,
                                const ExecOptions& opts);

// The slot environment ExecuteWords builds, kept alive so callers can run
// in phases with page-level checkpoints in between (the snapshot oracle).
// Construction maps the slot (call table, text, data, stack, tripwires)
// and seeds the registers from opts.seed exactly as ExecuteWords does; the
// caller attaches whatever ExecHook it wants and calls Run.
//
// Capture/Restore exercise the same primitives the runtime snapshot layer
// uses — ExportPage / PagePayload / InstallPage — so divergence after a
// restore convicts the copy-on-write payload-sharing machinery itself.
// (Sandboxed code cannot map or unmap pages here — there is no runtime —
// so the page *set* is fixed at construction and only contents change.)
class ExecEnv {
 public:
  ExecEnv(std::span<const uint32_t> words, const ExecOptions& opts);

  emu::Machine& machine() { return machine_; }
  emu::AddressSpace& space() { return space_; }
  uint64_t base() const { return base_; }
  const SlotInvariantChecker::Config& checker_config() const { return ccfg_; }

  // One captured page; `data` is shared with the live space until the
  // space's next write to that page copies (COW).
  struct CheckpointPage {
    uint64_t addr = 0;
    uint8_t perms = 0;
    std::shared_ptr<emu::AddressSpace::PageData> data;
  };
  struct Checkpoint {
    emu::CpuState cpu;
    std::vector<CheckpointPage> pages;
  };

  Checkpoint Capture() const;
  // FNV-1a digest of the writable pages inside the slot (data and stack).
  uint64_t MemoryDigest() const;
  // Rolls cpu + memory back to `ck`; returns how many pages had actually
  // diverged (payload pointer or perms) and were re-installed.
  uint64_t Restore(const Checkpoint& ck);

 private:
  uint64_t base_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> ranges_;  // mapped [addr, len)
  SlotInvariantChecker::Config ccfg_;
  emu::AddressSpace space_;
  emu::Machine machine_;
};

}  // namespace lfi::fuzz

#endif  // LFI_FUZZ_EXEC_H_
