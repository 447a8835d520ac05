// Sandboxed execution harness + slot-invariant checker.
//
// ExecuteWords loads an instruction stream the way the runtime loads any
// program: as an ELF image (the stream at kProgramStart, a 4-page bss
// segment at 0x200000) through Runtime::LoadImage, so the call table,
// text, data, stack and guard regions are the loader's own. It adds only
// what no runtime path provides, tripwire pages outside the slot and a
// hostile register file, and runs the stream on the runtime's machine
// with the SlotInvariantChecker hook attached. The checker is the
// soundness oracle: it asserts, per retired instruction, the Section 3/4
// invariants the verifier is supposed to guarantee. Any violation is a
// sandbox escape the verifier let through.
//
// What counts as an escape vs. a contained trap:
//   - any *attempted* load/store outside [base-guard, base+4GiB+guard):
//     escape (on real hardware nothing promises a fault there; the
//     emulator additionally maps RW "tripwire" pages just outside the
//     window so near escapes retire and are caught red-handed);
//   - an indirect branch whose landing pc is outside the slot and not
//     runtime-owned (the runtime-entry region, or kCallTableTrap, which
//     the call table's unused entries hold): escape (could be neighbor
//     code);
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
#include <span>
#include <string>

#include "emu/machine.h"
#include "runtime/layout.h"
#include "runtime/runtime.h"

namespace lfi::fuzz {

// Per-instruction invariant checker (the ExecHook soundness oracle) for
// the slot at `base`. The guard size and the runtime-owned addresses come
// from runtime/layout.h.
class SlotInvariantChecker : public emu::ExecHook {
 public:
  // Slack around the slot for sp: the verifier admits one small (<1KiB)
  // adjustment or a +-256B writeback between proving accesses, so sp may
  // transiently sit that far outside the window.
  static constexpr uint64_t kSpSlack = 4096;

  explicit SlotInvariantChecker(uint64_t base) : base_(base) {}

  bool OnInst(const arch::Inst& inst, uint64_t pc, const emu::CpuState& after,
              std::span<const emu::AccessRecord> accesses,
              bool faulted) override;

  // Empty when no violation has been observed.
  const std::string& violation() const { return violation_; }
  uint64_t checked() const { return checked_; }

 private:
  bool Fail(uint64_t pc, const arch::Inst& inst, std::string what);

  bool InWindow(uint64_t addr, uint64_t len) const {
    return addr >= base_ - runtime::kGuardSize &&
           addr + len <= base_ + runtime::kSlotSize + runtime::kGuardSize;
  }
  bool InSlot(uint64_t addr) const {
    return addr >= base_ && addr < base_ + runtime::kSlotSize;
  }
  // The runtime-entry region, plus the one address the runtime itself
  // writes into the read-only call table for unused entries.
  static bool RuntimeOwned(uint64_t addr) {
    return addr - runtime::kRuntimeEntryBase <
               runtime::kRuntimeEntryGranule *
                   uint64_t(runtime::Rtcall::kCount) ||
           addr == runtime::kCallTableTrap;
  }

  uint64_t base_;
  std::string violation_;
  uint64_t checked_ = 0;
};

// How ExecuteWords sets up and bounds the run.
struct ExecOptions {
  uint64_t seed = 1;            // scratch-register entropy (hostile values)
  uint64_t max_insts = 2000;
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

// The slot ExecuteWords builds, kept alive so callers can run in phases
// (the snapshot oracle captures and restores the proc through
// Runtime::CaptureSnapshot and RestoreFromSnapshot). Construction loads
// the stream into a fresh Runtime with verification off, maps the
// tripwires and seeds the machine's registers from opts.seed exactly as
// ExecuteWords does; the caller attaches whatever ExecHook it wants and
// drives machine() directly, as Runtime::RunEmbedded does. The proc's
// saved registers (Proc::cpu) are the caller's to sync around a capture.
class ExecEnv {
 public:
  ExecEnv(std::span<const uint32_t> words, const ExecOptions& opts);

  // Empty unless the loader refused the stream (it reaches the bss).
  const std::string& error() const { return error_; }
  runtime::Runtime& runtime() { return rt_; }
  emu::Machine& machine() { return rt_.machine(); }
  int pid() const { return pid_; }
  uint64_t base() const { return base_; }

  // FNV-1a digest of the writable pages inside the slot (data and stack).
  uint64_t MemoryDigest();

 private:
  runtime::Runtime rt_;
  int pid_ = 0;
  uint64_t base_ = 0;
  std::string error_;
};

}  // namespace lfi::fuzz

#endif  // LFI_FUZZ_EXEC_H_
