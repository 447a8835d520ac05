// ARM64 interpreter with integrated timing.
//
// Executes the encoded instruction subset against an AddressSpace with full
// permission checking, so the LFI isolation argument is *executed*, not
// assumed: a guard really does force the top 32 bits of an address, a
// store to a guard region really does trap. Cycle accounting runs inline
// through the Timing scoreboard.
//
// Dispatch and the decode cache. The hot loop decodes straight-line basic
// blocks (up to the next branch, page end, or undecodable word) into flat
// vectors of pre-decoded instructions with their static costs. Decoded
// ARM64 is position-independent (branches are PC-relative) and a block
// never crosses a page, so blocks are keyed by (exec-page payload,
// in-page offset), not by PC: every sandbox that maps one image's code
// pages copy-on-write shares one decoded copy, and restoring a sandbox's
// data pages costs no decoding. A block entry costs one runtime-region
// check, one generation compare and, in the common case, one PC-keyed
// front-LUT compare; each instruction inside the block is then executed
// with zero lookups.
//
// Invalidation contract: a decoded page pins its payload shared_ptr, so
// every write to a decoded page copies it first (AddressSpace COW) and the
// decoded bytes can never change underneath their blocks; staleness
// reduces to payload identity. What can change is which payload a PC
// maps to. The PC-keyed caches (front LUT, code-page TLB) are stamped
// with AddressSpace::mutation_generation(), which bumps whenever an exec
// page is mapped, unmapped, replaced, re-protected or written; a stamp
// mismatch at the dispatch head resets them, and the next lookup
// resolves the PC to its current payload again. Decoded blocks are
// dropped only when the cache reaches its cap or no address space maps
// their payload any more, and only at the dispatch head, so no block a
// caller still holds is ever destroyed. The one
// window the generation cannot close is an instruction overwriting *its
// own* basic block mid-flight; real hardware requires an ISB there, and
// the runtime's W^X policy forbids it entirely.
//
// Backends. Run() picks one of two interpreters by set_dispatch(). kBlock
// is the reference (RunBlocks, with the switch in ExecInst); kChained is
// the optimized backend (backend_chained.cc): blocks record their static
// fallthrough/direct-branch successors within their page and hot loops
// jump block->block without re-entering the dispatch loop, the inner loop is
// direct-threaded (computed goto) where the compiler supports it, and
// data accesses go through a small per-Machine page-pointer TLB validated
// against AddressSpace::payload_epoch(). Both share the op bodies in
// exec_ops.inc and the inline timing-model functions in timing.h, and
// kChained is required to keep simulated cycles, retired counts,
// ExecCounters, and traces bit-identical to kBlock (see docs/DISPATCH.md
// for the argument and the invalidation contract).
#ifndef LFI_EMU_MACHINE_H_
#define LFI_EMU_MACHINE_H_

// Hot helpers shared by both interpreter backends must actually inline
// into each backend's dispatch loop (GCC leaves the bigger ones, e.g.
// the EffAddr switch, out of line at -O2 without this).
#if defined(__GNUC__) || defined(__clang__)
#define LFI_EMU_ALWAYS_INLINE __attribute__((always_inline)) inline
#else
#define LFI_EMU_ALWAYS_INLINE inline
#endif

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/cost_model.h"
#include "arch/inst.h"
#include "emu/address_space.h"
#include "emu/timing.h"
#include "trace/trace.h"

namespace lfi::emu {

// 128-bit SIMD&FP register value.
struct VRegVal {
  uint64_t lo = 0, hi = 0;
  bool operator==(const VRegVal&) const = default;
};

// Architectural CPU state.
struct CpuState {
  std::array<uint64_t, 31> x{};  // x0..x30
  uint64_t sp = 0;
  uint64_t pc = 0;
  bool n = false, z = false, c = false, v = false;
  std::array<VRegVal, 32> vr{};
  // Exclusive monitor for ldxr/stxr.
  bool excl_valid = false;
  uint64_t excl_addr = 0;

  bool operator==(const CpuState&) const = default;
};

// Forces the LFI reserved registers of `cpu` back onto their invariants
// for the sandbox at `base`: x21 = base, and x18/x23/x24/x30, sp, and pc
// each base|low32 (exactly what a guard would compute). Every host-built
// or untrusted register frame must pass through this before the machine
// executes it — sigreturn frames, snapshot rebases, and embedded-call
// entry/callback-return states all get the same treatment, so even a
// bit-flipped (but otherwise accepted) frame cannot produce an
// out-of-slot reserved register.
inline void CanonicalizeSandboxRegs(CpuState& cpu, uint64_t base) {
  cpu.x[21] = base;
  for (int r : {18, 23, 24, 30}) cpu.x[r] = base | (cpu.x[r] & 0xffffffffu);
  cpu.sp = base | (cpu.sp & 0xffffffffu);
  cpu.pc = base | (cpu.pc & 0xffffffffu);
}

// Why Run() returned.
enum class StopReason : uint8_t {
  kInstLimit,     // executed the requested number of instructions
  kRuntimeEntry,  // PC entered the registered runtime region
  kFault,         // memory/decode/alignment fault; see fault()
  kBrk,           // brk instruction (debug trap)
  kHookStop,      // the attached ExecHook requested a stop
};

// Per-instruction observation hook, the substrate for invariant checking
// and soundness fuzzing. While attached (set_exec_hook), OnInst is called
// after EVERY executed instruction — including one that faulted
// (`faulted` == true), in which case the instruction did not retire but
// `accesses` still records the memory addresses it *attempted*, and
// `after` is the unmodified pre-fault register state. `pc` is the
// instruction's own address; `after.pc` is where control went next.
// Return false to stop Run() with StopReason::kHookStop.
//
// Cost: one branch per instruction when detached; when attached, data
// accesses are additionally traced through the AddressSpace.
class ExecHook {
 public:
  virtual ~ExecHook() = default;
  virtual bool OnInst(const arch::Inst& inst, uint64_t pc,
                      const CpuState& after,
                      std::span<const AccessRecord> accesses,
                      bool faulted) = 0;
};

// Description of a fault that stopped execution.
struct CpuFault {
  enum class Kind : uint8_t {
    kMemory,   // data access fault (mem holds details)
    kFetch,    // instruction fetch from unmapped/non-executable page
    kDecode,   // undecodable instruction word
    kIllegal,  // svc/mrs/msr executed by sandboxed code
    kPcAlign,  // branch to a non-4-aligned address
  };
  Kind kind = Kind::kMemory;
  uint64_t pc = 0;
  MemFault mem{};
  std::string detail;
};

// How Run() fetches instructions.
enum class Dispatch : uint8_t {
  kChained,  // block chaining + direct-threaded inner loop (default)
  kBlock,    // basic-block cache, one probe per block (reference)
};

// The emulated CPU. One Machine per hardware context; multiple sandboxes
// time-share it through the runtime's scheduler.
class Machine {
 public:
  Machine(AddressSpace* mem, const arch::CoreParams& params);

  CpuState& state() { return state_; }
  const CpuState& state() const { return state_; }
  Timing& timing() { return timing_; }
  AddressSpace& mem() { return *mem_; }

  // Registers [base, base+len) as the runtime-entry region: the moment PC
  // lands inside it, Run() stops with kRuntimeEntry. This models branching
  // to a runtime address loaded from the call table (Section 4.4).
  void SetRuntimeRegion(uint64_t base, uint64_t len) {
    rt_base_ = base;
    rt_len_ = len;
  }

  // Executes up to `max_instructions`.
  StopReason Run(uint64_t max_instructions);

  const CpuFault& fault() const { return fault_; }

  // Selects the interpreter (see Dispatch). kBlock exists so benchmarks
  // and the differential fuzzers can compare against the reference
  // interpreter; both modes are semantically identical, including cycle
  // accounting.
  void set_dispatch(Dispatch d) { dispatch_ = d; }
  Dispatch dispatch() const { return dispatch_; }

  // Reads a general-purpose register by Inst operand conventions
  // (zr reads 0; sp reads the stack pointer). Exposed for the runtime.
  // Defined inline: these run several times per retired instruction in
  // every backend translation unit.
  LFI_EMU_ALWAYS_INLINE uint64_t ReadReg(arch::Reg r) const {
    if (r.IsZr() || r.IsNone()) return 0;
    if (r.IsSp()) return state_.sp;
    return state_.x[r.id()];
  }
  LFI_EMU_ALWAYS_INLINE void WriteReg(arch::Reg r, uint64_t v) {
    if (r.IsZr() || r.IsNone()) return;
    if (r.IsSp()) {
      state_.sp = v;
      return;
    }
    state_.x[r.id()] = v;
  }

  // Attaches (or detaches, with nullptr) the per-instruction hook. The
  // hook must outlive the Machine or be detached first.
  void set_exec_hook(ExecHook* hook) {
    hook_ = hook;
    mem_->set_access_trace(hook == nullptr ? nullptr : &hook_trace_);
  }
  ExecHook* exec_hook() const { return hook_; }

  // Attaches (or detaches, with nullptr) an execution-counter accumulator.
  // While attached, the dispatch loops tally retired instructions by class
  // (loads/stores/guards) plus decode-cache traffic into it; the caller
  // owns attribution (the runtime snapshots it around timeslices). The
  // disabled path costs one pointer test per dispatched *block* — the
  // per-instruction loop is unchanged. Caveat: an ExecHook stop on a
  // retired instruction skews the class tallies (not retired-count) by at
  // most one; hooks and counters are not used together in practice.
  void set_counters(trace::ExecCounters* c) { counters_ = c; }
  trace::ExecCounters* counters() const { return counters_; }

 private:
  // Instruction-class bits, precomputed at decode time so the counting
  // dispatch loop adds without re-classifying.
  static constexpr uint8_t kClassLoad = 1 << 0;
  static constexpr uint8_t kClassStore = 1 << 1;
  static constexpr uint8_t kClassGuard = 1 << 2;
  static uint8_t ClassifyInst(const arch::Inst& i);

  // A pre-decoded instruction plus its static issue cost (CostOf depends
  // only on the instruction and the fixed core params, so hoisting it to
  // decode time takes it off the hot path entirely).
  struct DecodedInst {
    arch::Inst inst;
    arch::InstCost cost;
    uint8_t class_flags;
    // Direct-threading slot: the chained backend caches the computed-goto
    // label for inst.mn here on a block's first execution, so steady-state
    // dispatch is one load + one indirect jump (no table indexing). The
    // reference backend never reads it.
    mutable const void* exec_label = nullptr;
  };

  // In-page offset sentinel for "no successor in this page". ~0 is never
  // 4-aligned, so it can never equal a real block-start offset.
  static constexpr uint32_t kNoSucc = ~uint32_t{0};

  // A decoded straight-line run: starts at its key's in-page offset and
  // ends at the first branch/system instruction, page end, or undecodable
  // word. Blocks are shared by every sandbox that maps the same payload,
  // so they hold nothing absolute.
  //
  // Chaining fields: fall_off/branch_off are the in-page offsets of the
  // block's *static* successors that lie in the same page, computed at
  // decode time (fallthrough after a conditional branch or a split block;
  // the target of a direct b/bl/b.cond/cbz/tbz). A successor in another
  // page is kNoSucc: two sandboxes can map the same first page over
  // different second pages, so cross-page edges resolve through the
  // PC-keyed dispatch path. fall_link/branch_link are lazily resolved
  // pointers to the successor blocks in the same decoded page, installed
  // by the chained backend so a hot loop transfers block->block with two
  // compares. Both ends of a link live and die with one DecodedPage.
  struct Block {
    std::vector<DecodedInst> insts;
    uint32_t fall_off = kNoSucc;
    uint32_t branch_off = kNoSucc;
    mutable const Block* fall_link = nullptr;
    mutable const Block* branch_link = nullptr;
  };

  // The decoded blocks of one exec-page payload, keyed by in-page offset.
  // `pin` holds the payload alive and shared: its address cannot be
  // reused while this entry exists (no ABA), and any write to it copies.
  struct DecodedPage {
    std::shared_ptr<const AddressSpace::PageData> pin;
    std::unordered_map<uint32_t, Block> blocks;
  };

  // Reference backend: one FetchBlock per block, ExecInst per instruction.
  StopReason RunBlocks(uint64_t max_instructions);

  // Optimized backend (backend_chained.cc). RunChained falls back to
  // RunBlocks while an ExecHook is attached (observation wants the
  // reference loop + access tracing, not speed).
  StopReason RunChained(uint64_t max_instructions);
  template <bool kCounting>
  StopReason RunChainedImpl(uint64_t max_instructions);
  // Executes insts[0, take) of a block with the direct-threaded inner
  // loop (switch fallback off GCC/Clang); returns false on stop.
  template <bool kCounting>
  bool ExecChainedRange(const Block& b, size_t take);

  // Executes one pre-decoded instruction; returns false if execution must
  // stop (fault or brk), with stop_ set.
  bool ExecInst(const arch::Inst& i, const arch::InstCost& cost);

  // Records the pending data fault and stop reason; always returns false
  // so op bodies can `return MemFaultStop()`.
  bool MemFaultStop() {
    fault_ = {CpuFault::Kind::kMemory, state_.pc, mem_->last_fault(), "data"};
    stop_ = StopReason::kFault;
    return false;
  }

  // Effective address of a load/store, plus (for writeback modes) the new
  // base value. Shared by both backends' op bodies.
  LFI_EMU_ALWAYS_INLINE uint64_t EffAddr(const arch::Inst& i,
                                         uint64_t* writeback) const {
    const auto& m = i.mem;
    const uint64_t base = ReadReg(m.base);
    switch (m.mode) {
      case arch::AddrMode::kImm:
        return base + static_cast<uint64_t>(m.imm);
      case arch::AddrMode::kPreIndex:
        *writeback = base + static_cast<uint64_t>(m.imm);
        return *writeback;
      case arch::AddrMode::kPostIndex:
        *writeback = base + static_cast<uint64_t>(m.imm);
        return base;
      case arch::AddrMode::kRegLsl:
        return base + (ReadReg(m.index) << m.shift);
      case arch::AddrMode::kRegUxtw:
        return base + ((ReadReg(m.index) & 0xffffffffu) << m.shift);
      case arch::AddrMode::kRegSxtw:
        return base +
               (static_cast<uint64_t>(static_cast<int64_t>(
                    static_cast<int32_t>(ReadReg(m.index)))) << m.shift);
    }
    return base;
  }

  // ExecInst with the observation hook wrapped around it: clears the
  // access trace, executes, then consults hook_ (which must be non-null).
  bool ExecHooked(const arch::Inst& i, const arch::InstCost& cost);

  // Returns the (possibly freshly decoded) block starting at pc, or
  // nullptr with fault_ set. Callers revalidate at the dispatch head
  // first; FetchBlock itself never drops a block.
  const Block* FetchBlock(uint64_t pc);

  // The decoded page for pc's page, pinning and registering the payload
  // on first sight; nullptr if the page is unmapped or not executable.
  DecodedPage* CodePage(uint64_t pc);

  // Dispatch-head check: if the address space mutated since the PC-keyed
  // caches were filled, resets them, frees decoded pages whose payload is
  // mapped nowhere, and drops every decoded block if the cache has
  // reached its cap (FetchBlock forces the stamp stale then).
  void RevalidateCaches() {
    if (mem_->mutation_generation() != cache_generation_) Revalidate();
  }
  void Revalidate();

  AddressSpace* mem_;
  CpuState state_;
  Timing timing_;
  CpuFault fault_;
  ExecHook* hook_ = nullptr;
  AccessTrace hook_trace_;
  trace::ExecCounters* counters_ = nullptr;
  StopReason stop_ = StopReason::kInstLimit;
  uint64_t rt_base_ = 0, rt_len_ = 0;
  Dispatch dispatch_ = Dispatch::kChained;
  // Generation stamp the PC-keyed caches were filled under; kStale
  // forces the next RevalidateCaches() to run (first use, or cache cap).
  static constexpr uint64_t kStale = ~uint64_t{0};
  uint64_t cache_generation_ = kStale;
  // Decoded code, keyed by payload address (pinned, so never reused).
  std::unordered_map<const AddressSpace::PageData*, DecodedPage>
      decoded_pages_;
  size_t num_blocks_ = 0;
  // Direct-mapped front cache from PC to block: the common case (a hot
  // loop re-entering the same few blocks) resolves in one compare. Reset
  // on every generation change: it is the only PC-keyed block index.
  struct BlockLutEntry {
    uint64_t pc = ~uint64_t{0};
    const Block* block = nullptr;
  };
  static constexpr size_t kBlockLutBits = 12;
  std::vector<BlockLutEntry> block_lut_;
  // The in-page word index plus a multiplicative hash of the page number
  // (slot bits included), so sandboxes at different slot bases running
  // the same code do not all collide on one entry per in-page offset.
  static size_t LutIndex(uint64_t pc) {
    const uint64_t page_mix =
        ((pc / kPageSize) * 0x9e3779b97f4a7c15ull) >> (64 - kBlockLutBits);
    return ((pc >> 2) + page_mix) & ((size_t{1} << kBlockLutBits) - 1);
  }
  // Direct-mapped code-page TLB: page number -> decoded page, so a front
  // LUT miss costs one offset probe instead of an address-space probe
  // plus a payload probe. Reset with the front LUT.
  struct ItlbEntry {
    uint64_t pageno = ~uint64_t{0};
    DecodedPage* page = nullptr;
  };
  static constexpr size_t kItlbSize = 16;
  std::array<ItlbEntry, kItlbSize> itlb_{};

  // Memoized address translation for the chained backend's load/store
  // fast path: a direct-mapped TLB of page-payload pointers, so a hit
  // costs one compare + memcpy instead of a hash probe + shared_ptr
  // dereference. Entries are only trusted while dtlb_epoch_ matches
  // AddressSpace::payload_epoch(), which bumps whenever any payload
  // pointer, sharing state, or permission can change (COW, snapshot
  // export, fork, Protect, ...) — checked on every access because a
  // store inside the current block can itself trigger a COW. rw is
  // cached only for writable non-executable pages, so stores that must
  // bump the mutation generation always take the slow path.
  struct DtlbEntry {
    uint64_t pageno = ~uint64_t{0};
    const uint8_t* ro = nullptr;
    uint8_t* rw = nullptr;
  };
  static constexpr size_t kDtlbBits = 6;
  static constexpr size_t kDtlbSize = size_t{1} << kDtlbBits;
  std::array<DtlbEntry, kDtlbSize> dtlb_{};
  uint64_t dtlb_epoch_ = ~uint64_t{0};

  // Result of a chained-backend fast read; mimics Result<uint64_t>'s
  // interface so exec_ops.inc bodies work against either.
  struct FastVal {
    uint64_t val;
    bool ok;
    explicit operator bool() const { return ok; }
    uint64_t operator*() const { return val; }
  };
  LFI_EMU_ALWAYS_INLINE FastVal FastRead(uint64_t addr, unsigned size);
  LFI_EMU_ALWAYS_INLINE bool FastWrite(uint64_t addr, uint64_t value,
                                       unsigned size);
  void SyncDtlbEpoch() {
    const uint64_t e = mem_->payload_epoch();
    if (e != dtlb_epoch_) {
      for (DtlbEntry& d : dtlb_) d = DtlbEntry{};
      dtlb_epoch_ = e;
    }
  }
};

}  // namespace lfi::emu

#endif  // LFI_EMU_MACHINE_H_
