// The optimized interpreter backend (Dispatch::kChained): block chaining,
// direct-threaded dispatch, and memoized address translation.
//
// Three independent optimizations over the reference RunBlocks loop, all
// required to keep counters, simulated cycles, and traces bit-identical:
//
//  1. Block chaining. Each decoded block records the in-page offsets of
//     its static successors (fallthrough + direct-branch target, computed
//     in FetchBlock); the first transition resolves the successor through
//     the normal dispatch path and installs a pointer link, after which a
//     hot loop transfers block->block with two compares -- no LUT probe,
//     no hash. Decoded blocks are shared by every sandbox that maps the
//     same exec-page payload, so a link only ever joins two blocks of one
//     decoded page: following it from any sandbox lands on the same bytes.
//     Cross-page edges go back to the dispatch head, which resolves them
//     by PC. Links are trusted only while the mutation generation is
//     unchanged (checked at every edge: a store in the block may have
//     replaced its own page's payload). The cache cap is enforced only at
//     the dispatch head (FetchBlock forces the stamp stale, which ends the
//     flight at the next edge), so no block the flight holds is ever
//     destroyed. Chained entries tally block_hits exactly where the
//     reference path's FetchBlock would have.
//
//  2. Direct-threaded inner loop. On GCC/Clang the per-instruction switch
//     becomes a computed goto through a label table built from
//     LFI_EMU_MN_LIST; the op bodies are the same exec_ops.inc text the
//     reference switch compiles, so semantics (and every Timing call, in
//     the same order) cannot diverge. Elsewhere it falls back to calling
//     the reference ExecInst per instruction — chaining still applies.
//
//  3. Memoized loads/stores. EXEC_READ/EXEC_WRITE bind to FastRead/
//     FastWrite: a direct-mapped TLB of raw page-payload pointers,
//     revalidated per access against AddressSpace::payload_epoch() (a
//     store can COW its own page mid-block, so per-block validation is
//     not enough). Writable pointers are never cached for executable
//     pages, so exec-page stores keep bumping the mutation generation on
//     the slow path. A miss probes the page table once; accesses the
//     probe cannot serve fall through to AddressSpace::Read/Write, which
//     also produce the identical fault metadata.
//
// While an ExecHook is attached, RunChained delegates to the reference
// RunBlocks: observation wants per-instruction access traces, and the
// soundness fuzzer and snapshot oracle both pin the reference loop.
#include "emu/machine.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "emu/machine_internal.h"

namespace lfi::emu {

using arch::FpSize;
using arch::Inst;
using arch::InstCost;
using arch::Mn;
using arch::Reg;
using arch::Width;
using namespace internal;

// dtlb_epoch_ is synced once per ExecChainedRange call, not per access:
// within a range, only FastWrite can move payload_epoch (a guest store
// that COWs a page), and it re-syncs after each way it can: the probe on
// a miss, and the AddressSpace::Write fallback for a store that straddles
// a page or hits an exec page, which may copy a page whose read pointer
// is cached. No other epoch source can run mid-range (syscalls/brk stop
// the range, and host-side writes happen only between Machine::Run calls).
//
// A miss probes the page table once: the probe's pointer both refills the
// entry and serves the access. Only when it yields none (unmapped,
// unreadable or unwritable, or an exec-page store) does the access take
// AddressSpace::Read/Write, which produce the fault metadata and bump
// the mutation generation exactly as the reference path does.
Machine::FastVal Machine::FastRead(uint64_t addr, unsigned size) {
  if (((addr ^ (addr + size - 1)) & ~kPageMask) == 0) {
    const uint64_t pg = addr / kPageSize;
    DtlbEntry& e = dtlb_[pg & (kDtlbSize - 1)];
    if (e.pageno != pg || e.ro == nullptr) {
      const AddressSpace::PageProbe pr = mem_->ProbeDataPage(pg, false);
      if (pr.ro == nullptr) {
        auto r = mem_->Read(addr, size);
        if (!r) return {0, false};
        return {*r, true};
      }
      e = {pg, pr.ro, nullptr};
    }
    uint64_t value = 0;
    std::memcpy(&value, e.ro + (addr & kPageMask), size <= 8 ? size : 8);
    if (size < 8) value &= (uint64_t{1} << (8 * size)) - 1;
    return {value, true};
  }
  auto r = mem_->Read(addr, size);  // straddle: uncached slow path
  if (!r) return {0, false};
  return {*r, true};
}

bool Machine::FastWrite(uint64_t addr, uint64_t value, unsigned size) {
  if (((addr ^ (addr + size - 1)) & ~kPageMask) == 0) {
    const uint64_t pg = addr / kPageSize;
    DtlbEntry& e = dtlb_[pg & (kDtlbSize - 1)];
    if (e.pageno != pg || e.rw == nullptr) {
      const AddressSpace::PageProbe pr = mem_->ProbeDataPage(pg, true);
      // The probe or the write may have copied the page (COW) and bumped
      // the payload epoch: adopt the epoch before the next access.
      if (pr.rw == nullptr) return SlowWrite(addr, value, size);
      SyncDtlbEpoch();
      e = {pg, pr.ro, pr.rw};
    }
    std::memcpy(e.rw + (addr & kPageMask), &value, size <= 8 ? size : 8);
    return true;
  }
  return SlowWrite(addr, value, size);  // straddle: uncached
}

bool Machine::SlowWrite(uint64_t addr, uint64_t value, unsigned size) {
  const bool ok = mem_->Write(addr, value, size).ok();
  SyncDtlbEpoch();
  return ok;
}

template <bool kCounting>
bool Machine::ExecChainedRange(const Block& blk, size_t take) {
  if (take == 0) return true;
  SyncDtlbEpoch();  // see FastRead: holds for the whole range
  CpuState& s = state_;
  const DecodedInst* di = blk.insts.data();
  const DecodedInst* const end = di + take;

#if defined(__GNUC__) || defined(__clang__)
  // Label table in Mn enum order (LFI_EMU_MN_LIST mirrors the enum; the
  // static_assert pins the count and a listed mnemonic without an op
  // body in exec_ops.inc is an undefined label — a compile error).
  static const void* const kTargets[] = {
#define LFI_EMU_TARGET(mn) &&tl_##mn,
      LFI_EMU_MN_LIST(LFI_EMU_TARGET)
#undef LFI_EMU_TARGET
  };
  static_assert(sizeof(kTargets) / sizeof(kTargets[0]) ==
                    static_cast<size_t>(Mn::kMsr) + 1,
                "dispatch table must cover every mnemonic");

  // Direct threading: resolve each instruction's handler label once (the
  // block's first execution) so steady-state dispatch skips the table.
  if (di->exec_label == nullptr) {
    for (const DecodedInst& d : blk.insts) {
      d.exec_label = kTargets[static_cast<size_t>(d.inst.mn)];
    }
  }
  goto* const_cast<void*>(di->exec_label);

#define LFI_EMU_LABEL(mn) tl_##mn:
#define EXEC_OP(...)                                 \
  LFI_EMU_MAP(LFI_EMU_LABEL, __VA_ARGS__) {          \
    [[maybe_unused]] const Inst& i = di->inst;       \
    [[maybe_unused]] const InstCost& cost = di->cost; \
    [[maybe_unused]] const Width w = i.width;        \
    uint64_t next_pc = s.pc + 4;
#define EXEC_OP_END                                         \
    s.pc = next_pc;                                         \
    if constexpr (kCounting) {                              \
      counters_->loads += di->class_flags & kClassLoad;     \
      counters_->stores += (di->class_flags >> 1) & 1;      \
      counters_->guards += (di->class_flags >> 2) & 1;      \
    }                                                       \
    if (++di == end) return true;                           \
    goto* const_cast<void*>(di->exec_label);                \
  }
#define EXEC_READ(addr, size) FastRead((addr), (size))
#define EXEC_WRITE(addr, value, size) FastWrite((addr), (value), (size))
#define EXEC_MEMFAULT() return MemFaultStop()
#define EXEC_STOP() return false
#include "emu/exec_ops.inc"  // NOLINT(build/include)
#undef EXEC_STOP
#undef EXEC_MEMFAULT
#undef EXEC_WRITE
#undef EXEC_READ
#undef EXEC_OP_END
#undef EXEC_OP
#undef LFI_EMU_LABEL

  return true;  // not reached: every op body returns or jumps
#else
  // No computed goto on this compiler: chain blocks but execute each
  // instruction through the reference switch.
  for (; di != end; ++di) {
    if (!ExecInst(di->inst, di->cost)) return false;
    if constexpr (kCounting) {
      counters_->loads += di->class_flags & kClassLoad;
      counters_->stores += (di->class_flags >> 1) & 1;
      counters_->guards += (di->class_flags >> 2) & 1;
    }
  }
  return true;
#endif
}

template <bool kCounting>
StopReason Machine::RunChainedImpl(uint64_t max_instructions) {
  uint64_t executed = 0;
  for (;;) {
    // Dispatch entry: mirrors RunBlocks' loop head exactly (budget, then
    // runtime region, then fetch).
    if (executed >= max_instructions) {
      stop_ = StopReason::kInstLimit;
      return stop_;
    }
    if (state_.pc - rt_base_ < rt_len_) {
      stop_ = StopReason::kRuntimeEntry;
      return stop_;
    }
    RevalidateCaches();
    const Block* b = FetchBlock(state_.pc);
    if (b == nullptr) {
      stop_ = StopReason::kFault;
      return stop_;
    }
    // Chained flight: stay block->block within this page until the
    // budget, a generation change, the runtime region, or an unchainable
    // edge intervenes.
    const uint64_t page = state_.pc & ~kPageMask;
    for (;;) {
      const uint64_t budget = max_instructions - executed;
      const size_t size = b->insts.size();
      const size_t take = size <= budget ? size : static_cast<size_t>(budget);
      if (!ExecChainedRange<kCounting>(*b, take)) return stop_;
      executed += take;
      if (take < size || executed >= max_instructions) {
        stop_ = StopReason::kInstLimit;  // step budget exhausted
        return stop_;
      }
      // A changed generation means this page may now map other code (or
      // the cache is over its cap): bail to dispatch, which revalidates
      // exactly as the reference path would.
      if (mem_->mutation_generation() != cache_generation_) break;
      if (state_.pc - rt_base_ < rt_len_) {
        stop_ = StopReason::kRuntimeEntry;
        return stop_;
      }
      // A PC outside this page gives an offset of at least kPageSize (or
      // a wrapped one), which matches no in-page successor; kNoSucc can
      // match only a misaligned PC, which FetchBlock rejects before a link
      // is installed. Cross-page and indirect targets go to dispatch,
      // which resolves (and counts) them.
      const uint64_t off = state_.pc - page;
      const Block* nxt;
      const Block** slot;
      if (off == b->fall_off) {
        nxt = b->fall_link;
        slot = &b->fall_link;
      } else if (off == b->branch_off) {
        nxt = b->branch_link;
        slot = &b->branch_link;
      } else {
        break;
      }
      if (nxt != nullptr) {
        // Chained transition. The successor is cached by construction, so
        // the reference path's FetchBlock would have counted a hit here.
        if constexpr (kCounting) ++counters_->block_hits;
      } else {
        // Same page, same generation: the successor lands in b's decoded
        // page, and FetchBlock never drops a block.
        nxt = FetchBlock(state_.pc);  // tallies hit/miss itself
        if (nxt == nullptr) {
          stop_ = StopReason::kFault;
          return stop_;
        }
        *slot = nxt;
      }
      b = nxt;
    }
  }
}

StopReason Machine::RunChained(uint64_t max_instructions) {
  if (hook_ != nullptr) return RunBlocks(max_instructions);
  return counters_ != nullptr ? RunChainedImpl<true>(max_instructions)
                              : RunChainedImpl<false>(max_instructions);
}

}  // namespace lfi::emu
