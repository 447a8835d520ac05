// The optimized interpreter backend (Dispatch::kChained): block chaining,
// direct-threaded dispatch, and memoized address translation.
//
// Three independent optimizations over the reference RunBlocks loop, all
// required to keep counters, simulated cycles, and traces bit-identical:
//
//  1. Block chaining. Each decoded block records its static successor PCs
//     (fallthrough + direct-branch target, computed in FetchBlock); the
//     first transition resolves the successor through the normal dispatch
//     path and installs a pointer link, after which a hot loop transfers
//     block->block with two compares — no LUT probe, no hash. Links are
//     trusted only while the mutation generation is unchanged (checked at
//     every edge) and die with ClearCaches(); the cache_clears_ snapshot
//     around link resolution keeps a clear inside FetchBlock from writing
//     through a dangling predecessor. Chained entries tally block_hits
//     exactly where the reference path's FetchBlock would have.
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
//     the slow path. Misses fall through to AddressSpace::Read/Write,
//     which also produce the identical fault metadata.
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
// within a range, only FastWrite's miss path can move payload_epoch (a
// guest store that COWs its page), and it re-syncs before refilling. No
// other epoch source can run mid-range (syscalls/brk stop the range, and
// host-side writes happen only between Machine::Run calls).
Machine::FastVal Machine::FastRead(uint64_t addr, unsigned size) {
  if (((addr ^ (addr + size - 1)) & ~kPageMask) == 0) {
    const uint64_t pg = addr / kPageSize;
    DtlbEntry& e = dtlb_[pg & (kDtlbSize - 1)];
    if (e.pageno == pg && e.ro != nullptr) {
      uint64_t value = 0;
      std::memcpy(&value, e.ro + (addr & kPageMask), size <= 8 ? size : 8);
      if (size < 8) value &= (uint64_t{1} << (8 * size)) - 1;
      return {value, true};
    }
    auto r = mem_->Read(addr, size);
    if (!r) return {0, false};
    const AddressSpace::PageProbe pr = mem_->ProbeDataPage(pg, false);
    if (pr.ro != nullptr) {
      dtlb_[pg & (kDtlbSize - 1)] = {pg, pr.ro, nullptr};
    }
    return {*r, true};
  }
  auto r = mem_->Read(addr, size);  // straddle: uncached slow path
  if (!r) return {0, false};
  return {*r, true};
}

bool Machine::FastWrite(uint64_t addr, uint64_t value, unsigned size) {
  if (((addr ^ (addr + size - 1)) & ~kPageMask) == 0) {
    const uint64_t pg = addr / kPageSize;
    DtlbEntry& e = dtlb_[pg & (kDtlbSize - 1)];
    if (e.pageno == pg && e.rw != nullptr) {
      std::memcpy(e.rw + (addr & kPageMask), &value, size <= 8 ? size : 8);
      return true;
    }
    if (!mem_->Write(addr, value, size).ok()) return false;
    // The write may have copied the page (COW) and bumped the payload
    // epoch; probe for the fresh pointers, adopt the epoch, then fill.
    const AddressSpace::PageProbe pr = mem_->ProbeDataPage(pg, true);
    SyncDtlbEpoch();
    dtlb_[pg & (kDtlbSize - 1)] = {pg, pr.ro, pr.rw};
    return true;
  }
  return mem_->Write(addr, value, size).ok();  // straddle: uncached
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
    const Block* b = FetchBlock(state_.pc);
    if (b == nullptr) {
      stop_ = StopReason::kFault;
      return stop_;
    }
    // Chained flight: stay block->block until the budget, a generation
    // change, the runtime region, or an unchainable edge intervenes.
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
      // A changed generation means every cached block — and every link —
      // is stale: bail to dispatch, whose FetchBlock revalidates (and
      // counts the invalidation exactly as the reference path would).
      if (mem_->mutation_generation() != cache_generation_) break;
      if (state_.pc - rt_base_ < rt_len_) {
        stop_ = StopReason::kRuntimeEntry;
        return stop_;
      }
      const Block* nxt;
      const Block** slot;
      if (state_.pc == b->fall_pc) {
        nxt = b->fall_link;
        slot = &b->fall_link;
      } else if (state_.pc == b->branch_pc) {
        nxt = b->branch_link;
        slot = &b->branch_link;
      } else {
        break;  // indirect target: dispatch resolves (and counts) it
      }
      if (nxt != nullptr) {
        // Chained transition. The successor is cached by construction, so
        // the reference path's FetchBlock would have counted a hit here.
        if constexpr (kCounting) ++counters_->block_hits;
      } else {
        const uint64_t clears = cache_clears_;
        nxt = FetchBlock(state_.pc);  // tallies hit/miss itself
        if (nxt == nullptr) {
          stop_ = StopReason::kFault;
          return stop_;
        }
        // Install the link only if no clear ran inside FetchBlock: a
        // clear destroyed *b, taking the slot with it.
        if (cache_clears_ == clears) *slot = nxt;
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
