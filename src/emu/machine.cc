#include "emu/machine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "arch/decode.h"
#include "emu/machine_internal.h"

namespace lfi::emu {

using arch::FpSize;
using arch::Inst;
using arch::InstCost;
using arch::Mn;
using arch::Reg;
using arch::Width;
using namespace internal;

namespace {

// True for instructions that end a decoded basic block: anything that can
// redirect PC or stop execution. Everything else falls through to pc+4.
bool EndsBlock(Mn mn) {
  switch (mn) {
    case Mn::kB: case Mn::kBl: case Mn::kBCond:
    case Mn::kCbz: case Mn::kCbnz: case Mn::kTbz: case Mn::kTbnz:
    case Mn::kBr: case Mn::kBlr: case Mn::kRet:
    case Mn::kBrk: case Mn::kSvc: case Mn::kMrs: case Mn::kMsr:
      return true;
    default:
      return false;
  }
}

// Cap on decoded-block length; blocks also never cross a page boundary,
// so an executability check at decode time covers every instruction.
constexpr size_t kMaxBlockInsts = 256;
// Backstops against unbounded cache growth across many sandboxes and
// images: decoded blocks, and pinned exec payloads (16 KiB each).
constexpr size_t kMaxCachedBlocks = size_t{1} << 15;
constexpr size_t kMaxDecodedPages = size_t{1} << 10;

uint32_t LoadWord(const uint8_t* p) {
  return uint32_t{p[0]} | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) |
         (uint32_t{p[3]} << 24);
}

}  // namespace

Machine::Machine(AddressSpace* mem, const arch::CoreParams& params)
    : mem_(mem), timing_(params), block_lut_(size_t{1} << kBlockLutBits) {}

uint8_t Machine::ClassifyInst(const Inst& i) {
  uint8_t f = 0;
  if (arch::IsLoad(i)) f |= kClassLoad;
  if (arch::IsStore(i)) f |= kClassStore;
  if (arch::IsGuardFor(i, i.rd) || arch::IsSpGuard(i)) f |= kClassGuard;
  return f;
}

void Machine::Revalidate() {
  std::fill(block_lut_.begin(), block_lut_.end(), BlockLutEntry{});
  itlb_.fill(ItlbEntry{});
  // A payload only this cache still holds is mapped nowhere and can never
  // be mapped again (nobody else can hand it out): free it. This keeps
  // code patching, which copies a pinned page on every write, from
  // piling up dead pages. It drops nothing that could ever hit, so it is
  // not counted as an invalidation.
  std::erase_if(decoded_pages_, [this](const auto& kv) {
    if (kv.second.pin.use_count() > 1) return false;
    num_blocks_ -= kv.second.blocks.size();
    return true;
  });
  if (num_blocks_ >= kMaxCachedBlocks ||
      decoded_pages_.size() >= kMaxDecodedPages) {
    // Only the dispatch head gets here, where no caller holds a block.
    decoded_pages_.clear();
    num_blocks_ = 0;
    if (counters_ != nullptr) ++counters_->block_invalidations;
  }
  cache_generation_ = mem_->mutation_generation();
}

Machine::DecodedPage* Machine::CodePage(uint64_t pc) {
  const uint64_t pageno = pc / kPageSize;
  ItlbEntry& e = itlb_[pageno % kItlbSize];
  if (e.pageno == pageno) return e.page;
  uint8_t perms = 0;
  const AddressSpace::PageData* payload = mem_->PagePayload(pc, &perms);
  if (payload == nullptr || (perms & kPermExec) == 0) return nullptr;
  auto [it, fresh] = decoded_pages_.try_emplace(payload);
  if (fresh) {
    it->second.pin = mem_->ExportPage(pc, nullptr);
    if (decoded_pages_.size() >= kMaxDecodedPages) cache_generation_ = kStale;
  }
  e = {pageno, &it->second};
  return e.page;
}

const Machine::Block* Machine::FetchBlock(uint64_t pc) {
  BlockLutEntry& lut = block_lut_[LutIndex(pc)];
  if (lut.pc == pc) {
    if (counters_ != nullptr) ++counters_->block_hits;
    return lut.block;
  }
  if (pc % 4 != 0) {
    fault_ = {CpuFault::Kind::kPcAlign, pc, {}, "misaligned pc"};
    return nullptr;
  }
  DecodedPage* page = CodePage(pc);
  if (page == nullptr) {
    auto f = mem_->Fetch(pc);  // sets last_fault with the precise cause
    (void)f;
    fault_ = {CpuFault::Kind::kFetch, pc, mem_->last_fault(), "fetch"};
    return nullptr;
  }
  const uint32_t start = static_cast<uint32_t>(pc & kPageMask);
  auto it = page->blocks.find(start);
  if (it != page->blocks.end()) {
    if (counters_ != nullptr) ++counters_->block_hits;
    lut = {pc, &it->second};
    return lut.block;
  }
  const uint8_t* bytes = page->pin->data();
  Block b;
  b.insts.reserve(8);
  for (uint32_t cur = start; cur < kPageSize; cur += 4) {
    auto inst = arch::Decode(LoadWord(bytes + cur));
    if (!inst) {
      if (b.insts.empty()) {
        fault_ = {CpuFault::Kind::kDecode, pc, {}, inst.error()};
        return nullptr;
      }
      // End the block before the undecodable word so the fault fires only
      // if control actually reaches it.
      break;
    }
    b.insts.push_back(
        {*inst, arch::CostOf(*inst, timing_.params()), ClassifyInst(*inst)});
    if (EndsBlock(inst->mn) || b.insts.size() >= kMaxBlockInsts) break;
  }
  // Record the in-page successor offsets the chained backend links
  // through. Only direct control flow is chainable; br/blr/ret targets
  // are data-dependent and stopping instructions have no successor.
  const Inst& last = b.insts.back().inst;
  const uint64_t last_off = start + 4 * (b.insts.size() - 1);
  auto in_page = [](uint64_t off) {
    return off < kPageSize ? static_cast<uint32_t>(off) : kNoSucc;
  };
  switch (last.mn) {
    case Mn::kB: case Mn::kBl:
      b.branch_off = in_page(last_off + static_cast<uint64_t>(last.imm));
      break;
    case Mn::kBCond: case Mn::kCbz: case Mn::kCbnz:
    case Mn::kTbz: case Mn::kTbnz:
      b.branch_off = in_page(last_off + static_cast<uint64_t>(last.imm));
      b.fall_off = in_page(last_off + 4);
      break;
    case Mn::kBr: case Mn::kBlr: case Mn::kRet:
    case Mn::kBrk: case Mn::kSvc: case Mn::kMrs: case Mn::kMsr:
      break;
    default:
      // Split block (size cap, page end, or undecodable next word):
      // control falls through to the next address.
      b.fall_off = in_page(last_off + 4);
      break;
  }
  if (counters_ != nullptr) ++counters_->block_misses;
  // Over the cap, the next dispatch head drops everything; until then the
  // block (which the caller is about to run) stays alive.
  if (++num_blocks_ >= kMaxCachedBlocks) cache_generation_ = kStale;
  const Block* nb = &page->blocks.emplace(start, std::move(b)).first->second;
  lut = {pc, nb};
  return nb;
}

StopReason Machine::Run(uint64_t max_instructions) {
  // Retired instructions are counted as a Timing delta around the whole
  // run rather than per instruction: Timing::Issue already increments its
  // own retire counter on the hot path, so this is exact and free.
  const uint64_t retired_before = timing_.Retired();
  const StopReason r = dispatch_ == Dispatch::kChained
                           ? RunChained(max_instructions)
                           : RunBlocks(max_instructions);
  if (counters_ != nullptr) {
    counters_->retired += timing_.Retired() - retired_before;
  }
  return r;
}

StopReason Machine::RunBlocks(uint64_t max_instructions) {
  uint64_t executed = 0;
  while (executed < max_instructions) {
    // Blocks end at every control transfer, so PC can only enter the
    // runtime region (or need realignment/revalidation) at a block edge:
    // one check per block replaces one check per instruction.
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
    const uint64_t budget = max_instructions - executed;
    const size_t take = b->insts.size() <= budget
                            ? b->insts.size()
                            : static_cast<size_t>(budget);
    if (counters_ == nullptr) {
      for (size_t k = 0; k < take; ++k) {
        const DecodedInst& di = b->insts[k];
        if (hook_ == nullptr ? !ExecInst(di.inst, di.cost)
                             : !ExecHooked(di.inst, di.cost)) {
          return stop_;
        }
      }
    } else {
      // Counting twin of the loop above; classes come from the flags byte
      // precomputed at decode time and are tallied only after the
      // instruction retires (a faulting instruction counts nothing).
      for (size_t k = 0; k < take; ++k) {
        const DecodedInst& di = b->insts[k];
        if (hook_ == nullptr ? !ExecInst(di.inst, di.cost)
                             : !ExecHooked(di.inst, di.cost)) {
          return stop_;
        }
        counters_->loads += di.class_flags & kClassLoad;
        counters_->stores += (di.class_flags >> 1) & 1;
        counters_->guards += (di.class_flags >> 2) & 1;
      }
    }
    executed += take;
    if (take < b->insts.size()) break;  // step budget exhausted mid-block
  }
  stop_ = StopReason::kInstLimit;
  return stop_;
}

bool Machine::ExecHooked(const Inst& i, const InstCost& cost) {
  hook_trace_.Clear();
  const uint64_t pc = state_.pc;
  const bool ok = ExecInst(i, cost);
  if (!hook_->OnInst(i, pc, state_, hook_trace_.records(), !ok)) {
    // The hook's verdict wins over whatever stop ExecInst produced: a
    // violation on a faulting instruction is still a violation.
    stop_ = StopReason::kHookStop;
    return false;
  }
  return ok;
}

// Reference interpreter: one switch dispatch per instruction. The op
// bodies live in exec_ops.inc, shared verbatim with the direct-threaded
// chained backend (backend_chained.cc) so the two cannot diverge.
bool Machine::ExecInst(const Inst& i, const InstCost& cost) {
  CpuState& s = state_;
  const Width w = i.width;
  uint64_t next_pc = s.pc + 4;

  switch (i.mn) {
#define LFI_EMU_CASE(mn) case Mn::mn:
#define EXEC_OP(...) LFI_EMU_MAP(LFI_EMU_CASE, __VA_ARGS__) {
#define EXEC_OP_END \
  }                 \
  break;
#define EXEC_READ(addr, size) mem_->Read((addr), (size))
#define EXEC_WRITE(addr, value, size) mem_->Write((addr), (value), (size)).ok()
#define EXEC_MEMFAULT() return MemFaultStop()
#define EXEC_STOP() return false
#include "emu/exec_ops.inc"  // NOLINT(build/include)
#undef EXEC_STOP
#undef EXEC_MEMFAULT
#undef EXEC_WRITE
#undef EXEC_READ
#undef EXEC_OP_END
#undef EXEC_OP
#undef LFI_EMU_CASE
  }

  s.pc = next_pc;
  return true;
}

}  // namespace lfi::emu
