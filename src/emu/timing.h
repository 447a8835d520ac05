// Dynamic timing model: idealized out-of-order scoreboard plus cache, TLB,
// and branch-predictor models.
//
// The model computes, per retired instruction, the earliest cycle its
// result is available, constrained by (a) source-operand readiness (the
// dataflow critical path - this is where the 2-cycle `add ... uxtw` guard
// hurts and the embedded addressing-mode guard doesn't), (b) aggregate issue
// bandwidth, (c) memory-port bandwidth, and (d) front-end stalls from
// branch mispredictions. Total cycles for a run is the max of those
// constraints, which approximates a large-window OoO core well enough to
// reproduce the relative overheads in the paper's Figures 3-5.
#ifndef LFI_EMU_TIMING_H_
#define LFI_EMU_TIMING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "arch/cost_model.h"
#include "runtime/layout.h"

namespace lfi::emu {

// Branch predictor: 2-bit saturating counters for conditional branches and
// a last-target BTB for indirect branches.
//
// Entries can be tagged with a *software context number*, modelling Arm's
// FEAT_CSV2_2 / SCXTNUM_EL0 (Section 7.1): when the runtime assigns each
// sandbox its own context, one sandbox's branch history cannot influence
// another's speculation (the cross-sandbox-poisoning mitigation). An entry
// whose tag does not match the current context behaves as if it were
// empty.
class BranchPredictor {
 public:
  BranchPredictor();

  // Selects the current software context (0 = default shared context).
  void SetContext(uint32_t ctx) { ctx_ = ctx; }
  uint32_t context() const { return ctx_; }

  // Returns true if the prediction was correct; updates state. Defined
  // inline: both interpreters call these on every branch.
  bool PredictConditional(uint64_t pc, bool taken) {
    const uint64_t idx = Hash(pc);
    if (tags_[idx] != ctx_) {
      // Entry belongs to another software context: treat as cold.
      tags_[idx] = ctx_;
      counters_[idx] = 2;
    }
    uint8_t& ctr = counters_[idx];
    const bool predicted = ctr >= 2;
    if (taken && ctr < 3) ++ctr;
    if (!taken && ctr > 0) --ctr;
    return predicted == taken;
  }
  bool PredictIndirect(uint64_t pc, uint64_t target) {
    const uint64_t idx = Hash(pc);
    if (btb_tags_[idx] != ctx_) {
      btb_tags_[idx] = ctx_;
      btb_[idx] = 0;
    }
    uint64_t& entry = btb_[idx];
    const bool correct = entry == target;
    entry = target;
    return correct;
  }

 private:
  static constexpr size_t kTableBits = 13;
  static uint64_t Hash(uint64_t pc) {
    return (pc >> 2) & ((uint64_t{1} << kTableBits) - 1);
  }
  uint32_t ctx_ = 0;
  std::vector<uint8_t> counters_;
  std::vector<uint64_t> btb_;
  std::vector<uint32_t> tags_;      // context tag per counter entry
  std::vector<uint32_t> btb_tags_;  // context tag per BTB entry
};

// Set-associative tag-array cache model (data presence only).
class CacheModel {
 public:
  // `size_bytes` capacity with 64-byte lines, `ways`-way associative.
  CacheModel(uint64_t size_bytes, unsigned ways);

  // Returns true on hit; inserts the line on miss (LRU within set).
  // Defined inline so Timing::MemoryExtra fully inlines.
  bool Access(uint64_t addr) {
    const uint64_t line = addr / kLineBytes;
    const uint64_t set = line % sets_;
    const uint64_t tag = line / sets_ + 1;  // +1 so 0 stays "invalid"
    uint64_t* t = &tags_[set * ways_];
    uint32_t* o = &order_[set * ways_];
    unsigned victim = 0;
    for (unsigned w = 0; w < ways_; ++w) {
      if (t[w] == tag) {
        o[w] = stamp_++;
        return true;
      }
      if (o[w] < o[victim]) victim = w;
    }
    t[victim] = tag;
    o[victim] = stamp_++;
    return false;
  }

 private:
  static constexpr uint64_t kLineBytes = 64;
  unsigned ways_;
  uint64_t sets_;
  std::vector<uint64_t> tags_;   // sets_ x ways_, 0 = invalid
  std::vector<uint32_t> order_;  // LRU stamps
  uint32_t stamp_ = 1;
};

// TLB model with page-granular entries.
class TlbModel {
 public:
  explicit TlbModel(unsigned entries);
  bool Access(uint64_t addr) {
    const uint64_t page = addr / runtime::kPage;
    uint64_t& slot = tags_[page % tags_.size()];
    if (slot == page) return true;
    slot = page;
    return false;
  }
  void Flush();

 private:
  std::vector<uint64_t> tags_;
};

// Aggregate scoreboard for one hardware context.
class Timing {
 public:
  explicit Timing(const arch::CoreParams& params);

  // Register scoreboard indices: 0..30 = x regs, 31 = sp, 32 = NZCV.
  static constexpr int kSpIdx = 31;
  static constexpr int kFlagsIdx = 32;
  static constexpr int kIntRegs = 33;

  // Records one retired instruction.
  //  `srcs`/`dst` index the integer scoreboard (-1 = none);
  //  `vsrcs`/`vdst` index the vector scoreboard.
  // Returns the cycle at which the result is ready (used to chain the
  // address-dependent latency of memory operations).
  //
  // Defined inline: this runs once per retired instruction and is the
  // single hottest function in the emulator. The bandwidth floors are
  // maintained as cached quotients (slot_q_, mem_q_, miss_q_) instead of
  // dividing the raw accumulators here; the carry loops below produce
  // exactly the same values as the divisions in Cycles().
  uint64_t Issue(const arch::InstCost& cost, const int* srcs, int nsrcs,
                 int dst, const int* vsrcs = nullptr, int nvsrcs = 0,
                 int vdst = -1, uint64_t extra_latency = 0) {
    ++retired_;
    slot_acc_ += static_cast<uint64_t>(cost.slots);
    slot_rem_ += static_cast<uint64_t>(cost.slots);
    while (slot_rem_ >= static_cast<uint64_t>(params_.issue_width)) {
      slot_rem_ -= static_cast<uint64_t>(params_.issue_width);
      ++slot_q_;
    }
    if (cost.is_mem) {
      ++mem_acc_;
      if (++mem_rem_ == static_cast<uint64_t>(params_.mem_ports)) {
        mem_rem_ = 0;
        ++mem_q_;
      }
    }
    // Earliest start: front-end floor, bandwidth floor, operand readiness.
    uint64_t start = frontier_;
    const uint64_t bw_floor =
        std::max({slot_q_, cost.is_mem ? mem_q_ : uint64_t{0}, miss_q_}) +
        flat_;
    if (bw_floor > start) start = bw_floor;
    for (int k = 0; k < nsrcs; ++k) {
      if (srcs[k] >= 0 && reg_ready_[srcs[k]] > start) {
        start = reg_ready_[srcs[k]];
      }
    }
    for (int k = 0; k < nvsrcs; ++k) {
      if (vsrcs[k] >= 0 && vreg_ready_[vsrcs[k]] > start) {
        start = vreg_ready_[vsrcs[k]];
      }
    }
    const uint64_t done =
        start + static_cast<uint64_t>(cost.latency) + extra_latency;
    if (dst >= 0) reg_ready_[dst] = done;
    if (vdst >= 0) vreg_ready_[vdst] = done;
    if (done > max_completion_) max_completion_ = done;
    return done;
  }

  // Memory access bookkeeping: returns extra latency cycles from cache/TLB
  // behaviour for an access at `addr`. Defined inline: both interpreters
  // call it on every load and store.
  uint64_t MemoryExtra(uint64_t addr, bool is_store) {
    uint64_t extra = 0;
    if (!tlb_.Access(addr)) {
      uint64_t walk = static_cast<uint64_t>(params_.tlb_walk_cycles);
      if (nested_pagetables_) walk *= 2;  // two-dimensional page walk
      extra += walk;
    }
    if (!l1d_.Access(addr)) {
      if (l2_.Access(addr)) {
        extra += static_cast<uint64_t>(params_.l2_latency);
      } else {
        extra += static_cast<uint64_t>(params_.mem_latency);
      }
    }
    // Miss latency can overlap across accesses, but only up to the
    // machine's miss-level parallelism; a stream of misses is
    // throughput-bound on the MSHRs even when no consumer stalls on the
    // data.
    if (extra != 0) {
      miss_acc_ += extra;
      miss_q_ = miss_acc_ / static_cast<uint64_t>(params_.mlp);
    }
    // Stores retire without stalling consumers; charge only their miss
    // bandwidth at a reduced weight.
    if (is_store) extra /= 4;
    return extra;
  }

  // Front-end stall after a mispredicted branch resolved at `resolve_cycle`.
  void Mispredict(uint64_t resolve_cycle) {
    frontier_ = std::max(
        frontier_,
        resolve_cycle + static_cast<uint64_t>(params_.mispredict_penalty));
  }

  // Charges a flat number of cycles (used by the runtime for host-side work
  // such as the register save/restore in a context switch).
  void ChargeFlat(uint64_t cycles);

  // Directly marks a scoreboard entry ready at `cycle` (used for secondary
  // destinations such as NZCV flags or the second register of ldp). A
  // negative index (xzr) has no entry and is skipped, like a negative dst.
  void SetReady(int idx, uint64_t cycle) {
    if (idx >= 0) reg_ready_[idx] = cycle;
  }
  void SetVReady(int idx, uint64_t cycle) { vreg_ready_[idx] = cycle; }

  // Total cycles consumed so far.
  uint64_t Cycles() const;
  uint64_t Retired() const { return retired_; }
  double Nanoseconds() const;

  BranchPredictor& predictor() { return predictor_; }
  const arch::CoreParams& params() const { return params_; }

  // When true, TLB walks cost twice as much (nested page tables under
  // hardware virtualization - the Figure 5 comparison).
  void set_nested_pagetables(bool v) { nested_pagetables_ = v; }

 private:
  arch::CoreParams params_;
  std::vector<uint64_t> reg_ready_;   // int scoreboard
  std::vector<uint64_t> vreg_ready_;  // vector scoreboard
  uint64_t slot_acc_ = 0;             // issue slots consumed * 1
  uint64_t mem_acc_ = 0;              // memory ops
  uint64_t miss_acc_ = 0;             // accumulated miss-latency cycles
  // Cached bandwidth-floor quotients (see Issue): slot_q_ == slot_acc_ /
  // issue_width, mem_q_ == mem_acc_ / mem_ports, miss_q_ == miss_acc_ /
  // mlp at all times, maintained without per-instruction division.
  uint64_t slot_q_ = 0, slot_rem_ = 0;
  uint64_t mem_q_ = 0, mem_rem_ = 0;
  uint64_t miss_q_ = 0;
  uint64_t frontier_ = 0;             // front-end stall floor
  uint64_t max_completion_ = 0;
  uint64_t flat_ = 0;
  uint64_t retired_ = 0;
  bool nested_pagetables_ = false;
  BranchPredictor predictor_;
  CacheModel l1d_;
  CacheModel l2_;
  TlbModel tlb_;
};

}  // namespace lfi::emu

#endif  // LFI_EMU_TIMING_H_
