#include "emu/timing.h"

#include <algorithm>

namespace lfi::emu {

BranchPredictor::BranchPredictor()
    : counters_(size_t{1} << kTableBits, 2),
      btb_(size_t{1} << kTableBits, 0),
      tags_(size_t{1} << kTableBits, 0),
      btb_tags_(size_t{1} << kTableBits, 0) {}

CacheModel::CacheModel(uint64_t size_bytes, unsigned ways)
    : ways_(ways),
      sets_(std::max<uint64_t>(1, size_bytes / kLineBytes / ways)),
      tags_(sets_ * ways, 0),
      order_(sets_ * ways, 0) {}

TlbModel::TlbModel(unsigned entries) : tags_(entries, ~uint64_t{0}) {}

void TlbModel::Flush() {
  std::fill(tags_.begin(), tags_.end(), ~uint64_t{0});
}

Timing::Timing(const arch::CoreParams& params)
    : params_(params),
      reg_ready_(kIntRegs, 0),
      vreg_ready_(32, 0),
      l1d_(static_cast<uint64_t>(params.l1d_kib) * 1024, 8),
      l2_(static_cast<uint64_t>(params.l1d_kib) * 1024 * 16, 8),
      tlb_(static_cast<unsigned>(params.tlb_entries)) {}

void Timing::ChargeFlat(uint64_t cycles) {
  flat_ += cycles;
  frontier_ += cycles;
}

uint64_t Timing::Cycles() const {
  const uint64_t bw =
      std::max({slot_acc_ / static_cast<uint64_t>(params_.issue_width),
                mem_acc_ / static_cast<uint64_t>(params_.mem_ports),
                miss_acc_ / static_cast<uint64_t>(params_.mlp)}) +
      flat_;
  return std::max({max_completion_, bw, frontier_});
}

double Timing::Nanoseconds() const {
  return static_cast<double>(Cycles()) / params_.ghz;
}

}  // namespace lfi::emu
