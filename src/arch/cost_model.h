// Per-instruction timing model.
//
// The paper's optimizations are all about instruction latency and
// throughput: the basic `add ... uxtw` guard "executes with 2-cycle latency
// and half-throughput on both Apple and Arm CPU designs" (Section 4), the
// register-offset load form has the same performance as the plain form, and
// an extra plain `add` costs one cycle. This module captures exactly those
// quantities, drawing on the microarchitectural sources the paper cites
// (the Arm Cortex-X software optimization guide and Dougall Johnson's Apple
// Firestorm tables), so that the emulator's scoreboard reproduces the
// O0/O1/O2 overhead ordering.
#ifndef LFI_ARCH_COST_MODEL_H_
#define LFI_ARCH_COST_MODEL_H_

#include <cstdint>
#include <string>

#include "arch/inst.h"

namespace lfi::arch {

// Parameters describing one CPU core design.
struct CoreParams {
  std::string name;
  double ghz = 3.0;          // clock frequency, for cycle->ns conversion
  int issue_width = 6;       // instructions issued per cycle (idealized OoO)
  int mem_ports = 3;         // loads+stores issued per cycle
  int load_latency = 4;      // L1 hit load-to-use latency
  int l2_latency = 14;       // additional cycles for an L1 miss, L2 hit
  int mem_latency = 90;      // additional cycles for an L2 miss
  int tlb_walk_cycles = 22;  // page-walk cost on a TLB miss
  int tlb_entries = 1024;    // modeled (direct-mapped) TLB capacity
  int l1d_kib = 64;          // modeled L1 data cache size
  int mispredict_penalty = 13;  // branch misprediction bubble
  int mlp = 8;                  // max overlapping cache misses (MSHRs)
};

// A core resembling the Apple M1 Firestorm: very wide, large caches,
// 3.2 GHz (the paper's Macbook Air).
CoreParams AppleM1LikeParams();

// A core resembling the Neoverse N1-class GCP T2A instance: narrower,
// smaller caches, 3.0 GHz.
CoreParams GcpT2aLikeParams();

// Static execution cost of one instruction.
struct InstCost {
  int latency = 1;  // cycles until the result is ready for consumers
  int slots = 1;    // issue slots consumed (2 = "half throughput")
  bool is_mem = false;
};

// Returns the cost of `i` on a core described by `p`. Load latency excludes
// cache/TLB effects, which the emulator adds dynamically.
InstCost CostOf(const Inst& i, const CoreParams& p);

}  // namespace lfi::arch

#endif  // LFI_ARCH_COST_MODEL_H_
