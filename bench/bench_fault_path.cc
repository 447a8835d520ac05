// Fault-path microbenchmarks: simulated cycle cost of the three
// supervisor recovery paths (docs/FAULTS.md).
//
//   fault-kill      a CpuFault under the kill policy (fault -> zombie)
//   fault-signal    a full signal round trip: fault -> frame push ->
//                   handler -> sigreturn -> resume
//   fault-restart   fault -> snapshot restore -> re-enter (restart
//                   policy, zero backoff so the path itself is measured)
//
// Expected shape: kill is the cheapest (one-way), a restart costs one
// restore of the dirtied pages (about a hundred cycles), and a signal
// round trip costs a few hundred (frame push + validate + restore).

#include "harness.h"

namespace lfi::bench {
namespace {

constexpr const char* kFaultNow = R"(
    movz x1, #0x4000
    add x18, x21, w1, uxtw
    ldr x0, [x18]
)";

// Registers a SIGSEGV handler, then faults kIters times; the handler
// redirects the resume past the faulting load and sigreturns.
std::string SignalLoop(int iters) {
  return R"(
    adrp x1, handler
    add x1, x1, :lo12:handler
    mov x0, #11
    ldr x30, [x21, #128]    // sigaction(SIGSEGV, handler)
    blr x30
    movz x19, #)" + std::to_string(iters) + R"(
  floop:
    movz x1, #0x4000
    add x18, x21, w1, uxtw
    ldr x0, [x18]           // fault -> handler -> resume
  resume:
    subs x19, x19, #1
    b.ne floop
    mov x0, #0
    ldr x30, [x21]          // exit
    blr x30
  handler:
    adrp x2, resume
    add x2, x2, :lo12:resume
    str x2, [sp, #32]       // frame.pc = resume
    mov x0, sp
    ldr x30, [x21, #136]    // sigreturn
    blr x30
  )";
}

struct PathResult {
  bool ok = false;
  double cycles_per_op = 0.0;
  std::string error;
};

// N sandboxes, each faulting immediately under the kill policy.
PathResult FaultKill(const arch::CoreParams& core, int n) {
  PathResult r;
  runtime::RuntimeConfig cfg;
  cfg.core = core;
  runtime::Runtime rt(cfg);
  const Built b = BuildRaw(kFaultNow);
  if (!b.ok) {
    r.error = b.error;
    return r;
  }
  for (int k = 0; k < n; ++k) {
    auto pid = rt.Load({b.elf.data(), b.elf.size()});
    if (!pid.ok()) {
      r.error = pid.error();
      return r;
    }
  }
  const uint64_t c0 = rt.Cycles();
  rt.RunUntilIdle(uint64_t{100} * 1000 * 1000);
  r.cycles_per_op = static_cast<double>(rt.Cycles() - c0) / n;
  r.ok = true;
  return r;
}

// One sandbox doing `iters` fault -> handler -> sigreturn round trips.
PathResult FaultSignal(const arch::CoreParams& core, int iters) {
  PathResult r;
  runtime::RuntimeConfig cfg;
  cfg.core = core;
  runtime::Runtime rt(cfg);
  const Built b = BuildRaw(SignalLoop(iters));
  if (!b.ok) {
    r.error = b.error;
    return r;
  }
  auto pid = rt.Load({b.elf.data(), b.elf.size()});
  if (!pid.ok()) {
    r.error = pid.error();
    return r;
  }
  runtime::SupervisorPolicy pol;
  pol.on_fault = runtime::FaultAction::kSignal;
  rt.set_policy(*pid, pol);
  const uint64_t c0 = rt.Cycles();
  rt.RunUntilIdle(uint64_t{200} * 1000 * 1000);
  const auto* p = rt.proc(*pid);
  if (p->exit_kind != runtime::ExitKind::kExited || p->exit_status != 0) {
    r.error = "signal loop did not complete: " + p->fault_detail;
    return r;
  }
  r.cycles_per_op = static_cast<double>(rt.Cycles() - c0) / iters;
  r.ok = true;
  return r;
}

// One sandbox faulting under the restart policy with `budget` restarts
// and zero backoff; measures the reap + remap + re-enter cycle.
PathResult FaultRestart(const arch::CoreParams& core, int budget) {
  PathResult r;
  runtime::RuntimeConfig cfg;
  cfg.core = core;
  runtime::Runtime rt(cfg);
  const Built b = BuildRaw(kFaultNow);
  if (!b.ok) {
    r.error = b.error;
    return r;
  }
  auto pid = rt.Load({b.elf.data(), b.elf.size()});
  if (!pid.ok()) {
    r.error = pid.error();
    return r;
  }
  runtime::SupervisorPolicy pol;
  pol.on_fault = runtime::FaultAction::kRestart;
  pol.restart_budget = static_cast<uint32_t>(budget);
  pol.restart_backoff_base_cycles = 0;
  rt.set_policy(*pid, pol);
  const uint64_t c0 = rt.Cycles();
  rt.RunUntilIdle(uint64_t{200} * 1000 * 1000);
  const auto* p = rt.proc(*pid);
  if (p->restarts != static_cast<uint32_t>(budget)) {
    r.error = "restart budget not consumed";
    return r;
  }
  r.cycles_per_op = static_cast<double>(rt.Cycles() - c0) / budget;
  r.ok = true;
  return r;
}

}  // namespace
}  // namespace lfi::bench

int main(int argc, char** argv) {
  using namespace lfi::bench;
  JsonReport report = JsonReport::FromArgs(argc, argv);
  const lfi::arch::CoreParams core = lfi::arch::AppleM1LikeParams();

  std::printf("Fault-path microbenchmarks (%s, simulated cycles/op)\n",
              core.name.c_str());
  std::printf("%-16s %12s\n", "path", "cycles/op");

  struct Row {
    const char* name;
    const char* metric;
    PathResult res;
  } rows[] = {
      {"fault-kill", "fault-kill.cycles", FaultKill(core, 100)},
      {"fault-signal", "fault-signal.cycles", FaultSignal(core, 2000)},
      {"fault-restart", "fault-restart.cycles", FaultRestart(core, 100)},
  };
  for (const Row& row : rows) {
    if (!row.res.ok) {
      std::fprintf(stderr, "error: %s: %s\n", row.name,
                   row.res.error.c_str());
      return 1;
    }
    std::printf("%-16s %12.1f\n", row.name, row.res.cycles_per_op);
    report.Add(row.metric, row.res.cycles_per_op);
  }
  if (!report.Write()) return 1;
  return 0;
}
