// Deterministic fault injection ("chaos") for the LFI runtime.
//
// The engine perturbs a run in three ways, all driven by one seed so a
// failing run replays bit-for-bit (the same replay discipline as the
// lfi-fuzz artifacts):
//
//   - cpu faults: at chosen retirement counts of a victim sandbox, the
//     engine stops the machine through the ExecHook and hands the runtime
//     a synthesized CpuFault (memory/decode/illegal/pc-align, rotating),
//     which flows through the supervisor exactly like a real one;
//   - syscall errors: injectable runtime calls on a victim return ENOMEM
//     or EINTR instead of executing, and reads are clamped short;
//   - scheduler perturbations: the ready queue is rotated and timeslices
//     jittered, stressing preemption points.
//
// Determinism: per-pid decision streams are derived with fuzz::DeriveSeed
// (so an injection into pid 3 never shifts pid 4's stream), and victim
// selection depends only on (seed, pid). Un-injected sandboxes therefore
// retire exactly the instruction stream of a chaos-free run; only their
// cycle timestamps move. The soak test and the soak_chaos ctest assert
// this by byte-comparing trace files across runs.
//
// Attach with Runtime::set_chaos (surfaced as lfi-run --chaos-seed /
// --chaos-profile). The engine must outlive the runtime or be detached.
#ifndef LFI_CHAOS_CHAOS_H_
#define LFI_CHAOS_CHAOS_H_

#include <cstdint>
#include <map>
#include <string>

#include "emu/machine.h"
#include "fuzz/rng.h"

namespace lfi::chaos {

// What a profile injects. Profiles are named so CI invocations stay
// readable; ProfileByName understands "none", "memfault", "syscall",
// "sched", and "storm" (everything at once).
struct ChaosProfile {
  std::string name = "none";
  bool cpu_faults = false;
  bool syscall_errors = false;
  bool short_reads = false;
  bool sched_perturb = false;
  uint32_t victim_percent = 50;  // share of pids auto-selected as victims
  uint64_t min_fault_gap = 2000;   // retired insts between cpu faults
  uint64_t max_fault_gap = 20000;
  uint32_t syscall_error_percent = 20;  // per injectable call
};

ChaosProfile ProfileByName(const std::string& name);

class ChaosEngine final : public emu::ExecHook {
 public:
  ChaosEngine(uint64_t seed, ChaosProfile profile);

  uint64_t seed() const { return seed_; }
  const ChaosProfile& profile() const { return profile_; }

  // True if (seed, pid) selects this sandbox for injection. When victims
  // were pinned with MarkVictim, only those pids are victims.
  bool IsVictim(int pid);

  // Pins the victim set explicitly (tests and the containment matrix);
  // auto-selection is disabled once any pid is marked.
  void MarkVictim(int pid);

  // Switches to an explicitly pinned (initially empty) victim set without
  // naming a pid. The serving layer calls this up front so that only the
  // pids it later MarkVictim()s — sandboxes bound to storm-scoped tenants
  // — are ever injected into.
  void PinVictims();

  // Removes pid from the pinned victim set (no-op when unpinned or not a
  // victim). Lets victimhood track a *binding* rather than a pid: a
  // recycled sandbox that served a storm tenant is unmarked before it can
  // be handed to a healthy tenant.
  void UnmarkVictim(int pid);

  // Whether the runtime needs to attach the per-instruction hook (only
  // cpu-fault injection pays the hook cost).
  bool WantsExecHook() const { return profile_.cpu_faults; }

  // Runtime integration ----------------------------------------------
  // Called before each timeslice with the pid about to run.
  void BeginSlice(int pid) { current_pid_ = pid; }

  // ExecHook: counts retirements of the current pid and requests a stop
  // at each planned injection point.
  bool OnInst(const arch::Inst& inst, uint64_t pc, const emu::CpuState& after,
              std::span<const emu::AccessRecord> accesses,
              bool faulted) override;

  // After a kHookStop, hands over the synthesized fault exactly once.
  bool TakePendingFault(emu::CpuFault* out);

  // Syscall-error injection: true -> the dispatcher should return *err
  // without executing the call. `call` is the runtime-call number.
  bool InjectSyscallError(int pid, int call, uint64_t* err);

  // Short reads: possibly clamps a read length (never to 0 — a zero-length
  // read means EOF to the sandbox, which is a semantic change, not noise).
  uint64_t ClampIoLen(int pid, uint64_t len);

  // Scheduler perturbation: rotate the ready queue before this pick?
  bool PerturbSchedule();
  // Jittered preemption quantum in [slice/4, slice].
  uint64_t PerturbTimeslice(uint64_t slice);

 private:
  struct PidPlan {
    bool victim = false;
    fuzz::Rng rng{0};
    uint64_t retired = 0;
    uint64_t next_fault_at = 0;
  };
  PidPlan& Plan(int pid);

  uint64_t seed_;
  ChaosProfile profile_;
  fuzz::Rng sched_rng_;
  std::map<int, PidPlan> plans_;
  bool pinned_victims_ = false;
  int current_pid_ = 0;
  bool fault_pending_ = false;
  emu::CpuFault pending_;
};

}  // namespace lfi::chaos

#endif  // LFI_CHAOS_CHAOS_H_
