#include "runtime/supervisor.h"

#include <algorithm>
#include <cstring>

#include "runtime/runtime.h"

namespace lfi::runtime {

namespace {

// Little-endian field accessors for the signal frame buffer.
void PutU64(uint8_t* buf, uint64_t off, uint64_t v) {
  std::memcpy(buf + off, &v, 8);
}
uint64_t GetU64(const uint8_t* buf, uint64_t off) {
  uint64_t v;
  std::memcpy(&v, buf + off, 8);
  return v;
}

}  // namespace

const char* FaultActionName(FaultAction a) {
  switch (a) {
    case FaultAction::kKill: return "kill";
    case FaultAction::kSignal: return "signal";
    case FaultAction::kRestart: return "restart";
  }
  return "?";
}

const char* DispositionName(Disposition d) {
  switch (d) {
    case Disposition::kNone: return "none";
    case Disposition::kKilled: return "killed";
    case Disposition::kSignaled: return "signaled";
    case Disposition::kRestarted: return "restarted";
  }
  return "?";
}

int FaultSignal(emu::CpuFault::Kind kind) {
  switch (kind) {
    case emu::CpuFault::Kind::kMemory:
    case emu::CpuFault::Kind::kFetch:
      return kSigSegv;
    case emu::CpuFault::Kind::kDecode:
    case emu::CpuFault::Kind::kIllegal:
      return kSigIll;
    case emu::CpuFault::Kind::kPcAlign:
      return kSigBus;
  }
  return kSigKill;
}

uint64_t Supervisor::NextCookie() {
  // SplitMix64 step: deterministic per-delivery nonces, never exposed
  // before the matching frame is written.
  uint64_t z = (cookie_state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Disposition Supervisor::HandleFault(Proc* p, const emu::CpuFault& f,
                                    bool injected) {
  const int signo = FaultSignal(f.kind);
  std::string detail = f.detail + " pc=" + std::to_string(f.pc);
  if (injected) detail += " [chaos]";
  p->fault_injected = injected;
  switch (p->policy.on_fault) {
    case FaultAction::kSignal: {
      std::string why_not;
      if (DeliverSignal(p, f, signo, &why_not)) {
        p->disposition = Disposition::kSignaled;
        return Disposition::kSignaled;
      }
      detail += " (" + why_not + ")";
      break;
    }
    case FaultAction::kRestart:
      if (Restart(p)) return Disposition::kRestarted;
      detail += " (restart budget exhausted)";
      break;
    case FaultAction::kKill:
      break;
  }
  rt_->KillProc(p, detail, signo);
  return Disposition::kKilled;
}

bool Supervisor::DeliverSignal(Proc* p, const emu::CpuFault& f, int signo,
                               std::string* why_not) {
  if (p->sig.in_handler) {
    *why_not = "double fault in signal handler";
    return false;
  }
  const uint64_t handler = p->sig.handlers[signo];
  if (handler == 0) {
    *why_not = "no handler for signal " + std::to_string(signo);
    return false;
  }
  // Frame goes below the interrupted sp, 16-byte aligned. Canon keeps the
  // slot arithmetic honest even if sp was left un-canonical.
  const uint64_t sp = rt_->Canon(p, p->cpu.sp);
  const uint64_t frame = rt_->Canon(p, (sp - kSigFrameBytes) & ~uint64_t{15});
  // Requiring a mapped read+write range means a blown stack cannot recurse
  // into delivery: it degrades to a kill (the Unix SIGSEGV-on-the-
  // alternate-stackless analogue).
  if (!rt_->space_.Check(frame, kSigFrameBytes,
                         emu::kPermRead | emu::kPermWrite)) {
    *why_not = "no writable stack for signal frame";
    return false;
  }

  uint8_t buf[kSigFrameBytes] = {};
  const uint64_t cookie = NextCookie();
  PutU64(buf, kSigOffMagic, kSigFrameMagic);
  PutU64(buf, kSigOffCookie, cookie);
  PutU64(buf, kSigOffSigno, static_cast<uint64_t>(signo));
  PutU64(buf, kSigOffFaultAddr,
         f.kind == emu::CpuFault::Kind::kMemory ? f.mem.addr : 0);
  PutU64(buf, kSigOffPc, p->cpu.pc);
  PutU64(buf, kSigOffSp, p->cpu.sp);
  const uint64_t nzcv = (uint64_t{p->cpu.n} << 31) | (uint64_t{p->cpu.z} << 30) |
                        (uint64_t{p->cpu.c} << 29) | (uint64_t{p->cpu.v} << 28);
  PutU64(buf, kSigOffNzcv, nzcv);
  for (int r = 0; r < 31; ++r) {
    PutU64(buf, kSigOffRegs + 8 * static_cast<uint64_t>(r), p->cpu.x[r]);
  }
  if (!rt_->space_.HostWrite(frame, buf).ok()) {
    *why_not = "signal frame write failed";
    return false;
  }

  p->sig.in_handler = true;
  p->sig.cookie = cookie;
  p->sig.frame_addr = frame;
  ++p->sig.delivered;
  p->cpu.x[0] = static_cast<uint64_t>(signo);
  p->cpu.x[1] = frame;
  p->cpu.sp = frame;
  p->cpu.pc = handler;
  rt_->machine_.timing().ChargeFlat(kSignalDeliverCycles);
  rt_->Enqueue(p);
  if (rt_->sink_ != nullptr) {
    rt_->sink_->metrics(p->pid).Add(trace::Counter::kSignalsDelivered);
    rt_->sink_->EmitInstant(trace::EventKind::kSignalDeliver, p->pid,
                            rt_->Cycles(), static_cast<uint64_t>(signo),
                            frame);
  }
  return true;
}

bool Supervisor::Restart(Proc* p) {
  if (p->snapshot == nullptr) return false;
  // A healthy run past the reset window clears the crash-loop record:
  // the budget and the exponential backoff both start over, so a
  // long-lived tenant that faults rarely is not treated like a sandbox
  // that crashes on arrival. cpu_cycles counts only the current
  // incarnation (restarts zero it below), so it measures exactly how
  // long the sandbox ran since the last restart.
  const uint64_t window = p->policy.restart_reset_after_cycles;
  if (p->restarts > 0 && window != 0 && p->cpu_cycles >= window) {
    p->restarts = 0;
  }
  if (p->restarts >= p->policy.restart_budget) return false;
  ++p->restarts;

  // Capped exponential backoff, charged to the shared clock: a crash-
  // looping sandbox pays, siblings merely observe later timestamps.
  const uint32_t shift = std::min<uint32_t>(p->restarts - 1, 63);
  const uint64_t base = p->policy.restart_backoff_base_cycles;
  // If base << shift overflows (round trip loses bits), the true value
  // exceeds any cap; otherwise take the shifted value, capped.
  uint64_t backoff = p->policy.restart_backoff_cap_cycles;
  if ((base << shift) >> shift == base) {
    backoff = std::min(base << shift, p->policy.restart_backoff_cap_cycles);
  }
  rt_->machine_.timing().ChargeFlat(backoff);

  // Roll back to the post-instantiation checkpoint (post-load, post-spawn
  // or post-fork). Only pages the crashed incarnation dirtied are
  // re-installed, and the modeled restore cost scales with that count,
  // not the image size.
  if (!rt_->RestoreFromSnapshot(p->pid, *p->snapshot).ok()) return false;
  rt_->machine_.timing().ChargeFlat(rt_->last_instantiation_.cycles);
  p->cpu_cycles = 0;
  p->insts_retired = 0;
  p->state = ProcState::kReady;
  p->exit_kind = ExitKind::kRunning;
  p->exit_status = 0;
  p->disposition = Disposition::kRestarted;
  rt_->Enqueue(p);
  if (rt_->sink_ != nullptr) {
    rt_->sink_->metrics(p->pid).Add(trace::Counter::kRestarts);
    rt_->sink_->EmitInstant(trace::EventKind::kProcRestart, p->pid,
                            rt_->Cycles(), p->restarts, backoff);
  }
  return true;
}

bool Supervisor::EnforceCpuQuota(Proc* p) {
  const uint64_t quota = p->policy.limits.max_cpu_cycles;
  if (quota == 0 || p->cpu_cycles <= quota) return false;
  if (rt_->sink_ != nullptr) {
    rt_->sink_->metrics(p->pid).Add(trace::Counter::kLimitRejections);
    rt_->sink_->EmitInstant(trace::EventKind::kLimitHit, p->pid,
                            rt_->Cycles(),
                            static_cast<uint64_t>(LimitKind::kCpu),
                            p->cpu_cycles);
  }
  // The quota is a watchdog, not a degradable limit: policies other than
  // kill do not apply (a restarting runaway would just run away again
  // with a fresh budget — the caller asked for a hard stop).
  rt_->KillProc(p,
                "cpu quota exceeded (" + std::to_string(p->cpu_cycles) +
                    " > " + std::to_string(quota) + " cycles)",
                kSigXcpu);
  return true;
}

uint64_t Supervisor::SysSigaction(Proc* p, uint64_t signo, uint64_t handler) {
  if (signo == 0 || signo >= kNumSignals) {
    return static_cast<uint64_t>(-22);  // EINVAL
  }
  if (handler != 0 && (handler & 3) != 0) {
    return static_cast<uint64_t>(-22);  // handlers must be 4-aligned
  }
  p->sig.handlers[signo] = handler == 0 ? 0 : rt_->Canon(p, handler);
  return 0;
}

void Supervisor::SysSigreturn(Proc* p, uint64_t frame_ptr) {
  const uint64_t frame = rt_->Canon(p, frame_ptr);
  if (!p->sig.in_handler || frame != p->sig.frame_addr) {
    rt_->KillProc(p, "sigreturn with no matching signal frame", kSigSegv);
    return;
  }
  uint8_t buf[kSigFrameBytes];
  if (!rt_->space_.HostRead(frame, buf).ok()) {
    rt_->KillProc(p, "sigreturn frame unreadable", kSigSegv);
    return;
  }
  if (GetU64(buf, kSigOffMagic) != kSigFrameMagic ||
      GetU64(buf, kSigOffCookie) != p->sig.cookie) {
    rt_->KillProc(p, "forged sigreturn frame", kSigSegv);
    return;
  }
  for (int r = 0; r < 31; ++r) {
    p->cpu.x[r] = GetU64(buf, kSigOffRegs + 8 * static_cast<uint64_t>(r));
  }
  const uint64_t nzcv = GetU64(buf, kSigOffNzcv);
  p->cpu.n = (nzcv >> 31) & 1;
  p->cpu.z = (nzcv >> 30) & 1;
  p->cpu.c = (nzcv >> 29) & 1;
  p->cpu.v = (nzcv >> 28) & 1;
  // Re-canonicalize everything a guard or the runtime relies on: even a
  // bit-flipped (but cookie-valid) frame must not produce an out-of-slot
  // reserved register. Shared with snapshot rebase and embedded-call
  // entry/callback-return — every host-installed frame gets this.
  p->cpu.sp = GetU64(buf, kSigOffSp);
  p->cpu.pc = GetU64(buf, kSigOffPc);
  emu::CanonicalizeSandboxRegs(p->cpu, p->base);
  p->sig.in_handler = false;
  p->sig.cookie = 0;
  p->sig.frame_addr = 0;
  rt_->machine_.timing().ChargeFlat(kSigreturnCycles);
  if (rt_->sink_ != nullptr) {
    rt_->sink_->metrics(p->pid).Add(trace::Counter::kSigreturns);
    rt_->sink_->EmitInstant(trace::EventKind::kSigreturn, p->pid,
                            rt_->Cycles(), p->cpu.pc);
  }
}

}  // namespace lfi::runtime
