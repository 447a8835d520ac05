// Attack demo: what the verifier rejects, and what the sandbox contains.
//
// Three escalating scenarios:
//  1. A malicious binary with raw (unguarded) memory accesses - rejected
//     by the static verifier at load time.
//  2. A binary that tries to counterfeit the guard (wrong base register) -
//     also rejected.
//  3. A binary that PASSES verification but is actively hostile: it
//     constructs out-of-sandbox pointers and jumps. Every access is forced
//     back into its own 4GiB slot by the guards, and a probe into a guard
//     region faults and kills only that sandbox - the victim sandbox next
//     door keeps its secret and keeps running.

#include <cstdio>
#include <string>

#include "elf/build.h"
#include "runtime/runtime.h"

namespace {

// Builds WITHOUT the guards: these are attacker-supplied binaries.
lfi::Result<lfi::elf::Built> BuildRaw(const std::string& src) {
  lfi::rewriter::RewriteOptions opts;
  opts.insert_guards = false;  // only expands rtcall pseudo-instructions
  return lfi::elf::Build(src, opts);
}

}  // namespace

int main() {
  lfi::runtime::RuntimeConfig cfg;
  cfg.core = lfi::arch::AppleM1LikeParams();
  lfi::runtime::Runtime rt(cfg);

  // A victim sandbox holding a "secret" in its memory.
  auto victim = BuildRaw(R"(
_start:
  adrp x9, secret
  add x9, x9, :lo12:secret
  movz x1, #0x5EC7
  add x18, x21, w9, uxtw
  str x1, [x18]
  mov x19, #200
spin:
  rtcall #11
  subs x19, x19, #1
  b.ne spin
  ldr x0, [x18]           // still 0x5EC7 if nobody tampered with it
  rtcall #0
.data
secret:
  .quad 0
)");
  auto victim_pid = rt.Load(victim->bytes);
  std::printf("[victim] loaded: pid %d\n", *victim_pid);

  // Scenario 1: raw unguarded store. The verifier must reject it.
  auto raw = BuildRaw("movz x1, #0x4141\nstr x1, [x1]\nret\n");
  auto raw_pid = rt.Load(raw->bytes);
  std::printf("[1] raw store:           %s\n",
              raw_pid ? "LOADED (BUG!)" : raw_pid.error().c_str());

  // Scenario 2: counterfeit guard using a non-base register.
  auto fake = BuildRaw(
      "movz x1, #0x4141\nadd x18, x1, w1, uxtw\nldr x0, [x18]\nret\n");
  auto fake_pid = rt.Load(fake->bytes);
  std::printf("[2] counterfeit guard:   %s\n",
              fake_pid ? "LOADED (BUG!)" : fake_pid.error().c_str());

  // Scenario 3: verifier-clean but hostile. It builds a pointer 4GiB
  // beyond its own base (i.e., into the next sandbox) and stores through a
  // proper guard; then probes a guard region.
  auto hostile = BuildRaw(R"(
_start:
  // Attempt 1: write to "neighbor_base + offset of their secret".
  adrp x9, secret_guess
  add x9, x9, :lo12:secret_guess
  movz x10, #1, lsl #32
  add x9, x9, x10          // out-of-slot address
  movz x1, #0xEE
  add x18, x21, w9, uxtw   // the guard masks the top 32 bits...
  str x1, [x18]            // ...so this lands in OUR OWN memory
  // Attempt 2: probe the guard region below the code.
  movz x9, #0x4100
  add x18, x21, w9, uxtw
  ldr x0, [x18]            // traps: unmapped guard page
  mov x0, #0
  rtcall #0
.data
secret_guess:
  .quad 0
)");
  auto hostile_pid = rt.Load(hostile->bytes);
  std::printf("[3] hostile-but-verified: %s\n",
              hostile_pid ? "loaded (passes verification, as expected)"
                          : hostile_pid.error().c_str());

  rt.RunUntilIdle();

  if (hostile_pid) {
    const auto* h = rt.proc(*hostile_pid);
    std::printf("[3] hostile sandbox outcome: %s (%s)\n",
                h->exit_kind == lfi::runtime::ExitKind::kKilled
                    ? "killed by its own fault"
                    : "exited",
                h->fault_detail.c_str());
  }
  const auto* v = rt.proc(*victim_pid);
  std::printf("[victim] exit status: 0x%X (%s)\n", v->exit_status,
              v->exit_status == 0x5EC7 ? "secret intact - isolation held"
                                       : "TAMPERED - isolation FAILED");
  return v->exit_status == 0x5EC7 ? 0 : 1;
}
