// Fork in a single address space (Section 5.3).
//
// Because every guard rewrites the top 32 bits of a pointer to the sandbox
// base, pointers are effectively 32-bit offsets into whichever 4GiB slot
// the process occupies. The runtime exploits this to implement fork
// without separate page tables: the child's pages are shared
// copy-on-write at a new slot base, registers are rebased, and execution
// continues in both processes. This demo builds a small fork tree and
// shows (a) correct parent/child return values, (b) copy-on-write
// isolation of writes, and (c) slot reclamation after wait().

#include <cstdio>

#include "elf/build.h"
#include "runtime/runtime.h"

int main() {
  // Each process increments a generation counter in its own copy of
  // memory, forks twice at depth 0, and each child exits with
  // 10*generation + its own increment. The parent sums its children's
  // exit statuses (collected via wait) and exits with the total.
  const char* src = R"(
.globl _start
.text
_start:
  adrp x9, gen
  add x9, x9, :lo12:gen
  mov x1, #1
  str x1, [x9]
  rtcall #8               // fork -> child A
  cbz x0, childa
  mov x19, x0
  rtcall #8               // fork -> child B
  cbz x0, childb
  mov x20, x0
  // parent: wait for both children, summing their statuses.
  adrp x1, status
  add x1, x1, :lo12:status
  mov x0, x1
  rtcall #9
  adrp x1, status
  add x1, x1, :lo12:status
  ldr w13, [x1]
  mov x0, x1
  rtcall #9
  adrp x1, status
  add x1, x1, :lo12:status
  ldr w9, [x1]
  add x13, x13, x9
  // parent's own memory must still say generation 1.
  adrp x9, gen
  add x9, x9, :lo12:gen
  ldr x1, [x9]
  cmp x1, #1
  b.eq parentok
  mov x0, #99             // COW violation!
  rtcall #0
parentok:
  mov x0, x13             // 11 + 12 = 23
  rtcall #0
childa:
  adrp x9, gen
  add x9, x9, :lo12:gen
  ldr x1, [x9]
  add x1, x1, #10         // 11
  str x1, [x9]            // private copy-on-write page
  mov x0, x1
  rtcall #0
childb:
  adrp x9, gen
  add x9, x9, :lo12:gen
  ldr x1, [x9]
  add x1, x1, #11         // 12
  str x1, [x9]
  mov x0, x1
  rtcall #0
.bss
gen:
  .zero 8
status:
  .zero 8
)";

  auto built = lfi::elf::Build(src);
  if (!built) {
    std::printf("build error: %s\n", built.error().c_str());
    return 1;
  }

  lfi::runtime::RuntimeConfig cfg;
  cfg.core = lfi::arch::AppleM1LikeParams();
  lfi::runtime::Runtime rt(cfg);
  auto pid = rt.Load(built->bytes);
  if (!pid) {
    std::printf("load error: %s\n", pid.error().c_str());
    return 1;
  }
  rt.RunUntilIdle();
  const auto* p = rt.proc(*pid);
  std::printf("parent exit status: %d (expected 23 = 11 + 12)\n",
              p->exit_status);
  std::printf("slots still in use after all exits: %llu (expected 0)\n",
              static_cast<unsigned long long>(rt.slots_in_use()));
  std::printf("fork tree ran in %.1f simulated us across 3 sandbox "
              "slots\n", rt.machine().timing().Nanoseconds() / 1000.0);
  return p->exit_status == 23 ? 0 : 1;
}
