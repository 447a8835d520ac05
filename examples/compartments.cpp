// Compartments: microkernel-style IPC between two sandboxes.
//
// A "server" sandbox and a "client" sandbox exchange control with the fast
// direct yield (Section 5.3): a cross-sandbox call with no hardware mode
// switch and no page-table switch. The client hands requests to the server
// through a pipe; the server doubles each value and sends it back. This is
// the motivating use-case for LFI's ~tens-of-nanoseconds domain crossings
// (Table 5).

#include <cstdio>
#include <string>

#include "elf/build.h"
#include "runtime/runtime.h"

int main() {
  // The client forks a worker: parent (pid 1) computes, child echoes back
  // through pipes; they ping-pong with the scheduler. Requests are one
  // byte; the server doubles them.
  const char* client_src = R"(
.globl _start
.text
_start:
  adrp x25, fds
  add x25, x25, :lo12:fds
  mov x0, x25
  rtcall #10              // pipe: request channel
  add x0, x25, #8
  rtcall #10              // pipe: response channel
  rtcall #8               // fork the server
  cbz x0, server
  // client: close the ends the server owns (request-read,
  // response-write), then send 1..10 and accumulate doubled responses.
  ldr w0, [x25]
  rtcall #4
  ldr w0, [x25, #12]
  rtcall #4
  mov x19, #1
  mov x13, #0
next:
  adrp x1, box
  add x1, x1, :lo12:box
  strb w19, [x1]
  ldr w0, [x25, #4]       // request write end
  mov x2, #1
  rtcall #1
  ldr w0, [x25, #8]       // response read end
  adrp x1, box
  add x1, x1, :lo12:box
  mov x2, #1
  rtcall #2
  adrp x1, box
  add x1, x1, :lo12:box
  ldrb w9, [x1]
  add x13, x13, x9
  add x19, x19, #1
  cmp x19, #11
  b.lo next
  // shut the request channel so the server sees EOF and exits.
  ldr w0, [x25, #4]
  rtcall #4
  mov x0, #0
  rtcall #9               // wait for the server
  mov x0, x13             // sum of 2*(1..10) = 110
  rtcall #0
server:
  adrp x26, fds
  add x26, x26, :lo12:fds
  // close the client's ends (request-write, response-read) so EOF
  // propagates when the client finishes.
  ldr w0, [x26, #4]
  rtcall #4
  ldr w0, [x26, #8]
  rtcall #4
serve:
  ldr w0, [x26]           // request read end
  adrp x1, sbox
  add x1, x1, :lo12:sbox
  mov x2, #1
  rtcall #2               // read (0 = client closed: done)
  cbz x0, done
  adrp x1, sbox
  add x1, x1, :lo12:sbox
  ldrb w9, [x1]
  lsl w9, w9, #1          // the "service": double it
  strb w9, [x1]
  ldr w0, [x26, #12]      // response write end
  adrp x1, sbox
  add x1, x1, :lo12:sbox
  mov x2, #1
  rtcall #1
  b serve
done:
  mov x0, #0
  rtcall #0
.bss
fds:
  .zero 16
box:
  .zero 16
sbox:
  .zero 16
)";

  auto built = lfi::elf::Build(client_src);
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
  const uint64_t start_cycles = rt.Cycles();
  rt.RunUntilIdle();
  const auto* p = rt.proc(*pid);
  std::printf("client exit status: %d (expected 110 = sum of doubled "
              "1..10)\n", p->exit_status);
  std::printf("10 round trips through two isolation domains took %.0f "
              "simulated ns\n",
              static_cast<double>(rt.Cycles() - start_cycles) /
                  cfg.core.ghz);
  return p->exit_status == 110 ? 0 : 1;
}
