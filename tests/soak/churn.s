// Syscall-heavy: brk churn, the surface chaos perturbs most.
.text
.globl _start
_start:
  movz x19, #400
loop:
  mov x0, #0
  rtcall #5
  sub x19, x19, #1
  cbnz x19, loop
  mov w0, #0
  rtcall #0
