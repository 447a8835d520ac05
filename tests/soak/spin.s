// Pure compute: must retire the same stream no matter what chaos does
// to its siblings.
.text
.globl _start
_start:
  movz x19, #20000
loop:
  sub x19, x19, #1
  cbnz x19, loop
  mov w0, #0
  rtcall #0
