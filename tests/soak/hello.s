.text
.globl _start
_start:
  adr x1, msg
  mov w0, #1
  mov w2, #14
  rtcall #1
  mov w0, #0
  rtcall #0
.data
msg:
  .asciz "hello, trace!\n"
