// Quickstart: the complete LFI pipeline on a hello-world sandbox.
//
//   assembly text -> LFI rewriter -> assembler -> ELF -> verifier ->
//   loader -> sandboxed execution
//
// This mirrors the paper artifact's `lfi-clang` + `lfi-verify` + `lfi-run`
// flow (Appendix A.5), with the emulated ARM64 machine standing in for
// hardware.

#include <cstdio>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "asmtext/printer.h"
#include "elf/elf.h"
#include "rewriter/rewriter.h"
#include "runtime/runtime.h"

int main() {
  // A tiny freestanding program: write a greeting, then exit(0).
  // `rtcall #1` is write(fd, buf, len), `rtcall #0` is exit(status).
  const char* source = R"(
.globl _start
.text
_start:
  mov x0, #1              // fd = stdout
  adrp x1, greeting
  add x1, x1, :lo12:greeting
  mov x2, #33
  rtcall #1               // write
  mov x0, #0
  rtcall #0               // exit
.data
greeting:
  .asciz "hello from inside an LFI sandbox\n"
)";

  // 1. Parse the assembly text.
  auto file = lfi::asmtext::Parse(source);
  if (!file) {
    std::printf("parse error: %s\n", file.error().c_str());
    return 1;
  }

  // 2. Insert SFI guards (O2: zero-instruction guards + redundant guard
  //    elimination).
  lfi::rewriter::RewriteStats stats;
  auto rewritten =
      lfi::rewriter::Rewrite(*file, lfi::rewriter::RewriteOptions{}, &stats);
  if (!rewritten) {
    std::printf("rewrite error: %s\n", rewritten.error().c_str());
    return 1;
  }
  std::printf("--- rewritten assembly (%zu -> %zu instructions) ---\n%s\n",
              stats.input_insts, stats.output_insts,
              lfi::asmtext::Print(*rewritten).c_str());

  // 3. Assemble into a sandbox image and package as ELF. The default
  //    layout is the loader's: text at kProgramStart (runtime/layout.h).
  auto image = lfi::asmtext::Assemble(*rewritten, lfi::asmtext::LayoutSpec{});
  if (!image) {
    std::printf("assemble error: %s\n", image.error().c_str());
    return 1;
  }
  const std::vector<uint8_t> elf_bytes =
      lfi::elf::Write(lfi::elf::FromAssembled(*image));
  std::printf("ELF executable: %zu bytes (%zu bytes of text)\n",
              elf_bytes.size(), image->text.size());

  // 4. Load into the runtime. The loader runs the static verifier on the
  //    text segment before mapping anything - the compiler and rewriter
  //    above are NOT trusted.
  lfi::runtime::RuntimeConfig cfg;
  cfg.core = lfi::arch::AppleM1LikeParams();
  lfi::runtime::Runtime rt(cfg);
  auto pid = rt.Load({elf_bytes.data(), elf_bytes.size()});
  if (!pid) {
    std::printf("load error: %s\n", pid.error().c_str());
    return 1;
  }

  // 5. Run.
  rt.RunUntilIdle();
  const lfi::runtime::Proc* p = rt.proc(*pid);
  std::printf("sandbox output: %s", p->out.c_str());
  std::printf("exit status: %d, simulated time: %.1f us\n", p->exit_status,
              rt.machine().timing().Nanoseconds() / 1000.0);
  return p->exit_status;
}
