// The LFI assembly rewriter.
//
// Consumes compiler-emitted assembly (as an AsmFile) and inserts the SFI
// guards described in Sections 3-4 of the paper, at one of three
// optimization levels:
//
//  - O0: every unsafe memory access and indirect branch is guarded through
//    a reserved register using the basic two-cycle guard
//    `add x18, x21, wN, uxtw`. Stack-pointer optimizations stay on (the
//    paper's O0 is defined the same way).
//  - O1: adds the zero-instruction guard: accesses are rewritten to the
//    `[x21, wN, uxtw]` addressing mode per Table 3, reducing guard cost to
//    one cycle or zero.
//  - O2: adds redundant guard elimination: runs of accesses off one base
//    register share a single guard through the reserved hoisting registers
//    x23/x24 (Section 4.3, Figure 2).
//
// Additional passes at every level: stack-pointer modification guards with
// the Section 4.2 elisions (pre/post-index writeback; small add/sub
// followed by an access in the same basic block), link-register guards
// after loads of x30, runtime-call expansion (Section 4.4), and the
// tbz/tbnz range fix (Section 5.1).
#ifndef LFI_REWRITER_REWRITER_H_
#define LFI_REWRITER_REWRITER_H_

#include "asmtext/ast.h"
#include "support/result.h"

namespace lfi::rewriter {

// Optimization level, matching the paper's evaluation configurations.
enum class OptLevel { kO0, kO1, kO2 };

struct RewriteOptions {
  OptLevel level = OptLevel::kO2;
  // When false, no guards are inserted at all - only rtcall expansion and
  // the tbz range fix run. This produces the "native" baseline that the
  // paper runs inside the LFI runtime (so it benefits from the same
  // accelerated system calls; Section 6.1). Such programs do not verify.
  bool insert_guards = true;
  // When false, loads are left unguarded ("O2, no loads" in Figure 3):
  // pure fault isolation that protects integrity but not confidentiality.
  bool sandbox_loads = true;
  // Conservatively save/restore x30 around runtime calls (footnote 3).
  bool save_restore_x30 = true;
  // The Section 4.2 elision of sp guards after small adjustments followed
  // by an in-block access. Disabled only by the ablation benchmark.
  bool sp_elision = true;
};

// Statistics from a rewrite, used by the code-size evaluation (§6.3).
struct RewriteStats {
  size_t input_insts = 0;
  size_t output_insts = 0;
  size_t guards_inserted = 0;       // add-guard instructions added
  size_t guards_elided_sp = 0;      // SP guards skipped via §4.2 reasoning
  size_t guards_hoisted = 0;        // accesses served by a hoisted guard
  size_t tbz_rewritten = 0;
};

// Rewrites `in`, returning the guarded file. Fails if the input already
// uses the reserved registers (compilers must be invoked with -ffixed-*,
// Section 5.1), contains instructions that cannot be made safe, or names
// an rtcall past the call table (runtime/layout.h kCallTableBytes / 8).
Result<asmtext::AsmFile> Rewrite(const asmtext::AsmFile& in,
                                 const RewriteOptions& opts,
                                 RewriteStats* stats = nullptr);

}  // namespace lfi::rewriter

#endif  // LFI_REWRITER_REWRITER_H_
