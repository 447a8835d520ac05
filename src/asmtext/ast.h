// Assembly-file AST.
//
// LFI deliberately operates on GNU assembly *text* emitted by off-the-shelf
// compilers instead of living inside a compiler backend (Section 5.1). This
// module defines the statement-level representation that the parser
// produces, the rewriter transforms, the printer re-emits, and the
// assembler lowers to bytes.
#ifndef LFI_ASMTEXT_AST_H_
#define LFI_ASMTEXT_AST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "arch/inst.h"

namespace lfi::asmtext {

// Sections an assembly file can place content in.
enum class Section : uint8_t { kText, kRodata, kData, kBss };

// Non-instruction statements. A directive's name or string payload
// (`.globl`, `.asciz`) lives in its statement's `sym`.
struct Directive {
  enum class Kind : uint8_t {
    kSection,  // .text/.data/.rodata/.bss (section in `section`)
    kGlobl,    // .globl sym
    kBalign,   // .balign n
    kByte,     // .byte v, v, ...
    kWord,     // .word v, ... (4 bytes each; entries may be symbols)
    kQuad,     // .quad v, ... (8 bytes each; entries may be symbols)
    kAsciz,    // .asciz "str" (NUL-terminated)
    kZero,     // .zero n / .space n
  };
  Kind kind = Kind::kSection;
  Section section = Section::kText;
  std::vector<int64_t> values;     // numeric payload
  std::vector<std::string> syms;   // symbol payload, parallel to values;
                                   // empty string = use numeric value
};

// Relocation kind attached to an instruction's immediate.
enum class Reloc : uint8_t {
  kNone,
  kBranch,  // direct-branch / adr / adrp target: the `sym` label
  kLo12,    // :lo12:sym in an add/ldr/str immediate
};

// One statement in an assembly file. Which fields a statement uses
// depends on its kind; the rest stay default-initialized:
//
//   kind        sym                               dir  inst  reloc
//   kLabel      the name being bound              -    -     -
//   kDirective  .globl symbol / .asciz bytes      yes  -     -
//   kInst       branch or :lo12: target, if any   -    yes   yes
//   kRtcall,
//   kHostcall   -                                 -    imm   -
//
// Parsing a large module keeps hundreds of thousands of these alive at
// once, so the layout is kept tight: one string serves every kind, and
// the small fields share the first 8 bytes.
struct AsmStmt {
  // kRtcall is the `rtcall #n` pseudo-instruction: a call into the LFI
  // runtime through the call table at the sandbox base (Section 4.4). The
  // rewriter expands it into the `ldr x30, [x21, #8n]; blr x30` sequence;
  // it cannot be assembled directly. The call number lives in `inst.imm`.
  //
  // kHostcall is the `hostcall #i` pseudo used by embedded guests
  // (src/embed/): it expands to `movz x9, #i` followed by the kHostcall
  // rtcall, invoking host callback slot `i`. The slot index lives in
  // `inst.imm`.
  enum class Kind : uint8_t { kLabel, kDirective, kInst, kRtcall, kHostcall };
  Kind kind = Kind::kInst;
  Reloc reloc = Reloc::kNone;  // kInst
  int line = 0;  // 1-based source line, for diagnostics

  std::string sym;  // the name or bytes the statement carries (see above)
  Directive dir;    // kDirective
  arch::Inst inst;  // kInst, kRtcall, kHostcall

  static AsmStmt Label(std::string name) {
    AsmStmt s;
    s.kind = Kind::kLabel;
    s.sym = std::move(name);
    return s;
  }
  static AsmStmt OfInst(arch::Inst i) {
    AsmStmt s;
    s.kind = Kind::kInst;
    s.inst = i;
    return s;
  }
  static AsmStmt Branch(arch::Inst i, std::string target_label) {
    AsmStmt s = OfInst(i);
    s.reloc = Reloc::kBranch;
    s.sym = std::move(target_label);
    return s;
  }
};

// A parsed assembly file: a flat statement list, in source order.
struct AsmFile {
  std::vector<AsmStmt> stmts;
};

}  // namespace lfi::asmtext

#endif  // LFI_ASMTEXT_AST_H_
