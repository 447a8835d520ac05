#include "arch/fields.h"

#include <cassert>

namespace lfi::arch {

namespace {

std::vector<uint32_t> FullValues(unsigned width) {
  std::vector<uint32_t> v(size_t{1} << width);
  for (uint32_t i = 0; i < v.size(); ++i) v[i] = i;
  return v;
}

EncField F(const char* name, uint8_t lo, uint8_t width) {
  return {name, lo, width, FieldSweep::kFull, FullValues(width), ""};
}

EncField B(const char* name, uint8_t lo, uint8_t width,
           std::vector<uint32_t> values, const char* why) {
  return {name, lo, width, FieldSweep::kBoundary, std::move(values), why};
}

// Source-only register operands: the verifier never inspects their
// identity (no predicate reads rn/rm/ra of a pure dataflow instruction),
// so the sweep keeps zr, every reserved register, and plain
// representatives from each encoding region.
const char* kSrcWhy =
    "source-only register: identity never reaches a verifier predicate; "
    "all reserved registers + zr + plain representatives swept";
std::vector<uint32_t> SrcRegs() {
  return {0, 1, 9, 17, 18, 21, 22, 23, 24, 25, 29, 30, 31};
}

// Register-offset index operands: CheckAccess validates mode/base/shift
// only; the index register's identity is intentionally unconstrained
// (any wN is safe under uxtw #0 off x21).
const char* kIdxWhy =
    "index register: only mode/base/shift are checked, never the index "
    "identity";
std::vector<uint32_t> IdxRegs() { return {0, 18, 21, 22, 30, 31}; }

// Memory base operands where the check is set membership
// (reserved-or-sp, or ==x21): every reserved register, the sp/zr
// encoding 31, and plain representatives cover all membership outcomes.
const char* kBaseWhy =
    "base register: the check is membership in {x18,x21,x23,x24,sp}; all "
    "reserved registers, encoding 31 and plain representatives swept";
std::vector<uint32_t> BaseRegs() {
  return {0, 1, 9, 17, 18, 21, 22, 23, 24, 29, 30, 31};
}

std::vector<EncClassInfo> BuildClasses() {
  std::vector<EncClassInfo> c;

  // ---- Fixed words and system (decode order) ----
  c.push_back({"nop", 0xFFFFFFFFu, 0xD503201Fu, {}});
  c.push_back({"svc", 0xFFE0001Fu, 0xD4000001u,
               {B("imm16", 5, 16, {0, 1, 0xFFFF}, "system call number: "
                  "rejected as a system instruction regardless of value")}});
  c.push_back({"brk", 0xFFE0001Fu, 0xD4200000u,
               {B("imm16", 5, 16, {0, 1, 0xFFFF},
                  "debug trap comment: no verifier predicate reads it")}});
  c.push_back({"mrs", 0xFFF00000u, 0xD5300000u,
               {B("sysreg", 5, 15, {0, 1, 0x5A10, 0x7FFF},
                  "system register id: rejected as a system instruction "
                  "regardless of value"),
                F("rt", 0, 5)}});
  c.push_back({"msr", 0xFFF00000u, 0xD5100000u,
               {B("sysreg", 5, 15, {0, 1, 0x5A10, 0x7FFF},
                  "system register id: rejected as a system instruction "
                  "regardless of value"),
                F("rt", 0, 5)}});

  // ---- Indirect branches (br/blr/ret) ----
  c.push_back({"br-reg", 0xFF800000u, 0xD6000000u,
               {F("op2", 21, 2),
                B("op3", 16, 5, {0x1F, 0, 1},
                  "must be 11111 to decode; representatives of the "
                  "unallocated space prove the boundary"),
                B("low", 10, 6, {0, 1, 0x3F},
                  "must be 0 to decode; boundary representatives"),
                F("rn", 5, 5),
                B("rt", 0, 5, {0, 1, 0x1F},
                  "must be 0 to decode; boundary representatives")}});

  // ---- Direct branches ----
  c.push_back({"b", 0x7C000000u, 0x14000000u,
               {F("op", 31, 1),
                B("imm26", 0, 26, {0, 1, 0x1FFFFFF, 0x2000000, 0x3FFFFFF},
                  "branch displacement: never read by a verifier "
                  "predicate; sign boundary included")}});
  c.push_back({"b-cond", 0xFF000010u, 0x54000000u,
               {B("imm19", 5, 19, {0, 1, 0x3FFFF, 0x40000, 0x7FFFF},
                  "branch displacement: never read by a verifier "
                  "predicate; sign boundary included"),
                F("cond", 0, 4)}});
  c.push_back({"cbz", 0x7E000000u, 0x34000000u,
               {F("sf", 31, 1), F("op", 24, 1),
                B("imm19", 5, 19, {0, 1, 0x7FFFF},
                  "branch displacement: never read by a verifier predicate"),
                F("rt", 0, 5)}});
  c.push_back({"tbz", 0x7E000000u, 0x36000000u,
               {F("b5", 31, 1), F("op", 24, 1), F("b40", 19, 5),
                B("imm14", 5, 14, {0, 1, 0x3FFF},
                  "branch displacement: never read by a verifier predicate"),
                F("rt", 0, 5)}});

  // ---- PC-relative ----
  c.push_back({"adr", 0x1F000000u, 0x10000000u,
               {F("op", 31, 1), F("immlo", 29, 2),
                B("immhi", 5, 19, {0, 1, 0x7FFFF},
                  "pc-relative displacement: only the destination register "
                  "is checked; sign boundary included"),
                F("rd", 0, 5)}});

  // ---- Data processing, immediate ----
  c.push_back({"logical-imm", 0x1F800000u, 0x12000000u,
               {F("sf", 31, 1), F("opc", 29, 2), F("n", 22, 1),
                B("immr", 16, 6, {0, 1, 31, 32, 63},
                  "bitmask rotation: only validity matters, not the decoded "
                  "mask value; canonical/non-canonical boundary swept"),
                B("imms", 10, 6, {0, 1, 3, 31, 32, 60, 62, 63},
                  "bitmask run length: only validity matters; all-ones and "
                  "element-size boundaries swept"),
                B("rn", 5, 5, SrcRegs(), kSrcWhy), F("rd", 0, 5)}});
  // Mask frees bit 23 (unlike the 0x1F800000 dispatch test) so the sh
  // field can sweep the unallocated sh=1x space: those words fall through
  // every decode arm and the model must prove they stay undecodable.
  c.push_back({"addsub-imm", 0x1F000000u, 0x11000000u,
               {F("sf", 31, 1), F("op", 30, 1), F("s", 29, 1), F("sh", 22, 2),
                B("imm12", 10, 12, {0, 1, 1023, 1024, 4095},
                  "adjustment size: the only predicate is the sp "
                  "small-adjust threshold imm < 1024, swept on both sides"),
                F("rn", 5, 5), F("rd", 0, 5)}});
  c.push_back({"movwide", 0x1F800000u, 0x12800000u,
               {F("sf", 31, 1), F("opc", 29, 2), F("hw", 21, 2),
                B("imm16", 5, 16, {0, 1, 0xFFFF},
                  "move constant: never read by a verifier predicate"),
                F("rd", 0, 5)}});
  c.push_back({"bitfield", 0x1F800000u, 0x13000000u,
               {F("sf", 31, 1), F("opc", 29, 2), F("n", 22, 1),
                B("immr", 16, 6, {0, 1, 31, 32, 63},
                  "bit positions: only the width-range validity check reads "
                  "them; both sides of the 32/64 boundary swept"),
                B("imms", 10, 6, {0, 1, 31, 32, 63},
                  "bit positions: only the width-range validity check reads "
                  "them; both sides of the 32/64 boundary swept"),
                B("rn", 5, 5, SrcRegs(), kSrcWhy), F("rd", 0, 5)}});

  // ---- Data processing, register ----
  c.push_back({"addsub-shift", 0x1F200000u, 0x0B000000u,
               {F("sf", 31, 1), F("op", 30, 1), F("s", 29, 1),
                F("shift", 22, 2),
                B("rm", 16, 5, SrcRegs(), kSrcWhy),
                B("imm6", 10, 6, {0, 1, 31, 32, 63},
                  "shift amount: only the W-width >=32 validity check reads "
                  "it; both sides swept"),
                B("rn", 5, 5, SrcRegs(), kSrcWhy), F("rd", 0, 5)}});
  c.push_back({"addsub-ext", 0x1FE00000u, 0x0B200000u,
               {F("sf", 31, 1), F("op", 30, 1), F("s", 29, 1),
                F("rm", 16, 5), F("option", 13, 3),
                B("imm3", 10, 3, {0, 1, 4, 5, 7},
                  "extend shift: predicates read ==0 (guard) and the >4 "
                  "validity bound; both boundaries swept"),
                F("rn", 5, 5), F("rd", 0, 5)}});
  c.push_back({"logical-shift", 0x1F000000u, 0x0A000000u,
               {F("sf", 31, 1), F("opc", 29, 2), F("shift", 22, 2),
                F("n", 21, 1),
                B("rm", 16, 5, SrcRegs(), kSrcWhy),
                B("imm6", 10, 6, {0, 1, 31, 32, 63},
                  "shift amount: only the W-width >=32 validity check reads "
                  "it; both sides swept"),
                B("rn", 5, 5, SrcRegs(), kSrcWhy), F("rd", 0, 5)}});
  c.push_back({"muladd", 0x7FE00000u, 0x1B000000u,
               {F("sf", 31, 1),
                B("rm", 16, 5, SrcRegs(), kSrcWhy), F("o0", 15, 1),
                B("ra", 10, 5, SrcRegs(), kSrcWhy),
                B("rn", 5, 5, SrcRegs(), kSrcWhy), F("rd", 0, 5)}});
  c.push_back({"mulhigh", 0x7F600000u, 0x1B400000u,
               {F("sf", 31, 1), F("u", 23, 1),
                B("rm", 16, 5, SrcRegs(), kSrcWhy), F("o0", 15, 1),
                B("raf", 10, 5, {0x1F, 0, 1},
                  "must be 11111 to decode; boundary representatives"),
                B("rn", 5, 5, SrcRegs(), kSrcWhy), F("rd", 0, 5)}});
  c.push_back({"condcmp", 0x3FE00410u, 0x3A400000u,
               {F("sf", 31, 1), F("op", 30, 1),
                B("rm-imm5", 16, 5, {0, 1, 18, 21, 22, 30, 31},
                  "compare operand (register or imm5): read-only, never "
                  "reaches a verifier predicate; reserved ids swept"),
                F("cond", 12, 4), F("immbit", 11, 1), F("rn", 5, 5),
                B("nzcv", 0, 4, {0, 5, 15},
                  "flag constant: never read by a verifier predicate")}});
  c.push_back({"extr", 0x7FA00000u, 0x13800000u,
               {F("sf", 31, 1), F("n", 22, 1),
                B("rm", 16, 5, SrcRegs(), kSrcWhy),
                B("imms", 10, 6, {0, 1, 31, 32, 63},
                  "rotate amount: only the W-width >=32 validity check "
                  "reads it; both sides swept"),
                B("rn", 5, 5, SrcRegs(), kSrcWhy), F("rd", 0, 5)}});
  c.push_back({"div", 0x7FE0F800u, 0x1AC00800u,
               {F("sf", 31, 1), B("rm", 16, 5, SrcRegs(), kSrcWhy),
                F("op", 10, 1), B("rn", 5, 5, SrcRegs(), kSrcWhy),
                F("rd", 0, 5)}});
  c.push_back({"dataproc1", 0x7FFF0000u, 0x5AC00000u,
               {F("sf", 31, 1),
                B("opcode", 10, 6, {0, 2, 3, 4, 5, 63},
                  "every allocated opcode (rbit/rev32/rev64/clz) plus "
                  "unallocated neighbors on both sides"),
                B("rn", 5, 5, SrcRegs(), kSrcWhy), F("rd", 0, 5)}});
  c.push_back({"condsel", 0x3FE00800u, 0x1A800000u,
               {F("sf", 31, 1), F("op", 30, 1),
                B("rm", 16, 5, SrcRegs(), kSrcWhy), F("cond", 12, 4),
                F("o2", 10, 1), B("rn", 5, 5, SrcRegs(), kSrcWhy),
                F("rd", 0, 5)}});

  // ---- Loads and stores ----
  c.push_back({"exclusive", 0x3F000000u, 0x08000000u,
               {F("size", 30, 2), F("o2", 23, 1), F("l", 22, 1),
                F("o1", 21, 1), F("rs", 16, 5), F("o0", 15, 1),
                B("rt2f", 10, 5, {0x1F, 0, 1},
                  "must be 11111 to decode; boundary representatives"),
                F("rn", 5, 5), F("rt", 0, 5)}});
  c.push_back({"pair", 0x3C000000u, 0x28000000u,
               {F("opc", 30, 2), F("mode", 23, 3), F("l", 22, 1),
                B("imm7", 15, 7, {0, 1, 63, 64, 127},
                  "scaled pair offset: -1024..+1008 bytes (high end "
                  "+1040 with the footprint), far inside the 48KiB "
                  "guard; sign boundary swept"),
                F("rt2", 10, 5), F("rn", 5, 5), F("rt", 0, 5)}});
  c.push_back({"ls-uimm", 0x3B000000u, 0x39000000u,
               {F("size", 30, 2), F("v", 26, 1), F("opc", 22, 2),
                B("imm12", 10, 12, {0, 1, 2047, 3070, 3071, 3072, 4095},
                  "scaled offset: the only predicate is the guard-range "
                  "bound; both sides of the 48KiB guard for the 16-byte "
                  "q access (3071*16+16 == 49152) swept"),
                F("rn", 5, 5), F("rt", 0, 5)}});
  c.push_back({"ls-regoff", 0x3B200000u, 0x38200000u,
               {F("size", 30, 2), F("v", 26, 1), F("opc", 22, 2),
                B("rm", 16, 5, IdxRegs(), kIdxWhy),
                F("option", 13, 3), F("s", 12, 1), F("low", 10, 2),
                B("rn", 5, 5, BaseRegs(), kBaseWhy), F("rt", 0, 5)}});
  c.push_back({"ls-imm9", 0x3B200000u, 0x38000000u,
               {F("size", 30, 2), F("v", 26, 1), F("opc", 22, 2),
                B("imm9", 12, 9, {0, 1, 255, 256, 511},
                  "unscaled offset: -256..+255 bytes, far inside the "
                  "48KiB guard; sign boundary swept (the guard's edge "
                  "is swept by ls-uimm)"),
                F("mode", 10, 2), F("rn", 5, 5), F("rt", 0, 5)}});

  // ---- Floating point and SIMD ----
  c.push_back({"fmadd", 0xFF000000u, 0x1F000000u,
               {F("type", 22, 2), F("o1", 21, 1),
                B("vm", 16, 5, {0, 31}, "vector register: no GPR effect"),
                F("o0", 15, 1),
                B("va", 10, 5, {0, 31}, "vector register: no GPR effect"),
                B("vn", 5, 5, {0, 31}, "vector register: no GPR effect"),
                B("vd", 0, 5, {0, 31}, "vector register: no GPR effect")}});
  c.push_back({"fpdata", 0x5F200000u, 0x1E200000u,
               {F("sf", 31, 1), F("b29", 29, 1), F("type", 22, 2),
                F("hi", 16, 5), F("mid", 10, 6),
                B("rn", 5, 5, {0, 18, 21, 22, 23, 30, 31},
                  "source operand (GPR or vreg): never written; reserved "
                  "representatives swept"),
                F("rd", 0, 5)}});
  c.push_back({"vector", 0x9F200400u, 0x0E200400u,
               {F("q", 30, 1), F("u", 29, 1), F("size", 22, 2),
                B("vm", 16, 5, {0, 31}, "vector register: no GPR effect"),
                F("opcode", 11, 5),
                B("vn", 5, 5, {0, 31}, "vector register: no GPR effect"),
                B("vd", 0, 5, {0, 31}, "vector register: no GPR effect")}});

  // Fields must only occupy bits the class mask leaves free, and value
  // lists must fit their width; the sweep's per-word self-check
  // (ClassifyWord(word) == class) additionally proves no earlier decode
  // arm captures an enumerated word.
  for (const auto& cls : c) {
    for (const auto& f : cls.fields) {
      const uint32_t fmask = ((f.width >= 32 ? ~uint32_t{0}
                                             : (1u << f.width) - 1))
                             << f.lo;
      assert((fmask & cls.mask) == 0);
      (void)fmask;
      for (uint32_t v : f.values) {
        assert(f.width >= 32 || v < (1u << f.width));
        (void)v;
      }
    }
  }
  return c;
}

}  // namespace

uint64_t EncClassInfo::EncodingCount() const {
  uint64_t n = 1;
  for (const auto& f : fields) n *= f.values.size();
  return n;
}

uint32_t EncClassInfo::WordAt(uint64_t index) const {
  uint32_t w = match;
  // Mixed-radix: the last field varies fastest.
  for (size_t k = fields.size(); k-- > 0;) {
    const auto& f = fields[k];
    const uint64_t radix = f.values.size();
    w |= f.values[index % radix] << f.lo;
    index /= radix;
  }
  return w;
}

const std::vector<EncClassInfo>& AllEncClasses() {
  static const std::vector<EncClassInfo> classes = BuildClasses();
  return classes;
}

const EncClassInfo* ClassifyWord(uint32_t w) {
  for (const auto& c : AllEncClasses()) {
    if ((w & c.mask) == c.match) return &c;
  }
  return nullptr;
}

const EncClassInfo* FindEncClass(std::string_view name) {
  for (const auto& c : AllEncClasses()) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

std::vector<uint32_t> MutationValues(const EncField& f) {
  if (f.sweep == FieldSweep::kBoundary || f.width < 5) return f.values;
  if (f.width == 5) {
    // Register field: zr plus every reserved register plus one plain.
    return {0, 1, 18, 21, 22, 23, 24, 30, 31};
  }
  const uint32_t max = (f.width >= 32 ? ~uint32_t{0} : (1u << f.width) - 1);
  return {0, 1, max};
}

}  // namespace lfi::arch
