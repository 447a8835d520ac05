// In-memory instruction representation for the ARM64 subset.
//
// A single `Inst` value is produced by the assembly parser and by the binary
// decoder, is manipulated by the LFI rewriter, and is consumed by the binary
// encoder, the assembly printer, the static verifier, and the emulator.
// Keeping one representation across all layers means the rewriter's safety
// transformations and the verifier's checks talk about exactly the same
// objects.
#ifndef LFI_ARCH_INST_H_
#define LFI_ARCH_INST_H_

#include <cstdint>
#include <optional>
#include <string>

#include "arch/reg.h"

namespace lfi::arch {

// Mnemonic of the instruction. Size/sign variants of loads and stores are
// folded into kLdr/kStr plus the `msize`/`msigned` fields; FP loads/stores
// are kLdrF/kStrF plus `fsize`.
enum class Mn : uint8_t {
  // ALU, immediate operand.
  kAddImm, kAddsImm, kSubImm, kSubsImm,
  // ALU, (optionally shifted) register operand.
  kAddReg, kAddsReg, kSubReg, kSubsReg,
  kAndReg, kAndsReg, kOrrReg, kEorReg, kBicReg,
  // Logical with a bitmask immediate (`imm` holds the decoded mask; the
  // N:immr:imms encoding is computed by the encoder).
  kAndImm, kAndsImm, kOrrImm, kEorImm,
  // ALU, extended register operand. `add xD, xN, wM, uxtw` - the LFI guard.
  kAddExt, kSubExt,
  // Move wide.
  kMovz, kMovn, kMovk,
  // Bitfield move (lsl/lsr/asr/uxtb/sxtw/... are aliases of these).
  kUbfm, kSbfm,
  // Multiply / divide.
  kMadd, kMsub, kSdiv, kUdiv, kUmulh, kSmulh,
  // Conditional select family.
  kCsel, kCsinc, kCsinv, kCsneg,
  // Conditional compare (register and immediate forms).
  kCcmp, kCcmpImm, kCcmn, kCcmnImm,
  // Extract (the ror alias).
  kExtr,
  // Bit manipulation.
  kClz, kRbit, kRev,
  // PC-relative address generation.
  kAdr, kAdrp,
  // Integer loads/stores (addressing mode in `mem`).
  kLdr, kStr,
  kLdp, kStp,
  // Exclusive / acquire-release (base-register addressing only).
  kLdxr, kStxr, kLdar, kStlr,
  // FP/SIMD loads/stores.
  kLdrF, kStrF,
  // Branches.
  kB, kBl, kBCond, kCbz, kCbnz, kTbz, kTbnz,
  kBr, kBlr, kRet,
  // Scalar floating point.
  kFadd, kFsub, kFmul, kFdiv, kFsqrt, kFmadd,
  kFcmp, kScvtf, kFcvtzs, kFmov,  // kFmov: fp<->fp or gpr<->fp move
  // Vector (arrangement in `fsize`: kV4S or kV2D).
  kVAdd, kVFadd, kVFmul,
  // System.
  kNop, kSvc, kBrk, kMrs, kMsr,
};

// Shift type for shifted-register ALU forms.
enum class Shift : uint8_t { kLsl, kLsr, kAsr, kRor };

// Extend type for extended-register ALU forms and register-offset
// addressing modes. Encodings match the ISA's 3-bit `option` field.
enum class Extend : uint8_t {
  kUxtb = 0, kUxth = 1, kUxtw = 2, kUxtx = 3,
  kSxtb = 4, kSxth = 5, kSxtw = 6, kSxtx = 7,
};

// Condition codes (encodings match the ISA).
enum class Cond : uint8_t {
  kEq = 0, kNe = 1, kHs = 2, kLo = 3, kMi = 4, kPl = 5, kVs = 6, kVc = 7,
  kHi = 8, kLs = 9, kGe = 10, kLt = 11, kGt = 12, kLe = 13, kAl = 14,
};

// Addressing mode kinds, mirroring Table 1 of the paper.
enum class AddrMode : uint8_t {
  kImm,       // [xN] / [xN, #i]
  kPreIndex,  // [xN, #i]!
  kPostIndex, // [xN], #i
  kRegLsl,    // [xN, xM, lsl #s]
  kRegUxtw,   // [xN, wM, uxtw {#s}]  - the zero-instruction guard form
  kRegSxtw,   // [xN, wM, sxtw {#s}]
};

// The memory operand of a load/store. `imm` comes first so the four
// one-byte fields pack behind it into 16 bytes.
struct MemOperand {
  int64_t imm = 0;                // byte offset for the kImm/index modes
  Reg base;                       // xN or sp
  AddrMode mode = AddrMode::kImm;
  Reg index = Reg::None();        // for the register-offset modes
  uint8_t shift = 0;              // left-shift amount for register offsets

  bool HasWriteback() const {
    return mode == AddrMode::kPreIndex || mode == AddrMode::kPostIndex;
  }
  bool IsRegOffset() const {
    return mode == AddrMode::kRegLsl || mode == AddrMode::kRegUxtw ||
           mode == AddrMode::kRegSxtw;
  }
  bool operator==(const MemOperand&) const = default;
};

// One decoded/parsed instruction. Only the fields relevant to `mn` are
// meaningful; the rest stay default-initialized.
struct Inst {
  Mn mn = Mn::kNop;
  Width width = Width::kX;  // sf bit: result/operand width

  // Integer operands.
  Reg rd = Reg::None();  // destination
  Reg rn = Reg::None();  // first source
  Reg rm = Reg::None();  // second source
  Reg ra = Reg::None();  // third source (madd/msub)

  // FP operands.
  VReg vd = VReg::None(), vn = VReg::None(), vm = VReg::None(),
       va = VReg::None();
  FpSize fsize = FpSize::kD;

  // Immediate. For branches this is the PC-relative byte offset; for adr
  // the byte offset; for adrp the (page-aligned) byte offset; for movz/k/n
  // the 16-bit payload with `shift_amount` holding the hw*16 shift.
  int64_t imm = 0;
  Shift shift = Shift::kLsl;
  Extend ext = Extend::kUxtx;
  uint8_t shift_amount = 0;
  Cond cond = Cond::kAl;

  // Bitfield (ubfm/sbfm) controls.
  uint8_t immr = 0, imms = 0;

  // Memory access.
  MemOperand mem;
  uint8_t msize = 8;      // access size in bytes (1, 2, 4, 8, 16)
  bool msigned = false;   // sign-extending load (ldrsb/ldrsh/ldrsw)
  Reg rt = Reg::None();   // transfer register
  Reg rt2 = Reg::None();  // second transfer register (ldp/stp)
  Reg rs = Reg::None();   // status register (stxr)
  VReg vt = VReg::None(); // FP transfer register

  // tbz/tbnz bit number (0..63).
  uint8_t bit = 0;

  // ccmp/ccmn: the NZCV value used when the condition fails.
  uint8_t nzcv = 0;

  bool operator==(const Inst&) const = default;
};

// The emulator's decoded blocks, the verifier and the assembly AST each
// hold one Inst per instruction.
static_assert(sizeof(MemOperand) <= 16 && sizeof(Inst) <= 56);

// --- Classification helpers used by the rewriter and verifier. ---

// True if the instruction reads or writes memory.
bool IsMemAccess(const Inst& i);
// True if the instruction is a load (reads memory into a register).
bool IsLoad(const Inst& i);
// True if the instruction is a store.
bool IsStore(const Inst& i);
// True for br/blr/ret.
bool IsIndirectBranch(const Inst& i);
// True for every control-transfer instruction (direct and indirect).
bool IsBranch(const Inst& i);
// True for direct branches carrying a PC-relative offset.
bool IsDirectBranch(const Inst& i);
// True for conditional direct branches (b.cond/cbz/cbnz/tbz/tbnz).
bool IsCondBranch(const Inst& i);

// The general-purpose register written by this instruction with its full
// 64-bit architectural effect, if any. A write to a W view is still a write
// to the underlying X register (top 32 bits zeroed). Does not report
// memory-operand writeback or x30 side effects; see below.
std::optional<Reg> DestGpr(const Inst& i);
// True if the instruction writes `r` through any channel: destination,
// load target, addressing-mode writeback, or the implicit x30 write of
// bl/blr.
bool WritesGpr(const Inst& i, Reg r);
// True if the write to `r` (which must satisfy WritesGpr) produces a value
// whose top 32 bits are zero, e.g. any W-width destination.
bool WriteZeroExtends(const Inst& i, Reg r);

// True if this is exactly the LFI guard `add xD, x21, wM, uxtw` (shift 0)
// with destination `dest`.
bool IsGuardFor(const Inst& i, Reg dest);
// True if this is the stack-pointer guard `add sp, x21, x22`.
bool IsSpGuard(const Inst& i);

// Human-readable mnemonic string ("add", "ldr", "b.eq", ...), used by the
// assembly printer and diagnostics.
std::string MnName(const Inst& i);

}  // namespace lfi::arch

#endif  // LFI_ARCH_INST_H_
