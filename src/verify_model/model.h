// A symbolic effect model of the ARMv8.0 allowlist (the tentpole of the
// exhaustive verifier validation, after Sotoudeh & Yedidia's "Automated
// Formal Verification of a Software Fault Isolation System").
//
// For every encoding class in arch::AllEncClasses() the model extracts,
// straight from the raw instruction word, the facts that the Section 5.2
// invariants depend on: decodability, system-ness, memory addressing
// shape, reserved-register write channels and whether each write
// zero-extends, guard forms, and branchiness. From those facts it
// predicts the verifier's exact verdict (accept, or the precise
// FailKind) and, for accepted encodings, the concrete effect on the
// reserved state (x18, x21-x24, x30, sp) in a given machine state.
//
// Deliberately non-circular: nothing here calls arch::Decode or the
// verifier. Field extraction is reimplemented bit-by-bit from the
// architecture manual's encodings, so a shared misreading of the ISA
// cannot hide — the enumerator (sweep.h) compares this model against the
// real verifier for every swept encoding, and crossval.h compares its
// effect predictions against the real emulator.
#ifndef LFI_VERIFY_MODEL_MODEL_H_
#define LFI_VERIFY_MODEL_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "arch/fields.h"
#include "verifier/verifier.h"

namespace lfi::verify_model {

// Memory addressing shape of an access, mirroring the encodings (not
// arch::AddrMode, which is a decoder product).
enum class MMode : uint8_t { kNone, kImm, kPost, kPre, kUxtw, kLsl, kSxtw };

// Branch shape, for next-pc prediction.
enum class MBranch : uint8_t {
  kNone, kB, kBl, kBCond, kCbz, kCbnz, kTbz, kTbnz, kBr, kBlr, kRet,
};

// One write channel to an integer register.
struct MWrite {
  int reg = -1;      // 0..30; 32 = sp (never 31)
  bool zext = false; // architecturally zeroes bits 63:32
};

// Everything the verifier's predicates (and the emulator cross-check)
// can observe about one instruction word.
struct MFacts {
  uint32_t word = 0;
  const arch::EncClassInfo* cls = nullptr;  // null: outside every class

  bool decodable = false;
  bool system = false;  // svc / mrs / msr
  bool brk = false;
  bool llsc = false;    // ldxr / stxr

  // Memory access.
  bool mem = false;
  bool load = false, store = false;
  bool fp_transfer = false;  // transfer register is a vreg
  MMode mode = MMode::kNone;
  int base = -1;        // 0..30 gpr; 31 = sp
  int index = -1;       // register-offset index; -1 = zr
  uint8_t shift = 0;    // register-offset shift amount
  int64_t imm = 0;      // scaled byte offset (imm modes)
  uint32_t msize = 0;   // bytes per transfer register
  uint32_t footprint = 0;  // total bytes (2*msize for pairs)
  bool msigned = false;
  bool plain_int_ldr = false;  // integer ldr/ldur family (table-load rule)
  bool wide_w = false;  // transfer width is W
  bool align_check = false;    // ldxr/ldar fault on unaligned addresses
  bool stxr = false;           // store-exclusive (status write, monitor)
  int rt = -1, rt2 = -1, rs = -1;  // -1 = zr/none

  // Branches.
  MBranch br = MBranch::kNone;
  int ibr_rn = -1;      // br/blr/ret operand; -1 = zr
  int64_t br_imm = 0;   // direct-branch displacement (bytes)
  uint8_t cond = 0;     // b.cond condition
  int test_rt = -1;     // cbz/tbz tested register; -1 = zr
  bool test_w = false;  // cbz tests the W view
  uint8_t tbit = 0;     // tbz bit number

  // ALU destination (rd-channel), including computable exact values.
  int dest = -1;        // 0..30; 32 = sp; -1 = none/zr
  bool dest_zext = false;
  bool mov_exact = false;   // movz/movn/movk: value predictable
  uint8_t mov_op = 0;       // 0 movn, 2 movz, 3 movk
  uint64_t mov_imm = 0;     // imm16 << hw*16
  uint8_t mov_hw = 0;
  bool sf = false;          // 64-bit form

  // Guard shapes.
  int guard_for = -1;   // add xD, x21, wM, uxtw #0  ->  D
  int guard_rm = -1;
  bool sp_guard = false;        // add sp, x21, x22 (uxtx #0)
  bool sp_small_adjust = false; // add/sub sp, sp, #imm<1024 (64-bit)
  int64_t adjust = 0;           // signed sp delta

  // Write channels, stored in arch::WriteZeroExtends' priority order
  // (wb / link / rt / rt2 / rs / dest), so the first channel hitting a
  // register decides its zero-extension.
  std::vector<MWrite> writes;

  bool WritesReg(int reg) const {
    for (const auto& w : writes) {
      if (w.reg == reg) return true;
    }
    return false;
  }
  // Replicates arch::WriteZeroExtends' channel priority: writeback and
  // link writes are 64-bit regardless of any other channel to the same
  // register, otherwise the transfer/dest channel decides.
  bool WriteZeroExtends(int reg) const;
  bool IsBranchInst() const { return br != MBranch::kNone; }
};

// Extracts facts for a word already attributed to `cls` (the sweep's hot
// path; the caller asserts arch::ClassifyWord(word) == cls separately).
MFacts ExtractFacts(const arch::EncClassInfo* cls, uint32_t word);

// Convenience: classify + extract. Words outside every class come back
// with decodable == false and cls == nullptr.
MFacts ExtractFacts(uint32_t word);

// The model's predicted verdict for a whole text (sequence of words).
struct Verdict {
  bool ok = false;
  verifier::FailKind kind = verifier::FailKind::kNone;
  size_t fail_index = 0;  // word index, not byte offset
};

// Predicts Verify()'s verdict: decode-all precedence first (the earliest
// undecodable word wins over any later property failure), then the
// per-instruction checks in the verifier's order, with the x30 lookahead
// and sp forward scan evaluated over the same sequence.
Verdict PredictVerdict(std::span<const MFacts> facts,
                       const verifier::VerifyOptions& opts);
Verdict PredictVerdict(std::span<const uint32_t> words,
                       const verifier::VerifyOptions& opts);

// Per-instruction check against already-extracted facts (index k), with
// the x30 lookahead and sp forward scan over `facts`. On a one-element
// span it is the model twin of verifier::CheckInst(inst, opts).
verifier::FailKind CheckFacts(std::span<const MFacts> facts, size_t k,
                              const verifier::VerifyOptions& opts);

// The discharge suffix for a context-dependent instruction: the words
// that must follow `f` for it to be accepted (blr x30 after a call-table
// load, the x30 guard after any other x30 load, an sp-based store after
// a small sp adjust). Empty when the instruction needs no context. The
// suffix instructions are standalone-legal, so a rejection of
// word+suffix still anchors at index 0.
std::vector<uint32_t> DischargeSuffix(const MFacts& f);

// ---- Effect prediction (emulator cross-validation) ----

// The reserved registers, in the fixed order used by RegEffects.
inline constexpr int kReservedList[7] = {18, 21, 22, 23, 24, 30, 32};

enum class EffKind : uint8_t {
  kPreserved,  // bit-identical to the pre-state
  kExact,      // equals `value`
  kZext32,     // bits 63:32 zero; low 32 bits not predicted
};

struct RegEffect {
  EffKind kind = EffKind::kPreserved;
  uint64_t value = 0;
};

// Pre-state view + memory layout the predictor evaluates against.
struct PreState {
  uint64_t x[31] = {};
  uint64_t sp = 0;
  uint64_t pc = 0;
  bool n = false, z = false, c = false, v = false;
};

struct MemRange {
  uint64_t lo = 0, hi = 0;  // [lo, hi)
  bool read = false, write = false;
};

struct MemLayout {
  std::vector<MemRange> ranges;
  // Deterministic contents of every readable byte; both the predictor
  // and the crossval runner derive memory values from this.
  static uint8_t PatternByte(uint64_t addr);
  uint64_t PatternValue(uint64_t addr, uint32_t size) const;
  bool Covered(uint64_t addr, uint32_t len, bool for_write) const;
};

struct EffectPrediction {
  RegEffect reserved[7];  // indexed like kReservedList
  uint64_t next_pc = 0;   // pc after retiring the instruction
  bool mem_fault = false; // the access itself faults (unmapped/unaligned)
};

// Predicts the architectural effect of one ACCEPTED instruction on the
// reserved state, given the prepared pre-state and layout. On a
// predicted fault no register changes (the emulator commits loads,
// writeback and status strictly after a successful access).
EffectPrediction PredictEffect(const MFacts& f, const PreState& pre,
                               const MemLayout& layout);

}  // namespace lfi::verify_model

#endif  // LFI_VERIFY_MODEL_MODEL_H_
