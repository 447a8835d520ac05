#include "verify_model/model.h"

#include <bit>
#include <cassert>
#include <string>

#include "runtime/layout.h"

namespace lfi::verify_model {

namespace {

using verifier::FailKind;

uint32_t Bits(uint32_t w, unsigned hi, unsigned lo) {
  return (w >> lo) & ((1u << (hi - lo + 1)) - 1);
}

int64_t Sign(uint32_t v, unsigned bits) {
  const int64_t shifted = static_cast<int64_t>(uint64_t{v} << (64 - bits));
  return shifted >> (64 - bits);
}

// Zr-convention operand: encoding 31 is the zero register (no write).
int Zr(uint32_t enc) { return enc == 31 ? -1 : static_cast<int>(enc); }
// Sp-convention destination: encoding 31 is the stack pointer.
int SpDest(uint32_t enc) { return enc == 31 ? 32 : static_cast<int>(enc); }

bool IsAddrReserved(int r) {
  return r == 18 || r == 21 || r == 23 || r == 24;
}
bool IsReservedGprNum(int r) {
  return r == 18 || r == 21 || r == 22 || r == 23 || r == 24;
}

// Independent reimplementation of the DecodeBitmaskImm validity rules
// (ARM "DecodeBitMasks" plus the repo's canonical-immr restriction).
bool BitmaskValid(uint32_t n, uint32_t immr, uint32_t imms, bool is64) {
  const unsigned composite = (n << 6) | ((~imms) & 0x3Fu);
  if (composite == 0) return false;
  const unsigned len = 31 - static_cast<unsigned>(std::countl_zero(composite));
  if (len < 1) return false;
  const unsigned esize = 1u << len;
  if (esize > (is64 ? 64u : 32u)) return false;
  const unsigned levels = esize - 1;
  if ((imms & levels) == levels) return false;
  if ((immr & ~levels & 0x3Fu) != 0) return false;
  return true;
}

// Integer load/store size/opc product (ldr/str/ldur/stur family).
// Returns false for unallocated combinations (prfm, bad sign-extends).
bool IntLsKind(MFacts* f, uint32_t size, uint32_t opc) {
  f->msize = 1u << size;
  switch (opc) {
    case 0b00:
      f->store = true;
      f->wide_w = size != 3;
      return true;
    case 0b01:
      f->load = true;
      f->plain_int_ldr = true;
      f->wide_w = size != 3;
      return true;
    case 0b10:  // sign-extend to 64 bits (prfm when size == 3)
      if (size == 3) return false;
      f->load = true;
      f->plain_int_ldr = true;
      f->msigned = true;
      f->wide_w = false;
      return true;
    case 0b11:  // sign-extend to 32 bits
      if (size >= 2) return false;
      f->load = true;
      f->plain_int_ldr = true;
      f->msigned = true;
      f->wide_w = true;
      return true;
  }
  return false;
}

bool FpLsKind(MFacts* f, uint32_t size, uint32_t opc) {
  if (size == 0b10 && opc <= 0b01) f->msize = 4;
  else if (size == 0b11 && opc <= 0b01) f->msize = 8;
  else if (size == 0b00 && opc >= 0b10) f->msize = 16;
  else return false;
  f->fp_transfer = true;
  if (opc & 1) f->load = true;
  else f->store = true;
  return true;
}

// Write-channel assembly, in arch::WriteZeroExtends' priority order
// (writeback, link, load transfer, stxr status, ALU dest): the first
// channel hitting a register decides its zero-extension.
void FinishWrites(MFacts* f) {
  if (f->mem && (f->mode == MMode::kPre || f->mode == MMode::kPost)) {
    f->writes.push_back({f->base == 31 ? 32 : f->base, false});
  }
  if (f->br == MBranch::kBl || f->br == MBranch::kBlr) {
    f->writes.push_back({30, false});
  }
  if (f->load && !f->fp_transfer) {
    const bool z =
        f->wide_w || (f->plain_int_ldr && f->msize < 8 && !f->msigned);
    if (f->rt >= 0) f->writes.push_back({f->rt, z});
    if (f->rt2 >= 0) f->writes.push_back({f->rt2, z});
  }
  if (f->rs >= 0) f->writes.push_back({f->rs, true});
  if (f->dest >= 0) f->writes.push_back({f->dest, f->dest_zext});
}

enum class Ck : uint8_t {
  kNop, kSvc, kBrk, kMrs, kMsr, kBrReg, kB, kBCond, kCbz, kTbz, kAdr,
  kLogicalImm, kAddsubImm, kMovwide, kBitfield, kAddsubShift, kAddsubExt,
  kLogicalShift, kMuladd, kMulhigh, kCondcmp, kExtr, kDiv, kDataproc1,
  kCondsel, kExclusive, kPair, kLsUimm, kLsRegoff, kLsImm9, kFmadd,
  kFpdata, kVector,
};

Ck KindOf(std::string_view name) {
  struct Entry { std::string_view name; Ck ck; };
  static constexpr Entry kTable[] = {
      {"nop", Ck::kNop}, {"svc", Ck::kSvc}, {"brk", Ck::kBrk},
      {"mrs", Ck::kMrs}, {"msr", Ck::kMsr}, {"br-reg", Ck::kBrReg},
      {"b", Ck::kB}, {"b-cond", Ck::kBCond}, {"cbz", Ck::kCbz},
      {"tbz", Ck::kTbz}, {"adr", Ck::kAdr},
      {"logical-imm", Ck::kLogicalImm}, {"addsub-imm", Ck::kAddsubImm},
      {"movwide", Ck::kMovwide}, {"bitfield", Ck::kBitfield},
      {"addsub-shift", Ck::kAddsubShift}, {"addsub-ext", Ck::kAddsubExt},
      {"logical-shift", Ck::kLogicalShift}, {"muladd", Ck::kMuladd},
      {"mulhigh", Ck::kMulhigh}, {"condcmp", Ck::kCondcmp},
      {"extr", Ck::kExtr}, {"div", Ck::kDiv},
      {"dataproc1", Ck::kDataproc1}, {"condsel", Ck::kCondsel},
      {"exclusive", Ck::kExclusive}, {"pair", Ck::kPair},
      {"ls-uimm", Ck::kLsUimm}, {"ls-regoff", Ck::kLsRegoff},
      {"ls-imm9", Ck::kLsImm9}, {"fmadd", Ck::kFmadd},
      {"fpdata", Ck::kFpdata}, {"vector", Ck::kVector},
  };
  for (const auto& e : kTable) {
    if (e.name == name) return e.ck;
  }
  assert(false && "unknown encoding class");
  return Ck::kNop;
}

// Per-class fact extraction. Each branch reimplements the encoding
// straight from the field layout; any disagreement with arch::Decode is
// exactly what the sweep exists to surface.
void Extract(Ck ck, uint32_t w, MFacts* f) {
  f->sf = Bits(w, 31, 31) != 0;
  switch (ck) {
    case Ck::kNop:
      f->decodable = true;
      return;
    case Ck::kSvc:
      f->decodable = true;
      f->system = true;
      return;
    case Ck::kBrk:
      f->decodable = true;
      f->brk = true;
      return;
    case Ck::kMrs:
    case Ck::kMsr:
      // The repo models mrs/msr as pure system markers (no GPR channel),
      // and the verifier rejects them before any write predicate runs.
      f->decodable = true;
      f->system = true;
      return;

    case Ck::kBrReg: {
      const uint32_t op2 = Bits(w, 22, 21);
      if (Bits(w, 20, 16) != 0x1F || Bits(w, 15, 10) != 0 ||
          Bits(w, 4, 0) != 0 || op2 > 2) {
        return;  // outside the three exact br/blr/ret patterns
      }
      f->decodable = true;
      f->br = op2 == 0 ? MBranch::kBr : op2 == 1 ? MBranch::kBlr
                                                 : MBranch::kRet;
      f->ibr_rn = Zr(Bits(w, 9, 5));
      break;
    }
    case Ck::kB:
      f->decodable = true;
      f->br = Bits(w, 31, 31) ? MBranch::kBl : MBranch::kB;
      f->br_imm = Sign(Bits(w, 25, 0), 26) * 4;
      break;
    case Ck::kBCond: {
      const uint32_t cond = Bits(w, 3, 0);
      if (cond >= 14) return;  // b.al / b.nv unsupported
      f->decodable = true;
      f->br = MBranch::kBCond;
      f->cond = static_cast<uint8_t>(cond);
      f->br_imm = Sign(Bits(w, 23, 5), 19) * 4;
      break;
    }
    case Ck::kCbz:
      f->decodable = true;
      f->br = Bits(w, 24, 24) ? MBranch::kCbnz : MBranch::kCbz;
      f->test_rt = Zr(Bits(w, 4, 0));
      f->test_w = !f->sf;
      f->br_imm = Sign(Bits(w, 23, 5), 19) * 4;
      break;
    case Ck::kTbz:
      f->decodable = true;
      f->br = Bits(w, 24, 24) ? MBranch::kTbnz : MBranch::kTbz;
      f->tbit = static_cast<uint8_t>((Bits(w, 31, 31) << 5) |
                                     Bits(w, 23, 19));
      f->test_rt = Zr(Bits(w, 4, 0));
      f->br_imm = Sign(Bits(w, 18, 5), 14) * 4;
      break;

    case Ck::kAdr:
      f->decodable = true;
      f->dest = Zr(Bits(w, 4, 0));
      f->dest_zext = false;  // 64-bit address material in both forms
      break;

    case Ck::kLogicalImm: {
      const uint32_t opc = Bits(w, 30, 29);
      const uint32_t n = Bits(w, 22, 22);
      if (!f->sf && n) return;
      if (!BitmaskValid(n, Bits(w, 21, 16), Bits(w, 15, 10), f->sf)) return;
      f->decodable = true;
      const uint32_t rd = Bits(w, 4, 0);
      f->dest = opc == 3 ? Zr(rd) : SpDest(rd);
      f->dest_zext = !f->sf;
      break;
    }
    case Ck::kAddsubImm: {
      const uint32_t sh = Bits(w, 23, 22);
      if (sh >= 2) return;  // sh=1x unallocated
      f->decodable = true;
      const bool sub = Bits(w, 30, 30) != 0;
      const bool s = Bits(w, 29, 29) != 0;
      const int64_t imm = int64_t{Bits(w, 21, 10)} << (sh ? 12 : 0);
      const uint32_t rd = Bits(w, 4, 0);
      const uint32_t rn = Bits(w, 9, 5);
      f->dest = s ? Zr(rd) : SpDest(rd);
      f->dest_zext = !f->sf;
      f->sp_small_adjust =
          !s && rn == 31 && f->dest == 32 && f->sf && imm < 1024;
      f->adjust = sub ? -imm : imm;
      break;
    }
    case Ck::kMovwide: {
      const uint32_t opc = Bits(w, 30, 29);
      const uint32_t hw = Bits(w, 22, 21);
      if (opc == 1) return;
      if (!f->sf && hw > 1) return;
      f->decodable = true;
      f->dest = Zr(Bits(w, 4, 0));
      f->dest_zext = !f->sf;
      f->mov_exact = true;
      f->mov_op = static_cast<uint8_t>(opc);
      f->mov_hw = static_cast<uint8_t>(hw);
      f->mov_imm = uint64_t{Bits(w, 20, 5)} << (hw * 16);
      break;
    }
    case Ck::kBitfield: {
      const uint32_t opc = Bits(w, 30, 29);
      if (opc != 0 && opc != 2) return;
      if (Bits(w, 22, 22) != Bits(w, 31, 31)) return;
      const uint32_t max = f->sf ? 64 : 32;
      if (Bits(w, 21, 16) >= max || Bits(w, 15, 10) >= max) return;
      f->decodable = true;
      f->dest = Zr(Bits(w, 4, 0));
      f->dest_zext = !f->sf;
      break;
    }

    case Ck::kAddsubShift: {
      if (Bits(w, 23, 22) == 3) return;  // ror
      if (!f->sf && Bits(w, 15, 10) >= 32) return;
      f->decodable = true;
      f->dest = Zr(Bits(w, 4, 0));
      f->dest_zext = !f->sf;
      break;
    }
    case Ck::kAddsubExt: {
      if (Bits(w, 29, 29)) return;  // adds/subs ext unsupported
      const uint32_t imm3 = Bits(w, 12, 10);
      if (imm3 > 4) return;
      f->decodable = true;
      const bool sub = Bits(w, 30, 30) != 0;
      const uint32_t option = Bits(w, 15, 13);
      const uint32_t rm = Bits(w, 20, 16);
      const uint32_t rn = Bits(w, 9, 5);
      const uint32_t rd = Bits(w, 4, 0);
      f->dest = SpDest(rd);
      f->dest_zext = !f->sf;
      if (!sub && f->sf && imm3 == 0 && rn == 21) {
        // add xD, x21, wM, uxtw #0 (the address guard) and
        // add sp, x21, x22, uxtx #0 (the sp guard).
        if (option == 2 && rm != 31 && f->dest != 32) {
          f->guard_for = f->dest;
          f->guard_rm = static_cast<int>(rm);
        }
        if (option == 3 && rm == 22 && f->dest == 32) f->sp_guard = true;
      }
      break;
    }
    case Ck::kLogicalShift: {
      const uint32_t opc = Bits(w, 30, 29);
      const uint32_t n = Bits(w, 21, 21);
      if (n == 1 && opc != 0) return;  // orn/eon/bics unsupported
      if (!f->sf && Bits(w, 15, 10) >= 32) return;
      f->decodable = true;
      f->dest = Zr(Bits(w, 4, 0));
      f->dest_zext = !f->sf;
      break;
    }
    case Ck::kMuladd:
      f->decodable = true;
      f->dest = Zr(Bits(w, 4, 0));
      f->dest_zext = !f->sf;
      break;
    case Ck::kMulhigh:
      if (!f->sf || Bits(w, 14, 10) != 0x1F || Bits(w, 15, 15) != 0) return;
      f->decodable = true;
      f->dest = Zr(Bits(w, 4, 0));
      f->dest_zext = false;
      break;
    case Ck::kCondcmp:
      f->decodable = true;  // flags only; no register writes
      break;
    case Ck::kExtr:
      if (Bits(w, 22, 22) != Bits(w, 31, 31)) return;
      if (!f->sf && Bits(w, 15, 10) >= 32) return;
      f->decodable = true;
      f->dest = Zr(Bits(w, 4, 0));
      f->dest_zext = !f->sf;
      break;
    case Ck::kDiv:
      f->decodable = true;
      f->dest = Zr(Bits(w, 4, 0));
      f->dest_zext = !f->sf;
      break;
    case Ck::kDataproc1: {
      const uint32_t op = Bits(w, 15, 10);
      const bool ok = op == 0 || op == 4 || (op == 2 && !f->sf) ||
                      (op == 3 && f->sf);
      if (!ok) return;
      f->decodable = true;
      f->dest = Zr(Bits(w, 4, 0));
      f->dest_zext = !f->sf;
      break;
    }
    case Ck::kCondsel:
      f->decodable = true;
      f->dest = Zr(Bits(w, 4, 0));
      f->dest_zext = !f->sf;
      break;

    case Ck::kExclusive: {
      const uint32_t o2 = Bits(w, 23, 23), l = Bits(w, 22, 22);
      const uint32_t o1 = Bits(w, 21, 21), o0 = Bits(w, 15, 15);
      if (o1 != 0 || Bits(w, 14, 10) != 0x1F) return;
      enum { kLdxr, kStxr, kLdar, kStlr } v;
      if (o2 == 0 && l == 1 && o0 == 0) v = kLdxr;
      else if (o2 == 0 && l == 0 && o0 == 0) v = kStxr;
      else if (o2 == 1 && l == 1 && o0 == 1) v = kLdar;
      else if (o2 == 1 && l == 0 && o0 == 1) v = kStlr;
      else return;
      const uint32_t rs = Bits(w, 20, 16);
      if (v != kStxr && rs != 0x1F) return;
      f->decodable = true;
      f->mem = true;
      f->mode = MMode::kImm;
      f->imm = 0;
      const uint32_t size = Bits(w, 31, 30);
      f->msize = 1u << size;
      f->footprint = f->msize;
      f->wide_w = size != 3;
      f->base = static_cast<int>(Bits(w, 9, 5));
      if (v == kLdxr || v == kLdar) {
        f->load = true;
        f->rt = Zr(Bits(w, 4, 0));
        f->align_check = true;
      } else {
        f->store = true;
      }
      if (v == kLdxr || v == kStxr) f->llsc = true;
      if (v == kStxr) {
        f->stxr = true;
        f->rs = Zr(rs);
      }
      break;
    }
    case Ck::kPair: {
      const uint32_t opc = Bits(w, 31, 30);
      if (opc != 0 && opc != 2) return;
      const uint32_t m3 = Bits(w, 25, 23);
      if (m3 < 1 || m3 > 3) return;
      f->decodable = true;
      f->mem = true;
      f->wide_w = opc == 0;
      f->msize = f->wide_w ? 4 : 8;
      f->footprint = 2 * f->msize;
      f->imm = Sign(Bits(w, 21, 15), 7) * int64_t{f->msize};
      f->mode = m3 == 1 ? MMode::kPost : m3 == 2 ? MMode::kImm : MMode::kPre;
      f->base = static_cast<int>(Bits(w, 9, 5));
      if (Bits(w, 22, 22)) {
        f->load = true;
        f->rt = Zr(Bits(w, 4, 0));
        f->rt2 = Zr(Bits(w, 14, 10));
      } else {
        f->store = true;
      }
      break;
    }
    case Ck::kLsUimm: {
      const bool v = Bits(w, 26, 26) != 0;
      const uint32_t size = Bits(w, 31, 30), opc = Bits(w, 23, 22);
      if (!(v ? FpLsKind(f, size, opc) : IntLsKind(f, size, opc))) return;
      f->decodable = true;
      f->mem = true;
      f->footprint = f->msize;
      f->mode = MMode::kImm;
      f->imm = int64_t{Bits(w, 21, 10)} * f->msize;
      f->base = static_cast<int>(Bits(w, 9, 5));
      if (!v) f->rt = Zr(Bits(w, 4, 0));
      break;
    }
    case Ck::kLsRegoff: {
      const bool v = Bits(w, 26, 26) != 0;
      const uint32_t size = Bits(w, 31, 30), opc = Bits(w, 23, 22);
      if (!(v ? FpLsKind(f, size, opc) : IntLsKind(f, size, opc))) return;
      if (Bits(w, 11, 10) != 0b10) return;
      const uint32_t option = Bits(w, 15, 13);
      MMode mode;
      if (option == 0b010) mode = MMode::kUxtw;
      else if (option == 0b011 || option == 0b111) mode = MMode::kLsl;
      else if (option == 0b110) mode = MMode::kSxtw;
      else return;
      f->decodable = true;
      f->mem = true;
      f->footprint = f->msize;
      f->mode = mode;
      f->index = Zr(Bits(w, 20, 16));
      f->shift = Bits(w, 12, 12)
                     ? static_cast<uint8_t>(std::countr_zero(f->msize))
                     : 0;
      f->base = static_cast<int>(Bits(w, 9, 5));
      if (!v) f->rt = Zr(Bits(w, 4, 0));
      break;
    }
    case Ck::kLsImm9: {
      const bool v = Bits(w, 26, 26) != 0;
      const uint32_t size = Bits(w, 31, 30), opc = Bits(w, 23, 22);
      if (!(v ? FpLsKind(f, size, opc) : IntLsKind(f, size, opc))) return;
      const uint32_t m2 = Bits(w, 11, 10);
      if (m2 == 0b10) return;  // unprivileged forms unsupported
      f->decodable = true;
      f->mem = true;
      f->footprint = f->msize;
      f->mode = m2 == 0 ? MMode::kImm : m2 == 1 ? MMode::kPost : MMode::kPre;
      f->imm = Sign(Bits(w, 20, 12), 9);
      f->base = static_cast<int>(Bits(w, 9, 5));
      if (!v) f->rt = Zr(Bits(w, 4, 0));
      break;
    }

    case Ck::kFmadd:
      if (Bits(w, 21, 21) != 0 || Bits(w, 15, 15) != 0) return;
      if (Bits(w, 23, 22) > 1) return;
      f->decodable = true;  // pure FP dataflow
      break;
    case Ck::kFpdata: {
      if (Bits(w, 23, 22) > 1) return;
      const uint32_t b29 = Bits(w, 29, 29);
      const uint32_t hi = Bits(w, 20, 16), mid = Bits(w, 15, 10);
      const uint32_t rd = Bits(w, 4, 0);
      if (mid == 0 && b29 == 0) {
        // Int <-> FP conversions.
        const uint32_t rmode = hi >> 3, opcode = hi & 7;
        if (rmode == 0 && opcode == 2) {          // scvtf (reads rn)
          f->decodable = true;
        } else if (rmode == 3 && opcode == 0) {   // fcvtzs (writes rd)
          f->decodable = true;
          f->dest = Zr(rd);
          f->dest_zext = !f->sf;
        } else if (rmode == 0 && opcode == 6) {   // fmov gpr <- fp
          f->decodable = true;
          f->dest = Zr(rd);
          f->dest_zext = !f->sf;
        } else if (rmode == 0 && opcode == 7) {   // fmov fp <- gpr
          f->decodable = true;
        }
        return;
      }
      if (f->sf || b29) return;  // fails the 00011110 pattern test
      if (mid == 0b001000 && rd == 0) {           // fcmp
        f->decodable = true;
      } else if ((mid & 0x1F) == 0x10) {          // 1-source
        const uint32_t op6 = (hi << 1) | (mid >> 5);
        if (op6 == 0 || op6 == 3) f->decodable = true;
      } else if ((mid & 3) == 2) {                // 2-source
        if ((mid >> 2) <= 3) f->decodable = true;
      }
      return;
    }
    case Ck::kVector: {
      if (Bits(w, 30, 30) != 1) return;
      const uint32_t u = Bits(w, 29, 29), size = Bits(w, 23, 22);
      const uint32_t op = Bits(w, 15, 11);
      const bool ok = (u == 0 && op == 0b10000 && size >= 2) ||
                      (u == 0 && op == 0b11010 && size <= 1) ||
                      (u == 1 && op == 0b11011 && size <= 1);
      if (ok) f->decodable = true;
      return;
    }
  }
}

bool IsBlrX30(const MFacts& f) {
  return f.br == MBranch::kBlr && f.ibr_rn == 30;
}

bool IsTableLoad(const MFacts& f) {
  return f.plain_int_ldr && !f.msigned && f.msize == 8 && f.rt == 30 &&
         f.base == 21 && f.mode == MMode::kImm && f.imm >= 0 &&
         static_cast<uint64_t>(f.imm) + 8 <= runtime::kCallTableBytes;
}

// ARM condition evaluation from NZCV.
bool CondHolds(uint8_t cond, const PreState& s) {
  bool r;
  switch (cond >> 1) {
    case 0: r = s.z; break;                    // eq/ne
    case 1: r = s.c; break;                    // hs/lo
    case 2: r = s.n; break;                    // mi/pl
    case 3: r = s.v; break;                    // vs/vc
    case 4: r = s.c && !s.z; break;            // hi/ls
    case 5: r = s.n == s.v; break;             // ge/lt
    case 6: r = !s.z && s.n == s.v; break;     // gt/le
    default: return true;                      // al
  }
  return (cond & 1) ? !r : r;
}

}  // namespace

bool MFacts::WriteZeroExtends(int reg) const {
  for (const auto& w : writes) {
    if (w.reg == reg) return w.zext;  // channels stored in priority order
  }
  return false;
}

MFacts ExtractFacts(const arch::EncClassInfo* cls, uint32_t word) {
  MFacts f;
  f.word = word;
  f.cls = cls;
  if (cls != nullptr) {
    Extract(KindOf(cls->name), word, &f);
    if (f.decodable) FinishWrites(&f);
  }
  return f;
}

MFacts ExtractFacts(uint32_t word) {
  return ExtractFacts(arch::ClassifyWord(word), word);
}

verifier::FailKind CheckFacts(std::span<const MFacts> facts, size_t k,
                              const verifier::VerifyOptions& opts) {
  const MFacts& f = facts[k];

  if (f.system) return FailKind::kSystemInstruction;
  if (!opts.allow_llsc && f.llsc) return FailKind::kLlscDisallowed;

  if (f.mem) {
    const bool pure_load = f.load && !f.store;
    const bool wb = f.mode == MMode::kPre || f.mode == MMode::kPost;
    if (opts.check_loads || !pure_load) {
      if (f.mode == MMode::kUxtw || f.mode == MMode::kLsl ||
          f.mode == MMode::kSxtw) {
        if (f.mode != MMode::kUxtw || f.base != 21 || f.shift != 0) {
          return FailKind::kBadAddressingMode;
        }
      } else {
        if (!IsAddrReserved(f.base) && f.base != 31) {
          return FailKind::kBadAddressingMode;
        }
        if (wb && f.base != 31) return FailKind::kReservedWriteback;
        const int64_t lo = f.imm;
        const int64_t hi = f.imm + static_cast<int64_t>(f.footprint);
        if (lo < -static_cast<int64_t>(runtime::kGuardSize) ||
            hi > static_cast<int64_t>(runtime::kGuardSize)) {
          return FailKind::kGuardRangeOverflow;
        }
      }
    } else if (wb && f.base != 31 && IsReservedGprNum(f.base)) {
      return FailKind::kReservedWriteback;
    }
  }

  if (f.br == MBranch::kBr || f.br == MBranch::kBlr ||
      f.br == MBranch::kRet) {
    if (!IsAddrReserved(f.ibr_rn) && f.ibr_rn != 30) {
      return FailKind::kUnguardedIndirectBranch;
    }
  }

  if (f.WritesReg(21)) return FailKind::kBaseRegWrite;
  for (int r : {18, 23, 24}) {
    if (f.WritesReg(r) && f.guard_for != r) {
      return FailKind::kAddressRegWrite;
    }
  }
  if (f.WritesReg(22) && !f.WriteZeroExtends(22)) {
    return FailKind::kScratchRegWrite;
  }
  if (f.WritesReg(30)) {
    const bool by_branch = f.br == MBranch::kBl || f.br == MBranch::kBlr;
    const bool by_guard = f.guard_for == 30;
    if (!by_branch && !by_guard) {
      if (IsTableLoad(f)) {
        if (k + 1 >= facts.size() || !IsBlrX30(facts[k + 1])) {
          return FailKind::kLinkRegProtocol;
        }
      } else if (f.load) {
        if (k + 1 >= facts.size() || facts[k + 1].guard_for != 30) {
          return FailKind::kLinkRegProtocol;
        }
      } else {
        return FailKind::kLinkRegProtocol;
      }
    }
  }
  if (f.WritesReg(32)) {
    if (f.mem) return FailKind::kNone;  // writeback, restricted above
    if (f.sp_guard) return FailKind::kNone;
    if (!f.sp_small_adjust) return FailKind::kSpProtocol;
    for (size_t j = k + 1; j < facts.size(); ++j) {
      const MFacts& n = facts[j];
      if (n.IsBranchInst()) return FailKind::kSpProtocol;
      if (n.mem && n.base == 31) return FailKind::kNone;
      if (n.sp_guard) return FailKind::kNone;
      if (n.WritesReg(32)) return FailKind::kSpProtocol;
    }
    return FailKind::kSpProtocol;
  }
  return FailKind::kNone;
}

Verdict PredictVerdict(std::span<const MFacts> facts,
                       const verifier::VerifyOptions& opts) {
  Verdict v;
  for (size_t k = 0; k < facts.size(); ++k) {
    if (!facts[k].decodable) {
      v.kind = FailKind::kUndecodable;
      v.fail_index = k;
      return v;
    }
  }
  for (size_t k = 0; k < facts.size(); ++k) {
    const FailKind kind = CheckFacts(facts, k, opts);
    if (kind != FailKind::kNone) {
      v.kind = kind;
      v.fail_index = k;
      return v;
    }
  }
  v.ok = true;
  return v;
}

Verdict PredictVerdict(std::span<const uint32_t> words,
                       const verifier::VerifyOptions& opts) {
  std::vector<MFacts> facts;
  facts.reserve(words.size());
  for (uint32_t w : words) facts.push_back(ExtractFacts(w));
  return PredictVerdict(facts, opts);
}

std::vector<uint32_t> DischargeSuffix(const MFacts& f) {
  const bool x30_needs_context =
      f.WritesReg(30) && f.br != MBranch::kBl && f.br != MBranch::kBlr &&
      f.guard_for != 30 && f.load;
  if (x30_needs_context) {
    if (IsTableLoad(f)) return {0xD63F03C0u};  // blr x30
    // add x30, x21, w1, uxtw #0 (the x30 guard).
    return {0x8B200000u | (1u << 16) | (2u << 13) | (21u << 5) | 30u};
  }
  if (f.sp_small_adjust) return {0xF90003FFu};  // str xzr, [sp]
  return {};
}

// ---- Effect prediction ----

uint8_t MemLayout::PatternByte(uint64_t addr) {
  // Cheap deterministic mixing; both the predictor and the crossval
  // runner derive memory contents from this.
  uint64_t v = addr * 0x9E3779B97F4A7C15ull;
  return static_cast<uint8_t>(v >> 56);
}

uint64_t MemLayout::PatternValue(uint64_t addr, uint32_t size) const {
  uint64_t v = 0;
  for (uint32_t i = 0; i < size; ++i) {
    v |= uint64_t{PatternByte(addr + i)} << (8 * i);
  }
  return v;
}

bool MemLayout::Covered(uint64_t addr, uint32_t len, bool for_write) const {
  uint64_t at = addr;
  const uint64_t end = addr + len;
  while (at < end) {
    bool advanced = false;
    for (const auto& r : ranges) {
      if (at >= r.lo && at < r.hi && (for_write ? r.write : r.read)) {
        at = r.hi < end ? r.hi : end;
        advanced = true;
        break;
      }
    }
    if (!advanced) return false;
  }
  return true;
}

EffectPrediction PredictEffect(const MFacts& f, const PreState& pre,
                               const MemLayout& layout) {
  EffectPrediction p;
  p.next_pc = pre.pc + 4;

  auto set = [&](int reg, EffKind kind, uint64_t value) {
    for (size_t i = 0; i < 7; ++i) {
      if (kReservedList[i] == reg) {
        p.reserved[i] = {kind, value};
        return;
      }
    }
  };
  auto regval = [&](int r) -> uint64_t {
    if (r == 32) return pre.sp;
    if (r < 0 || r == 31) return 0;
    return pre.x[r];
  };

  // Branch targets (and the x30 link write).
  switch (f.br) {
    case MBranch::kNone: break;
    case MBranch::kB: p.next_pc = pre.pc + f.br_imm; break;
    case MBranch::kBl:
      p.next_pc = pre.pc + f.br_imm;
      set(30, EffKind::kExact, pre.pc + 4);
      break;
    case MBranch::kBCond:
      p.next_pc = CondHolds(f.cond, pre) ? pre.pc + f.br_imm : pre.pc + 4;
      break;
    case MBranch::kCbz:
    case MBranch::kCbnz: {
      uint64_t v = f.test_rt < 0 ? 0 : pre.x[f.test_rt];
      if (f.test_w) v = static_cast<uint32_t>(v);
      const bool taken = (v == 0) == (f.br == MBranch::kCbz);
      p.next_pc = taken ? pre.pc + f.br_imm : pre.pc + 4;
      break;
    }
    case MBranch::kTbz:
    case MBranch::kTbnz: {
      const uint64_t v = f.test_rt < 0 ? 0 : pre.x[f.test_rt];
      const bool bit = ((v >> f.tbit) & 1) != 0;
      const bool taken = bit == (f.br == MBranch::kTbnz);
      p.next_pc = taken ? pre.pc + f.br_imm : pre.pc + 4;
      break;
    }
    case MBranch::kBr:
    case MBranch::kBlr:
    case MBranch::kRet:
      p.next_pc = f.ibr_rn < 0 ? 0 : pre.x[f.ibr_rn];
      if (f.br == MBranch::kBlr) set(30, EffKind::kExact, pre.pc + 4);
      break;
  }

  // Memory access: effective address, fault prediction, load/writeback
  // effects. A failed stxr (the crossval pre-state never holds the
  // monitor) performs no access at all and just sets its status register.
  if (f.mem && !f.stxr) {
    const uint64_t base_val = f.base == 31 ? pre.sp : pre.x[f.base];
    uint64_t addr;
    if (f.mode == MMode::kUxtw) {
      addr = base_val +
             ((f.index < 0 ? 0
                           : static_cast<uint32_t>(pre.x[f.index]))
              << f.shift);
    } else if (f.mode == MMode::kPost) {
      addr = base_val;
    } else {
      addr = base_val + static_cast<uint64_t>(f.imm);
    }
    p.mem_fault = !layout.Covered(addr, f.footprint, f.store) ||
                  (f.align_check && addr % f.msize != 0);
    if (p.mem_fault) return p;  // no register commits on a fault

    if (f.load && !f.fp_transfer) {
      auto load_val = [&](uint64_t a) -> uint64_t {
        uint64_t raw = layout.PatternValue(a, f.msize);
        if (f.msigned) {
          const int64_t s = Sign(static_cast<uint32_t>(raw), 8 * f.msize);
          return f.wide_w ? static_cast<uint32_t>(s)
                          : static_cast<uint64_t>(s);
        }
        return raw;  // unsigned loads zero-extend
      };
      // Commit order rt then rt2: on a shared destination rt2 wins.
      if (f.rt >= 0) set(f.rt, EffKind::kExact, load_val(addr));
      if (f.rt2 >= 0) set(f.rt2, EffKind::kExact, load_val(addr + f.msize));
    }
    if (f.mode == MMode::kPre || f.mode == MMode::kPost) {
      set(f.base == 31 ? 32 : f.base, EffKind::kExact,
          base_val + static_cast<uint64_t>(f.imm));
    }
  }
  if (f.stxr && f.rs >= 0) set(f.rs, EffKind::kExact, 1);  // monitor miss

  // ALU destination channels.
  if (f.guard_for >= 0 && f.guard_rm >= 0) {
    set(f.guard_for, EffKind::kExact,
        pre.x[21] + static_cast<uint32_t>(pre.x[f.guard_rm]));
  } else if (f.sp_guard) {
    set(32, EffKind::kExact, pre.x[21] + pre.x[22]);
  } else if (f.dest == 32 && f.sp_small_adjust) {
    set(32, EffKind::kExact, pre.sp + static_cast<uint64_t>(f.adjust));
  } else if (f.dest >= 0 && f.dest != 32) {
    uint64_t exact = 0;
    bool have_exact = false;
    if (f.mov_exact) {
      const uint64_t wmask =
          f.sf ? ~uint64_t{0} : uint64_t{0xFFFFFFFF};
      switch (f.mov_op) {
        case 0: exact = ~f.mov_imm & wmask; have_exact = true; break;
        case 2: exact = f.mov_imm; have_exact = true; break;
        case 3:
          exact = ((regval(f.dest) & ~(uint64_t{0xFFFF} << (f.mov_hw * 16))) &
                   wmask) |
                  f.mov_imm;
          have_exact = true;
          break;
      }
    }
    if (have_exact) {
      set(f.dest, EffKind::kExact, exact);
    } else {
      set(f.dest, f.dest_zext ? EffKind::kZext32 : EffKind::kPreserved, 0);
      // A 64-bit ALU write to a reserved register is never accepted, so
      // a kPreserved here can only apply to non-reserved destinations
      // (where set() drops it anyway).
    }
  }
  return p;
}

}  // namespace lfi::verify_model
