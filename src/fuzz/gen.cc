#include "fuzz/gen.h"

#include <algorithm>
#include <array>
#include <cstddef>

#include "arch/encode.h"
#include "arch/inst.h"
#include "arch/reg.h"
#include "runtime/layout.h"

namespace lfi::fuzz {
namespace {

using arch::AddrMode;
using arch::Cond;
using arch::Extend;
using arch::FpSize;
using arch::Inst;
using arch::Mn;
using arch::Reg;
using arch::Shift;
using arch::VReg;
using arch::Width;
using runtime::kGuardSize;

// Registers a compiler running under -ffixed-x18/x21/x22/x23/x24 (and with
// x30 managed only through the call protocols) may allocate freely.
constexpr uint8_t kFreeRegIds[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,
                                   10, 11, 12, 13, 14, 15, 16, 17, 19, 20,
                                   25, 26, 27, 28, 29};

Reg FreeReg(Rng& rng) { return Reg::X(rng.Pick(kFreeRegIds)); }

// Address-reserved registers a guard may target.
Reg AddrReg(Rng& rng) {
  constexpr uint8_t ids[] = {18, 23, 24};
  return Reg::X(rng.Pick(ids));
}

// Encodes `i`; encode failures (an out-of-range operand slipped through a
// template) degrade to NOP so the stream stays decodable.
uint32_t Enc(const Inst& i) {
  auto r = arch::Encode(i);
  return r.ok() ? *r : kNopWord;
}

Inst Guard(Reg dst, Reg src) {
  Inst i;
  i.mn = Mn::kAddExt;
  i.width = Width::kX;
  i.rd = dst;
  i.rn = arch::kRegBase;
  i.rm = src;
  i.ext = Extend::kUxtw;
  i.shift_amount = 0;
  return i;
}

Inst SpGuard() {
  Inst i;
  i.mn = Mn::kAddReg;
  i.width = Width::kX;
  i.rd = Reg::Sp();
  i.rn = arch::kRegBase;
  i.rm = arch::kRegScratch;
  i.shift = Shift::kLsl;
  i.shift_amount = 0;
  return i;
}

Inst Access(bool load, Reg rt, Reg base, int64_t imm, unsigned msize) {
  Inst i;
  i.mn = load ? Mn::kLdr : Mn::kStr;
  i.width = msize == 8 ? Width::kX : Width::kW;
  i.msize = static_cast<uint8_t>(msize);
  i.rt = rt;
  i.mem.base = base;
  i.mem.mode = AddrMode::kImm;
  i.mem.imm = imm;
  return i;
}

Inst MovzImm(Reg rd, uint16_t imm, uint8_t hw, Width w) {
  Inst i;
  i.mn = Mn::kMovz;
  i.width = w;
  i.rd = rd;
  i.imm = imm;
  i.shift_amount = static_cast<uint8_t>(hw * 16);
  return i;
}

unsigned RandSize(Rng& rng) {
  constexpr unsigned sizes[] = {1, 2, 4, 8};
  return rng.Pick(sizes);
}

// A guarded-access offset: usually small and scaled, occasionally at the
// 48KiB guard boundary (both sides, so rejection is exercised too), and
// occasionally a negative unscaled offset.
int64_t AccessImm(Rng& rng, unsigned msize) {
  switch (rng.Below(8)) {
    case 0: return kGuardSize - 8;  // last in-guard doubleword
    case 1: return kGuardSize;      // first out-of-guard offset
    case 2: return -int64_t(rng.Below(257));
    default: return int64_t(rng.Below(512)) * msize;
  }
}

// --- Stream templates. Each appends whole legal (or boundary) idioms. ---

void TmplAluReg(Rng& rng, std::vector<uint32_t>* out) {
  constexpr Mn ops[] = {Mn::kAddReg, Mn::kSubReg, Mn::kAddsReg, Mn::kSubsReg,
                        Mn::kAndReg, Mn::kOrrReg, Mn::kEorReg,  Mn::kBicReg};
  Inst i;
  i.mn = rng.Pick(ops);
  i.width = rng.Chance(50) ? Width::kX : Width::kW;
  i.rd = FreeReg(rng);
  i.rn = FreeReg(rng);
  i.rm = FreeReg(rng);
  if (rng.Chance(30)) {
    constexpr Shift shifts[] = {Shift::kLsl, Shift::kLsr, Shift::kAsr};
    i.shift = rng.Pick(shifts);
    i.shift_amount =
        static_cast<uint8_t>(rng.Below(i.width == Width::kX ? 64 : 32));
  }
  out->push_back(Enc(i));
}

void TmplAluImm(Rng& rng, std::vector<uint32_t>* out) {
  Inst i;
  i.mn = rng.Chance(50) ? Mn::kAddImm : Mn::kSubImm;
  i.width = rng.Chance(50) ? Width::kX : Width::kW;
  i.rd = FreeReg(rng);
  i.rn = FreeReg(rng);
  i.imm = int64_t(rng.Below(4096));
  out->push_back(Enc(i));
}

void TmplMovWide(Rng& rng, std::vector<uint32_t>* out) {
  constexpr Mn ops[] = {Mn::kMovz, Mn::kMovn, Mn::kMovk};
  Inst i;
  i.mn = rng.Pick(ops);
  i.width = rng.Chance(70) ? Width::kX : Width::kW;
  i.rd = FreeReg(rng);
  i.imm = int64_t(rng.Below(0x10000));
  i.shift_amount = static_cast<uint8_t>(
      16 * rng.Below(i.width == Width::kX ? 4 : 2));
  out->push_back(Enc(i));
}

void TmplGuardedAccess(Rng& rng, std::vector<uint32_t>* out) {
  const Reg addr = AddrReg(rng);
  out->push_back(Enc(Guard(addr, FreeReg(rng))));
  const size_t n = 1 + rng.Below(3);
  for (size_t k = 0; k < n; ++k) {
    const unsigned msize = RandSize(rng);
    Inst a = Access(rng.Chance(50), FreeReg(rng), addr, AccessImm(rng, msize),
                    msize);
    if (arch::IsLoad(a) && msize < 8 && rng.Chance(30)) {
      a.msigned = true;  // ldrsb/ldrsh/ldrsw
      a.width = rng.Chance(50) ? Width::kX : Width::kW;
      if (msize == 4) a.width = Width::kX;
    }
    out->push_back(Enc(a));
  }
}

void TmplZeroInstAccess(Rng& rng, std::vector<uint32_t>* out) {
  // The zero-instruction form: base x21, 32-bit index zero-extended.
  const unsigned msize = RandSize(rng);
  Inst i = Access(rng.Chance(50), FreeReg(rng), arch::kRegBase, 0, msize);
  i.mem.mode = AddrMode::kRegUxtw;
  i.mem.index = rng.Chance(60) ? arch::kRegScratch : FreeReg(rng);
  i.mem.shift = 0;
  out->push_back(Enc(i));
}

void TmplScratchWrite(Rng& rng, std::vector<uint32_t>* out) {
  // x22 may only ever hold a 32-bit value: all writes use the W view.
  Inst i;
  if (rng.Chance(50)) {
    i.mn = Mn::kAddImm;
    i.width = Width::kW;
    i.rd = arch::kRegScratch;
    i.rn = FreeReg(rng);
    i.imm = int64_t(rng.Below(4096));
  } else {
    i.mn = Mn::kOrrReg;
    i.width = Width::kW;
    i.rd = arch::kRegScratch;
    i.rn = Reg::Zr();
    i.rm = FreeReg(rng);
  }
  out->push_back(Enc(i));
  if (rng.Chance(50)) {
    Inst a = Access(rng.Chance(50), FreeReg(rng), arch::kRegBase, 0, 8);
    a.mem.mode = AddrMode::kRegUxtw;
    a.mem.index = arch::kRegScratch;
    a.mem.shift = 0;
    out->push_back(Enc(a));
  }
}

void TmplSpSequence(Rng& rng, std::vector<uint32_t>* out) {
  switch (rng.Below(4)) {
    case 0: {  // full sp retarget: mov w22, wN ; add sp, x21, x22
      Inst mv;
      mv.mn = Mn::kOrrReg;
      mv.width = Width::kW;
      mv.rd = arch::kRegScratch;
      mv.rn = Reg::Zr();
      mv.rm = FreeReg(rng);
      out->push_back(Enc(mv));
      out->push_back(Enc(SpGuard()));
      out->push_back(Enc(Access(false, FreeReg(rng), Reg::Sp(),
                                int64_t(rng.Below(64)) * 8, 8)));
      break;
    }
    case 1: {  // pre/post-index push/pop pair
      Inst push = Access(false, FreeReg(rng), Reg::Sp(), -16, 8);
      push.mem.mode = AddrMode::kPreIndex;
      out->push_back(Enc(push));
      Inst pop = Access(true, FreeReg(rng), Reg::Sp(), 16, 8);
      pop.mem.mode = AddrMode::kPostIndex;
      out->push_back(Enc(pop));
      break;
    }
    case 2: {  // small adjust + in-block access (the Section 4.2 elision)
      Inst adj;
      adj.mn = rng.Chance(50) ? Mn::kSubImm : Mn::kAddImm;
      adj.width = Width::kX;
      adj.rd = Reg::Sp();
      adj.rn = Reg::Sp();
      adj.imm = int64_t(rng.Below(64)) * 16;
      out->push_back(Enc(adj));
      out->push_back(Enc(Access(rng.Chance(50), FreeReg(rng), Reg::Sp(),
                                int64_t(rng.Below(32)) * 8, 8)));
      break;
    }
    default: {  // plain sp-relative access
      out->push_back(Enc(Access(rng.Chance(50), FreeReg(rng), Reg::Sp(),
                                int64_t(rng.Below(256)) * 8, 8)));
      break;
    }
  }
}

void TmplLinkSequence(Rng& rng, std::vector<uint32_t>* out) {
  // Runtime-call protocol: load x30 from the call table, then either
  // branch through it or re-guard it and return.
  Inst ld = Access(true, arch::kRegLink, arch::kRegBase,
                   int64_t(rng.Below(512)) * 8, 8);
  out->push_back(Enc(ld));
  if (rng.Chance(60)) {
    Inst blr;
    blr.mn = Mn::kBlr;
    blr.rn = arch::kRegLink;
    out->push_back(Enc(blr));
  } else {
    out->push_back(Enc(Guard(arch::kRegLink, arch::kRegLink)));
    Inst ret;
    ret.mn = Mn::kRet;
    ret.rn = arch::kRegLink;
    out->push_back(Enc(ret));
  }
}

void TmplBranch(Rng& rng, std::vector<uint32_t>* out) {
  const int64_t off = (int64_t(rng.Below(16)) - 8) * 4;
  Inst i;
  switch (rng.Below(5)) {
    case 0:
      i.mn = Mn::kB;
      i.imm = off;
      break;
    case 1:
      i.mn = Mn::kBCond;
      i.imm = off;
      i.cond = static_cast<Cond>(rng.Below(14));
      break;
    case 2:
      i.mn = rng.Chance(50) ? Mn::kCbz : Mn::kCbnz;
      i.rt = FreeReg(rng);
      i.width = rng.Chance(50) ? Width::kX : Width::kW;
      i.imm = off;
      break;
    case 3:
      i.mn = rng.Chance(50) ? Mn::kTbz : Mn::kTbnz;
      i.rt = FreeReg(rng);
      i.bit = static_cast<uint8_t>(rng.Below(64));
      i.imm = off;
      break;
    default:
      i.mn = Mn::kBl;
      i.imm = off;
      break;
  }
  out->push_back(Enc(i));
}

void TmplMulDiv(Rng& rng, std::vector<uint32_t>* out) {
  constexpr Mn ops[] = {Mn::kMadd, Mn::kMsub, Mn::kSdiv, Mn::kUdiv};
  Inst i;
  i.mn = rng.Pick(ops);
  i.width = rng.Chance(50) ? Width::kX : Width::kW;
  i.rd = FreeReg(rng);
  i.rn = FreeReg(rng);
  i.rm = FreeReg(rng);
  i.ra = (i.mn == Mn::kMadd || i.mn == Mn::kMsub) ? FreeReg(rng) : Reg::None();
  out->push_back(Enc(i));
}

void TmplCondSelect(Rng& rng, std::vector<uint32_t>* out) {
  constexpr Mn ops[] = {Mn::kCsel, Mn::kCsinc, Mn::kCsinv, Mn::kCsneg};
  Inst i;
  i.mn = rng.Pick(ops);
  i.width = rng.Chance(50) ? Width::kX : Width::kW;
  i.rd = FreeReg(rng);
  i.rn = FreeReg(rng);
  i.rm = FreeReg(rng);
  i.cond = static_cast<Cond>(rng.Below(14));
  out->push_back(Enc(i));
}

void TmplPairAccess(Rng& rng, std::vector<uint32_t>* out) {
  const Reg addr = AddrReg(rng);
  out->push_back(Enc(Guard(addr, FreeReg(rng))));
  Inst i;
  i.mn = rng.Chance(50) ? Mn::kLdp : Mn::kStp;
  i.width = Width::kX;
  i.msize = 8;
  i.rt = FreeReg(rng);
  i.rt2 = FreeReg(rng);
  i.mem.base = addr;
  i.mem.mode = AddrMode::kImm;
  i.mem.imm = (int64_t(rng.Below(64)) - 32) * 8;
  out->push_back(Enc(i));
}

void TmplAtomic(Rng& rng, std::vector<uint32_t>* out) {
  const Reg addr = AddrReg(rng);
  out->push_back(Enc(Guard(addr, FreeReg(rng))));
  Inst i;
  i.width = Width::kX;
  i.msize = 8;
  i.rt = FreeReg(rng);
  i.mem.base = addr;
  i.mem.mode = AddrMode::kImm;
  i.mem.imm = 0;
  switch (rng.Below(4)) {
    case 0: i.mn = Mn::kLdxr; break;
    case 1:
      i.mn = Mn::kStxr;
      i.rs = FreeReg(rng);
      break;
    case 2: i.mn = Mn::kLdar; break;
    default: i.mn = Mn::kStlr; break;
  }
  out->push_back(Enc(i));
}

void TmplQAccess(Rng& rng, std::vector<uint32_t>* out) {
  // 16-byte FP accesses are the only single-access form whose scaled
  // immediate can reach past the 48KiB guard region, so this template is
  // what exercises the guard-range-overflow rule on both sides.
  const Reg addr = AddrReg(rng);
  out->push_back(Enc(Guard(addr, FreeReg(rng))));
  Inst i;
  i.mn = rng.Chance(50) ? Mn::kLdrF : Mn::kStrF;
  i.fsize = FpSize::kQ;
  i.msize = 16;
  i.vt = VReg(static_cast<uint8_t>(rng.Below(32)));
  i.mem.base = addr;
  i.mem.mode = AddrMode::kImm;
  switch (rng.Below(4)) {
    case 0: i.mem.imm = kGuardSize - 16; break;  // last in-guard slot
    case 1: i.mem.imm = kGuardSize; break;       // first out-of-guard slot
    case 2: i.mem.imm = 65520; break;            // max encodable
    default: i.mem.imm = int64_t(rng.Below(4096)) * 16; break;
  }
  out->push_back(Enc(i));
}

void TmplFp(Rng& rng, std::vector<uint32_t>* out) {
  constexpr Mn ops[] = {Mn::kFadd, Mn::kFsub, Mn::kFmul, Mn::kFdiv};
  Inst i;
  i.mn = rng.Pick(ops);
  i.fsize = rng.Chance(50) ? FpSize::kD : FpSize::kS;
  i.vd = VReg(static_cast<uint8_t>(rng.Below(32)));
  i.vn = VReg(static_cast<uint8_t>(rng.Below(32)));
  i.vm = VReg(static_cast<uint8_t>(rng.Below(32)));
  out->push_back(Enc(i));
}

void TmplMisc(Rng& rng, std::vector<uint32_t>* out) {
  if (rng.Chance(70)) {
    out->push_back(kNopWord);
  } else {
    Inst i;
    i.mn = Mn::kAdr;
    i.rd = FreeReg(rng);
    i.imm = int64_t(rng.Below(1024)) - 512;
    out->push_back(Enc(i));
  }
}

using TmplFn = void (*)(Rng&, std::vector<uint32_t>*);
constexpr TmplFn kTemplates[] = {
    TmplAluReg,       TmplAluImm,     TmplMovWide,    TmplGuardedAccess,
    TmplZeroInstAccess, TmplScratchWrite, TmplSpSequence, TmplLinkSequence,
    TmplBranch,       TmplMulDiv,     TmplCondSelect, TmplPairAccess,
    TmplAtomic,       TmplQAccess,    TmplFp,         TmplMisc,
};

}  // namespace

std::vector<uint32_t> GenRandomWords(Rng& rng, size_t count) {
  std::vector<uint32_t> out;
  out.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    out.push_back(static_cast<uint32_t>(rng.Next()));
  }
  return out;
}

std::vector<uint32_t> GenTemplateStream(Rng& rng, size_t count) {
  std::vector<uint32_t> out;
  out.reserve(count * 2);
  for (size_t k = 0; k < count; ++k) {
    rng.Pick(kTemplates)(rng, &out);
  }
  return out;
}

void MutateStream(Rng& rng, std::vector<uint32_t>* words) {
  if (words->empty()) return;
  // Reserved-register encodings (plus 31 = zr/sp) to splice into 5-bit
  // register fields: these are exactly the values that turn a legal idiom
  // into a near-miss the verifier must catch.
  constexpr uint32_t kHotRegs[] = {18, 21, 22, 23, 24, 30, 31};
  const size_t n_mut = 1 + rng.Below(3);
  for (size_t m = 0; m < n_mut; ++m) {
    uint32_t& w = (*words)[rng.Below(words->size())];
    switch (rng.Below(5)) {
      case 0:  // single-bit flip
        w ^= uint32_t{1} << rng.Below(32);
        break;
      case 1: {  // rewrite a register field (Rd/Rn/Rm/Rt positions)
        constexpr uint32_t offs[] = {0, 5, 10, 16};
        const uint32_t off = rng.Pick(offs);
        w = (w & ~(uint32_t{0x1f} << off)) | (rng.Pick(kHotRegs) << off);
        break;
      }
      case 2:  // immediate twiddle (imm12/imm9 field region)
        w ^= uint32_t{1} << (10 + rng.Below(12));
        break;
      case 3: {  // duplicate another word over this one
        w = (*words)[rng.Below(words->size())];
        break;
      }
      default: {  // swap two words (breaks guard/access adjacency)
        const size_t a = rng.Below(words->size());
        const size_t b = rng.Below(words->size());
        std::swap((*words)[a], (*words)[b]);
        break;
      }
    }
  }
}

std::vector<std::vector<uint32_t>> SeedCorpusWords() {
  std::vector<std::vector<uint32_t>> corpus;
  auto add = [&corpus](std::vector<uint32_t> v) {
    corpus.push_back(std::move(v));
  };
  Inst ret;
  ret.mn = Mn::kRet;
  ret.rn = arch::kRegLink;
  Inst brk;
  brk.mn = Mn::kBrk;

  // 1. Minimal legal program.
  add({kNopWord, Enc(ret)});

  // 2. Guard + access at both guard boundaries (accept and reject edge).
  // Only 16-byte accesses encode offsets past 48KiB, so the boundary pair
  // uses Q-register loads.
  {
    auto qldr = [](int64_t imm) {
      Inst i;
      i.mn = Mn::kLdrF;
      i.fsize = FpSize::kQ;
      i.msize = 16;
      i.vt = VReg(0);
      i.mem.base = Reg::X(18);
      i.mem.mode = AddrMode::kImm;
      i.mem.imm = imm;
      return i;
    };
    add({Enc(Guard(Reg::X(18), Reg::X(0))), Enc(qldr(kGuardSize - 16)),
         Enc(ret)});
    add({Enc(Guard(Reg::X(18), Reg::X(0))), Enc(qldr(kGuardSize)), Enc(ret)});
    add({Enc(Guard(Reg::X(18), Reg::X(0))),
         Enc(Access(false, Reg::X(1), Reg::X(18), 32760, 8)), Enc(ret)});
  }

  // 3. Zero-instruction access.
  {
    Inst a = Access(true, Reg::X(3), arch::kRegBase, 0, 8);
    a.mem.mode = AddrMode::kRegUxtw;
    a.mem.index = Reg::X(4);
    a.mem.shift = 0;
    add({Enc(a), Enc(ret)});
  }

  // 4. Full sp protocol.
  {
    Inst mv;
    mv.mn = Mn::kOrrReg;
    mv.width = Width::kW;
    mv.rd = arch::kRegScratch;
    mv.rn = Reg::Zr();
    mv.rm = Reg::X(5);
    Inst push = Access(false, Reg::X(6), Reg::Sp(), -16, 8);
    push.mem.mode = AddrMode::kPreIndex;
    Inst pop = Access(true, Reg::X(6), Reg::Sp(), 16, 8);
    pop.mem.mode = AddrMode::kPostIndex;
    add({Enc(mv), Enc(SpGuard()), Enc(push), Enc(pop), Enc(ret)});
  }

  // 5. Runtime-call protocol, both continuations.
  {
    Inst ld = Access(true, arch::kRegLink, arch::kRegBase, 16, 8);
    Inst blr;
    blr.mn = Mn::kBlr;
    blr.rn = arch::kRegLink;
    add({Enc(ld), Enc(blr)});
    add({Enc(ld), Enc(Guard(arch::kRegLink, arch::kRegLink)), Enc(ret)});
  }

  // 6. Escape probes: each must be rejected; if the verifier ever starts
  // accepting one, the invariant checker flags the executed escape.
  {
    // Unguarded store through a register the program fully controls.
    add({Enc(MovzImm(Reg::X(25), 0xFFFF, 1, Width::kX)),
         Enc(Access(false, Reg::X(0), Reg::X(25), 0, 8)), Enc(ret)});
    // Unguarded indirect branch.
    Inst br;
    br.mn = Mn::kBr;
    br.rn = Reg::X(9);
    add({Enc(br)});
    // Write to the base register.
    Inst wb;
    wb.mn = Mn::kAddImm;
    wb.width = Width::kX;
    wb.rd = arch::kRegBase;
    wb.rn = arch::kRegBase;
    wb.imm = 1;
    add({Enc(wb), Enc(ret)});
    // 64-bit write to the scratch register.
    Inst ws;
    ws.mn = Mn::kAddImm;
    ws.width = Width::kX;
    ws.rd = arch::kRegScratch;
    ws.rn = Reg::X(0);
    ws.imm = 0;
    add({Enc(ws), Enc(ret)});
    // System instruction and a raw undecodable word.
    add({0xd4000001u /* svc #0 */, Enc(ret)});
    add({0xffffffffu, Enc(ret)});
  }

  // 7. Debug trap.
  add({Enc(brk)});
  return corpus;
}

// --- Assembly grammar (completeness mode). ---

namespace {

const char* const kXRegs[] = {"x0",  "x1",  "x2",  "x3",  "x4",  "x5",  "x6",
                              "x7",  "x8",  "x9",  "x10", "x11", "x12", "x13",
                              "x14", "x15", "x16", "x17", "x19", "x20", "x25",
                              "x26", "x27", "x28", "x29"};
const char* const kWRegs[] = {"w0",  "w1",  "w2",  "w3",  "w4",  "w5",  "w6",
                              "w7",  "w8",  "w9",  "w10", "w11", "w12", "w13",
                              "w14", "w15", "w16", "w17", "w19", "w20", "w25",
                              "w26", "w27", "w28", "w29"};
const char* const kConds[] = {"eq", "ne", "hs", "lo", "mi", "pl", "vs",
                              "vc", "hi", "ls", "ge", "lt", "gt", "le"};

std::string Xr(Rng& rng) { return rng.Pick(kXRegs); }
std::string Wr(Rng& rng) { return rng.Pick(kWRegs); }

std::string Num(uint64_t v) { return std::to_string(v); }

// One random statement of the completeness grammar. `labels` is the pool
// of branch targets (all are eventually defined).
std::string GenStmt(Rng& rng, const std::vector<std::string>& labels) {
  const std::string& lab = labels[rng.Below(labels.size())];
  switch (rng.Below(22)) {
    case 0: return "mov " + Xr(rng) + ", #" + Num(rng.Below(65536));
    case 1:
      return "movk " + Xr(rng) + ", #" + Num(rng.Below(65536)) + ", lsl #16";
    case 2: return "add " + Xr(rng) + ", " + Xr(rng) + ", " + Xr(rng);
    case 3:
      return "sub " + Wr(rng) + ", " + Wr(rng) + ", #" + Num(rng.Below(4096));
    case 4: return "and " + Xr(rng) + ", " + Xr(rng) + ", " + Xr(rng);
    case 5: return "mul " + Xr(rng) + ", " + Xr(rng) + ", " + Xr(rng);
    case 6: return "udiv " + Wr(rng) + ", " + Wr(rng) + ", " + Wr(rng);
    case 7: return "cmp " + Xr(rng) + ", #" + Num(rng.Below(4096));
    case 8:
      return "csel " + Xr(rng) + ", " + Xr(rng) + ", " + Xr(rng) + ", " +
             rng.Pick(kConds);
    case 9: return "cset " + Wr(rng) + ", " + rng.Pick(kConds);
    case 10:
      return "ldr " + Xr(rng) + ", [" + Xr(rng) + ", #" +
             Num(rng.Below(256) * 8) + "]";
    case 11:
      return "str " + Wr(rng) + ", [" + Xr(rng) + ", #" +
             Num(rng.Below(256) * 4) + "]";
    case 12:
      return "ldrb " + Wr(rng) + ", [" + Xr(rng) + ", #" + Num(rng.Below(64)) +
             "]";
    case 13:
      return "ldr " + Xr(rng) + ", [" + Xr(rng) + ", " + Xr(rng) +
             ", lsl #3]";
    case 14: {
      const std::string a = Xr(rng), b = Xr(rng);
      return "ldp " + a + ", " + b + ", [" + Xr(rng) + ", #" +
             Num(rng.Below(16) * 16) + "]";
    }
    case 15: return "str " + Xr(rng) + ", [sp, #" + Num(rng.Below(32) * 8) + "]";
    case 16: return "stp x29, x30, [sp, #-16]!";
    case 17: return "ldp x29, x30, [sp], #16";
    case 18: return "b." + std::string(rng.Pick(kConds)) + " " + lab;
    case 19:
      return (rng.Chance(50) ? "cbz " : "cbnz ") + Xr(rng) + ", " + lab;
    case 20:
      return "tbz " + Xr(rng) + ", #" + Num(rng.Below(64)) + ", " + lab;
    default: return "nop";
  }
}

}  // namespace

std::string GenAsmProgram(Rng& rng) {
  const size_t nlabels = 2 + rng.Below(4);
  std::vector<std::string> labels;
  for (size_t k = 0; k < nlabels; ++k) {
    labels.push_back(".Lfz" + std::to_string(k));
  }
  std::string src = ".text\n.globl _start\n_start:\n";
  std::vector<bool> emitted(nlabels, false);
  const size_t nstmts = 8 + rng.Below(32);
  for (size_t k = 0; k < nstmts; ++k) {
    if (rng.Chance(15)) {
      const size_t li = rng.Below(nlabels);
      if (!emitted[li]) {
        emitted[li] = true;
        src += labels[li] + ":\n";
        continue;
      }
    }
    switch (rng.Below(12)) {
      case 0:  // adrp/:lo12:/load against a data symbol
        src += "adrp x7, fzdat\n";
        src += "add x7, x7, :lo12:fzdat\n";
        src += "ldr " + Xr(rng) + ", [x7]\n";
        break;
      case 1:
        src += "rtcall #" + Num(rng.Below(16)) + "\n";
        break;
      case 2:
        src += "bl " + labels[rng.Below(nlabels)] + "\n";
        break;
      case 3:
        if (rng.Chance(30)) {
          src += (rng.Chance(50) ? "br " : "blr ") + Xr(rng) + "\n";
        } else {
          src += "ret\n";
        }
        break;
      default:
        src += GenStmt(rng, labels) + "\n";
        break;
    }
  }
  // Define any label that was branched to but never placed.
  for (size_t k = 0; k < nlabels; ++k) {
    if (!emitted[k]) src += labels[k] + ":\n";
  }
  src += "ret\n";
  src += ".data\nfzdat:\n.quad 305419896\n.zero 64\n";
  return src;
}

std::vector<std::string> SeedCorpusAsm() {
  return {
      // Every memory shape the rewriter must guard.
      ".text\n_start:\n"
      "ldr x0, [x1, #16]\n"
      "str w2, [x3]\n"
      "ldrb w4, [x5, #1]\n"
      "ldr x6, [x7, x8, lsl #3]\n"
      "ldp x9, x10, [x11, #32]\n"
      "stp x12, x13, [sp, #-16]!\n"
      "ldp x12, x13, [sp], #16\n"
      "ret\n",
      // Control flow: every branch family plus rtcall.
      ".text\n_start:\n"
      "mov x0, #3\n"
      ".Lloop:\n"
      "sub x0, x0, #1\n"
      "cbnz x0, .Lloop\n"
      "tbz x1, #5, .Lout\n"
      "b.ne .Lloop\n"
      ".Lout:\n"
      "bl .Lloop\n"
      "blr x2\n"
      "rtcall #0\n"
      "ret\n",
      // Address generation + data section.
      ".text\n_start:\n"
      "adrp x0, counter\n"
      "add x0, x0, :lo12:counter\n"
      "ldr x1, [x0]\n"
      "add x1, x1, #1\n"
      "str x1, [x0]\n"
      "ret\n"
      ".data\ncounter:\n.quad 0\n",
      // Stack discipline.
      ".text\n_start:\n"
      "sub sp, sp, #32\n"
      "str x0, [sp, #8]\n"
      "ldr x1, [sp, #8]\n"
      "add sp, sp, #32\n"
      "ret\n",
  };
}

void MutateAsmText(Rng& rng, std::string* src) {
  static const char kBytes[] = {' ', '\t', '\r', '\v', ',', '[', ']', '!',
                                '#', '-', '+', ':', '.', '/', '"', '\\',
                                '0', '1', '9', 'x', 'w', 's', 'd', 'q',
                                'v', 'X', '_', '$', '\x80', '\xff'};
  static const char* const kDigits[] = {
      "31", "32", "99", "4294967297", "18446744073709551615",
      "18446744073709551616", "0x10000000000000000", "9223372036854775808",
      "00000000000000000000007"};
  std::string& s = *src;
  const uint64_t n = 1 + rng.Below(3);
  for (uint64_t k = 0; k < n && !s.empty(); ++k) {
    const size_t p = rng.Below(s.size());
    switch (rng.Below(7)) {
      case 0:  // byte flip to syntax-relevant bytes
        s[p] = rng.Pick(kBytes);
        break;
      case 1:  // byte flip to any byte
        s[p] = static_cast<char>(rng.Below(256));
        break;
      case 2:  // truncate the text, or just the rest of one line
        if (rng.Chance(30)) {
          s.resize(p);
        } else {
          s.erase(p, s.find('\n', p) - p);
        }
        break;
      case 3:  // digit run
        s.insert(p, rng.Pick(kDigits));
        break;
      case 4: {  // case flip over a short run
        const size_t e = std::min(s.size(), p + 1 + rng.Below(8));
        for (size_t q = p; q < e; ++q) {
          if (s[q] >= 'a' && s[q] <= 'z') {
            s[q] = static_cast<char>(s[q] - 'a' + 'A');
          } else if (s[q] >= 'A' && s[q] <= 'Z') {
            s[q] = static_cast<char>(s[q] - 'A' + 'a');
          }
        }
        break;
      }
      case 5:  // extra whitespace
        s.insert(p, rng.Chance(50) ? " " : (rng.Chance(50) ? "\t" : "\r"));
        break;
      default:  // drop whitespace
        if (s[p] == ' ' || s[p] == '\t') s.erase(p, 1);
        break;
    }
  }
}

}  // namespace lfi::fuzz
