#include "wasm/wasm.h"

namespace lfi::wasm {

namespace {

using arch::AddrMode;
using arch::Extend;
using arch::Inst;
using arch::Mn;
using arch::Reg;
using arch::Shift;
using arch::Width;
using asmtext::AsmFile;
using asmtext::AsmStmt;

// Registers reserved by the Wasm engine model (disjoint from both the
// workload generators' register set and LFI's reserved registers, so the
// same programs can run under either sandbox).
constexpr Reg kCtx = Reg(25);    // context-struct pointer
constexpr Reg kBase = Reg(26);   // heap base (pinned or reloaded)
constexpr Reg kIdx = Reg(27);    // 32-bit index scratch

Inst MakeLoadBase() {
  Inst l;
  l.mn = Mn::kLdr;
  l.width = Width::kX;
  l.msize = 8;
  l.rt = kBase;
  l.mem.base = kCtx;
  l.mem.mode = AddrMode::kImm;
  l.mem.imm = 0;
  return l;
}

Inst MakeAddIdxImm(Reg rn, int64_t imm) {
  Inst a;
  a.mn = imm >= 0 ? Mn::kAddImm : Mn::kSubImm;
  a.width = Width::kW;
  a.rd = kIdx;
  a.rn = rn;
  a.imm = imm >= 0 ? imm : -imm;
  return a;
}

Inst MakeAddIdxShift(Reg rn, Reg rm, uint8_t shift) {
  Inst a;
  a.mn = Mn::kAddReg;
  a.width = Width::kW;
  a.rd = kIdx;
  a.rn = rn;
  a.rm = rm;
  a.shift = Shift::kLsl;
  a.shift_amount = shift;
  return a;
}

Inst MakeAddIdxExt(Reg rn, Reg rm, Extend ext, uint8_t shift) {
  Inst a;
  a.mn = Mn::kAddExt;
  a.width = Width::kW;
  a.rd = kIdx;
  a.rn = rn;
  a.rm = rm;
  a.ext = ext;
  a.shift_amount = shift;
  return a;
}

Inst MakeAddBaseImm(Reg rn, int64_t imm) {
  Inst a;
  a.mn = imm >= 0 ? Mn::kAddImm : Mn::kSubImm;
  a.width = Width::kX;
  a.rd = rn;
  a.rn = rn;
  a.imm = imm >= 0 ? imm : -imm;
  return a;
}

// A dependency-extending register move, modelling weaker codegen.
Inst MakeSelfMov(Reg r) {
  Inst m;
  m.mn = Mn::kOrrReg;
  m.width = Width::kX;
  m.rd = r;
  m.rn = Reg::Zr();
  m.rm = r;
  return m;
}

class Instrumenter {
 public:
  Instrumenter(const EngineProfile& profile) : profile_(profile) {}

  Result<AsmFile> Run(const AsmFile& in);

 private:
  void Emit(Inst i) { out_.stmts.push_back(AsmStmt::OfInst(i)); }
  void EmitStmt(AsmStmt s) { out_.stmts.push_back(std::move(s)); }

  // Ensures the heap base is in kBase; returns without emitting when the
  // engine hoists and the base is still valid in this block.
  void MaterializeBase() {
    if (profile_.pinned_base) return;
    if (profile_.hoist_base && base_valid_) return;
    Emit(MakeLoadBase());
    base_valid_ = true;
  }

  // Wasm-style access: index computed into a 32-bit register, then a
  // base+u32 access relying on guard pages for bounds.
  void RewriteAccess(Inst i);
  void EmitIndirectCallChecks();
  void MaybeCodegenPenalty(const Inst& original);

  EngineProfile profile_;
  AsmFile out_;
  bool base_valid_ = false;
  int mov_counter_ = 0;
  int addr_counter_ = 0;
  int spill_counter_ = 0;
};

void Instrumenter::MaybeCodegenPenalty(const Inst& original) {
  if (profile_.extra_mov_every <= 0) return;
  if (++mov_counter_ < profile_.extra_mov_every) return;
  mov_counter_ = 0;
  Reg dep = kIdx;
  if (auto d = arch::DestGpr(original); d && d->IsGpr()) dep = *d;
  Emit(MakeSelfMov(dep));
}

void Instrumenter::RewriteAccess(Inst i) {
  const bool pair = i.mn == Mn::kLdp || i.mn == Mn::kStp;
  MaterializeBase();
  // Missed addressing-mode fold: route the index through one extra move,
  // extending the address chain (see EngineProfile::addr_mov_every).
  if (profile_.addr_mov_every > 0 &&
      ++addr_counter_ >= profile_.addr_mov_every) {
    addr_counter_ = 0;
    // Extend whichever register carries the effective address.
    const Reg chain_reg =
        i.mem.IsRegOffset() && i.mem.index.IsGpr() ? i.mem.index
                                                   : i.mem.base;
    if (chain_reg.IsGpr()) Emit(MakeSelfMov(chain_reg));
  }
  // Register-pressure spill across the access.
  if (profile_.spill_every > 0 &&
      ++spill_counter_ >= profile_.spill_every) {
    spill_counter_ = 0;
    Inst spill;
    spill.mn = Mn::kStr;
    spill.width = Width::kX;
    spill.msize = 8;
    spill.rt = kIdx;
    spill.mem.base = Reg::Sp();
    spill.mem.mode = AddrMode::kPreIndex;
    spill.mem.imm = -16;
    Emit(spill);
    Inst reload = spill;
    reload.mn = Mn::kLdr;
    reload.mem.mode = AddrMode::kPostIndex;
    reload.mem.imm = 16;
    Emit(reload);
  }
  const Reg base = i.mem.base;
  const AddrMode mode = i.mem.mode;
  const int64_t imm = i.mem.imm;

  auto use_wasm_mode = [&](Inst* a, Reg index) {
    a->mem.base = kBase;
    a->mem.mode = AddrMode::kRegUxtw;
    a->mem.index = index;
    a->mem.shift = 0;
    a->mem.imm = 0;
  };

  if (pair) {
    // Wasm has no pair accesses: split into two scalar accesses.
    Inst first = i;
    first.mn = i.mn == Mn::kLdp ? Mn::kLdr : Mn::kStr;
    first.rt2 = Reg::None();
    Inst second = first;
    second.rt = i.rt2;
    int64_t off = imm;
    if (mode == AddrMode::kPostIndex) off = 0;
    Emit(MakeAddIdxImm(base, off));
    use_wasm_mode(&first, kIdx);
    Emit(first);
    Emit(MakeAddIdxImm(base, off + i.msize));
    use_wasm_mode(&second, kIdx);
    Emit(second);
    if (i.mem.HasWriteback()) Emit(MakeAddBaseImm(base, imm));
    return;
  }

  if (i.mn == Mn::kLdxr || i.mn == Mn::kStxr || i.mn == Mn::kLdar ||
      i.mn == Mn::kStlr) {
    // Atomics: compute the full address explicitly.
    Inst addr;
    addr.mn = Mn::kAddExt;
    addr.width = Width::kX;
    addr.rd = kIdx;
    addr.rn = kBase;
    addr.rm = base;
    addr.ext = Extend::kUxtw;
    Emit(addr);
    i.mem.base = kIdx;
    Emit(i);
    return;
  }

  switch (mode) {
    case AddrMode::kImm:
      if (imm == 0) {
        use_wasm_mode(&i, base);
        Emit(i);
      } else {
        Emit(MakeAddIdxImm(base, imm));
        use_wasm_mode(&i, kIdx);
        Emit(i);
      }
      return;
    case AddrMode::kPreIndex:
      Emit(MakeAddBaseImm(base, imm));
      use_wasm_mode(&i, base);
      i.mem.imm = 0;
      Emit(i);
      return;
    case AddrMode::kPostIndex: {
      Inst access = i;
      use_wasm_mode(&access, base);
      access.mem.imm = 0;
      Emit(access);
      Emit(MakeAddBaseImm(base, imm));
      return;
    }
    case AddrMode::kRegLsl:
      Emit(MakeAddIdxShift(base, i.mem.index, i.mem.shift));
      use_wasm_mode(&i, kIdx);
      Emit(i);
      return;
    case AddrMode::kRegUxtw:
    case AddrMode::kRegSxtw:
      Emit(MakeAddIdxExt(base, i.mem.index,
                         mode == AddrMode::kRegUxtw ? Extend::kUxtw
                                                    : Extend::kSxtw,
                         i.mem.shift));
      use_wasm_mode(&i, kIdx);
      Emit(i);
      return;
  }
}

void Instrumenter::EmitIndirectCallChecks() {
  // Table-bounds and type-signature validation: two context loads, a
  // compare, and a (never-taken, correctly-predicted) trap branch. This is
  // the per-indirect-call cost Section 6.2 attributes to Wasm.
  Inst sig;
  sig.mn = Mn::kLdr;
  sig.width = Width::kW;
  sig.msize = 4;
  sig.rt = kIdx;
  sig.mem.base = kCtx;
  sig.mem.mode = AddrMode::kImm;
  sig.mem.imm = 8;
  Emit(sig);
  Inst expect = sig;
  expect.mem.imm = 12;
  // Load the expected signature into the same scratch after comparing -
  // model as: load, cmp, b.ne.
  Inst cmp;
  cmp.mn = Mn::kSubsReg;
  cmp.width = Width::kW;
  cmp.rd = Reg::Zr();
  cmp.rn = kIdx;
  cmp.rm = kIdx;  // always equal: the trap is never taken
  Emit(cmp);
  Inst b;
  b.mn = Mn::kBCond;
  b.cond = arch::Cond::kNe;
  EmitStmt(AsmStmt::Branch(b, "__wasm_trap"));
  Emit(expect);
}

Result<AsmFile> Instrumenter::Run(const AsmFile& in) {
  bool prologue_emitted = false;
  bool in_text = true;
  for (const auto& s : in.stmts) {
    switch (s.kind) {
      case AsmStmt::Kind::kLabel:
        base_valid_ = false;  // joins invalidate the hoisted base
        EmitStmt(s);
        if (!prologue_emitted && s.sym == "_start") {
          // Store the linear-memory base (== sandbox base, from x21 set up
          // by the loader) into the context struct, and pin it if the
          // engine does.
          Inst adrp;
          adrp.mn = Mn::kAdrp;
          adrp.rd = kCtx;
          EmitStmt(AsmStmt::Branch(adrp, "__wasm_ctx"));
          Inst lo;
          lo.mn = Mn::kAddImm;
          lo.width = Width::kX;
          lo.rd = kCtx;
          lo.rn = kCtx;
          AsmStmt lo_s = AsmStmt::OfInst(lo);
          lo_s.reloc = asmtext::Reloc::kLo12;
          lo_s.sym = "__wasm_ctx";
          EmitStmt(lo_s);
          Inst st;
          st.mn = Mn::kStr;
          st.width = Width::kX;
          st.msize = 8;
          st.rt = arch::kRegBase;  // x21: the loader's sandbox base
          st.mem.base = kCtx;
          st.mem.mode = AddrMode::kImm;
          Emit(st);
          if (profile_.pinned_base) {
            Inst mv;
            mv.mn = Mn::kOrrReg;
            mv.width = Width::kX;
            mv.rd = kBase;
            mv.rn = Reg::Zr();
            mv.rm = arch::kRegBase;
            Emit(mv);
          }
          prologue_emitted = true;
        }
        break;
      case AsmStmt::Kind::kDirective:
        if (s.dir.kind == asmtext::Directive::Kind::kSection) {
          in_text = s.dir.section == asmtext::Section::kText;
          base_valid_ = false;
        }
        EmitStmt(s);
        break;
      case AsmStmt::Kind::kRtcall:
      case AsmStmt::Kind::kHostcall:
        base_valid_ = false;
        EmitStmt(s);
        break;
      case AsmStmt::Kind::kInst: {
        if (!in_text) {
          EmitStmt(s);
          break;
        }
        const Inst& i = s.inst;
        for (Reg r : {i.rd, i.rn, i.rm, i.ra, i.rt, i.rt2, i.rs,
                      i.mem.base, i.mem.index}) {
          if (r == kCtx || r == kBase || r == kIdx) {
            return Error{"wasm: input uses model-reserved register x" +
                         std::to_string(r.id())};
          }
        }
        if (arch::IsMemAccess(i) && !i.mem.base.IsSp()) {
          RewriteAccess(i);
          MaybeCodegenPenalty(i);
          break;
        }
        if (i.mn == Mn::kBlr || i.mn == Mn::kBr) {
          if (profile_.icall_check_insns > 0) EmitIndirectCallChecks();
          EmitStmt(s);
          base_valid_ = false;
          break;
        }
        if (arch::IsBranch(i)) {
          EmitStmt(s);
          base_valid_ = false;
          break;
        }
        EmitStmt(s);
        MaybeCodegenPenalty(i);
        break;
      }
    }
  }
  // Trap target and context struct.
  out_.stmts.push_back(AsmStmt::Label("__wasm_trap"));
  Inst trap;
  trap.mn = Mn::kBrk;
  trap.imm = 0x77;
  Emit(trap);
  asmtext::Directive data;
  data.kind = asmtext::Directive::Kind::kSection;
  data.section = asmtext::Section::kData;
  AsmStmt data_s;
  data_s.kind = AsmStmt::Kind::kDirective;
  data_s.dir = data;
  out_.stmts.push_back(data_s);
  out_.stmts.push_back(AsmStmt::Label("__wasm_ctx"));
  asmtext::Directive quads;
  quads.kind = asmtext::Directive::Kind::kQuad;
  quads.values = {0, 0, 0};
  quads.syms = {"", "", ""};
  AsmStmt quads_s;
  quads_s.kind = AsmStmt::Kind::kDirective;
  quads_s.dir = quads;
  out_.stmts.push_back(quads_s);
  return std::move(out_);
}

}  // namespace

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kWasmtime: return "wasmtime";
    case Engine::kWasm2c: return "wasm2c";
    case Engine::kWasm2cNoBarrier: return "wasm2c-nobarrier";
    case Engine::kWasm2cPinnedReg: return "wasm2c-pinned";
    case Engine::kWamr: return "wamr";
  }
  return "?";
}

EngineProfile ProfileFor(Engine e) {
  EngineProfile p;
  switch (e) {
    case Engine::kWasmtime:
      p.base_in_memory = true;
      p.hoist_base = true;
      p.extra_mov_every = 2;   // Cranelift: weakest codegen
      p.addr_mov_every = 1;    // rarely folds addressing arithmetic
      p.spill_every = 6;       // heavy register pressure
      p.icall_check_insns = 6;
      break;
    case Engine::kWasm2c:
      p.base_in_memory = true;
      p.hoist_base = false;  // the spec-conformance barrier
      // The barrier does more than force base reloads: it pins every
      // access in place, blocking LLVM's load/store elimination, access
      // folding and scheduling around it.
      p.extra_mov_every = 4;
      p.addr_mov_every = 1;
      break;
    case Engine::kWasm2cNoBarrier:
      p.base_in_memory = true;
      p.hoist_base = true;
      p.extra_mov_every = 9;
      p.addr_mov_every = 2;
      break;
    case Engine::kWasm2cPinnedReg:
      p.base_in_memory = false;
      p.pinned_base = true;
      p.extra_mov_every = 9;
      p.addr_mov_every = 3;
      break;
    case Engine::kWamr:
      p.base_in_memory = true;
      p.hoist_base = true;
      p.extra_mov_every = 7;
      p.addr_mov_every = 2;
      break;
  }
  return p;
}

Result<asmtext::AsmFile> Instrument(const asmtext::AsmFile& in, Engine e) {
  Instrumenter inst(ProfileFor(e));
  return inst.Run(in);
}

}  // namespace lfi::wasm
