#include "rewriter/rewriter.h"

#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/encode.h"
#include "runtime/layout.h"

namespace lfi::rewriter {

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

// ---- Instruction builders for the guard sequences ----

// add xDst, x21, wSrc, uxtw - the basic guard (Section 3).
Inst MakeGuard(Reg dst, Reg src) {
  Inst g;
  g.mn = Mn::kAddExt;
  g.width = Width::kX;
  g.rd = dst;
  g.rn = arch::kRegBase;
  g.rm = src;
  g.ext = Extend::kUxtw;
  g.shift_amount = 0;
  return g;
}

// add/sub w22, wN, #imm (imm may be negative).
Inst MakeAddW22Imm(Reg rn, int64_t imm) {
  Inst a;
  a.mn = imm >= 0 ? Mn::kAddImm : Mn::kSubImm;
  a.width = Width::kW;
  a.rd = arch::kRegScratch;
  a.rn = rn;
  a.imm = imm >= 0 ? imm : -imm;
  return a;
}

// add w22, wN, wM, lsl #i
Inst MakeAddW22Shift(Reg rn, Reg rm, uint8_t shift) {
  Inst a;
  a.mn = Mn::kAddReg;
  a.width = Width::kW;
  a.rd = arch::kRegScratch;
  a.rn = rn;
  a.rm = rm;
  a.shift = Shift::kLsl;
  a.shift_amount = shift;
  return a;
}

// add w22, wN, wM, {uxtw|sxtw} #i
Inst MakeAddW22Ext(Reg rn, Reg rm, Extend ext, uint8_t shift) {
  Inst a;
  a.mn = Mn::kAddExt;
  a.width = Width::kW;
  a.rd = arch::kRegScratch;
  a.rn = rn;
  a.rm = rm;
  a.ext = ext;
  a.shift_amount = shift;
  return a;
}

// add xN, xN, #imm (64-bit base update for pre/post-index splitting).
Inst MakeAddBaseImm(Reg rn, int64_t imm) {
  Inst a;
  a.mn = imm >= 0 ? Mn::kAddImm : Mn::kSubImm;
  a.width = Width::kX;
  a.rd = rn;
  a.rn = rn;
  a.imm = imm >= 0 ? imm : -imm;
  return a;
}

// mov w22, wsp (== add w22, wsp, #0): stage the stack pointer's low 32
// bits into the 32-bit-invariant scratch register (Section 4.2).
Inst MakeMovW22Wsp() {
  Inst a;
  a.mn = Mn::kAddImm;
  a.width = Width::kW;
  a.rd = arch::kRegScratch;
  a.rn = Reg::Sp();
  a.imm = 0;
  return a;
}

// mov w22, wN.
Inst MakeMovW22(Reg rn) {
  Inst a;
  a.mn = Mn::kOrrReg;
  a.width = Width::kW;
  a.rd = arch::kRegScratch;
  a.rn = Reg::Zr();
  a.rm = rn;
  return a;
}

// add sp, x21, x22 - the one-cycle stack-pointer guard.
Inst MakeSpGuard() {
  Inst a;
  a.mn = Mn::kAddReg;
  a.width = Width::kX;
  a.rd = Reg::Sp();
  a.rn = arch::kRegBase;
  a.rm = arch::kRegScratch;
  return a;
}

// Registers the rewriter refuses to see in input programs.
bool IsForbiddenInput(Reg r) { return arch::IsReservedGpr(r); }

// True if the instruction accesses memory through a base that needs no
// guard: sp (always valid, Section 4.2).
bool BaseIsSafe(const Inst& i) { return i.mem.base.IsSp(); }

// True for access instructions that support the guarded register-offset
// addressing mode (basic loads/stores only - Section 4.1 notes that
// ldp/stp and atomics must use the basic technique).
bool SupportsGuardedMode(const Inst& i) {
  return i.mn == Mn::kLdr || i.mn == Mn::kStr || i.mn == Mn::kLdrF ||
         i.mn == Mn::kStrF;
}

// True if a w-immediate add can encode `imm` in one instruction.
bool FitsW22AddImm(int64_t imm) {
  return arch::FitsAddSubImm(imm >= 0 ? imm : -imm);
}

// True if an offset may remain on a guarded access: even from the very
// edge of the sandbox it cannot reach past a guard region. 16-byte scaled
// offsets can encode up to 65520, beyond the 48KiB guard, so this check
// is not redundant with encodability.
bool OffsetStaysInGuard(int64_t imm, unsigned footprint) {
  return imm >= -static_cast<int64_t>(runtime::kGuardSize) &&
         imm + static_cast<int64_t>(footprint) <=
             static_cast<int64_t>(runtime::kGuardSize);
}

class RewriterImpl {
 public:
  RewriterImpl(const RewriteOptions& opts, RewriteStats* stats)
      : opts_(opts), stats_(stats) {}

  Result<AsmFile> Run(const AsmFile& in);

 private:
  struct HoistSlot {
    bool active = false;
    Reg base;
    Reg hreg;
  };

  void Emit(const Inst& i) {
    out_.stmts.emplace_back().inst = i;
    ++out_insts_;
  }
  void EmitStmt(const AsmStmt& s) {
    Track(s, out_.stmts.size());
    out_.stmts.push_back(s);
  }
  void EmitGuard(Reg dst, Reg src) {
    Emit(MakeGuard(dst, src));
    if (stats_) ++stats_->guards_inserted;
  }

  std::string FreshLabel() {
    return ".LFI" + std::to_string(label_counter_++);
  }

  Status CheckInputClean(const AsmFile& in) const;

  // Pass 1 workers.
  Status RewriteInst(const AsmFile& in, size_t idx);
  Status RewriteMemAccess(Inst i);
  Status RewriteSpWrite(const AsmFile& in, size_t idx, const Inst& i);
  Status RewriteX30Write(const Inst& i);
  Status ExpandRtcall(int64_t n);
  void ResetBlockState();

  // True if, scanning forward from `idx`+1 within the same basic block,
  // an sp-based memory access occurs before any other sp modification
  // (the "later access within the same basic block" elision, Section 4.2).
  bool SpAccessFollows(const AsmFile& in, size_t idx) const;

  // Redundant guard elimination (Section 4.3).
  bool HoistEligible(const Inst& i) const;
  int CountHoistable(const AsmFile& in, size_t idx, Reg base) const;
  HoistSlot* ActiveSlotFor(Reg base);
  HoistSlot* FreeSlot();
  void InvalidateSlots(const Inst& i);

  // Pass 2: tbz/tbnz range fix. Its inputs are kept up to date as
  // statements are emitted, so a file with no far test-branch costs no
  // pass over the output: the estimated address of the next statement
  // (4 bytes per instruction, 64 per directive), every label's address,
  // and every test-branch with a label target. Views point into the input
  // file, or into out_ after a rewrite until the next one.
  struct TestBranch {
    size_t idx;  // in out_
    int64_t addr;
    std::string_view target;
  };
  void Track(const AsmStmt& s, size_t idx);
  int64_t EstimatedAddr() const { return 4 * out_insts_ + 64 * out_dirs_; }
  void FixShortBranches();

  const RewriteOptions& opts_;
  RewriteStats* stats_;
  AsmFile out_;
  int64_t out_insts_ = 0;
  int64_t out_dirs_ = 0;
  std::vector<std::pair<std::string_view, int64_t>> label_addrs_;
  std::vector<TestBranch> test_branches_;
  int label_counter_ = 0;
  bool in_text_ = true;
  HoistSlot slots_[2];
};

Status RewriterImpl::CheckInputClean(const AsmFile& in) const {
  for (const auto& s : in.stmts) {
    if (s.kind != AsmStmt::Kind::kInst) continue;
    const Inst& i = s.inst;
    for (Reg r : {i.rd, i.rn, i.rm, i.ra, i.rt, i.rt2, i.rs, i.mem.base,
                  i.mem.index}) {
      if (IsForbiddenInput(r)) {
        return Status::Fail(
            "input uses reserved register " + arch::RegName(r, Width::kX) +
            " at line " + std::to_string(s.line) +
            "; compile with -ffixed-x18/x21/x22/x23/x24");
      }
    }
    if (i.mn == Mn::kSvc || i.mn == Mn::kMrs || i.mn == Mn::kMsr) {
      return Status::Fail("input contains unsafe system instruction at line " +
                          std::to_string(s.line));
    }
  }
  return Status::Ok();
}

void RewriterImpl::ResetBlockState() {
  slots_[0].active = false;
  slots_[1].active = false;
}

bool RewriterImpl::SpAccessFollows(const AsmFile& in, size_t idx) const {
  for (size_t k = idx + 1; k < in.stmts.size(); ++k) {
    const AsmStmt& s = in.stmts[k];
    if (s.kind != AsmStmt::Kind::kInst) return false;  // label/rtcall/dir
    const Inst& i = s.inst;
    if (arch::IsBranch(i)) return false;
    if (arch::IsMemAccess(i) && i.mem.base.IsSp()) return true;
    if (arch::WritesGpr(i, Reg::Sp())) return false;
  }
  return false;
}

bool RewriterImpl::HoistEligible(const Inst& i) const {
  if (!arch::IsMemAccess(i) || BaseIsSafe(i)) return false;
  if (i.mem.mode != AddrMode::kImm) return false;
  if (!opts_.sandbox_loads && arch::IsLoad(i)) return false;
  // Hoisting keeps the offset on the access, so it must stay within the
  // guard region.
  const unsigned footprint =
      (i.mn == Mn::kLdp || i.mn == Mn::kStp) ? 2u * i.msize : i.msize;
  return OffsetStaysInGuard(i.mem.imm, footprint);
}

int RewriterImpl::CountHoistable(const AsmFile& in, size_t idx,
                                 Reg base) const {
  int count = 0;
  for (size_t k = idx; k < in.stmts.size(); ++k) {
    const AsmStmt& s = in.stmts[k];
    if (s.kind != AsmStmt::Kind::kInst) break;
    const Inst& i = s.inst;
    if (HoistEligible(i) && i.mem.base == base) {
      // Only accesses that would otherwise cost an extra instruction
      // count toward the benefit: basic [xN] is already free at O1.
      if (!(SupportsGuardedMode(i) && i.mem.imm == 0)) ++count;
    }
    if (arch::IsBranch(i)) break;
    if (arch::WritesGpr(i, base)) break;
  }
  return count;
}

RewriterImpl::HoistSlot* RewriterImpl::ActiveSlotFor(Reg base) {
  for (auto& s : slots_) {
    if (s.active && s.base == base) return &s;
  }
  return nullptr;
}

RewriterImpl::HoistSlot* RewriterImpl::FreeSlot() {
  for (auto& s : slots_) {
    if (!s.active) return &s;
  }
  return nullptr;
}

void RewriterImpl::InvalidateSlots(const Inst& i) {
  for (auto& s : slots_) {
    if (s.active && arch::WritesGpr(i, s.base)) s.active = false;
  }
}

Status RewriterImpl::RewriteMemAccess(Inst i) {
  const bool is_load_only = arch::IsLoad(i) && !arch::IsStore(i);
  // "No loads" mode: leave pure loads unguarded - except that a load
  // writing x30 still needs the link-register guard, handled by caller.
  if (!opts_.sandbox_loads && is_load_only) {
    Emit(i);
    return Status::Ok();
  }

  const Reg base = i.mem.base;
  const AddrMode mode = i.mem.mode;
  const int64_t imm = i.mem.imm;

  // Offsets that could reach past the guard region (16-byte scaled
  // accesses encode up to 65520 > 48KiB) must be folded into the guarded
  // index; they may never remain on the access itself.
  const unsigned footprint =
      (i.mn == Mn::kLdp || i.mn == Mn::kStp) ? 2u * i.msize : i.msize;
  if (mode == AddrMode::kImm && !OffsetStaysInGuard(imm, footprint)) {
    // Split the offset across two 32-bit adds (imm fits in 24 bits for
    // every encodable load/store offset).
    Emit(MakeAddW22Imm(base, imm & ~int64_t{0xfff}));
    Inst lo = MakeAddW22Imm(arch::kRegScratch, imm & 0xfff);
    Emit(lo);
    if (SupportsGuardedMode(i)) {
      i.mem.base = arch::kRegBase;
      i.mem.mode = AddrMode::kRegUxtw;
      i.mem.index = arch::kRegScratch;
      i.mem.shift = 0;
      i.mem.imm = 0;
      Emit(i);
    } else {
      EmitGuard(arch::kRegAddr, arch::kRegScratch);
      i.mem.base = arch::kRegAddr;
      i.mem.imm = 0;
      Emit(i);
    }
    if (stats_) ++stats_->guards_inserted;
    return Status::Ok();
  }

  if (opts_.level == OptLevel::kO0 || !SupportsGuardedMode(i)) {
    // Basic technique: materialize a guarded base in x18.
    switch (mode) {
      case AddrMode::kImm:
        EmitGuard(arch::kRegAddr, base);
        i.mem.base = arch::kRegAddr;
        Emit(i);
        return Status::Ok();
      case AddrMode::kPreIndex:
        Emit(MakeAddBaseImm(base, imm));
        EmitGuard(arch::kRegAddr, base);
        i.mem.base = arch::kRegAddr;
        i.mem.mode = AddrMode::kImm;
        i.mem.imm = 0;
        Emit(i);
        return Status::Ok();
      case AddrMode::kPostIndex:
        EmitGuard(arch::kRegAddr, base);
        i.mem.base = arch::kRegAddr;
        i.mem.mode = AddrMode::kImm;
        i.mem.imm = 0;
        Emit(i);
        Emit(MakeAddBaseImm(base, imm));
        return Status::Ok();
      case AddrMode::kRegLsl:
        Emit(MakeAddW22Shift(base, i.mem.index, i.mem.shift));
        EmitGuard(arch::kRegAddr, arch::kRegScratch);
        i.mem.base = arch::kRegAddr;
        i.mem.mode = AddrMode::kImm;
        i.mem.imm = 0;
        i.mem.index = Reg::None();
        i.mem.shift = 0;
        Emit(i);
        return Status::Ok();
      case AddrMode::kRegUxtw:
      case AddrMode::kRegSxtw:
        Emit(MakeAddW22Ext(base, i.mem.index,
                           mode == AddrMode::kRegUxtw ? Extend::kUxtw
                                                      : Extend::kSxtw,
                           i.mem.shift));
        EmitGuard(arch::kRegAddr, arch::kRegScratch);
        i.mem.base = arch::kRegAddr;
        i.mem.mode = AddrMode::kImm;
        i.mem.imm = 0;
        i.mem.index = Reg::None();
        i.mem.shift = 0;
        Emit(i);
        return Status::Ok();
    }
    return Status::Fail("unreachable addressing mode");
  }

  // O1/O2 zero-instruction guard: Table 3 transformations.
  auto use_guarded = [&](Reg index) {
    i.mem.base = arch::kRegBase;
    i.mem.mode = AddrMode::kRegUxtw;
    i.mem.index = index;
    i.mem.shift = 0;
    i.mem.imm = 0;
  };
  switch (mode) {
    case AddrMode::kImm:
      if (imm == 0) {
        use_guarded(base);
        Emit(i);
        return Status::Ok();
      }
      if (FitsW22AddImm(imm)) {
        Emit(MakeAddW22Imm(base, imm));
        use_guarded(arch::kRegScratch);
        Emit(i);
        if (stats_) ++stats_->guards_inserted;
        return Status::Ok();
      }
      // Offset not encodable in a single w-add: fall back to the basic
      // guard, which keeps the immediate on the access itself.
      EmitGuard(arch::kRegAddr, base);
      i.mem.base = arch::kRegAddr;
      Emit(i);
      return Status::Ok();
    case AddrMode::kPreIndex:
      Emit(MakeAddBaseImm(base, imm));
      i.mem.mode = AddrMode::kImm;
      i.mem.imm = 0;
      use_guarded(base);
      Emit(i);
      if (stats_) ++stats_->guards_inserted;
      return Status::Ok();
    case AddrMode::kPostIndex:
      i.mem.mode = AddrMode::kImm;
      i.mem.imm = 0;
      use_guarded(base);
      Emit(i);
      Emit(MakeAddBaseImm(base, imm));
      if (stats_) ++stats_->guards_inserted;
      return Status::Ok();
    case AddrMode::kRegLsl:
      Emit(MakeAddW22Shift(base, i.mem.index, i.mem.shift));
      use_guarded(arch::kRegScratch);
      Emit(i);
      if (stats_) ++stats_->guards_inserted;
      return Status::Ok();
    case AddrMode::kRegUxtw:
    case AddrMode::kRegSxtw:
      Emit(MakeAddW22Ext(base, i.mem.index,
                         mode == AddrMode::kRegUxtw ? Extend::kUxtw
                                                    : Extend::kSxtw,
                         i.mem.shift));
      use_guarded(arch::kRegScratch);
      Emit(i);
      if (stats_) ++stats_->guards_inserted;
      return Status::Ok();
  }
  return Status::Fail("unreachable addressing mode");
}

Status RewriterImpl::RewriteSpWrite(const AsmFile& in, size_t idx,
                                    const Inst& i) {
  // Small add/sub sp, sp, #imm followed by an sp access in the same basic
  // block: the access will trap in the guard region if sp drifted out, so
  // the guard can be elided (Section 4.2).
  if ((i.mn == Mn::kAddImm || i.mn == Mn::kSubImm) && i.rn.IsSp()) {
    if (opts_.sp_elision && i.imm < 1024 && SpAccessFollows(in, idx)) {
      Emit(i);
      if (stats_) ++stats_->guards_elided_sp;
      return Status::Ok();
    }
    Emit(i);
    Emit(MakeMovW22Wsp());
    Emit(MakeSpGuard());
    if (stats_) ++stats_->guards_inserted;
    return Status::Ok();
  }
  // mov sp, xN (add sp, xN, #0) and any other arithmetic producing sp:
  // stage through w22 and re-guard.
  if (i.mn == Mn::kAddImm && i.imm == 0 && i.rn.IsGpr()) {
    Emit(MakeMovW22(i.rn));
    Emit(MakeSpGuard());
    if (stats_) ++stats_->guards_inserted;
    return Status::Ok();
  }
  // General case: perform the arithmetic into w22 where possible.
  if (i.mn == Mn::kAddImm || i.mn == Mn::kSubImm) {
    // add sp, xN, #imm -> add w22, wN, #imm; add sp, x21, x22.
    Inst a = i;
    a.rd = arch::kRegScratch;
    a.width = Width::kW;
    if (a.rn.IsSp()) {
      Emit(MakeMovW22Wsp());
      a.rn = arch::kRegScratch;
    }
    Emit(a);
    Emit(MakeSpGuard());
    if (stats_) ++stats_->guards_inserted;
    return Status::Ok();
  }
  return Status::Fail("unsupported write to sp at line " +
                      std::to_string(in.stmts[idx].line));
}

Status RewriterImpl::RewriteX30Write(const Inst& i) {
  // mov x30, xN -> guard directly.
  if (i.mn == Mn::kOrrReg && i.rn.IsZr() && i.shift_amount == 0 &&
      i.width == Width::kX) {
    EmitGuard(arch::kRegLink, i.rm);
    return Status::Ok();
  }
  // Other ALU results: compute into w22, then guard into x30.
  Inst a = i;
  a.rd = arch::kRegScratch;
  a.width = Width::kW;
  Emit(a);
  EmitGuard(arch::kRegLink, arch::kRegScratch);
  return Status::Ok();
}

Status RewriterImpl::ExpandRtcall(int64_t n) {
  if (n < 0 || static_cast<uint64_t>(n) >= runtime::kCallTableBytes / 8) {
    return Status::Fail("rtcall number out of range: " + std::to_string(n));
  }
  if (opts_.save_restore_x30) {
    Inst save;
    save.mn = Mn::kStr;
    save.width = Width::kX;
    save.msize = 8;
    save.rt = arch::kRegLink;
    save.mem.base = Reg::Sp();
    save.mem.mode = AddrMode::kPreIndex;
    save.mem.imm = -16;
    Emit(save);
  }
  Inst load;
  load.mn = Mn::kLdr;
  load.width = Width::kX;
  load.msize = 8;
  load.rt = arch::kRegLink;
  load.mem.base = arch::kRegBase;
  load.mem.mode = AddrMode::kImm;
  load.mem.imm = 8 * n;
  Emit(load);
  Inst blr;
  blr.mn = Mn::kBlr;
  blr.rn = arch::kRegLink;
  Emit(blr);
  if (opts_.save_restore_x30) {
    Inst restore;
    restore.mn = Mn::kLdr;
    restore.width = Width::kX;
    restore.msize = 8;
    restore.rt = arch::kRegLink;
    restore.mem.base = Reg::Sp();
    restore.mem.mode = AddrMode::kPostIndex;
    restore.mem.imm = 16;
    Emit(restore);
    EmitGuard(arch::kRegLink, arch::kRegLink);
  }
  return Status::Ok();
}

Status RewriterImpl::RewriteInst(const AsmFile& in, size_t idx) {
  const AsmStmt& stmt = in.stmts[idx];
  Inst i = stmt.inst;

  // Indirect branches (Table 2): force the target into the sandbox.
  if (arch::IsIndirectBranch(i)) {
    if (i.mn == Mn::kRet && i.rn == arch::kRegLink) {
      Emit(i);  // x30 invariant makes plain ret safe
      return Status::Ok();
    }
    EmitGuard(arch::kRegAddr, i.rn);
    i.rn = arch::kRegAddr;
    Emit(i);
    return Status::Ok();
  }

  // Writes to sp.
  if (arch::WritesGpr(i, Reg::Sp()) && !arch::IsMemAccess(i)) {
    return RewriteSpWrite(in, idx, i);
  }

  // ALU writes to x30 (bl/blr handled as branches; loads below).
  if (!arch::IsMemAccess(i) && !arch::IsBranch(i) &&
      arch::WritesGpr(i, arch::kRegLink)) {
    return RewriteX30Write(i);
  }

  // Memory accesses.
  if (arch::IsMemAccess(i)) {
    const bool loads_x30 =
        arch::IsLoad(i) &&
        (i.rt == arch::kRegLink ||
         (i.mn == Mn::kLdp && i.rt2 == arch::kRegLink));
    Status st;
    if (BaseIsSafe(i)) {
      // sp-based: immediate modes (incl. pre/post-index writeback) are
      // safe as-is (Section 4.2); register-offset modes are staged
      // through w22.
      if (i.mem.IsRegOffset()) {
        Emit(MakeMovW22Wsp());
        if (i.mem.mode == AddrMode::kRegLsl) {
          Emit(MakeAddW22Shift(arch::kRegScratch, i.mem.index, i.mem.shift));
        } else {
          Emit(MakeAddW22Ext(arch::kRegScratch, i.mem.index,
                             i.mem.mode == AddrMode::kRegUxtw
                                 ? Extend::kUxtw
                                 : Extend::kSxtw,
                             i.mem.shift));
        }
        if (SupportsGuardedMode(i)) {
          i.mem.base = arch::kRegBase;
          i.mem.mode = AddrMode::kRegUxtw;
          i.mem.index = arch::kRegScratch;
          i.mem.shift = 0;
          Emit(i);
        } else {
          EmitGuard(arch::kRegAddr, arch::kRegScratch);
          i.mem.base = arch::kRegAddr;
          i.mem.mode = AddrMode::kImm;
          i.mem.imm = 0;
          i.mem.index = Reg::None();
          Emit(i);
        }
        if (stats_) ++stats_->guards_inserted;
        st = Status::Ok();
      } else {
        Emit(i);
        st = Status::Ok();
      }
    } else {
      // Redundant guard elimination: reuse or establish a hoisted base.
      // Only accesses that would otherwise need an extra instruction are
      // routed through the hoisting register: a basic [xN] access is
      // already free under the zero-instruction guard, and forcing it
      // through the hoisted base would put the two-cycle guard into its
      // address chain for no benefit.
      const bool hoist_worthwhile =
          !(SupportsGuardedMode(i) && i.mem.mode == AddrMode::kImm &&
            i.mem.imm == 0);
      if (opts_.level == OptLevel::kO2 && HoistEligible(i) &&
          hoist_worthwhile) {
        if (HoistSlot* slot = ActiveSlotFor(i.mem.base)) {
          Inst h = i;
          h.mem.base = slot->hreg;
          Emit(h);
          if (stats_) ++stats_->guards_hoisted;
          if (loads_x30) EmitGuard(arch::kRegLink, arch::kRegLink);
          InvalidateSlots(i);
          return Status::Ok();
        }
        if (CountHoistable(in, idx, i.mem.base) >= 2) {
          if (HoistSlot* slot = FreeSlot()) {
            slot->active = true;
            slot->base = i.mem.base;
            slot->hreg = slot == &slots_[0] ? arch::kRegHoist0
                                            : arch::kRegHoist1;
            EmitGuard(slot->hreg, i.mem.base);
            Inst h = i;
            h.mem.base = slot->hreg;
            Emit(h);
            if (stats_) ++stats_->guards_hoisted;
            if (loads_x30) EmitGuard(arch::kRegLink, arch::kRegLink);
            InvalidateSlots(i);
            return Status::Ok();
          }
        }
      }
      st = RewriteMemAccess(i);
    }
    if (!st.ok()) return st;
    if (loads_x30) {
      EmitGuard(arch::kRegLink, arch::kRegLink);
    }
    InvalidateSlots(i);
    return Status::Ok();
  }

  // Everything else passes through.
  Emit(i);
  InvalidateSlots(i);
  return Status::Ok();
}

void RewriterImpl::Track(const AsmStmt& s, size_t idx) {
  switch (s.kind) {
    case AsmStmt::Kind::kLabel:
      label_addrs_.emplace_back(s.sym, EstimatedAddr());
      break;
    case AsmStmt::Kind::kDirective:
      ++out_dirs_;
      break;
    case AsmStmt::Kind::kInst:
      if ((s.inst.mn == Mn::kTbz || s.inst.mn == Mn::kTbnz) &&
          !s.sym.empty()) {
        test_branches_.push_back({idx, EstimatedAddr(), s.sym});
      }
      ++out_insts_;
      break;
    case AsmStmt::Kind::kRtcall:
    case AsmStmt::Kind::kHostcall:
      break;  // expanded, never emitted
  }
}

void RewriterImpl::FixShortBranches() {
  // tbz/tbnz reach only +-32KiB; inserted guards may push a target out of
  // range (Section 5.1). Estimate addresses conservatively (every
  // instruction 4 bytes, every directive 64, ignoring section gaps within
  // .text) and rewrite over-distance test-branches into an inverted-skip +
  // unconditional branch pair. Iterate to a fixpoint since rewriting grows
  // code. No distance can exceed the whole file's estimated size.
  constexpr int64_t kLimit = 30000;  // margin below the 32764-byte reach
  std::unordered_map<std::string_view, int64_t> labels;
  std::vector<size_t> far;
  while (!test_branches_.empty() && EstimatedAddr() > kLimit) {
    labels.clear();
    labels.reserve(label_addrs_.size());
    for (const auto& [name, addr] : label_addrs_) labels[name] = addr;
    // Label addresses are those from the start of the pass; each rewrite
    // moves the test-branches after it by 4 bytes.
    far.clear();
    int64_t grown = 0;
    for (const TestBranch& b : test_branches_) {
      auto it = labels.find(b.target);
      const int64_t dist =
          it == labels.end() ? 0 : it->second - (b.addr + grown);
      if (dist > kLimit || dist < -kLimit) {
        far.push_back(b.idx);
        grown += 4;
      }
    }
    if (far.empty()) return;
    if (stats_) stats_->tbz_rewritten += far.size();
    std::vector<AsmStmt> next;
    next.reserve(out_.stmts.size() + 2 * far.size());
    size_t from = 0;
    for (const size_t k : far) {
      std::move(out_.stmts.begin() + static_cast<ptrdiff_t>(from),
                out_.stmts.begin() + static_cast<ptrdiff_t>(k),
                std::back_inserter(next));
      from = k + 1;
      // tbz rt,#b,far  =>  tbnz rt,#b,skip ; b far ; skip:
      AsmStmt& inv = next.emplace_back(std::move(out_.stmts[k]));
      std::string target = std::move(inv.sym);
      inv.inst.mn = inv.inst.mn == Mn::kTbz ? Mn::kTbnz : Mn::kTbz;
      inv.sym = FreshLabel();
      std::string skip = inv.sym;
      Inst b;
      b.mn = Mn::kB;
      next.push_back(AsmStmt::Branch(b, std::move(target)));
      next.push_back(AsmStmt::Label(std::move(skip)));
    }
    std::move(out_.stmts.begin() + static_cast<ptrdiff_t>(from),
              out_.stmts.end(), std::back_inserter(next));
    out_.stmts = std::move(next);
    out_insts_ = out_dirs_ = 0;
    label_addrs_.clear();
    test_branches_.clear();
    for (size_t k = 0; k < out_.stmts.size(); ++k) Track(out_.stmts[k], k);
  }
}

Result<AsmFile> RewriterImpl::Run(const AsmFile& in) {
  // Native-mode input (no guards) may legitimately read the reserved
  // registers (e.g. the Wasm models read x21 to learn the load base), so
  // the cleanliness check only applies when guards are inserted.
  if (opts_.insert_guards) {
    if (auto st = CheckInputClean(in); !st.ok()) return Error{st.error()};
  }
  // Guards and runtime-call expansions grow most files by well under half
  // their statement count; a larger growth costs one reallocation.
  out_.stmts.reserve(in.stmts.size() + in.stmts.size() / 2);
  in_text_ = true;
  for (size_t idx = 0; idx < in.stmts.size(); ++idx) {
    const AsmStmt& s = in.stmts[idx];
    switch (s.kind) {
      case AsmStmt::Kind::kLabel:
        ResetBlockState();
        EmitStmt(s);
        break;
      case AsmStmt::Kind::kDirective:
        if (s.dir.kind == asmtext::Directive::Kind::kSection) {
          in_text_ = s.dir.section == asmtext::Section::kText;
          ResetBlockState();
        }
        EmitStmt(s);
        break;
      case AsmStmt::Kind::kRtcall: {
        ResetBlockState();
        auto st = ExpandRtcall(s.inst.imm);
        if (!st.ok()) {
          return Error{st.error() + " at line " + std::to_string(s.line)};
        }
        break;
      }
      case AsmStmt::Kind::kHostcall: {
        ResetBlockState();
        if (s.inst.imm < 0 || s.inst.imm > 0xffff) {
          return Error{"hostcall index out of range: " +
                       std::to_string(s.inst.imm) + " at line " +
                       std::to_string(s.line)};
        }
        // movz x9, #i: the kHostcall rtcall reads the callback slot index
        // from x9 (see runtime/layout.h).
        Inst mv;
        mv.mn = Mn::kMovz;
        mv.width = Width::kX;
        mv.rd = Reg::X(9);
        mv.imm = s.inst.imm;
        Emit(mv);
        auto st =
            ExpandRtcall(static_cast<int64_t>(runtime::Rtcall::kHostcall));
        if (!st.ok()) {
          return Error{st.error() + " at line " + std::to_string(s.line)};
        }
        break;
      }
      case AsmStmt::Kind::kInst: {
        if (!in_text_) {
          return Error{"instruction outside .text at line " +
                       std::to_string(s.line)};
        }
        if (stats_) ++stats_->input_insts;
        if (!opts_.insert_guards) {
          EmitStmt(s);
          break;
        }
        if (arch::IsBranch(s.inst)) {
          // Branch targets (labels) travel with the statement.
          if (arch::IsIndirectBranch(s.inst)) {
            auto st = RewriteInst(in, idx);
            if (!st.ok()) return Error{st.error()};
          } else {
            EmitStmt(s);
          }
          ResetBlockState();
        } else if (s.reloc != asmtext::Reloc::kNone) {
          // adr/adrp and :lo12: adds carry a label; they never need
          // guarding themselves (the registers they write are guarded at
          // the eventual memory access), so preserve them verbatim.
          EmitStmt(s);
          InvalidateSlots(s.inst);
        } else {
          auto st = RewriteInst(in, idx);
          if (!st.ok()) return Error{st.error()};
        }
        break;
      }
    }
  }
  FixShortBranches();
  if (stats_) stats_->output_insts += static_cast<size_t>(out_insts_);
  return std::move(out_);
}

}  // namespace

Result<asmtext::AsmFile> Rewrite(const asmtext::AsmFile& in,
                                 const RewriteOptions& opts,
                                 RewriteStats* stats) {
  RewriterImpl impl(opts, stats);
  return impl.Run(in);
}

}  // namespace lfi::rewriter
