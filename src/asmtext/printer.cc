#include "asmtext/printer.h"

#include <sstream>

namespace lfi::asmtext {

namespace {

using arch::AddrMode;
using arch::Extend;
using arch::FpSize;
using arch::Inst;
using arch::Mn;
using arch::Reg;
using arch::RegName;
using arch::Shift;
using arch::VRegName;
using arch::Width;

const char* ShiftName(Shift s) {
  switch (s) {
    case Shift::kLsl: return "lsl";
    case Shift::kLsr: return "lsr";
    case Shift::kAsr: return "asr";
    case Shift::kRor: return "ror";
  }
  return "??";
}

const char* ExtendName(Extend e) {
  switch (e) {
    case Extend::kUxtb: return "uxtb";
    case Extend::kUxth: return "uxth";
    case Extend::kUxtw: return "uxtw";
    case Extend::kUxtx: return "uxtx";
    case Extend::kSxtb: return "sxtb";
    case Extend::kSxth: return "sxth";
    case Extend::kSxtw: return "sxtw";
    case Extend::kSxtx: return "sxtx";
  }
  return "??";
}

// Width of the register used to produce the extended operand.
Width ExtendSrcWidth(Extend e) {
  return (e == Extend::kUxtx || e == Extend::kSxtx) ? Width::kX : Width::kW;
}

std::string MemStr(const Inst& i) {
  const auto& m = i.mem;
  std::ostringstream os;
  switch (m.mode) {
    case AddrMode::kImm:
      if (m.imm == 0) {
        os << "[" << RegName(m.base, Width::kX) << "]";
      } else {
        os << "[" << RegName(m.base, Width::kX) << ", #" << m.imm << "]";
      }
      break;
    case AddrMode::kPreIndex:
      os << "[" << RegName(m.base, Width::kX) << ", #" << m.imm << "]!";
      break;
    case AddrMode::kPostIndex:
      os << "[" << RegName(m.base, Width::kX) << "], #" << m.imm;
      break;
    case AddrMode::kRegLsl:
      os << "[" << RegName(m.base, Width::kX) << ", "
         << RegName(m.index, Width::kX);
      if (m.shift != 0) os << ", lsl #" << int{m.shift};
      os << "]";
      break;
    case AddrMode::kRegUxtw:
    case AddrMode::kRegSxtw:
      os << "[" << RegName(m.base, Width::kX) << ", "
         << RegName(m.index, Width::kW) << ", "
         << (m.mode == AddrMode::kRegUxtw ? "uxtw" : "sxtw");
      if (m.shift != 0) os << " #" << int{m.shift};
      os << "]";
      break;
  }
  return os.str();
}

// Transfer-register name for integer loads/stores (size-dependent view).
std::string RtName(const Inst& i) {
  // Sub-word accesses use the w view; 8-byte use x; ldrsw/ldrs* follow the
  // instruction's width.
  if (i.msigned || i.msize == 8) return RegName(i.rt, i.width);
  if (i.msize < 8) return RegName(i.rt, i.msize == 4 ? i.width : Width::kW);
  return RegName(i.rt, i.width);
}

std::string InstStr(const AsmStmt& s) {
  const Inst& i = s.inst;
  const Width w = i.width;
  std::ostringstream os;
  os << MnName(i) << " ";
  auto reg = [&](Reg r) { return RegName(r, w); };
  switch (i.mn) {
    case Mn::kAddImm: case Mn::kAddsImm: case Mn::kSubImm: case Mn::kSubsImm:
      os << reg(i.rd) << ", " << reg(i.rn) << ", ";
      if (s.reloc == Reloc::kLo12) {
        os << ":lo12:" << s.sym;
      } else {
        os << "#" << i.imm;
      }
      break;
    case Mn::kAndImm: case Mn::kAndsImm: case Mn::kOrrImm: case Mn::kEorImm:
      os << reg(i.rd) << ", " << reg(i.rn) << ", #" << i.imm;
      break;
    case Mn::kAddReg: case Mn::kAddsReg: case Mn::kSubReg: case Mn::kSubsReg:
    case Mn::kAndReg: case Mn::kAndsReg: case Mn::kOrrReg: case Mn::kEorReg:
    case Mn::kBicReg:
      os << reg(i.rd) << ", " << reg(i.rn) << ", " << reg(i.rm);
      if (i.shift_amount != 0) {
        os << ", " << ShiftName(i.shift) << " #" << int{i.shift_amount};
      }
      break;
    case Mn::kAddExt: case Mn::kSubExt:
      os << reg(i.rd) << ", " << reg(i.rn) << ", "
         << RegName(i.rm, ExtendSrcWidth(i.ext)) << ", " << ExtendName(i.ext);
      if (i.shift_amount != 0) os << " #" << int{i.shift_amount};
      break;
    case Mn::kMovz: case Mn::kMovn: case Mn::kMovk:
      os << reg(i.rd) << ", #" << i.imm;
      if (i.shift_amount != 0) os << ", lsl #" << int{i.shift_amount};
      break;
    case Mn::kUbfm: case Mn::kSbfm:
      os << reg(i.rd) << ", " << reg(i.rn) << ", #" << int{i.immr} << ", #"
         << int{i.imms};
      break;
    case Mn::kMadd: case Mn::kMsub:
      os << reg(i.rd) << ", " << reg(i.rn) << ", " << reg(i.rm) << ", "
         << reg(i.ra);
      break;
    case Mn::kSdiv: case Mn::kUdiv: case Mn::kUmulh: case Mn::kSmulh:
      os << reg(i.rd) << ", " << reg(i.rn) << ", " << reg(i.rm);
      break;
    case Mn::kExtr:
      os << reg(i.rd) << ", " << reg(i.rn) << ", " << reg(i.rm) << ", #"
         << int{i.imms};
      break;
    case Mn::kCcmp: case Mn::kCcmpImm: case Mn::kCcmn: case Mn::kCcmnImm: {
      static const char* kCondN[] = {"eq", "ne", "hs", "lo", "mi", "pl",
                                     "vs", "vc", "hi", "ls", "ge", "lt",
                                     "gt", "le", "al"};
      os << reg(i.rn) << ", ";
      if (i.mn == Mn::kCcmpImm || i.mn == Mn::kCcmnImm) {
        os << "#" << i.imm;
      } else {
        os << reg(i.rm);
      }
      os << ", #" << int{i.nzcv} << ", " << kCondN[static_cast<int>(i.cond)];
      break;
    }
    case Mn::kCsel: case Mn::kCsinc: case Mn::kCsinv: case Mn::kCsneg: {
      static const char* kCond[] = {"eq", "ne", "hs", "lo", "mi", "pl",
                                    "vs", "vc", "hi", "ls", "ge", "lt",
                                    "gt", "le", "al"};
      os << reg(i.rd) << ", " << reg(i.rn) << ", " << reg(i.rm) << ", "
         << kCond[static_cast<int>(i.cond)];
      break;
    }
    case Mn::kClz: case Mn::kRbit: case Mn::kRev:
      os << reg(i.rd) << ", " << reg(i.rn);
      break;
    case Mn::kAdr: case Mn::kAdrp:
      os << RegName(i.rd, Width::kX) << ", " << s.sym;
      break;
    case Mn::kLdr: case Mn::kStr:
      os << RtName(i) << ", " << MemStr(i);
      break;
    case Mn::kLdp: case Mn::kStp:
      os << reg(i.rt) << ", " << reg(i.rt2) << ", " << MemStr(i);
      break;
    case Mn::kLdxr: case Mn::kLdar: case Mn::kStlr:
      os << reg(i.rt) << ", " << MemStr(i);
      break;
    case Mn::kStxr:
      os << RegName(i.rs, Width::kW) << ", " << reg(i.rt) << ", "
         << MemStr(i);
      break;
    case Mn::kLdrF: case Mn::kStrF:
      os << VRegName(i.vt, i.fsize) << ", " << MemStr(i);
      break;
    case Mn::kB: case Mn::kBl: case Mn::kBCond:
      os << s.sym;
      break;
    case Mn::kCbz: case Mn::kCbnz:
      os << reg(i.rt) << ", " << s.sym;
      break;
    case Mn::kTbz: case Mn::kTbnz:
      os << RegName(i.rt, i.width) << ", #" << int{i.bit} << ", " << s.sym;
      break;
    case Mn::kBr: case Mn::kBlr:
      os << RegName(i.rn, Width::kX);
      break;
    case Mn::kRet:
      if (i.rn != Reg::X(30)) os << RegName(i.rn, Width::kX);
      break;
    case Mn::kFadd: case Mn::kFsub: case Mn::kFmul: case Mn::kFdiv:
    case Mn::kVAdd: case Mn::kVFadd: case Mn::kVFmul:
      os << VRegName(i.vd, i.fsize) << ", " << VRegName(i.vn, i.fsize) << ", "
         << VRegName(i.vm, i.fsize);
      break;
    case Mn::kFsqrt:
      os << VRegName(i.vd, i.fsize) << ", " << VRegName(i.vn, i.fsize);
      break;
    case Mn::kFmadd:
      os << VRegName(i.vd, i.fsize) << ", " << VRegName(i.vn, i.fsize) << ", "
         << VRegName(i.vm, i.fsize) << ", " << VRegName(i.va, i.fsize);
      break;
    case Mn::kFcmp:
      os << VRegName(i.vn, i.fsize) << ", " << VRegName(i.vm, i.fsize);
      break;
    case Mn::kScvtf:
      os << VRegName(i.vd, i.fsize) << ", " << RegName(i.rn, i.width);
      break;
    case Mn::kFcvtzs:
      os << RegName(i.rd, i.width) << ", " << VRegName(i.vn, i.fsize);
      break;
    case Mn::kFmov:
      if (!i.vd.IsNone() && !i.vn.IsNone()) {
        os << VRegName(i.vd, i.fsize) << ", " << VRegName(i.vn, i.fsize);
      } else if (!i.rd.IsNone()) {
        os << RegName(i.rd, i.width) << ", " << VRegName(i.vn, i.fsize);
      } else {
        os << VRegName(i.vd, i.fsize) << ", " << RegName(i.rn, i.width);
      }
      break;
    case Mn::kNop:
      break;
    case Mn::kSvc: case Mn::kBrk:
      os << "#" << i.imm;
      break;
    case Mn::kMrs: case Mn::kMsr:
      os << RegName(i.rt, Width::kX) << ", #" << i.imm;
      break;
  }
  std::string out = os.str();
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string DirectiveStr(const AsmStmt& s) {
  const Directive& d = s.dir;
  std::ostringstream os;
  switch (d.kind) {
    case Directive::Kind::kSection:
      switch (d.section) {
        case Section::kText: os << ".text"; break;
        case Section::kData: os << ".data"; break;
        case Section::kRodata: os << ".section .rodata"; break;
        case Section::kBss: os << ".bss"; break;
      }
      break;
    case Directive::Kind::kGlobl:
      os << ".globl " << s.sym;
      break;
    case Directive::Kind::kBalign:
      os << ".balign " << d.values.at(0);
      break;
    case Directive::Kind::kByte:
    case Directive::Kind::kWord:
    case Directive::Kind::kQuad: {
      os << (d.kind == Directive::Kind::kByte
                 ? ".byte "
                 : d.kind == Directive::Kind::kWord ? ".word " : ".quad ");
      for (size_t k = 0; k < d.values.size(); ++k) {
        if (k) os << ", ";
        if (!d.syms[k].empty()) {
          os << d.syms[k];
        } else {
          os << d.values[k];
        }
      }
      break;
    }
    case Directive::Kind::kAsciz: {
      os << ".asciz \"";
      for (size_t k = 0; k < s.sym.size(); ++k) {
        const char c = s.sym[k];
        switch (c) {
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\0': os << "\\0"; break;
          case '\\': os << "\\\\"; break;
          case '"': os << "\\\""; break;
          case '/':  // a second `/` in a row would start a comment
            os << (k > 0 && s.sym[k - 1] == '/' ? "\\/" : "/");
            break;
          default: os << c;
        }
      }
      os << "\"";
      break;
    }
    case Directive::Kind::kZero:
      os << ".zero " << d.values.at(0);
      break;
  }
  return os.str();
}

}  // namespace

std::string PrintStmt(const AsmStmt& s) {
  switch (s.kind) {
    case AsmStmt::Kind::kLabel:
      return s.sym + ":";
    case AsmStmt::Kind::kDirective:
      return DirectiveStr(s);
    case AsmStmt::Kind::kRtcall:
      return "rtcall #" + std::to_string(s.inst.imm);
    case AsmStmt::Kind::kHostcall:
      return "hostcall #" + std::to_string(s.inst.imm);
    case AsmStmt::Kind::kInst:
      return "\t" + InstStr(s);
  }
  return "";
}

std::string Print(const AsmFile& file) {
  std::string out;
  for (const auto& s : file.stmts) {
    out += PrintStmt(s);
    out += "\n";
  }
  return out;
}

}  // namespace lfi::asmtext
