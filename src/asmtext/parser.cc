#include "asmtext/parser.h"

#include <algorithm>
#include <optional>

namespace lfi::asmtext {

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

// ----- Characters (ASCII, as <cctype> classifies them in the C locale) -----

constexpr char ToLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsIdentChar(char c) {
  const char l = ToLower(c);
  return IsDigit(c) || (l >= 'a' && l <= 'z') || c == '_' || c == '.' ||
         c == '$';
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && IsSpace(s.front())) s.remove_prefix(1);
  while (!s.empty() && IsSpace(s.back())) s.remove_suffix(1);
  return s;
}

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = ToLower(c);
  return out;
}

// Up to eight lowercased bytes of `s` packed little-endian: the dispatch key
// for mnemonics, directives and operand keywords. Longer names, and names
// holding a NUL (which would alias a shorter one), get 0, which no keyword
// has.
constexpr uint64_t Key(std::string_view s) {
  if (s.size() > 8) return 0;
  uint64_t k = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\0') return 0;
    k |= uint64_t{static_cast<unsigned char>(ToLower(s[i]))} << (8 * i);
  }
  return k;
}

// The lowercased name a nonzero key was packed from.
std::string KeyName(uint64_t k) {
  std::string out;
  for (; k != 0; k >>= 8) out.push_back(static_cast<char>(k & 0xff));
  return out;
}

// Index of the first space or tab in `s`, or s.size().
size_t WordEnd(std::string_view s) {
  size_t k = 0;
  while (k < s.size() && s[k] != ' ' && s[k] != '\t') ++k;
  return k;
}

// The top-level comma-separated pieces of an operand list, each trimmed;
// commas inside [...] do not split, and a trailing empty piece is dropped.
class Pieces {
 public:
  explicit Pieces(std::string_view s) : s_(s) {}

  bool Next(std::string_view* piece) {
    for (size_t k = pos_; k < s_.size(); ++k) {
      if (s_[k] == '[') {
        ++depth_;
      } else if (s_[k] == ']') {
        --depth_;
      } else if (s_[k] == ',' && depth_ == 0) {
        *piece = Trim(s_.substr(pos_, k - pos_));
        pos_ = k + 1;
        return true;
      }
    }
    if (pos_ > s_.size()) return false;
    *piece = Trim(s_.substr(pos_));
    pos_ = s_.size() + 1;
    return !piece->empty();
  }

 private:
  std::string_view s_;
  size_t pos_ = 0;
  int depth_ = 0;  // a stray `]` takes it below zero, and commas stop splitting
};

// ----- Operands -----

// A lexed operand. Plain data: a symbol stays a slice of the source line
// until a builder copies it into the statement.
struct Operand {
  enum class Kind : uint8_t {
    kReg,     // x0 / w3 / sp / wsp / xzr / wzr
    kVReg,    // s0 / d4 / q2 / v1.4s / v1.2d
    kImm,     // #123 / 123 / #-8 / #0x10
    kMem,     // [ ... ] possibly with !; a post-index immediate is the line's
    kShift,   // lsl #3 / lsr #1 / asr #2 / ror #4
    kExtend,  // uxtw / sxtw #2 / ...
    kLo12,    // :lo12:sym
    kLabel,   // anything else: a label, or a condition where one is expected
  };
  enum class OffKind : uint8_t { kNone, kImm, kReg, kLo12 };
  enum class ExtKind : uint8_t { kNone, kShift, kExtend };

  Kind kind = Kind::kLabel;
  Reg reg;
  Width reg_width = Width::kX;
  VReg vreg;
  FpSize fsize = FpSize::kD;
  int64_t imm = 0;              // kImm; a kMem's immediate offset
  std::string_view sym;         // kLabel / kLo12; a kMem's :lo12: offset
  Shift shift = Shift::kLsl;    // kShift; a kMem's shift
  Extend ext = Extend::kUxtx;   // kExtend; a kMem's extend
  int64_t amount = 0;           // shift/extend amount, 0 if absent
  // kMem only.
  Reg mem_base;
  Reg off_reg;
  Width off_width = Width::kX;
  OffKind off_kind = OffKind::kNone;
  ExtKind ext_kind = ExtKind::kNone;
  bool writeback = false;
};

// A lexed instruction line. Builders read at most the first four operands;
// any past kMaxOps are still lexed (for their errors) and counted.
struct Line {
  static constexpr size_t kMaxOps = 4;
  std::string_view mnemonic;  // as written
  uint64_t key = 0;           // Key(mnemonic)
  Operand ops[kMaxOps];
  Operand spill;
  size_t n = 0;                     // operand count
  std::optional<int64_t> post_imm;  // `[xN], #i`; the last one wins

  Operand* Slot() { return n < kMaxOps ? &ops[n] : &spill; }
};

std::optional<Cond> ParseCond(std::string_view s) {
  if (s.size() != 2) return std::nullopt;
  switch (Key(s)) {
    case Key("eq"): return Cond::kEq;
    case Key("ne"): return Cond::kNe;
    case Key("hs"): case Key("cs"): return Cond::kHs;
    case Key("lo"): case Key("cc"): return Cond::kLo;
    case Key("mi"): return Cond::kMi;
    case Key("pl"): return Cond::kPl;
    case Key("vs"): return Cond::kVs;
    case Key("vc"): return Cond::kVc;
    case Key("hi"): return Cond::kHi;
    case Key("ls"): return Cond::kLs;
    case Key("ge"): return Cond::kGe;
    case Key("lt"): return Cond::kLt;
    case Key("gt"): return Cond::kGt;
    case Key("le"): return Cond::kLe;
    case Key("al"): return Cond::kAl;
    default: return std::nullopt;
  }
}

Cond Invert(Cond c) {
  return static_cast<Cond>(static_cast<uint8_t>(c) ^ 1);
}

// The register number spelled by the digits `s`, or -1 if a character is
// not a digit. Values past 1000 saturate, so x4294967297 stays out of
// range instead of wrapping to x1.
int RegNumber(std::string_view s) {
  int n = 0;
  for (const char c : s) {
    if (!IsDigit(c)) return -1;
    n = std::min(n * 10 + (c - '0'), 1000);
  }
  return n;
}

// std::atoi with the same saturation: the number in v<n>.<T>.
int AtoiNumber(std::string_view s) {
  size_t k = 0;
  while (k < s.size() && IsSpace(s[k])) ++k;
  const bool neg = k < s.size() && s[k] == '-';
  if (k < s.size() && (s[k] == '-' || s[k] == '+')) ++k;
  int n = 0;
  for (; k < s.size() && IsDigit(s[k]); ++k) {
    n = std::min(n * 10 + (s[k] - '0'), 1000);
  }
  return neg ? -n : n;
}

bool LexGpr(std::string_view s, Reg* reg, Width* width) {
  if (s.size() < 2) return false;
  if (s.size() <= 3) {
    switch (Key(s)) {
      case Key("sp"): *reg = Reg::Sp(); *width = Width::kX; return true;
      case Key("wsp"): *reg = Reg::Sp(); *width = Width::kW; return true;
      case Key("xzr"): *reg = Reg::Zr(); *width = Width::kX; return true;
      case Key("wzr"): *reg = Reg::Zr(); *width = Width::kW; return true;
      default: break;
    }
  }
  const char c = ToLower(s[0]);
  if (c != 'x' && c != 'w') return false;
  const int n = RegNumber(s.substr(1));
  if (n < 0 || n > 30) return false;
  *reg = Reg::X(static_cast<uint8_t>(n));
  *width = c == 'x' ? Width::kX : Width::kW;
  return true;
}

bool LexVReg(std::string_view s, VReg* vreg, FpSize* fsize) {
  if (s.size() < 2) return false;
  const char c = ToLower(s[0]);
  int n;
  FpSize fs;
  if (c == 'v') {
    const size_t dot = s.find('.');
    if (dot == std::string_view::npos) return false;
    n = AtoiNumber(s.substr(1, dot - 1));
    switch (Key(s.substr(dot + 1))) {
      case Key("4s"): fs = FpSize::kV4S; break;
      case Key("2d"): fs = FpSize::kV2D; break;
      default: return false;
    }
  } else {
    if (c != 's' && c != 'd' && c != 'q') return false;
    n = RegNumber(s.substr(1));
    fs = c == 's' ? FpSize::kS : (c == 'd' ? FpSize::kD : FpSize::kQ);
  }
  if (n < 0 || n > 31) return false;
  *vreg = VReg::V(static_cast<uint8_t>(n));
  *fsize = fs;
  return true;
}

// A literal `#n`, `n`, `#-n`, `#0x...` (`s` is trimmed). It must fit in 64
// bits, i.e. lie in [-2^63, 2^64 - 1]; values above INT64_MAX keep their
// bit pattern (#0xffffffffffffffff is -1).
// True if `v` fits an unsigned instruction field whose largest value is
// `max`. Every narrow field is range-checked before it is stored, so no
// out-of-range number truncates into a different valid one.
bool InRange(int64_t v, int64_t max) { return v >= 0 && v <= max; }

std::optional<int64_t> ParseNumber(std::string_view s) {
  if (!s.empty() && s.front() == '#') s.remove_prefix(1);
  if (s.empty()) return std::nullopt;
  const bool neg = s.front() == '-';
  if (neg || s.front() == '+') s.remove_prefix(1);
  if (s.empty()) return std::nullopt;
  uint64_t v = 0;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    for (const char c : s.substr(2)) {
      const char l = ToLower(c);
      const int d = IsDigit(c) ? c - '0'
                               : (l >= 'a' && l <= 'f' ? l - 'a' + 10 : -1);
      if (d < 0 || v >> 60 != 0) return std::nullopt;
      v = v * 16 + static_cast<uint64_t>(d);
    }
  } else {
    for (const char c : s) {
      if (!IsDigit(c)) return std::nullopt;
      const auto d = static_cast<uint64_t>(c - '0');
      if (v > (UINT64_MAX - d) / 10) return std::nullopt;
      v = v * 10 + d;
    }
  }
  if (neg && v > (uint64_t{1} << 63)) return std::nullopt;
  return static_cast<int64_t>(neg ? 0 - v : v);
}

// The kind of operand keyword `key` names (kShift or kExtend), storing
// which one in `op`; kLabel if it names neither.
Operand::Kind LexShiftOrExtend(uint64_t key, Operand* op) {
  constexpr auto kShift = Operand::Kind::kShift;
  constexpr auto kExtend = Operand::Kind::kExtend;
  switch (key) {
    case Key("lsl"): op->shift = Shift::kLsl; return kShift;
    case Key("lsr"): op->shift = Shift::kLsr; return kShift;
    case Key("asr"): op->shift = Shift::kAsr; return kShift;
    case Key("ror"): op->shift = Shift::kRor; return kShift;
    case Key("uxtb"): op->ext = Extend::kUxtb; return kExtend;
    case Key("uxth"): op->ext = Extend::kUxth; return kExtend;
    case Key("uxtw"): op->ext = Extend::kUxtw; return kExtend;
    case Key("uxtx"): op->ext = Extend::kUxtx; return kExtend;
    case Key("sxtb"): op->ext = Extend::kSxtb; return kExtend;
    case Key("sxth"): op->ext = Extend::kSxth; return kExtend;
    case Key("sxtw"): op->ext = Extend::kSxtw; return kExtend;
    case Key("sxtx"): op->ext = Extend::kSxtx; return kExtend;
    default: return Operand::Kind::kLabel;
  }
}

bool StartsNumber(std::string_view tok) {
  return !tok.empty() &&
         (tok.front() == '#' || IsDigit(tok.front()) || tok.front() == '-');
}

// Lexes a non-memory operand (`tok` is trimmed) into `op`, a fresh Operand.
Status LexSimple(std::string_view tok, Operand* op) {
  if (tok.empty()) return Status::Fail("empty operand");
  if (LexGpr(tok, &op->reg, &op->reg_width)) {
    op->kind = Operand::Kind::kReg;
    return Status::Ok();
  }
  if (LexVReg(tok, &op->vreg, &op->fsize)) {
    op->kind = Operand::Kind::kVReg;
    return Status::Ok();
  }
  if (StartsNumber(tok)) {
    const auto n = ParseNumber(tok);
    if (!n) return Status::Fail("bad immediate: " + std::string(tok));
    op->kind = Operand::Kind::kImm;
    op->imm = *n;
    return Status::Ok();
  }
  if (tok.substr(0, 6) == ":lo12:") {
    op->kind = Operand::Kind::kLo12;
    op->sym = tok.substr(6);
    return Status::Ok();
  }
  // shift/extend with optional amount: "lsl #3", "uxtw", "sxtw #2"
  const size_t space = WordEnd(tok);
  op->kind = LexShiftOrExtend(Key(tok.substr(0, space)), op);
  const std::string_view rest = Trim(tok.substr(space));
  if (op->kind == Operand::Kind::kShift) {
    const auto n = ParseNumber(rest);
    if (!n) return Status::Fail("shift needs amount: " + std::string(tok));
    if (!InRange(*n, 63)) {
      return Status::Fail("shift amount out of range: " + std::string(tok));
    }
    op->amount = *n;
  } else if (op->kind == Operand::Kind::kExtend) {
    if (rest.empty()) return Status::Ok();
    const auto n = ParseNumber(rest);
    if (!n) return Status::Fail("bad extend amount: " + std::string(tok));
    if (!InRange(*n, 63)) {
      return Status::Fail("extend amount out of range: " + std::string(tok));
    }
    op->amount = *n;
  } else {
    // Condition code or label: context decides; report a label and let
    // the mnemonic's builder reinterpret it where it expects a condition.
    op->sym = tok;
  }
  return Status::Ok();
}

// Lexes a [ ... ] memory operand (without any post-index part).
Status LexMem(std::string_view tok, Operand* op) {
  op->kind = Operand::Kind::kMem;
  if (tok.back() == '!') {
    op->writeback = true;
    tok = Trim(tok.substr(0, tok.size() - 1));
  }
  if (tok.size() < 2 || tok.front() != '[' || tok.back() != ']') {
    return Status::Fail("bad memory operand: " + std::string(tok));
  }
  Pieces pieces(Trim(tok.substr(1, tok.size() - 2)));
  std::string_view parts[4];
  size_t np = 0;
  while (np < 4 && pieces.Next(&parts[np])) ++np;
  if (np == 0 || np > 3) return Status::Fail("bad memory operand arity");
  Width base_width;
  if (!LexGpr(parts[0], &op->mem_base, &base_width) || op->mem_base.IsZr()) {
    return Status::Fail("bad base register: " + std::string(parts[0]));
  }
  if (np >= 2) {
    Operand sub;
    if (Status st = LexSimple(parts[1], &sub); !st.ok()) return st;
    switch (sub.kind) {
      case Operand::Kind::kImm:
        op->off_kind = Operand::OffKind::kImm;
        op->imm = sub.imm;
        break;
      case Operand::Kind::kReg:
        op->off_kind = Operand::OffKind::kReg;
        op->off_reg = sub.reg;
        op->off_width = sub.reg_width;
        break;
      case Operand::Kind::kLo12:
        op->off_kind = Operand::OffKind::kLo12;
        op->sym = sub.sym;
        break;
      default:
        return Status::Fail("bad memory offset");
    }
  }
  if (np == 3) {
    Operand sub;
    if (Status st = LexSimple(parts[2], &sub); !st.ok()) return st;
    if (sub.kind == Operand::Kind::kShift) {
      op->ext_kind = Operand::ExtKind::kShift;
      op->shift = sub.shift;
    } else if (sub.kind == Operand::Kind::kExtend) {
      op->ext_kind = Operand::ExtKind::kExtend;
      op->ext = sub.ext;
    } else {
      return Status::Fail("bad memory extend");
    }
    op->amount = sub.amount;
  }
  return Status::Ok();
}

// Lexes `line` (trimmed) into `l`: the mnemonic and its key, then every
// operand in one forward pass over the pieces.
Status LexLine(std::string_view line, Line* l) {
  const size_t sp = WordEnd(line);
  l->mnemonic = line.substr(0, sp);
  l->key = Key(l->mnemonic);
  l->n = 0;
  l->post_imm.reset();
  Pieces pieces(Trim(line.substr(sp)));
  std::string_view tok;
  bool more = pieces.Next(&tok);
  while (more) {
    Operand* op = l->Slot();
    *op = Operand{};
    ++l->n;
    if (tok.empty() || tok.front() != '[') {
      if (Status st = LexSimple(tok, op); !st.ok()) return st;
      more = pieces.Next(&tok);
      continue;
    }
    if (Status st = LexMem(tok, op); !st.ok()) return st;
    more = pieces.Next(&tok);
    // Post-index: `[xN], #i` arrives as the following piece.
    if (more && !op->writeback && op->off_kind == Operand::OffKind::kNone &&
        StartsNumber(tok)) {
      l->post_imm = ParseNumber(tok);
      if (!l->post_imm) return Status::Fail("bad post-index immediate");
      more = pieces.Next(&tok);
    }
  }
  return Status::Ok();
}

// ----- Mnemonic assembly: fill a statement from an operand list -----

bool IsReg(const Operand& o) { return o.kind == Operand::Kind::kReg; }
bool IsImm(const Operand& o) { return o.kind == Operand::Kind::kImm; }
bool IsMem(const Operand& o) { return o.kind == Operand::Kind::kMem; }
bool IsVReg(const Operand& o) { return o.kind == Operand::Kind::kVReg; }
bool IsLabel(const Operand& o) { return o.kind == Operand::Kind::kLabel; }

// The zr destination cmp/cmn/tst imply, as wide as their first operand.
Operand ImplicitZr(const Line& l) {
  Operand zr;
  zr.kind = Operand::Kind::kReg;
  zr.reg = Reg::Zr();
  zr.reg_width = l.n == 0 ? Width::kX : l.ops[0].reg_width;
  return zr;
}

// Fills `inst->mem` from a kMem operand plus the line's post-index
// immediate, if any.
Status FillMem(const Operand& m, const Line& l, Inst* inst) {
  inst->mem.base = m.mem_base;
  if (l.post_imm) {
    inst->mem.mode = AddrMode::kPostIndex;
    inst->mem.imm = *l.post_imm;
    return Status::Ok();
  }
  if (m.off_kind == Operand::OffKind::kNone ||
      m.off_kind == Operand::OffKind::kImm) {
    inst->mem.mode = m.writeback ? AddrMode::kPreIndex : AddrMode::kImm;
    inst->mem.imm = m.imm;
    return Status::Ok();
  }
  if (m.off_kind == Operand::OffKind::kLo12) {
    return Status::Fail(":lo12: in memory operands unsupported; "
                        "materialize the address with add first");
  }
  // Register offset.
  if (m.writeback) return Status::Fail("writeback with register offset");
  inst->mem.index = m.off_reg;
  AddrMode mode;
  if (m.ext_kind == Operand::ExtKind::kNone) {
    if (m.off_width != Width::kX) {
      return Status::Fail("register offset without extend must be an x reg");
    }
    mode = AddrMode::kRegLsl;
  } else if (m.ext_kind == Operand::ExtKind::kShift) {
    if (m.shift != Shift::kLsl) {
      return Status::Fail("only lsl shifts in addressing modes");
    }
    mode = AddrMode::kRegLsl;
  } else {
    switch (m.ext) {
      case Extend::kUxtw: mode = AddrMode::kRegUxtw; break;
      case Extend::kSxtw: mode = AddrMode::kRegSxtw; break;
      case Extend::kSxtx: case Extend::kUxtx: mode = AddrMode::kRegLsl; break;
      default: return Status::Fail("bad addressing-mode extend");
    }
    if (mode != AddrMode::kRegLsl && m.off_width != Width::kW) {
      return Status::Fail("uxtw/sxtw offset must be a w register");
    }
  }
  inst->mem.mode = mode;
  inst->mem.shift = static_cast<uint8_t>(m.amount);
  return Status::Ok();
}

// Builds an add/sub-family instruction from `rd, rn, <imm|reg>` operands
// with optional shift/extend. `rest` follows `rd` and `total` counts `rd`
// too, so cmp/cmn pass their implicit zr without copying the line.
Status BuildAddSub(bool sub, bool setflags, const Operand& rd,
                   const Operand* rest, size_t total, AsmStmt* s) {
  if (total < 3) return Status::Fail("add/sub needs 3 operands");
  const Operand& rn = rest[0];
  const Operand& src = rest[1];
  if (!IsReg(rd) || !IsReg(rn)) return Status::Fail("add/sub operand types");
  Inst& i = s->inst;
  i.width = rd.reg_width;
  i.rd = rd.reg;
  i.rn = rn.reg;
  if (IsImm(src)) {
    if (total > 3) return Status::Fail("junk after add imm");
    // Negative immediates flip add<->sub. INT64_MIN has no positive
    // counterpart and stays as written, so the statement prints back to
    // itself.
    const bool flip = src.imm < 0 && src.imm != INT64_MIN;
    if (flip) sub = !sub;
    i.mn = sub ? (setflags ? Mn::kSubsImm : Mn::kSubImm)
               : (setflags ? Mn::kAddsImm : Mn::kAddImm);
    i.imm = flip ? -src.imm : src.imm;
    return Status::Ok();
  }
  if (src.kind == Operand::Kind::kLo12) {
    if (sub || setflags) return Status::Fail(":lo12: only valid on add");
    i.mn = Mn::kAddImm;
    s->reloc = Reloc::kLo12;
    s->sym = src.sym;
    return Status::Ok();
  }
  if (!IsReg(src)) return Status::Fail("add/sub source");
  i.rm = src.reg;
  const bool has_mod = total > 3;
  if (has_mod && rest[2].kind == Operand::Kind::kExtend) {
    if (setflags) return Status::Fail("adds/subs ext unsupported");
    i.mn = sub ? Mn::kSubExt : Mn::kAddExt;
    i.ext = rest[2].ext;
    i.shift_amount = static_cast<uint8_t>(rest[2].amount);
    return Status::Ok();
  }
  // Mixed register widths (add xD, xN, wM, uxtw) imply the extended form
  // even without a trailing modifier token.
  if (rd.reg_width == Width::kX && src.reg_width == Width::kW) {
    return Status::Fail("w source in x add requires an extend specifier");
  }
  // SP in rd/rn requires extended or immediate form; the encoder handles
  // the uxtx conversion for plain adds.
  i.mn = sub ? (setflags ? Mn::kSubsReg : Mn::kSubReg)
             : (setflags ? Mn::kAddsReg : Mn::kAddReg);
  if (has_mod) {
    if (rest[2].kind != Operand::Kind::kShift) {
      return Status::Fail("bad add modifier");
    }
    i.shift = rest[2].shift;
    i.shift_amount = static_cast<uint8_t>(rest[2].amount);
    if (total > 4) return Status::Fail("junk after add");
  }
  return Status::Ok();
}

// Logical ops; `rd`, `rest` and `total` as for BuildAddSub (tst passes zr).
Status BuildLogical(Mn mn, const Operand& rd, const Operand* rest,
                    size_t total, Inst* i) {
  if (total < 3) return Status::Fail("logical needs 3 operands");
  if (!IsReg(rd) || !IsReg(rest[0])) return Status::Fail("logical operands");
  i->width = rd.reg_width;
  i->rd = rd.reg;
  i->rn = rest[0].reg;
  if (IsImm(rest[1])) {
    // Bitmask-immediate form.
    switch (mn) {
      case Mn::kAndReg: i->mn = Mn::kAndImm; break;
      case Mn::kAndsReg: i->mn = Mn::kAndsImm; break;
      case Mn::kOrrReg: i->mn = Mn::kOrrImm; break;
      case Mn::kEorReg: i->mn = Mn::kEorImm; break;
      default: return Status::Fail("no immediate form for this logical op");
    }
    i->imm = rest[1].imm;
    if (i->width == Width::kW) i->imm &= 0xffffffff;
    return Status::Ok();
  }
  if (!IsReg(rest[1])) return Status::Fail("logical operand types");
  i->mn = mn;
  i->rm = rest[1].reg;
  if (total == 4) {
    if (rest[2].kind != Operand::Kind::kShift) {
      return Status::Fail("bad shift");
    }
    i->shift = rest[2].shift;
    i->shift_amount = static_cast<uint8_t>(rest[2].amount);
  }
  return Status::Ok();
}

Status BuildLoadStore(const Line& l, Inst* i) {
  const Operand* ops = l.ops;
  switch (l.key) {
    case Key("ldrb"): case Key("strb"): i->msize = 1; break;
    case Key("ldrh"): case Key("strh"): i->msize = 2; break;
    case Key("ldrsb"): i->msize = 1; i->msigned = true; break;
    case Key("ldrsh"): i->msize = 2; i->msigned = true; break;
    case Key("ldrsw"): i->msize = 4; i->msigned = true; break;
    default: i->msize = 0; break;  // ldr/str/ldur/stur: from the register
  }
  if (l.n != 2 || !IsMem(ops[1])) {
    return Status::Fail(KeyName(l.key) + " needs `rt, [mem]`");
  }
  const bool load = (l.key & 0xff) == 'l';
  if (IsVReg(ops[0])) {
    if (i->msize != 0 || i->msigned) return Status::Fail("fp ld/st variant");
    i->mn = load ? Mn::kLdrF : Mn::kStrF;
    i->vt = ops[0].vreg;
    i->fsize = ops[0].fsize;
    switch (i->fsize) {
      case FpSize::kS: i->msize = 4; break;
      case FpSize::kD: i->msize = 8; break;
      case FpSize::kQ: i->msize = 16; break;
      default: return Status::Fail("bad fp transfer register");
    }
  } else if (IsReg(ops[0])) {
    i->mn = load ? Mn::kLdr : Mn::kStr;
    i->rt = ops[0].reg;
    i->width = ops[0].reg_width;
    if (i->msize == 0) i->msize = i->width == Width::kX ? 8 : 4;
    if (i->msigned && i->msize == 4 && i->width != Width::kX) {
      return Status::Fail("ldrsw must target an x register");
    }
    if (!i->msigned && i->msize < 4 && i->width != Width::kW) {
      return Status::Fail("ldrb/ldrh target must be a w register");
    }
  } else {
    return Status::Fail("bad transfer register");
  }
  return FillMem(ops[1], l, i);
}

Status BuildFp2(Mn mn, const Line& l, Inst* i) {
  const Operand* ops = l.ops;
  if (l.n != 3 || !IsVReg(ops[0]) || !IsVReg(ops[1]) || !IsVReg(ops[2])) {
    return Status::Fail("fp op needs 3 fp registers");
  }
  i->fsize = ops[0].fsize;
  if (i->fsize == FpSize::kV4S || i->fsize == FpSize::kV2D) {
    switch (mn) {
      case Mn::kFadd: mn = Mn::kVFadd; break;
      case Mn::kFmul: mn = Mn::kVFmul; break;
      default: return Status::Fail("vector op unsupported");
    }
  }
  i->mn = mn;
  i->vd = ops[0].vreg;
  i->vn = ops[1].vreg;
  i->vm = ops[2].vreg;
  return Status::Ok();
}

Status BuildBranch(Mn mn, const Line& l, Cond cond, AsmStmt* s) {
  const Operand* ops = l.ops;
  Inst& i = s->inst;
  i.mn = mn;
  i.cond = cond;
  size_t lab = 0;
  if (mn == Mn::kCbz || mn == Mn::kCbnz) {
    if (l.n != 2 || !IsReg(ops[0])) return Status::Fail("cbz operands");
    i.rt = ops[0].reg;
    i.width = ops[0].reg_width;
    lab = 1;
  } else if (mn == Mn::kTbz || mn == Mn::kTbnz) {
    if (l.n != 3 || !IsReg(ops[0]) || !IsImm(ops[1])) {
      return Status::Fail("tbz operands");
    }
    if (!InRange(ops[1].imm, 63)) return Status::Fail("tbz bit out of range");
    i.rt = ops[0].reg;
    i.bit = static_cast<uint8_t>(ops[1].imm);
    i.width = i.bit >= 32 ? Width::kX : Width::kW;
    lab = 2;
  } else if (l.n != 1) {
    return Status::Fail("branch needs a target");
  }
  if (!IsLabel(ops[lab])) return Status::Fail("bad target");
  s->reloc = Reloc::kBranch;
  s->sym = ops[lab].sym;
  return Status::Ok();
}

// Fills `s`, a fresh kInst statement, from a lexed line: one switch on the
// mnemonic's key.
Status BuildInst(const Line& l, AsmStmt* s) {
  const Operand* ops = l.ops;
  const size_t n = l.n;
  const uint64_t m = l.key;
  Inst& i = s->inst;

  // b.cond
  if (l.mnemonic.size() > 2 && ToLower(l.mnemonic[0]) == 'b' &&
      l.mnemonic[1] == '.') {
    const auto c = ParseCond(l.mnemonic.substr(2));
    if (!c || *c == Cond::kAl) return Status::Fail("bad branch condition");
    return BuildBranch(Mn::kBCond, l, *c, s);
  }

  switch (m) {
    case Key("add"):
      if (n != 0 && IsVReg(ops[0])) {
        // Vector integer add: add vD.4s, vN.4s, vM.4s
        if (n != 3 || !IsVReg(ops[1]) || !IsVReg(ops[2])) {
          return Status::Fail("vector add operands");
        }
        i.mn = Mn::kVAdd;
        i.fsize = ops[0].fsize;
        if (i.fsize != FpSize::kV4S && i.fsize != FpSize::kV2D) {
          return Status::Fail("vector add arrangement");
        }
        i.vd = ops[0].vreg;
        i.vn = ops[1].vreg;
        i.vm = ops[2].vreg;
        return Status::Ok();
      }
      [[fallthrough]];
    case Key("adds"): case Key("sub"): case Key("subs"):
      return BuildAddSub((m & 0xff) == 's',
                         m == Key("adds") || m == Key("subs"), ops[0], ops + 1,
                         n, s);
    case Key("cmp"): case Key("cmn"):
      // cmp a, b == subs zr, a, b.
      return BuildAddSub(m == Key("cmp"), true, ImplicitZr(l), ops, n + 1, s);
    case Key("and"): return BuildLogical(Mn::kAndReg, ops[0], ops + 1, n, &i);
    case Key("ands"): return BuildLogical(Mn::kAndsReg, ops[0], ops + 1, n, &i);
    case Key("orr"): return BuildLogical(Mn::kOrrReg, ops[0], ops + 1, n, &i);
    case Key("eor"): return BuildLogical(Mn::kEorReg, ops[0], ops + 1, n, &i);
    case Key("bic"): return BuildLogical(Mn::kBicReg, ops[0], ops + 1, n, &i);
    case Key("tst"):
      return BuildLogical(Mn::kAndsReg, ImplicitZr(l), ops, n + 1, &i);
    case Key("neg"):
      if (n != 2 || !IsReg(ops[0]) || !IsReg(ops[1])) {
        return Status::Fail("neg operands");
      }
      i.mn = Mn::kSubReg;
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = Reg::Zr();
      i.rm = ops[1].reg;
      return Status::Ok();
    case Key("mov"):
      if (n != 2 || !IsReg(ops[0])) return Status::Fail("mov operands");
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      if (IsImm(ops[1])) {
        // movz/movn with a single 16-bit payload; wider constants must be
        // written as explicit movz/movk pairs. ~v is -v - 1.
        const int64_t v = ops[1].imm;
        if (v >= 0 && v <= 0xffff) {
          i.mn = Mn::kMovz;
          i.imm = v;
        } else if (v < 0 && ~v <= 0xffff) {
          i.mn = Mn::kMovn;
          i.imm = ~v;
        } else {
          return Status::Fail("mov immediate too wide; use movz/movk");
        }
        return Status::Ok();
      }
      if (!IsReg(ops[1])) return Status::Fail("mov source");
      // mov to/from sp uses add #0; otherwise orr zr.
      if (ops[0].reg.IsSp() || ops[1].reg.IsSp()) {
        i.mn = Mn::kAddImm;
        i.rn = ops[1].reg;
        i.imm = 0;
        return Status::Ok();
      }
      i.mn = Mn::kOrrReg;
      i.rn = Reg::Zr();
      i.rm = ops[1].reg;
      return Status::Ok();
    case Key("movz"): case Key("movn"): case Key("movk"):
      if (n < 2 || !IsReg(ops[0]) || !IsImm(ops[1])) {
        return Status::Fail("movz operands");
      }
      i.mn = m == Key("movz") ? Mn::kMovz
                              : (m == Key("movn") ? Mn::kMovn : Mn::kMovk);
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.imm = ops[1].imm;
      if (n == 3) {
        if (ops[2].kind != Operand::Kind::kShift ||
            ops[2].shift != Shift::kLsl) {
          return Status::Fail("movz shift");
        }
        i.shift_amount = static_cast<uint8_t>(ops[2].amount);
      }
      return Status::Ok();
    case Key("lsl"): case Key("lsr"): case Key("asr"): {
      if (n != 3 || !IsReg(ops[0]) || !IsReg(ops[1]) || !IsImm(ops[2])) {
        return Status::Fail("register-shift forms unsupported");
      }
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      const uint8_t bits = i.width == Width::kX ? 64 : 32;
      if (!InRange(ops[2].imm, bits - 1)) {
        return Status::Fail("shift amount too large");
      }
      const auto sh = static_cast<uint8_t>(ops[2].imm);
      if (m == Key("lsl")) {
        i.mn = Mn::kUbfm;
        i.immr = static_cast<uint8_t>((bits - sh) % bits);
        i.imms = static_cast<uint8_t>(bits - 1 - sh);
      } else {
        i.mn = m == Key("lsr") ? Mn::kUbfm : Mn::kSbfm;
        i.immr = sh;
        i.imms = bits - 1;
      }
      return Status::Ok();
    }
    case Key("sxtw"): case Key("sxtb"): case Key("sxth"): case Key("uxtb"):
    case Key("uxth"):
      if (n != 2 || !IsReg(ops[0]) || !IsReg(ops[1])) {
        return Status::Fail("extend alias operands");
      }
      i.mn = (m & 0xff) == 's' ? Mn::kSbfm : Mn::kUbfm;
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.immr = 0;
      // The fourth letter is the source size.
      i.imms = (m >> 24) == 'w' ? 31 : ((m >> 24) == 'h' ? 15 : 7);
      return Status::Ok();
    case Key("ubfm"): case Key("sbfm"):
      if (n != 4 || !IsReg(ops[0]) || !IsReg(ops[1]) || !IsImm(ops[2]) ||
          !IsImm(ops[3])) {
        return Status::Fail("bfm operands");
      }
      if (!InRange(ops[2].imm, 63) || !InRange(ops[3].imm, 63)) {
        return Status::Fail("bfm immr/imms out of range");
      }
      i.mn = m == Key("ubfm") ? Mn::kUbfm : Mn::kSbfm;
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.immr = static_cast<uint8_t>(ops[2].imm);
      i.imms = static_cast<uint8_t>(ops[3].imm);
      return Status::Ok();
    case Key("mul"): case Key("madd"): case Key("msub"): case Key("mneg"): {
      i.mn = (m == Key("msub") || m == Key("mneg")) ? Mn::kMsub : Mn::kMadd;
      const size_t need = (m == Key("mul") || m == Key("mneg")) ? 3 : 4;
      if (n != need) return Status::Fail("mul operands");
      for (size_t k = 0; k < need; ++k) {
        if (!IsReg(ops[k])) return Status::Fail("mul operands");
      }
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.rm = ops[2].reg;
      i.ra = need == 4 ? ops[3].reg : Reg::Zr();
      return Status::Ok();
    }
    case Key("sdiv"): case Key("udiv"): case Key("umulh"): case Key("smulh"):
      if (n != 3 || !IsReg(ops[0]) || !IsReg(ops[1]) || !IsReg(ops[2])) {
        return Status::Fail("3-reg op operands");
      }
      i.mn = m == Key("sdiv")
                 ? Mn::kSdiv
                 : (m == Key("udiv") ? Mn::kUdiv
                                     : (m == Key("umulh") ? Mn::kUmulh
                                                          : Mn::kSmulh));
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.rm = ops[2].reg;
      return Status::Ok();
    case Key("ccmp"): case Key("ccmn"): {
      // ccmp rn, rm|#imm5, #nzcv, cond
      if (n != 4 || !IsReg(ops[0]) || !IsImm(ops[2]) || !IsLabel(ops[3])) {
        return Status::Fail("ccmp operands");
      }
      const auto c = ParseCond(ops[3].sym);
      if (!c) return Status::Fail("bad ccmp condition");
      if (!InRange(ops[2].imm, 15)) {
        return Status::Fail("ccmp nzcv out of range");
      }
      i.width = ops[0].reg_width;
      i.rn = ops[0].reg;
      i.nzcv = static_cast<uint8_t>(ops[2].imm);
      i.cond = *c;
      if (IsImm(ops[1])) {
        i.mn = m == Key("ccmp") ? Mn::kCcmpImm : Mn::kCcmnImm;
        i.imm = ops[1].imm;
      } else if (IsReg(ops[1])) {
        i.mn = m == Key("ccmp") ? Mn::kCcmp : Mn::kCcmn;
        i.rm = ops[1].reg;
      } else {
        return Status::Fail("ccmp second operand");
      }
      return Status::Ok();
    }
    case Key("ror"):
      // ror rd, rs, #shift == extr rd, rs, rs, #shift
      if (n != 3 || !IsReg(ops[0]) || !IsReg(ops[1]) || !IsImm(ops[2])) {
        return Status::Fail("ror operands");
      }
      if (!InRange(ops[2].imm, 63)) {
        return Status::Fail("ror amount out of range");
      }
      i.mn = Mn::kExtr;
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.rm = ops[1].reg;
      i.imms = static_cast<uint8_t>(ops[2].imm);
      return Status::Ok();
    case Key("extr"):
      if (n != 4 || !IsReg(ops[0]) || !IsReg(ops[1]) || !IsReg(ops[2]) ||
          !IsImm(ops[3])) {
        return Status::Fail("extr operands");
      }
      if (!InRange(ops[3].imm, 63)) {
        return Status::Fail("extr lsb out of range");
      }
      i.mn = Mn::kExtr;
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.rm = ops[2].reg;
      i.imms = static_cast<uint8_t>(ops[3].imm);
      return Status::Ok();
    case Key("csel"): case Key("csinc"): case Key("csinv"): case Key("csneg"): {
      if (n != 4 || !IsReg(ops[0]) || !IsReg(ops[1]) || !IsReg(ops[2]) ||
          !IsLabel(ops[3])) {
        return Status::Fail("csel operands");
      }
      const auto c = ParseCond(ops[3].sym);
      if (!c) return Status::Fail("bad condition: " + std::string(ops[3].sym));
      i.mn = m == Key("csel")
                 ? Mn::kCsel
                 : (m == Key("csinc") ? Mn::kCsinc
                                      : (m == Key("csinv") ? Mn::kCsinv
                                                           : Mn::kCsneg));
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.rm = ops[2].reg;
      i.cond = *c;
      return Status::Ok();
    }
    case Key("cset"): {
      if (n != 2 || !IsReg(ops[0]) || !IsLabel(ops[1])) {
        return Status::Fail("cset operands");
      }
      // cset's condition is inverted into csinc's, and al has no inverse.
      const auto c = ParseCond(ops[1].sym);
      if (!c || *c == Cond::kAl) return Status::Fail("bad condition");
      i.mn = Mn::kCsinc;
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = Reg::Zr();
      i.rm = Reg::Zr();
      i.cond = Invert(*c);
      return Status::Ok();
    }
    case Key("clz"): case Key("rbit"): case Key("rev"):
      if (n != 2 || !IsReg(ops[0]) || !IsReg(ops[1])) {
        return Status::Fail("unary operands");
      }
      i.mn = m == Key("clz") ? Mn::kClz
                             : (m == Key("rbit") ? Mn::kRbit : Mn::kRev);
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      return Status::Ok();
    case Key("adr"): case Key("adrp"):
      if (n != 2 || !IsReg(ops[0]) || !IsLabel(ops[1])) {
        return Status::Fail("adr operands");
      }
      i.mn = m == Key("adr") ? Mn::kAdr : Mn::kAdrp;
      i.rd = ops[0].reg;
      s->reloc = Reloc::kBranch;
      s->sym = ops[1].sym;
      return Status::Ok();
    case Key("ldr"): case Key("str"): case Key("ldur"): case Key("stur"):
    case Key("ldrb"): case Key("strb"): case Key("ldrh"): case Key("strh"):
    case Key("ldrsb"): case Key("ldrsh"): case Key("ldrsw"):
      return BuildLoadStore(l, &i);
    case Key("ldp"): case Key("stp"):
      if (n != 3 || !IsReg(ops[0]) || !IsReg(ops[1]) || !IsMem(ops[2])) {
        return Status::Fail("ldp/stp needs `rt, rt2, [mem]`");
      }
      i.mn = m == Key("ldp") ? Mn::kLdp : Mn::kStp;
      i.rt = ops[0].reg;
      i.rt2 = ops[1].reg;
      i.width = ops[0].reg_width;
      i.msize = i.width == Width::kX ? 8 : 4;
      return FillMem(ops[2], l, &i);
    case Key("ldxr"): case Key("ldar"): case Key("stlr"):
      if (n != 2 || !IsReg(ops[0]) || !IsMem(ops[1])) {
        return Status::Fail("exclusive operands");
      }
      i.mn = m == Key("ldxr") ? Mn::kLdxr
                              : (m == Key("ldar") ? Mn::kLdar : Mn::kStlr);
      i.rt = ops[0].reg;
      i.width = ops[0].reg_width;
      i.msize = i.width == Width::kX ? 8 : 4;
      return FillMem(ops[1], l, &i);
    case Key("stxr"):
      if (n != 3 || !IsReg(ops[0]) || !IsReg(ops[1]) || !IsMem(ops[2])) {
        return Status::Fail("stxr operands");
      }
      i.mn = Mn::kStxr;
      i.rs = ops[0].reg;
      i.rt = ops[1].reg;
      i.width = ops[1].reg_width;
      i.msize = i.width == Width::kX ? 8 : 4;
      return FillMem(ops[2], l, &i);
    case Key("b"): return BuildBranch(Mn::kB, l, Cond::kAl, s);
    case Key("bl"): return BuildBranch(Mn::kBl, l, Cond::kAl, s);
    case Key("cbz"): return BuildBranch(Mn::kCbz, l, Cond::kAl, s);
    case Key("cbnz"): return BuildBranch(Mn::kCbnz, l, Cond::kAl, s);
    case Key("tbz"): return BuildBranch(Mn::kTbz, l, Cond::kAl, s);
    case Key("tbnz"): return BuildBranch(Mn::kTbnz, l, Cond::kAl, s);
    case Key("br"): case Key("blr"):
      if (n != 1 || !IsReg(ops[0])) return Status::Fail("br operands");
      i.mn = m == Key("br") ? Mn::kBr : Mn::kBlr;
      i.rn = ops[0].reg;
      return Status::Ok();
    case Key("ret"):
      if (n > 1 || (n == 1 && !IsReg(ops[0]))) {
        return Status::Fail("ret operand");
      }
      i.mn = Mn::kRet;
      i.rn = n == 0 ? Reg::X(30) : ops[0].reg;
      return Status::Ok();
    case Key("fadd"): return BuildFp2(Mn::kFadd, l, &i);
    case Key("fsub"): return BuildFp2(Mn::kFsub, l, &i);
    case Key("fmul"): return BuildFp2(Mn::kFmul, l, &i);
    case Key("fdiv"): return BuildFp2(Mn::kFdiv, l, &i);
    case Key("fsqrt"):
      if (n != 2 || !IsVReg(ops[0]) || !IsVReg(ops[1])) {
        return Status::Fail("fsqrt operands");
      }
      i.mn = Mn::kFsqrt;
      i.fsize = ops[0].fsize;
      i.vd = ops[0].vreg;
      i.vn = ops[1].vreg;
      return Status::Ok();
    case Key("fmadd"):
      if (n != 4 || !IsVReg(ops[0]) || !IsVReg(ops[1]) || !IsVReg(ops[2]) ||
          !IsVReg(ops[3])) {
        return Status::Fail("fmadd operands");
      }
      i.mn = Mn::kFmadd;
      i.fsize = ops[0].fsize;
      i.vd = ops[0].vreg;
      i.vn = ops[1].vreg;
      i.vm = ops[2].vreg;
      i.va = ops[3].vreg;
      return Status::Ok();
    case Key("fcmp"):
      if (n != 2 || !IsVReg(ops[0]) || !IsVReg(ops[1])) {
        return Status::Fail("fcmp operands");
      }
      i.mn = Mn::kFcmp;
      i.fsize = ops[0].fsize;
      i.vn = ops[0].vreg;
      i.vm = ops[1].vreg;
      return Status::Ok();
    case Key("scvtf"):
      if (n != 2 || !IsVReg(ops[0]) || !IsReg(ops[1])) {
        return Status::Fail("scvtf operands");
      }
      i.mn = Mn::kScvtf;
      i.fsize = ops[0].fsize;
      i.vd = ops[0].vreg;
      i.rn = ops[1].reg;
      i.width = ops[1].reg_width;
      return Status::Ok();
    case Key("fcvtzs"):
      if (n != 2 || !IsReg(ops[0]) || !IsVReg(ops[1])) {
        return Status::Fail("fcvtzs operands");
      }
      i.mn = Mn::kFcvtzs;
      i.fsize = ops[1].fsize;
      i.vn = ops[1].vreg;
      i.rd = ops[0].reg;
      i.width = ops[0].reg_width;
      return Status::Ok();
    case Key("fmov"):
      if (n != 2) return Status::Fail("fmov operands");
      i.mn = Mn::kFmov;
      if (IsVReg(ops[0]) && IsVReg(ops[1])) {
        i.fsize = ops[0].fsize;
        i.vd = ops[0].vreg;
        i.vn = ops[1].vreg;
      } else if (IsReg(ops[0]) && IsVReg(ops[1])) {
        i.rd = ops[0].reg;
        i.width = ops[0].reg_width;
        i.vn = ops[1].vreg;
        i.fsize = ops[1].fsize;
      } else if (IsVReg(ops[0]) && IsReg(ops[1])) {
        i.vd = ops[0].vreg;
        i.fsize = ops[0].fsize;
        i.rn = ops[1].reg;
        i.width = ops[1].reg_width;
      } else {
        return Status::Fail("fmov operand kinds");
      }
      return Status::Ok();
    case Key("nop"):
      i.mn = Mn::kNop;
      return Status::Ok();
    case Key("svc"): case Key("brk"):
      i.mn = m == Key("svc") ? Mn::kSvc : Mn::kBrk;
      i.imm = (n == 1 && IsImm(ops[0])) ? ops[0].imm : 0;
      return Status::Ok();
    case Key("rtcall"): case Key("hostcall"):
      if (n != 1 || !IsImm(ops[0])) {
        return Status::Fail(m == Key("rtcall") ? "rtcall #n" : "hostcall #i");
      }
      s->kind = m == Key("rtcall") ? AsmStmt::Kind::kRtcall
                                   : AsmStmt::Kind::kHostcall;
      i.imm = ops[0].imm;
      return Status::Ok();
    default:
      return Status::Fail("unknown mnemonic: " + Lower(l.mnemonic));
  }
}

// Lexes and builds one instruction line (trimmed) into `s`.
Status ParseInstLine(std::string_view line, Line* l, AsmStmt* s) {
  if (Status st = LexLine(line, l); !st.ok()) return st;
  return BuildInst(*l, s);
}

// Fills `s` from a directive line (trimmed, starting with `.`).
Status BuildDirective(std::string_view line, AsmStmt* s) {
  const size_t sp = WordEnd(line);
  const std::string_view name = line.substr(0, sp);
  const std::string_view rest = line.substr(sp);
  const uint64_t k = Key(name);
  s->kind = AsmStmt::Kind::kDirective;
  Directive& d = s->dir;
  switch (k) {
    case Key(".text"): case Key(".data"): case Key(".bss"):
      d.kind = Directive::Kind::kSection;
      d.section = k == Key(".text") ? Section::kText
                                    : (k == Key(".data") ? Section::kData
                                                         : Section::kBss);
      return Status::Ok();
    case Key(".rodata"): case Key(".section"): {
      d.kind = Directive::Kind::kSection;
      // `.section .rodata` etc.
      const std::string arg = Lower(Trim(rest));
      if (k == Key(".rodata") || arg.find("rodata") != std::string::npos) {
        d.section = Section::kRodata;
      } else if (arg.find("bss") != std::string::npos) {
        d.section = Section::kBss;
      } else if (arg.find("data") != std::string::npos) {
        d.section = Section::kData;
      } else {
        d.section = Section::kText;
      }
      return Status::Ok();
    }
    case Key(".globl"): case Key(".global"):
      d.kind = Directive::Kind::kGlobl;
      s->sym = Trim(rest);
      return Status::Ok();
    case Key(".balign"): case Key(".align"): case Key(".p2align"): {
      d.kind = Directive::Kind::kBalign;
      const auto n = ParseNumber(Trim(rest));
      // .p2align/.align take a power, .balign takes bytes.
      const bool bytes = k == Key(".balign");
      if (!n || *n <= 0 || (!bytes && *n >= 64)) {
        return Status::Fail("bad alignment");
      }
      d.values.push_back(bytes ? *n : (int64_t{1} << *n));
      return Status::Ok();
    }
    case Key(".byte"): case Key(".word"): case Key(".quad"):
    case Key(".xword"): {
      d.kind = k == Key(".byte") ? Directive::Kind::kByte
                                 : (k == Key(".word") ? Directive::Kind::kWord
                                                      : Directive::Kind::kQuad);
      Pieces pieces(rest);
      for (std::string_view tok; pieces.Next(&tok);) {
        const auto v = ParseNumber(tok);
        d.values.push_back(v.value_or(0));
        d.syms.emplace_back(v ? std::string_view{} : tok);
      }
      return Status::Ok();
    }
    case Key(".asciz"): case Key(".string"): {
      d.kind = Directive::Kind::kAsciz;
      const std::string_view t = Trim(rest);
      if (t.size() < 2 || t.front() != '"' || t.back() != '"') {
        return Status::Fail("bad string literal");
      }
      for (size_t j = 1; j + 1 < t.size(); ++j) {
        if (t[j] == '\\' && j + 2 < t.size()) {
          ++j;
          switch (t[j]) {
            case 'n': s->sym.push_back('\n'); break;
            case 't': s->sym.push_back('\t'); break;
            case '0': s->sym.push_back('\0'); break;
            default: s->sym.push_back(t[j]);  // \\, \" and the rest
          }
        } else {
          s->sym.push_back(t[j]);
        }
      }
      return Status::Ok();
    }
    case Key(".zero"): case Key(".space"): case Key(".skip"): {
      d.kind = Directive::Kind::kZero;
      const auto n = ParseNumber(Trim(rest));
      if (!n || *n < 0) return Status::Fail("bad .zero size");
      d.values.push_back(*n);
      return Status::Ok();
    }
    case Key(".type"): case Key(".size"): case Key(".file"): case Key(".ident"):
    case Key(".arch"):
      break;
    default: {
      // The .cfi_* names are too long for a key.
      static constexpr std::string_view kCfi[] = {
          ".cfi_startproc", ".cfi_endproc", ".cfi_def_cfa_offset",
          ".cfi_offset", ".cfi_restore"};
      auto same = [](char lower, char c) { return lower == ToLower(c); };
      if (std::none_of(std::begin(kCfi), std::end(kCfi), [&](auto cfi) {
            return std::equal(cfi.begin(), cfi.end(), name.begin(),
                              name.end(), same);
          })) {
        return Status::Fail("unknown directive: " + Lower(name));
      }
    }
  }
  // Metadata we can safely ignore; represent as a no-op .balign 1.
  d.kind = Directive::Kind::kBalign;
  d.values.push_back(1);
  return Status::Ok();
}

}  // namespace

Result<AsmStmt> ParseInst(std::string_view line) {
  Line l;
  AsmStmt s;
  if (Status st = ParseInstLine(Trim(line), &l, &s); !st.ok()) {
    return Error{st.error()};
  }
  return s;
}

Result<AsmFile> Parse(std::string_view source) {
  AsmFile file;
  file.stmts.reserve(std::count(source.begin(), source.end(), '\n') + 1);
  Line l;
  int lineno = 0;
  for (size_t pos = 0; pos <= source.size();) {
    const size_t nl = std::min(source.find('\n', pos), source.size());
    std::string_view line = source.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    // Strip // comments.
    line = Trim(line.substr(0, line.find("//")));
    // Labels (possibly several on a line, then an optional statement).
    for (;;) {
      size_t k = 0;
      while (k < line.size() && IsIdentChar(line[k])) ++k;
      if (k == 0 || k == line.size() || line[k] != ':') break;
      AsmStmt& s = file.stmts.emplace_back();
      s.kind = AsmStmt::Kind::kLabel;
      s.sym = line.substr(0, k);
      s.line = lineno;
      line = Trim(line.substr(k + 1));
    }
    if (line.empty()) continue;
    AsmStmt& s = file.stmts.emplace_back();
    s.line = lineno;
    if (line.front() == '.') {
      if (Status st = BuildDirective(line, &s); !st.ok()) {
        return Error{"line " + std::to_string(lineno) + ": " + st.error()};
      }
    } else if (Status st = ParseInstLine(line, &l, &s); !st.ok()) {
      return Error{"line " + std::to_string(lineno) + ": " + st.error() +
                   " in `" + std::string(line) + "`"};
    }
  }
  return file;
}

}  // namespace lfi::asmtext
