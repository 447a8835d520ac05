#include "asmtext/assemble.h"

#include <utility>

#include "arch/encode.h"
#include "asmtext/printer.h"

namespace lfi::asmtext {

namespace {

using arch::Inst;
using arch::Mn;

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

// Addresses are offsets into a 4GiB sandbox, so no section can be larger;
// this also bounds the section streams Assemble reserves.
constexpr uint64_t kMaxSection = uint64_t{1} << 32;

// Size in bytes a directive statement contributes to its section. `addr`
// is the current offset, needed for alignment.
uint64_t DirectiveSize(const AsmStmt& s, uint64_t addr) {
  const Directive& d = s.dir;
  switch (d.kind) {
    case Directive::Kind::kSection:
    case Directive::Kind::kGlobl:
      return 0;
    case Directive::Kind::kBalign:
      return AlignUp(addr, static_cast<uint64_t>(d.values.at(0))) - addr;
    case Directive::Kind::kByte:
      return d.values.size();
    case Directive::Kind::kWord:
      return d.values.size() * 4;
    case Directive::Kind::kQuad:
      return d.values.size() * 8;
    case Directive::Kind::kAsciz:
      return s.sym.size() + 1;
    case Directive::Kind::kZero:
      return static_cast<uint64_t>(d.values.at(0));
  }
  return 0;
}

void AppendLE(std::vector<uint8_t>* out, uint64_t v, unsigned bytes) {
  uint8_t le[8];
  for (unsigned k = 0; k < bytes; ++k) {
    le[k] = static_cast<uint8_t>(v >> (8 * k));
  }
  out->insert(out->end(), le, le + bytes);
}

}  // namespace

Result<Image> Assemble(const AsmFile& file, const LayoutSpec& spec) {
  // Pass 1: compute section sizes and label addresses. Labels go straight
  // into the image's symbol table, section-relative at first; `rebase`
  // remembers each one's section so it can be made absolute once the
  // section bases are known (node pointers survive rehashing).
  Image img;
  std::vector<std::pair<uint64_t*, Section>> rebase;
  uint64_t sizes[4] = {0, 0, 0, 0};
  Section cur = Section::kText;
  for (const auto& s : file.stmts) {
    auto& sz = sizes[static_cast<int>(cur)];
    switch (s.kind) {
      case AsmStmt::Kind::kLabel: {
        auto [it, fresh] = img.symbols.try_emplace(s.sym, sz);
        if (!fresh) return Error{"assemble: duplicate label " + s.sym};
        rebase.emplace_back(&it->second, cur);
        break;
      }
      case AsmStmt::Kind::kDirective:
        if (s.dir.kind == Directive::Kind::kSection) {
          cur = s.dir.section;
        } else {
          if (cur == Section::kBss && s.dir.kind != Directive::Kind::kZero &&
              s.dir.kind != Directive::Kind::kBalign) {
            return Error{"assemble: initialized data in .bss"};
          }
          const uint64_t n = DirectiveSize(s, sz);
          if (n > kMaxSection - sz) {
            return Error{"assemble: section larger than the 4GiB sandbox"};
          }
          sz += n;
        }
        break;
      case AsmStmt::Kind::kRtcall:
        return Error{"assemble: unexpanded rtcall (run the rewriter first)"};
      case AsmStmt::Kind::kHostcall:
        return Error{"assemble: unexpanded hostcall (run the rewriter first)"};
      case AsmStmt::Kind::kInst:
        if (cur != Section::kText) {
          return Error{"assemble: instruction outside .text at line " +
                       std::to_string(s.line)};
        }
        sz += 4;
        break;
    }
  }

  img.text_addr = spec.text_offset;
  img.rodata_addr =
      AlignUp(img.text_addr + sizes[int(Section::kText)], runtime::kPage);
  img.data_addr =
      AlignUp(img.rodata_addr + sizes[int(Section::kRodata)], runtime::kPage);
  img.bss_addr =
      AlignUp(img.data_addr + sizes[int(Section::kData)], runtime::kPage);
  img.bss_size = sizes[int(Section::kBss)];

  const uint64_t bases[4] = {img.text_addr, img.rodata_addr, img.data_addr,
                             img.bss_addr};
  for (auto [addr, section] : rebase) {
    *addr += bases[static_cast<int>(section)];
  }
  auto resolve = [&](const std::string& sym) -> Result<uint64_t> {
    auto it = img.symbols.find(sym);
    if (it == img.symbols.end()) {
      return Error{"assemble: undefined symbol " + sym};
    }
    return it->second;
  };
  img.text.reserve(sizes[int(Section::kText)]);
  img.rodata.reserve(sizes[int(Section::kRodata)]);
  img.data.reserve(sizes[int(Section::kData)]);

  // Pass 2: emit bytes.
  cur = Section::kText;
  uint64_t offsets[4] = {0, 0, 0, 0};
  std::vector<uint8_t>* streams[4] = {&img.text, &img.rodata, &img.data,
                                      nullptr};
  for (const auto& s : file.stmts) {
    auto& off = offsets[static_cast<int>(cur)];
    std::vector<uint8_t>* out = streams[static_cast<int>(cur)];
    switch (s.kind) {
      case AsmStmt::Kind::kLabel:
        break;
      case AsmStmt::Kind::kDirective: {
        const Directive& d = s.dir;
        if (d.kind == Directive::Kind::kSection) {
          cur = d.section;
          break;
        }
        const uint64_t n = DirectiveSize(s, off);
        if (cur == Section::kBss) {
          off += n;
          break;
        }
        switch (d.kind) {
          case Directive::Kind::kBalign:
          case Directive::Kind::kZero:
            out->resize(out->size() + n);
            break;
          case Directive::Kind::kByte:
          case Directive::Kind::kWord:
          case Directive::Kind::kQuad: {
            const unsigned bytes = d.kind == Directive::Kind::kByte
                                       ? 1
                                       : d.kind == Directive::Kind::kWord ? 4
                                                                          : 8;
            for (size_t k = 0; k < d.values.size(); ++k) {
              uint64_t v = static_cast<uint64_t>(d.values[k]);
              if (!d.syms[k].empty()) {
                auto addr = resolve(d.syms[k]);
                if (!addr) return Error{addr.error()};
                v = *addr;
              }
              AppendLE(out, v, bytes);
            }
            break;
          }
          case Directive::Kind::kAsciz:
            out->insert(out->end(), s.sym.begin(), s.sym.end());
            out->push_back(0);
            break;
          default:
            break;
        }
        off += n;
        break;
      }
      case AsmStmt::Kind::kRtcall:
        return Error{"assemble: unexpanded rtcall"};
      case AsmStmt::Kind::kHostcall:
        return Error{"assemble: unexpanded hostcall"};
      case AsmStmt::Kind::kInst: {
        Inst inst = s.inst;
        const uint64_t addr = img.text_addr + off;
        if (s.reloc == Reloc::kBranch) {
          auto target = resolve(s.sym);
          if (!target) return Error{target.error()};
          if (inst.mn == Mn::kAdrp) {
            inst.imm = static_cast<int64_t>((*target & ~uint64_t{0xfff}) -
                                            (addr & ~uint64_t{0xfff}));
          } else {
            inst.imm = static_cast<int64_t>(*target - addr);
          }
        } else if (s.reloc == Reloc::kLo12) {
          auto target = resolve(s.sym);
          if (!target) return Error{target.error()};
          inst.imm = static_cast<int64_t>(*target & 0xfff);
        }
        auto word = arch::Encode(inst);
        if (!word) {
          return Error{"assemble: line " + std::to_string(s.line) + " `" +
                       PrintStmt(s) + "`: " + word.error()};
        }
        AppendLE(out, *word, 4);
        off += 4;
        break;
      }
    }
  }

  auto start = img.symbols.find("_start");
  img.entry = start != img.symbols.end() ? start->second : img.text_addr;
  return img;
}

}  // namespace lfi::asmtext
