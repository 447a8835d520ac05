// Assembler: lays out an AsmFile into section byte images.
//
// All addresses in the produced image are *sandbox-relative* offsets. The
// LFI scheme makes this natural: guards rewrite the top 32 bits of every
// pointer to the sandbox base, so a program's addresses are really 32-bit
// offsets into its 4GiB slot (this is also what makes single-address-space
// fork possible, Section 5.3). The loader adds the slot base when mapping.
#ifndef LFI_ASMTEXT_ASSEMBLE_H_
#define LFI_ASMTEXT_ASSEMBLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "asmtext/ast.h"
#include "runtime/layout.h"
#include "support/result.h"

namespace lfi::asmtext {

// Where sections land inside the sandbox: .text at `text_offset`, then
// rodata, data and bss each starting on the next slot page.
struct LayoutSpec {
  uint64_t text_offset = runtime::kProgramStart;  // first byte of .text
};

// A laid-out program image (sandbox-relative addresses).
struct Image {
  uint64_t text_addr = 0;
  std::vector<uint8_t> text;
  uint64_t rodata_addr = 0;
  std::vector<uint8_t> rodata;
  uint64_t data_addr = 0;
  std::vector<uint8_t> data;
  uint64_t bss_addr = 0;
  uint64_t bss_size = 0;
  uint64_t entry = 0;  // `_start` if defined, else start of .text
  std::unordered_map<std::string, uint64_t> symbols;  // label -> address
};

// Assembles `file`. Fails on unresolved labels, out-of-range branches,
// unexpanded rtcall pseudo-instructions, or unencodable instructions.
Result<Image> Assemble(const AsmFile& file, const LayoutSpec& spec);

}  // namespace lfi::asmtext

#endif  // LFI_ASMTEXT_ASSEMBLE_H_
