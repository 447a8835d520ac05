// The one build path from assembly text to a sandbox executable:
// parse, rewrite (optional), assemble at the loader's slot layout
// (runtime/layout.h), and write the ELF file. The same steps the
// lfi-clang wrapper takes in the paper's artifact.
#ifndef LFI_ELF_BUILD_H_
#define LFI_ELF_BUILD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "rewriter/rewriter.h"
#include "support/result.h"

namespace lfi::elf {

// A built executable.
struct Built {
  std::vector<uint8_t> bytes;  // the ELF file
  size_t text_size = 0;        // bytes of .text
};

// Builds a sandbox ELF from assembly source. The rewriter runs with
// `rewrite` unless it is nullopt (hand-guarded or deliberately hostile
// inputs); `stats`, when non-null, receives the rewrite's statistics.
Result<Built> Build(std::string_view src,
                    std::optional<rewriter::RewriteOptions> rewrite =
                        rewriter::RewriteOptions{},
                    rewriter::RewriteStats* stats = nullptr);

}  // namespace lfi::elf

#endif  // LFI_ELF_BUILD_H_
