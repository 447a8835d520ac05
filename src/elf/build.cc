#include "elf/build.h"

#include <utility>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "elf/elf.h"

namespace lfi::elf {

Result<Built> Build(std::string_view src,
                    std::optional<rewriter::RewriteOptions> rewrite,
                    rewriter::RewriteStats* stats) {
  auto file = asmtext::Parse(src);
  if (!file) return Error{file.error()};
  asmtext::AsmFile prog = *std::move(file);
  if (rewrite) {
    auto rewritten = rewriter::Rewrite(prog, *rewrite, stats);
    if (!rewritten) return Error{rewritten.error()};
    prog = *std::move(rewritten);
  }
  auto img = asmtext::Assemble(prog, asmtext::LayoutSpec{});
  if (!img) return Error{img.error()};
  return Built{Write(FromAssembled(*img)), img->text.size()};
}

}  // namespace lfi::elf
