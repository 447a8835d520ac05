// lfi-as: assembles (rewritten) LFI assembly into a sandbox ELF.
//
// Usage: lfi-as in.s out.elf
//
// Exit status: 0 on success, 1 on an input, assembly or write error, 2 on
// a wrong operand count.

#include <cstdio>
#include <fstream>
#include <sstream>

#include "elf/build.h"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: lfi-as in.s out.elf\n");
    return 2;
  }
  std::ifstream f(argv[1]);
  if (!f) {
    std::fprintf(stderr, "lfi-as: cannot open %s\n", argv[1]);
    return 1;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  auto built = lfi::elf::Build(ss.str(), std::nullopt);
  if (!built) {
    std::fprintf(stderr, "lfi-as: %s\n", built.error().c_str());
    return 1;
  }
  std::ofstream out(argv[2], std::ios::binary);
  out.write(reinterpret_cast<const char*>(built->bytes.data()),
            static_cast<std::streamsize>(built->bytes.size()));
  out.close();
  if (!out) {
    std::fprintf(stderr, "lfi-as: cannot write %s\n", argv[2]);
    return 1;
  }
  std::fprintf(stderr, "lfi-as: wrote %zu bytes (%zu text)\n",
               built->bytes.size(), built->text_size);
  return 0;
}
