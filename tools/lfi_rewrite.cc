// lfi-rewrite: the assembly-transformation tool (Section 5.1).
//
// Reads GNU ARM64 assembly text, inserts LFI guards, and writes the
// transformed assembly. This is the pass that the paper's lfi-clang
// wrapper interposes between the compiler and the assembler.
//
// Usage: lfi-rewrite [-O0|-O1|-O2] [--no-loads] [--stats] [in.s [out.s]]
//        (stdin/stdout when files are omitted)
//
// Exit status: 0 on success, 1 on an input or rewrite error, 2 on a usage
// error. An unknown option or a third operand is a usage error, never a
// path.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "asmtext/parser.h"
#include "asmtext/printer.h"
#include "rewriter/rewriter.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: lfi-rewrite [-O0|-O1|-O2] [--no-loads] "
               "[--stats] [in.s [out.s]]\n");
}

}  // namespace

int main(int argc, char** argv) {
  lfi::rewriter::RewriteOptions opts;
  bool print_stats = false;
  std::string in_path, out_path;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    if (arg == "-O0") {
      opts.level = lfi::rewriter::OptLevel::kO0;
    } else if (arg == "-O1") {
      opts.level = lfi::rewriter::OptLevel::kO1;
    } else if (arg == "-O2") {
      opts.level = lfi::rewriter::OptLevel::kO2;
    } else if (arg == "--no-loads") {
      opts.sandbox_loads = false;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "lfi-rewrite: unknown option %s\n", arg.c_str());
      PrintUsage();
      return 2;
    } else if (in_path.empty()) {
      in_path = arg;
    } else if (out_path.empty()) {
      out_path = arg;
    } else {
      std::fprintf(stderr, "lfi-rewrite: unexpected operand %s\n",
                   arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  std::string source;
  if (in_path.empty()) {
    std::stringstream ss;
    ss << std::cin.rdbuf();
    source = ss.str();
  } else {
    std::ifstream f(in_path);
    if (!f) {
      std::fprintf(stderr, "lfi-rewrite: cannot open %s\n", in_path.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    source = ss.str();
  }

  auto file = lfi::asmtext::Parse(source);
  if (!file) {
    std::fprintf(stderr, "lfi-rewrite: %s\n", file.error().c_str());
    return 1;
  }
  lfi::rewriter::RewriteStats stats;
  auto rewritten = lfi::rewriter::Rewrite(*file, opts, &stats);
  if (!rewritten) {
    std::fprintf(stderr, "lfi-rewrite: %s\n", rewritten.error().c_str());
    return 1;
  }
  const std::string out = lfi::asmtext::Print(*rewritten);
  if (out_path.empty()) {
    std::fwrite(out.data(), 1, out.size(), stdout);
  } else {
    std::ofstream f(out_path);
    f << out;
  }
  if (print_stats) {
    std::fprintf(stderr,
                 "lfi-rewrite: %zu -> %zu instructions (%zu guards, "
                 "%zu hoisted, %zu sp-elided, %zu tbz rewritten)\n",
                 stats.input_insts, stats.output_insts,
                 stats.guards_inserted, stats.guards_hoisted,
                 stats.guards_elided_sp, stats.tbz_rewritten);
  }
  return 0;
}
