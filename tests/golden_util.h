// Shared golden-file check for snapshot tests.
//
// A golden snapshot is a text made of entries, each starting with a line
// that begins with `>`. The check compares `snapshot` with the committed
// file at `path`, reporting up to 20 differing entries, or rewrites the
// file when LFI_UPDATE_GOLDEN is set in the environment.
#ifndef LFI_TESTS_GOLDEN_UTIL_H_
#define LFI_TESTS_GOLDEN_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace lfi::test {

inline void CheckGolden(const std::string& snapshot, const char* path) {
  if (std::getenv("LFI_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << snapshot;
    std::printf("updated %s (%zu bytes)\n", path, snapshot.size());
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << "; regenerate with LFI_UPDATE_GOLDEN=1";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  if (snapshot == golden) return;
  auto entries = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
      if (line.rfind(">", 0) == 0 || out.empty()) out.emplace_back();
      out.back() += line + "\n";
    }
    return out;
  };
  const auto want = entries(golden), got = entries(snapshot);
  int shown = 0;
  for (size_t k = 0; k < std::max(want.size(), got.size()) && shown < 20;
       ++k) {
    const std::string a = k < want.size() ? want[k] : "<none>\n";
    const std::string b = k < got.size() ? got[k] : "<none>\n";
    if (a != b) {
      ADD_FAILURE() << "golden entry " << k << ":\n" << a << "now:\n" << b;
      ++shown;
    }
  }
  FAIL() << "output diverged from " << path;
}

}  // namespace lfi::test

#endif  // LFI_TESTS_GOLDEN_UTIL_H_
