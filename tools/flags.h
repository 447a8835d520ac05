// Numeric flag values for the command-line tools. A value must be a
// whole unsigned number (decimal, 0x-hex or 0-octal) with no sign,
// blank, trailing text or overflow, so that a typo is a usage error
// rather than a silent zero.
#ifndef LFI_TOOLS_FLAGS_H_
#define LFI_TOOLS_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace lfi::tools {

inline bool ParseU64(const char* s, uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(*s))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace lfi::tools

#endif  // LFI_TOOLS_FLAGS_H_
