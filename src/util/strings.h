// Small string helpers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace hermes {

// `prefix` followed by the decimal digits of `n`, e.g. numbered("w", 3) is
// "w3". It appends to the prefix: for `"w" + std::to_string(n)` GCC 12 at
// -O3 reports a bogus -Wrestrict from inside basic_string::insert.
inline std::string numbered(std::string_view prefix, uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace hermes
