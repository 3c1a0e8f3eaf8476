// Command-line number parsing shared by the developer tools.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace pardfs::tools {

// The whole of `text` as a number no smaller than `min`; anything else
// (empty, trailing junk, a sign on an unsigned, overflow) is malformed.
template <typename T>
bool parse_number(std::string_view text, T& out, T min) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min) return false;
  out = value;
  return true;
}

}  // namespace pardfs::tools
