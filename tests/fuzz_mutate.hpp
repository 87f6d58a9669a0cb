// The seeded mutator the fuzz tests share: bit flips, token overwrites,
// cut runs and truncations on the bytes, and duplicated, swapped and
// deleted lines.  `tokens` is the alphabet overwrites draw from, so they
// hit the parser's branches more often than noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ccmx::fuzz {

inline std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t eol = text.find('\n', at);
    if (eol == std::string::npos) {
      lines.push_back(text.substr(at));
      break;
    }
    lines.push_back(text.substr(at, eol + 1 - at));
    at = eol + 1;
  }
  return lines;
}

/// Applies one mutation: flip a bit, overwrite a byte, cut a run,
/// truncate, or duplicate, swap or delete a line.
inline void mutate(std::string& input, util::Xoshiro256& rng,
                   std::string_view tokens) {
  const auto offset = [&rng](std::size_t size) {
    return static_cast<std::size_t>(rng.below(size + 1));
  };
  const std::uint64_t kind = rng.below(7);
  if (kind <= 3) {
    switch (kind) {
      case 0:  // bit flip
        if (!input.empty()) {
          input[rng.below(input.size())] ^=
              static_cast<char>(1u << rng.below(8));
        }
        break;
      case 1:  // overwrite a byte with a grammar token
        if (!input.empty()) {
          input[rng.below(input.size())] = tokens[rng.below(tokens.size())];
        }
        break;
      case 2:  // cut a run
        input.erase(offset(input.size()), 1 + rng.below(16));
        break;
      default:  // truncate
        input.resize(offset(input.size()));
        break;
    }
    return;
  }
  std::vector<std::string> lines = split_lines(input);
  if (lines.empty()) return;
  const std::size_t a = rng.below(lines.size());
  const std::size_t b = rng.below(lines.size());
  switch (kind) {
    case 4:  // duplicate a line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(b), lines[a]);
      break;
    case 5:  // swap two lines
      std::swap(lines[a], lines[b]);
      break;
    default:  // delete a line
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(a));
      break;
  }
  input.clear();
  for (const std::string& line : lines) input += line;
}

}  // namespace ccmx::fuzz
