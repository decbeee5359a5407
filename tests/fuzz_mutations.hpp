// Deterministic mutation generator for the corrupted-corpus fuzz suites of
// the line-oriented text formats (traces, checkpoint journals). Each suite
// hands it a well-formed seed text and a callback; the callback asserts the
// parser's untrusted-input contract on every mutant.

#pragma once

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/stats/rng.hpp"

namespace anonpath::fuzz {

inline std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl - pos));
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return lines;
}

inline std::string join_skipping(const std::vector<std::string>& lines,
                                 std::size_t skip) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i == skip) continue;
    out += lines[i];
    out += '\n';
  }
  return out;
}

/// Calls `visit(mutant, description, line_level)` for every mutant of
/// `base`: each line-granularity truncation and mid-line cut, each
/// single-line deletion, duplication and adjacent swap (line_level =
/// true), then every token of every line replaced by each of five hostile
/// substitutes, and 200 seeded single-byte flips (line_level = false).
template <typename Visit>
void for_each_mutant(const std::string& base, const std::string& tag,
                     Visit&& visit) {
  const std::vector<std::string> lines = split_lines(base);

  // Every prefix truncation at line granularity, plus mid-line cuts.
  std::size_t offset = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    offset += lines[i].size() + 1;
    visit(base.substr(0, offset),
          tag + ": truncated after line " + std::to_string(i), true);
    visit(base.substr(0, offset - lines[i].size() / 2 - 1),
          tag + ": cut inside line " + std::to_string(i), true);
  }

  // Every single-line deletion, duplication, and pairwise adjacent swap.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    visit(join_skipping(lines, i), tag + ": deleted line " + std::to_string(i),
          true);
    visit(base + lines[i] + "\n",
          tag + ": re-appended line " + std::to_string(i), true);
    if (i + 1 < lines.size()) {
      std::vector<std::string> swapped = lines;
      std::swap(swapped[i], swapped[i + 1]);
      visit(join_skipping(swapped, swapped.size()),
            tag + ": swapped lines " + std::to_string(i), true);
    }
  }

  // Token mangling: every token of every line, five hostile substitutes.
  // "4294967295"/"99999..." probe count fields for unbounded reserves and
  // index fields for out-of-range values; "x" and "-3" probe the numeric
  // parsers; "" (token deletion) probes truncation mid-line.
  const char* evil[] = {"x", "-3", "4294967295", "99999999999999999999", ""};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::istringstream split(lines[i]);
    std::vector<std::string> tokens;
    for (std::string tok; split >> tok;) tokens.push_back(tok);
    for (std::size_t t = 0; t < tokens.size(); ++t) {
      for (const char* sub : evil) {
        std::string rebuilt;
        for (std::size_t k = 0; k < tokens.size(); ++k) {
          if (k == t && sub[0] == '\0') continue;
          if (!rebuilt.empty()) rebuilt += ' ';
          rebuilt += k == t ? sub : tokens[k];
        }
        std::vector<std::string> mutated = lines;
        mutated[i] = rebuilt;
        visit(join_skipping(mutated, mutated.size()),
              tag + ": line " + std::to_string(i) + " token " +
                  std::to_string(t) + " -> '" + sub + "'",
              false);
      }
    }
  }

  // Seeded random byte corruption: flip one byte at a time.
  stats::rng gen = stats::rng::stream(0xf0220ULL, 0);
  for (int round = 0; round < 200; ++round) {
    std::string mutated = base;
    const std::size_t at = gen.next_below(mutated.size());
    mutated[at] = static_cast<char>(gen.next_below(256));
    visit(mutated, tag + ": byte flip at " + std::to_string(at), false);
  }
}

}  // namespace anonpath::fuzz
