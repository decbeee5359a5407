#include "src/sim/checkpoint.hpp"

#include <bit>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "src/sim/trace.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "src/stats/token_codec.hpp"

namespace anonpath::sim {

namespace {

constexpr char magic[] = "anonpath-checkpoint";

/// Doubles travel as IEEE-754 bit patterns, exactly as in trace v1: bit
/// round-trips and deterministic rendering are what make a resumed CSV
/// byte-identical to an uninterrupted one.
void put_summary(std::ostream& os, const stats::running_summary& s) {
  os << ' ' << s.count() << ' ';
  stats::put_hex_double(os, s.mean());
  os << ' ';
  stats::put_hex_double(os, s.m2());
  os << ' ';
  stats::put_hex_double(os, s.min());
  os << ' ';
  stats::put_hex_double(os, s.max());
}

[[noreturn]] void bad(parse_error_kind kind, const std::string& what) {
  throw parse_error(kind, "checkpoint", what);
}

/// False on any deviation (a record failing here is either the kill point
/// or corruption — the caller decides which by position).
bool parse_u64(const std::string& tok, std::uint64_t& out) {
  return stats::parse_u64(tok, out) == stats::u64_parse::ok;
}

/// Each replica adds at most one sample to a summary, so a count past the
/// campaign's replica count is corruption.
bool parse_summary(std::istringstream& ss, std::uint32_t replicas,
                   stats::running_summary& out) {
  std::string tok;
  std::uint64_t n = 0;
  if (!(ss >> tok) || !parse_u64(tok, n) || n > replicas) return false;
  std::uint64_t raw[4];
  for (std::uint64_t& r : raw)
    if (!(ss >> tok) || !stats::parse_hex64(tok, r)) return false;
  out = stats::running_summary::restore(
      n, std::bit_cast<double>(raw[0]), std::bit_cast<double>(raw[1]),
      std::bit_cast<double>(raw[2]), std::bit_cast<double>(raw[3]));
  return true;
}

/// Parses one `cell` record line against the index the caller expects
/// next and the campaign's replica count; false on any deviation. The
/// caller decides by position whether a failure is the kill point (final
/// line) or corruption.
bool parse_cell_record(const std::string& line, std::uint64_t expected_index,
                       std::uint32_t replicas, campaign_cell& cell) {
  std::istringstream ss(line);
  std::string tok;
  std::uint64_t index = 0, record_replicas = 0, errflag = 0;
  const auto summary = [&](stats::running_summary& out) {
    return parse_summary(ss, replicas, out);
  };
  const bool ok =
      (ss >> tok) && tok == "cell" && (ss >> tok) && parse_u64(tok, index) &&
      index == expected_index && (ss >> tok) &&
      parse_u64(tok, record_replicas) && record_replicas == replicas &&
      (ss >> tok) && parse_u64(tok, cell.submitted) && (ss >> tok) &&
      parse_u64(tok, cell.delivered) && summary(cell.delivered_fraction) &&
      summary(cell.latency_seconds) && summary(cell.hops) &&
      summary(cell.entropy_bits) && summary(cell.identified_fraction) &&
      summary(cell.top1_accuracy) && summary(cell.attack_entropy_bits) &&
      summary(cell.attack_identified) && summary(cell.rounds_to_identify) &&
      summary(cell.retransmit_rate) && (ss >> tok) &&
      parse_u64(tok, errflag) && errflag <= 1;
  if (!ok) return false;
  cell.replicas = replicas;
  if (errflag == 1) {
    std::getline(ss, cell.error);
    if (!cell.error.empty() && cell.error.front() == ' ')
      cell.error.erase(cell.error.begin());
    if (cell.error.empty()) return false;
  }
  return true;
}

/// Validates the magic/version line (lines[0]). Returns false when the
/// header is an acceptable kill point (cut mid-write with nothing after
/// it); throws on a wrong magic or version.
bool parse_magic_line(const std::string& line) {
  std::istringstream head(line);
  std::string tok, version;
  if (!(head >> tok) || tok != magic)
    bad(parse_error_kind::mismatch, "not an anonpath checkpoint (bad magic)");
  const std::string want =
      "v" + std::to_string(checkpoint_file::format_version);
  if (!(head >> version)) return false;
  if (version != want)
    bad(parse_error_kind::version_mismatch,
        "format version mismatch: file has '" + version +
            "', this build reads '" + want + "'");
  return true;
}

/// Parses `scope <16-hex>` into out; false on any deviation.
bool parse_scope_line(const std::string& line, std::uint64_t& out) {
  std::istringstream head(line);
  std::string tok, hex;
  return (head >> tok) && tok == "scope" && (head >> hex) &&
         stats::parse_hex64(hex, out);
}

/// Parses `shard <i> <n>` into (index, count); false on any deviation.
bool parse_shard_line(const std::string& line, std::uint64_t& index,
                      std::uint64_t& count) {
  std::istringstream head(line);
  std::string tok, a, b;
  return (head >> tok) && tok == "shard" && (head >> a) &&
         parse_u64(a, index) && (head >> b) && parse_u64(b, count);
}

bool looks_like_shard_line(const std::string& line) {
  return line.rfind("shard ", 0) == 0;
}

/// FNV-1a, the canonical 64-bit prime, continuing from state `h` (start
/// from the canonical offset basis).
std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::uint64_t campaign_scope(const campaign_grid& grid,
                             const campaign_config& config) {
  // The trace config block of every feasible cell, in cell order, as the
  // cell runs before its per-run seed is applied: exactly what a journaled
  // cell's results depend on, in the one encoding trace replay already
  // pins. The run parameters that pick each run's seed close the stream.
  std::uint64_t h = fnv1a(0xcbf29ce484222325ULL, "grid-v2\n");
  std::ostringstream block;
  for (const scenario& s : expand_grid(grid)) {
    block.str("");
    write_trace_config(scenario_base_config(s, grid), block);
    h = fnv1a(h, block.str());
  }
  block.str("");
  block << "run " << config.replicas << ' ' << config.master_seed << ' '
        << (config.via_trace ? 1 : 0) << '\n';
  return fnv1a(h, block.str());
}

void write_checkpoint_header(std::ostream& os, std::uint64_t scope,
                             std::uint32_t shard_index,
                             std::uint32_t shard_count) {
  ANONPATH_EXPECTS(shard_count >= 1 && shard_index < shard_count);
  os << magic << " v" << checkpoint_file::format_version << "\nscope ";
  stats::put_hex64(os, scope);
  os << '\n';
  if (shard_count > 1)
    os << "shard " << shard_index << ' ' << shard_count << '\n';
}

void append_checkpoint_cell(std::ostream& os, std::uint64_t index,
                            const campaign_cell& cell) {
  os << "cell " << index << ' ' << cell.replicas << ' ' << cell.submitted
     << ' ' << cell.delivered;
  put_summary(os, cell.delivered_fraction);
  put_summary(os, cell.latency_seconds);
  put_summary(os, cell.hops);
  put_summary(os, cell.entropy_bits);
  put_summary(os, cell.identified_fraction);
  put_summary(os, cell.top1_accuracy);
  put_summary(os, cell.attack_entropy_bits);
  put_summary(os, cell.attack_identified);
  put_summary(os, cell.rounds_to_identify);
  put_summary(os, cell.retransmit_rate);
  if (cell.error.empty()) {
    os << " 0";
  } else {
    // The error text is the line's tail: free-form except for newlines,
    // which would breach the one-record-per-line frame.
    std::string msg = cell.error;
    for (char& ch : msg)
      if (ch == '\n' || ch == '\r') ch = ' ';
    os << " 1 " << msg;
  }
  os << '\n';
}

std::vector<campaign_cell> read_checkpoint(std::istream& is,
                                           std::uint64_t scope,
                                           std::uint32_t replicas,
                                           std::uint64_t max_cells,
                                           std::uint32_t shard_index,
                                           std::uint32_t shard_count) {
  ANONPATH_EXPECTS(shard_count >= 1 && shard_index < shard_count);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  // Empty file: the writer was killed before the header flushed. Zero
  // progress, not corruption.
  if (lines.empty()) return {};

  // Header line cut mid-write: kill point before any progress.
  if (!parse_magic_line(lines[0])) return {};
  if (lines.size() < 2) return {};
  {
    std::uint64_t file_scope = 0;
    if (!parse_scope_line(lines[1], file_scope)) {
      if (lines.size() == 2) return {};  // scope line is the kill point
      bad(parse_error_kind::malformed, "malformed scope line");
    }
    if (file_scope != scope)
      bad(parse_error_kind::mismatch,
          "checkpoint belongs to a different campaign (scope mismatch)");
  }

  std::size_t first_record = 2;
  if (shard_count > 1) {
    // A shard resume demands the matching shard line; its absence with
    // nothing after it is the kill point, with records after it corruption.
    if (lines.size() < 3) return {};
    std::uint64_t file_index = 0, file_count = 0;
    if (!parse_shard_line(lines[2], file_index, file_count)) {
      if (lines.size() == 3) return {};  // shard line is the kill point
      bad(parse_error_kind::malformed, "malformed shard line");
    }
    if (file_index != shard_index || file_count != shard_count)
      bad(parse_error_kind::mismatch,
          "checkpoint belongs to shard " + std::to_string(file_index) +
              " of " + std::to_string(file_count) + ", not shard " +
              std::to_string(shard_index) + " of " +
              std::to_string(shard_count));
    first_record = 3;
  } else if (lines.size() > 2 && looks_like_shard_line(lines[2])) {
    // An unsharded resume must not silently adopt a shard journal: its
    // records are a strided subset, not the prefix this reader returns.
    bad(parse_error_kind::mismatch,
        "checkpoint is a shard journal; merge shards instead of resuming "
        "unsharded");
  }

  std::vector<campaign_cell> cells;
  for (std::size_t i = first_record; i < lines.size(); ++i) {
    const bool final_record = i + 1 == lines.size();
    // More records than this shard's share of the grid is a foreign or
    // stale journal — loud even on the final line, where a torn record
    // would be forgiven.
    if (cells.size() >= max_cells)
      bad(parse_error_kind::mismatch,
          "checkpoint has more cell records than the campaign grid");
    campaign_cell cell;
    const std::uint64_t expected =
        shard_index + cells.size() * static_cast<std::uint64_t>(shard_count);
    if (!parse_cell_record(lines[i], expected, replicas, cell)) {
      // The one legal irregularity: a final record the killed writer never
      // finished. Anything earlier is corruption and must be loud.
      if (final_record) break;
      bad(parse_error_kind::malformed,
          "malformed cell record at shard position " +
              std::to_string(cells.size()));
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::uint64_t shard_cell_count(std::uint64_t cell_total,
                               std::uint32_t shard_index,
                               std::uint32_t shard_count) {
  ANONPATH_EXPECTS(shard_count >= 1 && shard_index < shard_count);
  if (cell_total <= shard_index) return 0;
  return (cell_total - 1 - shard_index) / shard_count + 1;
}

shard_checkpoint read_shard_checkpoint(std::istream& is, std::uint64_t scope,
                                       std::uint32_t replicas,
                                       std::uint64_t cell_total) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  // Merging is strict where resuming is lenient: a shard whose header
  // never made it to disk contributes nothing identifiable and the merge
  // cannot proceed.
  if (lines.empty() || !parse_magic_line(lines[0]))
    bad(parse_error_kind::truncated,
        "shard journal has no complete header line");
  if (lines.size() < 2)
    bad(parse_error_kind::truncated, "shard journal has no scope line");
  std::uint64_t file_scope = 0;
  if (!parse_scope_line(lines[1], file_scope))
    bad(parse_error_kind::malformed, "malformed scope line");
  if (file_scope != scope)
    bad(parse_error_kind::mismatch,
        "shard journal belongs to a different campaign (scope mismatch)");

  shard_checkpoint out;
  std::size_t first_record = 2;
  if (lines.size() > 2 && looks_like_shard_line(lines[2])) {
    std::uint64_t index = 0, count = 0;
    if (!parse_shard_line(lines[2], index, count))
      bad(parse_error_kind::malformed, "malformed shard line");
    if (count < 2 || index >= count || count > 0xFFFFFFFFull)
      bad(parse_error_kind::out_of_range,
          "shard identity " + std::to_string(index) + " of " +
              std::to_string(count) + " is out of range");
    out.shard_index = static_cast<std::uint32_t>(index);
    out.shard_count = static_cast<std::uint32_t>(count);
    first_record = 3;
  }
  // No shard line: an unsharded journal, mergeable as the trivial 1-shard
  // split (out keeps its 0-of-1 defaults).

  const std::uint64_t max_cells =
      shard_cell_count(cell_total, out.shard_index, out.shard_count);
  for (std::size_t i = first_record; i < lines.size(); ++i) {
    const bool final_record = i + 1 == lines.size();
    if (out.cells.size() >= max_cells)
      bad(parse_error_kind::mismatch,
          "shard journal has more cell records than its share of the grid");
    campaign_cell cell;
    const std::uint64_t expected =
        out.shard_index +
        out.cells.size() * static_cast<std::uint64_t>(out.shard_count);
    if (!parse_cell_record(lines[i], expected, replicas, cell)) {
      // Drop a torn final record (the kill point); the shard then fails
      // the merge's completeness check, loudly, as an incomplete shard.
      if (final_record) break;
      bad(parse_error_kind::malformed,
          "malformed cell record at shard position " +
              std::to_string(out.cells.size()));
    }
    out.cells.push_back(std::move(cell));
  }
  return out;
}

campaign_result merge_campaign(const campaign_grid& grid,
                               const campaign_config& config,
                               const std::vector<std::string>& shard_paths) {
  ANONPATH_EXPECTS(!shard_paths.empty());
  const std::uint64_t scope = campaign_scope(grid, config);
  const std::vector<scenario> scenarios = expand_grid(grid);
  const std::uint64_t cell_total = scenarios.size();

  std::vector<campaign_cell> cells(cell_total);
  std::vector<char> seen;  // shard indices already merged
  std::uint32_t shard_count = 0;
  for (const std::string& path : shard_paths) {
    std::ifstream in(path);
    if (!in)
      bad(parse_error_kind::io,
          "cannot open shard checkpoint '" + path + "' for reading");
    shard_checkpoint shard;
    try {
      shard = read_shard_checkpoint(in, scope, config.replicas, cell_total);
    } catch (const parse_error& e) {
      // Re-frame with the offending path: a merge reads many files and
      // "scope mismatch" alone does not say which one to go look at.
      std::string detail = e.what();
      const std::string prefix = e.source() + ": ";
      if (detail.rfind(prefix, 0) == 0) detail.erase(0, prefix.size());
      throw parse_error(e.kind(), "checkpoint",
                        detail + " (in '" + path + "')");
    }
    if (shard_count == 0) {
      shard_count = shard.shard_count;
      seen.assign(shard_count, 0);
    } else if (shard.shard_count != shard_count) {
      bad(parse_error_kind::mismatch,
          "'" + path + "' declares " + std::to_string(shard.shard_count) +
              " shards but earlier inputs declared " +
              std::to_string(shard_count));
    }
    if (seen[shard.shard_index])
      bad(parse_error_kind::mismatch,
          "duplicate shard " + std::to_string(shard.shard_index) + " of " +
              std::to_string(shard_count) + " ('" + path + "')");
    seen[shard.shard_index] = 1;
    const std::uint64_t expect =
        shard_cell_count(cell_total, shard.shard_index, shard_count);
    if (shard.cells.size() < expect)
      bad(parse_error_kind::truncated,
          "shard " + std::to_string(shard.shard_index) + " of " +
              std::to_string(shard_count) + " ('" + path + "') is incomplete: " +
              std::to_string(shard.cells.size()) + " of " +
              std::to_string(expect) + " cells");
    for (std::uint64_t k = 0; k < shard.cells.size(); ++k)
      cells[shard.shard_index + k * shard_count] = std::move(shard.cells[k]);
  }
  for (std::uint32_t i = 0; i < shard_count; ++i)
    if (!seen[i])
      bad(parse_error_kind::mismatch,
          "missing shard " + std::to_string(i) + " of " +
              std::to_string(shard_count));

  campaign_result result;
  result.requested_cells = grid.cell_count();
  result.skipped_cells = result.requested_cells - cell_total;
  result.runs = cell_total * config.replicas;
  result.cells = std::move(cells);
  // Shard records carry default scenes, like any checkpoint read; rebind
  // them from the grid so the CSV renders real coordinates.
  for (std::uint64_t i = 0; i < cell_total; ++i)
    result.cells[i].scene = scenarios[i];
  return result;
}

}  // namespace anonpath::sim
