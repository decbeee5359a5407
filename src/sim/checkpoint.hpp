#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/sim/campaign.hpp"

namespace anonpath::sim {

/// Campaign checkpoint format, versioned like the trace format.
///
/// A checkpoint is the crash-recovery journal of one `run_campaign`
/// invocation: completed cells, in cell-index order, each carrying the
/// exact aggregate state (raw Welford summary words as IEEE-754 bit
/// patterns) needed to render that cell's CSV row bit-identically without
/// re-running it. Layout:
///
///   anonpath-checkpoint v2
///   scope <16-hex fingerprint>
///   [shard <i> <n>]
///   cell <index> <replicas> <submitted> <delivered>
///        {<count> <mean> <m2> <min> <max>} x10 <errflag> [error text]
///   ...
///
/// One record per line (each `cell` record above is one line). An unsharded
/// journal has no shard line and its indices run strictly 0,1,2,... (a
/// strict prefix of the grid's cell list — the writer flushes cells only in
/// order). A shard i of n journals exactly the cells whose absolute grid
/// index is congruent to i mod n, in order, under an explicit `shard i n`
/// header line; absolute indices make shard journals mergeable back into
/// the unsharded cell list with no renumbering. The scope line is FNV-1a
/// over the trace config block of each feasible cell plus the run
/// parameters (see campaign_scope); it does NOT cover the shard split — all
/// shards of one campaign share a scope, which is what lets merge_campaign
/// verify they belong together. The scenario itself is not serialized: the
/// grid reconstructs it from the index. Every record's <replicas> must
/// equal the campaign's and no summary count may exceed it.
///
/// Recovery contract: the final line of a file whose writer was killed
/// mid-append may be incomplete; read_checkpoint discards a malformed
/// *final* record silently (that is the kill point) but rejects a
/// malformed record followed by further records — that is corruption, not
/// a crash artifact.
struct checkpoint_file {
  /// Bump on any change to the serialized layout or the scope bytes;
  /// read_checkpoint refuses mismatched versions rather than misparse. v2
  /// derives the scope from the trace config block; v1 journals (a hand
  /// serialization of the grid) are refused as version_mismatch, so a
  /// campaign journaled by a v1 build is rerun rather than resumed. (The
  /// optional shard header line is additive.)
  static constexpr std::uint32_t format_version = 2;
};

/// Deterministic fingerprint of everything that defines a campaign's cell
/// results: FNV-1a over "grid-v2", then the trace config block
/// (write_trace_config) of scenario_base_config for every feasible cell of
/// expand_grid, in cell order, then the config's replicas, master_seed and
/// via_trace. It names no config field: a field enters through the trace
/// writer, which trace replay already pins. Axis values that only add
/// infeasible cells change neither the cell list nor the scope.
[[nodiscard]] std::uint64_t campaign_scope(const campaign_grid& grid,
                                           const campaign_config& config);

/// Writes the header lines: magic/version, scope, and — only when
/// shard_count > 1, so unsharded journals keep their historical bytes —
/// the `shard <i> <n>` identity line.
void write_checkpoint_header(std::ostream& os, std::uint64_t scope,
                             std::uint32_t shard_index = 0,
                             std::uint32_t shard_count = 1);

/// Appends one completed cell record. Callers must append records in cell
/// order; the index is the cell's ABSOLUTE grid index (for shard i of n:
/// i, i+n, i+2n, ...). `cell.scene` is not serialized.
void append_checkpoint_cell(std::ostream& os, std::uint64_t index,
                            const campaign_cell& cell);

/// Reads the longest usable prefix of completed cells for one known shard
/// (the resume path; the defaults read an unsharded journal unchanged).
/// The stream is untrusted input: a bad magic, version, or scope, a shard
/// line disagreeing with (shard_index, shard_count), or a malformed
/// non-final record (a replica count other than `replicas` or a summary
/// count above it included), throws anonpath::parse_error (kinds mismatch /
/// version_mismatch / malformed / out_of_range); a malformed or truncated
/// FINAL record is discarded as the kill point. Returned cells have
/// default scenes (the caller rebinds them from the grid) and at most
/// `max_cells` entries — max_cells is the SHARD's cell count, and records
/// past that bound are corruption. An unsharded read refuses a shard
/// journal rather than adopting its (differently indexed) records.
[[nodiscard]] std::vector<campaign_cell> read_checkpoint(
    std::istream& is, std::uint64_t scope, std::uint32_t replicas,
    std::uint64_t max_cells, std::uint32_t shard_index = 0,
    std::uint32_t shard_count = 1);

/// One shard journal as read back for merging: the identity it declares
/// plus its completed cells in shard order (cell k holds absolute grid
/// index shard_index + k * shard_count).
struct shard_checkpoint {
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::vector<campaign_cell> cells;
};

/// Reads one shard journal whose identity is not known a priori (the merge
/// path). Unlike read_checkpoint this is strict about the header: a
/// journal whose magic/scope/shard lines never finished flushing is a
/// truncated shard, not forgivable zero progress. A torn FINAL cell record
/// is still dropped (the kill point) — the shard then simply fails
/// merge_campaign's completeness check. Records are checked against
/// `replicas` as in read_checkpoint. Throws anonpath::parse_error on any
/// corruption, scope mismatch, or an out-of-range shard identity.
[[nodiscard]] shard_checkpoint read_shard_checkpoint(std::istream& is,
                                                     std::uint64_t scope,
                                                     std::uint32_t replicas,
                                                     std::uint64_t cell_total);

/// Number of cells shard `shard_index` of `shard_count` owns in a grid of
/// `cell_total` cells (those with absolute index ≡ shard_index mod
/// shard_count).
[[nodiscard]] std::uint64_t shard_cell_count(std::uint64_t cell_total,
                                             std::uint32_t shard_index,
                                             std::uint32_t shard_count);

/// Merges completed shard journals back into the one campaign_result an
/// unsharded run of (grid, config) would have produced — bit-identical,
/// including the CSV rendering, because every shard ran its cells under
/// absolute-index seeds and journaled bit-exact aggregate state. Every
/// validation failure is loud, via anonpath::parse_error:
///   io        — a shard path that cannot be opened
///   mismatch  — wrong scope, shards disagreeing on the shard count, the
///               same shard supplied twice, or a shard missing entirely
///   truncated — a shard journal whose cell records stop short of its
///               full share (e.g. a killed or still-running shard)
/// config's shard_index/shard_count are ignored: the journals declare
/// their own identities and the merged result is always the whole grid.
[[nodiscard]] campaign_result merge_campaign(
    const campaign_grid& grid, const campaign_config& config,
    const std::vector<std::string>& shard_paths);

}  // namespace anonpath::sim
