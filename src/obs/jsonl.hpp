#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/span.hpp"

namespace anonpath::obs {

/// Current on-disk metrics format: "anonpath-metrics v1" JSONL. One JSON
/// object per line — a header `{"format":"anonpath-metrics","version":1}`,
/// then counters, gauges, and histograms (each group name-sorted), then
/// spans in id order. Histogram buckets are sparse `[index,count]` pairs
/// with strictly ascending indexes. The reader is strict: any deviation is
/// an anonpath::parse_error (source "metrics"), classified per the
/// repo-wide taxonomy — never a crash or a contract violation, no matter
/// how corrupt the bytes.
inline constexpr std::uint32_t metrics_format_version = 1;

/// A parsed metrics file: the snapshot plus the span tree it carried.
struct metrics_document {
  metrics_snapshot metrics;
  std::vector<span_record> spans;
};

/// Serializes snapshot + spans as metrics JSONL v1. Does not flush or
/// verify the stream — callers own the stream-check (write_metrics_file
/// below does it for files).
void write_metrics_jsonl(std::ostream& out, const metrics_snapshot& snapshot,
                         const std::vector<span_record>& spans);

/// Writes a metrics JSONL v1 file, flushes, and verifies the stream,
/// throwing parse_error{io} on open or write failure (full disk, closed
/// pipe) per the repo's result-bearing-write rules.
void write_metrics_file(const std::string& path,
                        const metrics_snapshot& snapshot,
                        const std::vector<span_record>& spans);

/// Parses metrics JSONL v1. Throws parse_error on any defect:
/// io (stream failed mid-read), truncated (empty input or a line ending
/// mid-token), malformed (bad token, wrong key order, duplicate name,
/// out-of-order span ids), out_of_range (bucket index >= 65, count
/// overflow, non-finite gauge), version_mismatch (wrong header version).
[[nodiscard]] metrics_document read_metrics_jsonl(std::istream& in);

/// read_metrics_jsonl over a file; unopenable files are parse_error{io}.
[[nodiscard]] metrics_document read_metrics_file(const std::string& path);

/// Deterministic rendering of the *stable* portion of a document: counter
/// values, gauges, histogram bucket placements for deterministic metrics,
/// totals only for timing metrics (is_timing_metric), and span structure
/// (id, parent, name) without durations. Two runs of the same logical work
/// must render identically regardless of thread count or shard split —
/// this is the string the determinism tests compare.
[[nodiscard]] std::string stable_text(const metrics_snapshot& snapshot,
                                      const std::vector<span_record>& spans);

}  // namespace anonpath::obs
