#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace anonpath::obs {

/// Rate-limited `# progress:` heartbeat on stderr with an ETA, for the
/// multi-minute campaigns that otherwise emit nothing until the final CSV.
///
/// Semantics: `advance(done)` reports monotone completion out of `total`;
/// a line is printed at most every `min_interval` seconds — except the
/// final line (done == total), which always prints so scripts can grep for
/// completion. ETA is the naive linear extrapolation
/// elapsed / done * (total - done), honest for the homogeneous cells of a
/// campaign grid and clearly approximate otherwise. Disabled meters are
/// inert; stderr is diagnostic, so writes are best-effort and never throw
/// or fail the run (unlike `--metrics` file writes, which are checked).
///
/// Thread discipline: call sites serialize externally (the campaign calls
/// advance() under the same mutex that orders cell flushes).
class progress_meter {
 public:
  /// An inert meter (progress off).
  progress_meter() = default;

  /// `label` names the unit stream ("campaign cells", "rounds", ...).
  progress_meter(std::string label, std::uint64_t total, bool enabled,
                 double min_interval_seconds = 0.2);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Reports that `done` of the total units are complete.
  void advance(std::uint64_t done);

 private:
  std::string label_;
  std::uint64_t total_ = 0;
  bool enabled_ = false;
  double min_interval_seconds_ = 0.2;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_print_;
  bool printed_any_ = false;
};

}  // namespace anonpath::obs
