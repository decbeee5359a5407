#include "src/obs/progress.hpp"

#include <cstdio>
#include <iostream>

namespace anonpath::obs {

progress_meter::progress_meter(std::string label, std::uint64_t total,
                               bool enabled, double min_interval_seconds)
    : label_(std::move(label)),
      total_(total),
      enabled_(enabled),
      min_interval_seconds_(min_interval_seconds),
      start_(std::chrono::steady_clock::now()),
      last_print_(start_) {}

void progress_meter::advance(std::uint64_t done) {
  if (!enabled_) return;
  const auto now = std::chrono::steady_clock::now();
  const bool final = done >= total_;
  const double since_print =
      std::chrono::duration<double>(now - last_print_).count();
  if (!final && printed_any_ && since_print < min_interval_seconds_) return;
  const double elapsed = std::chrono::duration<double>(now - start_).count();
  const double fraction =
      total_ == 0 ? 1.0
                  : static_cast<double>(done) / static_cast<double>(total_);
  char line[256];
  if (done == 0 || final) {
    std::snprintf(line, sizeof(line),
                  "# progress: %s %llu/%llu (%.1f%%) elapsed %.1fs\n",
                  label_.c_str(), static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(total_), 100.0 * fraction,
                  elapsed);
  } else {
    const double eta = elapsed / static_cast<double>(done) *
                       static_cast<double>(total_ - done);
    std::snprintf(line, sizeof(line),
                  "# progress: %s %llu/%llu (%.1f%%) elapsed %.1fs eta %.1fs\n",
                  label_.c_str(), static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(total_), 100.0 * fraction,
                  elapsed, eta);
  }
  std::cerr << line;  // diagnostic stream: best-effort, never checked
  std::cerr.flush();
  last_print_ = now;
  printed_any_ = true;
}

}  // namespace anonpath::obs
