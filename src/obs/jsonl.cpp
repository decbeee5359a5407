#include "src/obs/jsonl.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "src/stats/error.hpp"

namespace anonpath::obs {

namespace {

constexpr const char* source_label = "metrics";

[[noreturn]] void fail(parse_error_kind kind, const std::string& detail) {
  throw parse_error(kind, source_label, detail);
}

std::string escape_json(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string format_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Strict scanner over one JSONL line. Every helper classifies its own
/// failure: hitting end-of-line mid-token is `truncated`, a wrong byte is
/// `malformed`, a well-formed but impossible value is `out_of_range`.
struct cursor {
  const char* p;
  const char* end;
  std::size_t line_no;

  [[nodiscard]] std::string where() const {
    return "line " + std::to_string(line_no);
  }

  void expect(std::string_view literal) {
    for (const char c : literal) {
      if (p == end)
        fail(parse_error_kind::truncated,
             where() + ": record ended while expecting '" +
                 std::string(literal) + "'");
      if (*p != c)
        fail(parse_error_kind::malformed,
             where() + ": expected '" + std::string(literal) + "'");
      ++p;
    }
  }

  [[nodiscard]] bool peek(char c) const { return p != end && *p == c; }

  std::uint64_t parse_u64() {
    if (p == end)
      fail(parse_error_kind::truncated,
           where() + ": record ended while expecting an integer");
    if (*p < '0' || *p > '9')
      fail(parse_error_kind::malformed, where() + ": expected an integer");
    std::uint64_t value = 0;
    while (p != end && *p >= '0' && *p <= '9') {
      const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
      if (value > (UINT64_MAX - digit) / 10)
        fail(parse_error_kind::out_of_range,
             where() + ": integer overflows 64 bits");
      value = value * 10 + digit;
      ++p;
    }
    return value;
  }

  double parse_double() {
    if (p == end)
      fail(parse_error_kind::truncated,
           where() + ": record ended while expecting a number");
    char* parsed_end = nullptr;
    const double value = std::strtod(p, &parsed_end);
    if (parsed_end == p)
      fail(parse_error_kind::malformed, where() + ": expected a number");
    if (parsed_end > end)
      fail(parse_error_kind::truncated,
           where() + ": record ended inside a number");
    if (!std::isfinite(value))
      fail(parse_error_kind::out_of_range,
           where() + ": number is not finite");
    p = parsed_end;
    return value;
  }

  std::string parse_string() {
    expect("\"");
    std::string out;
    for (;;) {
      if (p == end)
        fail(parse_error_kind::truncated,
             where() + ": record ended inside a string");
      const char c = *p++;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail(parse_error_kind::malformed,
             where() + ": raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (p == end)
        fail(parse_error_kind::truncated,
             where() + ": record ended inside an escape");
      const char esc = *p++;
      if (esc == '"' || esc == '\\') {
        out.push_back(esc);
      } else if (esc == 'u') {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          if (p == end)
            fail(parse_error_kind::truncated,
                 where() + ": record ended inside a \\u escape");
          const char h = *p++;
          unsigned nibble = 0;
          if (h >= '0' && h <= '9') {
            nibble = static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            nibble = static_cast<unsigned>(h - 'a') + 10;
          } else {
            fail(parse_error_kind::malformed,
                 where() + ": bad hex digit in \\u escape");
          }
          code = code * 16 + nibble;
        }
        if (code >= 0x20)
          fail(parse_error_kind::malformed,
               where() + ": \\u escape outside the control range");
        out.push_back(static_cast<char>(code));
      } else {
        fail(parse_error_kind::malformed,
             where() + ": unsupported escape in string");
      }
    }
  }

  void expect_line_end() {
    if (p != end)
      fail(parse_error_kind::malformed,
           where() + ": trailing bytes after record");
  }
};

}  // namespace

void write_metrics_jsonl(std::ostream& out, const metrics_snapshot& snapshot,
                         const std::vector<span_record>& spans) {
  out << "{\"format\":\"anonpath-metrics\",\"version\":"
      << metrics_format_version << "}\n";
  for (const auto& [name, value] : snapshot.counters)
    out << "{\"kind\":\"counter\",\"name\":\"" << escape_json(name)
        << "\",\"value\":" << value << "}\n";
  for (const auto& [name, value] : snapshot.gauges)
    out << "{\"kind\":\"gauge\",\"name\":\"" << escape_json(name)
        << "\",\"value\":" << format_double(value) << "}\n";
  for (const auto& [name, hist] : snapshot.histograms) {
    out << "{\"kind\":\"histogram\",\"name\":\"" << escape_json(name)
        << "\",\"total\":" << hist.total() << ",\"buckets\":[";
    bool first = true;
    const auto& counts = hist.counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      if (!first) out << ',';
      first = false;
      out << '[' << i << ',' << counts[i] << ']';
    }
    out << "]}\n";
  }
  for (const span_record& s : spans)
    out << "{\"kind\":\"span\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"name\":\"" << escape_json(s.name)
        << "\",\"ms\":" << format_double(s.duration_ms) << "}\n";
}

void write_metrics_file(const std::string& path,
                        const metrics_snapshot& snapshot,
                        const std::vector<span_record>& spans) {
  std::ofstream out(path);
  if (!out)
    fail(parse_error_kind::io, "cannot open '" + path + "' for writing");
  write_metrics_jsonl(out, snapshot, spans);
  out.flush();
  if (!out)
    fail(parse_error_kind::io,
         "write to '" + path + "' failed (disk full or I/O error)");
}

metrics_document read_metrics_jsonl(std::istream& in) {
  metrics_document doc;
  std::string line;
  std::size_t line_no = 0;
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    cursor cur{line.data(), line.data() + line.size(), line_no};
    if (!have_header) {
      cur.expect("{\"format\":\"anonpath-metrics\",\"version\":");
      const std::uint64_t version = cur.parse_u64();
      cur.expect("}");
      cur.expect_line_end();
      if (version != metrics_format_version)
        fail(parse_error_kind::version_mismatch,
             "header declares version " + std::to_string(version) +
                 "; this build reads version " +
                 std::to_string(metrics_format_version));
      have_header = true;
      continue;
    }
    cur.expect("{\"kind\":\"");
    std::string kind;
    while (cur.p != cur.end && *cur.p != '"') kind.push_back(*cur.p++);
    cur.expect("\"");
    if (kind == "counter") {
      cur.expect(",\"name\":");
      const std::string name = cur.parse_string();
      cur.expect(",\"value\":");
      const std::uint64_t value = cur.parse_u64();
      cur.expect("}");
      cur.expect_line_end();
      if (!doc.metrics.counters.emplace(name, value).second)
        fail(parse_error_kind::malformed,
             cur.where() + ": duplicate counter '" + name + "'");
    } else if (kind == "gauge") {
      cur.expect(",\"name\":");
      const std::string name = cur.parse_string();
      cur.expect(",\"value\":");
      const double value = cur.parse_double();
      cur.expect("}");
      cur.expect_line_end();
      if (!doc.metrics.gauges.emplace(name, value).second)
        fail(parse_error_kind::malformed,
             cur.where() + ": duplicate gauge '" + name + "'");
    } else if (kind == "histogram") {
      cur.expect(",\"name\":");
      const std::string name = cur.parse_string();
      cur.expect(",\"total\":");
      const std::uint64_t total = cur.parse_u64();
      cur.expect(",\"buckets\":[");
      std::vector<std::uint64_t> counts(log_histogram::bucket_count, 0);
      std::uint64_t sum = 0;
      bool first = true;
      bool last_index_set = false;
      std::uint64_t last_index = 0;
      while (!cur.peek(']')) {
        if (!first) cur.expect(",");
        first = false;
        cur.expect("[");
        const std::uint64_t index = cur.parse_u64();
        cur.expect(",");
        const std::uint64_t count = cur.parse_u64();
        cur.expect("]");
        if (index >= log_histogram::bucket_count)
          fail(parse_error_kind::out_of_range,
               cur.where() + ": bucket index " + std::to_string(index) +
                   " >= " + std::to_string(log_histogram::bucket_count));
        if (last_index_set && index <= last_index)
          fail(parse_error_kind::malformed,
               cur.where() + ": bucket indexes must be strictly ascending");
        if (count == 0)
          fail(parse_error_kind::malformed,
               cur.where() + ": zero-count bucket must be omitted");
        if (count > UINT64_MAX - sum)
          fail(parse_error_kind::out_of_range,
               cur.where() + ": bucket counts overflow 64 bits");
        sum += count;
        counts[index] = count;
        last_index = index;
        last_index_set = true;
      }
      cur.expect("]}");
      cur.expect_line_end();
      if (sum != total)
        fail(parse_error_kind::malformed,
             cur.where() + ": bucket counts sum to " + std::to_string(sum) +
                 " but total declares " + std::to_string(total));
      if (!doc.metrics.histograms
               .emplace(name, log_histogram::from_counts(counts))
               .second)
        fail(parse_error_kind::malformed,
             cur.where() + ": duplicate histogram '" + name + "'");
    } else if (kind == "span") {
      cur.expect(",\"id\":");
      const std::uint64_t id = cur.parse_u64();
      cur.expect(",\"parent\":");
      const std::uint64_t parent = cur.parse_u64();
      cur.expect(",\"name\":");
      std::string name = cur.parse_string();
      cur.expect(",\"ms\":");
      const double ms = cur.parse_double();
      cur.expect("}");
      cur.expect_line_end();
      if (id != doc.spans.size() + 1)
        fail(parse_error_kind::malformed,
             cur.where() + ": span ids must be consecutive from 1");
      if (parent >= id)
        fail(parse_error_kind::out_of_range,
             cur.where() + ": span parent must precede the span");
      if (ms < 0.0)
        fail(parse_error_kind::out_of_range,
             cur.where() + ": span duration is negative");
      doc.spans.push_back(span_record{id, parent, std::move(name), ms});
    } else {
      fail(parse_error_kind::malformed,
           cur.where() + ": unknown record kind '" + kind + "'");
    }
  }
  if (in.bad()) fail(parse_error_kind::io, "stream failed while reading");
  if (!have_header)
    fail(parse_error_kind::truncated, "empty input: missing header line");
  return doc;
}

metrics_document read_metrics_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    fail(parse_error_kind::io, "cannot open '" + path + "' for reading");
  return read_metrics_jsonl(in);
}

std::string stable_text(const metrics_snapshot& snapshot,
                        const std::vector<span_record>& spans) {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters)
    out << "counter " << name << ' ' << value << '\n';
  for (const auto& [name, value] : snapshot.gauges)
    out << "gauge " << name << ' ' << format_double(value) << '\n';
  for (const auto& [name, hist] : snapshot.histograms) {
    out << "hist " << name << " total " << hist.total();
    if (!is_timing_metric(name)) {
      const auto& counts = hist.counts();
      for (std::size_t i = 0; i < counts.size(); ++i)
        if (counts[i] != 0) out << ' ' << i << ':' << counts[i];
    }
    out << '\n';
  }
  for (const span_record& s : spans)
    out << "span " << s.id << ' ' << s.parent << ' ' << s.name << '\n';
  return out.str();
}

}  // namespace anonpath::obs
