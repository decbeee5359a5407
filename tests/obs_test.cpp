// The observability layer's contracts: log-scale bucket math, the
// merge-associativity property the shard/merge metrics path rests on,
// slab-order-invariant registry snapshots, deterministic span trees, a
// lossless JSONL v1 roundtrip, and — because metrics files are untrusted
// input like any other — a corruption matrix asserting the reader always
// classifies damage as parse_error, never a crash or contract violation.

#include "src/obs/jsonl.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/span.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/stats/error.hpp"
#include "src/stats/histogram.hpp"

namespace anonpath::obs {
namespace {

TEST(LogHistogram, BucketOfIsBitWidth) {
  EXPECT_EQ(log_histogram::bucket_of(0), 0u);
  EXPECT_EQ(log_histogram::bucket_of(1), 1u);
  EXPECT_EQ(log_histogram::bucket_of(2), 2u);
  EXPECT_EQ(log_histogram::bucket_of(3), 2u);
  EXPECT_EQ(log_histogram::bucket_of(4), 3u);
  for (std::size_t k = 0; k < 64; ++k) {
    const std::uint64_t power = std::uint64_t{1} << k;
    EXPECT_EQ(log_histogram::bucket_of(power), k + 1) << k;
    EXPECT_EQ(log_histogram::bucket_of(power - 1), k) << k;
  }
  EXPECT_EQ(log_histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64u);
}

TEST(LogHistogram, BucketFloorInvertsBucketOf) {
  EXPECT_EQ(log_histogram::bucket_floor(0), 0u);
  for (std::size_t i = 0; i < log_histogram::bucket_count; ++i) {
    const std::uint64_t floor = log_histogram::bucket_floor(i);
    EXPECT_EQ(log_histogram::bucket_of(floor), i) << i;
  }
  // Every value is at or above the floor of its own bucket.
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
                          std::uint64_t{1000}, std::uint64_t{1} << 40,
                          std::numeric_limits<std::uint64_t>::max()})
    EXPECT_LE(log_histogram::bucket_floor(log_histogram::bucket_of(v)), v);
}

TEST(LogHistogram, QuantileFloorAndFromCountsRoundtrip) {
  log_histogram h;
  for (std::uint64_t v = 0; v < 100; ++v) h.add(v);
  EXPECT_EQ(h.total(), 100u);
  // Values 64..99 (36 of 100) live in bucket 7 (floor 64), so the median
  // sits in bucket 7's predecessor range: ranks 1..64 fill buckets 0..6.
  EXPECT_EQ(h.quantile_floor(0.5), 32u);
  EXPECT_EQ(h.quantile_floor(0.99), 64u);
  EXPECT_EQ(h.quantile_floor(0.0), 0u);

  const log_histogram rebuilt = log_histogram::from_counts(h.counts());
  EXPECT_EQ(rebuilt.total(), h.total());
  EXPECT_EQ(rebuilt.counts(), h.counts());
}

// Satellite pin: int_histogram::merge is associative and add-order free —
// the exact property that makes sharded campaign histograms bit-identical
// to the unsharded run no matter how the merge tree is shaped.
TEST(IntHistogram, MergeAssociativityProperty) {
  std::mt19937_64 rng(20020712);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t bins = 1 + static_cast<std::size_t>(rng() % 64);
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 400);
    std::vector<std::size_t> values(n);
    for (auto& v : values) v = static_cast<std::size_t>(rng() % bins);

    // Random 3-way partition of the same additions.
    stats::int_histogram a(bins), b(bins), c(bins), sequential(bins);
    for (const std::size_t v : values) {
      sequential.add(v);
      switch (rng() % 3) {
        case 0: a.add(v); break;
        case 1: b.add(v); break;
        default: c.add(v); break;
      }
    }

    stats::int_histogram left = a;   // (a + b) + c
    left.merge(b);
    left.merge(c);
    stats::int_histogram bc = b;     // a + (b + c)
    bc.merge(c);
    stats::int_histogram right = a;
    right.merge(bc);

    ASSERT_EQ(left.counts(), right.counts()) << "trial " << trial;
    ASSERT_EQ(left.counts(), sequential.counts()) << "trial " << trial;
    ASSERT_EQ(left.total(), sequential.total());

    // Quantile agrees with a naive rank scan over the merged counts.
    for (const double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
      const double scaled = q * static_cast<double>(sequential.total());
      auto rank = static_cast<std::uint64_t>(scaled);
      if (static_cast<double>(rank) < scaled) ++rank;
      if (rank == 0) rank = 1;
      std::uint64_t cumulative = 0;
      std::size_t expected = bins - 1;
      for (std::size_t i = 0; i < bins; ++i) {
        cumulative += sequential.count(i);
        if (cumulative >= rank) {
          expected = i;
          break;
        }
      }
      EXPECT_EQ(left.quantile(q), expected) << "trial " << trial << " q " << q;
    }
  }
}

TEST(MetricsRegistry, SnapshotInvariantUnderSlabDistribution) {
  // The same logical recordings, once on a single slab and once scattered
  // over eight worker slabs, must merge to the same snapshot.
  metrics_registry single;
  metrics_registry sharded;
  sharded.ensure_shards(8);
  ASSERT_EQ(sharded.shard_count(), 8u);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 500; ++i) {
    const auto worker = static_cast<unsigned>(rng() % 8);
    const std::uint64_t delta = rng() % 1000;
    single.add_counter("campaign.runs_completed", delta);
    sharded.add_counter(worker, "campaign.runs_completed", delta);
    single.observe("sim.hops", delta);
    sharded.observe(worker, "sim.hops", delta);
  }
  single.set_gauge("stream.memory_bytes", 4096.0);
  sharded.set_gauge("stream.memory_bytes", 4096.0);

  const metrics_snapshot a = single.snapshot();
  const metrics_snapshot b = sharded.snapshot();
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  EXPECT_EQ(a.histograms.at("sim.hops").counts(),
            b.histograms.at("sim.hops").counts());
  EXPECT_EQ(stable_text(a, {}), stable_text(b, {}));
}

TEST(MetricsRegistry, MergeSnapshotsSumsCountersAndKeepsMaxGauge) {
  metrics_registry r1, r2;
  r1.add_counter("runs", 3);
  r1.add_counter("only_a", 1);
  r1.observe("hops", 5);
  r1.set_gauge("mem", 100.0);
  r2.add_counter("runs", 4);
  r2.observe("hops", 5);
  r2.observe("hops", 900);
  r2.set_gauge("mem", 60.0);
  r2.set_gauge("only_b", -2.5);

  const metrics_snapshot merged = merge_snapshots(r1.snapshot(), r2.snapshot());
  EXPECT_EQ(merged.counters.at("runs"), 7u);
  EXPECT_EQ(merged.counters.at("only_a"), 1u);
  EXPECT_EQ(merged.gauges.at("mem"), 100.0);  // max, not sum or last-write
  EXPECT_EQ(merged.gauges.at("only_b"), -2.5);
  EXPECT_EQ(merged.histograms.at("hops").total(), 3u);
  EXPECT_EQ(merged.histograms.at("hops").count(log_histogram::bucket_of(5)),
            2u);

  // Associativity: ((1+2)+2) == (1+(2+2)) — the merge tree shape is free.
  const metrics_snapshot s1 = r1.snapshot();
  const metrics_snapshot s2 = r2.snapshot();
  const metrics_snapshot left = merge_snapshots(merge_snapshots(s1, s2), s2);
  const metrics_snapshot right = merge_snapshots(s1, merge_snapshots(s2, s2));
  EXPECT_EQ(stable_text(left, {}), stable_text(right, {}));
}

TEST(Tracer, NestedSpansFormParentChildTree) {
  tracer t;
  {
    span root(&t, "cmd.run");
    {
      span child(&t, "cmd.load");
    }
    {
      span child(&t, "cmd.score");
      span grandchild(&t, "cmd.score_inner");
    }
  }
  const auto& spans = t.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Ids are creation order, 1-based; parent 0 is root.
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].name, "cmd.run");
  EXPECT_EQ(spans[1].id, 2u);
  EXPECT_EQ(spans[1].parent, 1u);
  EXPECT_EQ(spans[1].name, "cmd.load");
  EXPECT_EQ(spans[2].id, 3u);
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[3].id, 4u);
  EXPECT_EQ(spans[3].parent, 3u);
  for (const span_record& s : spans) {
    EXPECT_LT(s.parent, s.id);
    EXPECT_GE(s.duration_ms, 0.0);
  }
}

TEST(Tracer, NullTracerMakesSpansInert) {
  span inert(nullptr, "nothing");  // must not dereference anything
  SUCCEED();
}

metrics_snapshot sample_snapshot() {
  metrics_registry reg;
  reg.add_counter("sim.events_executed", 12345);
  reg.add_counter("attack.memo_hits", 0);
  reg.set_gauge("stream.memory_bytes", 123456789.5);
  reg.set_gauge("calib.offset", -3.25e-7);
  reg.observe("campaign.run_us", 1500);
  reg.observe("campaign.run_us", 90);
  reg.observe("sim.hops", 0);
  reg.observe("sim.hops", std::numeric_limits<std::uint64_t>::max());
  return reg.snapshot();
}

std::vector<span_record> sample_spans() {
  return {span_record{1, 0, "sim.run", 10.5},
          span_record{2, 1, "sim.run_core", 8.0},
          span_record{3, 1, "sim.score", 0.0}};
}

TEST(MetricsJsonl, WriteReadRoundtripIsLossless) {
  const metrics_snapshot snap = sample_snapshot();
  const std::vector<span_record> spans = sample_spans();
  std::ostringstream out;
  write_metrics_jsonl(out, snap, spans);

  std::istringstream in(out.str());
  const metrics_document doc = read_metrics_jsonl(in);
  EXPECT_EQ(doc.metrics.counters, snap.counters);
  EXPECT_EQ(doc.metrics.gauges, snap.gauges);
  ASSERT_EQ(doc.metrics.histograms.size(), snap.histograms.size());
  for (const auto& [name, hist] : snap.histograms)
    EXPECT_EQ(doc.metrics.histograms.at(name).counts(), hist.counts()) << name;
  ASSERT_EQ(doc.spans.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(doc.spans[i].id, spans[i].id);
    EXPECT_EQ(doc.spans[i].parent, spans[i].parent);
    EXPECT_EQ(doc.spans[i].name, spans[i].name);
    EXPECT_EQ(doc.spans[i].duration_ms, spans[i].duration_ms);
  }
  // The stable rendering survives a serialize/parse cycle bit-for-bit.
  EXPECT_EQ(stable_text(doc.metrics, doc.spans), stable_text(snap, spans));
}

TEST(MetricsJsonl, StringEscapingRoundtrips) {
  metrics_registry reg;
  reg.add_counter("weird \"name\" \\ with\tcontrol", 7);
  std::ostringstream out;
  write_metrics_jsonl(out, reg.snapshot(), {});
  std::istringstream in(out.str());
  const metrics_document doc = read_metrics_jsonl(in);
  EXPECT_EQ(doc.metrics.counters.at("weird \"name\" \\ with\tcontrol"), 7u);
}

TEST(MetricsJsonl, StableTextDropsTimingBucketsKeepsTotals) {
  EXPECT_TRUE(is_timing_metric("campaign.run_us"));
  EXPECT_TRUE(is_timing_metric("x_ms"));
  EXPECT_TRUE(is_timing_metric("y_ns"));
  EXPECT_FALSE(is_timing_metric("sim.hops"));
  EXPECT_FALSE(is_timing_metric("radius"));  // "us" suffix without the '_'
  EXPECT_FALSE(is_timing_metric("_m"));

  metrics_registry reg;
  reg.observe("campaign.run_us", 1000);
  reg.observe("sim.hops", 1000);
  const std::string text = stable_text(reg.snapshot(), sample_spans());
  // The timing histogram appears total-only; the deterministic one keeps
  // its bucket placement; spans appear structurally without durations.
  EXPECT_NE(text.find("hist campaign.run_us total 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("hist sim.hops total 1 10:1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("span 1 0 sim.run\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("10.5"), std::string::npos) << text;
}

TEST(MetricsJsonl, MetricsFileRoundTripsAndRefusesUnwritablePaths) {
  const metrics_snapshot snap = sample_snapshot();
  const std::vector<span_record> spans = sample_spans();

  const std::string path = ::testing::TempDir() + "obs_file_roundtrip.jsonl";
  write_metrics_file(path, snap, spans);
  const metrics_document doc = read_metrics_file(path);
  EXPECT_EQ(stable_text(doc.metrics, doc.spans), stable_text(snap, spans));
  std::remove(path.c_str());

  try {
    write_metrics_file("/nonexistent-dir/metrics.jsonl", snap, spans);
    FAIL() << "writing to an unopenable path must throw";
  } catch (const parse_error& e) {
    EXPECT_EQ(e.kind(), parse_error_kind::io);
  }
}

// ---- corrupted-input matrix -------------------------------------------

/// Feeds `text` to the reader and requires the classified-failure
/// contract: success or parse_error. Anything else (contract_violation,
/// std::bad_alloc, a raw crash) propagates and fails the test.
void parse_must_classify(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)read_metrics_jsonl(in);
  } catch (const parse_error&) {
    // Classified rejection — exactly what corrupt bytes must produce.
  }
}

parse_error_kind kind_of(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)read_metrics_jsonl(in);
  } catch (const parse_error& e) {
    EXPECT_EQ(e.source(), "metrics");
    return e.kind();
  }
  ADD_FAILURE() << "expected parse_error for: " << text;
  return parse_error_kind::io;
}

std::string valid_document() {
  std::ostringstream out;
  write_metrics_jsonl(out, sample_snapshot(), sample_spans());
  return out.str();
}

TEST(MetricsJsonlFuzz, TargetedCorruptionsClassifyCorrectly) {
  const std::string header = "{\"format\":\"anonpath-metrics\",\"version\":1}\n";
  EXPECT_EQ(kind_of(""), parse_error_kind::truncated);
  EXPECT_EQ(kind_of("{\"format\":\"anonpath-metrics\",\"version\":2}\n"),
            parse_error_kind::version_mismatch);
  EXPECT_EQ(kind_of("{\"format\":\"other\",\"version\":1}\n"),
            parse_error_kind::malformed);
  EXPECT_EQ(kind_of("{\"format\":\"anonpath-metrics\",\"version\":"),
            parse_error_kind::truncated);
  EXPECT_EQ(kind_of(header + "{\"kind\":\"counter\",\"name\":\"a\","
                             "\"value\":1}extra\n"),
            parse_error_kind::malformed);
  EXPECT_EQ(kind_of(header + "{\"kind\":\"counter\",\"name\":\"a\","
                             "\"value\":1}\n"
                             "{\"kind\":\"counter\",\"name\":\"a\","
                             "\"value\":2}\n"),
            parse_error_kind::malformed);
  EXPECT_EQ(kind_of(header + "{\"kind\":\"counter\",\"name\":\"a\","
                             "\"value\":99999999999999999999}\n"),
            parse_error_kind::out_of_range);
  EXPECT_EQ(kind_of(header + "{\"kind\":\"gauge\",\"name\":\"g\","
                             "\"value\":inf}\n"),
            parse_error_kind::out_of_range);
  EXPECT_EQ(kind_of(header + "{\"kind\":\"histogram\",\"name\":\"h\","
                             "\"total\":1,\"buckets\":[[65,1]]}\n"),
            parse_error_kind::out_of_range);
  EXPECT_EQ(kind_of(header + "{\"kind\":\"histogram\",\"name\":\"h\","
                             "\"total\":2,\"buckets\":[[3,1],[3,1]]}\n"),
            parse_error_kind::malformed);
  EXPECT_EQ(kind_of(header + "{\"kind\":\"histogram\",\"name\":\"h\","
                             "\"total\":1,\"buckets\":[[3,0]]}\n"),
            parse_error_kind::malformed);
  EXPECT_EQ(kind_of(header + "{\"kind\":\"histogram\",\"name\":\"h\","
                             "\"total\":5,\"buckets\":[[3,1]]}\n"),
            parse_error_kind::malformed);
  EXPECT_EQ(kind_of(header + "{\"kind\":\"span\",\"id\":2,\"parent\":0,"
                             "\"name\":\"s\",\"ms\":1.0}\n"),
            parse_error_kind::malformed);
  EXPECT_EQ(kind_of(header + "{\"kind\":\"span\",\"id\":1,\"parent\":1,"
                             "\"name\":\"s\",\"ms\":1.0}\n"),
            parse_error_kind::out_of_range);
  EXPECT_EQ(kind_of(header + "{\"kind\":\"span\",\"id\":1,\"parent\":0,"
                             "\"name\":\"s\",\"ms\":-1.0}\n"),
            parse_error_kind::out_of_range);
  EXPECT_EQ(kind_of(header + "{\"kind\":\"mystery\",\"name\":\"x\"}\n"),
            parse_error_kind::malformed);
  EXPECT_EQ(kind_of(header + "{\"kind\":\"counter\",\"name\":\"a"),
            parse_error_kind::truncated);
  EXPECT_EQ(kind_of(header + std::string("{\"kind\":\"counter\",\"name\":\"a")
                        + '\x01' + "\",\"value\":1}\n"),
            parse_error_kind::malformed);
}

TEST(MetricsJsonlFuzz, TruncationsNeverEscapeTheTaxonomy) {
  const std::string doc = valid_document();
  // Every prefix of a valid document parses or raises a classified error.
  for (std::size_t len = 0; len <= doc.size(); ++len)
    parse_must_classify(doc.substr(0, len));
}

TEST(MetricsJsonlFuzz, ByteMutationsNeverEscapeTheTaxonomy) {
  const std::string doc = valid_document();
  std::mt19937_64 rng(42);
  // Single-byte overwrite at every position with a handful of adversarial
  // replacement bytes, plus random two-byte swaps.
  const char replacements[] = {'\0', '\n', '"', '\\', '{', ']', '9',
                               'x',  ' ',  static_cast<char>(0xff)};
  for (std::size_t pos = 0; pos < doc.size(); ++pos) {
    for (const char r : replacements) {
      std::string corrupt = doc;
      corrupt[pos] = r;
      parse_must_classify(corrupt);
    }
  }
  for (int trial = 0; trial < 2000; ++trial) {
    std::string corrupt = doc;
    const std::size_t i = rng() % corrupt.size();
    const std::size_t j = rng() % corrupt.size();
    std::swap(corrupt[i], corrupt[j]);
    parse_must_classify(corrupt);
  }
}

TEST(MetricsJsonlFuzz, MissingFileIsIoError) {
  try {
    (void)read_metrics_file("/nonexistent-dir/metrics.jsonl");
    FAIL() << "reading a missing file must throw";
  } catch (const parse_error& e) {
    EXPECT_EQ(e.kind(), parse_error_kind::io);
  }
}

}  // namespace
}  // namespace anonpath::obs
