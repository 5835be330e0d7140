// Unit tests for src/common: PRNG determinism and distribution sanity,
// streaming statistics, histograms, tables, and config parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/config.h"
#include "common/prng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"

namespace mapg {
namespace {

TEST(Types, CycleAddSaturates) {
  EXPECT_EQ(cycle_add(5, 7), 12u);
  EXPECT_EQ(cycle_add(kNoCycle, 7), kNoCycle);
  EXPECT_EQ(cycle_add(7, kNoCycle), kNoCycle);
  EXPECT_EQ(cycle_add(kNoCycle - 3, 10), kNoCycle);
}

TEST(Types, CycleSubSatClampsAtZero) {
  EXPECT_EQ(cycle_sub_sat(10, 3), 7u);
  EXPECT_EQ(cycle_sub_sat(3, 10), 0u);
  EXPECT_EQ(cycle_sub_sat(3, 3), 0u);
}

TEST(Prng, DeterministicUnderSameSeed) {
  Prng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiverge) {
  Prng a(123), b(124);
  int same = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Prng, ReseedRestartsSequence) {
  Prng a(7);
  const auto first = a.next();
  a.next();
  a.reseed(7);
  EXPECT_EQ(a.next(), first);
}

TEST(Prng, UniformInUnitInterval) {
  Prng p(1);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double u = p.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Prng, BelowStaysInRangeAndCoversIt) {
  Prng p(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = p.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Prng, BelowOneAlwaysZero) {
  Prng p(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(p.below(1), 0u);
}

TEST(Prng, RangeInclusive) {
  Prng p(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = p.range(5, 8);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Prng, GeometricMeanMatches) {
  Prng p(5);
  const double prob = 0.2;  // mean failures = (1-p)/p = 4
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(p.geometric(prob));
  EXPECT_NEAR(sum / n, (1 - prob) / prob, 0.1);
}

TEST(Prng, GeometricEdgeCases) {
  Prng p(6);
  EXPECT_EQ(p.geometric(1.0), 0u);
  EXPECT_EQ(p.geometric(1.5), 0u);
}

TEST(Prng, ExponentialMeanMatches) {
  Prng p(7);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += p.exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Prng, BoundedParetoStaysInBounds) {
  Prng p(8);
  for (int i = 0; i < 10000; ++i) {
    const auto v = p.bounded_pareto(2, 100, 1.3);
    ASSERT_GE(v, 2u);
    ASSERT_LE(v, 100u);
  }
}

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStat, MergeEqualsSequential) {
  RunningStat all, a, b;
  Prng p(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = p.uniform() * 100;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(0, 100, 10);
  h.add(5);        // bucket 0
  h.add(15);       // bucket 1
  h.add(99.999);   // bucket 9
  h.add(100);      // overflow
  h.add(-1);       // underflow
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
}

TEST(Histogram, WeightedAdd) {
  Histogram h(0, 10, 10);
  h.add(3.5, 7);
  EXPECT_EQ(h.bucket_count(3), 7u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, QuantileOfUniformMass) {
  Histogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(0, 10, 5), b(0, 10, 5);
  a.add(1);
  b.add(1);
  b.add(9);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.bucket_count(0), 2u);
  EXPECT_EQ(a.bucket_count(4), 1u);
}

TEST(LogHistogram, PowerOfTwoBuckets) {
  LogHistogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // {0}
  EXPECT_EQ(h.bucket_count(1), 1u);  // [1,2)
  EXPECT_EQ(h.bucket_count(2), 2u);  // [2,4)
  EXPECT_EQ(h.bucket_count(11), 1u);  // [1024,2048)
  EXPECT_EQ(h.bucket_lo(11), 1024u);
}

TEST(CounterSet, IncrementAndMissing) {
  CounterSet c;
  c.inc("a");
  c.inc("a", 4);
  EXPECT_EQ(c.get("a"), 5u);
  EXPECT_EQ(c.get("missing"), 0u);
}

TEST(Table, PrintAlignsAndCsvQuotes) {
  Table t({"name", "value"});
  t.begin_row().cell("x").cell(1.5, 1);
  t.begin_row().cell("with,comma").cell(std::uint64_t{42});
  std::ostringstream text, csv;
  t.print(text);
  t.print_csv(csv);
  EXPECT_NE(text.str().find("| name"), std::string::npos);
  EXPECT_NE(text.str().find("1.5"), std::string::npos);
  EXPECT_NE(csv.str().find("\"with,comma\",42"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Format, Helpers) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_percent(0.123, 1), "12.3%");
  EXPECT_EQ(format_si(1500.0, 1), "1.5k");
  EXPECT_EQ(format_si(2.5e6, 1), "2.5M");
  EXPECT_EQ(format_si(3.0e9, 0), "3G");
  EXPECT_EQ(format_si(12.0, 0), "12");
}

TEST(KvConfig, ParseTextWithCommentsAndBlanks) {
  KvConfig c;
  std::string err;
  ASSERT_TRUE(c.parse_text("a = 1\n# comment\n\nb= hello # trailing\n", &err))
      << err;
  EXPECT_EQ(c.get_int("a", 0), 1);
  EXPECT_EQ(c.get_or("b", ""), "hello");
}

TEST(KvConfig, ParseTextRejectsMalformed) {
  KvConfig c;
  std::string err;
  EXPECT_FALSE(c.parse_text("novalue\n", &err));
  EXPECT_NE(err.find("line 1"), std::string::npos);
  EXPECT_FALSE(c.parse_text("=v\n", &err));
}

TEST(KvConfig, TypedGettersAndDefaults) {
  KvConfig c;
  c.set("i", "42");
  c.set("d", "2.5");
  c.set("t", "true");
  c.set("f", "off");
  c.set("junk", "xyz");
  EXPECT_EQ(c.get_int("i", 0), 42);
  EXPECT_DOUBLE_EQ(c.get_double("d", 0), 2.5);
  EXPECT_TRUE(c.get_bool("t", false));
  EXPECT_FALSE(c.get_bool("f", true));
  EXPECT_EQ(c.get_int("junk", -1), -1);   // unparsable -> default
  EXPECT_EQ(c.get_int("missing", 7), 7);
  EXPECT_EQ(c.get_uint("i", 0), 42u);
  c.set("neg", "-1");  // strtoull alone would wrap this to 2^64 - 1
  EXPECT_EQ(c.get_uint("neg", 7), 7u);
  EXPECT_EQ(c.get_int("neg", 7), -1);
}

TEST(KvConfig, ParseArgsCollectsLeftovers) {
  KvConfig c;
  const char* argv[] = {"prog", "--alpha=1.5", "positional", "beta=2"};
  auto leftovers = c.parse_args(4, argv);
  EXPECT_DOUBLE_EQ(c.get_double("alpha", 0), 1.5);
  EXPECT_EQ(c.get_int("beta", 0), 2);
  ASSERT_EQ(leftovers.size(), 1u);
  EXPECT_EQ(leftovers[0], "positional");
}

}  // namespace
}  // namespace mapg
