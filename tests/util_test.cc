// Unit tests for the util substrate: Status/Result, Slice, Rng, clocks,
// queues, thread pool, stats, CRC32C, string helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "util/bounded_queue.h"
#include "util/clock.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pcr {
namespace {

// ------------------------------------------------------------- Status

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::Corruption("bad block");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.ToString(), "Corruption: bad block");
}

TEST(Status, WithContextPrepends) {
  Status s = Status::IOError("disk gone").WithContext("reading record 7");
  EXPECT_EQ(s.ToString(), "IOError: reading record 7: disk gone");
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(Status, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return Status::NotFound("nope"); };
  auto wrapper = [&]() -> Status {
    PCR_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsNotFound());
}

// ------------------------------------------------------------- Result

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(-1), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(Result, AssignOrReturnMacro) {
  auto producer = [](bool fail) -> Result<std::string> {
    if (fail) return Status::NotFound("x");
    return std::string("value");
  };
  auto consumer = [&](bool fail) -> Result<size_t> {
    PCR_ASSIGN_OR_RETURN(std::string s, producer(fail));
    return s.size();
  };
  EXPECT_EQ(*consumer(false), 5u);
  EXPECT_TRUE(consumer(true).status().IsNotFound());
}

// ------------------------------------------------------------- Slice

TEST(Slice, BasicViews) {
  std::string data = "hello world";
  Slice s(data);
  EXPECT_EQ(s.size(), 11u);
  EXPECT_TRUE(s.StartsWith("hello"));
  s.RemovePrefix(6);
  EXPECT_EQ(s.ToString(), "world");
  EXPECT_EQ(s.SubSlice(1, 3).ToString(), "orl");
  EXPECT_EQ(s.SubSlice(3, 100).ToString(), "ld");  // Clamped.
}

TEST(Slice, Comparison) {
  EXPECT_TRUE(Slice("abc") == Slice("abc"));
  EXPECT_TRUE(Slice("abc") != Slice("abd"));
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("ab") < Slice("b"));
}

TEST(Slice, BinarySafe) {
  const char raw[] = {'\0', '\xff', '\0', 'x'};
  Slice s(raw, 4);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.ToString().size(), 4u);
}

// ------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(7);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) stat.Add(rng.NextGaussian());
  EXPECT_NEAR(stat.mean(), 0.0, 0.03);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, SampleDiscreteRespectsWeights) {
  Rng rng(11);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) {
    counts[rng.SampleDiscrete({1.0, 2.0, 7.0})]++;
  }
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

// ------------------------------------------------------------- Clock

TEST(VirtualClock, AdvancesOnlyWhenTold) {
  VirtualClock clock(1000);
  EXPECT_EQ(clock.NowNanos(), 1000);
  clock.AdvanceNanos(500);
  EXPECT_EQ(clock.NowNanos(), 1500);
  clock.AdvanceTo(1200);  // In the past: no-op.
  EXPECT_EQ(clock.NowNanos(), 1500);
  clock.AdvanceSeconds(1.0);
  EXPECT_EQ(clock.NowNanos(), 1500 + kNanosPerSecond);
}

// ------------------------------------------------------------- Queue

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.Push(i));
  EXPECT_FALSE(q.TryPush(99));  // Full.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(*q.Pop(), i);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BoundedQueue, CloseWakesConsumers) {
  BoundedQueue<int> q(2);
  std::atomic<bool> got_nullopt{false};
  std::thread consumer([&] {
    auto v = q.Pop();
    got_nullopt = !v.has_value();
  });
  q.Close();
  consumer.join();
  EXPECT_TRUE(got_nullopt);
  EXPECT_FALSE(q.Push(1));  // Rejected after close.
}

TEST(BoundedQueue, DrainsAfterClose) {
  BoundedQueue<int> q(4);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueue, ProducerConsumerStress) {
  BoundedQueue<int> q(8);
  constexpr int kItems = 5000;
  std::atomic<int64_t> sum{0};
  std::thread producer([&] {
    for (int i = 1; i <= kItems; ++i) q.Push(i);
    q.Close();
  });
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) sum += *v;
    });
  }
  producer.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(sum.load(), static_cast<int64_t>(kItems) * (kItems + 1) / 2);
}

// ------------------------------------------------------------- Stats

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.Add(i);  // Unsorted insert.
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.Iqr25(), 25.75, 1e-9);
}

TEST(Log2Histogram, BucketsByPowerOfTwo) {
  Log2Histogram h;
  h.Add(1024);   // Bucket 10.
  h.Add(1500);   // Bucket 10.
  h.Add(4096);   // Bucket 12.
  h.Add(3.0);    // Bucket 1.
  EXPECT_EQ(h.total_count(), 4);
  const auto rows = h.NormalizedRows();
  EXPECT_DOUBLE_EQ(rows.front().first, 2.0);
  double total = 0;
  for (const auto& [lo, p] : rows) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(FitLinear, RecoversLine) {
  std::vector<double> x, y;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double xi = i / 10.0;
    x.push_back(xi);
    y.push_back(3.0 * xi - 2.0 + 0.01 * rng.NextGaussian());
  }
  const LinearFit fit = FitLinear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 0.01);
  EXPECT_NEAR(fit.intercept, -2.0, 0.05);
  EXPECT_GT(fit.r2, 0.999);
  EXPECT_LT(fit.p_value, 1e-10);
}

TEST(FitLinear, NoRelationHasHighPValue) {
  std::vector<double> x, y;
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    x.push_back(i);
    y.push_back(rng.NextGaussian());
  }
  const LinearFit fit = FitLinear(x, y);
  EXPECT_GT(fit.p_value, 0.01);
  EXPECT_LT(fit.r2, 0.1);
}

// ------------------------------------------------------------- CRC32C

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  uint8_t zeros[32] = {};
  EXPECT_EQ(crc32c::Value(zeros, 32), 0x8a9136aau);
  // "123456789".
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
}

TEST(Crc32c, ExtendMatchesWhole) {
  const std::string data = "hello crc world";
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  uint32_t partial = crc32c::Value(data.data(), 5);
  partial = crc32c::Extend(partial, data.data() + 5, data.size() - 5);
  EXPECT_EQ(whole, partial);
}

TEST(Crc32c, MaskRoundTrip) {
  const uint32_t crc = crc32c::Value("payload", 7);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
  EXPECT_NE(crc32c::Mask(crc), crc);
}

// ------------------------------------------------------------- Strings

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(3.5 * 1024 * 1024), "3.5 MiB");
}

TEST(StringUtil, SplitJoin) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Join({"a", "b", "c"}, "/"), "a/b/c");
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
}

}  // namespace
}  // namespace pcr
