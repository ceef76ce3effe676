#include "obs/registry.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "obs/report.hpp"
#include "obs/timer.hpp"

namespace gc::obs {
namespace {

TEST(Counter, AccumulatesTotalAndEvents) {
  Counter c;
  EXPECT_EQ(c.total(), 0.0);
  EXPECT_EQ(c.events(), 0);
  c.add();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.total(), 3.5);
  EXPECT_EQ(c.events(), 2);
}

TEST(Gauge, LastValueWins) {
  Gauge g;
  g.set(4.0);
  g.set(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), -1.5);
}

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, SingleValueQuantilesClampExactly) {
  Histogram h;
  h.observe(3.0e-3);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.sum(), 3.0e-3);
  EXPECT_DOUBLE_EQ(h.min(), 3.0e-3);
  EXPECT_DOUBLE_EQ(h.max(), 3.0e-3);
  // Quantiles clamp to [min, max], so a single sample reports exactly.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0e-3);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0e-3);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0e-3);
}

TEST(Histogram, QuantilesWithinBucketResolution) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(i * 1.0e-6);  // 1us .. 1ms
  EXPECT_EQ(h.count(), 1000);
  // Geometric buckets are ~12% wide; allow a generous 15% relative error.
  EXPECT_NEAR(h.quantile(0.5), 500e-6, 0.15 * 500e-6);
  EXPECT_NEAR(h.quantile(0.95), 950e-6, 0.15 * 950e-6);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 1000e-6);
  EXPECT_NEAR(h.mean(), 500.5e-6, 1e-9);
}

TEST(Histogram, OutOfRangeValuesClampToEndBuckets) {
  Histogram h;
  h.observe(1e-12);  // below kMin
  h.observe(1e7);    // above the top bucket (~2 hours)
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.min(), 1e-12);  // min/max stay exact
  EXPECT_DOUBLE_EQ(h.max(), 1e7);
  // Quantiles stay within the observed range thanks to the clamp.
  EXPECT_GE(h.quantile(0.5), h.min());
  EXPECT_LE(h.quantile(0.5), h.max());
}

// Values sitting exactly on a geometric bucket edge kMin * 2^(i/6) must
// land deterministically and report quantiles clamped to the observed
// range — the edges are where rounding bugs in the bucket index show up.
TEST(Histogram, QuantilesExactAtBucketBoundaries) {
  // 3.2e-8 = kMin * 2^(30/6) and 6.4e-8 = kMin * 2^(36/6): both are exact
  // bucket lower edges (and exactly representable doubles).
  const double lo = Histogram::kMin * 32.0;
  const double hi = Histogram::kMin * 64.0;
  Histogram h;
  for (int i = 0; i < 50; ++i) h.observe(lo);
  // All mass in one bucket: every quantile clamps to the single value.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), lo);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), lo);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), lo);
  for (int i = 0; i < 50; ++i) h.observe(hi);
  // Low ranks stay in lo's bucket (within its ~12% width, never below the
  // exact min); high ranks clamp to the exact max — hi's bucket midpoint
  // lies above hi, so the [min, max] clamp pins it.
  EXPECT_GE(h.quantile(0.25), lo);
  EXPECT_LE(h.quantile(0.25), lo * 1.13);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), hi);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), hi);
  EXPECT_DOUBLE_EQ(h.min(), lo);
  EXPECT_DOUBLE_EQ(h.max(), hi);
}

TEST(Registry, ReturnsStableReferencesByName) {
  Registry r;
  Counter& a = r.counter("x.count");
  Counter& b = r.counter("x.count");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = r.gauge("x.gauge");
  Gauge& g2 = r.gauge("x.gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = r.histogram("x.hist");
  Histogram& h2 = r.histogram("x.hist");
  EXPECT_EQ(&h1, &h2);
  // Different kinds under different names do not collide.
  EXPECT_EQ(r.counters().size(), 1u);
  EXPECT_EQ(r.gauges().size(), 1u);
  EXPECT_EQ(r.histograms().size(), 1u);
}

TEST(Registry, ViewsAreSortedByName) {
  Registry r;
  r.counter("zeta");
  r.counter("alpha");
  r.counter("mid");
  const auto view = r.counters();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0].first, "alpha");
  EXPECT_EQ(view[1].first, "mid");
  EXPECT_EQ(view[2].first, "zeta");
}

TEST(GlobalRegistry, IsASingleton) {
  EXPECT_EQ(&registry(), &registry());
}

// One clock read at each end of the scope: the histogram and the
// recorded span both receive the same duration, bit for bit.
TEST(Span, ObservesElapsedIntoHistogramAndRing) {
  SpanRecorder& rec = SpanRecorder::instance();
  rec.enable(16);
  Histogram h;
  double stopped_s = 0.0;
  {
    Span t("registry_test.timed", h, 7);
    // Burn a little time so the sample is strictly positive.
    volatile double x = 0.0;
    for (int i = 0; i < 1000; ++i) x = x + std::sqrt(static_cast<double>(i));
    (void)x;
    stopped_s = t.stop();
    EXPECT_EQ(t.stop(), stopped_s);  // closing twice records nothing new
  }
  rec.disable();
  const std::vector<SpanEvent> spans = rec.drain();
  EXPECT_GT(stopped_s, 0.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_GT(h.sum(), 0.0);
  EXPECT_EQ(stopped_s, h.sum());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "registry_test.timed");
  EXPECT_EQ(spans[0].id, 7);
  EXPECT_EQ(spans[0].dur_s, h.sum());
}

TEST(Report, RendersEveryInstrumentKind) {
  Registry r;
  r.counter("sched.fill_in_links").add(7.0);
  r.gauge("run.last_V").set(3.0);
  Histogram& h = r.histogram("ctrl.step_seconds");
  h.observe(2e-3);
  const std::string text = render_report(r);
  EXPECT_NE(text.find("sched.fill_in_links"), std::string::npos);
  EXPECT_NE(text.find("run.last_V"), std::string::npos);
  EXPECT_NE(text.find("ctrl.step_seconds"), std::string::npos);
}

}  // namespace
}  // namespace gc::obs
