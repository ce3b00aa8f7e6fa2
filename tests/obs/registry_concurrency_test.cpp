// Concurrency coverage for the metrics registry: hot-path updates, racing
// get-or-create lookups and concurrent exposition. Runs under TSan in CI
// (the sanitizer job's ctest filter includes "Registry").
#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace alsmf::obs {
namespace {

TEST(RegistryConcurrency, ParallelUpdatesOnSharedMetrics) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kIters; ++i) {
        // Look the metrics up every time: exercises find_or_create against
        // concurrent readers, not just the atomic update paths.
        reg.counter("ops_total").inc();
        reg.gauge("progress").add(1.0);
        reg.histogram("latency").observe(static_cast<double>(i % 100 + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("ops_total").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(reg.gauge("progress").value(),
                   static_cast<double>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram("latency").count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(RegistryConcurrency, CreationRacesYieldOneMetricPerIdentity) {
  Registry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 64; ++i) {
        reg.counter("family", {{"series", std::to_string(i)}}).inc();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(reg.counter("family", {{"series", std::to_string(i)}}).value(),
              static_cast<std::uint64_t>(kThreads));
  }
}

TEST(RegistryConcurrency, ExpositionRacesWriters) {
  Registry reg;
  reg.add_assertion("nonneg", [&reg] {
    return reg.gauge("g").value() >= 0 ? std::string() : "negative";
  });
  // Register before the threads start: an empty registry exposes empty
  // text, and the reader may run before the writer's first update.
  reg.counter("c");
  reg.gauge("g");
  reg.histogram("h");
  std::thread writer([&reg] {
    for (int i = 0; i < 2000; ++i) {
      reg.counter("c").inc();
      reg.gauge("g").set(static_cast<double>(i));
      reg.histogram("h").observe(1.0);
    }
  });
  std::thread reader([&reg] {
    for (int i = 0; i < 50; ++i) {
      const std::string text = reg.prometheus_text();
      EXPECT_FALSE(text.empty());
      const std::string doc = reg.json();
      EXPECT_FALSE(doc.empty());
      EXPECT_TRUE(reg.check_assertions().empty());
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(reg.counter("c").value(), 2000u);
}

}  // namespace
}  // namespace alsmf::obs
