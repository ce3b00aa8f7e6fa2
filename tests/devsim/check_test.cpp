// Checked-execution mode: each finding class is provoked by a deliberately
// buggy kernel and must be reported with kernel/section/group/lane
// attribution; the matching correct kernel must stay clean.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "devsim/device.hpp"
#include "devsim/profile.hpp"

namespace alsmf::devsim {
namespace {

LaunchConfig validated(std::size_t groups = 1, int group_size = 4) {
  LaunchConfig config;
  config.num_groups = groups;
  config.group_size = group_size;
  config.functional = true;
  config.validate = true;
  return config;
}

bool has_kind(const check::CheckReport& report, check::FindingKind kind) {
  for (const auto& f : report.findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

const check::Finding& first_of(const check::CheckReport& report,
                               check::FindingKind kind) {
  for (const auto& f : report.findings) {
    if (f.kind == kind) return f;
  }
  throw Error("finding kind not present");
}

TEST(CheckedExecution, CleanKernelReportsClean) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> out(16, 0.0f);
  const auto result =
      device.launch("clean", validated(1, 4), [&](GroupCtx& ctx) {
        ctx.section("S1");
        auto g = ctx.global_span("out", out.data(), out.size());
        for (int lane = 0; lane < ctx.group_size(); ++lane) {
          ctx.set_lane(lane);
          g.write(static_cast<std::size_t>(lane), 1.0f);
        }
        ctx.global_write_coalesced(4.0 * ctx.group_size());
      });
  EXPECT_TRUE(result.check.clean()) << result.check.to_json();
  EXPECT_EQ(result.check.launches, 1u);
  EXPECT_EQ(out[3], 1.0f);
}

TEST(CheckedExecution, OutOfBoundsGlobalReportedAndSuppressed) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> buf(8, 7.0f);
  float read_back = -1.0f;
  const auto result =
      device.launch("oob_global", validated(), [&](GroupCtx& ctx) {
        ctx.section("S1");
        ctx.set_lane(2);
        auto g = ctx.global_span("buf", buf.data(), buf.size());
        read_back = g.read(buf.size() + 3);  // past the end
      });
  EXPECT_EQ(read_back, 0.0f);  // suppressed, default value
  ASSERT_TRUE(has_kind(result.check, check::FindingKind::kOutOfBoundsGlobal));
  const auto& f =
      first_of(result.check, check::FindingKind::kOutOfBoundsGlobal);
  EXPECT_EQ(f.kernel, "oob_global");
  EXPECT_EQ(f.section, "S1");
  EXPECT_EQ(f.buffer, "buf");
  EXPECT_EQ(f.group, 0u);
  EXPECT_EQ(f.lane, 2);
  EXPECT_EQ(f.index, static_cast<long long>(buf.size() + 3));
}

TEST(CheckedExecution, OutOfBoundsLocalReported) {
  Device device(k20c());
  const auto result =
      device.launch("oob_local", validated(), [&](GroupCtx& ctx) {
        ctx.section("S2");
        auto tile = ctx.local_alloc<float>(8, "tile");
        tile.write(8, 1.0f);  // one past the end
      });
  ASSERT_TRUE(has_kind(result.check, check::FindingKind::kOutOfBoundsLocal));
  const auto& f = first_of(result.check, check::FindingKind::kOutOfBoundsLocal);
  EXPECT_EQ(f.buffer, "tile");
  EXPECT_EQ(f.section, "S2");
}

TEST(CheckedExecution, IntraGroupWriteWriteRaceReported) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> out(4, 0.0f);
  const auto result = device.launch("ww_race", validated(), [&](GroupCtx& ctx) {
    ctx.section("S1");
    auto g = ctx.global_span("out", out.data(), out.size());
    ctx.set_lane(0);
    g.write(0, 1.0f);
    ctx.set_lane(1);
    g.write(0, 2.0f);  // same element, no barrier
  });
  ASSERT_TRUE(has_kind(result.check, check::FindingKind::kIntraGroupRace));
  const auto& f = first_of(result.check, check::FindingKind::kIntraGroupRace);
  EXPECT_EQ(f.lane, 1);  // attributed to the access that completed the race
  EXPECT_NE(f.detail.find("lane 0"), std::string::npos);
  EXPECT_NE(f.detail.find("group_barrier"), std::string::npos);
}

TEST(CheckedExecution, BarrierSeparatesLanes) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> out(4, 0.0f);
  const auto result =
      device.launch("barriered", validated(), [&](GroupCtx& ctx) {
        auto g = ctx.global_span("out", out.data(), out.size());
        ctx.set_lane(0);
        g.write(0, 1.0f);
        ctx.group_barrier();
        ctx.set_lane(1);
        g.write(0, 2.0f);  // ordered by the barrier
      });
  EXPECT_TRUE(result.check.clean()) << result.check.to_json();
}

TEST(CheckedExecution, ReadWriteRaceReported) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> out(4, 0.0f);
  const auto result = device.launch("rw_race", validated(), [&](GroupCtx& ctx) {
    auto g = ctx.global_span("out", out.data(), out.size());
    ctx.set_lane(0);
    (void)g.read(1);
    ctx.set_lane(3);
    g.write(1, 2.0f);  // writes what lane 0 read, same epoch
  });
  EXPECT_TRUE(has_kind(result.check, check::FindingKind::kIntraGroupRace));
}

TEST(CheckedExecution, ReadReadNeverRaces) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> out(4, 0.0f);
  const auto result =
      device.launch("read_read", validated(), [&](GroupCtx& ctx) {
        auto g = ctx.global_span("out", out.data(), out.size());
        for (int lane = 0; lane < ctx.group_size(); ++lane) {
          ctx.set_lane(lane);
          (void)g.read(0);
        }
      });
  EXPECT_TRUE(result.check.clean()) << result.check.to_json();
}

TEST(CheckedExecution, SameLaneIsProgramOrder) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> out(4, 0.0f);
  const auto result =
      device.launch("one_lane", validated(), [&](GroupCtx& ctx) {
        auto g = ctx.global_span("out", out.data(), out.size());
        ctx.set_lane(0);
        g.write(0, 1.0f);
        g.write(0, 2.0f);
        (void)g.read(0);
      });
  EXPECT_TRUE(result.check.clean()) << result.check.to_json();
}

TEST(CheckedExecution, CrossGroupRaceReported) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> out(4, 0.0f);
  const auto result =
      device.launch("xg_race", validated(3, 4), [&](GroupCtx& ctx) {
        auto g = ctx.global_span("out", out.data(), out.size());
        ctx.set_lane(0);
        g.write(0, static_cast<float>(ctx.group_id()));  // all groups hit [0]
      });
  ASSERT_TRUE(has_kind(result.check, check::FindingKind::kCrossGroupRace));
  const auto& f = first_of(result.check, check::FindingKind::kCrossGroupRace);
  EXPECT_NE(f.detail.find("no inter-group ordering"), std::string::npos);
}

TEST(CheckedExecution, LocalMemoryIsGroupPrivate) {
  Device device(k20c());
  const auto result =
      device.launch("local_priv", validated(3, 4), [&](GroupCtx& ctx) {
        // Every group writes offset 0 of its own arena; the arena resets per
        // group, so this is NOT a cross-group race.
        auto tile = ctx.local_alloc<float>(8, "tile");
        ctx.set_lane(0);
        tile.write(0, 1.0f);
      });
  EXPECT_TRUE(result.check.clean()) << result.check.to_json();
}

TEST(CheckedExecution, StaleLocalSpanReported) {
  Device device(k20c());
  check::LocalSpan<float> stash;  // a kernel bug: stashing scratch-pad
  const auto result =
      device.launch("stale", validated(2, 4), [&](GroupCtx& ctx) {
        if (ctx.group_id() == 0) {
          stash = ctx.local_alloc<float>(8, "stash");
          stash.write(0, 1.0f);
        } else {
          stash.write(0, 2.0f);  // group 0's arena slot: dangling
        }
      });
  ASSERT_TRUE(has_kind(result.check, check::FindingKind::kStaleLocalSpan));
  const auto& f = first_of(result.check, check::FindingKind::kStaleLocalSpan);
  EXPECT_EQ(f.buffer, "stash");
  EXPECT_EQ(f.group, 1u);
}

TEST(CheckedExecution, CounterUnderReportFlagged) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> big(32768, 1.0f);  // 128 KiB touched, nothing recorded
  const auto result =
      device.launch("silent", validated(), [&](GroupCtx& ctx) {
        auto g = ctx.global_span("big", big.data(), big.size());
        g.mark_read(0, big.size());
      });
  ASSERT_TRUE(has_kind(result.check, check::FindingKind::kCounterUnderReport));
  const auto& f =
      first_of(result.check, check::FindingKind::kCounterUnderReport);
  EXPECT_EQ(f.buffer, "global");
  EXPECT_NE(f.detail.find("under-reported"), std::string::npos);
  EXPECT_GE(result.check.touched_global_bytes, 131072.0);
}

TEST(CheckedExecution, HonestCountersPass) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> big(32768, 1.0f);
  const auto result =
      device.launch("honest", validated(), [&](GroupCtx& ctx) {
        auto g = ctx.global_span("big", big.data(), big.size());
        g.mark_read(0, big.size());
        ctx.global_read_coalesced(4.0 * big.size());
      });
  EXPECT_TRUE(result.check.clean()) << result.check.to_json();
}

TEST(CheckedExecution, DeviceElementBytesScalesHonestyAccounting) {
  // Host int64 column indices modeled as 32-bit on device: recording the
  // modeled 4 bytes/element must satisfy honesty even though the host
  // accessors touch 8 bytes/element.
  Device device(xeon_e5_2670_dual());
  std::vector<long long> cols(32768, 0);
  const auto result =
      device.launch("narrow", validated(), [&](GroupCtx& ctx) {
        auto g = ctx.global_span("cols", cols.data(), cols.size(), 4);
        g.mark_read(0, cols.size());
        ctx.global_read_coalesced(4.0 * cols.size());
      });
  EXPECT_TRUE(result.check.clean()) << result.check.to_json();
  EXPECT_NEAR(result.check.touched_global_bytes, 4.0 * cols.size(), 1.0);
}

TEST(CheckedExecution, CounterOverReportFlagged) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> small(4, 1.0f);
  const auto result =
      device.launch("inflated", validated(), [&](GroupCtx& ctx) {
        auto g = ctx.global_span("small", small.data(), small.size());
        g.mark_read(0, small.size());
        ctx.global_read_coalesced(1.0e7);  // runaway accounting formula
      });
  ASSERT_TRUE(has_kind(result.check, check::FindingKind::kCounterOverReport));
  EXPECT_EQ(first_of(result.check, check::FindingKind::kCounterOverReport)
                .buffer,
            "total");
}

TEST(CheckedExecution, FindingsDedupedButAllCounted) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> out(64, 0.0f);
  const auto result = device.launch("noisy", validated(), [&](GroupCtx& ctx) {
    auto g = ctx.global_span("out", out.data(), out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ctx.set_lane(0);
      g.write(i, 1.0f);
      ctx.set_lane(1);
      g.write(i, 2.0f);  // one race per element, same (kind,buffer,section)
    }
  });
  std::size_t races = 0;
  for (const auto& f : result.check.findings) {
    if (f.kind == check::FindingKind::kIntraGroupRace) ++races;
  }
  EXPECT_EQ(races, 1u);  // one representative finding
  EXPECT_GE(result.check.total_findings, out.size());  // every byte counted
}

TEST(CheckedExecution, ValidateRequiresFunctional) {
  Device device(xeon_e5_2670_dual());
  LaunchConfig config = validated();
  config.functional = false;
  EXPECT_THROW(device.launch("bad", config, [](GroupCtx&) {}), Error);
}

TEST(CheckedExecution, UncheckedSpansStillBoundsCheck) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> buf(8, 0.0f);
  LaunchConfig config;
  config.num_groups = 1;
  config.group_size = 4;
  EXPECT_THROW(device.launch("plain", config,
                             [&](GroupCtx& ctx) {
                               auto g = ctx.global_span("buf", buf.data(),
                                                        buf.size());
                               g.write(buf.size(), 1.0f);
                             }),
               Error);
}

TEST(CheckedExecution, DeviceAccumulatesReportsAndResets) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> out(4, 0.0f);
  const auto racy = [&](GroupCtx& ctx) {
    auto g = ctx.global_span("out", out.data(), out.size());
    ctx.set_lane(0);
    g.write(0, 1.0f);
    ctx.set_lane(1);
    g.write(0, 2.0f);
  };
  device.launch("racy", validated(), racy);
  device.launch("racy", validated(), racy);
  EXPECT_EQ(device.check_report().launches, 2u);
  EXPECT_GE(device.check_report().total_findings, 2u);
  device.reset_check_report();
  EXPECT_TRUE(device.check_report().clean());
  EXPECT_EQ(device.check_report().launches, 0u);
}

TEST(CheckedExecution, JsonExportNamesTheFindingKind) {
  Device device(xeon_e5_2670_dual());
  std::vector<float> out(4, 0.0f);
  const auto result = device.launch("json", validated(), [&](GroupCtx& ctx) {
    ctx.section("S1");
    auto g = ctx.global_span("out", out.data(), out.size());
    ctx.set_lane(0);
    g.write(0, 1.0f);
    ctx.set_lane(1);
    g.write(0, 2.0f);
  });
  const std::string json = result.check.to_json();
  EXPECT_NE(json.find("intra_group_race"), std::string::npos);
  EXPECT_NE(json.find("\"total_findings\""), std::string::npos);
  EXPECT_NE(json.find("\"section\":\"S1\""), std::string::npos);
}

TEST(CheckedExecution, ValidateDoesNotChangeCountersOrTime) {
  std::vector<float> out(64, 0.0f);
  auto kernel = [&](GroupCtx& ctx) {
    ctx.section("S1");
    auto g = ctx.global_span("out", out.data(), out.size());
    for (int lane = 0; lane < ctx.group_size(); ++lane) {
      ctx.set_lane(lane);
      g.write(static_cast<std::size_t>(ctx.group_id()) * 8 +
                  static_cast<std::size_t>(lane),
              1.0f);
    }
    ctx.ops_scalar(128.0);
    ctx.global_write_coalesced(32.0);
  };
  Device plain(k20c());
  LaunchConfig config;
  config.num_groups = 4;
  config.group_size = 8;
  const auto base = plain.launch("k", config, kernel);
  Device checked(k20c());
  config.validate = true;
  const auto val = checked.launch("k", config, kernel);
  EXPECT_TRUE(val.check.clean()) << val.check.to_json();
  EXPECT_DOUBLE_EQ(base.counters.lane_ops_scalar, val.counters.lane_ops_scalar);
  EXPECT_DOUBLE_EQ(base.counters.global_bytes, val.counters.global_bytes);
  EXPECT_DOUBLE_EQ(base.time.total_s(), val.time.total_s());
}

// --- GroupCtx scratch-pad regressions (satellite of the checker work) ---

TEST(GroupCtxLocal, ZeroAllocIsEmptyAndFree) {
  Device device(k20c());
  LaunchConfig config;
  config.num_groups = 1;
  config.group_size = 4;
  device.launch("zero_alloc", config, [&](GroupCtx& ctx) {
    const std::size_t before = ctx.local_remaining();
    auto s = ctx.local_alloc<float>(0);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(ctx.local_remaining(), before);  // no 64-byte slot burned
  });
}

TEST(GroupCtxLocal, CapacityMatchesProfile) {
  Device gpu(k20c());
  LaunchConfig config;
  config.num_groups = 1;
  config.group_size = 4;
  gpu.launch("cap_gpu", config, [&](GroupCtx& ctx) {
    EXPECT_EQ(ctx.local_capacity(), ctx.profile().local_mem_bytes);
    EXPECT_EQ(ctx.local_remaining(), ctx.local_capacity());
  });
  Device cpu(xeon_e5_2670_dual());
  cpu.launch("cap_cpu", config, [&](GroupCtx& ctx) {
    // No hardware scratch-pad: the documented 4 MiB emulation cap.
    EXPECT_EQ(ctx.local_capacity(), std::size_t{4} << 20);
  });
}

TEST(GroupCtxLocal, OverCapacityAllocationThrows) {
  Device device(k20c());
  LaunchConfig config;
  config.num_groups = 1;
  config.group_size = 4;
  EXPECT_THROW(
      device.launch("too_big", config,
                    [&](GroupCtx& ctx) {
                      (void)ctx.local_alloc<float>(ctx.local_capacity());
                    }),
      Error);
}

TEST(GroupCtxLocal, OverflowErrorNamesBufferSizeOffsetAndCapacity) {
  Device device(k20c());  // 49152-byte scratch-pad
  LaunchConfig config;
  config.num_groups = 1;
  config.group_size = 4;
  std::string message;
  try {
    device.launch("overflow", config, [&](GroupCtx& ctx) {
      (void)ctx.local_alloc<float>(1000, "smat");         // 4000 B → 4032
      (void)ctx.local_alloc<float>(12000, "solve_scratch");  // 48000 B
    });
  } catch (const Error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("'solve_scratch'"), std::string::npos) << message;
  EXPECT_NE(message.find("48000 bytes"), std::string::npos) << message;
  EXPECT_NE(message.find("offset 4032"), std::string::npos) << message;
  EXPECT_NE(message.find("49152-byte"), std::string::npos) << message;
}

}  // namespace
}  // namespace alsmf::devsim
