// The kernel certificate (what `alsmf_cli certify-kernels` and the CI gate
// run): every leg is clean at the defaults and covers every kernel, the JSON
// certificate carries every leg, and the gate fails closed. The certificate
// is computed once per test binary and shared by every test here. Each
// leg's tests keep the names of the sweep that leg replaced: CheckKernels
// (checked execution), AnalyzeKernels (deep lint + static profiles), Verify
// (bounds & race verifier) and PrecisionKernels (precision certificate +
// shadow witness).
#include "als/certify_kernels.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"

namespace alsmf {
namespace {

const KernelCertificate& certificate() {
  static const KernelCertificate cert =
      certify_kernels(CertifyKernelsOptions{});
  return cert;
}

bool is_narrow(const std::string& kernel) {
  return kernel.find("_f16") != std::string::npos ||
         kernel.find("_bf16") != std::string::npos;
}

// flat + 8 batched variants + their fp16/bf16 storage flavors.
constexpr std::size_t kFlavors = 3 * AlsVariant::kVariantCount + 1;

TEST(CertifyKernels, CheckedExecutionIsClean) {
  const KernelCertificate& cert = certificate();
  for (const auto& entry : cert.checked) {
    EXPECT_TRUE(entry.report.clean())
        << entry.profile << "/" << entry.kernel << ":\n"
        << entry.report.to_json();
  }
  EXPECT_TRUE(cert.checked_clean());
  // flat + 8 variants, each again with the subspace solve, + 4 forced-tile
  // re-runs + implicit, x3 profiles; the implicit iteration is two
  // launches.
  EXPECT_EQ(cert.checked.size(), 23u * 3u);
  EXPECT_EQ(cert.checked_launches, 24u * 3u);
  EXPECT_EQ(cert.checked_findings, 0u);
  EXPECT_TRUE(cert.clean());
}

TEST(CheckKernels, JsonExportCarriesEntries) {
  const KernelCertificate& cert = certificate();
  const std::string text = cert.to_json();
  EXPECT_NE(text.find("\"clean\":true"), std::string::npos);
  EXPECT_NE(text.find("\"kernel\":\"flat\""), std::string::npos);
  EXPECT_NE(text.find("\"profile\":\"gpu\""), std::string::npos);
  EXPECT_NE(text.find("\"lint_issues\":[]"), std::string::npos);

  const json::Value root = json::parse(text);
  const json::Value& checked = root.at("checked_execution");
  EXPECT_TRUE(checked.at("clean").as_bool());
  EXPECT_EQ(checked.at("launches").as_double(), 72);
  const auto& entries = checked.at("entries").array();
  ASSERT_EQ(entries.size(), cert.checked.size());
  EXPECT_EQ(entries.front().at("kernel").as_string(), "flat");
  EXPECT_NE(entries.front().at("report").find("findings"), nullptr);
}

TEST(AnalyzeKernels, SweepIsCleanAndCoversEveryKernel) {
  const KernelCertificate& cert = certificate();
  ASSERT_EQ(cert.tiles.size(), 2u);
  EXPECT_EQ(cert.tiles[0].tile_rows, 256);  // the generator default
  EXPECT_EQ(cert.tiles[1].tile_rows, 4);
  for (const auto& tile : cert.tiles) {
    SCOPED_TRACE("tile " + std::to_string(tile.tile_rows));
    EXPECT_TRUE(tile.clean());
    for (const auto& issue : tile.lint_issues) ADD_FAILURE() << issue;
    // 8 batched x {fp32, fp16, bf16} + flat, per profile.
    EXPECT_EQ(tile.static_profiles.size(), 3 * kFlavors);
    std::set<std::string> kernels;
    for (const auto& e : tile.static_profiles) {
      kernels.insert(e.kernel);
      EXPECT_GT(e.data.counters.useful_flops, 0.0) << e.kernel;
      EXPECT_GT(e.data.register_estimate, 0) << e.kernel;
      EXPECT_GT(e.data.groups, 0u) << e.kernel;
      EXPECT_FALSE(e.json.empty()) << e.kernel;
    }
    EXPECT_EQ(kernels.size(), kFlavors);
    EXPECT_TRUE(kernels.count("als_update_flat"));
    EXPECT_TRUE(kernels.count("als_update_batch_local_reg"));
  }
}

TEST(AnalyzeKernels, LocalVariantsReportStagingOthersDoNot) {
  const KernelCertificate& cert = certificate();
  ASSERT_FALSE(cert.tiles.empty());
  for (const auto& tile : cert.tiles) {
    SCOPED_TRACE("tile " + std::to_string(tile.tile_rows));
    for (const auto& e : tile.static_profiles) {
      if (e.kernel.find("_local") != std::string::npos) {
        EXPECT_GT(e.data.tile_rows, 0u) << e.kernel;
        EXPECT_GT(e.data.declared_local_bytes, 0) << e.kernel;
      } else {
        EXPECT_EQ(e.data.tile_rows, 0u) << e.kernel;
      }
    }
  }
}

TEST(AnalyzeKernels, ForcedTinyTileShowsMultiChunkStaging) {
  const KernelCertificate& cert = certificate();
  ASSERT_EQ(cert.tiles.size(), 2u);
  const TileCertificate& tile = cert.tiles[1];
  ASSERT_EQ(tile.tile_rows, 4);
  EXPECT_TRUE(tile.clean());
  bool saw_chunked = false;
  for (const auto& e : tile.static_profiles) {
    if (e.kernel.find("_local") == std::string::npos) continue;
    EXPECT_EQ(e.data.tile_rows, 4u) << e.kernel;
    saw_chunked |= e.data.chunks > 1;
  }
  EXPECT_TRUE(saw_chunked);
}

TEST(AnalyzeKernels, EmittedJsonParses) {
  const KernelCertificate& cert = certificate();
  const json::Value root = json::parse(cert.to_json());
  ASSERT_NE(root.find("clean"), nullptr);
  EXPECT_TRUE(root.at("clean").as_bool());
  EXPECT_EQ(root.at("k").as_double(), 10);
  EXPECT_EQ(root.at("group_size").as_double(), 32);

  const auto& tiles = root.at("tiles").array();
  ASSERT_EQ(tiles.size(), 2u);
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const json::Value& tile = tiles[t];
    EXPECT_EQ(tile.at("tile_rows").as_double(), cert.tiles[t].tile_rows);
    EXPECT_TRUE(tile.at("clean").as_bool());
    const auto& profiles = tile.at("static_profiles").array();
    ASSERT_FALSE(profiles.empty());
    ASSERT_EQ(profiles.size(), cert.tiles[t].static_profiles.size());
    // Spot-check one embedded static profile.
    const json::Value& first = profiles.front();
    ASSERT_NE(first.find("kernel"), nullptr);
    const json::Value* sp = first.find("static_profile");
    ASSERT_NE(sp, nullptr);
    EXPECT_NE(sp->find("counters"), nullptr);
    EXPECT_NE(sp->find("accesses"), nullptr);
    EXPECT_NE(sp->find("resources"), nullptr);
  }
}

// The verifier leg at one tile: every reference proven safe, no race, and
// the suite-wide reference and MHP-pair counts. The verifier does not
// depend on the device profile, so it runs once per flavor.
void expect_verifier_proves_every_flavor(const TileCertificate& tile) {
  for (const auto& err : tile.errors) ADD_FAILURE() << err;
  for (const auto& d : tile.diagnostics) ADD_FAILURE() << d;
  ASSERT_EQ(tile.flavors.size(), kFlavors);
  long refs = 0, pairs = 0;
  for (const auto& f : tile.flavors) {
    SCOPED_TRACE(f.kernel);
    const auto& r = f.verify;
    EXPECT_GT(r.refs_total, 0);
    EXPECT_EQ(r.refs_proven_safe, r.refs_total);
    EXPECT_EQ(r.refs_proven_violating, 0);
    EXPECT_EQ(r.refs_unprovable, 0);
    EXPECT_EQ(r.races_proven, 0);
    EXPECT_EQ(r.races_unprovable, 0);
    EXPECT_TRUE(r.clean());
    refs += r.refs_total;
    pairs += r.pairs_checked;
  }
  EXPECT_EQ(refs, 718);
  EXPECT_EQ(pairs, 999);
}

TEST(Verify, AllGeneratedKernelsFullyProvenOnAllProfiles) {
  const KernelCertificate& cert = certificate();
  ASSERT_FALSE(cert.tiles.empty());
  ASSERT_EQ(cert.tiles[0].tile_rows, 256);
  expect_verifier_proves_every_flavor(cert.tiles[0]);
}

TEST(Verify, ForcedSmallTileStaysProven) {
  // TILE_ROWS=4 shrinks the staging tile well below the chunk loop's
  // natural size; extents and barrier intervals must still check out.
  const KernelCertificate& cert = certificate();
  ASSERT_EQ(cert.tiles.size(), 2u);
  ASSERT_EQ(cert.tiles[1].tile_rows, 4);
  expect_verifier_proves_every_flavor(cert.tiles[1]);
}

TEST(Verify, WidthPassRecordsElementWidths) {
  const KernelCertificate& cert = certificate();
  ASSERT_FALSE(cert.tiles.empty());
  for (const auto& tile : cert.tiles) {
    ASSERT_FALSE(tile.flavors.empty());
    for (const auto& f : tile.flavors) {
      SCOPED_TRACE("tile " + std::to_string(tile.tile_rows) + "/" + f.kernel);
      EXPECT_FALSE(f.verify.widths.empty());
      bool saw_half = false;
      for (const auto& w : f.verify.widths) {
        EXPECT_FALSE(w.mixed) << w.buffer;
        ASSERT_EQ(w.widths.size(), 1u) << w.buffer;
        if (is_narrow(f.kernel) && w.widths[0] == 2) {
          saw_half = true;  // storage_t factor buffers in fp16/bf16 flavors
        } else {
          EXPECT_EQ(w.widths[0], 4) << w.buffer;  // float / int buffers
        }
      }
      // Every narrow flavor must actually surface a 2-byte buffer.
      EXPECT_EQ(saw_half, is_narrow(f.kernel));
    }
  }
}

TEST(VerifyJson, SchemaCarriesGoldenKeys) {
  const KernelCertificate& cert = certificate();
  const std::string text = cert.to_json();
  for (const char* key :
       {"\"clean\":true", "\"errors\":[]", "\"diagnostics\":[]",
        "\"lint_issues\":[]", "\"flavors\":[",
        "\"kernel\":\"als_update_flat\"", "\"profile\":\"gpu\"",
        "\"kernel\":\"flat\"", "\"bounds\":{\"refs\":", "\"proven_safe\":",
        "\"proven_violating\":0", "\"unprovable\":0", "\"findings\":[]",
        "\"races\":{\"pairs\":", "\"proven\":0", "\"widths\":[",
        "\"mixed\":false"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
  const json::Value root = json::parse(text);
  for (const json::Value& tile : root.at("tiles").array()) {
    for (const json::Value& f : tile.at("flavors").array()) {
      EXPECT_EQ(f.at("verify").at("kernel").as_string(),
                f.at("kernel").as_string());
    }
  }
}

// The precision leg at one tile: every flavor certifies, and every narrow
// flavor (8 fp16 + 8 bf16) is witnessed, dominated and free of overflow.
void expect_precision_leg_clean(const TileCertificate& tile) {
  EXPECT_TRUE(tile.errors.empty());
  EXPECT_TRUE(tile.clean());
  ASSERT_EQ(tile.flavors.size(), kFlavors);
  int witnessed = 0;
  for (const auto& f : tile.flavors) {
    EXPECT_TRUE(f.precision.certified) << f.kernel;
    EXPECT_EQ(f.precision.kernel, f.kernel);
    EXPECT_TRUE(f.dominated) << f.kernel;
    EXPECT_FALSE(f.witness.overflow_observed) << f.kernel;
    EXPECT_EQ(f.witness.ran, is_narrow(f.kernel)) << f.kernel;
    if (f.witness.ran) {
      ++witnessed;
      EXPECT_GT(f.witness.observed_err, 0.0) << f.kernel;
    }
    EXPECT_TRUE(f.clean()) << f.kernel;
  }
  EXPECT_EQ(witnessed, 2 * static_cast<int>(AlsVariant::kVariantCount));
}

TEST(PrecisionKernels, FullSweepIsClean) {
  const KernelCertificate& cert = certificate();
  ASSERT_FALSE(cert.tiles.empty());
  ASSERT_EQ(cert.tiles[0].tile_rows, 256);
  expect_precision_leg_clean(cert.tiles[0]);
}

TEST(PrecisionKernels, StaticOnlySweepAtForcedTileRows) {
  // The certificate also certifies at TILE_ROWS=4 (multiple staging chunks
  // per row). The static certificate must hold there too; the narrow
  // flavors are witnessed at this tile as well, as the CI gate always did.
  const KernelCertificate& cert = certificate();
  ASSERT_EQ(cert.tiles.size(), 2u);
  ASSERT_EQ(cert.tiles[1].tile_rows, 4);
  expect_precision_leg_clean(cert.tiles[1]);
}

TEST(PrecisionKernels, JsonArtifactParsesAndCarriesGateFields) {
  const KernelCertificate& cert = certificate();
  const json::Value root = json::parse(cert.to_json());
  EXPECT_TRUE(root.at("clean").as_bool());
  const auto& tiles = root.at("tiles").array();
  ASSERT_EQ(tiles.size(), cert.tiles.size());
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const auto& flavors = tiles[t].at("flavors").array();
    ASSERT_EQ(flavors.size(), cert.tiles[t].flavors.size());
    for (const json::Value& f : flavors) {
      EXPECT_TRUE(f.at("clean").as_bool());
      EXPECT_FALSE(f.at("certificate").at("kernel").as_string().empty());
      EXPECT_NE(f.find("witness"), nullptr);
      EXPECT_NE(f.at("witness").find("dominated"), nullptr);
    }
  }
}

TEST(CertifyKernels, FailsClosed) {
  ASSERT_TRUE(certificate().clean());
  const auto fails = [](const char* what, auto&& mutate) {
    KernelCertificate c = certificate();
    mutate(c);
    EXPECT_FALSE(c.clean()) << what;
    EXPECT_NE(c.to_json().find("{\"clean\":false"), std::string::npos)
        << what;
  };
  auto narrow = [](KernelCertificate& c) -> FlavorCertificate& {
    for (auto& f : c.tiles[0].flavors) {
      if (f.storage != StoragePrecision::kFp32) return f;
    }
    throw Error("no narrow flavor");
  };
  fails("parse failure", [](KernelCertificate& c) {
    c.tiles[0].errors.push_back("als_update_flat: line 1: expected ';'");
  });
  fails("deep-lint diagnostic", [](KernelCertificate& c) {
    c.tiles[1].lint_issues.push_back("gpu/als_update_flat.cl:0:0: deep");
  });
  fails("unprovable reference", [](KernelCertificate& c) {
    c.tiles[0].flavors[0].verify.refs_unprovable = 1;
  });
  fails("unprovable race pair", [](KernelCertificate& c) {
    c.tiles[1].flavors[0].verify.races_unprovable = 1;
  });
  fails("uncertified flavor", [](KernelCertificate& c) {
    c.tiles[0].flavors[0].precision.certified = false;
  });
  fails("witness did not run",
        [&](KernelCertificate& c) { narrow(c).witness.ran = false; });
  fails("witness not dominated",
        [&](KernelCertificate& c) { narrow(c).dominated = false; });
  fails("witness overflowed", [&](KernelCertificate& c) {
    narrow(c).witness.overflow_observed = true;
  });
  fails("checked-execution finding",
        [](KernelCertificate& c) { c.checked_findings = 1; });
  fails("no checked entries",
        [](KernelCertificate& c) { c.checked.clear(); });
  fails("no static profiles",
        [](KernelCertificate& c) { c.tiles[1].static_profiles.clear(); });
  fails("no flavors",
        [](KernelCertificate& c) { c.tiles[0].flavors.clear(); });
  fails("no tiles", [](KernelCertificate& c) { c.tiles.clear(); });
}

}  // namespace
}  // namespace alsmf
