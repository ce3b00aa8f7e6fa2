// The defect-injection corpus: every deliberately broken kernel must be
// flagged with the expected defect class by BOTH checking legs —
//
//   static leg   parse -> access IR -> bounds/race verifier under the ALS
//                contracts (fail closed: unprovable counts as flagged),
//   dynamic leg  the checked AST interpreter executed on the devsim device
//                under LaunchConfig.validate, i.e. the shadow-memory
//                checker watching the mutated kernel text itself.
//
// The corpus is the evidence that the verifier's verdicts mean something:
// a mutation only enters tests/testing/kernel_mutator.hpp if checked
// dynamic execution independently witnesses the same defect.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "als/certify_kernels.hpp"
#include "devsim/check/defects.hpp"
#include "devsim/device.hpp"
#include "devsim/profile.hpp"
#include "ocl/analyze/interp.hpp"
#include "testing/kernel_mutator.hpp"

namespace alsmf {
namespace {

using devsim::check::DefectClass;
using ocl::analyze::InterpArg;
using ocl::analyze::InterpKernel;
using testing::KernelMutation;

// TILE_ROWS=4 keeps the staging tile small enough that the corpus dataset
// exercises multiple chunks per row (stale-tile and overflow mutants).
ocl::KernelConfig corpus_config() {
  ocl::KernelConfig kc;
  kc.k = 10;
  kc.group_size = 32;
  kc.tile_rows = 4;
  return kc;
}

struct CorpusData {
  std::vector<int> row_ptr, col_idx;
  std::vector<float> values, y, x;
  int rows = 8, cols = 8, k = 10;
};

// Hand-built CSR chosen so every mutation's defect is dynamically
// reachable: row 0 has 6 nonzeros (two TILE_ROWS=4 chunks, and a full
// first chunk reaching staging lane p=3), row 1 touches column cols-1 (an
// off-by-one gather walks past the end of Y), and rows == cols puts the
// aliased-output store of every row inside Y's extent so it races instead
// of merely overflowing.
CorpusData corpus_data() {
  CorpusData d;
  const std::vector<std::vector<int>> cols_of = {
      {0, 1, 2, 3, 4, 5}, {2, 7}, {0, 3}, {1, 4},
      {5, 6}, {0, 7}, {3, 6}, {2, 5}};
  d.row_ptr.push_back(0);
  for (const auto& cs : cols_of) {
    for (int c : cs) {
      d.col_idx.push_back(c);
      d.values.push_back(0.5f + 0.1f * static_cast<float>(d.col_idx.size()));
    }
    d.row_ptr.push_back(static_cast<int>(d.col_idx.size()));
  }
  d.y.resize(static_cast<std::size_t>(d.k) * d.cols);
  for (std::size_t i = 0; i < d.y.size(); ++i) {
    d.y[i] = 0.05f + 0.01f * static_cast<float>(i % 13);
  }
  d.x.assign(static_cast<std::size_t>(d.k) * d.rows, 0.0f);
  return d;
}

// Interprets `kernel` from `source` on the devsim device under checked
// execution and returns the accumulated findings. num_groups=2 exercises
// both the row-stride loop (batched kernels) and cross-group detection;
// for the flat kernel 2x32 lanes deliberately exceed rows=8 so a dropped
// launch guard sends tail lanes out of bounds.
devsim::check::CheckReport interpret_checked(const std::string& source,
                                             const std::string& kernel,
                                             CorpusData& d) {
  InterpKernel ik(source, kernel);
  const std::size_t num_groups = 2;
  ik.set_num_groups(static_cast<long>(num_groups));
  const std::vector<InterpArg> args = {
      InterpArg::real_buffer(d.values), InterpArg::int_buffer(d.col_idx),
      InterpArg::int_buffer(d.row_ptr), InterpArg::real_buffer(d.y),
      InterpArg::real_buffer(d.x),      InterpArg::int_scalar(d.rows),
      InterpArg::real_scalar(0.1)};
  devsim::Device device(devsim::k20c());
  devsim::LaunchConfig lc;
  lc.num_groups = num_groups;
  lc.group_size = 32;
  lc.validate = true;
  const auto result = device.launch(
      "corpus", lc, [&](devsim::GroupCtx& ctx) { ik.run_group(ctx, args); });
  return result.check;
}

std::set<DefectClass> static_classes(const VerifySourceResult& sr) {
  std::set<DefectClass> classes;
  // Fail-closed mapping: any non-proven verdict flags the defect class of
  // its location — an unprovable global ref is still a flagged global
  // bounds defect, exactly like a proven violation.
  for (const auto& report : sr.reports) {
    for (const auto& f : report.bounds_findings) {
      classes.insert(f.space == ocl::analyze::MemSpace::kGlobal
                         ? DefectClass::kBoundsGlobal
                         : DefectClass::kBoundsLocal);
    }
    for (const auto& f : report.race_findings) {
      classes.insert(f.cross_group ? DefectClass::kRaceCrossGroup
                                   : DefectClass::kRaceIntraGroup);
    }
  }
  return classes;
}

std::set<DefectClass> dynamic_classes(const devsim::check::CheckReport& rep) {
  std::set<DefectClass> classes;
  for (const auto& f : rep.findings) {
    classes.insert(devsim::check::defect_class(f.kind));
  }
  return classes;
}

TEST(DefectCorpus, CleanKernelsPassBothLegs) {
  const ocl::KernelConfig kc = corpus_config();
  std::set<std::string> seen;
  for (const KernelMutation& m : testing::kernel_mutations()) {
    if (!seen.insert(m.kernel).second) continue;
    SCOPED_TRACE(m.kernel);
    const std::string source = testing::base_source(m, kc);

    const VerifySourceResult sr = verify_kernel_source(source);
    EXPECT_TRUE(sr.clean());
    for (const auto& report : sr.reports) {
      for (const auto& d : verify_diagnostics(m.kernel, report)) {
        ADD_FAILURE() << d;
      }
    }

    CorpusData d = corpus_data();
    const auto check = interpret_checked(source, m.kernel, d);
    EXPECT_TRUE(check.clean()) << check.findings.size() << " findings";
    bool finite = true, nonzero = false;
    for (float v : d.x) {
      if (!std::isfinite(v)) finite = false;
      if (v != 0.0f) nonzero = true;
    }
    EXPECT_TRUE(finite);
    EXPECT_TRUE(nonzero);
  }
}

TEST(DefectCorpus, EveryMutationFlaggedByBothLegs) {
  const ocl::KernelConfig kc = corpus_config();
  const auto mutations = testing::kernel_mutations();
  ASSERT_GE(mutations.size(), 7u);
  for (const KernelMutation& m : mutations) {
    SCOPED_TRACE(m.name);
    const std::string source = testing::mutated_source(m, kc);

    // Static leg.
    const VerifySourceResult sr = verify_kernel_source(source);
    EXPECT_FALSE(sr.clean());
    const auto sclasses = static_classes(sr);
    EXPECT_TRUE(sclasses.count(m.expected))
        << "static leg missed " << to_string(m.expected);
    if (!m.static_unprovable_only) {
      // The verifier must actually prove the defect, not just give up.
      bool proven = false;
      for (const auto& report : sr.reports) {
        for (const auto& f : report.bounds_findings) {
          proven |= f.verdict ==
                    ocl::analyze::verify::BoundsVerdict::kProvenViolating;
        }
        for (const auto& f : report.race_findings) {
          proven |=
              f.verdict == ocl::analyze::verify::RaceVerdict::kProvenRace;
        }
      }
      EXPECT_TRUE(proven);
    }

    // Dynamic leg.
    CorpusData d = corpus_data();
    const auto check = interpret_checked(source, m.kernel, d);
    EXPECT_FALSE(check.clean());
    const auto dclasses = dynamic_classes(check);
    EXPECT_TRUE(dclasses.count(m.expected))
        << "dynamic leg missed " << to_string(m.expected);
  }
}

TEST(DefectCorpus, MutatorRejectsStaleAnchors) {
  KernelMutation m;
  m.name = "bogus";
  m.kernel = "als_update_flat";
  m.find = "this anchor does not exist";
  m.replace = "";
  EXPECT_THROW(testing::mutated_source(m, corpus_config()),
               std::runtime_error);
}

}  // namespace
}  // namespace alsmf
