// End-to-end integration: dataset replica -> split -> train on each device
// profile -> evaluate -> serve -> serialize.
#include <gtest/gtest.h>

#include <sstream>

#include "als/metrics.hpp"
#include "testing/reference.hpp"
#include "als/solver.hpp"
#include "als/variant_select.hpp"
#include "data/datasets.hpp"
#include "data/split.hpp"
#include "recsys/recommender.hpp"
#include "sparse/convert.hpp"
#include "sparse/io.hpp"

namespace alsmf {
namespace {

TEST(EndToEnd, ReplicaTrainServeSaveLoad) {
  const auto& info = dataset_by_abbr("YMR4");
  SyntheticSpec spec = replica_spec(info, 16.0);
  spec.noise = 0.1;  // keep the tiny replica learnable
  spec.integer_ratings = false;
  const Coo all = generate_synthetic(spec);
  auto [train_coo, test_coo] = split_holdout(all, 0.1, 3);
  const Csr train = coo_to_csr(train_coo);

  // Small replica with many rarely-rated items: keep the model modest and
  // the ridge strong so the holdout error stays meaningful.
  AlsOptions options;
  options.k = 4;
  options.lambda = 0.5f;
  options.iterations = 8;

  Recommender rec;
  const auto report = rec.train(train, options, devsim::k20c());
  EXPECT_LT(report.train_rmse, 1.0);
  EXPECT_LT(rec.rmse_on(test_coo), 1.5);

  const auto recs = rec.recommend(1, 5, &train);
  EXPECT_LE(recs.size(), 5u);

  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  rec.save(s);
  Recommender back = Recommender::load(s);
  EXPECT_NEAR(back.rmse_on(test_coo), rec.rmse_on(test_coo), 1e-9);
}

TEST(EndToEnd, AllFourReplicasTrainOnAllDevices) {
  AlsOptions options;
  options.k = 4;
  options.iterations = 2;
  options.num_groups = 512;
  for (const auto& info : table1_datasets()) {
    const Csr train = make_replica(info.abbr, 1024.0);
    Matrix first;
    bool have_first = false;
    for (const char* dev : {"cpu", "gpu", "mic"}) {
      const auto profile = devsim::profile_by_name(dev);
      devsim::Device device(profile);
      const TunedConfig tuned = select_config(train, options, profile);
      AlsSolver solver(train, apply_tuning(options, tuned), tuned.variant,
                       device);
      solver.run({});
      EXPECT_GT(solver.modeled_seconds(), 0.0) << info.abbr << " " << dev;
      if (!have_first) {
        first = solver.x();
        have_first = true;
      } else {
        EXPECT_EQ(solver.x(), first) << info.abbr << " " << dev;
      }
    }
  }
}

TEST(EndToEnd, TextRoundTripThenTrain) {
  // Dataset -> paper text format -> reload -> train; exercises the I/O path
  // a user with real MovieLens files would follow.
  const Csr original = make_replica("YMR4", 32.0);
  std::stringstream s;
  write_ratings_text(s, csr_to_coo(original));
  const Coo reloaded =
      read_ratings_text(s, {}, original.rows(), original.cols());
  const Csr train = coo_to_csr(reloaded);
  EXPECT_EQ(train.nnz(), original.nnz());

  AlsOptions options;
  options.k = 4;
  options.iterations = 3;
  devsim::Device device(devsim::xeon_e5_2670_dual());
  AlsSolver solver(train, options, AlsVariant::batch_local(), device);
  solver.run({});
  EXPECT_LT(solver.train_rmse(), 1.3);
}

TEST(EndToEnd, ConvergenceAcrossVariantsIdentical) {
  const Csr train = make_replica("MVLE", 2048.0);
  AlsOptions options;
  options.k = 6;
  options.iterations = 4;
  double reference_loss = -1;
  for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
    devsim::Device device(devsim::k20c());
    AlsSolver solver(train, options, AlsVariant::from_mask(mask), device);
    solver.run({});
    const double loss = solver.train_loss();
    if (reference_loss < 0) {
      reference_loss = loss;
    } else {
      EXPECT_DOUBLE_EQ(loss, reference_loss)
          << AlsVariant::from_mask(mask).name();
    }
  }
}

}  // namespace
}  // namespace alsmf
