// Implicit-feedback recommendation (the paper's §I: ALS "can incorporate
// implicit ratings"): train on interaction counts on a modeled K20c,
// evaluate with ranking metrics (hit rate / NDCG / AUC), and serve top-N.
//
//   ./implicit_recommender [--users 1500] [--items 800] [--nnz 30000]
//                          [--alpha 20] [--k 10] [--iters 10] [--seed 19]
#include <iostream>

#include "als/implicit.hpp"
#include "common/cli.hpp"
#include "devsim/device.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "recsys/ranking.hpp"
#include "sparse/convert.hpp"

int main(int argc, char** argv) {
  using namespace alsmf;
  CliArgs args(argc, argv);

  // Interaction counts (e.g. play counts): reuse the synthetic generator
  // with non-integer "strengths" mapped to small counts.
  SyntheticSpec spec;
  spec.users = args.get_long("users", 1500);
  spec.items = args.get_long("items", 800);
  spec.nnz = args.get_long("nnz", 30000);
  spec.min_rating = 1.0f;
  spec.max_rating = 8.0f;  // interaction counts 1..8
  spec.seed = static_cast<std::uint64_t>(args.get_long("seed", 19));
  const Coo all = generate_synthetic(spec);

  auto [train_coo, test_coo] = split_leave_one_out(all, 5);
  const Csr train = coo_to_csr(train_coo);
  Coo test_sized(train.rows(), train.cols());
  for (const auto& t : test_coo.entries()) test_sized.add(t.row, t.col, t.value);
  const Csr test = coo_to_csr(test_sized);

  ImplicitOptions options;
  options.k = static_cast<int>(args.get_long("k", 10));
  options.alpha = static_cast<real>(args.get_double("alpha", 20.0));
  options.iterations = static_cast<int>(args.get_long("iters", 10));

  std::cout << "Training implicit ALS (k=" << options.k
            << ", alpha=" << options.alpha << ") on " << train.nnz()
            << " interactions...\n";
  devsim::Device device(devsim::k20c());
  DeviceImplicitAls model(train, options, device);
  std::cout << "modeled K20c seconds: " << model.run() << "\n";

  const RankingMetrics m =
      evaluate_ranking(train, test, model.x(), model.y(), 10);
  std::cout << "Leave-one-out ranking quality over " << m.evaluated_users
            << " users:\n"
            << "  hit rate@10:  " << m.hit_rate << "\n"
            << "  precision@10: " << m.precision << "\n"
            << "  recall@10:    " << m.recall << "\n"
            << "  NDCG@10:      " << m.ndcg << "\n"
            << "  AUC:          " << m.auc << "\n";
  return 0;
}
