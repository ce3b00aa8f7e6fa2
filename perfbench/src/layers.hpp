// Checked, timed operations shared by the workloads and the per-layer probes
// of the traced run, and the functions that turn them into per-layer
// metrics. Every per-layer metric has exactly one recording function, and
// every traced run calls each of them once (NOTES.md, "Per-layer metrics").
#pragma once

#include <string>
#include <vector>

#include "als/multi_device.hpp"
#include "als/options.hpp"
#include "als/solver.hpp"
#include "bench.hpp"
#include "devsim/device.hpp"
#include "index/ivf_index.hpp"
#include "linalg/dense.hpp"
#include "load.hpp"
#include "serve/model_store.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

/// A trained model and the data it was trained on.
struct ModelView {
  const alsmf::Csr* train = nullptr;  ///< rows are users
  const alsmf::Csr* test = nullptr;
  const alsmf::Matrix* x = nullptr;
  const alsmf::Matrix* y = nullptr;
  std::uint64_t seed = 1;
};

/// The paper's configuration (the AlsOptions defaults): k = 10, λ = 0.1,
/// 5 iterations, 8192 × 32 work-groups.
alsmf::AlsOptions paper_options(bool functional);
/// The paper's mapping: batched, local-memory staging, register tiling.
alsmf::AlsVariant paper_variant();

/// Mean recall@10 of the IVF index against exhaustive top-10 over the 500
/// users pinned by the model's seed.
double ivf_recall_at_10(const ModelView& model, const alsmf::index::IvfIndex& ann);

// --- ALS iterations ----------------------------------------------------------

/// Wall times of checked ALS iterations.
struct IterationLog {
  std::vector<double> iter_s;        ///< X then Y half-update
  std::vector<double> x_s, y_s;      ///< per half-update (single device only)
  std::vector<double> traced, untraced;  ///< iter_s split by span recording
};

/// One iteration of `solver`, timed into `log`. Returns what went wrong
/// (empty when nothing did): a throw, a non-finite factor, or a guard repair
/// or relaunch in robustness_report().
std::string single_iteration(alsmf::AlsSolver& solver, IterationLog& log);
/// The same for the multi-device solver; failures come from its
/// ElasticReport.
std::string multi_iteration(alsmf::MultiDeviceAls& multi, IterationLog& log);

/// Elastic counters of a multi-device solver at one point in time.
struct MultiCounters {
  double comm_s = 0;
  std::uint64_t heartbeats = 0, stragglers = 0, reexecs = 0;
  static MultiCounters of(const alsmf::MultiDeviceAls& multi);
};

// --- Recording functions -----------------------------------------------------

/// als.update_x_s, als.update_y_s, devsim.* (per iteration) and
/// als.modeled_share.S1S2 from single-device iterations on `device`.
void record_solver_layers(Run& run, const alsmf::devsim::Device& device,
                          const IterationLog& log);

/// multi.* from multi-device iterations since `before`, against the
/// single-device median iteration on the same input.
void record_multi_layers(Run& run, const alsmf::MultiDeviceAls& multi,
                         const IterationLog& log, const MultiCounters& before,
                         double single_iter_s);

/// trace.overhead: traced ÷ untraced median operation − 1.
void record_trace_overhead(Run& run, const std::vector<double>& traced,
                           const std::vector<double>& untraced);

/// Test RMSE: sets the end-to-end test_rmse and the layer als.eval_s, and
/// checks it against predicting the training mean.
double evaluate(Run& run, const ModelView& model);

/// Attaches an IVF index (index defaults); returns the wall seconds.
double build_index(alsmf::serve::ModelSnapshot& snapshot);

// --- Probes --------------------------------------------------------------------

/// Multi-device layers on a workload that does not run MultiDeviceAls: one
/// warm-up and three timed iterations on four K20c cards.
void probe_multi(Run& run, const ModelView& model, double single_iter_s);

/// Serving layers on a workload that does not serve: one second at the
/// light rate on the model's own snapshot. Returns the schedule served.
std::vector<Request> probe_serve(Run& run, const ModelView& model,
                                 std::shared_ptr<alsmf::serve::ModelSnapshot> snap);

/// The layers every workload measures the same way, after its own: pool,
/// row math, transpose, accounting launch, index probes over the top-N users
/// of `served`, exhaustive top-N, fold-in and batched Cholesky. Needs
/// als.update_x_s and serve.batch_size.mean recorded first.
void probe_common(Run& run, const ModelView& model,
                  const alsmf::index::IvfIndex& ann,
                  const std::vector<Request>& served);

/// The per-layer metric names and units, in report order.
const std::vector<std::pair<const char*, const char*>>& layer_metric_names();

}  // namespace perfbench
