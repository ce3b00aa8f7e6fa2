#include "als/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "als/kernel_model.hpp"
#include "als/row_solve.hpp"
#include "common/error.hpp"

namespace alsmf {

namespace {

using devsim::DeviceKind;
using devsim::GroupCtx;
namespace check = devsim::check;

/// Checked accessors over the buffers a half-update touches. Created per
/// group; in unchecked launches they degrade to bounds-checked views and
/// the mark_* calls only check bounds.
struct UpdateSpans {
  check::GlobalSpan<const index_t> cols;
  check::GlobalSpan<const real> vals;
  check::GlobalSpan<const real> src;
  check::GlobalSpan<real> dst;
  check::GlobalSpan<const real> gram;  ///< implicit half-updates only
};

UpdateSpans make_spans(GroupCtx& ctx, const UpdateArgs& a) {
  UpdateSpans s;
  // The device layout stores 32-bit column indices (paper Fig. 2); the
  // host emulation uses int64, so honesty accounting scales to 4 bytes.
  s.cols = ctx.global_span("r.col_idx", a.r->col_idx().data(),
                           a.r->col_idx().size(), 4);
  s.vals =
      ctx.global_span("r.values", a.r->values().data(), a.r->values().size());
  s.src = ctx.global_span("src", a.src->data(), a.src->size());
  s.dst = ctx.global_span("dst", a.dst->data(), a.dst->size());
  if (a.gram) {
    s.gram = ctx.global_span("gram", a.gram,
                             static_cast<std::size_t>(a.k) * a.k);
  }
  return s;
}

/// Sums one row's normal equations: the implicit system from the Gramian
/// prefix when the half-update has one; else from the product table when it
/// has one, else straight from src, bitwise the same either way
/// (row_solve.hpp).
void assemble(const UpdateArgs& a, std::span<const index_t> cols,
              std::span<const real> vals, real lambda, real* smat,
              real* svec) {
  if (a.gram) {
    assemble_implicit_equations(cols, vals, *a.src, a.gram, a.k, smat, svec);
  } else if (a.products) {
    assemble_normal_equations(cols, vals, *a.products, lambda, a.k, smat, svec);
  } else {
    assemble_normal_equations(cols, vals, *a.src, lambda, a.k, smat, svec);
  }
}

// Pricing constants shared with the static analyzer (kernel_model.hpp):
// both sides must charge the same launch identically.
using kernel_model::kBarrierSlots;
using kernel_model::kBaseRegisters;
using kernel_model::kBatchedOpsPerFma;
using kernel_model::kFlatOpsPerFma;
using kernel_model::kRegLocalScalarPenalty;

/// The paper's thread-batched kernel: one work-group cooperates on one row,
/// striding over rows by the launch's group count.
class BatchedKernel {
 public:
  BatchedKernel(const UpdateArgs& args, std::size_t stride)
      : a_(args), stride_(stride) {}

  void operator()(GroupCtx& ctx) const {
    const Csr& r = *a_.r;
    const int k = a_.k;
    const int ws = ctx.group_size();
    const int W = ctx.simd_width();
    const double bundles = ctx.num_bundles();
    // Lane coverage of the k accumulator columns: with ws < k the lane loop
    // runs multiple passes (the paper's Fig. 10 discussion).
    const double passes = std::ceil(static_cast<double>(k) / ws);
    const double pairs = 0.5 * k * (k + 1);
    const AlsVariant& v = a_.variant;
    const bool cpu_like = ctx.profile().kind != DeviceKind::kGpu;
    const RowSolver& rs = *a_.row_solver;
    const double s3_flops = rs.modeled_flops(k);
    const bool warm_start = rs.uses_warm_start();

    // Group-shared scratch: the k×k system and the rhs. The solve scratch
    // is emulation detail (real kernels keep it in registers or private
    // memory depending on the variant), so it stays outside the shadow.
    auto smat = ctx.local_alloc<real>(static_cast<std::size_t>(k) * k, "smat");
    auto svec = ctx.local_alloc<real>(static_cast<std::size_t>(k), "svec");
    // The iterative strategy keeps its per-row state (the warm-started x
    // plus the d×d block system and its rhs) in the scratch-pad, so
    // occupancy pricing sees that footprint.
    check::LocalSpan<real> solve_scratch;
    const std::size_t scratch_n = rs.scratch_reals(k);
    if (scratch_n > 0) {
      solve_scratch = ctx.local_alloc<real>(scratch_n, "solve_scratch");
    }
    const UpdateSpans g = make_spans(ctx, a_);

    // Staging tile for the local-memory variant: chunks of y rows plus the
    // matching ratings, sized to the remaining scratch-pad capacity. It is
    // allocated so occupancy pricing sees it; solve_row declares its
    // accesses but moves no data through it.
    check::LocalSpan<real> tile, rstage;
    std::size_t tile_rows = 0;
    if (v.use_local) {
      tile_rows =
          kernel_model::staging_tile_rows(k, ctx.local_remaining(), a_.tile_rows);
      tile = ctx.local_alloc<real>(tile_rows * static_cast<std::size_t>(k),
                                   "tile");
      rstage = ctx.local_alloc<real>(tile_rows, "rstage");
    }

    for (index_t u = static_cast<index_t>(ctx.group_id()); u < r.rows();
         u += static_cast<index_t>(stride_)) {
      const auto omega = static_cast<double>(r.row_nnz(u));
      if (omega == 0) {
        if (ctx.functional()) {
          auto row = a_.dst->row(u);
          std::fill(row.begin(), row.end(), real{0});
        }
        continue;
      }

      record_s1(ctx, omega, k, W, bundles, passes, pairs, cpu_like, v,
                tile_rows);
      record_s2(ctx, omega, k, W, bundles, passes, v);
      record_s3(ctx, k, W, bundles, s3_flops, warm_start);

      if (ctx.functional()) {
        solve_row(ctx, g, u, smat, svec, tile, rstage, tile_rows,
                  scratch_n > 0 ? solve_scratch.data() : nullptr);
      }
    }
  }

 private:
  void record_s1(GroupCtx& ctx, double omega, int k, int W, double bundles,
                 double passes, double pairs, bool cpu_like,
                 const AlsVariant& v, std::size_t tile_rows) const {
    ctx.section("S1");
    // Every resident bundle steps the z loop; per z each lane issues the k
    // unrolled accumulator fmas (idle lanes padded — Fig. 10's shape).
    double ops = bundles * W * passes * omega * k * kBatchedOpsPerFma;
    bool vectorized = v.use_vectors;
    if (v.use_registers && v.use_local && cpu_like) {
      ops *= kRegLocalScalarPenalty;
      vectorized = false;
    }
    if (vectorized) {
      ctx.ops_vector(ops);
    } else {
      ctx.ops_scalar(ops);
    }
    ctx.flops(2.0 * pairs * omega);

    // The row's CSR segment (col_idx + values) streams in once.
    ctx.global_read_coalesced(omega * 8.0);
    // An implicit row starts from the k×k Gramian, broadcast to the group.
    if (a_.gram) ctx.global_read_coalesced(static_cast<double>(k) * k * 4.0);
    // Cold gather of the needed y rows: one scattered access per nonzero,
    // k·4 useful bytes each (consecutive lanes read consecutive floats).
    ctx.global_read_scattered(omega, k * 4.0);
    if (v.use_local) {
      // Stage once, then both operand streams replay from the scratch-pad.
      ctx.local_write(omega * k * 4.0);
      ctx.local_read(2.0 * passes * omega * k * 4.0);
      // Chunked staging synchronizes the group twice per tile refill.
      const double chunks =
          std::ceil(omega / static_cast<double>(std::max<std::size_t>(tile_rows, 1)));
      ctx.ops_scalar(chunks * 2.0 * bundles * W * kBarrierSlots);
    } else {
      // Operand re-traversals go back through the memory system. Lanes of
      // a bundle read adjacent elements of the same y row, so each replay
      // is one row-granular (partially coalesced) access.
      ctx.reread(std::max(0.0, 2.0 * passes * omega - omega), k * 4.0);
      // On CPU/MIC every indirectly-addressed *element* costs a scalar
      // load+insert chain that staging would have hoisted out.
      if (ctx.profile().gather_scalar_ops > 0) {
        ctx.ops_flat(2.0 * passes * omega * k * ctx.profile().gather_scalar_ops);
      }
      // On GPU every unstaged inner-loop load exposes memory latency to
      // each resident bundle.
      if (ctx.profile().global_latency_slots > 0) {
        ctx.ops_scalar(2.0 * passes * omega * bundles * W *
                       ctx.profile().global_latency_slots);
      }
    }

    if (v.use_registers) {
      ctx.register_demand(k + kBaseRegisters);
    } else {
      // Dynamically-indexed private accumulator sum[k*k] (paper Fig. 3a):
      // one read+write per lane per z step.
      ctx.register_demand(k * k + kBaseRegisters);
      ctx.private_array_traffic(8.0 * k * passes * omega * bundles * W);
    }
  }

  void record_s2(GroupCtx& ctx, double omega, int k, int W, double bundles,
                 double passes, const AlsVariant& v) const {
    ctx.section("S2");
    const double ops = bundles * W * passes * omega * kBatchedOpsPerFma;
    if (v.use_vectors) {
      ctx.ops_vector(ops);
    } else {
      ctx.ops_scalar(ops);
    }
    ctx.flops(2.0 * k * omega);
    if (v.use_local) {
      // Ratings staged next to the y tile; reads replay from scratch-pad.
      ctx.local_write(omega * 4.0);
      ctx.local_read(passes * omega * (k + 1) * 4.0);
    } else {
      ctx.reread(passes * omega, k * 4.0);
      if (ctx.profile().gather_scalar_ops > 0) {
        ctx.ops_flat(passes * omega * k * ctx.profile().gather_scalar_ops);
      }
      if (ctx.profile().global_latency_slots > 0) {
        ctx.ops_scalar(passes * omega * bundles * W *
                       ctx.profile().global_latency_slots);
      }
    }
    if (!v.use_registers) {
      ctx.private_array_traffic(8.0 * passes * omega * bundles * W);
    }
  }

  void record_s3(GroupCtx& ctx, int k, int W, double bundles,
                 double s3_flops, bool warm_start) const {
    ctx.section("S3");
    // The small solve runs on lane 0; the other lanes (and bundles) of the
    // group wait at the trailing barrier.
    ctx.ops_scalar(bundles * W * s3_flops);
    ctx.flops(s3_flops);
    // Warm-started strategies fetch the row's previous factor value
    // before overwriting it.
    if (warm_start) ctx.global_read_scattered(1.0, k * 4.0);
    ctx.global_write_scattered(1.0, k * 4.0);
  }

  void solve_row(GroupCtx& ctx, const UpdateSpans& g, index_t u,
                 const check::LocalSpan<real>& smat,
                 const check::LocalSpan<real>& svec,
                 const check::LocalSpan<real>& tile,
                 const check::LocalSpan<real>& rstage,
                 std::size_t tile_rows, real* solve_scratch) const {
    const Csr& r = *a_.r;
    const int k = a_.k;
    const auto ku = static_cast<std::size_t>(k);
    auto cols = r.row_cols(u);
    auto vals = r.row_values(u);
    const auto row_begin =
        static_cast<std::size_t>(r.row_ptr()[static_cast<std::size_t>(u)]);
    const real lambda =
        a_.weighted_lambda
            ? a_.lambda * static_cast<real>(cols.size())
            : a_.lambda;
    ctx.section("S1");
    g.cols.mark_read(row_begin, cols.size());
    g.vals.mark_read(row_begin, vals.size());
    if (a_.gram) g.gram.mark_read(0, ku * ku);
    // Lane p mod ws gathers row p of each chunk. The local-memory variant
    // stages chunks of up to tile_rows gathered y rows (and their ratings)
    // in the scratch-pad, and lane 0 consumes each one between a barrier
    // pair. Staging is declared here, not performed: the tile would only
    // hold copies of src rows, which no group writes during a launch, and
    // accumulate_gram's order contract makes staged and gathered sums
    // bitwise equal, so the values come straight from src. The generated
    // OpenCL kernels move the data.
    //
    // Only a checked launch runs these per-rating declarations. Unchecked,
    // each would only repeat a bounds check that cannot fail: the Csr
    // constructor admits only column indices in [0, r.cols()), col_idx
    // cannot change afterwards, and launch_update checks r.cols() ==
    // src.rows(), so every gathered src row is in bounds; p < tile_rows
    // keeps every tile row in bounds.
    if (ctx.validate()) {
      const bool staged = tile_rows > 0;
      const std::size_t step = staged ? tile_rows : cols.size();
      const auto ws = static_cast<std::size_t>(ctx.group_size());
      for (std::size_t base = 0; base < cols.size(); base += step) {
        const std::size_t chunk = std::min(step, cols.size() - base);
        for (std::size_t p = 0; p < chunk; ++p) {
          ctx.set_lane(static_cast<int>(p % ws));
          g.src.mark_read(static_cast<std::size_t>(cols[base + p]) * ku, ku);
          if (staged) {
            tile.mark_write(p * ku, ku);
            rstage.mark_write(p, 1);
          }
        }
        if (!staged) continue;
        // The tile is consumed only after the group synchronizes (first
        // barrier of the pair record_s1 prices per chunk)...
        ctx.group_barrier();
        ctx.set_lane(0);
        tile.mark_read(0, chunk * ku);
        rstage.mark_read(0, chunk);
        // ...and refilled only after every lane finished reading it.
        ctx.group_barrier();
      }
    }
    assemble(a_, cols, vals, lambda, smat.data(), svec.data());
    ctx.section("S3");
    ctx.set_lane(0);
    auto dst = a_.dst->row(u);
    const real* warm = nullptr;
    if (a_.row_solver->uses_warm_start()) {
      // The dst row still holds the previous iteration's value — the
      // natural warm start (zero on the very first X update, matching a
      // cold start).
      g.dst.mark_read(static_cast<std::size_t>(u) * ku, ku);
      warm = dst.data();
    }
    a_.row_solver->solve(smat.data(), svec.data(), k, warm, solve_scratch);
    std::copy(svec.begin(), svec.begin() + k, dst.begin());
    g.dst.mark_write(static_cast<std::size_t>(u) * ku, ku);
  }

  UpdateArgs a_;
  std::size_t stride_;
};

/// The SAC'15 flat baseline: one work-item per row. Uneven row lengths
/// serialize inside each SIMT bundle; every access is a per-lane gather.
class FlatKernel {
 public:
  explicit FlatKernel(const UpdateArgs& args) : a_(args) {}

  void operator()(GroupCtx& ctx) const {
    const Csr& r = *a_.r;
    const int k = a_.k;
    const int ws = ctx.group_size();
    const int W = ctx.simd_width();
    const double pairs = 0.5 * k * (k + 1);
    const bool simt = ctx.profile().kind == DeviceKind::kGpu;
    const RowSolver& rs = *a_.row_solver;
    const double s3_flops = rs.modeled_flops(k);
    const bool warm_start = rs.uses_warm_start();
    const index_t base = static_cast<index_t>(ctx.group_id()) * ws;
    if (base >= r.rows()) return;
    const index_t end = std::min<index_t>(base + ws, r.rows());

    // Shared solve scratch emulates each flat work-item's *private* sum/rhs
    // arrays (one lane runs at a time in the emulation), so it stays
    // outside the shadow — per-lane attribution would fabricate races the
    // real kernel cannot have.
    auto smat = ctx.local_alloc<real>(static_cast<std::size_t>(k) * k, "smat");
    auto svec = ctx.local_alloc<real>(static_cast<std::size_t>(k), "svec");
    check::LocalSpan<real> solve_scratch;
    const std::size_t scratch_n = rs.scratch_reals(k);
    if (scratch_n > 0) {
      solve_scratch = ctx.local_alloc<real>(scratch_n, "solve_scratch");
    }
    const UpdateSpans g = make_spans(ctx, a_);

    // Accounting per SIMD bundle: divergence pads every lane to the bundle
    // maximum row length. SIMT hardware pads idle lanes to the full warp;
    // CPU/MIC flat code is scalar so only occupied lanes count (the
    // scalar-execution penalty is in ops_flat / flat_mapping_efficiency).
    for (index_t bstart = base; bstart < end; bstart += W) {
      const index_t bend = std::min<index_t>(bstart + W, end);
      double omega_max = 0, omega_sum = 0, active = 0;
      for (index_t u = bstart; u < bend; ++u) {
        const auto omega = static_cast<double>(r.row_nnz(u));
        omega_max = std::max(omega_max, omega);
        omega_sum += omega;
        if (omega > 0) active += 1;
      }
      if (omega_sum == 0) continue;
      const double lanes =
          simt ? static_cast<double>(W) : static_cast<double>(bend - bstart);

      ctx.section("S1");
      ctx.ops_flat(lanes * omega_max * pairs * kFlatOpsPerFma);
      if (ctx.profile().gather_scalar_ops > 0) {
        ctx.ops_flat(2.0 * pairs * omega_sum * ctx.profile().gather_scalar_ops);
      }
      // SIMT: every per-lane gather is a warp-wide long-latency instruction
      // (the flat mapping has no staging to hide it behind).
      if (ctx.profile().global_latency_slots > 0) {
        ctx.ops_scalar(lanes * omega_max * 2.0 * pairs *
                       ctx.profile().global_latency_slots);
      }
      ctx.flops(2.0 * pairs * omega_sum);
      // Per-lane elementwise gathers of y: cold fetch + operand re-reads.
      ctx.global_read_scattered(omega_sum, k * 4.0);
      ctx.reread(std::max(0.0, 2.0 * pairs * omega_sum - omega_sum * k), 4.0);
      // sum[k*k] private accumulator (never optimized in the baseline).
      ctx.register_demand(k * k + kBaseRegisters);
      ctx.private_array_traffic(8.0 * pairs * omega_sum);

      ctx.section("S2");
      ctx.ops_flat(lanes * omega_max * k * kFlatOpsPerFma);
      if (ctx.profile().global_latency_slots > 0) {
        ctx.ops_scalar(lanes * omega_max * (k + 2.0) *
                       ctx.profile().global_latency_slots);
      }
      ctx.flops(2.0 * k * omega_sum);
      // Ratings through the colMajored_sparse_id indirection: two
      // dependent scattered accesses per nonzero (Algorithm 2, line 10).
      ctx.global_read_scattered(2.0 * omega_sum, 4.0);
      ctx.reread(omega_sum * k, 4.0);
      ctx.private_array_traffic(8.0 * k * omega_sum);

      ctx.section("S3");
      ctx.ops_flat(lanes * s3_flops);
      ctx.flops(s3_flops * active);
      ctx.private_array_traffic(8.0 * k * k * active);
      if (warm_start) ctx.global_read_scattered(active, k * 4.0);
      ctx.global_write_scattered(active, k * 4.0);
    }

    if (!ctx.functional()) return;
    const auto ku = static_cast<std::size_t>(k);
    for (index_t u = base; u < end; ++u) {
      ctx.set_lane(static_cast<int>(u - base));
      auto dst = a_.dst->row(u);
      if (r.row_nnz(u) == 0) {
        std::fill(dst.begin(), dst.end(), real{0});
        continue;
      }
      ctx.section("S1");
      const auto row_begin =
          static_cast<std::size_t>(r.row_ptr()[static_cast<std::size_t>(u)]);
      auto cols = r.row_cols(u);
      g.cols.mark_read(row_begin, cols.size());
      g.vals.mark_read(row_begin, cols.size());
      // Per-rating gathers are declared under the checker only; unchecked
      // they stay in bounds by the argument in BatchedKernel::solve_row.
      if (ctx.validate()) {
        for (std::size_t p = 0; p < cols.size(); ++p) {
          g.src.mark_read(static_cast<std::size_t>(cols[p]) * ku, ku);
        }
      }
      const real lambda = a_.weighted_lambda
                              ? a_.lambda * static_cast<real>(r.row_nnz(u))
                              : a_.lambda;
      assemble(a_, cols, r.row_values(u), lambda, smat.data(), svec.data());
      ctx.section("S3");
      const real* warm = nullptr;
      if (warm_start) {
        g.dst.mark_read(static_cast<std::size_t>(u) * ku, ku);
        warm = dst.data();
      }
      rs.solve(smat.data(), svec.data(), k, warm,
               scratch_n > 0 ? solve_scratch.data() : nullptr);
      std::copy(svec.begin(), svec.begin() + k, dst.begin());
      g.dst.mark_write(static_cast<std::size_t>(u) * ku, ku);
    }
  }

 private:
  UpdateArgs a_;
};

}  // namespace

bool product_table_pays(int k, index_t src_rows) {
  return ProductTable::bytes(k, src_rows) <= kProductTableBudgetBytes;
}

const ProductTable* product_table_for(const Matrix& src, bool functional,
                                      ProductTable& table) {
  if (!functional || !product_table_pays(static_cast<int>(src.cols()),
                                         src.rows())) {
    return nullptr;
  }
  table.build(src);
  return &table;
}

devsim::LaunchResult launch_update(devsim::Device& device,
                                   const std::string& kernel_name,
                                   const UpdateArgs& args,
                                   std::size_t num_groups, int group_size,
                                   bool functional, bool validate) {
  ALSMF_CHECK(args.r && args.src && args.dst);
  ALSMF_CHECK(args.r->rows() == args.dst->rows());
  // With the Csr invariant (every column index below r->cols()), this keeps
  // every src row an unchecked launch gathers in bounds; the kernels declare
  // per-rating gathers only under the checker (see solve_row).
  ALSMF_CHECK(args.r->cols() == args.src->rows());
  ALSMF_CHECK(args.src->cols() == args.k && args.dst->cols() == args.k);
  ALSMF_CHECK(group_size > 0);

  // A null strategy means the exact Cholesky solve: one stateless instance
  // shared by every such launch.
  static const std::unique_ptr<RowSolver> exact =
      make_row_solver(AlsOptions{});
  UpdateArgs a = args;
  if (!a.row_solver) a.row_solver = exact.get();
  // Likewise a transient table when the caller brings none and one pays;
  // implicit rows never sum one (row_solve.hpp).
  ALSMF_CHECK(!a.gram || (a.variant.thread_batching && !a.products));
  ProductTable own;
  if (!a.products && !a.gram) {
    a.products = product_table_for(*a.src, functional, own);
  }
  ALSMF_CHECK(!a.products || (a.products->k() == a.k &&
                              a.products->rows() == a.src->rows()));

  devsim::LaunchConfig config;
  config.group_size = group_size;
  config.functional = functional;
  config.validate = validate;
  const auto rows = static_cast<std::size_t>(a.r->rows());
  if (a.variant.thread_batching) {
    config.num_groups = std::max<std::size_t>(1, std::min(num_groups, rows));
    return device.launch(kernel_name, config,
                         BatchedKernel(a, config.num_groups));
  }
  config.num_groups = (rows + static_cast<std::size_t>(group_size) - 1) /
                      static_cast<std::size_t>(group_size);
  return device.launch(kernel_name, config, FlatKernel(a));
}

}  // namespace alsmf
