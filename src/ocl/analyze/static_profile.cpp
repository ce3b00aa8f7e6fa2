#include "ocl/analyze/static_profile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "als/kernel_model.hpp"
#include "common/json.hpp"
#include "linalg/cholesky.hpp"

namespace alsmf::ocl::analyze {

namespace {

/// Scratch-pad allocations are bump-allocated in 64-byte steps (GroupCtx).
std::size_t align_up(std::size_t bytes) { return (bytes + 63) / 64 * 64; }

bool freq_hot(const Freq& f) { return f.per_nnz > 0 || f.chunk_body > 0; }

/// Traffic kinds that re-execute once per lane-coverage pass when the
/// work-group is narrower than k (the guarded per-lane accumulator work).
/// Segment streams and row-granular scatter stores do not: they are issued
/// once regardless of how many passes the lane loop needs.
bool passes_scaled(TrafficIR::Kind k) {
  switch (k) {
    case TrafficIR::Kind::kGatherTraversal:
    case TrafficIR::Kind::kLocalTraversal:
    case TrafficIR::Kind::kLocalRead:
    case TrafficIR::Kind::kLocalWrite:
    case TrafficIR::Kind::kPrivateUpdate:
      return true;
    default:
      return false;
  }
}

const char* to_string(MemSpace s) {
  switch (s) {
    case MemSpace::kGlobal: return "global";
    case MemSpace::kLocal: return "local";
    case MemSpace::kPrivate: return "private";
  }
  return "?";
}

}  // namespace

StaticKernelProfile build_static_profile(const KernelIR& ir,
                                         const DatasetStats& stats,
                                         const StaticLaunchParams& launch,
                                         const devsim::DeviceProfile& device) {
  StaticKernelProfile p;
  p.kernel = ir.name;
  p.group_size = launch.group_size;

  const int W = std::max(device.simd_width, 1);
  const int ws = std::max(launch.group_size, 1);
  const double bundles = std::ceil(static_cast<double>(ws) / W);
  const double lanes = bundles * W;
  const double k = ir.k > 0 ? static_cast<double>(ir.k) : 1.0;
  const double passes = ir.batched_mapping ? std::ceil(k / ws) : 1.0;
  p.passes = passes;

  const auto total_rows =
      static_cast<std::size_t>(std::max(stats.rows, 0.0));
  if (ir.batched_mapping) {
    p.groups = std::max<std::size_t>(
        1, std::min<std::size_t>(launch.num_groups, total_rows));
  } else {
    p.groups = std::max<std::size_t>(
        1, (total_rows + static_cast<std::size_t>(ws) - 1) /
               static_cast<std::size_t>(ws));
  }

  // --- Scratch-pad allocation model (mirrors the kernel's local_allocs) ---
  // Staging arrays are the __local buffers filled by the hot cooperative
  // (lane-partitioned) store loop; everything else — the k×k system and the
  // rhs — is allocated first, and the tile policy sizes against what's left.
  std::set<std::string> staging;
  for (const auto& t : ir.traffic) {
    if (t.kind == TrafficIR::Kind::kLocalWrite && t.lane_partitioned &&
        freq_hot(t.freq)) {
      staging.insert(t.buffer);
    }
  }
  std::size_t base_alloc = 0;
  for (const auto& d : ir.locals) {
    if (d.elems < 0 || staging.count(d.name)) continue;
    base_alloc += align_up(static_cast<std::size_t>(d.elems) *
                           static_cast<std::size_t>(d.elem_bytes));
  }
  const std::size_t capacity = devsim::local_capacity_bytes(device);
  std::size_t tile_rows = 0;
  if (ir.has_local_staging && ir.k > 0) {
    const std::size_t remaining =
        capacity > base_alloc ? capacity - base_alloc : 0;
    tile_rows = kernel_model::staging_tile_rows(static_cast<int>(ir.k),
                                                remaining, launch.tile_rows);
  }
  p.tile_rows = tile_rows;
  std::size_t peak = base_alloc;
  if (tile_rows > 0) {
    peak += align_up(tile_rows * static_cast<std::size_t>(ir.k) * sizeof(real));
    peak += align_up(tile_rows * sizeof(real));
  }
  p.local_alloc_bytes = peak;
  p.declared_local_bytes = ir.declared_local_bytes();
  p.max_bank_conflict = ir.max_bank_conflict();

  // --- Frequency evaluation environment ---
  const double rows = std::max(stats.nonempty_rows, 0.0);
  const double omega = stats.mean_nnz();
  double chunks = 1.0;
  double chunk_avg = omega;
  if (tile_rows > 0 && omega > 0) {
    // The dynamic path takes ⌈ω_u/T⌉ per row; over ragged rows that sum
    // exceeds ⌈mean/T⌉. E[⌈ω/T⌉] = mean/T + E[(T − ω mod T) mod T]/T,
    // ≈ mean/T + (T−1)/(2T) for spread-out row lengths, floored at one
    // chunk (rows shorter than the tile still stage once).
    const double t = static_cast<double>(tile_rows);
    chunks = std::max(1.0, omega / t + (t - 1.0) / (2.0 * t));
    chunk_avg = omega / chunks;
  }
  p.chunks = chunks;

  devsim::LaunchCounters& c = p.counters;
  c.groups = p.groups;
  c.launches = 1;
  c.group_size = ws;
  c.local_alloc_peak = peak;
  if (ir.k > 0) {
    c.register_demand_peak =
        static_cast<int>(ir.has_unrolled_accumulators ? ir.k : ir.k * ir.k) +
        kernel_model::kBaseRegisters;
  }
  // Honest per-lane estimate for the report (the demand figure above mirrors
  // the dynamic accounting's convention so counters stay comparable).
  long private_elems = 0;
  for (const auto& a : ir.private_arrays) private_elems += std::max(a.elems, 0L);
  p.register_estimate = kernel_model::kBaseRegisters +
                        (ir.has_unrolled_accumulators
                             ? static_cast<int>(ir.k) + 1
                             : 1) +
                        static_cast<int>(std::min<long>(private_elems, 4096));

  const double flat_scale =
      device.scalar_efficiency /
      std::max(device.flat_mapping_efficiency, 1e-6);

  // Element width per buffer (for gather-issue op counts).
  std::map<std::string, double> elem_bytes;
  for (const auto& r : ir.refs) {
    if (!elem_bytes.count(r.buffer)) {
      elem_bytes[r.buffer] = static_cast<double>(r.elem_bytes);
    }
  }

  // --- Traffic ---
  // Gathered streams settle per buffer: the lowest-order traversal fetches
  // the stream cold (one scattered access per element); every further
  // traversal is a reread — cache-resident on CPU/MIC, back through device
  // memory on GPU — exactly GroupCtx::reread's split.
  struct GatherStream {
    double total = 0;
    double cold = 0;
    double span = 0;
    int min_order = std::numeric_limits<int>::max();
  };
  std::map<std::string, GatherStream> gathers;

  for (const auto& t : ir.traffic) {
    const bool hot = freq_hot(t.freq);
    const double n = t.freq.eval(rows, omega, chunks, chunk_avg);
    if (n <= 0) continue;
    double scaled = n;
    if (ir.batched_mapping && hot && !t.lane_partitioned &&
        passes_scaled(t.kind)) {
      scaled *= passes;
    }
    switch (t.kind) {
      case TrafficIR::Kind::kStreamRead:
      case TrafficIR::Kind::kStreamWrite:
        c.global_bytes += scaled * t.span_bytes;
        break;
      case TrafficIR::Kind::kScatterWrite:
        c.scattered_accesses += scaled;
        c.scattered_useful_bytes += scaled * t.span_bytes;
        break;
      case TrafficIR::Kind::kLocalRead:
      case TrafficIR::Kind::kLocalWrite:
      case TrafficIR::Kind::kLocalTraversal:
        // Row-level scratch-pad bookkeeping (zero fills, the reduction into
        // the system matrix) is unpriced, as in the dynamic kernels; only
        // the per-nonzero staging traffic moves modeled bytes.
        if (hot) c.local_bytes += scaled * t.span_bytes;
        break;
      case TrafficIR::Kind::kPrivateUpdate:
        if (hot && device.private_arrays_offchip) {
          c.spill_bytes +=
              scaled * t.span_bytes * (ir.batched_mapping ? lanes : 1.0);
        }
        break;
      case TrafficIR::Kind::kGatherTraversal: {
        auto& s = gathers[t.buffer];
        s.total += scaled;
        s.span = std::max(s.span, t.span_bytes);
        if (t.order < s.min_order) {
          s.min_order = t.order;
          s.cold = n;  // the first traversal fetches once, without passes
        }
        // Unstaged hot traversals expose gather issue cost (CPU/MIC) or
        // memory latency (GPU) to the resident bundles.
        if (ir.batched_mapping && hot && !t.lane_partitioned) {
          double elems = t.span_bytes;
          auto it = elem_bytes.find(t.buffer);
          if (it != elem_bytes.end() && it->second > 0) {
            elems = t.span_bytes / it->second;
          }
          if (device.gather_scalar_ops > 0) {
            c.lane_ops_scalar +=
                scaled * elems * device.gather_scalar_ops * flat_scale;
          }
          if (device.global_latency_slots > 0) {
            c.lane_ops_scalar += scaled * lanes * device.global_latency_slots;
          }
        }
        break;
      }
    }
  }
  for (const auto& [name, s] : gathers) {
    (void)name;
    const double cold = std::min(s.cold, s.total);
    const double reread = s.total - cold;
    c.scattered_accesses += cold;
    c.scattered_useful_bytes += cold * s.span;
    if (reread > 0) {
      if (device.rereads_cached) {
        c.local_bytes += reread * s.span;
      } else {
        c.scattered_accesses += reread;
        c.scattered_useful_bytes += reread * s.span;
      }
    }
  }

  // --- Compute ---
  const bool cpu_like = device.kind != devsim::DeviceKind::kGpu;
  const bool penalized =
      ir.has_unrolled_accumulators && ir.has_local_staging && cpu_like;
  for (const auto& o : ir.ops) {
    const double trips =
        o.freq.eval(rows, omega, chunks, chunk_avg) * o.ops_per_trip;
    if (trips <= 0) continue;
    if (ir.batched_mapping) {
      const double n = trips * lanes * passes * kernel_model::kBatchedOpsPerFma;
      if (penalized && o.s1_class) {
        c.lane_ops_scalar += n * kernel_model::kRegLocalScalarPenalty;
      } else if (o.vectorized) {
        // Vector loads of half-width storage pack 2x elements per bundle;
        // the cost model prices lane_ops_vector_half at doubled width.
        (ir.storage_bytes == 2 ? c.lane_ops_vector_half
                               : c.lane_ops_vector) += n;
      } else {
        c.lane_ops_scalar += n;
      }
    } else {
      c.lane_ops_scalar += trips * kernel_model::kFlatOpsPerFma * flat_scale;
    }
  }

  // Barriers: only the chunked staging synchronization is priced; the
  // row-level fences pace lane loops the op counts already cover.
  for (const auto& b : ir.barriers) {
    if (b.freq.per_chunk <= 0) continue;
    c.lane_ops_scalar += b.freq.eval(rows, omega, chunks, chunk_avg) * lanes *
                         kernel_model::kBarrierSlots;
  }

  // The small per-row Cholesky solve: serialized on lane 0 of a batched
  // group (the other lanes idle), or inlined per work-item in the flat
  // mapping.
  const double s3 =
      ir.k > 0 ? cholesky_solve_flops(static_cast<int>(ir.k)) : 0.0;
  if (ir.has_lane0_solve) {
    c.lane_ops_scalar += rows * lanes * s3;
  } else if (!ir.batched_mapping) {
    c.lane_ops_scalar += rows * s3 * flat_scale;
  }
  const double pairs = 0.5 * k * (k + 1.0);
  c.useful_flops = rows * (2.0 * pairs * omega + 2.0 * k * omega + s3);

  for (const auto& r : ir.refs) {
    if (!r.hot || r.zero_weight) continue;
    if (r.space != MemSpace::kGlobal) continue;
    if (r.is_store && (r.coalescing == Coalescing::kStrided ||
                       r.coalescing == Coalescing::kGathered)) {
      ++p.uncoalesced_hot_stores;
    }
    if (!r.is_store && r.coalescing == Coalescing::kGathered) {
      ++p.gathered_hot_loads;
    }
  }
  return p;
}

std::string profile_json(const StaticKernelProfile& profile,
                         const KernelIR& ir) {
  json::JsonWriter w;
  w.begin_object();
  w.field("kernel", profile.kernel);
  w.field("batched_mapping", ir.batched_mapping);
  w.field("storage_bytes", ir.storage_bytes);
  w.field("storage_base", ir.storage_base.empty() ? "real_t"
                                                  : ir.storage_base);
  w.field("k", ir.k);
  w.field("ws_define", ir.ws);
  w.field("tile_rows_define", ir.tile_rows_define);

  w.key("shape").begin_object();
  w.field("groups", profile.groups);
  w.field("group_size", profile.group_size);
  w.field("passes", profile.passes);
  w.field("tile_rows", profile.tile_rows);
  w.field("chunks", profile.chunks);
  w.end_object();

  w.key("resources").begin_object();
  w.field("local_alloc_bytes", profile.local_alloc_bytes);
  w.field("declared_local_bytes", profile.declared_local_bytes);
  w.field("register_estimate", profile.register_estimate);
  w.field("max_bank_conflict", profile.max_bank_conflict);
  w.field("has_lane0_solve", ir.has_lane0_solve);
  w.field("has_unrolled_accumulators", ir.has_unrolled_accumulators);
  w.field("has_local_staging", ir.has_local_staging);
  w.field("has_vector_ops", ir.has_vector_ops);
  w.field("uncoalesced_hot_stores", profile.uncoalesced_hot_stores);
  w.field("gathered_hot_loads", profile.gathered_hot_loads);
  w.end_object();

  const auto& c = profile.counters;
  w.key("counters").begin_object();
  w.field("useful_flops", c.useful_flops);
  w.field("lane_ops_scalar", c.lane_ops_scalar);
  w.field("lane_ops_vector", c.lane_ops_vector);
  w.field("lane_ops_vector_half", c.lane_ops_vector_half);
  w.field("global_bytes", c.global_bytes);
  w.field("scattered_accesses", c.scattered_accesses);
  w.field("scattered_useful_bytes", c.scattered_useful_bytes);
  w.field("local_bytes", c.local_bytes);
  w.field("spill_bytes", c.spill_bytes);
  w.field("register_demand_peak", c.register_demand_peak);
  w.field("local_alloc_peak", c.local_alloc_peak);
  w.end_object();

  w.key("loops").begin_array();
  for (const auto& l : ir.loops) {
    w.begin_object();
    w.field("kind", to_string(l.kind));
    w.field("trips", l.trips);
    w.field("bound", l.bound);
    w.field("depth", l.depth);
    w.field("line", l.line);
    w.end_object();
  }
  w.end_array();

  w.key("accesses").begin_array();
  for (const auto& r : ir.refs) {
    w.begin_object();
    w.field("buffer", r.buffer);
    w.field("space", to_string(r.space));
    w.field("store", r.is_store);
    w.field("coalescing", to_string(r.coalescing));
    w.field("elem_bytes", r.elem_bytes);
    w.field("lane_coeff", r.lane_coeff);
    w.field("bank_conflict", r.bank_conflict);
    w.field("hot", r.hot);
    w.field("lane_partitioned", r.lane_partitioned);
    w.field("divergent_guard", r.divergent_guard);
    w.field("zero_weight", r.zero_weight);
    w.field("line", r.line);
    w.field("index", r.index);
    w.end_object();
  }
  w.end_array();

  w.key("args").begin_array();
  for (const auto& a : ir.args) {
    w.begin_object();
    w.field("name", a.name);
    w.field("type", a.type);
    w.field("global", a.is_global);
    w.field("used", a.used);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.str();
}

}  // namespace alsmf::ocl::analyze
