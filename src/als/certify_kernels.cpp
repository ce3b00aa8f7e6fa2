#include "als/certify_kernels.hpp"

#include <exception>
#include <iterator>
#include <sstream>
#include <utility>

#include "als/implicit.hpp"
#include "als/kernels.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "devsim/device.hpp"
#include "devsim/profile.hpp"
#include "ocl/analyze/deep_lint.hpp"
#include "ocl/analyze/ir.hpp"
#include "ocl/analyze/parser.hpp"
#include "ocl/kernel_flavors.hpp"
#include "sparse/convert.hpp"

namespace alsmf {

namespace {

namespace az = ocl::analyze;
namespace vf = ocl::analyze::verify;
namespace pz = ocl::analyze::precision;

// The fixed certification setting. The dataset is small because checked
// execution is byte-granular; 48 groups make every group stride over
// several rows.
constexpr long kUsers = 300;
constexpr long kItems = 200;
constexpr long kNnz = 6000;
constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kNumGroups = 48;
constexpr int kForcedTileRows = 4;
const char* const kProfiles[] = {"cpu", "gpu", "mic"};

const char* space_name(az::MemSpace s) {
  switch (s) {
    case az::MemSpace::kGlobal: return "global";
    case az::MemSpace::kLocal: return "local";
    case az::MemSpace::kPrivate: return "private";
  }
  return "?";
}

az::DatasetStats stats_of(const Csr& m) {
  az::DatasetStats s;
  s.rows = static_cast<double>(m.rows());
  s.nnz = static_cast<double>(m.nnz());
  const auto& rp = m.row_ptr();
  for (index_t u = 0; u < m.rows(); ++u) {
    if (rp[static_cast<std::size_t>(u) + 1] > rp[static_cast<std::size_t>(u)])
      s.nonempty_rows += 1;
  }
  return s;
}

// Runs every devsim kernel under checked execution on every profile.
void certify_checked(const Csr& r, const CertifyKernelsOptions& options,
                     KernelCertificate& out) {
  Rng rng(kSeed);
  Matrix src(r.cols(), options.k);
  src.fill_uniform(rng, -0.5f, 0.5f);

  for (const char* profile : kProfiles) {
    devsim::Device device(devsim::profile_by_name(profile));
    // Drains the device's accumulated check report into one entry.
    auto take_entry = [&](const std::string& kernel) {
      CheckedKernelEntry entry{kernel, profile, device.check_report()};
      device.reset_check_report();
      out.checked_findings += entry.report.total_findings;
      out.checked_launches += entry.report.launches;
      out.checked.push_back(std::move(entry));
    };
    // Each run updates a fresh dst so cross-variant state never aliases.
    auto run_variant = [&](const AlsVariant& v, int tile_rows,
                           const std::string& label,
                           const RowSolver* row_solver = nullptr) {
      Matrix dst(r.rows(), options.k);
      UpdateArgs args;
      args.r = &r;
      args.src = &src;
      args.dst = &dst;
      args.k = options.k;
      args.variant = v;
      args.tile_rows = tile_rows;
      args.row_solver = row_solver;
      launch_update(device, label, args, kNumGroups, options.group_size,
                    /*functional=*/true, /*validate=*/true);
      take_entry(label);
    };

    // Flat baseline + the paper's 8 batched variants; the local-memory ones
    // again with a tiny tile so multi-chunk staging and the per-chunk
    // barrier pair get exercised.
    run_variant(AlsVariant::flat_baseline(), 0, "flat");
    for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
      const AlsVariant v = AlsVariant::from_mask(mask);
      run_variant(v, 0, v.name());
      if (v.use_local) {
        run_variant(v, kForcedTileRows,
                    v.name() + "/tile" + std::to_string(kForcedTileRows));
      }
    }

    // Iterative S3 strategies: the CG kernels across all 8 variants
    // (warm-start read + per-group solve scratch), plus one subspace run.
    // The exact runs above already cover cholesky.
    {
      AlsOptions strat;
      strat.k = options.k;
      strat.row_solver = RowSolverKind::kCg;
      const auto cg = make_row_solver(strat);
      for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
        const AlsVariant v = AlsVariant::from_mask(mask);
        run_variant(v, 0, v.name() + "/cg", cg.get());
      }
      strat.row_solver = RowSolverKind::kSubspace;
      const auto subspace = make_row_solver(strat);
      run_variant(AlsVariant::batch_local_reg(), 0, "batch_local_reg/subspace",
                  subspace.get());
      run_variant(AlsVariant::flat_baseline(), 0, "flat/cg", cg.get());
    }

    // Implicit-feedback device path (one iteration = two half-updates).
    {
      ImplicitOptions iopt;
      iopt.k = options.k;
      iopt.seed = kSeed;
      iopt.alpha = 1.0f;
      DeviceImplicitAls als(r, iopt, device);
      als.num_groups = kNumGroups;
      als.group_size = options.group_size;
      als.validate = true;
      als.run_iteration();
      take_entry("implicit");
    }
  }
}

// The profile-independent legs of one flavor: the verifier under the ALS
// contracts, the precision certificate and, on fp16/bf16 flavors, the
// shadow witness. Verifier diagnostics are appended to `diagnostics`.
FlavorCertificate certify_flavor(const ocl::KernelFlavor& flavor,
                                 const az::TranslationUnit& tu,
                                 const az::KernelIR& ir,
                                 const CertifyKernelsOptions& options,
                                 std::vector<std::string>& diagnostics) {
  const pz::PrecisionAssumptions assumptions;
  FlavorCertificate fc;
  fc.kernel = flavor.name;
  fc.storage = flavor.storage;
  fc.verify = vf::verify_kernel(ir, als_kernel_contract(ir));
  for (auto& d : verify_diagnostics(flavor.name, fc.verify)) {
    diagnostics.push_back(std::move(d));
  }
  fc.precision = pz::analyze_kernel_precision(tu, ir, assumptions);
  if (flavor.storage != StoragePrecision::kFp32) {
    pz::ShadowWitnessConfig wc;
    wc.k = options.k;
    wc.group_size = options.group_size;
    wc.assumptions = assumptions;
    fc.witness =
        pz::run_shadow_witness(flavor.source, flavor.name, flavor.storage, wc);
    fc.dominated = fc.witness.ran &&
                   fc.witness.observed_err <= fc.precision.output.err;
  }
  return fc;
}

// One generated flavor, parsed and lowered once per tile.
struct ParsedFlavor {
  const ocl::KernelFlavor* flavor = nullptr;
  az::TranslationUnit tu;
  std::vector<az::KernelIR> kernels;  ///< exactly one, named flavor->name
};

// Every static leg over the flavors generated at `tile_rows` (0 = the
// generator default, staged with the auto tile policy at launch).
TileCertificate certify_tile(const az::DatasetStats& stats,
                             const CertifyKernelsOptions& options,
                             int tile_rows) {
  ocl::KernelConfig kc;
  kc.k = options.k;
  kc.group_size = options.group_size;
  if (tile_rows > 0) kc.tile_rows = tile_rows;
  const std::vector<ocl::KernelFlavor> flavors =
      ocl::enumerate_kernel_flavors(kc);

  TileCertificate out;
  out.tile_rows = kc.tile_rows;
  std::vector<ParsedFlavor> parsed;
  for (const ocl::KernelFlavor& flavor : flavors) {
    try {
      ParsedFlavor p{&flavor, az::parse_translation_unit(flavor.source), {}};
      p.kernels = az::lower_kernels(p.tu);
      if (p.kernels.size() != 1 || p.kernels.front().name != flavor.name) {
        out.errors.push_back(flavor.name + ": expected one __kernel named " +
                             flavor.name + ", found " +
                             std::to_string(p.kernels.size()));
        continue;
      }
      out.flavors.push_back(certify_flavor(flavor, p.tu, p.kernels.front(),
                                           options, out.diagnostics));
      parsed.push_back(std::move(p));
    } catch (const az::ParseError& e) {
      out.errors.push_back(flavor.name + ": line " + std::to_string(e.line) +
                           ": " + e.message);
    } catch (const std::exception& e) {
      out.errors.push_back(flavor.name + ": " + e.what());
    }
  }

  // Lint and static profile of every parsed flavor on each device profile.
  az::StaticLaunchParams launch;
  launch.num_groups = kNumGroups;
  launch.group_size = options.group_size;
  launch.tile_rows = tile_rows;
  for (const char* profile_name : kProfiles) {
    const devsim::DeviceProfile profile = devsim::profile_by_name(profile_name);
    az::DeepLintOptions lint_options;
    lint_options.local_capacity_bytes = devsim::local_capacity_bytes(profile);
    for (const ParsedFlavor& p : parsed) {
      const std::string& name = p.flavor->name;
      const az::LintReport lint = az::deep_lint_ir(
          p.flavor->source, p.tu, p.kernels, lint_options);
      for (const auto& issue : lint.issues) {
        // Clickable <file>:<line>:<col> anchor (col 0 = unknown, still
        // parseable by editors), profile-qualified.
        out.lint_issues.push_back(std::string(profile_name) + "/" + name +
                                  ".cl:" + std::to_string(issue.line) + ":" +
                                  std::to_string(issue.col) + ": " +
                                  issue.message);
      }
      if (!lint.clean()) continue;
      const az::KernelIR& ir = p.kernels.front();
      StaticProfileEntry entry;
      entry.kernel = name;
      entry.profile = profile_name;
      entry.data = az::build_static_profile(ir, stats, launch, profile);
      entry.json = az::profile_json(entry.data, ir);
      out.static_profiles.push_back(std::move(entry));
    }
  }
  return out;
}

void write_strings(json::JsonWriter& w, const char* key,
                   const std::vector<std::string>& items) {
  w.key(key).begin_array();
  for (const auto& s : items) w.value(s);
  w.end_array();
}

}  // namespace

KernelCertificate certify_kernels(const CertifyKernelsOptions& options) {
  AlsOptions shape;
  shape.k = options.k;
  shape.group_size = options.group_size;
  shape.num_groups = kNumGroups;
  validate(shape);  // before any source is generated

  SyntheticSpec spec;
  spec.users = static_cast<index_t>(kUsers);
  spec.items = static_cast<index_t>(kItems);
  spec.nnz = static_cast<nnz_t>(kNnz);
  spec.seed = kSeed;
  const Csr r = generate_synthetic_csr(spec);

  KernelCertificate out;
  out.k = options.k;
  out.group_size = options.group_size;
  const az::DatasetStats stats = stats_of(r);
  const int tiles[] = {0, kForcedTileRows};
  out.tiles.resize(std::size(tiles));
  // The checked-execution leg and the tiles share nothing but the inputs,
  // so they run at once; each writes only its own part of `out`.
  ThreadPool::global().parallel_for(
      0, 1 + std::size(tiles), [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t i = b; i < e; ++i) {
          if (i == 0) {
            certify_checked(r, options, out);
          } else {
            out.tiles[i - 1] = certify_tile(stats, options, tiles[i - 1]);
          }
        }
      });
  return out;
}

std::string KernelCertificate::to_json() const {
  json::JsonWriter w;
  w.begin_object();
  w.field("clean", clean());
  w.field("k", k);
  w.field("group_size", group_size);

  w.key("checked_execution").begin_object();
  w.field("clean", checked_clean());
  w.field("total_findings", checked_findings);
  w.field("launches", checked_launches);
  w.key("entries").begin_array();
  for (const auto& e : checked) {
    w.begin_object();
    w.field("kernel", e.kernel);
    w.field("profile", e.profile);
    w.field_raw("report", e.report.to_json());
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("tiles").begin_array();
  for (const auto& t : tiles) {
    w.begin_object();
    w.field("tile_rows", t.tile_rows);
    w.field("clean", t.clean());
    write_strings(w, "errors", t.errors);
    write_strings(w, "lint_issues", t.lint_issues);
    write_strings(w, "diagnostics", t.diagnostics);
    w.key("static_profiles").begin_array();
    for (const auto& e : t.static_profiles) {
      w.begin_object();
      w.field("kernel", e.kernel);
      w.field("profile", e.profile);
      w.field_raw("static_profile", e.json);
      w.end_object();
    }
    w.end_array();
    w.key("flavors").begin_array();
    for (const auto& f : t.flavors) {
      w.begin_object();
      w.field("kernel", f.kernel);
      w.field("clean", f.clean());
      w.field_raw("verify", verify_json(f.kernel, f.verify));
      w.field_raw("certificate", pz::to_json(f.precision));
      w.key("witness").begin_object();
      w.field("ran", f.witness.ran);
      w.field("observed_err", f.witness.observed_err);
      w.field("overflow_observed", f.witness.overflow_observed);
      w.field("dominated", f.dominated);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

vf::KernelContract als_kernel_contract(const az::KernelIR& ir) {
  using vf::BufferContract;
  using vf::SymExpr;
  const long k = ir.k > 0 ? ir.k : 1;

  vf::KernelContract ct;
  ct.lower = {{"ROWS", 1}, {"COLS", 1}, {"NNZ", 0}};

  BufferContract y;
  y.has_extent = true;
  y.extent = SymExpr::sym("COLS", k);
  ct.buffers["Y"] = y;

  BufferContract x;
  x.has_extent = true;
  x.extent = SymExpr::sym("ROWS", k);
  ct.buffers["X"] = x;

  // CSR storage.
  BufferContract values;
  values.has_extent = true;
  values.extent = SymExpr::sym("NNZ");
  ct.buffers["values"] = values;

  BufferContract col;
  col.has_extent = true;
  col.extent = SymExpr::sym("NNZ");
  col.has_values = true;
  col.value_min = SymExpr::constant(0);
  col.value_max = SymExpr::sym("COLS", 1, -1);
  ct.buffers["col_idx"] = col;

  BufferContract rp;
  rp.has_extent = true;
  rp.extent = SymExpr::sym("ROWS", 1, 1);
  rp.offsets = true;
  rp.offsets_total = SymExpr::sym("NNZ");
  rp.has_values = true;
  rp.value_min = SymExpr::constant(0);
  rp.value_max = SymExpr::sym("NNZ");
  ct.buffers["row_ptr"] = rp;

  ct.scalar_args["rows"] = SymExpr::sym("ROWS");

  // Two consistent shape points: a square one and a ROWS > COLS one (the
  // latter witnesses output-aliasing overflows that a square grid hides).
  ct.witness_grid = {
      {{"ROWS", 8}, {"COLS", 8}, {"NNZ", 32}},
      {{"ROWS", 12}, {"COLS", 8}, {"NNZ", 32}},
  };
  return ct;
}

VerifySourceResult verify_kernel_source(const std::string& source) {
  VerifySourceResult out;
  try {
    const auto kernels = az::lower_kernels(az::parse_translation_unit(source));
    if (kernels.empty()) {
      out.errors.push_back("no __kernel function found in source");
      return out;
    }
    for (const auto& ir : kernels) {
      out.reports.push_back(vf::verify_kernel(ir, als_kernel_contract(ir)));
    }
  } catch (const az::ParseError& e) {
    out.errors.push_back("line " + std::to_string(e.line) + ": " + e.message);
  } catch (const std::exception& e) {
    out.errors.push_back(e.what());
  }
  return out;
}

std::vector<std::string> verify_diagnostics(
    const std::string& kernel,
    const vf::KernelVerifyReport& report) {
  std::vector<std::string> out;
  for (const auto& f : report.bounds_findings) {
    std::ostringstream os;
    os << kernel << ".cl:" << f.line << ":" << f.col << ": "
       << to_string(f.verdict) << " " << space_name(f.space)
       << (f.is_store ? " store " : " load ") << f.buffer << "[" << f.index
       << "]: " << f.detail;
    out.push_back(os.str());
  }
  for (const auto& f : report.race_findings) {
    std::ostringstream os;
    os << kernel << ".cl:" << f.line_a << ":" << f.col_a << ": "
       << to_string(f.verdict) << " race on " << space_name(f.space) << " "
       << f.buffer << " (with " << kernel << ".cl:" << f.line_b << ":"
       << f.col_b << "): " << f.detail;
    out.push_back(os.str());
  }
  return out;
}

std::string verify_json(const std::string& kernel,
                        const vf::KernelVerifyReport& r) {
  json::JsonWriter w;
  w.begin_object();
  w.field("kernel", kernel);
  w.field("clean", r.clean());
  w.key("bounds").begin_object();
  w.field("refs", r.refs_total);
  w.field("proven_safe", r.refs_proven_safe);
  w.field("proven_violating", r.refs_proven_violating);
  w.field("unprovable", r.refs_unprovable);
  w.key("findings").begin_array();
  for (const auto& f : r.bounds_findings) {
    w.begin_object();
    w.field("buffer", f.buffer);
    w.field("space", space_name(f.space));
    w.field("store", f.is_store);
    w.field("verdict", to_string(f.verdict));
    w.field("line", f.line);
    w.field("col", f.col);
    w.field("index", f.index);
    w.field("detail", f.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("races").begin_object();
  w.field("pairs", r.pairs_checked);
  w.field("proven", r.races_proven);
  w.field("unprovable", r.races_unprovable);
  w.key("findings").begin_array();
  for (const auto& f : r.race_findings) {
    w.begin_object();
    w.field("buffer", f.buffer);
    w.field("space", space_name(f.space));
    w.field("verdict", to_string(f.verdict));
    w.field("cross_group", f.cross_group);
    w.field("a", std::to_string(f.line_a) + ":" + std::to_string(f.col_a));
    w.field("b", std::to_string(f.line_b) + ":" + std::to_string(f.col_b));
    w.field("detail", f.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("widths").begin_array();
  for (const auto& wr : r.widths) {
    w.begin_object();
    w.field("buffer", wr.buffer);
    w.field("space", space_name(wr.space));
    w.field("mixed", wr.mixed);
    w.key("widths").begin_array();
    for (const int b : wr.widths) w.value(b);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace alsmf
