#include "ocl/kernel_source.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "ocl/kernel_flavors.hpp"

namespace alsmf::ocl {

namespace {

/// The paper vectorizes with the widest type covering k.
int vector_width_for(int k) {
  for (int w : {16, 8, 4, 2}) {
    if (k % w == 0) return w;
  }
  return 1;
}

void emit_header_comment(std::ostringstream& os, const std::string& name,
                         const AlsVariant& v, const KernelConfig& c) {
  os << "// " << name << " — auto-generated ALS update kernel\n";
  os << "// variant: " << v.name() << "  (k=" << c.k
     << ", work-group=" << c.group_size << ")\n";
  os << "// mapping: one work-group per row of X; rows strided by group count\n";
  if (c.storage != StoragePrecision::kFp32) {
    os << "// storage: " << to_string(c.storage)
       << " factors/ratings, real_t accumulation (certified by\n";
    os << "// alsmf_cli certify-kernels before any device runs it)\n";
  }
  os << "//\n";
}

}  // namespace

std::string kernel_preamble(const KernelConfig& c) {
  std::ostringstream os;
  os << "// ---- alsmf kernel preamble ----\n";
  if (c.use_double) {
    os << "#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n";
    os << "typedef double real_t;\n";
  } else {
    os << "typedef float real_t;\n";
  }
  if (c.storage != StoragePrecision::kFp32) {
    // Mixed precision: the factor/rating buffers are *stored* narrow;
    // every load widens to real_t and all accumulation stays at real_t
    // width. vloadN on a storage_t pointer reads N storage elements and
    // widens them (vload_halfN semantics on fp16 hardware).
    if (c.storage == StoragePrecision::kFp16) {
      os << "#pragma OPENCL EXTENSION cl_khr_fp16 : enable\n";
      os << "typedef half storage_t;\n";
    } else {
      os << "typedef bfloat16 storage_t;\n";
    }
  }
  os << "#define K " << c.k << "\n";
  os << "#define WS " << c.group_size << "\n";
  os << "#define TILE_ROWS " << c.tile_rows << "\n";
  os << "\n";
  // Single-lane Cholesky solve of the K x K system (step S3).
  os << "// S3: Cholesky factorization + forward/backward substitution,\n";
  os << "// executed by lane 0 (the system is tiny; k x k).\n";
  os << "inline void cholesky_solve_inplace(__local real_t* a,\n";
  os << "                                   __local real_t* b) {\n";
  os << "  for (int j = 0; j < K; ++j) {\n";
  os << "    real_t d = a[j * K + j];\n";
  os << "    for (int p = 0; p < j; ++p) d -= a[j * K + p] * a[j * K + p];\n";
  os << "    const real_t ljj = sqrt(d);\n";
  os << "    a[j * K + j] = ljj;\n";
  os << "    const real_t inv = (real_t)1 / ljj;\n";
  os << "    for (int i = j + 1; i < K; ++i) {\n";
  os << "      real_t s = a[i * K + j];\n";
  os << "      for (int p = 0; p < j; ++p) s -= a[i * K + p] * a[j * K + p];\n";
  os << "      a[i * K + j] = s * inv;\n";
  os << "    }\n";
  os << "  }\n";
  os << "  for (int i = 0; i < K; ++i) {\n";
  os << "    real_t s = b[i];\n";
  os << "    for (int p = 0; p < i; ++p) s -= a[i * K + p] * b[p];\n";
  os << "    b[i] = s / a[i * K + i];\n";
  os << "  }\n";
  os << "  for (int i = K - 1; i >= 0; --i) {\n";
  os << "    real_t s = b[i];\n";
  os << "    for (int p = i + 1; p < K; ++p) s -= a[p * K + i] * b[p];\n";
  os << "    b[i] = s / a[i * K + i];\n";
  os << "  }\n";
  os << "}\n\n";
  return os.str();
}

std::string kernel_name(const AlsVariant& v, StoragePrecision storage) {
  std::string name = kernel_name(v);
  if (storage == StoragePrecision::kFp16) name += "_f16";
  if (storage == StoragePrecision::kBf16) name += "_bf16";
  return name;
}

std::string kernel_name(const AlsVariant& v) {
  if (!v.thread_batching) return "als_update_flat";
  std::string name = "als_update_batch";
  if (v.use_local) name += "_local";
  if (v.use_registers) name += "_reg";
  if (v.use_vectors) name += "_vec";
  return name;
}

std::string build_options(const KernelConfig& c) {
  std::ostringstream os;
  os << "-cl-fast-relaxed-math -DK=" << c.k << " -DWS=" << c.group_size
     << " -DTILE_ROWS=" << c.tile_rows;
  return os.str();
}

std::string batched_kernel_source(const AlsVariant& v,
                                  const KernelConfig& c) {
  ALSMF_CHECK_MSG(v.thread_batching, "use flat_kernel_source for the baseline");
  const bool mixed = c.storage != StoragePrecision::kFp32;
  ALSMF_CHECK_MSG(!mixed || !c.use_double,
                  "mixed precision pairs narrow storage with float "
                  "accumulation, not double");
  std::ostringstream os;
  const std::string name = kernel_name(v, c.storage);
  emit_header_comment(os, name, v, c);
  os << kernel_preamble(c);

  const int vw = vector_width_for(c.k);
  os << "__kernel void " << name << "(\n";
  if (mixed) {
    os << "    __global const storage_t* restrict values,\n";
    os << "    __global const int*       restrict col_idx,\n";
    os << "    __global const int*       restrict row_ptr,\n";
    os << "    __global const storage_t* restrict Y,\n";
    os << "    __global storage_t*       restrict X,\n";
  } else {
    os << "    __global const real_t* restrict values,\n";
    os << "    __global const int*    restrict col_idx,\n";
    os << "    __global const int*    restrict row_ptr,\n";
    os << "    __global const real_t* restrict Y,\n";
    os << "    __global real_t*       restrict X,\n";
  }
  os << "    const int rows,\n";
  os << "    const real_t lambda) {\n";
  os << "  const int lx = get_local_id(0);\n";
  os << "  const int group = get_group_id(0);\n";
  os << "  const int stride = get_num_groups(0);\n";
  os << "\n";
  os << "  __local real_t smat[K * K];\n";
  os << "  __local real_t svec[K];\n";
  if (v.use_local) {
    os << "  // §III-C2: stage the gathered columns of Y and the row's\n";
    os << "  // ratings in on-chip local memory (Fig. 5).\n";
    os << "  __local real_t tile[TILE_ROWS * K];\n";
    os << "  __local real_t rstage[TILE_ROWS];\n";
  }
  os << "\n";
  os << "  for (int u = group; u < rows; u += stride) {\n";
  os << "    const int begin = row_ptr[u];\n";
  os << "    const int omega = row_ptr[u + 1] - begin;\n";
  os << "    if (omega == 0) {\n";
  os << "      for (int f = lx; f < K; f += WS) X[u * K + f] = ("
     << (mixed ? "storage_t" : "real_t") << ")0;\n";
  os << "      continue;\n";
  os << "    }\n";
  os << "\n";
  os << "    // zero the shared system\n";
  os << "    for (int i = lx; i < K * K; i += WS) smat[i] = (real_t)0;\n";
  os << "    for (int i = lx; i < K; i += WS) svec[i] = (real_t)0;\n";
  os << "    barrier(CLK_LOCAL_MEM_FENCE);\n";
  os << "\n";

  // --- accumulator declarations ---
  if (v.use_registers) {
    os << "    // §III-C1 (Fig. 3b): unrolled per-lane register\n";
    os << "    // accumulators — one k-buffer instead of k*k.\n    ";
    for (int i = 0; i < c.k; ++i) {
      os << "real_t sum" << i << " = (real_t)0;";
      os << ((i + 1) % 4 == 0 ? "\n    " : " ");
    }
    os << "\n    real_t rsum = (real_t)0;\n";
  } else {
    os << "    // Fig. 3a: per-lane private accumulator (the compiler\n";
    os << "    // spills this dynamically-indexed array on GPUs).\n";
    os << "    real_t sum[K];\n";
    os << "    for (int j = 0; j < K; ++j) sum[j] = (real_t)0;\n";
    os << "    real_t rsum = (real_t)0;\n";
  }
  os << "\n";

  // --- main z loop: over nonzeros, staged or direct ---
  auto emit_accumulate = [&](const std::string& yrow_expr,
                             const std::string& rating_expr,
                             const std::string& indent) {
    if (v.use_vectors && vw > 1) {
      os << indent << "// §III-C3: explicit vector accumulation\n";
      os << indent << "const real_t yi = (lx < K) ? " << yrow_expr
         << "[lx] : (real_t)0;\n";
      for (int j = 0; j < c.k; j += vw) {
        os << indent << "{ float" << vw << " yv = vload" << vw << "("
           << (j / vw) << ", " << yrow_expr << ");";
        if (v.use_registers) {
          os << " /* sums " << j << ".." << (j + vw - 1) << " */";
          for (int e = 0; e < vw; ++e) {
            os << " sum" << (j + e) << " += yi * yv.s"
               << std::hex << e << std::dec << ";";
          }
        } else {
          for (int e = 0; e < vw; ++e) {
            os << " sum[" << (j + e) << "] += yi * yv.s"
               << std::hex << e << std::dec << ";";
          }
        }
        os << " }\n";
      }
      os << indent << "rsum += " << rating_expr << " * yi;\n";
    } else {
      os << indent << "const real_t yi = (lx < K) ? " << yrow_expr
         << "[lx] : (real_t)0;\n";
      if (v.use_registers) {
        for (int j = 0; j < c.k; ++j) {
          os << indent << "sum" << j << " += yi * " << yrow_expr << "[" << j
             << "];\n";
        }
      } else {
        os << indent << "for (int j = 0; j < K; ++j) sum[j] += yi * "
           << yrow_expr << "[j];\n";
      }
      os << indent << "rsum += " << rating_expr << " * yi;\n";
    }
  };

  if (v.use_local) {
    os << "    for (int base = 0; base < omega; base += TILE_ROWS) {\n";
    os << "      const int chunk = min(TILE_ROWS, omega - base);\n";
    os << "      // cooperative staging: lanes copy whole y rows\n";
    os << "      for (int p = lx; p < chunk; p += WS) {\n";
    os << "        const int d = col_idx[begin + base + p] * K;\n";
    os << "        for (int f = 0; f < K; ++f) tile[p * K + f] = Y[d + f];\n";
    os << "        rstage[p] = values[begin + base + p];\n";
    os << "      }\n";
    os << "      barrier(CLK_LOCAL_MEM_FENCE);\n";
    os << "      for (int z = 0; z < chunk; ++z) {\n";
    emit_accumulate("(tile + z * K)", "rstage[z]", "        ");
    os << "      }\n";
    os << "      barrier(CLK_LOCAL_MEM_FENCE);\n";
    os << "    }\n";
  } else {
    os << "    for (int z = 0; z < omega; ++z) {\n";
    os << "      const int d = col_idx[begin + z] * K;\n";
    emit_accumulate("(Y + d)", "values[begin + z]", "      ");
    os << "    }\n";
  }
  os << "\n";

  // --- reduce lane accumulators into the shared system ---
  os << "    // lane lx owns row lx of smat and entry lx of svec\n";
  os << "    if (lx < K) {\n";
  if (v.use_registers) {
    for (int j = 0; j < c.k; ++j) {
      os << "      smat[lx * K + " << j << "] = sum" << j << ";\n";
    }
  } else {
    os << "      for (int j = 0; j < K; ++j) smat[lx * K + j] = sum[j];\n";
  }
  os << "      svec[lx] = rsum;\n";
  os << "      smat[lx * K + lx] += lambda;\n";
  os << "    }\n";
  os << "    barrier(CLK_LOCAL_MEM_FENCE);\n";
  os << "\n";
  os << "    // S3 on lane 0 (k x k system)\n";
  os << "    if (lx == 0) cholesky_solve_inplace(smat, svec);\n";
  os << "    barrier(CLK_LOCAL_MEM_FENCE);\n";
  os << "\n";
  if (mixed) {
    os << "    // the only narrowing point: the solved row rounds to "
       << to_string(c.storage) << "\n";
    os << "    for (int f = lx; f < K; f += WS) X[u * K + f] = "
          "(storage_t)svec[f];\n";
  } else {
    os << "    for (int f = lx; f < K; f += WS) X[u * K + f] = svec[f];\n";
  }
  os << "    barrier(CLK_LOCAL_MEM_FENCE);\n";
  os << "  }\n";
  os << "}\n";
  return os.str();
}

std::string flat_kernel_source(const KernelConfig& c) {
  std::ostringstream os;
  AlsVariant flat = AlsVariant::flat_baseline();
  emit_header_comment(os, "als_update_flat", flat, c);
  os << kernel_preamble(c);
  os << "// SAC'15 baseline: one work-item updates one row (Algorithm 2).\n";
  os << "__kernel void als_update_flat(\n";
  os << "    __global const real_t* restrict values,\n";
  os << "    __global const int*    restrict col_idx,\n";
  os << "    __global const int*    restrict row_ptr,\n";
  os << "    __global const real_t* restrict Y,\n";
  os << "    __global real_t*       restrict X,\n";
  os << "    const int rows,\n";
  os << "    const real_t lambda) {\n";
  os << "  const int u = get_global_id(0);\n";
  os << "  if (u >= rows) return;\n";
  os << "  const int begin = row_ptr[u];\n";
  os << "  const int omega = row_ptr[u + 1] - begin;\n";
  os << "  real_t smat[K * K];\n";
  os << "  real_t svec[K];\n";
  os << "  for (int i = 0; i < K * K; ++i) smat[i] = (real_t)0;\n";
  os << "  for (int i = 0; i < K; ++i) svec[i] = (real_t)0;\n";
  os << "  if (omega == 0) {\n";
  os << "    for (int f = 0; f < K; ++f) X[u * K + f] = (real_t)0;\n";
  os << "    return;\n";
  os << "  }\n";
  os << "  // S1 + S2: the whole k x k accumulation runs in this thread\n";
  os << "  for (int z = 0; z < omega; ++z) {\n";
  os << "    const int d = col_idx[begin + z] * K;\n";
  os << "    const real_t r = values[begin + z];\n";
  os << "    for (int i = 0; i < K; ++i) {\n";
  os << "      const real_t yi = Y[d + i];\n";
  os << "      for (int j = i; j < K; ++j) smat[i * K + j] += yi * Y[d + j];\n";
  os << "      svec[i] += r * yi;\n";
  os << "    }\n";
  os << "  }\n";
  os << "  for (int i = 0; i < K; ++i) {\n";
  os << "    smat[i * K + i] += lambda;\n";
  os << "    for (int j = i + 1; j < K; ++j) smat[j * K + i] = smat[i * K + j];\n";
  os << "  }\n";
  os << "  // S3 (private-memory Cholesky)\n";
  os << "  for (int j = 0; j < K; ++j) {\n";
  os << "    real_t d = smat[j * K + j];\n";
  os << "    for (int p = 0; p < j; ++p) d -= smat[j * K + p] * smat[j * K + p];\n";
  os << "    const real_t ljj = sqrt(d);\n";
  os << "    smat[j * K + j] = ljj;\n";
  os << "    for (int i = j + 1; i < K; ++i) {\n";
  os << "      real_t s = smat[i * K + j];\n";
  os << "      for (int p = 0; p < j; ++p) s -= smat[i * K + p] * smat[j * K + p];\n";
  os << "      smat[i * K + j] = s / ljj;\n";
  os << "    }\n";
  os << "  }\n";
  os << "  for (int i = 0; i < K; ++i) {\n";
  os << "    real_t s = svec[i];\n";
  os << "    for (int p = 0; p < i; ++p) s -= smat[i * K + p] * svec[p];\n";
  os << "    svec[i] = s / smat[i * K + i];\n";
  os << "  }\n";
  os << "  for (int i = K - 1; i >= 0; --i) {\n";
  os << "    real_t s = svec[i];\n";
  os << "    for (int p = i + 1; p < K; ++p) s -= smat[p * K + i] * svec[p];\n";
  os << "    svec[i] = s / smat[i * K + i];\n";
  os << "  }\n";
  os << "  for (int f = 0; f < K; ++f) X[u * K + f] = svec[f];\n";
  os << "}\n";
  return os.str();
}

std::string host_driver_source(const AlsVariant& v, const KernelConfig& c) {
  const std::string kname = kernel_name(v);
  std::ostringstream os;
  os << "/* alsmf OpenCL host driver — auto-generated.\n"
     << " * Builds " << kname << ".cl and runs alternating X/Y updates on\n"
     << " * a rating matrix given in `user item rating` text form.\n"
     << " *\n"
     << " *   cc -O2 host_driver.c -lOpenCL -o als_ocl\n"
     << " *   ./als_ocl ratings.txt [iterations]\n"
     << " */\n"
     << "#define CL_TARGET_OPENCL_VERSION 120\n"
     << "#include <CL/cl.h>\n"
     << "#include <stdio.h>\n"
     << "#include <stdlib.h>\n"
     << "#include <string.h>\n\n"
     << "#define K " << c.k << "\n"
     << "#define WS " << c.group_size << "\n"
     << "#define GROUPS 8192\n"
     << "#define LAMBDA 0.1f\n\n"
     << "static void check(cl_int err, const char* what) {\n"
     << "  if (err != CL_SUCCESS) {\n"
     << "    fprintf(stderr, \"%s failed: %d\\n\", what, err);\n"
     << "    exit(1);\n"
     << "  }\n"
     << "}\n\n"
     << "static char* read_file(const char* path, size_t* len) {\n"
     << "  FILE* f = fopen(path, \"rb\");\n"
     << "  if (!f) { fprintf(stderr, \"cannot open %s\\n\", path); exit(1); }\n"
     << "  fseek(f, 0, SEEK_END);\n"
     << "  *len = (size_t)ftell(f);\n"
     << "  fseek(f, 0, SEEK_SET);\n"
     << "  char* buf = (char*)malloc(*len + 1);\n"
     << "  if (fread(buf, 1, *len, f) != *len) exit(1);\n"
     << "  buf[*len] = 0;\n"
     << "  fclose(f);\n"
     << "  return buf;\n"
     << "}\n\n"
     << "/* CSR assembly from `user item rating` triplets (1-based ids). */\n"
     << "typedef struct { int rows, cols; long nnz;\n"
     << "                 int *row_ptr, *col_idx; float *values; } Csr;\n\n"
     << "static Csr load_ratings(const char* path, int transpose) {\n"
     << "  FILE* f = fopen(path, \"r\");\n"
     << "  if (!f) { fprintf(stderr, \"cannot open %s\\n\", path); exit(1); }\n"
     << "  int u, i; float r; Csr m; memset(&m, 0, sizeof m);\n"
     << "  long cap = 1 << 20, n = 0;\n"
     << "  int* us = (int*)malloc(cap * sizeof(int));\n"
     << "  int* is = (int*)malloc(cap * sizeof(int));\n"
     << "  float* rs = (float*)malloc(cap * sizeof(float));\n"
     << "  while (fscanf(f, \"%d %d %f\", &u, &i, &r) == 3) {\n"
     << "    if (n == cap) {\n"
     << "      cap *= 2;\n"
     << "      us = (int*)realloc(us, cap * sizeof(int));\n"
     << "      is = (int*)realloc(is, cap * sizeof(int));\n"
     << "      rs = (float*)realloc(rs, cap * sizeof(float));\n"
     << "    }\n"
     << "    us[n] = (transpose ? i : u) - 1;\n"
     << "    is[n] = (transpose ? u : i) - 1;\n"
     << "    rs[n] = r;\n"
     << "    if (us[n] + 1 > m.rows) m.rows = us[n] + 1;\n"
     << "    if (is[n] + 1 > m.cols) m.cols = is[n] + 1;\n"
     << "    ++n;\n"
     << "  }\n"
     << "  fclose(f);\n"
     << "  m.nnz = n;\n"
     << "  m.row_ptr = (int*)calloc((size_t)m.rows + 1, sizeof(int));\n"
     << "  m.col_idx = (int*)malloc((size_t)n * sizeof(int));\n"
     << "  m.values = (float*)malloc((size_t)n * sizeof(float));\n"
     << "  for (long p = 0; p < n; ++p) m.row_ptr[us[p] + 1]++;\n"
     << "  for (int row = 0; row < m.rows; ++row)\n"
     << "    m.row_ptr[row + 1] += m.row_ptr[row];\n"
     << "  int* cur = (int*)malloc((size_t)m.rows * sizeof(int));\n"
     << "  memcpy(cur, m.row_ptr, (size_t)m.rows * sizeof(int));\n"
     << "  for (long p = 0; p < n; ++p) {\n"
     << "    const int at = cur[us[p]]++;\n"
     << "    m.col_idx[at] = is[p];\n"
     << "    m.values[at] = rs[p];\n"
     << "  }\n"
     << "  free(us); free(is); free(rs); free(cur);\n"
     << "  return m;\n"
     << "}\n\n"
     << "int main(int argc, char** argv) {\n"
     << "  if (argc < 2) { fprintf(stderr, \"usage: %s ratings.txt [iters]\\n\", argv[0]); return 2; }\n"
     << "  const int iters = argc > 2 ? atoi(argv[2]) : 5;\n"
     << "  Csr R = load_ratings(argv[1], 0);\n"
     << "  Csr Rt = load_ratings(argv[1], 1);\n"
     << "  printf(\"%d x %d, %ld ratings\\n\", R.rows, R.cols, R.nnz);\n\n"
     << "  cl_platform_id platform; cl_device_id device; cl_int err;\n"
     << "  check(clGetPlatformIDs(1, &platform, NULL), \"clGetPlatformIDs\");\n"
     << "  check(clGetDeviceIDs(platform, CL_DEVICE_TYPE_DEFAULT, 1, &device, NULL), \"clGetDeviceIDs\");\n"
     << "  cl_context ctx = clCreateContext(NULL, 1, &device, NULL, NULL, &err);\n"
     << "  check(err, \"clCreateContext\");\n"
     << "  cl_command_queue queue = clCreateCommandQueue(ctx, device, CL_QUEUE_PROFILING_ENABLE, &err);\n"
     << "  check(err, \"clCreateCommandQueue\");\n\n"
     << "  size_t src_len;\n"
     << "  char* src = read_file(\"" << kname << ".cl\", &src_len);\n"
     << "  cl_program prog = clCreateProgramWithSource(ctx, 1, (const char**)&src, &src_len, &err);\n"
     << "  check(err, \"clCreateProgramWithSource\");\n"
     << "  err = clBuildProgram(prog, 1, &device, \"" << build_options(c)
     << "\", NULL, NULL);\n"
     << "  if (err != CL_SUCCESS) {\n"
     << "    char log[16384]; size_t log_len;\n"
     << "    clGetProgramBuildInfo(prog, device, CL_PROGRAM_BUILD_LOG, sizeof log, log, &log_len);\n"
     << "    fprintf(stderr, \"build log:\\n%.*s\\n\", (int)log_len, log);\n"
     << "    return 1;\n"
     << "  }\n"
     << "  cl_kernel kernel = clCreateKernel(prog, \"" << kname << "\", &err);\n"
     << "  check(err, \"clCreateKernel\");\n\n"
     << "  /* factor buffers: X zero, Y small random */\n"
     << "  float* X = (float*)calloc((size_t)R.rows * K, sizeof(float));\n"
     << "  float* Y = (float*)malloc((size_t)R.cols * K * sizeof(float));\n"
     << "  srand(42);\n"
     << "  for (long p = 0; p < (long)R.cols * K; ++p)\n"
     << "    Y[p] = ((float)rand() / RAND_MAX - 0.5f) * 0.3f;\n\n"
     << "#define DEVBUF(ptr, bytes) \\\n"
     << "  clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, (bytes), (ptr), &err)\n"
     << "  cl_mem dR_val = DEVBUF(R.values, R.nnz * sizeof(float));\n"
     << "  cl_mem dR_col = DEVBUF(R.col_idx, R.nnz * sizeof(int));\n"
     << "  cl_mem dR_ptr = DEVBUF(R.row_ptr, ((size_t)R.rows + 1) * sizeof(int));\n"
     << "  cl_mem dT_val = DEVBUF(Rt.values, Rt.nnz * sizeof(float));\n"
     << "  cl_mem dT_col = DEVBUF(Rt.col_idx, Rt.nnz * sizeof(int));\n"
     << "  cl_mem dT_ptr = DEVBUF(Rt.row_ptr, ((size_t)Rt.rows + 1) * sizeof(int));\n"
     << "  cl_mem dX = DEVBUF(X, (size_t)R.rows * K * sizeof(float));\n"
     << "  cl_mem dY = DEVBUF(Y, (size_t)R.cols * K * sizeof(float));\n"
     << "  check(err, \"clCreateBuffer\");\n\n"
     << "  const float lambda = LAMBDA;\n"
     << "  const size_t global = (size_t)GROUPS * WS, local = WS;\n"
     << "  for (int it = 0; it < iters; ++it) {\n"
     << "    /* update X over Y */\n"
     << "    clSetKernelArg(kernel, 0, sizeof(cl_mem), &dR_val);\n"
     << "    clSetKernelArg(kernel, 1, sizeof(cl_mem), &dR_col);\n"
     << "    clSetKernelArg(kernel, 2, sizeof(cl_mem), &dR_ptr);\n"
     << "    clSetKernelArg(kernel, 3, sizeof(cl_mem), &dY);\n"
     << "    clSetKernelArg(kernel, 4, sizeof(cl_mem), &dX);\n"
     << "    clSetKernelArg(kernel, 5, sizeof(int), &R.rows);\n"
     << "    clSetKernelArg(kernel, 6, sizeof(float), &lambda);\n"
     << "    check(clEnqueueNDRangeKernel(queue, kernel, 1, NULL, &global, &local, 0, NULL, NULL), \"enqueue X\");\n"
     << "    /* update Y over X (transposed matrix) */\n"
     << "    clSetKernelArg(kernel, 0, sizeof(cl_mem), &dT_val);\n"
     << "    clSetKernelArg(kernel, 1, sizeof(cl_mem), &dT_col);\n"
     << "    clSetKernelArg(kernel, 2, sizeof(cl_mem), &dT_ptr);\n"
     << "    clSetKernelArg(kernel, 3, sizeof(cl_mem), &dX);\n"
     << "    clSetKernelArg(kernel, 4, sizeof(cl_mem), &dY);\n"
     << "    clSetKernelArg(kernel, 5, sizeof(int), &Rt.rows);\n"
     << "    clSetKernelArg(kernel, 6, sizeof(float), &lambda);\n"
     << "    check(clEnqueueNDRangeKernel(queue, kernel, 1, NULL, &global, &local, 0, NULL, NULL), \"enqueue Y\");\n"
     << "  }\n"
     << "  check(clFinish(queue), \"clFinish\");\n"
     << "  printf(\"done: %d iterations of " << kname << "\\n\", iters);\n"
     << "  return 0;\n"
     << "}\n";
  return os.str();
}

std::string write_host_driver(const std::string& directory,
                              const AlsVariant& v, const KernelConfig& c) {
  std::filesystem::create_directories(directory);
  const std::string path = directory + "/host_driver.c";
  std::ofstream out(path);
  ALSMF_CHECK_MSG(out.good(), "cannot write " + path);
  out << host_driver_source(v, c);
  return path;
}

int write_kernel_files(const std::string& directory, const KernelConfig& c) {
  std::filesystem::create_directories(directory);
  int written = 0;
  for (const KernelFlavor& flavor : enumerate_kernel_flavors(c)) {
    const std::string path = directory + "/" + flavor.name + ".cl";
    std::ofstream out(path);
    ALSMF_CHECK_MSG(out.good(), "cannot write " + path);
    out << flavor.source;
    ++written;
  }
  return written;
}

}  // namespace alsmf::ocl
