#include "als/options.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace alsmf {

const char* to_string(LinearSolverKind kind) {
  switch (kind) {
    case LinearSolverKind::kCholesky: return "cholesky";
    case LinearSolverKind::kLu: return "lu";
  }
  return "?";
}

const char* to_string(RowSolverKind kind) {
  switch (kind) {
    case RowSolverKind::kCholesky: return "cholesky";
    case RowSolverKind::kSubspace: return "subspace";
  }
  return "?";
}

const char* to_string(StoragePrecision precision) {
  switch (precision) {
    case StoragePrecision::kFp32: return "fp32";
    case StoragePrecision::kFp16: return "fp16";
    case StoragePrecision::kBf16: return "bf16";
  }
  return "?";
}

bool try_parse(const std::string& text, LinearSolverKind& out) {
  if (text == "cholesky") {
    out = LinearSolverKind::kCholesky;
  } else if (text == "lu") {
    out = LinearSolverKind::kLu;
  } else {
    return false;
  }
  return true;
}

bool try_parse(const std::string& text, RowSolverKind& out) {
  if (text == "cholesky") {
    out = RowSolverKind::kCholesky;
  } else if (text == "subspace") {
    out = RowSolverKind::kSubspace;
  } else {
    return false;
  }
  return true;
}

LinearSolverKind parse_linear_solver(const std::string& text) {
  LinearSolverKind out;
  if (!try_parse(text, out)) {
    throw Error("unknown linear solver '" + text +
                "'; expected one of: cholesky, lu");
  }
  return out;
}

RowSolverKind parse_row_solver(const std::string& text) {
  RowSolverKind out;
  if (!try_parse(text, out)) {
    throw Error("unknown row solver '" + text +
                "'; expected one of: cholesky, subspace");
  }
  return out;
}

bool try_parse(const std::string& text, StoragePrecision& out) {
  if (text == "fp32" || text == "float") {
    out = StoragePrecision::kFp32;
  } else if (text == "fp16" || text == "half") {
    out = StoragePrecision::kFp16;
  } else if (text == "bf16" || text == "bfloat16") {
    out = StoragePrecision::kBf16;
  } else {
    return false;
  }
  return true;
}

StoragePrecision parse_storage_precision(const std::string& text) {
  StoragePrecision out;
  if (!try_parse(text, out)) {
    throw Error("unknown storage precision '" + text +
                "'; expected one of: fp32, fp16, bf16");
  }
  return out;
}

std::string AlsVariant::name() const {
  if (!thread_batching) return "flat";
  std::string n = "batch";
  if (use_local) n += "+local";
  if (use_registers) n += "+reg";
  if (use_vectors) n += "+vec";
  return n;
}

AlsVariant AlsVariant::from_mask(unsigned mask) {
  ALSMF_CHECK(mask < kVariantCount);
  AlsVariant v;
  v.thread_batching = true;
  v.use_registers = (mask & 1u) != 0;
  v.use_local = (mask & 2u) != 0;
  v.use_vectors = (mask & 4u) != 0;
  return v;
}

AlsVariant AlsVariant::flat_baseline() {
  AlsVariant v;
  v.thread_batching = false;
  v.use_registers = false;
  v.use_local = false;
  v.use_vectors = false;
  return v;
}

AlsVariant AlsVariant::batching_only() { return from_mask(0); }
AlsVariant AlsVariant::batch_local() { return from_mask(2); }
AlsVariant AlsVariant::batch_local_reg() { return from_mask(3); }
AlsVariant AlsVariant::batch_vectors() { return from_mask(4); }

void validate(const FactorOptionsBase& options) {
  if (options.k <= 0) {
    throw Error("invalid k = " + std::to_string(options.k) +
                "; the latent dimensionality must be >= 1");
  }
  if (!(options.lambda > 0.0f)) {
    throw Error("invalid lambda = " + std::to_string(options.lambda) +
                "; the ridge term must be > 0 (it keeps the normal "
                "equations positive definite)");
  }
  if (options.iterations < 0) {
    throw Error("invalid iterations = " + std::to_string(options.iterations) +
                "; the iteration budget must be >= 0");
  }
}

int AlsOptions::effective_subspace_block() const {
  if (subspace_block > 0) return std::min(subspace_block, k);
  return std::min(std::max(2, k / 2), k);
}

void validate(const AlsOptions& options) {
  validate(static_cast<const FactorOptionsBase&>(options));
  if (options.num_groups == 0) {
    throw Error("invalid num_groups = 0; at least one work-group is needed");
  }
  if (options.group_size <= 0) {
    throw Error("invalid group_size = " + std::to_string(options.group_size) +
                "; the work-group needs >= 1 lane");
  }
  if (options.subspace_block < 0 || options.subspace_block > options.k) {
    throw Error("invalid subspace_block = " +
                std::to_string(options.subspace_block) +
                "; expected 0 (auto) or a block size in [1, k = " +
                std::to_string(options.k) + "]");
  }
}

}  // namespace alsmf
