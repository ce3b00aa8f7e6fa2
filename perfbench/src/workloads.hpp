// The benchmark workloads (NOTES.md, "Workloads").
#pragma once

#include "bench.hpp"

namespace perfbench {

void run_train(Run& run);
void run_train_multi(Run& run);
void run_serve(Run& run);

}  // namespace perfbench
