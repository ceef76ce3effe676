// Shared plumbing for the figure-reproduction drivers.
//
// Every fig2*/ablation_* binary prints the series it regenerates as an
// aligned table on stdout and writes the same data as CSV next to the
// binary. Horizon and sweep sizes default to values that finish in seconds;
// set REPRO_FULL=1 for the paper's full T = 100-slot horizon everywhere,
// or REPRO_SLOTS=<n> to pin the horizon explicitly.
// Sweep-shaped benches run their jobs one after another on one thread
// (sim::run_job).
#pragma once

#include <climits>
#include <string>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/csv.hpp"

namespace gc::bench {

// Environment overrides: `name` as an int in [lo, hi], `fallback` when it
// is unset or empty; any other value exits 2 (tools/flags.hpp).
int env_int(const char* name, int fallback, int lo, int hi = INT_MAX);
// REPRO_FULL, 0 or 1.
bool full_repro();

// Default horizon: `fast` normally, 100 (the paper's T) under REPRO_FULL=1;
// REPRO_SLOTS >= 1 always wins (0 keeps the default).
int horizon(int fast);

// Pretty printing.
void print_title(const std::string& title, const std::string& subtitle);
void print_row(const std::vector<std::string>& cells, int width = 14);
std::string num(double v);

}  // namespace gc::bench
