// Shared plumbing for the figure-reproduction drivers.
//
// Every fig2*/ablation_* binary prints the series it regenerates as an
// aligned table on stdout and writes the same data as CSV next to the
// binary. Horizon and sweep sizes default to values that finish in seconds;
// set REPRO_FULL=1 for the paper's full T = 100-slot horizon everywhere,
// or REPRO_SLOTS=<n> to pin the horizon explicitly.
// Sweep-shaped benches fan their runs out through sim::SweepRunner;
// GC_THREADS=<n> pins the worker count, 0..256 (default 0: all hardware
// threads). Per-seed results are bit-identical at any thread count
// (sweep.hpp).
#pragma once

#include <climits>
#include <string>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
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

// Worker threads for sweep-shaped benches: GC_THREADS (0 = all cores).
int bench_threads();

// A SweepRunner configured with bench_threads(), merging observability into
// the global registry.
sim::SweepRunner make_sweep_runner();

// Runs `jobs` through make_sweep_runner(); results in job order.
std::vector<sim::Metrics> run_sweep(const std::vector<sim::SimJob>& jobs);

// Pretty printing.
void print_title(const std::string& title, const std::string& subtitle);
void print_row(const std::vector<std::string>& cells, int width = 14);
std::string num(double v);

// Runs the online controller on `cfg` for `slots` and returns the metrics.
sim::Metrics run_controller(const sim::ScenarioConfig& cfg, double V,
                            int slots);

}  // namespace gc::bench
