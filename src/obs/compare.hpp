// Run comparison: diff two analyzed runs (multiprio vs dmdas, HEAD vs
// baseline) into the per-codelet / per-worker delta tables the run_compare
// CLI prints — the "why did A beat B on this DAG" view.
#pragma once

#include <string>

#include "obs/analysis.hpp"

namespace mp {

/// Headline metrics + per-codelet + per-worker + model-accuracy delta tables
/// of two runs labelled `label_a` / `label_b` (scheduler name, git rev, ...;
/// the column headers). Same DAG and platform assumed; bounds are printed
/// for both so a mismatch is visible rather than silent.
[[nodiscard]] std::string compare_runs(const std::string& label_a, const RunAnalysis& a,
                                       const std::string& label_b, const RunAnalysis& b);

}  // namespace mp
