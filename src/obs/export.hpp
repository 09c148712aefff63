// Trace exporters: Chrome/Perfetto trace.json from an execution Trace plus
// (optionally) the scheduler-decision events of a RecordingObserver.
//
// The JSON follows the Trace Event Format: executed segments become "X"
// duration slices on one track per worker (with their data stalls as
// separate slices), scheduler decisions become "i" instant events — on the
// deciding worker's track when one is involved, on a dedicated "scheduler"
// track otherwise — and the queue depths the PUSH / POP events carry become
// "C" counter tracks, one per queue: per worker when PUSH events name a
// worker, per memory node (EVICTs included) when they name only a node, none
// when they name neither. Load the file at https://ui.perfetto.dev or
// chrome://tracing.
#pragma once

#include <string>

#include "obs/observer.hpp"
#include "runtime/trace.hpp"

namespace mp {

[[nodiscard]] std::string chrome_trace_json(const Trace& trace, const TaskGraph& graph,
                                            const Platform& platform,
                                            const RecordingObserver* obs = nullptr);

/// Writes chrome_trace_json to `path`; false on I/O failure.
[[nodiscard]] bool write_chrome_trace(const std::string& path, const Trace& trace,
                                      const TaskGraph& graph, const Platform& platform,
                                      const RecordingObserver* obs = nullptr);

/// Escapes a string for embedding in a JSON string literal (no quotes).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace mp
