// Arms obs::Tracer for a traced run and collects the trace in pieces.
//
// obs::start_tracing() discards what was recorded before, so pausing the
// tracer (to time a stretch untraced) exports the published events first.
// The file holds one Chrome trace-event document per line; run.py computes
// span self-times per piece.
#pragma once

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

class TracePieces {
 public:
  explicit TracePieces(std::string path) : path_(std::move(path)) { arm(); }
  TracePieces(const TracePieces&) = delete;
  TracePieces& operator=(const TracePieces&) = delete;

  void pause() {
    emwd::obs::stop_tracing();
    dropped_ += emwd::obs::trace_stats().dropped;
    pieces_.push_back(emwd::obs::chrome_trace_json());
  }
  void resume() { arm(); }

  /// Stop tracing and write every piece; throws when the file cannot be
  /// written or a ring overflowed (the self-times would be incomplete).
  void finish() {
    pause();
    std::ofstream out(path_);
    for (const std::string& p : pieces_) out << p << '\n';
    if (!out) throw std::runtime_error("cannot write trace " + path_);
    if (dropped_ > 0) throw std::runtime_error("trace ring overflow: events dropped");
  }

 private:
  void arm() {
    emwd::obs::TraceConfig cfg;
    cfg.ring_capacity = 1 << 18;
    emwd::obs::start_tracing(cfg);
  }

  std::string path_;
  std::vector<std::string> pieces_;
  std::size_t dropped_ = 0;
};

}  // namespace perfbench
