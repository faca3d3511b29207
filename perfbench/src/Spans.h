//===- Spans.h - In-memory spans around calls into the layers ---*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracer. Spans are opened by the benchmark around
/// each call it makes into a library layer (nothing inside src/ is
/// instrumented for it), kept in memory, and written out once at the end
/// in the Chrome trace-event format that obs::SpanTracer emits, so Perfetto
/// loads the benchmark's traces and the CLI's alike.
///
/// A span is named "<layer>.<call>", where the layer is the module under
/// src/ that the call enters ("compiler.reach", "runtime.run"). Counts the
/// call produced ride on the span as named values ("compiler.cus"). The
/// per-layer metrics are then plain aggregates over the run's spans:
///   <name>_ms  mean duration of the spans called <name>, and
///   <value>    mean of that value over the spans that carry it.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_PERFBENCH_SPANS_H
#define NIMG_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bench {

struct SpanRecord {
  std::string Name;
  int64_t StartNs = 0; ///< Since the tracer's epoch (steady clock).
  int64_t EndNs = 0;
  int32_t Parent = -1; ///< Index of the enclosing span; -1 for a root.
  int64_t Op = -1;     ///< Op id; -1 for set-up and the layer pass.
  std::vector<std::pair<std::string, double>> Values;
};

class Tracer {
public:
  explicit Tracer(bool On) : On(On), Epoch(std::chrono::steady_clock::now()) {}

  bool on() const { return On; }
  void setOn(bool Enabled) { On = Enabled; }
  /// Tags every span opened from now on with \p Id.
  void setOp(int64_t Id) { Op = Id; }

  int32_t open(std::string Name);
  void close(int32_t Id);
  void value(int32_t Id, const std::string &Metric, double V) {
    Spans[size_t(Id)].Values.emplace_back(Metric, V);
  }
  const SpanRecord &span(int32_t Id) const { return Spans[size_t(Id)]; }

  /// The per-layer metrics aggregated over every recorded span (see the
  /// file comment).
  std::map<std::string, double> metrics() const;
  /// Prints self time per layer: a span's duration minus what its child
  /// spans cover, summed over the layer's spans.
  void printSelfTimeTable(std::FILE *Out) const;
  /// Writes the spans as Chrome trace-event JSON.
  bool writeChromeTrace(const std::string &Path) const;

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  bool On;
  std::chrono::steady_clock::time_point Epoch;
  int64_t Op = -1;
  int32_t Innermost = -1;
  std::vector<SpanRecord> Spans;
};

/// RAII span; records nothing when the tracer is off.
class Span {
public:
  Span(Tracer &T, std::string Name)
      : T(T), Id(T.on() ? T.open(std::move(Name)) : -1) {}
  ~Span() { close(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches a count; allowed before and after close().
  void value(const std::string &Metric, double V) {
    if (Id >= 0)
      T.value(Id, Metric, V);
  }
  /// Ends the span early; returns its duration in ns (0 when not traced).
  int64_t close() {
    if (Id < 0)
      return 0;
    if (!Closed)
      T.close(Id);
    Closed = true;
    return T.span(Id).EndNs - T.span(Id).StartNs;
  }

private:
  Tracer &T;
  int32_t Id;
  bool Closed = false;
};

} // namespace bench

#endif // NIMG_PERFBENCH_SPANS_H
