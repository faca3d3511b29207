//===- Spans.cpp - In-memory spans around calls into the layers ------------===//

#include "Spans.h"

#include "src/obs/SpanTracer.h"

using namespace bench;

int32_t Tracer::open(std::string Name) {
  SpanRecord R;
  R.Name = std::move(Name);
  R.Parent = Innermost;
  R.Op = Op;
  R.StartNs = nowNs();
  Spans.push_back(std::move(R));
  Innermost = int32_t(Spans.size() - 1);
  return Innermost;
}

void Tracer::close(int32_t Id) {
  SpanRecord &R = Spans[size_t(Id)];
  R.EndNs = nowNs();
  Innermost = R.Parent;
}

std::map<std::string, double> Tracer::metrics() const {
  struct Acc {
    double Sum = 0;
    double N = 0;
  };
  std::map<std::string, Acc> Accs;
  for (const SpanRecord &R : Spans) {
    Acc &D = Accs[R.Name + "_ms"];
    D.Sum += double(R.EndNs - R.StartNs) / 1e6;
    D.N += 1;
    for (const auto &[Metric, V] : R.Values) {
      Acc &A = Accs[Metric];
      A.Sum += V;
      A.N += 1;
    }
  }
  std::map<std::string, double> Out;
  for (const auto &[Name, A] : Accs)
    Out[Name] = A.Sum / A.N;
  return Out;
}

static std::string layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}

void Tracer::printSelfTimeTable(std::FILE *Out) const {
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    Self[I] += Spans[I].EndNs - Spans[I].StartNs;
    if (Spans[I].Parent >= 0)
      Self[size_t(Spans[I].Parent)] -= Spans[I].EndNs - Spans[I].StartNs;
  }
  struct Row {
    int64_t Calls = 0;
    int64_t SelfNs = 0;
  };
  std::map<std::string, Row> Rows;
  int64_t Total = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    Row &R = Rows[layerOf(Spans[I].Name)];
    ++R.Calls;
    R.SelfNs += Self[I];
    Total += Self[I];
  }
  std::fprintf(Out, "# %-10s %8s %12s %7s\n", "layer", "spans", "self_ms",
               "share");
  for (const auto &[Layer, R] : Rows)
    std::fprintf(Out, "# %-10s %8lld %12.2f %6.1f%%\n", Layer.c_str(),
                 (long long)R.Calls, double(R.SelfNs) / 1e6,
                 Total > 0 ? 100.0 * double(R.SelfNs) / double(Total) : 0.0);
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  // Reuse the library's trace-event writer: hand it our spans, write, and
  // leave it empty again (its own spans stay off during the benchmark).
  nimg::obs::SpanTracer &Out = nimg::obs::SpanTracer::global();
  Out.clear();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &R = Spans[I];
    nimg::obs::SpanEvent E;
    E.Name = R.Name;
    E.Cat = layerOf(R.Name);
    E.StartUs = R.StartNs / 1000;
    E.DurUs = (R.EndNs - R.StartNs) / 1000;
    E.Tid = 1;
    E.Args.emplace_back("span", std::to_string(I));
    E.Args.emplace_back("parent", std::to_string(R.Parent));
    E.Args.emplace_back("op", std::to_string(R.Op));
    for (const auto &[Metric, V] : R.Values) {
      char Buf[40];
      std::snprintf(Buf, sizeof(Buf), "%.17g", V);
      E.Args.emplace_back(Metric, Buf);
    }
    Out.record(std::move(E));
  }
  bool Ok = Out.writeFile(Path);
  Out.clear();
  return Ok;
}
