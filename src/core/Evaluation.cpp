//===- Evaluation.cpp - Paper-evaluation measurement harness ----------------===//

#include "src/core/Evaluation.h"

#include "src/obs/Metrics.h"
#include "src/obs/SpanTracer.h"
#include "src/support/ThreadPool.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

using namespace nimg;

Stat nimg::statOf(const std::vector<double> &Samples) {
  Stat S;
  if (Samples.empty())
    return S;
  double Sum = 0;
  for (double V : Samples)
    Sum += V;
  S.Mean = Sum / double(Samples.size());
  if (Samples.size() == 1) {
    S.Lo = S.Hi = S.Mean;
    return S;
  }
  double Var = 0;
  for (double V : Samples)
    Var += (V - S.Mean) * (V - S.Mean);
  Var /= double(Samples.size() - 1);
  double Half = 1.96 * std::sqrt(Var / double(Samples.size()));
  S.Lo = S.Mean - Half;
  S.Hi = S.Mean + Half;
  return S;
}

double nimg::geomean(const std::vector<double> &Factors) {
  if (Factors.empty())
    return 1.0;
  double LogSum = 0;
  for (double F : Factors)
    LogSum += std::log(F);
  return std::exp(LogSum / double(Factors.size()));
}

int nimg::evalSeedsFromEnv(int Default) {
  const char *Env = std::getenv("NIMAGE_EVAL_SEEDS");
  if (!Env)
    return Default;
  int N = std::atoi(Env);
  return N > 0 ? N : Default;
}

BuildConfig nimg::variantConfig(const PaperVariant &V, BuildConfig Base,
                                const CollectedProfiles &Prof) {
  Base.CodeOrder = V.Code;
  if (V.Code != CodeStrategy::None)
    Base.CodeProf = &Prof.forCode(V.Code);
  Base.UseHeapOrder = V.UseHeap;
  if (V.UseHeap) {
    Base.HeapOrder = V.Heap;
    Base.HeapProf = &Prof.forStrategy(V.Heap);
  }
  // --split hotcold rides along on any code strategy.
  if (Base.Split != SplitMode::None)
    Base.BlockProf = &Prof.Blocks;
  return Base;
}

namespace {

/// The measured quantity for the time axis: end-to-end time for AWFY,
/// time to first response for microservices (Sec. 7.1).
double timeOf(const RunStats &S, bool Microservice) {
  if (Microservice && S.Responded)
    return S.TimeToFirstResponseNs;
  return S.TimeNs;
}

/// The fault count \p V is scored on.
Stat VariantEval::*faultAxis(const PaperVariant &V) {
  if (!V.UseHeap)
    return &VariantEval::TextFaults;
  return V.Code == CodeStrategy::None ? &VariantEval::HeapFaults
                                      : &VariantEval::TotalFaults;
}

double factor(double Base, double Opt) {
  if (Opt <= 0)
    return Base <= 0 ? 1.0 : Base;
  return Base / Opt;
}

/// Evaluates one benchmark once per split mode in \p Series, from one
/// compile and one profile capture: instrumented builds ignore the split
/// mode, so every series reads the same profiles.
std::vector<BenchmarkEval>
evaluateBenchmark(const BenchmarkSpec &Spec,
                  const std::vector<SplitMode> &Series, int Seeds) {
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
  assert(P && "benchmark failed to compile");

  RunConfig Run;
  Run.StopAtFirstResponse = Spec.Microservice;

  // --- Profile collection (one instrumented image, Sec. 3) ------------------
  BuildConfig InstrCfg;
  InstrCfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(*P, InstrCfg, Run);

  std::vector<BenchmarkEval> Out;
  for (SplitMode Split : Series) {
    BenchmarkEval Eval;
    Eval.Benchmark = Spec.Name;
    Eval.Microservice = Spec.Microservice;
    BuildConfig Base;
    Base.Split = Split;

    for (const PaperVariant &PV : PaperVariants) {
      bool IsBaseline = &PV == &PaperVariants[0];
      VariantEval V;
      V.Name = PV.Name;
      std::vector<double> Text, HeapF, Total, Time;
      for (int S = 0; S < Seeds; ++S) {
        Base.Seed = 1 + uint64_t(S);
        NativeImage Img = buildNativeImage(*P, variantConfig(PV, Base, Prof));
        assert(!Img.Built.Failed && "image build failed");
        RunStats Stats = runImage(Img, Run);
        assert(!Stats.Trapped && "benchmark trapped");
        Text.push_back(double(Stats.TextFaults));
        HeapF.push_back(double(Stats.HeapFaults));
        Total.push_back(double(Stats.totalFaults()));
        Time.push_back(timeOf(Stats, Spec.Microservice));
        if (IsBaseline && S == 0) {
          Eval.PctStoredObjectsTouched =
              Stats.StoredObjectsTotal == 0
                  ? 0.0
                  : 100.0 * double(Stats.StoredObjectsTouched) /
                        double(Stats.StoredObjectsTotal);
          Eval.SnapshotObjects = Stats.StoredObjectsTotal;
          Eval.ImageBytes = Img.imageBytes();
        }
      }
      V.TextFaults = statOf(Text);
      V.HeapFaults = statOf(HeapF);
      V.TotalFaults = statOf(Total);
      V.TimeNs = statOf(Time);
      if (IsBaseline) {
        Eval.Baseline = std::move(V);
        continue;
      }
      const VariantEval &B = Eval.Baseline;
      Stat VariantEval::*Axis = faultAxis(PV);
      V.FaultFactor = factor((B.*Axis).Mean, (V.*Axis).Mean);
      V.Speedup = factor(B.TimeNs.Mean, V.TimeNs.Mean);
      Eval.Variants.push_back(std::move(V));
    }

    // --- Profiling overhead (Sec. 7.4) --------------------------------------
    double BaseTime = Eval.Baseline.TimeNs.Mean;
    if (BaseTime > 0) {
      Eval.CuOverhead = timeOf(Prof.CuRun, Spec.Microservice) / BaseTime;
      Eval.MethodOverhead =
          timeOf(Prof.MethodRun, Spec.Microservice) / BaseTime;
      Eval.HeapOverhead = timeOf(Prof.HeapRun, Spec.Microservice) / BaseTime;
    }
    Out.push_back(std::move(Eval));
  }
  return Out;
}

} // namespace

std::vector<std::vector<BenchmarkEval>>
nimg::evaluateSuite(const std::vector<BenchmarkSpec> &Specs,
                    const std::vector<SplitMode> &Series,
                    const EvalOptions &Opts) {
  // Progress lines go out in index order as the finished prefix grows.
  std::mutex Mu;
  std::vector<bool> Finished(Specs.size());
  size_t Reported = 0;
  NIMG_COUNTER_ADD("nimg.parallel.evaluate.items", Specs.size());
  std::vector<std::vector<BenchmarkEval>> PerBenchmark =
      parallelMap(Specs.size(), [&](size_t I) {
        NIMG_SPAN("evaluate", Specs[I].Name);
        std::vector<BenchmarkEval> Evals =
            evaluateBenchmark(Specs[I], Series, Opts.Seeds);
        std::lock_guard<std::mutex> G(Mu);
        Finished[I] = true;
        for (; Reported < Specs.size() && Finished[Reported]; ++Reported)
          std::fprintf(stderr, "  evaluated %s\n",
                       Specs[Reported].Name.c_str());
        return Evals;
      });

  std::vector<std::vector<BenchmarkEval>> Out(Series.size());
  for (std::vector<BenchmarkEval> &Evals : PerBenchmark)
    for (size_t S = 0; S < Series.size(); ++S)
      Out[S].push_back(std::move(Evals[S]));
  return Out;
}
