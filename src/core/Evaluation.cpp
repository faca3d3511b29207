//===- Evaluation.cpp - Paper-evaluation measurement harness ----------------===//

#include "src/core/Evaluation.h"

#include <cmath>
#include <cstdlib>

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

const VariantEval *BenchmarkEval::variant(const std::string &Name) const {
  for (const VariantEval &V : Variants)
    if (V.Name == Name)
      return &V;
  return nullptr;
}

namespace {

/// The measured quantity for the time axis: end-to-end time for AWFY,
/// time to first response for microservices (Sec. 7.1).
double timeOf(const RunStats &S, bool Microservice) {
  if (Microservice && S.Responded)
    return S.TimeToFirstResponseNs;
  return S.TimeNs;
}

struct VariantSpec {
  std::string Name;
  CodeStrategy Code;
  bool UseHeap;
  HeapStrategy Heap;
};

} // namespace

BenchmarkEval nimg::evaluateBenchmark(const BenchmarkSpec &Spec,
                                      const EvalOptions &Opts) {
  BenchmarkEval Eval;
  Eval.Benchmark = Spec.Name;
  Eval.Microservice = Spec.Microservice;

  std::vector<std::string> Errors;
  std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
  assert(P && "benchmark failed to compile");

  RunConfig Run = Opts.Run;
  Run.StopAtFirstResponse = Spec.Microservice;

  // --- Profile collection (one instrumented image, Sec. 3) --------------------
  BuildConfig InstrCfg = Opts.Build;
  InstrCfg.Seed = Opts.BaseSeed + 1000;
  CollectedProfiles Prof = collectProfiles(*P, InstrCfg, Run);

  // --- Fleet profile set (cu-merged variant) ----------------------------------
  std::vector<MemberProfile> Members;
  if (Opts.MergeMembers > 0) {
    BuildConfig SetCfg = Opts.Build;
    SetCfg.Seed = Opts.BaseSeed + 1000;
    if (!SetCfg.ProfileGeneration)
      SetCfg.ProfileGeneration = 1;
    std::vector<std::string> Names;
    for (int I = 0; I < Opts.MergeMembers; ++I)
      Names.push_back("inst" + std::to_string(I));
    Members = collectProfileSet(*P, SetCfg, Run, Names);
  }

  // --- Measurement helper -------------------------------------------------------
  auto Measure = [&](const std::string &Name, CodeStrategy Code,
                     bool UseHeap, HeapStrategy Heap,
                     const std::vector<MemberProfile> *CodeMembers =
                         nullptr) {
    VariantEval V;
    V.Name = Name;
    std::vector<double> Text, HeapF, Total, Time;
    for (int S = 0; S < Opts.Seeds; ++S) {
      BuildConfig Cfg = Opts.Build;
      Cfg.Seed = Opts.BaseSeed + uint64_t(S);
      Cfg.CodeOrder = Code;
      if (Code == CodeStrategy::CuOrder)
        Cfg.CodeProf = &Prof.Cu;
      else if (Code == CodeStrategy::MethodOrder)
        Cfg.CodeProf = &Prof.Method;
      else if (Code == CodeStrategy::Cluster)
        Cfg.CodeProf = &Prof.Cluster;
      if (CodeMembers) {
        Cfg.CodeMembers = CodeMembers;
        Cfg.CodeProf = nullptr;
      }
      Cfg.UseHeapOrder = UseHeap;
      if (UseHeap) {
        Cfg.HeapOrder = Heap;
        Cfg.HeapProf = &Prof.forStrategy(Heap);
      }
      // --split hotcold rides along on any code strategy: wire the block
      // profile whenever the caller's build config asks for splitting.
      if (Cfg.Split != SplitMode::None)
        Cfg.BlockProf = &Prof.Blocks;
      NativeImage Img = buildNativeImage(*P, Cfg);
      assert(!Img.Built.Failed && "image build failed");
      RunStats Stats = runImage(Img, Run);
      assert(!Stats.Trapped && "benchmark trapped");
      Text.push_back(double(Stats.TextFaults));
      HeapF.push_back(double(Stats.HeapFaults));
      Total.push_back(double(Stats.totalFaults()));
      Time.push_back(timeOf(Stats, Spec.Microservice));
      if (Name == "baseline" && S == 0) {
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
    return V;
  };

  Eval.Baseline =
      Measure("baseline", CodeStrategy::None, false, HeapStrategy::HeapPath);

  const VariantSpec Specs[] = {
      {"cu", CodeStrategy::CuOrder, false, HeapStrategy::HeapPath},
      {"method", CodeStrategy::MethodOrder, false, HeapStrategy::HeapPath},
      {"cluster", CodeStrategy::Cluster, false, HeapStrategy::HeapPath},
      {"incremental id", CodeStrategy::None, true,
       HeapStrategy::IncrementalId},
      {"structural hash", CodeStrategy::None, true,
       HeapStrategy::StructuralHash},
      {"heap path", CodeStrategy::None, true, HeapStrategy::HeapPath},
      {"cu+heap path", CodeStrategy::CuOrder, true, HeapStrategy::HeapPath},
  };
  auto Factor = [](double Base, double Opt) {
    if (Opt <= 0)
      return Base <= 0 ? 1.0 : Base;
    return Base / Opt;
  };
  auto PushVariant = [&](VariantEval V) {
    V.TextFaultFactor =
        Factor(Eval.Baseline.TextFaults.Mean, V.TextFaults.Mean);
    V.HeapFaultFactor =
        Factor(Eval.Baseline.HeapFaults.Mean, V.HeapFaults.Mean);
    V.TotalFaultFactor =
        Factor(Eval.Baseline.TotalFaults.Mean, V.TotalFaults.Mean);
    V.Speedup = Factor(Eval.Baseline.TimeNs.Mean, V.TimeNs.Mean);
    Eval.Variants.push_back(std::move(V));
  };
  for (const VariantSpec &VS : Specs)
    PushVariant(Measure(VS.Name, VS.Code, VS.UseHeap, VS.Heap));
  if (!Members.empty())
    PushVariant(Measure("cu-merged", CodeStrategy::CuOrder, false,
                        HeapStrategy::HeapPath, &Members));

  // --- Profiling overhead (Sec. 7.4) ------------------------------------------
  double BaseTime = Eval.Baseline.TimeNs.Mean;
  if (BaseTime > 0) {
    Eval.CuOverhead = timeOf(Prof.CuRun, Spec.Microservice) / BaseTime;
    Eval.MethodOverhead = timeOf(Prof.MethodRun, Spec.Microservice) / BaseTime;
    Eval.HeapOverhead = timeOf(Prof.HeapRun, Spec.Microservice) / BaseTime;
  }
  return Eval;
}
