//===- Workloads.cpp - Workload registry and compilation --------------------===//

#include "src/workloads/Workloads.h"

#include "src/lang/Compile.h"
#include "src/workloads/WorkloadSources.h"

#include <cassert>

using namespace nimg;

const std::vector<std::string> &nimg::awfyBenchmarkNames() {
  static const std::vector<std::string> Names = {
      "Bounce", "CD",      "DeltaBlue", "Havlak",  "Json",
      "List",   "Mandelbrot", "NBody",  "Permute", "Queens",
      "Richards", "Sieve", "Storage",   "Towers"};
  return Names;
}

const std::vector<std::string> &nimg::microserviceNames() {
  static const std::vector<std::string> Names = {"micronaut", "quarkus",
                                                 "spring"};
  return Names;
}

BenchmarkSpec nimg::awfyBenchmark(const std::string &Name) {
  BenchmarkSpec Spec;
  Spec.Name = Name;
  Spec.Sources.push_back(somLibrarySource());
  Spec.Sources.push_back(runtimePreludeSource());
  if (Name == "Bounce")
    Spec.Sources.push_back(workloads::bounceSource());
  else if (Name == "CD")
    Spec.Sources.push_back(workloads::cdSource());
  else if (Name == "DeltaBlue")
    Spec.Sources.push_back(workloads::deltaBlueSource());
  else if (Name == "Havlak")
    Spec.Sources.push_back(workloads::havlakSource());
  else if (Name == "Json")
    Spec.Sources.push_back(workloads::jsonSource());
  else if (Name == "List")
    Spec.Sources.push_back(workloads::listSource());
  else if (Name == "Mandelbrot")
    Spec.Sources.push_back(workloads::mandelbrotSource());
  else if (Name == "NBody")
    Spec.Sources.push_back(workloads::nbodySource());
  else if (Name == "Permute")
    Spec.Sources.push_back(workloads::permuteSource());
  else if (Name == "Queens")
    Spec.Sources.push_back(workloads::queensSource());
  else if (Name == "Richards")
    Spec.Sources.push_back(workloads::richardsSource());
  else if (Name == "Sieve")
    Spec.Sources.push_back(workloads::sieveSource());
  else if (Name == "Storage")
    Spec.Sources.push_back(workloads::storageSource());
  else if (Name == "Towers")
    Spec.Sources.push_back(workloads::towersSource());
  else
    assert(false && "unknown AWFY benchmark name");
  return Spec;
}

static std::string configResource(const std::string &Framework, int Lines) {
  std::string Yml;
  Yml += "service.name=" + Framework + "-hello-world\n";
  Yml += "server.port=8080\n";
  Yml += "server.host=0.0.0.0\n";
  for (int I = 0; I < Lines; ++I)
    Yml += Framework + ".module" + std::to_string(I) +
           ".enabled=true;poolSize=" + std::to_string(4 + I % 12) +
           ";timeoutMs=" + std::to_string(250 + 10 * I) + "\n";
  return Yml;
}

BenchmarkSpec nimg::microserviceBenchmark(const std::string &Name) {
  BenchmarkSpec Spec;
  Spec.Name = Name;
  Spec.Microservice = true;
  Spec.Sources.push_back(somLibrarySource());
  Spec.Sources.push_back(runtimePreludeSource());
  // The three frameworks differ in scale and shape, mirroring the real
  // frameworks' relative footprints: spring largest, micronaut mid-sized,
  // quarkus smaller but with the most build-time-initialized state.
  if (Name == "micronaut") {
    Spec.Sources.push_back(
        workloads::microserviceSource("micronaut", 60, 46, 30, 3));
    Spec.Resources.emplace_back("application.yml",
                                configResource("micronaut", 40));
  } else if (Name == "quarkus") {
    Spec.Sources.push_back(
        workloads::microserviceSource("quarkus", 44, 36, 24, 2));
    Spec.Resources.emplace_back("application.yml",
                                configResource("quarkus", 64));
  } else if (Name == "spring") {
    Spec.Sources.push_back(
        workloads::microserviceSource("spring", 80, 66, 42, 3));
    Spec.Resources.emplace_back("application.yml",
                                configResource("spring", 52));
  } else {
    assert(false && "unknown microservice benchmark name");
  }
  return Spec;
}

BenchmarkSpec nimg::scaleRung(int Factor) {
  BenchmarkSpec Spec = microserviceBenchmark("micronaut");
  Spec.Name = "micronaut-x" + std::to_string(Factor);
  Spec.Sources = {somLibrarySource(), runtimePreludeSource(140 * Factor),
                  workloads::microserviceSource("micronaut", 60 * Factor,
                                                46 * Factor, 30 * Factor,
                                                3 * Factor)};
  return Spec;
}

std::unique_ptr<Program>
nimg::compileBenchmark(const BenchmarkSpec &Spec,
                       std::vector<std::string> &Errors) {
  auto P = std::make_unique<Program>();
  if (!compileSources(Spec.Sources, *P, Errors))
    return nullptr;
  if (P->MainMethod == -1) {
    Errors.push_back("benchmark " + Spec.Name + " has no Main.main()");
    return nullptr;
  }
  for (const auto &[Name, Contents] : Spec.Resources)
    P->Resources.emplace_back(Name, Contents);
  return P;
}
