// perfbench — the benchmark's own tool. run.py drives it; see README.md.
//
//   perfbench drive --workload W --seed S --seconds T --port P --world DIR
//                   [--assignment FILE]
//   perfbench prepare-ingest --world DIR --seconds T --work DIR
//   perfbench check-build --world DIR --data DIR --workload W
//   perfbench layers --workload W --seed S --seconds T --world DIR
//                    --ingest-world DIR --work DIR --spans FILE --threads N
//   perfbench selftest
#include <cstdio>
#include <cstdlib>
#include <string>

#include "checks.h"
#include "context/context_io.h"
#include "corpus/corpus_io.h"
#include "ontology/obo_io.h"
#include "perfbench.h"
#include "report.h"
#include "workload.h"

namespace perfbench {

int PrepareIngest(const Flags& flags) {
  auto onto = ctxrank::ontology::LoadOboFile(flags.world + "/ontology.obo");
  auto corpus = ctxrank::corpus::LoadCorpus(flags.world + "/corpus.txt");
  if (!onto.ok() || !corpus.ok()) return 1;
  const auto& full = corpus.value();
  const size_t base = full.size() - HeldOut(flags.seconds);
  const auto out = BaseCorpus(full, onto.value().size(), base);
  if (!out.has_value()) return 1;
  if (!ctxrank::corpus::SaveCorpus(*out, flags.work + "/corpus.txt").ok() ||
      !ctxrank::ontology::WriteOboFile(onto.value(),
                                       flags.work + "/ontology.obo")
           .ok()) {
    return 1;
  }
  std::printf("ingest base: %zu papers, %zu held out\n", base,
              full.size() - base);
  return 0;
}

int CheckBuild(const Flags& flags) {
  Report report;
  auto onto = ctxrank::ontology::LoadOboFile(flags.world + "/ontology.obo");
  if (!onto.ok()) return 1;
  const std::string set = flags.workload == "pattern-zipf" ? "pattern" : "text";
  auto assignment =
      ctxrank::context::LoadAssignment(flags.data + "/" + set + "_assignment.txt");
  // Text prestige for the text set; citation prestige for the pattern set,
  // whose own pattern scores carry no hierarchy rule.
  auto prestige = ctxrank::context::LoadPrestige(
      flags.data + "/" + set + "_prestige_" +
      (set == "text" ? "text" : "citation") + ".txt");
  if (!assignment.ok() || !prestige.ok()) return 1;
  size_t pairs = 0;
  std::string bad = CheckHierarchyMax(onto.value(), assignment.value(),
                                      prestige.value(), &pairs);
  report.Count("hierarchy_max_pairs", pairs);
  if (bad.empty() && set == "pattern") {
    size_t edges = 0;
    bad = CheckRollUp(onto.value(), assignment.value(), &edges);
    report.Count("roll_up_edges", edges);
  }
  if (bad.empty() && pairs == 0) bad = "no hierarchy pairs to check";
  report.Flag("correct", bad.empty());
  if (!bad.empty()) report.Text("error", bad);
  report.Print();
  return bad.empty() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench drive|prepare-ingest|check-build|layers|"
                 "selftest [--flag value]...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  perfbench::Flags f;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") f.workload = value;
    else if (key == "--seed") f.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") f.seconds = std::atof(value.c_str());
    else if (key == "--port") f.port = std::atol(value.c_str());
    else if (key == "--world") f.world = value;
    else if (key == "--ingest-world") f.ingest_world = value;
    else if (key == "--data") f.data = value;
    else if (key == "--assignment") f.assignment = value;
    else if (key == "--work") f.work = value;
    else if (key == "--spans") f.spans = value;
    else if (key == "--threads") f.threads = std::strtoul(value.c_str(), nullptr, 10);
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (cmd == "drive") return perfbench::Drive(f);
  if (cmd == "prepare-ingest") return perfbench::PrepareIngest(f);
  if (cmd == "check-build") return perfbench::CheckBuild(f);
  if (cmd == "layers") return perfbench::Layers(f);
  if (cmd == "selftest") return perfbench::SelfTest();
  std::fprintf(stderr, "perfbench: unknown subcommand %s\n", cmd.c_str());
  return 2;
}
