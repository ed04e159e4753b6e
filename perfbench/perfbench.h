// Subcommands of the perfbench tool (main.cc dispatches on argv[1]).
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  long port = 0;
  /// The generated world: ontology.obo + corpus.txt.
  std::string world;
  /// The smaller world ingest-live runs on (traced run only).
  std::string ingest_world;
  /// `ctxrank index` output directory (assignment + prestige files).
  std::string data;
  /// Assignment file whose membership every search hit must respect.
  std::string assignment;
  /// Scratch directory of a run (traced run: snapshots and spans).
  std::string work;
  /// Where the traced run writes its spans.
  std::string spans;
  size_t threads = 1;
};

/// `drive`: the closed-loop client against a running ctxrankd.
int Drive(const Flags& flags);
/// `prepare-ingest`: writes the ingest-live base corpus (the world minus
/// its held-out tail) with the world's ontology into `flags.work`.
int PrepareIngest(const Flags& flags);
/// `check-build`: the paper's hierarchy rules over `ctxrank index` output.
int CheckBuild(const Flags& flags);
/// `layers`: the traced in-process replay (per-layer metrics + spans).
int Layers(const Flags& flags);
/// `selftest`: every check must reject a deliberately broken case.
int SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
