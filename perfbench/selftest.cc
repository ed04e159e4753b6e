// The checks' self-test: each check must pass a well-formed case and
// reject a deliberately broken one.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "perfbench.h"

namespace perfbench {
namespace {

namespace net = ctxrank::serve::net;
using ctxrank::context::ContextAssignment;
using ctxrank::context::PrestigeScores;
using ctxrank::context::SearchHit;

int g_failures = 0;

void Expect(const char* name, const std::string& good, const std::string& bad) {
  const bool ok = good.empty() && !bad.empty();
  if (!ok) ++g_failures;
  std::printf("%-34s %s%s%s\n", name, ok ? "rejected" : "NOT REJECTED",
              bad.empty() ? "" : ": ", bad.c_str());
}

/// Two contexts: 0 (parent) holds papers {1, 2, 3}; 1 (child) holds {2, 3}.
struct Fixture {
  ctxrank::ontology::Ontology onto;
  ContextAssignment assignment{2, 4};
  Fixture() {
    const auto parent = onto.AddTerm("T:0", "parent");
    const auto child = onto.AddTerm("T:1", "child");
    (void)onto.AddIsA(child, parent);
    (void)onto.Finalize();
    assignment.SetMembers(0, {1, 2, 3});
    assignment.SetMembers(1, {2, 3});
  }
};

net::WireResponse Answer() {
  net::WireResponse r;
  // Relevancy descending; the tie at 0.7 orders by ascending paper id.
  r.hits = {SearchHit{2, 0.9, 0, 0.5, 0.4}, SearchHit{1, 0.7, 0, 0.3, 0.4},
            SearchHit{3, 0.7, 1, 0.3, 0.4}};
  return r;
}

}  // namespace

int SelfTest() {
  const Fixture fx;

  {
    net::WireResponse good = Answer();
    net::WireResponse bad = Answer();
    std::swap(bad.hits[0], bad.hits[1]);
    Expect("hits swapped out of order",
           CheckSearchResponse(good, 10, &fx.assignment),
           CheckSearchResponse(bad, 10, &fx.assignment));
  }
  {
    net::WireResponse bad = Answer();
    bad.hits[1].context = 1;  // Paper 1 is not in context 1.
    Expect("hit outside its context",
           CheckSearchResponse(Answer(), 10, &fx.assignment),
           CheckSearchResponse(bad, 10, &fx.assignment));
  }
  {
    net::WireResponse bad = Answer();
    bad.degraded = true;
    Expect("degraded answer", CheckSearchResponse(Answer(), 10, nullptr),
           CheckSearchResponse(bad, 10, nullptr));
  }
  {
    net::WireAddPaperResponse ack;
    ack.paper_id = 100;
    ack.num_papers = 101;
    net::WireAddPaperResponse gap = ack;
    gap.paper_id = 101;
    gap.num_papers = 102;
    Expect("gap in the ingest ids", CheckIngestAck(ack, 100),
           CheckIngestAck(gap, 100));
  }
  {
    PrestigeScores good(2), bad(2);
    good.Set(0, {0.2, 0.6, 0.5});
    good.Set(1, {0.6, 0.5});
    bad.Set(0, {0.2, 0.4, 0.5});  // Paper 2: 0.4 in the parent < 0.6.
    bad.Set(1, {0.6, 0.5});
    size_t pairs = 0;
    const std::string ok = CheckHierarchyMax(fx.onto, fx.assignment, good, &pairs);
    Expect("prestige breaking hierarchy-max", ok,
           CheckHierarchyMax(fx.onto, fx.assignment, bad, &pairs));
  }
  {
    ContextAssignment bad(2, 4);
    bad.SetMembers(0, {1, 2});
    bad.SetMembers(1, {2, 3});  // Paper 3 is not rolled up to the parent.
    size_t edges = 0;
    const std::string ok = CheckRollUp(fx.onto, fx.assignment, &edges);
    Expect("child members not rolled up", ok,
           CheckRollUp(fx.onto, bad, &edges));
  }
  {
    ctxrank::context::SearchResponse exact;
    exact.hits.push_back(SearchHit{2, 0.9, 0, 0.5, 0.4});
    ctxrank::context::SearchResponse cached = exact;
    // One ulp off: a cache that returned a recomputed, not identical, score.
    cached.hits[0].relevancy = 0.90000000000000013;
    const std::string e = net::EncodeSearchResponse(exact);
    Expect("cached hit differing from exact",
           CheckSameAnswer(net::EncodeSearchResponse(exact), e),
           CheckSameAnswer(net::EncodeSearchResponse(cached), e));
  }
  std::printf("selftest: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
