// The benchmark's output checks. Each returns "" when its input passes
// and a one-line description of the first violation otherwise; the
// self-test (selftest.cc) feeds every check a broken case.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "context/context_assignment.h"
#include "context/prestige.h"
#include "ontology/ontology.h"
#include "serve/net.h"

namespace perfbench {

/// A search answer: OK, not degraded, nothing skipped, at most `top_k`
/// hits in (relevancy desc, paper asc) order with no paper twice, and —
/// when `assignment` is given — every hit's paper a member of its hit
/// context.
std::string CheckSearchResponse(
    const ctxrank::serve::net::WireResponse& r, size_t top_k,
    const ctxrank::context::ContextAssignment* assignment);

/// Hierarchy-max: for every is_a edge (child c, parent p), every paper in
/// both contexts scores at least as high in p as in c. Counts the pairs
/// compared into `pairs`.
std::string CheckHierarchyMax(const ctxrank::ontology::Ontology& onto,
                              const ctxrank::context::ContextAssignment& a,
                              const ctxrank::context::PrestigeScores& s,
                              size_t* pairs);

/// Roll-up: every child's members are a subset of each parent's. Counts
/// the edges compared into `edges`.
std::string CheckRollUp(const ctxrank::ontology::Ontology& onto,
                        const ctxrank::context::ContextAssignment& a,
                        size_t* edges);

/// An ingest ack: OK, with the next dense id and the matching total.
std::string CheckIngestAck(
    const ctxrank::serve::net::WireAddPaperResponse& ack,
    uint32_t expected_id);

/// Two encoded responses to one query must be the same bytes.
std::string CheckSameAnswer(std::string_view got, std::string_view reference);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
