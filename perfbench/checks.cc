#include "checks.h"

#include <algorithm>
#include <unordered_set>

namespace perfbench {

using ctxrank::StatusCode;

std::string CheckSearchResponse(
    const ctxrank::serve::net::WireResponse& r, size_t top_k,
    const ctxrank::context::ContextAssignment* assignment) {
  if (r.code != StatusCode::kOk) return "status not OK: " + r.message;
  if (r.degraded) return "degraded response";
  if (!r.skipped_contexts.empty()) return "skipped contexts";
  if (!r.skipped_shards.empty()) return "skipped shards";
  if (r.hits.size() > top_k) return "more hits than top_k";
  std::unordered_set<uint32_t> papers;
  for (size_t i = 0; i < r.hits.size(); ++i) {
    const auto& h = r.hits[i];
    if (!papers.insert(h.paper).second) {
      return "paper " + std::to_string(h.paper) + " listed twice";
    }
    if (i > 0) {
      const auto& prev = r.hits[i - 1];
      if (prev.relevancy < h.relevancy ||
          (prev.relevancy == h.relevancy && prev.paper > h.paper)) {
        return "hits out of order at rank " + std::to_string(i);
      }
    }
    if (assignment != nullptr) {
      if (h.context >= assignment->num_terms()) return "hit context unknown";
      const auto members = assignment->Members(h.context);
      if (!std::binary_search(members.begin(), members.end(), h.paper)) {
        return "paper " + std::to_string(h.paper) + " is not in context " +
               std::to_string(h.context);
      }
    }
  }
  return "";
}

std::string CheckHierarchyMax(const ctxrank::ontology::Ontology& onto,
                              const ctxrank::context::ContextAssignment& a,
                              const ctxrank::context::PrestigeScores& s,
                              size_t* pairs) {
  *pairs = 0;
  for (const auto& child : onto.terms()) {
    if (child.id >= a.num_terms() || !s.HasScores(child.id)) continue;
    const auto cm = a.Members(child.id);
    const auto cs = s.Scores(child.id);
    for (const auto parent : child.parents) {
      if (parent >= a.num_terms() || !s.HasScores(parent)) continue;
      const auto pm = a.Members(parent);
      const auto ps = s.Scores(parent);
      // Both member lists are sorted: walk them together.
      size_t i = 0, j = 0;
      while (i < cm.size() && j < pm.size()) {
        if (cm[i] < pm[j]) {
          ++i;
        } else if (pm[j] < cm[i]) {
          ++j;
        } else {
          ++*pairs;
          if (ps[j] < cs[i]) {
            return "paper " + std::to_string(cm[i]) + " scores higher in " +
                   child.accession + " than in its parent";
          }
          ++i;
          ++j;
        }
      }
    }
  }
  return "";
}

std::string CheckRollUp(const ctxrank::ontology::Ontology& onto,
                        const ctxrank::context::ContextAssignment& a,
                        size_t* edges) {
  *edges = 0;
  for (const auto& child : onto.terms()) {
    if (child.id >= a.num_terms()) continue;
    const auto cm = a.Members(child.id);
    for (const auto parent : child.parents) {
      if (parent >= a.num_terms()) return "parent context unknown";
      ++*edges;
      const auto pm = a.Members(parent);
      if (!std::includes(pm.begin(), pm.end(), cm.begin(), cm.end())) {
        return "members of " + child.accession + " not rolled up";
      }
    }
  }
  return "";
}

std::string CheckIngestAck(
    const ctxrank::serve::net::WireAddPaperResponse& ack,
    uint32_t expected_id) {
  if (ack.code != StatusCode::kOk) return "ingest failed: " + ack.message;
  if (ack.paper_id != expected_id) {
    return "ingest id " + std::to_string(ack.paper_id) + ", expected " +
           std::to_string(expected_id);
  }
  if (ack.num_papers != expected_id + 1) return "paper count off after ingest";
  return "";
}

std::string CheckSameAnswer(std::string_view got, std::string_view reference) {
  if (got == reference) return "";
  return "answer differs from its reference (" + std::to_string(got.size()) +
         " vs " + std::to_string(reference.size()) + " bytes)";
}

}  // namespace perfbench
