// The stationary edit stream the serve workloads commit. Each batch is 32
// protocol edit lines drawn against the live graph's current (clean) state:
//
//   - corruptions the KG rules repair: one-way knows / spouse edges between
//     two persons with no such edge yet (knows_symmetric / spouse_symmetric
//     add the reverse), a second born_in for a person (one_birthplace
//     deletes one of the two), a cleared is_capital (capital_flag restores
//     it);
//   - benign removals of whole knows / spouse pairs, which offset the edges
//     the symmetric repairs add.
//
// Per batch the adds and pair removals balance label by label, so |V| and
// |E| stay put however long the stream runs and the cost of an op does not
// depend on run length. Element ids are read from the live graph for every
// batch, because a checkpoint compacts edge ids.
#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace perfbench {

/// The repair one corruption should get, checked on the live graph after
/// its batch committed.
struct Fact {
  enum class Kind {
    kEdgePresent,   ///< edge a-[label]->b exists (a symmetric edge added)
    kEdgeReverted,  ///< a-[label]->b is gone and a-[label]->c is kept
    kAttrEquals,    ///< node a's attr equals value
  };
  Kind kind = Kind::kEdgePresent;
  grepair::NodeId a = grepair::kInvalidNode;
  grepair::NodeId b = grepair::kInvalidNode;
  grepair::NodeId c = grepair::kInvalidNode;
  grepair::SymbolId label = 0;
  grepair::SymbolId value = 0;
};

struct StreamBatch {
  std::vector<std::string> lines;  ///< 32 edit lines, then the caller commits
  std::vector<Fact> facts;         ///< one per corruption
};

class EditStream {
 public:
  EditStream(uint64_t seed, const grepair::KgSchema& schema)
      : rng_(seed), s_(schema) {}

  /// Draws the next batch against `g`, which must be clean (every
  /// knows / spouse edge paired, one born_in per person, capitals flagged).
  StreamBatch Next(const grepair::Graph& g);

  /// True when the repair `f` describes happened in `g`.
  bool Holds(const grepair::Graph& g, const Fact& f) const;

 private:
  grepair::NodeId PickPerson();
  void Refresh(const grepair::Graph& g);

  grepair::Rng rng_;
  grepair::KgSchema s_;
  /// Sorted ids by role, re-read whenever the node count moves. The stream
  /// removes no nodes, so on a graph without id gaps no checkpoint moves
  /// them.
  std::vector<grepair::NodeId> persons_;
  std::vector<grepair::NodeId> cities_;
  size_t seen_nodes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_
