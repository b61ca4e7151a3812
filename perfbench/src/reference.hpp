// Independent correctness reference for the benchmark: a plain Q1/Q2
// recomputation over hash maps and a union-find, written from the query
// definitions alone. It shares no code with src/queries, src/nmf or src/grb
// — it reads the generated SocialGraph and change sets and nothing else —
// so an answer that both it and the engine agree on was reached twice, by
// unrelated paths.
//
//   Q1 score(post)    = 10 · #comments under the post + #likes on them
//   Q2 score(comment) = Σ (component size)² over the friendship subgraph
//                       induced by the comment's likers
//   answer            = the 3 best ids, score desc, then newer timestamp,
//                       then smaller id, joined by '|'
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "model/change.hpp"
#include "model/social_graph.hpp"

namespace perfbench {

class Reference {
 public:
  explicit Reference(const sm::SocialGraph& g);

  /// Applies one change set, op by op, then rescores every comment whose
  /// likers or likers' friendships it touched.
  void apply(const sm::ChangeSet& cs);

  [[nodiscard]] std::string q1_answer() const;
  [[nodiscard]] std::string q2_answer() const;

  [[nodiscard]] std::size_t num_posts() const { return posts_.size(); }
  [[nodiscard]] std::size_t num_comments() const { return comments_.size(); }
  [[nodiscard]] std::uint64_t live_likes() const { return live_likes_; }

  /// Current scores and like counts by external id (nullopt: unknown id).
  [[nodiscard]] std::optional<std::uint64_t> q1_score(sm::NodeId post) const;
  [[nodiscard]] std::optional<std::uint64_t> q2_score(
      sm::NodeId comment) const;
  [[nodiscard]] std::optional<std::uint64_t> like_count(
      sm::NodeId comment) const;

 private:
  struct Entity {
    sm::NodeId id = 0;
    sm::Timestamp ts = 0;
    std::uint64_t score = 0;
  };
  struct CommentInfo {
    std::size_t root = 0;              // slot of the root post
    std::vector<sm::NodeId> likers;    // unordered, unique
  };

  void add_comment(sm::NodeId id, sm::Timestamp ts, std::size_t root);
  bool add_like(sm::NodeId user, std::size_t comment);
  bool remove_like(sm::NodeId user, std::size_t comment);
  bool add_friend(sm::NodeId a, sm::NodeId b);
  bool remove_friend(sm::NodeId a, sm::NodeId b);
  /// Marks every comment both users like (their friendship lies inside it).
  void mark_shared(sm::NodeId a, sm::NodeId b);
  [[nodiscard]] std::uint64_t component_score(std::size_t comment) const;
  [[nodiscard]] static std::string top3(const std::vector<Entity>& xs);

  std::vector<Entity> posts_;
  std::vector<Entity> comments_;
  std::vector<CommentInfo> info_;
  std::unordered_map<sm::NodeId, std::size_t> post_slot_;
  std::unordered_map<sm::NodeId, std::size_t> comment_slot_;
  std::unordered_map<sm::NodeId, std::unordered_set<sm::NodeId>> friends_;
  std::unordered_map<sm::NodeId, std::unordered_set<std::size_t>> liked_;
  std::uint64_t live_likes_ = 0;
  std::vector<std::size_t> dirty_;
};

/// "" when the two answer sequences are equal, else a description of the
/// first difference (label names the sequence in the message).
std::string first_mismatch(const std::string& label,
                           const std::vector<std::string>& got,
                           const std::vector<std::string>& want);

/// True when `answer` lists exactly min(3, entities) distinct ids.
bool answer_shape_ok(const std::string& answer, std::size_t entities);

}  // namespace perfbench
