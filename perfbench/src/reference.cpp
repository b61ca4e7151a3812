#include "reference.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <set>
#include <type_traits>
#include <variant>

namespace perfbench {

namespace {

/// Ranking order of the contest answers.
template <typename E>
bool before(const E& a, const E& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.ts != b.ts) return a.ts > b.ts;
  return a.id < b.id;
}

struct UnionFind {
  std::vector<std::size_t> parent;
  std::vector<std::uint64_t> size;

  explicit UnionFind(std::size_t n) : parent(n), size(n, 1) {
    std::iota(parent.begin(), parent.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size[a] < size[b]) std::swap(a, b);
    parent[b] = a;
    size[a] += size[b];
  }
};

}  // namespace

Reference::Reference(const sm::SocialGraph& g) {
  for (const sm::Post& p : g.posts()) {
    post_slot_.emplace(p.id, posts_.size());
    posts_.push_back({p.id, p.timestamp, 0});
  }
  for (const sm::Comment& c : g.comments()) {
    add_comment(c.id, c.timestamp,
                post_slot_.at(g.post(c.root_post).id));
  }
  for (const sm::User& u : g.users()) {
    for (const sm::DenseId f : u.friends) {
      add_friend(u.id, g.user(f).id);
    }
  }
  for (const sm::Comment& c : g.comments()) {
    const std::size_t slot = comment_slot_.at(c.id);
    for (const sm::DenseId u : c.likers) add_like(g.user(u).id, slot);
  }
  for (std::size_t c = 0; c < comments_.size(); ++c) {
    comments_[c].score = component_score(c);
  }
  dirty_.clear();
}

void Reference::add_comment(sm::NodeId id, sm::Timestamp ts,
                            std::size_t root) {
  comment_slot_.emplace(id, comments_.size());
  comments_.push_back({id, ts, 0});
  info_.push_back({root, {}});
  posts_[root].score += 10;
}

bool Reference::add_like(sm::NodeId user, std::size_t comment) {
  auto& likers = info_[comment].likers;
  if (std::find(likers.begin(), likers.end(), user) != likers.end()) {
    return false;
  }
  likers.push_back(user);
  liked_[user].insert(comment);
  posts_[info_[comment].root].score += 1;
  ++live_likes_;
  dirty_.push_back(comment);
  return true;
}

bool Reference::remove_like(sm::NodeId user, std::size_t comment) {
  auto& likers = info_[comment].likers;
  const auto it = std::find(likers.begin(), likers.end(), user);
  if (it == likers.end()) return false;
  likers.erase(it);
  liked_[user].erase(comment);
  posts_[info_[comment].root].score -= 1;
  --live_likes_;
  dirty_.push_back(comment);
  return true;
}

bool Reference::add_friend(sm::NodeId a, sm::NodeId b) {
  if (a == b || !friends_[a].insert(b).second) return false;
  friends_[b].insert(a);
  mark_shared(a, b);
  return true;
}

bool Reference::remove_friend(sm::NodeId a, sm::NodeId b) {
  const auto it = friends_.find(a);
  if (it == friends_.end() || it->second.erase(b) == 0) return false;
  friends_[b].erase(a);
  mark_shared(a, b);
  return true;
}

void Reference::mark_shared(sm::NodeId a, sm::NodeId b) {
  const auto ia = liked_.find(a);
  const auto ib = liked_.find(b);
  if (ia == liked_.end() || ib == liked_.end()) return;
  const auto& small =
      ia->second.size() <= ib->second.size() ? ia->second : ib->second;
  const auto& large =
      ia->second.size() <= ib->second.size() ? ib->second : ia->second;
  for (const std::size_t c : small) {
    if (large.count(c) != 0) dirty_.push_back(c);
  }
}

void Reference::apply(const sm::ChangeSet& cs) {
  for (const sm::ChangeOp& op : cs.ops) {
    std::visit(
        [&](const auto& o) {
          using T = std::decay_t<decltype(o)>;
          if constexpr (std::is_same_v<T, sm::AddUser>) {
            friends_.try_emplace(o.id);
          } else if constexpr (std::is_same_v<T, sm::AddPost>) {
            post_slot_.emplace(o.id, posts_.size());
            posts_.push_back({o.id, o.timestamp, 0});
          } else if constexpr (std::is_same_v<T, sm::AddComment>) {
            const std::size_t root =
                o.parent_is_comment
                    ? info_[comment_slot_.at(o.parent)].root
                    : post_slot_.at(o.parent);
            add_comment(o.id, o.timestamp, root);
            dirty_.push_back(comments_.size() - 1);
          } else if constexpr (std::is_same_v<T, sm::AddLikes>) {
            add_like(o.user, comment_slot_.at(o.comment));
          } else if constexpr (std::is_same_v<T, sm::RemoveLikes>) {
            remove_like(o.user, comment_slot_.at(o.comment));
          } else if constexpr (std::is_same_v<T, sm::AddFriendship>) {
            add_friend(o.a, o.b);
          } else if constexpr (std::is_same_v<T, sm::RemoveFriendship>) {
            remove_friend(o.a, o.b);
          }
        },
        op);
  }
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  for (const std::size_t c : dirty_) comments_[c].score = component_score(c);
  dirty_.clear();
}

std::uint64_t Reference::component_score(std::size_t comment) const {
  const std::vector<sm::NodeId>& likers = info_[comment].likers;
  if (likers.empty()) return 0;
  std::unordered_map<sm::NodeId, std::size_t> local;
  local.reserve(likers.size() * 2);
  for (std::size_t i = 0; i < likers.size(); ++i) local.emplace(likers[i], i);
  UnionFind uf(likers.size());
  for (std::size_t i = 0; i < likers.size(); ++i) {
    const auto it = friends_.find(likers[i]);
    if (it == friends_.end()) continue;
    const auto& fs = it->second;
    if (fs.size() <= likers.size()) {
      for (const sm::NodeId f : fs) {
        const auto j = local.find(f);
        if (j != local.end()) uf.unite(i, j->second);
      }
    } else {
      for (std::size_t j = 0; j < likers.size(); ++j) {
        if (fs.count(likers[j]) != 0) uf.unite(i, j);
      }
    }
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < likers.size(); ++i) {
    if (uf.find(i) == i) total += uf.size[i] * uf.size[i];
  }
  return total;
}

std::string Reference::top3(const std::vector<Entity>& xs) {
  std::array<const Entity*, 3> best{};
  std::size_t held = 0;
  for (const Entity& e : xs) {
    if (held == 3 && !before(e, *best[2])) continue;
    std::size_t pos = held < 3 ? held++ : 2;
    while (pos > 0 && before(e, *best[pos - 1])) {
      best[pos] = best[pos - 1];
      --pos;
    }
    best[pos] = &e;
  }
  std::string out;
  for (std::size_t i = 0; i < held; ++i) {
    if (i != 0) out.push_back('|');
    out += std::to_string(best[i]->id);
  }
  return out;
}

std::string Reference::q1_answer() const { return top3(posts_); }
std::string Reference::q2_answer() const { return top3(comments_); }

std::optional<std::uint64_t> Reference::q1_score(sm::NodeId post) const {
  const auto it = post_slot_.find(post);
  if (it == post_slot_.end()) return std::nullopt;
  return posts_[it->second].score;
}

std::optional<std::uint64_t> Reference::q2_score(sm::NodeId comment) const {
  const auto it = comment_slot_.find(comment);
  if (it == comment_slot_.end()) return std::nullopt;
  return comments_[it->second].score;
}

std::optional<std::uint64_t> Reference::like_count(sm::NodeId comment) const {
  const auto it = comment_slot_.find(comment);
  if (it == comment_slot_.end()) return std::nullopt;
  return info_[it->second].likers.size();
}

std::string first_mismatch(const std::string& label,
                           const std::vector<std::string>& got,
                           const std::vector<std::string>& want) {
  if (got.size() != want.size()) {
    return label + ": " + std::to_string(got.size()) + " answers, expected " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return label + " epoch " + std::to_string(i) + ": got \"" + got[i] +
             "\", expected \"" + want[i] + "\"";
    }
  }
  return "";
}

bool answer_shape_ok(const std::string& answer, std::size_t entities) {
  std::set<std::string> ids;
  std::size_t count = 0;
  std::size_t start = 0;
  if (!answer.empty()) {
    for (;;) {
      const std::size_t bar = answer.find('|', start);
      const std::string id = answer.substr(start, bar - start);
      if (id.empty() ||
          id.find_first_not_of("0123456789") != std::string::npos) {
        return false;
      }
      ids.insert(id);
      ++count;
      if (bar == std::string::npos) break;
      start = bar + 1;
    }
  }
  const std::size_t expect = std::min<std::size_t>(3, entities);
  return count == expect && ids.size() == count;
}

}  // namespace perfbench
