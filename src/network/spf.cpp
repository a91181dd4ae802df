#include "network/spf.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace onfiber::net {

spf_engine::spf_engine(const topology& topo,
                       std::span<const std::uint8_t> links_up)
    : topo_(&topo), n_(topo.node_count()) {
  const auto& links = topo.links();
  if (links_up.empty()) {
    link_up_.assign(links.size(), 1);
  } else {
    if (links_up.size() != links.size()) {
      throw std::invalid_argument("spf_engine: link_up size mismatch");
    }
    link_up_.assign(links_up.begin(), links_up.end());
  }
  // CSR adjacency, built once (the topology is immutable): each node's
  // arcs in incident_links order, which is ascending link index.
  arc_begin_.reserve(n_ + 1);
  arcs_.reserve(2 * links.size());
  for (node_id v = 0; v < n_; ++v) {
    arc_begin_.push_back(static_cast<std::uint32_t>(arcs_.size()));
    for (const std::size_t li : topo.incident_links(v)) {
      arcs_.push_back(arc{topo.neighbor(v, li),
                          static_cast<std::uint32_t>(li), links[li].delay_s()});
    }
  }
  arc_begin_.push_back(static_cast<std::uint32_t>(arcs_.size()));
  trees_.resize(n_);
  stamp_.assign(n_, 0);
  stamp2_.assign(n_, 0);
}

// ------------------------------------------------------------------ heap

void spf_engine::heap_push(double d, node_id v) {
  heap_.emplace_back(d, v);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

bool spf_engine::heap_pop(double& d, node_id& v) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  d = heap_.back().first;
  v = heap_.back().second;
  heap_.pop_back();
  return true;
}

// ------------------------------------------------------------- tree links

void spf_engine::attach(tree& t, node_id v, node_id p) const {
  if (p == invalid_node) return;
  t.prev_sib[v] = invalid_node;
  t.next_sib[v] = t.first_child[p];
  if (t.first_child[p] != invalid_node) t.prev_sib[t.first_child[p]] = v;
  t.first_child[p] = v;
}

void spf_engine::detach(tree& t, node_id v) const {
  const node_id p = t.parent[v];
  if (p == invalid_node) return;
  if (t.prev_sib[v] != invalid_node) {
    t.next_sib[t.prev_sib[v]] = t.next_sib[v];
  } else {
    t.first_child[p] = t.next_sib[v];
  }
  if (t.next_sib[v] != invalid_node) {
    t.prev_sib[t.next_sib[v]] = t.prev_sib[v];
  }
  t.prev_sib[v] = invalid_node;
  t.next_sib[v] = invalid_node;
}

void spf_engine::mark_dirty(tree& t, node_id src, node_id v) {
  if (t.dirty[v]) return;
  t.dirty[v] = true;
  dirty_pairs_.emplace_back(src, v);
}

bool spf_engine::refresh_first_hop(tree& t, node_id src, node_id v) {
  const node_id p = t.parent[v];
  const node_id fh = p == invalid_node ? invalid_node
                     : p == src        ? v
                                       : t.first_hop[p];
  if (t.first_hop[v] == fh) return false;
  t.first_hop[v] = fh;
  mark_dirty(t, src, v);
  return true;
}

void spf_engine::repair_parent(tree& t, node_id v) const {
  // Canonical argmin over exact-tight predecessors: the neighbor u
  // minimizing (dist[u], u), reached over the lowest-index tight link —
  // identical to what the seed heap's last strict improvement records
  // (see the header contract). Arcs are ordered by link index, so
  // "first candidate kept" is "lowest link index".
  double bd = inf;
  node_id bu = invalid_node;
  std::uint32_t bl = no_link;
  const double dv = t.dist[v];
  if (dv < inf) {
    for (const arc& a : arcs_of(v)) {
      if (link_up_[a.link] == 0) continue;
      const node_id u = a.to;
      const double du = t.dist[u];
      if (du == inf || du + a.weight != dv) continue;
      if (bu == invalid_node || du < bd || (du == bd && u < bu)) {
        bd = du;
        bu = u;
        bl = a.link;
      }
    }
  }
  t.parent[v] = bu;
  t.parent_link[v] = bl;
}

// ------------------------------------------------------------ full build

void spf_engine::build_tree(node_id src, tree& t) {
  t.dist.assign(n_, inf);
  t.parent.assign(n_, invalid_node);
  t.parent_link.assign(n_, no_link);
  t.first_hop.assign(n_, invalid_node);
  t.first_child.assign(n_, invalid_node);
  t.next_sib.assign(n_, invalid_node);
  t.prev_sib.assign(n_, invalid_node);
  t.dirty.assign(n_, false);
  heap_.clear();
  settle_order_.clear();
  t.dist[src] = 0.0;
  heap_push(0.0, src);
  double d = 0.0;
  node_id u = invalid_node;
  while (heap_pop(d, u)) {
    if (d > t.dist[u]) continue;
    settle_order_.push_back(u);
    for (const arc& a : arcs_of(u)) {
      if (link_up_[a.link] == 0) continue;
      const node_id v = a.to;
      const double nd = d + a.weight;
      if (nd < t.dist[v]) {
        t.dist[v] = nd;
        t.parent[v] = u;
        t.parent_link[v] = a.link;
        heap_push(nd, v);
      }
    }
  }
  // Settle order pops parents before children, so first hops chain.
  for (const node_id v : settle_order_) {
    if (v == src) continue;
    attach(t, v, t.parent[v]);
    t.first_hop[v] = t.parent[v] == src ? v : t.first_hop[t.parent[v]];
  }
  t.built = true;
}

void spf_engine::ensure_tree(node_id src) {
  if (src >= n_) throw std::out_of_range("spf_engine: bad node id");
  tree& t = trees_[src];
  if (!t.built) build_tree(src, t);
}

void spf_engine::ensure_all_trees() {
  for (node_id s = 0; s < static_cast<node_id>(n_); ++s) ensure_tree(s);
}

// ----------------------------------------------------------- delta passes

std::uint64_t spf_engine::delta_fail(node_id src, tree& t, const link& l,
                                     std::uint32_t li) {
  node_id root = invalid_node;  // subtree root that lost its parent edge
  if (t.parent_link[l.a] == li) {
    root = l.a;
  } else if (t.parent_link[l.b] == li) {
    root = l.b;
  }
  if (root == invalid_node) {
    // Non-tree edge: the tree path to every node avoids it, so no dist
    // can grow, and no canonical parent used it. Nothing to repair.
    return 0;
  }

  // Affected set = the old subtree under `root`; everything outside
  // keeps its final dist (removals only lengthen paths) and therefore
  // its canonical parent.
  ++epoch_;
  affected_.clear();
  affected_.push_back(root);
  stamp_[root] = epoch_;
  for (std::size_t i = 0; i < affected_.size(); ++i) {
    for (node_id c = t.first_child[affected_[i]]; c != invalid_node;
         c = t.next_sib[c]) {
      stamp_[c] = epoch_;
      affected_.push_back(c);
    }
  }
  detach(t, root);
  for (const node_id v : affected_) {
    t.dist[v] = inf;
    t.parent[v] = invalid_node;
    t.parent_link[v] = no_link;
    t.first_child[v] = invalid_node;
    t.next_sib[v] = invalid_node;
    t.prev_sib[v] = invalid_node;
  }

  // Seed a restricted Dijkstra from the boundary: for each affected
  // node, the best entry over an up link from the intact region.
  heap_.clear();
  settle_order_.clear();
  for (const node_id v : affected_) {
    double best = inf;
    for (const arc& a : arcs_of(v)) {
      if (link_up_[a.link] == 0) continue;
      const node_id u = a.to;
      if (stamp_[u] == epoch_) continue;  // inside the hole
      const double du = t.dist[u];
      if (du == inf) continue;
      const double cand = du + a.weight;
      if (cand < best) best = cand;
    }
    if (best < inf) {
      t.dist[v] = best;
      heap_push(best, v);
    }
  }
  double d = 0.0;
  node_id u = invalid_node;
  while (heap_pop(d, u)) {
    if (d > t.dist[u]) continue;
    settle_order_.push_back(u);
    for (const arc& a : arcs_of(u)) {
      if (link_up_[a.link] == 0) continue;
      const node_id v = a.to;
      if (stamp_[v] != epoch_) continue;  // outside: dist already final
      const double nd = d + a.weight;
      if (nd < t.dist[v]) {
        t.dist[v] = nd;
        heap_push(nd, v);
      }
    }
  }

  // Finalize in settle order — ascending (dist, id), so every node's
  // canonical parent (strictly smaller (dist, id)) is final first.
  std::uint64_t touched = 0;
  for (const node_id v : settle_order_) {
    repair_parent(t, v);
    attach(t, v, t.parent[v]);
    if (refresh_first_hop(t, src, v)) ++touched;
  }
  for (const node_id v : affected_) {
    if (t.dist[v] == inf && refresh_first_hop(t, src, v)) ++touched;
  }
  return touched;
}

std::uint64_t spf_engine::delta_restore(node_id src, tree& t, const link& l,
                                        double w) {
  ++epoch_;
  heap_.clear();
  settle_order_.clear();
  pdirty_.clear();
  fh_queue_.clear();

  // Seed both endpoints. A strict improvement propagates (incremental
  // Dijkstra); exact equality means the endpoint gained a new tight
  // predecessor, which can move its canonical parent without moving its
  // dist.
  const auto seed = [&](node_id x, node_id o) {
    const double dn = t.dist[o];
    if (dn == inf) return;
    const double nd = dn + w;
    if (nd < t.dist[x]) {
      t.dist[x] = nd;
      stamp_[x] = epoch_;
      heap_push(nd, x);
    } else if (nd == t.dist[x] && x != src && stamp2_[x] != epoch_) {
      stamp2_[x] = epoch_;
      pdirty_.push_back(x);
    }
  };
  seed(l.a, l.b);
  seed(l.b, l.a);
  if (heap_.empty() && pdirty_.empty()) return 0;

  double d = 0.0;
  node_id u = invalid_node;
  while (heap_pop(d, u)) {
    if (d > t.dist[u]) continue;
    settle_order_.push_back(u);
    for (const arc& a : arcs_of(u)) {
      if (link_up_[a.link] == 0) continue;
      const node_id v = a.to;
      const double nd = d + a.weight;
      if (nd < t.dist[v]) {
        t.dist[v] = nd;
        stamp_[v] = epoch_;
        heap_push(nd, v);
      } else if (nd == t.dist[v] && v != src && stamp_[v] != epoch_ &&
                 stamp2_[v] != epoch_) {
        // u's dist just dropped, making it a NEW tight predecessor of a
        // node whose dist is unchanged: parent may need recomputing.
        stamp2_[v] = epoch_;
        pdirty_.push_back(v);
      }
    }
  }

  // Improved nodes in settle order (ascending (dist, id)): canonical
  // parents finalize before their children.
  std::uint64_t touched = 0;
  for (const node_id v : settle_order_) {
    detach(t, v);
    repair_parent(t, v);
    attach(t, v, t.parent[v]);
    if (refresh_first_hop(t, src, v)) {
      fh_queue_.push_back(v);
      ++touched;
    }
  }
  // Equality-tight nodes, same order; a parent-dirty chain (v's new
  // parent itself parent-dirty) resolves parents-first because the
  // canonical parent has strictly smaller (dist, id).
  std::sort(pdirty_.begin(), pdirty_.end(), [&](node_id a, node_id b) {
    if (t.dist[a] != t.dist[b]) return t.dist[a] < t.dist[b];
    return a < b;
  });
  for (const node_id v : pdirty_) {
    if (stamp_[v] == epoch_) continue;  // improved: already finalized
    detach(t, v);
    repair_parent(t, v);
    attach(t, v, t.parent[v]);
    if (refresh_first_hop(t, src, v)) {
      fh_queue_.push_back(v);
      ++touched;
    }
  }
  // A changed first hop invalidates the whole subtree below it; untouched
  // descendants still hold the old value. Walk down, pruning branches
  // already consistent.
  touched += propagate_first_hops(t, src);
  return touched;
}

std::uint64_t spf_engine::propagate_first_hops(tree& t, node_id src) {
  std::uint64_t touched = 0;
  for (std::size_t i = 0; i < fh_queue_.size(); ++i) {
    const node_id x = fh_queue_[i];
    const node_id fx = t.first_hop[x];
    for (node_id c = t.first_child[x]; c != invalid_node; c = t.next_sib[c]) {
      const node_id want = x == src ? c : fx;
      if (t.first_hop[c] == want) continue;  // subtree already consistent
      t.first_hop[c] = want;
      mark_dirty(t, src, c);
      ++touched;
      fh_queue_.push_back(c);
    }
  }
  return touched;
}

std::uint64_t spf_engine::set_link_state(std::size_t link_index, bool up) {
  if (link_index >= link_up_.size()) {
    throw std::out_of_range("spf_engine: bad link index");
  }
  if ((link_up_[link_index] != 0) == up) return 0;
  link_up_[link_index] = up ? 1 : 0;
  const link& l = topo_->links()[link_index];
  const auto li = static_cast<std::uint32_t>(link_index);
  const double w = l.delay_s();
  std::uint64_t touched = 0;
  for (node_id s = 0; s < static_cast<node_id>(n_); ++s) {
    tree& t = trees_[s];
    if (!t.built) continue;
    touched += up ? delta_restore(s, t, l, w) : delta_fail(s, t, l, li);
  }
  return touched;
}

// --------------------------------------------------------------- queries

double spf_engine::dist(node_id src, node_id dst) {
  ensure_tree(src);
  if (dst >= n_) throw std::out_of_range("spf_engine: bad node id");
  return trees_[src].dist[dst];
}

node_id spf_engine::first_hop(node_id src, node_id dst) {
  ensure_tree(src);
  if (dst >= n_) throw std::out_of_range("spf_engine: bad node id");
  return trees_[src].first_hop[dst];
}

node_id spf_engine::parent(node_id src, node_id v) {
  ensure_tree(src);
  if (v >= n_) throw std::out_of_range("spf_engine: bad node id");
  return trees_[src].parent[v];
}

std::uint32_t spf_engine::parent_link(node_id src, node_id v) {
  ensure_tree(src);
  if (v >= n_) throw std::out_of_range("spf_engine: bad node id");
  return trees_[src].parent_link[v];
}

std::vector<node_id> spf_engine::path(node_id src, node_id dst) {
  ensure_tree(src);
  if (dst >= n_) throw std::out_of_range("spf_engine: bad node id");
  const tree& t = trees_[src];
  if (src != dst && t.dist[dst] == inf) return {};
  std::vector<node_id> p;
  for (node_id at = dst; at != invalid_node; at = t.parent[at]) {
    p.push_back(at);
    if (at == src) break;
  }
  std::reverse(p.begin(), p.end());
  return p;
}

// ---------------------------------------------------------- dirty routes

void spf_engine::drain_dirty(const std::function<void(node_id, node_id)>& fn) {
  for (const auto& [s, v] : dirty_pairs_) {
    trees_[s].dirty[v] = false;
    fn(s, v);
  }
  dirty_pairs_.clear();
}

void spf_engine::clear_dirty() {
  for (const auto& [s, v] : dirty_pairs_) trees_[s].dirty[v] = false;
  dirty_pairs_.clear();
}

}  // namespace onfiber::net
