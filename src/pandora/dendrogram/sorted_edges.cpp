#include "pandora/dendrogram/sorted_edges.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "pandora/common/expect.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/exec/sort.hpp"
#include "pandora/graph/tree.hpp"

namespace pandora::dendrogram {

namespace {

using exec::mix_fingerprint;

/// Id bits the packed sort needs for n edges: ids replace the low
/// `id_bits` bits of the weight key, so at 1M edges (20 bits) the packed
/// word keeps a 44-bit key prefix.
int packed_id_bits(size_type n) {
  return n > 1 ? std::bit_width(static_cast<std::uint64_t>(n - 1)) : 0;
}

/// Repairs runs of equal key prefixes whose weights differ below the prefix:
/// after the prefix sort such a run is in ascending id order, but the
/// canonical order continues through the remaining weight-key bits first.
/// Exact ties (identical weights) have identical full keys, so their runs
/// are left untouched and keep the stable ascending-id tie-break.
///
/// Two passes keep the repair race-free: a read-only pass marks each
/// repair-run start with its end position, then a second pass sorts the
/// (disjoint) marked runs.  Total scan work is O(n) — each element belongs to
/// exactly one run, walked by the run's first entry.  Runs are not rare at
/// short prefixes (a 32-bit one put 24% of a 1M-point Normal2D MR-MST in
/// them), which is why packed_id_bits keeps the prefix as long as it can.
///
/// Returns false without repairing when the marked runs cover most of the
/// array: weights so tightly clustered that the prefix separates almost
/// nothing would turn the repair into one big serial comparison sort, so the
/// caller falls back to the exact two-pass radix argsort instead.
[[nodiscard]] bool repair_prefix_collisions(const exec::Executor& exec,
                                            std::span<std::uint64_t> packed,
                                            const graph::EdgeList& edges, int id_bits) {
  const size_type n = static_cast<size_type>(packed.size());
  auto run_end_lease = exec.workspace().take_uninit<size_type>(n);
  const std::span<size_type> run_end = run_end_lease.span();
  const std::uint64_t id_mask = (std::uint64_t{1} << id_bits) - 1;
  const auto prefix_of = [&](size_type p) { return packed[static_cast<std::size_t>(p)] >> id_bits; };
  const auto key_of = [&](std::uint64_t word) {
    return exec::descending_weight_key(edges[static_cast<std::size_t>(word & id_mask)].weight);
  };

  // Pass 1 (reads packed, writes only run_end[p]): find runs needing repair.
  exec::parallel_for(exec, n, [&](size_type p) {
    run_end[static_cast<std::size_t>(p)] = 0;  // 0 = nothing to repair here
    const std::uint64_t prefix = prefix_of(p);
    if (p > 0 && prefix_of(p - 1) == prefix) return;
    size_type end = p + 1;
    while (end < n && prefix_of(end) == prefix) ++end;
    if (end - p < 2) return;
    const std::uint64_t first = key_of(packed[static_cast<std::size_t>(p)]);
    for (size_type q = p + 1; q < end; ++q) {
      if (key_of(packed[static_cast<std::size_t>(q)]) != first) {
        run_end[static_cast<std::size_t>(p)] = end;
        return;
      }
    }
  });

  const size_type total_repair = exec::parallel_sum(
      exec, n, size_type{0}, [&](size_type p) {
        const size_type end = run_end[static_cast<std::size_t>(p)];
        return end == 0 ? size_type{0} : end - p;
      });
  if (2 * total_repair > n) return false;  // degenerate: prefixes separate nothing

  // Pass 2: sort each marked run; runs are disjoint, so writes never overlap
  // and every read stays within the writer's own run.
  exec::parallel_for(exec, n, [&](size_type p) {
    const size_type end = run_end[static_cast<std::size_t>(p)];
    if (end == 0) return;
    std::sort(packed.begin() + p, packed.begin() + end,
              [&](std::uint64_t a, std::uint64_t b) {
                const std::uint64_t ka = key_of(a);
                const std::uint64_t kb = key_of(b);
                if (ka != kb) return ka < kb;
                return (a & id_mask) < (b & id_mask);
              });
  });
  return true;
}

/// The key-packed radix argsort: writes the descending-(weight, id)
/// permutation of `edges` into `order`.  The main path radix-sorts the key
/// prefix packed with the edge id (see packed_id_bits) and repairs the runs
/// whose weights differ below the prefix.  When the repair declines
/// (degenerate prefixes), an exact LSD argsort over the full 64-bit key runs
/// instead: pass 1 sorts (low key half, id) words, pass 2 sorts (high key
/// half, pass-1 rank) words, so stability carries the low half and the id
/// tie-break through the high-half pass.
void radix_argsort(const exec::Executor& exec, const graph::EdgeList& edges,
                   std::span<index_t> order) {
  const size_type n = static_cast<size_type>(edges.size());
  auto packed_lease = exec.workspace().take_uninit<std::uint64_t>(n);
  const std::span<std::uint64_t> packed = packed_lease.span();
  const auto key_of = [&](size_type i) {
    return exec::descending_weight_key(edges[static_cast<std::size_t>(i)].weight);
  };
  const int id_bits = packed_id_bits(n);
  exec::parallel_for(exec, n, [&](size_type i) {
    packed[static_cast<std::size_t>(i)] =
        exec::pack_key_and_id(key_of(i), static_cast<index_t>(i), id_bits);
  });
  // Radix from the first byte that holds key bits; the id bits radixed along
  // with them, and stability over the rest, keep the ascending-id tie-break
  // (ids were packed in ascending order).
  exec::radix_sort_u64(exec, packed, /*first_byte=*/id_bits / 8, /*last_byte=*/8);
  if (!repair_prefix_collisions(exec, packed, edges, id_bits)) {
    exec::parallel_for(exec, n, [&](size_type i) {
      packed[static_cast<std::size_t>(i)] = (key_of(i) << 32) | static_cast<std::uint32_t>(i);
    });
    exec::radix_sort_u64(exec, packed, /*first_byte=*/4, /*last_byte=*/8);
    // `order` holds the id at each pass-1 rank while pass 2 sorts the ranks.
    exec::parallel_for(exec, n, [&](size_type r) {
      const auto id = static_cast<index_t>(packed[static_cast<std::size_t>(r)] & 0xffffffffu);
      order[static_cast<std::size_t>(r)] = id;
      packed[static_cast<std::size_t>(r)] =
          exec::pack_key_and_id(key_of(id), static_cast<index_t>(r), 32);
    });
    exec::radix_sort_u64(exec, packed, /*first_byte=*/4, /*last_byte=*/8);
    exec::parallel_for(exec, n, [&](size_type i) {
      auto& word = packed[static_cast<std::size_t>(i)];
      word = static_cast<std::uint32_t>(order[static_cast<std::size_t>(word & 0xffffffffu)]);
    });
  }
  // Both paths leave an id below 2^id_bits in the low bits of each word.
  const std::uint64_t id_mask = (std::uint64_t{1} << id_bits) - 1;
  exec::parallel_for(exec, n, [&](size_type i) {
    order[static_cast<std::size_t>(i)] =
        static_cast<index_t>(packed[static_cast<std::size_t>(i)] & id_mask);
  });
}

/// A sorted-edges artifact plus its validation state, as stored in the
/// Executor's ArtifactCache.  The flag is atomic because cached artifacts may
/// be shared by concurrent batch queries (see the ArtifactCache locking
/// contract): validation is monotone (false -> true), so a racy double
/// validation is merely redundant work.
struct CachedSortedEdges {
  SortedEdges sorted;
  std::atomic<bool> validated{false};
};

}  // namespace

void sort_edges_into(const exec::Executor& exec, const graph::EdgeList& edges,
                     index_t num_vertices, SortedEdges& out) {
  const size_type n = static_cast<size_type>(edges.size());
  out.num_vertices = num_vertices;
  out.u.resize(static_cast<std::size_t>(n));
  out.v.resize(static_cast<std::size_t>(n));
  out.weight.resize(static_cast<std::size_t>(n));
  out.order.resize(static_cast<std::size_t>(n));

  radix_argsort(exec, edges, out.order);

  // Gather endpoints and weights once from the permutation (never sort
  // structs: the sort moved 8-byte words only).
  exec::parallel_for(exec, n, [&](size_type i) {
    const auto& e = edges[static_cast<std::size_t>(out.order[static_cast<std::size_t>(i)])];
    out.u[static_cast<std::size_t>(i)] = e.u;
    out.v[static_cast<std::size_t>(i)] = e.v;
    out.weight[static_cast<std::size_t>(i)] = e.weight;
  });
}

SortedEdges sort_edges(const exec::Executor& exec, const graph::EdgeList& edges,
                       index_t num_vertices, bool validate_input) {
  if (validate_input) graph::validate_tree(edges, num_vertices);
  SortedEdges sorted;
  sort_edges_into(exec, edges, num_vertices, sorted);
  return sorted;
}

void merge_sorted_edges_delta(const exec::Executor& exec, const SortedEdges& base,
                              std::span<const char> keep, const graph::EdgeList& added,
                              std::span<const index_t> vertex_remap, index_t num_vertices,
                              SortedEdges& out) {
  PANDORA_EXPECT(&out != &base, "merge_sorted_edges_delta output must not alias its input");
  PANDORA_EXPECT(static_cast<index_t>(keep.size()) == base.num_edges(),
                 "one keep flag per original edge required");
  const size_type e_base = static_cast<size_type>(base.num_edges());
  const size_type e_added = static_cast<size_type>(added.size());

  // New dense index of every surviving original edge: its rank among the
  // survivors in original order (ties between survivors keep their relative
  // sorted order because the renumbering is monotone).
  auto rank_lease = exec.workspace().take_uninit<index_t>(e_base);
  const std::span<index_t> rank = rank_lease.span();
  index_t num_kept = 0;
  for (size_type i = 0; i < e_base; ++i)
    rank[static_cast<std::size_t>(i)] = keep[static_cast<std::size_t>(i)] != 0 ? num_kept++ : kNone;

  // The added run, sorted descending-(weight, position): positions continue
  // after the survivors, so on exact ties a survivor always precedes an
  // added edge and the merge below can break ties by run.
  auto added_order_lease = exec.workspace().take_uninit<index_t>(e_added);
  const std::span<index_t> added_order = added_order_lease.span();
  radix_argsort(exec, added, added_order);

  const size_type e_out = static_cast<size_type>(num_kept) + e_added;
  out.num_vertices = num_vertices;
  out.u.resize(static_cast<std::size_t>(e_out));
  out.v.resize(static_cast<std::size_t>(e_out));
  out.weight.resize(static_cast<std::size_t>(e_out));
  out.order.resize(static_cast<std::size_t>(e_out));

  const auto remap = [&](index_t vertex) {
    return vertex_remap.empty() ? vertex : vertex_remap[static_cast<std::size_t>(vertex)];
  };

  // One linear merge of the two descending runs.  `i` walks base's sorted
  // positions (skipping dropped edges), `j` walks the sorted added run; on a
  // weight tie the surviving base edge wins (smaller new index).
  size_type i = 0, j = 0, o = 0;
  const auto next_survivor = [&] {
    while (i < e_base && keep[static_cast<std::size_t>(
                             base.order[static_cast<std::size_t>(i)])] == 0)
      ++i;
    return i < e_base;
  };
  while (true) {
    const bool has_base = next_survivor();
    const bool has_added = j < e_added;
    if (!has_base && !has_added) break;
    bool take_base;
    if (has_base && has_added) {
      const double wb = base.weight[static_cast<std::size_t>(i)];
      const double wa =
          added[static_cast<std::size_t>(added_order[static_cast<std::size_t>(j)])].weight;
      take_base = wb >= wa;
    } else {
      take_base = has_base;
    }
    const auto slot = static_cast<std::size_t>(o++);
    if (take_base) {
      const auto pos = static_cast<std::size_t>(i++);
      out.u[slot] = remap(base.u[pos]);
      out.v[slot] = remap(base.v[pos]);
      out.weight[slot] = base.weight[pos];
      out.order[slot] = rank[static_cast<std::size_t>(base.order[pos])];
    } else {
      const auto a = static_cast<std::size_t>(added_order[static_cast<std::size_t>(j++)]);
      const graph::WeightedEdge& edge = added[a];
      out.u[slot] = edge.u;
      out.v[slot] = edge.v;
      out.weight[slot] = edge.weight;
      out.order[slot] = num_kept + static_cast<index_t>(a);
    }
  }
}

std::uint64_t mst_fingerprint(const exec::Executor& exec, const graph::EdgeList& edges,
                              index_t num_vertices) {
  const size_type n = static_cast<size_type>(edges.size());
  // Each edge hashes with its position, so the sum is order-sensitive while
  // remaining a deterministic parallel reduction.
  const std::uint64_t body = exec::parallel_sum(
      exec, n, std::uint64_t{0}, [&](size_type i) {
        const auto& e = edges[static_cast<std::size_t>(i)];
        const std::uint64_t endpoints =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.u)) << 32) |
            static_cast<std::uint32_t>(e.v);
        const std::uint64_t salted =
            std::bit_cast<std::uint64_t>(e.weight) +
            0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
        return mix_fingerprint(endpoints ^ mix_fingerprint(salted));
      });
  return mix_fingerprint(
      body ^ mix_fingerprint(static_cast<std::uint64_t>(n)) ^
      mix_fingerprint(~static_cast<std::uint64_t>(static_cast<std::uint32_t>(num_vertices))));
}

std::shared_ptr<const SortedEdges> sorted_edges_cached(const exec::Executor& exec,
                                                       const graph::EdgeList& edges,
                                                       index_t num_vertices,
                                                       bool validate_input) {
  if (!exec.artifact_caching()) {
    if (validate_input) graph::validate_tree(edges, num_vertices);
    auto owned = std::make_shared<CachedSortedEdges>();
    owned->validated = validate_input;
    sort_edges_into(exec, edges, num_vertices, owned->sorted);
    const SortedEdges* view = &owned->sorted;
    return {std::move(owned), view};
  }

  const std::uint64_t fingerprint = mst_fingerprint(exec, edges, num_vertices);
  std::shared_ptr<CachedSortedEdges> entry =
      exec.artifact_cache().find<CachedSortedEdges>(fingerprint);
  if (entry == nullptr) {
    if (validate_input) graph::validate_tree(edges, num_vertices);
    entry = std::make_shared<CachedSortedEdges>();
    entry->validated = validate_input;
    sort_edges_into(exec, edges, num_vertices, entry->sorted);
    exec.artifact_cache().insert(fingerprint, entry);
  } else if (validate_input && !entry->validated) {
    graph::validate_tree(edges, num_vertices);
    entry->validated = true;
  }
  const SortedEdges* view = &entry->sorted;
  return {std::move(entry), view};
}

}  // namespace pandora::dendrogram
