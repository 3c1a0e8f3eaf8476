// Work-efficient list ranking, the primitive behind the Euler-tour
// technique (Tarjan–Vishkin, Theorem 4 of the paper).
//
// Given a linked list as a successor array, computes for each node its
// distance to the list tail and, on request, the head of its list. Sublist
// contraction: every list head, plus about one node in kSublistBlock chosen
// by a fixed hash of its id, starts a sublist. The sublists are walked in
// parallel, the short list of sublists is ranked per list, and one parallel
// pass adds each sublist's offset to its nodes. O(n) work and
// O(n / kSublistBlock + kSublistBlock · log n) depth w.h.p.; no shared flag,
// no per-round buffers. The splitter choice only balances the load: the
// output is the same at every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pardfs::pram {

inline constexpr std::uint32_t kListEnd = 0xFFFFFFFFu;

// Expected sublist length when the list is split for parallel walking
// (power of two; lists below kSerialGrain nodes are walked whole).
inline constexpr std::size_t kSublistBlock = 256;

// next[i] = successor of i, or kListEnd for the tail.
// Returns rank[i] = number of links from i to the tail (tail has rank 0).
// If `head` is non-null it is resized to next.size() and head[i] is set to
// the first node of i's list. Every node must reach a tail (no cycles) and
// have at most one predecessor; multiple disjoint lists are fine.
std::vector<std::uint32_t> list_rank(std::span<const std::uint32_t> next,
                                     std::vector<std::uint32_t>* head = nullptr);

}  // namespace pardfs::pram
