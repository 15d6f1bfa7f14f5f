// Package blocked implements the paper's blocked Bloom filter family (§3)
// behind a single parameterized implementation:
//
//   - plain blocked (Putze et al.): block = cache line, each of the k bits
//     addressed anywhere in the block (Listing 1);
//   - register-blocked (§3.1, new in the paper): block = one processor word,
//     all k bits tested with a single comparison (Listing 2);
//   - sectorized (§3.2): the block is divided into s = B/S word-sized
//     sectors and each key sets k/s bits in every sector, giving a
//     sequential access pattern and word-at-a-time bit tests;
//   - cache-sectorized (§3.2, new in the paper): the s sectors are grouped
//     into z groups; a key selects one sector per group (by hash) and sets
//     k/z bits there, spreading bits over the whole cache line while
//     accessing only z words.
//
// The block partitioning of the cache-sectorized variant (the paper's
// Figure 6) for B=512, S=64, z=2:
//
//	block (512 bits = 1 cache line)
//	┌────────────────────────────┬────────────────────────────┐
//	│   group Z0: S0 S1 S2 S3    │   group Z1: S4 S5 S6 S7    │
//	└────────────────────────────┴────────────────────────────┘
//	 insert/lookup: pick one Si per group, set/test k/z bits in it
//
// All variants share one hash-bit consumption discipline (package hashing),
// so the scalar path, the batch kernels, and the analytic FPR models in
// package fpr agree bit-for-bit. Block addressing is either a power-of-two
// mask or magic modulo (package magic), selectable per filter.
//
// Filters are safe for concurrent readers; inserts require external
// synchronization. Memory is allocated in whole blocks; Go's allocator
// places the backing array on a cache line for all but the tiniest
// filters (every slice size of 512 bytes or more measured on amd64), so
// blocks do not straddle cache lines in practice.
package blocked
