// Probe-kernel correctness (docs/probe_kernel.md): the batched SIMD hash
// must be bit-identical to the scalar chain on every width/count, and the
// single-record and batched paths must resolve identical bucket sequences.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "dsms/lfta_hash_table.h"
#include "util/hash.h"
#include "util/simd_hash.h"

namespace streamagg {
namespace {

// ---------------------------------------------------------------------------
// HashWordsBatch vs. the scalar chain. The dispatched tier is fixed per
// process (whatever the host CPU supports, capped by STREAMAGG_SIMD); CI
// additionally runs this binary with STREAMAGG_SIMD=scalar and =sse2 so
// every tier is exercised somewhere.

TEST(SimdHashTest, BatchMatchesScalarForAllWidthsAndCounts) {
  std::mt19937_64 rng(0xbead5eed);
  for (int width = 1; width <= kMaxAttributes; ++width) {
    // Counts straddle every lane boundary: empty, sub-lane, odd, block-size
    // multiples and a large odd remainder.
    for (const size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{16},
                               size_t{17}, size_t{64}, size_t{67}}) {
      std::vector<std::vector<uint32_t>> storage(
          static_cast<size_t>(width), std::vector<uint32_t>(count + 1));
      std::vector<const uint32_t*> cols(static_cast<size_t>(width));
      for (int w = 0; w < width; ++w) {
        for (size_t j = 0; j < count; ++j) {
          storage[static_cast<size_t>(w)][j] = static_cast<uint32_t>(rng());
        }
        cols[static_cast<size_t>(w)] = storage[static_cast<size_t>(w)].data();
      }
      const uint64_t seed = rng();
      std::vector<uint64_t> out(count + 1, 0xabababababababab);
      HashWordsBatch(cols.data(), width, count, seed, out.data());
      for (size_t j = 0; j < count; ++j) {
        uint32_t key[kMaxAttributes];
        for (int w = 0; w < width; ++w) {
          key[w] = storage[static_cast<size_t>(w)][j];
        }
        ASSERT_EQ(out[j], HashWords(key, static_cast<size_t>(width), seed))
            << "width=" << width << " count=" << count << " j=" << j;
      }
      // count is exclusive: the element past the batch is untouched.
      EXPECT_EQ(out[count], 0xababababababababull);
    }
  }
}

TEST(SimdHashTest, DispatchedTierIsStableAndNamed) {
  const std::string tier = SimdTierName();
  EXPECT_TRUE(tier == "avx2" || tier == "sse2" || tier == "scalar") << tier;
  EXPECT_EQ(tier, SimdTierName());  // Dispatch is picked once per process.
}

// ---------------------------------------------------------------------------
// Bucket-sequence regression: BucketOf (single-record) and
// BucketOfHash(HashWordsBatch) (batched) must agree on every key, and the
// underlying chain must never drift — pinned goldens catch any "harmless"
// hash tweak that would silently re-shuffle every table.

TEST(ProbeKernelTest, HashChainGoldensArePinned) {
  const uint32_t k1[3] = {1, 2, 3};
  const uint32_t k2[3] = {0xdeadbeef, 0, 0xffffffff};
  const uint32_t k3[1] = {42};
  EXPECT_EQ(HashWords(k1, 3, 0x1f7a), 0xee7ac4e8633f1ce6ull);
  EXPECT_EQ(HashWords(k2, 3, 0x1f7a), 0xe93eb35de8748aa1ull);
  EXPECT_EQ(HashWords(k3, 1, 0), 0xe0d9de1ca67956ecull);
  EXPECT_EQ(FastRange64(HashWords(k1, 3, 0x1f7a), 1024), 953u);
  EXPECT_EQ(FastRange64(HashWords(k2, 3, 0x1f7a), 1024), 932u);
}

TEST(ProbeKernelTest, BucketSequenceIdenticalSingleVsBatched) {
  const LftaHashTable table(1024, 3, /*seed=*/0x1f7a);
  std::mt19937_64 rng(7);
  constexpr size_t kCount = 500;
  std::vector<uint32_t> col0(kCount), col1(kCount), col2(kCount);
  std::vector<GroupKey> keys(kCount);
  for (size_t j = 0; j < kCount; ++j) {
    GroupKey& key = keys[j];
    key.size = 3;
    key.values[0] = col0[j] = static_cast<uint32_t>(rng());
    key.values[1] = col1[j] = static_cast<uint32_t>(rng());
    key.values[2] = col2[j] = static_cast<uint32_t>(rng());
  }
  const uint32_t* cols[3] = {col0.data(), col1.data(), col2.data()};
  std::vector<uint64_t> hashes(kCount);
  HashWordsBatch(cols, 3, kCount, table.seed(), hashes.data());
  for (size_t j = 0; j < kCount; ++j) {
    ASSERT_EQ(table.BucketOf(keys[j]), table.BucketOfHash(hashes[j]))
        << "key " << j;
  }
}

}  // namespace
}  // namespace streamagg
