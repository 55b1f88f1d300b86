#include "runtime/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>


namespace hls::rt {
namespace {

TEST(BlockPool, AllocateDistinctBlocks) {
  block_pool pool;
  pool.owner_role().hold();  // this thread is the owner
  std::set<void*> seen;
  std::vector<void*> blocks;
  for (int i = 0; i < 100; ++i) {
    void* p = pool.allocate();
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate block";
    blocks.push_back(p);
  }
  for (void* p : blocks) block_pool::deallocate(p);
}

TEST(BlockPool, BlocksAreWritableAtFullUsableSize) {
  block_pool pool;
  pool.owner_role().hold();  // this thread is the owner
  void* p = pool.allocate();
  std::memset(p, 0xAB, block_pool::kUsableBytes);
  block_pool::deallocate(p);
}

TEST(BlockPool, RecyclesFreedBlocksWithoutNewSlabs) {
  block_pool pool;
  pool.owner_role().hold();  // this thread is the owner
  void* first = pool.allocate();
  const std::size_t slabs = pool.slab_count();
  block_pool::deallocate(first);
  // Churn far more allocations than one slab holds; since each is freed
  // before the next, no new slab is needed.
  for (int i = 0; i < 10000; ++i) {
    void* p = pool.allocate();
    block_pool::deallocate(p);
  }
  EXPECT_EQ(pool.slab_count(), slabs);
}

TEST(BlockPool, GrowsWhenLiveBlocksExceedASlab) {
  block_pool pool;
  pool.owner_role().hold();  // this thread is the owner
  std::vector<void*> live;
  for (int i = 0; i < 2000; ++i) live.push_back(pool.allocate());
  EXPECT_GE(pool.slab_count(), 2u);
  for (void* p : live) block_pool::deallocate(p);
  EXPECT_EQ(pool.free_count(), pool.slab_count() * 512);
}

TEST(BlockPool, CrossThreadFreeReturnsToOwner) {
  block_pool pool;
  pool.owner_role().hold();  // this thread is the owner
  std::vector<void*> blocks;
  for (int i = 0; i < 600; ++i) blocks.push_back(pool.allocate());
  std::thread other([&] {
    for (void* p : blocks) block_pool::deallocate(p);
  });
  other.join();
  // Owner reclaims the returns on subsequent allocations.
  std::set<void*> again;
  for (int i = 0; i < 600; ++i) again.insert(pool.allocate());
  EXPECT_EQ(again.size(), 600u);
  for (void* p : again) block_pool::deallocate(p);
}

TEST(BlockPool, OversizedRequestsFallBackToHeap) {
  block_pool pool;
  pool.owner_role().hold();  // this thread is the owner
  void* p = block_pool::allocate_sized(&pool, 4096);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5A, 4096);
  block_pool::deallocate(p);  // must route to ::operator delete
}

TEST(BlockPool, NullPoolFallsBackToHeap) {
  void* p = block_pool::allocate_sized(nullptr, 16);
  ASSERT_NE(p, nullptr);
  block_pool::deallocate(p);
}

TEST(BlockPool, ConcurrentProducersReturningToOneOwner) {
  block_pool pool;
  pool.owner_role().hold();  // this thread is the owner
  constexpr int kPerThread = 2000;
  std::vector<void*> blocks;
  for (int i = 0; i < 4 * kPerThread; ++i) blocks.push_back(pool.allocate());

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&blocks, t] {
      for (int i = 0; i < kPerThread; ++i) {
        block_pool::deallocate(blocks[t * kPerThread + i]);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(pool.free_count(), pool.slab_count() * 512);
}

}  // namespace
}  // namespace hls::rt
