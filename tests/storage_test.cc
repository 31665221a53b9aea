// Unit tests for the paged storage layer (src/storage/): DiskManager page
// allocation / free list / reset on open, BufferPool pinning and
// LRU eviction, and TenantStore blob chains with checksum verification.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/tenant_store.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "util/status.h"

namespace cerl::storage {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string PatternPage(char seed) {
  std::string page(kPageSize, '\0');
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<char>((seed + i) & 0xFF);
  }
  return page;
}

// --- DiskManager ----------------------------------------------------------

TEST(DiskManagerTest, AllocateWriteReadRoundTrip) {
  const std::string path = TempPath("dm_roundtrip.store");
  auto opened = DiskManager::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DiskManager& dm = *opened.value();
  EXPECT_EQ(dm.page_count(), 1u);  // superblock only

  auto p1 = dm.AllocatePage();
  auto p2 = dm.AllocatePage();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_NE(p1.value(), p2.value());
  EXPECT_NE(p1.value(), kInvalidPageId);
  EXPECT_EQ(dm.page_count(), 3u);

  const std::string a = PatternPage(3), b = PatternPage(11);
  ASSERT_TRUE(dm.WritePage(p1.value(), a.data()).ok());
  ASSERT_TRUE(dm.WritePage(p2.value(), b.data()).ok());
  std::string buf(kPageSize, '\0');
  ASSERT_TRUE(dm.ReadPage(p1.value(), buf.data()).ok());
  EXPECT_EQ(buf, a);
  ASSERT_TRUE(dm.ReadPage(p2.value(), buf.data()).ok());
  EXPECT_EQ(buf, b);
}

TEST(DiskManagerTest, FreeListReusesPagesBeforeGrowing) {
  const std::string path = TempPath("dm_freelist.store");
  auto opened = DiskManager::Open(path);
  ASSERT_TRUE(opened.ok());
  DiskManager& dm = *opened.value();

  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    auto p = dm.AllocatePage();
    ASSERT_TRUE(p.ok());
    ids.push_back(p.value());
  }
  const uint32_t grown = dm.page_count();
  ASSERT_TRUE(dm.FreePage(ids[1]).ok());
  ASSERT_TRUE(dm.FreePage(ids[3]).ok());
  EXPECT_EQ(dm.free_pages(), 2u);

  // The next two allocations pop the free list; the file does not grow.
  auto r1 = dm.AllocatePage();
  auto r2 = dm.AllocatePage();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(dm.page_count(), grown);
  EXPECT_EQ(dm.free_pages(), 0u);
  std::vector<PageId> reused = {r1.value(), r2.value()};
  std::sort(reused.begin(), reused.end());
  EXPECT_EQ(reused, (std::vector<PageId>{ids[1], ids[3]}));
}

TEST(DiskManagerTest, FreePageRejectsInvalidIds) {
  const std::string path = TempPath("dm_badfree.store");
  auto opened = DiskManager::Open(path);
  ASSERT_TRUE(opened.ok());
  DiskManager& dm = *opened.value();
  EXPECT_EQ(dm.FreePage(kInvalidPageId).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dm.FreePage(999).code(), StatusCode::kInvalidArgument);
  std::string buf(kPageSize, '\0');
  EXPECT_EQ(dm.ReadPage(999, buf.data()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dm.WritePage(kInvalidPageId, buf.data()).code(),
            StatusCode::kInvalidArgument);
}

TEST(DiskManagerTest, CorruptSuperblockIsCleanError) {
  const std::string path = TempPath("dm_corrupt.store");
  ASSERT_TRUE(DiskManager::Open(path).ok());
  auto raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  std::string bytes = std::move(raw).value();
  ASSERT_GE(bytes.size(), kPageSize);
  bytes[0] ^= 0x5A;  // break the magic
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  auto reopened = DiskManager::Open(path);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIoError);
  // A file that is not a page store is refused, never reset.
  auto after = ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), bytes);
}

// --- BufferPool -----------------------------------------------------------

TEST(BufferPoolTest, FetchHitsResidentPages) {
  const std::string path = TempPath("bp_hits.store");
  auto opened = DiskManager::Open(path);
  ASSERT_TRUE(opened.ok());
  BufferPool pool(opened.value().get(), 4);

  PageId id = kInvalidPageId;
  {
    auto created = pool.Create();
    ASSERT_TRUE(created.ok());
    id = created.value().id();
    std::memcpy(created.value().data(), "hello", 5);
    created.value().MarkDirty();
  }
  for (int i = 0; i < 3; ++i) {
    auto fetched = pool.Fetch(id);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(std::memcmp(fetched.value().data(), "hello", 5), 0);
  }
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.misses, 0u);  // page was created resident
  EXPECT_GE(stats.hits, 3u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  const std::string path = TempPath("bp_evict.store");
  auto opened = DiskManager::Open(path);
  ASSERT_TRUE(opened.ok());
  DiskManager* dm = opened.value().get();
  BufferPool pool(dm, 2);  // two frames force eviction on the third page

  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) {
    auto created = pool.Create();
    ASSERT_TRUE(created.ok());
    const std::string payload = PatternPage(static_cast<char>(i));
    std::memcpy(created.value().data(), payload.data(), kPageSize);
    created.value().MarkDirty();
    ids.push_back(created.value().id());
  }
  const BufferPool::Stats stats = pool.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_GE(stats.writebacks, 1u);
  // Every page reads back its payload — evicted ones from disk.
  for (int i = 0; i < 3; ++i) {
    auto fetched = pool.Fetch(ids[i]);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(std::memcmp(fetched.value().data(),
                          PatternPage(static_cast<char>(i)).data(), kPageSize),
              0)
        << "page " << i;
  }
}

TEST(BufferPoolTest, PinnedPagesSurviveAndExhaustTheFrameTable) {
  const std::string path = TempPath("bp_pins.store");
  auto opened = DiskManager::Open(path);
  ASSERT_TRUE(opened.ok());
  BufferPool pool(opened.value().get(), 2);

  auto a = pool.Create();
  auto b = pool.Create();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::memcpy(a.value().data(), "pinned-a", 8);

  // Both frames are pinned: a third pin must fail, not block or evict.
  auto c = pool.Create();
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  auto f = pool.Fetch(a.value().id());
  ASSERT_TRUE(f.ok());  // re-pinning a resident page needs no new frame
  EXPECT_EQ(std::memcmp(f.value().data(), "pinned-a", 8), 0);
  f.value().Release();

  // Releasing a pin frees its frame for the next create.
  b.value().Release();
  auto d = pool.Create();
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  // The still-pinned page kept its bytes through the eviction traffic.
  EXPECT_EQ(std::memcmp(a.value().data(), "pinned-a", 8), 0);
}

TEST(BufferPoolTest, DiscardDropsCachedImageWithoutWriteback) {
  const std::string path = TempPath("bp_discard.store");
  auto opened = DiskManager::Open(path);
  ASSERT_TRUE(opened.ok());
  DiskManager* dm = opened.value().get();
  BufferPool pool(dm, 4);

  PageId id = kInvalidPageId;
  {
    auto created = pool.Create();
    ASSERT_TRUE(created.ok());
    id = created.value().id();
    const std::string payload = PatternPage(7);
    std::memcpy(created.value().data(), payload.data(), kPageSize);
    created.value().MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  {
    // Scribble on the cached image, then discard it un-flushed.
    auto fetched = pool.Fetch(id);
    ASSERT_TRUE(fetched.ok());
    std::memset(fetched.value().data(), 0, kPageSize);
    fetched.value().MarkDirty();
  }
  pool.Discard(id);
  // The on-disk image is the flushed payload, not the discarded scribble.
  std::string buf(kPageSize, '\0');
  ASSERT_TRUE(dm->ReadPage(id, buf.data()).ok());
  EXPECT_EQ(buf, PatternPage(7));
}

// --- TenantStore ----------------------------------------------------------

std::string RandomBlob(uint64_t seed, size_t size) {
  Rng rng(seed);
  std::string blob(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    blob[i] = static_cast<char>(rng.UniformInt(256));
  }
  return blob;
}

TEST(TenantStoreTest, PutGetRoundTripsAcrossBlobSizes) {
  const std::string path = TempPath("ts_roundtrip.store");
  auto opened = DiskManager::Open(path);
  ASSERT_TRUE(opened.ok());
  BufferPool pool(opened.value().get(), 8);
  TenantStore store(&pool);

  // Empty, sub-page, exactly-one-page payload, and a multi-page chain.
  const std::vector<size_t> sizes = {0, 100, kPageSize - 20, kPageSize,
                                     3 * kPageSize + 17};
  for (size_t i = 0; i < sizes.size(); ++i) {
    const std::string blob = RandomBlob(100 + i, sizes[i]);
    ASSERT_TRUE(store.Put(static_cast<int64_t>(i), blob).ok()) << sizes[i];
  }
  EXPECT_EQ(store.num_blobs(), sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    auto got = store.Get(static_cast<int64_t>(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), RandomBlob(100 + i, sizes[i])) << sizes[i];
  }
}

TEST(TenantStoreTest, ReplaceFreesTheOldChain) {
  const std::string path = TempPath("ts_replace.store");
  auto opened = DiskManager::Open(path);
  ASSERT_TRUE(opened.ok());
  DiskManager* dm = opened.value().get();
  BufferPool pool(dm, 8);
  TenantStore store(&pool);

  ASSERT_TRUE(store.Put(1, RandomBlob(1, 4 * kPageSize)).ok());
  const uint32_t pages_after_big = dm->page_count();
  // A smaller replacement frees the big chain's pages; a follow-up big blob
  // reuses them instead of growing the file.
  ASSERT_TRUE(store.Put(1, RandomBlob(2, 64)).ok());
  ASSERT_TRUE(store.Put(1, RandomBlob(3, 4 * kPageSize)).ok());
  EXPECT_EQ(dm->page_count(), pages_after_big);
  auto got = store.Get(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), RandomBlob(3, 4 * kPageSize));
  EXPECT_EQ(store.num_blobs(), 1u);
}

TEST(TenantStoreTest, EraseRemovesTheKeyAndFreesPages) {
  const std::string path = TempPath("ts_erase.store");
  auto opened = DiskManager::Open(path);
  ASSERT_TRUE(opened.ok());
  DiskManager* dm = opened.value().get();
  BufferPool pool(dm, 8);
  TenantStore store(&pool);

  ASSERT_TRUE(store.Put(7, RandomBlob(7, 2 * kPageSize)).ok());
  EXPECT_TRUE(store.Contains(7));
  EXPECT_GT(store.stored_bytes(), 0u);
  ASSERT_TRUE(store.Erase(7).ok());
  EXPECT_FALSE(store.Contains(7));
  EXPECT_EQ(store.num_blobs(), 0u);
  EXPECT_EQ(store.stored_bytes(), 0u);
  EXPECT_EQ(store.Get(7).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Erase(7).code(), StatusCode::kNotFound);
  EXPECT_GE(dm->free_pages(), 2u);
}

// The blob catalog lives in memory only, so no page of a closed store is
// reachable after a reopen: the store starts empty instead of carrying the
// old pages as a permanent leak.
TEST(TenantStoreTest, ReopenedStoreHoldsOnePageAndNoKey) {
  const std::string path = TempPath("ts_reopen.store");
  uint32_t pages_first_session = 0;
  for (int session = 0; session < 3; ++session) {
    auto opened = DiskManager::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DiskManager* dm = opened.value().get();
    EXPECT_EQ(dm->page_count(), 1u) << "session " << session;
    EXPECT_EQ(dm->free_pages(), 0u) << "session " << session;
    BufferPool pool(dm, 4);
    TenantStore store(&pool);
    EXPECT_FALSE(store.Contains(7));
    ASSERT_TRUE(store.Put(7, RandomBlob(7, 40 * 1024)).ok());
    if (session == 0) pages_first_session = dm->page_count();
    EXPECT_EQ(dm->page_count(), pages_first_session) << "session " << session;
  }
}

TEST(TenantStoreTest, CorruptedChainIsACleanIoError) {
  const std::string path = TempPath("ts_corrupt.store");
  auto opened = DiskManager::Open(path);
  ASSERT_TRUE(opened.ok());
  BufferPool pool(opened.value().get(), 8);
  TenantStore store(&pool);

  // First Put on a fresh store allocates page 1 as the chain head.
  ASSERT_TRUE(store.Put(1, RandomBlob(9, 300)).ok());
  {
    auto head = pool.Fetch(1);
    ASSERT_TRUE(head.ok());
    head.value().data()[64] ^= 0x1;  // flip one payload bit
    head.value().MarkDirty();
  }
  auto got = store.Get(1);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace cerl::storage
