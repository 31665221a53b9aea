// Single-file page store: a flat file of kPageSize pages with a superblock
// at page 0 and a free list threaded through freed pages.
//
// File layout:
//
//   page 0 (superblock): magic "CERLSTO1", then zeros.
//   page i >= 1: raw page bytes (DiskManager does not interpret them,
//     except that a page on the free list stores the next free PageId in
//     its first 4 bytes).
//
// The store is a spill target, not a durability source: engine durability
// is snapshot + WAL, spilled tenant state is reconstructed from those after
// a crash, and the blob catalog (TenantStore) lives in memory only. No page
// of a previous session is reachable after a reopen, so Open resets the
// file: every session starts with the superblock alone, and the page count
// and free list live in memory only.
//
// Thread safety: all methods are safe to call concurrently (one internal
// mutex; page reads/writes use positional pread/pwrite on a shared fd).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "storage/page.h"
#include "util/status.h"

namespace cerl {
namespace storage {

class DiskManager {
 public:
  /// Opens (or creates) the store file at `path` and resets it to an empty
  /// store. An existing file must carry the store magic (so Open never
  /// truncates a file that is not a page store); any other file is a clean
  /// IoError.
  static Result<std::unique_ptr<DiskManager>> Open(const std::string& path);

  ~DiskManager();
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocates a page: pops the free list if non-empty, otherwise grows the
  /// file by one page. The page's on-disk contents are unspecified until
  /// the first WritePage.
  Result<PageId> AllocatePage();

  /// Returns a page to the free list. Freeing the superblock, an
  /// out-of-range page, or kInvalidPageId is an InvalidArgument error.
  Status FreePage(PageId id);

  /// Reads/writes one full page. `buf` must hold kPageSize bytes.
  Status ReadPage(PageId id, char* buf);
  Status WritePage(PageId id, const char* buf);

  /// Total pages in the file, including the superblock.
  uint32_t page_count() const;
  /// Pages currently on the free list.
  uint32_t free_pages() const;
  const std::string& path() const { return path_; }

 private:
  DiskManager(std::string path, int fd);

  Status CheckDataPageLocked(PageId id, const char* op) const;
  Status ReadPageLocked(PageId id, char* buf);
  Status WritePageLocked(PageId id, const char* buf);

  const std::string path_;
  int fd_;

  mutable std::mutex mutex_;
  uint32_t page_count_ = 1;           // superblock
  PageId free_head_ = kInvalidPageId;
  uint32_t free_count_ = 0;
};

}  // namespace storage
}  // namespace cerl
