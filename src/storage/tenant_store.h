// Blob store over the page layer: maps a tenant key to a chain of pages
// holding one serialized state blob (the engine stores CERLCKP1 trainer
// checkpoints here when a tenant is spilled).
//
// Chain layout (all pages):
//   offset  size  field
//   0       4     next PageId (0 = last page of the chain)
//   head page only, after next:
//   4       8     blob size in bytes
//   12      8     FNV-1a checksum of the blob
//   then payload bytes fill the rest of each page.
//
// The key -> (head page, size) catalog lives in memory only: the store is
// a RAM-extension spill target, and after a crash tenant state is rebuilt
// from snapshot + WAL, repopulating the store organically as tenants go
// cold again. DiskManager::Open resets the file, so a reopened store starts
// empty rather than holding pages no key reaches.
//
// Thread safety: all operations are serialized on one internal mutex, so
// the store is safe for concurrent use from any thread.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "storage/buffer_pool.h"
#include "util/status.h"

namespace cerl {
namespace storage {

class TenantStore {
 public:
  /// `pool` must outlive the store.
  explicit TenantStore(BufferPool* pool) : pool_(pool) {}

  /// Stores `blob` under `key`, replacing any previous blob (whose pages
  /// are freed). On failure the old blob is gone and `key` is absent.
  Status Put(int64_t key, std::string_view blob);

  /// Reads back the blob stored under `key`. Verifies the stored checksum:
  /// a corrupted chain is a clean IoError, never garbage bytes.
  Result<std::string> Get(int64_t key) const;

  /// Frees the chain under `key`. Missing keys are NotFound.
  Status Erase(int64_t key);

  bool Contains(int64_t key) const;
  size_t num_blobs() const;
  /// Sum of stored blob sizes (payload bytes, not page overhead).
  uint64_t stored_bytes() const;

 private:
  struct Entry {
    PageId head = kInvalidPageId;
    uint64_t size = 0;
  };

  Status FreeChainLocked(PageId head);

  BufferPool* const pool_;
  mutable std::mutex mutex_;
  std::unordered_map<int64_t, Entry> catalog_;
  uint64_t stored_bytes_ = 0;
};

}  // namespace storage
}  // namespace cerl
