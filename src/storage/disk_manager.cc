#include "storage/disk_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "util/fault_injection.h"

namespace cerl {
namespace storage {
namespace {

constexpr char kMagic[8] = {'C', 'E', 'R', 'L', 'S', 'T', 'O', '1'};

// Upper bound on the file size: 2^22 pages * 4 KiB = 16 GiB.
constexpr uint32_t kMaxPages = 1u << 22;

Status PreadFull(int fd, char* buf, size_t n, off_t offset,
                 const std::string& path) {
  size_t done = 0;
  while (done < n) {
    const ssize_t rc = ::pread(fd, buf + done, n - done,
                               offset + static_cast<off_t>(done));
    if (rc < 0) return Status::IoError("pread failed: " + path);
    if (rc == 0) return Status::IoError("short pread (truncated): " + path);
    done += static_cast<size_t>(rc);
  }
  return Status::Ok();
}

Status PwriteFull(int fd, const char* buf, size_t n, off_t offset,
                  const std::string& path) {
  size_t done = 0;
  while (done < n) {
    const ssize_t rc = ::pwrite(fd, buf + done, n - done,
                                offset + static_cast<off_t>(done));
    if (rc < 0) return Status::IoError("pwrite failed: " + path);
    done += static_cast<size_t>(rc);
  }
  return Status::Ok();
}

}  // namespace

DiskManager::DiskManager(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {}

DiskManager::~DiskManager() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<DiskManager>> DiskManager::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IoError("cannot open page store: " + path);
  std::unique_ptr<DiskManager> dm(new DiskManager(path, fd));

  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    return Status::IoError("cannot size page store: " + path);
  }
  if (size > 0) {
    char magic[sizeof(kMagic)];
    if (!PreadFull(fd, magic, sizeof(magic), 0, path).ok() ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
      return Status::IoError("page store has bad magic: " + path);
    }
    // No page of the previous session is reachable: start empty.
    if (::ftruncate(fd, 0) != 0) {
      return Status::IoError("cannot reset page store: " + path);
    }
  }
  char super[kPageSize];
  std::memset(super, 0, sizeof(super));
  std::memcpy(super, kMagic, sizeof(kMagic));
  CERL_RETURN_IF_ERROR(PwriteFull(fd, super, kPageSize, 0, path));
  return dm;
}

Status DiskManager::CheckDataPageLocked(PageId id, const char* op) const {
  if (id == kInvalidPageId || id >= page_count_) {
    return Status::InvalidArgument(std::string(op) + " of page " +
                                   std::to_string(id) +
                                   " outside store of " +
                                   std::to_string(page_count_) + " pages");
  }
  return Status::Ok();
}

Status DiskManager::ReadPageLocked(PageId id, char* buf) {
  CERL_RETURN_IF_ERROR(CheckDataPageLocked(id, "read"));
  return PreadFull(fd_, buf, kPageSize,
                   static_cast<off_t>(id) * kPageSize, path_);
}

Status DiskManager::WritePageLocked(PageId id, const char* buf) {
  if (CERL_FAULT_POINT(FaultPoint::kIoWrite)) {
    return Status::IoError("injected page write failure: " + path_);
  }
  CERL_RETURN_IF_ERROR(CheckDataPageLocked(id, "write"));
  return PwriteFull(fd_, buf, kPageSize,
                    static_cast<off_t>(id) * kPageSize, path_);
}

Result<PageId> DiskManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_head_ != kInvalidPageId) {
    const PageId id = free_head_;
    char page[kPageSize];
    CERL_RETURN_IF_ERROR(ReadPageLocked(id, page));
    PageId next = kInvalidPageId;
    std::memcpy(&next, page, sizeof(next));
    if (next != kInvalidPageId && next >= page_count_) {
      return Status::IoError("page store free list is corrupt: " + path_);
    }
    free_head_ = next;
    --free_count_;
    return id;
  }
  if (page_count_ >= kMaxPages) {
    return Status::ResourceExhausted("page store is full: " + path_);
  }
  const PageId id = page_count_;
  // Extend the file so the new page is addressable by pread before its
  // first write-back.
  char zero[kPageSize];
  std::memset(zero, 0, sizeof(zero));
  CERL_RETURN_IF_ERROR(PwriteFull(fd_, zero, kPageSize,
                                  static_cast<off_t>(id) * kPageSize, path_));
  ++page_count_;
  return id;
}

Status DiskManager::FreePage(PageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  CERL_RETURN_IF_ERROR(CheckDataPageLocked(id, "free"));
  char page[kPageSize];
  std::memset(page, 0, sizeof(page));
  std::memcpy(page, &free_head_, sizeof(free_head_));
  CERL_RETURN_IF_ERROR(WritePageLocked(id, page));
  free_head_ = id;
  ++free_count_;
  return Status::Ok();
}

Status DiskManager::ReadPage(PageId id, char* buf) {
  std::lock_guard<std::mutex> lock(mutex_);
  return ReadPageLocked(id, buf);
}

Status DiskManager::WritePage(PageId id, const char* buf) {
  std::lock_guard<std::mutex> lock(mutex_);
  return WritePageLocked(id, buf);
}

uint32_t DiskManager::page_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return page_count_;
}

uint32_t DiskManager::free_pages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_count_;
}

}  // namespace storage
}  // namespace cerl
