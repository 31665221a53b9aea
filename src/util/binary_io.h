// Binary checkpoint I/O substrate shared by the trainer checkpoint
// (core/checkpoint.cc) and the engine snapshot (stream/engine_checkpoint.cc):
//
//  - an FNV-1a payload checksum, so any bit flip anywhere in a container is
//    detected as a clean Status error instead of being deserialized into
//    garbage state;
//  - crash-safe whole-file writes (temp file + flush + fsync + atomic
//    rename), so a crash mid-save leaves the previous checkpoint intact and
//    readers never observe a half-written file;
//  - a BoundedReader that validates every length field against the bytes
//    actually remaining BEFORE allocating, so a corrupted u32 count turns
//    into a descriptive error rather than a multi-gigabyte allocation.
#pragma once

#include <cstdint>
#include <istream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cerl {

/// FNV-1a 64-bit hash (the checkpoint integrity checksum).
uint64_t Fnv1a64(std::string_view data);

/// Incremental FNV-1a 64: Update() in pieces, digest() at any point.
/// Feeding the same bytes in any segmentation yields Fnv1a64 of their
/// concatenation — used where a container checksum must skip embedded
/// self-checksummed spans (CERLENG5 trainer blobs) or cover disjoint
/// header+payload pieces (WAL records).
class Fnv1a64Stream {
 public:
  void Update(std::string_view data) {
    for (const char c : data) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ull;
    }
  }
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// Appends the 8-byte little-endian FNV-1a checksum of `payload` to it.
/// Containers are always finalized with this before hitting disk.
void AppendChecksum(std::string* payload);

/// Verifies that `bytes` ends with the checksum of everything before it;
/// returns the payload view (checksum stripped) or a descriptive error.
/// `what` names the container in error messages ("checkpoint", "snapshot").
Result<std::string_view> VerifyChecksum(std::string_view bytes,
                                        const std::string& what);

/// Reads an entire file into memory.
Result<std::string> ReadFileToString(const std::string& path);

/// Crash-safe whole-file write: contents go to a uniquely named temp file
/// (`path + ".tmp.<pid>.<serial>"` — unique per in-flight write, so
/// concurrent saves of the same path cannot clobber each other), are flushed
/// and fsync'd, then atomically renamed over `path`. Either the old file or
/// the complete new one exists at every instant; the temp file is removed on
/// failure. Concurrent saves each publish a complete file; last rename wins.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Bounds-checked reads from a stream whose total remaining byte count is
/// known up front (in-memory checkpoint payloads). Reads past the budget —
/// the signature of a truncated or corrupted container — fail without
/// touching the destination.
class BoundedReader {
 public:
  BoundedReader(std::istream* in, uint64_t remaining)
      : in_(in), remaining_(remaining) {}

  /// Reads exactly `n` bytes into `dst`; `what` names the field in errors.
  Status ReadRaw(void* dst, uint64_t n, const char* what);

  template <typename T>
  Status ReadPod(T* value, const char* what) {
    return ReadRaw(value, sizeof(T), what);
  }

  /// Deducts `n` bytes consumed by a self-describing sub-parser that read
  /// from the underlying stream directly (nn parameter blocks).
  Status Consume(uint64_t n, const char* what);

  /// Fails unless at least `n` bytes remain — the pre-allocation guard for
  /// length fields (call before resizing a buffer to a file-provided size).
  Status Require(uint64_t n, const char* what) const;

  uint64_t remaining() const { return remaining_; }
  std::istream* stream() { return in_; }

 private:
  std::istream* in_;
  uint64_t remaining_;
};

/// Appends the raw little-endian bytes of a POD value to a payload string.
template <typename T>
void WritePod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Appends a u32 count followed by the doubles of `v`.
void WriteF64Vector(std::string* out, const std::vector<double>& v);

/// Reads a double vector whose element count must equal `expect` — every
/// vector in the checkpoint formats has a size known from its header/model,
/// which is what lets a corrupted count fail before any resize.
Status ReadF64VectorExpected(BoundedReader* r, uint32_t expect,
                             std::vector<double>* v, const char* what);

/// Read-only streambuf over a string_view: gives checkpoint payloads an
/// std::istream interface (for self-describing sub-parsers like the nn
/// parameter block) without copying the bytes. Supports tellg/seekg.
class ViewStreambuf : public std::streambuf {
 public:
  explicit ViewStreambuf(std::string_view data);

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override;
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override;
};

}  // namespace cerl
