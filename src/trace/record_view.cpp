#include "trace/record_view.h"

#include "util/error.h"

#if defined(__unix__) || defined(__APPLE__)
#define IOTAXO_HAVE_MMAP 1
#include <cerrno>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#include <cstdio>
#endif

namespace iotaxo::trace {

// ---------------------------------------------------------------- mapping

MappedTraceFile::MappedTraceFile(const std::string& path, bool prefault)
    : path_(path) {
#if IOTAXO_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw IoError("cannot open trace file: " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw IoError("cannot stat trace file: " + path);
  }
  const std::size_t len = static_cast<std::size_t>(st.st_size);
  if (len > 0) {
    // Views are opened to be scanned; prefaulting the whole mapping up
    // front (where the platform offers it) is much cheaper than taking
    // thousands of minor faults mid-scan.
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    if (prefault) {
      flags |= MAP_POPULATE;
    }
#endif
    void* p = ::mmap(nullptr, len, PROT_READ, flags, fd, 0);
    if (p != MAP_FAILED) {
      map_ = p;
      map_len_ = len;
    } else {
      // mmap can fail on special or network files; fall back to reading.
      // Short reads are normal here (pipes, NFS, signal-adjacent reads):
      // keep asking for the remainder, and retry outright on EINTR — only
      // a real error or EOF-before-len is fatal.
      owned_.resize(len);
      std::size_t got = 0;
      while (got < len) {
        const ssize_t n = ::read(fd, owned_.data() + got, len - got);
        if (n < 0) {
          if (errno == EINTR) {
            continue;
          }
          ::close(fd);
          throw IoError("cannot read trace file: " + path);
        }
        if (n == 0) {
          ::close(fd);
          throw IoError("trace file truncated while reading: " + path);
        }
        got += static_cast<std::size_t>(n);
      }
    }
  }
  ::close(fd);
#else
  (void)prefault;  // the read fallback always loads everything
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw IoError("cannot open trace file: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (len < 0) {
    std::fclose(f);
    throw IoError("cannot stat trace file: " + path);
  }
  owned_.resize(static_cast<std::size_t>(len));
  if (len > 0 &&
      std::fread(owned_.data(), 1, owned_.size(), f) != owned_.size()) {
    std::fclose(f);
    throw IoError("cannot read trace file: " + path);
  }
  std::fclose(f);
#endif
}

MappedTraceFile::~MappedTraceFile() { release(); }

MappedTraceFile::MappedTraceFile(MappedTraceFile&& other) noexcept
    : path_(std::move(other.path_)),
      map_(other.map_),
      map_len_(other.map_len_),
      owned_(std::move(other.owned_)) {
  other.map_ = nullptr;
  other.map_len_ = 0;
}

MappedTraceFile& MappedTraceFile::operator=(MappedTraceFile&& other) noexcept {
  if (this != &other) {
    release();
    path_ = std::move(other.path_);
    map_ = other.map_;
    map_len_ = other.map_len_;
    owned_ = std::move(other.owned_);
    other.map_ = nullptr;
    other.map_len_ = 0;
  }
  return *this;
}

void MappedTraceFile::release() noexcept {
#if IOTAXO_HAVE_MMAP
  if (map_ != nullptr) {
    ::munmap(map_, map_len_);
    map_ = nullptr;
    map_len_ = 0;
  }
#endif
}

std::span<const std::uint8_t> MappedTraceFile::bytes() const noexcept {
  if (map_ != nullptr) {
    return {static_cast<const std::uint8_t*>(map_), map_len_};
  }
  return {owned_.data(), owned_.size()};
}

}  // namespace iotaxo::trace
