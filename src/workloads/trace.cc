#include "workloads/trace.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "base/logging.hh"
#include "vm/page_size.hh"

namespace eat::workloads
{

namespace
{

constexpr char kMagic[8] = {'E', 'A', 'T', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersion = 1;

constexpr std::size_t kRecordBytes = 12; // vaddr u64 + gap u32, LE
/** Records per buffered I/O block (just under 64 KiB). */
constexpr std::size_t kBlockRecords = (64 * 1024) / kRecordBytes;
constexpr std::size_t kBlockBytes = kBlockRecords * kRecordBytes;

/** Append @p v little-endian to @p buf. */
void
appendU32(std::vector<char> &buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<char>(v >> (8 * i)));
}

void
appendU64(std::vector<char> &buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t
decodeU32(const char *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | static_cast<unsigned char>(p[i]);
    return v;
}

std::uint64_t
decodeU64(const char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | static_cast<unsigned char>(p[i]);
    return v;
}

void
putU32(std::ostream &os, std::uint32_t v)
{
    std::array<char, 4> buf;
    for (int i = 0; i < 4; ++i)
        buf[static_cast<std::size_t>(i)] = static_cast<char>(v >> (8 * i));
    os.write(buf.data(), buf.size());
}

std::uint32_t
getU32(std::istream &is)
{
    std::array<unsigned char, 4> buf{};
    is.read(reinterpret_cast<char *>(buf.data()), buf.size());
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | buf[static_cast<std::size_t>(i)];
    return v;
}

} // namespace

TraceWriter::TraceWriter(const std::string &path)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path)
{
    if (!out_)
        eat_fatal("cannot open trace file for writing: ", path);
    buffer_.reserve(kBlockBytes + kRecordBytes);
    out_.write(kMagic, sizeof(kMagic));
    putU32(out_, kVersion);
    putU32(out_, 0); // record count, patched in close()
}

TraceWriter::~TraceWriter()
{
    if (const auto s = close(); !s.ok())
        eat_warn(s.message());
}

void
TraceWriter::write(const MemOp &op)
{
    eat_assert(!closed_, "write after close on trace ", path_);
    eat_assert(op.instrGap <= UINT32_MAX, "instruction gap overflow");
    appendU64(buffer_, op.vaddr);
    appendU32(buffer_, static_cast<std::uint32_t>(op.instrGap));
    ++records_;
    if (buffer_.size() >= kBlockBytes)
        flushBuffer();
}

void
TraceWriter::flushBuffer()
{
    if (buffer_.empty())
        return;
    // A failed write poisons the stream state, which close() reports;
    // buffering changes when bytes hit the stream, not the guarantee.
    out_.write(buffer_.data(),
               static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
}

Status
TraceWriter::close()
{
    if (closed_)
        return Status();
    flushBuffer();
    closed_ = true;
    eat_assert(records_ <= UINT32_MAX, "trace too long for format v1");
    // seekp/write on an already-failed stream are no-ops, so a record
    // write that failed earlier (disk full) is still visible here.
    out_.seekp(sizeof(kMagic) + 4);
    putU32(out_, static_cast<std::uint32_t>(records_));
    out_.flush();
    const bool failed = !out_;
    out_.close();
    if (failed || !out_) {
        return Status::error("write failure on trace file ", path_,
                             " after ", records_,
                             " records (disk full?); the file is invalid");
    }
    return Status();
}

TraceReader::TraceReader(const std::string &path)
    : in_(path, std::ios::binary)
{
    if (!in_)
        eat_fatal("cannot open trace file: ", path);
    char magic[8];
    in_.read(magic, sizeof(magic));
    if (!in_ || in_.gcount() != sizeof(magic))
        eat_fatal("trace file ", path, " too short for the 16-byte header");
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        eat_fatal("not an EAT trace file (bad magic): ", path);
    const std::uint32_t version = getU32(in_);
    if (!in_ || version != kVersion) {
        eat_fatal("unsupported trace version ", version, " in ", path,
                  " (this build reads version ", kVersion, ")");
    }
    total_ = getU32(in_);
    if (!in_)
        eat_fatal("trace file ", path, " too short for the 16-byte header");

    // Cross-check the header's record count against the actual file
    // size, so truncation (or trailing garbage) is a loud, precise
    // error up front instead of a silently shorter replay.
    const auto headerEnd = in_.tellg();
    in_.seekg(0, std::ios::end);
    const auto fileSize = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(headerEnd);
    const std::uint64_t kHeaderBytes = sizeof(kMagic) + 8;
    const std::uint64_t kRecordBytes = 12;
    const std::uint64_t expected = kHeaderBytes + kRecordBytes * total_;
    if (fileSize < expected) {
        eat_fatal("truncated trace file ", path, ": header promises ",
                  total_, " records (", expected, " bytes) but the file "
                  "has only ", fileSize, " bytes");
    }
    if (fileSize > expected) {
        eat_fatal("corrupt trace file ", path, ": ", fileSize - expected,
                  " trailing bytes after the ", total_,
                  " records the header promises");
    }
}

void
TraceReader::refill()
{
    const std::uint64_t remaining = total_ - read_;
    const std::size_t records = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, kBlockRecords));
    buffer_.resize(records * kRecordBytes);
    bufferPos_ = 0;
    in_.read(buffer_.data(),
             static_cast<std::streamsize>(buffer_.size()));
    if (!in_ || static_cast<std::size_t>(in_.gcount()) !=
                    buffer_.size()) {
        eat_fatal("truncated trace file: read failed at record ", read_,
                  " of ", total_);
    }
}

std::optional<MemOp>
TraceReader::next()
{
    if (read_ >= total_)
        return std::nullopt;
    if (bufferPos_ >= buffer_.size())
        refill();
    const char *p = buffer_.data() + bufferPos_;
    MemOp op;
    op.vaddr = decodeU64(p);
    op.instrGap = decodeU32(p + 8);
    // The page table maps 48-bit addresses only: a higher bit would
    // walk to the address's 48-bit alias instead of failing.
    if (op.vaddr >> vm::kVaddrBits != 0) {
        eat_fatal("corrupt trace file: record ", read_, " of ", total_,
                  " has vaddr 0x", std::hex, op.vaddr, std::dec,
                  ", outside the ", vm::kVaddrBits,
                  "-bit virtual address space");
    }
    bufferPos_ += kRecordBytes;
    ++read_;
    return op;
}

} // namespace eat::workloads
