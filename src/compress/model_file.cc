#include "compress/model_file.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/bitstream.hh"
#include "common/faultpoint.hh"
#include "compress/huffman.hh"

namespace eie::compress {

namespace {

constexpr char magic[4] = {'E', 'I', 'E', 'M'};
constexpr std::uint32_t version = 1;

/** Throw ModelFileError with a printf-formatted message. */
[[gnu::format(printf, 1, 2)]] [[noreturn]] void
corrupt(const char *fmt, ...)
{
    char buf[512];
    std::va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    throw ModelFileError(buf);
}

/** corrupt() unless the condition holds. */
#define corrupt_if(cond, ...) \
    do { \
        if (cond) \
            corrupt(__VA_ARGS__); \
    } while (0)

/** FNV-1a over a byte range. */
std::uint64_t
fnv1a(std::span<const std::uint8_t> bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes) {
        hash ^= b;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** Little-endian byte sink. */
class ByteWriter
{
  public:
    void
    raw(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        bytes_.insert(bytes_.end(), p, p + size);
    }

    template <typename T>
    void
    scalar(T value)
    {
        raw(&value, sizeof(T));
    }

    std::vector<std::uint8_t> take() { return std::move(bytes_); }
    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked little-endian byte source. */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const std::uint8_t> bytes)
        : bytes_(bytes)
    {}

    void
    raw(void *out, std::size_t size)
    {
        corrupt_if(size > bytes_.size() - pos_,
                   "model file truncated at offset %zu", pos_);
        if (size != 0) // empty vectors hand us a null destination
            std::memcpy(out, bytes_.data() + pos_, size);
        pos_ += size;
    }

    template <typename T>
    T
    scalar()
    {
        T value;
        raw(&value, sizeof(T));
        return value;
    }

    std::size_t position() const { return pos_; }

  private:
    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
};

/** Huffman-code one nibble stream; emit lengths + bits. */
void
writeStream(ByteWriter &writer, const std::vector<std::uint8_t> &symbols)
{
    std::map<std::uint8_t, std::uint64_t> freq;
    for (std::uint8_t s : symbols)
        ++freq[s];
    // Degenerate empty stream: all-zero length table.
    if (symbols.empty()) {
        for (int s = 0; s < 16; ++s)
            writer.scalar<std::uint8_t>(0);
        writer.scalar<std::uint64_t>(0);
        return;
    }

    const auto code = HuffmanCode::fromFrequencies(freq);
    for (int s = 0; s < 16; ++s)
        writer.scalar<std::uint8_t>(static_cast<std::uint8_t>(
            code.codeLength(static_cast<std::uint8_t>(s))));

    BitWriter bits;
    code.encode(symbols, bits);
    writer.scalar<std::uint64_t>(bits.bitCount());
    writer.raw(bits.bytes().data(), bits.bytes().size());
}

/** Inverse of writeStream. */
std::vector<std::uint8_t>
readStream(ByteReader &reader, std::size_t count)
{
    std::vector<unsigned> lengths(16);
    for (int s = 0; s < 16; ++s)
        lengths[static_cast<std::size_t>(s)] =
            reader.scalar<std::uint8_t>();
    const auto bit_count = reader.scalar<std::uint64_t>();
    std::vector<std::uint8_t> stream((bit_count + 7) / 8);
    reader.raw(stream.data(), stream.size());

    if (count == 0)
        return {};
    const auto code = HuffmanCode::fromLengths(lengths);
    BitReader bits(stream, bit_count);
    return code.decode(bits, count);
}

} // namespace

std::vector<std::uint8_t>
serializeModel(const InterleavedCsc &model)
{
    ByteWriter writer;
    writer.raw(magic, sizeof(magic));
    writer.scalar<std::uint32_t>(version);
    writer.scalar<std::uint64_t>(model.rows());
    writer.scalar<std::uint64_t>(model.cols());
    writer.scalar<std::uint32_t>(model.numPe());
    writer.scalar<std::uint32_t>(model.options().index_bits);

    const auto &codebook = model.codebook();
    writer.scalar<std::uint32_t>(
        static_cast<std::uint32_t>(codebook.size()));
    for (float value : codebook.values())
        writer.scalar<float>(value);

    for (unsigned k = 0; k < model.numPe(); ++k) {
        const PeSlice &slice = model.pe(k);
        writer.scalar<std::uint32_t>(slice.localRows());
        writer.scalar<std::uint64_t>(slice.totalEntries());
        for (std::uint32_t p : slice.colPtr())
            writer.scalar<std::uint32_t>(p);

        std::vector<std::uint8_t> v_stream, z_stream;
        v_stream.reserve(slice.totalEntries());
        z_stream.reserve(slice.totalEntries());
        for (const CscEntry &e : slice.entries()) {
            v_stream.push_back(e.weight_index);
            z_stream.push_back(e.zero_count);
        }
        writeStream(writer, v_stream);
        writeStream(writer, z_stream);
    }

    const std::uint64_t checksum = fnv1a(writer.bytes());
    writer.scalar<std::uint64_t>(checksum);
    return writer.take();
}

InterleavedCsc
deserializeModel(std::span<const std::uint8_t> bytes)
{
    corrupt_if(bytes.size() < sizeof(magic) + 8,
               "model buffer too small (%zu bytes)", bytes.size());

    // Verify the trailing checksum first.
    const std::size_t payload_size = bytes.size() - 8;
    std::uint64_t stored_checksum;
    std::memcpy(&stored_checksum, bytes.data() + payload_size, 8);
    corrupt_if(fnv1a(bytes.subspan(0, payload_size)) != stored_checksum,
               "model file checksum mismatch (corrupted file?)");

    ByteReader reader(bytes.subspan(0, payload_size));
    char file_magic[4];
    reader.raw(file_magic, sizeof(file_magic));
    corrupt_if(std::memcmp(file_magic, magic, sizeof(magic)) != 0,
               "not an EIEM model file");
    const auto file_version = reader.scalar<std::uint32_t>();
    corrupt_if(file_version != version, "unsupported model version %u",
               file_version);

    const auto rows = reader.scalar<std::uint64_t>();
    const auto cols = reader.scalar<std::uint64_t>();
    InterleaveOptions opts;
    opts.n_pe = reader.scalar<std::uint32_t>();
    opts.index_bits = reader.scalar<std::uint32_t>();
    corrupt_if(opts.n_pe == 0 || opts.n_pe > 65536,
               "implausible PE count %u", opts.n_pe);

    const auto cb_size = reader.scalar<std::uint32_t>();
    corrupt_if(cb_size == 0 || cb_size > 16,
               "implausible codebook size %u", cb_size);
    std::vector<float> values(cb_size);
    for (auto &v : values)
        v = reader.scalar<float>();
    Codebook codebook(std::move(values));

    std::vector<PeSlice> slices;
    slices.reserve(opts.n_pe);
    for (unsigned k = 0; k < opts.n_pe; ++k) {
        const auto local_rows = reader.scalar<std::uint32_t>();
        const auto entry_count = reader.scalar<std::uint64_t>();
        std::vector<std::uint32_t> col_ptr(cols + 1);
        for (auto &p : col_ptr)
            p = reader.scalar<std::uint32_t>();
        // A valid checksum does not make the contents consistent:
        // check what PeSlice and decode() would otherwise panic on.
        corrupt_if(col_ptr.front() != 0 || col_ptr.back() != entry_count,
                   "PE %u column pointers span [%u, %u), not its %llu "
                   "entries", k, col_ptr.front(), col_ptr.back(),
                   static_cast<unsigned long long>(entry_count));
        for (std::size_t j = 0; j < cols; ++j)
            corrupt_if(col_ptr[j + 1] < col_ptr[j],
                       "PE %u column pointers decrease at column %zu", k,
                       j);

        const auto v_stream = readStream(reader, entry_count);
        const auto z_stream = readStream(reader, entry_count);
        const std::uint8_t max_index =
            v_stream.empty()
            ? 0
            : *std::max_element(v_stream.begin(), v_stream.end());
        corrupt_if(max_index >= cb_size,
                   "PE %u: codebook index %u out of %u", k, max_index,
                   cb_size);
        // Rows only grow within a column, so where its zero runs end
        // bounds every row the column touches.
        for (std::size_t j = 0; j < cols; ++j) {
            std::uint64_t rows_spanned = 0;
            for (std::uint32_t e = col_ptr[j]; e < col_ptr[j + 1]; ++e)
                rows_spanned += z_stream[e] + 1u;
            if (rows_spanned == 0)
                continue;
            const std::uint64_t last_row =
                (rows_spanned - 1) * opts.n_pe + k;
            corrupt_if(last_row >= rows,
                       "PE %u column %zu: zero runs reach row %llu of "
                       "%llu", k, j,
                       static_cast<unsigned long long>(last_row),
                       static_cast<unsigned long long>(rows));
        }
        std::vector<CscEntry> entries(entry_count);
        for (std::size_t e = 0; e < entry_count; ++e)
            entries[e] = {v_stream[e], z_stream[e]};
        slices.push_back(PeSlice::fromParts(
            std::move(entries), std::move(col_ptr), local_rows));
    }

    return InterleavedCsc::fromParts(rows, cols, opts,
                                     std::move(codebook),
                                     std::move(slices));
}

void
saveModelFile(const std::string &path, const InterleavedCsc &model)
{
    const auto bytes = serializeModel(model);
    std::ofstream out(path, std::ios::binary);
    fatal_if(!out, "cannot open '%s' for writing", path.c_str());
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    fatal_if(!out, "failed writing '%s'", path.c_str());
}

InterleavedCsc
loadModelFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    corrupt_if(!in, "cannot open '%s' for reading", path.c_str());
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::vector<std::uint8_t> bytes(size);
    in.read(reinterpret_cast<char *>(bytes.data()),
            static_cast<std::streamsize>(size));
    corrupt_if(!in, "failed reading '%s'", path.c_str());
    if (fault::fire("registry.truncate_read", path) &&
        bytes.size() > 8)
        bytes.resize(bytes.size() / 2);
    return deserializeModel(bytes);
}

} // namespace eie::compress
