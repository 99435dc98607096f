#include "storage/partition.h"

#include "common/bytes.h"

namespace mistique {

namespace {

constexpr uint32_t kPartitionMagic = 0x4d535451;  // "MSTQ"
// Directory entry: id u64, dtype u8, bit width u8, value count u64,
// payload length u64.
constexpr size_t kDirEntryBytes = 8 + 1 + 1 + 8 + 8;

struct DirEntry {
  ChunkId id = 0;
  uint8_t dtype_tag = 0;
  uint8_t bit_width = 0;
  uint64_t num_values = 0;
  uint64_t length = 0;
};

struct Header {
  uint32_t id = 0;
  uint8_t codec_tag = 0;
  std::vector<DirEntry> dir;
};

// Parses the uncompressed header and chunk directory. The declared chunk
// count is checked against the bytes that follow before the directory is
// sized, so a corrupt count cannot force a huge allocation.
Status ReadHeader(ByteReader* r, Header* h) {
  uint32_t magic = 0;
  MISTIQUE_RETURN_NOT_OK(r->GetU32(&magic));
  if (magic != kPartitionMagic) {
    return Status::Corruption("bad partition magic");
  }
  uint32_t num_chunks = 0;
  MISTIQUE_RETURN_NOT_OK(r->GetU32(&h->id));
  MISTIQUE_RETURN_NOT_OK(r->GetU8(&h->codec_tag));
  MISTIQUE_RETURN_NOT_OK(r->GetU32(&num_chunks));
  if (num_chunks > r->remaining() / kDirEntryBytes) {
    return Status::Corruption("partition directory of " +
                              std::to_string(num_chunks) +
                              " chunks overruns the file");
  }
  h->dir.resize(num_chunks);
  for (DirEntry& e : h->dir) {
    MISTIQUE_RETURN_NOT_OK(r->GetU64(&e.id));
    MISTIQUE_RETURN_NOT_OK(r->GetU8(&e.dtype_tag));
    MISTIQUE_RETURN_NOT_OK(r->GetU8(&e.bit_width));
    MISTIQUE_RETURN_NOT_OK(r->GetU64(&e.num_values));
    MISTIQUE_RETURN_NOT_OK(r->GetU64(&e.length));
  }
  return Status::OK();
}

// Whether a directory entry's payload length is exactly what its dtype,
// bit width and value count occupy. Chunk decoders index the payload by
// value count, so a mismatch would read or write past it.
bool LengthMatches(const DirEntry& e) {
  // Every encoding spends at least one bit per value; checking that first
  // also keeps the size arithmetic below from overflowing.
  if (e.num_values / 8 > e.length) return false;
  const auto dtype = static_cast<DType>(e.dtype_tag);
  size_t expected = 0;
  switch (dtype) {
    case DType::kPacked:
    case DType::kPackedW:
      if (e.bit_width < 1 || e.bit_width > 8) return false;
      expected = dtype == DType::kPacked
                     ? (e.num_values * e.bit_width + 7) / 8
                     : PackedWByteSize(e.bit_width, e.num_values);
      break;
    default:
      expected = DTypeByteSize(dtype, e.num_values);
  }
  return expected == e.length;
}

}  // namespace

Status Partition::Add(ChunkId chunk_id, ColumnChunk chunk) {
  if (chunk_id == kInvalidChunkId) {
    return Status::InvalidArgument("invalid chunk id 0");
  }
  if (index_.count(chunk_id) != 0) {
    return Status::AlreadyExists("chunk " + std::to_string(chunk_id) +
                                 " already in partition " +
                                 std::to_string(id_));
  }
  index_[chunk_id] = chunks_.size();
  data_bytes_ += chunk.byte_size();
  ids_.push_back(chunk_id);
  chunks_.push_back(std::move(chunk));
  return Status::OK();
}

Result<const ColumnChunk*> Partition::Get(ChunkId chunk_id) const {
  auto it = index_.find(chunk_id);
  if (it == index_.end()) {
    return Status::NotFound("chunk " + std::to_string(chunk_id) +
                            " not in partition " + std::to_string(id_));
  }
  return &chunks_[it->second];
}

Result<std::vector<uint8_t>> Partition::Serialize(const Codec& codec) const {
  // Chunk directory: id, dtype, value count, payload length.
  ByteWriter dir;
  ByteWriter payload;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const ColumnChunk& c = chunks_[i];
    dir.PutU64(ids_[i]);
    dir.PutU8(static_cast<uint8_t>(c.dtype()));
    dir.PutU8(c.bit_width());
    dir.PutU64(c.num_values());
    dir.PutU64(c.byte_size());
    payload.PutRaw(c.data().data(), c.byte_size());
  }

  std::vector<uint8_t> compressed;
  MISTIQUE_RETURN_NOT_OK(codec.Compress(payload.bytes(), &compressed));
  // A codec that does not shrink the payload buys nothing but decode time:
  // store the payload raw under kNone, which every reader dispatches on.
  const bool raw = compressed.size() >= payload.size();

  ByteWriter w;
  w.PutU32(kPartitionMagic);
  w.PutU32(id_);
  w.PutU8(static_cast<uint8_t>(raw ? CodecType::kNone : codec.type()));
  w.PutU32(static_cast<uint32_t>(chunks_.size()));
  w.PutRaw(dir.bytes().data(), dir.size());
  w.PutBlob(raw ? payload.bytes() : compressed);
  return w.TakeBytes();
}

Result<std::vector<ChunkId>> Partition::ReadChunkIds(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  Header h;
  MISTIQUE_RETURN_NOT_OK(ReadHeader(&r, &h));
  std::vector<ChunkId> ids;
  ids.reserve(h.dir.size());
  for (const DirEntry& e : h.dir) ids.push_back(e.id);
  return ids;
}

Result<Partition> Partition::Deserialize(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  Header h;
  MISTIQUE_RETURN_NOT_OK(ReadHeader(&r, &h));
  for (const DirEntry& e : h.dir) {
    if (e.dtype_tag > static_cast<uint8_t>(DType::kPackedW)) {
      return Status::Corruption("bad dtype tag in partition directory");
    }
  }

  std::vector<uint8_t> compressed;
  MISTIQUE_RETURN_NOT_OK(r.GetBlob(&compressed));
  MISTIQUE_ASSIGN_OR_RETURN(const Codec* codec,
                            GetCodec(static_cast<CodecType>(h.codec_tag)));
  std::vector<uint8_t> payload;
  MISTIQUE_RETURN_NOT_OK(codec->Decompress(compressed, &payload));

  Partition p(h.id);
  size_t offset = 0;
  for (const DirEntry& e : h.dir) {
    if (e.length > payload.size() - offset) {
      return Status::Corruption("partition payload shorter than directory");
    }
    if (!LengthMatches(e)) {
      return Status::Corruption("chunk " + std::to_string(e.id) +
                                " payload length does not match its " +
                                "value count");
    }
    std::vector<uint8_t> data(payload.begin() + offset,
                              payload.begin() + offset + e.length);
    offset += e.length;
    const Status added =
        p.Add(e.id, ColumnChunk(static_cast<DType>(e.dtype_tag),
                                e.num_values, std::move(data), e.bit_width));
    if (!added.ok()) {
      return Status::Corruption("partition directory: " + added.message());
    }
  }
  if (offset != payload.size()) {
    return Status::Corruption("partition payload longer than directory");
  }
  return p;
}

}  // namespace mistique
