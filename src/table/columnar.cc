#include "table/columnar.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "table/key_dictionary.h"
#include "util/rng.h"

namespace autofeat {

namespace {

constexpr char kMagic[4] = {'A', 'F', 'C', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 32;
constexpr size_t kAlignment = 64;
constexpr uint32_t kNullId = 0xFFFFFFFFu;

// ---- Little-endian encoding ------------------------------------------------

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(b, 8);
}

// Pads `payload` with zero bytes until (kHeaderBytes + payload size) is a
// multiple of kAlignment — fixed-width sections then sit on 64-byte file
// offsets, the mmap contract of the header comment.
void AlignPayload(std::string* payload) {
  size_t offset = kHeaderBytes + payload->size();
  size_t pad = (kAlignment - offset % kAlignment) % kAlignment;
  payload->append(pad, '\0');
}

// ---- Bounds-checked reading ------------------------------------------------

struct Cursor {
  const char* data;
  size_t size;
  size_t pos = 0;

  size_t Remaining() const { return size - pos; }
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("corrupt columnar payload: " + what +
                                   " at offset " + std::to_string(pos));
  }
  Status Need(size_t n, const char* what) {
    if (Remaining() < n) return Fail(std::string("truncated ") + what);
    return Status::OK();
  }
  Status ReadU32(uint32_t* v, const char* what) {
    AF_RETURN_NOT_OK(Need(4, what));
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(
                 static_cast<unsigned char>(data[pos + i]))
             << (8 * i);
    }
    pos += 4;
    *v = out;
    return Status::OK();
  }
  Status ReadU64(uint64_t* v, const char* what) {
    AF_RETURN_NOT_OK(Need(8, what));
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(
                 static_cast<unsigned char>(data[pos + i]))
             << (8 * i);
    }
    pos += 8;
    *v = out;
    return Status::OK();
  }
  Status ReadBytes(std::string* out, size_t n, const char* what) {
    AF_RETURN_NOT_OK(Need(n, what));
    out->assign(data + pos, n);
    pos += n;
    return Status::OK();
  }
  // Skips the zero padding AlignPayload wrote at this position.
  Status SkipAlignment() {
    size_t offset = kHeaderBytes + pos;
    size_t pad = (kAlignment - offset % kAlignment) % kAlignment;
    AF_RETURN_NOT_OK(Need(pad, "alignment padding"));
    pos += pad;
    return Status::OK();
  }
};

// ---- Column sections -------------------------------------------------------

void WriteValidityBitmap(std::string* payload, const Column& col) {
  size_t n = col.size();
  std::string bits((n + 7) / 8, '\0');
  for (size_t i = 0; i < n; ++i) {
    if (!col.IsNull(i)) bits[i / 8] |= static_cast<char>(1u << (i % 8));
  }
  payload->append(bits);
}

void WriteColumnData(std::string* payload, const Column& col) {
  size_t n = col.size();
  switch (col.type()) {
    case DataType::kDouble:
      AlignPayload(payload);
      for (size_t i = 0; i < n; ++i) {
        // Null slots hold the 0.0 placeholder; the bitmap is authoritative.
        PutU64(payload, std::bit_cast<uint64_t>(col.GetDouble(i)));
      }
      return;
    case DataType::kInt64:
      AlignPayload(payload);
      for (size_t i = 0; i < n; ++i) {
        PutU64(payload, static_cast<uint64_t>(col.GetInt64(i)));
      }
      return;
    case DataType::kString: {
      // Dictionary encoding via KeyDictionary: ids are dense and assigned
      // in first-seen row order, and within one string column the
      // string -> id mapping is injective, so the first row carrying each
      // id recovers the dictionary value exactly.
      std::vector<uint32_t> ids;
      KeyDictionary dict = KeyDictionary::Build(col, &ids);
      std::vector<std::string_view> values(dict.num_keys());
      std::vector<bool> seen(dict.num_keys(), false);
      for (size_t i = 0; i < n; ++i) {
        uint32_t id = ids[i];
        if (id == KeyDictionary::kNoKey || seen[id]) continue;
        seen[id] = true;
        values[id] = col.GetString(i);
      }
      PutU32(payload, dict.num_keys());
      for (std::string_view v : values) {
        PutU32(payload, static_cast<uint32_t>(v.size()));
        payload->append(v.data(), v.size());
      }
      AlignPayload(payload);
      for (size_t i = 0; i < n; ++i) {
        PutU32(payload, ids[i] == KeyDictionary::kNoKey ? kNullId : ids[i]);
      }
      return;
    }
  }
}

Status ReadColumnData(Cursor* in, DataType type, size_t num_rows,
                      const std::vector<uint8_t>& valid, Column* out) {
  switch (type) {
    case DataType::kDouble: {
      AF_RETURN_NOT_OK(in->SkipAlignment());
      std::vector<double> values(num_rows);
      for (size_t i = 0; i < num_rows; ++i) {
        uint64_t bits = 0;
        AF_RETURN_NOT_OK(in->ReadU64(&bits, "double values"));
        values[i] = std::bit_cast<double>(bits);
      }
      *out = Column::Doubles(std::move(values), valid);
      return Status::OK();
    }
    case DataType::kInt64: {
      AF_RETURN_NOT_OK(in->SkipAlignment());
      std::vector<int64_t> values(num_rows);
      for (size_t i = 0; i < num_rows; ++i) {
        uint64_t bits = 0;
        AF_RETURN_NOT_OK(in->ReadU64(&bits, "int64 values"));
        values[i] = static_cast<int64_t>(bits);
      }
      *out = Column::Int64s(std::move(values), valid);
      return Status::OK();
    }
    case DataType::kString: {
      uint32_t dict_size = 0;
      AF_RETURN_NOT_OK(in->ReadU32(&dict_size, "dictionary size"));
      if (dict_size > in->Remaining()) {
        return in->Fail("dictionary size exceeds payload");
      }
      std::vector<std::string> dict(dict_size);
      for (uint32_t d = 0; d < dict_size; ++d) {
        uint32_t len = 0;
        AF_RETURN_NOT_OK(in->ReadU32(&len, "dictionary value length"));
        AF_RETURN_NOT_OK(in->ReadBytes(&dict[d], len, "dictionary value"));
      }
      AF_RETURN_NOT_OK(in->SkipAlignment());
      std::vector<std::string> values(num_rows);
      for (size_t i = 0; i < num_rows; ++i) {
        uint32_t id = 0;
        AF_RETURN_NOT_OK(in->ReadU32(&id, "dictionary ids"));
        bool is_null = !valid.empty() && valid[i] == 0;
        if (is_null) {
          if (id != kNullId) return in->Fail("non-sentinel id on a null row");
          continue;
        }
        if (id >= dict_size) return in->Fail("dictionary id out of range");
        values[i] = dict[id];
      }
      *out = Column::Strings(std::move(values), valid);
      return Status::OK();
    }
  }
  return in->Fail("unknown column type");
}

}  // namespace

std::string WriteColumnarBuffer(const Table& table) {
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(table.name().size()));
  payload.append(table.name());
  PutU64(&payload, table.num_rows());
  PutU32(&payload, static_cast<uint32_t>(table.num_columns()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    const std::string& name = table.schema().field(c).name;
    PutU32(&payload, static_cast<uint32_t>(name.size()));
    payload.append(name);
    bool has_nulls = col.null_count() > 0;
    payload.push_back(static_cast<char>(col.type()));
    payload.push_back(has_nulls ? 1 : 0);
    payload.append(2, '\0');  // reserved
    if (has_nulls) {
      AlignPayload(&payload);
      WriteValidityBitmap(&payload, col);
    }
    WriteColumnData(&payload, col);
  }
  // Trailing pad: the whole image (header + payload) ends on a 64-byte
  // boundary, so concatenated or mmapped images keep every section aligned.
  AlignPayload(&payload);

  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kVersion);
  PutU64(&out, payload.size());
  PutU64(&out, Fnv1a64(payload));
  PutU64(&out, 0);  // reserved; pads the header to 32 bytes
  out.append(payload);
  return out;
}

Result<Table> ReadColumnarBuffer(std::string_view data,
                                 const std::string& fallback_name) {
  if (data.size() < kHeaderBytes) {
    return Status::IOError("columnar image truncated: " +
                           std::to_string(data.size()) +
                           " bytes is shorter than the 32-byte header");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "not a columnar table (bad magic; expected \"AFC1\")");
  }
  Cursor header{data.data(), kHeaderBytes, sizeof(kMagic)};
  uint32_t version = 0;
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
  AF_RETURN_NOT_OK(header.ReadU32(&version, "version"));
  AF_RETURN_NOT_OK(header.ReadU64(&payload_size, "payload size"));
  AF_RETURN_NOT_OK(header.ReadU64(&checksum, "checksum"));
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported columnar version " +
                                   std::to_string(version) + " (reader is v" +
                                   std::to_string(kVersion) + ")");
  }
  if (payload_size != data.size() - kHeaderBytes) {
    return Status::IOError(
        "columnar image truncated: header promises " +
        std::to_string(payload_size) + " payload bytes, file carries " +
        std::to_string(data.size() - kHeaderBytes));
  }
  uint64_t actual = Fnv1a64(data.substr(kHeaderBytes));
  if (actual != checksum) {
    std::ostringstream msg;
    msg << "columnar payload checksum mismatch (stored " << std::hex
        << checksum << ", computed " << actual << ")";
    return Status::InvalidArgument(msg.str());
  }

  Cursor in{data.data() + kHeaderBytes, payload_size};
  uint32_t name_len = 0;
  AF_RETURN_NOT_OK(in.ReadU32(&name_len, "table name length"));
  std::string name;
  AF_RETURN_NOT_OK(in.ReadBytes(&name, name_len, "table name"));
  uint64_t num_rows = 0;
  uint32_t num_columns = 0;
  AF_RETURN_NOT_OK(in.ReadU64(&num_rows, "row count"));
  AF_RETURN_NOT_OK(in.ReadU32(&num_columns, "column count"));
  // Each column costs at least its 8-byte descriptor and each row of any
  // column at least 4 payload bytes; fabricated counts can't force a huge
  // allocation before hitting a truncation error.
  if (num_columns > in.Remaining()) {
    return in.Fail("column count exceeds payload");
  }
  if (num_columns > 0 && num_rows > in.Remaining()) {
    return in.Fail("row count exceeds payload");
  }

  Table table(name.empty() ? fallback_name : name);
  for (uint32_t c = 0; c < num_columns; ++c) {
    uint32_t col_name_len = 0;
    AF_RETURN_NOT_OK(in.ReadU32(&col_name_len, "column name length"));
    std::string col_name;
    AF_RETURN_NOT_OK(in.ReadBytes(&col_name, col_name_len, "column name"));
    AF_RETURN_NOT_OK(in.Need(4, "column descriptor"));
    uint8_t type_byte = static_cast<uint8_t>(in.data[in.pos]);
    uint8_t has_nulls = static_cast<uint8_t>(in.data[in.pos + 1]);
    in.pos += 4;  // type, has_nulls, 2 reserved bytes
    if (type_byte > static_cast<uint8_t>(DataType::kString)) {
      return in.Fail("unknown column type " + std::to_string(type_byte));
    }
    if (has_nulls > 1) {
      return in.Fail("invalid has_nulls flag " + std::to_string(has_nulls));
    }
    std::vector<uint8_t> valid;
    if (has_nulls == 1) {
      AF_RETURN_NOT_OK(in.SkipAlignment());
      size_t bitmap_bytes = (num_rows + 7) / 8;
      AF_RETURN_NOT_OK(in.Need(bitmap_bytes, "validity bitmap"));
      valid.resize(num_rows);
      for (uint64_t i = 0; i < num_rows; ++i) {
        valid[i] = (static_cast<unsigned char>(in.data[in.pos + i / 8]) >>
                    (i % 8)) &
                   1u;
      }
      in.pos += bitmap_bytes;
    }
    Column col;
    AF_RETURN_NOT_OK(ReadColumnData(&in, static_cast<DataType>(type_byte),
                                    num_rows, valid, &col));
    AF_RETURN_NOT_OK(table.AddColumn(col_name, std::move(col)));
  }
  AF_RETURN_NOT_OK(in.SkipAlignment());  // the writer's trailing pad
  if (in.Remaining() != 0) {
    return in.Fail(std::to_string(in.Remaining()) +
                   " trailing bytes after the last column");
  }
  return table;
}

Status WriteColumnarFile(const Table& table, const std::string& path) {
  std::string image = WriteColumnarBuffer(table);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
  out.flush();
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Result<Table> ReadColumnarFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read failed: " + path);
  std::string fallback = std::filesystem::path(path).stem().string();
  return ReadColumnarBuffer(buffer.str(), fallback);
}

}  // namespace autofeat
