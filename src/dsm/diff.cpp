#include "dsm/diff.hpp"

#include <algorithm>
#include <cstring>

#include "common/status.hpp"

namespace parade::dsm {
namespace {

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &value, 4);
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t value;
  std::memcpy(&value, p, 4);
  return value;
}

bool page_ok(PageId page, std::size_t num_pages) {
  return page >= 0 && static_cast<std::size_t>(page) < num_pages;
}

bool node_ok(NodeId node, int nodes) { return node >= 0 && node < nodes; }

}  // namespace

std::vector<std::uint8_t> encode_diff(const std::uint8_t* current,
                                      const std::uint8_t* twin,
                                      std::size_t page_bytes) {
  PARADE_CHECK_MSG(page_bytes % 8 == 0, "page size must be 8-byte aligned");
  std::vector<std::uint8_t> out;
  const std::size_t words = page_bytes / 8;

  std::size_t run_start = 0;
  bool in_run = false;
  auto flush_run = [&](std::size_t end_word) {
    const std::uint32_t offset = static_cast<std::uint32_t>(run_start * 8);
    const std::uint32_t length =
        static_cast<std::uint32_t>((end_word - run_start) * 8);
    append_u32(out, offset);
    append_u32(out, length);
    const std::size_t at = out.size();
    out.resize(at + length);
    std::memcpy(out.data() + at, current + offset, length);
  };

  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t a, b;
    std::memcpy(&a, current + w * 8, 8);
    std::memcpy(&b, twin + w * 8, 8);
    const bool changed = a != b;
    if (changed && !in_run) {
      run_start = w;
      in_run = true;
    } else if (!changed && in_run) {
      flush_run(w);
      in_run = false;
    }
  }
  if (in_run) flush_run(words);
  return out;
}

std::size_t append_diff(WireBuffer& out, const std::uint8_t* current,
                        const std::uint8_t* twin, std::size_t page_bytes) {
  PARADE_CHECK_MSG(page_bytes % 8 == 0, "page size must be 8-byte aligned");
  const std::size_t count_at = out.reserve_u32();
  const std::size_t payload_start = out.size();
  const std::size_t words = page_bytes / 8;

  std::size_t run_start = 0;
  bool in_run = false;
  auto flush_run = [&](std::size_t end_word) {
    const auto offset = static_cast<std::uint32_t>(run_start * 8);
    const auto length =
        static_cast<std::uint32_t>((end_word - run_start) * 8);
    out.put(offset);
    out.put(length);
    out.put_bytes(current + offset, length);
  };

  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t a, b;
    std::memcpy(&a, current + w * 8, 8);
    std::memcpy(&b, twin + w * 8, 8);
    const bool changed = a != b;
    if (changed && !in_run) {
      run_start = w;
      in_run = true;
    } else if (!changed && in_run) {
      flush_run(w);
      in_run = false;
    }
  }
  if (in_run) flush_run(words);
  const std::size_t diff_bytes = out.size() - payload_start;
  out.patch_u32(count_at, static_cast<std::uint32_t>(diff_bytes));
  return diff_bytes;
}

bool diff_well_formed(std::size_t page_bytes, const std::uint8_t* diff,
                      std::size_t diff_bytes) {
  std::size_t pos = 0;
  while (pos < diff_bytes) {
    if (pos + 8 > diff_bytes) return false;
    const std::uint32_t offset = read_u32(diff + pos);
    const std::uint32_t length = read_u32(diff + pos + 4);
    pos += 8;
    if (length == 0 || pos + length > diff_bytes) return false;
    if (static_cast<std::size_t>(offset) + length > page_bytes) return false;
    pos += length;
  }
  return true;
}

bool ids_in_range(const BarrierDepartMsg& depart, std::size_t num_pages,
                  int nodes) {
  return std::all_of(
      depart.entries.begin(), depart.entries.end(), [&](const DepartEntry& e) {
        return page_ok(e.page, num_pages) && node_ok(e.new_home, nodes) &&
               (e.sole_modifier == kAnyNode || node_ok(e.sole_modifier, nodes));
      });
}

bool ids_in_range(const LockGrantMsg& grant, std::size_t num_pages, int nodes) {
  return std::all_of(
      grant.notices.begin(), grant.notices.end(), [&](const WriteNotice& n) {
        return page_ok(n.page, num_pages) && node_ok(n.modifier, nodes);
      });
}

bool apply_diff(std::uint8_t* target, std::size_t page_bytes,
                const std::uint8_t* diff, std::size_t diff_bytes) {
  if (!diff_well_formed(page_bytes, diff, diff_bytes)) return false;
  std::size_t pos = 0;
  while (pos < diff_bytes) {
    const std::uint32_t offset = read_u32(diff + pos);
    const std::uint32_t length = read_u32(diff + pos + 4);
    std::memcpy(target + offset, diff + pos + 8, length);
    pos += 8 + length;
  }
  return true;
}

std::size_t diff_payload_bytes(const std::uint8_t* diff,
                               std::size_t diff_bytes) {
  std::size_t total = 0;
  std::size_t pos = 0;
  while (pos + 8 <= diff_bytes) {
    const std::uint32_t length = read_u32(diff + pos + 4);
    total += length;
    pos += 8 + length;
  }
  return total;
}

}  // namespace parade::dsm
