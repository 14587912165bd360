// Bit-accounted message encoding.
//
// CONGEST proofs are about message *bits*, so the simulator charges exactly
// what a protocol writes. BitWriter packs fields little-endian-within-word;
// BitReader replays them in order. A field is (value, width) with
// width <= 64; the reader must consume the same widths in the same order,
// which every protocol in this repository does by construction (symmetric
// encode/decode functions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "support/assert.hpp"

namespace dmatch {

/// The words of a bit string: the first two live inline, and the store
/// spills to the heap only above 128 bits. CONGEST payloads are O(log n)
/// bits, so nearly every message fits inline and building, sending and
/// delivering one allocates nothing. A moved-from store is empty and
/// inline.
class WordStore {
 public:
  using value_type = std::uint64_t;
  using iterator = std::uint64_t*;
  using const_iterator = const std::uint64_t*;
  static constexpr std::uint32_t kInlineWords = 2;

  WordStore() noexcept : inline_{0, 0} {}
  WordStore(const WordStore& other) : inline_{0, 0} { copy_from(other); }
  WordStore(WordStore&& other) noexcept : inline_{0, 0} { steal(other); }
  WordStore& operator=(const WordStore& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  WordStore& operator=(WordStore&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~WordStore() { release(); }

  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] bool spilled() const noexcept { return cap_ > kInlineWords; }

  [[nodiscard]] std::uint64_t* data() noexcept {
    return spilled() ? heap_ : inline_;
  }
  [[nodiscard]] const std::uint64_t* data() const noexcept {
    return spilled() ? heap_ : inline_;
  }
  std::uint64_t& operator[](std::size_t i) noexcept { return data()[i]; }
  const std::uint64_t& operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }

  void push_back(std::uint64_t word) {
    if (size_ == cap_) grow(cap_ * 2);
    data()[size_++] = word;
  }

  /// Replace the contents with `count` copies of `word`.
  void assign(std::size_t count, std::uint64_t word) {
    const auto n = static_cast<std::uint32_t>(count);
    if (n > cap_) {
      release();
      heap_ = new std::uint64_t[n];
      cap_ = n;
    }
    std::uint64_t* const d = data();
    for (std::uint32_t i = 0; i < n; ++i) d[i] = word;
    size_ = n;
  }

  friend bool operator==(const WordStore& a, const WordStore& b) noexcept {
    return a.size_ == b.size_ &&
           (a.size_ == 0 ||
            std::memcmp(a.data(), b.data(), a.size_ * sizeof(std::uint64_t)) ==
                0);
  }

 private:
  void release() noexcept {
    if (spilled()) {
      delete[] heap_;
      inline_[0] = 0;
      inline_[1] = 0;
      cap_ = kInlineWords;
    }
    size_ = 0;
  }

  /// Take other's words and leave it empty and inline.
  void steal(WordStore& other) noexcept {
    size_ = other.size_;
    cap_ = other.cap_;
    if (other.spilled()) {
      heap_ = other.heap_;
      other.inline_[0] = 0;
      other.inline_[1] = 0;
      other.cap_ = kInlineWords;
    } else {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    }
    other.size_ = 0;
  }

  /// Become a copy of other, reusing this store's capacity when it fits.
  void copy_from(const WordStore& other) {
    if (other.size_ > cap_) {
      release();
      heap_ = new std::uint64_t[other.size_];
      cap_ = other.size_;
    }
    if (other.size_ != 0) {
      std::memcpy(data(), other.data(), other.size_ * sizeof(std::uint64_t));
    }
    size_ = other.size_;
  }

  void grow(std::uint32_t cap) {
    auto* const heap = new std::uint64_t[cap];
    if (size_ != 0) std::memcpy(heap, data(), size_ * sizeof(std::uint64_t));
    const std::uint32_t size = size_;
    release();
    heap_ = heap;
    cap_ = cap;
    size_ = size;
  }

  union {
    std::uint64_t inline_[kInlineWords];
    std::uint64_t* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInlineWords;
};

class BitWriter {
 public:
  /// Append `width` low bits of `value`. Requires 0 < width <= 64 and that
  /// value fits in `width` bits.
  void write(std::uint64_t value, unsigned width) {
    DMATCH_EXPECTS(width >= 1 && width <= 64);
    DMATCH_EXPECTS(width == 64 || (value >> width) == 0);

    const std::uint32_t word_index = bits_ / 64;
    const unsigned offset = bits_ % 64;
    if (word_index == words_.size()) words_.push_back(0);

    words_[word_index] |= value << offset;
    if (offset + width > 64) {
      // High bits did not fit; put them at the bottom of a new word.
      words_.push_back(value >> (64 - offset));
    }
    bits_ += width;
  }

  /// Convenience: unsigned value with its exact required width.
  void write_bool(bool b) { write(b ? 1 : 0, 1); }

  [[nodiscard]] std::uint32_t bit_count() const noexcept { return bits_; }
  [[nodiscard]] const WordStore& words() const noexcept { return words_; }

  WordStore take_words() && noexcept { return std::move(words_); }

 private:
  WordStore words_;
  std::uint32_t bits_ = 0;
};

class BitReader {
 public:
  BitReader(const std::uint64_t* words, std::uint32_t bit_count) noexcept
      : words_(words), bits_(bit_count) {}
  BitReader(const WordStore& words, std::uint32_t bit_count) noexcept
      : BitReader(words.data(), bit_count) {}

  /// Read back `width` bits. Requires the same (width) sequence as written.
  std::uint64_t read(unsigned width) {
    DMATCH_EXPECTS(width >= 1 && width <= 64);
    DMATCH_EXPECTS(cursor_ + width <= bits_);

    const std::uint32_t word_index = cursor_ / 64;
    const unsigned offset = cursor_ % 64;
    std::uint64_t value = words_[word_index] >> offset;
    const unsigned got = 64 - offset;
    if (got < width) value |= words_[word_index + 1] << got;
    if (width < 64) value &= (std::uint64_t{1} << width) - 1;
    cursor_ += width;
    return value;
  }

  bool read_bool() { return read(1) != 0; }

  [[nodiscard]] std::uint32_t remaining() const noexcept {
    return bits_ - cursor_;
  }

 private:
  const std::uint64_t* words_;
  std::uint32_t bits_;
  std::uint32_t cursor_ = 0;
};

/// Number of bits needed to represent `value` (at least 1).
constexpr unsigned bit_width_for(std::uint64_t value) noexcept {
  unsigned w = 1;
  while (value >>= 1) ++w;
  return w;
}

}  // namespace dmatch
