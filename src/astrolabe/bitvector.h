// Dynamic bit vector with the operations the subscription layer needs:
// set/test, binary OR (the paper's aggregation of subscription arrays,
// §6), population count, and wire-size estimation.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace nw::astrolabe {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t nbits)
      : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  std::size_t size() const noexcept { return nbits_; }
  bool empty() const noexcept { return nbits_ == 0; }

  void Set(std::size_t i) {
    assert(i < nbits_);
    words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
  }

  void Clear(std::size_t i) {
    assert(i < nbits_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  bool Test(std::size_t i) const {
    assert(i < nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  std::size_t PopCount() const noexcept {
    std::size_t n = 0;
    for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  // In-place OR. Grows to the larger of the two sizes.
  BitVector& operator|=(const BitVector& other) {
    if (other.nbits_ > nbits_) {
      nbits_ = other.nbits_;
      words_.resize(other.words_.size(), 0);
    }
    for (std::size_t i = 0; i < other.words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
    return *this;
  }

  BitVector& operator&=(const BitVector& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= i < other.words_.size() ? other.words_[i] : 0;
    }
    return *this;
  }

  friend BitVector operator|(BitVector a, const BitVector& b) {
    a |= b;
    return a;
  }
  friend BitVector operator&(BitVector a, const BitVector& b) {
    a &= b;
    return a;
  }

  // True if every set bit of `query` is also set here.
  bool ContainsAll(const BitVector& query) const {
    for (std::size_t i = 0; i < query.words_.size(); ++i) {
      const std::uint64_t mine = i < words_.size() ? words_[i] : 0;
      if ((query.words_[i] & ~mine) != 0) return false;
    }
    return true;
  }

  friend bool operator==(const BitVector& a, const BitVector& b) {
    if (a.nbits_ != b.nbits_) return false;
    return a.words_ == b.words_;
  }

  std::size_t WireBytes() const noexcept { return words_.size() * 8 + 4; }

  // "bits[<size>;{<set positions, ascending>}]". Walks the set bits word by
  // word, so a sparse vector costs its popcount, not its size.
  std::string ToString() const {
    std::string s = "bits[" + std::to_string(nbits_) + ";{";
    bool first = true;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t i = w * 64 + std::size_t(std::countr_zero(bits));
        if (i >= nbits_) break;
        if (!first) s += ',';
        s += std::to_string(i);
        first = false;
      }
    }
    s += "}]";
    return s;
  }

 private:
  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace nw::astrolabe
