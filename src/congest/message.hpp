// Messages exchanged by simulated CONGEST processes.
//
// A Message is an opaque bit string with an exact bit count; the Network
// charges protocols for precisely the bits they write (support/wire.hpp),
// which is what CONGEST complexity statements are about. Its words live
// in a WordStore: up to 128 bits inline, so sealing, sending, routing
// and reading a message allocate nothing; only larger payloads spill to
// the heap.
#pragma once

#include <cstdint>
#include <utility>

#include "support/wire.hpp"

namespace dmatch::congest {

struct Message {
  WordStore words;
  std::uint32_t bits = 0;

  Message() = default;

  /// Seal a writer into a message.
  static Message from_writer(BitWriter&& w) {
    Message m;
    m.bits = w.bit_count();
    m.words = std::move(w).take_words();
    return m;
  }

  [[nodiscard]] BitReader reader() const { return BitReader(words, bits); }
};

// Mailboxes hold two Messages per port slot, 2 x 2m per Network.
static_assert(sizeof(Message) <= 32);

/// A delivered message: `port` is the *receiver's* port the message arrived
/// on (i.e. identifies the sending neighbor from the receiver's viewpoint).
struct Envelope {
  int port = -1;
  Message msg;
};

}  // namespace dmatch::congest
