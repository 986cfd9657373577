// Fixture: two message structs taking the same kind (the second is
// flagged by codec-coverage). A kind named in a comment, like
// Message<Ping, MsgKind::kPong>, does not count.
#pragma once

namespace fixture {
struct Ping final : Message<Ping, MsgKind::kPing> {};
struct Pong final : Message<Pong, MsgKind::kPong> {};
struct Echo final : Message<Echo, MsgKind::kPong> {};
}  // namespace fixture
