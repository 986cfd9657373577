// Fixture: the kind list. kPing has no codec table case (flagged by
// codec-coverage); kPong has one.
#pragma once

#define MRP_MESSAGE_KINDS(X) \
  X(kPing, 1, "fixture.Ping") \
  X(kPong, 2, "fixture.Pong")
