// Fixture: a codec table test (it calls net::EncodeMessage) with a case
// for kPong only.
void Cases() { (void)net::EncodeMessage(Make(MsgKind::kPong)); }
